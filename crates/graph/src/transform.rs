//! Graph transforms: normalization, reversal, subgraphs, self-loop
//! completion and browse-graph transitive closure.

// lint: allow-file(no-index) — ItemId values are dense indices assigned by GraphBuilder and every
// per-node/per-edge array is sized to node_count/edge_count, so accesses are in
// bounds by construction.
use std::collections::HashMap;

use crate::{DuplicateEdgePolicy, GraphBuilder, GraphError, ItemId, PreferenceGraph};

/// Returns a copy of `g` with node weights rescaled to sum to exactly 1.
///
/// This is the normalization step of the `VC_k → NPC_k` reduction in
/// Theorem 3.1; it rescales every solution's cover by the same constant, so
/// approximation ratios are unchanged.
///
/// # Errors
///
/// Fails with [`GraphError::EmptyGraph`] if all node weights are zero (there
/// is no distribution to normalize to).
pub fn normalize_node_weights(g: &PreferenceGraph) -> Result<PreferenceGraph, GraphError> {
    let sum = g.total_node_weight();
    if sum <= 0.0 {
        return Err(GraphError::EmptyGraph);
    }
    let mut out = g.clone();
    for w in &mut out.owned_mut().node_weights {
        *w /= sum;
    }
    Ok(out)
}

/// Returns `g` with every edge orientation reversed (weights preserved).
///
/// Used by the `DS_k → IPC_k` reduction of Theorem 4.1, where domination
/// "out of S" in the dominating-set instance corresponds to coverage "into
/// S" in the preference graph.
pub fn reverse(g: &PreferenceGraph) -> PreferenceGraph {
    let c = g.csr();
    let reversed = crate::Csr {
        out_offsets: c.in_offsets,
        out_targets: c.in_sources,
        out_weights: c.in_weights,
        in_offsets: c.out_offsets,
        in_sources: c.out_targets,
        in_weights: c.out_weights,
        ..c
    };
    PreferenceGraph::new_owned(crate::CsrParts::copied_from(reversed), g.shared_labels())
}

/// The result of [`induced_subgraph`]: the subgraph plus the id mapping.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The induced subgraph with dense ids `0..keep.len()`.
    pub graph: PreferenceGraph,
    /// `original[new.index()]` is the id the new node had in the parent
    /// graph.
    pub original: Vec<ItemId>,
}

impl Subgraph {
    /// Maps a node id of the subgraph back to the parent graph.
    pub fn to_original(&self, v: ItemId) -> ItemId {
        self.original[v.index()]
    }
}

/// Extracts the subgraph induced by `keep` (edges with both endpoints kept),
/// rescaling node weights to sum to 1.
///
/// Rescaling keeps the result a well-formed preference graph: the sub-catalog
/// inherits the *conditional* request distribution given that the request was
/// for a kept item. The experiments use this to carve small BF-solvable
/// instances and the `n`-sweeps of the scalability figure out of one dataset.
///
/// # Errors
///
/// Fails if `keep` is empty, contains duplicates or out-of-range ids, or if
/// the kept nodes all have zero weight.
pub fn induced_subgraph(g: &PreferenceGraph, keep: &[ItemId]) -> Result<Subgraph, GraphError> {
    if keep.is_empty() {
        return Err(GraphError::EmptyGraph);
    }
    let mut remap: HashMap<ItemId, ItemId> = HashMap::with_capacity(keep.len());
    for (new_idx, &old) in keep.iter().enumerate() {
        if old.index() >= g.node_count() {
            return Err(GraphError::UnknownNode { node: old });
        }
        if remap.insert(old, ItemId::from_index(new_idx)).is_some() {
            return Err(GraphError::Parse {
                line: None,
                message: format!("duplicate node {old} in subgraph selection"),
            });
        }
    }

    let mut b = GraphBuilder::with_capacity(keep.len(), keep.len())
        .normalize_node_weights(true)
        .allow_self_loops(true);
    for &old in keep {
        match g.label(old) {
            Some(l) => b.add_node_labeled(g.node_weight(old), l),
            None => b.add_node(g.node_weight(old)),
        };
    }
    for &old in keep {
        let new_src = remap[&old];
        for (tgt, w) in g.out_edges(old) {
            if let Some(&new_tgt) = remap.get(&tgt) {
                b.add_edge(new_src, new_tgt, w)?;
            }
        }
    }
    Ok(Subgraph {
        graph: b.build()?,
        original: keep.to_vec(),
    })
}

/// Extracts the subgraph induced by the `n` heaviest nodes (ties broken by
/// smaller id), weights renormalized.
pub fn top_n_by_weight(g: &PreferenceGraph, n: usize) -> Result<Subgraph, GraphError> {
    let mut ids: Vec<ItemId> = g.node_ids().collect();
    // Sort by descending weight, then ascending id for determinism.
    ids.sort_by(|&x, &y| {
        g.node_weight(y)
            .total_cmp(&g.node_weight(x))
            .then(x.cmp(&y))
    });
    ids.truncate(n.min(ids.len()));
    ids.sort_unstable();
    induced_subgraph(g, &ids)
}

/// Adds to every node whose out-weight sum is below 1 a self-loop completing
/// the sum to exactly 1.
///
/// This is the first step of the `NPC_k → VC_k` reduction of Theorem 3.1:
/// the self-loop weight represents requests no alternative can cover. Cover
/// values are unchanged (a retained node covers its own weight entirely
/// regardless).
pub fn complete_with_self_loops(g: &PreferenceGraph) -> Result<PreferenceGraph, GraphError> {
    let mut b = GraphBuilder::with_capacity(g.node_count(), g.edge_count() + g.node_count())
        .allow_self_loops(true)
        .skip_weight_sum_check(true);
    for v in g.node_ids() {
        match g.label(v) {
            Some(l) => b.add_node_labeled(g.node_weight(v), l),
            None => b.add_node(g.node_weight(v)),
        };
    }
    for v in g.node_ids() {
        for (u, w) in g.out_edges(v) {
            b.add_edge(v, u, w)?;
        }
        let deficit = 1.0 - g.out_weight_sum(v);
        if deficit > 0.0 {
            // Guard against tiny negative rounding; weights in (0,1].
            b.add_edge(v, v, deficit.min(1.0))?;
        }
    }
    b.build()
}

/// How parallel replacement paths combine in [`transitive_closure`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathCombination {
    /// Independent semantics: paths are independent events, combined
    /// probability `1 − Π (1 − p_i)`.
    Independent,
    /// Normalized semantics: probabilities add, clamped to 1.
    NormalizedClamped,
}

/// Computes the transitive closure of a *browse graph* under path-product
/// probabilities, producing a preference graph.
///
/// The paper assumes the preference graph directly encodes all transitive
/// replacement behavior ("the preference graph is the transitive closure of
/// a graph modeling browsing probabilities", Section 2). When only one-step
/// replacement probabilities are available, this helper expands paths of up
/// to `max_depth` hops, multiplying edge weights along each path and
/// combining parallel paths according to `combine`. Paths with probability
/// below `min_weight` are pruned, bounding the work on dense graphs.
///
/// The result never contains self-loops; cycles contribute only their
/// acyclic prefixes (a consumer does not "replace" an item with itself).
pub fn transitive_closure(
    g: &PreferenceGraph,
    max_depth: usize,
    min_weight: f64,
    combine: PathCombination,
) -> Result<PreferenceGraph, GraphError> {
    assert!(max_depth >= 1, "max_depth must be at least 1");
    let n = g.node_count();
    let mut b = GraphBuilder::with_capacity(n, g.edge_count()).skip_weight_sum_check(true);
    for v in g.node_ids() {
        match g.label(v) {
            Some(l) => b.add_node_labeled(g.node_weight(v), l),
            None => b.add_node(g.node_weight(v)),
        };
    }

    // Per-source DFS accumulating reach probabilities. `reach[u]` collects
    // the combined probability of reaching u from the current source.
    let mut reach: Vec<f64> = vec![0.0; n];
    let mut touched: Vec<ItemId> = Vec::new();
    for src in g.node_ids() {
        // Stack of (node, accumulated probability, depth, on_path marker).
        let mut on_path = vec![false; n];
        on_path[src.index()] = true;
        dfs_accumulate(
            g,
            src,
            1.0,
            max_depth,
            min_weight,
            combine,
            &mut on_path,
            &mut reach,
            &mut touched,
        );
        touched.sort_unstable();
        for &u in &touched {
            let w = reach[u.index()].min(1.0);
            if w > 0.0 {
                b.add_edge(src, u, w)?;
            }
            reach[u.index()] = 0.0;
        }
        touched.clear();
    }
    b.build()
}

#[allow(clippy::too_many_arguments)]
fn dfs_accumulate(
    g: &PreferenceGraph,
    v: ItemId,
    prob: f64,
    depth_left: usize,
    min_weight: f64,
    combine: PathCombination,
    on_path: &mut [bool],
    reach: &mut [f64],
    touched: &mut Vec<ItemId>,
) {
    if depth_left == 0 {
        return;
    }
    for (u, w) in g.out_edges(v) {
        if on_path[u.index()] {
            continue;
        }
        let p = prob * w;
        if p < min_weight {
            continue;
        }
        if reach[u.index()] == 0.0 {
            touched.push(u);
        }
        reach[u.index()] = match combine {
            PathCombination::Independent => 1.0 - (1.0 - reach[u.index()]) * (1.0 - p),
            PathCombination::NormalizedClamped => (reach[u.index()] + p).min(1.0),
        };
        on_path[u.index()] = true;
        dfs_accumulate(
            g,
            u,
            p,
            depth_left - 1,
            min_weight,
            combine,
            on_path,
            reach,
            touched,
        );
        on_path[u.index()] = false;
    }
}

/// Merges anti-parallel edge pairs `(v→u, u→v)` into the larger of the two
/// directions, producing a simple upper-triangular-ish graph.
///
/// Not used by the solver (the cover semantics need both directions); kept
/// for analyses comparing against undirected baselines.
pub fn dominant_direction(g: &PreferenceGraph) -> Result<PreferenceGraph, GraphError> {
    let mut b = GraphBuilder::with_capacity(g.node_count(), g.edge_count())
        .skip_weight_sum_check(true)
        .duplicate_edge_policy(DuplicateEdgePolicy::Error);
    for v in g.node_ids() {
        match g.label(v) {
            Some(l) => b.add_node_labeled(g.node_weight(v), l),
            None => b.add_node(g.node_weight(v)),
        };
    }
    for v in g.node_ids() {
        for (u, w) in g.out_edges(v) {
            let opposite = g.edge_weight(u, v).unwrap_or(0.0);
            let keep = if (w, u) > (opposite, v) {
                // Strictly dominant, or tie broken toward the edge whose
                // source id is smaller (v < u means (w,u) vs (w,v): u > v).
                true
            } else {
                false
            };
            if keep {
                b.add_edge(v, u, w)?;
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use crate::examples::{figure1, figure1_ids};
    use crate::WEIGHT_EPSILON;

    use super::*;

    #[test]
    fn normalize_rescales_to_one() {
        let mut b = GraphBuilder::new().skip_weight_sum_check(true);
        b.add_node(0.8 * 0.25);
        b.add_node(0.8 * 0.75);
        let g = b.build().unwrap();
        let n = normalize_node_weights(&g).unwrap();
        assert!((n.total_node_weight() - 1.0).abs() < 1e-12);
        assert!((n.node_weight(ItemId::new(0)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reverse_swaps_directions() {
        let (g, ids) = figure1_ids();
        let r = reverse(&g);
        assert_eq!(r.edge_weight(ids.b, ids.a), Some(2.0 / 3.0));
        assert_eq!(r.edge_weight(ids.a, ids.b), None);
        assert_eq!(r.edge_weight(ids.d, ids.e), Some(0.9));
        assert_eq!(r.node_count(), g.node_count());
        assert_eq!(r.edge_count(), g.edge_count());
        // Double reversal is identity.
        assert_eq!(reverse(&r), g);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let (g, ids) = figure1_ids();
        let sub = induced_subgraph(&g, &[ids.a, ids.b, ids.c]).unwrap();
        let sg = &sub.graph;
        assert_eq!(sg.node_count(), 3);
        // A->B, B->C, C->B survive; E->D does not.
        assert_eq!(sg.edge_count(), 3);
        // Weights renormalized: W(A)=0.33/0.77.
        assert!((sg.node_weight(ItemId::new(0)) - 0.33 / 0.77).abs() < 1e-12);
        assert!((sg.total_node_weight() - 1.0).abs() < WEIGHT_EPSILON);
        assert_eq!(sub.to_original(ItemId::new(2)), ids.c);
    }

    #[test]
    fn induced_subgraph_rejects_bad_input() {
        let (g, ids) = figure1_ids();
        assert!(induced_subgraph(&g, &[]).is_err());
        assert!(induced_subgraph(&g, &[ids.a, ids.a]).is_err());
        assert!(induced_subgraph(&g, &[ItemId::new(99)]).is_err());
    }

    #[test]
    fn top_n_by_weight_picks_heaviest() {
        let (g, ids) = figure1_ids();
        let sub = top_n_by_weight(&g, 2).unwrap();
        // Heaviest two are A (0.33) and then B or C (both 0.22, tie to B=id1).
        assert_eq!(sub.original, vec![ids.a, ids.b]);
        // Requesting more nodes than exist returns the whole graph.
        let all = top_n_by_weight(&g, 100).unwrap();
        assert_eq!(all.graph.node_count(), 5);
    }

    #[test]
    fn self_loop_completion() {
        let (g, ids) = figure1_ids();
        let c = complete_with_self_loops(&g).unwrap();
        // B and C had out-sum 1 already; A (2/3) gets a 1/3 self-loop,
        // E (0.9) a 0.1 loop, and D (no out-edges) a full loop.
        assert!((c.edge_weight(ids.a, ids.a).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.edge_weight(ids.b, ids.b), None);
        assert_eq!(c.edge_weight(ids.d, ids.d), Some(1.0));
        let e_loop = c.edge_weight(ids.e, ids.e).unwrap();
        assert!((e_loop - 0.1).abs() < 1e-12);
        for v in c.node_ids() {
            assert!((c.out_weight_sum(v) - 1.0).abs() < 1e-9, "node {v}");
        }
        // Original edges intact.
        assert_eq!(c.edge_weight(ids.c, ids.b), Some(1.0));
    }

    #[test]
    fn transitive_closure_two_hops() {
        // x -> y (0.5) -> z (0.4); closure adds x -> z with 0.2.
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        let z = b.add_node(1.0);
        b.add_edge(x, y, 0.5).unwrap();
        b.add_edge(y, z, 0.4).unwrap();
        let g = b.build().unwrap();

        let tc = transitive_closure(&g, 2, 1e-9, PathCombination::Independent).unwrap();
        assert_eq!(tc.edge_weight(x, y), Some(0.5));
        assert!((tc.edge_weight(x, z).unwrap() - 0.2).abs() < 1e-12);

        // Depth 1 leaves the graph unchanged.
        let tc1 = transitive_closure(&g, 1, 1e-9, PathCombination::Independent).unwrap();
        assert_eq!(tc1.edge_weight(x, z), None);
    }

    #[test]
    fn transitive_closure_combines_parallel_paths() {
        // x -> z directly (0.5) and via y (0.5 * 0.5 = 0.25).
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        let z = b.add_node(1.0);
        b.add_edge(x, z, 0.5).unwrap();
        b.add_edge(x, y, 0.5).unwrap();
        b.add_edge(y, z, 0.5).unwrap();
        let g = b.build().unwrap();

        let ind = transitive_closure(&g, 2, 1e-9, PathCombination::Independent).unwrap();
        // 1 - (1-0.5)(1-0.25) = 0.625
        assert!((ind.edge_weight(x, z).unwrap() - 0.625).abs() < 1e-12);

        let norm = transitive_closure(&g, 2, 1e-9, PathCombination::NormalizedClamped).unwrap();
        // 0.5 + 0.25 = 0.75
        assert!((norm.edge_weight(x, z).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn transitive_closure_handles_cycles() {
        // x <-> y cycle; closure must terminate and add no self-loops.
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        b.add_edge(x, y, 0.5).unwrap();
        b.add_edge(y, x, 0.5).unwrap();
        let g = b.build().unwrap();
        let tc = transitive_closure(&g, 5, 1e-9, PathCombination::Independent).unwrap();
        assert_eq!(tc.edge_weight(x, x), None);
        assert_eq!(tc.edge_weight(y, y), None);
        assert_eq!(tc.edge_weight(x, y), Some(0.5));
    }

    #[test]
    fn transitive_closure_prunes_below_min_weight() {
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        let z = b.add_node(1.0);
        b.add_edge(x, y, 0.1).unwrap();
        b.add_edge(y, z, 0.1).unwrap();
        let g = b.build().unwrap();
        // Path probability 0.01 < threshold 0.05 -> pruned.
        let tc = transitive_closure(&g, 2, 0.05, PathCombination::Independent).unwrap();
        assert_eq!(tc.edge_weight(x, z), None);
    }

    #[test]
    fn dominant_direction_keeps_heavier_side() {
        let (g, ids) = figure1_ids();
        let d = dominant_direction(&g).unwrap();
        // B<->C both weight 1: tie broken deterministically, exactly one kept.
        let bc = d.edge_weight(ids.b, ids.c).is_some();
        let cb = d.edge_weight(ids.c, ids.b).is_some();
        assert!(bc ^ cb);
        // One-directional edges survive.
        assert!(d.edge_weight(ids.e, ids.d).is_some());
        assert_eq!(figure1().edge_count() - 1, d.edge_count());
    }
}
