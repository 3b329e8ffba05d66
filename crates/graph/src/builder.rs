//! Mutable construction of [`PreferenceGraph`]s with validation.

// lint: allow-file(no-index) — ItemId values are dense indices assigned by GraphBuilder and every
// per-node/per-edge array is sized to node_count/edge_count, so accesses are in
// bounds by construction.
use crate::graph::CsrParts;
use crate::{Edge, GraphError, ItemId, PreferenceGraph, WEIGHT_EPSILON};

/// What to do when the same directed edge `(source, target)` is added more
/// than once.
///
/// Clickstream adaptation naturally aggregates before emitting edges, so the
/// default is to treat duplicates as a bug ([`Error`](Self::Error)); the
/// other policies support merging pre-aggregated partial inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DuplicateEdgePolicy {
    /// Reject the build with [`GraphError::DuplicateEdge`].
    #[default]
    Error,
    /// Keep the first weight, ignore later ones.
    KeepFirst,
    /// Keep the maximum weight.
    Max,
    /// Sum the weights, clamping the result to 1.
    SumClamped,
}

/// A staging area for assembling a [`PreferenceGraph`].
///
/// The builder checks every weight on insertion, applies the configured
/// duplicate-edge policy at build time, and produces both CSR directions in
/// a single `O(n + m)` pass (counting sort on source, then a stable
/// redistribution into the in-direction).
///
/// # Example
///
/// ```
/// use pcover_graph::{GraphBuilder, DuplicateEdgePolicy};
///
/// let mut b = GraphBuilder::new().duplicate_edge_policy(DuplicateEdgePolicy::Max);
/// let a = b.add_node(0.5);
/// let c = b.add_node(0.5);
/// b.add_edge(a, c, 0.2).unwrap();
/// b.add_edge(a, c, 0.6).unwrap(); // Max policy keeps 0.6
/// let g = b.build().unwrap();
/// assert_eq!(g.edge_weight(a, c), Some(0.6));
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    node_weights: Vec<f64>,
    labels: Vec<String>,
    any_label: bool,
    edges: Vec<Edge>,
    duplicate_policy: DuplicateEdgePolicy,
    allow_self_loops: bool,
    normalize_node_weights: bool,
    skip_weight_sum_check: bool,
}

impl GraphBuilder {
    /// Creates an empty builder with default options: duplicate edges are
    /// errors, self-loops are rejected, node weights must already sum to 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            node_weights: Vec::with_capacity(nodes),
            labels: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Sets the duplicate-edge policy (builder style).
    pub fn duplicate_edge_policy(mut self, policy: DuplicateEdgePolicy) -> Self {
        self.duplicate_policy = policy;
        self
    }

    /// Permits self-loops (used by Max Vertex Cover reduction instances;
    /// self-loops never affect cover values).
    pub fn allow_self_loops(mut self, allow: bool) -> Self {
        self.allow_self_loops = allow;
        self
    }

    /// Requests that node weights be rescaled to sum to exactly 1 at build
    /// time instead of being validated against 1.
    pub fn normalize_node_weights(mut self, normalize: bool) -> Self {
        self.normalize_node_weights = normalize;
        self
    }

    /// Disables the "node weights sum to 1" check entirely.
    ///
    /// Intended for intermediate graphs in reductions where node weights
    /// carry other semantics (e.g. the `VC_k → NPC_k` direction of Theorem
    /// 3.1 before its final normalization step).
    pub fn skip_weight_sum_check(mut self, skip: bool) -> Self {
        self.skip_weight_sum_check = skip;
        self
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_weights.len()
    }

    /// Number of edges added so far (before duplicate resolution).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an unlabeled node with request probability `weight`, returning
    /// its id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` nodes are added. Weight validity is
    /// checked at [`build`](Self::build) time so that
    /// [`normalize_node_weights`](Self::normalize_node_weights) can accept
    /// raw counts.
    pub fn add_node(&mut self, weight: f64) -> ItemId {
        let id = ItemId::from_index(self.node_weights.len());
        self.node_weights.push(weight);
        self.labels.push(String::new());
        id
    }

    /// Adds a labeled node, returning its id.
    pub fn add_node_labeled(&mut self, weight: f64, label: impl Into<String>) -> ItemId {
        let id = self.add_node(weight);
        self.labels[id.index()] = label.into();
        self.any_label = true;
        id
    }

    /// Adds a directed edge `source → target` with the given alternative
    /// probability.
    ///
    /// Fails fast on invalid weights, unknown endpoints and disallowed
    /// self-loops; duplicate edges are resolved at build time.
    pub fn add_edge(
        &mut self,
        source: ItemId,
        target: ItemId,
        weight: f64,
    ) -> Result<(), GraphError> {
        if source.index() >= self.node_weights.len() {
            return Err(GraphError::UnknownNode { node: source });
        }
        if target.index() >= self.node_weights.len() {
            return Err(GraphError::UnknownNode { node: target });
        }
        if !weight.is_finite() || weight <= 0.0 || weight > 1.0 {
            return Err(GraphError::InvalidEdgeWeight {
                source,
                target,
                weight,
            });
        }
        if source == target && !self.allow_self_loops {
            return Err(GraphError::SelfLoopDisallowed { node: source });
        }
        self.edges.push(Edge::new(source, target, weight));
        Ok(())
    }

    /// Validates everything, resolves duplicates and assembles the CSR
    /// arrays.
    pub fn build(mut self) -> Result<PreferenceGraph, GraphError> {
        if self.node_weights.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        if self.edges.len() > u32::MAX as usize {
            return Err(GraphError::CapacityExceeded {
                what: "edge count exceeds u32::MAX",
            });
        }

        settle_node_weights(
            &mut self.node_weights,
            self.normalize_node_weights,
            self.skip_weight_sum_check,
        )?;

        // Resolve duplicate edges. Sort by (source, target); duplicates are
        // adjacent afterwards.
        self.edges.sort_unstable_by_key(|e| (e.source, e.target));
        let mut resolved: Vec<Edge> = Vec::with_capacity(self.edges.len());
        for e in self.edges.drain(..) {
            match resolved.last_mut() {
                Some(last) if last.source == e.source && last.target == e.target => {
                    match self.duplicate_policy {
                        DuplicateEdgePolicy::Error => {
                            return Err(GraphError::DuplicateEdge {
                                source: e.source,
                                target: e.target,
                            })
                        }
                        DuplicateEdgePolicy::KeepFirst => {}
                        DuplicateEdgePolicy::Max => {
                            if e.weight > last.weight {
                                last.weight = e.weight;
                            }
                        }
                        DuplicateEdgePolicy::SumClamped => {
                            last.weight = (last.weight + e.weight).min(1.0);
                        }
                    }
                }
                _ => resolved.push(e),
            }
        }

        let n = self.node_weights.len();
        let m = resolved.len();

        // Out-CSR directly from the sorted edge list; the in-CSR follows
        // from it.
        let mut out_offsets = vec![0u32; n + 1];
        for e in &resolved {
            out_offsets[e.source.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = Vec::with_capacity(m);
        let mut out_weights = Vec::with_capacity(m);
        for e in &resolved {
            out_targets.push(e.target);
            out_weights.push(e.weight);
        }

        let labels = if self.any_label {
            Some(std::mem::take(&mut self.labels).into())
        } else {
            None
        };

        // Self-loops were allowed or rejected at `add_edge`, so the sort's
        // report of the first one is not needed here.
        let (csr, _self_loop) =
            CsrParts::from_out_csr(self.node_weights, out_offsets, out_targets, out_weights);
        Ok(PreferenceGraph::new_owned(csr, labels))
    }

    /// Like [`build`](Self::build) but additionally enforces the Normalized
    /// variant invariant: every node's outgoing edge weights sum to at most
    /// 1 (within [`WEIGHT_EPSILON`]).
    pub fn build_normalized(self) -> Result<PreferenceGraph, GraphError> {
        let g = self.build()?;
        for v in g.node_ids() {
            let s = g.out_weight_sum(v);
            if s > 1.0 + WEIGHT_EPSILON {
                return Err(GraphError::OutWeightsExceedOne { node: v, sum: s });
            }
        }
        Ok(g)
    }
}

/// The build-time node-weight pass, shared with [`crate::delta::apply`]:
/// domain checks (raw nonnegative counts are fine when `normalize` is set),
/// then either rescaling to sum 1 or, unless `skip_sum_check`, checking
/// that the weights already do.
pub(crate) fn settle_node_weights(
    weights: &mut [f64],
    normalize: bool,
    skip_sum_check: bool,
) -> Result<(), GraphError> {
    for (i, &w) in weights.iter().enumerate() {
        let bad = if normalize {
            !w.is_finite() || w < 0.0
        } else {
            !w.is_finite() || !(0.0..=1.0).contains(&w)
        };
        if bad {
            return Err(GraphError::InvalidNodeWeight {
                node: ItemId::from_index(i),
                weight: w,
            });
        }
    }

    if normalize {
        let sum: f64 = weights.iter().sum();
        if sum > 0.0 {
            for w in weights {
                *w /= sum;
            }
        }
    } else if !skip_sum_check {
        let sum: f64 = weights.iter().sum();
        if (sum - 1.0).abs() > WEIGHT_EPSILON {
            return Err(GraphError::NodeWeightsNotNormalized { sum });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_rejected() {
        assert!(matches!(
            GraphBuilder::new().build(),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn single_node_graph() {
        let mut b = GraphBuilder::new();
        b.add_node(1.0);
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn invalid_node_weight_rejected() {
        let mut b = GraphBuilder::new();
        b.add_node(1.5);
        assert!(matches!(
            b.build(),
            Err(GraphError::InvalidNodeWeight { .. })
        ));

        let mut b = GraphBuilder::new();
        b.add_node(f64::NAN);
        assert!(matches!(
            b.build(),
            Err(GraphError::InvalidNodeWeight { .. })
        ));
    }

    #[test]
    fn negative_weight_rejected_even_when_normalizing() {
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        b.add_node(-3.0);
        b.add_node(5.0);
        assert!(matches!(
            b.build(),
            Err(GraphError::InvalidNodeWeight { .. })
        ));
    }

    #[test]
    fn weight_sum_check() {
        let mut b = GraphBuilder::new();
        b.add_node(0.4);
        b.add_node(0.4);
        assert!(matches!(
            b.build(),
            Err(GraphError::NodeWeightsNotNormalized { .. })
        ));
    }

    #[test]
    fn normalization_from_counts() {
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        b.add_node(30.0);
        b.add_node(10.0);
        let g = b.build().unwrap();
        assert!((g.node_weight(ItemId::new(0)) - 0.75).abs() < 1e-12);
        assert!((g.total_node_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skip_weight_sum_check_allows_arbitrary_sums() {
        let mut b = GraphBuilder::new().skip_weight_sum_check(true);
        b.add_node(0.4);
        b.add_node(0.4);
        let g = b.build().unwrap();
        assert!((g.total_node_weight() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn edge_validation() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.5);
        let c = b.add_node(0.5);
        assert!(matches!(
            b.add_edge(a, ItemId::new(7), 0.5),
            Err(GraphError::UnknownNode { .. })
        ));
        assert!(matches!(
            b.add_edge(a, c, 0.0),
            Err(GraphError::InvalidEdgeWeight { .. })
        ));
        assert!(matches!(
            b.add_edge(a, c, 1.0001),
            Err(GraphError::InvalidEdgeWeight { .. })
        ));
        assert!(matches!(
            b.add_edge(a, c, f64::INFINITY),
            Err(GraphError::InvalidEdgeWeight { .. })
        ));
        assert!(matches!(
            b.add_edge(a, a, 0.5),
            Err(GraphError::SelfLoopDisallowed { .. })
        ));
        assert!(b.add_edge(a, c, 1.0).is_ok());
    }

    #[test]
    fn self_loops_allowed_when_enabled() {
        let mut b = GraphBuilder::new().allow_self_loops(true);
        let a = b.add_node(1.0);
        b.add_edge(a, a, 0.5).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_weight(a, a), Some(0.5));
    }

    #[test]
    fn duplicate_policies() {
        let mk = |policy| {
            let mut b = GraphBuilder::new().duplicate_edge_policy(policy);
            let a = b.add_node(0.5);
            let c = b.add_node(0.5);
            b.add_edge(a, c, 0.3).unwrap();
            b.add_edge(a, c, 0.5).unwrap();
            (b, a, c)
        };

        let (b, ..) = mk(DuplicateEdgePolicy::Error);
        assert!(matches!(b.build(), Err(GraphError::DuplicateEdge { .. })));

        let (b, a, c) = mk(DuplicateEdgePolicy::KeepFirst);
        assert_eq!(b.build().unwrap().edge_weight(a, c), Some(0.3));

        let (b, a, c) = mk(DuplicateEdgePolicy::Max);
        assert_eq!(b.build().unwrap().edge_weight(a, c), Some(0.5));

        let (b, a, c) = mk(DuplicateEdgePolicy::SumClamped);
        assert!((b.build().unwrap().edge_weight(a, c).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn sum_clamped_caps_at_one() {
        let mut b = GraphBuilder::new().duplicate_edge_policy(DuplicateEdgePolicy::SumClamped);
        let a = b.add_node(0.5);
        let c = b.add_node(0.5);
        b.add_edge(a, c, 0.8).unwrap();
        b.add_edge(a, c, 0.8).unwrap();
        assert_eq!(b.build().unwrap().edge_weight(a, c), Some(1.0));
    }

    #[test]
    fn build_normalized_enforces_out_sums() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.5);
        let c = b.add_node(0.3);
        let d = b.add_node(0.2);
        b.add_edge(a, c, 0.7).unwrap();
        b.add_edge(a, d, 0.7).unwrap();
        assert!(matches!(
            b.build_normalized(),
            Err(GraphError::OutWeightsExceedOne { .. })
        ));

        let mut b = GraphBuilder::new();
        let a = b.add_node(0.5);
        let c = b.add_node(0.3);
        let d = b.add_node(0.2);
        b.add_edge(a, c, 0.5).unwrap();
        b.add_edge(a, d, 0.5).unwrap();
        assert!(b.build_normalized().is_ok());
    }

    #[test]
    fn in_rows_sorted_by_source() {
        // Insert edges in scrambled order; in-row of the shared target must
        // come out sorted by source id.
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        let ids: Vec<_> = (0..5).map(|_| b.add_node(1.0)).collect();
        b.add_edge(ids[3], ids[4], 0.3).unwrap();
        b.add_edge(ids[0], ids[4], 0.1).unwrap();
        b.add_edge(ids[2], ids[4], 0.2).unwrap();
        let g = b.build().unwrap();
        let ins: Vec<_> = g.in_edges(ids[4]).collect();
        assert_eq!(ins, vec![(ids[0], 0.1), (ids[2], 0.2), (ids[3], 0.3)]);
    }

    #[test]
    fn with_capacity_builds_identically() {
        let mut b = GraphBuilder::with_capacity(2, 1);
        let a = b.add_node(0.6);
        let c = b.add_node(0.4);
        b.add_edge(a, c, 0.9).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_weight(a, c), Some(0.9));
    }
}
