//! Component-partitioned greedy — solving independent substitution islands
//! separately and merging.
//!
//! A node's cover depends only on its retained out-neighbors, so the cover
//! function is additive across weakly connected components and marginal
//! gains in one component are unaffected by selections in another. Global
//! greedy therefore equals a **k-way merge by gain** of per-component
//! greedy sequences. Components can be solved in parallel and, on the
//! paper's department-partitioned catalogs, are far smaller than the whole
//! graph — a second parallelism axis on top of the per-iteration scan
//! parallelism of [`parallel`](crate::parallel).

// lint: allow-file(no-index) — per-item arrays (I-values, selection masks, gains) are sized to
// node_count and indexed by ItemId::index(); bounds-checked [] in the hot greedy
// loops is deliberate and in bounds by construction.
use std::time::Instant;

use rayon::prelude::*;

use pcover_graph::components::weakly_connected_components;
use pcover_graph::{GraphBuilder, ItemId, PreferenceGraph};

use crate::cover::CoverState;
use crate::greedy::finish;
use crate::lazy;
use crate::report::{Algorithm, SolveReport};
use crate::solver::{SolveCtx, Solver, SolverCaps, SolverSpec};
use crate::variant::CoverModel;
use crate::SolveError;

/// Runs per-component lazy greedy in parallel and merges the sequences.
///
/// The merged set's cover equals the plain greedy cover (the order may
/// differ only at exact gain ties across components).
///
/// ```
/// use pcover_core::{greedy, partitioned, Normalized};
/// use pcover_graph::examples::figure1;
///
/// // Figure 1 splits into two substitution islands: {A, B, C} and {D, E}.
/// let g = figure1();
/// let part = partitioned::solve::<Normalized>(&g, 2).unwrap();
/// let plain = greedy::solve::<Normalized>(&g, 2).unwrap();
/// assert!((part.cover - plain.cover).abs() < 1e-12);
/// ```
///
/// # Errors
///
/// [`SolveError::KTooLarge`] if `k > n`.
pub fn solve<M: CoverModel>(g: &PreferenceGraph, k: usize) -> Result<SolveReport, SolveError> {
    let started = Instant::now();
    let n = g.node_count();
    if k > n {
        return Err(SolveError::KTooLarge { k, n });
    }

    let components = weakly_connected_components(g);
    let members = components.members();

    // Solve each component independently: a weight-preserving induced
    // subgraph keeps every gain identical to its value in the full graph.
    let per_component: Vec<Result<Vec<(f64, ItemId)>, SolveError>> = members
        .par_iter()
        .map(|nodes| {
            let sub = induced_preserving_weights(g, nodes);
            let k_c = k.min(nodes.len());
            let report = lazy::solve::<M>(&sub, k_c)?;
            // Translate local ids back and pair each pick with its gain
            // (trajectory deltas).
            let mut prev = 0.0;
            Ok(report
                .order
                .iter()
                .zip(&report.trajectory)
                .map(|(&local, &cum)| {
                    let gain = cum - prev;
                    prev = cum;
                    (gain, nodes[local.index()])
                })
                .collect())
        })
        .collect();

    // Merge the per-component sequences: repeatedly take the head with the
    // largest gain (ties toward the smaller global id).
    let mut sequences: Vec<std::vec::IntoIter<(f64, ItemId)>> = Vec::new();
    let mut gain_evaluations = 0u64;
    for r in per_component {
        let seq = r?;
        gain_evaluations += seq.len() as u64;
        sequences.push(seq.into_iter());
    }
    let mut heads: Vec<Option<(f64, ItemId)>> = sequences.iter_mut().map(|s| s.next()).collect();
    let mut merged: Vec<ItemId> = Vec::with_capacity(k);
    while merged.len() < k {
        let best = heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.map(|(gain, v)| (gain, std::cmp::Reverse(v), i)))
            .max_by(|a, b| crate::float::cmp_gain(a.0, b.0).then(a.1.cmp(&b.1)));
        let Some((_, std::cmp::Reverse(v), idx)) = best else {
            break; // fewer than k nodes exist across sequences (k <= n
                   // guards this, but stay defensive)
        };
        merged.push(v);
        heads[idx] = sequences[idx].next();
    }

    // Exact replay for the report.
    let mut state = CoverState::new(n);
    let mut trajectory = Vec::with_capacity(merged.len());
    for &v in &merged {
        state.add_node::<M>(g, v);
        trajectory.push(state.cover());
    }
    Ok(finish::<M>(
        Algorithm::Partitioned,
        state,
        trajectory,
        started,
        gain_evaluations,
    ))
}

/// Partitioned greedy as a registry [`Solver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Partitioned;

impl Solver for Partitioned {
    fn solve<M: CoverModel>(
        &self,
        g: &PreferenceGraph,
        k: usize,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveReport, SolveError> {
        // Run the per-component fan-out on the process-wide shared pool for
        // the configured thread count instead of rayon's ambient global
        // pool, so serving-path solves never construct pools per request.
        // The merge is order-insensitive (per-chunk results are collected
        // into a component-indexed Vec), so the pool choice cannot change
        // the output.
        let pool = crate::pool::shared_pool(ctx.config.threads.max(1))?;
        let report = pool.install(|| solve::<M>(g, k))?;
        // The merge assembles the solution at the end; replay it so the
        // observer stream matches the returned order exactly.
        ctx.emit_report(&report);
        Ok(report)
    }
}

/// The registry entry for [`Partitioned`].
pub fn spec() -> SolverSpec {
    SolverSpec::new(
        "partitioned",
        Algorithm::Partitioned,
        "Component-partitioned greedy: per-island lazy solves merged exactly by gain",
        SolverCaps::default(),
        |v, g, k, ctx| Partitioned.dispatch(v, g, k, ctx),
    )
}

/// Induced subgraph that keeps original node weights (no renormalization),
/// used so per-component gains equal their full-graph values.
fn induced_preserving_weights(g: &PreferenceGraph, nodes: &[ItemId]) -> PreferenceGraph {
    let mut b =
        GraphBuilder::with_capacity(nodes.len(), nodes.len() * 2).skip_weight_sum_check(true);
    // nodes are ascending, so binary search gives the local id.
    for &v in nodes {
        b.add_node(g.node_weight(v));
    }
    for (local_src, &v) in nodes.iter().enumerate() {
        for (u, w) in g.out_edges(v) {
            if let Ok(local_tgt) = nodes.binary_search(&u) {
                b.add_edge(
                    ItemId::from_index(local_src),
                    ItemId::from_index(local_tgt),
                    w,
                )
                .expect("weights come from a valid graph"); // lint: allow(no-expect) — re-adding edges the parent graph already validated
            }
        }
    }
    // lint: allow(no-expect) — builder input is a projection of an already-built graph
    b.build().expect("component subgraph is valid")
}

#[cfg(test)]
mod tests {
    use pcover_graph::examples::figure1_ids;

    use crate::{greedy, Independent, Normalized};

    use super::*;

    #[test]
    fn figure1_matches_plain_greedy() {
        let (g, _) = figure1_ids();
        for k in 0..=5 {
            let plain = greedy::solve::<Normalized>(&g, k).unwrap();
            let part = solve::<Normalized>(&g, k).unwrap();
            assert!(
                (plain.cover - part.cover).abs() < 1e-9,
                "k = {k}: {} vs {}",
                plain.cover,
                part.cover
            );
            assert_eq!(part.k(), k);
        }
    }

    #[test]
    fn multi_island_graph_matches_plain_greedy() {
        // Three islands with distinct structure.
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        let ids: Vec<ItemId> = (0..15)
            .map(|i| b.add_node(1.0 + (i * i % 11) as f64))
            .collect();
        for island in 0..3 {
            let base = island * 5;
            for j in 0..4 {
                b.add_edge(ids[base + j], ids[base + j + 1], 0.3 + 0.1 * j as f64)
                    .unwrap();
            }
            b.add_edge(ids[base + 4], ids[base], 0.25).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(weakly_connected_components(&g).count, 3);

        for k in [1, 4, 7, 12, 15] {
            let plain = greedy::solve::<Independent>(&g, k).unwrap();
            let part = solve::<Independent>(&g, k).unwrap();
            assert!(
                (plain.cover - part.cover).abs() < 1e-9,
                "k = {k}: plain {} vs partitioned {}",
                plain.cover,
                part.cover
            );
        }
    }

    #[test]
    fn single_component_degenerates_to_lazy() {
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        let ids: Vec<ItemId> = (0..8).map(|i| b.add_node(1.0 + i as f64)).collect();
        for i in 0..7 {
            b.add_edge(ids[i], ids[i + 1], 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let part = solve::<Independent>(&g, 4).unwrap();
        let lz = crate::lazy::solve::<Independent>(&g, 4).unwrap();
        assert!((part.cover - lz.cover).abs() < 1e-12);
    }

    #[test]
    fn k_bounds() {
        let (g, _) = figure1_ids();
        assert!(solve::<Normalized>(&g, 6).is_err());
        let r = solve::<Normalized>(&g, 5).unwrap();
        assert!((r.cover - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_isolated_nodes() {
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        for i in 0..6 {
            b.add_node(1.0 + i as f64);
        }
        let g = b.build().unwrap();
        let part = solve::<Independent>(&g, 3).unwrap();
        // Picks the three heaviest nodes: ids 5, 4, 3.
        assert_eq!(
            part.order,
            vec![ItemId::new(5), ItemId::new(4), ItemId::new(3)]
        );
    }
}
