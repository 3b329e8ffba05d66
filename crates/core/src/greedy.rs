//! Algorithm 1 — the paper's plain greedy scheme.
//!
//! At each of `k` iterations, scan every non-retained node, compute its
//! marginal gain with Algorithm 2 (Normalized) or 4 (Independent), and
//! retain the best with Algorithm 3 / 5. `O(nkD)` total.
//!
//! Ties are broken toward the smallest node id, so results are fully
//! deterministic and comparable across the greedy family.

// lint: allow-file(no-index) — per-item arrays (I-values, selection masks, gains) are sized to
// node_count and indexed by ItemId::index(); bounds-checked [] in the hot greedy
// loops is deliberate and in bounds by construction.
use std::time::Instant;

use pcover_graph::{ItemId, PreferenceGraph};

use crate::cover::CoverState;
use crate::report::{Algorithm, SolveReport};
use crate::solver::{RoundStats, SolveCtx, Solver, SolverCaps, SolverSpec, VariantSupport};
use crate::variant::{CoverModel, Variant};
use crate::SolveError;

/// Runs plain greedy for budget `k`.
///
/// ```
/// use pcover_core::{greedy, Normalized};
/// use pcover_graph::examples::figure1;
///
/// let g = figure1();
/// let report = greedy::solve::<Normalized>(&g, 2).unwrap();
/// assert!((report.cover - 0.873).abs() < 1e-9); // Example 1.1's 87.3%
/// assert_eq!(report.order.len(), 2);
/// ```
///
/// # Errors
///
/// [`SolveError::KTooLarge`] if `k > n`. `k = 0` yields an empty report with
/// cover 0.
pub fn solve<M: CoverModel>(g: &PreferenceGraph, k: usize) -> Result<SolveReport, SolveError> {
    solve_with::<M>(g, k, &mut SolveCtx::default())
}

/// [`solve`] with an execution context: observers installed on `ctx` see
/// each selection live. The selection arithmetic is identical to [`solve`].
///
/// # Errors
///
/// As [`solve`].
pub fn solve_with<M: CoverModel>(
    g: &PreferenceGraph,
    k: usize,
    ctx: &mut SolveCtx<'_>,
) -> Result<SolveReport, SolveError> {
    let started = Instant::now();
    let n = g.node_count();
    if k > n {
        return Err(SolveError::KTooLarge { k, n });
    }

    let mut state = CoverState::new(n);
    let mut trajectory = Vec::with_capacity(k);
    let mut gain_evaluations = 0u64;

    for iter in 0..k {
        ctx.check_cancelled()?;
        let mut best: Option<(f64, ItemId)> = None;
        let mut round_evals = 0u64;
        for v in g.node_ids() {
            if state.contains(v) {
                continue;
            }
            let gain = state.gain::<M>(g, v);
            round_evals += 1;
            let better = crate::float::improves_argmax(gain, v, best);
            if better {
                best = Some((gain, v));
            }
        }
        gain_evaluations += round_evals;
        let Some((gain, chosen)) = best else {
            return Err(SolveError::internal(
                "greedy round found no candidate despite k <= n",
            ));
        };
        state.add_node::<M>(g, chosen);
        trajectory.push(state.cover());
        ctx.emit_select(iter, chosen, gain, state.cover());
        ctx.emit_round_stats(RoundStats {
            iter,
            gain_evaluations: round_evals,
        });
    }

    Ok(finish::<M>(
        Algorithm::Greedy,
        state,
        trajectory,
        started,
        gain_evaluations,
    ))
}

/// Plain greedy as a registry [`Solver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Greedy;

impl Solver for Greedy {
    fn solve<M: CoverModel>(
        &self,
        g: &PreferenceGraph,
        k: usize,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveReport, SolveError> {
        solve_with::<M>(g, k, ctx)
    }
}

/// The registry entry for [`Greedy`].
pub fn spec() -> SolverSpec {
    SolverSpec::new(
        "greedy",
        Algorithm::Greedy,
        "Plain greedy (Algorithm 1): full candidate scan each round, 1-1/e guarantee, O(nkD)",
        SolverCaps {
            prefix_chain: true,
            ..SolverCaps::default()
        },
        |v, g, k, ctx| Greedy.dispatch(v, g, k, ctx),
    )
}

/// The `O(k)`-space Normalized-only greedy as a registry [`Solver`]
/// (see [`solve_low_memory_normalized`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct LowMemoryGreedy;

impl Solver for LowMemoryGreedy {
    fn solve<M: CoverModel>(
        &self,
        g: &PreferenceGraph,
        k: usize,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveReport, SolveError> {
        if M::VARIANT != Variant::Normalized {
            return Err(SolveError::UnsupportedVariant {
                solver: "greedy-lowmem".to_string(),
                variant: M::VARIANT,
            });
        }
        let report = solve_low_memory_normalized(g, k)?;
        ctx.emit_report(&report);
        Ok(report)
    }
}

/// The registry entry for [`LowMemoryGreedy`].
pub fn low_memory_spec() -> SolverSpec {
    SolverSpec::new(
        "greedy-lowmem",
        Algorithm::Greedy,
        "O(k)-space greedy (Section 3.2): recomputes I-values on the fly; NPC only",
        SolverCaps {
            prefix_chain: true,
            variants: VariantSupport::Only(Variant::Normalized),
            ..SolverCaps::default()
        },
        |v, g, k, ctx| LowMemoryGreedy.dispatch(v, g, k, ctx),
    )
}

/// The paper's `O(k)`-space variant for the **Normalized** cover
/// (Section 3.2): drops the `I` array entirely, recomputing a candidate's
/// own covered mass from its retained out-neighbors inside every gain
/// evaluation.
///
/// Works because the Normalized marginal of an in-neighbor `u` is
/// `W(u) · W(u, v)` — independent of `I[u]` — so only `I[v]` is needed,
/// and that is `W(v) · Σ_{u ∈ out(v) ∩ S} W(v, u)`, recomputable in
/// `O(out_degree(v))`. (The paper notes the same trick does **not** apply
/// to the Independent variant, whose marginals genuinely depend on the
/// accumulated `I[u]` values.)
///
/// Auxiliary space is `O(k)` (the selection; a bitmask over ids is kept
/// for `O(1)` membership, which the paper's analysis counts as part of the
/// output). Selects exactly the same items as [`solve`].
pub fn solve_low_memory_normalized(
    g: &PreferenceGraph,
    k: usize,
) -> Result<SolveReport, SolveError> {
    use crate::variant::Normalized;

    let started = Instant::now();
    let n = g.node_count();
    if k > n {
        return Err(SolveError::KTooLarge { k, n });
    }

    let mut in_set = vec![false; n];
    let mut order: Vec<ItemId> = Vec::with_capacity(k);
    let mut gain_evaluations = 0u64;

    let own_uncovered = |in_set: &[bool], v: ItemId| -> f64 {
        let covered: f64 = g
            .out_edges(v)
            .filter(|&(u, _)| u != v && in_set[u.index()])
            .map(|(_, w)| w)
            .sum();
        g.node_weight(v) * (1.0 - covered)
    };

    for _ in 0..k {
        let mut best: Option<(f64, ItemId)> = None;
        for v in g.node_ids() {
            if in_set[v.index()] {
                continue;
            }
            // Algorithm 2 with I[v] recomputed on the fly.
            let mut gain = own_uncovered(&in_set, v);
            for (u, w) in g.in_edges(v) {
                if u != v && !in_set[u.index()] {
                    gain += g.node_weight(u) * w;
                }
            }
            gain_evaluations += 1;
            let better = crate::float::improves_argmax(gain, v, best);
            if better {
                best = Some((gain, v));
            }
        }
        let Some((_, chosen)) = best else {
            return Err(SolveError::internal(
                "greedy round found no candidate despite k <= n",
            ));
        };
        in_set[chosen.index()] = true;
        order.push(chosen);
    }

    // One CoverState replay reconstructs the I-array metadata and the
    // trajectory for the report (the selection loop above keeps O(k)
    // state; the report type carries the full array by contract). Covers
    // come from the replay, not from summing the recomputed gains, so they
    // are bit-identical to [`solve`]'s: the running sum drifts in the last
    // bits, and a budget-k report's prefix must answer k' exactly as a
    // budget-k' solve does.
    let mut state = CoverState::new(n);
    let mut trajectory = Vec::with_capacity(k);
    for &v in &order {
        state.add_node::<Normalized>(g, v);
        trajectory.push(state.cover());
    }

    Ok(finish::<Normalized>(
        Algorithm::Greedy,
        state,
        trajectory,
        started,
        gain_evaluations,
    ))
}

/// Packs a finished state into a [`SolveReport`].
pub(crate) fn finish<M: CoverModel>(
    algorithm: Algorithm,
    state: CoverState,
    trajectory: Vec<f64>,
    started: Instant,
    gain_evaluations: u64,
) -> SolveReport {
    let cover = state.cover();
    let (order, item_cover) = state_into_parts(state);
    SolveReport {
        algorithm,
        variant: M::VARIANT,
        order,
        trajectory,
        cover,
        item_cover,
        elapsed: started.elapsed(),
        gain_evaluations,
    }
}

fn state_into_parts(state: CoverState) -> (Vec<ItemId>, Vec<f64>) {
    // lint: allow(alloc-in-hot-loop) — ownership transfer into the final report; one copy per materialized result, not per round
    (state.order().to_vec(), state.item_cover().to_vec())
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable constants
mod tests {
    use pcover_graph::examples::{figure1_ids, figure3_ids};
    use pcover_graph::GraphBuilder;

    use crate::cover::cover_value;
    use crate::{Independent, Normalized, Variant};

    use super::*;

    #[test]
    fn figure1_greedy_selects_b_then_d() {
        let (g, ids) = figure1_ids();
        for variant_run in 0..2 {
            let report = if variant_run == 0 {
                solve::<Normalized>(&g, 2).unwrap()
            } else {
                solve::<Independent>(&g, 2).unwrap()
            };
            assert_eq!(report.order, vec![ids.b, ids.d], "variant {variant_run}");
            assert!((report.cover - 0.873).abs() < 1e-9);
            assert!((report.trajectory[0] - 0.66).abs() < 1e-9);
            assert!((report.trajectory[1] - 0.873).abs() < 1e-9);
        }
    }

    #[test]
    fn figure2_coverage_metadata() {
        // Section 5.1: with {B, D} retained, C is covered 100%, A 67%, E 90%.
        let (g, ids) = figure1_ids();
        let report = solve::<Normalized>(&g, 2).unwrap();
        assert!((report.coverage_of(&g, ids.c) - 1.0).abs() < 1e-9);
        assert!((report.coverage_of(&g, ids.a) - 2.0 / 3.0).abs() < 1e-9);
        assert!((report.coverage_of(&g, ids.e) - 0.9).abs() < 1e-9);
        assert!((report.coverage_of(&g, ids.b) - 1.0).abs() < 1e-9);
        assert!((report.coverage_of(&g, ids.d) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn k_zero_is_empty() {
        let (g, _) = figure1_ids();
        let report = solve::<Normalized>(&g, 0).unwrap();
        assert!(report.order.is_empty());
        assert_eq!(report.cover, 0.0);
        assert_eq!(report.gain_evaluations, 0);
    }

    #[test]
    fn k_equals_n_covers_everything() {
        let (g, _) = figure1_ids();
        let report = solve::<Independent>(&g, g.node_count()).unwrap();
        assert!((report.cover - 1.0).abs() < 1e-9);
        assert_eq!(report.k(), g.node_count());
        // The trajectory is non-decreasing (monotonicity).
        for w in report.trajectory.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn k_too_large_rejected() {
        let (g, _) = figure1_ids();
        assert!(matches!(
            solve::<Normalized>(&g, 6),
            Err(SolveError::KTooLarge { k: 6, n: 5 })
        ));
    }

    #[test]
    fn reported_cover_matches_scratch_eval() {
        let (g, _) = figure3_ids();
        for k in 0..=3 {
            let r = solve::<Independent>(&g, k).unwrap();
            let mut mask = vec![false; g.node_count()];
            for &v in &r.order {
                mask[v.index()] = true;
            }
            let scratch = cover_value::<Independent>(&g, &mask);
            assert!((r.cover - scratch).abs() < 1e-9, "k = {k}");
        }
    }

    #[test]
    fn variant_tag_propagates() {
        let (g, _) = figure1_ids();
        assert_eq!(
            solve::<Normalized>(&g, 1).unwrap().variant,
            Variant::Normalized
        );
        assert_eq!(
            solve::<Independent>(&g, 1).unwrap().variant,
            Variant::Independent
        );
    }

    #[test]
    fn gain_evaluation_count_is_nk_shaped() {
        let (g, _) = figure1_ids();
        // Iteration i scans n - i candidates.
        let r = solve::<Normalized>(&g, 3).unwrap();
        assert_eq!(r.gain_evaluations, 5 + 4 + 3);
    }

    #[test]
    fn low_memory_normalized_matches_standard_greedy() {
        let (g, _) = figure1_ids();
        for k in 0..=5 {
            let standard = solve::<Normalized>(&g, k).unwrap();
            let low_mem = solve_low_memory_normalized(&g, k).unwrap();
            assert_eq!(standard.order, low_mem.order, "k = {k}");
            assert!((standard.cover - low_mem.cover).abs() < 1e-9);
            for (a, b) in standard.trajectory.iter().zip(&low_mem.trajectory) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn low_memory_handles_self_loops() {
        let mut b = GraphBuilder::new()
            .allow_self_loops(true)
            .normalize_node_weights(true);
        let x = b.add_node(1.0);
        let y = b.add_node(2.0);
        b.add_edge(x, x, 0.9).unwrap();
        b.add_edge(x, y, 0.5).unwrap();
        let g = b.build().unwrap();
        let standard = solve::<Normalized>(&g, 1).unwrap();
        let low_mem = solve_low_memory_normalized(&g, 1).unwrap();
        assert_eq!(standard.order, low_mem.order);
        assert!((standard.cover - low_mem.cover).abs() < 1e-12);
    }

    #[test]
    fn isolated_zero_weight_nodes_picked_last() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.5);
        let c = b.add_node(0.5);
        let z = b.add_node(0.0); // isolated, worthless
        b.add_edge(a, c, 0.5).unwrap();
        let g = b.build().unwrap();
        let r = solve::<Independent>(&g, 3).unwrap();
        assert_eq!(*r.order.last().unwrap(), z);
    }
}
