//! Lazy greedy — the scalable greedy used for the large experiments.
//!
//! Both cover functions are monotone and submodular (proved for the
//! Independent variant in Theorem 4.1; the Normalized variant is a weighted
//! coverage function via the `VC_k` equivalence of Theorem 3.1), so marginal
//! gains only *decrease* as the retained set grows. The classic lazy
//! evaluation therefore applies: keep candidates in a max-heap keyed by a
//! possibly-stale gain; when a candidate surfaces with a stale key,
//! recompute and reinsert; when it surfaces fresh, its gain is a valid
//! maximum and it is selected.
//!
//! Every gain is the same `CoverState::gain` arithmetic plain greedy runs,
//! and exact ties are broken in the heap's own order (larger gain, then
//! smaller id), the order of Algorithm 1's scan. So the output (order,
//! cover and trajectory) is bit-identical to [`greedy::solve`]'s, which
//! the determinism grid pins on random, clustered and all-ties graphs;
//! only the evaluation count differs. On the paper's datasets lazy greedy
//! is orders of magnitude faster because most nodes never have their gain
//! recomputed after the first round.
//!
//! [`greedy::solve`]: crate::greedy::solve

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use pcover_graph::{ItemId, PreferenceGraph};

use crate::cover::CoverState;
use crate::greedy::finish;
use crate::report::{Algorithm, SolveReport};
use crate::solver::{RoundStats, SolveCtx, Solver, SolverCaps, SolverSpec};
use crate::variant::CoverModel;
use crate::SolveError;

/// A heap entry: gain (possibly stale), the round it was computed in, and
/// the node. Ordered by gain descending, then node id ascending, matching
/// the plain greedy tie-break.
#[derive(Clone, Copy, Debug)]
struct Entry {
    gain: f64,
    round: usize,
    node: ItemId,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: larger gain first; among equal gains, smaller id first.
        // The total order on gains lives in `float` (the approved site for
        // exact float comparison), and never panics on the heap path.
        crate::float::cmp_gain(self.gain, other.gain).then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs lazy greedy for budget `k`.
///
/// ```
/// use pcover_core::{greedy, lazy, Independent};
/// use pcover_graph::examples::figure1;
///
/// let g = figure1();
/// let fast = lazy::solve::<Independent>(&g, 3).unwrap();
/// let plain = greedy::solve::<Independent>(&g, 3).unwrap();
/// assert!(fast.bit_identical_to(&plain));
/// assert!(fast.gain_evaluations <= plain.gain_evaluations);
/// ```
///
/// # Errors
///
/// [`SolveError::KTooLarge`] if `k > n`.
pub fn solve<M: CoverModel>(g: &PreferenceGraph, k: usize) -> Result<SolveReport, SolveError> {
    solve_impl::<M>(g, k, f64::INFINITY, &mut SolveCtx::default())
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
    solve_impl::<M>(g, k, f64::INFINITY, ctx)
}

/// Lazy greedy as a registry [`Solver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LazyGreedy;

impl Solver for LazyGreedy {
    fn solve<M: CoverModel>(
        &self,
        g: &PreferenceGraph,
        k: usize,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveReport, SolveError> {
        solve_with::<M>(g, k, ctx)
    }
}

/// The registry entry for [`LazyGreedy`].
pub fn spec() -> SolverSpec {
    SolverSpec::new(
        "lazy",
        Algorithm::LazyGreedy,
        "Lazy greedy: stale-gain max-heap, bit-identical to greedy, near-linear in practice",
        SolverCaps {
            prefix_chain: true,
            ..SolverCaps::default()
        },
        |v, g, k, ctx| LazyGreedy.dispatch(v, g, k, ctx),
    )
}

/// Runs lazy greedy until the cover reaches `stop_at` (or every node is
/// retained, whichever comes first) — the direct solver for the
/// complementary minimization problem.
///
/// The returned report's cover may fall short of `stop_at` only when the
/// whole graph cannot reach it; callers decide whether that is an error.
pub(crate) fn solve_until<M: CoverModel>(
    g: &PreferenceGraph,
    stop_at: f64,
) -> Result<SolveReport, SolveError> {
    solve_impl::<M>(g, g.node_count(), stop_at, &mut SolveCtx::default())
}

fn solve_impl<M: CoverModel>(
    g: &PreferenceGraph,
    k: usize,
    stop_at: f64,
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

    // Round 0: seed the heap with every node's initial gain. The seed
    // buffer is pre-sized and heapified once; collecting straight into a
    // `BinaryHeap` grows by doubling (`node_ids` does not advertise an
    // exact size), and the heap never outgrows this capacity afterwards —
    // every reinsertion follows a pop.
    let mut seed: Vec<Entry> = Vec::with_capacity(n);
    for v in g.node_ids() {
        gain_evaluations += 1;
        seed.push(Entry {
            gain: state.gain::<M>(g, v),
            round: 0,
            node: v,
        });
    }
    let mut heap = BinaryHeap::from(seed);

    for round in 1..=k {
        ctx.check_cancelled()?;
        if state.cover() >= stop_at {
            break;
        }
        let round_start_evals = gain_evaluations;
        loop {
            let Some(top) = heap.pop() else {
                return Err(SolveError::internal(
                    "lazy heap exhausted before k selections",
                ));
            };
            if state.contains(top.node) {
                continue;
            }
            if top.round == round {
                // Fresh this round: submodularity makes it a valid argmax.
                state.add_node::<M>(g, top.node);
                trajectory.push(state.cover());
                ctx.emit_select(round - 1, top.node, top.gain, state.cover());
                break;
            }
            gain_evaluations += 1;
            let fresh = Entry {
                gain: state.gain::<M>(g, top.node),
                round,
                node: top.node,
            };
            // The peeked key only bounds its rival's true gain, which may
            // equal it exactly; so select only when the fresh entry beats
            // the peeked one in the heap's own order (gain, then smaller
            // id), as Algorithm 1's scan would. Otherwise reinsert it.
            if heap.peek().is_none_or(|rival| fresh > *rival) {
                state.add_node::<M>(g, fresh.node);
                trajectory.push(state.cover());
                ctx.emit_select(round - 1, fresh.node, fresh.gain, state.cover());
                break;
            }
            heap.push(fresh);
        }
        ctx.emit_round_stats(RoundStats {
            iter: round - 1,
            gain_evaluations: gain_evaluations - round_start_evals,
        });
    }

    Ok(finish::<M>(
        Algorithm::LazyGreedy,
        state,
        trajectory,
        started,
        gain_evaluations,
    ))
}

#[cfg(test)]
mod tests {
    use pcover_graph::examples::figure1_ids;
    use pcover_graph::{GraphBuilder, ItemId};
    use rand::{RngExt, SeedableRng};

    use crate::{greedy, Independent, Normalized};

    use super::*;

    #[test]
    fn figure1_matches_plain_greedy() {
        let (g, _) = figure1_ids();
        for k in 0..=5 {
            let plain = greedy::solve::<Normalized>(&g, k).unwrap();
            let lazy = solve::<Normalized>(&g, k).unwrap();
            assert!(lazy.bit_identical_to(&plain), "k = {k}");
        }
    }

    fn random_graph(n: usize, avg_deg: usize, seed: u64) -> pcover_graph::PreferenceGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        let ids: Vec<ItemId> = (0..n)
            .map(|_| b.add_node(rng.random_range(1.0..100.0)))
            .collect();
        for &v in &ids {
            for _ in 0..avg_deg {
                let u = ids[rng.random_range(0..n)];
                if u != v {
                    // Duplicate edges resolved by Max policy below.
                    b.add_edge(v, u, rng.random_range(0.05..1.0)).unwrap();
                }
            }
        }
        b.duplicate_edge_policy(pcover_graph::DuplicateEdgePolicy::Max)
            .build()
            .unwrap()
    }

    #[test]
    fn matches_plain_greedy_on_random_graphs() {
        for seed in 0..5 {
            let g = random_graph(40, 3, seed);
            let k = 10;
            let plain_i = greedy::solve::<Independent>(&g, k).unwrap();
            let lazy_i = solve::<Independent>(&g, k).unwrap();
            assert!(lazy_i.bit_identical_to(&plain_i), "independent seed {seed}");
            let plain_n = greedy::solve::<Normalized>(&g, k).unwrap();
            let lazy_n = solve::<Normalized>(&g, k).unwrap();
            assert!(lazy_n.bit_identical_to(&plain_n), "normalized seed {seed}");
        }
    }

    #[test]
    fn lazy_does_less_work() {
        let g = random_graph(300, 4, 7);
        let k = 60;
        let plain = greedy::solve::<Independent>(&g, k).unwrap();
        let lazy = solve::<Independent>(&g, k).unwrap();
        assert!(
            lazy.gain_evaluations < plain.gain_evaluations / 2,
            "lazy {} vs plain {}",
            lazy.gain_evaluations,
            plain.gain_evaluations
        );
        assert!(lazy.bit_identical_to(&plain));
    }

    #[test]
    fn k_bounds() {
        let (g, _) = figure1_ids();
        assert!(solve::<Independent>(&g, 6).is_err());
        let r = solve::<Independent>(&g, 5).unwrap();
        assert!((r.cover - 1.0).abs() < 1e-9);
    }

    #[test]
    fn algorithm_tag_is_lazy() {
        let (g, _) = figure1_ids();
        assert_eq!(
            solve::<Normalized>(&g, 1).unwrap().algorithm,
            Algorithm::LazyGreedy
        );
    }
}
