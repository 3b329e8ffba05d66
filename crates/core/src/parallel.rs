//! Rayon-parallel greedy — the paper's parallelization scheme.
//!
//! Each greedy iteration evaluates the marginal gain of every candidate
//! independently (Algorithm 1, line 3); those evaluations are distributed
//! over a thread pool in contiguous chunks, and the per-chunk maxima are
//! reduced sequentially. With `N` threads the per-iteration cost drops from
//! `O(nD)` to `O(nD / N)`, for a total of `O(k + nkD/N)` (Sections 3.2 and
//! 4.2).
//!
//! The result is **bit-identical** to [`greedy::solve`]: the reduction
//! applies the same `(gain desc, id asc)` tie-break, and each chunk's
//! arithmetic is the same sequential loop.
//!
//! Besides wall-clock time, the solver reports *work statistics*: how many
//! weighted gain-evaluation operations each chunk (thread slot) performed.
//! On a machine with fewer physical cores than requested threads the
//! wall-clock speedup saturates, but the work statistics still validate the
//! load balance that the paper's Figure 4e measures on a 32-core server.
//!
//! [`greedy::solve`]: crate::greedy::solve

// lint: allow-file(no-index) — per-item arrays (I-values, selection masks, gains) are sized to
// node_count and indexed by ItemId::index(); bounds-checked [] in the hot greedy
// loops is deliberate and in bounds by construction.
use std::time::Instant;

use rayon::prelude::*;

use pcover_graph::{ItemId, PreferenceGraph};

use crate::cover::CoverState;
use crate::greedy::finish;
use crate::report::{Algorithm, SolveReport};
use crate::solver::{RoundStats, SolveCtx, Solver, SolverCaps, SolverSpec};
use crate::variant::CoverModel;
use crate::SolveError;

/// Per-chunk scan result: the chunk's argmax candidate (if any item was
/// evaluable), plus its operation and gain-evaluation counts.
type ChunkResult = (Option<(f64, ItemId)>, u64, u64);

/// Work accounting for one parallel solve.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkStats {
    /// Number of thread slots (chunks) the candidate scan was split into.
    pub threads: usize,
    /// Weighted operations (1 + in-degree per gain evaluation) performed by
    /// each thread slot, summed over all iterations.
    pub per_thread_ops: Vec<u64>,
    /// Number of greedy iterations executed (= `k`).
    pub iterations: usize,
}

impl WorkStats {
    /// Total operations across all thread slots.
    pub fn total_ops(&self) -> u64 {
        self.per_thread_ops.iter().sum()
    }

    /// The work-span modeled speedup over one thread: `total / max-slot`.
    ///
    /// 1.0 means no parallelism; `threads` means perfectly balanced. This is
    /// the quantity Figure 4e measures as wall-clock on a 32-core server;
    /// reporting it from work counters lets the experiment run on any host.
    pub fn modeled_speedup(&self) -> f64 {
        let max = self.per_thread_ops.iter().copied().max().unwrap_or(0);
        if max == 0 {
            1.0
        } else {
            self.total_ops() as f64 / max as f64
        }
    }

    /// Load-balance ratio in `[0, 1]`: mean slot work over max slot work.
    pub fn balance(&self) -> f64 {
        let max = self.per_thread_ops.iter().copied().max().unwrap_or(0);
        if max == 0 || self.per_thread_ops.is_empty() {
            return 1.0;
        }
        let mean = self.total_ops() as f64 / self.per_thread_ops.len() as f64;
        mean / max as f64
    }
}

/// Runs parallel greedy for budget `k` on the process-wide shared pool of
/// `threads` rayon workers (see [`pool::shared_pool`](crate::pool::shared_pool)
/// — repeated solves at the same thread count reuse the same pool instead
/// of constructing one per call).
///
/// # Errors
///
/// [`SolveError::KTooLarge`] if `k > n`; [`SolveError::ZeroThreads`] if
/// `threads == 0`.
pub fn solve<M: CoverModel>(
    g: &PreferenceGraph,
    k: usize,
    threads: usize,
) -> Result<(SolveReport, WorkStats), SolveError> {
    solve_with::<M>(g, k, threads, &mut SolveCtx::default())
}

/// [`solve`] with an execution context: observers installed on `ctx` see
/// each selection live (emitted from the sequential reduce, never from
/// worker threads, so observers cannot perturb the bit-identical result).
///
/// # Errors
///
/// As [`solve`].
pub fn solve_with<M: CoverModel>(
    g: &PreferenceGraph,
    k: usize,
    threads: usize,
    ctx: &mut SolveCtx<'_>,
) -> Result<(SolveReport, WorkStats), SolveError> {
    let started = Instant::now();
    let n = g.node_count();
    if k > n {
        return Err(SolveError::KTooLarge { k, n });
    }
    if threads == 0 {
        return Err(SolveError::ZeroThreads);
    }

    let pool = crate::pool::shared_pool(threads)?;

    let mut state = CoverState::new(n);
    let mut trajectory = Vec::with_capacity(k);
    let mut per_thread_ops = vec![0u64; threads];
    let mut gain_evaluations = 0u64;

    // Contiguous chunk boundaries over the id space, fixed across
    // iterations so per-slot work is attributable.
    let chunk = n.div_ceil(threads);
    let ranges: Vec<(usize, usize)> = (0..threads)
        .map(|t| (t * chunk, ((t + 1) * chunk).min(n)))
        .collect();

    for iter in 0..k {
        ctx.check_cancelled()?;
        // Scan: each chunk yields (best (gain, id), ops, evals). The
        // in-chunk argmax goes through the audited tie-break so every
        // solver variant selects identically.
        let chunk_results: Vec<ChunkResult> = pool.install(|| {
            ranges
                .par_iter()
                .map(|&(lo, hi)| {
                    let csr = g.csr();
                    let mut best: Option<(f64, ItemId)> = None;
                    let mut ops = 0u64;
                    let mut evals = 0u64;
                    for raw in lo..hi {
                        let v = ItemId::from_index(raw);
                        if state.contains(v) {
                            continue;
                        }
                        let gain = state.gain::<M>(g, v);
                        evals += 1;
                        ops += 1 + csr.in_edges(v).len() as u64;
                        if crate::float::improves_argmax(gain, v, best) {
                            best = Some((gain, v));
                        }
                    }
                    (best, ops, evals)
                })
                // lint: allow(alloc-in-hot-loop) — per-round gather of one winner per chunk: `threads` entries, not n
                .collect()
        });

        // Reduce: the same `(gain desc, id asc)` tie-break, which is
        // commutative over the per-chunk winners — chunk order cannot
        // change the selection.
        let mut best: Option<(f64, ItemId)> = None;
        let mut round_evals = 0u64;
        for (slot, (chunk_best, ops, evals)) in chunk_results.into_iter().enumerate() {
            per_thread_ops[slot] += ops;
            round_evals += evals;
            if let Some((gain, v)) = chunk_best {
                if crate::float::improves_argmax(gain, v, best) {
                    best = Some((gain, v));
                }
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

    let report = finish::<M>(
        Algorithm::ParallelGreedy,
        state,
        trajectory,
        started,
        gain_evaluations,
    );
    let stats = WorkStats {
        threads,
        per_thread_ops,
        iterations: k,
    };
    Ok((report, stats))
}

/// Parallel greedy as a registry [`Solver`]. Work statistics are dropped
/// through this interface; callers that need [`WorkStats`] use
/// [`solve`]/[`solve_with`] directly.
#[derive(Clone, Copy, Debug)]
pub struct ParallelGreedy {
    /// Worker thread count (must be at least 1).
    pub threads: usize,
}

impl Solver for ParallelGreedy {
    fn solve<M: CoverModel>(
        &self,
        g: &PreferenceGraph,
        k: usize,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveReport, SolveError> {
        solve_with::<M>(g, k, self.threads, ctx).map(|(report, _)| report)
    }
}

/// The registry entry for [`ParallelGreedy`]; thread count comes from
/// [`SolverConfig::threads`](crate::solver::SolverConfig::threads).
pub fn spec() -> SolverSpec {
    SolverSpec::new(
        "parallel",
        Algorithm::ParallelGreedy,
        "Rayon-parallel greedy: chunked gain scans, bit-identical to greedy, O(k + nkD/N)",
        SolverCaps {
            prefix_chain: true,
            ..SolverCaps::default()
        },
        |v, g, k, ctx| {
            ParallelGreedy {
                threads: ctx.config.threads,
            }
            .dispatch(v, g, k, ctx)
        },
    )
}

#[cfg(test)]
mod tests {
    use pcover_graph::examples::figure1_ids;
    use pcover_graph::GraphBuilder;
    use rand::{RngExt, SeedableRng};

    use crate::{greedy, Independent, Normalized};

    use super::*;

    fn random_graph(n: usize, seed: u64) -> PreferenceGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new()
            .normalize_node_weights(true)
            .duplicate_edge_policy(pcover_graph::DuplicateEdgePolicy::Max);
        let ids: Vec<ItemId> = (0..n)
            .map(|_| b.add_node(rng.random_range(1.0..50.0)))
            .collect();
        for &v in &ids {
            for _ in 0..3 {
                let u = ids[rng.random_range(0..n)];
                if u != v {
                    b.add_edge(v, u, rng.random_range(0.05..0.95)).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn matches_sequential_greedy_exactly() {
        let _cache = crate::pool::tests::cache_guard();
        for seed in 0..3 {
            let g = random_graph(50, seed);
            let plain = greedy::solve::<Independent>(&g, 12).unwrap();
            for threads in [1, 2, 4, 7] {
                let (par, _) = solve::<Independent>(&g, 12, threads).unwrap();
                assert_eq!(par.order, plain.order, "seed {seed} threads {threads}");
                assert!((par.cover - plain.cover).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn figure1_parallel() {
        let _cache = crate::pool::tests::cache_guard();
        let (g, ids) = figure1_ids();
        let (r, stats) = solve::<Normalized>(&g, 2, 2).unwrap();
        assert_eq!(r.order, vec![ids.b, ids.d]);
        assert!((r.cover - 0.873).abs() < 1e-9);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.iterations, 2);
        assert!(stats.total_ops() > 0);
    }

    #[test]
    fn work_stats_are_balanced_on_uniform_graphs() {
        let _cache = crate::pool::tests::cache_guard();
        let g = random_graph(200, 11);
        let (_, stats) = solve::<Independent>(&g, 20, 4).unwrap();
        assert_eq!(stats.per_thread_ops.len(), 4);
        assert!(
            stats.balance() > 0.5,
            "uniform random graph should balance well, got {}",
            stats.balance()
        );
        assert!(stats.modeled_speedup() > 2.0);
        assert!(stats.modeled_speedup() <= 4.0 + 1e-9);
    }

    #[test]
    fn zero_threads_rejected() {
        let (g, _) = figure1_ids();
        assert!(matches!(
            solve::<Normalized>(&g, 1, 0),
            Err(SolveError::ZeroThreads)
        ));
    }

    #[test]
    fn sequential_solves_reuse_the_shared_pool() {
        let _cache = crate::pool::tests::cache_guard();
        let g = random_graph(60, 5);
        // Materialize the pool for this thread count, then prove two
        // back-to-back solves neither rebuild it nor grow the cache.
        let handle = crate::pool::shared_pool(6).unwrap();
        let pools_before = crate::pool::cached_pool_count();
        let (a, _) = solve::<Independent>(&g, 10, 6).unwrap();
        let (b, _) = solve::<Independent>(&g, 10, 6).unwrap();
        assert_eq!(a.order, b.order);
        assert_eq!(crate::pool::cached_pool_count(), pools_before);
        assert!(
            std::sync::Arc::ptr_eq(&handle, &crate::pool::shared_pool(6).unwrap()),
            "solves must run on the cached pool, not a fresh one"
        );
    }

    #[test]
    fn more_threads_than_nodes() {
        let _cache = crate::pool::tests::cache_guard();
        let (g, _) = figure1_ids();
        let (r, stats) = solve::<Normalized>(&g, 2, 16).unwrap();
        assert!((r.cover - 0.873).abs() < 1e-9);
        assert_eq!(stats.per_thread_ops.len(), 16);
    }
}
