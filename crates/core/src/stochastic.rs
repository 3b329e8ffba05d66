//! Stochastic greedy ("lazier than lazy greedy", Mirzasoleiman et al.,
//! AAAI 2015) — a beyond-paper extension.
//!
//! Each iteration evaluates the marginal gain of only a uniform random
//! sample of `⌈(n/k)·ln(1/ε)⌉` candidates and retains the best. Total work
//! drops from `O(nk)` gain evaluations to `O(n·ln(1/ε))` — *independent of
//! k* — while keeping a `(1 − 1/e − ε)` guarantee **in expectation** for
//! monotone submodular objectives, which both Preference Cover variants
//! are. At the paper's million-item scale this is the natural next step
//! past lazy evaluation, and the ablation bench compares all three.

use rand::seq::index::sample;
use rand::SeedableRng;
use std::time::Instant;

use pcover_graph::{ItemId, PreferenceGraph};

use crate::cover::CoverState;
use crate::greedy::finish;
use crate::report::{Algorithm, SolveReport};
use crate::solver::{RoundStats, SolveCtx, Solver, SolverCaps, SolverSpec};
use crate::variant::CoverModel;
use crate::SolveError;

/// Options for [`solve`].
#[derive(Clone, Copy, Debug)]
pub struct StochasticOptions {
    /// The accuracy parameter ε in `(0, 1)`; the expected approximation is
    /// `1 − 1/e − ε` and each iteration samples `⌈(n/k)·ln(1/ε)⌉`
    /// candidates.
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StochasticOptions {
    fn default() -> Self {
        StochasticOptions {
            epsilon: 0.05,
            seed: 42,
        }
    }
}

/// Runs stochastic greedy for budget `k`.
///
/// # Errors
///
/// [`SolveError::KTooLarge`] if `k > n`; [`SolveError::InvalidThreshold`]
/// if `epsilon` is not in `(0, 1)`.
pub fn solve<M: CoverModel>(
    g: &PreferenceGraph,
    k: usize,
    opts: &StochasticOptions,
) -> Result<SolveReport, SolveError> {
    solve_with::<M>(g, k, opts, &mut SolveCtx::default())
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
    opts: &StochasticOptions,
    ctx: &mut SolveCtx<'_>,
) -> Result<SolveReport, SolveError> {
    let started = Instant::now();
    let n = g.node_count();
    if k > n {
        return Err(SolveError::KTooLarge { k, n });
    }
    if !(opts.epsilon > 0.0 && opts.epsilon < 1.0) {
        return Err(SolveError::InvalidThreshold {
            threshold: opts.epsilon,
        });
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
    let sample_size = if k == 0 {
        0
    } else {
        (((n as f64 / k as f64) * (1.0 / opts.epsilon).ln()).ceil() as usize).clamp(1, n)
    };

    let mut state = CoverState::new(n);
    let mut trajectory = Vec::with_capacity(k);
    let mut gain_evaluations = 0u64;

    for iter in 0..k {
        ctx.check_cancelled()?;
        // Sample from all nodes; already-retained hits are skipped. When
        // the filtered sample happens to be empty (late iterations with
        // small samples), fall back to the first non-retained node so the
        // budget is always filled.
        let mut best: Option<(f64, ItemId)> = None;
        let mut round_evals = 0u64;
        for idx in sample(&mut rng, n, sample_size.min(n)) {
            let v = ItemId::from_index(idx);
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
        let chosen = match best {
            Some((_, v)) => v,
            None => match g.node_ids().find(|&v| !state.contains(v)) {
                Some(v) => v,
                None => {
                    return Err(SolveError::internal(
                        "stochastic round found no leftover node despite k <= n",
                    ))
                }
            },
        };
        let cover_before = state.cover();
        state.add_node::<M>(g, chosen);
        trajectory.push(state.cover());
        ctx.emit_select(iter, chosen, state.cover() - cover_before, state.cover());
        ctx.emit_round_stats(RoundStats {
            iter,
            gain_evaluations: round_evals,
        });
    }

    let mut report = finish::<M>(
        Algorithm::Greedy,
        state,
        trajectory,
        started,
        gain_evaluations,
    );
    report.algorithm = Algorithm::StochasticGreedy;
    Ok(report)
}

/// Stochastic greedy as a registry [`Solver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StochasticGreedy {
    /// Sampling options (epsilon, seed).
    pub opts: StochasticOptions,
}

impl Solver for StochasticGreedy {
    fn solve<M: CoverModel>(
        &self,
        g: &PreferenceGraph,
        k: usize,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveReport, SolveError> {
        let opts = self.opts;
        solve_with::<M>(g, k, &opts, ctx)
    }
}

/// The registry entry for [`StochasticGreedy`]; seed and epsilon come from
/// the [`SolverConfig`](crate::solver::SolverConfig).
pub fn spec() -> SolverSpec {
    SolverSpec::new(
        "stochastic",
        Algorithm::StochasticGreedy,
        "Stochastic greedy: sampled candidate scans, 1-1/e-eps in expectation, k-independent work",
        SolverCaps::default(),
        |v, g, k, ctx| {
            let opts = StochasticOptions {
                epsilon: ctx.config.epsilon.unwrap_or(0.05),
                seed: ctx.config.seed,
            };
            StochasticGreedy { opts }.dispatch(v, g, k, ctx)
        },
    )
}

#[cfg(test)]
mod tests {
    use pcover_graph::examples::figure1_ids;

    use crate::{greedy, Independent};

    use super::*;

    fn random_graph(n: usize, seed: u64) -> PreferenceGraph {
        pcover_graph::GraphBuilder::new()
            .normalize_node_weights(true)
            .build_from_test_edges(n, seed)
    }

    // Small helper so tests don't need datagen: builds a ring-ish graph.
    trait TestGraphExt {
        fn build_from_test_edges(self, n: usize, seed: u64) -> PreferenceGraph;
    }
    impl TestGraphExt for pcover_graph::GraphBuilder {
        fn build_from_test_edges(mut self, n: usize, seed: u64) -> PreferenceGraph {
            let ids: Vec<ItemId> = (0..n)
                .map(|i| self.add_node(1.0 + ((i as u64 * 7 + seed) % 13) as f64))
                .collect();
            for i in 0..n {
                let j = (i + 1 + (seed as usize + i) % 3) % n;
                if i != j {
                    let w = 0.2 + 0.6 * (((i as u64 + seed) % 5) as f64 / 5.0);
                    self.add_edge(ids[i], ids[j], w).unwrap();
                }
            }
            self.build().unwrap()
        }
    }

    #[test]
    fn figure1_with_tiny_epsilon_matches_greedy() {
        // Sample size (n/k)·ln(1/eps) >= n makes it a full scan.
        let (g, ids) = figure1_ids();
        let r = solve::<Independent>(
            &g,
            2,
            &StochasticOptions {
                epsilon: 1e-9,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(r.order, vec![ids.b, ids.d]);
        assert!((r.cover - 0.873).abs() < 1e-9);
        assert_eq!(r.algorithm, crate::Algorithm::StochasticGreedy);
    }

    #[test]
    fn close_to_full_greedy_on_random_graphs() {
        for seed in 0..5 {
            let g = random_graph(200, seed);
            let k = 40;
            let full = greedy::solve::<Independent>(&g, k).unwrap();
            let fast = solve::<Independent>(
                &g,
                k,
                &StochasticOptions {
                    epsilon: 0.05,
                    seed,
                },
            )
            .unwrap();
            assert!(
                fast.cover >= (1.0 - 1.0 / std::f64::consts::E - 0.05) * full.cover,
                "seed {seed}: stochastic {} vs greedy {}",
                fast.cover,
                full.cover
            );
            assert!(fast.cover <= full.cover + 1e-9 || fast.cover <= 1.0);
            // And it does less work per unit of k.
            assert!(fast.gain_evaluations < full.gain_evaluations);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = random_graph(100, 3);
        let opts = StochasticOptions {
            epsilon: 0.2,
            seed: 9,
        };
        let a = solve::<Independent>(&g, 20, &opts).unwrap();
        let b = solve::<Independent>(&g, 20, &opts).unwrap();
        assert_eq!(a.order, b.order);
    }

    #[test]
    fn always_fills_the_budget() {
        let g = random_graph(50, 1);
        let r = solve::<Independent>(
            &g,
            50,
            &StochasticOptions {
                epsilon: 0.9,
                seed: 2,
            },
        )
        .unwrap();
        assert_eq!(r.k(), 50);
        assert!((r.cover - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parameter_validation() {
        let (g, _) = figure1_ids();
        assert!(solve::<Independent>(&g, 9, &StochasticOptions::default()).is_err());
        assert!(solve::<Independent>(
            &g,
            2,
            &StochasticOptions {
                epsilon: 0.0,
                seed: 0
            }
        )
        .is_err());
        assert!(solve::<Independent>(
            &g,
            2,
            &StochasticOptions {
                epsilon: 1.0,
                seed: 0
            }
        )
        .is_err());
    }
}
