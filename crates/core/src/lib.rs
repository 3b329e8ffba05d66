//! # pcover-core
//!
//! Solvers for the **Preference Cover** problem — the primary contribution of
//! "Inventory Reduction via Maximal Coverage in E-Commerce" (Gershtein, Milo,
//! Novgorodov — EDBT 2020).
//!
//! Given a preference graph (see [`pcover_graph`]) and a budget `k`, select
//! `k` items to retain so that the probability a random purchase request is
//! *matched* — either because the requested item is retained or because a
//! retained alternative is acceptable — is maximized. Two variants interpret
//! the dependency between alternatives differently:
//!
//! * [`Independent`] (`IPC_k`, Definition 2.1): alternatives are independent
//!   events; a non-retained request for `v` is matched with probability
//!   `1 − Π_{u ∈ R_v(S)} (1 − W(v, u))`.
//! * [`Normalized`] (`NPC_k`, Definition 2.2): each consumer accepts at most
//!   one alternative; matching probability is `Σ_{u ∈ R_v(S)} W(v, u)` and
//!   out-weight sums are bounded by 1.
//!
//! ## Algorithms
//!
//! | Module | Algorithm | Guarantee | Notes |
//! |---|---|---|---|
//! | [`greedy`] | Algorithm 1 of the paper (with variant-specific `Gain`/`AddNode`, Algorithms 2–5) | `1 − 1/e` for IPC (tight); `max{1 − 1/e, 1 − (1 − k/n)²}` for NPC | `O(nkD)` |
//! | [`lazy`] | Lazy greedy with a stale-gain priority queue | identical result to [`greedy`] (both cover functions are monotone submodular) | near-linear in practice |
//! | [`delta`] | Dirty-set gain maintenance (cached gains, CSR-derived invalidation, tournament-tree argmax) | identical result to [`greedy`] | `O(n)` first round, `O(dirty · log n)` after |
//! | [`parallel`] | Rayon data-parallel gain scans | identical result to [`greedy`] | `O(k + nkD/N)` on `N` threads |
//! | [`brute_force`] | Exact enumeration | optimal | tiny instances only (the paper's BF baseline) |
//! | [`baselines`] | TopK-W, TopK-C, Random | none | the paper's comparison baselines |
//! | [`minimize`] | Greedy for the complementary problem (smallest set reaching a cover threshold) | ln-style greedy set cover behavior | no `O(log n)` binary-search overhead |
//! | [`stochastic`] | Stochastic greedy (sampled scans) | `1 − 1/e − ε` in expectation | beyond-paper; k-independent work |
//! | [`streaming`] | Sieve-streaming single-pass selection | `1/2 − ε` | beyond-paper |
//! | [`local_search`] | Swap-refinement of any feasible set | `1/2` standalone; never degrades its input | beyond-paper |
//!
//! ## Quick example
//!
//! ```
//! use pcover_core::{greedy, Normalized};
//! use pcover_graph::examples::figure1;
//!
//! let g = figure1();
//! let report = greedy::solve::<Normalized>(&g, 2).unwrap();
//! // Example 3.2: greedy retains B then D, covering 87.3% of requests.
//! assert!((report.cover - 0.873).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cover;
mod error;
mod report;
mod variant;

pub mod baselines;
pub mod bounds;
pub mod brute_force;
pub mod delta;
pub mod extensions;
pub mod float;
pub mod greedy;
pub mod lazy;
pub mod local_search;
pub mod maxvc;
pub mod minimize;
pub mod parallel;
pub mod pool;
pub mod solver;
pub mod stochastic;
pub mod streaming;

pub use cover::{cover_value, CoverState};
pub use delta::{WarmOutcome, WarmState};
pub use error::SolveError;
pub use report::{Algorithm, SolveReport};
pub use solver::{
    NoopObserver, Observer, ProgressObserver, Registry, RoundStats, SolveCtx, Solver, SolverCaps,
    SolverConfig, SolverSpec, TraceEvent, TraceObserver, VariantSupport, WarmRun,
};
pub use variant::{CoverModel, Independent, Normalized, Variant};
