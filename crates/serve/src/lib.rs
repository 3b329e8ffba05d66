//! # pcover-serve
//!
//! The serving layer of the Preference Cover system: a long-running,
//! multi-threaded query service over an in-memory
//! [`pcover_graph::PreferenceGraph`], reachable as `pcover serve`.
//!
//! The paper frames Preference Cover as the engine behind a live
//! e-commerce stack (Figure 2: adaptation engine → solver → seller-facing
//! tools); this crate is the piece that keeps the solver *resident* —
//! loading the graph once and answering many queries from memory instead
//! of paying a full reload per CLI invocation.
//!
//! ## Pieces
//!
//! * [`snapshot::SnapshotManager`] — immutable graph generations with
//!   atomic hot-swap; `POST /admin/delta` applies a
//!   [`pcover_graph::delta::GraphDelta`] and publishes the next generation
//!   without disturbing in-flight queries.
//! * [`memo::Memo`] — the serve memo: one table keyed by lineage
//!   (registry solver, variant, config fingerprint) holding each
//!   lineage's ready reports by `(generation, k)`, its running solves by
//!   `(generation, k, deadline)`, and its warm state, behind one lock on
//!   the `crate::sync` loom shim. One budget-`k` greedy-family report
//!   answers every `k' ≤ k` query and every `/minimize` threshold (paper
//!   §3.2); N concurrent identical requests collapse into one solver run
//!   whose leader publishes to every parked follower; and after a swap
//!   the next leader repairs the [`pcover_core::WarmState`] the lineage's
//!   last solve handed back (through
//!   [`pcover_core::SolverSpec::solve_handing_back`]) instead of solving
//!   cold (bit-identical answer, `O(touched)` round-0 work; DESIGN §9.1). Lookup and flight registration share the lock,
//!   so a request can never lead a second solve of an answer being
//!   published. Model-checked in `tests/loom.rs`.
//! * [`queue::WorkQueue`] — the bounded MPMC work queue behind the load
//!   shedder, extracted so the `--cfg loom` model tests (`tests/loom.rs`)
//!   can exhaustively check its shed/drain/shutdown interleavings.
//! * [`server::Server`] — `std::net` accept loop, bounded work queue with
//!   503 load shedding, thread-per-worker pool with per-connection
//!   HTTP/1.1 keep-alive loops (idle timeout + requests-per-connection
//!   cap), per-request deadlines via a cancellation-checking
//!   [`pcover_core::Observer`], and graceful drain-then-exit shutdown.
//! * [`http`] — the minimal hand-rolled HTTP/1.1 layer (std-only by
//!   design: no vendored HTTP stack): [`http::ConnBuffer`] carries
//!   buffered bytes across pipelined requests on a persistent connection
//!   and allocates nothing in steady state.
//! * [`metrics::Metrics`] — request/cache/deadline/connection counters and
//!   per-endpoint latency histograms with p999-resolvable microsecond
//!   buckets, dumped as plain text on `/metrics`.
//!
//! ## Endpoints
//!
//! | Endpoint | Parameters | Answer |
//! |---|---|---|
//! | `GET /solve` | `k` (required), `algorithm`, `variant`, `seed`, `threads` (1..=64), `epsilon`, `deadline_ms` | order + cover as JSON |
//! | `GET /cover` | same as `/solve` | cover value only |
//! | `GET /minimize` | `threshold` (required) + the common parameters | smallest prefix reaching the threshold |
//! | `GET /healthz` | — | liveness + generation |
//! | `GET /metrics` | — | plain-text counters |
//! | `POST /admin/delta` | body: `GraphDelta` JSON | new generation |
//! | `POST /admin/shutdown` | — | drains and exits |
//!
//! Every solve dispatches through [`pcover_core::Registry`] /
//! [`pcover_core::SolverSpec`] — never through solver free functions — so
//! the workspace `solver-dispatch` audit rule holds here unwaived.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod http;
pub mod memo;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod snapshot;
mod sync;

pub use memo::{CacheOutcome, Memo};
pub use queue::WorkQueue;
pub use server::{DeadlineObserver, Server, ServerConfig, ServerHandle};
pub use snapshot::{Snapshot, SnapshotManager, SwapReceipt};
