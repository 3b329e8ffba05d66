//! Lock primitives behind a `--cfg loom` switch.
//!
//! Every blocking primitive in this crate (`queue`, `snapshot`, `memo`)
//! imports `Mutex`/`Condvar`/`RwLock` from here instead of `std::sync`.
//! A normal build re-exports `std`; a `RUSTFLAGS="--cfg loom"` build (the
//! nightly model-checking CI job) swaps in the vendored `loom` stand-ins,
//! whose acquire/release/wait/notify are scheduling points of a
//! cooperative model checker — `tests/loom.rs` then explores every
//! interleaving of the serve primitives. The two surfaces are
//! signature-compatible, so production code never mentions the cfg.

#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex, MutexGuard, RwLock};

#[cfg(not(loom))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard, RwLock};
