//! Process-wide shared rayon thread pools, keyed by thread count.
//!
//! Constructing a rayon [`ThreadPool`] spawns OS threads and allocates
//! queues — fine for a one-shot experiment binary, wasteful on the serving
//! hot path where `pcover-serve` dispatches a solve per HTTP request. This
//! cache hands out one long-lived pool per distinct thread count, so two
//! sequential solves at the same `threads` setting share the same workers
//! instead of rebuilding them.
//!
//! Sharing a pool cannot perturb solver output: the parallel solvers gather
//! per-chunk results into slot-indexed collections and reduce them
//! sequentially (see `parallel.rs`), so the answer is
//! a pure function of the chunk boundaries, never of which worker ran a
//! chunk or in what order. `WorkStats` attribution is by chunk slot for the same
//! reason, so it is also unaffected by pool reuse.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rayon::ThreadPool;

use crate::SolveError;

/// The cache: one pool per requested thread count, built on first use and
/// retained for the life of the process.
static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();

/// Returns the shared pool for `threads` workers, building it on first
/// request. Subsequent calls with the same `threads` return the same pool
/// (pointer-identical `Arc`).
///
/// # Errors
///
/// [`SolveError::ZeroThreads`] when `threads == 0`; [`SolveError::Internal`]
/// if pool construction fails or the cache mutex is poisoned.
pub fn shared_pool(threads: usize) -> Result<Arc<ThreadPool>, SolveError> {
    if threads == 0 {
        return Err(SolveError::ZeroThreads);
    }
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let map = pools
            .lock()
            .map_err(|_| SolveError::internal("thread pool cache mutex poisoned"))?;
        if let Some(pool) = map.get(&threads) {
            return Ok(Arc::clone(pool));
        }
    }
    // Cache miss: build *outside* the lock — `ThreadPoolBuilder::build`
    // spawns OS threads, and holding the cache mutex across it would stall
    // every solve at a different thread count behind this one (the
    // `lock-across-blocking` audit rule flags exactly that). Two racing
    // builders at the same count may both construct; `entry` keeps the
    // first insert, and the loser's pool is dropped on return.
    let built = Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| SolveError::internal(format!("thread pool construction failed: {e}")))?,
    );
    let mut map = pools
        .lock()
        .map_err(|_| SolveError::internal("thread pool cache mutex poisoned"))?;
    Ok(Arc::clone(map.entry(threads).or_insert(built)))
}

/// Number of distinct pools currently cached. Exposed so tests (and
/// metrics) can assert that repeated solves do not construct new pools.
pub fn cached_pool_count() -> usize {
    POOLS
        .get()
        .and_then(|m| m.lock().ok().map(|map| map.len()))
        .unwrap_or(0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes the tests that may add a thread count to the process-wide
    /// cache with the tests that count its entries. The harness runs tests
    /// on several threads, so a count could otherwise include the first
    /// pool another test builds at a new thread count. Every test in this
    /// crate that solves on a pool takes the guard.
    pub(crate) fn cache_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn same_thread_count_returns_the_same_pool() {
        let _cache = cache_guard();
        let a = shared_pool(3).expect("pool builds");
        let b = shared_pool(3).expect("pool builds");
        assert!(
            Arc::ptr_eq(&a, &b),
            "two requests at the same thread count must share one pool"
        );
    }

    #[test]
    fn distinct_thread_counts_get_distinct_pools() {
        let _cache = cache_guard();
        let a = shared_pool(2).expect("pool builds");
        let b = shared_pool(5).expect("pool builds");
        assert!(!Arc::ptr_eq(&a, &b));
        let before = cached_pool_count();
        let _ = shared_pool(2).expect("pool builds");
        let _ = shared_pool(5).expect("pool builds");
        assert_eq!(
            cached_pool_count(),
            before,
            "repeat requests must not grow the cache"
        );
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(matches!(shared_pool(0), Err(SolveError::ZeroThreads)));
    }

    #[test]
    fn racing_first_requests_converge_on_one_pool() {
        let _cache = cache_guard();
        // Regression for the build-outside-the-lock miss path: when many
        // threads race the first request at a count, the insert-or-race
        // re-check must hand every caller the same cached pool (losers drop
        // their freshly built one).
        use std::sync::Barrier;
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    shared_pool(7).expect("pool builds")
                })
            })
            .collect();
        let pools: Vec<Arc<ThreadPool>> = handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        for p in &pools[1..] {
            assert!(
                Arc::ptr_eq(&pools[0], p),
                "racing builders must converge on the first-inserted pool"
            );
        }
    }
}
