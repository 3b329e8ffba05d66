//! Snapshot generations with atomic hot-swap.
//!
//! The service never mutates a graph in place: each `POST /admin/delta`
//! builds a **new** validated [`PreferenceGraph`] from the current one via
//! [`pcover_graph::delta::apply`] and publishes it as the next generation.
//! Building it costs an `O(n + m)` copy of the CSR rows (rows the delta
//! cannot reach are copied whole, only the rows it edits or delists into
//! are merged) plus an `O(|delta| log |delta|)` sort of the edits; a delta
//! that adds no node shares the label table with the generation it came
//! from.
//! Queries clone an `Arc` to the snapshot they start on and keep it for
//! their whole lifetime, so a swap never invalidates an in-flight solve —
//! old generations are freed when the last in-flight query drops its `Arc`.

use std::sync::Arc;

use pcover_graph::delta::{apply, GraphDelta};
use pcover_graph::{GraphError, PreferenceGraph};

use crate::sync::{Mutex, RwLock};

/// One immutable published generation.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotonically increasing generation number (the first is 1).
    pub generation: u64,
    /// The graph served under this generation.
    pub graph: Arc<PreferenceGraph>,
}

/// The outcome of one applied delta: the superseded and the newly
/// published snapshots, captured as a consistent pair under the writer
/// lock. Post-swap bookkeeping (solve-cache migration, warm-state harvest)
/// needs both sides — under concurrent swaps, `current()` called after
/// [`SnapshotManager::apply_delta_swap`] may already be generations ahead.
#[derive(Debug)]
pub struct SwapReceipt {
    /// The generation the delta was applied to.
    pub old: Arc<Snapshot>,
    /// The generation the delta produced (`old.generation + 1`).
    pub new: Arc<Snapshot>,
}

/// Holder of the current [`Snapshot`] with atomic swap.
#[derive(Debug)]
pub struct SnapshotManager {
    current: RwLock<Arc<Snapshot>>,
    /// Serializes writers so concurrent deltas cannot both read generation
    /// `g` and publish two different generations `g + 1`.
    writer: Mutex<()>,
}

/// Recovers from a poisoned lock: the protected data is an `Arc` swap with
/// no invariants that a panicking reader could have broken.
fn read_current(lock: &RwLock<Arc<Snapshot>>) -> Arc<Snapshot> {
    match lock.read() {
        Ok(g) => Arc::clone(&g),
        Err(poisoned) => Arc::clone(&poisoned.into_inner()),
    }
}

impl SnapshotManager {
    /// Publishes `graph` as generation 1.
    pub fn new(graph: PreferenceGraph) -> Self {
        Self {
            current: RwLock::new(Arc::new(Snapshot {
                generation: 1,
                graph: Arc::new(graph),
            })),
            writer: Mutex::new(()),
        }
    }

    /// Opens a graph file — a `.pcov` container (zero-copy mmap where
    /// supported, so cold-start cost is checksum verification rather than
    /// JSON parsing + CSR rebuild) or a JSON graph — and publishes it as
    /// generation 1. Returns the manager plus the load path used
    /// (`"mmap"`, `"pread"` or `"json"`) for startup logs.
    ///
    /// # Errors
    ///
    /// [`pcover_store::StoreError`] for unreadable, corrupt, or invalid
    /// files.
    pub fn open(path: &std::path::Path) -> Result<(Self, &'static str), pcover_store::StoreError> {
        let (graph, how) = pcover_store::read_graph_auto(path, pcover_store::OpenMode::Auto)?;
        Ok((Self::new(graph), how))
    }

    /// The currently published snapshot. Cheap: one `RwLock` read and an
    /// `Arc` clone.
    pub fn current(&self) -> Arc<Snapshot> {
        read_current(&self.current)
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.current().generation
    }

    /// Applies `delta` to the current graph and atomically publishes the
    /// result as the next generation, returning the old/new snapshot pair
    /// the swap moved between. The pair is consistent (`new` directly
    /// supersedes `old`) even when other writers swap again immediately
    /// after. In-flight queries on older generations are unaffected.
    /// Writers are serialized; building the new graph (a row copy of the
    /// CSR arrays, see the module docs) happens outside the swap lock.
    ///
    /// # Errors
    ///
    /// [`GraphError`] when the delta does not validate against the current
    /// graph; the published snapshot is unchanged in that case.
    pub fn apply_delta_swap(&self, delta: &GraphDelta) -> Result<SwapReceipt, GraphError> {
        let _writer = match self.writer.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let base = self.current();
        let next_graph = apply(&base.graph, delta)?;
        let next = Arc::new(Snapshot {
            generation: base.generation + 1,
            graph: Arc::new(next_graph),
        });
        match self.current.write() {
            Ok(mut slot) => *slot = Arc::clone(&next),
            Err(poisoned) => *poisoned.into_inner() = Arc::clone(&next),
        }
        Ok(SwapReceipt {
            old: base,
            new: next,
        })
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable constants
mod tests {
    use pcover_graph::delta::Change;
    use pcover_graph::examples::figure1_ids;

    use super::*;

    #[test]
    fn swap_publishes_new_generation_and_keeps_old_alive() {
        let (g, ids) = figure1_ids();
        let mgr = SnapshotManager::new(g);
        let before = mgr.current();
        assert_eq!(before.generation, 1);

        let delta = GraphDelta::new().push(Change::Delist { node: ids.d });
        let receipt = mgr.apply_delta_swap(&delta).expect("valid delta");
        assert_eq!(receipt.new.generation, 2);
        assert_eq!(mgr.generation(), 2);

        // The pre-swap handle still sees the old graph (D alive).
        assert!(before.graph.node_weight(ids.d) > 0.0);
        assert_eq!(mgr.current().graph.node_weight(ids.d), 0.0);
    }

    #[test]
    fn failed_delta_leaves_the_snapshot_unchanged() {
        let (g, _) = figure1_ids();
        let mgr = SnapshotManager::new(g);
        let bad = GraphDelta::new().push(Change::Delist {
            node: pcover_graph::ItemId::new(99),
        });
        assert!(mgr.apply_delta_swap(&bad).is_err());
        assert_eq!(mgr.generation(), 1);
    }

    #[test]
    fn open_publishes_container_file_as_generation_one() {
        let dir = std::env::temp_dir().join(format!("pcover-serve-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("figure1.pcov");
        let (g, ids) = figure1_ids();
        pcover_store::write_graph(&g, &path, pcover_store::WriteOptions::default())
            .expect("write container");

        let (mgr, how) = SnapshotManager::open(&path).expect("open container");
        assert!(matches!(how, "mmap" | "pread"), "unexpected path {how}");
        assert_eq!(mgr.generation(), 1);
        let snap = mgr.current();
        assert_eq!(snap.graph.node_count(), g.node_count());
        assert_eq!(snap.graph.node_weight(ids.a), g.node_weight(ids.a));

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn concurrent_deltas_serialize_into_distinct_generations() {
        let (g, ids) = figure1_ids();
        let mgr = Arc::new(SnapshotManager::new(g));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    let delta = GraphDelta::new().push(Change::SetNodeWeight {
                        node: ids.e,
                        weight: 0.5,
                    });
                    mgr.apply_delta_swap(&delta)
                        .expect("valid delta")
                        .new
                        .generation
                })
            })
            .collect();
        let mut gens: Vec<u64> = threads
            .into_iter()
            .map(|t| t.join().expect("no panic"))
            .collect();
        gens.sort_unstable();
        assert_eq!(gens, (2..=9).collect::<Vec<_>>(), "no generation lost");
        assert_eq!(mgr.generation(), 9);
    }
}
