//! Model-checked interleavings of the serve sync primitives.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the nightly CI job): the
//! `crate::sync` shim then builds [`pcover_serve::queue::WorkQueue`],
//! [`pcover_serve::SnapshotManager`] and the serve [`Memo`] on the
//! vendored `loom` primitives,
//! and [`loom::model`] explores every schedule of the threads below (DFS
//! with bounded preemption), failing with a repro schedule on any
//! assertion failure, deadlock, or lost wakeup.
//!
//! Run locally with:
//! `RUSTFLAGS="--cfg loom" cargo test -p pcover-serve --test loom --release`

#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;

use pcover_core::{Algorithm, Registry, SolveCtx, SolveReport, SolverConfig, Variant};
use pcover_graph::delta::{Change, GraphDelta};
use pcover_graph::examples::figure1_ids;
use pcover_graph::ItemId;
use pcover_serve::memo::{Lineage, Lookup, Memo};
use pcover_serve::queue::WorkQueue;
use pcover_serve::SnapshotManager;

/// Shed/drain/shutdown: one producer pushing past capacity, one draining
/// worker, close racing both. Every accepted item must be popped exactly
/// once and in order, the shed item must come back to the producer, and
/// `pop` must return `None` once closed and drained (no worker may hang —
/// a lost `notify` here shows up as a modeled deadlock).
#[test]
fn queue_sheds_drains_and_shuts_down_under_every_schedule() {
    loom::model(|| {
        let q = Arc::new(WorkQueue::new(1));
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        let mut accepted = Vec::new();
        for v in [1u32, 2] {
            if q.push(v).is_ok() {
                accepted.push(v);
            }
        }
        q.close();
        assert!(q.push(3).is_err(), "closed queue must shed");
        let got = worker.join().expect("worker exits after close");
        assert_eq!(got, accepted, "every accepted item pops exactly once");
    });
}

/// Swap vs. read: a reader's snapshot must be internally consistent — the
/// generation number and the graph it carries always agree, whichever side
/// of the hot-swap the read lands on, and the pre-swap `Arc` keeps the old
/// generation alive.
#[test]
fn snapshot_swap_never_tears_a_concurrent_read() {
    loom::model(|| {
        let (g, ids) = figure1_ids();
        let mgr = Arc::new(SnapshotManager::new(g));
        let writer = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || {
                let delta = GraphDelta::new().push(Change::Delist { node: ids.d });
                mgr.apply_delta_swap(&delta)
                    .expect("valid delta")
                    .new
                    .generation
            })
        };
        let snap = mgr.current();
        if snap.generation == 1 {
            assert!(
                snap.graph.node_weight(ids.d) > 0.0,
                "generation 1 must still carry D"
            );
        } else {
            assert_eq!(snap.generation, 2, "only generations 1 and 2 exist");
            assert!(
                snap.graph.node_weight(ids.d) <= 0.0,
                "generation 2 must have delisted D"
            );
        }
        assert_eq!(writer.join().expect("writer"), 2);
        assert_eq!(mgr.generation(), 2);
        // The handle taken mid-race still reads consistently afterwards.
        let after = if snap.generation == 1 { 1 } else { 2 };
        assert_eq!(snap.generation, after);
    });
}

/// Two racing writers: the writer mutex must serialize them into distinct
/// generations 2 and 3 with no update lost, under every schedule.
#[test]
fn concurrent_deltas_serialize_into_distinct_generations() {
    loom::model(|| {
        let (g, ids) = figure1_ids();
        let mgr = Arc::new(SnapshotManager::new(g));
        let other = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || {
                let delta = GraphDelta::new().push(Change::SetNodeWeight {
                    node: ids.e,
                    weight: 0.5,
                });
                mgr.apply_delta_swap(&delta)
                    .expect("valid delta")
                    .new
                    .generation
            })
        };
        let delta = GraphDelta::new().push(Change::SetNodeWeight {
            node: ids.e,
            weight: 0.25,
        });
        let mine = mgr
            .apply_delta_swap(&delta)
            .expect("valid delta")
            .new
            .generation;
        let theirs = other.join().expect("writer");
        let mut gens = [mine, theirs];
        gens.sort_unstable();
        assert_eq!(gens, [2, 3], "no generation lost or duplicated");
        assert_eq!(mgr.generation(), 3);
    });
}

/// The lazy-greedy lineage every memo model below asks for.
fn lineage() -> Lineage {
    let registry = Registry::builtin();
    let spec = registry.get("lazy").expect("lazy is registered");
    Lineage::new(spec, Variant::Normalized, &SolverConfig::default())
}

/// A budget-3 report tagged with `mark` (as its evaluation count), so a
/// model can tell which leader's publish a value came from.
fn report(mark: u64) -> std::sync::Arc<SolveReport> {
    std::sync::Arc::new(SolveReport {
        algorithm: Algorithm::LazyGreedy,
        variant: Variant::Normalized,
        order: (0..3).map(ItemId::from_index).collect(),
        trajectory: vec![0.25, 0.5, 0.75],
        cover: 0.75,
        item_cover: vec![],
        elapsed: std::time::Duration::ZERO,
        gain_evaluations: mark,
    })
}

/// The tag `report` was published with.
fn mark(report: &SolveReport) -> u64 {
    report.gain_evaluations
}

/// The race the one-table memo closes: two requests for one key at once.
/// A request that finds no ready report registers with the running solves
/// under the same guard, so it can never miss the report a leader is
/// publishing and lead a second solve. Under every schedule exactly one
/// thread leads; the other is answered `hit` (it came after the publish)
/// or `coalesced` (it parked on the flight). Looking up and registering
/// under two locks fails this: the lookup misses, the leader publishes
/// with no waiters and removes its flight, and the late registration
/// leads again.
#[test]
fn concurrent_requests_for_one_key_solve_once() {
    loom::model(|| {
        let memo = Arc::new(Memo::new(8));
        let ask = |memo: &Memo| match memo.begin(&lineage(), 1, 3, None) {
            Lookup::Ready(_, outcome) => outcome.as_str(),
            Lookup::Joined(_) => "coalesced",
            Lookup::Leader(leader) => {
                leader.publish(Ok(report(1)), None);
                "leader"
            }
        };
        let other = {
            let memo = Arc::clone(&memo);
            thread::spawn(move || ask(&memo))
        };
        let mine = ask(&memo);
        let theirs = other.join().expect("other request");
        let mut outcomes = [mine, theirs];
        outcomes.sort_unstable();
        assert!(
            outcomes == ["coalesced", "leader"] || outcomes == ["hit", "leader"],
            "exactly one leader, the other hit or coalesced: {outcomes:?}"
        );
        assert_eq!(memo.stats().in_flight, 0, "flights drain to empty");
        assert_eq!(memo.stats().reports, 1);
    });
}

/// Coalescing: with a leader solving key k=3, two racing followers must
/// each either join the leader's published value or — if the schedule
/// lands them after the flight drained — lead a fresh flight of their own
/// (the memo stores nothing at capacity 0, so there is no report to hit).
/// Never a double-solve *during* the leader's flight, never a lost wakeup
/// (a parked follower that misses its `notify_all` shows up as a modeled
/// deadlock), and the flights always drain to empty.
#[test]
fn coalesced_followers_join_or_lead_fresh_never_hang() {
    loom::model(|| {
        let memo = Arc::new(Memo::new(0));
        let Lookup::Leader(leader) = memo.begin(&lineage(), 1, 3, None) else {
            panic!("first arrival must lead");
        };
        let followers: Vec<_> = (0..2)
            .map(|_| {
                let memo = Arc::clone(&memo);
                thread::spawn(move || match memo.begin(&lineage(), 1, 3, None) {
                    Lookup::Joined(result) => mark(&result.expect("published")),
                    Lookup::Leader(fresh) => {
                        // Arrived after the first flight drained entirely.
                        fresh.publish(Ok(report(99)), None);
                        99
                    }
                    Lookup::Ready(..) => panic!("a capacity-0 memo stores nothing"),
                })
            })
            .collect();
        leader.publish(Ok(report(42)), None);
        for f in followers {
            let v = f.join().expect("follower");
            assert!(v == 42 || v == 99, "value must come from a real publish");
        }
        assert_eq!(
            memo.stats().in_flight,
            0,
            "flights drain under every schedule"
        );
    });
}

/// Leader abort: if the leader's token drops without publishing (solver
/// panic), a racing follower must wake and solve itself — as a leader
/// outside coalescing if it parked, or of a fresh flight if it arrived
/// after the abort drained. It must never receive a value and never hang.
#[test]
fn aborted_leader_releases_every_waiter() {
    loom::model(|| {
        let memo = Arc::new(Memo::new(8));
        let Lookup::Leader(leader) = memo.begin(&lineage(), 1, 3, None) else {
            panic!("leader");
        };
        let follower = {
            let memo = Arc::clone(&memo);
            thread::spawn(move || match memo.begin(&lineage(), 1, 3, None) {
                Lookup::Leader(own) => {
                    own.publish(Ok(report(1)), None);
                    true
                }
                Lookup::Joined(_) | Lookup::Ready(..) => false,
            })
        };
        drop(leader); // abort without publishing
        assert!(
            follower.join().expect("follower"),
            "an aborted flight must never hand out a value"
        );
        assert_eq!(memo.stats().in_flight, 0);
    });
}

/// Shutdown racing a parked waiter: `close()` may land before the waiter
/// registers, while it is parked, or after the leader published. In every
/// schedule the waiter must resolve — the published value (joined, or hit
/// once stored) or leadership outside coalescing — and post-close
/// arrivals never register a flight.
#[test]
fn close_races_a_parked_waiter_without_stranding_it() {
    loom::model(|| {
        let memo = Arc::new(Memo::new(8));
        let Lookup::Leader(leader) = memo.begin(&lineage(), 1, 3, None) else {
            panic!("leader");
        };
        let waiter = {
            let memo = Arc::clone(&memo);
            thread::spawn(move || match memo.begin(&lineage(), 1, 3, None) {
                Lookup::Joined(result) => mark(&result.expect("published")) == 7,
                Lookup::Ready(report, _) => mark(&report) == 7,
                Lookup::Leader(own) => {
                    own.publish(Ok(report(7)), None);
                    true
                }
            })
        };
        let closer = {
            let memo = Arc::clone(&memo);
            thread::spawn(move || memo.close())
        };
        leader.publish(Ok(report(7)), None);
        assert!(
            waiter.join().expect("waiter"),
            "waiter must resolve cleanly"
        );
        closer.join().expect("closer");
        let Lookup::Leader(late) = memo.begin(&lineage(), 1, 4, None) else {
            panic!("no stored report covers k=4");
        };
        assert_eq!(
            memo.stats().in_flight,
            0,
            "a closed memo registers no new flight"
        );
        drop(late);
    });
}

/// A leader publishing its warm state races the swap past its generation.
/// The leader solves on generation 1 and publishes the state its solve
/// handed back; the swap 1 → 2 touched node A. Whichever lands first, a
/// later leader on generation 2 gets no state (the swap came first, so the
/// state would miss its delta and is not installed) or the published state
/// with A in its frontier — never a state that misses the delta.
#[test]
fn a_publishing_leader_races_a_swap_without_losing_its_frontier() {
    loom::model(|| {
        let (g, ids) = figure1_ids();
        let registry = Registry::builtin();
        let spec = *registry.get("delta").expect("delta is registered");
        let delta = Lineage::new(&spec, Variant::Normalized, &SolverConfig::default());
        let out = spec
            .solve_handing_back(Variant::Normalized, &g, 2, None, &mut SolveCtx::default())
            .expect("figure 1 solves");
        let memo = Arc::new(Memo::new(8));
        let leader = {
            let memo = Arc::clone(&memo);
            thread::spawn(move || {
                let Lookup::Leader(leader) = memo.begin(&delta, 1, 2, None) else {
                    panic!("nothing is ready on generation 1");
                };
                leader.publish(Ok(std::sync::Arc::new(out.report)), out.next);
            })
        };
        memo.record_swap(1, 2, &[ids.a]);
        leader.join().expect("leader");
        let Lookup::Leader(later) = memo.begin(&delta, 2, 3, None) else {
            panic!("nothing is ready on generation 2");
        };
        if let Some((state, touched)) = later.warm() {
            assert!(
                touched.contains(&ids.a),
                "a state on generation 2 must carry the swap's frontier: {touched:?}"
            );
            assert!(state.accepts(Variant::Normalized, &g));
        }
    });
}
