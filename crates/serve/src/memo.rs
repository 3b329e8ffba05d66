//! The serve memo: one lineage-keyed table that answers solve requests
//! from finished reports, coalesces identical in-flight solves, and
//! carries warm solver state across snapshot generations.
//!
//! A **lineage** is what fixes a solve's output apart from the graph and
//! the budget: the registry solver, the cover variant and the
//! [`SolverConfig`] fingerprint. Each lineage's entry holds
//!
//! * its **ready** reports by `(generation, k)`. Reports of the solvers
//!   flagged [`prefix_chain`](pcover_core::SolverCaps::prefix_chain) are
//!   incremental (paper §3.2): the first `k'` selections of a budget-`k`
//!   run are the budget-`k'` answer, so one stored report answers every
//!   `k' ≤ k` and, at full budget, every `/minimize` threshold.
//!   Stochastic, sieve and brute-force outputs depend on `k` itself and
//!   only ever answer their exact key. `capacity` bounds the reports of
//!   all lineages together (LRU).
//! * its **running** solves by `(generation, k, deadline bucket)`, each
//!   with a count of parked waiters: the first request for a key leads
//!   and solves, later ones park and share the leader's result, so N
//!   concurrent identical requests cost one solve. A tight-deadline
//!   request never joins (or waits behind) a no-deadline solve.
//! * its **warm** state: the [`WarmState`] a leader's solve handed back
//!   on some generation, plus the touched frontier of every delta since,
//!   which the next leader repairs instead of solving cold (DESIGN §9.1).
//!   `capacity` also bounds the number of warm lineages.
//!
//! All of it sits behind one `Mutex` and one `Condvar` on the
//! `crate::sync` loom shim, so `tests/loom.rs` model-checks the protocol.
//! [`Memo::begin`] looks for a ready report and registers with the
//! running solves under the same guard, so a request can never miss the
//! report a leader is publishing and then lead a second solve of it.
//! Waits happen only in a predicate loop on the memo's own guard, and
//! every `notify_all` runs guard-free.
//!
//! The leader's [`Leader`] token stores its report, and installs the warm
//! state its solve handed back, on [`Leader::publish`]; a swap
//! ([`Memo::record_swap`]) is bookkeeping on those states and evaluates no
//! gain. If the leader unwinds without publishing (solver panic), the
//! token's `Drop` aborts the flight, and its waiters wake and solve for
//! themselves — a waiter can never hang on a dead leader.

use std::collections::HashMap;
use std::sync::Arc;

use pcover_core::{SolveReport, SolverConfig, SolverSpec, Variant, WarmState};
use pcover_graph::ItemId;
use pcover_store::format::Fnv1a;

use crate::http::Status;
use crate::sync::{Condvar, Mutex, MutexGuard};

/// FNV-1a over every [`SolverConfig`] field, floats via `to_bits` — two
/// configs with the same fingerprint produce bit-identical solves (the
/// determinism the conformance suite pins down).
fn fingerprint(config: &SolverConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&(config.threads as u64).to_le_bytes());
    h.update(&config.seed.to_le_bytes());
    match config.epsilon {
        Some(e) => {
            h.update(&[1]);
            h.update(&e.to_bits().to_le_bytes());
        }
        None => h.update(&[0]),
    }
    h.update(&(config.random_attempts as u64).to_le_bytes());
    h.update(&(config.max_swaps as u64).to_le_bytes());
    h.update(&config.max_subsets.to_le_bytes());
    h.finish()
}

/// How a request was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A ready report for the same key, returned as-is.
    Exact,
    /// A ready report with a larger budget covered this one via the
    /// trajectory property.
    Prefix,
    /// The leader repaired a previous generation's [`WarmState`] instead
    /// of solving cold.
    Warm,
    /// The leader solved cold.
    Miss,
    /// Another request was already solving the same key; this one parked
    /// and received that solve's result.
    Coalesced,
}

impl CacheOutcome {
    /// Lowercase tag used in responses and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Exact => "hit",
            CacheOutcome::Prefix => "prefix",
            CacheOutcome::Warm => "warm",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        }
    }
}

/// What a leader hands its coalesced followers: the report, or the status
/// and message every follower answers with.
pub type Published = Result<Arc<SolveReport>, (Status, String)>;

/// The memo's key: one solver configuration across generations and
/// budgets (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Lineage {
    solver: &'static str,
    variant: Variant,
    fingerprint: u64,
    /// Reports are prefix chains (cached at larger budgets, they answer
    /// smaller ones).
    prefix_chain: bool,
    /// Leaders keep the warm state their solve hands back: a prefix chain
    /// whose solver repairs [`WarmState`]s.
    keeps_warm: bool,
}

impl Lineage {
    /// The lineage of solving with `spec` under `variant` and `config`.
    pub fn new(spec: &SolverSpec, variant: Variant, config: &SolverConfig) -> Self {
        let prefix_chain = spec.caps.prefix_chain;
        Self {
            solver: spec.name,
            variant,
            fingerprint: fingerprint(config),
            prefix_chain,
            keeps_warm: prefix_chain && spec.supports_warm_start(),
        }
    }
}

/// How [`Memo::begin`] answered a request.
pub enum Lookup<'a> {
    /// A ready report answers it: the exact key ([`CacheOutcome::Exact`])
    /// or a larger-budget donor ([`CacheOutcome::Prefix`], whose budget
    /// exceeds the request's — read the answer off `report.prefix(k)`).
    Ready(Arc<SolveReport>, CacheOutcome),
    /// Another request led the solve for this key; here is its result.
    Joined(Published),
    /// Nothing to reuse: solve, then [`Leader::publish`].
    Leader(Leader<'a>),
}

/// A leader's obligation token (see [`Lookup::Leader`]).
pub struct Leader<'a> {
    memo: &'a Memo,
    lineage: Lineage,
    key: FlightKey,
    /// Whether `key` is registered among the running solves. A leader
    /// solves outside coalescing (unregistered) once the memo is closed or
    /// when the leader it waited for aborted.
    registered: bool,
    warm: Option<(Arc<WarmState>, Vec<ItemId>)>,
}

impl Leader<'_> {
    /// The lineage's warm state usable at this request's generation, and
    /// the touched frontier of every delta since its capture — repair it
    /// instead of solving cold.
    pub fn warm(&self) -> Option<(&WarmState, &[ItemId])> {
        self.warm
            .as_ref()
            .map(|(state, touched)| (state.as_ref(), touched.as_slice()))
    }

    /// Whether this lineage keeps warm states: its leader should solve
    /// through [`SolverSpec::solve_handing_back`] and publish the state.
    pub fn keeps_warm(&self) -> bool {
        self.lineage.keeps_warm
    }

    /// Stores a successful report, installs `state` — the warm state the
    /// solve handed back on this request's generation — as the lineage's,
    /// and hands `result` to every parked follower. The state is kept
    /// unless a swap past this generation was already recorded (the state
    /// would miss its delta), the lineage holds a newer state or a
    /// same-generation one at least as long, or the memo holds `capacity`
    /// warm lineages.
    pub fn publish(mut self, result: Published, state: Option<WarmState>) {
        let registered = std::mem::take(&mut self.registered);
        self.memo
            .land_flight(&self.lineage, self.key, registered, Some(result), state);
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        // Unwound without publishing: abort so waiters never hang.
        if self.registered {
            self.memo
                .land_flight(&self.lineage, self.key, true, None, None);
        }
    }
}

/// A running solve's key within its lineage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct FlightKey {
    generation: u64,
    k: usize,
    deadline_ms: Option<u64>,
}

struct Ready {
    report: Arc<SolveReport>,
    last_used: u64,
}

enum Flight {
    /// The leader is solving.
    Running,
    /// The leader published; waiters drain this value.
    Done(Published),
    /// The leader dropped without publishing; waiters solve themselves.
    Aborted,
}

struct Slot {
    flight: Flight,
    /// Parked followers still owed a wakeup; the last one out removes a
    /// finished slot.
    waiters: usize,
}

struct Warm {
    state: Arc<WarmState>,
    /// Accumulated touched frontier of every delta applied since the
    /// state's generation — the dirty set a warm re-solve must recompute.
    /// Conservative for queries still on an older generation
    /// `≥ min_generation` (extra dirty nodes cost evaluations, never
    /// correctness).
    touched: Vec<ItemId>,
    /// The generation the state was solved on; it must not serve older
    /// snapshots (their deltas are not in `touched`).
    min_generation: u64,
}

#[derive(Default)]
struct Entry {
    ready: HashMap<(u64, usize), Ready>,
    running: HashMap<FlightKey, Slot>,
    warm: Option<Warm>,
}

impl Entry {
    fn is_empty(&self) -> bool {
        self.ready.is_empty() && self.running.is_empty() && self.warm.is_none()
    }
}

struct Table {
    lineages: HashMap<Lineage, Entry>,
    /// LRU clock: advanced by every request and every stored report.
    tick: u64,
    evictions: u64,
    /// The last swap the warm states account for. Swap bookkeeping runs
    /// outside the snapshot writer lock, so it can arrive out of order;
    /// this guard keeps the accumulated `touched` sets honest (see
    /// [`Memo::record_swap`]).
    generation: u64,
    open: bool,
}

impl Table {
    /// An exact or prefix ready report for `(generation, k)`; every
    /// lookup advances the LRU clock.
    fn ready(
        &mut self,
        lineage: &Lineage,
        generation: u64,
        k: usize,
    ) -> Option<(Arc<SolveReport>, CacheOutcome)> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.lineages.get_mut(lineage)?;
        let (ready, outcome) = match entry.ready.get_mut(&(generation, k)) {
            Some(exact) => (exact, CacheOutcome::Exact),
            // Smallest stored budget that still covers k, for tightest reuse.
            None if lineage.prefix_chain => {
                let donor = entry
                    .ready
                    .keys()
                    .filter(|&&(g, stored)| g == generation && stored >= k)
                    .min_by_key(|&&(_, stored)| stored)
                    .copied()?;
                (entry.ready.get_mut(&donor)?, CacheOutcome::Prefix)
            }
            None => return None,
        };
        ready.last_used = tick;
        Some((Arc::clone(&ready.report), outcome))
    }

    /// The lineage's warm state, if it may serve a query pinned to
    /// `generation`: not captured after it (an in-flight query on an older
    /// snapshot must not use gains that postdate it), and not *ahead* of
    /// the last recorded swap (a query racing the swap bookkeeping would
    /// use a touched set missing that delta — it solves cold instead).
    fn usable_warm(
        &self,
        lineage: &Lineage,
        generation: u64,
    ) -> Option<(Arc<WarmState>, Vec<ItemId>)> {
        if generation > self.generation {
            return None;
        }
        let warm = self.lineages.get(lineage)?.warm.as_ref()?;
        if generation < warm.min_generation {
            return None;
        }
        Some((Arc::clone(&warm.state), warm.touched.clone()))
    }

    fn report_count(&self) -> usize {
        self.lineages.values().map(|e| e.ready.len()).sum()
    }

    fn warm_count(&self) -> usize {
        self.lineages.values().filter(|e| e.warm.is_some()).count()
    }

    /// Installs `state`, solved on `generation`, as `lineage`'s warm state
    /// with an empty frontier — unless the memo has recorded a swap past
    /// `generation` (the state would miss that delta), the lineage holds a
    /// newer state or a same-generation one at least as long (the largest
    /// budget wins: longest verified prefix, most reuse), or `capacity`
    /// warm lineages are already held.
    fn install_warm(
        &mut self,
        lineage: &Lineage,
        generation: u64,
        state: WarmState,
        capacity: usize,
    ) {
        if !lineage.keeps_warm || generation < self.generation {
            return;
        }
        let held = self.lineages.get(lineage).and_then(|e| e.warm.as_ref());
        let replaces = match held {
            Some(warm) => {
                warm.min_generation < generation
                    || (warm.min_generation == generation
                        && warm.state.order().len() < state.order().len())
            }
            None => self.warm_count() < capacity,
        };
        if replaces {
            self.lineages.entry(*lineage).or_default().warm = Some(Warm {
                state: Arc::new(state),
                touched: Vec::new(),
                min_generation: generation,
            });
        }
    }

    /// Stores a finished report, evicting the least-recently-used report
    /// of any lineage when `capacity` is reached.
    fn store(
        &mut self,
        lineage: Lineage,
        key: (u64, usize),
        report: Arc<SolveReport>,
        capacity: usize,
    ) {
        if capacity == 0 {
            return;
        }
        self.tick += 1;
        let present = self
            .lineages
            .get(&lineage)
            .is_some_and(|e| e.ready.contains_key(&key));
        if !present && self.report_count() >= capacity {
            let coldest = self
                .lineages
                .iter()
                .flat_map(|(l, e)| e.ready.iter().map(move |(key, r)| (r.last_used, *l, *key)))
                .min_by_key(|&(last_used, _, _)| last_used);
            if let Some((_, victim, victim_key)) = coldest {
                if let Some(entry) = self.lineages.get_mut(&victim) {
                    entry.ready.remove(&victim_key);
                }
                self.prune(&victim);
                self.evictions += 1;
            }
        }
        let last_used = self.tick;
        self.lineages
            .entry(lineage)
            .or_default()
            .ready
            .insert(key, Ready { report, last_used });
    }

    /// Unregisters a parked waiter; the last one out removes a finished
    /// slot so the table drains to empty.
    fn detach(&mut self, lineage: &Lineage, key: &FlightKey) {
        if let Some(entry) = self.lineages.get_mut(lineage) {
            if let Some(slot) = entry.running.get_mut(key) {
                slot.waiters = slot.waiters.saturating_sub(1);
                if slot.waiters == 0 && !matches!(slot.flight, Flight::Running) {
                    entry.running.remove(key);
                }
            }
        }
        self.prune(lineage);
    }

    /// Drops `lineage`'s entry once it holds nothing.
    fn prune(&mut self, lineage: &Lineage) {
        if self.lineages.get(lineage).is_some_and(Entry::is_empty) {
            self.lineages.remove(lineage);
        }
    }
}

/// Point-in-time sizes of the memo, for `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Ready reports across all lineages and generations.
    pub reports: usize,
    /// Reports evicted by the LRU since startup.
    pub evictions: u64,
    /// Lineages holding a warm state.
    pub warm_states: usize,
    /// Running solves, including finished ones still draining waiters.
    pub in_flight: usize,
}

/// The serve memo (see the module docs).
pub struct Memo {
    table: Mutex<Table>,
    done: Condvar,
    capacity: usize,
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Memo {
    /// An open memo holding at most `capacity` reports and `capacity`
    /// warm lineages (0 disables both; coalescing still works), whose
    /// warm states start at snapshot generation 1 (the first generation
    /// [`crate::SnapshotManager`] publishes).
    pub fn new(capacity: usize) -> Self {
        Self {
            table: Mutex::new(Table {
                lineages: HashMap::new(),
                tick: 0,
                evictions: 0,
                generation: 1,
                open: true,
            }),
            done: Condvar::new(),
            capacity,
        }
    }

    /// Recovers from a poisoned lock: a panicking holder cannot leave the
    /// table torn in a way that matters (every mutation is a single map
    /// operation), and a leader's `Drop` abort runs *during* unwinding —
    /// waiters must still drain.
    fn lock(&self) -> MutexGuard<'_, Table> {
        match self.table.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Answers a request for `lineage` at budget `k` on snapshot
    /// `generation`: a ready report, the result of a running solve of the
    /// same `(generation, k, deadline_ms)` key (blocking until its leader
    /// finishes), or leadership of a new solve. See [`Lookup`].
    pub fn begin(
        &self,
        lineage: &Lineage,
        generation: u64,
        k: usize,
        deadline_ms: Option<u64>,
    ) -> Lookup<'_> {
        let key = FlightKey {
            generation,
            k,
            deadline_ms,
        };
        let mut t = self.lock();
        if let Some((report, outcome)) = t.ready(lineage, generation, k) {
            return Lookup::Ready(report, outcome);
        }
        if !t.open {
            return self.leader(&t, lineage, key, false);
        }
        let entry = t.lineages.entry(*lineage).or_default();
        match entry.running.get_mut(&key) {
            None => {
                entry.running.insert(
                    key,
                    Slot {
                        flight: Flight::Running,
                        waiters: 0,
                    },
                );
                return self.leader(&t, lineage, key, true);
            }
            Some(slot) => match &slot.flight {
                // A finished flight still draining its waiters: take the
                // value without registering.
                Flight::Done(result) => return Lookup::Joined(result.clone()),
                Flight::Aborted => return self.leader(&t, lineage, key, false),
                Flight::Running => slot.waiters += 1,
            },
        }
        // Registered as a waiter: park until the leader finishes (or the
        // memo closes).
        loop {
            t = match self.done.wait(t) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let flight = t
                .lineages
                .get(lineage)
                .and_then(|e| e.running.get(&key))
                .map(|slot| &slot.flight);
            let joined = match flight {
                Some(Flight::Running) if t.open => continue,
                Some(Flight::Done(result)) => Some(result.clone()),
                // Closed, aborted, or (defensively) a vanished slot: solve
                // independently rather than hang.
                _ => None,
            };
            t.detach(lineage, &key);
            return match joined {
                Some(result) => Lookup::Joined(result),
                None => self.leader(&t, lineage, key, false),
            };
        }
    }

    fn leader(&self, t: &Table, lineage: &Lineage, key: FlightKey, registered: bool) -> Lookup<'_> {
        Lookup::Leader(Leader {
            memo: self,
            lineage: *lineage,
            key,
            registered,
            warm: t.usable_warm(lineage, key.generation),
        })
    }

    /// Leader completion: store a successful report and install its warm
    /// state, then hand `result` to the waiters (`None` aborts the flight).
    fn land_flight(
        &self,
        lineage: &Lineage,
        key: FlightKey,
        registered: bool,
        result: Option<Published>,
        state: Option<WarmState>,
    ) {
        let mut t = self.lock();
        if let Some(Ok(report)) = &result {
            t.store(
                *lineage,
                (key.generation, key.k),
                Arc::clone(report),
                self.capacity,
            );
        }
        if let Some(state) = state {
            t.install_warm(lineage, key.generation, state, self.capacity);
        }
        if registered {
            if let Some(entry) = t.lineages.get_mut(lineage) {
                if let Some(slot) = entry.running.get_mut(&key) {
                    if slot.waiters == 0 {
                        entry.running.remove(&key);
                    } else {
                        slot.flight = match result {
                            Some(result) => Flight::Done(result),
                            None => Flight::Aborted,
                        };
                    }
                }
            }
            t.prune(lineage);
        }
        drop(t);
        self.done.notify_all();
    }

    /// Records one snapshot swap from generation `old_generation` to
    /// `new_generation`, whose delta touched `touched` on the old graph.
    /// Pure bookkeeping: no graph is read and no gain evaluated (leaders
    /// install the states their solves hand back, see [`Leader::publish`]).
    /// Returns how many reports survived the swap.
    ///
    /// * An empty `touched` frontier means the two graphs are bitwise
    ///   identical: every `old_generation` report moves to the new
    ///   generation (one already solved *on* the new generation wins).
    /// * Every warm state that accounts for each delta up to
    ///   `old_generation` adds `touched` to its frontier, and the others
    ///   are dropped. The generation guard makes out-of-order bookkeeping
    ///   safe without holding any lock across the swap: when the memo is
    ///   exactly at `old_generation` the swap chain is unbroken and every
    ///   state accumulates; when the swap reveals a gap only states solved
    ///   on `old_generation` or later are kept — the others have missed a
    ///   delta; when a later swap was already recorded nothing changes.
    ///   Dropping states costs warm starts, never correctness.
    /// * Reports from generations before `new_generation` are dropped.
    pub fn record_swap(&self, old_generation: u64, new_generation: u64, touched: &[ItemId]) -> u64 {
        let mut survived = 0;
        let mut t = self.lock();
        if touched.is_empty() {
            for entry in t.lineages.values_mut() {
                let moved: Vec<usize> = entry
                    .ready
                    .keys()
                    .filter(|&&(g, _)| g == old_generation && g != new_generation)
                    .map(|&(_, k)| k)
                    .collect();
                for k in moved {
                    let Some(ready) = entry.ready.remove(&(old_generation, k)) else {
                        continue;
                    };
                    if let std::collections::hash_map::Entry::Vacant(slot) =
                        entry.ready.entry((new_generation, k))
                    {
                        slot.insert(ready);
                        survived += 1;
                    }
                }
            }
        }
        let in_order = t.generation == old_generation;
        if in_order || t.generation < new_generation {
            for entry in t.lineages.values_mut() {
                match &mut entry.warm {
                    Some(warm) if in_order || warm.min_generation >= old_generation => {
                        warm.touched.extend_from_slice(touched);
                        warm.touched.sort_unstable();
                        warm.touched.dedup();
                    }
                    _ => entry.warm = None,
                }
            }
            t.generation = new_generation;
        }
        for entry in t.lineages.values_mut() {
            entry.ready.retain(|&(g, _), _| g >= new_generation);
        }
        t.lineages.retain(|_, e| !e.is_empty());
        survived
    }

    /// Closes the memo for shutdown: parked waiters wake and solve for
    /// themselves, later leaders solve outside coalescing, and running
    /// leaders may still finish harmlessly. Ready reports still answer.
    /// Idempotent.
    pub fn close(&self) {
        self.lock().open = false;
        self.done.notify_all();
    }

    /// Current sizes (see [`MemoStats`]).
    pub fn stats(&self) -> MemoStats {
        let t = self.lock();
        MemoStats {
            reports: t.report_count(),
            evictions: t.evictions,
            warm_states: t.warm_count(),
            in_flight: t.lineages.values().map(|e| e.running.len()).sum(),
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use pcover_core::{Algorithm, Registry, SolveCtx};

    fn report_of(order: Vec<ItemId>) -> Arc<SolveReport> {
        let k = order.len();
        Arc::new(SolveReport {
            algorithm: Algorithm::LazyGreedy,
            variant: Variant::Normalized,
            order,
            trajectory: (1..=k).map(|i| i as f64 / k.max(1) as f64).collect(),
            cover: 1.0,
            item_cover: vec![],
            elapsed: std::time::Duration::from_millis(1),
            gain_evaluations: k as u64,
        })
    }

    fn report(k: usize) -> Arc<SolveReport> {
        report_of((0..k).map(ItemId::from_index).collect())
    }

    /// `solver`'s lineage under the default config with seed `seed`.
    fn lineage_seeded(solver: &str, seed: u64) -> Lineage {
        let registry = Registry::builtin();
        let spec = registry.get(solver).expect("registered solver");
        let config = SolverConfig {
            seed,
            ..SolverConfig::default()
        };
        Lineage::new(spec, Variant::Normalized, &config)
    }

    fn lineage(solver: &str) -> Lineage {
        lineage_seeded(solver, SolverConfig::default().seed)
    }

    /// Leads `(generation, k)` and publishes `report`.
    fn put(memo: &Memo, lineage: &Lineage, generation: u64, report: Arc<SolveReport>) {
        let Lookup::Leader(leader) = memo.begin(lineage, generation, report.k(), None) else {
            panic!("an unsolved key must lead");
        };
        leader.publish(Ok(report), None);
    }

    /// A budget-`k` `delta` solve of Figure 1 through the hand-back entry,
    /// as the server's leader runs it for a lineage that keeps warm states:
    /// the report and the state to publish.
    fn warm_solve(k: usize) -> (Arc<SolveReport>, Option<WarmState>) {
        let registry = Registry::builtin();
        let spec = registry.get("delta").expect("delta is registered");
        let out = spec
            .solve_handing_back(
                Variant::Normalized,
                &pcover_graph::examples::figure1(),
                k,
                None,
                &mut SolveCtx::default(),
            )
            .expect("figure 1 solves");
        (Arc::new(out.report), out.next)
    }

    /// Leads `(generation, k)` and publishes [`warm_solve`]'s report and
    /// state. Returns the solve's order.
    fn put_warm(memo: &Memo, lineage: &Lineage, generation: u64, k: usize) -> Vec<ItemId> {
        let Lookup::Leader(leader) = memo.begin(lineage, generation, k, None) else {
            panic!("an unsolved key must lead");
        };
        let (report, state) = warm_solve(k);
        let order = report.order.clone();
        leader.publish(Ok(report), state);
        order
    }

    /// How a request for `(generation, k)` is answered; a leader is
    /// dropped, which leaves nothing behind.
    fn outcome(memo: &Memo, lineage: &Lineage, generation: u64, k: usize) -> &'static str {
        match memo.begin(lineage, generation, k, None) {
            Lookup::Ready(_, outcome) => outcome.as_str(),
            Lookup::Joined(_) => "coalesced",
            Lookup::Leader(_) => "miss",
        }
    }

    /// The warm state a leader on `generation` would repair: its order
    /// and touched frontier.
    fn warm_of(
        memo: &Memo,
        lineage: &Lineage,
        generation: u64,
    ) -> Option<(Vec<ItemId>, Vec<ItemId>)> {
        let Lookup::Leader(leader) = memo.begin(lineage, generation, 99, None) else {
            panic!("k = 99 is never ready");
        };
        leader
            .warm()
            .map(|(state, touched)| (state.order().to_vec(), touched.to_vec()))
    }

    #[test]
    fn exact_and_prefix_hits() {
        let memo = Memo::new(8);
        let lazy = lineage("lazy");
        put(&memo, &lazy, 1, report(10));

        let Lookup::Ready(hit, CacheOutcome::Exact) = memo.begin(&lazy, 1, 10, None) else {
            panic!("same key must hit exactly");
        };
        assert_eq!(hit.k(), 10);

        // Smaller budget rides the stored trajectory.
        let Lookup::Ready(donor, CacheOutcome::Prefix) = memo.begin(&lazy, 1, 4, None) else {
            panic!("smaller budget must ride the prefix");
        };
        let (order, cover) = donor.prefix(4).expect("prefix in range");
        assert_eq!(order.len(), 4);
        assert!(cover > 0.0);

        // Larger budget, other generation, other solver: all misses.
        assert_eq!(outcome(&memo, &lazy, 1, 11), "miss");
        assert_eq!(outcome(&memo, &lazy, 2, 4), "miss");
        assert_eq!(outcome(&memo, &lineage("greedy"), 1, 4), "miss");
        assert_eq!(memo.stats().in_flight, 0, "dropped leaders leave nothing");
    }

    #[test]
    fn non_prefix_solvers_never_reuse_trajectories() {
        let memo = Memo::new(8);
        let stochastic = lineage("stochastic");
        put(&memo, &stochastic, 1, report(10));
        assert_eq!(
            outcome(&memo, &stochastic, 1, 4),
            "miss",
            "stochastic output depends on k; truncation would be wrong"
        );
    }

    #[test]
    fn lru_evicts_the_coldest_report_of_any_lineage() {
        let memo = Memo::new(2);
        let lazy = lineage("lazy");
        put(&memo, &lazy, 1, report(1));
        put(&memo, &lazy, 1, report(2));
        // Touch k=1 so k=2 is the LRU victim.
        assert_eq!(outcome(&memo, &lazy, 1, 1), "hit");
        put(&memo, &lineage("greedy"), 1, report(3));
        let stats = memo.stats();
        assert_eq!((stats.reports, stats.evictions), (2, 1));
        assert_eq!(outcome(&memo, &lazy, 1, 1), "hit");
        assert_eq!(outcome(&memo, &lazy, 1, 2), "miss");
    }

    #[test]
    fn a_swap_drops_older_generations() {
        let (_, ids) = pcover_graph::examples::figure1_ids();
        let memo = Memo::new(8);
        let lazy = lineage("lazy");
        put(&memo, &lazy, 1, report(5));
        put(&memo, &lazy, 2, report(5));
        assert_eq!(memo.record_swap(1, 2, &[ids.a]), 0);
        assert_eq!(outcome(&memo, &lazy, 1, 5), "miss");
        assert_eq!(outcome(&memo, &lazy, 2, 5), "hit");
    }

    #[test]
    fn identity_swap_carries_reports_and_defers_to_existing_targets() {
        let memo = Memo::new(8);
        let lazy = lineage("lazy");
        put(&memo, &lazy, 1, report(3));
        put(&memo, &lazy, 1, report(5));
        put(&memo, &lazy, 2, report(5));

        // k=5 collides with the report already solved on generation 2 and
        // is dropped; k=3 moves.
        assert_eq!(memo.record_swap(1, 2, &[]), 1);
        assert_eq!(memo.stats().reports, 2);
        assert_eq!(outcome(&memo, &lazy, 1, 3), "miss");
        assert_eq!(outcome(&memo, &lazy, 2, 3), "hit");
        assert_eq!(outcome(&memo, &lazy, 2, 5), "hit");

        // A degenerate same-generation swap moves nothing.
        assert_eq!(memo.record_swap(2, 2, &[]), 0);
        assert_eq!(memo.stats().reports, 2);
    }

    #[test]
    fn publish_keeps_the_largest_budget_per_warm_capable_lineage() {
        let (g, ids) = pcover_graph::examples::figure1_ids();
        let memo = Memo::new(8);
        let delta = lineage("delta");
        // A k=3 solve that lands after the k=4 one: a shorter state.
        let Lookup::Leader(racing) = memo.begin(&delta, 1, 3, None) else {
            panic!("k=3 is not ready");
        };
        put_warm(&memo, &delta, 1, 2);
        let largest = put_warm(&memo, &delta, 1, 4);
        let (late, state) = warm_solve(3);
        racing.publish(Ok(late), state);
        put_warm(&memo, &lineage("lazy"), 1, 5); // prefix chain, no warm start
        put_warm(&memo, &lineage("stochastic"), 1, 5); // neither
        put(&memo, &delta, 1, report(5)); // a report without a state

        memo.record_swap(1, 2, &[ids.a]);
        assert_eq!(memo.stats().warm_states, 1);
        let Lookup::Leader(leader) = memo.begin(&delta, 2, 6, None) else {
            panic!("k=6 is not ready");
        };
        let (state, touched) = leader.warm().expect("the published state");
        assert_eq!(state.order(), largest, "largest budget wins the lineage");
        assert_eq!(touched, &[ids.a]);
        assert!(state.accepts(Variant::Normalized, &g));
        assert_eq!(warm_of(&memo, &lineage("lazy"), 2), None);
    }

    #[test]
    fn warm_states_accumulate_touched_across_chained_swaps() {
        let (_, ids) = pcover_graph::examples::figure1_ids();
        let memo = Memo::new(4);
        let delta = lineage("delta");
        assert_eq!(memo.stats().warm_states, 0);

        let order = put_warm(&memo, &delta, 1, 1);
        assert_eq!(order, [ids.b]);
        memo.record_swap(1, 2, &[ids.a]);
        assert_eq!(warm_of(&memo, &delta, 2), Some((vec![ids.b], vec![ids.a])));

        // The next swap folds its frontier into the surviving state.
        memo.record_swap(2, 3, &[ids.c, ids.a]);
        assert_eq!(
            warm_of(&memo, &delta, 3),
            Some((vec![ids.b], vec![ids.a, ids.c])),
            "deduped union of both deltas"
        );

        // A query pinned ahead of the recorded swaps must solve cold: the
        // accumulated touched set cannot vouch for deltas it has not seen.
        assert_eq!(warm_of(&memo, &delta, 4), None);
    }

    #[test]
    fn warm_states_drop_on_gaps_and_late_swaps() {
        let (_, ids) = pcover_graph::examples::figure1_ids();
        let memo = Memo::new(4);
        let (first, second, third) = (
            lineage_seeded("delta", 1),
            lineage_seeded("delta", 2),
            lineage_seeded("delta", 3),
        );
        put_warm(&memo, &first, 1, 1);
        memo.record_swap(1, 2, &[ids.a]);

        // Gap: the memo never saw 2 → 5, so the stale state is cleared and
        // only the one solved on 5 survives.
        let fresh = put_warm(&memo, &second, 5, 2);
        memo.record_swap(5, 6, &[ids.d]);
        assert_eq!(warm_of(&memo, &first, 6), None);
        assert_eq!(warm_of(&memo, &second, 6), Some((fresh, vec![ids.d])));

        // States never serve snapshots older than their solve's generation.
        assert_eq!(warm_of(&memo, &second, 4), None);

        // A solve of a generation the memo has moved past installs nothing,
        // and late out-of-order bookkeeping changes nothing.
        put_warm(&memo, &third, 2, 3);
        memo.record_swap(2, 3, &[ids.a]);
        assert_eq!(warm_of(&memo, &third, 3), None);
        assert_eq!(memo.stats().warm_states, 1);
    }

    #[test]
    fn warm_states_respect_capacity() {
        let (_, ids) = pcover_graph::examples::figure1_ids();
        let disabled = Memo::new(0);
        put_warm(&disabled, &lineage("delta"), 1, 2);
        disabled.record_swap(1, 2, &[ids.a]);
        assert_eq!(disabled.stats(), MemoStats::default());

        let memo = Memo::new(1);
        let (first, second) = (lineage_seeded("delta", 1), lineage_seeded("delta", 2));
        put_warm(&memo, &first, 1, 2);
        memo.record_swap(1, 2, &[ids.a]);
        put_warm(&memo, &second, 2, 2);
        memo.record_swap(2, 3, &[ids.b]);
        assert_eq!(
            memo.stats().warm_states,
            1,
            "second lineage rejected at capacity"
        );
        assert!(warm_of(&memo, &first, 3).is_some());
        assert_eq!(warm_of(&memo, &second, 3), None);
    }

    #[test]
    fn fingerprint_separates_configs() {
        let a = SolverConfig::default();
        let b = SolverConfig {
            seed: 43,
            ..SolverConfig::default()
        };
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let c = SolverConfig {
            epsilon: Some(0.05),
            ..SolverConfig::default()
        };
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_eq!(fingerprint(&a), fingerprint(&SolverConfig::default()));
    }

    /// The prefix-chain flag is what lets one cached report answer smaller
    /// budgets and every `/minimize`, so each flagged solver must truncate
    /// exactly: `solve(k).prefix(k')` is `solve(k')` bit for bit, in order
    /// and cover, on every variant it supports.
    #[test]
    fn every_prefix_chain_solver_is_registered_and_truncates_exactly() {
        const K: usize = 16;
        let registry = Registry::builtin();
        let flagged: Vec<_> = registry
            .specs()
            .iter()
            .filter(|s| s.caps.prefix_chain)
            .collect();
        let names: Vec<&str> = flagged.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "greedy",
                "greedy-lowmem",
                "lazy",
                "delta",
                "parallel",
                "topk-w",
                "topk-c"
            ],
            "the greedy family and the sorted top-k baselines are the prefix chains"
        );
        let g =
            pcover_datagen::graphgen::generate_graph(&pcover_datagen::graphgen::GraphGenConfig {
                nodes: 300,
                avg_out_degree: 5,
                popularity_exponent: 1.0,
                locality: 12,
                normalized: true,
                seed: 11,
            })
            .expect("generated graph");
        for spec in flagged {
            let name = spec.name;
            for variant in [Variant::Independent, Variant::Normalized] {
                if !spec.caps.variants.supports(variant) {
                    continue;
                }
                let solve = |k| {
                    let mut ctx = SolveCtx::new(SolverConfig::default());
                    spec.solve(variant, &g, k, &mut ctx)
                        .unwrap_or_else(|e| panic!("{name} {variant:?} k={k}: {e}"))
                };
                let full = solve(K);
                for k in 1..=K {
                    let direct = solve(k);
                    let (order, cover) = full.prefix(k).expect("k within the budget");
                    assert_eq!(
                        order,
                        direct.order.as_slice(),
                        "{name} {variant:?} order at k={k}"
                    );
                    assert_eq!(
                        cover.to_bits(),
                        direct.cover.to_bits(),
                        "{name} {variant:?} cover at k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn leader_publishes_and_waiters_join() {
        let memo = Arc::new(Memo::new(8));
        let lazy = lineage("lazy");
        let Lookup::Leader(leader) = memo.begin(&lazy, 1, 7, None) else {
            panic!("first arrival must lead");
        };
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let memo = Arc::clone(&memo);
                std::thread::spawn(move || match memo.begin(&lazy, 1, 7, None) {
                    Lookup::Joined(result) => result.expect("published report").k(),
                    // Arrived after the publish: the stored report answers.
                    Lookup::Ready(report, CacheOutcome::Exact) => report.k(),
                    _ => panic!("a second leader for a key being solved"),
                })
            })
            .collect();
        // Give the waiters a moment to park (correctness does not depend
        // on it — late arrivals hit the stored report).
        std::thread::sleep(std::time::Duration::from_millis(20));
        leader.publish(Ok(report(7)), None);
        for w in waiters {
            assert_eq!(w.join().expect("waiter"), 7);
        }
        assert_eq!(memo.stats().in_flight, 0, "flights must drain to empty");
    }

    #[test]
    fn dropped_leader_aborts_instead_of_stranding_waiters() {
        let memo = Arc::new(Memo::new(8));
        let lazy = lineage("lazy");
        let Lookup::Leader(leader) = memo.begin(&lazy, 1, 1, None) else {
            panic!("leader");
        };
        let waiter = {
            let memo = Arc::clone(&memo);
            std::thread::spawn(move || matches!(memo.begin(&lazy, 1, 1, None), Lookup::Leader(_)))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(leader); // abort
        assert!(
            waiter.join().expect("waiter"),
            "waiter must solve itself, never receive a value"
        );
        assert_eq!(memo.stats(), MemoStats::default());
    }

    #[test]
    fn failures_reach_waiters_but_are_never_stored() {
        let memo = Memo::new(8);
        let lazy = lineage("lazy");
        let Lookup::Leader(leader) = memo.begin(&lazy, 1, 3, None) else {
            panic!("leader");
        };
        leader.publish(Err((Status::DeadlineExceeded, "late".to_owned())), None);
        assert_eq!(outcome(&memo, &lazy, 1, 3), "miss");
        assert_eq!(memo.stats(), MemoStats::default());
    }

    #[test]
    fn closed_memo_solves_everyone_outside_coalescing() {
        let memo = Memo::new(8);
        let lazy = lineage("lazy");
        memo.close();
        let Lookup::Leader(leader) = memo.begin(&lazy, 1, 5, None) else {
            panic!("a closed memo has nothing to join");
        };
        assert_eq!(memo.stats().in_flight, 0, "closed memo registers no flight");
        memo.close(); // idempotent
        leader.publish(Ok(report(5)), None);
        assert_eq!(
            outcome(&memo, &lazy, 1, 5),
            "hit",
            "ready reports still answer"
        );
    }

    #[test]
    fn distinct_keys_and_deadlines_fly_independently() {
        let memo = Memo::new(8);
        let lazy = lineage("lazy");
        let Lookup::Leader(a) = memo.begin(&lazy, 1, 1, None) else {
            panic!("a leads");
        };
        let Lookup::Leader(b) = memo.begin(&lazy, 1, 2, None) else {
            panic!("b leads independently");
        };
        let Lookup::Leader(c) = memo.begin(&lazy, 1, 1, Some(50)) else {
            panic!("a deadline request never joins a no-deadline flight");
        };
        assert_eq!(memo.stats().in_flight, 3);
        a.publish(Ok(report(1)), None);
        b.publish(Ok(report(2)), None);
        c.publish(Ok(report(1)), None);
        assert_eq!(memo.stats().in_flight, 0);
    }

    #[test]
    fn sequential_flights_on_one_key_each_lead_with_nothing_stored() {
        let memo = Memo::new(0);
        let lazy = lineage("lazy");
        for round in 0..3 {
            let Lookup::Leader(leader) = memo.begin(&lazy, 1, 9, None) else {
                panic!("round {round} must lead after the previous drained");
            };
            leader.publish(Ok(report(9)), None);
        }
        assert_eq!(memo.stats(), MemoStats::default());
    }
}
