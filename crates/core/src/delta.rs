//! Delta greedy — Algorithm 1 with dirty-set gain maintenance.
//!
//! Plain greedy recomputes every non-retained candidate's gain each round,
//! `O(nkD)` total, even though retaining `v` leaves almost all gains
//! untouched. `AddNode(v)` (Algorithm 3/5) changes `I` for exactly
//! `{v} ∪ in(v)` (non-retained in-neighbors), and a candidate `c`'s gain
//! (Algorithm 2/4) reads only `I[c]`, the membership of its in-neighbors,
//! and `I[u]` for `u ∈ in(c)`. So after retaining `v` the only candidates
//! whose gain can change are
//!
//! * the nodes whose own `I` changed — `{v} ∪ in(v)` — and
//! * the out-neighbors of those nodes (`c` reads `I[u]` iff `c ∈ out(u)`,
//!   by CSR row symmetry),
//!
//! both walked directly off the CSR out-rows. This solver caches the gain
//! array, marks exactly that dirty set after each selection, and recomputes
//! only dirty entries at the next round: `O(n)` evaluations for the first
//! round, then `O(|dirty|)` per round instead of `O(n)` — on sparse graphs
//! a per-round cost of roughly `D · d_out` rather than `n`.
//!
//! Selection reads the root of a tournament (winner) tree over the cached
//! gains instead of scanning them: building it costs `O(n)` (round 0, or
//! any refresh touching so many leaves that `|dirty| · log₂ n ≥ n`), and
//! otherwise each refreshed leaf replays its `O(log n)` path to the root,
//! so a later round costs `O(|dirty| · log n)` in all, not `O(n)`.
//!
//! A cached (clean) gain is **bit-identical** to what plain greedy would
//! recompute — same `I`, same membership, same weights, same arithmetic —
//! and every tournament is decided by the audited
//! [`float::improves_argmax`](crate::float::improves_argmax) tie-break, a
//! strict total order on `(gain, id)`, so the root is exactly the node a
//! full scan would pick and the retained set, cover, and trajectory are
//! bit-identical to [`greedy::solve`](crate::greedy::solve) for both IPC
//! and NPC. The determinism grid asserts this.
//!
//! The warm repair ([`resolve_warm`]) runs the cold solve's round loop
//! itself; only the starting cache differs (the previous generation's
//! round-0 gains and tree, with the delta's frontier marked dirty, instead
//! of an all-dirty cache). After round 0's refresh the cache holds every
//! gain against the empty set, bitwise, and the tree over them, whichever
//! way it started: that is the next generation's [`WarmState`], which
//! [`solve_from`] hands back when asked.

// lint: allow-file(no-index) — per-item arrays (I-values, selection masks, gains) are sized to
// node_count and indexed by ItemId::index(); bounds-checked [] in the hot greedy
// loops is deliberate and in bounds by construction.
use std::time::Instant;

use pcover_graph::{ItemId, PreferenceGraph};

use crate::cover::CoverState;
use crate::greedy::finish;
use crate::report::{Algorithm, SolveReport};
use crate::solver::{RoundStats, SolveCtx, Solver, SolverCaps, SolverSpec};
use crate::variant::{CoverModel, Variant};
use crate::{Independent, Normalized, SolveError};

/// The empty tournament slot: a retained leaf, or a subtree of them.
/// Node ids stay below `u32::MAX` (an `ItemId` is a `u32` index, so `n`
/// would need `2³²` nodes to reach it).
const EMPTY: ItemId = ItemId::new(u32::MAX);

/// The cached-gain bookkeeping of the round loop: per-node gains, a
/// tournament tree over them, a dedup flag array, and the dirty work list.
struct GainCache {
    gains: Vec<f64>,
    /// The winner tree: leaf slot `n + v` holds `v` (or [`EMPTY`] once `v`
    /// is retained), and each internal slot `s` in `1..n` holds the winner
    /// of slots `2s` and `2s + 1`, so slot 1 is the argmax. Leaves of dirty
    /// nodes may be out of date until [`Self::refresh`].
    tree: Vec<ItemId>,
    is_dirty: Vec<bool>,
    dirty: Vec<ItemId>,
}

impl GainCache {
    /// Everything starts dirty: the first round is a full scan, exactly
    /// like plain greedy's first round, and builds the tree.
    fn new(g: &PreferenceGraph) -> Self {
        let n = g.node_count();
        GainCache {
            gains: vec![0.0; n],
            tree: vec![EMPTY; 2 * n],
            is_dirty: vec![true; n],
            dirty: g.node_ids().collect(),
        }
    }

    /// A clean cache over round-0 `gains` and their `tree` (every node
    /// live).
    fn seeded(gains: Vec<f64>, tree: Vec<ItemId>) -> Self {
        let n = gains.len();
        GainCache {
            gains,
            tree,
            is_dirty: vec![false; n],
            dirty: Vec::new(),
        }
    }

    /// Marks `x` dirty, once.
    fn mark(&mut self, x: ItemId) {
        if !self.is_dirty[x.index()] {
            self.is_dirty[x.index()] = true;
            self.dirty.push(x);
        }
    }

    /// Marks the nodes whose gain can change when `chosen` is retained.
    /// Must be called **before** `add_node(chosen)` so "non-retained
    /// in-neighbor" is judged against the pre-add state (the set is the
    /// same either way — `chosen` itself is handled explicitly — but the
    /// precondition keeps the derivation honest).
    fn mark_stale_after_select(&mut self, g: &PreferenceGraph, state: &CoverState, chosen: ItemId) {
        // I[chosen] changes (and its membership flips, which affects every
        // candidate that reads it — exactly out(chosen)).
        let csr = g.csr();
        self.mark(chosen);
        for (t, _) in csr.out_edges(chosen) {
            self.mark(t);
        }
        // I[u] changes for every non-retained in-neighbor u of chosen, so u
        // itself and every candidate reading I[u] — out(u) — go stale.
        for (u, _) in csr.in_edges(chosen) {
            if u == chosen || state.contains(u) {
                continue;
            }
            self.mark(u);
            for (t, _) in csr.out_edges(u) {
                self.mark(t);
            }
        }
    }

    /// Recomputes every dirty gain and clears the dirty set: each dirty
    /// leaf becomes its node again (or [`EMPTY`] once retained), then the
    /// tree is rebuilt bottom-up when `|dirty| · log₂ n ≥ n` (`log₂` taken
    /// as at least 1, so an all-dirty refresh always rebuilds), or else
    /// each dirty leaf's path to the root is replayed. A later leaf's replay
    /// redoes every slot it shares with an earlier one, so the settled tree
    /// is the same as if all gains were written first. Returns the number
    /// of gain evaluations performed (retained nodes are skipped and not
    /// counted, matching plain greedy's accounting).
    fn refresh<M: CoverModel>(&mut self, g: &PreferenceGraph, state: &CoverState) -> u64 {
        let n = self.gains.len();
        let rebuild = self.dirty.len() * n.max(2).ilog2() as usize >= n;
        let mut evals = 0u64;
        let mut dirty = std::mem::take(&mut self.dirty);
        for &v in &dirty {
            self.is_dirty[v.index()] = false;
            let leaf = n + v.index();
            if state.contains(v) {
                self.tree[leaf] = EMPTY;
            } else {
                self.gains[v.index()] = state.gain::<M>(g, v);
                evals += 1;
                self.tree[leaf] = v;
            }
            if !rebuild {
                let mut slot = leaf / 2;
                while slot > 0 {
                    self.tree[slot] = self.winner(2 * slot);
                    slot /= 2;
                }
            }
        }
        if rebuild {
            self.rebuild();
        }
        dirty.clear();
        self.dirty = dirty;
        evals
    }

    /// Recomputes every internal slot, children before parents: `O(n)`.
    fn rebuild(&mut self) {
        for slot in (1..self.gains.len()).rev() {
            self.tree[slot] = self.winner(2 * slot);
        }
    }

    /// The winner of sibling slots `left` and `left + 1` under the audited
    /// argmax order; an empty slot loses to any node.
    fn winner(&self, left: usize) -> ItemId {
        let (a, b) = (self.tree[left], self.tree[left + 1]);
        if a == EMPTY {
            return b;
        }
        if b == EMPTY {
            return a;
        }
        let incumbent = Some((self.gains[a.index()], a));
        if crate::float::improves_argmax(self.gains[b.index()], b, incumbent) {
            b
        } else {
            a
        }
    }

    /// The argmax over the non-retained cached gains, read off the root (no
    /// gain evaluations: clean entries are bit-identical to a fresh
    /// recomputation). Only meaningful right after a refresh.
    fn best(&self) -> Option<(f64, ItemId)> {
        self.tree
            .get(1)
            .filter(|&&v| v != EMPTY)
            .map(|&v| (self.gains[v.index()], v))
    }
}

/// The running solve of [`run_rounds`]: the cover state, the trajectory
/// so far, the evaluation count, and how many leading rounds re-selected
/// the previous generation's pick.
struct Rounds<'p> {
    state: CoverState,
    trajectory: Vec<f64>,
    gain_evaluations: u64,
    rounds_reused: usize,
    prior: &'p [ItemId],
}

impl Rounds<'_> {
    /// Round `iter`: refresh, root read, stale marking and `AddNode`.
    fn round<M: CoverModel>(
        &mut self,
        g: &PreferenceGraph,
        cache: &mut GainCache,
        iter: usize,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<(), SolveError> {
        ctx.check_cancelled()?;
        let round_evals = cache.refresh::<M>(g, &self.state);
        self.gain_evaluations += round_evals;
        let Some((gain, chosen)) = cache.best() else {
            return Err(SolveError::internal(
                "greedy round found no candidate despite k <= n",
            ));
        };
        // Reuse is counted while the prior prefix is intact.
        if self.rounds_reused == iter && self.prior.get(iter) == Some(&chosen) {
            self.rounds_reused += 1;
        }
        cache.mark_stale_after_select(g, &self.state, chosen);
        self.state.add_node::<M>(g, chosen);
        self.trajectory.push(self.state.cover());
        ctx.emit_select(iter, chosen, gain, self.state.cover());
        ctx.emit_round_stats(RoundStats {
            iter,
            gain_evaluations: round_evals,
        });
        Ok(())
    }
}

/// The round loop of the cold solve and the warm repair: `k` rounds of
/// refresh, root read, stale marking and `AddNode`, starting from `cache`
/// (all dirty when cold, seeded and marked when repairing). Cancellation is
/// polled before every round. Also counts how many leading rounds picked
/// exactly `prior`'s node at their position (`prior` is the previous
/// generation's order, empty when cold) and, when `hand_back` is set and
/// `k > 0`, hands back the cache's gains and tree right after round 0 as
/// the next generation's state. Round 0 only marks after its refresh, so
/// the copy is taken once, after it, outside the per-round path. The
/// report's `elapsed` runs from `started`, so it includes the caller's
/// seeding. The caller checks `k <= n`.
fn run_rounds<M: CoverModel>(
    g: &PreferenceGraph,
    k: usize,
    mut cache: GainCache,
    prior: &[ItemId],
    hand_back: bool,
    started: Instant,
    ctx: &mut SolveCtx<'_>,
) -> Result<WarmOutcome, SolveError> {
    let mut rounds = Rounds {
        state: CoverState::new(g.node_count()),
        trajectory: Vec::with_capacity(k),
        gain_evaluations: 0,
        rounds_reused: 0,
        prior,
    };
    let mut round0 = None;
    if k > 0 {
        rounds.round::<M>(g, &mut cache, 0, ctx)?;
        if hand_back {
            round0 = Some((cache.gains.clone(), cache.tree.clone()));
        }
    }
    for iter in 1..k {
        rounds.round::<M>(g, &mut cache, iter, ctx)?;
    }

    let report = finish::<M>(
        Algorithm::DeltaGreedy,
        rounds.state,
        rounds.trajectory,
        started,
        rounds.gain_evaluations,
    );
    let next = round0.map(|(gains, tree)| WarmState {
        variant: M::VARIANT,
        order: report.order.clone(),
        gains,
        tree,
        node_weights: g.node_weights().to_vec(),
    });
    Ok(WarmOutcome {
        report,
        rounds_reused: rounds.rounds_reused,
        rounds_repaired: k - rounds.rounds_reused,
        next,
    })
}

/// Runs delta greedy for budget `k`. Bit-identical output to
/// [`greedy::solve`](crate::greedy::solve), strictly fewer gain
/// evaluations whenever some round leaves a candidate clean.
///
/// ```
/// use pcover_core::{delta, greedy, Normalized};
/// use pcover_graph::examples::figure1;
///
/// let g = figure1();
/// let d = delta::solve::<Normalized>(&g, 2).unwrap();
/// let p = greedy::solve::<Normalized>(&g, 2).unwrap();
/// assert_eq!(d.order, p.order);
/// assert_eq!(d.cover.to_bits(), p.cover.to_bits());
/// ```
///
/// # Errors
///
/// [`SolveError::KTooLarge`] if `k > n`.
pub fn solve<M: CoverModel>(g: &PreferenceGraph, k: usize) -> Result<SolveReport, SolveError> {
    solve_with::<M>(g, k, &mut SolveCtx::default())
}

/// [`solve`] with an execution context: observers installed on `ctx` see
/// each selection live; cancellation is polled every round.
///
/// # Errors
///
/// As [`solve`], plus [`SolveError::Cancelled`] when the observer signals.
pub fn solve_with<M: CoverModel>(
    g: &PreferenceGraph,
    k: usize,
    ctx: &mut SolveCtx<'_>,
) -> Result<SolveReport, SolveError> {
    solve_from::<M>(g, k, None, false, ctx).map(|out| out.report)
}

/// Delta greedy as a registry [`Solver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaGreedy;

impl Solver for DeltaGreedy {
    fn solve<M: CoverModel>(
        &self,
        g: &PreferenceGraph,
        k: usize,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveReport, SolveError> {
        solve_with::<M>(g, k, ctx)
    }
}

/// The registry entry for [`DeltaGreedy`]; warm-capable via
/// [`resolve_warm`].
pub fn spec() -> SolverSpec {
    SolverSpec::new(
        "delta",
        Algorithm::DeltaGreedy,
        "Delta greedy: dirty-set gain cache + tournament-tree argmax, bit-identical to greedy, O(n + k·dirty·log n)",
        SolverCaps {
            prefix_chain: true,
            ..SolverCaps::default()
        },
        |v, g, k, ctx| DeltaGreedy.dispatch(v, g, k, ctx),
    )
    .with_warm(|v, g, k, from, hand_back, ctx| match v {
        Variant::Independent => solve_from::<Independent>(g, k, from, hand_back, ctx),
        Variant::Normalized => solve_from::<Normalized>(g, k, from, hand_back, ctx),
    })
}

/// The solver state one snapshot generation hands the next: the retained
/// order it produced, its round-0 gain array and the tournament tree over
/// it, and the node-weight vector those gains were computed under.
///
/// Round-0 gains (gains against the empty set, `I ≡ 0`) depend only on the
/// graph and the [`Variant`] — not on any solve order — so a single state
/// is valid for every budget `k`. A solve hands its state back through
/// [`solve_from`] (the serve leader keeps it); [`Self::capture`] computes
/// the same state from scratch. [`resolve_warm`] repairs it against the
/// post-delta graph instead of re-evaluating all `n` candidates, seeding
/// its cache by copying the gains and the tree.
#[derive(Clone, Debug)]
pub struct WarmState {
    variant: Variant,
    order: Vec<ItemId>,
    gains: Vec<f64>,
    /// The winner tree over `gains`, laid out as [`GainCache`]'s.
    tree: Vec<ItemId>,
    node_weights: Vec<f64>,
}

impl WarmState {
    /// Captures a warm state from `g`: round-0 gains for every node under
    /// `M` and the tree over them (a cold round 0's refresh), the current
    /// weight vector, and the previous solution `order` (used only to count
    /// reused vs repaired rounds — correctness never depends on it). Costs
    /// `O(n + m)` gain work.
    pub fn capture<M: CoverModel>(g: &PreferenceGraph, order: &[ItemId]) -> Self {
        let mut cache = GainCache::new(g);
        cache.refresh::<M>(g, &CoverState::new(g.node_count()));
        WarmState {
            variant: M::VARIANT,
            order: order.to_vec(),
            gains: cache.gains,
            tree: cache.tree,
            node_weights: g.node_weights().to_vec(),
        }
    }

    /// [`Self::capture`] with the variant resolved at runtime.
    pub fn capture_variant(variant: Variant, g: &PreferenceGraph, order: &[ItemId]) -> Self {
        match variant {
            Variant::Independent => Self::capture::<Independent>(g, order),
            Variant::Normalized => Self::capture::<Normalized>(g, order),
        }
    }

    /// Whether this state can warm-start a solve of `g` under `variant`:
    /// same variant, same node count (a delta that added nodes invalidates
    /// the dense gain array — warm start is declined, not repaired).
    pub fn accepts(&self, variant: Variant, g: &PreferenceGraph) -> bool {
        let n = g.node_count();
        // lint: allow(float-eq) — compares vector lengths against the node count, not float values
        self.variant == variant && self.gains.len() == n && self.node_weights.len() == n
    }

    /// The variant the state was captured under.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The previous generation's retained order.
    pub fn order(&self) -> &[ItemId] {
        &self.order
    }
}

/// Bitwise: same variant, order and tree, and the same bits in every gain
/// and weight.
impl PartialEq for WarmState {
    fn eq(&self, other: &Self) -> bool {
        let bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.variant == other.variant
            && self.order == other.order
            && self.tree == other.tree
            && bits(&self.gains, &other.gains)
            && bits(&self.node_weights, &other.node_weights)
    }
}

/// A warm re-solve result: the (bit-identical-to-cold) report plus how much
/// of the previous solution survived.
#[derive(Clone, Debug)]
pub struct WarmOutcome {
    /// The solve report — order, cover, and trajectory bit-identical to a
    /// cold delta-greedy solve on the same graph.
    pub report: SolveReport,
    /// Leading positions where the audited argmax re-selected exactly the
    /// previous generation's pick (counted while the prefix is intact).
    pub rounds_reused: usize,
    /// Rounds selected fresh: `k - rounds_reused`.
    pub rounds_repaired: usize,
    /// The state this solve hands the next generation: its round-0 gains
    /// and tree on the solved graph, that graph's weights and this
    /// report's order — what [`WarmState::capture`] would compute. Set
    /// only when [`solve_from`] is asked to hand it back and `k > 0`.
    pub next: Option<WarmState>,
}

/// Warm-start re-solve: repairs `warm` (captured on the pre-delta graph)
/// against the post-delta graph `g`, recomputing gains only for the dirty
/// frontier. [`solve_from`] with `warm` and `touched`, handing nothing
/// back.
///
/// The dirty set is `touched` (the delta's
/// [`touched_nodes`](pcover_graph::delta::GraphDelta::touched_nodes)
/// frontier) plus every node whose weight drifted bitwise since capture —
/// a renormalizing delta perturbs *all* weights, which this check absorbs
/// without any assumption about the delta's shape — together with the
/// out-rows of drifted nodes (a candidate reads the weight of each
/// in-neighbor). Every clean cached gain is then bitwise what a cold
/// round-0 scan would recompute, and the rounds run through the cold
/// solve's own loop, so the retained order, cover, and trajectory are
/// bit-identical to the cold solve's. The stored order only counts reuse:
/// a round is reused while it re-selects the previous pick at its position.
/// `gain_evaluations` counts only true recomputations: `O(|dirty|)` in
/// round 0 instead of `O(n)`, identical to cold delta-greedy afterwards.
/// Seeding copies the gains and the tree and scans the weights for drift,
/// `O(n)` without a gain evaluation; round 0's refresh then replays each
/// dirty leaf's path, and each round costs `O(|dirty| · log n)`.
///
/// # Errors
///
/// [`SolveError::KTooLarge`] if `k > n`; [`SolveError::Cancelled`] when the
/// observer signals; an internal error when `warm` does not
/// [`accept`](WarmState::accepts) `g` under `M` — callers gate on `accepts`
/// and fall back to a cold solve.
pub fn resolve_warm<M: CoverModel>(
    g: &PreferenceGraph,
    k: usize,
    touched: &[ItemId],
    warm: &WarmState,
    ctx: &mut SolveCtx<'_>,
) -> Result<WarmOutcome, SolveError> {
    solve_from::<M>(g, k, Some((warm, touched)), false, ctx)
}

/// The one entry of the cold solve and the warm repair: runs delta greedy
/// on `g` from `from` — a previous generation's state and the touched
/// frontier of every delta since, repaired as [`resolve_warm`] describes —
/// or cold when `from` is `None`, and, when `hand_back` is set, returns in
/// [`WarmOutcome::next`] the state this solve leaves for the next
/// generation. That state is a copy of the round loop's cache right after
/// round 0 (`O(n)`, taken once), so only a caller that keeps it should ask.
/// A cold run reuses no round.
///
/// # Errors
///
/// As [`resolve_warm`]; a `None` start never fails on the state.
pub fn solve_from<M: CoverModel>(
    g: &PreferenceGraph,
    k: usize,
    from: Option<(&WarmState, &[ItemId])>,
    hand_back: bool,
    ctx: &mut SolveCtx<'_>,
) -> Result<WarmOutcome, SolveError> {
    let started = Instant::now();
    let n = g.node_count();
    if k > n {
        return Err(SolveError::KTooLarge { k, n });
    }
    let (cache, prior) = match from {
        None => (GainCache::new(g), &[][..]),
        Some((warm, touched)) => (seed(g, M::VARIANT, warm, touched)?, warm.order.as_slice()),
    };
    run_rounds::<M>(g, k, cache, prior, hand_back, started, ctx)
}

/// The warm repair's starting cache: `warm`'s gains and tree, with
/// `touched` and every node whose weight drifted bitwise (plus its
/// out-row) marked dirty.
fn seed(
    g: &PreferenceGraph,
    variant: Variant,
    warm: &WarmState,
    touched: &[ItemId],
) -> Result<GainCache, SolveError> {
    if !warm.accepts(variant, g) {
        return Err(SolveError::internal(
            "warm state does not match the requested variant and graph shape",
        ));
    }
    let n = g.node_count();
    let mut cache = GainCache::seeded(warm.gains.clone(), warm.tree.clone());
    for &v in touched {
        if v.index() < n {
            cache.mark(v);
        }
    }
    let csr = g.csr();
    for v in g.node_ids() {
        if warm.node_weights[v.index()].to_bits() != csr.node_weight(v).to_bits() {
            cache.mark(v);
            for (t, _) in csr.out_edges(v) {
                cache.mark(t);
            }
        }
    }
    Ok(cache)
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
    fn figure1_matches_plain_greedy_bitwise() {
        let (g, ids) = figure1_ids();
        let d = solve::<Normalized>(&g, 2).unwrap();
        let p = greedy::solve::<Normalized>(&g, 2).unwrap();
        assert_eq!(d.order, vec![ids.b, ids.d]);
        assert_eq!(d.order, p.order);
        assert_eq!(d.cover.to_bits(), p.cover.to_bits());
        for (a, b) in d.trajectory.iter().zip(&p.trajectory) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn matches_plain_greedy_on_random_graphs() {
        for seed in 0..3 {
            let g = random_graph(50, seed);
            for k in [0, 1, 5, 25, 50] {
                let p = greedy::solve::<Independent>(&g, k).unwrap();
                let d = solve::<Independent>(&g, k).unwrap();
                assert_eq!(d.order, p.order, "seed {seed} k {k}");
                assert_eq!(d.cover.to_bits(), p.cover.to_bits(), "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn evaluates_fewer_gains_than_plain_greedy() {
        // Sparse graph: after round one, only the selected node's
        // neighborhood goes stale, so delta does far fewer evaluations.
        let g = random_graph(150, 9);
        for k in [2, 10, 75] {
            let p = greedy::solve::<Normalized>(&g, k).unwrap();
            let d = solve::<Normalized>(&g, k).unwrap();
            assert!(
                d.gain_evaluations < p.gain_evaluations,
                "k {k}: delta {} vs greedy {}",
                d.gain_evaluations,
                p.gain_evaluations
            );
        }
    }

    #[test]
    fn first_round_is_a_full_scan() {
        let (g, _) = figure1_ids();
        // k=1 degenerates to plain greedy: n evaluations, no refresh ever
        // pays off.
        let d = solve::<Normalized>(&g, 1).unwrap();
        assert_eq!(d.gain_evaluations, 5);
    }

    #[test]
    fn k_too_large_rejected() {
        let (g, _) = figure1_ids();
        assert!(matches!(
            solve::<Normalized>(&g, 6),
            Err(SolveError::KTooLarge { k: 6, n: 5 })
        ));
    }

    #[test]
    fn self_loops_stay_inert() {
        let mut b = GraphBuilder::new()
            .allow_self_loops(true)
            .normalize_node_weights(true);
        let x = b.add_node(1.0);
        let y = b.add_node(2.0);
        b.add_edge(x, x, 0.9).unwrap();
        b.add_edge(x, y, 0.5).unwrap();
        let g = b.build().unwrap();
        for k in 0..=2 {
            let p = greedy::solve::<Independent>(&g, k).unwrap();
            let d = solve::<Independent>(&g, k).unwrap();
            assert_eq!(d.order, p.order, "k {k}");
            assert_eq!(d.cover.to_bits(), p.cover.to_bits());
        }
    }

    fn warm_ctx() -> SolveCtx<'static> {
        SolveCtx::default()
    }

    #[test]
    fn warm_resolve_matches_cold_after_edge_delta_with_fewer_evals() {
        use pcover_graph::delta::{apply, Change, GraphDelta};
        let g = random_graph(200, 5);
        let k = 40;
        let base = solve::<Normalized>(&g, k).unwrap();
        let warm = WarmState::capture::<Normalized>(&g, &base.order);

        // Edge-only delta: weights stay bitwise intact, so only the touched
        // frontier goes dirty.
        let (s, t) = {
            let v = ItemId::new(0);
            let (t, _) = g.out_edges(v).next().unwrap();
            (v, t)
        };
        let delta = GraphDelta::new().push(Change::UpsertEdge {
            source: s,
            target: t,
            weight: 0.015_625, // exactly representable
        });
        let g2 = apply(&g, &delta).unwrap();
        let touched = delta.touched_nodes(&g);

        let cold = solve::<Normalized>(&g2, k).unwrap();
        let out = resolve_warm::<Normalized>(&g2, k, &touched, &warm, &mut warm_ctx()).unwrap();
        assert!(out.report.bit_identical_to(&cold));
        assert_eq!(out.rounds_reused + out.rounds_repaired, k);
        assert!(
            out.report.gain_evaluations < cold.gain_evaluations,
            "warm {} evals vs cold {}",
            out.report.gain_evaluations,
            cold.gain_evaluations
        );
    }

    #[test]
    fn warm_resolve_absorbs_renormalizing_delta_via_weight_drift() {
        use pcover_graph::delta::{apply, Change, GraphDelta};
        // A weight change renormalizes *every* node weight; the bitwise
        // drift scan must dirty them all, degrading gracefully to cold-level
        // work while staying bit-identical.
        let g = random_graph(80, 11);
        let k = 20;
        let base = solve::<Independent>(&g, k).unwrap();
        let warm = WarmState::capture::<Independent>(&g, &base.order);
        let delta = GraphDelta::new().push(Change::SetNodeWeight {
            node: ItemId::new(3),
            weight: 40.0,
        });
        let g2 = apply(&g, &delta).unwrap();
        let cold = solve::<Independent>(&g2, k).unwrap();
        let out =
            resolve_warm::<Independent>(&g2, k, &delta.touched_nodes(&g), &warm, &mut warm_ctx())
                .unwrap();
        assert!(out.report.bit_identical_to(&cold));
    }

    #[test]
    fn warm_resolve_is_sound_for_any_stored_order() {
        use pcover_graph::delta::{apply, Change, GraphDelta};
        // The stored order only drives the reuse accounting; a nonsense
        // order must still produce the cold answer, with zero reuse.
        let g = random_graph(60, 7);
        let k = 15usize;
        let garbage: Vec<ItemId> = (40..40 + k).map(ItemId::from_index).collect();
        let warm = WarmState::capture::<Normalized>(&g, &garbage);
        let delta = GraphDelta::new().push(Change::RemoveEdge {
            source: ItemId::new(0),
            target: g.out_edges(ItemId::new(0)).next().unwrap().0,
        });
        let g2 = apply(&g, &delta).unwrap();
        let cold = solve::<Normalized>(&g2, k).unwrap();
        let out =
            resolve_warm::<Normalized>(&g2, k, &delta.touched_nodes(&g), &warm, &mut warm_ctx())
                .unwrap();
        assert!(out.report.bit_identical_to(&cold));
    }

    #[test]
    fn warm_resolve_on_unchanged_graph_reuses_every_round() {
        let g = random_graph(100, 3);
        let k = 25;
        let base = solve::<Normalized>(&g, k).unwrap();
        let warm = WarmState::capture::<Normalized>(&g, &base.order);
        let out = resolve_warm::<Normalized>(&g, k, &[], &warm, &mut warm_ctx()).unwrap();
        assert!(out.report.bit_identical_to(&base));
        assert_eq!(out.rounds_reused, k);
        assert_eq!(out.rounds_repaired, 0);
        // The entire round-0 scan (n evals) is saved.
        assert_eq!(
            out.report.gain_evaluations,
            base.gain_evaluations - g.node_count() as u64
        );
    }

    #[test]
    fn warm_state_gates_variant_and_shape() {
        let g = random_graph(30, 1);
        let warm = WarmState::capture::<Normalized>(&g, &[]);
        assert!(warm.accepts(Variant::Normalized, &g));
        assert!(!warm.accepts(Variant::Independent, &g));
        let bigger = random_graph(31, 1);
        assert!(!warm.accepts(Variant::Normalized, &bigger));
        assert!(resolve_warm::<Independent>(&g, 2, &[], &warm, &mut warm_ctx()).is_err());
    }

    #[test]
    fn handed_back_state_is_the_capture_of_the_solved_graph() {
        use pcover_graph::delta::{apply, Change, GraphDelta};
        let g = random_graph(60, 2);
        let k = 12;
        let cold = solve_from::<Independent>(&g, k, None, true, &mut warm_ctx()).unwrap();
        let state = cold.next.expect("a k > 0 solve hands its state back");
        assert_eq!(
            state,
            WarmState::capture::<Independent>(&g, &cold.report.order)
        );
        assert_eq!(cold.rounds_reused, 0);

        let delta = GraphDelta::new().push(Change::RemoveEdge {
            source: ItemId::new(1),
            target: g.out_edges(ItemId::new(1)).next().unwrap().0,
        });
        let g2 = apply(&g, &delta).unwrap();
        let touched = delta.touched_nodes(&g);
        let warm =
            solve_from::<Independent>(&g2, k, Some((&state, &touched)), true, &mut warm_ctx())
                .unwrap();
        assert!(warm
            .report
            .bit_identical_to(&solve::<Independent>(&g2, k).unwrap()));
        let next = warm.next.expect("the repair hands its state back");
        assert_eq!(
            next,
            WarmState::capture::<Independent>(&g2, &warm.report.order)
        );

        // Nothing is handed back unless asked, nor by a zero-budget solve.
        let plain = resolve_warm::<Independent>(&g2, k, &touched, &state, &mut warm_ctx());
        assert!(plain.unwrap().next.is_none());
        let empty = solve_from::<Independent>(&g2, 0, None, true, &mut warm_ctx()).unwrap();
        assert!(empty.next.is_none());
    }

    #[test]
    fn warm_spec_dispatch_matches_direct_call() {
        let g = random_graph(50, 4);
        let k = 10;
        let base = solve::<Normalized>(&g, k).unwrap();
        let warm = WarmState::capture::<Normalized>(&g, &base.order);
        let s = spec();
        assert!(s.supports_warm_start());
        let out = s
            .solve_warm(Variant::Normalized, &g, k, &[], &warm, &mut warm_ctx())
            .unwrap();
        assert!(out.report.bit_identical_to(&base));
        assert_eq!(out.report.algorithm, Algorithm::DeltaGreedy);
        // Plain greedy has no warm entry point.
        assert!(!crate::greedy::spec().supports_warm_start());
    }

    #[test]
    fn round_stats_report_dirty_counts() {
        use crate::solver::SolverConfig;
        use crate::TraceObserver;
        let g = random_graph(40, 2);
        let mut trace = TraceObserver::new();
        let mut ctx = SolveCtx::with_observer(SolverConfig::default(), &mut trace);
        let d = solve_with::<Normalized>(&g, 5, &mut ctx).unwrap();
        assert_eq!(trace.rounds.len(), 5);
        let total: u64 = trace.rounds.iter().map(|r| r.gain_evaluations).sum();
        assert_eq!(total, d.gain_evaluations);
        // Round 0 is the full scan; later rounds touch only the dirty set.
        assert_eq!(trace.rounds[0].gain_evaluations, 40);
        assert!(trace.rounds[1].gain_evaluations < 40);
    }
}
