//! The cover function `C(·)` — from-scratch evaluation and the incremental
//! `I`-array state shared by all greedy solvers.

// lint: allow-file(no-index) — per-item arrays (I-values, selection masks, gains) are sized to
// node_count and indexed by ItemId::index(); bounds-checked [] in the hot greedy
// loops is deliberate and in bounds by construction.
use pcover_graph::{ItemId, PreferenceGraph};

use crate::variant::CoverModel;

/// Evaluates `C(S)` from scratch per Definitions 2.1 / 2.2.
///
/// `selected` is a mask indexed by `ItemId::index`. Runs in `O(n + m)` and is
/// the oracle the incremental state is tested against.
///
/// # Panics
///
/// Panics if `selected.len() != g.node_count()`.
pub fn cover_value<M: CoverModel>(g: &PreferenceGraph, selected: &[bool]) -> f64 {
    assert_eq!(
        selected.len(),
        g.node_count(),
        "selection mask has wrong length"
    );
    let csr = g.csr();
    let mut c = 0.0;
    for v in g.node_ids() {
        if selected[v.index()] {
            c += csr.node_weight(v);
        } else {
            let matched = M::combine(
                csr.out_edges(v)
                    .filter(|&(u, _)| u != v && selected[u.index()])
                    .map(|(_, w)| w),
            );
            c += csr.node_weight(v) * matched;
        }
    }
    c
}

/// The incremental solver state: the retained set `S`, the paper's array
/// `I` (`I[v]` = probability `v` is requested **and** matched by `S`) and
/// the running cover `C(S) = Σ_v I[v]`.
///
/// [`gain`](Self::gain) is Algorithm 2 / 4 and [`add_node`](Self::add_node)
/// is Algorithm 3 / 5, depending on the [`CoverModel`] the caller
/// instantiates them with. Both cost `O(in_degree(v))`.
#[derive(Clone, Debug)]
pub struct CoverState {
    i: Vec<f64>,
    in_set: Vec<bool>,
    order: Vec<ItemId>,
    cover: f64,
}

impl CoverState {
    /// Creates the empty state (`S = ∅`, `I ≡ 0`) for a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        CoverState {
            // lint: allow(alloc-in-hot-loop) — CoverState construction is the documented O(n) setup cost; local_search rebuilds state per evaluated candidate by design
            i: vec![0.0; n],
            // lint: allow(alloc-in-hot-loop) — same: construction cost, waived with the line above
            in_set: vec![false; n],
            order: Vec::new(),
            cover: 0.0,
        }
    }

    /// Current cover `C(S)`.
    #[inline]
    pub fn cover(&self) -> f64 {
        self.cover
    }

    /// Number of retained items.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no item has been retained yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Whether `v` is retained.
    #[inline]
    pub fn contains(&self, v: ItemId) -> bool {
        self.in_set[v.index()]
    }

    /// Retained items in insertion order.
    #[inline]
    pub fn order(&self) -> &[ItemId] {
        &self.order
    }

    /// The `I` array: per item, the probability it is requested and matched.
    #[inline]
    pub fn item_cover(&self) -> &[f64] {
        &self.i
    }

    /// `I[v]` for one item.
    #[inline]
    pub fn item_cover_of(&self, v: ItemId) -> f64 {
        self.i[v.index()]
    }

    /// Algorithm 2 / 4: the marginal gain to `C(S)` of retaining `v`,
    /// without mutating the state.
    ///
    /// Returns 0 for already-retained nodes.
    pub fn gain<M: CoverModel>(&self, g: &PreferenceGraph, v: ItemId) -> f64 {
        if self.in_set[v.index()] {
            return 0.0;
        }
        let csr = g.csr();
        // Line 1: v itself becomes fully covered.
        let mut gain = csr.node_weight(v) - self.i[v.index()];
        // Lines 2-3: every non-retained in-neighbor u gains coverage.
        for (u, w) in csr.in_edges(v) {
            if u != v && !self.in_set[u.index()] {
                gain += M::marginal(w, csr.node_weight(u), self.i[u.index()]);
            }
        }
        gain
    }

    /// Algorithm 3 / 5: retains `v`, updating `I` and the cover, and
    /// returns the realized gain.
    ///
    /// Adding an already-retained node is a no-op returning 0.
    pub fn add_node<M: CoverModel>(&mut self, g: &PreferenceGraph, v: ItemId) -> f64 {
        if self.in_set[v.index()] {
            return 0.0;
        }
        self.in_set[v.index()] = true;
        self.order.push(v);
        let csr = g.csr();

        // Lines 2-3: v covers itself completely.
        let own = csr.node_weight(v) - self.i[v.index()];
        self.cover += own;
        self.i[v.index()] = csr.node_weight(v);
        let mut gain = own;

        // Lines 4-6: update non-retained in-neighbors.
        for (u, w) in csr.in_edges(v) {
            if u != v && !self.in_set[u.index()] {
                let delta = M::marginal(w, csr.node_weight(u), self.i[u.index()]);
                self.cover += delta;
                self.i[u.index()] += delta;
                gain += delta;
            }
        }
        gain
    }

    /// The retained-set mask, indexed by `ItemId::index`.
    pub fn selection_mask(&self) -> &[bool] {
        &self.in_set
    }

    /// Moves the retained order and the `I` array out of a finished state.
    pub(crate) fn into_parts(self) -> (Vec<ItemId>, Vec<f64>) {
        (self.order, self.i)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable constants
mod tests {
    use pcover_graph::examples::{figure1_ids, figure3_ids};
    use pcover_graph::GraphBuilder;

    use crate::{Independent, Normalized};

    use super::*;

    #[test]
    fn empty_selection_covers_nothing() {
        let (g, _) = figure1_ids();
        let mask = vec![false; g.node_count()];
        assert_eq!(cover_value::<Normalized>(&g, &mask), 0.0);
        assert_eq!(cover_value::<Independent>(&g, &mask), 0.0);
    }

    #[test]
    fn full_selection_covers_everything() {
        let (g, _) = figure1_ids();
        let mask = vec![true; g.node_count()];
        assert!((cover_value::<Normalized>(&g, &mask) - 1.0).abs() < 1e-9);
        assert!((cover_value::<Independent>(&g, &mask) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn figure1_optimal_pair_covers_873() {
        // Example 1.1: retaining {B, D} covers 87.3% in both variants
        // (each non-retained node has exactly one retained alternative, so
        // the variants agree).
        let (g, ids) = figure1_ids();
        let mut mask = vec![false; g.node_count()];
        mask[ids.b.index()] = true;
        mask[ids.d.index()] = true;
        assert!((cover_value::<Normalized>(&g, &mask) - 0.873).abs() < 1e-9);
        assert!((cover_value::<Independent>(&g, &mask) - 0.873).abs() < 1e-9);
    }

    #[test]
    fn figure1_top_sellers_cover_77() {
        // Introduction: the naive top-seller choice {A, B} covers 77%.
        let (g, ids) = figure1_ids();
        let mut mask = vec![false; g.node_count()];
        mask[ids.a.index()] = true;
        mask[ids.b.index()] = true;
        assert!((cover_value::<Normalized>(&g, &mask) - 0.77).abs() < 1e-9);
        assert!((cover_value::<Independent>(&g, &mask) - 0.77).abs() < 1e-9);
    }

    #[test]
    fn variants_differ_with_multiple_alternatives() {
        // x has two retained alternatives at 0.5 each: Normalized matches
        // with probability 1.0, Independent with 0.75.
        let mut b = GraphBuilder::new();
        let x = b.add_node(0.5);
        let y = b.add_node(0.25);
        let z = b.add_node(0.25);
        b.add_edge(x, y, 0.5).unwrap();
        b.add_edge(x, z, 0.5).unwrap();
        let g = b.build().unwrap();
        let mask = vec![false, true, true];
        let norm = cover_value::<Normalized>(&g, &mask);
        let ind = cover_value::<Independent>(&g, &mask);
        assert!((norm - (0.5 + 0.5 * 1.0)).abs() < 1e-12);
        assert!((ind - (0.5 + 0.5 * 0.75)).abs() < 1e-12);
    }

    #[test]
    fn self_loops_are_inert() {
        let mut b = GraphBuilder::new().allow_self_loops(true);
        let x = b.add_node(0.6);
        let y = b.add_node(0.4);
        b.add_edge(x, x, 1.0).unwrap();
        b.add_edge(x, y, 0.5).unwrap();
        let g = b.build().unwrap();
        // x not selected: its self-loop must not cover it.
        let mask = vec![false, true];
        let c = cover_value::<Normalized>(&g, &mask);
        assert!((c - (0.4 + 0.6 * 0.5)).abs() < 1e-12);

        // Incremental state must agree.
        let mut st = CoverState::new(2);
        st.add_node::<Normalized>(&g, y);
        assert!((st.cover() - c).abs() < 1e-12);
    }

    #[test]
    fn incremental_state_matches_scratch_eval_figure1() {
        let (g, ids) = figure1_ids();
        for order in [
            vec![ids.b, ids.d],
            vec![ids.d, ids.b],
            vec![ids.a, ids.c, ids.e],
            vec![ids.a, ids.b, ids.c, ids.d, ids.e],
        ] {
            let mut st_n = CoverState::new(g.node_count());
            let mut st_i = CoverState::new(g.node_count());
            for &v in &order {
                st_n.add_node::<Normalized>(&g, v);
                st_i.add_node::<Independent>(&g, v);
            }
            let c_n = cover_value::<Normalized>(&g, st_n.selection_mask());
            let c_i = cover_value::<Independent>(&g, st_i.selection_mask());
            assert!((st_n.cover() - c_n).abs() < 1e-9, "order {order:?}");
            assert!((st_i.cover() - c_i).abs() < 1e-9, "order {order:?}");
            // C(S) equals the sum of the I array (paper invariant).
            let sum_n: f64 = st_n.item_cover().iter().sum();
            assert!((st_n.cover() - sum_n).abs() < 1e-9);
        }
    }

    #[test]
    fn gain_predicts_add_node_exactly() {
        let (g, ids) = figure1_ids();
        let mut st = CoverState::new(g.node_count());
        for v in [ids.b, ids.d, ids.a] {
            let predicted = st.gain::<Independent>(&g, v);
            let realized = st.add_node::<Independent>(&g, v);
            assert!((predicted - realized).abs() < 1e-12);
        }
    }

    #[test]
    fn example_3_2_first_gain_is_066() {
        // Greedy's first pick: B with gain 0.66 (covers W(B), W(C), 2/3 of
        // W(A)).
        let (g, ids) = figure1_ids();
        let st = CoverState::new(g.node_count());
        let gain_b = st.gain::<Normalized>(&g, ids.b);
        assert!((gain_b - 0.66).abs() < 1e-9);
        // And in the second iteration D gains 21.3%, A 11%, C 0%.
        let mut st = st;
        st.add_node::<Normalized>(&g, ids.b);
        assert!((st.gain::<Normalized>(&g, ids.d) - 0.213).abs() < 1e-9);
        assert!((st.gain::<Normalized>(&g, ids.a) - 0.11).abs() < 1e-9);
        assert!(st.gain::<Normalized>(&g, ids.c).abs() < 1e-9);
    }

    #[test]
    fn readding_is_noop() {
        let (g, ids) = figure3_ids();
        let mut st = CoverState::new(g.node_count());
        let first = st.add_node::<Independent>(&g, ids.silver);
        assert!(first > 0.0);
        let again = st.add_node::<Independent>(&g, ids.silver);
        assert_eq!(again, 0.0);
        assert_eq!(st.len(), 1);
        assert_eq!(st.gain::<Independent>(&g, ids.silver), 0.0);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn cover_value_rejects_bad_mask() {
        let (g, _) = figure1_ids();
        cover_value::<Normalized>(&g, &[true]);
    }
}
