//! The float-comparison discipline for cover and gain values.
//!
//! Cover values and marginal gains are `f64` accumulations; comparing them
//! with raw `==`/`!=` is either meaningless (rounding noise) or — where
//! exactness *is* intended, as in the deterministic greedy tie-break — a
//! decision that deserves a named, total-order home. This module is the
//! single approved site for such comparisons: `cargo run -p xtask -- lint`
//! (rule `float-eq`) flags raw `==`/`!=` on cover/gain values anywhere else
//! in the workspace.

use std::cmp::Ordering;

/// Default absolute tolerance when comparing cover values that were computed
/// along different code paths (incremental vs from-scratch, parallel vs
/// sequential). Matches the tolerance used throughout the test suite.
pub const COVER_TOL: f64 = 1e-9;

/// Approximate equality under an explicit absolute tolerance.
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Approximate equality of two cover values at [`COVER_TOL`].
#[inline]
#[must_use]
pub fn cover_eq(a: f64, b: f64) -> bool {
    approx_eq(a, b, COVER_TOL)
}

/// Deterministic total order on gains. Gains produced by the solvers are
/// finite and non-negative, for which `total_cmp` agrees with the IEEE
/// partial order while never needing an `unwrap`/`expect` on a
/// `partial_cmp` result.
#[inline]
#[must_use]
pub fn cmp_gain(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// The canonical greedy argmax tie-break: candidate `(gain, v)` replaces the
/// incumbent `best` iff its gain is strictly larger, or exactly equal with a
/// smaller node id. Exact equality (not a tolerance) is deliberate — it is
/// what makes every greedy-family solver (plain, low-memory, lazy, delta,
/// parallel) select bit-identical sets, which the determinism tests assert. Generic
/// over the id type because some solvers work on raw `usize` indices and
/// others on `ItemId`.
#[inline]
#[must_use]
pub fn improves_argmax<V: Ord + Copy>(gain: f64, v: V, best: Option<(f64, V)>) -> bool {
    match best {
        None => true,
        Some((bg, bv)) => match cmp_gain(gain, bg) {
            Ordering::Greater => true,
            Ordering::Equal => v < bv,
            Ordering::Less => false,
        },
    }
}

/// Compensated (Neumaier) summation over a fixed iteration order.
///
/// This is the audited accumulation helper the `par-argmax`/
/// `par-float-accum` audit rules point parallel code at: gather partial
/// results into a deterministically ordered collection (e.g. indexed by
/// chunk slot), then reduce them here sequentially. The compensation term
/// keeps the result faithful even when magnitudes differ wildly, and the
/// single fixed order is what makes "same input, same output" hold across
/// thread counts.
#[must_use]
pub fn sum_stable<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    // One implementation for the whole workspace: it lives in the graph
    // crate (below this one in the dependency order) so graph-side weight
    // sums use the identical arithmetic.
    pcover_graph::float::sum_stable(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcover_graph::ItemId;

    fn id(i: u32) -> ItemId {
        ItemId::new(i)
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
        assert!(cover_eq(0.5, 0.5 + 1e-10));
        assert!(!cover_eq(0.5, 0.5 + 1e-6));
    }

    #[test]
    fn cmp_gain_totally_orders_finite_gains() {
        assert_eq!(cmp_gain(0.2, 0.1), Ordering::Greater);
        assert_eq!(cmp_gain(0.1, 0.2), Ordering::Less);
        assert_eq!(cmp_gain(0.25, 0.25), Ordering::Equal);
    }

    #[test]
    fn argmax_prefers_larger_gain_then_smaller_id() {
        assert!(improves_argmax(0.5, id(3), None));
        assert!(improves_argmax(0.6, id(3), Some((0.5, id(1)))));
        assert!(!improves_argmax(0.4, id(0), Some((0.5, id(1)))));
        // Exact tie: smaller id wins.
        assert!(improves_argmax(0.5, id(0), Some((0.5, id(1)))));
        assert!(!improves_argmax(0.5, id(2), Some((0.5, id(1)))));
    }

    #[test]
    fn sum_stable_recovers_cancelled_terms() {
        // Naive left-to-right summation loses the 1.0 entirely here;
        // Neumaier compensation keeps it.
        let xs = [1.0, 1e100, 1.0, -1e100];
        assert_eq!(sum_stable(xs).to_bits(), 2.0f64.to_bits());
        let naive: f64 = xs.iter().sum();
        assert_eq!(naive.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn sum_stable_matches_naive_on_benign_input() {
        let xs: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.125).collect();
        let naive: f64 = xs.iter().sum();
        assert_eq!(sum_stable(xs.iter().copied()).to_bits(), naive.to_bits());
    }
}
