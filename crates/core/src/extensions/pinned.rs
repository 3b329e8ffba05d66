//! Pinned-prefix solving: greedy completion of a forced retained set.
//!
//! Real deployments carry constraints the optimizer must respect — items
//! under contract, flagship products, items already stocked in a warehouse.
//! This solver retains a caller-supplied prefix unconditionally and then
//! continues the ordinary greedy to fill the remaining budget. It is also
//! the primitive the [`incremental`](crate::extensions::incremental)
//! maintenance strategy is built on.

use std::time::Instant;

use pcover_graph::{ItemId, PreferenceGraph};

use crate::cover::CoverState;
use crate::greedy::complete;
use crate::report::SolveReport;
use crate::solver::SolveCtx;
use crate::variant::CoverModel;
use crate::SolveError;

/// Solves for budget `k` with `prefix` forced into the retained set (in the
/// given order), completing the remainder with plain greedy's round loop.
///
/// The submodular guarantee degrades gracefully: the completion is a
/// `(1 − 1/e)`-approximation of the best completion *given* the prefix.
///
/// # Errors
///
/// * [`SolveError::KTooLarge`] if `k > n`.
/// * [`SolveError::InvalidPrefix`] if the prefix is longer than `k`,
///   contains duplicates, or references unknown nodes.
pub fn solve_with_prefix<M: CoverModel>(
    g: &PreferenceGraph,
    prefix: &[ItemId],
    k: usize,
) -> Result<SolveReport, SolveError> {
    let started = Instant::now();
    let n = g.node_count();
    if k > n {
        return Err(SolveError::KTooLarge { k, n });
    }
    if prefix.len() > k {
        return Err(SolveError::InvalidPrefix {
            message: format!("prefix length {} exceeds k = {k}", prefix.len()),
        });
    }

    let mut state = CoverState::new(n);
    let mut trajectory = Vec::with_capacity(k);
    for &v in prefix {
        if v.index() >= n {
            return Err(SolveError::InvalidPrefix {
                message: format!("node {v} out of range"),
            });
        }
        if state.contains(v) {
            return Err(SolveError::InvalidPrefix {
                message: format!("node {v} pinned twice"),
            });
        }
        state.add_node::<M>(g, v);
        trajectory.push(state.cover());
    }
    complete::<M>(g, k, state, trajectory, started, &mut SolveCtx::default())
}

#[cfg(test)]
mod tests {
    use pcover_graph::examples::figure1_ids;

    use crate::{greedy, Independent, Normalized};

    use super::*;

    #[test]
    fn empty_prefix_is_plain_greedy() {
        let (g, _) = figure1_ids();
        let plain = greedy::solve::<Normalized>(&g, 3).unwrap();
        let pinned = solve_with_prefix::<Normalized>(&g, &[], 3).unwrap();
        assert_eq!(plain.order, pinned.order);
        assert!((plain.cover - pinned.cover).abs() < 1e-12);
    }

    #[test]
    fn prefix_is_respected() {
        let (g, ids) = figure1_ids();
        // Force the weak item E first; greedy then completes optimally.
        let r = solve_with_prefix::<Normalized>(&g, &[ids.e], 2).unwrap();
        assert_eq!(r.order[0], ids.e);
        // Best completion after E is B (covering A, B, C).
        assert_eq!(r.order[1], ids.b);
        // Pinning costs cover relative to the unconstrained optimum.
        let free = greedy::solve::<Normalized>(&g, 2).unwrap();
        assert!(r.cover < free.cover);
    }

    #[test]
    fn prefix_equal_to_k_is_pure_replay() {
        let (g, ids) = figure1_ids();
        let r = solve_with_prefix::<Independent>(&g, &[ids.b, ids.d], 2).unwrap();
        assert_eq!(r.order, vec![ids.b, ids.d]);
        assert!((r.cover - 0.873).abs() < 1e-9);
        assert_eq!(r.gain_evaluations, 0);
    }

    #[test]
    fn invalid_prefixes_rejected() {
        let (g, ids) = figure1_ids();
        assert!(solve_with_prefix::<Normalized>(&g, &[ids.a, ids.a], 3).is_err());
        assert!(solve_with_prefix::<Normalized>(&g, &[ids.a, ids.b], 1).is_err());
        assert!(solve_with_prefix::<Normalized>(&g, &[ItemId::new(77)], 2).is_err());
        assert!(solve_with_prefix::<Normalized>(&g, &[], 6).is_err());
    }
}
