//! Property-based tests for the solver crate: the paper's structural claims
//! (monotonicity, submodularity, approximation bounds, reduction
//! equivalence) checked on random instances.

use proptest::prelude::*;

use pcover_core::brute_force::{self, BruteForceOptions};
use pcover_core::{
    baselines, cover_value, greedy, lazy, minimize, parallel, CoverModel, CoverState, Independent,
    Normalized,
};
use pcover_graph::{DuplicateEdgePolicy, GraphBuilder, ItemId, PreferenceGraph};

/// Random well-formed preference graphs, optionally obeying the Normalized
/// out-sum invariant.
fn arb_graph(max_nodes: usize, normalized: bool) -> impl Strategy<Value = PreferenceGraph> {
    (3..=max_nodes)
        .prop_flat_map(move |n| {
            let weights = proptest::collection::vec(1u32..100, n);
            let max_w = if normalized { 0.45 } else { 1.0 };
            let edges =
                proptest::collection::vec((0..n, 0..n, 0.01f64..=max_w), 0..(n * 2).min(48));
            (Just(n), weights, edges)
        })
        .prop_map(move |(n, weights, edges)| {
            let mut b = GraphBuilder::new()
                .normalize_node_weights(true)
                .duplicate_edge_policy(DuplicateEdgePolicy::KeepFirst);
            let ids: Vec<ItemId> = weights.iter().map(|&w| b.add_node(w as f64)).collect();
            let mut out_budget = vec![2usize; n];
            for (s, t, w) in edges {
                // Keep at most 2 out-edges per node so normalized graphs
                // respect the out-sum <= 1 invariant (2 * 0.45 < 1).
                if s != t && (!normalized || out_budget[s] > 0) {
                    b.add_edge(ids[s], ids[t], w).expect("edge weight in range");
                    out_budget[s] = out_budget[s].saturating_sub(1);
                }
            }
            b.build().expect("generated graph is valid")
        })
}

fn mask_of(n: usize, bits: u32) -> Vec<bool> {
    (0..n).map(|i| bits >> i & 1 == 1).collect()
}

fn check_monotone_submodular<M: CoverModel>(g: &PreferenceGraph) -> Result<(), TestCaseError> {
    let n = g.node_count();
    prop_assume!(n <= 10);
    // For random nested pairs S ⊂ T and elements x, check both properties.
    for bits in [0u32, 1, 3, 5, 0b1010, 0b0110] {
        let bits = bits & ((1 << n) - 1);
        let s_mask = mask_of(n, bits);
        let c_s = cover_value::<M>(g, &s_mask);
        for extra in 0..n {
            if bits >> extra & 1 == 1 {
                continue;
            }
            let t_bits = bits | (1 << extra);
            let t_mask = mask_of(n, t_bits);
            let c_t = cover_value::<M>(g, &t_mask);
            // Monotone.
            prop_assert!(c_t >= c_s - 1e-12, "monotonicity violated");
            for x in 0..n {
                if t_bits >> x & 1 == 1 {
                    continue;
                }
                let c_sx = cover_value::<M>(g, &mask_of(n, bits | (1 << x)));
                let c_tx = cover_value::<M>(g, &mask_of(n, t_bits | (1 << x)));
                // Submodular: marginal at S >= marginal at T.
                prop_assert!(
                    c_sx - c_s >= c_tx - c_t - 1e-9,
                    "submodularity violated: {} < {}",
                    c_sx - c_s,
                    c_tx - c_t
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn independent_cover_is_monotone_submodular(g in arb_graph(10, false)) {
        check_monotone_submodular::<Independent>(&g)?;
    }

    #[test]
    fn normalized_cover_is_monotone_submodular(g in arb_graph(10, true)) {
        check_monotone_submodular::<Normalized>(&g)?;
    }

    #[test]
    fn incremental_state_matches_scratch_eval(g in arb_graph(12, false), seed in 0u64..1000) {
        // Add nodes in a pseudo-random order; after every step the
        // incremental cover and I array must match a from-scratch eval.
        let n = g.node_count();
        let mut order: Vec<ItemId> = g.node_ids().collect();
        // Deterministic shuffle keyed by the seed.
        order.sort_by_key(|v| (v.raw().wrapping_mul(2654435761).wrapping_add(seed as u32)) % 1000);

        let mut st_i = CoverState::new(n);
        let mut st_n = CoverState::new(n);
        for &v in order.iter().take(n.min(6)) {
            st_i.add_node::<Independent>(&g, v);
            st_n.add_node::<Normalized>(&g, v);
            let scratch_i = cover_value::<Independent>(&g, st_i.selection_mask());
            let scratch_n = cover_value::<Normalized>(&g, st_n.selection_mask());
            prop_assert!((st_i.cover() - scratch_i).abs() < 1e-9);
            prop_assert!((st_n.cover() - scratch_n).abs() < 1e-9);
            let i_sum: f64 = st_i.item_cover().iter().sum();
            prop_assert!((st_i.cover() - i_sum).abs() < 1e-9);
        }
    }

    #[test]
    fn gain_equals_realized_gain(g in arb_graph(12, false)) {
        let mut st = CoverState::new(g.node_count());
        for v in g.node_ids().take(5) {
            let predicted = st.gain::<Independent>(&g, v);
            let realized = st.add_node::<Independent>(&g, v);
            prop_assert!((predicted - realized).abs() < 1e-12);
        }
    }

    #[test]
    fn greedy_achieves_its_bound_vs_brute_force(g in arb_graph(9, false), k_frac in 0.2f64..0.9) {
        let n = g.node_count();
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let bf = brute_force::solve::<Independent>(&g, k, &BruteForceOptions::default()).unwrap();
        let gr = greedy::solve::<Independent>(&g, k).unwrap();
        prop_assert!(gr.cover <= bf.cover + 1e-9);
        prop_assert!(gr.cover >= (1.0 - 1.0 / std::f64::consts::E) * bf.cover - 1e-9);
    }

    #[test]
    fn npc_greedy_achieves_its_bound_on_valid_instances(
        g in arb_graph(9, true),
        k_frac in 0.2f64..0.9,
    ) {
        // The max{1 - 1/e, 1 - (1 - k/n)^2} bound holds for graphs obeying
        // the Normalized invariant (out-weight sums <= 1); outside it the
        // instance is not an NPC_k problem at all.
        let n = g.node_count();
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let bf_n = brute_force::solve::<Normalized>(&g, k, &BruteForceOptions::default()).unwrap();
        let gr_n = greedy::solve::<Normalized>(&g, k).unwrap();
        let bound = pcover_core::bounds::greedy_ratio_npc(k as f64 / n as f64);
        prop_assert!(gr_n.cover >= bound * bf_n.cover - 1e-9,
            "NPC greedy {} below bound {} of optimum {}", gr_n.cover, bound, bf_n.cover);
    }

    #[test]
    fn lazy_matches_plain_cover(
        g in arb_graph(14, false),
        gn in arb_graph(14, true),
        k_frac in 0.1f64..1.0,
    ) {
        let k_of = |n: usize| ((n as f64 * k_frac) as usize).clamp(1, n);
        let k = k_of(g.node_count());
        let plain = greedy::solve::<Independent>(&g, k).unwrap();
        let lz = lazy::solve::<Independent>(&g, k).unwrap();
        prop_assert!(lz.bit_identical_to(&plain), "IPC k = {}", k);
        let k = k_of(gn.node_count());
        let plain = greedy::solve::<Normalized>(&gn, k).unwrap();
        let lz = lazy::solve::<Normalized>(&gn, k).unwrap();
        prop_assert!(lz.bit_identical_to(&plain), "NPC k = {}", k);
    }

    #[test]
    fn parallel_matches_plain_exactly(g in arb_graph(14, false), threads in 1usize..5) {
        let k = (g.node_count() / 2).max(1);
        let plain = greedy::solve::<Normalized>(&g, k).unwrap();
        let (par, stats) = parallel::solve::<Normalized>(&g, k, threads).unwrap();
        prop_assert_eq!(&plain.order, &par.order);
        prop_assert!((plain.cover - par.cover).abs() < 1e-12);
        prop_assert_eq!(stats.per_thread_ops.len(), threads);
    }

    #[test]
    fn greedy_dominates_baselines(g in arb_graph(14, false), k_frac in 0.1f64..0.9) {
        let n = g.node_count();
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let gr = greedy::solve::<Independent>(&g, k).unwrap();
        let tw = baselines::top_k_weight::<Independent>(&g, k).unwrap();
        let tc = baselines::top_k_coverage::<Independent>(&g, k).unwrap();
        let rnd = baselines::random::<Independent>(&g, k, 17).unwrap();
        // Pointwise domination of a baseline is not a theorem (greedy is a
        // (1 - 1/e)-approximation, not optimal), but every baseline is at
        // most OPT, so greedy must reach (1 - 1/e) of the best of them.
        let best_baseline = tw.cover.max(tc.cover).max(rnd.cover);
        let ratio = 1.0 - 1.0 / std::f64::consts::E;
        prop_assert!(
            gr.cover >= ratio * best_baseline - 1e-9,
            "greedy {} below (1-1/e) of best baseline {}",
            gr.cover,
            best_baseline
        );
        // For k = 1 greedy IS the exact singleton argmax, hence dominant.
        let gr1 = greedy::solve::<Independent>(&g, 1).unwrap();
        let tc1 = baselines::top_k_coverage::<Independent>(&g, 1).unwrap();
        let tw1 = baselines::top_k_weight::<Independent>(&g, 1).unwrap();
        prop_assert!((gr1.cover - tc1.cover).abs() < 1e-9);
        prop_assert!(gr1.cover >= tw1.cover - 1e-9);
    }

    #[test]
    fn trajectory_is_monotone_and_ends_at_cover(g in arb_graph(14, false)) {
        let k = g.node_count();
        let r = greedy::solve::<Independent>(&g, k).unwrap();
        prop_assert_eq!(r.trajectory.len(), k);
        for w in r.trajectory.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        prop_assert!((r.trajectory[k - 1] - r.cover).abs() < 1e-12);
        prop_assert!((r.cover - 1.0).abs() < 1e-9, "full retention covers all");
    }

    #[test]
    fn minimize_is_consistent_with_trajectory(g in arb_graph(12, false), threshold in 0.1f64..0.9) {
        let full = lazy::solve::<Independent>(&g, g.node_count()).unwrap();
        let expected = full.smallest_prefix_reaching(threshold);
        let got = minimize::greedy_min_cover::<Independent>(&g, threshold).unwrap();
        prop_assert_eq!(Some(got.set_size()), expected);
        prop_assert!(got.report.cover >= threshold - 1e-12);
        // One fewer greedy item falls short (minimality along the greedy
        // order).
        if got.set_size() > 0 {
            let (_, prev) = full.prefix(got.set_size() - 1).unwrap_or((&[], 0.0));
            prop_assert!(prev < threshold);
        }
    }

    #[test]
    fn greedy_prefix_property(g in arb_graph(12, false)) {
        // §3.2 "Additional Advantages": the first k' items of a greedy
        // solution for k ARE the greedy solution for k', with the same
        // cover.
        let n = g.node_count();
        let full = greedy::solve::<Independent>(&g, n).unwrap();
        for k_prime in [1, n / 2, n - 1] {
            let direct = greedy::solve::<Independent>(&g, k_prime).unwrap();
            let (prefix, prefix_cover) = full.prefix(k_prime).unwrap();
            prop_assert_eq!(prefix, &direct.order[..]);
            prop_assert!((prefix_cover - direct.cover).abs() < 1e-9);
        }
    }

    #[test]
    fn stochastic_greedy_within_loose_bound(g in arb_graph(14, false), seed in 0u64..100) {
        let n = g.node_count();
        let k = (n / 2).max(1);
        let full = greedy::solve::<Independent>(&g, k).unwrap();
        let fast = pcover_core::stochastic::solve::<Independent>(
            &g,
            k,
            &pcover_core::stochastic::StochasticOptions { epsilon: 0.1, seed },
        )
        .unwrap();
        prop_assert_eq!(fast.k(), k);
        // In-expectation bound is 1 - 1/e - 0.1 ~ 0.53 of OPT; individual
        // runs fluctuate, so assert a loose 0.45 of greedy (<= OPT).
        prop_assert!(
            fast.cover >= 0.45 * full.cover,
            "stochastic {} vs greedy {}", fast.cover, full.cover
        );
    }

    #[test]
    fn sieve_streaming_within_loose_bound(g in arb_graph(14, false)) {
        let n = g.node_count();
        let k = (n / 2).max(1);
        let full = greedy::solve::<Independent>(&g, k).unwrap();
        let sv = pcover_core::streaming::solve::<Independent>(
            &g,
            k,
            &pcover_core::streaming::SieveOptions { epsilon: 0.1 },
        )
        .unwrap();
        prop_assert!(sv.k() <= k);
        prop_assert!(
            sv.cover >= (0.5 - 0.1 - 0.05) * full.cover,
            "sieve {} vs greedy {}", sv.cover, full.cover
        );
    }

    #[test]
    fn local_search_never_degrades_and_random_improves(g in arb_graph(12, false), seed in 0u64..50) {
        let n = g.node_count();
        let k = (n / 3).max(1);
        let start = baselines::random::<Independent>(&g, k, seed).unwrap();
        let refined = pcover_core::local_search::refine::<Independent>(
            &g,
            &start.order,
            &pcover_core::local_search::LocalSearchOptions::default(),
        )
        .unwrap();
        prop_assert!(refined.report.cover >= start.cover - 1e-12);
        prop_assert_eq!(refined.report.k(), k);
        // Result is a valid selection: cover matches scratch eval.
        let mut mask = vec![false; n];
        for &v in &refined.report.order {
            prop_assert!(!mask[v.index()], "duplicate in refined selection");
            mask[v.index()] = true;
        }
        let scratch = cover_value::<Independent>(&g, &mask);
        prop_assert!((refined.report.cover - scratch).abs() < 1e-9);
    }

    #[test]
    fn low_memory_normalized_equals_standard(g in arb_graph(14, true), k_frac in 0.1f64..1.0) {
        let n = g.node_count();
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let standard = greedy::solve::<Normalized>(&g, k).unwrap();
        let low_mem = greedy::solve_low_memory_normalized(&g, k).unwrap();
        prop_assert_eq!(&standard.order, &low_mem.order);
        // Bit for bit, trajectory included: a cached low-memory report's
        // prefix must answer a smaller budget exactly as a fresh solve.
        prop_assert!(standard.bit_identical_to(&low_mem));
    }

    #[test]
    fn evaluate_selection_matches_scratch(g in arb_graph(12, true), seed in 0u64..50) {
        let n = g.node_count();
        let k = (n / 2).max(1);
        let sel = baselines::random::<Normalized>(&g, k, seed).unwrap().order;
        let report = baselines::evaluate_selection::<Normalized>(&g, &sel).unwrap();
        let mut mask = vec![false; n];
        for &v in &sel {
            mask[v.index()] = true;
        }
        prop_assert!((report.cover - cover_value::<Normalized>(&g, &mask)).abs() < 1e-9);
    }

    #[test]
    fn coverage_metadata_in_unit_range(g in arb_graph(12, true), k_frac in 0.1f64..0.9) {
        let n = g.node_count();
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let r = greedy::solve::<Normalized>(&g, k).unwrap();
        for v in g.node_ids() {
            let c = r.coverage_of(&g, v);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&c), "coverage {} out of range", c);
        }
        for &v in &r.order {
            prop_assert!((r.coverage_of(&g, v) - 1.0).abs() < 1e-9);
        }
    }
}
