//! Property-based tests for the graph substrate.

use std::collections::HashMap;

use proptest::prelude::*;

use pcover_graph::delta::{apply, Change, GraphDelta};
use pcover_graph::io::{csv, json, LoadOptions};
use pcover_graph::reduction::{npc_to_vck, vck_to_npc};
use pcover_graph::transform::{
    complete_with_self_loops, induced_subgraph, reverse, transitive_closure, PathCombination,
};
use pcover_graph::{DuplicateEdgePolicy, GraphBuilder, ItemId, PreferenceGraph};

/// A strategy producing small random well-formed preference graphs.
///
/// Node weights are drawn as positive counts then normalized; edges are a
/// random subset of ordered pairs with weights in (0, 1].
fn arb_graph(max_nodes: usize) -> impl Strategy<Value = PreferenceGraph> {
    (2..=max_nodes)
        .prop_flat_map(|n| {
            let weights = proptest::collection::vec(1u32..1000, n);
            let edges = proptest::collection::vec((0..n, 0..n, 0.01f64..=1.0), 0..(n * 3).min(64));
            (Just(n), weights, edges)
        })
        .prop_map(|(_n, weights, edges)| {
            let mut b = GraphBuilder::new()
                .normalize_node_weights(true)
                .duplicate_edge_policy(DuplicateEdgePolicy::Max);
            let ids: Vec<ItemId> = weights.iter().map(|&w| b.add_node(w as f64)).collect();
            for (s, t, w) in edges {
                if s != t {
                    b.add_edge(ids[s], ids[t], w).expect("edge weight in range");
                }
            }
            b.build().expect("generated graph is valid")
        })
}

/// Normalized cover computed from first principles (Definition 2.2).
fn npc_cover(g: &PreferenceGraph, selected: &[bool]) -> f64 {
    let mut c = 0.0;
    for v in g.node_ids() {
        if selected[v.index()] {
            c += g.node_weight(v);
        } else {
            let covered: f64 = g
                .out_edges(v)
                .filter(|(u, _)| selected[u.index()] && *u != v)
                .map(|(_, w)| w)
                .sum();
            c += g.node_weight(v) * covered;
        }
    }
    c
}

/// Raw material for a delta against an `n`-node graph: node index pairs
/// plus an op selector (`0` = remove, otherwise upsert at the drawn
/// weight) — indices reduced mod `n` by the consumer.
fn arb_delta_ops(n: usize) -> impl Strategy<Value = Vec<(usize, usize, Option<f64>)>> {
    proptest::collection::vec((0..n, 0..n, 0u8..4, 0.01f64..=1.0), 0..12).prop_map(|raw| {
        raw.into_iter()
            .map(|(s, t, op, w)| (s, t, (op != 0).then_some(w)))
            .collect()
    })
}

/// Builds a well-formed edge-only delta from `ops` against `g`, together
/// with its exact inverse. Tracks the evolving edge state so repeated
/// changes to the same edge invert correctly; removals of absent edges are
/// skipped (they would not validate).
fn edge_delta_with_inverse(
    g: &PreferenceGraph,
    ops: &[(usize, usize, Option<f64>)],
) -> (GraphDelta, GraphDelta) {
    let mut state: HashMap<(usize, usize), f64> = HashMap::new();
    for v in g.node_ids() {
        for (u, w) in g.out_edges(v) {
            state.insert((v.index(), u.index()), w);
        }
    }
    let n = g.node_count();
    let mut delta = GraphDelta::new();
    let mut inverse_changes: Vec<Change> = Vec::new();
    for &(s, t, op) in ops {
        let (s, t) = (s % n, t % n);
        if s == t {
            continue;
        }
        let (source, target) = (ItemId::from_index(s), ItemId::from_index(t));
        let old = state.get(&(s, t)).copied();
        match op {
            Some(weight) => {
                delta = delta.push(Change::UpsertEdge {
                    source,
                    target,
                    weight,
                });
                state.insert((s, t), weight);
                inverse_changes.push(match old {
                    Some(w) => Change::UpsertEdge {
                        source,
                        target,
                        weight: w,
                    },
                    None => Change::RemoveEdge { source, target },
                });
            }
            None => {
                let Some(w) = old else { continue };
                delta = delta.push(Change::RemoveEdge { source, target });
                state.remove(&(s, t));
                inverse_changes.push(Change::UpsertEdge {
                    source,
                    target,
                    weight: w,
                });
            }
        }
    }
    let mut inverse = GraphDelta::new();
    for change in inverse_changes.into_iter().rev() {
        inverse = inverse.push(change);
    }
    (delta, inverse)
}

/// A deterministic family of selections exercising the cover from several
/// angles: empty, full, alternating, and every singleton.
fn sample_selections(n: usize) -> Vec<Vec<bool>> {
    let mut sels = vec![
        vec![false; n],
        vec![true; n],
        (0..n).map(|i| i % 2 == 0).collect(),
    ];
    for i in 0..n {
        let mut s = vec![false; n];
        s[i] = true;
        sels.push(s);
    }
    sels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_json_roundtrip_preserves_touched_nodes(
        g in arb_graph(12),
        ops in arb_delta_ops(12),
        reweight in (0u8..2, 0usize..12, 0.1f64..10.0),
        delist in (0u8..2, 0usize..12),
        add in (0u8..2, 0.1f64..10.0),
    ) {
        let n = g.node_count();
        let (mut delta, _) = edge_delta_with_inverse(&g, &ops);
        if reweight.0 == 1 {
            delta = delta.push(Change::SetNodeWeight {
                node: ItemId::from_index(reweight.1 % n),
                weight: reweight.2,
            });
        }
        if delist.0 == 1 {
            delta = delta.push(Change::Delist { node: ItemId::from_index(delist.1 % n) });
        }
        if add.0 == 1 {
            delta = delta.push(Change::AddNode { weight: add.1, label: None });
        }
        let s = delta.to_json_string().unwrap();
        let back = GraphDelta::from_json_str(&s).unwrap();
        prop_assert_eq!(back.touched_nodes(&g), delta.touched_nodes(&g));
        prop_assert_eq!(back.rescales_node_weights(), delta.rescales_node_weights());
    }

    #[test]
    fn edge_delta_then_inverse_restores_cover_values(
        g in arb_graph(12),
        ops in arb_delta_ops(12),
    ) {
        let (delta, inverse) = edge_delta_with_inverse(&g, &ops);
        let perturbed = apply(&g, &delta).unwrap();
        let restored = apply(&perturbed, &inverse).unwrap();
        // Edge-only deltas never renormalize: node weights survive bitwise…
        for v in g.node_ids() {
            prop_assert_eq!(
                restored.node_weight(v).to_bits(),
                g.node_weight(v).to_bits(),
                "node weight drifted through delta+inverse at {}", v
            );
        }
        // …and the restored edges give back the original cover values.
        for sel in sample_selections(g.node_count()) {
            let before = npc_cover(&g, &sel);
            let after = npc_cover(&restored, &sel);
            prop_assert!(
                (before - after).abs() < 1e-12,
                "cover drifted: {} vs {} for {:?}", before, after, sel
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn weights_always_normalized(g in arb_graph(12)) {
        prop_assert!((g.total_node_weight() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrip(g in arb_graph(12)) {
        let s = json::to_json_string(&g);
        let back = json::from_json_str(&s, &LoadOptions::default()).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn csv_roundtrip(g in arb_graph(12)) {
        let dir = std::env::temp_dir()
            .join("pcover-prop-csv")
            .join(format!("{}", std::process::id()));
        csv::write_csv(&g, &dir).unwrap();
        let back = csv::read_csv(&dir, &LoadOptions::default()).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn double_reverse_is_identity(g in arb_graph(12)) {
        prop_assert_eq!(reverse(&reverse(&g)), g);
    }

    #[test]
    fn reverse_preserves_counts_and_swaps_degrees(g in arb_graph(12)) {
        let r = reverse(&g);
        prop_assert_eq!(r.node_count(), g.node_count());
        prop_assert_eq!(r.edge_count(), g.edge_count());
        for v in g.node_ids() {
            prop_assert_eq!(r.in_degree(v), g.out_degree(v));
            prop_assert_eq!(r.out_degree(v), g.in_degree(v));
        }
    }

    #[test]
    fn self_loop_completion_sums_to_one(g in arb_graph(12)) {
        let c = complete_with_self_loops(&g).unwrap();
        for v in c.node_ids() {
            let s = c.out_weight_sum(v);
            // Nodes whose out-sum already exceeded 1 get no loop and keep
            // their sum; everyone else is completed to exactly 1.
            if g.out_weight_sum(v) <= 1.0 {
                prop_assert!((s - 1.0).abs() < 1e-9, "node {} sum {}", v, s);
            }
        }
        // Cover-relevant structure unchanged: non-loop edges identical.
        for v in g.node_ids() {
            for (u, w) in g.out_edges(v) {
                prop_assert_eq!(c.edge_weight(v, u), Some(w));
            }
        }
    }

    #[test]
    fn npc_vck_reduction_preserves_cover(g in arb_graph(10)) {
        // Skip graphs violating the Normalized invariant; the reduction is
        // only defined for them.
        let normalized_ok = g.node_ids().all(|v| g.out_weight_sum(v) <= 1.0 + 1e-9);
        prop_assume!(normalized_ok);
        let inst = npc_to_vck(&g).unwrap();
        let n = g.node_count();
        // Exhaustively check all selections on small n, random ones beyond.
        if n <= 8 {
            for bits in 0u32..(1 << n) {
                let sel: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                let lhs = npc_cover(&g, &sel);
                let rhs = inst.cover_weight(&sel);
                prop_assert!((lhs - rhs).abs() < 1e-9, "bits {:b}: {} vs {}", bits, lhs, rhs);
            }
        }
    }

    #[test]
    fn vck_npc_roundtrip_preserves_scaled_cover(g in arb_graph(8)) {
        let normalized_ok = g.node_ids().all(|v| g.out_weight_sum(v) <= 1.0 + 1e-9);
        prop_assume!(normalized_ok);
        let inst = npc_to_vck(&g).unwrap();
        let (g2, n_const) = vck_to_npc(&inst).unwrap();
        let n = g.node_count();
        for bits in 0u32..(1 << n) {
            let sel: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let direct = inst.cover_weight(&sel);
            let via = npc_cover(&g2, &sel) * n_const;
            prop_assert!((direct - via).abs() < 1e-9, "bits {:b}: {} vs {}", bits, direct, via);
        }
    }

    #[test]
    fn subgraph_of_everything_is_identity_up_to_weights(g in arb_graph(12)) {
        let all: Vec<ItemId> = g.node_ids().collect();
        let sub = induced_subgraph(&g, &all).unwrap();
        prop_assert_eq!(sub.graph.node_count(), g.node_count());
        prop_assert_eq!(sub.graph.edge_count(), g.edge_count());
        for v in g.node_ids() {
            // Weights were already normalized, so they survive unchanged.
            prop_assert!((sub.graph.node_weight(v) - g.node_weight(v)).abs() < 1e-9);
        }
    }

    #[test]
    fn transitive_closure_monotone_in_depth(g in arb_graph(8)) {
        let t1 = transitive_closure(&g, 1, 1e-9, PathCombination::Independent).unwrap();
        let t3 = transitive_closure(&g, 3, 1e-9, PathCombination::Independent).unwrap();
        // Depth 1 equals the input edge set.
        prop_assert_eq!(t1.edge_count(), g.edge_count());
        // More depth can only add edges or increase weights.
        prop_assert!(t3.edge_count() >= t1.edge_count());
        for v in g.node_ids() {
            for (u, w1) in t1.out_edges(v) {
                let w3 = t3.edge_weight(v, u).expect("edge cannot disappear");
                prop_assert!(w3 >= w1 - 1e-12);
            }
        }
    }
}
