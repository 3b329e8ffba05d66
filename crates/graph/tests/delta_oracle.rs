//! Oracle test for `delta::apply`: the row-patching apply must return
//! exactly what a full rebuild through `GraphBuilder` returns, for every
//! base graph and every batch. On success the graphs are `==` (bitwise
//! weights, both CSR directions and labels) and the result is owned; on
//! failure the errors print the same.

#![allow(clippy::unwrap_used)] // integration tests: panicking on setup failure is the right behavior

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use pcover_graph::delta::{apply, Change, GraphDelta};
use pcover_graph::{
    Csr, CsrParts, CsrSource, DuplicateEdgePolicy, GraphBuilder, GraphError, ItemId,
    PreferenceGraph,
};

/// `apply` as a full rebuild: every edge goes through a `HashMap` and the
/// new graph through `GraphBuilder`. The most direct reading of a batch's
/// semantics, kept as the reference the row patch must match.
fn rebuild_reference(
    g: &PreferenceGraph,
    delta: &GraphDelta,
) -> Result<PreferenceGraph, GraphError> {
    // Materialize mutable views.
    let mut weights: Vec<f64> = g.node_weights().to_vec();
    let mut labels: Vec<String> = g
        .node_ids()
        .map(|v| g.label(v).unwrap_or("").to_owned())
        .collect();
    let mut any_label = g.has_labels();
    let mut edges: HashMap<(ItemId, ItemId), f64> = g
        .edges()
        .map(|e| ((e.source, e.target), e.weight))
        .collect();
    let mut delisted: Vec<bool> = vec![false; weights.len()];

    let check_node = |node: ItemId, len: usize| -> Result<(), GraphError> {
        if node.index() >= len {
            return Err(GraphError::UnknownNode { node });
        }
        Ok(())
    };

    for change in &delta.changes {
        match change {
            Change::SetNodeWeight { node, weight } => {
                check_node(*node, weights.len())?;
                if !weight.is_finite() || *weight < 0.0 {
                    return Err(GraphError::InvalidNodeWeight {
                        node: *node,
                        weight: *weight,
                    });
                }
                weights[node.index()] = *weight;
            }
            Change::AddNode { weight, label } => {
                if !weight.is_finite() || *weight < 0.0 {
                    return Err(GraphError::InvalidNodeWeight {
                        node: ItemId::from_index(weights.len()),
                        weight: *weight,
                    });
                }
                weights.push(*weight);
                labels.push(label.clone().unwrap_or_default());
                delisted.push(false);
                any_label |= label.is_some();
            }
            Change::UpsertEdge {
                source,
                target,
                weight,
            } => {
                check_node(*source, weights.len())?;
                check_node(*target, weights.len())?;
                if !weight.is_finite() || *weight <= 0.0 || *weight > 1.0 {
                    return Err(GraphError::InvalidEdgeWeight {
                        source: *source,
                        target: *target,
                        weight: *weight,
                    });
                }
                if source == target {
                    return Err(GraphError::SelfLoopDisallowed { node: *source });
                }
                edges.insert((*source, *target), *weight);
            }
            Change::RemoveEdge { source, target } => {
                check_node(*source, weights.len())?;
                check_node(*target, weights.len())?;
                edges.remove(&(*source, *target));
            }
            Change::Delist { node } => {
                check_node(*node, weights.len())?;
                weights[node.index()] = 0.0;
                delisted[node.index()] = true;
            }
        }
    }
    edges.retain(|(s, t), _| !delisted[s.index()] && !delisted[t.index()]);

    // Renormalize only when a change actually rescaled the weight vector.
    // An edge-only delta re-emits the (already normalized) weights of `g`
    // untouched; dividing them by their own sum again would perturb every
    // weight by float noise and silently invalidate all cached gains.
    let rescaled = delta.rescales_node_weights();
    let mut b = GraphBuilder::with_capacity(weights.len(), edges.len())
        .normalize_node_weights(rescaled)
        .skip_weight_sum_check(!rescaled);
    for (i, w) in weights.iter().enumerate() {
        if any_label {
            b.add_node_labeled(*w, labels[i].clone());
        } else {
            b.add_node(*w);
        }
    }
    let mut sorted: Vec<((ItemId, ItemId), f64)> = edges.into_iter().collect();
    sorted.sort_unstable_by_key(|&(key, _)| key);
    for ((s, t), w) in sorted {
        b.add_edge(s, t, w)?;
    }
    b.build()
}

/// A `CsrSource` over owned parts: a stand-in for a memory-mapped
/// container, so the external-backing read path is exercised.
#[derive(Debug)]
struct PartsSource(CsrParts);

impl CsrSource for PartsSource {
    fn csr(&self) -> Csr<'_> {
        self.0.view()
    }
}

/// The same graph read through an external `CsrSource`.
fn external(g: &PreferenceGraph) -> PreferenceGraph {
    let parts = CsrParts::copied_from(g.csr());
    let labels = g.labels().map(<[String]>::to_vec);
    let ext = PreferenceGraph::from_csr_source(Arc::new(PartsSource(parts)), labels).unwrap();
    assert!(ext.is_externally_backed());
    ext
}

/// Asserts that `apply` and the rebuild agree on `(g, delta)` and returns
/// whether they succeeded.
fn assert_agrees(g: &PreferenceGraph, delta: &GraphDelta) -> bool {
    match (apply(g, delta), rebuild_reference(g, delta)) {
        (Ok(got), Ok(want)) => {
            // `==` compares weights bitwise, both CSR directions and labels.
            assert_eq!(got, want, "graphs differ for {delta:?}");
            assert!(
                !got.is_externally_backed(),
                "apply must return an owned graph"
            );
            true
        }
        (Err(got), Err(want)) => {
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "for {delta:?}");
            false
        }
        (got, want) => panic!("apply gave {got:?}, the rebuild gave {want:?}, for {delta:?}"),
    }
}

/// Checks `delta` against `g` both owned and externally backed, and
/// returns the (shared) outcome.
fn check(g: &PreferenceGraph, delta: &GraphDelta) -> Result<PreferenceGraph, GraphError> {
    let ok = assert_agrees(g, delta);
    assert_eq!(assert_agrees(&external(g), delta), ok);
    apply(g, delta)
}

fn id(i: usize) -> ItemId {
    ItemId::from_index(i)
}

fn upsert(s: usize, t: usize, weight: f64) -> Change {
    Change::UpsertEdge {
        source: id(s),
        target: id(t),
        weight,
    }
}

fn remove(s: usize, t: usize) -> Change {
    Change::RemoveEdge {
        source: id(s),
        target: id(t),
    }
}

fn delist(v: usize) -> Change {
    Change::Delist { node: id(v) }
}

fn batch(changes: Vec<Change>) -> GraphDelta {
    GraphDelta { changes }
}

/// Five nodes, eight edges, unlabelled: 0→1, 0→2, 1→2, 1→3, 2→0, 3→4,
/// 4→0, 4→3.
fn base() -> PreferenceGraph {
    let mut b = GraphBuilder::new().normalize_node_weights(true);
    for w in [3.0, 1.0, 4.0, 1.0, 5.0] {
        b.add_node(w);
    }
    for (s, t, w) in [
        (0, 1, 0.5),
        (0, 2, 0.25),
        (1, 2, 0.75),
        (1, 3, 0.125),
        (2, 0, 1.0),
        (3, 4, 0.375),
        (4, 0, 0.0625),
        (4, 3, 0.875),
    ] {
        b.add_edge(id(s), id(t), w).unwrap();
    }
    b.build().unwrap()
}

/// [`base`] plus self-loops on nodes 1 and 3.
fn looped() -> PreferenceGraph {
    let mut b = GraphBuilder::new()
        .normalize_node_weights(true)
        .allow_self_loops(true);
    for w in [3.0, 1.0, 4.0, 1.0, 5.0] {
        b.add_node(w);
    }
    for e in base().edges() {
        b.add_edge(e.source, e.target, e.weight).unwrap();
    }
    b.add_edge(id(1), id(1), 0.5).unwrap();
    b.add_edge(id(3), id(3), 0.25).unwrap();
    b.build().unwrap()
}

fn loop_error(r: &Result<PreferenceGraph, GraphError>) -> Option<ItemId> {
    match r {
        Err(GraphError::SelfLoopDisallowed { node }) => Some(*node),
        _ => None,
    }
}

#[test]
fn a_self_loop_in_the_base_fails_every_delta_that_keeps_it() {
    let g = looped();
    // The smallest surviving loop is the one reported, even for an empty
    // batch.
    assert_eq!(loop_error(&check(&g, &GraphDelta::new())), Some(id(1)));
    assert_eq!(
        loop_error(&check(&g, &batch(vec![remove(1, 1)]))),
        Some(id(3))
    );
    assert_eq!(loop_error(&check(&g, &batch(vec![delist(1)]))), Some(id(3)));
    assert!(check(&g, &batch(vec![remove(1, 1), remove(3, 3)])).is_ok());
    assert!(check(&g, &batch(vec![delist(3), remove(1, 1)])).is_ok());
    assert!(check(&g, &batch(vec![delist(1), delist(3)])).is_ok());
    // A removal that leaves both loops in place.
    assert_eq!(
        loop_error(&check(&g, &batch(vec![remove(0, 1)]))),
        Some(id(1))
    );
}

#[test]
fn a_zero_node_base_fails_unless_the_batch_adds_a_node() {
    let empty = PreferenceGraph::from_csr_parts(
        CsrParts {
            out_offsets: vec![0],
            in_offsets: vec![0],
            ..CsrParts::default()
        },
        None,
    )
    .unwrap();
    assert!(matches!(
        check(&empty, &GraphDelta::new()),
        Err(GraphError::EmptyGraph)
    ));
    assert!(matches!(
        check(&empty, &batch(vec![delist(0)])),
        Err(GraphError::UnknownNode { .. })
    ));
    let grown = check(
        &empty,
        &batch(vec![
            Change::AddNode {
                weight: 2.0,
                label: None,
            },
            Change::AddNode {
                weight: 6.0,
                label: Some("b".into()),
            },
            upsert(1, 0, 0.5),
        ]),
    )
    .unwrap();
    assert_eq!(grown.node_count(), 2);
    assert_eq!(grown.label(id(0)), Some(""));
}

#[test]
fn the_last_edit_to_a_pair_wins() {
    let g = base();
    // On an existing edge (0→1) and on an absent one (3→0).
    for (s, t) in [(0, 1), (3, 0)] {
        let gone = check(&g, &batch(vec![upsert(s, t, 0.5), remove(s, t)])).unwrap();
        assert_eq!(gone.edge_weight(id(s), id(t)), None);
        let back = check(&g, &batch(vec![remove(s, t), upsert(s, t, 0.5)])).unwrap();
        assert_eq!(back.edge_weight(id(s), id(t)), Some(0.5));
        let twice = check(&g, &batch(vec![upsert(s, t, 0.5), upsert(s, t, 0.25)])).unwrap();
        assert_eq!(twice.edge_weight(id(s), id(t)), Some(0.25));
    }
    // Interleaved with edits to other pairs of the same row.
    check(
        &g,
        &batch(vec![
            upsert(1, 0, 0.5),
            remove(1, 2),
            upsert(1, 4, 0.5),
            upsert(1, 0, 0.75),
            upsert(1, 2, 0.5),
            remove(1, 4),
        ]),
    )
    .unwrap();
}

#[test]
fn a_delist_drops_edges_whatever_the_batch_does_around_it() {
    let g = base();
    // Upserts after the delist, from and into the delisted node.
    let r = check(
        &g,
        &batch(vec![delist(2), upsert(2, 4, 0.5), upsert(3, 2, 0.5)]),
    )
    .unwrap();
    assert_eq!(r.in_degree(id(2)) + r.out_degree(id(2)), 0);
    // A weight set after the delist survives, the edges do not.
    let r = check(
        &g,
        &batch(vec![
            delist(2),
            Change::SetNodeWeight {
                node: id(2),
                weight: 0.5,
            },
        ]),
    )
    .unwrap();
    assert!(r.node_weight(id(2)) > 0.0);
    assert_eq!(r.in_degree(id(2)) + r.out_degree(id(2)), 0);
    // A delisted node that only receives edges from unedited rows.
    check(&g, &batch(vec![delist(4), upsert(1, 0, 0.5)])).unwrap();
}

#[test]
fn edges_may_touch_nodes_added_earlier_in_the_batch() {
    let g = base();
    let r = check(
        &g,
        &batch(vec![
            Change::AddNode {
                weight: 0.5,
                label: None,
            },
            upsert(5, 0, 0.5),
            upsert(2, 5, 0.25),
            Change::AddNode {
                weight: 0.5,
                label: None,
            },
            upsert(6, 5, 1.0),
            remove(2, 5),
        ]),
    )
    .unwrap();
    assert_eq!(r.node_count(), 7);
    assert_eq!(r.in_edges(id(5)).collect::<Vec<_>>(), vec![(id(6), 1.0)]);
    // An edge to a node the batch only adds later does not validate.
    assert!(matches!(
        check(
            &g,
            &batch(vec![
                upsert(5, 0, 0.5),
                Change::AddNode {
                    weight: 0.5,
                    label: None,
                },
            ])
        ),
        Err(GraphError::UnknownNode { .. })
    ));
}

#[test]
fn labels_follow_the_added_nodes() {
    let plain = base();
    let add = |label: Option<&str>| {
        batch(vec![Change::AddNode {
            weight: 1.0,
            label: label.map(str::to_owned),
        }])
    };
    // A labelled node on an unlabelled base labels every earlier node "".
    let r = check(&plain, &add(Some("new"))).unwrap();
    assert_eq!(r.label(id(0)), Some(""));
    assert_eq!(r.label(id(5)), Some("new"));
    assert!(!check(&plain, &add(None)).unwrap().has_labels());

    let mut b = GraphBuilder::new().normalize_node_weights(true);
    for (i, w) in [1.0, 2.0, 3.0].into_iter().enumerate() {
        b.add_node_labeled(w, format!("item-{i}"));
    }
    b.add_edge(id(0), id(2), 0.5).unwrap();
    let labelled = b.build().unwrap();
    let r = check(&labelled, &add(None)).unwrap();
    assert_eq!(r.label(id(3)), Some(""));
    check(&labelled, &add(Some("x"))).unwrap();
    check(&labelled, &batch(vec![delist(1)])).unwrap();
}

#[test]
fn removing_an_absent_edge_changes_nothing() {
    let g = base();
    let r = check(&g, &batch(vec![remove(3, 0), remove(0, 4)])).unwrap();
    assert_eq!(r, g);
}

#[test]
fn an_invalid_change_after_valid_ones_fails_the_batch() {
    let g = base();
    let valid = vec![upsert(0, 3, 0.5), remove(1, 2), delist(4)];
    for bad in [
        upsert(0, 9, 0.5),
        upsert(9, 0, 0.5),
        upsert(0, 3, 1.5),
        upsert(0, 3, 0.0),
        upsert(2, 2, 0.5),
        remove(0, 7),
        delist(5),
        Change::SetNodeWeight {
            node: id(1),
            weight: -1.0,
        },
        Change::SetNodeWeight {
            node: id(1),
            weight: f64::NAN,
        },
        Change::AddNode {
            weight: f64::INFINITY,
            label: None,
        },
    ] {
        let mut changes = valid.clone();
        changes.push(bad);
        // A later invalid change must not mask the first one either.
        changes.push(upsert(0, 8, 2.0));
        assert!(check(&g, &batch(changes)).is_err());
    }
}

/// A random base graph: `n` nodes with positive raw weights, random edges,
/// optional labels and, in one case of eight, self-loops.
fn arb_base() -> impl Strategy<Value = PreferenceGraph> {
    (1usize..=40, any::<bool>(), 0u8..8)
        .prop_flat_map(|(n, labelled, loops)| {
            let weights = proptest::collection::vec(1u32..1000, n);
            let edges = proptest::collection::vec((0..n, 0..n, 0.01f64..=1.0), 0..=(n * 4));
            (Just(labelled), Just(loops == 0), weights, edges)
        })
        .prop_map(|(labelled, loops, weights, edges)| {
            let mut b = GraphBuilder::new()
                .normalize_node_weights(true)
                .allow_self_loops(loops)
                .duplicate_edge_policy(DuplicateEdgePolicy::Max);
            for (i, w) in weights.iter().enumerate() {
                if labelled {
                    b.add_node_labeled(f64::from(*w), format!("n{i}"));
                } else {
                    b.add_node(f64::from(*w));
                }
            }
            for (s, t, w) in edges {
                if s != t || loops {
                    b.add_edge(id(s), id(t), w).unwrap();
                }
            }
            b.build().unwrap()
        })
}

/// A random batch of 0..=30 changes of all five kinds against an `n`-node
/// base. Ids range up to `n + slack` with `slack` in 0..=3, so some
/// batches only touch known nodes and others name unknown ones; one weight
/// in 32 is out of its domain.
fn arb_delta(n: usize) -> impl Strategy<Value = GraphDelta> {
    (0usize..=3).prop_flat_map(move |slack| {
        let change = (0u8..5, 0..n + slack, 0..n + slack, 0.0f64..1.0, 0u8..32);
        proptest::collection::vec(change, 0..=30).prop_map(|raw| {
            let changes = raw
                .into_iter()
                .map(|(kind, a, b, w, bad)| {
                    let w = if bad == 0 { -w - 0.5 } else { w };
                    match kind {
                        0 => Change::SetNodeWeight {
                            node: id(a),
                            weight: 2.0 * w,
                        },
                        1 => Change::AddNode {
                            weight: w,
                            label: (b % 2 == 0).then(|| format!("added-{a}")),
                        },
                        2 => upsert(a, b, if bad == 0 { 1.5 } else { 1.0 - w }),
                        3 => remove(a, b),
                        _ => delist(a),
                    }
                })
                .collect();
            batch(changes)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn apply_matches_the_rebuild_on_random_batches(
        (g, delta) in arb_base().prop_flat_map(|g| {
            let n = g.node_count();
            (Just(g), arb_delta(n))
        }),
        mapped in any::<bool>(),
    ) {
        let g = if mapped { external(&g) } else { g };
        assert_agrees(&g, &delta);
    }
}

/// The random batches are not vacuous: a fixed sample mixes successes and
/// failures of every kind the merge distinguishes.
#[test]
fn random_batches_cover_success_and_failure() {
    let mut rng = proptest::rng_for_test("random_batches_cover_success_and_failure");
    let (mut ok, mut err, mut delisting) = (0, 0, 0);
    for _ in 0..512 {
        let g = arb_base().generate(&mut rng);
        let delta = arb_delta(g.node_count()).generate(&mut rng);
        if assert_agrees(&g, &delta) {
            ok += 1;
            delisting += usize::from(
                delta
                    .changes
                    .iter()
                    .any(|c| matches!(c, Change::Delist { .. })),
            );
        } else {
            err += 1;
        }
    }
    assert!(ok >= 100 && err >= 100, "{ok} ok, {err} failed");
    assert!(delisting >= 50, "{delisting} successful batches delist");
}
