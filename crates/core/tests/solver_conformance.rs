//! Registry-driven conformance suite: every registered solver, under every
//! variant it supports, across several seeds, must satisfy the shared
//! report invariants. Because the suite iterates [`Registry::builtin`]
//! instead of naming solvers, a newly registered solver is covered
//! automatically — and a solver that silently drops out of the registry
//! fails the enum cross-check below. The warm rows do the same for every
//! spec with a warm-start entry point.

use rand::{RngExt, SeedableRng};

use pcover_core::{
    Algorithm, Registry, SolveCtx, SolveError, SolverConfig, SolverSpec, TraceObserver, Variant,
    WarmState,
};
use pcover_graph::delta::{apply, Change, GraphDelta};
use pcover_graph::{GraphBuilder, ItemId, PreferenceGraph};

const SEEDS: [u64; 3] = [0, 7, 42];

/// A random graph valid for *both* variants: out-weight sums stay at most 1
/// (each node gets at most 2 out-edges of weight at most 0.5), so the NPC
/// semantics — and the Theorem 3.1 reduction behind the `maxvc` solver —
/// are exact, while IPC is unrestricted anyway.
fn random_graph(n: usize, seed: u64) -> PreferenceGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new().normalize_node_weights(true);
    let ids: Vec<ItemId> = (0..n)
        .map(|_| b.add_node(rng.random_range(1.0..50.0)))
        .collect();
    for &v in &ids {
        let mut used = std::collections::HashSet::new();
        for _ in 0..rng.random_range(0..3usize) {
            let u = ids[rng.random_range(0..n)];
            if u != v && used.insert(u) {
                b.add_edge(v, u, rng.random_range(0.05..=0.5))
                    .expect("edge endpoints exist");
            }
        }
    }
    b.build().expect("valid graph")
}

#[test]
fn every_solver_satisfies_shared_invariants() {
    let registry = Registry::builtin();
    for seed in SEEDS {
        let g = random_graph(24, seed);
        let k = 6;
        for spec in registry.specs() {
            for variant in [Variant::Independent, Variant::Normalized] {
                let mut ctx = SolveCtx::new(SolverConfig::default());
                let result = spec.solve(variant, &g, k, &mut ctx);
                if !spec.caps.variants.supports(variant) {
                    assert!(
                        matches!(result, Err(SolveError::UnsupportedVariant { .. })),
                        "{}/{variant:?}: expected UnsupportedVariant",
                        spec.name
                    );
                    continue;
                }
                let report = result.unwrap_or_else(|e| {
                    panic!("{}/{variant:?} seed {seed} failed: {e}", spec.name)
                });

                let label = format!("{}/{variant:?} seed {seed}", spec.name);

                // Budget: exactly k, or at most k for solvers that may
                // legitimately under-fill (sieve streaming).
                if spec.caps.fills_budget {
                    assert_eq!(report.order.len(), k, "{label}: order must fill k");
                } else {
                    assert!(report.order.len() <= k, "{label}: order exceeds k");
                }
                assert_eq!(
                    report.order.len(),
                    report.trajectory.len(),
                    "{label}: one trajectory point per selection"
                );
                assert_eq!(report.variant, variant, "{label}: variant tag");
                assert_eq!(report.algorithm, spec.algorithm, "{label}: algorithm tag");

                // Monotonicity: the trajectory never decreases.
                for w in report.trajectory.windows(2) {
                    assert!(w[1] >= w[0] - 1e-12, "{label}: trajectory decreased {w:?}");
                }

                // The I-array accounts for the cover exactly.
                let item_sum = pcover_core::float::sum_stable(report.item_cover.iter().copied());
                assert!(
                    (report.cover - item_sum).abs() <= 1e-9,
                    "{label}: cover {} != item_cover sum {}",
                    report.cover,
                    item_sum
                );

                // Work was measured.
                assert!(
                    report.gain_evaluations > 0,
                    "{label}: no evaluations counted"
                );

                // Determinism: a second run under the same config is
                // bit-identical.
                let mut ctx2 = SolveCtx::new(SolverConfig::default());
                let again = spec
                    .solve(variant, &g, k, &mut ctx2)
                    .unwrap_or_else(|e| panic!("{label}: rerun failed: {e}"));
                assert_eq!(report.order, again.order, "{label}: order drifted");
                assert_eq!(
                    report.cover.to_bits(),
                    again.cover.to_bits(),
                    "{label}: cover drifted"
                );
            }
        }
    }
}

#[test]
fn observer_stream_matches_returned_report_for_every_solver() {
    let registry = Registry::builtin();
    let g = random_graph(24, 1);
    let k = 5;
    for spec in registry.specs() {
        for variant in [Variant::Independent, Variant::Normalized] {
            if !spec.caps.variants.supports(variant) {
                continue;
            }
            let mut trace = TraceObserver::new();
            let mut ctx = SolveCtx::with_observer(SolverConfig::default(), &mut trace);
            let report = spec
                .solve(variant, &g, k, &mut ctx)
                .unwrap_or_else(|e| panic!("{}/{variant:?} failed: {e}", spec.name));
            let items: Vec<ItemId> = trace.events.iter().map(|e| e.item).collect();
            assert_eq!(
                items, report.order,
                "{}/{variant:?}: observer items must mirror the order",
                spec.name
            );
            for (e, (&t, i)) in trace
                .events
                .iter()
                .zip(report.trajectory.iter().zip(0usize..))
            {
                assert_eq!(e.iter, i, "{}: iteration index", spec.name);
                assert!(
                    (e.cover - t).abs() <= 1e-9,
                    "{}/{variant:?}: observed cover {} vs trajectory {}",
                    spec.name,
                    e.cover,
                    t
                );
            }
        }
    }
}

/// An observer whose cancellation flag flips after a fixed number of
/// selections (0 = cancelled from the start).
struct CancelAfter {
    selections: usize,
    after: usize,
}

impl pcover_core::Observer for CancelAfter {
    fn on_select(&mut self, _iter: usize, _item: ItemId, _gain: f64, _cover: f64) {
        self.selections += 1;
    }

    fn cancelled(&mut self) -> bool {
        self.selections >= self.after
    }
}

#[test]
fn every_solver_returns_cancelled_when_cancellation_is_signalled_up_front() {
    let registry = Registry::builtin();
    let g = random_graph(24, 3);
    for spec in registry.specs() {
        for variant in [Variant::Independent, Variant::Normalized] {
            if !spec.caps.variants.supports(variant) {
                continue;
            }
            let mut obs = CancelAfter {
                selections: 0,
                after: 0,
            };
            let mut ctx = SolveCtx::with_observer(SolverConfig::default(), &mut obs);
            let result = spec.solve(variant, &g, 6, &mut ctx);
            assert!(
                matches!(result, Err(SolveError::Cancelled)),
                "{}/{variant:?}: pre-cancelled observer must abort the solve, got {result:?}",
                spec.name
            );
            assert_eq!(
                obs.selections, 0,
                "{}/{variant:?}: no selections may be emitted after cancellation",
                spec.name
            );
        }
    }
}

#[test]
fn live_solvers_abort_mid_solve_when_cancelled_after_first_selection() {
    // The solvers that thread the ctx through their selection loop must
    // notice a cancellation raised *during* the solve, not only on entry.
    let registry = Registry::builtin();
    let g = random_graph(24, 4);
    let k = 6;
    for name in ["greedy", "lazy", "delta", "parallel", "stochastic"] {
        let spec = registry.get(name).unwrap_or_else(|| {
            panic!("{name} must be registered");
        });
        let mut obs = CancelAfter {
            selections: 0,
            after: 1,
        };
        let mut ctx = SolveCtx::with_observer(SolverConfig::default(), &mut obs);
        let result = spec.solve(Variant::Normalized, &g, k, &mut ctx);
        assert!(
            matches!(result, Err(SolveError::Cancelled)),
            "{name}: cancel-after-one-selection must abort mid-solve, got {result:?}"
        );
        assert!(
            obs.selections < k,
            "{name}: solve ran to completion despite cancellation"
        );
        // The same spec solves fine once the flag is withdrawn: the worker
        // (and the registry entry) remain reusable after a cancellation.
        let mut ctx = SolveCtx::new(SolverConfig::default());
        assert!(
            spec.solve(Variant::Normalized, &g, k, &mut ctx).is_ok(),
            "{name}: solver must be reusable after a cancelled run"
        );
    }
}

/// A seeded graph, the same graph after a one-edge upsert, and the upsert's
/// touched frontier. The upsert reweights the first edge to 0.125, so every
/// out-weight sum stays at most 1 and both variants remain exact.
fn upserted(seed: u64) -> (PreferenceGraph, PreferenceGraph, Vec<ItemId>) {
    let g = random_graph(24, seed);
    let (source, target) = g
        .node_ids()
        .find_map(|v| g.out_edges(v).next().map(|(t, _)| (v, t)))
        .expect("the graph has an edge");
    let delta = GraphDelta::new().push(Change::UpsertEdge {
        source,
        target,
        weight: 0.125,
    });
    let g2 = apply(&g, &delta).expect("the upsert applies");
    let touched = delta.touched_nodes(&g);
    assert!(!touched.is_empty(), "the upsert must change the graph");
    (g, g2, touched)
}

/// A warm state for `spec` under `variant`: its own budget-`k` order on the
/// pre-delta graph.
fn warm_state(spec: &SolverSpec, variant: Variant, g: &PreferenceGraph, k: usize) -> WarmState {
    let before = spec
        .solve(variant, g, k, &mut SolveCtx::new(SolverConfig::default()))
        .unwrap_or_else(|e| panic!("{}/{variant:?} k={k} pre-delta solve: {e}", spec.name));
    WarmState::capture_variant(variant, g, &before.order)
}

#[test]
fn every_warm_solver_repairs_bit_identically_and_streams_its_rounds() {
    let registry = Registry::builtin();
    let warm_specs: Vec<_> = registry
        .specs()
        .iter()
        .filter(|s| s.supports_warm_start())
        .collect();
    assert!(!warm_specs.is_empty(), "no warm-capable solver registered");
    for seed in SEEDS {
        let (g, g2, touched) = upserted(seed);
        let n = g2.node_count();
        for spec in &warm_specs {
            for variant in [Variant::Independent, Variant::Normalized] {
                if !spec.caps.variants.supports(variant) {
                    continue;
                }
                for k in [1, n / 4, n] {
                    let label = format!("{}/{variant:?} seed {seed} k={k}", spec.name);
                    let warm = warm_state(spec, variant, &g, k);
                    let cold = spec
                        .solve(variant, &g2, k, &mut SolveCtx::new(SolverConfig::default()))
                        .unwrap_or_else(|e| panic!("{label}: cold solve failed: {e}"));
                    let mut trace = TraceObserver::new();
                    let mut ctx = SolveCtx::with_observer(SolverConfig::default(), &mut trace);
                    let out = spec
                        .solve_warm(variant, &g2, k, &touched, &warm, &mut ctx)
                        .unwrap_or_else(|e| panic!("{label}: repair failed: {e}"));

                    assert!(
                        out.report.bit_identical_to(&cold),
                        "{label}: repair differs from the cold solve"
                    );
                    assert_eq!(
                        out.report.algorithm, spec.algorithm,
                        "{label}: algorithm tag"
                    );
                    assert_eq!(
                        out.rounds_reused + out.rounds_repaired,
                        k,
                        "{label}: reused and repaired rounds must partition k"
                    );

                    let items: Vec<ItemId> = trace.events.iter().map(|e| e.item).collect();
                    assert_eq!(items, out.report.order, "{label}: observed items");
                    let covers: Vec<u64> = trace.events.iter().map(|e| e.cover.to_bits()).collect();
                    let trajectory: Vec<u64> =
                        out.report.trajectory.iter().map(|c| c.to_bits()).collect();
                    assert_eq!(covers, trajectory, "{label}: observed covers");
                    let evals: u64 = trace.rounds.iter().map(|r| r.gain_evaluations).sum();
                    assert_eq!(
                        (trace.rounds.len(), evals),
                        (k, out.report.gain_evaluations),
                        "{label}: one round record per selection, summing to the report's evals"
                    );
                }
            }
        }
    }
}

#[test]
fn every_warm_solver_stops_when_cancelled_and_repairs_afterwards() {
    let registry = Registry::builtin();
    let (g, g2, touched) = upserted(5);
    let n = g2.node_count();
    for spec in registry.specs().iter().filter(|s| s.supports_warm_start()) {
        for variant in [Variant::Independent, Variant::Normalized] {
            if !spec.caps.variants.supports(variant) {
                continue;
            }
            for k in [1, n / 4, n] {
                let warm = warm_state(spec, variant, &g, k);
                // Cancelled up front, and after the first selection when a
                // second round is left to stop (at k = 1 the repair is done).
                for after in (0..2).filter(|&after| after < k) {
                    let label = format!("{}/{variant:?} k={k} cancel after {after}", spec.name);
                    let mut obs = CancelAfter {
                        selections: 0,
                        after,
                    };
                    let mut ctx = SolveCtx::with_observer(SolverConfig::default(), &mut obs);
                    let result = spec.solve_warm(variant, &g2, k, &touched, &warm, &mut ctx);
                    assert!(
                        matches!(result, Err(SolveError::Cancelled)),
                        "{label}: expected Cancelled, got {result:?}"
                    );
                    assert_eq!(
                        obs.selections, after,
                        "{label}: the repair must stop at the first poll after the signal"
                    );
                    let again = spec.solve_warm(
                        variant,
                        &g2,
                        k,
                        &touched,
                        &warm,
                        &mut SolveCtx::new(SolverConfig::default()),
                    );
                    assert!(
                        again.is_ok(),
                        "{label}: the spec must repair after a cancelled run, got {again:?}"
                    );
                }
            }
        }
    }
}

/// One generation of [`every_warm_solver_hands_back_the_captured_state`]'s
/// chain: the delta from the previous graph and the budget solved on it.
fn chain_steps(g: &PreferenceGraph) -> Vec<(&'static str, GraphDelta, usize)> {
    let edge = |v: usize| {
        g.node_ids()
            .skip(v)
            .find_map(|s| g.out_edges(s).next().map(|(t, _)| (s, t)))
            .expect("the graph has an edge")
    };
    let (s1, t1) = edge(0);
    let (s2, t2) = edge(s1.index() + 1);
    let (s3, t3) = edge(s2.index() + 1);
    let n = g.node_count();
    vec![
        (
            "upsert",
            GraphDelta::new().push(Change::UpsertEdge {
                source: s1,
                target: t1,
                weight: 0.125,
            }),
            n / 4,
        ),
        (
            "remove",
            GraphDelta::new().push(Change::RemoveEdge {
                source: s2,
                target: t2,
            }),
            n,
        ),
        (
            "delist",
            GraphDelta::new().push(Change::Delist { node: t3 }),
            n / 4,
        ),
        ("empty", GraphDelta::new(), n / 3),
        (
            "k = 0",
            GraphDelta::new().push(Change::RemoveEdge {
                source: s3,
                target: t3,
            }),
            0,
        ),
        (
            "after k = 0",
            GraphDelta::new().push(Change::UpsertEdge {
                source: s1,
                target: t1,
                weight: 0.25,
            }),
            n / 4,
        ),
        (
            "add node",
            GraphDelta::new()
                .push(Change::AddNode {
                    weight: 30.0,
                    label: None,
                })
                .push(Change::UpsertEdge {
                    source: ItemId::from_index(n),
                    target: s2,
                    weight: 0.5,
                }),
            n / 4,
        ),
        (
            "after add node",
            GraphDelta::new().push(Change::RemoveEdge {
                source: s1,
                target: t1,
            }),
            n / 4,
        ),
    ]
}

/// The state a solve hands back is the state a capture computes: along a
/// chain of generations, each solve starts from the state the previous
/// one handed back (with the touched frontier of every delta since), as
/// the serve memo runs it. At every generation the report equals the cold
/// solve bit for bit, the gain evaluations equal a repair from
/// `capture_variant` of the state's graph, and the handed-back state equals
/// `capture_variant` of the solved graph: gain bits, tree and weights. A
/// k = 0 solve hands back nothing, so the next solve repairs the older
/// state; after an `AddNode` the state is declined and the solve is cold.
#[test]
fn every_warm_solver_hands_back_the_captured_state() {
    let registry = Registry::builtin();
    for seed in SEEDS {
        for spec in registry.specs().iter().filter(|s| s.supports_warm_start()) {
            for variant in [Variant::Independent, Variant::Normalized] {
                if !spec.caps.variants.supports(variant) {
                    continue;
                }
                let ctx = || SolveCtx::new(SolverConfig::default());
                let mut g = random_graph(24, seed);
                let steps = chain_steps(&g);
                // The last handed-back state, the graph it was solved on,
                // and the touched frontier of every delta since.
                let mut held: Option<(WarmState, PreferenceGraph, Vec<ItemId>)> = None;
                for (step, (name, delta, k)) in [("cold", GraphDelta::new(), 6)]
                    .into_iter()
                    .chain(steps)
                    .enumerate()
                {
                    let label =
                        format!("{}/{variant:?} seed {seed} step {step} ({name})", spec.name);
                    if step > 0 {
                        let next = apply(&g, &delta).expect("the chain's deltas apply");
                        if let Some((_, _, touched)) = held.as_mut() {
                            touched.extend(delta.touched_nodes(&g));
                            touched.sort_unstable();
                            touched.dedup();
                        }
                        g = next;
                    }
                    let from = held
                        .as_ref()
                        .filter(|(state, ..)| state.accepts(variant, &g))
                        .map(|(state, _, touched)| (state, touched.as_slice()));
                    let out = spec
                        .solve_handing_back(variant, &g, k, from, &mut ctx())
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let cold = spec
                        .solve(variant, &g, k, &mut ctx())
                        .unwrap_or_else(|e| panic!("{label}: cold solve failed: {e}"));
                    assert!(
                        out.report.bit_identical_to(&cold),
                        "{label}: report differs from the cold solve"
                    );
                    let reference = match from {
                        Some((_, touched)) => {
                            let (state, before, _) = held.as_ref().expect("from a held state");
                            let captured =
                                WarmState::capture_variant(variant, before, state.order());
                            spec.solve_warm(variant, &g, k, touched, &captured, &mut ctx())
                                .unwrap_or_else(|e| panic!("{label}: repair failed: {e}"))
                                .report
                        }
                        None => cold,
                    };
                    assert_eq!(
                        out.report.gain_evaluations, reference.gain_evaluations,
                        "{label}: gain evaluations"
                    );
                    if name == "add node" {
                        assert!(from.is_none(), "{label}: the state must be declined");
                    }
                    if k == 0 {
                        assert!(
                            out.next.is_none(),
                            "{label}: a k = 0 solve hands back nothing"
                        );
                        continue;
                    }
                    let state = out
                        .next
                        .unwrap_or_else(|| panic!("{label}: no state handed back"));
                    assert!(
                        state == WarmState::capture_variant(variant, &g, &out.report.order),
                        "{label}: the handed-back state differs from the capture"
                    );
                    held = Some((state, g.clone(), Vec::new()));
                }
            }
        }
    }
}

#[test]
fn algorithm_enum_and_registry_are_one_to_one() {
    let registry = Registry::builtin();
    // Every enum variant is reachable through a registered solver...
    for algo in Algorithm::ALL {
        assert!(
            registry.specs().iter().any(|s| s.algorithm == algo),
            "{algo:?} has no registered solver"
        );
        assert!(
            registry.get(algo.cli_name()).is_some(),
            "{}: cli name not registered",
            algo.cli_name()
        );
    }
    // ...and every registered solver tags its reports with a listed variant.
    for spec in registry.specs() {
        assert!(
            Algorithm::ALL.contains(&spec.algorithm),
            "{}: algorithm not in Algorithm::ALL",
            spec.name
        );
    }
}

#[test]
fn readme_algorithm_table_is_generated_from_the_registry() {
    let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme_path).expect("workspace README exists");
    let table = Registry::builtin().markdown_table();
    assert!(
        readme.contains(&table),
        "README.md's algorithm table is out of date; regenerate it from \
         Registry::builtin().markdown_table():\n{table}"
    );
}
