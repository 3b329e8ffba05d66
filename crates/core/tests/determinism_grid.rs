//! Determinism regression grid: the dynamic counterpart of the static
//! `par-argmax`/`par-float-accum` audit rules.
//!
//! For a grid of seeds × cover model (IPC, NPC) × budget `k`, the parallel
//! solver (across several thread counts), lazy greedy, and the delta solver
//! (cold, and as a warm repair after a graph delta) must
//! return **bit-identical** output to sequential greedy: same retained set
//! in the same selection order, the same cover to the last mantissa bit,
//! and the same per-step trajectory. Any drift — a changed tie-break, a
//! reordered float reduction — fails here even when it is far below any
//! tolerance, because the paper's parallelization claim (Section 4.2) is
//! *identical* output, not *approximately equal* output.
//!
//! Random weights almost never tie exactly, so a separate all-ties shape
//! (uniform rings) pins the tie-break itself: equal gains must go to the
//! smaller id in every solver, as `float::improves_argmax` orders them.

use rand::{RngExt, SeedableRng};

use pcover_core::{
    delta, greedy, lazy, parallel, CoverModel, Independent, Normalized, SolveCtx, SolveReport,
    WarmState,
};
use pcover_graph::delta::{apply, Change, GraphDelta};
use pcover_graph::{DuplicateEdgePolicy, GraphBuilder, ItemId, PreferenceGraph};

const SEEDS: [u64; 4] = [0, 1, 7, 42];
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// One connected-ish random graph: every node gets a few out-edges.
fn random_graph(n: usize, seed: u64) -> PreferenceGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new()
        .normalize_node_weights(true)
        .duplicate_edge_policy(DuplicateEdgePolicy::Max);
    let ids: Vec<ItemId> = (0..n)
        .map(|_| b.add_node(rng.random_range(1.0..50.0)))
        .collect();
    for &v in &ids {
        for _ in 0..3 {
            let u = ids[rng.random_range(0..n)];
            if u != v {
                b.add_edge(v, u, rng.random_range(0.05..0.95))
                    .expect("edge endpoints exist");
            }
        }
    }
    b.build().expect("valid graph")
}

/// A graph of disjoint clusters: picks from independent components must
/// interleave into exactly the global greedy order.
fn clustered_graph(clusters: usize, cluster_size: usize, seed: u64) -> PreferenceGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new()
        .normalize_node_weights(true)
        .duplicate_edge_policy(DuplicateEdgePolicy::Max);
    let ids: Vec<ItemId> = (0..clusters * cluster_size)
        .map(|_| b.add_node(rng.random_range(1.0..50.0)))
        .collect();
    for c in 0..clusters {
        let base = c * cluster_size;
        for i in 0..cluster_size {
            for _ in 0..2 {
                let j = rng.random_range(0..cluster_size);
                if i != j {
                    b.add_edge(ids[base + i], ids[base + j], rng.random_range(0.05..0.95))
                        .expect("edge endpoints exist");
                }
            }
        }
    }
    b.build().expect("valid graph")
}

/// Bit-identity assertion between two solve reports. `assert_eq!` on the
/// raw bit patterns, so -0.0 vs 0.0 or a 1-ulp drift fails loudly with the
/// offending context in the message.
fn assert_bit_identical(seq: &SolveReport, other: &SolveReport, ctx: &str) {
    assert_eq!(seq.order, other.order, "retained set drifted: {ctx}");
    assert_eq!(
        seq.cover.to_bits(),
        other.cover.to_bits(),
        "cover not bit-identical ({} vs {}): {ctx}",
        seq.cover,
        other.cover
    );
    let seq_traj: Vec<u64> = seq.trajectory.iter().map(|c| c.to_bits()).collect();
    let other_traj: Vec<u64> = other.trajectory.iter().map(|c| c.to_bits()).collect();
    assert_eq!(seq_traj, other_traj, "trajectory drifted: {ctx}");
}

fn run_grid<M: CoverModel>(model_name: &str, g: &PreferenceGraph, graph_name: &str) {
    let n = g.node_count();
    for k in [1, 2, n / 4, n / 2, n] {
        let k = k.max(1);
        let seq = greedy::solve::<M>(g, k).expect("sequential greedy");
        for threads in THREADS {
            let (par, _) = parallel::solve::<M>(g, k, threads).expect("parallel greedy");
            assert_bit_identical(
                &seq,
                &par,
                &format!("{graph_name} {model_name} k={k} threads={threads}"),
            );
        }
        let lz = lazy::solve::<M>(g, k).expect("lazy greedy");
        assert_bit_identical(&seq, &lz, &format!("{graph_name} {model_name} k={k} lazy"));
        let del = delta::solve::<M>(g, k).expect("delta greedy");
        assert_bit_identical(
            &seq,
            &del,
            &format!("{graph_name} {model_name} k={k} delta"),
        );
    }
}

/// A deterministic perturbation of `g`: edge reweights, and (when
/// `edge_only` is false) node reweights that force a full renormalization —
/// the worst case for the warm dirty set, since every weight drifts.
fn perturbing_delta(g: &PreferenceGraph, changes: usize, seed: u64, edge_only: bool) -> GraphDelta {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
    let n = g.node_count();
    let mut delta = GraphDelta::new();
    for i in 0..changes {
        let v = ItemId::from_index(rng.random_range(0..n));
        if edge_only || i % 2 == 0 {
            let mut u = ItemId::from_index(rng.random_range(0..n));
            if u == v {
                u = ItemId::from_index((v.index() + 1) % n);
            }
            delta = delta.push(Change::UpsertEdge {
                source: v,
                target: u,
                weight: rng.random_range(0.05..0.95),
            });
        } else {
            delta = delta.push(Change::SetNodeWeight {
                node: v,
                weight: rng.random_range(1.0..50.0),
            });
        }
    }
    delta
}

/// The warm axis: for every budget, a warm re-solve seeded from the
/// pre-delta solution must be bit-identical to a cold delta-greedy solve of
/// the post-delta graph, with every round accounted as reused or repaired.
fn run_warm_grid<M: CoverModel>(
    model_name: &str,
    g: &PreferenceGraph,
    graph_delta: &GraphDelta,
    edge_only: bool,
    ctx_name: &str,
) {
    let g2 = apply(g, graph_delta).expect("delta applies");
    let touched = graph_delta.touched_nodes(g);
    let n = g2.node_count();
    for k in [1, 2, n / 4, n / 2, n] {
        let k = k.max(1);
        let before = delta::solve::<M>(g, k).expect("cold pre-delta solve");
        let warm_state = WarmState::capture::<M>(g, &before.order);
        let cold = delta::solve::<M>(&g2, k).expect("cold post-delta solve");
        let mut ctx = SolveCtx::default();
        let warm = delta::resolve_warm::<M>(&g2, k, &touched, &warm_state, &mut ctx)
            .expect("warm re-solve");
        let label = format!("{ctx_name} {model_name} k={k} warm-vs-cold");
        assert_bit_identical(&cold, &warm.report, &label);
        assert_eq!(
            warm.rounds_reused + warm.rounds_repaired,
            k,
            "round accounting must partition the budget: {label}"
        );
        if edge_only && touched.len() < n {
            // No renormalization → only the touched frontier re-evaluates in
            // round 0, so the warm solve must beat the cold one outright.
            assert!(
                warm.report.gain_evaluations < cold.gain_evaluations,
                "warm {} evals vs cold {}: {label}",
                warm.report.gain_evaluations,
                cold.gain_evaluations
            );
        }
    }
}

/// A directed ring with uniform node and edge weights. Every round-0 gain
/// is the same arithmetic on the same inputs, so all `n` tie exactly, and
/// later rounds keep exact ties among the nodes no selection has reached:
/// the order is decided by the tie-break alone. `n = 1` has no edge (a
/// ring of one would be a self-loop).
fn uniform_ring(n: usize) -> PreferenceGraph {
    let mut b = GraphBuilder::new().normalize_node_weights(true);
    let ids: Vec<ItemId> = (0..n).map(|_| b.add_node(1.0)).collect();
    if n > 1 {
        for (i, &v) in ids.iter().enumerate() {
            b.add_edge(v, ids[(i + 1) % n], 0.5)
                .expect("edge endpoints exist");
        }
    }
    b.build().expect("valid graph")
}

/// The tie axis on one ring: for every `k` in `0..=n`, delta greedy, lazy
/// greedy and the warm repair (nothing touched, and after one edge upsert)
/// must equal plain greedy bit for bit. Lazy's heap keys are upper bounds
/// that an untouched rival meets exactly, so this row pins its tie-break.
fn run_tie_grid<M: CoverModel>(model_name: &str, n: usize) {
    let g = uniform_ring(n);
    // One edge upsert: a chord out of node 0 (for n = 2, a reweight of the
    // ring edge 0 -> 1). Node weights stay bitwise intact, so only the
    // touched frontier is repaired and the rest of the ring keeps its ties.
    let edited = (n > 1).then(|| {
        let delta = GraphDelta::new().push(Change::UpsertEdge {
            source: ItemId::new(0),
            target: ItemId::from_index(n / 2),
            weight: 0.25,
        });
        let g2 = apply(&g, &delta).expect("delta applies");
        (g2, delta.touched_nodes(&g))
    });
    for k in 0..=n {
        let label = format!("ring(n={n}) {model_name} k={k}");
        let seq = greedy::solve::<M>(&g, k).expect("sequential greedy");
        let del = delta::solve::<M>(&g, k).expect("delta greedy");
        assert_bit_identical(&seq, &del, &format!("{label} delta"));
        let lz = lazy::solve::<M>(&g, k).expect("lazy greedy");
        assert_bit_identical(&seq, &lz, &format!("{label} lazy"));
        let warm_state = WarmState::capture::<M>(&g, &seq.order);
        let warm = delta::resolve_warm::<M>(&g, k, &[], &warm_state, &mut SolveCtx::default())
            .expect("warm re-solve, nothing touched");
        assert_bit_identical(&seq, &warm.report, &format!("{label} warm untouched"));
        if let Some((g2, touched)) = &edited {
            let seq2 = greedy::solve::<M>(g2, k).expect("sequential greedy after upsert");
            let warm2 =
                delta::resolve_warm::<M>(g2, k, touched, &warm_state, &mut SolveCtx::default())
                    .expect("warm re-solve after upsert");
            assert_bit_identical(&seq2, &warm2.report, &format!("{label} warm after upsert"));
        }
    }
}

#[test]
fn exact_ties_break_like_greedy_on_uniform_rings() {
    // Non-powers of two and sizes just past one (17, 65) leave the
    // tournament tree unbalanced; 1 and 2 are the degenerate trees.
    for n in [1, 2, 3, 5, 17, 64, 65] {
        run_tie_grid::<Independent>("IPC", n);
        run_tie_grid::<Normalized>("NPC", n);
    }
}

#[test]
fn warm_resolve_matches_cold_across_seeds_models_and_delta_sizes() {
    for seed in SEEDS {
        let g = random_graph(60, seed);
        // Delta sizes: single edge, several edges, and a mixed batch whose
        // node reweights renormalize every weight (full-drift worst case).
        for (dseed, changes, edge_only) in [
            (seed, 1, true),
            (seed + 100, 4, true),
            (seed + 200, 6, false),
        ] {
            let delta = perturbing_delta(&g, changes, dseed, edge_only);
            let ctx = format!("random(seed={seed}) delta(seed={dseed},changes={changes})");
            run_warm_grid::<Independent>("IPC", &g, &delta, edge_only, &ctx);
            run_warm_grid::<Normalized>("NPC", &g, &delta, edge_only, &ctx);
        }
    }
}

#[test]
fn greedy_family_matches_greedy_on_random_graphs() {
    for seed in SEEDS {
        let g = random_graph(60, seed);
        run_grid::<Independent>("IPC", &g, &format!("random(seed={seed})"));
        run_grid::<Normalized>("NPC", &g, &format!("random(seed={seed})"));
    }
}

#[test]
fn greedy_family_matches_greedy_on_clustered_graphs() {
    for seed in SEEDS {
        let g = clustered_graph(6, 10, seed);
        run_grid::<Independent>("IPC", &g, &format!("clustered(seed={seed})"));
        run_grid::<Normalized>("NPC", &g, &format!("clustered(seed={seed})"));
    }
}

#[test]
fn delta_evaluates_strictly_fewer_gains_at_scale() {
    // The point of the dirty set: on every n >= 100 grid point (with k >= 2
    // so at least one round can skip clean candidates), delta must do
    // strictly less gain-evaluation work than plain greedy while staying
    // bit-identical.
    for seed in SEEDS {
        let g = random_graph(120, seed);
        let n = g.node_count();
        for k in [2, n / 4, n / 2, n] {
            let seq = greedy::solve::<Independent>(&g, k).expect("sequential greedy");
            let del = delta::solve::<Independent>(&g, k).expect("delta greedy");
            assert_bit_identical(&seq, &del, &format!("eval-count seed={seed} k={k}"));
            assert!(
                del.gain_evaluations < seq.gain_evaluations,
                "seed={seed} k={k}: delta {} evals vs greedy {}",
                del.gain_evaluations,
                seq.gain_evaluations
            );
        }
    }
}

#[test]
fn thread_count_never_changes_output() {
    // Same graph, same k, every thread count: one canonical answer.
    let g = random_graph(45, 3);
    for k in [5, 20] {
        let (base, _) = parallel::solve::<Normalized>(&g, k, 1).expect("single thread");
        for threads in [2, 4, 5, 16] {
            let (par, _) = parallel::solve::<Normalized>(&g, k, threads).expect("parallel");
            assert_bit_identical(&base, &par, &format!("k={k} threads={threads}"));
        }
    }
}
