//! Ablation benchmarks for the design decisions called out in DESIGN.md:
//!
//! * **Lazy vs plain greedy across k** — how much of the scalability comes
//!   from lazy evaluation (the paper's plain scheme is `O(nkD)`; lazy does
//!   a heap-guided fraction of that work for identical results).
//! * **Incremental `I` array vs from-scratch gains** — the paper's §3.2
//!   space trade-off: dropping the `I` array saves `O(n)` memory but
//!   recomputes each node's current cover inside every gain call.
//! * **Dual-CSR vs on-the-fly in-edge scan** — the reason the graph stores
//!   both adjacency directions.

#![allow(clippy::unwrap_used)] // bench harness: panicking on setup failure is the right behavior

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pcover_core::{cover_value, greedy, lazy, CoverState, Independent};
use pcover_datagen::graphgen::{generate_graph, GraphGenConfig};
use pcover_graph::{ItemId, PreferenceGraph};

fn test_graph(n: usize) -> PreferenceGraph {
    generate_graph(&GraphGenConfig {
        nodes: n,
        avg_out_degree: 5,
        seed: 5,
        ..GraphGenConfig::default()
    })
    .expect("valid config")
}

fn bench_lazy_vs_plain(c: &mut Criterion) {
    let g = test_graph(4_000);
    let mut group = c.benchmark_group("lazy_vs_plain");
    for k in [20usize, 100, 400] {
        group.bench_function(&format!("plain_k{k}"), |b| {
            b.iter(|| black_box(greedy::solve::<Independent>(&g, k).unwrap().cover))
        });
        group.bench_function(&format!("lazy_k{k}"), |b| {
            b.iter(|| black_box(lazy::solve::<Independent>(&g, k).unwrap().cover))
        });
    }
    group.finish();
}

/// The O(k)-space alternative of §3.2: no `I` array; each gain call
/// recomputes the candidate's own current cover from its out-edges and the
/// retained mask. (In-neighbor terms still need *their* covers, so this
/// variant is only exact for the Normalized formula; for the benchmarked
/// Independent marginal we emulate the recomputation cost with
/// `cover_value`-style scans.)
fn gain_without_i_array(g: &PreferenceGraph, selected: &[bool], v: ItemId) -> f64 {
    // Recompute I[v] from scratch.
    let own_cover = {
        let matched: f64 = 1.0
            - g.out_edges(v)
                .filter(|&(u, _)| u != v && selected[u.index()])
                .map(|(_, w)| 1.0 - w)
                .product::<f64>();
        g.node_weight(v) * matched
    };
    let mut gain = g.node_weight(v) - own_cover;
    for (u, w) in g.in_edges(v) {
        if u != v && !selected[u.index()] {
            let iu = {
                let matched: f64 = 1.0
                    - g.out_edges(u)
                        .filter(|&(x, _)| x != u && selected[x.index()])
                        .map(|(_, w)| 1.0 - w)
                        .product::<f64>();
                g.node_weight(u) * matched
            };
            gain += w * (g.node_weight(u) - iu);
        }
    }
    gain
}

fn bench_i_array_ablation(c: &mut Criterion) {
    let g = test_graph(4_000);
    // Mid-run state: 10% retained.
    let mut state = CoverState::new(g.node_count());
    for i in (0..g.node_count()).step_by(10) {
        state.add_node::<Independent>(&g, ItemId::from_index(i));
    }
    let mask: Vec<bool> = g.node_ids().map(|v| state.contains(v)).collect();

    let mut group = c.benchmark_group("i_array_ablation");
    group.bench_function("with_i_array", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in (1..2000).step_by(3) {
                acc += state.gain::<Independent>(&g, ItemId::from_index(i));
            }
            black_box(acc)
        })
    });
    group.bench_function("recompute_from_scratch", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in (1..2000).step_by(3) {
                acc += gain_without_i_array(&g, &mask, ItemId::from_index(i));
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Cover evaluation with only out-CSR (what gain computation would cost if
/// the graph stored a single direction and in-edges had to be found by
/// scanning all nodes' out-rows).
fn bench_dual_csr_ablation(c: &mut Criterion) {
    let g = test_graph(2_000);
    let selected: Vec<bool> = (0..g.node_count()).map(|i| i % 7 == 0).collect();

    let mut group = c.benchmark_group("dual_csr_ablation");
    group.bench_function("in_edges_via_in_csr", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for v in g.node_ids() {
                for (u, w) in g.in_edges(v) {
                    if !selected[u.index()] {
                        acc += w;
                    }
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("in_edges_via_full_scan", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for v in g.node_ids() {
                for u in g.node_ids() {
                    if let Some(w) = g.edge_weight(u, v) {
                        if !selected[u.index()] {
                            acc += w;
                        }
                    }
                }
            }
            black_box(acc)
        })
    });
    group.finish();

    // Correctness guard for the ablation itself.
    let direct = cover_value::<Independent>(&g, &selected);
    assert!(direct.is_finite());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_lazy_vs_plain, bench_i_array_ablation, bench_dual_csr_ablation
}
criterion_main!(benches);
