//! Data-path benchmarks: session generation, graph adaptation (the
//! offline phase the paper excludes from solver timings), graph IO and
//! catalog deltas.

#![allow(clippy::unwrap_used)] // bench harness: panicking on setup failure is the right behavior

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pcover_adapt::{adapt, AdaptOptions};
use pcover_core::Variant;
use pcover_datagen::profiles::{DatasetProfile, Scale};
use pcover_datagen::sessions::generate_clickstream;
use pcover_graph::delta::{apply, Change, GraphDelta};
use pcover_graph::io::{json, LoadOptions};
use pcover_graph::{ItemId, PreferenceGraph};

fn bench_generate_and_adapt(c: &mut Criterion) {
    let (catalog_cfg, session_cfg) = DatasetProfile::YC.configs(Scale::Fraction(0.02), 4);
    let (_, sessions) = generate_clickstream(&catalog_cfg, &session_cfg);

    let mut group = c.benchmark_group("pipeline");
    group.bench_function("generate_yc_2pct", |b| {
        b.iter(|| black_box(generate_clickstream(&catalog_cfg, &session_cfg).1.len()))
    });
    group.bench_function("adapt_independent", |b| {
        b.iter(|| {
            black_box(
                adapt(
                    &sessions,
                    &AdaptOptions {
                        variant: Variant::Independent,
                        label_nodes: false,
                        min_edge_support: 1,
                    },
                )
                .unwrap()
                .graph
                .edge_count(),
            )
        })
    });
    group.bench_function("adapt_normalized", |b| {
        b.iter(|| {
            black_box(
                adapt(
                    &sessions,
                    &AdaptOptions {
                        variant: Variant::Normalized,
                        label_nodes: false,
                        min_edge_support: 1,
                    },
                )
                .unwrap()
                .graph
                .edge_count(),
            )
        })
    });
    group.finish();
}

/// The Independent-variant graph adapted from the YC 2 % clickstream.
fn yc_2pct_graph(label_nodes: bool) -> PreferenceGraph {
    let (catalog_cfg, session_cfg) = DatasetProfile::YC.configs(Scale::Fraction(0.02), 4);
    let (_, sessions) = generate_clickstream(&catalog_cfg, &session_cfg);
    adapt(
        &sessions,
        &AdaptOptions {
            variant: Variant::Independent,
            label_nodes,
            min_edge_support: 1,
        },
    )
    .unwrap()
    .graph
}

fn bench_graph_io(c: &mut Criterion) {
    let g = yc_2pct_graph(false);
    let dir = std::env::temp_dir().join("pcover-bench-io");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("bench.json");
    json::write_json(&g, &json_path).unwrap();

    let mut group = c.benchmark_group("graph_io");
    group.bench_function("write_json", |b| {
        b.iter(|| json::write_json(&g, &json_path).unwrap())
    });
    group.bench_function("read_json", |b| {
        b.iter(|| {
            black_box(
                json::read_json(&json_path, &LoadOptions::default())
                    .unwrap()
                    .edge_count(),
            )
        })
    });
    group.finish();
}

/// A seeded edge delta of one edit per 200 nodes of `g`, each on a random
/// existing edge: one in four removes it, the rest halve its weight.
fn edge_delta(g: &PreferenceGraph, seed: u64) -> GraphDelta {
    // splitmix64: enough randomness to scatter the edits over the rows.
    let mut state = seed;
    let mut below = |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let n = g.node_count();
    let mut delta = GraphDelta::new();
    while delta.len() < (n / 200).max(1) {
        let v = ItemId::from_index(below(n));
        let degree = g.out_degree(v);
        if degree == 0 {
            continue;
        }
        let (target, w) = g.out_edges(v).nth(below(degree)).unwrap();
        delta = delta.push(if below(4) == 0 {
            Change::RemoveEdge { source: v, target }
        } else {
            Change::UpsertEdge {
                source: v,
                target,
                weight: w * 0.5,
            }
        });
    }
    delta
}

/// `delta::apply` as `/admin/delta` runs it: a small edge delta against a
/// labelled catalog graph, with and without a delisted item (a delist
/// also drops the item's edges and renormalizes the node weights). Each
/// iteration also drops the generation it built.
fn bench_graph_delta(c: &mut Criterion) {
    let g = yc_2pct_graph(true);
    let edges = edge_delta(&g, 17);
    let delist = edges.clone().push(Change::Delist {
        node: ItemId::from_index(g.node_count() / 2),
    });

    let mut group = c.benchmark_group("graph_delta");
    group.bench_function("apply_edges", |b| {
        b.iter(|| black_box(apply(&g, &edges).unwrap().edge_count()))
    });
    group.bench_function("apply_edges_delist", |b| {
        b.iter(|| black_box(apply(&g, &delist).unwrap().edge_count()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_generate_and_adapt, bench_graph_io, bench_graph_delta
}
criterion_main!(benches);
