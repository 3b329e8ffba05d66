//! Data-path benchmarks: session generation, graph adaptation (the
//! offline phase the paper excludes from solver timings) and graph IO.

#![allow(clippy::unwrap_used)] // bench harness: panicking on setup failure is the right behavior

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pcover_adapt::{adapt, AdaptOptions};
use pcover_core::Variant;
use pcover_datagen::profiles::{DatasetProfile, Scale};
use pcover_datagen::sessions::generate_clickstream;
use pcover_graph::io::{json, LoadOptions};

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

fn bench_graph_io(c: &mut Criterion) {
    let adapted = {
        let (catalog_cfg, session_cfg) = DatasetProfile::YC.configs(Scale::Fraction(0.02), 4);
        let (_, sessions) = generate_clickstream(&catalog_cfg, &session_cfg);
        adapt(
            &sessions,
            &AdaptOptions {
                variant: Variant::Independent,
                label_nodes: false,
                min_edge_support: 1,
            },
        )
        .unwrap()
    };
    let g = adapted.graph;
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_generate_and_adapt, bench_graph_io
}
criterion_main!(benches);
