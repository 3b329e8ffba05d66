//! Cross-format persistence: a graph survives every serialization format
//! with solve-identical results, and reports survive JSON.

#![allow(clippy::unwrap_used)] // integration tests: panicking on setup failure is the right behavior

use pcover_store::{read_graph, write_graph, OpenMode, WriteOptions};
use preference_cover::graph::delta::{apply, Change, GraphDelta};
use preference_cover::graph::io::{csv, json, LoadOptions};
use preference_cover::prelude::*;
use preference_cover::solver::WarmState;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pcover-persistence").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_graph() -> PreferenceGraph {
    generate_graph(&GraphGenConfig {
        nodes: 400,
        avg_out_degree: 4,
        seed: 77,
        ..GraphGenConfig::default()
    })
    .unwrap()
}

#[test]
fn solve_results_identical_across_formats() {
    let g = test_graph();
    let reference = lazy::solve::<Independent>(&g, 40).unwrap();

    let dir = tmpdir("formats");
    let json_path = dir.join("g.json");
    let pcov_path = dir.join("g.pcov");
    let csv_dir = dir.join("csv");
    json::write_json(&g, &json_path).unwrap();
    write_graph(&g, &pcov_path, WriteOptions::default()).unwrap();
    csv::write_csv(&g, &csv_dir).unwrap();

    let opts = LoadOptions::default();
    for (label, loaded) in [
        ("json", json::read_json(&json_path, &opts).unwrap()),
        ("pcov", read_graph(&pcov_path, OpenMode::Auto).unwrap().0),
        ("csv", csv::read_csv(&csv_dir, &opts).unwrap()),
    ] {
        assert_eq!(loaded, g, "{label} roundtrip changed the graph");
        let r = lazy::solve::<Independent>(&loaded, 40).unwrap();
        assert_eq!(r.order, reference.order, "{label} changed the solution");
        assert!((r.cover - reference.cover).abs() < 1e-12);
    }
}

/// Every registered solver, on every variant it supports, gives the owned
/// graph's answer bit for bit when the graph is read from a container
/// through the mmap backing and through the pread backing; warm-capable
/// solvers also repair a one-edge delta of each backing to the owned
/// graph's repair.
#[test]
fn every_solver_answers_alike_on_every_backing() {
    // Small enough for brute force, with out-weight sums at most 1 so the
    // Normalized-only solvers accept it.
    let g = generate_graph(&GraphGenConfig {
        nodes: 60,
        avg_out_degree: 3,
        normalized: true,
        seed: 23,
        ..GraphGenConfig::default()
    })
    .unwrap();
    let path = tmpdir("backings").join("g.pcov");
    write_graph(&g, &path, WriteOptions::default()).unwrap();
    let backings = [
        ("mmap", read_graph(&path, OpenMode::Mmap).unwrap().0),
        ("pread", read_graph(&path, OpenMode::Pread).unwrap().0),
    ];
    assert!(backings[0].1.is_externally_backed());
    let (source, target) = g
        .node_ids()
        .find_map(|v| g.out_edges(v).next().map(|(t, _)| (v, t)))
        .unwrap();
    let delta = GraphDelta::new().push(Change::UpsertEdge {
        source,
        target,
        weight: 0.125,
    });
    let touched = delta.touched_nodes(&g);

    let k = 3;
    let ctx = || SolveCtx::new(SolverConfig::default());
    for spec in Registry::builtin().specs() {
        for variant in [Variant::Independent, Variant::Normalized] {
            if !spec.caps.variants.supports(variant) {
                continue;
            }
            let owned = spec.solve(variant, &g, k, &mut ctx()).unwrap();
            let repair = |base: &PreferenceGraph| {
                let warm = WarmState::capture_variant(variant, base, &owned.order);
                let edited = apply(base, &delta).unwrap();
                spec.solve_warm(variant, &edited, k, &touched, &warm, &mut ctx())
                    .unwrap()
                    .report
            };
            let owned_repair = spec.supports_warm_start().then(|| repair(&g));
            for (backing, loaded) in &backings {
                let label = format!("{}/{variant:?} on {backing}", spec.name);
                let report = spec.solve(variant, loaded, k, &mut ctx()).unwrap();
                assert!(report.bit_identical_to(&owned), "{label}: solve differs");
                if let Some(owned_repair) = &owned_repair {
                    assert!(
                        repair(loaded).bit_identical_to(owned_repair),
                        "{label}: warm repair differs"
                    );
                }
            }
        }
    }
}

#[test]
fn solve_report_json_roundtrip() {
    let g = test_graph();
    let r = greedy::solve::<Normalized>(&g, 10).unwrap();
    let json = serde_json::to_string(&r).unwrap();
    let back: SolveReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.order, r.order);
    assert_eq!(back.trajectory, r.trajectory);
    // Bit-exact: JSON roundtrip of an f64 must be lossless.
    assert_eq!(back.cover.to_bits(), r.cover.to_bits());
    assert_eq!(back.variant, r.variant);
}

#[test]
fn clickstream_jsonl_roundtrip_preserves_adaptation() {
    let (catalog_cfg, session_cfg) = DatasetProfile::YC.configs(Scale::Fraction(0.002), 3);
    let (_, sessions) = generate_clickstream(&catalog_cfg, &session_cfg);
    let dir = tmpdir("clickstream");
    let path = dir.join("cs.jsonl");
    preference_cover::clickstream::io::write_jsonl(&sessions, &path).unwrap();
    let back = preference_cover::clickstream::io::read_jsonl(&path).unwrap();
    assert_eq!(back, sessions);

    let a = adapt(&sessions, &AdaptOptions::default()).unwrap();
    let b = adapt(&back, &AdaptOptions::default()).unwrap();
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.external_ids, b.external_ids);
}
