//! Whole-pipeline determinism: identical seeds must yield byte-identical
//! artifacts at every stage — generation, adaptation, solving, reports.
//! Experiment reproducibility (EXPERIMENTS.md) rests on this.

#![allow(clippy::unwrap_used)] // integration tests: panicking on setup failure is the right behavior

use preference_cover::graph::io::json;
use preference_cover::prelude::*;

fn run_pipeline(seed: u64) -> (String, Vec<ItemId>, Vec<f64>) {
    let (catalog_cfg, session_cfg) = DatasetProfile::PE.configs(Scale::Fraction(0.002), seed);
    let (_, sessions) = generate_clickstream(&catalog_cfg, &session_cfg);
    let adapted = adapt(
        &sessions,
        &AdaptOptions {
            variant: Variant::Independent,
            label_nodes: false,
            min_edge_support: 1,
        },
    )
    .unwrap();
    let graph_json = json::to_json_string(&adapted.graph);
    let report = lazy::solve::<Independent>(&adapted.graph, 100).unwrap();
    (graph_json, report.order, report.trajectory)
}

#[test]
fn same_seed_same_everything() {
    let (ga, oa, ta) = run_pipeline(77);
    let (gb, ob, tb) = run_pipeline(77);
    assert_eq!(ga, gb, "graph JSON diverged");
    assert_eq!(oa, ob, "selection order diverged");
    assert_eq!(ta, tb, "trajectory diverged");
}

#[test]
fn different_seed_different_data() {
    let (ga, ..) = run_pipeline(77);
    let (gb, ..) = run_pipeline(78);
    assert_ne!(ga, gb, "seeds should produce different datasets");
}

#[test]
fn all_solvers_are_internally_deterministic() {
    let g = generate_graph(&GraphGenConfig {
        nodes: 500,
        seed: 5,
        ..GraphGenConfig::default()
    })
    .unwrap();
    let k = 50;

    let runs = |n: usize| -> Vec<Vec<Vec<ItemId>>> {
        (0..n)
            .map(|_| {
                vec![
                    greedy::solve::<Independent>(&g, k).unwrap().order,
                    lazy::solve::<Independent>(&g, k).unwrap().order,
                    parallel::solve::<Independent>(&g, k, 3).unwrap().0.order,
                    stochastic::solve::<Independent>(
                        &g,
                        k,
                        &preference_cover::solver::stochastic::StochasticOptions::default(),
                    )
                    .unwrap()
                    .order,
                    streaming::solve::<Independent>(&g, k, &Default::default())
                        .unwrap()
                        .order,
                    baselines::random::<Independent>(&g, k, 9).unwrap().order,
                ]
            })
            .collect()
    };
    let two = runs(2);
    assert_eq!(two[0], two[1], "some solver is nondeterministic");
}
