//! Workspace integration tests for the beyond-paper extensions, exercised
//! together on realistic generated data.

#![allow(clippy::unwrap_used)] // integration tests: panicking on setup failure is the right behavior

use preference_cover::graph::components::weakly_connected_components;
use preference_cover::graph::delta::{apply, Change, GraphDelta};
use preference_cover::prelude::*;
use preference_cover::solver::extensions::markov::{
    greedy_assortment, MarkovChoiceModel, MarkovOptions,
};
use preference_cover::solver::extensions::quota::{self, CategoryQuotas};
use preference_cover::solver::extensions::{incremental, revenue};

fn adapted_yc(seed: u64) -> Adapted {
    let (catalog_cfg, session_cfg) = DatasetProfile::YC.configs(Scale::Fraction(0.01), seed);
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
}

#[test]
fn adapted_catalog_has_real_component_structure() {
    let adapted = adapted_yc(21);
    let g = &adapted.graph;
    let components = weakly_connected_components(g);
    // Category-local substitution yields many genuine islands.
    assert!(
        components.count > g.node_count() / 50,
        "expected many components, got {}",
        components.count
    );
}

#[test]
fn quota_constraints_on_generated_catalog() {
    let (catalog_cfg, session_cfg) = DatasetProfile::PM.configs(Scale::Fraction(0.003), 5);
    let (catalog, sessions) = generate_clickstream(&catalog_cfg, &session_cfg);
    let adapted = adapt(
        &sessions,
        &AdaptOptions {
            variant: Variant::Normalized,
            label_nodes: false,
            min_edge_support: 1,
        },
    )
    .unwrap();
    let g = &adapted.graph;

    // Map graph nodes back to generator categories.
    let category_of: Vec<u32> = adapted
        .external_ids
        .iter()
        .map(|&ext| catalog.category_of[ext as usize])
        .collect();
    let n_categories = catalog.categories.len();
    let mut quotas = CategoryQuotas::unconstrained(category_of.clone(), n_categories);
    // At most 2 per category: breadth-enforced assortment.
    for m in &mut quotas.max_per_category {
        *m = 2;
    }
    let k = (g.node_count() / 20).min(2 * n_categories);
    let constrained = quota::solve::<Normalized>(g, k, &quotas).unwrap();
    let free = lazy::solve::<Normalized>(g, k).unwrap();
    // Constraint respected...
    let mut counts = vec![0usize; n_categories];
    for &v in &constrained.order {
        counts[category_of[v.index()] as usize] += 1;
    }
    assert!(counts.iter().all(|&c| c <= 2));
    // ...at a bounded price.
    assert!(constrained.cover <= free.cover + 1e-9);
    assert!(constrained.cover >= 0.5 * free.cover);
}

#[test]
fn delta_then_repair_lifecycle() {
    let adapted = adapted_yc(33);
    let g1 = adapted.graph;
    let k = g1.node_count() / 10;
    let initial = lazy::solve::<Independent>(&g1, k).unwrap();

    // Demand collapse for the top retained item.
    let delta = GraphDelta::new().push(Change::SetNodeWeight {
        node: initial.order[0],
        weight: 0.0,
    });
    let g2 = apply(&g1, &delta).unwrap();

    let repaired = incremental::repair::<Independent>(&g2, &initial.order, 2).unwrap();
    assert!(repaired.report.cover >= repaired.stale_cover - 1e-12);
    assert!(repaired.churn() <= 2);
}

#[test]
fn revenue_weighting_changes_priorities_consistently() {
    let adapted = adapted_yc(44);
    let g = &adapted.graph;
    let n = g.node_count();
    let k = n / 20;
    // Double-revenue on odd ids.
    let revenues: Vec<f64> = (0..n).map(|i| if i % 2 == 1 { 2.0 } else { 1.0 }).collect();
    let rev = revenue::solve::<Independent>(g, &revenues, k).unwrap();
    let plain = lazy::solve::<Independent>(g, k).unwrap();
    // Revenue solution must earn at least as much revenue as the
    // sales-count solution.
    let plain_revenue: f64 = plain
        .item_cover
        .iter()
        .enumerate()
        .map(|(i, &ic)| ic * revenues[i])
        .sum();
    let rev_revenue = rev.expected_revenue_per_request();
    assert!(
        rev_revenue >= plain_revenue - 1e-9,
        "revenue-optimized {rev_revenue} < plain {plain_revenue}"
    );
}

#[test]
fn markov_model_on_adapted_graph() {
    // Normalized-adapted graphs are substochastic, so they are valid
    // Markov chains; values must bracket sensibly.
    // Keep the instance small: each MC gain evaluation solves a linear
    // system, which is slow in debug builds.
    let (catalog_cfg, session_cfg) = DatasetProfile::PM.configs(Scale::Fraction(0.001), 9);
    let (_, sessions) = generate_clickstream(&catalog_cfg, &session_cfg);
    let adapted = adapt(
        &sessions,
        &AdaptOptions {
            variant: Variant::Normalized,
            label_nodes: false,
            min_edge_support: 1,
        },
    )
    .unwrap();
    let sub = preference_cover::graph::transform::top_n_by_weight(&adapted.graph, 120).unwrap();
    let g = &sub.graph;
    let model = MarkovChoiceModel::from_graph(g).unwrap();
    let k = 8;
    let mc = greedy_assortment(&model, k, &MarkovOptions::default()).unwrap();
    let one_hop = greedy::solve::<Normalized>(g, k).unwrap();
    let one_hop_mc = model.assortment_value_of(&one_hop.order, &MarkovOptions::default());
    // The one-hop solution, evaluated under the chain, is close to the
    // chain-greedy solution and at least its own one-hop value.
    assert!(one_hop_mc >= one_hop.cover - 1e-9, "chains only add cover");
    assert!(one_hop_mc >= 0.9 * mc.cover, "{one_hop_mc} vs {}", mc.cover);
    assert!(mc.cover <= 1.0 + 1e-9);
}
