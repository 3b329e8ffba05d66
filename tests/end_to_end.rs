//! Full-pipeline integration tests: generate → diagnose → adapt → solve →
//! minimize, across profiles and variants.

#![allow(clippy::unwrap_used)] // integration tests: panicking on setup failure is the right behavior

use preference_cover::prelude::*;
use preference_cover::solver::minimize;

fn pipeline(profile: DatasetProfile, seed: u64) -> (Clickstream, Adapted) {
    let (catalog_cfg, session_cfg) = profile.configs(Scale::Fraction(0.003), seed);
    let (_, sessions) = generate_clickstream(&catalog_cfg, &session_cfg);
    let variant = match profile {
        DatasetProfile::PM => Variant::Normalized,
        _ => Variant::Independent,
    };
    let adapted = adapt(
        &sessions,
        &AdaptOptions {
            variant,
            label_nodes: false,
            min_edge_support: 1,
        },
    )
    .unwrap();
    (sessions, adapted)
}

#[test]
fn independent_profiles_diagnose_independent() {
    for (profile, seed) in [
        (DatasetProfile::PE, 1),
        (DatasetProfile::PF, 2),
        (DatasetProfile::YC, 3),
    ] {
        let (sessions, _) = pipeline(profile, seed);
        let d = diagnose(&sessions, &DiagnosticThresholds::default());
        assert_eq!(
            d.recommendation,
            Recommendation::Independent,
            "{}: {:?}",
            profile.name(),
            d
        );
    }
}

#[test]
fn pm_profile_diagnoses_normalized() {
    let (sessions, adapted) = pipeline(DatasetProfile::PM, 4);
    let d = diagnose(&sessions, &DiagnosticThresholds::default());
    assert_eq!(d.recommendation, Recommendation::Normalized, "{d:?}");
    // And the adapted graph satisfies the Normalized invariant everywhere.
    for v in adapted.graph.node_ids() {
        assert!(adapted.graph.out_weight_sum(v) <= 1.0 + 1e-9);
    }
}

#[test]
fn greedy_beats_baselines_on_generated_data() {
    let (_, adapted) = pipeline(DatasetProfile::YC, 5);
    let g = &adapted.graph;
    let k = g.node_count() / 10;
    let gr = lazy::solve::<Independent>(g, k).unwrap();
    let tw = baselines::top_k_weight::<Independent>(g, k).unwrap();
    let tc = baselines::top_k_coverage::<Independent>(g, k).unwrap();
    let rnd = baselines::random_best_of::<Independent>(g, k, 6, 10).unwrap();
    assert!(
        gr.cover > tw.cover,
        "greedy {} vs TopK-W {}",
        gr.cover,
        tw.cover
    );
    assert!(
        gr.cover > tc.cover,
        "greedy {} vs TopK-C {}",
        gr.cover,
        tc.cover
    );
    assert!(
        gr.cover > rnd.cover,
        "greedy {} vs Random {}",
        gr.cover,
        rnd.cover
    );
    // Random, ignoring popularity entirely, does far worse (Figure 4c).
    assert!(rnd.cover < 0.8 * gr.cover);
}

#[test]
fn solver_family_agrees_on_adapted_graphs() {
    let (_, adapted) = pipeline(DatasetProfile::PE, 7);
    let g = &adapted.graph;
    let k = 50;
    let plain = greedy::solve::<Independent>(g, k).unwrap();
    let lz = lazy::solve::<Independent>(g, k).unwrap();
    let (par, stats) = parallel::solve::<Independent>(g, k, 4).unwrap();
    assert_eq!(plain.order, par.order);
    assert!(lz.bit_identical_to(&plain));
    assert!((plain.cover - par.cover).abs() < 1e-12);
    assert!(stats.balance() > 0.0);
    // Lazy does dramatically less work at this scale.
    assert!(lz.gain_evaluations * 5 < plain.gain_evaluations);
}

#[test]
fn minimization_consistent_with_maximization() {
    let (_, adapted) = pipeline(DatasetProfile::PM, 8);
    let g = &adapted.graph;
    let threshold = 0.7;
    let min = minimize::greedy_min_cover::<Normalized>(g, threshold).unwrap();
    assert!(min.report.cover >= threshold);
    // Solving the maximization at the found size reaches the threshold;
    // one item fewer does not (greedy-order minimality).
    let k = min.set_size();
    let max_at_k = lazy::solve::<Normalized>(g, k).unwrap();
    assert!(max_at_k.cover >= threshold - 1e-9);
    if k > 1 {
        let max_below = lazy::solve::<Normalized>(g, k - 1).unwrap();
        assert!(max_below.cover < threshold);
    }
}

#[test]
fn coverage_report_is_consistent() {
    let (_, adapted) = pipeline(DatasetProfile::PF, 9);
    let g = &adapted.graph;
    let r = lazy::solve::<Independent>(g, g.node_count() / 20).unwrap();
    // I-array sums to the cover.
    let sum: f64 = r.item_cover.iter().sum();
    assert!((sum - r.cover).abs() < 1e-6);
    // Retained items are fully covered; everything is in [0, 1].
    for v in g.node_ids() {
        let c = r.coverage_of(g, v);
        assert!((0.0..=1.0 + 1e-9).contains(&c));
    }
    for &v in &r.order {
        assert!((r.coverage_of(g, v) - 1.0).abs() < 1e-9);
    }
}

#[test]
fn external_id_mapping_roundtrips() {
    let (sessions, adapted) = pipeline(DatasetProfile::YC, 10);
    // Every purchased item resolves to a node whose weight reflects its
    // purchase share.
    let counts = sessions.item_purchase_counts();
    let total = sessions.len() as f64;
    for (&ext, &count) in counts.iter().take(100) {
        let v = adapted.node_of(ext).expect("every item becomes a node");
        let expected = count as f64 / total;
        assert!(
            (adapted.graph.node_weight(v) - expected).abs() < 1e-12,
            "item {ext}"
        );
    }
}
