//! The benchmark's own guarantees, at reduced sizes: work is fixed by the
//! seed, a wrong answer fails the run, a traced run reports every
//! per-layer metric with its spans covering the timed phase, and the
//! metric lists match `BENCHMARK.json`.

use std::path::PathBuf;
use std::sync::Mutex;

use pcover_perfbench::{
    inputs, run, Options, Outcome, Plant, Size, Workload, END_TO_END, PER_LAYER,
};

fn options(workload: Workload, tag: &str, trace: bool, plant: Option<Plant>) -> Options {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{}-{tag}", workload.name()));
    Options {
        workload,
        seed: 7,
        seconds: 1,
        trace,
        size: Size::Small,
        dir,
        plant,
    }
}

/// One workload at a time: a run measures a server on both vCPUs, and a
/// second run beside it would skew its timings and its span coverage.
static ONE_RUN: Mutex<()> = Mutex::new(());

fn measure(opts: &Options) -> Outcome {
    let _alone = ONE_RUN
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    inputs::prepare(opts).expect("inputs generate");
    run(opts).expect("run completes")
}

fn work_repeats(workload: Workload) {
    let opts = options(workload, "repeat", false, None);
    let a = measure(&opts);
    let b = measure(&opts);
    for o in [&a, &b] {
        assert!(o.correct(), "{}: {:?}", workload.name(), o.mismatches);
        assert_eq!(o.failed, 0, "{}: {:?}", workload.name(), o.notes);
        assert!(o.attempted > 0);
    }
    assert!(
        a.work.len() >= 5,
        "{}: too few work counts: {:?}",
        workload.name(),
        a.work
    );
    assert_eq!(
        a.work,
        b.work,
        "{}: work differs between identical runs",
        workload.name()
    );
    assert_eq!(a.attempted, b.attempted);
    let names: Vec<&str> = a.metrics.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    assert!(
        a.metrics.iter().all(|m| m.value > 0.0),
        "{}: {:?}",
        workload.name(),
        a.metrics
    );
}

#[test]
fn serve_hot_work_is_fixed_by_the_seed() {
    work_repeats(Workload::ServeHot);
}

#[test]
fn serve_churn_work_is_fixed_by_the_seed() {
    work_repeats(Workload::ServeChurn);
}

fn planted_mismatch_fails(workload: Workload, plant: Plant) {
    let tag = format!("planted-{plant:?}");
    let o = measure(&options(workload, &tag, false, Some(plant)));
    assert!(
        !o.correct(),
        "{}: a planted {plant:?} went unnoticed",
        workload.name()
    );
    assert!(o.failed > 0);
    assert!(o.result_line().contains("\"correct\": false"));
    if plant == Plant::MinimizeK {
        // Caught where it was served, not only against the replica.
        assert!(
            o.mismatches.iter().any(|m| m.contains(" vs ")),
            "{}: {:?}",
            workload.name(),
            o.mismatches
        );
    }
}

#[test]
fn serve_hot_catches_a_planted_wrong_answer() {
    planted_mismatch_fails(Workload::ServeHot, Plant::FlippedBit);
}

#[test]
fn serve_churn_catches_a_planted_wrong_answer() {
    planted_mismatch_fails(Workload::ServeChurn, Plant::FlippedBit);
}

#[test]
fn serve_hot_catches_a_planted_non_minimal_k() {
    planted_mismatch_fails(Workload::ServeHot, Plant::MinimizeK);
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in Workload::ALL {
        let o = measure(&options(workload, "traced", true, None));
        assert!(o.correct(), "{}: {:?}", workload.name(), o.mismatches);
        for (name, unit) in PER_LAYER {
            let m = o.metrics.iter().find(|m| m.name == name);
            assert!(
                m.is_some_and(|m| m.unit == unit),
                "{}: {name} missing",
                workload.name()
            );
        }
        let covered = o.get("trace.coverage_pct").unwrap_or(0.0);
        assert!(
            covered >= 90.0,
            "{}: spans cover {covered:.1}% of the timed phase",
            workload.name()
        );
        assert!(o.get("trace.spans").unwrap_or(0.0) > 0.0);
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let listed = |section: &str| -> Vec<String> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("quoted name").to_owned())
            .collect()
    };
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| (*n).to_owned()).collect();
    assert_eq!(listed("end_to_end"), e2e);
    assert_eq!(listed("per_layer"), layers);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(listed("workloads"), workloads);
}
