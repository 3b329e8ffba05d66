//! What one run produces: the metrics by name and unit, the work it did
//! (counts that repeat exactly for one seed), counts that depend on
//! timing, and every wrong answer it found.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations issued in the timed phase.
    pub attempted: u64,
    /// Operations that failed: an error, a non-200 status, or a wrong
    /// answer.
    pub failed: u64,
    /// End-to-end metrics (always) and per-layer metrics (traced runs).
    pub metrics: Vec<Metric>,
    /// Work counts fixed by the seed; equal across runs of one seed.
    pub work: BTreeMap<String, u64>,
    /// Counts that depend on timing; reported, never compared.
    pub timing_counts: BTreeMap<String, u64>,
    /// Human-readable lines: percentiles with their sample counts,
    /// calibration readings, sizes.
    pub notes: Vec<String>,
    /// Every wrong answer found, described.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Adds `n` to a work count.
    pub fn work(&mut self, name: &str, n: u64) {
        *self.work.entry(name.to_owned()).or_insert(0) += n;
    }

    /// Records a wrong answer (one failed operation).
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Whether every checked answer was right.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The work counts as one JSON object (sorted keys).
    pub fn work_line(&self) -> String {
        counts_json(&self.work)
    }

    /// The timing-dependent counts as one JSON object (sorted keys).
    pub fn timing_line(&self) -> String {
        counts_json(&self.timing_counts)
    }
}

fn counts_json(counts: &BTreeMap<String, u64>) -> String {
    let body: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite JSON number with all its digits (non-finite values become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}
