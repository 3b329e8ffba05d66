//! The repository benchmark: seeded workloads driven through the program's
//! public APIs, with every answer checked, fixed work per seed, and an
//! optional outside-in trace of each layer.
//!
//! `serve-hot` and `serve-churn` are a merchandising service answering
//! assortment queries over HTTP, read-only or with catalog deltas between
//! epochs ([`serving`]).
//!
//! See `perfbench/README.md` for the workloads, metrics and predictions.

pub mod client;
pub mod config;
pub mod host;
pub mod inputs;
pub mod report;
pub mod samples;
pub mod serving;
pub mod trace;

use std::collections::BTreeMap;

pub use config::{Options, Plant, Size, Workload};
pub use report::Outcome;

/// End-to-end metrics, reported by every run of every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run of every workload; a
/// layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("clickstream.read_s", "s"),
    ("clickstream.sessions", "count"),
    ("adapt.adapt_s", "s"),
    ("adapt.items", "count"),
    ("adapt.edges", "count"),
    ("store.write_s", "s"),
    ("store.load_s", "s"),
    ("store.load_mb_per_s", "MB/s"),
    ("serve.start_s", "s"),
    ("serve.first_answer_ms", "ms"),
    ("graph.apply_ms_p50", "ms"),
    ("graph.touched", "count"),
    ("core.lazy_ms_p50", "ms"),
    ("core.lazy_evals", "count"),
    ("core.warm_ms_p50", "ms"),
    ("core.warm_evals", "count"),
    ("core.rounds_reused", "count"),
    ("core.rounds_repaired", "count"),
    ("core.capture_ms_p50", "ms"),
    ("core.round_us_p50", "us"),
    ("core.round_us_p99", "us"),
    ("core.evals_per_round_p50", "count"),
    ("serve.hit_us_p50", "us"),
    ("serve.hit_us_p99", "us"),
    ("serve.resp_bytes_mean", "B"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.warm_ms_p50", "ms"),
    ("serve.miss_core_ms_p50", "ms"),
    ("serve.swap_ms_p50", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_prefix_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.warm_start_hits", "count"),
    ("serve.coalesced_hits", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.queue_shed_total", "count"),
    ("serve.keepalive_reuse_total", "count"),
    ("serve.delta_applied_total", "count"),
    ("serve.warm_rounds_reused", "count"),
    ("serve.warm_rounds_repaired", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.delta_p50_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("proc.phase_rss_mb", "MB"),
    ("host.calib_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Per-layer values a workload measured, by name; unmeasured names read 0
/// when the outcome is assembled.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one per-layer metric; `name` must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Sets a metric from an optional reading (absent reads 0).
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        self.set(name, value.unwrap_or(0.0));
    }

    /// Appends every per-layer metric, in [`PER_LAYER`] order, to `out`.
    pub fn emit(&self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Runs one workload's set-up and timed phase and checks its answers.
///
/// # Errors
///
/// Failures that stop the run before it can report (missing input,
/// server start failure), as text.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    serving::run(opts, &mut out)?;
    Ok(out)
}

/// SplitMix64: the benchmark's own seeded generator, so plans do not move
/// when the program's random-number code changes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Zipf(1) over `1..=max`, the budget distribution of `pcover loadgen`'s
/// default plan: small budgets are common, large ones rare.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `1..=max`.
    pub fn new(max: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=max.max(1))
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// The largest value drawn.
    pub fn max(&self) -> usize {
        self.cdf.len()
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) + 1
    }
}
