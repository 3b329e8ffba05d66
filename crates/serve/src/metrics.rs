//! Serving metrics: lock-free counters and cumulative fixed-bucket latency
//! histograms, rendered as a plain-text `key value` dump on `/metrics`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper edges (microseconds) of the latency histogram buckets; the last
/// bucket is implicit `+inf`. Sub-millisecond edges exist so tail
/// quantiles (p99/p999) stay resolvable for cache-hit responses that
/// finish in tens of microseconds; labels still render in milliseconds
/// (`0.05`, `0.1`, …) and every edge of the original millisecond layout
/// (1, 2, 5, …, 5000) is preserved, so the exposition format is
/// backward-compatible — old labels keep existing, new ones interleave.
pub const LATENCY_BUCKETS_US: [u64; 16] = [
    50, 100, 250, 500, 1_000, 2_000, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

/// One endpoint's request counter plus latency histogram.
#[derive(Debug, Default)]
pub struct EndpointStats {
    requests: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    total_us: AtomicU64,
}

impl EndpointStats {
    /// Records one finished request.
    pub fn observe(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&edge| us <= edge)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Requests recorded so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    fn render(&self, name: &str, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "endpoint_{name}_requests {}", self.requests());
        let _ = writeln!(
            out,
            "endpoint_{name}_latency_ms_total {}",
            self.total_us.load(Ordering::Relaxed) / 1000
        );
        // Buckets render cumulatively, as their `le_` labels say: each
        // line counts every request at or under its edge, so `le_inf`
        // equals the request count.
        let mut count = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            count += bucket.load(Ordering::Relaxed);
            match LATENCY_BUCKETS_US.get(i) {
                // f64 Display is shortest-roundtrip: 50us prints as
                // `0.05`, 1000us as `1` — integral edges keep their old
                // labels.
                Some(&edge) => {
                    let _ = writeln!(
                        out,
                        "endpoint_{name}_latency_ms_le_{} {count}",
                        edge as f64 / 1e3
                    );
                }
                None => {
                    let _ = writeln!(out, "endpoint_{name}_latency_ms_le_inf {count}");
                }
            }
        }
    }
}

/// All counters the service exports.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests answered (shed 503s included; one keep-alive
    /// connection contributes one count per request it carries).
    pub requests_total: AtomicU64,
    /// Connections accepted into the worker pool.
    pub connections_total: AtomicU64,
    /// Requests served on an already-used keep-alive connection (i.e.
    /// beyond the first request of their connection).
    pub keepalive_reuse_total: AtomicU64,
    /// Connections rejected with 503 because the queue was full.
    pub queue_shed_total: AtomicU64,
    /// Requests rejected because the head or body was malformed or
    /// oversized.
    pub bad_request_total: AtomicU64,
    /// Solves that hit the cache exactly.
    pub cache_hits: AtomicU64,
    /// Solves answered from a larger cached trajectory.
    pub cache_prefix_hits: AtomicU64,
    /// Solves that had to run a solver.
    pub cache_misses: AtomicU64,
    /// Solves that coalesced onto another request's in-flight solve
    /// (single-flight): N concurrent identical requests perform 1 solve
    /// and record N-1 here.
    pub coalesced_hits: AtomicU64,
    /// Solves answered by repairing a previous generation's warm state
    /// instead of solving cold.
    pub warm_start_hits: AtomicU64,
    /// Across all warm starts, rounds where the previous solution's pick
    /// was re-verified and reused.
    pub warm_rounds_reused: AtomicU64,
    /// Across all warm starts, rounds selected fresh after the first
    /// invalidated prefix position.
    pub warm_rounds_repaired: AtomicU64,
    /// Cache entries that survived a snapshot swap because the delta's
    /// touched frontier was empty (bitwise-identical graphs).
    pub cache_survived_swap: AtomicU64,
    /// Solves aborted by the per-request deadline.
    pub deadline_cancelled_total: AtomicU64,
    /// Snapshot swaps applied via `/admin/delta`.
    pub delta_applied_total: AtomicU64,
    /// `/solve` endpoint stats.
    pub solve: EndpointStats,
    /// `/cover` endpoint stats.
    pub cover: EndpointStats,
    /// `/minimize` endpoint stats.
    pub minimize: EndpointStats,
    /// `/admin/delta` endpoint stats.
    pub delta: EndpointStats,
}

impl Metrics {
    /// Renders every counter as `key value` lines. The caller appends
    /// point-in-time gauges (queue depth, generation, cache size).
    pub fn render(&self) -> String {
        // lint: allow(alloc-per-request) — /metrics is an admin endpoint; the rendered text is returned as an owned body
        let mut out = String::with_capacity(2048);
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "requests_total {}",
            self.requests_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "connections_total {}",
            self.connections_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "keepalive_reuse_total {}",
            self.keepalive_reuse_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "queue_shed_total {}",
            self.queue_shed_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "bad_request_total {}",
            self.bad_request_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "cache_hits {}",
            self.cache_hits.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "cache_prefix_hits {}",
            self.cache_prefix_hits.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "cache_misses {}",
            self.cache_misses.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "coalesced_hits {}",
            self.coalesced_hits.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "warm_start_hits {}",
            self.warm_start_hits.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "warm_rounds_reused {}",
            self.warm_rounds_reused.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "warm_rounds_repaired {}",
            self.warm_rounds_repaired.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "cache_survived_swap {}",
            self.cache_survived_swap.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "deadline_cancelled_total {}",
            self.deadline_cancelled_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "delta_applied_total {}",
            self.delta_applied_total.load(Ordering::Relaxed)
        );
        self.solve.render("solve", &mut out);
        self.cover.render("cover", &mut out);
        self.minimize.render("minimize", &mut out);
        self.delta.render("admin_delta", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_by_edge() {
        let stats = EndpointStats::default();
        stats.observe(Duration::from_millis(0));
        stats.observe(Duration::from_micros(40));
        stats.observe(Duration::from_millis(3));
        stats.observe(Duration::from_millis(40));
        stats.observe(Duration::from_millis(400));
        stats.observe(Duration::from_secs(60));
        assert_eq!(stats.requests(), 6);
        let mut out = String::new();
        stats.render("t", &mut out);
        assert!(out.contains("endpoint_t_requests 6"));
        assert!(out.contains("endpoint_t_latency_ms_le_0.05 2\n"));
        assert!(out.contains("endpoint_t_latency_ms_le_5 3\n"));
        assert!(out.contains("endpoint_t_latency_ms_le_50 4\n"));
        assert!(out.contains("endpoint_t_latency_ms_le_500 5\n"));
        assert!(out.contains("endpoint_t_latency_ms_le_inf 6\n"));
    }

    #[test]
    fn old_millisecond_labels_survive_the_microsecond_layout() {
        // Backward compatibility: every label of the original layout
        // ([1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000] ms) must still be
        // emitted, so dashboards keyed on them keep working.
        let stats = EndpointStats::default();
        stats.observe(Duration::from_millis(1));
        let mut out = String::new();
        stats.render("t", &mut out);
        for label in [
            "1", "2", "5", "10", "25", "50", "100", "250", "1000", "5000",
        ] {
            assert!(
                out.contains(&format!("endpoint_t_latency_ms_le_{label} ")),
                "legacy bucket label {label} missing:\n{out}"
            );
        }
        for label in ["0.05", "0.1", "0.25", "0.5", "500", "2500"] {
            assert!(
                out.contains(&format!("endpoint_t_latency_ms_le_{label} ")),
                "new bucket label {label} missing:\n{out}"
            );
        }
    }

    #[test]
    fn render_lists_every_counter() {
        let m = Metrics::default();
        m.requests_total.fetch_add(2, Ordering::Relaxed);
        m.cache_hits.fetch_add(1, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("requests_total 2"));
        assert!(text.contains("connections_total 0"));
        assert!(text.contains("keepalive_reuse_total 0"));
        assert!(text.contains("cache_hits 1"));
        assert!(text.contains("coalesced_hits 0"));
        assert!(text.contains("queue_shed_total 0"));
        assert!(text.contains("warm_start_hits 0"));
        assert!(text.contains("warm_rounds_reused 0"));
        assert!(text.contains("warm_rounds_repaired 0"));
        assert!(text.contains("cache_survived_swap 0"));
        assert!(text.contains("endpoint_solve_requests 0"));
        assert!(text.contains("endpoint_admin_delta_requests 0"));
    }
}
