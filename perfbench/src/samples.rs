//! Latency samples at nanosecond resolution with nearest-rank
//! percentiles. A percentile is reported only when enough samples lie
//! beyond it to make it more than one outlier.

use std::time::Duration;

/// The fewest samples that must lie above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A set of durations, kept in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one duration.
    pub fn push(&mut self, d: Duration) {
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        self.sorted = false;
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    fn rank(&self, p: f64) -> usize {
        let n = self.ns.len();
        ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
    }

    /// Nearest-rank percentile `p` (0–100) in nanoseconds; `None` when
    /// empty, or when `p` is a tail (above 50) with fewer than
    /// [`MIN_BEYOND`] samples beyond it.
    pub fn percentile_ns(&mut self, p: f64) -> Option<f64> {
        if self.ns.is_empty() {
            return None;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let idx = self.rank(p);
        if p > 50.0 && self.ns.len() - 1 - idx < MIN_BEYOND {
            return None;
        }
        Some(self.ns[idx] as f64)
    }

    /// [`Self::percentile_ns`] in milliseconds.
    pub fn percentile_ms(&mut self, p: f64) -> Option<f64> {
        self.percentile_ns(p).map(|ns| ns / 1e6)
    }

    /// [`Self::percentile_ns`] in microseconds.
    pub fn percentile_us(&mut self, p: f64) -> Option<f64> {
        self.percentile_ns(p).map(|ns| ns / 1e3)
    }
}

impl FromIterator<Duration> for Samples {
    fn from_iter<I: IntoIterator<Item = Duration>>(iter: I) -> Self {
        let mut s = Samples::new();
        for d in iter {
            s.push(d);
        }
        s
    }
}

/// Median of a small set of plain values (e.g. per-repetition set-up
/// times); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::new();
        for i in 1..=1000u64 {
            s.push(Duration::from_nanos(i));
        }
        assert_eq!(s.percentile_ns(50.0), Some(500.0));
        assert_eq!(s.percentile_ns(99.0), Some(990.0));
        let mut small = Samples::new();
        for i in 1..=100u64 {
            small.push(Duration::from_nanos(i));
        }
        assert_eq!(small.percentile_ns(99.0), None);
        assert_eq!(small.percentile_ns(90.0), Some(90.0));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
