//! Solve reports: the ordered solution plus the metadata the paper's system
//! returns alongside it (Figure 2's "retained items + coverage" output).

// lint: allow-file(no-index) — per-item arrays (I-values, selection masks, gains) are sized to
// node_count and indexed by ItemId::index(); bounds-checked [] in the hot greedy
// loops is deliberate and in bounds by construction.
use std::time::Duration;

use serde::{Deserialize, Serialize};

use pcover_graph::{ItemId, PreferenceGraph};

use crate::variant::Variant;

/// Which solver produced a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Plain greedy (Algorithm 1).
    Greedy,
    /// Lazy greedy with a stale-gain priority queue.
    LazyGreedy,
    /// Delta greedy: cached gains refreshed through a dirty set.
    DeltaGreedy,
    /// Rayon-parallel greedy.
    ParallelGreedy,
    /// Exact brute force (the paper's BF baseline).
    BruteForce,
    /// Top-k items by node weight (TopK-W baseline).
    TopKWeight,
    /// Top-k items by singleton coverage (TopK-C baseline).
    TopKCoverage,
    /// Uniform random selection (Random baseline).
    Random,
    /// Stochastic greedy (sampled candidate scans) — beyond-paper
    /// extension.
    StochasticGreedy,
    /// Sieve-streaming single-pass selection — beyond-paper extension.
    SieveStreaming,
    /// Swap-based local search refinement — beyond-paper extension.
    LocalSearch,
    /// NPC solved through the Theorem 3.1 reduction to Max Vertex Cover.
    MaxVcGreedy,
}

impl Algorithm {
    /// Short name used in experiment tables (`Greedy`, `BF`, `TopK-W`,
    /// `TopK-C`, `Random` — the paper's labels).
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Greedy => "Greedy",
            Algorithm::LazyGreedy => "Greedy(lazy)",
            Algorithm::DeltaGreedy => "Greedy(delta)",
            Algorithm::ParallelGreedy => "Greedy(par)",
            Algorithm::BruteForce => "BF",
            Algorithm::TopKWeight => "TopK-W",
            Algorithm::TopKCoverage => "TopK-C",
            Algorithm::Random => "Random",
            Algorithm::StochasticGreedy => "Greedy(stoch)",
            Algorithm::SieveStreaming => "Sieve",
            Algorithm::LocalSearch => "LocalSearch",
            Algorithm::MaxVcGreedy => "Greedy(VC)",
        }
    }

    /// Every algorithm, in the canonical presentation order. The solver
    /// registry's conformance suite checks each is produced by a registered
    /// spec, so this list cannot drift from the dispatchable set.
    pub const ALL: [Algorithm; 12] = [
        Algorithm::Greedy,
        Algorithm::LazyGreedy,
        Algorithm::DeltaGreedy,
        Algorithm::ParallelGreedy,
        Algorithm::BruteForce,
        Algorithm::TopKWeight,
        Algorithm::TopKCoverage,
        Algorithm::Random,
        Algorithm::StochasticGreedy,
        Algorithm::SieveStreaming,
        Algorithm::LocalSearch,
        Algorithm::MaxVcGreedy,
    ];

    /// The canonical registry/CLI name (`--algorithm` value) of the spec
    /// that primarily produces this algorithm. The single source of truth
    /// for CLI parsing: registry names for the builtin solvers are defined
    /// as these strings.
    pub fn cli_name(self) -> &'static str {
        match self {
            Algorithm::Greedy => "greedy",
            Algorithm::LazyGreedy => "lazy",
            Algorithm::DeltaGreedy => "delta",
            Algorithm::ParallelGreedy => "parallel",
            Algorithm::BruteForce => "bf",
            Algorithm::TopKWeight => "topk-w",
            Algorithm::TopKCoverage => "topk-c",
            Algorithm::Random => "random",
            Algorithm::StochasticGreedy => "stochastic",
            Algorithm::SieveStreaming => "sieve",
            Algorithm::LocalSearch => "local-search",
            Algorithm::MaxVcGreedy => "maxvc",
        }
    }
}

/// The output of a solve: the ordered retained set, the cover it achieves,
/// the cover trajectory, and per-item coverage metadata.
///
/// Because greedy solutions are *incremental*, the first `k'` entries of
/// [`order`](Self::order) are exactly the solution greedy would return for
/// budget `k'`, and [`trajectory`](Self::trajectory)`[k' - 1]` is its cover
/// (Section 3.2, "Additional Advantages"). Baseline and brute-force reports
/// fill the same fields for uniformity, but only greedy-family reports have
/// this prefix property.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolveReport {
    /// Which solver produced this report.
    pub algorithm: Algorithm,
    /// Which cover variant was optimized.
    pub variant: Variant,
    /// Retained items, in the order they were selected.
    pub order: Vec<ItemId>,
    /// `trajectory[i]` = cover of the first `i + 1` items of `order`.
    pub trajectory: Vec<f64>,
    /// The final cover `C(S)`.
    pub cover: f64,
    /// The paper's `I` array: per item, the probability it is requested
    /// *and* matched by the final retained set. Sums to `cover`.
    pub item_cover: Vec<f64>,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// Total number of `Gain`/`AddNode` node evaluations performed —
    /// the `O(nkD)` work measure, used by the scalability experiments.
    pub gain_evaluations: u64,
}

impl SolveReport {
    /// The retained set size `k`.
    pub fn k(&self) -> usize {
        self.order.len()
    }

    /// The coverage percentage of item `u`: how well `u`'s requests are
    /// matched by the retained set (1.0 for retained items).
    ///
    /// This is the per-item metadata of the paper's system output
    /// (Section 5.1): `I[u] / W(u)`. For zero-weight items the ratio is
    /// undefined; we report 1.0 when the item is retained and 0.0 otherwise.
    pub fn coverage_of(&self, g: &PreferenceGraph, u: ItemId) -> f64 {
        let w = g.node_weight(u);
        if w == 0.0 {
            return if self.order.contains(&u) { 1.0 } else { 0.0 };
        }
        (self.item_cover[u.index()] / w).min(1.0)
    }

    /// The solution for a smaller budget `k' ≤ k`: the first `k'` items of
    /// the order and their cover.
    ///
    /// Only meaningful for greedy-family reports (see type docs).
    pub fn prefix(&self, k_prime: usize) -> Option<(&[ItemId], f64)> {
        if k_prime == 0 || k_prime > self.order.len() {
            return None;
        }
        Some((&self.order[..k_prime], self.trajectory[k_prime - 1]))
    }

    /// The smallest prefix whose cover reaches `threshold`, if any — the
    /// complementary minimization answer read off a full greedy run.
    pub fn smallest_prefix_reaching(&self, threshold: f64) -> Option<usize> {
        self.trajectory
            .iter()
            .position(|&c| c >= threshold)
            .map(|idx| idx + 1)
    }

    /// Whether two reports describe the same solution bit-for-bit: equal
    /// variant and retained order, and bitwise-equal cover, trajectory, and
    /// item-cover arrays. The algorithm tag, wall time, and evaluation
    /// count are deliberately ignored — this is the warm-vs-cold identity
    /// check (a warm re-solve must match the cold solve's *solution*
    /// exactly while doing less work).
    pub fn bit_identical_to(&self, other: &SolveReport) -> bool {
        let bits_eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.variant == other.variant
            && self.order == other.order
            // lint: allow(float-eq) — to_bits comparison IS the bit-identity check; approx_eq would defeat it
            && self.cover.to_bits() == other.cover.to_bits()
            && bits_eq(&self.trajectory, &other.trajectory)
            && bits_eq(&self.item_cover, &other.item_cover)
    }

    /// Writes the cover trajectory as CSV (`k,item,cover`) — the series
    /// behind the paper's coverage figures, ready for any plotting tool.
    pub fn write_trajectory_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "k,item,cover")?;
        for (i, (&item, &cover)) in self.order.iter().zip(&self.trajectory).enumerate() {
            writeln!(w, "{},{},{}", i + 1, item.raw(), cover)?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable constants
mod tests {
    use super::*;

    fn fake_report() -> SolveReport {
        SolveReport {
            algorithm: Algorithm::Greedy,
            variant: Variant::Normalized,
            order: vec![ItemId::new(1), ItemId::new(3)],
            trajectory: vec![0.66, 0.873],
            cover: 0.873,
            item_cover: vec![0.22, 0.22, 0.22, 0.06, 0.153],
            elapsed: Duration::from_millis(1),
            gain_evaluations: 9,
        }
    }

    #[test]
    fn prefix_reads_trajectory() {
        let r = fake_report();
        let (items, cover) = r.prefix(1).unwrap();
        assert_eq!(items, &[ItemId::new(1)]);
        assert!((cover - 0.66).abs() < 1e-12);
        assert!(r.prefix(0).is_none());
        assert!(r.prefix(3).is_none());
    }

    #[test]
    fn smallest_prefix_reaching_threshold() {
        let r = fake_report();
        assert_eq!(r.smallest_prefix_reaching(0.5), Some(1));
        assert_eq!(r.smallest_prefix_reaching(0.7), Some(2));
        assert_eq!(r.smallest_prefix_reaching(0.9), None);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Algorithm::BruteForce.label(), "BF");
        assert_eq!(Algorithm::TopKWeight.label(), "TopK-W");
        assert_eq!(Algorithm::TopKCoverage.label(), "TopK-C");
    }

    #[test]
    fn trajectory_csv_shape() {
        let r = fake_report();
        let mut buf = Vec::new();
        r.write_trajectory_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "k,item,cover");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("1,1,0.66"));
        assert!(lines[2].starts_with("2,3,0.873"));
    }

    #[test]
    fn report_serde_roundtrip() {
        let r = fake_report();
        let json = serde_json::to_string(&r).unwrap();
        let back: SolveReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.order, r.order);
        assert_eq!(back.cover, r.cover);
        assert_eq!(back.algorithm, r.algorithm);
    }
}
