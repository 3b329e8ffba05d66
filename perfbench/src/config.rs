//! Workloads, their sizes, and where their generated inputs live.

use std::path::{Path, PathBuf};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-only keep-alive traffic that the solve cache answers.
    ServeHot,
    /// The same traffic with catalog deltas posted between epochs.
    ServeChurn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::ServeHot, Workload::ServeChurn];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Full size for measurement, or a reduced size for the benchmark's own
/// tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The documented sizes.
    Full,
    /// Small inputs and few operations, for tests.
    Small,
}

/// A wrong answer the benchmark's own tests plant, to show the checks
/// catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plant {
    /// Flip one bit of one served cover after the timed phase.
    FlippedBit,
    /// Report one repeated `/minimize` answer with `k + 1` retained items,
    /// as a served k that is not minimal would read (serve-hot; serve-churn
    /// sends no `/minimize`).
    MinimizeK,
}

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input and plan seed.
    pub seed: u64,
    /// Intended length of the timed phase; sizes the fixed plan.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Full or reduced sizes.
    pub size: Size,
    /// Directory for generated inputs and the trace file.
    pub dir: PathBuf,
    /// A wrong answer to plant before the checks run (tests only).
    pub plant: Option<Plant>,
}

/// Sizes of the serving workloads.
#[derive(Clone, Copy, Debug)]
pub struct ServeSize {
    /// Fraction of the PE profile's sessions and items.
    pub scale: f64,
    /// Pipeline repetitions in set-up (the median is `setup_s`).
    pub setup_reps: usize,
    /// serve-hot: reads per window; every window replays the same reads.
    pub hot_block: usize,
    /// serve-hot: windows in the timed phase.
    pub hot_windows: usize,
    /// serve-churn: epochs (one delta each).
    pub epochs: usize,
    /// serve-churn: reads per connection per epoch.
    pub reads_per_epoch: usize,
    /// Largest `k` a `/solve` or `/cover` asks for.
    pub k_max: usize,
}

/// serve-hot reads per window: a quarter of a second of one connection,
/// client and server on one vCPU of a 2-vCPU VM (≈ 25,000 reads/s).
const HOT_BLOCK: usize = 6_250;
/// serve-hot windows per timed second.
const HOT_WINDOWS_PER_S: u64 = 4;
/// serve-churn epochs per timed second on a 2-vCPU VM.
const CHURN_EPOCHS_PER_S: f64 = 7.0;

impl Options {
    /// The serving sizes for this run.
    pub fn serve(&self) -> ServeSize {
        let secs = self.seconds.max(1) as f64;
        match self.size {
            Size::Full => ServeSize {
                scale: 0.05,
                setup_reps: 5,
                hot_block: HOT_BLOCK,
                hot_windows: (self.seconds.max(1) * HOT_WINDOWS_PER_S) as usize,
                epochs: ((secs * CHURN_EPOCHS_PER_S).round() as usize).max(2),
                reads_per_epoch: 25,
                k_max: 1_000,
            },
            // Enough reads that p99 has ten samples beyond it (on serve-hot,
            // within the fastest two windows), and the full budgets, so
            // response sizes stay representative.
            Size::Small => ServeSize {
                scale: 0.01,
                setup_reps: 1,
                hot_block: 600,
                hot_windows: 8,
                epochs: 24,
                reads_per_epoch: 25,
                k_max: 1_000,
            },
        }
    }

    /// The generated input of this run.
    pub fn input_path(&self) -> PathBuf {
        input_path(&self.dir, self.workload, self.seed, self.size)
    }
}

/// Where `prepare` writes a workload's sessions file for a seed.
pub fn input_path(dir: &Path, workload: Workload, seed: u64, size: Size) -> PathBuf {
    let tag = match size {
        Size::Full => "full",
        Size::Small => "small",
    };
    dir.join(format!("{}-{tag}-{seed}.jsonl", workload.name()))
}
