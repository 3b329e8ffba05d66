//! The solver abstraction layer: a [`Solver`] trait over every selection
//! scheme in this crate, a typed [`SolverSpec`] registry that downstream
//! layers (CLI, benchmarks, adaptation engine) dispatch through, and an
//! [`Observer`] hook that surfaces per-iteration progress without touching
//! the solvers' arithmetic.
//!
//! # Architecture
//!
//! * [`Solver`] is the strategy interface: `solve::<M>(g, k, ctx)` for a
//!   [`CoverModel`] `M`. Solver structs are tiny configuration carriers
//!   (thread counts, seeds, sampling rates); the graph and budget arrive
//!   per call.
//! * [`SolveCtx`] is the execution harness handed to every solve: the
//!   [`SolverConfig`] (threads, seed, …) plus an optional [`Observer`].
//! * [`SolverSpec`] is the type-erased registry entry: name, description,
//!   capability flags, and a monomorphization-erasing function pointer.
//!   Erasure uses a plain `fn` pointer — not a boxed closure — so specs are
//!   `const`-friendly, `Copy`-cheap, and allocation-free.
//! * [`Registry`] owns the spec list. [`Registry::builtin`] registers every
//!   solver in this crate; [`Registry::register`] adds (or replaces) an
//!   entry, which is all a new solver needs to become reachable from the
//!   CLI, help text, and benchmark loops.
//!
//! # Observer lifecycle
//!
//! Observers receive `on_select(iter, item, gain, cover)` once per retained
//! item and `on_round_stats` once per completed round. Incremental solvers
//! (greedy, lazy, parallel, stochastic) emit *live*, as items are chosen;
//! solvers whose solution is assembled at the end (brute force, baselines,
//! sieve, partitioned merge, local search, MaxVC) replay the finished
//! report through [`SolveCtx::emit_report`], so in every case the event
//! stream matches the returned `order`/`trajectory` exactly. Observers only
//! *read* values the solver already computed — they cannot perturb
//! selection, which is what keeps the bit-identical determinism guarantees
//! of the parallel solvers intact — with one deliberate exception: the
//! [`Observer::cancelled`] poll lets an observer *stop* a solve early
//! (deadline enforcement in the serving layer), turning the run into
//! [`SolveError::Cancelled`] rather than perturbing its output. When no
//! observer is installed the hooks cost one branch per selection (see the
//! `gain_addnode` benchmark).

use std::io::Write;

use serde::Serialize;

use pcover_graph::{ItemId, PreferenceGraph};

use crate::delta::{WarmOutcome, WarmState};
use crate::error::SolveError;
use crate::report::{Algorithm, SolveReport};
use crate::variant::{CoverModel, Independent, Normalized, Variant};

/// Per-round statistics handed to [`Observer::on_round_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct RoundStats {
    /// Zero-based round index (the `iter` of the matching `on_select`).
    pub iter: usize,
    /// Gain evaluations performed during this round alone.
    pub gain_evaluations: u64,
}

/// Per-iteration hook into a running solve.
///
/// All methods have no-op defaults, so an observer implements only what it
/// needs. Observers are handed values the solver already computed; they can
/// record or display them but cannot influence selection.
pub trait Observer {
    /// Called when `item` joins the retained set as selection `iter`
    /// (zero-based), with the marginal `gain` realized and the resulting
    /// running `cover`.
    fn on_select(&mut self, iter: usize, item: ItemId, gain: f64, cover: f64) {
        let _ = (iter, item, gain, cover);
    }

    /// Called at the end of each round with work statistics.
    fn on_round_stats(&mut self, stats: &RoundStats) {
        let _ = stats;
    }

    /// Polled by the harness to decide whether the solve should stop early
    /// (deadline exceeded, shutdown in progress, …). Returning `true` makes
    /// the solve return [`SolveError::Cancelled`]. Live-emitting solvers
    /// (greedy, lazy, parallel, stochastic) poll between rounds; every
    /// registered solver additionally polls once on entry via
    /// [`SolverSpec::solve`], so even replay-style solvers observe a
    /// cancellation that was signalled before the solve began.
    fn cancelled(&mut self) -> bool {
        false
    }
}

/// The do-nothing observer; behaviourally identical to installing none.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// One recorded selection of a [`TraceObserver`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Zero-based selection index.
    pub iter: usize,
    /// The selected item.
    pub item: ItemId,
    /// Marginal gain realized by the selection.
    pub gain: f64,
    /// Running cover after the selection.
    pub cover: f64,
}

/// An [`Observer`] that records the full per-iteration trajectory, ready to
/// serialize (the CLI writes it as JSON for `--trace`).
#[derive(Clone, Debug, Default, Serialize)]
pub struct TraceObserver {
    /// Every selection, in order.
    pub events: Vec<TraceEvent>,
    /// Every round's statistics, in order (empty for replayed solvers).
    pub rounds: Vec<RoundStats>,
}

impl TraceObserver {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for TraceObserver {
    fn on_select(&mut self, iter: usize, item: ItemId, gain: f64, cover: f64) {
        self.events.push(TraceEvent {
            iter,
            item,
            gain,
            cover,
        });
    }

    fn on_round_stats(&mut self, stats: &RoundStats) {
        self.rounds.push(*stats);
    }
}

/// An [`Observer`] that prints one line per selection to a writer (the CLI
/// wires this to stderr under `--progress`). Write errors are swallowed:
/// progress output must never fail a solve.
#[derive(Debug)]
pub struct ProgressObserver<W: Write> {
    out: W,
    every: usize,
}

impl<W: Write> ProgressObserver<W> {
    /// Reports every selection to `out`.
    pub fn new(out: W) -> Self {
        Self { out, every: 1 }
    }

    /// Reports only every `every`-th selection (0 is treated as 1).
    pub fn with_stride(out: W, every: usize) -> Self {
        Self {
            out,
            every: every.max(1),
        }
    }
}

impl<W: Write> Observer for ProgressObserver<W> {
    fn on_select(&mut self, iter: usize, item: ItemId, gain: f64, cover: f64) {
        if (iter + 1) % self.every != 0 {
            return;
        }
        let _ = writeln!(
            self.out,
            "[{:>6}] + item {item}  gain {gain:.6}  cover {cover:.6}",
            iter + 1
        );
    }
}

/// Uniform construction parameters for every registered solver. Each solver
/// reads only the fields it needs; each field's doc names its readers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolverConfig {
    /// Worker threads for parallel solvers.
    pub threads: usize,
    /// RNG seed for randomized solvers.
    pub seed: u64,
    /// Sampling/threshold accuracy for stochastic and sieve solvers;
    /// `None` uses each solver's default.
    pub epsilon: Option<f64>,
    /// Independent draws for the `random` baseline (best-of selection).
    pub random_attempts: usize,
    /// Swap budget for local search.
    pub max_swaps: usize,
    /// Enumeration cap for brute force.
    pub max_subsets: u128,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            seed: 42,
            epsilon: None,
            random_attempts: 10,
            max_swaps: 64,
            max_subsets: 20_000_000,
        }
    }
}

/// The execution harness handed to every solve: configuration plus an
/// optional observer. Constructed once per solve call.
#[derive(Default)]
pub struct SolveCtx<'o> {
    /// Construction parameters for the solver.
    pub config: SolverConfig,
    observer: Option<&'o mut dyn Observer>,
}

impl std::fmt::Debug for SolveCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveCtx")
            .field("config", &self.config)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl<'o> SolveCtx<'o> {
    /// A context with the given configuration and no observer.
    pub fn new(config: SolverConfig) -> Self {
        Self {
            config,
            observer: None,
        }
    }

    /// A context with an observer attached.
    pub fn with_observer(config: SolverConfig, observer: &'o mut dyn Observer) -> Self {
        Self {
            config,
            observer: Some(observer),
        }
    }

    /// Whether an observer is installed (used by solvers to skip
    /// observer-only bookkeeping entirely).
    pub fn observing(&self) -> bool {
        self.observer.is_some()
    }

    /// Forwards one selection to the observer, if any. One branch when
    /// unobserved.
    #[inline]
    pub fn emit_select(&mut self, iter: usize, item: ItemId, gain: f64, cover: f64) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_select(iter, item, gain, cover);
        }
    }

    /// Forwards round statistics to the observer, if any.
    #[inline]
    pub fn emit_round_stats(&mut self, stats: RoundStats) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_round_stats(&stats);
        }
    }

    /// Polls the observer's cancellation flag, turning it into an error.
    ///
    /// # Errors
    ///
    /// [`SolveError::Cancelled`] when an observer is installed and its
    /// [`Observer::cancelled`] returns `true`; `Ok(())` otherwise (including
    /// when no observer is installed). One branch when unobserved.
    #[inline]
    pub fn check_cancelled(&mut self) -> Result<(), SolveError> {
        if let Some(obs) = self.observer.as_deref_mut() {
            if obs.cancelled() {
                return Err(SolveError::Cancelled);
            }
        }
        Ok(())
    }

    /// Replays a finished report's selection sequence through the observer.
    ///
    /// Solvers that assemble their solution at the end (brute force,
    /// baselines, sieve, partitioned merge, local search, MaxVC) call this
    /// so their event stream matches the returned `order`/`trajectory`,
    /// exactly as live-emitting solvers' streams do.
    pub fn emit_report(&mut self, report: &SolveReport) {
        if self.observer.is_none() {
            return;
        }
        let mut prev = 0.0f64;
        for (iter, (&item, &cover)) in report.order.iter().zip(&report.trajectory).enumerate() {
            let gain = cover - prev;
            prev = cover;
            self.emit_select(iter, item, gain, cover);
        }
    }
}

/// A selection strategy for the preference-cover problem.
///
/// Implementors are small configuration structs; the graph and budget are
/// per-call. The trait is generic over the [`CoverModel`], so it is not
/// object-safe — the registry erases it through [`SolverSpec`]'s function
/// pointer instead of `dyn`.
pub trait Solver {
    /// Selects `k` items from `g` under cover model `M`.
    fn solve<M: CoverModel>(
        &self,
        g: &PreferenceGraph,
        k: usize,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveReport, SolveError>;

    /// Runtime-variant dispatch: resolves `variant` to the matching
    /// monomorphization of [`Solver::solve`].
    fn dispatch(
        &self,
        variant: Variant,
        g: &PreferenceGraph,
        k: usize,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveReport, SolveError>
    where
        Self: Sized,
    {
        match variant {
            Variant::Independent => self.solve::<Independent>(g, k, ctx),
            Variant::Normalized => self.solve::<Normalized>(g, k, ctx),
        }
    }
}

/// Which cover variants a solver accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VariantSupport {
    /// Works for both IPC and NPC.
    Both,
    /// Restricted to one variant (e.g. the NPC-only low-memory greedy and
    /// the VC-reduction solver).
    Only(Variant),
}

impl VariantSupport {
    /// Whether `variant` is accepted.
    pub fn supports(self, variant: Variant) -> bool {
        match self {
            VariantSupport::Both => true,
            VariantSupport::Only(v) => v == variant,
        }
    }
}

/// Capability flags of a registered solver, used by callers to decide what
/// output shape to expect and what one stored report may answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolverCaps {
    /// The output is a prefix chain (the paper's incremental property,
    /// §3.2): the first `k'` selections of a budget-`k` report are the
    /// budget-`k'` report, bit for bit, for every `k' ≤ k`. So one stored
    /// report answers every smaller budget and, at full budget, every
    /// cover threshold. `false` for solvers whose selections depend on `k`
    /// itself or that optimize the set as a whole.
    pub prefix_chain: bool,
    /// Returns the exact optimum (subject to its size limits).
    pub exact: bool,
    /// Always returns exactly `k` items; `false` for solvers that may
    /// legitimately return fewer (sieve streaming).
    pub fills_budget: bool,
    /// Which cover variants are accepted.
    pub variants: VariantSupport,
}

impl Default for SolverCaps {
    fn default() -> Self {
        Self {
            prefix_chain: false,
            exact: false,
            fills_budget: true,
            variants: VariantSupport::Both,
        }
    }
}

/// The type-erased entry point stored in a [`SolverSpec`]: builds the
/// solver from `ctx.config` and runs it under the given variant.
pub type SolverRun =
    fn(Variant, &PreferenceGraph, usize, &mut SolveCtx<'_>) -> Result<SolveReport, SolveError>;

/// The type-erased warm-start entry point: repairs a previous generation's
/// [`WarmState`] against the post-delta graph given the delta's touched
/// frontier. Only solvers whose warm repair is provably bit-identical to
/// their cold solve register one.
pub type WarmRun = fn(
    Variant,
    &PreferenceGraph,
    usize,
    &[ItemId],
    &WarmState,
    &mut SolveCtx<'_>,
) -> Result<WarmOutcome, SolveError>;

/// A registry entry: everything downstream layers need to list, describe,
/// configure, and invoke one solver.
#[derive(Clone, Copy, Debug)]
pub struct SolverSpec {
    /// CLI/registry name (`--algorithm` value), e.g. `"lazy"`.
    pub name: &'static str,
    /// The [`Algorithm`] tag reports produced by this spec carry.
    pub algorithm: Algorithm,
    /// One-line human description (help text, README table).
    pub description: &'static str,
    /// Capability flags.
    pub caps: SolverCaps,
    run: SolverRun,
    warm: Option<WarmRun>,
}

impl SolverSpec {
    /// Builds a spec. `run` is typically `|v, g, k, ctx| TheSolver.dispatch(v, g, k, ctx)`
    /// — a capture-less closure coerced to a function pointer.
    pub fn new(
        name: &'static str,
        algorithm: Algorithm,
        description: &'static str,
        caps: SolverCaps,
        run: SolverRun,
    ) -> Self {
        Self {
            name,
            algorithm,
            description,
            caps,
            run,
            warm: None,
        }
    }

    /// Registers a warm-start entry point (builder-style). Specs without
    /// one simply decline [`Self::solve_warm`]; callers fall back to
    /// [`Self::solve`].
    pub fn with_warm(mut self, warm: WarmRun) -> Self {
        self.warm = Some(warm);
        self
    }

    /// Whether this solver can repair a [`WarmState`] instead of solving
    /// cold.
    pub fn supports_warm_start(&self) -> bool {
        self.warm.is_some()
    }

    /// Runs the solver, gating unsupported variants first, then polling the
    /// observer's cancellation flag once before handing off — so every
    /// registered solver, including replay-style ones with no internal poll
    /// points, returns promptly when cancellation was signalled up front.
    ///
    /// # Errors
    ///
    /// [`SolveError::UnsupportedVariant`] when `variant` is outside
    /// [`SolverCaps::variants`]; [`SolveError::Cancelled`] when the observer
    /// already signals cancellation; otherwise whatever the solver returns.
    pub fn solve(
        &self,
        variant: Variant,
        g: &PreferenceGraph,
        k: usize,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveReport, SolveError> {
        if !self.caps.variants.supports(variant) {
            return Err(SolveError::UnsupportedVariant {
                solver: self.name.to_string(),
                variant,
            });
        }
        ctx.check_cancelled()?;
        (self.run)(variant, g, k, ctx)
    }

    /// Runs the solver's warm-start repair with the same gating as
    /// [`Self::solve`]: variant support first, then one up-front
    /// cancellation poll.
    ///
    /// # Errors
    ///
    /// An internal error when the spec has no warm entry point (gate on
    /// [`Self::supports_warm_start`]); [`SolveError::UnsupportedVariant`] /
    /// [`SolveError::Cancelled`] as for [`Self::solve`]; otherwise whatever
    /// the repair returns.
    pub fn solve_warm(
        &self,
        variant: Variant,
        g: &PreferenceGraph,
        k: usize,
        touched: &[ItemId],
        warm: &WarmState,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<WarmOutcome, SolveError> {
        let Some(run) = self.warm else {
            return Err(SolveError::internal(format!(
                "solver '{}' has no warm-start entry point",
                self.name
            )));
        };
        if !self.caps.variants.supports(variant) {
            return Err(SolveError::UnsupportedVariant {
                solver: self.name.to_string(),
                variant,
            });
        }
        ctx.check_cancelled()?;
        run(variant, g, k, touched, warm, ctx)
    }
}

/// The solver registry: an ordered list of [`SolverSpec`]s that the CLI,
/// benchmarks, and adaptation engine dispatch through.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    specs: Vec<SolverSpec>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry of every solver in this crate, in the order they appear
    /// in help text and experiment sweeps.
    pub fn builtin() -> Self {
        let mut r = Self::new();
        for spec in [
            crate::greedy::spec(),
            crate::greedy::low_memory_spec(),
            crate::lazy::spec(),
            crate::delta::spec(),
            crate::parallel::spec(),
            crate::partitioned::spec(),
            crate::brute_force::spec(),
            crate::baselines::top_k_weight_spec(),
            crate::baselines::top_k_coverage_spec(),
            crate::baselines::random_spec(),
            crate::stochastic::spec(),
            crate::streaming::spec(),
            crate::local_search::spec(),
            crate::maxvc::spec(),
        ] {
            r.register(spec);
        }
        r
    }

    /// Adds a spec; an existing entry with the same name is replaced in
    /// place (so tests can shadow a builtin).
    pub fn register(&mut self, spec: SolverSpec) {
        match self.specs.iter().position(|s| s.name == spec.name) {
            Some(i) => {
                if let Some(slot) = self.specs.get_mut(i) {
                    *slot = spec;
                }
            }
            None => self.specs.push(spec),
        }
    }

    /// Looks up a spec by name.
    pub fn get(&self, name: &str) -> Option<&SolverSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// All specs, in registration order.
    pub fn specs(&self) -> &[SolverSpec] {
        &self.specs
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name).collect()
    }

    /// The `--algorithm` usage fragment, derived from the registry so help
    /// text can never drift from the accepted set: `"greedy|lazy|…"`.
    pub fn usage_line(&self) -> String {
        self.names().join("|")
    }

    /// The error message for an unrecognized algorithm name: a suggestion
    /// listing every registered name.
    pub fn unknown_algorithm_message(&self, requested: &str) -> String {
        format!(
            "unknown algorithm '{requested}'; available: {}",
            self.names().join(", ")
        )
    }

    /// A GitHub-flavoured markdown table of the registered solvers (name,
    /// report label, description) — the README's algorithm table is
    /// generated from this and a test keeps the two in sync.
    pub fn markdown_table(&self) -> String {
        let mut out = String::from("| `--algorithm` | Label | Description |\n|---|---|---|\n");
        for s in &self.specs {
            out.push_str(&format!(
                "| `{}` | {} | {} |\n",
                s.name,
                s.algorithm.label(),
                s.description
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use pcover_graph::examples::figure1_ids;

    use super::*;

    #[test]
    fn builtin_registry_lists_every_algorithm() {
        let r = Registry::builtin();
        for algo in Algorithm::ALL {
            assert!(
                r.specs().iter().any(|s| s.algorithm == algo),
                "no spec produces {algo:?}"
            );
        }
        // CLI names of the enum are registry names.
        for algo in Algorithm::ALL {
            assert!(
                r.get(algo.cli_name()).is_some(),
                "cli name {} not registered",
                algo.cli_name()
            );
        }
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = Registry::builtin();
        let before = r.specs().len();
        let fake = SolverSpec::new(
            "greedy",
            Algorithm::Greedy,
            "shadowed",
            SolverCaps::default(),
            |v, g, k, ctx| crate::greedy::Greedy.dispatch(v, g, k, ctx),
        );
        r.register(fake);
        assert_eq!(r.specs().len(), before);
        assert_eq!(
            r.get("greedy").map(|s| s.description),
            Some("shadowed"),
            "same-name registration must replace"
        );
    }

    #[test]
    fn usage_line_and_unknown_message_derive_from_registry() {
        let r = Registry::builtin();
        let usage = r.usage_line();
        assert!(usage.starts_with("greedy|"));
        assert!(usage.contains("|lazy|"));
        let msg = r.unknown_algorithm_message("nope");
        assert!(msg.contains("nope"));
        assert!(msg.contains("lazy"));
    }

    #[test]
    fn variant_gating() {
        let r = Registry::builtin();
        let (g, _) = figure1_ids();
        let Some(spec) = r.get("maxvc") else {
            unreachable!("maxvc registered")
        };
        let mut ctx = SolveCtx::default();
        let err = spec.solve(Variant::Independent, &g, 2, &mut ctx);
        assert!(matches!(err, Err(SolveError::UnsupportedVariant { .. })));
        assert!(spec.solve(Variant::Normalized, &g, 2, &mut ctx).is_ok());
    }

    #[test]
    fn trace_observer_records_the_trajectory() {
        let (g, ids) = figure1_ids();
        let mut trace = TraceObserver::new();
        let mut ctx = SolveCtx::with_observer(SolverConfig::default(), &mut trace);
        let r = crate::greedy::Greedy
            .solve::<Normalized>(&g, 2, &mut ctx)
            .map_err(|e| e.to_string());
        let Ok(report) = r else {
            unreachable!("greedy solves figure 1")
        };
        assert_eq!(trace.events.len(), 2);
        let Some(first) = trace.events.first() else {
            unreachable!("two events recorded")
        };
        assert_eq!(first.item, ids.b);
        assert_eq!(first.iter, 0);
        let items: Vec<ItemId> = trace.events.iter().map(|e| e.item).collect();
        assert_eq!(items, report.order);
        let covers: Vec<f64> = trace.events.iter().map(|e| e.cover).collect();
        let matches = covers
            .iter()
            .zip(&report.trajectory)
            .all(|(a, b)| crate::float::approx_eq(*a, *b, 1e-12));
        assert!(matches, "trace covers must mirror the trajectory");
        assert_eq!(trace.rounds.len(), 2);
    }

    #[test]
    fn progress_observer_writes_lines_and_swallows_errors() {
        let mut buf = Vec::new();
        {
            let mut obs = ProgressObserver::new(&mut buf);
            obs.on_select(0, ItemId::new(3), 0.5, 0.5);
            obs.on_select(1, ItemId::new(1), 0.2, 0.7);
        }
        let text = String::from_utf8_lossy(&buf).to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("item 3"));

        /// A writer that always fails, to prove progress never errors out.
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("nope"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("nope"))
            }
        }
        let mut obs = ProgressObserver::with_stride(Failing, 2);
        obs.on_select(0, ItemId::new(0), 0.1, 0.1);
        obs.on_select(1, ItemId::new(1), 0.1, 0.2);
    }

    #[test]
    fn emit_report_replays_order_and_trajectory() {
        let (g, _) = figure1_ids();
        let mut ctx = SolveCtx::default();
        let Ok(report) = crate::greedy::Greedy.solve::<Normalized>(&g, 3, &mut ctx) else {
            unreachable!("greedy solves figure 1")
        };
        let mut trace = TraceObserver::new();
        let mut ctx = SolveCtx::with_observer(SolverConfig::default(), &mut trace);
        ctx.emit_report(&report);
        let items: Vec<ItemId> = trace.events.iter().map(|e| e.item).collect();
        assert_eq!(items, report.order);
    }
}
