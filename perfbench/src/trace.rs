//! In-memory spans recorded from outside the program, around each call
//! into a layer's public API, plus the per-round child spans a solver
//! observer reports. Spans are kept per thread and written out once the
//! run ends; nothing is recorded when tracing is off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use pcover_core::{Observer, RoundStats};
use pcover_graph::ItemId;

/// Who a span worked for: `(connection, sequence)` for an HTTP request,
/// `(REPLICA, generation)` for a call on the in-process replica,
/// `(u32::MAX, repetition)` for set-up.
pub type ReqId = (u32, u64);

/// The connection number of the in-process replica's calls.
pub const REPLICA: u32 = u32::MAX - 1;

/// The layer of the benchmark's own spans (set-up and read wrappers,
/// answer checks). Coverage leaves them out.
pub const BENCH: &str = "bench";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer the called function belongs to (`core`, `serve`, …).
    pub layer: &'static str,
    /// The call, e.g. `SolverSpec::solve(lazy)`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// The request or round this span served.
    pub req: ReqId,
}

/// A span being recorded; hand it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use]
pub struct Open(Option<u32>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; records nothing
    /// unless `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, req: ReqId) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Self::begin`].
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        if self.stack.last() == Some(&idx) {
            self.stack.pop();
        }
    }

    /// Records a finished child of the innermost open span with explicit
    /// instants (the per-round spans an observer collected).
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        req: ReqId,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            layer,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.stack.last().copied(),
            req,
        });
    }

    /// Nanoseconds since the epoch for `t` (for phase boundaries).
    pub fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer self time (a span's duration minus what its children cover)
/// over the spans of several tracers, restricted to spans that end inside
/// `[from_ns, to_ns]`.
pub fn self_time_by_layer(
    tracers: &[&Tracer],
    from_ns: u64,
    to_ns: u64,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for t in tracers {
        let spans = t.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        for (s, &c) in spans.iter().zip(&child_ns) {
            if s.end_ns < from_ns || s.end_ns > to_ns {
                continue;
            }
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
    }
    out
}

/// Share (0–1) of the wall interval `[from_ns, to_ns]` during which at
/// least one layer span — any span outside [`BENCH`] — of any tracer was
/// open. Children lie inside their parents, so the union of all layer
/// spans is the union of the outermost ones; the benchmark's own time
/// (building requests, checking answers) counts as uncovered.
pub fn coverage(tracers: &[&Tracer], from_ns: u64, to_ns: u64) -> f64 {
    let mut intervals: Vec<(u64, u64)> = tracers
        .iter()
        .flat_map(|t| t.spans().iter())
        .filter(|s| s.layer != BENCH)
        .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    let wall = to_ns.saturating_sub(from_ns);
    if wall == 0 {
        0.0
    } else {
        covered as f64 / wall as f64
    }
}

/// Writes every tracer's spans and the per-layer self times as one JSON
/// document.
pub fn write_json(
    path: &std::path::Path,
    tracers: &[&Tracer],
    self_time: &BTreeMap<&'static str, f64>,
) -> std::io::Result<()> {
    let mut out = String::with_capacity(1 << 20);
    out.push_str("{\"schema\":\"perfbench-trace/1\",\"self_time_s\":{");
    for (i, (layer, secs)) in self_time.iter().enumerate() {
        let _ = write!(out, "{}\"{layer}\":{secs}", if i > 0 { "," } else { "" });
    }
    out.push_str("},\"fields\":[\"thread\",\"id\",\"parent\",\"layer\",\"name\",\"start_ns\",\"end_ns\",\"conn\",\"seq\"],\"spans\":[\n");
    let mut first = true;
    for (thread, t) in tracers.iter().enumerate() {
        for (id, s) in t.spans().iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{}[{thread},{id},{parent},\"{}\",\"{}\",{},{},{},{}]",
                if first { "" } else { ",\n" },
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                s.req.0,
                s.req.1
            );
            first = false;
        }
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

/// A solver [`Observer`] that timestamps every selection and keeps each
/// round's gain-evaluation count, so a solve can be split into per-round
/// child spans.
#[derive(Debug)]
pub struct RoundObserver {
    started: Instant,
    /// End instant of each round, in order.
    pub round_ends: Vec<Instant>,
    /// Gain evaluations of each round, in order.
    pub evals: Vec<u64>,
}

impl RoundObserver {
    /// An observer for a solve starting now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            round_ends: Vec::new(),
            evals: Vec::new(),
        }
    }

    /// `(start, end)` of every round.
    pub fn rounds(&self) -> impl Iterator<Item = (Instant, Instant)> + '_ {
        let starts = std::iter::once(self.started).chain(self.round_ends.iter().copied());
        starts.zip(self.round_ends.iter().copied())
    }
}

impl Default for RoundObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for RoundObserver {
    fn on_select(&mut self, _iter: usize, _item: ItemId, _gain: f64, _cover: f64) {
        self.round_ends.push(Instant::now());
    }

    fn on_round_stats(&mut self, stats: &RoundStats) {
        self.evals.push(stats.gain_evaluations);
    }
}
