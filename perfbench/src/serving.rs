//! `serve-hot` and `serve-churn`: the merchandising service. Set-up runs
//! the whole pipeline (sessions file → `read_jsonl` → `adapt` →
//! `write_graph` → `read_graph` → `Server::start` → first `/solve`
//! answered); the timed phase runs closed-loop keep-alive clients.
//!
//! Reads follow `pcover loadgen`'s default plan: endpoints weighted
//! solve=6, cover=3, minimize=1, zipf(1) budgets, and minimize thresholds
//! 0.5, 0.7, 0.8 and 0.9 (the thresholds of the paper's Fig. 4f).
//! serve-churn leaves `/minimize` out: each epoch's k = n solve behind it
//! made the run follow the shared host's memory contention (on the PE-10 %
//! graph, quartile spread of `ops_per_s` 22 % over ten seeds, against 9 %
//! without).
//!
//! `serve-hot` is read-only traffic over a warmed cache from one
//! connection: with two, both vCPUs of the reference VM saturate and the
//! throughput swung with the host's load (quartile spread 30 % over ten
//! seeds, against 6 % for one). Its windows all replay one block of reads,
//! and its end-to-end metrics come from the fastest quarter of them
//! (`run.py` also keeps its process on one vCPU). `serve-churn` uses two
//! connections and posts a seeded catalog delta between epochs; connection
//! 0 owns the `lazy` lineage and connection 1 the `delta` lineage, deltas
//! go out only when both have finished the epoch, and each epoch inserts
//! two cache entries, far below capacity — so the cache outcome of every
//! request is fixed by the seed.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pcover_adapt::{adapt, AdaptOptions};
use pcover_core::{Registry, SolveCtx, SolveReport, SolverConfig, Variant, WarmState};
use pcover_graph::delta::{apply, Change, GraphDelta};
use pcover_graph::{ItemId, PreferenceGraph};
use pcover_serve::{Server, ServerConfig, ServerHandle};
use pcover_store::{read_graph, write_graph, OpenMode, VariantHint, WriteOptions};

use crate::client::{cache_tag, field, field_num, hash_bytes, Client};
use crate::config::{Options, Plant, ServeSize, Workload};
use crate::inputs::PLAN_STREAM;
use crate::report::Outcome;
use crate::samples::{median, Samples};
use crate::trace::{
    coverage, self_time_by_layer, write_json, ReqId, RoundObserver, Tracer, BENCH, REPLICA,
};
use crate::{host, Layers, Rng, Zipf, END_TO_END};

/// Minimize thresholds the clients ask for: `pcover loadgen`'s, which are
/// the paper's Fig. 4f thresholds. On the PE-5 % graph they retain about
/// 500, 3,200, 7,900 and 18,700 items.
const THRESHOLDS: [f64; 4] = [0.5, 0.7, 0.8, 0.9];
/// serve-churn: a delta edits one edge per this many nodes, the size of
/// `bench-snapshot --warm`'s seeded delta.
const NODES_PER_EDIT: usize = 200;
/// serve-churn: one edit in this many removes its edge; the others halve
/// its weight, as `bench-snapshot --warm` does.
const REMOVE_EVERY: usize = 4;
/// serve-churn: every this many epochs the delta also delists one item.
const DELIST_EVERY: usize = 8;
/// serve-churn: the `delta` lineage's budgets stop at `k_max` divided by
/// this. Its O(n) argmax per round makes a warm repair cost grow with k
/// (≈ 100 ms at k = 200, ≈ 420 ms at 1,000); at 1,000 an epoch would take
/// more than twice as long and a run would hold under half the epochs.
const DELTA_K_SHARE: usize = 5;
/// serve-hot: the end-to-end metrics come from the fastest of every this
/// many windows. Every window replays the same reads, so a slower window
/// is one the shared host slowed; like a minimum over repeats, the fastest
/// windows read the program's own cost.
const FAST_WINDOW_SHARE: usize = 4;
/// Budget of the first answer in set-up.
const FIRST_K: usize = 100;

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 128,
        default_deadline: None,
        read_timeout: Duration::from_secs(30),
        idle_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    }
}

/// serve-churn: connection 0 owns the `lazy` lineage, connection 1 the
/// warm-capable `delta` lineage, both on the Normalized variant.
const CHURN_LINEAGES: [Lineage; 2] = [
    Lineage {
        algorithm: "lazy",
        variant: Variant::Normalized,
    },
    Lineage {
        algorithm: "delta",
        variant: Variant::Normalized,
    },
];

/// One planned read.
#[derive(Clone, Copy, Debug)]
enum Read {
    Solve { k: usize },
    Cover { k: usize },
    Minimize { t: usize },
}

impl Read {
    fn endpoint(self) -> &'static str {
        match self {
            Read::Solve { .. } => "solve",
            Read::Cover { .. } => "cover",
            Read::Minimize { .. } => "minimize",
        }
    }
}

/// What a connection asks and how.
#[derive(Clone, Copy, Debug)]
struct Lineage {
    algorithm: &'static str,
    variant: Variant,
}

impl Lineage {
    fn target(self, read: Read, buf: &mut String) {
        buf.clear();
        let (a, v) = (self.algorithm, self.variant.name());
        let _ = match read {
            Read::Solve { k } => write!(buf, "/solve?algorithm={a}&variant={v}&k={k}"),
            Read::Cover { k } => write!(buf, "/cover?algorithm={a}&variant={v}&k={k}"),
            Read::Minimize { t } => write!(
                buf,
                "/minimize?algorithm={a}&variant={v}&threshold={}",
                THRESHOLDS[t]
            ),
        };
    }
}

fn variant_idx(v: Variant) -> u8 {
    match v {
        Variant::Independent => 0,
        Variant::Normalized => 1,
    }
}

/// An answer as served: the cover's bit pattern, and the order's hash
/// when the response carried one. Bits, not floats, because answers must
/// be identical, not close.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Answer {
    cover_bits: u64,
    order: Option<u64>,
}

/// Answers seen, by `(generation, variant, k)`, plus minimize outcomes by
/// `(generation, variant, threshold index)`.
#[derive(Debug, Default)]
struct Answers {
    by_key: HashMap<(u64, u8, usize), Answer>,
    minimize: HashMap<(u64, u8, usize), usize>,
    conflicts: Vec<String>,
}

impl Answers {
    /// Records a minimize outcome; a different `k` for the same key is a
    /// conflict.
    fn note_minimize(&mut self, key: (u64, u8, usize), k: usize) {
        match self.minimize.get(&key) {
            None => {
                self.minimize.insert(key, k);
            }
            Some(&seen) if seen != k => self.conflicts.push(format!(
                "generation {} minimize({}): k {seen} vs {k}",
                key.0, THRESHOLDS[key.2]
            )),
            Some(_) => {}
        }
    }

    fn note(&mut self, key: (u64, u8, usize), a: Answer) {
        match self.by_key.get_mut(&key) {
            None => {
                self.by_key.insert(key, a);
            }
            Some(seen) => {
                let order_differs = matches!((seen.order, a.order), (Some(x), Some(y)) if x != y);
                // lint: allow(float-eq) — compares bit patterns: served answers must be identical, not close
                if seen.cover_bits != a.cover_bits || order_differs {
                    self.conflicts.push(format!(
                        "generation {} variant {} k {}: two different answers served",
                        key.0, key.1, key.2
                    ));
                } else if seen.order.is_none() {
                    seen.order = a.order;
                }
            }
        }
    }

    fn merge(&mut self, other: Answers) {
        self.conflicts.extend(other.conflicts);
        for (key, a) in other.by_key {
            self.note(key, a);
        }
        for (key, k) in other.minimize {
            self.note_minimize(key, k);
        }
    }
}

/// One read as the timed phase saw it. The phase only parses and records;
/// [`ConnResult::tally`] checks and counts afterwards, so the client's own
/// work between requests stays small and touches little memory.
#[derive(Clone, Copy, Debug)]
struct Observed {
    read: Read,
    variant: u8,
    generation: u64,
    k: usize,
    answer: Answer,
    tag: Tag,
    took: Duration,
}

/// A response's `cache` tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tag {
    Hit,
    Prefix,
    Miss,
    Warm,
    Coalesced,
    None,
}

impl Tag {
    fn parse(s: Option<&str>) -> Self {
        match s {
            Some("hit") => Tag::Hit,
            Some("prefix") => Tag::Prefix,
            Some("miss") => Tag::Miss,
            Some("warm") => Tag::Warm,
            Some("coalesced") => Tag::Coalesced,
            _ => Tag::None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Tag::Hit => "hit",
            Tag::Prefix => "prefix",
            Tag::Miss => "miss",
            Tag::Warm => "warm",
            Tag::Coalesced => "coalesced",
            Tag::None => "none",
        }
    }
}

/// Per-connection results of the timed phase.
#[derive(Debug, Default)]
struct ConnResult {
    observed: Vec<Observed>,
    all: Samples,
    hit: Samples,
    miss: Samples,
    warm: Samples,
    delta_rtts: Vec<Duration>,
    answers: Answers,
    tags: BTreeMap<&'static str, u64>,
    requests: BTreeMap<&'static str, u64>,
    resp_bytes: u64,
    reads: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    reconnects: u64,
    rss_max: f64,
    /// Wall time of each window (serve-hot) or epoch (serve-churn),
    /// measured between the barriers that end them.
    windows: Vec<Duration>,
}

impl ConnResult {
    /// Folds another connection's results into this one (windows are
    /// shared, so the first connection's are kept).
    fn absorb(&mut self, other: ConnResult) {
        self.all.extend(&other.all);
        self.hit.extend(&other.hit);
        self.miss.extend(&other.miss);
        self.warm.extend(&other.warm);
        self.delta_rtts.extend(other.delta_rtts);
        self.answers.merge(other.answers);
        for (t, n) in other.tags {
            *self.tags.entry(t).or_insert(0) += n;
        }
        for (e, n) in other.requests {
            *self.requests.entry(e).or_insert(0) += n;
        }
        self.resp_bytes += other.resp_bytes;
        self.reads += other.reads;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.reconnects += other.reconnects;
        self.rss_max = self.rss_max.max(other.rss_max);
        if self.windows.is_empty() {
            self.windows = other.windows;
        }
    }

    /// Records one read's response: a failure, or the parsed answer.
    fn read_response(
        &mut self,
        lineage: Lineage,
        read: Read,
        status: std::io::Result<u16>,
        body: &[u8],
        took: Duration,
    ) {
        self.attempted += 1;
        self.reads += 1;
        match status {
            Ok(200) => {}
            Ok(s) => {
                self.failed += 1;
                self.errors.push(format!(
                    "{}: HTTP {s}: {}",
                    read.endpoint(),
                    String::from_utf8_lossy(body)
                ));
                return;
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{}: {e}", read.endpoint()));
                return;
            }
        }
        self.resp_bytes += body.len() as u64;
        let parsed = (|| {
            let generation: u64 = field_num(body, "generation")?;
            let k: usize = field_num(body, "k")?;
            let cover: f64 = field_num(body, "cover")?;
            let order = field(body, "order").map(hash_bytes);
            Some((generation, k, cover, order))
        })();
        let Some((generation, k, cover, order)) = parsed else {
            self.failed += 1;
            self.errors.push(format!(
                "{}: unparseable body {}",
                read.endpoint(),
                String::from_utf8_lossy(body)
            ));
            return;
        };
        self.observed.push(Observed {
            read,
            variant: variant_idx(lineage.variant),
            generation,
            k,
            answer: Answer {
                cover_bits: cover.to_bits(),
                order,
            },
            tag: Tag::parse(cache_tag(body)),
            took,
        });
    }

    /// Checks and counts every observed read, after the timed phase. With
    /// `plant_minimize`, the first repeated minimize answer is noted with
    /// `k + 1`, as a served k that is not minimal would read.
    fn tally(&mut self, plant_minimize: bool) {
        let mut plant = plant_minimize;
        for o in std::mem::take(&mut self.observed) {
            *self.requests.entry(o.read.endpoint()).or_insert(0) += 1;
            *self.tags.entry(o.tag.name()).or_insert(0) += 1;
            self.all.push(o.took);
            match o.tag {
                Tag::Hit | Tag::Prefix => self.hit.push(o.took),
                Tag::Miss => self.miss.push(o.took),
                Tag::Warm => self.warm.push(o.took),
                Tag::Coalesced | Tag::None => {}
            }
            if let Read::Minimize { t } = o.read {
                let key = (o.generation, o.variant, t);
                let mut k = o.k;
                if plant && self.answers.minimize.contains_key(&key) {
                    plant = false;
                    k += 1;
                }
                self.answers.note_minimize(key, k);
            }
            self.answers.note((o.generation, o.variant, o.k), o.answer);
        }
    }
}

/// One timed read: the round trip in a `serve` span, inside a `bench`
/// span that also covers parsing the response.
fn timed_read(
    client: &mut Client,
    tr: &mut Tracer,
    r: &mut ConnResult,
    lineage: Lineage,
    read: Read,
    target: &mut String,
    req: ReqId,
) {
    lineage.target(read, target);
    let outer = tr.begin(BENCH, "read", req);
    let span = tr.begin("serve", "GET", req);
    let t = Instant::now();
    let status = client.request("GET", target, b"");
    let took = t.elapsed();
    tr.end(span);
    r.read_response(lineage, read, status, client.body(), took);
    tr.end(outer);
}

/// The expected order hash for `order` rendered as the server renders it.
fn order_hash(order: &[ItemId]) -> u64 {
    let mut s = String::with_capacity(order.len() * 7 + 2);
    s.push('[');
    for (i, id) in order.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", id.raw());
    }
    s.push(']');
    hash_bytes(s.as_bytes())
}

/// Checks every answer of `generation` on `variant` against a replica
/// report whose budget covers them; returns the number of keys checked.
fn check_against(
    answers: &Answers,
    generation: u64,
    variant: Variant,
    report: &SolveReport,
    out: &mut Outcome,
) -> usize {
    let v = variant_idx(variant);
    let mut checked = 0;
    for (&(g, kv, k), a) in &answers.by_key {
        if g != generation || kv != v {
            continue;
        }
        checked += 1;
        let Some((prefix, expected)) = report.prefix(k) else {
            out.mismatch(format!(
                "generation {g} {}: k {k} beyond the replica's answer",
                variant.name()
            ));
            continue;
        };
        // lint: allow(float-eq) — compares bit patterns: the replica's answer must be identical, not close
        let cover_ok = expected.to_bits() == a.cover_bits;
        let order_ok = a.order.is_none_or(|h| h == order_hash(prefix));
        if !cover_ok || !order_ok {
            out.mismatch(format!(
                "generation {g} {} k {k}: served answer differs from the replica (cover {}, order {})",
                variant.name(),
                if cover_ok { "equal" } else { "differs" },
                if order_ok { "equal" } else { "differs" }
            ));
        }
    }
    for (&(g, kv, t), &k) in &answers.minimize {
        if g != generation || kv != v {
            continue;
        }
        if report.smallest_prefix_reaching(THRESHOLDS[t]) != Some(k) {
            out.mismatch(format!(
                "generation {g} {}: minimize({}) retained {k}, the replica needs {:?}",
                variant.name(),
                THRESHOLDS[t],
                report.smallest_prefix_reaching(THRESHOLDS[t])
            ));
        }
    }
    checked
}

/// The largest budget among `generation`'s answers on `variant`.
fn max_k(answers: &Answers, generation: u64, variant: Variant) -> Option<usize> {
    let v = variant_idx(variant);
    answers
        .by_key
        .keys()
        .filter(|(g, kv, _)| *g == generation && *kv == v)
        .map(|&(_, _, k)| k)
        .max()
}

/// Parses `/metrics` text into counters.
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .collect()
}

fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let mut c = Client::new(addr);
    let status = c
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: HTTP {status}"));
    }
    Ok(parse_metrics(&String::from_utf8_lossy(c.body())))
}

fn get_ok(c: &mut Client, target: &str) -> Result<(), String> {
    match c.request("GET", target, b"") {
        Ok(200) => Ok(()),
        Ok(s) => Err(format!(
            "GET {target}: HTTP {s}: {}",
            String::from_utf8_lossy(c.body())
        )),
        Err(e) => Err(format!("GET {target}: {e}")),
    }
}

/// Set-up timings of one pipeline repetition.
#[derive(Debug, Default)]
struct SetupTimes {
    total: Vec<f64>,
    read: Vec<f64>,
    adapt: Vec<f64>,
    write: Vec<f64>,
    load: Vec<f64>,
    start: Vec<f64>,
    first_ms: Vec<f64>,
    sessions: usize,
    items: usize,
    edges: usize,
    pcov_mb: f64,
}

/// One pipeline run: sessions file to first answer. Returns the running
/// server and the container it loaded.
fn pipeline(
    opts: &Options,
    rep: usize,
    tr: &mut Tracer,
    times: &mut SetupTimes,
) -> Result<(ServerHandle, PathBuf), String> {
    let input = opts.input_path();
    let pcov = opts
        .dir
        .join(format!("{}-{}-{rep}.pcov", opts.workload.name(), opts.seed));
    let req = (u32::MAX, rep as u64);
    let root = tr.begin(BENCH, "setup", req);
    let t0 = Instant::now();

    let span = tr.begin("clickstream", "io::read_jsonl", req);
    let t = Instant::now();
    let cs = pcover_clickstream::io::read_jsonl(&input)
        .map_err(|e| format!("read {}: {e}", input.display()))?;
    times.read.push(t.elapsed().as_secs_f64());
    tr.end(span);

    let span = tr.begin("adapt", "adapt::adapt", req);
    let t = Instant::now();
    let adapted = adapt(
        &cs,
        &AdaptOptions {
            variant: Variant::Normalized,
            label_nodes: true,
            min_edge_support: 1,
        },
    )
    .map_err(|e| format!("adapt: {e}"))?;
    times.adapt.push(t.elapsed().as_secs_f64());
    tr.end(span);

    let span = tr.begin("store", "write_graph", req);
    let t = Instant::now();
    write_graph(
        &adapted.graph,
        &pcov,
        WriteOptions {
            variant: VariantHint::Normalized,
        },
    )
    .map_err(|e| format!("write {}: {e}", pcov.display()))?;
    times.write.push(t.elapsed().as_secs_f64());
    tr.end(span);

    let span = tr.begin("store", "read_graph", req);
    let t = Instant::now();
    let (graph, _) =
        read_graph(&pcov, OpenMode::Auto).map_err(|e| format!("load {}: {e}", pcov.display()))?;
    times.load.push(t.elapsed().as_secs_f64());
    tr.end(span);

    let span = tr.begin("serve", "Server::start", req);
    let t = Instant::now();
    let handle = Server::start(graph, server_config()).map_err(|e| format!("start server: {e}"))?;
    times.start.push(t.elapsed().as_secs_f64());
    tr.end(span);

    let span = tr.begin("serve", "GET /solve (first answer)", req);
    let t = Instant::now();
    let mut c = Client::new(handle.addr());
    get_ok(
        &mut c,
        &format!("/solve?algorithm=lazy&variant=normalized&k={FIRST_K}"),
    )?;
    times.first_ms.push(t.elapsed().as_secs_f64() * 1e3);
    tr.end(span);
    times.total.push(t0.elapsed().as_secs_f64());
    tr.end(root);
    c.close();

    times.sessions = cs.len();
    times.items = adapted.graph.node_count();
    times.edges = adapted.graph.edge_count();
    times.pcov_mb = std::fs::metadata(&pcov).map_or(0.0, |m| m.len() as f64 / 1_048_576.0);
    Ok((handle, pcov))
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// serve-hot: the reads of one window, which every window replays. The
/// default mix in exact proportions — in every ten reads six `/solve`, three
/// `/cover` and one `/minimize`, the minimizes taking each (threshold,
/// variant) pair in turn — with zipf budgets and random variants for the
/// rest, in a seeded order. The large `/minimize` bodies take most of a
/// window's time, so fixing their number keeps the work of a window the
/// same from seed to seed too.
fn hot_block(len: usize, rng: &mut Rng, zipf: &Zipf) -> Vec<(Variant, Read)> {
    const VARIANTS: [Variant; 2] = [Variant::Normalized, Variant::Independent];
    let mut block: Vec<(Variant, Read)> = (0..len)
        .map(|i| match i % 10 {
            0..=5 => (
                VARIANTS[rng.below(2)],
                Read::Solve {
                    k: zipf.sample(rng),
                },
            ),
            6..=8 => (
                VARIANTS[rng.below(2)],
                Read::Cover {
                    k: zipf.sample(rng),
                },
            ),
            _ => {
                let m = i / 10;
                (
                    VARIANTS[(m / THRESHOLDS.len()) % 2],
                    Read::Minimize {
                        t: m % THRESHOLDS.len(),
                    },
                )
            }
        })
        .collect();
    for i in (1..block.len()).rev() {
        block.swap(i, rng.below(i + 1));
    }
    block
}

/// The indices of the fastest `1 / FAST_WINDOW_SHARE` of `windows`
/// (at least one).
fn fastest_windows(windows: &[Duration]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..windows.len()).collect();
    idx.sort_by_key(|&i| windows[i]);
    idx.truncate((windows.len() / FAST_WINDOW_SHARE).max(1));
    idx
}

/// serve-churn read `i` of an epoch: the first asks for the lineage's
/// largest budget (a miss or a warm repair after every swap); the rest
/// follow `pcover loadgen`'s default mix without `/minimize` (solve=6,
/// cover=3, zipf budgets), below that budget, so the cache answers them.
fn churn_read(i: usize, rng: &mut Rng, zipf: &Zipf) -> Read {
    if i == 0 {
        return Read::Solve { k: zipf.max() };
    }
    if rng.below(9) < 6 {
        Read::Solve {
            k: zipf.sample(rng),
        }
    } else {
        Read::Cover {
            k: zipf.sample(rng),
        }
    }
}

/// A seeded delta of one edge edit per [`NODES_PER_EDIT`] nodes of `g`:
/// each halves a random out-edge's weight, or, one in [`REMOVE_EVERY`],
/// removes it. Every delta stays valid in any order (weights never rise
/// above `g`'s, so the Normalized out-sum bound holds).
fn edge_delta(g: &PreferenceGraph, rng: &mut Rng) -> GraphDelta {
    let n = g.node_count();
    let changes = (n / NODES_PER_EDIT).max(1);
    let mut delta = GraphDelta::new();
    let mut made = 0;
    while made < changes {
        let v = ItemId::from_index(rng.below(n));
        let deg = g.out_degree(v);
        if deg == 0 {
            continue;
        }
        let Some((target, w)) = g.out_edges(v).nth(rng.below(deg)) else {
            continue;
        };
        let change = if rng.below(REMOVE_EVERY) == 0 {
            Change::RemoveEdge { source: v, target }
        } else {
            Change::UpsertEdge {
                source: v,
                target,
                weight: w * 0.5,
            }
        };
        delta = delta.push(change);
        made += 1;
    }
    delta
}

/// The seeded deltas of serve-churn, one per epoch; every
/// [`DELIST_EVERY`]-th also delists one item.
fn churn_deltas(g: &PreferenceGraph, size: &ServeSize, rng: &mut Rng) -> Vec<GraphDelta> {
    (0..size.epochs)
        .map(|e| {
            let mut d = edge_delta(g, rng);
            if e % DELIST_EVERY == DELIST_EVERY - 1 {
                d = d.push(Change::Delist {
                    node: ItemId::from_index(rng.below(g.node_count())),
                });
            }
            d
        })
        .collect()
}

/// Runs `serve-hot` or `serve-churn`.
///
/// # Errors
///
/// Missing input, a failed pipeline stage, or a server that cannot start.
pub fn run(opts: &Options, out: &mut Outcome) -> Result<(), String> {
    let size = opts.serve();
    let churn = opts.workload == Workload::ServeChurn;
    let epoch = Instant::now();
    let mut tr = Tracer::new(opts.trace, epoch);
    let calib_start = host::calibrate_ms();

    // Set-up, several times; the last server stays up.
    let mut times = SetupTimes::default();
    let mut running: Option<(ServerHandle, PathBuf)> = None;
    for rep in 0..size.setup_reps {
        if let Some((h, p)) = running.take() {
            stop(h);
            let _ = std::fs::remove_file(p);
        }
        running = Some(pipeline(opts, rep, &mut tr, &mut times)?);
    }
    let (server, pcov) = running.ok_or("no set-up repetitions")?;
    let result = timed(
        opts,
        &size,
        churn,
        &server,
        &pcov,
        epoch,
        &mut tr,
        &times,
        calib_start,
        out,
    );
    stop(server);
    let _ = std::fs::remove_file(&pcov);
    result
}

#[allow(clippy::too_many_arguments)]
fn timed(
    opts: &Options,
    size: &ServeSize,
    churn: bool,
    server: &ServerHandle,
    pcov: &Path,
    epoch: Instant,
    tr: &mut Tracer,
    times: &SetupTimes,
    calib_start: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let addr = server.addr();
    let registry = Registry::builtin();
    let lazy = *registry.get("lazy").ok_or("lazy not registered")?;
    let delta_spec = *registry.get("delta").ok_or("delta not registered")?;
    let (replica, _) =
        read_graph(pcov, OpenMode::Auto).map_err(|e| format!("replica load: {e}"))?;
    let n = replica.node_count();
    let k_max = size.k_max.min(n);
    let delta_k = (k_max / DELTA_K_SHARE).max(1);
    let mut plan_rng = Rng::new(opts.seed ^ PLAN_STREAM);
    let deltas = if churn {
        churn_deltas(&replica, size, &mut plan_rng)
    } else {
        Vec::new()
    };
    let bodies: Vec<String> = deltas
        .iter()
        .map(|d| d.to_json_string().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    // Warm-up (untimed): one full-budget lazy solve per variant for
    // serve-hot, so every timed read is a hit; the first query of each
    // lineage for serve-churn, so epoch 0 repairs warm like every other.
    let mut c = Client::new(addr);
    if churn {
        get_ok(
            &mut c,
            &format!("/solve?algorithm=lazy&variant=normalized&k={k_max}"),
        )?;
        get_ok(
            &mut c,
            &format!("/solve?algorithm=delta&variant=normalized&k={delta_k}"),
        )?;
    } else {
        for v in ["normalized", "independent"] {
            get_ok(
                &mut c,
                &format!(
                    "/minimize?algorithm=lazy&variant={v}&threshold={}",
                    THRESHOLDS[0]
                ),
            )?;
        }
    }
    c.close();
    let before = scrape(addr)?;
    let first_gen = server.generation();

    let connections: u32 = if churn { 2 } else { 1 };
    let barrier = Barrier::new(connections as usize);
    let cpu_start = host::cpu_seconds();
    let t0 = Instant::now();
    let results: Vec<(ConnResult, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                let barrier = &barrier;
                let bodies = &bodies;
                let seed =
                    opts.seed ^ PLAN_STREAM ^ (u64::from(conn) + 1).wrapping_mul(0x9e37_79b9);
                let trace = opts.trace;
                s.spawn(move || {
                    let mut r = ConnResult::default();
                    let mut ctr = Tracer::new(trace, epoch);
                    let mut client = Client::new(addr);
                    let mut rng = Rng::new(seed);
                    let mut target = String::with_capacity(128);
                    let mut seq = 0u64;
                    barrier.wait();
                    let mut window_start = Instant::now();
                    if churn {
                        let lineage = CHURN_LINEAGES[conn as usize];
                        let zipf = Zipf::new(if lineage.algorithm == "lazy" {
                            k_max
                        } else {
                            delta_k
                        });
                        for (e, body) in bodies.iter().enumerate() {
                            if e > 0 {
                                barrier.wait();
                                r.windows.push(window_start.elapsed());
                                window_start = Instant::now();
                            }
                            if conn == 0 {
                                let span = ctr.begin("serve", "POST /admin/delta", (conn, seq));
                                let t = Instant::now();
                                let status =
                                    client.request("POST", "/admin/delta", body.as_bytes());
                                let took = t.elapsed();
                                ctr.end(span);
                                seq += 1;
                                r.attempted += 1;
                                match status {
                                    Ok(200) => {
                                        r.delta_rtts.push(took);
                                    }
                                    Ok(s) => {
                                        r.failed += 1;
                                        r.errors.push(format!("delta {e}: HTTP {s}"));
                                    }
                                    Err(err) => {
                                        r.failed += 1;
                                        r.errors.push(format!("delta {e}: {err}"));
                                    }
                                }
                                r.rss_max = r.rss_max.max(host::rss_mb());
                            }
                            barrier.wait();
                            for i in 0..size.reads_per_epoch {
                                let read = churn_read(i, &mut rng, &zipf);
                                timed_read(
                                    &mut client,
                                    &mut ctr,
                                    &mut r,
                                    lineage,
                                    read,
                                    &mut target,
                                    (conn, seq),
                                );
                                seq += 1;
                            }
                        }
                    } else {
                        let block = hot_block(size.hot_block, &mut rng, &Zipf::new(k_max));
                        for w in 0..size.hot_windows {
                            if w > 0 {
                                barrier.wait();
                                r.windows.push(window_start.elapsed());
                                if conn == 0 {
                                    r.rss_max = r.rss_max.max(host::rss_mb());
                                }
                                window_start = Instant::now();
                            }
                            for &(variant, read) in &block {
                                let lineage = Lineage {
                                    algorithm: "lazy",
                                    variant,
                                };
                                timed_read(
                                    &mut client,
                                    &mut ctr,
                                    &mut r,
                                    lineage,
                                    read,
                                    &mut target,
                                    (conn, seq),
                                );
                                seq += 1;
                            }
                        }
                    }
                    barrier.wait();
                    r.windows.push(window_start.elapsed());
                    client.close();
                    r.reconnects = client.reconnects;
                    (r, ctr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds() - cpu_start;
    let t_end = Instant::now();
    // Read before the replica replay below, so the benchmark's own
    // checking never shows in the program's high-water mark.
    let peak_rss = host::peak_rss_mb();
    let after = scrape(addr)?;

    // Check and count what each connection saw (the tests plant their
    // wrong answer on connection 0).
    let mut tracers = Vec::with_capacity(results.len());
    let mut conns = ConnResult::default();
    // serve-hot: the reads of the fastest windows, for the latency metrics.
    let mut fast = Samples::new();
    for (conn, (mut r, t)) in results.into_iter().enumerate() {
        if !churn {
            for w in fastest_windows(&r.windows) {
                let reads = r
                    .observed
                    .iter()
                    .skip(w * size.hot_block)
                    .take(size.hot_block);
                for o in reads {
                    fast.push(o.took);
                }
            }
        }
        let plant = if conn == 0 { opts.plant } else { None };
        r.tally(plant == Some(Plant::MinimizeK));
        if plant == Some(Plant::FlippedBit) {
            if let Some(a) = r.answers.by_key.values_mut().next() {
                a.cover_bits ^= 1;
            }
        }
        conns.absorb(r);
        tracers.push(t);
    }
    let ConnResult {
        mut all,
        mut hit,
        mut miss,
        mut warm,
        delta_rtts,
        mut answers,
        tags,
        requests,
        resp_bytes,
        reads,
        attempted,
        failed,
        errors,
        reconnects,
        rss_max,
        windows,
        observed: _,
    } = conns;
    out.attempted += attempted;
    out.failed += failed;
    for e in errors.iter().take(5) {
        out.notes.push(format!("error: {e}"));
    }
    for c in std::mem::take(&mut answers.conflicts) {
        out.mismatch(c);
    }

    // Replica replay (untimed): apply the same deltas in process and check
    // every served answer of every generation against a registry solve.
    // Traced runs also time the solves behind each miss and warm repair,
    // with one child span per round.
    let mut replica = replica;
    let mut apply_in_order: Vec<Duration> = Vec::with_capacity(deltas.len());
    let mut apply_t = Samples::new();
    let mut core_lazy = Samples::new();
    let mut miss_core = Samples::new();
    let mut warm_core = Samples::new();
    let mut capture_t = Samples::new();
    let mut round_t = Samples::new();
    let mut round_evals: Vec<f64> = Vec::new();
    let mut lazy_evals = 0u64;
    let mut warm_evals = 0u64;
    let mut warm_reused = 0u64;
    let mut warm_repaired = 0u64;
    let mut touched_total = 0u64;
    let mut checked = 0usize;
    let mut delta_order: Vec<ItemId> = Vec::new();
    for e in 0..=deltas.len() {
        let gen = first_gen + e as u64;
        let req = (REPLICA, gen);
        let mut touched = Vec::new();
        let mut previous: Option<PreferenceGraph> = None;
        if e > 0 {
            let d = &deltas[e - 1];
            let span = tr.begin("graph", "delta::apply", req);
            let t = Instant::now();
            let next = apply(&replica, d).map_err(|err| format!("replica apply: {err}"))?;
            let applied = t.elapsed();
            tr.end(span);
            apply_t.push(applied);
            apply_in_order.push(applied);
            let span = tr.begin("graph", "GraphDelta::touched_nodes", req);
            touched = d.touched_nodes(&replica);
            tr.end(span);
            touched_total += touched.len() as u64;
            previous = Some(std::mem::replace(&mut replica, next));
        }
        let replay_warm = churn && opts.trace;
        for variant in [Variant::Normalized, Variant::Independent] {
            let k_top = max_k(&answers, gen, variant);
            let needs_order = replay_warm && variant == Variant::Normalized;
            if k_top.is_none() && !needs_order {
                continue;
            }
            // Each churn epoch's lazy lineage first missed at its largest
            // budget, the k solved here; a traced run keeps that solve's time
            // as the miss's core share.
            let k_solve = k_top.unwrap_or(0).max(delta_k);
            let mut obs = opts.trace.then(RoundObserver::new);
            let span = tr.begin("core", "SolverSpec::solve(lazy)", req);
            let t = Instant::now();
            let report = match obs.as_mut() {
                Some(o) => lazy.solve(
                    variant,
                    &replica,
                    k_solve,
                    &mut SolveCtx::with_observer(SolverConfig::default(), o),
                ),
                None => lazy.solve(
                    variant,
                    &replica,
                    k_solve,
                    &mut SolveCtx::new(SolverConfig::default()),
                ),
            }
            .map_err(|err| format!("replica solve: {err}"))?;
            let solved = t.elapsed();
            if let Some(o) = obs {
                record_rounds(tr, req, &o, &mut round_t);
                round_evals.extend(o.evals.iter().map(|&x| x as f64));
            }
            tr.end(span);
            core_lazy.push(solved);
            lazy_evals += report.gain_evaluations;
            if replay_warm && e > 0 {
                miss_core.push(solved);
            }
            let span = tr.begin(BENCH, "check", req);
            checked += check_against(&answers, gen, variant, &report, out);
            tr.end(span);

            // The delta lineage's first read repaired last generation's
            // answer warm; replay that repair for its core share, and check
            // it equals the cold solve.
            if needs_order {
                if let Some(prev_graph) = previous.as_ref().filter(|_| !delta_order.is_empty()) {
                    let span = tr.begin("core", "WarmState::capture_variant", req);
                    let t = Instant::now();
                    let state = WarmState::capture_variant(variant, prev_graph, &delta_order);
                    capture_t.push(t.elapsed());
                    tr.end(span);
                    let mut o = RoundObserver::new();
                    let span = tr.begin("core", "SolverSpec::solve_warm(delta)", req);
                    let t = Instant::now();
                    let w = delta_spec
                        .solve_warm(
                            variant,
                            &replica,
                            delta_k,
                            &touched,
                            &state,
                            &mut SolveCtx::with_observer(SolverConfig::default(), &mut o),
                        )
                        .map_err(|err| format!("replica warm repair: {err}"))?;
                    warm_core.push(t.elapsed());
                    record_rounds(tr, req, &o, &mut round_t);
                    tr.end(span);
                    warm_evals += w.report.gain_evaluations;
                    warm_reused += w.rounds_reused as u64;
                    warm_repaired += w.rounds_repaired as u64;
                    let same = report.prefix(delta_k).is_some_and(|(order, cover)| {
                        let order_ok = order == w.report.order.as_slice();
                        // lint: allow(float-eq) — compares bit patterns: the warm repair must equal the cold solve exactly
                        order_ok && cover.to_bits() == w.report.cover.to_bits()
                    });
                    if !same {
                        out.mismatch(format!(
                            "generation {gen}: warm delta repair at k {delta_k} differs from the cold lazy solve"
                        ));
                    }
                }
                delta_order = report.order.iter().take(delta_k).copied().collect();
            }
        }
    }
    // Swap time: each delta's round trip minus the replica's apply time.
    let mut swap_t = Samples::new();
    for (rtt, applied) in delta_rtts.iter().zip(&apply_in_order) {
        swap_t.push(rtt.saturating_sub(*applied));
    }

    let calib_end = host::calibrate_ms();

    // Work: fixed by the seed.
    for (endpoint, count) in &requests {
        out.work(&format!("requests.{endpoint}"), *count);
    }
    out.work("requests.delta", delta_rtts.len() as u64);
    let mut delta_rtt: Samples = delta_rtts.iter().copied().collect();
    for (tag, count) in &tags {
        out.work(&format!("cache.{tag}"), *count);
    }
    out.work("response_bytes", resp_bytes);
    out.work("answers.distinct", answers.by_key.len() as u64);
    out.work("answers.checked", checked as u64);
    out.work("pipeline.sessions", times.sessions as u64);
    out.work("pipeline.items", times.items as u64);
    out.work("pipeline.edges", times.edges as u64);
    out.work("replica.evals.lazy", lazy_evals);
    let counter = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    for name in [
        "cache_hits",
        "cache_prefix_hits",
        "cache_misses",
        "warm_start_hits",
        "cache_evictions",
        "delta_applied_total",
        "warm_rounds_reused",
        "warm_rounds_repaired",
    ] {
        out.work(&format!("server.{name}"), counter(name) as u64);
    }
    for name in [
        "coalesced_hits",
        "queue_shed_total",
        "keepalive_reuse_total",
    ] {
        out.timing_counts
            .insert(format!("server.{name}"), counter(name) as u64);
    }
    out.timing_counts
        .insert("client.reconnects".to_owned(), reconnects);

    let setup_s = median(&times.total).unwrap_or(0.0);
    let per_window = out.attempted as f64 / windows.len().max(1) as f64;
    // serve-hot: throughput and latency over the fastest windows, which
    // all replay the same reads. serve-churn: throughput over the median
    // epoch, whose work varies with its delta (one in eight delists), and
    // latency over every read.
    let (window_ms, stat) = if churn {
        let median_ms = windows
            .iter()
            .copied()
            .collect::<Samples>()
            .percentile_ms(50.0);
        (median_ms.unwrap_or(f64::INFINITY), "the median".to_owned())
    } else {
        let fast_w = fastest_windows(&windows);
        let total: Duration = fast_w.iter().map(|&w| windows[w]).sum();
        (
            total.as_secs_f64() * 1e3 / fast_w.len() as f64,
            format!("the mean of the fastest {}", fast_w.len()),
        )
    };
    let lat = if churn { &mut all } else { &mut fast };
    let values = [
        setup_s,
        per_window * 1e3 / window_ms,
        lat.percentile_ms(50.0).unwrap_or(0.0),
        lat.percentile_ms(99.0).unwrap_or(0.0),
        peak_rss,
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        out.metric(name, value, unit);
    }
    out.notes.push(format!(
        "pipeline: {} sessions -> {} items, {} edges; setup_s median of {}: {:?}",
        times.sessions,
        times.items,
        times.edges,
        times.total.len(),
        times.total
    ));
    out.notes.push(format!(
        "latency_p50_ms over n={} reads; latency_p99_ms {} ({} beyond); all reads: p50 {} p99 {} ms over n={}; \
         delta p50 {} ms over n={}",
        lat.len(),
        fmt_opt(lat.percentile_ms(99.0)),
        lat.len()
            .saturating_sub((0.99 * lat.len() as f64).ceil() as usize),
        fmt_opt(all.percentile_ms(50.0)),
        fmt_opt(all.percentile_ms(99.0)),
        all.len(),
        fmt_opt(delta_rtt.percentile_ms(50.0)),
        delta_rtt.len()
    ));
    out.notes.push(format!(
        "cache outcomes (client tags): {tags:?}; requests {requests:?}"
    ));
    let window_list: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.0}", w.as_secs_f64() * 1e3))
        .collect();
    out.notes.push(format!(
        "ops_per_s: {per_window:.0} requests per window over {stat} of n={} windows ({window_ms:.2} ms; \
         in order: {}); mean rate {:.1}/s",
        windows.len(),
        window_list.join(" "),
        out.attempted as f64 / wall
    ));
    out.notes.push(format!(
        "host.calib_ms start {calib_start:.2} end {calib_end:.2}; proc.cpu_s {cpu:.3} over {wall:.3} s wall"
    ));

    if opts.trace {
        let mut l = Layers::default();
        l.set_opt("clickstream.read_s", median(&times.read));
        l.set("clickstream.sessions", times.sessions as f64);
        l.set_opt("adapt.adapt_s", median(&times.adapt));
        l.set("adapt.items", times.items as f64);
        l.set("adapt.edges", times.edges as f64);
        l.set_opt("store.write_s", median(&times.write));
        let load = median(&times.load).unwrap_or(0.0);
        l.set("store.load_s", load);
        l.set(
            "store.load_mb_per_s",
            if load > 0.0 {
                times.pcov_mb / load
            } else {
                0.0
            },
        );
        l.set_opt("serve.start_s", median(&times.start));
        l.set_opt("serve.first_answer_ms", median(&times.first_ms));
        l.set_opt("graph.apply_ms_p50", apply_t.percentile_ms(50.0));
        l.set("graph.touched", touched_total as f64);
        l.set_opt("core.lazy_ms_p50", core_lazy.percentile_ms(50.0));
        l.set("core.lazy_evals", lazy_evals as f64);
        l.set_opt("core.warm_ms_p50", warm_core.percentile_ms(50.0));
        l.set("core.warm_evals", warm_evals as f64);
        l.set("core.rounds_reused", warm_reused as f64);
        l.set("core.rounds_repaired", warm_repaired as f64);
        l.set_opt("core.capture_ms_p50", capture_t.percentile_ms(50.0));
        l.set_opt("core.round_us_p50", round_t.percentile_us(50.0));
        l.set_opt("core.round_us_p99", round_t.percentile_us(99.0));
        l.set_opt("core.evals_per_round_p50", median(&round_evals));
        l.set_opt("serve.hit_us_p50", hit.percentile_us(50.0));
        l.set_opt("serve.hit_us_p99", hit.percentile_us(99.0));
        l.set(
            "serve.resp_bytes_mean",
            if reads > 0 {
                resp_bytes as f64 / reads as f64
            } else {
                0.0
            },
        );
        l.set_opt("serve.miss_ms_p50", miss.percentile_ms(50.0));
        l.set_opt("serve.warm_ms_p50", warm.percentile_ms(50.0));
        l.set_opt("serve.miss_core_ms_p50", miss_core.percentile_ms(50.0));
        l.set_opt("serve.swap_ms_p50", swap_t.percentile_ms(50.0));
        for (metric, name) in [
            ("serve.cache_hits", "cache_hits"),
            ("serve.cache_prefix_hits", "cache_prefix_hits"),
            ("serve.cache_misses", "cache_misses"),
            ("serve.warm_start_hits", "warm_start_hits"),
            ("serve.coalesced_hits", "coalesced_hits"),
            ("serve.cache_evictions", "cache_evictions"),
            ("serve.queue_shed_total", "queue_shed_total"),
            ("serve.keepalive_reuse_total", "keepalive_reuse_total"),
            ("serve.delta_applied_total", "delta_applied_total"),
            ("serve.warm_rounds_reused", "warm_rounds_reused"),
            ("serve.warm_rounds_repaired", "warm_rounds_repaired"),
        ] {
            l.set(metric, counter(name));
        }
        let served = counter("cache_hits") + counter("cache_prefix_hits");
        let lookups = served
            + counter("cache_misses")
            + counter("warm_start_hits")
            + counter("coalesced_hits");
        l.set(
            "serve.hit_ratio",
            if lookups > 0.0 { served / lookups } else { 0.0 },
        );
        l.set_opt("serve.delta_p50_ms", delta_rtt.percentile_ms(50.0));
        l.set("proc.cpu_s", cpu);
        l.set("proc.phase_rss_mb", rss_max);
        l.set("host.calib_ms", (calib_start + calib_end) / 2.0);
        let refs: Vec<&Tracer> = tracers.iter().chain(std::iter::once(&*tr)).collect();
        let from = tr.offset_ns(t0);
        let to = tr.offset_ns(t_end);
        let covered = coverage(&refs, from, to);
        l.set("trace.coverage_pct", 100.0 * covered);
        l.set(
            "trace.spans",
            refs.iter().map(|t| t.spans().len()).sum::<usize>() as f64,
        );
        let self_time = self_time_by_layer(&refs, from, to);
        let phase_s = (to - from) as f64 / 1e9;
        out.notes.push(format!(
            "layer spans cover {:.1}% of the {phase_s:.3} s timed phase; the benchmark's own \
             spans (response parsing) hold {:.3} s of it",
            100.0 * covered,
            self_time.get(BENCH).copied().unwrap_or(0.0)
        ));
        out.notes.push(format!(
            "self time by layer (s, timed phase): {self_time:?}"
        ));
        out.notes.push(format!(
            "percentile samples: serve.hit_us n={}, serve.miss_ms n={}, serve.warm_ms n={}, \
             serve.miss_core_ms n={}, serve.swap_ms n={}, graph.apply_ms n={}, core.lazy_ms n={}, \
             core.warm_ms n={}, core.capture_ms n={}, core.round_us n={}",
            hit.len(),
            miss.len(),
            warm.len(),
            miss_core.len(),
            swap_t.len(),
            apply_t.len(),
            core_lazy.len(),
            warm_core.len(),
            capture_t.len(),
            round_t.len()
        ));
        let trace_path = opts
            .dir
            .join(format!("trace-{}.json", opts.workload.name()));
        write_json(&trace_path, &refs, &self_time).map_err(|e| format!("write trace: {e}"))?;
        out.notes
            .push(format!("trace written to {}", trace_path.display()));
        l.emit(out);
    }
    Ok(())
}

/// The first rounds of a solve that get their own child span. The solve
/// behind serve-hot's `/minimize` answers has one round per retained item,
/// tens of thousands; the percentiles use every round.
const ROUND_SPANS_PER_SOLVE: usize = 1_000;

/// Adds a solve's rounds to the round-time samples and, up to
/// [`ROUND_SPANS_PER_SOLVE`], as child spans of the open solve span.
fn record_rounds(tr: &mut Tracer, req: ReqId, o: &RoundObserver, round_t: &mut Samples) {
    for (i, (start, end)) in o.rounds().enumerate() {
        round_t.push(end.saturating_duration_since(start));
        if i < ROUND_SPANS_PER_SOLVE {
            tr.record("core", "round", req, start, end);
        }
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.4}"))
}
