//! Subcommand implementations.
//!
//! Every command returns its report as a `String` so the binary stays a
//! thin printer and tests can assert on outputs directly.

use std::fmt::Write as _;
use std::path::Path;

use pcover_adapt::diagnostics::{diagnose, DiagnosticThresholds};
use pcover_adapt::{adapt, AdaptOptions};
use pcover_clickstream::{io as cs_io, Clickstream};
use pcover_core::{
    minimize, Independent, Normalized, Observer, ProgressObserver, Registry, RoundStats, SolveCtx,
    SolveReport, SolverConfig, SolverSpec, TraceObserver, Variant,
};
use pcover_datagen::profiles::{DatasetProfile, Scale};
use pcover_datagen::sessions::generate_clickstream;
use pcover_graph::io::{json as graph_json, LoadOptions};
use pcover_graph::{GraphStats, ItemId, PreferenceGraph};

use crate::args::Args;
use crate::CliError;

/// Dispatches a parsed command line against the built-in solver registry.
pub fn run(args: &Args) -> Result<String, CliError> {
    run_with_registry(args, &Registry::builtin())
}

/// Dispatches with an explicit solver [`Registry`], so embedders (and
/// tests) can register additional solvers and have them reachable from
/// `solve --algorithm`, help text, and error suggestions without touching
/// this crate.
pub fn run_with_registry(args: &Args, registry: &Registry) -> Result<String, CliError> {
    match args.command.as_str() {
        "generate" => generate(args),
        "diagnose" => diagnose_cmd(args),
        "adapt" => adapt_cmd(args),
        "stats" => stats_cmd(args),
        "solve" => solve_cmd(args, registry),
        "minimize" => minimize_cmd(args),
        "repair" => repair_cmd(args),
        "export-dot" => export_dot_cmd(args),
        "closure" => closure_cmd(args),
        "delta" => delta_cmd(args),
        "serve" => serve_cmd(args),
        "loadgen" => loadgen_cmd(args),
        "convert" => convert_cmd(args),
        "probe" => probe_cmd(args),
        "gen-graph" => gen_graph_cmd(args),
        "bench-snapshot" => bench_snapshot_cmd(args, registry),
        "help" | "--help" => Ok(help_with(registry)),
        other => Err(CliError(format!(
            "unknown subcommand {other:?}; try `pcover help`"
        ))),
    }
}

/// Usage text template; the `--algorithm` list is spliced in from the
/// registry so help can never drift from the accepted set.
const HELP_TEMPLATE: &str = "\
pcover — inventory reduction via maximal coverage (EDBT 2020)

USAGE: pcover <subcommand> [--option value]...

SUBCOMMANDS
  generate  --profile PE|PF|PM|YC [--scale 0.01] [--seed 42]
            --out sessions.jsonl [--format jsonl|yoochoose]
            Generate a synthetic clickstream from a Table 2 profile.
  diagnose  --input sessions.jsonl
            Report the variant-selection diagnostics (Section 5.2).
  adapt     --input sessions.jsonl --variant independent|normalized
            --out graph.json [--min-support 1]
            Build the preference graph (Data Adaptation Engine).
  stats     --graph graph.json
            Print graph statistics.
  solve     --graph graph.json --k K --variant independent|normalized
            [--algorithm NAME] [--threads N] [--seed S] [--top 10]
            [--out report.json] [--trace trace.json] [--progress]
            Select the k items maximizing cover (Preference Cover Solver).
            Algorithms:
{algorithms}
  minimize  --graph graph.json --threshold 0.8
            --variant independent|normalized
            Smallest retained set reaching the cover threshold.
  repair    --graph graph.json --report old-report.json
            --variant independent|normalized [--max-changes 5]
            Repair a previous solution against an updated graph with
            bounded churn (incremental maintenance).
  export-dot --graph graph.json --out graph.dot
            [--report report.json] [--min-weight 0.0]
            Render the graph (and optionally a retained set) as Graphviz.
  closure   --graph browse.json --out closed.json
            [--depth 3] [--min-weight 1e-6] [--combine independent|normalized]
            Transitively close a one-step browse graph into a preference
            graph (Section 2's modeling step).
  delta     --graph graph.json --changes delta.json --out new-graph.json
            Apply a JSON batch of demand/edge/delisting changes.
  convert   <input> <output> [--to container|json]
            [--variant independent|normalized|unspecified]
            Re-encode a graph between the JSON interchange format and the
            .pcov binary container (input format sniffed from its bytes);
            --variant stamps advisory metadata into the container header.
  probe     <file> [--verify]
            Print a container's header metadata; --verify additionally
            checksums every section and re-validates the CSR invariants.
  gen-graph --nodes N --out graph.pcov [--degree 4] [--seed 42]
            [--normalized] [--container]
            Generate a seeded synthetic graph straight to disk; .pcov (or
            --container) streams without materializing the graph.
  bench-snapshot [--out BENCH_5.json] [--grid default|small|large] [--seed 42]
                 [--pr 5] [--repeats 1] [--warm] [--smoke]
            Run the fixed solver × variant × (n, D, k) perf grid on seeded
            synthetic graphs and write a machine-readable snapshot (schema
            pcover-bench-snapshot/1). Fails if the delta solver evaluates
            at least as many gains as plain greedy on any n >= 100 point.
            --warm additionally applies a seeded <=1% edge delta per shape
            and records warm-start repair vs cold post-delta re-solve as
            delta-cold / delta-warm entries; fails unless the warm solve is
            bit-identical and (at n >= 1000) evaluates strictly fewer gains.
            --grid large is the container tier (n = 10^5 and 10^6, k = 50;
            --smoke drops the 10^6 shape): streams each graph to a .pcov
            container, gates container cold-load at >= 10x faster than the
            JSON parse, and times greedy/lazy/delta + warm delta repair
            over the mapped CSR, checked bit-identical to in-memory solves.
  serve     --graph graph.json [--threads 8] [--port 7878] [--host 127.0.0.1]
            [--queue 64] [--cache 128] [--deadline-ms 0]
            Run the resident query service: GET /solve, /cover, /minimize,
            /healthz, /metrics; POST /admin/delta hot-swaps the graph and
            POST /admin/shutdown drains and exits. Requests beyond the
            queue bound are shed with 503; --deadline-ms > 0 cancels
            overrunning solves (504). Connections are persistent
            (HTTP/1.1 keep-alive) and identical concurrent solves
            coalesce into one run.
  loadgen   [--addr HOST:PORT] [--nodes 20000] [--degree 8] [--seed 42]
            [--connections 8] [--requests 4000] [--k-max 64] [--zipf 1.0]
            [--mix solve=6,cover=3,minimize=1] [--deltas 0] [--pr 10]
            [--out BENCH_SERVE_10.json] [--min-speedup 2.0]
            [--p999-budget-ms MS] [--smoke]
            Replay a seeded zipfian request mix twice — keep-alive vs one
            connection per request — and write a pcover-bench-serve/1
            snapshot with throughput and exact p50/p99/p999 per phase.
            Self-hosts a synthetic-graph server unless --addr points at a
            running one; --deltas interleaves admin mutations. Fails
            unless keep-alive is >= --min-speedup x faster with zero
            errors (--smoke: 400 requests, 1.5x, 250 ms p999 budget).
";

/// Usage text for the built-in registry.
pub fn help() -> String {
    help_with(&Registry::builtin())
}

/// Usage text with the `--algorithm` list derived from `registry`.
pub fn help_with(registry: &Registry) -> String {
    let mut algorithms = String::new();
    for spec in registry.specs() {
        let _ = writeln!(
            algorithms,
            "              {:<13} {}",
            spec.name, spec.description
        );
    }
    HELP_TEMPLATE.replace("{algorithms}\n", &algorithms)
}

fn load_clickstream(path: &str) -> Result<Clickstream, CliError> {
    cs_io::read_jsonl(path).map_err(CliError::from_display)
}

/// Opens a graph file on any `--graph` option: `.pcov` containers load
/// zero-copy (mmap where supported, buffered pread otherwise), everything
/// else parses as JSON. The format is sniffed from the file's magic, not
/// its name.
fn load_graph(path: &str) -> Result<PreferenceGraph, CliError> {
    pcover_store::read_graph_auto(Path::new(path), pcover_store::OpenMode::Auto)
        .map(|(g, _)| g)
        .map_err(CliError::from_display)
}

fn parse_variant(args: &Args) -> Result<Variant, CliError> {
    let raw = args.required("variant")?;
    Variant::parse(raw).ok_or_else(|| {
        CliError(format!(
            "unknown variant {raw:?}; use independent or normalized"
        ))
    })
}

fn generate(args: &Args) -> Result<String, CliError> {
    let profile_raw = args.required("profile")?;
    let profile = DatasetProfile::parse(profile_raw).ok_or_else(|| {
        CliError(format!(
            "unknown profile {profile_raw:?}; use PE, PF, PM or YC"
        ))
    })?;
    let scale = match args.optional("scale") {
        None => Scale::Fraction(0.01),
        Some("full") => Scale::Full,
        Some(raw) => Scale::Fraction(raw.parse().map_err(|_| {
            CliError(format!(
                "cannot parse --scale value {raw:?} (number or `full`)"
            ))
        })?),
    };
    let seed: u64 = args.parse_or("seed", 42)?;
    let out = args.required("out")?;
    let format = args.optional("format").unwrap_or("jsonl");

    let (catalog_cfg, session_cfg) = profile.configs(scale, seed);
    let (_, cs) = generate_clickstream(&catalog_cfg, &session_cfg);
    match format {
        "jsonl" => cs_io::write_jsonl(&cs, out).map_err(CliError::from_display)?,
        "yoochoose" => {
            let base = Path::new(out);
            let clicks = base.with_extension("clicks.dat");
            let buys = base.with_extension("buys.dat");
            cs_io::write_yoochoose(&cs, &clicks, &buys).map_err(CliError::from_display)?;
        }
        other => return Err(CliError(format!("unknown format {other:?}"))),
    }
    let stats = cs.stats();
    Ok(format!(
        "generated {} sessions over {} items (profile {}, seed {seed}) -> {out}\n\
         at-most-one-alternative fraction: {:.3}",
        stats.sessions,
        stats.items,
        profile.name(),
        stats.at_most_one_alternative_fraction,
    ))
}

fn diagnose_cmd(args: &Args) -> Result<String, CliError> {
    let cs = load_clickstream(args.required("input")?)?;
    let d = diagnose(&cs, &DiagnosticThresholds::default());
    let stats = cs.stats();
    let mut out = String::new();
    let _ = writeln!(out, "sessions:                    {}", stats.sessions);
    let _ = writeln!(out, "items:                       {}", stats.items);
    let _ = writeln!(
        out,
        "<=1-alternative fraction:    {:.4} (Normalized rule needs >= 0.90)",
        d.single_alt_fraction
    );
    match d.weighted_mean_nmi {
        Some(nmi) => {
            let _ = writeln!(
                out,
                "weighted mean pairwise NMI:  {nmi:.4} (Independent rule needs < 0.10)"
            );
        }
        None => {
            let _ = writeln!(
                out,
                "weighted mean pairwise NMI:  n/a (no multi-alternative items)"
            );
        }
    }
    let _ = writeln!(out, "recommended variant:         {:?}", d.recommendation);
    Ok(out)
}

fn adapt_cmd(args: &Args) -> Result<String, CliError> {
    // Validate cheap arguments before touching the filesystem.
    let variant = parse_variant(args)?;
    let min_support: u64 = args.parse_or("min-support", 1)?;
    let out = args.required("out")?;
    let cs = load_clickstream(args.required("input")?)?;

    let adapted = adapt(
        &cs,
        &AdaptOptions {
            variant,
            label_nodes: true,
            min_edge_support: min_support,
        },
    )
    .map_err(CliError::from_display)?;
    graph_json::write_json(&adapted.graph, out).map_err(CliError::from_display)?;
    let r = &adapted.report;
    Ok(format!(
        "adapted {} sessions -> graph with {} items, {} edges ({} never purchased, {} edges dropped by support) -> {out}",
        r.sessions, r.items, r.edges, r.never_purchased_items, r.edges_dropped_by_support
    ))
}

fn stats_cmd(args: &Args) -> Result<String, CliError> {
    let g = load_graph(args.required("graph")?)?;
    let s = GraphStats::compute(&g);
    let mut out = String::new();
    let _ = writeln!(out, "nodes:               {}", s.nodes);
    let _ = writeln!(out, "edges:               {}", s.edges);
    let _ = writeln!(out, "avg out-degree:      {:.3}", s.avg_out_degree);
    let _ = writeln!(out, "max in-degree (D):   {}", s.max_in_degree);
    let _ = writeln!(out, "isolated nodes:      {}", s.isolated_nodes);
    let _ = writeln!(out, "node weight sum:     {:.6}", s.node_weight_sum);
    let _ = writeln!(out, "max node weight:     {:.6}", s.max_node_weight);
    let _ = writeln!(out, "avg edge weight:     {:.4}", s.avg_edge_weight);
    let _ = writeln!(out, "normalized fraction: {:.4}", s.normalized_fraction);
    let _ = writeln!(
        out,
        "components:          {} (largest: {})",
        s.components, s.largest_component
    );
    Ok(out)
}

/// Forwards observer events to two observers (e.g. trace file + progress).
struct Tee<'a>(&'a mut dyn Observer, &'a mut dyn Observer);

impl Observer for Tee<'_> {
    fn on_select(&mut self, iter: usize, item: ItemId, gain: f64, cover: f64) {
        self.0.on_select(iter, item, gain, cover);
        self.1.on_select(iter, item, gain, cover);
    }

    fn on_round_stats(&mut self, stats: &RoundStats) {
        self.0.on_round_stats(stats);
        self.1.on_round_stats(stats);
    }

    fn cancelled(&mut self) -> bool {
        self.0.cancelled() || self.1.cancelled()
    }
}

/// Runs a registry solver with the observers requested on the command line:
/// `--trace PATH` records the per-iteration event stream to a JSON file and
/// `--progress` streams selections to stderr; both may be active at once.
fn run_solver(
    spec: &SolverSpec,
    variant: Variant,
    g: &PreferenceGraph,
    k: usize,
    config: SolverConfig,
    trace_path: Option<&str>,
    progress: bool,
) -> Result<SolveReport, CliError> {
    let mut trace = trace_path.map(|_| TraceObserver::new());
    let report = match (trace.as_mut(), progress) {
        (None, false) => spec.solve(variant, g, k, &mut SolveCtx::new(config)),
        (Some(t), false) => spec.solve(variant, g, k, &mut SolveCtx::with_observer(config, t)),
        (None, true) => {
            let mut p = ProgressObserver::new(std::io::stderr());
            spec.solve(variant, g, k, &mut SolveCtx::with_observer(config, &mut p))
        }
        (Some(t), true) => {
            let mut p = ProgressObserver::new(std::io::stderr());
            let mut tee = Tee(t, &mut p);
            spec.solve(
                variant,
                g,
                k,
                &mut SolveCtx::with_observer(config, &mut tee),
            )
        }
    }
    .map_err(CliError::from_display)?;
    if let (Some(path), Some(t)) = (trace_path, trace.as_ref()) {
        let json = serde_json::to_string_pretty(t).map_err(CliError::from_display)?;
        std::fs::write(path, json).map_err(CliError::from_display)?;
    }
    Ok(report)
}

fn repair_cmd(args: &Args) -> Result<String, CliError> {
    let variant = parse_variant(args)?;
    let max_changes: usize = args.parse_or("max-changes", 5)?;
    let g = load_graph(args.required("graph")?)?;
    let old: SolveReport = serde_json::from_str(
        &std::fs::read_to_string(args.required("report")?).map_err(CliError::from_display)?,
    )
    .map_err(CliError::from_display)?;

    let result = match variant {
        Variant::Independent => {
            pcover_core::extensions::incremental::repair::<Independent>(&g, &old.order, max_changes)
        }
        Variant::Normalized => {
            pcover_core::extensions::incremental::repair::<Normalized>(&g, &old.order, max_changes)
        }
    }
    .map_err(CliError::from_display)?;

    Ok(format!(
        "repaired solution of {} items: stale cover {:.4} -> {:.4} with {} swaps\n\
         evicted: {:?}\nadded:   {:?}\n",
        old.order.len(),
        result.stale_cover,
        result.report.cover,
        result.churn(),
        result.evicted.iter().map(|v| v.raw()).collect::<Vec<_>>(),
        result.added.iter().map(|v| v.raw()).collect::<Vec<_>>(),
    ))
}

fn closure_cmd(args: &Args) -> Result<String, CliError> {
    let out = args.required("out")?;
    let depth: usize = args.parse_or("depth", 3)?;
    let min_weight: f64 = args.parse_or("min-weight", 1e-6)?;
    let combine = match args.optional("combine").unwrap_or("independent") {
        "independent" => pcover_graph::transform::PathCombination::Independent,
        "normalized" => pcover_graph::transform::PathCombination::NormalizedClamped,
        other => return Err(CliError(format!("unknown combine rule {other:?}"))),
    };
    let g = load_graph(args.required("graph")?)?;
    let closed = pcover_graph::transform::transitive_closure(&g, depth, min_weight, combine)
        .map_err(CliError::from_display)?;
    graph_json::write_json(&closed, out).map_err(CliError::from_display)?;
    Ok(format!(
        "closed graph to depth {depth}: {} -> {} edges -> {out}\n",
        g.edge_count(),
        closed.edge_count()
    ))
}

fn delta_cmd(args: &Args) -> Result<String, CliError> {
    let out = args.required("out")?;
    let g = load_graph(args.required("graph")?)?;
    let delta: pcover_graph::delta::GraphDelta = serde_json::from_str(
        &std::fs::read_to_string(args.required("changes")?).map_err(CliError::from_display)?,
    )
    .map_err(CliError::from_display)?;
    let updated = pcover_graph::delta::apply(&g, &delta).map_err(CliError::from_display)?;
    graph_json::write_json(&updated, out).map_err(CliError::from_display)?;
    Ok(format!(
        "applied {} changes: {} nodes / {} edges -> {} nodes / {} edges -> {out}\n",
        delta.len(),
        g.node_count(),
        g.edge_count(),
        updated.node_count(),
        updated.edge_count()
    ))
}

fn serve_cmd(args: &Args) -> Result<String, CliError> {
    let graph_path = args.required("graph")?;
    let host = args.optional("host").unwrap_or("127.0.0.1");
    let port: u16 = args.parse_or("port", 7878)?;
    let workers: usize = args.parse_or("threads", 8)?;
    let queue_capacity: usize = args.parse_or("queue", 64)?;
    let cache_capacity: usize = args.parse_or("cache", 128)?;
    let deadline_ms: u64 = args.parse_or("deadline-ms", 0)?;
    let config = pcover_serve::ServerConfig {
        addr: format!("{host}:{port}"),
        workers,
        queue_capacity,
        cache_capacity,
        default_deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        ..pcover_serve::ServerConfig::default()
    };
    let (handle, loaded_via) = pcover_serve::Server::start_from_path(Path::new(graph_path), config)
        .map_err(CliError::from_display)?;
    let addr = handle.addr();
    // Announce on stderr immediately — the Ok(..) string only prints once
    // the server has fully drained and exited.
    eprintln!(
        "pcover-serve listening on http://{addr} \
         (graph loaded via {loaded_via}; {workers} workers; \
         POST /admin/shutdown to stop)"
    );
    handle.join();
    Ok(format!("server on {addr} shut down\n"))
}

/// Schema tag written into every `loadgen` snapshot; bump only with a
/// migration note in the README.
const BENCH_SERVE_SCHEMA: &str = "pcover-bench-serve/1";

/// `pcover loadgen`: replay a seeded request mix against a server twice —
/// once over persistent keep-alive connections, once opening a fresh
/// connection per request — and write a `pcover-bench-serve/1` snapshot
/// with throughput and exact p50/p99/p999 latencies per phase. Fails (after
/// writing the snapshot) unless keep-alive clears the `--min-speedup`
/// throughput gate with zero request errors.
fn loadgen_cmd(args: &Args) -> Result<String, CliError> {
    use pcover_datagen::graphgen::{generate_graph, GraphGenConfig};
    use pcover_datagen::sampling::{zipf_weights, AliasTable};
    use pcover_serve::loadgen::{run_phase, LoadClient, PhaseSummary, PlannedRequest};
    use rand::{RngExt, SeedableRng};
    use std::net::ToSocketAddrs;

    let smoke = args.flag("smoke");
    let seed: u64 = args.parse_or("seed", 42)?;
    let pr: u64 = args.parse_or("pr", 10)?;
    let nodes: usize = args.parse_or("nodes", 20_000)?;
    let degree: usize = args.parse_or("degree", 8)?;
    let connections: usize = args.parse_or("connections", 8)?;
    let requests: usize = args.parse_or("requests", if smoke { 400 } else { 4_000 })?;
    let k_max: usize = args.parse_or("k-max", 64)?;
    let zipf_s: f64 = args.parse_or("zipf", 1.0)?;
    let deltas: usize = args.parse_or("deltas", 0)?;
    let mix_raw = args.optional("mix").unwrap_or("solve=6,cover=3,minimize=1");
    let min_speedup: f64 = args.parse_or("min-speedup", if smoke { 1.5 } else { 2.0 })?;
    let p999_budget_ms: f64 =
        args.parse_or("p999-budget-ms", if smoke { 250.0 } else { f64::INFINITY })?;
    let out = args.optional("out").unwrap_or(if smoke {
        "BENCH_SERVE_smoke.json"
    } else {
        "BENCH_SERVE_10.json"
    });
    if connections == 0 || requests == 0 || k_max == 0 {
        return Err(CliError(
            "--connections, --requests and --k-max must be at least 1".into(),
        ));
    }

    // Endpoint mix, e.g. "solve=6,cover=3,minimize=1".
    let mut mix: Vec<(&str, u64)> = Vec::new();
    for part in mix_raw.split(',') {
        let (name, weight) = part.split_once('=').ok_or_else(|| {
            CliError(format!(
                "bad --mix entry {part:?}; use e.g. solve=6,cover=3,minimize=1"
            ))
        })?;
        if !matches!(name, "solve" | "cover" | "minimize") {
            return Err(CliError(format!(
                "unknown --mix endpoint {name:?}; use solve, cover or minimize"
            )));
        }
        let weight: u64 = weight
            .parse()
            .map_err(|_| CliError(format!("bad --mix weight in {part:?}")))?;
        mix.push((name, weight));
    }
    let mix_total: u64 = mix.iter().map(|(_, w)| w).sum();
    if mix_total == 0 {
        return Err(CliError("--mix weights sum to zero".into()));
    }

    // Target: an external server (`--addr`, e.g. the CI smoke job) or a
    // self-hosted one on an ephemeral port over a seeded synthetic graph.
    let (addr, handle, profile) = match args.optional("addr") {
        Some(raw) => {
            let addr = raw
                .to_socket_addrs()
                .map_err(CliError::from_display)?
                .next()
                .ok_or_else(|| CliError(format!("--addr {raw:?} resolves to nothing")))?;
            (addr, None, format!("external:{raw}"))
        }
        None => {
            let g = generate_graph(&GraphGenConfig {
                nodes,
                avg_out_degree: degree,
                normalized: true,
                seed,
                ..GraphGenConfig::default()
            })
            .map_err(CliError::from_display)?;
            let handle = pcover_serve::Server::start(
                g,
                pcover_serve::ServerConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    workers: 8,
                    queue_capacity: 256,
                    cache_capacity: 1024,
                    ..pcover_serve::ServerConfig::default()
                },
            )
            .map_err(CliError::from_display)?;
            let addr = handle.addr();
            (addr, Some(handle), format!("self-hosted:{nodes}x{degree}"))
        }
    };

    // The seeded plan, built once and replayed identically by both phases:
    // zipfian budgets k in 1..=k_max, the endpoint mix above, and (with
    // --deltas) admin mutations interleaved at a fixed stride.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let k_table = AliasTable::new(&zipf_weights(k_max, zipf_s));
    let thresholds = [0.5, 0.7, 0.8, 0.9];
    let delta_every = match requests.checked_div(deltas) {
        Some(stride) => stride.max(1),
        None => usize::MAX,
    };
    let mut plans: Vec<Vec<PlannedRequest>> = vec![Vec::new(); connections];
    for i in 0..requests {
        let planned = if deltas > 0 && i % delta_every == delta_every - 1 {
            let node = rng.random_range(0..nodes);
            let weight = 0.1 + 0.8 * rng.random::<f64>();
            PlannedRequest::post(
                "/admin/delta".to_owned(),
                format!(
                    r#"{{"changes":[{{"SetNodeWeight":{{"node":{node},"weight":{weight}}}}}]}}"#
                ),
            )
        } else {
            let k = k_table.sample(&mut rng) + 1;
            let mut pick = rng.random_range(0..mix_total);
            let mut endpoint = mix[mix.len() - 1].0;
            for &(name, weight) in &mix {
                if pick < weight {
                    endpoint = name;
                    break;
                }
                pick -= weight;
            }
            match endpoint {
                "solve" => PlannedRequest::get(format!("/solve?k={k}")),
                "cover" => PlannedRequest::get(format!("/cover?k={k}")),
                _ => {
                    let t = thresholds[rng.random_range(0..thresholds.len())];
                    PlannedRequest::get(format!("/minimize?threshold={t}"))
                }
            }
        };
        plans[i % connections].push(planned);
    }

    // Warm-up: touch every distinct read query once so both timed phases
    // measure steady-state serving — the comparison is connection reuse,
    // not who pays the cold solves.
    {
        let mut warm = LoadClient::new(addr, true);
        let mut seen = std::collections::HashSet::new();
        for planned in plans.iter().flatten() {
            if planned.method == "GET" && seen.insert(planned.target.clone()) {
                warm.request(planned).map_err(CliError::from_display)?;
            }
        }
    }

    let keepalive = run_phase(addr, true, &plans);
    let close = run_phase(addr, false, &plans);
    let speedup = if close.throughput_rps > 0.0 {
        keepalive.throughput_rps / close.throughput_rps
    } else {
        0.0
    };

    // Scrape the coalescing counter before tearing the server down.
    let coalesced_hits = {
        let mut probe = LoadClient::new(addr, false);
        let resp = probe.fetch("/metrics").map_err(CliError::from_display)?;
        resp.body
            .lines()
            .find_map(|l| l.strip_prefix("coalesced_hits "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    if let Some(handle) = handle {
        handle.shutdown();
        handle.join();
    }

    fn phase_json(mode: &str, p: &PhaseSummary) -> serde_json::Value {
        serde_json::json!({
            "mode": mode,
            "requests": p.requests,
            "errors": p.errors,
            "wall_ms": p.wall.as_secs_f64() * 1e3,
            "throughput_rps": p.throughput_rps,
            "p50_ms": p.p50_ms,
            "p99_ms": p.p99_ms,
            "p999_ms": p.p999_ms,
        })
    }
    let snapshot = serde_json::json!({
        "schema": BENCH_SERVE_SCHEMA,
        "pr": pr,
        "seed": seed,
        "profile": profile,
        "connections": connections,
        "requests": requests,
        "mix": mix_raw,
        "zipf_s": zipf_s,
        "k_max": k_max,
        "deltas": deltas,
        "phases": serde_json::Value::Array(vec![
            phase_json("keepalive", &keepalive),
            phase_json("close", &close),
        ]),
        "speedup": speedup,
        "coalesced_hits": coalesced_hits,
    });
    let json = serde_json::to_string_pretty(&snapshot).map_err(CliError::from_display)?;
    std::fs::write(out, json + "\n").map_err(CliError::from_display)?;

    let mut violations = Vec::new();
    for (mode, p) in [("keepalive", &keepalive), ("close", &close)] {
        if p.errors > 0 {
            violations.push(format!(
                "{} request(s) failed in the {mode} phase",
                p.errors
            ));
        }
    }
    if speedup < min_speedup {
        violations.push(format!(
            "keep-alive throughput is only {speedup:.2}x connection-per-request \
             (gate: >= {min_speedup:.2}x)"
        ));
    }
    if keepalive.p999_ms > p999_budget_ms {
        violations.push(format!(
            "keep-alive p999 is {:.2} ms, over the {p999_budget_ms:.2} ms budget",
            keepalive.p999_ms
        ));
    }
    if !violations.is_empty() {
        return Err(CliError(format!(
            "serve bench written to {out}, but the serving gates failed:\n  {}",
            violations.join("\n  ")
        )));
    }
    Ok(format!(
        "serve bench: {requests} requests x 2 phases over {connections} connections \
         (seed {seed}, mix {mix_raw}): keep-alive {:.0} rps vs per-request {:.0} rps \
         = {speedup:.2}x; keep-alive p50/p99/p999 {:.3}/{:.3}/{:.3} ms; \
         {coalesced_hits} coalesced -> {out}\n",
        keepalive.throughput_rps,
        close.throughput_rps,
        keepalive.p50_ms,
        keepalive.p99_ms,
        keepalive.p999_ms,
    ))
}

/// `pcover convert <input> <output>`: re-encode a graph between the JSON
/// interchange format and the `.pcov` binary container. The input format
/// is sniffed from its magic bytes; the output format defaults to the
/// container and can be forced with `--to container|json`.
fn convert_cmd(args: &Args) -> Result<String, CliError> {
    let input = args.positional(0, "input")?.to_owned();
    let output = args.positional(1, "output")?.to_owned();
    let to = args.optional("to").unwrap_or("container");
    // Advisory variant metadata stamped into the container header (JSON
    // has no equivalent field, so it must be supplied here).
    let variant = match args.optional("variant").unwrap_or("unspecified") {
        "independent" => pcover_store::VariantHint::Independent,
        "normalized" => pcover_store::VariantHint::Normalized,
        "unspecified" => pcover_store::VariantHint::Unspecified,
        other => {
            return Err(CliError(format!(
                "unknown --variant {other:?}; use independent, normalized or unspecified"
            )))
        }
    };
    let (g, read_via) =
        pcover_store::read_graph_auto(Path::new(&input), pcover_store::OpenMode::Auto)
            .map_err(CliError::from_display)?;
    match to {
        "container" => {
            let options = pcover_store::WriteOptions { variant };
            let summary = pcover_store::write_graph(&g, Path::new(&output), options)
                .map_err(CliError::from_display)?;
            Ok(format!(
                "converted {input} ({read_via}) -> {output}: {} nodes, {} edges, {} bytes\n",
                summary.nodes, summary.edges, summary.bytes
            ))
        }
        "json" => {
            graph_json::write_json(&g, &output).map_err(CliError::from_display)?;
            let bytes = std::fs::metadata(&output)
                .map_err(CliError::from_display)?
                .len();
            Ok(format!(
                "converted {input} ({read_via}) -> {output}: {} nodes, {} edges, {bytes} bytes\n",
                g.node_count(),
                g.edge_count(),
            ))
        }
        other => Err(CliError(format!(
            "unknown --to format {other:?}; use container or json"
        ))),
    }
}

/// `pcover probe <file> [--verify]`: print a container's header metadata
/// without loading the graph; `--verify` additionally checksums every
/// section and re-validates the CSR invariants.
fn probe_cmd(args: &Args) -> Result<String, CliError> {
    let file = args.positional(0, "file")?.to_owned();
    let path = Path::new(&file);
    let info = if args.flag("verify") {
        pcover_store::verify(path).map_err(CliError::from_display)?
    } else {
        pcover_store::probe(path).map_err(CliError::from_display)?
    };
    let mut out = String::new();
    let _ = writeln!(out, "container: {file}");
    let _ = writeln!(out, "  format version: {}", info.version);
    let _ = writeln!(out, "  nodes: {}", info.node_count);
    let _ = writeln!(out, "  edges: {}", info.edge_count);
    let _ = writeln!(out, "  variant hint: {:?}", info.variant);
    let _ = writeln!(
        out,
        "  labels: {}",
        if info.has_labels { "yes" } else { "no" }
    );
    let _ = writeln!(out, "  sections: {}", info.sections.len());
    let _ = writeln!(out, "  file bytes: {}", info.file_len);
    let _ = writeln!(
        out,
        "  mmap: {}",
        if info.mmap_supported {
            "supported"
        } else {
            "unsupported (pread fallback)"
        }
    );
    let _ = writeln!(
        out,
        "  verified: {}",
        if args.flag("verify") {
            "checksums + CSR invariants"
        } else {
            "header only"
        }
    );
    Ok(out)
}

/// `pcover gen-graph`: generate a seeded synthetic graph straight to disk.
/// A `--container` output streams through [`generate_graph_container`]
/// without materializing the graph, so million-node files need tens of MB,
/// not gigabytes; otherwise the graph is built in memory and written JSON.
fn gen_graph_cmd(args: &Args) -> Result<String, CliError> {
    use pcover_datagen::graphgen::{generate_graph, generate_graph_container, GraphGenConfig};

    let out = args.required("out")?.to_owned();
    let cfg = GraphGenConfig {
        nodes: args.required_parse("nodes")?,
        avg_out_degree: args.parse_or("degree", 4)?,
        normalized: args.flag("normalized"),
        seed: args.parse_or("seed", 42)?,
        ..GraphGenConfig::default()
    };
    let container = args.flag("container") || out.ends_with(".pcov");
    if container {
        let summary =
            generate_graph_container(&cfg, Path::new(&out)).map_err(CliError::from_display)?;
        Ok(format!(
            "generated container {out}: {} nodes, {} edges, {} bytes (streamed)\n",
            summary.nodes, summary.edges, summary.bytes
        ))
    } else {
        let g = generate_graph(&cfg).map_err(CliError::from_display)?;
        graph_json::write_json(&g, &out).map_err(CliError::from_display)?;
        Ok(format!(
            "generated JSON graph {out}: {} nodes, {} edges\n",
            g.node_count(),
            g.edge_count(),
        ))
    }
}

/// The solvers every snapshot records. `BENCH_*.json` files are a perf
/// trajectory across PRs, so a name leaves this list only with its solver:
/// the committed snapshots keep the rows of removed solvers
/// (`delta-parallel` in BENCH_5/7/8) as history, and the CI gates over
/// them read only the `greedy` and `delta` rows.
const BENCH_SOLVERS: [&str; 4] = ["greedy", "lazy", "parallel", "delta"];

/// Schema tag written into every snapshot; bump only with a migration note
/// in the README.
const BENCH_SCHEMA: &str = "pcover-bench-snapshot/1";

fn bench_snapshot_cmd(args: &Args, registry: &Registry) -> Result<String, CliError> {
    use pcover_datagen::graphgen::{generate_graph, GraphGenConfig};

    let out = args.optional("out").unwrap_or("BENCH_5.json");
    let seed: u64 = args.parse_or("seed", 42)?;
    // The PR number the snapshot belongs to, recorded so two committed
    // snapshots (e.g. BENCH_5.json vs BENCH_7.json) identify themselves.
    let pr: u64 = args.parse_or("pr", 5)?;
    // Solve each grid point `repeats` times and record the minimum wall
    // time: the min is the standard robust estimator under scheduler and
    // cache noise. Evaluation counts and covers are deterministic, so
    // only the timing benefits from repetition.
    let repeats: usize = args.parse_or("repeats", 1)?;
    if repeats == 0 {
        return Err(CliError("--repeats must be at least 1".into()));
    }
    // (n, D) graph shapes × budgets k. The small grid exists for CI smoke
    // runs; the default grid is what the committed BENCH_5.json and
    // BENCH_7.json at the repo root record.
    let (shapes, budgets): (&[(usize, usize)], &[usize]) =
        match args.optional("grid").unwrap_or("default") {
            "default" => (
                &[(1_000, 4), (1_000, 8), (10_000, 4), (10_000, 8)],
                &[16, 64],
            ),
            "small" => (&[(200, 4)], &[8, 32]),
            "large" => return bench_large_grid(args, registry),
            other => {
                return Err(CliError(format!(
                    "unknown grid {other:?}; use default, small or large"
                )))
            }
        };

    let mut entries = Vec::new();
    // greedy's evaluation counts per (variant, n, D, k), the baseline the
    // delta check below compares against.
    let mut greedy_evals = std::collections::HashMap::new();
    let mut violations = Vec::new();
    for &(n, d) in shapes {
        // `normalized: true` keeps out-weight sums at most 1, so one graph
        // per shape is valid for both IPC and NPC semantics.
        let g = generate_graph(&GraphGenConfig {
            nodes: n,
            avg_out_degree: d,
            normalized: true,
            seed,
            ..GraphGenConfig::default()
        })
        .map_err(CliError::from_display)?;
        let memory_bytes = g.memory_bytes();
        for &k in budgets {
            for name in BENCH_SOLVERS {
                let spec = *registry
                    .get(name)
                    .ok_or_else(|| CliError(registry.unknown_algorithm_message(name)))?;
                for variant in [Variant::Independent, Variant::Normalized] {
                    let mut ctx = SolveCtx::new(SolverConfig::default());
                    let mut report = spec
                        .solve(variant, &g, k, &mut ctx)
                        .map_err(CliError::from_display)?;
                    for _ in 1..repeats {
                        let mut ctx = SolveCtx::new(SolverConfig::default());
                        let again = spec
                            .solve(variant, &g, k, &mut ctx)
                            .map_err(CliError::from_display)?;
                        if again.elapsed < report.elapsed {
                            report.elapsed = again.elapsed;
                        }
                    }
                    let point = (variant.name(), n, d, k);
                    if name == "greedy" {
                        greedy_evals.insert(point, report.gain_evaluations);
                    } else if name == "delta" && n >= 100 {
                        let baseline = greedy_evals.get(&point).copied().unwrap_or(0);
                        if report.gain_evaluations >= baseline {
                            violations.push(format!(
                                "delta did {} gain evaluations vs greedy's {baseline} \
                                 on variant={} n={n} D={d} k={k}",
                                report.gain_evaluations,
                                variant.name(),
                            ));
                        }
                    }
                    entries.push(serde_json::json!({
                        "solver": name,
                        "variant": variant.name(),
                        "n": n,
                        "avg_out_degree": d,
                        "k": k,
                        "seed": seed,
                        "wall_ms": report.elapsed.as_secs_f64() * 1e3,
                        "gain_evaluations": report.gain_evaluations,
                        "memory_bytes": memory_bytes,
                        "cover": report.cover,
                    }));
                }
            }
        }
    }

    // --warm: per shape, apply a seeded edge-only delta touching <=1% of
    // nodes, then record a cold post-delta re-solve ("delta-cold") against
    // a warm-start repair seeded from the pre-delta solution ("delta-warm")
    // in the same schema. The warm gate below is the smoke-test teeth for
    // the PR-8 acceptance criterion.
    if args.flag("warm") {
        use pcover_core::WarmState;
        use pcover_graph::delta::{apply, Change, GraphDelta};

        let spec = *registry
            .get("delta")
            .ok_or_else(|| CliError(registry.unknown_algorithm_message("delta")))?;
        for &(n, d) in shapes {
            let g = generate_graph(&GraphGenConfig {
                nodes: n,
                avg_out_degree: d,
                normalized: true,
                seed,
                ..GraphGenConfig::default()
            })
            .map_err(CliError::from_display)?;
            // Deterministic small delta: stride through (n / 200).max(1)
            // nodes and halve their first out-edge (exact arithmetic, stays
            // in (0, 1], and touches at most 1% of nodes).
            let changes = (n / 200).max(1);
            let stride = (n / changes).max(1);
            let mut delta = GraphDelta::new();
            let mut applied = 0usize;
            for i in 0..changes {
                let v = ItemId::from_index((i * stride) % n);
                if let Some((target, w)) = g.out_edges(v).next() {
                    delta = delta.push(Change::UpsertEdge {
                        source: v,
                        target,
                        weight: w * 0.5,
                    });
                    applied += 1;
                }
            }
            if applied == 0 {
                return Err(CliError(format!(
                    "warm bench delta for n={n} D={d} found no edges to perturb"
                )));
            }
            let touched = delta.touched_nodes(&g);
            let g2 = apply(&g, &delta).map_err(CliError::from_display)?;
            let memory_bytes = g2.memory_bytes();
            for &k in budgets {
                for variant in [Variant::Independent, Variant::Normalized] {
                    let mut ctx = SolveCtx::new(SolverConfig::default());
                    let previous = spec
                        .solve(variant, &g, k, &mut ctx)
                        .map_err(CliError::from_display)?;
                    let warm_state = WarmState::capture_variant(variant, &g, &previous.order);

                    let mut ctx = SolveCtx::new(SolverConfig::default());
                    let mut cold = spec
                        .solve(variant, &g2, k, &mut ctx)
                        .map_err(CliError::from_display)?;
                    let mut ctx = SolveCtx::new(SolverConfig::default());
                    let mut warm = spec
                        .solve_warm(variant, &g2, k, &touched, &warm_state, &mut ctx)
                        .map_err(CliError::from_display)?;
                    for _ in 1..repeats {
                        let mut ctx = SolveCtx::new(SolverConfig::default());
                        let again = spec
                            .solve(variant, &g2, k, &mut ctx)
                            .map_err(CliError::from_display)?;
                        if again.elapsed < cold.elapsed {
                            cold.elapsed = again.elapsed;
                        }
                        let mut ctx = SolveCtx::new(SolverConfig::default());
                        let again = spec
                            .solve_warm(variant, &g2, k, &touched, &warm_state, &mut ctx)
                            .map_err(CliError::from_display)?;
                        if again.report.elapsed < warm.report.elapsed {
                            warm.report.elapsed = again.report.elapsed;
                        }
                    }

                    if !warm.report.bit_identical_to(&cold) {
                        violations.push(format!(
                            "warm re-solve drifted from the cold solve on variant={} \
                             n={n} D={d} k={k}",
                            variant.name(),
                        ));
                    }
                    if n >= 1_000 && warm.report.gain_evaluations >= cold.gain_evaluations {
                        violations.push(format!(
                            "warm re-solve did {} gain evaluations vs cold's {} after a \
                             {applied}-change delta on variant={} n={n} D={d} k={k}",
                            warm.report.gain_evaluations,
                            cold.gain_evaluations,
                            variant.name(),
                        ));
                    }
                    entries.push(serde_json::json!({
                        "solver": "delta-cold",
                        "variant": variant.name(),
                        "n": n,
                        "avg_out_degree": d,
                        "k": k,
                        "seed": seed,
                        "wall_ms": cold.elapsed.as_secs_f64() * 1e3,
                        "gain_evaluations": cold.gain_evaluations,
                        "memory_bytes": memory_bytes,
                        "cover": cold.cover,
                        "delta_changes": applied,
                    }));
                    entries.push(serde_json::json!({
                        "solver": "delta-warm",
                        "variant": variant.name(),
                        "n": n,
                        "avg_out_degree": d,
                        "k": k,
                        "seed": seed,
                        "wall_ms": warm.report.elapsed.as_secs_f64() * 1e3,
                        "gain_evaluations": warm.report.gain_evaluations,
                        "memory_bytes": memory_bytes,
                        "cover": warm.report.cover,
                        "delta_changes": applied,
                        "rounds_reused": warm.rounds_reused,
                        "rounds_repaired": warm.rounds_repaired,
                    }));
                }
            }
        }
    }

    let count = entries.len();
    let snapshot = serde_json::json!({
        "schema": BENCH_SCHEMA,
        "pr": pr,
        "seed": seed,
        "entries": entries,
    });
    let json = serde_json::to_string_pretty(&snapshot).map_err(CliError::from_display)?;
    std::fs::write(out, json + "\n").map_err(CliError::from_display)?;

    if !violations.is_empty() {
        return Err(CliError(format!(
            "bench snapshot written to {out}, but the delta-solver guarantees \
             (fewer evaluations than greedy; warm bit-identical and cheaper \
             than cold) failed:\n  {}",
            violations.join("\n  ")
        )));
    }
    let warm_note = if args.flag("warm") {
        " + warm-vs-cold delta grid"
    } else {
        ""
    };
    Ok(format!(
        "bench snapshot: {count} entries ({} solvers x 2 variants x {} shapes x {} budgets, \
         seed {seed}{warm_note}) -> {out}\n",
        BENCH_SOLVERS.len(),
        shapes.len(),
        budgets.len(),
    ))
}

/// Solvers the large grid times over the container-loaded CSR. A subset of
/// [`BENCH_SOLVERS`]: the thread-pool solver (`parallel`) is covered by the
/// default grid, and at n >= 10^5 cold and warm delta are what the
/// instant-load story is about.
const BENCH_LARGE_SOLVERS: [&str; 3] = ["greedy", "lazy", "delta"];

/// `--grid large`: the million-node container tier. Per shape it streams a
/// seeded graph straight to a `.pcov` container, writes a JSON twin,
/// records cold-load wall time for both (gated: the container must load at
/// least 10x faster than JSON at n >= 10^5), then times
/// greedy/lazy/delta plus a warm-start delta repair over the mapped CSR —
/// asserting every solve is bit-identical to the same solve on the
/// JSON-loaded in-memory graph.
fn bench_large_grid(args: &Args, registry: &Registry) -> Result<String, CliError> {
    use pcover_core::WarmState;
    use pcover_datagen::graphgen::{generate_graph_container, GraphGenConfig};
    use pcover_graph::delta::{apply, Change, GraphDelta};
    use std::time::Instant;

    let out = args.optional("out").unwrap_or("BENCH_9.json");
    let seed: u64 = args.parse_or("seed", 42)?;
    let pr: u64 = args.parse_or("pr", 9)?;
    let repeats: usize = args.parse_or("repeats", 1)?;
    if repeats == 0 {
        return Err(CliError("--repeats must be at least 1".into()));
    }
    // --smoke drops the million-node shape so CI can run the tier in
    // seconds; the committed BENCH_9.json records the full grid.
    let shapes: &[(usize, usize)] = if args.flag("smoke") {
        &[(100_000, 4)]
    } else {
        &[(100_000, 4), (1_000_000, 4)]
    };
    let budgets: &[usize] = &[50];

    let dir = std::env::temp_dir().join(format!("pcover-bench-large-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(CliError::from_display)?;

    let mut entries = Vec::new();
    let mut violations = Vec::new();
    for &(n, d) in shapes {
        let cfg = GraphGenConfig {
            nodes: n,
            avg_out_degree: d,
            normalized: true,
            seed,
            ..GraphGenConfig::default()
        };
        let cpath = dir.join(format!("bench-{n}.pcov"));
        let jpath = dir.join(format!("bench-{n}.json"));
        generate_graph_container(&cfg, &cpath).map_err(CliError::from_display)?;
        // The JSON twin is derived from the container so both loads read
        // the exact same graph bits.
        let (owned, _) = pcover_store::read_graph_auto(&cpath, pcover_store::OpenMode::Pread)
            .map_err(CliError::from_display)?;
        graph_json::write_json(&owned, &jpath).map_err(CliError::from_display)?;
        drop(owned);

        // Cold-load timing, min over `repeats`: full parse + validation
        // for JSON vs checksum + (mmap | pread) for the container.
        let mut json_ms = f64::INFINITY;
        let mut reference = None;
        for _ in 0..repeats {
            let t = Instant::now();
            let g = graph_json::read_json(&jpath, &LoadOptions::default())
                .map_err(CliError::from_display)?;
            json_ms = json_ms.min(t.elapsed().as_secs_f64() * 1e3);
            reference = Some(g);
        }
        let reference = reference.expect("repeats >= 1");
        let mut container_ms = f64::INFINITY;
        let mut mapped = None;
        let mut backend = "pread";
        for _ in 0..repeats {
            let t = Instant::now();
            let (g, how) = pcover_store::read_graph_auto(&cpath, pcover_store::OpenMode::Auto)
                .map_err(CliError::from_display)?;
            container_ms = container_ms.min(t.elapsed().as_secs_f64() * 1e3);
            mapped = Some(g);
            backend = how;
        }
        let mapped = mapped.expect("repeats >= 1");
        let speedup = json_ms / container_ms;
        if n >= 100_000 && speedup < 10.0 {
            violations.push(format!(
                "container cold-load was only {speedup:.1}x faster than JSON \
                 ({container_ms:.1} ms vs {json_ms:.1} ms) on n={n} D={d}; need >= 10x"
            ));
        }
        for (solver, wall_ms, load_backend) in [
            ("load-json", json_ms, "serde"),
            ("load-container", container_ms, backend),
        ] {
            let mut entry = serde_json::json!({
                "solver": solver,
                "variant": "n/a",
                "n": n,
                "avg_out_degree": d,
                "k": 0,
                "seed": seed,
                "wall_ms": wall_ms,
                "gain_evaluations": 0,
                "memory_bytes": reference.memory_bytes(),
                "cover": 0.0,
                "backend": load_backend,
            });
            if solver == "load-container" {
                if let serde_json::Value::Object(obj) = &mut entry {
                    obj.insert("speedup_vs_json".into(), serde_json::json!(speedup));
                }
            }
            entries.push(entry);
        }

        // Solver timings over the mapped CSR, each checked bit-identical
        // against the same solve on the JSON-loaded in-memory graph.
        let memory_bytes = mapped.memory_bytes();
        for &k in budgets {
            for name in BENCH_LARGE_SOLVERS {
                let spec = *registry
                    .get(name)
                    .ok_or_else(|| CliError(registry.unknown_algorithm_message(name)))?;
                for variant in [Variant::Independent, Variant::Normalized] {
                    let mut ctx = SolveCtx::new(SolverConfig::default());
                    let mut report = spec
                        .solve(variant, &mapped, k, &mut ctx)
                        .map_err(CliError::from_display)?;
                    for _ in 1..repeats {
                        let mut ctx = SolveCtx::new(SolverConfig::default());
                        let again = spec
                            .solve(variant, &mapped, k, &mut ctx)
                            .map_err(CliError::from_display)?;
                        if again.elapsed < report.elapsed {
                            report.elapsed = again.elapsed;
                        }
                    }
                    let mut ctx = SolveCtx::new(SolverConfig::default());
                    let in_memory = spec
                        .solve(variant, &reference, k, &mut ctx)
                        .map_err(CliError::from_display)?;
                    if !report.bit_identical_to(&in_memory) {
                        violations.push(format!(
                            "{name} on the container-backed graph drifted from the \
                             in-memory solve on variant={} n={n} D={d} k={k}",
                            variant.name(),
                        ));
                    }
                    entries.push(serde_json::json!({
                        "solver": name,
                        "variant": variant.name(),
                        "n": n,
                        "avg_out_degree": d,
                        "k": k,
                        "seed": seed,
                        "wall_ms": report.elapsed.as_secs_f64() * 1e3,
                        "gain_evaluations": report.gain_evaluations,
                        "memory_bytes": memory_bytes,
                        "cover": report.cover,
                        "backend": backend,
                    }));
                }
            }
        }

        // Warm-start delta repair on the mapped graph: same seeded <=1%
        // edge perturbation as the default grid's --warm pass.
        let spec = *registry
            .get("delta")
            .ok_or_else(|| CliError(registry.unknown_algorithm_message("delta")))?;
        let changes = (n / 200).max(1);
        let stride = (n / changes).max(1);
        let mut delta = GraphDelta::new();
        let mut applied = 0usize;
        for i in 0..changes {
            let v = ItemId::from_index((i * stride) % n);
            if let Some((target, w)) = mapped.out_edges(v).next() {
                delta = delta.push(Change::UpsertEdge {
                    source: v,
                    target,
                    weight: w * 0.5,
                });
                applied += 1;
            }
        }
        if applied == 0 {
            return Err(CliError(format!(
                "large-grid warm delta for n={n} D={d} found no edges to perturb"
            )));
        }
        let touched = delta.touched_nodes(&mapped);
        let g2 = apply(&mapped, &delta).map_err(CliError::from_display)?;
        let post_memory_bytes = g2.memory_bytes();
        for &k in budgets {
            for variant in [Variant::Independent, Variant::Normalized] {
                let mut ctx = SolveCtx::new(SolverConfig::default());
                let previous = spec
                    .solve(variant, &mapped, k, &mut ctx)
                    .map_err(CliError::from_display)?;
                let warm_state = WarmState::capture_variant(variant, &mapped, &previous.order);

                let mut ctx = SolveCtx::new(SolverConfig::default());
                let mut cold = spec
                    .solve(variant, &g2, k, &mut ctx)
                    .map_err(CliError::from_display)?;
                let mut ctx = SolveCtx::new(SolverConfig::default());
                let mut warm = spec
                    .solve_warm(variant, &g2, k, &touched, &warm_state, &mut ctx)
                    .map_err(CliError::from_display)?;
                for _ in 1..repeats {
                    let mut ctx = SolveCtx::new(SolverConfig::default());
                    let again = spec
                        .solve(variant, &g2, k, &mut ctx)
                        .map_err(CliError::from_display)?;
                    if again.elapsed < cold.elapsed {
                        cold.elapsed = again.elapsed;
                    }
                    let mut ctx = SolveCtx::new(SolverConfig::default());
                    let again = spec
                        .solve_warm(variant, &g2, k, &touched, &warm_state, &mut ctx)
                        .map_err(CliError::from_display)?;
                    if again.report.elapsed < warm.report.elapsed {
                        warm.report.elapsed = again.report.elapsed;
                    }
                }
                if !warm.report.bit_identical_to(&cold) {
                    violations.push(format!(
                        "warm re-solve drifted from the cold solve on variant={} \
                         n={n} D={d} k={k}",
                        variant.name(),
                    ));
                }
                if warm.report.gain_evaluations >= cold.gain_evaluations {
                    violations.push(format!(
                        "warm re-solve did {} gain evaluations vs cold's {} after a \
                         {applied}-change delta on variant={} n={n} D={d} k={k}",
                        warm.report.gain_evaluations,
                        cold.gain_evaluations,
                        variant.name(),
                    ));
                }
                for (solver, report, extra_rounds) in [
                    ("delta-cold", &cold, None),
                    (
                        "delta-warm",
                        &warm.report,
                        Some((warm.rounds_reused, warm.rounds_repaired)),
                    ),
                ] {
                    let mut entry = serde_json::json!({
                        "solver": solver,
                        "variant": variant.name(),
                        "n": n,
                        "avg_out_degree": d,
                        "k": k,
                        "seed": seed,
                        "wall_ms": report.elapsed.as_secs_f64() * 1e3,
                        "gain_evaluations": report.gain_evaluations,
                        "memory_bytes": post_memory_bytes,
                        "cover": report.cover,
                        "backend": backend,
                        "delta_changes": applied,
                    });
                    if let (Some((reused, repaired)), serde_json::Value::Object(obj)) =
                        (extra_rounds, &mut entry)
                    {
                        obj.insert("rounds_reused".into(), serde_json::json!(reused));
                        obj.insert("rounds_repaired".into(), serde_json::json!(repaired));
                    }
                    entries.push(entry);
                }
            }
        }
        std::fs::remove_file(&cpath).ok();
        std::fs::remove_file(&jpath).ok();
    }
    std::fs::remove_dir(&dir).ok();

    let count = entries.len();
    let snapshot = serde_json::json!({
        "schema": BENCH_SCHEMA,
        "pr": pr,
        "seed": seed,
        "entries": entries,
    });
    let json = serde_json::to_string_pretty(&snapshot).map_err(CliError::from_display)?;
    std::fs::write(out, json + "\n").map_err(CliError::from_display)?;

    if !violations.is_empty() {
        return Err(CliError(format!(
            "bench snapshot written to {out}, but the container-tier guarantees \
             (>= 10x cold-load speedup; mapped solves bit-identical to in-memory; \
             warm repairs bit-identical and cheaper than cold) failed:\n  {}",
            violations.join("\n  ")
        )));
    }
    Ok(format!(
        "bench snapshot: {count} entries (large container grid, {} solvers + loads + \
         warm deltas x {} shapes, seed {seed}) -> {out}\n",
        BENCH_LARGE_SOLVERS.len(),
        shapes.len(),
    ))
}

fn export_dot_cmd(args: &Args) -> Result<String, CliError> {
    let out = args.required("out")?;
    let min_weight: f64 = args.parse_or("min-weight", 0.0)?;
    let g = load_graph(args.required("graph")?)?;
    let retained = match args.optional("report") {
        Some(path) => {
            let report: SolveReport = serde_json::from_str(
                &std::fs::read_to_string(path).map_err(CliError::from_display)?,
            )
            .map_err(CliError::from_display)?;
            report.order
        }
        None => Vec::new(),
    };
    pcover_graph::io::dot::write_dot(
        &g,
        out,
        &pcover_graph::io::dot::DotOptions {
            retained,
            min_edge_weight: min_weight,
            name: None,
        },
    )
    .map_err(CliError::from_display)?;
    Ok(format!(
        "wrote DOT with {} nodes and {} edges (min edge weight {min_weight}) -> {out}\n",
        g.node_count(),
        g.edge_count()
    ))
}

fn solve_cmd(args: &Args, registry: &Registry) -> Result<String, CliError> {
    let g = load_graph(args.required("graph")?)?;
    let k: usize = args.required_parse("k")?;
    let variant = parse_variant(args)?;
    let algorithm = args.optional("algorithm").unwrap_or("lazy");
    let spec = *registry
        .get(algorithm)
        .ok_or_else(|| CliError(registry.unknown_algorithm_message(algorithm)))?;
    let defaults = SolverConfig::default();
    let config = SolverConfig {
        threads: args.parse_or("threads", defaults.threads)?,
        seed: args.parse_or("seed", defaults.seed)?,
        ..defaults
    };
    let top: usize = args.parse_or("top", 10)?;

    let report = run_solver(
        &spec,
        variant,
        &g,
        k,
        config,
        args.optional("trace"),
        args.flag("progress"),
    )?;

    if let Some(out) = args.optional("out") {
        let json = serde_json::to_string_pretty(&report).map_err(CliError::from_display)?;
        std::fs::write(out, json).map_err(CliError::from_display)?;
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} retained {} of {} items, cover {:.4} ({} gain evaluations, {:?})",
        report.algorithm.label(),
        report.k(),
        g.node_count(),
        report.cover,
        report.gain_evaluations,
        report.elapsed,
    );
    let _ = writeln!(out, "first retained items (selection order):");
    for &v in report.order.iter().take(top) {
        let label = g.label(v).unwrap_or("");
        let _ = writeln!(
            out,
            "  {:>8}  {}  weight {:.5}",
            v.raw(),
            if label.is_empty() { "-" } else { label },
            g.node_weight(v),
        );
    }
    Ok(out)
}

fn minimize_cmd(args: &Args) -> Result<String, CliError> {
    let g = load_graph(args.required("graph")?)?;
    let threshold: f64 = args.required_parse("threshold")?;
    let variant = parse_variant(args)?;
    let result = match variant {
        Variant::Independent => minimize::greedy_min_cover::<Independent>(&g, threshold),
        Variant::Normalized => minimize::greedy_min_cover::<Normalized>(&g, threshold),
    }
    .map_err(CliError::from_display)?;
    Ok(format!(
        "threshold {:.3}: smallest greedy set has {} of {} items (cover {:.4})",
        threshold,
        result.set_size(),
        g.node_count(),
        result.report.cover,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn run_tokens(tokens: &[&str]) -> Result<String, CliError> {
        run(&Args::parse(tokens.iter().map(|s| s.to_string())).unwrap())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("pcover-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_command() {
        let help_text = run_tokens(&["help"]).unwrap();
        assert!(help_text.contains("SUBCOMMANDS"));
        assert!(help_text.contains("serve"), "serve must be documented");
        assert!(help_text.contains("/admin/delta"));
        assert!(help_text.contains("convert"), "convert must be documented");
        assert!(help_text.contains("probe"), "probe must be documented");
        assert!(
            help_text.contains("gen-graph"),
            "gen-graph must be documented"
        );
        assert!(run_tokens(&["frobnicate"]).is_err());
    }

    #[test]
    fn convert_and_probe_round_trip_a_container() {
        let json_in = tmp("convert-in.json");
        let container = tmp("convert-out.pcov");
        let json_back = tmp("convert-back.json");
        let g = pcover_graph::examples::figure1();
        pcover_graph::io::json::write_json(&g, &json_in).unwrap();

        let out = run_tokens(&["convert", &json_in, &container]).unwrap();
        assert!(out.contains("5 nodes"), "{out}");

        let probed = run_tokens(&["probe", &container]).unwrap();
        assert!(probed.contains("nodes: 5"), "{probed}");
        assert!(probed.contains("labels: yes"), "{probed}");
        assert!(probed.contains("header only"), "{probed}");
        let verified = run_tokens(&["probe", &container, "--verify"]).unwrap();
        assert!(
            verified.contains("checksums + CSR invariants"),
            "{verified}"
        );

        // Every --graph option accepts the container directly (sniffed by
        // magic, not extension).
        let stats = run_tokens(&["stats", "--graph", &container]).unwrap();
        assert_eq!(stats, run_tokens(&["stats", "--graph", &json_in]).unwrap());

        let out = run_tokens(&["convert", &container, &json_back, "--to", "json"]).unwrap();
        assert!(out.contains("5 nodes"), "{out}");
        let round = pcover_graph::io::json::read_json(&json_back, &LoadOptions::default()).unwrap();
        assert_eq!(round.node_count(), g.node_count());
        assert_eq!(round.edge_count(), g.edge_count());
    }

    #[test]
    fn convert_and_probe_error_paths() {
        // Unknown target format.
        let json_in = tmp("convert-err.json");
        pcover_graph::io::json::write_json(&pcover_graph::examples::figure1(), &json_in).unwrap();
        let err =
            run_tokens(&["convert", &json_in, &tmp("x.pcov"), "--to", "parquet"]).unwrap_err();
        assert!(err.to_string().contains("parquet"), "{err}");
        // Probing a JSON file is a typed "not a container" error, not a
        // panic or a garbage header dump.
        let err = run_tokens(&["probe", &json_in]).unwrap_err();
        assert!(err.to_string().contains("container"), "{err}");
        // Missing operands name the operand.
        let err = run_tokens(&["probe"]).unwrap_err();
        assert!(err.to_string().contains("<file>"), "{err}");
        let err = run_tokens(&["convert", &json_in]).unwrap_err();
        assert!(err.to_string().contains("<output>"), "{err}");
    }

    #[test]
    fn gen_graph_streamed_container_matches_json_convert() {
        let direct = tmp("gen-direct.pcov");
        let json = tmp("gen-via.json");
        let via = tmp("gen-via.pcov");
        let out = run_tokens(&[
            "gen-graph",
            "--nodes",
            "500",
            "--degree",
            "3",
            "--seed",
            "7",
            "--normalized",
            "--out",
            &direct,
        ])
        .unwrap();
        assert!(out.contains("streamed"), "{out}");
        run_tokens(&[
            "gen-graph",
            "--nodes",
            "500",
            "--degree",
            "3",
            "--seed",
            "7",
            "--normalized",
            "--out",
            &json,
        ])
        .unwrap();
        run_tokens(&["convert", &json, &via, "--variant", "normalized"]).unwrap();
        // The streamed writer, the in-memory writer, and a JSON round trip
        // all land on identical bytes.
        assert_eq!(
            std::fs::read(&direct).unwrap(),
            std::fs::read(&via).unwrap()
        );
    }

    #[test]
    fn serve_requires_a_graph() {
        assert!(run_tokens(&["serve"]).is_err());
        assert!(run_tokens(&["serve", "--graph", "/nonexistent.json"]).is_err());
    }

    #[test]
    fn serve_starts_answers_and_shuts_down() {
        use std::io::{Read as _, Write as _};

        // Build a real graph file, then run `serve` on an ephemeral port in
        // a background thread and drive it over TCP like a client would.
        let graph_path = tmp("serve-graph.json");
        pcover_graph::io::json::write_json(&pcover_graph::examples::figure1(), &graph_path)
            .unwrap();
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = probe.local_addr().unwrap().port().to_string();
        drop(probe);
        let args: Vec<String> = [
            "serve",
            "--graph",
            &graph_path,
            "--port",
            &port,
            "--threads",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || run(&Args::parse(args).unwrap()).unwrap());

        let addr = format!("127.0.0.1:{port}");
        let send = |target: &str, method: &str| -> String {
            // The server may still be binding; retry briefly.
            let mut last_err = None;
            for _ in 0..100 {
                match std::net::TcpStream::connect(&addr) {
                    Ok(mut s) => {
                        s.write_all(
                            format!(
                                "{method} {target} HTTP/1.1\r\nHost: t\r\n\
                                 Content-Length: 0\r\nConnection: close\r\n\r\n"
                            )
                            .as_bytes(),
                        )
                        .unwrap();
                        let mut out = String::new();
                        s.read_to_string(&mut out).unwrap();
                        return out;
                    }
                    Err(e) => {
                        last_err = Some(e);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                }
            }
            panic!("server never came up: {last_err:?}");
        };

        let health = send("/healthz", "GET");
        assert!(health.contains("200 OK"), "{health}");
        let solved = send("/solve?k=2", "GET");
        assert!(solved.contains("\"cover\""), "{solved}");
        let bye = send("/admin/shutdown", "POST");
        assert!(bye.contains("shutting down"), "{bye}");
        let summary = server.join().unwrap();
        assert!(summary.contains("shut down"), "{summary}");
    }

    #[test]
    fn full_pipeline_through_files() {
        let sessions = tmp("pipeline.jsonl");
        let graph = tmp("pipeline-graph.json");

        let out = run_tokens(&[
            "generate",
            "--profile",
            "YC",
            "--scale",
            "0.005",
            "--seed",
            "7",
            "--out",
            &sessions,
        ])
        .unwrap();
        assert!(out.contains("generated"), "{out}");

        let out = run_tokens(&["diagnose", "--input", &sessions]).unwrap();
        assert!(out.contains("recommended variant"), "{out}");

        let out = run_tokens(&[
            "adapt",
            "--input",
            &sessions,
            "--variant",
            "independent",
            "--out",
            &graph,
        ])
        .unwrap();
        assert!(out.contains("adapted"), "{out}");

        let out = run_tokens(&["stats", "--graph", &graph]).unwrap();
        assert!(out.contains("nodes:"), "{out}");

        let out = run_tokens(&[
            "solve",
            "--graph",
            &graph,
            "--k",
            "50",
            "--variant",
            "independent",
            "--algorithm",
            "lazy",
        ])
        .unwrap();
        assert!(out.contains("retained 50"), "{out}");

        let out = run_tokens(&[
            "minimize",
            "--graph",
            &graph,
            "--threshold",
            "0.5",
            "--variant",
            "independent",
        ])
        .unwrap();
        assert!(out.contains("smallest greedy set"), "{out}");
    }

    #[test]
    fn solve_writes_report_json() {
        let sessions = tmp("report.jsonl");
        let graph = tmp("report-graph.json");
        let report = tmp("report-out.json");
        run_tokens(&[
            "generate",
            "--profile",
            "YC",
            "--scale",
            "0.003",
            "--out",
            &sessions,
        ])
        .unwrap();
        run_tokens(&[
            "adapt",
            "--input",
            &sessions,
            "--variant",
            "normalized",
            "--out",
            &graph,
        ])
        .unwrap();
        run_tokens(&[
            "solve",
            "--graph",
            &graph,
            "--k",
            "10",
            "--variant",
            "normalized",
            "--out",
            &report,
        ])
        .unwrap();
        let parsed: pcover_core::SolveReport =
            serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(parsed.k(), 10);
    }

    #[test]
    fn all_algorithms_run_on_small_graph() {
        let sessions = tmp("algos.jsonl");
        let graph = tmp("algos-graph.json");
        run_tokens(&[
            "generate",
            "--profile",
            "YC",
            "--scale",
            "0.001",
            "--seed",
            "3",
            "--out",
            &sessions,
        ])
        .unwrap();
        run_tokens(&[
            "adapt",
            "--input",
            &sessions,
            "--variant",
            "independent",
            "--out",
            &graph,
        ])
        .unwrap();
        for algo in ["greedy", "lazy", "parallel", "topk-w", "topk-c", "random"] {
            let out = run_tokens(&[
                "solve",
                "--graph",
                &graph,
                "--k",
                "5",
                "--variant",
                "independent",
                "--algorithm",
                algo,
            ])
            .unwrap();
            assert!(out.contains("retained 5"), "algorithm {algo}: {out}");
        }
        assert!(run_tokens(&[
            "solve",
            "--graph",
            &graph,
            "--k",
            "5",
            "--variant",
            "independent",
            "--algorithm",
            "nope",
        ])
        .is_err());
    }

    #[test]
    fn extended_algorithms_run() {
        let sessions = tmp("ext-algos.jsonl");
        let graph = tmp("ext-algos-graph.json");
        run_tokens(&[
            "generate",
            "--profile",
            "YC",
            "--scale",
            "0.001",
            "--seed",
            "4",
            "--out",
            &sessions,
        ])
        .unwrap();
        run_tokens(&[
            "adapt",
            "--input",
            &sessions,
            "--variant",
            "independent",
            "--out",
            &graph,
        ])
        .unwrap();
        for algo in ["stochastic", "sieve", "local-search", "partitioned"] {
            let out = run_tokens(&[
                "solve",
                "--graph",
                &graph,
                "--k",
                "5",
                "--variant",
                "independent",
                "--algorithm",
                algo,
            ])
            .unwrap();
            assert!(out.contains("retained"), "algorithm {algo}: {out}");
        }
    }

    /// Acceptance check for the registry refactor: a solver registered from
    /// outside this crate is reachable from CLI dispatch, help text, and
    /// the unknown-algorithm suggestion with zero edits here.
    #[test]
    fn fictitious_registered_solver_is_reachable_from_dispatch_and_help() {
        use pcover_core::{Algorithm, Solver, SolverCaps};

        let mut registry = Registry::builtin();
        registry.register(SolverSpec::new(
            "fixture-greedy",
            Algorithm::Greedy,
            "test-only fixture solver",
            SolverCaps::default(),
            |v, g, k, ctx| pcover_core::greedy::Greedy.dispatch(v, g, k, ctx),
        ));

        assert!(help_with(&registry).contains("fixture-greedy"));

        let sessions = tmp("fixture.jsonl");
        let graph = tmp("fixture-graph.json");
        run_tokens(&[
            "generate",
            "--profile",
            "YC",
            "--scale",
            "0.001",
            "--seed",
            "5",
            "--out",
            &sessions,
        ])
        .unwrap();
        run_tokens(&[
            "adapt",
            "--input",
            &sessions,
            "--variant",
            "independent",
            "--out",
            &graph,
        ])
        .unwrap();

        let solve = |algo: &str| {
            let tokens = [
                "solve",
                "--graph",
                &graph,
                "--k",
                "5",
                "--variant",
                "independent",
                "--algorithm",
                algo,
            ];
            run_with_registry(
                &Args::parse(tokens.iter().map(|s| s.to_string())).unwrap(),
                &registry,
            )
        };
        let out = solve("fixture-greedy").unwrap();
        assert!(out.contains("retained 5"), "{out}");

        // The unknown-algorithm error suggests every registered name,
        // including the fixture.
        let err = solve("nope").unwrap_err().to_string();
        assert!(err.contains("unknown algorithm"), "{err}");
        assert!(err.contains("fixture-greedy"), "{err}");
        assert!(err.contains("lazy"), "{err}");
    }

    #[test]
    fn solve_trace_flag_writes_observer_json() {
        let sessions = tmp("trace.jsonl");
        let graph = tmp("trace-graph.json");
        let trace = tmp("trace-out.json");
        run_tokens(&[
            "generate",
            "--profile",
            "YC",
            "--scale",
            "0.001",
            "--seed",
            "6",
            "--out",
            &sessions,
        ])
        .unwrap();
        run_tokens(&[
            "adapt",
            "--input",
            &sessions,
            "--variant",
            "independent",
            "--out",
            &graph,
        ])
        .unwrap();
        let out = run_tokens(&[
            "solve",
            "--graph",
            &graph,
            "--k",
            "5",
            "--variant",
            "independent",
            "--algorithm",
            "greedy",
            "--trace",
            &trace,
            "--progress",
        ])
        .unwrap();
        assert!(out.contains("retained 5"), "{out}");
        let parsed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = parsed.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(parsed.get("rounds").unwrap().as_array().unwrap().len(), 5);
        let covers: Vec<f64> = events
            .iter()
            .map(|e| e.get("cover").unwrap().as_f64().unwrap())
            .collect();
        for w in covers.windows(2) {
            assert!(w[1] >= w[0], "trace covers must be non-decreasing");
        }
    }

    #[test]
    fn repair_and_export_dot() {
        let sessions = tmp("repair.jsonl");
        let graph = tmp("repair-graph.json");
        let report = tmp("repair-report.json");
        let dot = tmp("repair.dot");
        run_tokens(&[
            "generate",
            "--profile",
            "YC",
            "--scale",
            "0.002",
            "--seed",
            "8",
            "--out",
            &sessions,
        ])
        .unwrap();
        run_tokens(&[
            "adapt",
            "--input",
            &sessions,
            "--variant",
            "independent",
            "--out",
            &graph,
        ])
        .unwrap();
        run_tokens(&[
            "solve",
            "--graph",
            &graph,
            "--k",
            "10",
            "--variant",
            "independent",
            "--out",
            &report,
        ])
        .unwrap();

        let out = run_tokens(&[
            "repair",
            "--graph",
            &graph,
            "--report",
            &report,
            "--variant",
            "independent",
            "--max-changes",
            "2",
        ])
        .unwrap();
        assert!(out.contains("repaired solution of 10 items"), "{out}");

        let out = run_tokens(&[
            "export-dot",
            "--graph",
            &graph,
            "--out",
            &dot,
            "--report",
            &report,
        ])
        .unwrap();
        assert!(out.contains("wrote DOT"), "{out}");
        let content = std::fs::read_to_string(&dot).unwrap();
        assert!(content.contains("digraph"));
        assert_eq!(content.matches("peripheries=2").count(), 10);
    }

    #[test]
    fn closure_and_delta_commands() {
        let graph = tmp("closure-graph.json");
        let closed = tmp("closure-closed.json");
        let changes = tmp("closure-delta.json");
        let updated = tmp("closure-updated.json");

        // A 3-node chain browse graph.
        let mut b = pcover_graph::GraphBuilder::new().normalize_node_weights(true);
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        let z = b.add_node(1.0);
        b.add_edge(x, y, 0.5).unwrap();
        b.add_edge(y, z, 0.4).unwrap();
        let g = b.build().unwrap();
        graph_json::write_json(&g, &graph).unwrap();

        let out = run_tokens(&[
            "closure", "--graph", &graph, "--out", &closed, "--depth", "2",
        ])
        .unwrap();
        assert!(out.contains("2 -> 3 edges"), "{out}");

        std::fs::write(
            &changes,
            r#"{"changes": [{"Delist": {"node": 2}}, {"SetNodeWeight": {"node": 0, "weight": 3.0}}]}"#,
        )
        .unwrap();
        let out = run_tokens(&[
            "delta",
            "--graph",
            &graph,
            "--changes",
            &changes,
            "--out",
            &updated,
        ])
        .unwrap();
        assert!(out.contains("applied 2 changes"), "{out}");
        let g2 = load_graph(&updated).unwrap();
        assert_eq!(g2.edge_weight(y, z), None);
        // x set to (unnormalized) 3.0 against y's surviving 1/3:
        // renormalized share 3 / (3 + 1/3) = 0.9.
        assert!((g2.node_weight(x) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn bench_snapshot_writes_stable_schema_and_enforces_delta_wins() {
        let out = tmp("bench-snapshot.json");
        let msg = run_tokens(&["bench-snapshot", "--grid", "small", "--out", &out]).unwrap();
        assert!(msg.contains(&out), "{msg}");

        let parsed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            parsed.get("schema").unwrap().as_str().unwrap(),
            BENCH_SCHEMA
        );
        let entries = parsed.get("entries").unwrap().as_array().unwrap();
        // 4 solvers x 2 variants x 1 shape x 2 budgets.
        assert_eq!(entries.len(), 16);

        let field = |e: &serde_json::Value, key: &str| e.get(key).unwrap().clone();
        let evals = |solver: &str, variant: &str, k: u64| -> u64 {
            entries
                .iter()
                .find(|e| {
                    field(e, "solver").as_str() == Some(solver)
                        && field(e, "variant").as_str() == Some(variant)
                        && field(e, "k").as_u64() == Some(k)
                })
                .unwrap_or_else(|| panic!("missing entry {solver}/{variant}/k={k}"))
                .get("gain_evaluations")
                .unwrap()
                .as_u64()
                .unwrap()
        };
        for variant in ["independent", "normalized"] {
            for k in [8, 32] {
                assert!(
                    evals("delta", variant, k) < evals("greedy", variant, k),
                    "{variant} k={k}: delta must evaluate strictly fewer gains"
                );
            }
        }
        for e in entries {
            assert!(field(e, "wall_ms").as_f64().unwrap() >= 0.0);
            assert!(field(e, "memory_bytes").as_u64().unwrap() > 0);
            assert!(field(e, "cover").as_f64().unwrap() > 0.0);
        }

        assert!(run_tokens(&["bench-snapshot", "--grid", "bogus", "--out", &out]).is_err());
    }

    #[test]
    fn bench_snapshot_warm_mode_records_bit_identical_cheaper_repairs() {
        let out = tmp("bench-snapshot-warm.json");
        let msg =
            run_tokens(&["bench-snapshot", "--grid", "small", "--warm", "--out", &out]).unwrap();
        assert!(msg.contains("warm-vs-cold"), "{msg}");

        let parsed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let entries = parsed.get("entries").unwrap().as_array().unwrap();
        // 16 base entries + 2 variants x 2 budgets x (delta-cold, delta-warm).
        assert_eq!(entries.len(), 24);

        let find = |solver: &str, variant: &str, k: u64| -> &serde_json::Value {
            entries
                .iter()
                .find(|e| {
                    e.get("solver").unwrap().as_str() == Some(solver)
                        && e.get("variant").unwrap().as_str() == Some(variant)
                        && e.get("k").unwrap().as_u64() == Some(k)
                })
                .unwrap_or_else(|| panic!("missing entry {solver}/{variant}/k={k}"))
        };
        for variant in ["independent", "normalized"] {
            for k in [8, 32] {
                let cold = find("delta-cold", variant, k);
                let warm = find("delta-warm", variant, k);
                // Bit-identical answers: identical JSON-printed covers.
                assert_eq!(
                    cold.get("cover").unwrap().to_string(),
                    warm.get("cover").unwrap().to_string(),
                    "{variant} k={k}: warm cover must match cold byte-for-byte"
                );
                // Strictly fewer evaluations even at small n (the hard gate
                // is n >= 1000, but a <=1% edge delta wins at n=200 too).
                assert!(
                    warm.get("gain_evaluations").unwrap().as_u64()
                        < cold.get("gain_evaluations").unwrap().as_u64(),
                    "{variant} k={k}: warm repair must re-evaluate fewer gains"
                );
                let reused = warm.get("rounds_reused").unwrap().as_u64().unwrap();
                let repaired = warm.get("rounds_repaired").unwrap().as_u64().unwrap();
                assert_eq!(reused + repaired, k, "round accounting partitions k");
                assert!(warm.get("delta_changes").unwrap().as_u64().unwrap() >= 1);
            }
        }
    }

    #[test]
    fn bad_variant_is_rejected() {
        let err = run_tokens(&[
            "adapt",
            "--input",
            "x.jsonl",
            "--variant",
            "bogus",
            "--out",
            "y.json",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("variant"));
    }

    #[test]
    fn error_paths_are_clean_messages() {
        // Missing file.
        let err = run_tokens(&["stats", "--graph", "/nonexistent/g.json"]).unwrap_err();
        assert!(err.to_string().contains("io error"), "{err}");

        // k larger than the graph.
        let sessions = tmp("errs.jsonl");
        let graph = tmp("errs-graph.json");
        run_tokens(&[
            "generate",
            "--profile",
            "YC",
            "--scale",
            "0.001",
            "--out",
            &sessions,
        ])
        .unwrap();
        run_tokens(&[
            "adapt",
            "--input",
            &sessions,
            "--variant",
            "independent",
            "--out",
            &graph,
        ])
        .unwrap();
        let err = run_tokens(&[
            "solve",
            "--graph",
            &graph,
            "--k",
            "999999",
            "--variant",
            "independent",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");

        // Unparseable k.
        let err = run_tokens(&[
            "solve",
            "--graph",
            &graph,
            "--k",
            "many",
            "--variant",
            "independent",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--k"), "{err}");

        // Threshold outside [0, 1].
        let err = run_tokens(&[
            "minimize",
            "--graph",
            &graph,
            "--threshold",
            "1.5",
            "--variant",
            "independent",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("1.5"), "{err}");

        // Bad scale and profile for generate.
        assert!(run_tokens(&["generate", "--profile", "ZZ", "--out", "x.jsonl"]).is_err());
        assert!(run_tokens(&[
            "generate",
            "--profile",
            "YC",
            "--scale",
            "nope",
            "--out",
            "x.jsonl"
        ])
        .is_err());
    }

    #[test]
    fn yoochoose_format_generation() {
        let base = tmp("ycgen.dat");
        let out = run_tokens(&[
            "generate",
            "--profile",
            "PM",
            "--scale",
            "0.001",
            "--out",
            &base,
            "--format",
            "yoochoose",
        ])
        .unwrap();
        assert!(out.contains("generated"));
        let clicks = std::path::Path::new(&base).with_extension("clicks.dat");
        let buys = std::path::Path::new(&base).with_extension("buys.dat");
        assert!(clicks.exists() && buys.exists());
        let (cs, _) = cs_io::read_yoochoose(&clicks, &buys).unwrap();
        assert!(!cs.is_empty());
    }
}
