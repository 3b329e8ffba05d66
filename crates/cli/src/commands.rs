//! Subcommand implementations.
//!
//! Every command returns its report as a `String` so the binary stays a
//! thin printer and tests can assert on outputs directly.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pcover_adapt::diagnostics::{diagnose, DiagnosticThresholds};
use pcover_adapt::{adapt, AdaptOptions};
use pcover_clickstream::{io as cs_io, Clickstream};
use pcover_core::{
    minimize, Independent, Normalized, Observer, ProgressObserver, Registry, RoundStats, SolveCtx,
    SolveReport, SolverConfig, SolverSpec, TraceObserver, Variant, WarmState,
};
use pcover_datagen::graphgen::{generate_graph, generate_graph_container, GraphGenConfig};
use pcover_datagen::profiles::{DatasetProfile, Scale};
use pcover_datagen::sessions::generate_clickstream;
use pcover_graph::delta::{Change, GraphDelta};
use pcover_graph::io::{json as graph_json, LoadOptions};
use pcover_graph::{GraphStats, ItemId, PreferenceGraph};
use serde_json::{json, Value};

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
                 [--pr 5] [--repeats 1] [--smoke]
            Run the fixed solver × variant × (n, D, k) perf grid on seeded
            synthetic graphs and write a machine-readable snapshot (schema
            pcover-bench-snapshot/1). Every grid also applies a seeded <=1%
            edge delta per shape and records warm-start repair vs cold
            post-delta re-solve as delta-cold / delta-warm entries. Fails if
            the delta solver evaluates at least as many gains as plain
            greedy on any n >= 100 point, if a warm solve is not
            bit-identical to its cold one, or if one at n >= 1000 does not
            evaluate strictly fewer gains.
            --grid large is the container tier (n = 10^5 and 10^6, k = 50;
            --smoke drops the 10^6 shape; --out and --pr default to
            BENCH_9.json and 9): streams each graph to a .pcov container,
            gates container cold-load at >= 10x faster than the JSON parse,
            and times greedy/lazy/delta over the mapped CSR, checked
            bit-identical to in-memory solves.
  serve     --graph graph.json [--threads 8] [--port 7878] [--host 127.0.0.1]
            [--queue 64] [--cache 128] [--deadline-ms 0]
            Run the resident query service: GET /solve, /cover, /minimize,
            /healthz, /metrics; POST /admin/delta hot-swaps the graph and
            POST /admin/shutdown drains and exits. Requests beyond the
            queue bound are shed with 503; --deadline-ms > 0 cancels
            overrunning solves (504). Connections are persistent
            (HTTP/1.1 keep-alive) and identical concurrent solves
            coalesce into one run.
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

/// The solvers the default and small grids record. `BENCH_*.json` files
/// are a perf trajectory across PRs, so a name leaves this list only with
/// its solver: the committed snapshots keep the rows of removed solvers
/// (`delta-parallel` in BENCH_5/7/8) as history, and the CI gates over
/// them read only the `greedy` and `delta` rows.
const BENCH_SOLVERS: [&str; 4] = ["greedy", "lazy", "parallel", "delta"];

/// Schema tag written into every snapshot; bump only with a migration note
/// in the README.
const BENCH_SCHEMA: &str = "pcover-bench-snapshot/1";

/// One `--grid`: its (n, D) graph shapes × budgets k, the solvers it times,
/// its load path, and its default `--pr`; `--out` defaults to that PR's
/// `BENCH_<pr>.json`.
struct BenchGrid {
    name: &'static str,
    shapes: &'static [(usize, usize)],
    budgets: &'static [usize],
    solvers: &'static [&'static str],
    /// The load path: `false` builds each graph in memory with
    /// `generate_graph`; `true` takes [`BenchRun::load_race`] and solves
    /// over the mapped container.
    container: bool,
    pr: u64,
}

/// Every `--grid`. `small` is the CI smoke grid; `default` is what
/// BENCH_5/7/8.json record; `large` is the million-node container tier of
/// BENCH_9/15.json, which leaves the thread-pool solver (`parallel`) to the
/// default grid.
const BENCH_GRIDS: [BenchGrid; 3] = [
    BenchGrid {
        name: "default",
        shapes: &[(1_000, 4), (1_000, 8), (10_000, 4), (10_000, 8)],
        budgets: &[16, 64],
        solvers: &BENCH_SOLVERS,
        container: false,
        pr: 5,
    },
    BenchGrid {
        name: "small",
        shapes: &[(200, 4)],
        budgets: &[8, 32],
        solvers: &BENCH_SOLVERS,
        container: false,
        pr: 5,
    },
    BenchGrid {
        name: "large",
        shapes: &[(100_000, 4), (1_000_000, 4)],
        budgets: &[50],
        solvers: &["greedy", "lazy", "delta"],
        container: true,
        pr: 9,
    },
];

/// `pcover bench-snapshot`: one loop over the chosen grid's shapes (see
/// [`BenchRun::shape`]). The snapshot is written before any gate failure is
/// reported, so a failing run still leaves its numbers behind.
fn bench_snapshot_cmd(args: &Args, registry: &Registry) -> Result<String, CliError> {
    let grid_name = args.optional("grid").unwrap_or("default");
    let grid = BENCH_GRIDS
        .iter()
        .find(|grid| grid.name == grid_name)
        .ok_or_else(|| {
            CliError(format!(
                "unknown grid {grid_name:?}; use default, small or large"
            ))
        })?;
    let default_out = format!("BENCH_{}.json", grid.pr);
    let out = args.optional("out").unwrap_or(&default_out);
    let seed: u64 = args.parse_or("seed", 42)?;
    // The PR number the snapshot belongs to, recorded so two committed
    // snapshots (e.g. BENCH_5.json vs BENCH_7.json) identify themselves.
    let pr: u64 = args.parse_or("pr", grid.pr)?;
    let repeats: usize = args.parse_or("repeats", 1)?;
    if repeats == 0 {
        return Err(CliError("--repeats must be at least 1".into()));
    }
    let solvers = grid
        .solvers
        .iter()
        .map(|&name| {
            registry
                .get(name)
                .copied()
                .ok_or_else(|| CliError(registry.unknown_algorithm_message(name)))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // --smoke drops the million-node shape so CI can run the large grid in
    // seconds; the committed BENCH_9/15.json record the full grid.
    let smoke = args.flag("smoke");
    let shapes: Vec<_> = grid
        .shapes
        .iter()
        .copied()
        .filter(|&(n, _)| !smoke || n < 1_000_000)
        .collect();

    let mut run = BenchRun {
        seed,
        repeats,
        dir: std::env::temp_dir().join(format!("pcover-bench-{}", std::process::id())),
        entries: Vec::new(),
        violations: Vec::new(),
    };
    for &(n, d) in &shapes {
        run.shape(grid, &solvers, n, d)?;
    }
    if grid.container {
        std::fs::remove_dir_all(&run.dir).ok();
    }

    let count = run.entries.len();
    let snapshot = json!({
        "schema": BENCH_SCHEMA,
        "pr": pr,
        "seed": seed,
        "entries": run.entries,
    });
    let json = serde_json::to_string_pretty(&snapshot).map_err(CliError::from_display)?;
    std::fs::write(out, json + "\n").map_err(CliError::from_display)?;

    if !run.violations.is_empty() {
        return Err(CliError(format!(
            "bench snapshot written to {out}, but {} of its gates failed:\n  {}",
            run.violations.len(),
            run.violations.join("\n  ")
        )));
    }
    Ok(format!(
        "bench snapshot: {count} entries ({} grid: {} solvers x 2 variants x {} shapes x {} \
         budgets, each delta solve with a warm-vs-cold delta pass, seed {seed}) -> {out}\n",
        grid.name,
        solvers.len(),
        shapes.len(),
        grid.budgets.len(),
    ))
}

/// Runs `timed` `repeats` times and keeps its first result, with the wall
/// time `wall` points at lowered to the minimum over all runs: the min is
/// the standard robust estimator under scheduler and cache noise.
/// Evaluation counts and covers are deterministic, so only the timing
/// benefits from repetition.
fn min_wall<T, E: std::fmt::Display>(
    repeats: usize,
    mut timed: impl FnMut() -> Result<T, E>,
    wall: fn(&mut T) -> &mut Duration,
) -> Result<T, CliError> {
    let mut best = timed().map_err(CliError::from_display)?;
    for _ in 1..repeats {
        let mut again = timed().map_err(CliError::from_display)?;
        let again = *wall(&mut again);
        let best_wall = wall(&mut best);
        *best_wall = (*best_wall).min(again);
    }
    Ok(best)
}

/// The fields every entry of one (n, D) shape shares.
#[derive(Clone, Copy)]
struct BenchShape {
    n: usize,
    d: usize,
    seed: u64,
    /// CSR footprint of the graph the entry's run read.
    memory_bytes: usize,
    /// How the graph was loaded; set on container grids only.
    backend: Option<&'static str>,
    /// Size of the seeded delta; set on entries timed after it.
    delta_changes: Option<usize>,
}

impl BenchShape {
    fn of(cfg: &GraphGenConfig, g: &PreferenceGraph, backend: Option<&'static str>) -> Self {
        BenchShape {
            n: cfg.nodes,
            d: cfg.avg_out_degree,
            seed: cfg.seed,
            memory_bytes: g.memory_bytes(),
            backend,
            delta_changes: None,
        }
    }

    /// One `pcover-bench-snapshot/1` entry; loads write variant `n/a`,
    /// k = 0, no gain evaluations and a zero cover.
    fn entry(
        &self,
        solver: &str,
        variant: &str,
        k: usize,
        wall: Duration,
        gain_evaluations: u64,
        cover: f64,
    ) -> BTreeMap<String, Value> {
        let mut entry: BTreeMap<String, Value> = [
            ("solver", json!(solver)),
            ("variant", json!(variant)),
            ("n", json!(self.n)),
            ("avg_out_degree", json!(self.d)),
            ("k", json!(k)),
            ("seed", json!(self.seed)),
            ("wall_ms", json!(wall.as_secs_f64() * 1e3)),
            ("gain_evaluations", json!(gain_evaluations)),
            ("memory_bytes", json!(self.memory_bytes)),
            ("cover", json!(cover)),
        ]
        .into_iter()
        .map(|(key, value)| (key.to_owned(), value))
        .collect();
        if let Some(backend) = self.backend {
            entry.insert("backend".into(), json!(backend));
        }
        if let Some(changes) = self.delta_changes {
            entry.insert("delta_changes".into(), json!(changes));
        }
        entry
    }

    /// [`Self::entry`] for a timed solve of `solver` at budget `k`.
    fn solved(&self, solver: &str, k: usize, r: &SolveReport) -> BTreeMap<String, Value> {
        self.entry(
            solver,
            r.variant.name(),
            k,
            r.elapsed,
            r.gain_evaluations,
            r.cover,
        )
    }

    /// The grid point a gate failed at, for its message.
    fn at(&self, variant: Variant, k: usize) -> String {
        format!("variant={} n={} D={} k={k}", variant.name(), self.n, self.d)
    }
}

/// A shape's seeded edge-only delta, applied.
struct BenchDelta {
    graph: PreferenceGraph,
    touched: Vec<ItemId>,
    /// The shape the warm pass writes its entries with: the edited graph's
    /// footprint and the delta's size.
    shape: BenchShape,
}

impl BenchDelta {
    /// Strides through (n / 200).max(1) nodes and halves each one's first
    /// out-edge: exact arithmetic, weights stay in (0, 1], and at most 1%
    /// of nodes change.
    fn seeded(g: &PreferenceGraph, shape: &BenchShape) -> Result<Self, CliError> {
        let n = shape.n;
        let picks = (n / 200).max(1);
        let stride = (n / picks).max(1);
        let mut delta = GraphDelta::new();
        for i in 0..picks {
            let v = ItemId::from_index((i * stride) % n);
            if let Some((target, w)) = g.out_edges(v).next() {
                delta = delta.push(Change::UpsertEdge {
                    source: v,
                    target,
                    weight: w * 0.5,
                });
            }
        }
        if delta.is_empty() {
            return Err(CliError(format!(
                "the bench delta for n={n} D={} found no edges to perturb",
                shape.d
            )));
        }
        let graph = pcover_graph::delta::apply(g, &delta).map_err(CliError::from_display)?;
        Ok(BenchDelta {
            shape: BenchShape {
                memory_bytes: graph.memory_bytes(),
                delta_changes: Some(delta.len()),
                ..*shape
            },
            touched: delta.touched_nodes(g),
            graph,
        })
    }
}

/// One snapshot run: the settings every shape shares, the entries so far,
/// and every gate failure, reported together once the snapshot is written.
struct BenchRun {
    seed: u64,
    repeats: usize,
    /// Where container grids write their `.pcov` files and JSON twins.
    dir: PathBuf,
    entries: Vec<BTreeMap<String, Value>>,
    violations: Vec<String>,
}

impl BenchRun {
    /// One (n, D) shape: load its graph, time every solver × variant ×
    /// budget on it, and follow each `delta` solve with the warm pass.
    /// Gates: `delta` does strictly fewer gain evaluations than `greedy`
    /// at n >= 100, and on container grids every solve is bit-identical to
    /// the same solve on the JSON-loaded graph.
    fn shape(
        &mut self,
        grid: &BenchGrid,
        solvers: &[SolverSpec],
        n: usize,
        d: usize,
    ) -> Result<(), CliError> {
        // `normalized: true` keeps out-weight sums at most 1, so one graph
        // per shape is valid for both IPC and NPC semantics.
        let cfg = GraphGenConfig {
            nodes: n,
            avg_out_degree: d,
            normalized: true,
            seed: self.seed,
            ..GraphGenConfig::default()
        };
        let (g, reference, backend) = if grid.container {
            let (mapped, reference, backend) = self.load_race(&cfg)?;
            (mapped, Some(reference), Some(backend))
        } else {
            let g = generate_graph(&cfg).map_err(CliError::from_display)?;
            (g, None, None)
        };
        let shape = BenchShape::of(&cfg, &g, backend);
        let edit = BenchDelta::seeded(&g, &shape)?;
        // greedy's evaluation counts per (variant, k), the baseline of the
        // delta gate.
        let mut greedy_evals = HashMap::new();
        for &k in grid.budgets {
            for spec in solvers {
                for variant in [Variant::Independent, Variant::Normalized] {
                    let report = min_wall(
                        self.repeats,
                        || spec.solve(variant, &g, k, &mut SolveCtx::default()),
                        |r| &mut r.elapsed,
                    )?;
                    if let Some(reference) = &reference {
                        let in_memory = spec
                            .solve(variant, reference, k, &mut SolveCtx::default())
                            .map_err(CliError::from_display)?;
                        if !report.bit_identical_to(&in_memory) {
                            self.violations.push(format!(
                                "{} on the container-backed graph drifted from the \
                                 in-memory solve on {}",
                                spec.name,
                                shape.at(variant, k)
                            ));
                        }
                    }
                    if spec.name == "greedy" {
                        greedy_evals.insert((variant.name(), k), report.gain_evaluations);
                    }
                    self.entries.push(shape.solved(spec.name, k, &report));
                    if spec.name == "delta" {
                        let baseline = greedy_evals.get(&(variant.name(), k)).copied().unwrap_or(0);
                        if n >= 100 && report.gain_evaluations >= baseline {
                            self.violations.push(format!(
                                "delta did {} gain evaluations vs greedy's {baseline} on {}",
                                report.gain_evaluations,
                                shape.at(variant, k)
                            ));
                        }
                        let state = WarmState::capture_variant(variant, &g, &report.order);
                        self.warm_pass(&edit, spec, variant, k, &state)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The container load path: streams the shape's graph to a `.pcov`
    /// container, derives a JSON twin from it (so both loads read the same
    /// graph bits), and races their cold loads — full parse and validation
    /// for JSON against checksums plus mmap or pread for the container —
    /// as `load-json` / `load-container` entries. Gate: the container loads
    /// at least 10x faster at n >= 10^5. Returns the mapped graph, the
    /// JSON-loaded reference and the container backend's name.
    fn load_race(
        &mut self,
        cfg: &GraphGenConfig,
    ) -> Result<(PreferenceGraph, PreferenceGraph, &'static str), CliError> {
        use pcover_store::{read_graph_auto, OpenMode};

        let (n, d) = (cfg.nodes, cfg.avg_out_degree);
        std::fs::create_dir_all(&self.dir).map_err(CliError::from_display)?;
        let cpath = self.dir.join(format!("bench-{n}.pcov"));
        let jpath = self.dir.join(format!("bench-{n}.json"));
        generate_graph_container(cfg, &cpath).map_err(CliError::from_display)?;
        let (owned, _) =
            read_graph_auto(&cpath, OpenMode::Pread).map_err(CliError::from_display)?;
        graph_json::write_json(&owned, &jpath).map_err(CliError::from_display)?;
        drop(owned);

        let (reference, json_wall) = min_wall(
            self.repeats,
            || {
                let t = Instant::now();
                graph_json::read_json(&jpath, &LoadOptions::default()).map(|g| (g, t.elapsed()))
            },
            |(_, wall)| wall,
        )?;
        let (mapped, backend, container_wall) = min_wall(
            self.repeats,
            || {
                let t = Instant::now();
                read_graph_auto(&cpath, OpenMode::Auto).map(|(g, how)| (g, how, t.elapsed()))
            },
            |(_, _, wall)| wall,
        )?;
        let json_ms = json_wall.as_secs_f64() * 1e3;
        let container_ms = container_wall.as_secs_f64() * 1e3;
        let speedup = json_ms / container_ms;
        if n >= 100_000 && speedup < 10.0 {
            self.violations.push(format!(
                "container cold-load was only {speedup:.1}x faster than JSON \
                 ({container_ms:.1} ms vs {json_ms:.1} ms) on n={n} D={d}; need >= 10x"
            ));
        }
        let shape = BenchShape::of(cfg, &reference, Some("serde"));
        self.entries
            .push(shape.entry("load-json", "n/a", 0, json_wall, 0, 0.0));
        let shape = BenchShape {
            backend: Some(backend),
            ..shape
        };
        let mut entry = shape.entry("load-container", "n/a", 0, container_wall, 0, 0.0);
        entry.insert("speedup_vs_json".into(), json!(speedup));
        self.entries.push(entry);
        Ok((mapped, reference, backend))
    }

    /// The warm pass after a `delta` solve: times a cold `delta` re-solve of
    /// the edited graph against a warm repair from `state` (captured from
    /// that solve) as `delta-cold` / `delta-warm` entries. Gates: the
    /// repair is bit-identical to the cold re-solve and, at n >= 1000,
    /// evaluates strictly fewer gains.
    fn warm_pass(
        &mut self,
        edit: &BenchDelta,
        spec: &SolverSpec,
        variant: Variant,
        k: usize,
        state: &WarmState,
    ) -> Result<(), CliError> {
        let g = &edit.graph;
        let cold = min_wall(
            self.repeats,
            || spec.solve(variant, g, k, &mut SolveCtx::default()),
            |r| &mut r.elapsed,
        )?;
        let warm = min_wall(
            self.repeats,
            || {
                spec.solve_warm(
                    variant,
                    g,
                    k,
                    &edit.touched,
                    state,
                    &mut SolveCtx::default(),
                )
            },
            |w| &mut w.report.elapsed,
        )?;
        let shape = &edit.shape;
        if !warm.report.bit_identical_to(&cold) {
            self.violations.push(format!(
                "warm re-solve drifted from the cold solve on {}",
                shape.at(variant, k)
            ));
        }
        if shape.n >= 1_000 && warm.report.gain_evaluations >= cold.gain_evaluations {
            self.violations.push(format!(
                "warm re-solve did {} gain evaluations vs cold's {} after a \
                 {}-change delta on {}",
                warm.report.gain_evaluations,
                cold.gain_evaluations,
                shape.delta_changes.unwrap_or(0),
                shape.at(variant, k)
            ));
        }
        self.entries.push(shape.solved("delta-cold", k, &cold));
        let mut entry = shape.solved("delta-warm", k, &warm.report);
        entry.insert("rounds_reused".into(), json!(warm.rounds_reused));
        entry.insert("rounds_repaired".into(), json!(warm.rounds_repaired));
        self.entries.push(entry);
        Ok(())
    }
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
        for algo in ["stochastic", "sieve", "local-search"] {
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
        // including the fixture. A deleted solver's name is as unknown as
        // any other.
        for unknown in ["nope", "partitioned"] {
            let err = solve(unknown).unwrap_err().to_string();
            assert!(err.contains("unknown algorithm"), "{err}");
            assert!(err.contains("fixture-greedy"), "{err}");
            assert!(err.contains("lazy"), "{err}");
        }
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

    /// Runs `bench-snapshot --grid small` into the temp file `name`; returns
    /// the command's message, the output path and the snapshot's entries.
    fn small_grid_snapshot(name: &str) -> (String, String, Vec<serde_json::Value>) {
        let out = tmp(name);
        let msg = run_tokens(&["bench-snapshot", "--grid", "small", "--out", &out]).unwrap();
        let parsed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            parsed.get("schema").unwrap().as_str().unwrap(),
            BENCH_SCHEMA
        );
        let entries = parsed.get("entries").unwrap().as_array().unwrap().clone();
        // 4 solvers x 2 variants x 1 shape x 2 budgets, plus
        // 2 variants x 2 budgets x (delta-cold, delta-warm).
        assert_eq!(entries.len(), 24);
        (msg, out, entries)
    }

    fn field(e: &serde_json::Value, key: &str) -> serde_json::Value {
        e.get(key).unwrap().clone()
    }

    fn find_entry<'a>(
        entries: &'a [serde_json::Value],
        solver: &str,
        variant: &str,
        k: u64,
    ) -> &'a serde_json::Value {
        entries
            .iter()
            .find(|e| {
                field(e, "solver").as_str() == Some(solver)
                    && field(e, "variant").as_str() == Some(variant)
                    && field(e, "k").as_u64() == Some(k)
            })
            .unwrap_or_else(|| panic!("missing entry {solver}/{variant}/k={k}"))
    }

    fn evals(e: &serde_json::Value) -> u64 {
        field(e, "gain_evaluations").as_u64().unwrap()
    }

    #[test]
    fn bench_snapshot_writes_stable_schema_and_enforces_delta_wins() {
        let (msg, out, entries) = small_grid_snapshot("bench-snapshot.json");
        assert!(msg.contains(&out), "{msg}");
        for variant in ["independent", "normalized"] {
            for k in [8, 32] {
                assert!(
                    evals(find_entry(&entries, "delta", variant, k))
                        < evals(find_entry(&entries, "greedy", variant, k)),
                    "{variant} k={k}: delta must evaluate strictly fewer gains"
                );
            }
        }
        for e in &entries {
            assert!(field(e, "wall_ms").as_f64().unwrap() >= 0.0);
            assert!(field(e, "memory_bytes").as_u64().unwrap() > 0);
            assert!(field(e, "cover").as_f64().unwrap() > 0.0);
        }

        assert!(run_tokens(&["bench-snapshot", "--grid", "bogus", "--out", &out]).is_err());
        assert!(run_tokens(&["bench-snapshot", "--repeats", "0", "--out", &out]).is_err());
    }

    #[test]
    fn bench_snapshot_warm_mode_records_bit_identical_cheaper_repairs() {
        // The warm pass runs on every grid, so a plain small-grid run
        // carries the delta-cold / delta-warm rows.
        let (msg, _, entries) = small_grid_snapshot("bench-snapshot-warm.json");
        assert!(msg.contains("warm-vs-cold"), "{msg}");
        for variant in ["independent", "normalized"] {
            for k in [8, 32] {
                let cold = find_entry(&entries, "delta-cold", variant, k);
                let warm = find_entry(&entries, "delta-warm", variant, k);
                // Bit-identical answers: identical JSON-printed covers.
                assert_eq!(
                    field(cold, "cover").to_string(),
                    field(warm, "cover").to_string(),
                    "{variant} k={k}: warm cover must match cold byte-for-byte"
                );
                // Strictly fewer evaluations even at small n (the hard gate
                // is n >= 1000, but a <=1% edge delta wins at n=200 too).
                assert!(
                    evals(warm) < evals(cold),
                    "{variant} k={k}: warm repair must re-evaluate fewer gains"
                );
                let reused = field(warm, "rounds_reused").as_u64().unwrap();
                let repaired = field(warm, "rounds_repaired").as_u64().unwrap();
                assert_eq!(reused + repaired, k, "round accounting partitions k");
                assert!(field(warm, "delta_changes").as_u64().unwrap() >= 1);
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
