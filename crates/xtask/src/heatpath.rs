//! Hot-path allocation analysis: heap discipline on the solver and serve
//! hot regions.
//!
//! Built on the same token stream, [`crate::ast`] item index, and
//! conservative [`crate::callgraph`] as the panic and concurrency passes.
//! The paper's greedy family spends its entire budget inside a per-round
//! gain loop, and the serve layer answers every request from a worker
//! thread — a stray `collect()` or `format!` in either place turns into
//! megabytes of allocator traffic per solve. This pass computes **hot
//! regions** by forward reachability from a declared set of entry points
//! and derives four audit rules inside them:
//!
//! * `alloc-in-hot-loop` — a heap allocation or copy (`Vec`/`String`/
//!   `Box`/`Arc` construction, `collect`, `to_vec`, `clone`, `format!`,
//!   `vec!`) inside a loop body of a hot solver function, or anywhere in a
//!   function that is *called from* such a loop (it then allocates on
//!   every iteration). Buffers must be hoisted out of the loop and reused.
//! * `alloc-per-request` — a fresh `Vec`/`String` construction (or
//!   `format!`/`vec!`) on the serve request path, i.e. in a serve-crate
//!   function reachable from the per-request `worker_loop`. Response and
//!   parse buffers must come from per-worker scratch that lives across
//!   requests.
//! * `copy-in-kernel` — `to_vec`/`clone` inside the gain/cover kernel
//!   files ([`KERNEL_FILES`]); the kernels are written to operate on
//!   borrowed slices and must never copy.
//! * `growable-unreserved` — a loop-fed `Vec::push`/`String::push_str`
//!   whose binding is built with `Vec::new()`/`String::new()` and never
//!   `reserve`d before the loop; growth doubling inside a hot loop is
//!   hidden repeated allocation.
//!
//! ## Hot entry points
//!
//! The hot set is seeded from three places and closed over the call graph
//! with the same crate-tightened resolution as [`crate::lockgraph`] (the
//! raw whole-workspace method aliasing would make half the workspace
//! "hot" and drown the rules):
//!
//! 1. every solver module's solve-family functions (the registry's
//!    dispatch surface plus their `_with`/`_impl` internals) — each
//!    contains or drives the per-round selection loop;
//! 2. the serve crate's `worker_loop` — everything it reaches runs once
//!    per request;
//! 3. every function in the kernel files — `CoverState::gain`/`add_node`
//!    and the float helpers are the innermost loops of the whole system.
//!
//! Diagnostics carry shortest-chain provenance in the established style:
//! the chain from the entry point to the offending function, and for the
//! interprocedural loop rule also the loop's own `file:line`.
//!
//! All four rules are waivable (`// lint: allow(<rule>) — reason`) at the
//! reported allocation/copy/push line. The serve request path deliberately
//! does **not** flag `.to_string()`/`.collect()` or `json!` bodies:
//! endpoint JSON is built once per response by design, and the rule's
//! target is the buffers that *can* be reused (heads, parse scratch),
//! not the payload itself.

use std::collections::HashMap;

use crate::ast::{self, FnInfo, LoopScope};
use crate::callgraph::{CallGraph, FileInput};
use crate::lexer::{Tok, TokKind};
use crate::rules::{Violation, KEYWORDS};

/// Files whose every function is a hot kernel (`copy-in-kernel` scope).
pub const KERNEL_FILES: [&str; 3] = [
    "crates/core/src/cover.rs",
    "crates/core/src/float.rs",
    "crates/graph/src/float.rs",
];

/// Solve-family function names that seed the hot set when they live in a
/// solver module: the registry dispatch surface ([`DISPATCH_FNS`]'s names)
/// plus the `_with`/`_impl` internals the specs delegate to.
const HOT_SOLVER_FNS: [&str; 10] = [
    "solve",
    "solve_with",
    "solve_impl",
    "refine",
    "top_k_weight",
    "top_k_coverage",
    "random",
    "random_best_of",
    "solve_low_memory_normalized",
    "solve_until",
];

/// The serve-crate function whose reachability set is the request path.
const REQUEST_ENTRY: &str = "worker_loop";

/// Types whose `::new`/`::with_capacity`/`::from` paths construct heap
/// storage.
const ALLOC_TYPES: [&str; 4] = ["Vec", "String", "Box", "Arc"];

/// Whether `ty::ctor` heap-allocates at the call. `Vec::new()` and
/// `String::new()` are deliberately absent: they are zero-capacity and
/// allocation happens at the first push — which is `growable-unreserved`'s
/// finding, with the loop that feeds it as the anchor. `Box`/`Arc` always
/// allocate.
fn is_alloc_ctor(ty: &str, ctor: &str) -> bool {
    match ty {
        "Vec" | "String" => matches!(ctor, "with_capacity" | "from"),
        "Box" | "Arc" => matches!(ctor, "new" | "from"),
        _ => false,
    }
}

/// Method calls that allocate a fresh buffer or copy one.
const ALLOC_METHODS: [&str; 3] = ["collect", "to_vec", "clone"];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Names never fed to call resolution: allocation/copy methods are
/// matched structurally, and resolving them by bare name would alias
/// every workspace `clone`/`push` into the hot set.
fn skip_resolution(name: &str) -> bool {
    ALLOC_METHODS.contains(&name)
        || matches!(
            name,
            "push" | "push_str" | "insert" | "reserve" | "drop" | "clear" | "len" | "extend"
        )
}

/// One allocation/copy event found in a function body.
struct AllocEvent {
    /// Token index of the triggering ident.
    tok: usize,
    /// 1-based line (violations anchor here).
    line: u32,
    /// Display form for the message: `Vec::with_capacity`, `collect`,
    /// `format!`.
    what: String,
    /// `to_vec`/`clone` copies (the `copy-in-kernel` subset).
    is_copy: bool,
    /// `Vec`/`String` construction or an alloc macro (the
    /// `alloc-per-request` subset).
    is_fresh_buffer: bool,
}

/// Shortest-path provenance toward a hot entry (for the hot set) or
/// toward the in-loop call site (for the loop-hot set).
#[derive(Clone)]
struct Reach {
    depth: u32,
    /// Predecessor node toward the seed; `None` at the seed itself.
    via: Option<usize>,
}

/// Provenance of a loop-hot seed: which hot function's loop calls it.
#[derive(Clone)]
struct LoopSeed {
    /// The hot function whose loop makes the callee loop-hot.
    caller: usize,
    /// `file:line` of the loop header in that caller.
    loop_file: String,
    loop_line: u32,
}

/// Runs the hot-path allocation pass and returns unwaived-rule findings
/// for the four heatpath rules.
pub fn analyze(files: &[FileInput<'_>], graph: &CallGraph) -> Vec<Violation> {
    let mut node_of: HashMap<(&str, u32, &str), usize> = HashMap::new();
    for (ni, n) in graph.nodes.iter().enumerate() {
        node_of.insert((n.file.as_str(), n.line, n.name.as_str()), ni);
    }
    let mut by_crate_name: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (ni, n) in graph.nodes.iter().enumerate() {
        by_crate_name
            .entry((n.crate_key.as_str(), n.name.as_str()))
            .or_default()
            .push(ni);
        if n.qual.is_some() {
            methods_by_name.entry(n.name.as_str()).or_default().push(ni);
        }
    }

    // Function contexts: every non-test fn with a body in a crate src tree.
    let mut fn_ctxs: Vec<FnCtx<'_>> = Vec::new();
    for f in files {
        let Some(ck) = crate::callgraph::crate_key(f.rel) else {
            continue;
        };
        for (ai, func) in f.ast.fns.iter().enumerate() {
            if func.in_test || func.body.is_none() {
                continue;
            }
            let excluded = nested_ranges(f.ast.fns.as_slice(), ai);
            let loops = func
                .body
                .map(|b| ast::loop_scopes(f.tokens, b))
                .unwrap_or_default();
            fn_ctxs.push(FnCtx {
                file: f,
                func,
                crate_key: ck.clone(),
                excluded,
                loops,
                node: node_of
                    .get(&(f.rel, func.line, func.name.as_str()))
                    .copied(),
            });
        }
    }

    // Call edges with their token position (loop membership matters),
    // resolved with the crate-tightened rules.
    let n = graph.nodes.len();
    let mut calls: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (callee, tok)
    let mut ctx_of_node: Vec<Option<usize>> = vec![None; n];
    for (ci, ctx) in fn_ctxs.iter().enumerate() {
        let Some(ni) = ctx.node else { continue };
        ctx_of_node[ni] = Some(ci);
        let Some((open, close)) = ctx.func.body else {
            continue;
        };
        let tokens = ctx.file.tokens;
        for j in open + 1..close.min(tokens.len()) {
            if ctx.excluded.iter().any(|&(a, b)| j >= a && j <= b) {
                continue;
            }
            let t = &tokens[j];
            if t.kind != TokKind::Ident
                || !is_call_shape(tokens, j)
                || skip_resolution(&t.text)
                || KEYWORDS.contains(&t.text.as_str())
            {
                continue;
            }
            for m in resolve_call(ctx, j, graph, &by_crate_name, &methods_by_name) {
                calls[ni].push((m, j));
            }
        }
    }

    // Hot set: forward BFS from the entries with predecessor provenance.
    let mut hot: Vec<Option<Reach>> = vec![None; n];
    let mut queue: Vec<usize> = Vec::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if is_hot_entry(node) {
            hot[ni] = Some(Reach {
                depth: 0,
                via: None,
            });
            queue.push(ni);
        }
    }
    let mut qi = 0;
    while qi < queue.len() {
        let u = queue[qi];
        qi += 1;
        let d = hot[u].as_ref().map_or(0, |r| r.depth);
        for &(v, _) in &calls[u] {
            if hot[v].is_none() {
                hot[v] = Some(Reach {
                    depth: d + 1,
                    via: Some(u),
                });
                queue.push(v);
            }
        }
    }

    // Request path: forward BFS from `worker_loop` (serve crate only —
    // cross-crate reachability re-enters the solver hot set, which the
    // loop rule already owns).
    let mut request: Vec<Option<Reach>> = vec![None; n];
    let mut queue: Vec<usize> = Vec::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if node.crate_key == "serve" && node.name == REQUEST_ENTRY {
            request[ni] = Some(Reach {
                depth: 0,
                via: None,
            });
            queue.push(ni);
        }
    }
    let mut qi = 0;
    while qi < queue.len() {
        let u = queue[qi];
        qi += 1;
        let d = request[u].as_ref().map_or(0, |r| r.depth);
        for &(v, _) in &calls[u] {
            if request[v].is_none() && graph.nodes[v].crate_key == "serve" {
                request[v] = Some(Reach {
                    depth: d + 1,
                    via: Some(u),
                });
                queue.push(v);
            }
        }
    }

    // Loop-hot set: functions called (transitively) from inside a loop of
    // a hot non-serve function — everything they allocate happens once
    // per iteration. Seeds carry the loop's location for the diagnostic.
    let mut loop_hot: Vec<Option<(Reach, usize)>> = vec![None; n]; // (reach, seed idx)
    let mut seeds: Vec<LoopSeed> = Vec::new();
    let mut queue: Vec<usize> = Vec::new();
    for ctx in &fn_ctxs {
        let Some(ni) = ctx.node else { continue };
        if hot[ni].is_none() || ctx.crate_key == "serve" || ctx.loops.is_empty() {
            continue;
        }
        for &(v, tok) in &calls[ni] {
            let Some(scope) = ast::innermost_loop(&ctx.loops, tok) else {
                continue;
            };
            if loop_hot[v].is_none() {
                seeds.push(LoopSeed {
                    caller: ni,
                    loop_file: ctx.file.rel.to_string(),
                    loop_line: scope.line,
                });
                loop_hot[v] = Some((
                    Reach {
                        depth: 0,
                        via: None,
                    },
                    seeds.len() - 1,
                ));
                queue.push(v);
            }
        }
    }
    let mut qi = 0;
    while qi < queue.len() {
        let u = queue[qi];
        qi += 1;
        let (d, seed) = loop_hot[u].as_ref().map_or((0, 0), |(r, s)| (r.depth, *s));
        for &(v, _) in &calls[u] {
            if loop_hot[v].is_none() && graph.nodes[v].crate_key != "serve" {
                loop_hot[v] = Some((
                    Reach {
                        depth: d + 1,
                        via: Some(u),
                    },
                    seed,
                ));
                queue.push(v);
            }
        }
    }

    // Body scans: map allocation events to rules.
    let mut out: Vec<Violation> = Vec::new();
    for ctx in &fn_ctxs {
        let Some(ni) = ctx.node else { continue };
        let is_kernel = KERNEL_FILES.contains(&ctx.file.rel);
        let is_serve = ctx.crate_key == "serve";
        let holder = graph.nodes[ni].display();
        let events = alloc_events(ctx);

        for ev in &events {
            // Kernel copies are the kernel rule's finding, never the
            // generic loop rule's — one diagnostic per site.
            if is_kernel && ev.is_copy {
                out.push(Violation {
                    rule: "copy-in-kernel",
                    file: ctx.file.rel.to_string(),
                    line: ev.line,
                    message: format!(
                        "`{}` copies inside kernel fn `{holder}` ({} is a gain/cover kernel); kernels operate on borrowed slices and must never copy",
                        ev.what, ctx.file.rel
                    ),
                });
                continue;
            }
            if is_serve {
                if ev.is_fresh_buffer && request[ni].is_some() {
                    out.push(Violation {
                        rule: "alloc-per-request",
                        file: ctx.file.rel.to_string(),
                        line: ev.line,
                        message: format!(
                            "`{}` allocates per request in `{holder}` (request path: {}); serve from a per-worker scratch buffer that lives across requests",
                            ev.what,
                            chain_to(graph, &request, ni),
                        ),
                    });
                }
                continue;
            }
            if hot[ni].is_some() {
                if let Some(scope) = ast::innermost_loop(&ctx.loops, ev.tok) {
                    out.push(Violation {
                        rule: "alloc-in-hot-loop",
                        file: ctx.file.rel.to_string(),
                        line: ev.line,
                        message: format!(
                            "`{}` allocates inside the hot loop at line {} in `{holder}` (hot via {}); hoist the buffer out of the loop and reuse it",
                            ev.what,
                            scope.line,
                            chain_to(graph, &hot, ni),
                        ),
                    });
                    continue;
                }
            }
            if let Some((_, seed_idx)) = &loop_hot[ni] {
                let seed = &seeds[*seed_idx];
                out.push(Violation {
                    rule: "alloc-in-hot-loop",
                    file: ctx.file.rel.to_string(),
                    line: ev.line,
                    message: format!(
                        "`{}` in `{holder}` allocates on every iteration of the hot loop at {}:{} ({}); hoist the buffer to the caller or reuse scratch",
                        ev.what,
                        seed.loop_file,
                        seed.loop_line,
                        loop_chain(graph, &hot, &loop_hot, seed, ni),
                    ),
                });
            }
        }

        // Loop-fed growable buffers with no capacity reservation, in any
        // hot-region function (solver hot set or serve request path).
        if hot[ni].is_some() || request[ni].is_some() {
            growable_findings(ctx, &holder, &mut out);
        }
    }

    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    out
}

/// Everything needed to scan one function body.
struct FnCtx<'a> {
    file: &'a FileInput<'a>,
    func: &'a FnInfo,
    crate_key: String,
    /// Token ranges of nested fns (excluded from this fn's scans).
    excluded: Vec<(usize, usize)>,
    loops: Vec<LoopScope>,
    node: Option<usize>,
}

/// Whether a call-graph node is a declared hot entry point.
fn is_hot_entry(node: &crate::callgraph::FnNode) -> bool {
    if KERNEL_FILES.contains(&node.file.as_str()) {
        return true;
    }
    node.crate_key == "core"
        && HOT_SOLVER_FNS.contains(&node.name.as_str())
        && node
            .module
            .iter()
            .any(|m| crate::audit_rules::DISPATCH_MODULES.contains(&m.as_str()))
}

/// Token ranges (inclusive) of fns nested inside `fns[ai]`'s body.
fn nested_ranges(fns: &[FnInfo], ai: usize) -> Vec<(usize, usize)> {
    let Some((open, close)) = fns[ai].body else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (bi, other) in fns.iter().enumerate() {
        if bi == ai {
            continue;
        }
        if let Some((o, c)) = other.body {
            if o > open && c < close {
                out.push((other.sig.0, c));
            }
        }
    }
    out
}

/// True when ident `j` heads a call: `name(`, `name::<T>(`.
fn is_call_shape(tokens: &[Tok], j: usize) -> bool {
    match tokens.get(j + 1).map(|t| t.text.as_str()) {
        Some("(") => true,
        Some("::") if tokens.get(j + 2).is_some_and(|t| t.text == "<") => {
            let mut angle = 1i64;
            let mut k = j + 3;
            while k < tokens.len() && angle > 0 {
                match tokens[k].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    _ => {}
                }
                k += 1;
            }
            tokens.get(k).is_some_and(|t| t.text == "(")
        }
        _ => false,
    }
}

/// Resolves the call at ident `j` to workspace nodes — the call graph's
/// conservative rules tightened for hot-set tracking: method aliasing
/// stays within the caller's crate (whole-workspace `.len()` smearing
/// would make half the workspace hot), and the caller itself is excluded.
fn resolve_call(
    ctx: &FnCtx<'_>,
    j: usize,
    graph: &CallGraph,
    by_crate_name: &HashMap<(&str, &str), Vec<usize>>,
    methods_by_name: &HashMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let tokens = ctx.file.tokens;
    let name = tokens[j].text.as_str();
    let is_method = j > 0 && tokens[j - 1].text == ".";
    let mut targets: Vec<usize> = Vec::new();
    if is_method {
        if let Some(cands) = methods_by_name.get(name) {
            targets.extend(
                cands
                    .iter()
                    .copied()
                    .filter(|&i| graph.nodes[i].crate_key == ctx.crate_key),
            );
        }
    } else {
        let mut quals: Vec<&str> = Vec::new();
        let mut k = j;
        while k >= 2 && tokens[k - 1].text == "::" && tokens[k - 2].kind == TokKind::Ident {
            quals.push(tokens[k - 2].text.as_str());
            k -= 2;
        }
        let target_crate = quals
            .iter()
            .find_map(|q| q.strip_prefix("pcover_"))
            .unwrap_or(ctx.crate_key.as_str());
        let Some(cands) = by_crate_name.get(&(target_crate, name)) else {
            return targets;
        };
        let hint = quals
            .iter()
            .find(|q| !matches!(**q, "crate" | "self" | "super") && !q.starts_with("pcover_"));
        if let Some(hint) = hint {
            // A qualifier that matches no workspace type or module names a
            // foreign type (`Vec::new`, `HashMap::from`): resolving its
            // common-named method to every same-named workspace fn would
            // manufacture hot paths, so an unmatched hint resolves to
            // nothing. (The lock pass falls back to all candidates there —
            // over-approximation is conservative for lock ordering but
            // anti-conservative for hotness.)
            targets.extend(cands.iter().copied().filter(|&i| {
                graph.nodes[i].qual.as_deref() == Some(*hint)
                    || graph.nodes[i].module.iter().any(|m| m == hint)
            }));
        } else {
            targets.extend(cands.iter().copied());
        }
    }
    if let Some(own) = ctx.node {
        targets.retain(|&t| t != own);
    }
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// All allocation/copy events in a fn body, outside nested-fn ranges.
fn alloc_events(ctx: &FnCtx<'_>) -> Vec<AllocEvent> {
    let Some((open, close)) = ctx.func.body else {
        return Vec::new();
    };
    let tokens = ctx.file.tokens;
    let mut out = Vec::new();
    for j in open + 1..close.min(tokens.len()) {
        if ctx.excluded.iter().any(|&(a, b)| j >= a && j <= b) {
            continue;
        }
        let t = &tokens[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        // `Vec::with_capacity(..)` — an ALLOC_TYPES path to a ctor.
        if ALLOC_TYPES.contains(&name) && tokens.get(j + 1).is_some_and(|n| n.text == "::") {
            // Skip an optional turbofish: `Vec::<u8>::with_capacity`.
            let mut k = j + 2;
            if tokens.get(k).is_some_and(|n| n.text == "<") {
                let mut angle = 1i64;
                k += 1;
                while k < tokens.len() && angle > 0 {
                    match tokens[k].text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                if tokens.get(k).is_none_or(|n| n.text != "::") {
                    continue;
                }
                k += 1;
            }
            let is_ctor = tokens.get(k).is_some_and(|n| is_alloc_ctor(name, &n.text))
                && tokens.get(k + 1).is_some_and(|n| n.text == "(");
            if is_ctor {
                out.push(AllocEvent {
                    tok: j,
                    line: t.line,
                    what: format!("{name}::{}", tokens[k].text),
                    is_copy: false,
                    is_fresh_buffer: matches!(name, "Vec" | "String"),
                });
            }
            continue;
        }
        // `.collect(..)` / `.to_vec()` / `.clone()` method calls.
        if ALLOC_METHODS.contains(&name)
            && j > 0
            && tokens[j - 1].text == "."
            && is_call_shape(tokens, j)
        {
            out.push(AllocEvent {
                tok: j,
                line: t.line,
                what: name.to_string(),
                is_copy: matches!(name, "to_vec" | "clone"),
                is_fresh_buffer: false,
            });
            continue;
        }
        // `format!(..)` / `vec![..]` macros. A `format!` inside an error
        // constructor (`return Err(.. format!(..))`, `.map_err(|_| ..)`,
        // `.ok_or_else(|| ..)`) never runs on the happy path — flagging
        // cold diagnostics would drown the rules, so those are skipped.
        if ALLOC_MACROS.contains(&name) && tokens.get(j + 1).is_some_and(|n| n.text == "!") {
            if name == "format" {
                let back = j.saturating_sub(12);
                let cold = tokens[back..j].iter().any(|t| {
                    t.kind == TokKind::Ident
                        && matches!(
                            t.text.as_str(),
                            "Err" | "map_err" | "ok_or" | "ok_or_else" | "unwrap_or_else"
                        )
                });
                if cold {
                    continue;
                }
            }
            out.push(AllocEvent {
                tok: j,
                line: t.line,
                what: format!("{name}!"),
                is_copy: false,
                is_fresh_buffer: true,
            });
        }
    }
    out
}

/// Loop-fed `push`/`push_str` on a binding built with `Vec::new()`/
/// `String::new()` and never `reserve`d before the loop.
fn growable_findings(ctx: &FnCtx<'_>, holder: &str, out: &mut Vec<Violation>) {
    let Some((body_open, _)) = ctx.func.body else {
        return;
    };
    let tokens = ctx.file.tokens;
    for scope in &ctx.loops {
        for j in scope.open + 1..scope.close.min(tokens.len()) {
            if ctx.excluded.iter().any(|&(a, b)| j >= a && j <= b) {
                continue;
            }
            let t = &tokens[j];
            if t.kind != TokKind::Ident
                || !matches!(t.text.as_str(), "push" | "push_str")
                || j < 2
                || tokens[j - 1].text != "."
                || tokens.get(j + 1).is_none_or(|n| n.text != "(")
            {
                continue;
            }
            // Plain single-ident receiver only: `out.push(..)`. Field and
            // chained receivers (`self.buf.push`) have lifetimes the local
            // scan cannot see.
            let recv = &tokens[j - 2];
            if recv.kind != TokKind::Ident
                || recv.text == "self"
                || (j >= 3 && tokens[j - 3].text == ".")
            {
                continue;
            }
            let Some((ty, init_line)) =
                growable_unreserved_init(tokens, body_open, scope.header, &recv.text)
            else {
                continue;
            };
            out.push(Violation {
                rule: "growable-unreserved",
                file: ctx.file.rel.to_string(),
                line: t.line,
                message: format!(
                    "loop-fed `{}.{}(..)` in `{holder}` grows from `{ty}::new()` (line {init_line}) with no `with_capacity`/`reserve`; pre-size the buffer before the loop",
                    recv.text, t.text
                ),
            });
        }
    }
}

/// When `name` is `let`-bound to a bare `Vec::new()`/`String::new()`
/// before token `before` and never `reserve`d in between, returns the
/// type name and the init line. `with_capacity` inits, re-assignments the
/// scan cannot prove, and any `name.reserve*(..)` call clear the finding.
fn growable_unreserved_init(
    tokens: &[Tok],
    body_open: usize,
    before: usize,
    name: &str,
) -> Option<(String, u32)> {
    let mut init: Option<(String, u32)> = None;
    let mut i = body_open + 1;
    while i < before {
        let t = &tokens[i];
        if t.kind == TokKind::Ident && t.text == name {
            // `name . reserve (` / `reserve_exact` — capacity is managed.
            if tokens.get(i + 1).is_some_and(|n| n.text == ".")
                && tokens
                    .get(i + 2)
                    .is_some_and(|n| n.text.starts_with("reserve"))
            {
                return None;
            }
            // `let [mut] name = <init>` — classify the initializer.
            let is_let = (i >= 1 && tokens[i - 1].text == "let")
                || (i >= 2 && tokens[i - 1].text == "mut" && tokens[i - 2].text == "let");
            if is_let && tokens.get(i + 1).is_some_and(|n| n.text == "=") {
                let ty = &tokens[i + 2];
                let bare_new = ty.kind == TokKind::Ident
                    && matches!(ty.text.as_str(), "Vec" | "String")
                    && tokens.get(i + 3).is_some_and(|n| n.text == "::")
                    && tokens.get(i + 4).is_some_and(|n| n.text == "new")
                    && tokens.get(i + 5).is_some_and(|n| n.text == "(")
                    && tokens.get(i + 6).is_some_and(|n| n.text == ")");
                init = bare_new.then(|| (ty.text.clone(), t.line));
            }
        }
        i += 1;
    }
    init
}

/// `entry -> mid -> fn` chain from the nearest seed of `reach` to `ni`.
fn chain_to(graph: &CallGraph, reach: &[Option<Reach>], ni: usize) -> String {
    let mut names = vec![format!("`{}`", graph.nodes[ni].display())];
    let mut cur = ni;
    while let Some(r) = &reach[cur] {
        match r.via {
            Some(v) => {
                names.push(format!("`{}`", graph.nodes[v].display()));
                cur = v;
            }
            None => break,
        }
    }
    names.reverse();
    names.join(" -> ")
}

/// Full chain for a loop-hot finding: the hot chain of the looping
/// caller, then the call chain from its loop down to `ni`.
fn loop_chain(
    graph: &CallGraph,
    hot: &[Option<Reach>],
    loop_hot: &[Option<(Reach, usize)>],
    seed: &LoopSeed,
    ni: usize,
) -> String {
    let mut tail = vec![format!("`{}`", graph.nodes[ni].display())];
    let mut cur = ni;
    while let Some((r, _)) = &loop_hot[cur] {
        match r.via {
            Some(v) => {
                tail.push(format!("`{}`", graph.nodes[v].display()));
                cur = v;
            }
            None => break,
        }
    }
    tail.reverse();
    format!(
        "called via {} -> {}",
        chain_to(graph, hot, seed.caller),
        tail.join(" -> ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;
    use crate::lexer::lex;

    /// Runs the pass over a set of (path, src) files.
    fn analyze_files(files: &[(&str, &str)]) -> Vec<Violation> {
        let lexed: Vec<_> = files.iter().map(|(_, src)| lex(src)).collect();
        let asts: Vec<_> = lexed.iter().map(|l| ast::parse(&l.tokens)).collect();
        let inputs: Vec<FileInput<'_>> = files
            .iter()
            .zip(lexed.iter())
            .zip(asts.iter())
            .map(|(((rel, _), l), a)| FileInput {
                rel,
                tokens: &l.tokens,
                ast: a,
                panic_sites: Vec::new(),
            })
            .collect();
        let graph = crate::callgraph::build(&inputs);
        analyze(&inputs, &graph)
    }

    fn analyze_src(rel: &str, src: &str) -> Vec<Violation> {
        analyze_files(&[(rel, src)])
    }

    #[test]
    fn collect_in_solver_round_loop_fires() {
        let src = "pub fn solve_with(g: &G, k: usize) -> R {\n\
                   let mut order = Vec::with_capacity(k);\n\
                   for _ in 0..k {\n\
                   let slices: Vec<u32> = g.items().collect();\n\
                   order.push(pick(&slices));\n\
                   }\n\
                   order\n\
                   }\n";
        let out = analyze_src("crates/core/src/greedy.rs", src);
        let rules: Vec<_> = out.iter().map(|v| v.rule).collect();
        assert_eq!(rules, ["alloc-in-hot-loop"], "{out:?}");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("hot loop at line 3"));
        assert!(out[0].message.contains("greedy::solve_with"));
        // with_capacity outside the loop, and the reserved push, are fine.
    }

    #[test]
    fn callee_allocating_inside_a_hot_loop_fires_with_chain() {
        let src = "pub fn solve_with(g: &G, k: usize) {\n\
                   for _ in 0..k { helper(g); }\n\
                   }\n\
                   fn helper(g: &G) -> String { format!(\"{g:?}\") }\n";
        let out = analyze_src("crates/core/src/lazy.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "alloc-in-hot-loop");
        assert_eq!(out[0].line, 4, "anchored at the format! in the callee");
        assert!(
            out[0]
                .message
                .contains("every iteration of the hot loop at crates/core/src/lazy.rs:2"),
            "{}",
            out[0].message
        );
        assert!(
            out[0]
                .message
                .contains("via `lazy::solve_with` -> `lazy::helper`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn cold_fns_and_cold_crates_stay_silent() {
        // Same body, but neither a solver module nor reachable from one.
        let src = "pub fn render(g: &G, k: usize) {\n\
                   for _ in 0..k { let _ = g.items().collect::<Vec<u32>>(); }\n\
                   }\n";
        assert!(analyze_src("crates/cli/src/commands.rs", src).is_empty());
        assert!(analyze_src("crates/core/src/report.rs", src).is_empty());
    }

    #[test]
    fn copy_in_kernel_fires_on_to_vec_and_clone() {
        let src = "pub fn gain(xs: &[f64]) -> Vec<f64> {\n\
                   let ys = xs.to_vec();\n\
                   ys.clone()\n\
                   }\n";
        let out = analyze_src("crates/core/src/cover.rs", src);
        let rules: Vec<_> = out.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            rules,
            [("copy-in-kernel", 2), ("copy-in-kernel", 3)],
            "{out:?}"
        );
        assert!(out[0].message.contains("`to_vec`"));
        assert!(out[0].message.contains("cover::gain"));
    }

    #[test]
    fn alloc_per_request_fires_on_the_worker_path_with_chain() {
        let src = "fn worker_loop(state: &S) {\n\
                   while let Some(mut c) = state.queue.pop() { handle(&mut c); }\n\
                   }\n\
                   fn handle(c: &mut C) { let head = format!(\"HTTP/1.1 200 OK\"); send(c, &head); }\n\
                   fn send(c: &mut C, s: &str) {}\n";
        let out = analyze_src("crates/serve/src/server.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "alloc-per-request");
        assert_eq!(out[0].line, 4);
        assert!(
            out[0]
                .message
                .contains("request path: `server::worker_loop` -> `server::handle`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn serve_fns_off_the_request_path_stay_silent() {
        // Startup code allocates freely; only worker_loop's cone is hot.
        let src = "pub fn start(cfg: &C) { let banner = format!(\"up\"); log(&banner); }\n\
                   fn log(s: &str) {}\n";
        assert!(analyze_src("crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn keep_alive_connection_loop_fires_on_per_request_alloc_but_not_reuse() {
        // The keep-alive shape: worker_loop hands the stream to a
        // per-connection loop that answers many requests. A fresh buffer
        // per iteration fires; the reused-buffer idiom stays silent.
        let fresh = "fn worker_loop(state: &S) {\n\
                     while let Some(mut c) = state.queue.pop() { handle_connection(state, &mut c); }\n\
                     }\n\
                     fn handle_connection(state: &S, c: &mut C) {\n\
                     loop { let head = String::with_capacity(256); answer(c, &head); }\n\
                     }\n\
                     fn answer(c: &mut C, s: &str) {}\n";
        let out = analyze_src("crates/serve/src/server.rs", fresh);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "alloc-per-request");
        assert!(
            out[0]
                .message
                .contains("`server::worker_loop` -> `server::handle_connection`"),
            "{}",
            out[0].message
        );

        let reused = "fn worker_loop(state: &S) {\n\
                      let mut head = String::new();\n\
                      while let Some(mut c) = state.queue.pop() { handle_connection(&mut c, &mut head); }\n\
                      }\n\
                      fn handle_connection(c: &mut C, head: &mut String) {\n\
                      loop { head.clear(); answer(c, head); }\n\
                      }\n\
                      fn answer(c: &mut C, s: &mut String) {}\n";
        assert!(analyze_src("crates/serve/src/server.rs", reused).is_empty());
    }

    #[test]
    fn coalescing_path_in_a_sibling_module_is_covered_cross_file() {
        // Single-flight lives in its own module; allocations there are
        // still on the request path once a server fn calls into it.
        let server = "fn worker_loop(state: &S) {\n\
                      while let Some(mut c) = state.queue.pop() { cached_solve(state, &mut c); }\n\
                      }\n\
                      fn cached_solve(state: &S, c: &mut C) { begin(state); }\n";
        let flight = "pub fn begin(state: &S) -> String { format!(\"leader\") }\n";
        let out = analyze_files(&[
            ("crates/serve/src/server.rs", server),
            ("crates/serve/src/flight.rs", flight),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "alloc-per-request");
        assert!(
            out[0].message.contains("`flight::begin`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn growable_unreserved_fires_only_without_capacity() {
        let src = "pub fn solve_with(g: &G, k: usize) -> Vec<u32> {\n\
                   let mut order = Vec::new();\n\
                   let mut sized = Vec::with_capacity(k);\n\
                   for i in 0..k {\n\
                   order.push(i);\n\
                   sized.push(i);\n\
                   }\n\
                   order\n\
                   }\n";
        let out = analyze_src("crates/core/src/greedy.rs", src);
        let rules: Vec<_> = out.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(rules, [("growable-unreserved", 5)], "{out:?}");
        assert!(out[0].message.contains("`order.push(..)`"));
        assert!(out[0].message.contains("`Vec::new()` (line 2)"));
    }

    #[test]
    fn reserve_before_the_loop_clears_growable() {
        let src = "pub fn solve_with(g: &G, k: usize) -> Vec<u32> {\n\
                   let mut order = Vec::new();\n\
                   order.reserve(k);\n\
                   for i in 0..k { order.push(i); }\n\
                   order\n\
                   }\n";
        assert!(analyze_src("crates/core/src/greedy.rs", src).is_empty());
    }

    #[test]
    fn field_receivers_are_skipped_by_growable() {
        let src = "pub fn solve_with(s: &mut S, k: usize) {\n\
                   for i in 0..k { s.order.push(i); }\n\
                   }\n";
        assert!(analyze_src("crates/core/src/greedy.rs", src).is_empty());
    }

    #[test]
    fn kernel_fns_seed_the_hot_set() {
        // A loop inside a kernel file is a hot loop even with no solver
        // in sight.
        let src = "pub fn add_node(xs: &[f64]) {\n\
                   for x in xs { let _ = vec![*x]; }\n\
                   }\n";
        let out = analyze_src("crates/graph/src/float.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "alloc-in-hot-loop");
        assert!(out[0].message.contains("`vec!`"));
    }

    #[test]
    fn method_resolution_stays_within_the_callers_crate() {
        // core's hot loop calls `.emit()`; the same-named serve method
        // allocates, but cross-crate method smearing must not drag it in.
        let core = "pub fn solve_with(o: &O, k: usize) {\n\
                    for _ in 0..k { o.emit(); }\n\
                    }\n";
        let serve = "pub struct M;\n\
                     impl M { pub fn emit(&self) -> String { format!(\"x\") } }\n";
        let out = analyze_files(&[
            ("crates/core/src/greedy.rs", core),
            ("crates/serve/src/metrics.rs", serve),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn turbofish_collect_is_detected() {
        let src = "pub fn solve_with(g: &G, k: usize) {\n\
                   for _ in 0..k { let v = g.items().collect::<Vec<u32>>(); use_it(&v); }\n\
                   }\n\
                   fn use_it(v: &[u32]) {}\n";
        let out = analyze_src("crates/core/src/delta.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "alloc-in-hot-loop");
        assert!(out[0].message.contains("`collect`"));
    }
}
