//! Concurrency-safety analysis: guard scopes and the lock-order graph.
//!
//! Built on the same token stream, [`crate::ast`] function map, and
//! conservative [`crate::callgraph`] as the panic-path rule, this pass
//! tracks **guard scopes** — the lexical region where a `lock()`/`read()`/
//! `write()` guard is live — and derives four audit rules from them:
//!
//! * `lock-order-cycle` — two lock *classes* acquired in both orders
//!   somewhere in the workspace (including through calls), or one class
//!   re-acquired while already held. Either is a latent deadlock.
//! * `lock-across-blocking` — a guard held across an operation that can
//!   block indefinitely: socket/file I/O, `Condvar` waits on *other*
//!   locks, a full solver dispatch, rayon pool install/construction, or
//!   thread joins. Holding a hot lock across these stalls every peer.
//! * `condvar-misuse` — a condvar wait whose predicate is not re-checked
//!   in an enclosing `loop`/`while` (spurious wakeups break it), or a
//!   notify in a function that never acquires the associated lock (the
//!   notification can race the waiter's predicate check and get lost).
//! * `guard-across-callback` — a guard held across an [`Observer`] hook
//!   or cancellation callback; user code runs under the lock and can
//!   re-enter or block it.
//!
//! ## Guard scopes
//!
//! An acquisition is `.lock()`, `.read()`, or `.write()` **with empty
//! parens** — `io::Read`/`io::Write` methods always take a buffer, so the
//! empty-call shape is what disambiguates sync primitives. A let-bound
//! guard (`let g = m.lock()…;`, including the poison-recovery
//! `let g = match m.lock() {…};` idiom) is live from its statement to the
//! end of the enclosing block; `drop(g)` ends the scope early, and
//! shadowing does **not** end it (the first guard lives until the block
//! closes — Rust drops shadowed values at end of scope, not at the
//! shadowing `let`). Any other acquisition is a temporary, live to the
//! end of its statement — which for `if let`/`while let`/`match`
//! scrutinees spans the whole arm body, exactly as the language scopes
//! the temporary.
//!
//! ## Lock classes
//!
//! Order edges relate *classes*, not individual acquisitions. A receiver
//! resolves to, in order: a `SCREAMING_CASE` static anywhere in its path
//! (`POOLS.lock()` and `let pools = POOLS.get_or_init(…); pools.lock()`
//! both name `core::POOLS`); a `self.field` path (`crate::Type::field`);
//! a self wrapper method (`self.lock()` where `fn lock` returns a
//! `MutexGuard`-family type resolves to the class the wrapper itself
//! acquires); otherwise a function-local class. Read and write guards on
//! one `RwLock` share a class — conservative, since writer acquisition
//! order is what deadlocks.
//!
//! ## Interprocedural propagation
//!
//! Each function's directly-acquired classes and blocking calls propagate
//! to callers over the call graph's conservative edges to a fixpoint, so
//! a guard held across `helper()` inherits `helper`'s acquisitions and
//! blocking behaviour with a shortest call chain for the diagnostic —
//! the same "show the path" style as `panic-path`.
//!
//! All four rules are waivable (`// lint: allow(<rule>) — reason`) at the
//! reported line: guard rules anchor at the acquisition, condvar rules at
//! the wait/notify, cycles at the first edge's acquisition.
//!
//! [`Observer`]: https://docs.rs/trait.Observer.html

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::ast::FnInfo;
use crate::callgraph::{CallGraph, FileInput};
use crate::lexer::{Tok, TokKind};
use crate::rules::Violation;

/// Operations that can block indefinitely while a guard is held. Method
/// and free-call forms both count; `join`/`wait` are shape-restricted
/// below to avoid `str::join` and argument-taking false matches.
const BLOCKING: [&str; 17] = [
    "wait",
    "wait_timeout",
    "wait_while",
    "write_all",
    "flush",
    "write_json",
    "write_response",
    "read_request",
    "read_to_end",
    "read_to_string",
    "accept",
    "connect",
    "connect_timeout",
    "solve",
    "install",
    "sleep",
    "recv",
];

/// Observer/callback entry points: user code that must not run under a
/// held guard (`guard-across-callback`).
const HOOKS: [&str; 5] = [
    "on_select",
    "on_round_stats",
    "cancelled",
    "check_cancelled",
    "emit_report",
];

/// Wrapper-method return types that mark a fn as handing out a guard.
const GUARD_TYPES: [&str; 3] = ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Postfix methods that pass a guard through unchanged, so a let binding
/// after them still binds the guard (`let g = m.lock().unwrap();`,
/// `let g = pools.lock().map_err(…)?;`).
const GUARD_PRESERVING: [&str; 5] = [
    "unwrap",
    "expect",
    "map_err",
    "unwrap_or_else",
    "into_inner",
];

/// Names never fed to generic call resolution inside a scope: primitive
/// acquisitions and blocking/hook ops are matched structurally instead,
/// and resolving them by bare name would alias every workspace `lock`.
fn skip_resolution(name: &str) -> bool {
    matches!(
        name,
        "lock" | "read" | "write" | "drop" | "notify_one" | "notify_all"
    ) || BLOCKING.contains(&name)
        || HOOKS.contains(&name)
}

const KEYWORDS: [&str; 27] = [
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "ref", "move",
    "in", "break", "continue", "as", "use", "pub", "impl", "struct", "enum", "trait", "mod",
    "where", "unsafe", "const", "static",
];

/// One live guard region inside a function body.
struct GuardScope {
    /// Resolved lock class.
    class: String,
    /// Token index of the `lock`/`read`/`write` ident.
    acq_tok: usize,
    /// 1-based line of the acquisition (violations anchor here).
    line: u32,
    /// Binding name when let-bound (used for the own-guard wait exemption).
    binding: Option<String>,
    /// Last token index (inclusive) where the guard is live.
    end: usize,
}

/// Where and how an order edge was observed, for diagnostics.
#[derive(Clone)]
struct EdgeProv {
    file: String,
    /// Line of the *outer* acquisition.
    line: u32,
    holder: String,
    /// `""` for a direct nested acquisition, else `" via a -> b"`.
    chain: String,
    inner_line: u32,
}

/// A transitively reachable acquisition (or blocking op) with its
/// shortest call chain for path reconstruction.
#[derive(Clone)]
struct Reach {
    depth: u32,
    /// Next callee toward the site; `None` at the site itself.
    via: Option<usize>,
    file: String,
    line: u32,
    /// Blocking op name (unused for acquisitions).
    op: String,
}

/// Runs the concurrency pass over the workspace and returns unwaived-rule
/// findings for the four lockgraph rules.
pub fn analyze(files: &[FileInput<'_>], graph: &CallGraph) -> Vec<Violation> {
    // Map (file, fn line, fn name) -> call graph node.
    let mut node_of: HashMap<(&str, u32, &str), usize> = HashMap::new();
    for (ni, n) in graph.nodes.iter().enumerate() {
        node_of.insert((n.file.as_str(), n.line, n.name.as_str()), ni);
    }
    // Mirror the call graph's name indices for in-scope call resolution.
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

    // Pass 1: raw acquisitions per function, for the wrapper map.
    let mut fn_ctxs: Vec<FnCtx<'_>> = Vec::new();
    for f in files {
        let Some(ck) = crate::callgraph::crate_key(f.rel) else {
            continue;
        };
        let mods = crate::callgraph::file_modules(f.rel);
        for (ai, func) in f.ast.fns.iter().enumerate() {
            if func.in_test || func.body.is_none() {
                continue;
            }
            let excluded = nested_ranges(f.ast.fns.as_slice(), ai);
            let raw = raw_acquisitions(f.tokens, func, &excluded);
            fn_ctxs.push(FnCtx {
                file: f,
                func,
                crate_key: ck.clone(),
                mods: mods.clone(),
                excluded,
                raw,
                node: node_of
                    .get(&(f.rel, func.line, func.name.as_str()))
                    .copied(),
            });
        }
    }

    // Wrapper map: (crate, impl type, method) -> class of its first
    // directly resolvable acquisition, for fns whose signature mentions a
    // guard type.
    let mut wrappers: HashMap<(String, String, String), String> = HashMap::new();
    for ctx in &fn_ctxs {
        let (s0, s1) = ctx.func.sig;
        let sig = &ctx.file.tokens[s0..s1.min(ctx.file.tokens.len())];
        if !sig.iter().any(|t| GUARD_TYPES.contains(&t.text.as_str())) {
            continue;
        }
        if let Some(class) = ctx.raw.iter().find_map(|acq| resolve_class(ctx, acq, None)) {
            wrappers.insert(
                (
                    ctx.crate_key.clone(),
                    ctx.func.qual.clone().unwrap_or_default(),
                    ctx.func.name.clone(),
                ),
                class,
            );
        }
    }

    // Pass 2: resolve classes and guard scopes; collect per-node direct
    // facts for the fixpoint.
    let n = graph.nodes.len();
    let mut direct_acq: Vec<BTreeMap<String, Reach>> = vec![BTreeMap::new(); n];
    let mut direct_block: Vec<Option<Reach>> = vec![None; n];
    let mut scopes_of: Vec<Vec<GuardScope>> = Vec::with_capacity(fn_ctxs.len());
    for ctx in &fn_ctxs {
        let mut scopes = Vec::new();
        for acq in &ctx.raw {
            let Some(class) = resolve_class(ctx, acq, Some(&wrappers)) else {
                continue;
            };
            let (binding, end) = guard_scope(ctx.file.tokens, ctx.func, acq);
            scopes.push(GuardScope {
                class,
                acq_tok: acq.tok,
                line: acq.line,
                binding,
                end,
            });
        }
        if let Some(ni) = ctx.node {
            for s in &scopes {
                direct_acq[ni]
                    .entry(s.class.clone())
                    .or_insert_with(|| Reach {
                        depth: 0,
                        via: None,
                        file: ctx.file.rel.to_string(),
                        line: s.line,
                        op: String::new(),
                    });
            }
            if let Some((op, line)) = first_blocking(ctx, None) {
                direct_block[ni] = Some(Reach {
                    depth: 0,
                    via: None,
                    file: ctx.file.rel.to_string(),
                    line,
                    op,
                });
            }
        }
        scopes_of.push(scopes);
    }

    // Call edges for propagation, resolved with the tightened rules (and
    // skipping method calls on a guard binding: the receiver there is the
    // *locked data* — a map or deque — whose methods can't be workspace
    // locking methods, and aliasing them manufactures self-deadlocks).
    let mut calls: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ctx, scopes) in fn_ctxs.iter().zip(&scopes_of) {
        let Some(ni) = ctx.node else { continue };
        let Some((open, close)) = ctx.func.body else {
            continue;
        };
        let bindings: BTreeSet<&str> = scopes.iter().filter_map(|s| s.binding.as_deref()).collect();
        let tokens = ctx.file.tokens;
        for j in open + 1..close.min(tokens.len()) {
            if ctx.excluded.iter().any(|&(a, b)| j >= a && j <= b) {
                continue;
            }
            let t = &tokens[j];
            if t.kind != TokKind::Ident
                || tokens.get(j + 1).is_none_or(|n| n.text != "(")
                || skip_resolution(&t.text)
                || KEYWORDS.contains(&t.text.as_str())
            {
                continue;
            }
            if j > 0
                && tokens[j - 1].text == "."
                && method_receiver_root(tokens, j).is_some_and(|r| bindings.contains(r.as_str()))
            {
                continue;
            }
            calls[ni].extend(resolve_call(
                ctx,
                j,
                graph,
                &by_crate_name,
                &methods_by_name,
            ));
        }
        calls[ni].sort_unstable();
        calls[ni].dedup();
    }

    // Fixpoint: propagate acquisitions and blocking over call edges with
    // strictly-shorter-depth updates (deterministic, terminates).
    let mut trans_acq = direct_acq;
    let mut trans_block = direct_block;
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..n {
            let mut updates: Vec<(String, Reach)> = Vec::new();
            let mut block_update: Option<Reach> = None;
            for &v in &calls[u] {
                for (class, info) in &trans_acq[v] {
                    let cand = Reach {
                        depth: info.depth + 1,
                        via: Some(v),
                        file: info.file.clone(),
                        line: info.line,
                        op: String::new(),
                    };
                    let better = trans_acq[u]
                        .get(class)
                        .is_none_or(|cur| cand.depth < cur.depth);
                    if better {
                        updates.push((class.clone(), cand));
                    }
                }
                if let Some(info) = &trans_block[v] {
                    let cand = Reach {
                        depth: info.depth + 1,
                        via: Some(v),
                        file: info.file.clone(),
                        line: info.line,
                        op: info.op.clone(),
                    };
                    let better = trans_block[u]
                        .as_ref()
                        .is_none_or(|cur| cand.depth < cur.depth);
                    if better && block_update.as_ref().is_none_or(|b| cand.depth < b.depth) {
                        block_update = Some(cand);
                    }
                }
            }
            for (class, cand) in updates {
                let slot = trans_acq[u].entry(class).or_insert_with(|| cand.clone());
                if cand.depth < slot.depth || (slot.depth == cand.depth && slot.via == cand.via) {
                    *slot = cand;
                    changed = true;
                }
            }
            if let Some(cand) = block_update {
                if trans_block[u]
                    .as_ref()
                    .is_none_or(|cur| cand.depth < cur.depth)
                {
                    trans_block[u] = Some(cand);
                    changed = true;
                }
            }
        }
    }

    // Pass 3: walk each guard scope for events; build the order graph.
    let mut out: Vec<Violation> = Vec::new();
    let mut edges: BTreeMap<(String, String), EdgeProv> = BTreeMap::new();
    for (ctx, scopes) in fn_ctxs.iter().zip(&scopes_of) {
        let holder = ctx.display();
        let bindings: BTreeSet<&str> = scopes.iter().filter_map(|s| s.binding.as_deref()).collect();
        for scope in scopes {
            let mut blocked = false;
            let mut hooked = false;
            let lo = scope.acq_tok + 1;
            let hi = scope.end.min(ctx.file.tokens.len().saturating_sub(1));
            let mut j = lo;
            while j <= hi {
                if ctx.excluded.iter().any(|&(a, b)| j >= a && j <= b) {
                    j += 1;
                    continue;
                }
                let t = &ctx.file.tokens[j];
                if t.kind != TokKind::Ident {
                    j += 1;
                    continue;
                }
                let name = t.text.as_str();
                // Nested acquisition -> order edge.
                if is_acquisition(ctx.file.tokens, j) {
                    if let Some(acq) = ctx.raw.iter().find(|a| a.tok == j) {
                        if let Some(inner) = resolve_class(ctx, acq, Some(&wrappers)) {
                            record_edge(
                                &mut edges,
                                &scope.class,
                                &inner,
                                EdgeProv {
                                    file: ctx.file.rel.to_string(),
                                    line: scope.line,
                                    holder: holder.clone(),
                                    chain: String::new(),
                                    inner_line: t.line,
                                },
                            );
                        }
                    }
                    j += 1;
                    continue;
                }
                // Rayon pool construction under a guard blocks on thread
                // spawning — flag the bare type name.
                if name == "ThreadPoolBuilder" && !blocked {
                    blocked = true;
                    out.push(Violation {
                        rule: "lock-across-blocking",
                        file: ctx.file.rel.to_string(),
                        line: scope.line,
                        message: format!(
                            "guard on `{}` held across rayon pool construction at line {} in {holder}; build the pool before taking the lock",
                            scope.class, t.line
                        ),
                    });
                }
                let called = ctx.file.tokens.get(j + 1).is_some_and(|t| t.text == "(");
                if !called {
                    j += 1;
                    continue;
                }
                // Blocking operation directly in scope.
                if BLOCKING.contains(&name) && blocking_shape(ctx.file.tokens, j) {
                    let own_wait = name.starts_with("wait")
                        && scope
                            .binding
                            .as_deref()
                            .is_some_and(|b| args_contain(ctx.file.tokens, j, b));
                    if !own_wait && !blocked {
                        blocked = true;
                        out.push(Violation {
                            rule: "lock-across-blocking",
                            file: ctx.file.rel.to_string(),
                            line: scope.line,
                            message: format!(
                                "guard on `{}` (acquired line {}) held across blocking `{}` at line {} in {holder}",
                                scope.class, scope.line, name, t.line
                            ),
                        });
                    }
                    j += 1;
                    continue;
                }
                // Observer/callback hook directly in scope.
                if HOOKS.contains(&name) && !hooked {
                    hooked = true;
                    out.push(Violation {
                        rule: "guard-across-callback",
                        file: ctx.file.rel.to_string(),
                        line: scope.line,
                        message: format!(
                            "guard on `{}` (acquired line {}) held across observer callback `{}` at line {} in {holder}; user code must not run under the lock",
                            scope.class, scope.line, name, t.line
                        ),
                    });
                    j += 1;
                    continue;
                }
                // Generic workspace call: inherit the callee's transitive
                // acquisitions and blocking behaviour. Method calls on a
                // guard binding target the locked data, not a workspace
                // type — skip those (see the call-edge builder above).
                let on_guard = ctx.file.tokens[j - 1].text == "."
                    && method_receiver_root(ctx.file.tokens, j)
                        .is_some_and(|r| bindings.contains(r.as_str()));
                if !skip_resolution(name) && !KEYWORDS.contains(&name) && !on_guard {
                    for m in resolve_call(ctx, j, graph, &by_crate_name, &methods_by_name) {
                        for (class, info) in &trans_acq[m] {
                            record_edge(
                                &mut edges,
                                &scope.class,
                                class,
                                EdgeProv {
                                    file: ctx.file.rel.to_string(),
                                    line: scope.line,
                                    holder: holder.clone(),
                                    chain: chain_str(graph, &trans_acq, m, class),
                                    inner_line: info.line,
                                },
                            );
                        }
                        if let Some(info) = &trans_block[m] {
                            if !blocked {
                                blocked = true;
                                out.push(Violation {
                                    rule: "lock-across-blocking",
                                    file: ctx.file.rel.to_string(),
                                    line: scope.line,
                                    message: format!(
                                        "guard on `{}` (acquired line {}) held across a call chain that blocks: {} -> `{}` ({}:{})",
                                        scope.class,
                                        scope.line,
                                        block_chain_str(graph, &trans_block, m),
                                        info.op,
                                        info.file,
                                        info.line
                                    ),
                                });
                            }
                        }
                    }
                }
                j += 1;
            }
        }
        // Condvar discipline, independent of any particular scope.
        condvar_checks(ctx, &holder, &mut out);
    }

    // Pass 4: cycles (including self-edges) over the class order graph.
    cycle_violations(&edges, &mut out);

    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    out
}

/// Everything needed to analyze one function body.
struct FnCtx<'a> {
    file: &'a FileInput<'a>,
    func: &'a FnInfo,
    crate_key: String,
    mods: Vec<String>,
    /// Token ranges of nested fns (excluded from this fn's scans).
    excluded: Vec<(usize, usize)>,
    raw: Vec<RawAcq>,
    node: Option<usize>,
}

impl FnCtx<'_> {
    fn display(&self) -> String {
        match &self.func.qual {
            Some(q) => format!("`{}::{}`", q, self.func.name),
            None => format!("`{}`", self.func.name),
        }
    }

    /// `crate::<impl type or module path>::` prefix for local classes.
    fn local_prefix(&self) -> String {
        let mid = match &self.func.qual {
            Some(q) => q.clone(),
            None if self.mods.is_empty() => String::new(),
            None => self.mods.join("::"),
        };
        if mid.is_empty() {
            self.crate_key.clone()
        } else {
            format!("{}::{}", self.crate_key, mid)
        }
    }
}

/// A detected `.lock()`/`.read()`/`.write()` (empty parens) with its
/// receiver path, innermost segment first reversed to source order.
struct RawAcq {
    /// Token index of the method name.
    tok: usize,
    line: u32,
    /// Receiver segments in source order (`self.inner.lock()` -> `[self,
    /// inner]`); empty when the receiver is not a plain ident path.
    receiver: Vec<String>,
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

/// True when token `i` is the method name of an empty-parens
/// `.lock()`/`.read()`/`.write()` call.
fn is_acquisition(tokens: &[Tok], i: usize) -> bool {
    matches!(tokens[i].text.as_str(), "lock" | "read" | "write")
        && i > 0
        && tokens[i - 1].text == "."
        && tokens.get(i + 1).is_some_and(|t| t.text == "(")
        && tokens.get(i + 2).is_some_and(|t| t.text == ")")
}

/// All acquisitions in `func`'s body outside `excluded` ranges.
fn raw_acquisitions(tokens: &[Tok], func: &FnInfo, excluded: &[(usize, usize)]) -> Vec<RawAcq> {
    let Some((open, close)) = func.body else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for i in open + 1..close.min(tokens.len()) {
        if excluded.iter().any(|&(a, b)| i >= a && i <= b) {
            continue;
        }
        if tokens[i].kind != TokKind::Ident || !is_acquisition(tokens, i) {
            continue;
        }
        // Walk the receiver path backward: `ident (. ident)* .` before it.
        let mut receiver = Vec::new();
        let mut j = i - 1; // the `.`
        loop {
            if j == 0 || tokens[j - 1].kind != TokKind::Ident {
                // Non-path receiver (call result, index, …): class unknown.
                receiver.clear();
                break;
            }
            receiver.push(tokens[j - 1].text.clone());
            if j >= 2 && tokens[j - 2].text == "." {
                j -= 2;
            } else {
                break;
            }
        }
        receiver.reverse();
        if receiver.is_empty() {
            continue;
        }
        out.push(RawAcq {
            tok: i,
            line: tokens[i].line,
            receiver,
        });
    }
    out
}

fn is_screaming(s: &str) -> bool {
    s.len() > 1
        && s.chars().any(|c| c.is_ascii_uppercase())
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Resolves an acquisition's lock class. `wrappers` is `None` during the
/// wrapper-map pre-pass, where bare `self.lock()` calls stay unresolved.
fn resolve_class(
    ctx: &FnCtx<'_>,
    acq: &RawAcq,
    wrappers: Option<&HashMap<(String, String, String), String>>,
) -> Option<String> {
    let ck = &ctx.crate_key;
    // A SCREAMING segment anywhere names a static: the strongest signal.
    if let Some(s) = acq.receiver.iter().find(|s| is_screaming(s)) {
        return Some(format!("{ck}::{s}"));
    }
    if acq.receiver[0] == "self" {
        if acq.receiver.len() == 1 {
            // `self.lock()` — a wrapper method handing out the guard.
            let method = ctx.file.tokens[acq.tok].text.clone();
            let key = (
                ck.clone(),
                ctx.func.qual.clone().unwrap_or_default(),
                method.clone(),
            );
            if let Some(ws) = wrappers {
                if let Some(class) = ws.get(&key) {
                    return Some(class.clone());
                }
                return Some(format!("{}::{}", ctx.local_prefix(), method));
            }
            return None;
        }
        // `self.field[.sub]*` — class is the field path on the impl type.
        return Some(format!(
            "{}::{}",
            ctx.local_prefix(),
            acq.receiver[1..].join(".")
        ));
    }
    if acq.receiver.len() == 1 {
        // A local: if its `let` initializer mentions a static, alias it
        // (`let pools = POOLS.get_or_init(…); pools.lock()`).
        if let Some(s) = local_static_alias(ctx, acq) {
            return Some(format!("{ck}::{s}"));
        }
    }
    Some(format!(
        "{}::{}::{}",
        ctx.local_prefix(),
        ctx.func.name,
        acq.receiver.join(".")
    ))
}

/// Searches backward from the acquisition for `let [mut] <recv> = …;` and
/// returns a SCREAMING ident from that initializer, if any.
fn local_static_alias(ctx: &FnCtx<'_>, acq: &RawAcq) -> Option<String> {
    let tokens = ctx.file.tokens;
    let (open, _) = ctx.func.body?;
    let name = &acq.receiver[0];
    let mut i = acq.tok;
    while i > open {
        i -= 1;
        if tokens[i].text != "let" {
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.text == "mut") {
            j += 1;
        }
        if tokens.get(j).is_none_or(|t| &t.text != name) {
            continue;
        }
        if tokens.get(j + 1).is_none_or(|t| t.text != "=") {
            continue;
        }
        // Scan the initializer to its `;` for a SCREAMING ident.
        let mut k = j + 2;
        let mut depth = 0i32;
        while k < tokens.len() {
            let t = &tokens[k];
            match t.kind {
                TokKind::Open => depth += 1,
                TokKind::Close => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokKind::Ident if is_screaming(&t.text) => return Some(t.text.clone()),
                _ if t.text == ";" && depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        return None;
    }
    None
}

/// Computes a guard's binding (if let-bound) and the last token index of
/// its live scope.
fn guard_scope(tokens: &[Tok], func: &FnInfo, acq: &RawAcq) -> (Option<String>, usize) {
    let (body_open, body_close) = func.body.unwrap_or((0, tokens.len().saturating_sub(1)));
    let recv_start = acq.tok - 2 * (acq.receiver.len() - 1) - 2;
    let stmt_start = statement_start(tokens, body_open, recv_start.max(body_open + 1));
    let stmt_end = statement_end(tokens, acq.tok, body_close);
    let let_binding = let_bound_guard(tokens, stmt_start, acq);
    let (binding, mut end) = match let_binding {
        Some(name) => {
            let close = enclosing_block_close(tokens, stmt_end, body_close);
            (Some(name), close)
        }
        None => (None, stmt_end),
    };
    // `drop(binding)` ends the scope early.
    if let Some(b) = &binding {
        let mut j = stmt_end;
        while j + 3 <= end {
            if tokens[j].text == "drop"
                && tokens[j + 1].text == "("
                && tokens[j + 2].text == *b
                && tokens[j + 3].text == ")"
            {
                end = j;
                break;
            }
            j += 1;
        }
    }
    (binding, end)
}

/// First token of the statement containing `from` (scanning backward to a
/// `;` or the enclosing opener at depth 0).
fn statement_start(tokens: &[Tok], body_open: usize, from: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i > body_open {
        i -= 1;
        let t = &tokens[i];
        match t.kind {
            TokKind::Close => depth += 1,
            TokKind::Open => {
                if depth == 0 {
                    return i + 1;
                }
                depth -= 1;
            }
            _ if depth == 0 && t.text == ";" => return i + 1,
            _ => {}
        }
    }
    body_open + 1
}

/// Last token of the statement containing the acquisition at `from`:
/// forward to a `;` at depth 0, the enclosing close, or a `}` returning
/// to depth 0 (a brace-terminated expression statement such as
/// `match m.lock() { … }` in statement position ends at its own brace).
fn statement_end(tokens: &[Tok], from: usize, body_close: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < body_close {
        j += 1;
        let t = &tokens[j];
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
                if depth == 0 && t.text == "}" {
                    return j;
                }
            }
            _ if depth == 0 && t.text == ";" => return j,
            _ => {}
        }
    }
    body_close
}

/// `}` closing the block that contains the statement ending at `stmt_end`.
fn enclosing_block_close(tokens: &[Tok], stmt_end: usize, body_close: usize) -> usize {
    let mut depth = 0i32;
    let mut j = stmt_end;
    while j < body_close {
        j += 1;
        match tokens[j].kind {
            TokKind::Open => depth += 1,
            TokKind::Close => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    body_close
}

/// Whether the statement starting at `stmt_start` let-binds the guard
/// acquired by `acq` (rather than consuming it inside the initializer).
fn let_bound_guard(tokens: &[Tok], stmt_start: usize, acq: &RawAcq) -> Option<String> {
    if tokens.get(stmt_start).is_none_or(|t| t.text != "let") {
        return None;
    }
    let mut j = stmt_start + 1;
    if tokens.get(j).is_some_and(|t| t.text == "mut") {
        j += 1;
    }
    let name = tokens
        .get(j)
        .filter(|t| t.kind == TokKind::Ident)?
        .text
        .clone();
    if name == "_" {
        return None;
    }
    // Skip an optional `: Type` annotation to the `=`.
    let mut k = j + 1;
    let mut depth = 0i32;
    while k < acq.tok {
        let t = &tokens[k];
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => depth -= 1,
            _ if depth == 0 && t.text == "=" => break,
            _ => {}
        }
        k += 1;
    }
    if k >= acq.tok {
        return None;
    }
    // The initializer's leading token decides whether the binding can be
    // the guard itself: a deref/ref consumes it; `match m.lock() { … }` is
    // the poison-recovery idiom and binds the guard.
    match tokens.get(k + 1).map(|t| t.text.as_str()) {
        Some("*") | Some("&") => return None,
        Some("match") => return Some(name),
        _ => {}
    }
    // Postfix chain after the acquisition: only guard-preserving methods
    // keep the binding a guard (`.unwrap()`, `.map_err(…)?`); anything
    // else (`.len()`, `.pop_front()`) makes this a temporary.
    let mut p = acq.tok + 3; // past `( )`
    while let Some(t) = tokens.get(p) {
        match t.text.as_str() {
            "." => {
                let Some(m) = tokens.get(p + 1) else { break };
                if !GUARD_PRESERVING.contains(&m.text.as_str()) {
                    return None;
                }
                // Skip the method's balanced argument list.
                let mut depth = 0i32;
                let mut q = p + 2;
                while let Some(a) = tokens.get(q) {
                    match a.kind {
                        TokKind::Open => depth += 1,
                        TokKind::Close => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    q += 1;
                }
                p = q + 1;
            }
            "?" => p += 1,
            _ => break,
        }
    }
    Some(name)
}

/// Shape filter for blocking names: `join`-style names must be
/// empty-parens (thread join, not `str::join`); the rest qualify as
/// either method or free calls.
fn blocking_shape(tokens: &[Tok], i: usize) -> bool {
    let name = tokens[i].text.as_str();
    if name == "join" {
        return tokens.get(i + 2).is_some_and(|t| t.text == ")");
    }
    true
}

/// Whether the call at ident `i` has `needle` among its argument tokens.
fn args_contain(tokens: &[Tok], i: usize, needle: &str) -> bool {
    let mut depth = 0i32;
    let mut j = i + 1;
    while let Some(t) = tokens.get(j) {
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            TokKind::Ident if t.text == needle => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

/// First blocking op anywhere in the body (for caller propagation). When
/// `within` is given, restricts to that token range.
fn first_blocking(ctx: &FnCtx<'_>, within: Option<(usize, usize)>) -> Option<(String, u32)> {
    let (open, close) = within.or(ctx.func.body)?;
    let tokens = ctx.file.tokens;
    for i in open + 1..close.min(tokens.len()) {
        if ctx.excluded.iter().any(|&(a, b)| i >= a && i <= b) {
            continue;
        }
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "ThreadPoolBuilder" {
            return Some(("ThreadPoolBuilder::build".to_string(), t.line));
        }
        if BLOCKING.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.text == "(")
            && blocking_shape(tokens, i)
        {
            return Some((t.text.clone(), t.line));
        }
    }
    None
}

/// First segment of a plain ident-path receiver of the method call at
/// ident `j` (`inner.items.len()` -> `inner`); `None` when the receiver
/// is a call result or other complex expression.
fn method_receiver_root(tokens: &[Tok], j: usize) -> Option<String> {
    let mut k = j - 1; // the `.`
    loop {
        if k == 0 || tokens[k - 1].kind != TokKind::Ident {
            return None;
        }
        if k >= 2 && tokens[k - 2].text == "." {
            k -= 2;
        } else {
            return Some(tokens[k - 1].text.clone());
        }
    }
}

/// Resolves the call at ident `j` to workspace nodes, mirroring the call
/// graph's conservative rules but tightened for order tracking: method
/// aliasing stays within the caller's crate (cross-crate name smearing —
/// every `.len()` hitting every workspace `len` — manufactures cycles
/// that cannot exist), a `self.m()` or `Self::m()` call resolves to the
/// caller's own impl when that impl defines `m`, and the containing node
/// itself is excluded.
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
    if let Some(own) = own_impl_method(ctx, j, graph, methods_by_name) {
        targets.push(own);
    } else if is_method {
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
            let filtered: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| {
                    graph.nodes[i].qual.as_deref() == Some(*hint)
                        || graph.nodes[i].module.iter().any(|m| m == hint)
                })
                .collect();
            if !filtered.is_empty() {
                targets.extend(filtered);
            } else {
                targets.extend(cands.iter().copied());
            }
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

/// The caller's own method for a call at ident `j` on `self` — `self.m()`
/// (the receiver is `self` itself, not a field) or `Self::m()` — when the
/// caller is a method and its impl type defines `m` in the same file and
/// crate: the one method such a call can reach.
fn own_impl_method(
    ctx: &FnCtx<'_>,
    j: usize,
    graph: &CallGraph,
    methods_by_name: &HashMap<&str, Vec<usize>>,
) -> Option<usize> {
    let tokens = ctx.file.tokens;
    let qual = ctx.func.qual.as_deref()?;
    let before = |back: usize| j.checked_sub(back).map(|i| tokens[i].text.as_str());
    let on_self = match (before(1), before(2), before(3)) {
        (Some("."), Some("self"), prev) => prev != Some("."),
        (Some("::"), Some("Self"), prev) => prev != Some("::"),
        _ => false,
    };
    if !on_self {
        return None;
    }
    methods_by_name
        .get(tokens[j].text.as_str())?
        .iter()
        .copied()
        .find(|&i| {
            let node = &graph.nodes[i];
            node.crate_key == ctx.crate_key
                && node.qual.as_deref() == Some(qual)
                && node.file == ctx.file.rel
        })
}

/// `" via a -> b"` call chain from node `m` to the acquisition of `class`.
fn chain_str(
    graph: &CallGraph,
    trans_acq: &[BTreeMap<String, Reach>],
    m: usize,
    class: &str,
) -> String {
    let mut names = vec![graph.nodes[m].display()];
    let mut cur = m;
    while let Some(info) = trans_acq[cur].get(class) {
        match info.via {
            Some(v) => {
                names.push(graph.nodes[v].display());
                cur = v;
            }
            None => break,
        }
    }
    format!(" via {}", names.join(" -> "))
}

/// Call chain from node `m` to its nearest blocking op.
fn block_chain_str(graph: &CallGraph, trans_block: &[Option<Reach>], m: usize) -> String {
    let mut names = vec![graph.nodes[m].display()];
    let mut cur = m;
    while let Some(info) = &trans_block[cur] {
        match info.via {
            Some(v) => {
                names.push(graph.nodes[v].display());
                cur = v;
            }
            None => break,
        }
    }
    names.join(" -> ")
}

fn record_edge(
    edges: &mut BTreeMap<(String, String), EdgeProv>,
    outer: &str,
    inner: &str,
    prov: EdgeProv,
) {
    edges
        .entry((outer.to_string(), inner.to_string()))
        .or_insert(prov);
}

/// Condvar rules: wait-family calls must sit inside a `loop`/`while`/
/// `for`, and notifies must come from a function that acquires the lock.
fn condvar_checks(ctx: &FnCtx<'_>, holder: &str, out: &mut Vec<Violation>) {
    let Some((open, close)) = ctx.func.body else {
        return;
    };
    let tokens = ctx.file.tokens;
    for i in open + 1..close.min(tokens.len()) {
        if ctx.excluded.iter().any(|&(a, b)| i >= a && i <= b) {
            continue;
        }
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let is_wait = matches!(name, "wait" | "wait_timeout" | "wait_while");
        // A condvar wait takes the guard as an argument; empty-parens
        // waits (Barrier, Child) are not condvar waits.
        if is_wait
            && i > 0
            && tokens[i - 1].text == "."
            && tokens.get(i + 1).is_some_and(|n| n.text == "(")
            && tokens.get(i + 2).is_some_and(|n| n.text != ")")
            && !inside_loop(tokens, open, i)
        {
            out.push(Violation {
                rule: "condvar-misuse",
                file: ctx.file.rel.to_string(),
                line: t.line,
                message: format!(
                    "condvar `{name}` at line {} in {holder} is not inside a `loop`/`while`; spurious wakeups require re-checking the predicate",
                    t.line
                ),
            });
        }
        if matches!(name, "notify_one" | "notify_all")
            && i > 0
            && tokens[i - 1].text == "."
            && tokens.get(i + 1).is_some_and(|n| n.text == "(")
            && tokens.get(i + 2).is_some_and(|n| n.text == ")")
            && ctx.raw.is_empty()
        {
            out.push(Violation {
                rule: "condvar-misuse",
                file: ctx.file.rel.to_string(),
                line: t.line,
                message: format!(
                    "`{name}` at line {} in {holder}, which never acquires the associated lock; an unsynchronized notify can race the waiter's predicate check and be lost",
                    t.line
                ),
            });
        }
    }
}

/// Whether token `i` sits inside a `loop`/`while`/`for` body within the
/// function (walking enclosing blocks outward to `body_open`).
fn inside_loop(tokens: &[Tok], body_open: usize, i: usize) -> bool {
    let mut j = i;
    loop {
        // Enclosing opener, scanning backward.
        let mut depth = 0i32;
        let mut opener = None;
        let mut k = j;
        while k > body_open {
            k -= 1;
            match tokens[k].kind {
                TokKind::Close => depth += 1,
                TokKind::Open => {
                    if depth == 0 {
                        opener = Some(k);
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        let Some(op) = opener else {
            return false;
        };
        // Header scan: is this block a loop body? Balanced groups in the
        // header (e.g. `while let Some(v) = q.pop() {`) are skipped.
        let mut depth = 0i32;
        let mut k = op;
        while k > body_open {
            k -= 1;
            let t = &tokens[k];
            match t.kind {
                TokKind::Close => depth += 1,
                TokKind::Open => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ if depth > 0 => {}
                TokKind::Ident if matches!(t.text.as_str(), "loop" | "while" | "for") => {
                    return true;
                }
                _ if t.text == ";" || t.text == "=>" => break,
                _ => {}
            }
        }
        j = op;
    }
}

/// Emits `lock-order-cycle` violations: self-edges (re-acquisition while
/// held) and mutual reachability between distinct classes, once per
/// unordered pair at the lexicographically first edge.
fn cycle_violations(edges: &BTreeMap<(String, String), EdgeProv>, out: &mut Vec<Violation>) {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(c) = stack.pop() {
            if c == to {
                return true;
            }
            if !seen.insert(c) {
                continue;
            }
            if let Some(next) = adj.get(c) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), prov) in edges {
        if a == b {
            out.push(Violation {
                rule: "lock-order-cycle",
                file: prov.file.clone(),
                line: prov.line,
                message: format!(
                    "lock `{a}` re-acquired while already held in {}{} ({}:{}); a non-reentrant mutex self-deadlocks here",
                    prov.holder, prov.chain, prov.file, prov.inner_line
                ),
            });
            continue;
        }
        let key = if a < b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if reported.contains(&key) || !reaches(b, a) {
            continue;
        }
        reported.insert(key);
        let reverse = edges
            .get(&(b.clone(), a.clone()))
            .map(|r| {
                format!(
                    "; the reverse order is taken in {}{} ({}:{})",
                    r.holder, r.chain, r.file, r.line
                )
            })
            .unwrap_or_else(|| "; the reverse order is reached transitively".to_string());
        out.push(Violation {
            rule: "lock-order-cycle",
            file: prov.file.clone(),
            line: prov.line,
            message: format!(
                "lock order cycle: `{a}` then `{b}` in {}{} ({}:{}){reverse}",
                prov.holder, prov.chain, prov.file, prov.inner_line
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lexes/parses `src` as one `crates/fake/src/lib.rs` file, builds the
    /// call graph, and runs the concurrency pass over it.
    fn analyze_src(src: &str) -> Vec<Violation> {
        let lexed = crate::lexer::lex(src);
        let ast = crate::ast::parse(&lexed.tokens);
        let files = vec![FileInput {
            rel: "crates/fake/src/lib.rs",
            tokens: &lexed.tokens,
            ast: &ast,
            panic_sites: Vec::new(),
        }];
        let graph = crate::callgraph::build(&files);
        analyze(&files, &graph)
    }

    fn rules(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn guard_held_across_blocking_io_is_flagged_at_the_acquisition() {
        let vs = analyze_src(
            "fn f(s: &mut std::net::TcpStream) {\n\
                 let g = STATE.lock().unwrap();\n\
                 s.write_all(b\"x\").ok();\n\
                 g;\n\
             }",
        );
        assert_eq!(rules(&vs), ["lock-across-blocking"]);
        assert_eq!(vs[0].line, 2, "anchored at the acquisition, not the I/O");
        assert!(vs[0].message.contains("fake::STATE"), "{}", vs[0].message);
    }

    #[test]
    fn dropping_the_guard_ends_its_scope() {
        let vs = analyze_src(
            "fn f(s: &mut std::net::TcpStream) {\n\
                 let g = STATE.lock().unwrap();\n\
                 drop(g);\n\
                 s.write_all(b\"x\").ok();\n\
             }",
        );
        assert!(vs.is_empty(), "guard dropped before the I/O: {vs:?}");
    }

    #[test]
    fn shadowing_does_not_end_the_first_guards_scope() {
        // Rust drops a shadowed binding at end of block, not at the
        // shadowing `let`: both guards are live across the sleep, and the
        // pass must see both (two anchors) plus the A-then-B order edge.
        let vs = analyze_src(
            "fn f() {\n\
                 let g = A_LOCK.lock().unwrap();\n\
                 let g = B_LOCK.lock().unwrap();\n\
                 std::thread::sleep(d());\n\
                 g;\n\
             }",
        );
        assert_eq!(
            rules(&vs),
            ["lock-across-blocking", "lock-across-blocking"],
            "both the shadowed and the shadowing guard are still held: {vs:?}"
        );
        assert_eq!((vs[0].line, vs[1].line), (2, 3));
    }

    #[test]
    fn match_scrutinee_guard_is_a_temporary_scoped_to_the_match() {
        let vs = analyze_src(
            "fn ok(m: &std::sync::Mutex<u32>, s: &mut std::net::TcpStream) {\n\
                 match m.lock() { Ok(g) => record(*g), Err(_) => {} }\n\
                 s.write_all(b\"x\").ok();\n\
             }\n\
             fn bad(m: &std::sync::Mutex<u32>, s: &mut std::net::TcpStream) {\n\
                 match m.lock() { Ok(g) => s.write_all(&[*g]).ok(), Err(_) => None }\n\
             }\n\
             fn record(_v: u32) {}",
        );
        assert_eq!(rules(&vs), ["lock-across-blocking"]);
        assert_eq!(
            vs[0].line, 6,
            "only the arm that blocks *inside* the match is under the guard"
        );
    }

    #[test]
    fn one_liner_temporary_guard_does_not_leak_into_the_next_statement() {
        // `q.lock().unwrap().len()` consumes the guard inside the
        // statement: the let binds a usize, not the guard.
        let vs = analyze_src(
            "fn f(q: &std::sync::Mutex<Vec<u32>>, s: &mut std::net::TcpStream) {\n\
                 let n = q.lock().unwrap().len();\n\
                 s.write_all(&[n as u8]).ok();\n\
             }",
        );
        assert!(vs.is_empty(), "temporary guard died at the `;`: {vs:?}");
    }

    #[test]
    fn poison_recovery_match_still_binds_the_guard() {
        let vs = analyze_src(
            "fn f(s: &mut std::net::TcpStream) {\n\
                 let g = match STATE.lock() { Ok(g) => g, Err(p) => p.into_inner() };\n\
                 s.write_all(b\"x\").ok();\n\
                 g;\n\
             }",
        );
        assert_eq!(rules(&vs), ["lock-across-blocking"]);
    }

    #[test]
    fn ab_ba_order_is_a_cycle_reported_once() {
        let vs = analyze_src(
            "fn forward() {\n\
                 let a = A_LOCK.lock().unwrap();\n\
                 let b = B_LOCK.lock().unwrap();\n\
                 drop(b); drop(a);\n\
             }\n\
             fn backward() {\n\
                 let b = B_LOCK.lock().unwrap();\n\
                 let a = A_LOCK.lock().unwrap();\n\
                 drop(a); drop(b);\n\
             }",
        );
        assert_eq!(rules(&vs), ["lock-order-cycle"], "{vs:?}");
        assert!(
            vs[0].message.contains("fake::A_LOCK") && vs[0].message.contains("fake::B_LOCK"),
            "{}",
            vs[0].message
        );
        assert!(
            vs[0].message.contains("reverse order"),
            "both directions shown: {}",
            vs[0].message
        );
    }

    #[test]
    fn interprocedural_order_edge_carries_the_call_chain() {
        let vs = analyze_src(
            "fn forward() {\n\
                 let a = A_LOCK.lock().unwrap();\n\
                 take_b();\n\
                 a;\n\
             }\n\
             fn take_b() {\n\
                 let b = B_LOCK.lock().unwrap();\n\
                 let a = A_LOCK.lock().unwrap();\n\
                 drop(a); drop(b);\n\
             }",
        );
        // `forward` reaches B while holding A (via take_b); `take_b`
        // itself takes B then A: one cycle, plus chain provenance.
        assert_eq!(rules(&vs), ["lock-order-cycle"], "{vs:?}");
        assert!(
            vs[0].message.contains("via") || vs[0].message.contains("take_b"),
            "chain shown: {}",
            vs[0].message
        );
    }

    #[test]
    fn reacquiring_the_same_lock_while_held_is_a_self_cycle() {
        let vs = analyze_src(
            "fn f() {\n\
                 let a = STATE.lock().unwrap();\n\
                 let b = STATE.lock().unwrap();\n\
                 drop(b); drop(a);\n\
             }",
        );
        assert_eq!(rules(&vs), ["lock-order-cycle"]);
        assert!(vs[0].message.contains("re-acquired"), "{}", vs[0].message);
    }

    #[test]
    fn wait_outside_a_loop_is_condvar_misuse() {
        let vs = analyze_src(
            "struct Q { inner: std::sync::Mutex<u32>, cv: std::sync::Condvar }\n\
             impl Q {\n\
                 fn bad(&self) {\n\
                     let g = self.inner.lock().unwrap();\n\
                     let g = self.cv.wait(g).unwrap();\n\
                     drop(g);\n\
                 }\n\
                 fn good(&self) {\n\
                     let mut g = self.inner.lock().unwrap();\n\
                     while *g == 0 { g = self.cv.wait(g).unwrap(); }\n\
                     drop(g);\n\
                 }\n\
             }",
        );
        assert_eq!(rules(&vs), ["condvar-misuse"], "{vs:?}");
        assert_eq!(vs[0].line, 5);
    }

    #[test]
    fn notify_without_any_lock_acquisition_is_condvar_misuse() {
        let vs = analyze_src(
            "struct Q { cv: std::sync::Condvar }\n\
             impl Q {\n\
                 fn poke(&self) { self.cv.notify_one(); }\n\
             }",
        );
        assert_eq!(rules(&vs), ["condvar-misuse"], "{vs:?}");
        assert!(vs[0].message.contains("notify_one"), "{}", vs[0].message);
    }

    #[test]
    fn own_guard_wait_in_a_loop_is_clean() {
        // The queue idiom: wait on the condvar associated with the held
        // guard, inside a predicate loop. Nothing to report.
        let vs = analyze_src(
            "struct Q { inner: std::sync::Mutex<u32>, cv: std::sync::Condvar }\n\
             impl Q {\n\
                 fn pop(&self) -> u32 {\n\
                     let mut g = self.inner.lock().unwrap();\n\
                     loop {\n\
                         if *g > 0 { return *g; }\n\
                         g = match self.cv.wait(g) { Ok(g) => g, Err(p) => p.into_inner() };\n\
                     }\n\
                 }\n\
             }",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn guard_across_observer_hook_is_flagged() {
        let vs = analyze_src(
            "fn f(obs: &dyn Observer) {\n\
                 let g = STATE.lock().unwrap();\n\
                 obs.on_select(1);\n\
                 g;\n\
             }",
        );
        assert_eq!(rules(&vs), ["guard-across-callback"]);
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn wrapper_method_unifies_with_its_underlying_field_class() {
        // `self.lock()` in `push` must resolve to the same class as the
        // wrapper's own `self.inner.lock()`, so the self-cycle of
        // re-locking through the wrapper is caught.
        let vs = analyze_src(
            "struct Q { inner: std::sync::Mutex<u32> }\n\
             impl Q {\n\
                 fn lock(&self) -> std::sync::MutexGuard<'_, u32> {\n\
                     match self.inner.lock() { Ok(g) => g, Err(p) => p.into_inner() }\n\
                 }\n\
                 fn bad(&self) {\n\
                     let g = self.lock();\n\
                     let h = self.inner.lock().unwrap();\n\
                     drop(h); drop(g);\n\
                 }\n\
             }",
        );
        assert_eq!(rules(&vs), ["lock-order-cycle"], "{vs:?}");
        assert!(
            vs[0].message.contains("Q::inner") && vs[0].message.contains("re-acquired"),
            "wrapper and field acquisitions share one class: {}",
            vs[0].message
        );
    }

    #[test]
    fn self_calls_resolve_to_the_callers_own_impl() {
        // `Table::run` holds STATE and calls `self.poke()`. Only
        // `Table::poke` can run there; `Queue::poke`, which takes STATE,
        // shares the name but not the impl, so there is no re-acquisition
        // (before the fix, `self.poke()` resolved to both and reported one).
        for call in ["self.poke()", "Self::poke(self)"] {
            let vs = analyze_src(&format!(
                "struct Queue;\n\
                 impl Queue {{\n\
                     fn poke(&self) {{ let g = STATE.lock().unwrap(); drop(g); }}\n\
                 }}\n\
                 struct Table;\n\
                 impl Table {{\n\
                     fn poke(&self) {{}}\n\
                     fn run(&self) {{\n\
                         let g = STATE.lock().unwrap();\n\
                         {call};\n\
                         drop(g);\n\
                     }}\n\
                 }}"
            ));
            assert!(vs.is_empty(), "{call}: {vs:?}");
        }
        // A receiver that is not `self` itself, or an impl without its own
        // `poke`, keeps the conservative same-name rule.
        for (impl_poke, call) in [
            ("fn poke(&self) {}", "self.queue.poke()"),
            ("", "self.poke()"),
        ] {
            let vs = analyze_src(&format!(
                "struct Queue;\n\
                 impl Queue {{\n\
                     fn poke(&self) {{ let g = STATE.lock().unwrap(); drop(g); }}\n\
                 }}\n\
                 struct Table {{ queue: Queue }}\n\
                 impl Table {{\n\
                     {impl_poke}\n\
                     fn run(&self) {{\n\
                         let g = STATE.lock().unwrap();\n\
                         {call};\n\
                         drop(g);\n\
                     }}\n\
                 }}"
            ));
            assert_eq!(rules(&vs), ["lock-order-cycle"], "{call}: {vs:?}");
        }
    }

    #[test]
    fn guard_released_by_inner_block_before_blocking_is_clean() {
        // The pool.rs shape: guard confined to a block, blocking work after.
        let vs = analyze_src(
            "fn f() {\n\
                 {\n\
                     let map = POOLS.lock().unwrap();\n\
                     if map.is_some() { return; }\n\
                 }\n\
                 let b = rayon::ThreadPoolBuilder::new();\n\
                 b;\n\
             }",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn local_alias_of_a_static_resolves_to_the_static_class() {
        let vs = analyze_src(
            "fn f() {\n\
                 let pools = POOLS.get_or_init(init);\n\
                 let map = pools.lock().unwrap();\n\
                 std::thread::sleep(d());\n\
                 map;\n\
             }",
        );
        assert_eq!(rules(&vs), ["lock-across-blocking"]);
        assert!(vs[0].message.contains("fake::POOLS"), "{}", vs[0].message);
    }
}
