//! The semantic audit pass (`cargo run -p xtask -- audit`).
//!
//! Seven rule families layered on the item index ([`crate::ast`]) and call
//! graph ([`crate::callgraph`]) that the lexical lint pass cannot express:
//!
//! - **`panic-path`** — no public function of `pcover_core` may
//!   transitively reach an unwaived panicking construct; violations carry
//!   the shortest call chain to the site.
//! - **`par-argmax`** / **`par-float-accum`** / **`par-shared-state`** —
//!   inside rayon combinator call chains, raw float argmax comparisons and
//!   float accumulation must route through the audited helpers in
//!   `pcover_core::float` (`improves_argmax`, `cmp_gain`, `sum_stable`),
//!   and interior-mutability types (`Mutex`/`RefCell`/atomics) must not be
//!   used for aggregation. These are the static side of the paper's
//!   "parallel output is identical to sequential" claim.
//! - **`solver-dispatch`** — downstream layers (CLI, bench experiments,
//!   adapt, examples, the facade) must route solver invocations through
//!   the `pcover_core::Registry` / `SolverSpec::solve` harness rather than
//!   calling `greedy::solve`-style free functions directly, so every entry
//!   point gets the shared config/observer plumbing and every solver added
//!   to the registry is reachable everywhere with no downstream edits.
//!   `pcover-core` itself and the criterion benches (which measure the raw
//!   free functions against the harness) are out of scope.
//! - **`unsafe-scope`** — `unsafe` tokens are pinned to the one audited
//!   module allowed to contain them (`crates/store/src/mmap.rs`, the mmap
//!   wrapper behind the zero-copy container path). The store crate root
//!   carries `#![deny(unsafe_code)]` instead of the workspace-wide
//!   `forbid` precisely so that module can `allow` it; this rule is what
//!   keeps the relaxation from leaking anywhere else.
//! - **`lock-order-cycle`** / **`lock-across-blocking`** /
//!   **`condvar-misuse`** / **`guard-across-callback`** — the concurrency
//!   pass ([`crate::lockgraph`]): guard scopes are tracked lexically, lock
//!   acquisition order is propagated over the call graph into a workspace
//!   order graph, and guards must not be held across indefinitely-blocking
//!   operations or user callbacks; condvar waits need predicate loops and
//!   notifies need the associated lock. Diagnostics carry the same
//!   shortest-call-chain provenance as `panic-path`.
//! - **`alloc-in-hot-loop`** / **`alloc-per-request`** /
//!   **`copy-in-kernel`** / **`growable-unreserved`** — the hot-path
//!   allocation pass ([`crate::heatpath`]): hot regions are computed by
//!   call-graph reachability from the solver solve-family entry points,
//!   the serve `worker_loop`, and the gain/cover kernels; heap
//!   allocations and copies inside them (attributed to the innermost
//!   enclosing loop) must be hoisted into reusable scratch. Diagnostics
//!   carry the same shortest-call-chain provenance as `panic-path`.
//! - **`stale-waiver`** / **`shadowed-waiver`** — every waiver must still
//!   suppress at least one raw finding, and a line waiver fully covered by
//!   an enclosing `allow-file` must be removed.
//! - **`api-drift`** — the per-crate public surface must match the
//!   committed snapshots in `crates/xtask/api/` (see
//!   [`crate::api_snapshot`]).
//!
//! Findings for the panic, parallel, dispatch, and concurrency rules are
//! waivable with the normal `// lint: allow(<rule>) — <reason>` grammar;
//! the hygiene and drift rules are not (see
//! [`crate::rules::WAIVABLE_AUDIT_RULES`]).

use std::collections::BTreeMap;
use std::path::Path;

use crate::api_snapshot::{self, SnapshotInput};
use crate::ast::{self, FileAst};
use crate::callgraph::{self, FileInput};
use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::rules::{
    classify, names_cover_value, parse_waivers, raw_violations, Violation, Waiver,
    WAIVABLE_AUDIT_RULES,
};

/// One workspace file handed to the audit: relative path plus contents.
pub struct AuditFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// File contents.
    pub src: String,
}

/// Result of a whole-workspace audit.
#[derive(Debug, Default)]
pub struct AuditOutcome {
    /// Findings that survived waiver matching, sorted by (file, line).
    pub violations: Vec<Violation>,
    /// Audit findings suppressed by waivers.
    pub waivers_used: usize,
    /// Snapshot files (re)written when blessing; empty otherwise.
    pub blessed: Vec<String>,
}

/// The panic-family lint rules whose unwaived findings seed reachability.
const PANIC_RULES: [&str; 4] = ["no-unwrap", "no-expect", "no-panic", "no-index"];

/// The crate whose public surface must be panic-free.
const PANIC_FREE_CRATE: &str = "core";

/// Rayon combinator entry points that start a parallel call chain.
const PAR_ENTRIES: [&str; 7] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_bridge",
    "par_extend",
];

/// Interior-mutability types that must not aggregate parallel results.
const SHARED_STATE_TYPES: [&str; 4] = ["Mutex", "RwLock", "RefCell", "Cell"];

/// Method names that betray shared-state aggregation even when the type
/// was declared outside the rayon region (`m.lock()`, `a.fetch_add(..)`).
/// `swap`/`get_mut` are deliberately absent: they are common on plain
/// collections and would drown the rule in false positives.
const SHARED_STATE_METHODS: [&str; 11] = [
    "lock",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
];

/// Solver modules whose free functions must not be called directly from
/// the dispatch-scoped layers (rule `solver-dispatch`). Shared with the
/// hot-path pass ([`crate::heatpath`]), whose solve-family entry points
/// live in these modules.
pub(crate) const DISPATCH_MODULES: [&str; 11] = [
    "greedy",
    "lazy",
    "delta",
    "parallel",
    "partitioned",
    "streaming",
    "stochastic",
    "brute_force",
    "local_search",
    "baselines",
    "maxvc",
];

/// The solver entry points covered by `solver-dispatch`. Other functions in
/// the same modules (`brute_force::subset_count`, `evaluate_selection`, the
/// extension solvers) are utilities the registry deliberately does not
/// wrap, and stay callable.
const DISPATCH_FNS: [&str; 8] = [
    "solve",
    "refine",
    "top_k_weight",
    "top_k_coverage",
    "random",
    "random_best_of",
    "solve_low_memory_normalized",
    "resolve_warm",
];

/// Path prefixes where `solver-dispatch` applies: every layer downstream
/// of `pcover-core`. `crates/bench/src/` covers the experiment binaries but
/// not `crates/bench/benches/`, whose criterion benches compare the raw
/// free functions against the registry harness by design.
const DISPATCH_SCOPES: [&str; 6] = [
    "crates/cli/src/",
    "crates/bench/src/",
    "crates/adapt/src/",
    "crates/serve/src/",
    "examples/",
    "src/",
];

/// Runs the full audit. `bless` rewrites the API snapshots instead of
/// diffing against them.
pub fn run(root: &Path, files: &[AuditFile], bless: bool) -> AuditOutcome {
    let mut out = AuditOutcome::default();

    // Lex/parse each file once; everything downstream shares the results.
    let lexed: Vec<Lexed> = files.iter().map(|f| lex(&f.src)).collect();
    let asts: Vec<FileAst> = lexed.iter().map(|l| ast::parse(&l.tokens)).collect();
    let waivers: Vec<Vec<Waiver>> = files
        .iter()
        .zip(&lexed)
        .map(|(f, l)| {
            // Malformed waivers are the lint pass's finding (waiver-form);
            // the audit only needs the well-formed ones.
            let mut scratch = Vec::new();
            parse_waivers(&f.rel, &l.comments, &mut scratch)
        })
        .collect();
    let lint_raw: Vec<Vec<Violation>> = files
        .iter()
        .zip(&lexed)
        .map(|(f, l)| raw_violations(&f.rel, l))
        .collect();

    // --- Rule family 1: panic reachability -------------------------------
    let inputs: Vec<FileInput<'_>> = files
        .iter()
        .enumerate()
        .map(|(i, f)| FileInput {
            rel: &f.rel,
            tokens: &lexed[i].tokens,
            ast: &asts[i],
            panic_sites: lint_raw[i]
                .iter()
                .filter(|v| {
                    PANIC_RULES.contains(&v.rule)
                        && !waivers[i].iter().any(|w| w.covers(v.rule, v.line))
                })
                .map(|v| (v.line, v.rule))
                .collect(),
        })
        .collect();
    let graph = callgraph::build(&inputs);
    let mut raw_audit: Vec<Vec<Violation>> = vec![Vec::new(); files.len()];
    for p in graph.panic_reachable_pubs(PANIC_FREE_CRATE) {
        let Some(fi) = files.iter().position(|f| f.rel == p.file) else {
            continue;
        };
        raw_audit[fi].push(Violation {
            rule: "panic-path",
            file: p.file.clone(),
            line: p.line,
            message: format!(
                "public fn `{}` can panic: {} — site at {}:{} ({}); return SolveError or waive the site",
                p.chain.first().map(String::as_str).unwrap_or("?"),
                p.chain.join(" -> "),
                p.site.file,
                p.site.line,
                p.site.rule,
            ),
        });
    }

    // --- Rule family 2: determinism inside rayon regions -----------------
    for (i, f) in files.iter().enumerate() {
        determinism_findings(&f.rel, &lexed[i].tokens, &mut raw_audit[i]);
    }

    // --- Rule family 3: registry dispatch in downstream layers -----------
    for (i, f) in files.iter().enumerate() {
        solver_dispatch_findings(&f.rel, &lexed[i].tokens, &mut raw_audit[i]);
    }

    // --- Rule family 3b: unsafe confined to the audited mmap module ------
    for (i, f) in files.iter().enumerate() {
        unsafe_scope_findings(&f.rel, &lexed[i].tokens, &mut raw_audit[i]);
    }

    // --- Rule family 4: concurrency safety (lockgraph) -------------------
    // Guard scopes, the workspace lock-order graph, and condvar/callback
    // discipline, over the same call graph as panic reachability. Routed
    // through `raw_audit` so waivers on these findings count as live.
    for v in crate::lockgraph::analyze(&inputs, &graph) {
        if let Some(fi) = files.iter().position(|f| f.rel == v.file) {
            raw_audit[fi].push(v);
        }
    }

    // --- Rule family 5: hot-path allocation discipline (heatpath) --------
    // Reachability from the solver/serve/kernel hot entry points, with
    // allocations attributed to their innermost enclosing loop. Routed
    // through `raw_audit` so waivers on these findings count as live.
    for v in crate::heatpath::analyze(&inputs, &graph) {
        if let Some(fi) = files.iter().position(|f| f.rel == v.file) {
            raw_audit[fi].push(v);
        }
    }

    // --- Rule family 6: pub-surface snapshots ----------------------------
    let snap_inputs: Vec<SnapshotInput<'_>> = files
        .iter()
        .zip(&asts)
        .map(|(f, a)| SnapshotInput {
            rel: &f.rel,
            ast: a,
        })
        .collect();
    let rendered: BTreeMap<String, String> = api_snapshot::render(&snap_inputs);
    if bless {
        match api_snapshot::bless(root, &rendered) {
            Ok(written) => out.blessed = written,
            Err(e) => out.violations.push(Violation {
                rule: "api-drift",
                file: api_snapshot::SNAPSHOT_DIR.to_string(),
                line: 1,
                message: format!("failed to write API snapshots: {e}"),
            }),
        }
    } else {
        for d in api_snapshot::check(root, &rendered) {
            out.violations.push(Violation {
                rule: "api-drift",
                file: d.snapshot,
                line: 1,
                message: d.detail,
            });
        }
    }

    // --- Rule family 7: waiver hygiene -----------------------------------
    // A waiver is live when some raw finding (lint or audit, pre-waiver)
    // sits under it; otherwise it is stale. This runs after the audit raw
    // findings exist so `allow(par-argmax)` etc. count as live.
    for (i, f) in files.iter().enumerate() {
        let file_level_rules: Vec<&str> = waivers[i]
            .iter()
            .filter(|w| w.file_level)
            .flat_map(|w| w.rules.iter().map(String::as_str))
            .collect();
        for w in &waivers[i] {
            let live = lint_raw[i]
                .iter()
                .chain(raw_audit[i].iter())
                .any(|v| w.covers(v.rule, v.line));
            if !live {
                raw_audit[i].push(Violation {
                    rule: "stale-waiver",
                    file: f.rel.clone(),
                    line: w.line,
                    message: format!(
                        "waiver for {:?} suppresses nothing — the waived construct is gone; delete the waiver",
                        w.rules
                    ),
                });
                continue;
            }
            if !w.file_level
                && w.rules
                    .iter()
                    .all(|r| file_level_rules.contains(&r.as_str()))
            {
                raw_audit[i].push(Violation {
                    rule: "shadowed-waiver",
                    file: f.rel.clone(),
                    line: w.line,
                    message: format!(
                        "line waiver for {:?} is fully covered by an `allow-file` in this file; delete the line waiver",
                        w.rules
                    ),
                });
            }
        }
    }

    // --- Waiver matching for the waivable audit rules --------------------
    for (i, found) in raw_audit.into_iter().enumerate() {
        for v in found {
            let waivable = WAIVABLE_AUDIT_RULES.contains(&v.rule);
            if waivable && waivers[i].iter().any(|w| w.covers(v.rule, v.line)) {
                out.waivers_used += 1;
            } else {
                out.violations.push(v);
            }
        }
    }
    out.violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Scans one file for determinism findings inside rayon regions.
fn determinism_findings(rel: &str, tokens: &[Tok], out: &mut Vec<Violation>) {
    // float.rs hosts the audited helpers themselves.
    if classify(rel).float_approved {
        return;
    }
    let in_test = crate::rules::test_region_mask(tokens);
    for (lo, hi) in rayon_regions(tokens) {
        let mut i = lo;
        while i <= hi && i < tokens.len() {
            let t = &tokens[i];
            if in_test.get(i).copied().unwrap_or(false) {
                i += 1;
                continue;
            }
            // Skip turbofish generic argument lists wholesale so `<`/`>`
            // inside `collect::<Vec<_>>()` or `gain::<M>(..)` never read as
            // comparisons.
            if t.text == "::" && tokens.get(i + 1).is_some_and(|n| n.text == "<") {
                let mut angle = 1i64;
                let mut j = i + 2;
                while j < tokens.len() && j <= hi && angle > 0 {
                    match tokens[j].text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
            match t.text.as_str() {
                "<" | ">" | "<=" | ">=" if t.kind == TokKind::Op => {
                    if let Some(name) = nearby_cover_ident(tokens, i, 6) {
                        out.push(Violation {
                            rule: "par-argmax",
                            file: rel.to_string(),
                            line: t.line,
                            message: format!(
                                "raw `{}` on `{name}` inside a rayon region; route the argmax \
                                 through pcover_core::float::improves_argmax/cmp_gain so ties \
                                 break identically to the sequential solver",
                                t.text
                            ),
                        });
                    }
                }
                "+=" => {
                    let lhs = tokens[..i]
                        .iter()
                        .rev()
                        .find(|p| p.kind == TokKind::Ident)
                        .map(|p| p.text.as_str())
                        .unwrap_or("");
                    if names_cover_value(lhs) {
                        out.push(Violation {
                            rule: "par-float-accum",
                            file: rel.to_string(),
                            line: t.line,
                            message: format!(
                                "float accumulation `{lhs} +=` inside a rayon region; \
                                 order-dependent rounding breaks bit-identical output — use \
                                 pcover_core::float::sum_stable on a deterministic order"
                            ),
                        });
                    }
                }
                "sum" if t.kind == TokKind::Ident => {
                    let is_call = i > 0
                        && tokens[i - 1].text == "."
                        && tokens.get(i + 1).is_some_and(|n| n.text == "(");
                    // The summed expression sits in a preceding `.map(..)`
                    // closure, so look farther back than the comparison rule.
                    if is_call && nearby_cover_ident(tokens, i, 14).is_some() {
                        out.push(Violation {
                            rule: "par-float-accum",
                            file: rel.to_string(),
                            line: t.line,
                            message: "`.sum()` over cover/gain values inside a rayon region; \
                                      reduction order is nondeterministic — collect in a fixed \
                                      order and use pcover_core::float::sum_stable"
                                .to_string(),
                        });
                    }
                }
                _ if t.kind == TokKind::Ident
                    && (SHARED_STATE_TYPES.contains(&t.text.as_str())
                        || t.text.starts_with("Atomic")
                        || (SHARED_STATE_METHODS.contains(&t.text.as_str())
                            && i > 0
                            && tokens[i - 1].text == "."
                            && tokens.get(i + 1).is_some_and(|n| n.text == "("))) =>
                {
                    out.push(Violation {
                        rule: "par-shared-state",
                        file: rel.to_string(),
                        line: t.line,
                        message: format!(
                            "`{}` inside a rayon region; aggregate via map/reduce return values \
                             (deterministic combine), not shared mutable state",
                            t.text
                        ),
                    });
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// Scans one file for direct solver free-function calls that bypass the
/// registry (`solver-dispatch`): the token sequence
/// `<solver module> :: <entry fn>` in a dispatch-scoped, non-test region.
/// Method calls (`spec.solve(..)`) are preceded by `.`, not `::`, and never
/// match; paths through other modules (`minimize::`, `revenue::`,
/// `pinned::`) are not in [`DISPATCH_MODULES`].
fn solver_dispatch_findings(rel: &str, tokens: &[Tok], out: &mut Vec<Violation>) {
    if !DISPATCH_SCOPES.iter().any(|s| rel.starts_with(s)) {
        return;
    }
    let in_test = crate::rules::test_region_mask(tokens);
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !DISPATCH_MODULES.contains(&t.text.as_str())
            || in_test.get(i).copied().unwrap_or(false)
        {
            continue;
        }
        // `use pcover_core::greedy;` style imports are fine — only the
        // call path `module::fn` is a dispatch bypass.
        let callee = match (tokens.get(i + 1), tokens.get(i + 2)) {
            (Some(sep), Some(name))
                if sep.text == "::"
                    && name.kind == TokKind::Ident
                    && DISPATCH_FNS.contains(&name.text.as_str()) =>
            {
                &name.text
            }
            _ => continue,
        };
        out.push(Violation {
            rule: "solver-dispatch",
            file: rel.to_string(),
            line: t.line,
            message: format!(
                "direct call `{}::{callee}` bypasses the solver registry; resolve a \
                 SolverSpec via Registry::builtin().get(..) and call spec.solve(..) so \
                 the shared config/observer harness applies",
                t.text
            ),
        });
    }
}

/// The only files allowed to contain `unsafe` tokens: the audited mmap
/// wrapper behind `pcover-store`'s zero-copy load path. Everything else in
/// the workspace lives under `#![forbid(unsafe_code)]` (or, for the store
/// crate root, `#![deny(unsafe_code)]`), and this rule is the cross-check
/// that the allowance never spreads.
const UNSAFE_ALLOWED_FILES: [&str; 1] = ["crates/store/src/mmap.rs"];

/// Scans one file for `unsafe` tokens outside the allowed module
/// (`unsafe-scope`). Test regions are *not* exempt: unsafe in a test is
/// still unsafe, and the allowed-module list is the only escape hatch
/// (besides a reviewed waiver).
fn unsafe_scope_findings(rel: &str, tokens: &[Tok], out: &mut Vec<Violation>) {
    if UNSAFE_ALLOWED_FILES.contains(&rel) {
        return;
    }
    for t in tokens {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            out.push(Violation {
                rule: "unsafe-scope",
                file: rel.to_string(),
                line: t.line,
                message: format!(
                    "`unsafe` outside the audited mmap module ({}); move the code there \
                     or waive with a reviewed justification",
                    UNSAFE_ALLOWED_FILES[0]
                ),
            });
        }
    }
}

/// Identifier naming a cover/gain value within `window` code tokens on
/// either side of `i`, stopping at statement boundaries.
fn nearby_cover_ident(tokens: &[Tok], i: usize, window: usize) -> Option<&str> {
    let boundary = |tok: &Tok| matches!(tok.text.as_str(), ";" | "{" | "}");
    let before = tokens[..i]
        .iter()
        .rev()
        .take(window)
        .take_while(|t| !boundary(t));
    let after = tokens
        .iter()
        .skip(i + 1)
        .take(window)
        .take_while(|t| !boundary(t));
    before
        .chain(after)
        // lint: allow(float-eq) — compares token kinds and identifier names, not float values
        .find(|t| t.kind == TokKind::Ident && names_cover_value(&t.text))
        .map(|t| t.text.as_str())
}

/// Token index ranges `[lo, hi]` of rayon combinator call chains: from a
/// `par_*` entry point to the end of its statement (a `;` at the entry's
/// bracket depth, or the close bracket that ends the enclosing expression).
pub(crate) fn rayon_regions(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions: Vec<(usize, usize)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || !PAR_ENTRIES.contains(&t.text.as_str()) {
            continue;
        }
        if let Some((_, hi)) = regions.last() {
            if i <= *hi {
                continue; // already inside an open region
            }
        }
        let mut depth = 0i64;
        let mut j = i;
        while j < tokens.len() {
            match tokens[j].kind {
                TokKind::Open => depth += 1,
                TokKind::Close => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                _ if tokens[j].text == ";" && depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        regions.push((i, j.saturating_sub(1).max(i)));
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_single(rel: &str, src: &str) -> AuditOutcome {
        // A nonexistent root: api-drift then reports "no snapshot", which
        // the per-rule tests filter out.
        let root = Path::new("/nonexistent-xtask-audit-test-root");
        let mut out = run(
            root,
            &[AuditFile {
                rel: rel.to_string(),
                src: src.to_string(),
            }],
            false,
        );
        out.violations.retain(|v| v.rule != "api-drift");
        out
    }

    fn rules_of(out: &AuditOutcome) -> Vec<&'static str> {
        out.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn par_argmax_fires_on_raw_comparison() {
        let src = "fn f(xs: &[f64]) {\n\
                   let _ = xs.par_iter().map(|gain| if *gain > best_gain { 1 } else { 0 });\n\
                   }\n";
        let out = audit_single("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&out), ["par-argmax"]);
        assert_eq!(out.violations[0].line, 2);
    }

    #[test]
    fn par_argmax_ignores_turbofish_and_non_cover_names() {
        let src = "fn f(xs: &[u64]) {\n\
                   let v: Vec<u64> = xs.par_iter().map(|x| state.gain::<M>(g, *x) as u64).collect::<Vec<u64>>();\n\
                   let _ = xs.par_iter().filter(|x| **x > threshold);\n\
                   }\n";
        let out = audit_single("crates/core/src/x.rs", src);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn par_float_accum_fires_on_plus_eq_and_sum() {
        let src = "fn f(xs: &[f64]) {\n\
                   let mut cover_total = 0.0;\n\
                   xs.par_iter().for_each(|g| cover_total += *g);\n\
                   let c: f64 = xs.par_iter().map(|g| gain_of(*g)).sum();\n\
                   }\n";
        let out = audit_single("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&out), ["par-float-accum", "par-float-accum"]);
    }

    #[test]
    fn integer_accumulators_stay_silent() {
        let src = "fn f(xs: &[u64]) {\n\
                   let mut ops = 0u64;\n\
                   xs.par_iter().for_each(|x| ops += *x);\n\
                   }\n";
        let out = audit_single("crates/core/src/x.rs", src);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn par_shared_state_fires_on_mutex_and_atomics() {
        let src = "fn f(xs: &[u64]) {\n\
                   let m = Mutex::new(0u64);\n\
                   xs.par_iter().for_each(|x| { *m.lock().unwrap_or_else(|e| e.into_inner()) += x; });\n\
                   let a = AtomicU64::new(0);\n\
                   xs.par_iter().for_each(|x| { a.fetch_add(*x, Ordering::Relaxed); });\n\
                   }\n";
        let out = audit_single("crates/adapt/src/x.rs", src);
        // The declarations sit outside the regions, so it is the in-region
        // `.lock()` and `.fetch_add(..)` calls that fire — one per region.
        assert_eq!(rules_of(&out), ["par-shared-state", "par-shared-state"]);
        assert!(out.violations[0].message.contains("`lock`"));
        assert!(out.violations[1].message.contains("`fetch_add`"));
    }

    #[test]
    fn sequential_comparisons_outside_regions_stay_silent() {
        let src = "fn f(gain: f64, best_gain: f64) -> bool { gain > best_gain }\n";
        let out = audit_single("crates/core/src/x.rs", src);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn determinism_findings_are_waivable() {
        let src = "fn f(xs: &[f64]) {\n\
                   // lint: allow(par-argmax) — argmax verified commutative in tests\n\
                   let _ = xs.par_iter().map(|gain| if *gain > best_gain { 1 } else { 0 });\n\
                   }\n";
        let out = audit_single("crates/core/src/x.rs", src);
        // The waiver suppresses the finding and is itself live (not stale).
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.waivers_used, 1);
    }

    #[test]
    fn stale_and_shadowed_waivers_reported() {
        let src = "// lint: allow-file(no-index) — dense ids\n\
                   fn f(xs: &[u64]) -> u64 {\n\
                   // lint: allow(no-index) — shadowed by the file waiver\n\
                   xs[0]\n\
                   }\n\
                   // lint: allow(no-unwrap) — nothing unwraps here anymore\n\
                   fn g() {}\n";
        let out = audit_single("crates/core/src/x.rs", src);
        let mut rules = rules_of(&out);
        rules.sort_unstable();
        assert_eq!(rules, ["shadowed-waiver", "stale-waiver"]);
    }

    #[test]
    fn panic_path_reported_with_chain_and_waivable() {
        let src = "pub fn entry() { helper_a(); }\n\
                   fn helper_a() { helper_b(); }\n\
                   fn helper_b(v: Option<u32>) -> u32 { v.unwrap() }\n";
        let out = audit_single("crates/core/src/lib.rs", src);
        assert_eq!(rules_of(&out), ["panic-path"]);
        assert!(out.violations[0]
            .message
            .contains("entry -> helper_a -> helper_b"));
        assert!(out.violations[0].message.contains("no-unwrap"));

        let waived = format!("// lint: allow(panic-path) — verified unreachable\n{src}");
        let out = audit_single("crates/core/src/lib.rs", &waived);
        // entry's panic-path is waived; helper_b's raw no-unwrap still seeds
        // the graph but only pub fns are reported.
        assert!(
            out.violations.iter().all(|v| v.rule != "panic-path"),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn waived_panic_site_clears_panic_path() {
        let src = "pub fn entry() { helper(); }\n\
                   fn helper(v: Option<u32>) -> u32 {\n\
                   // lint: allow(no-unwrap) — invariant: caller checked Some\n\
                   v.unwrap()\n\
                   }\n";
        let out = audit_single("crates/core/src/lib.rs", src);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn solver_dispatch_fires_on_direct_calls_in_scoped_layers() {
        let src = "fn f(g: &G, k: usize) {\n\
                   let a = pcover_core::greedy::solve::<Independent>(g, k);\n\
                   let b = baselines::top_k_weight(g, k);\n\
                   }\n";
        for rel in [
            "crates/cli/src/commands.rs",
            "crates/bench/src/experiments/x.rs",
            "crates/adapt/src/engine.rs",
            "examples/quickstart.rs",
            "src/lib.rs",
        ] {
            let out = audit_single(rel, src);
            assert_eq!(
                rules_of(&out),
                ["solver-dispatch", "solver-dispatch"],
                "{rel}: {:?}",
                out.violations
            );
            assert!(out.violations[0].message.contains("greedy::solve"));
            assert!(out.violations[1]
                .message
                .contains("baselines::top_k_weight"));
        }
    }

    #[test]
    fn solver_dispatch_ignores_core_benches_and_registry_calls() {
        let direct = "fn f(g: &G, k: usize) { let a = lazy::solve::<Normalized>(g, k); }\n";
        // pcover-core hosts the solvers themselves; the criterion benches
        // compare raw free functions against the harness by design.
        for rel in [
            "crates/core/src/solver.rs",
            "crates/bench/benches/gain_addnode.rs",
            "crates/xtask/src/audit_rules.rs",
        ] {
            let out = audit_single(rel, direct);
            assert!(out.violations.is_empty(), "{rel}: {:?}", out.violations);
        }
        // Registry dispatch, non-entry utilities, and imports stay legal.
        let fine = "use pcover_core::brute_force;\n\
                    fn f(spec: &SolverSpec, g: &G, k: usize) {\n\
                    let n = brute_force::subset_count(10, 2);\n\
                    let r = spec.solve(Variant::Independent, g, k, &mut SolveCtx::default());\n\
                    let _ = (n, r);\n\
                    }\n";
        let out = audit_single("crates/bench/src/experiments/fig4b.rs", fine);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn solver_dispatch_skips_test_regions_and_is_waivable() {
        let in_test = "#[cfg(test)]\nmod tests {\n\
                       fn t(g: &G) { let _ = greedy::solve::<Independent>(g, 2); }\n\
                       }\n";
        let out = audit_single("crates/cli/src/commands.rs", in_test);
        assert!(out.violations.is_empty(), "{:?}", out.violations);

        let waived = "fn f(g: &G, k: usize) {\n\
                      // lint: allow(solver-dispatch) — needs the WorkStats side channel\n\
                      let a = parallel::solve::<Independent>(g, k, 4);\n\
                      }\n";
        let out = audit_single("crates/bench/src/experiments/fig4e.rs", waived);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.waivers_used, 1);
    }

    #[test]
    fn unsafe_scope_fires_everywhere_but_the_mmap_module() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        for rel in [
            "crates/store/src/container.rs",
            "crates/graph/src/graph.rs",
            "crates/serve/src/server.rs",
        ] {
            let out = audit_single(rel, src);
            assert_eq!(rules_of(&out), ["unsafe-scope"], "{rel}");
            assert!(out.violations[0].message.contains("mmap"));
        }
        let out = audit_single("crates/store/src/mmap.rs", src);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn unsafe_scope_fires_in_test_regions_and_is_waivable() {
        let in_test = "#[cfg(test)]\nmod tests {\n\
                       fn t(p: *const u8) -> u8 { unsafe { *p } }\n\
                       }\n";
        let out = audit_single("crates/store/src/writer.rs", in_test);
        assert_eq!(rules_of(&out), ["unsafe-scope"]);

        let waived = "// lint: allow(unsafe-scope) — FFI probe audited in review\n\
                      fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let out = audit_single("crates/store/src/writer.rs", waived);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.waivers_used, 1);
    }

    #[test]
    fn rayon_region_extent_stops_at_statement_end() {
        let lexed = lex("let a = xs.par_iter().map(f).collect::<Vec<_>>(); let gain = g > h;");
        let regions = rayon_regions(&lexed.tokens);
        assert_eq!(regions.len(), 1);
        let (_, hi) = regions[0];
        // The `>` of the second statement (the last one — earlier `>`s
        // belong to the turbofish) must be outside the region.
        let gt = lexed
            .tokens
            .iter()
            .rposition(|t| t.text == ">" && t.kind == TokKind::Op)
            .unwrap_or(0);
        assert!(gt > hi);
    }
}
