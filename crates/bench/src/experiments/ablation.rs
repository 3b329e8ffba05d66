//! Ablation — the solver family side by side.
//!
//! Not a figure from the paper: this quantifies the design choices
//! DESIGN.md calls out (lazy evaluation, sampling, streaming selection,
//! local-search refinement) on one mid-size instance, reporting cover,
//! work and wall time relative to the paper's plain greedy.
//!
//! The sweep iterates [`Registry::builtin`] rather than naming solvers, so
//! a newly registered solver shows up in this table automatically; entries
//! that cannot run at this scale or under this variant are listed as
//! skipped with the reason.

use pcover_core::{Registry, SolveCtx, SolverConfig, Variant};
use pcover_datagen::graphgen::{generate_graph, GraphGenConfig};

use crate::util::{fmt_duration, timed, Table};
use crate::Opts;

/// Runs the algorithm comparison.
pub fn run(opts: &Opts) -> String {
    let (n, k) = if opts.full {
        (100_000, 2000)
    } else {
        (20_000, 400)
    };
    let g = generate_graph(&GraphGenConfig {
        nodes: n,
        avg_out_degree: 5,
        seed: opts.seed,
        ..GraphGenConfig::default()
    })
    .expect("valid config");

    let variant = Variant::Independent;
    let config = SolverConfig {
        seed: opts.seed,
        max_swaps: 16,
        ..SolverConfig::default()
    };
    let registry = Registry::builtin();

    // Plain greedy is the paper's reference point for every row.
    let (plain, plain_time) = timed(|| {
        registry
            .get("greedy")
            .expect("greedy is built in")
            .solve(variant, &g, k, &mut SolveCtx::new(config))
            .expect("valid k")
    });

    let mut t = Table::new(["algorithm", "cover", "vs plain", "gain evals", "time"]);
    let mut skipped: Vec<String> = Vec::new();
    for spec in registry.specs() {
        if !spec.caps.variants.supports(variant) {
            skipped.push(format!(
                "{} (does not support {})",
                spec.name,
                variant.name()
            ));
            continue;
        }
        if spec.caps.exact {
            skipped.push(format!(
                "{} (exact search, infeasible at n = {n})",
                spec.name
            ));
            continue;
        }
        let (report, time) = if spec.name == "greedy" {
            (plain.clone(), plain_time)
        } else {
            timed(|| {
                spec.solve(variant, &g, k, &mut SolveCtx::new(config))
                    .expect("valid k")
            })
        };
        t.row([
            spec.name.to_string(),
            format!("{:.4}", report.cover),
            format!(
                "{:+.3}%",
                100.0 * (report.cover - plain.cover) / plain.cover
            ),
            report.gain_evaluations.to_string(),
            fmt_duration(time),
        ]);
    }

    let mut out = format!("## Ablation — solver family (n = {n}, k = {k}, Independent)\n\n");
    out.push_str(&t.render());
    if !skipped.is_empty() {
        out.push_str(&format!("\nskipped: {}\n", skipped.join("; ")));
    }
    out.push_str(
        "\nlazy/delta/parallel return plain's answer bit for bit; stochastic trades a\n\
         bounded expected loss for k-independent work; sieve pays ~half the cover for a single\n\
         pass; local search refines lazy's output by best-improvement swaps (16 max here).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "seconds in release, minutes in debug; run with --ignored"]
    fn ablation_runs() {
        let out = run(&Opts::default());
        assert!(out.contains("lazy"));
        assert!(out.contains("skipped: "));
    }
}
