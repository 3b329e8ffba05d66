//! `perfbench prepare|measure --workload W --seed N [--seconds S] [--trace 0|1] --dir D`
//!
//! `prepare` writes the seeded input of a workload; `measure` runs it and
//! prints notes, the work counts, and — last — the result line. Exit code
//! 0 when every answer was right, 1 when one was wrong, 2 on a usage or
//! run error. `perfbench/run.py` drives both.

use std::path::PathBuf;
use std::process::ExitCode;

use pcover_perfbench::{inputs, run, Options, Size, Workload, END_TO_END, PER_LAYER};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench prepare|measure --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] --dir <dir>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage("missing command");
    };
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut dir = None;
    let mut it = args.iter().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload '{value}'")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed '{value}'")),
            },
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = s,
                _ => return usage(&format!("bad seconds '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace '{value}'")),
            },
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown option '{flag}'")),
        }
    }
    let (Some(workload), Some(seed), Some(dir)) = (workload, seed, dir) else {
        return usage("--workload, --seed and --dir are required");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        dir,
        plant: None,
    };
    match cmd.as_str() {
        "prepare" => match inputs::prepare(&opts) {
            Ok(desc) => {
                eprintln!("prepared {desc}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: prepare failed: {e}");
                ExitCode::from(2)
            }
        },
        "measure" => {
            let mut outcome = match run(&opts) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: {} failed: {e}", workload.name());
                    return ExitCode::from(2);
                }
            };
            for note in &outcome.notes {
                println!("# {note}");
            }
            for m in &outcome.mismatches {
                println!("# MISMATCH {m}");
            }
            println!("# work {}", outcome.work_line());
            println!("# timing-dependent {}", outcome.timing_line());
            let keep: Vec<&str> = if trace {
                PER_LAYER.iter().map(|(n, _)| *n).collect()
            } else {
                END_TO_END.iter().map(|(n, _)| *n).collect()
            };
            if trace {
                for m in outcome
                    .metrics
                    .iter()
                    .filter(|m| END_TO_END.iter().any(|(n, _)| *n == m.name))
                {
                    println!("# end-to-end (traced) {} {} {}", m.name, m.value, m.unit);
                }
            }
            outcome.metrics.retain(|m| keep.contains(&m.name.as_str()));
            println!("{}", outcome.result_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        other => usage(&format!("unknown command '{other}'")),
    }
}
