//! Process-level tests of the `pcover` binary: exit codes, usage text, and
//! stderr shape per subcommand, driven through `std::process::Command` so the
//! real `main` (not just the library) is under test.
//!
//! Exit-code contract:
//! - 0: command ran and printed its report
//! - 1: the command itself failed (bad file, impossible `k`, ...)
//! - 2: the command line could not be parsed (usage error); HELP on stderr

use std::path::PathBuf;
use std::process::{Command, Output};

fn pcover(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pcover"))
        .args(args)
        .output()
        .expect("spawn pcover")
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("pcover-proc-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn help_exits_zero_and_lists_subcommands() {
    for args in [&["help"][..], &["--help"][..]] {
        let out = pcover(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        for sub in [
            "generate",
            "diagnose",
            "adapt",
            "stats",
            "solve",
            "minimize",
            "repair",
            "export-dot",
            "closure",
            "delta",
            "serve",
            "convert",
            "probe",
            "gen-graph",
            "bench-snapshot",
        ] {
            assert!(text.contains(sub), "{args:?} help missing {sub}");
        }
        assert!(
            !text.contains("loadgen"),
            "{args:?} help still names loadgen"
        );
    }
}

#[test]
fn usage_errors_exit_2_with_help_on_stderr() {
    // No subcommand at all.
    let out = pcover(&[]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing subcommand"), "{err}");
    assert!(err.contains("USAGE"), "usage text should follow the error");

    // Option before subcommand.
    let out = pcover(&["--k", "10"]);
    assert_eq!(out.status.code(), Some(2));

    // Stray positional after the subcommand.
    let out = pcover(&["solve", "stray"]);
    assert_eq!(out.status.code(), Some(2));

    // Duplicate option.
    let out = pcover(&["solve", "--k", "1", "--k", "2"]);
    assert_eq!(out.status.code(), Some(2));

    // An option the subcommand does not take: a typo of `--repeats`, and
    // the removed `--warm`. Neither may run the grid and write `--out`.
    for (bad, args) in [
        ("--repeat", &["--grid", "small", "--repeat", "5"][..]),
        ("--warm", &["--warm"][..]),
    ] {
        let snapshot = tmp(&format!("rejected{bad}.json"));
        let mut argv = vec!["bench-snapshot", "--out", &snapshot];
        argv.extend(args);
        let out = pcover(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(bad), "{argv:?}: {err}");
        assert!(err.contains("USAGE"), "{argv:?}: usage text should follow");
        assert!(out.stdout.is_empty(), "{argv:?}");
        assert!(
            !PathBuf::from(&snapshot).exists(),
            "{argv:?} wrote a snapshot"
        );
    }

    // A flag given a value, and a valued option given none. Neither may
    // run and write its `--out`.
    for (bad, line) in [
        (
            "--normalized",
            "gen-graph --nodes 200 --degree 3 --seed 9 --normalized yes",
        ),
        ("--graph", "solve --graph --k 3 --variant independent"),
    ] {
        let written = tmp(&format!("rejected{bad}.json"));
        let mut argv: Vec<&str> = line.split_whitespace().collect();
        argv.extend(["--out", &written]);
        let out = pcover(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(bad), "{argv:?}: {err}");
        assert!(err.contains("USAGE"), "{argv:?}: usage text should follow");
        assert!(out.stdout.is_empty(), "{argv:?}");
        assert!(!PathBuf::from(&written).exists(), "{argv:?} wrote --out");
    }
}

#[test]
fn run_errors_exit_1_with_message_on_stderr() {
    // Unknown subcommands (including the removed `loadgen`) parse fine but
    // fail dispatch.
    for sub in ["frobnicate", "loadgen"] {
        let out = pcover(&[sub]);
        assert_eq!(out.status.code(), Some(1), "{sub}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"),
            "{sub}"
        );
    }

    // Missing input file.
    let out = pcover(&["stats", "--graph", "/nonexistent/graph.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    // Missing required option.
    let out = pcover(&["solve", "--k", "3"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--graph"));
}

#[test]
fn generate_adapt_solve_pipeline_exits_zero() {
    let sessions = tmp("pipe.jsonl");
    let graph = tmp("pipe-graph.json");

    let out = pcover(&[
        "generate",
        "--profile",
        "YC",
        "--scale",
        "0.002",
        "--seed",
        "5",
        "--out",
        &sessions,
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("generated"));

    let out = pcover(&[
        "adapt",
        "--input",
        &sessions,
        "--variant",
        "independent",
        "--out",
        &graph,
    ]);
    assert_eq!(out.status.code(), Some(0));

    let out = pcover(&[
        "solve",
        "--graph",
        &graph,
        "--k",
        "5",
        "--variant",
        "independent",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("retained 5"));

    // Impossible k on the same graph: run error, exit 1.
    let out = pcover(&[
        "solve",
        "--graph",
        &graph,
        "--k",
        "999999",
        "--variant",
        "independent",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("exceeds"));
}

/// Table-driven end-to-end coverage of the container commands: every row is
/// one process invocation with the expected exit code and a substring that
/// must appear on the expected stream.
#[test]
fn container_commands_exit_codes_and_messages() {
    // Seed one JSON graph and one container through the binary itself.
    let json = tmp("table-graph.json");
    let container = tmp("table-graph.pcov");
    for out_path in [&json, &container] {
        let out = pcover(&[
            "gen-graph",
            "--nodes",
            "300",
            "--degree",
            "3",
            "--seed",
            "11",
            "--out",
            out_path,
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "gen-graph {out_path} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // A corrupt container: valid header, flipped payload byte.
    let corrupt = tmp("table-corrupt.pcov");
    let mut bytes = std::fs::read(&container).expect("read container");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&corrupt, bytes).expect("write corrupt container");

    let reconverted = tmp("table-reconverted.pcov");
    struct Case<'a> {
        args: Vec<&'a str>,
        code: i32,
        /// (look at stderr?, required substring)
        expect: (bool, &'a str),
    }
    let cases = [
        // Happy paths.
        Case {
            args: vec!["convert", &json, &reconverted],
            code: 0,
            expect: (false, "300 nodes"),
        },
        Case {
            args: vec!["probe", &container],
            code: 0,
            expect: (false, "nodes: 300"),
        },
        Case {
            args: vec!["probe", &container, "--verify"],
            code: 0,
            expect: (false, "checksums + CSR invariants"),
        },
        Case {
            args: vec!["stats", "--graph", &container],
            code: 0,
            expect: (false, "nodes"),
        },
        Case {
            args: vec![
                "solve",
                "--graph",
                &container,
                "--k",
                "5",
                "--variant",
                "independent",
            ],
            code: 0,
            expect: (false, "retained 5"),
        },
        // Run errors (exit 1): missing operands, wrong formats, corruption.
        Case {
            args: vec!["probe"],
            code: 1,
            expect: (true, "<file>"),
        },
        Case {
            args: vec!["convert", &json],
            code: 1,
            expect: (true, "<output>"),
        },
        Case {
            args: vec!["probe", &json],
            code: 1,
            expect: (true, "container"),
        },
        Case {
            args: vec!["probe", "/nonexistent/g.pcov"],
            code: 1,
            expect: (true, "error:"),
        },
        Case {
            args: vec!["convert", &json, &reconverted, "--to", "parquet"],
            code: 1,
            expect: (true, "parquet"),
        },
        Case {
            args: vec!["probe", &corrupt, "--verify"],
            code: 1,
            expect: (true, "checksum"),
        },
        Case {
            args: vec![
                "solve",
                "--graph",
                &corrupt,
                "--k",
                "2",
                "--variant",
                "independent",
            ],
            code: 1,
            expect: (true, "checksum"),
        },
        Case {
            args: vec!["gen-graph", "--out", "/tmp/x.pcov"],
            code: 1,
            expect: (true, "--nodes"),
        },
        // Usage errors (exit 2): excess positionals.
        Case {
            args: vec!["convert", "a", "b", "c"],
            code: 2,
            expect: (true, "USAGE"),
        },
        Case {
            args: vec!["probe", "a", "b"],
            code: 2,
            expect: (true, "USAGE"),
        },
    ];
    for case in &cases {
        let out = pcover(&case.args);
        assert_eq!(
            out.status.code(),
            Some(case.code),
            "{:?}: stderr {}",
            case.args,
            String::from_utf8_lossy(&out.stderr)
        );
        let (on_stderr, needle) = case.expect;
        let stream = if on_stderr { &out.stderr } else { &out.stdout };
        let text = String::from_utf8_lossy(stream);
        assert!(
            text.contains(needle),
            "{:?}: {needle:?} not in {text}",
            case.args
        );
    }
}

/// `serve --graph <container>` must start instantly from the mapped file
/// and answer queries; driven over real TCP against the real binary.
#[test]
fn serve_starts_from_a_container_file() {
    use std::io::{Read as _, Write as _};

    let container = tmp("serve-graph.pcov");
    let out = pcover(&[
        "gen-graph",
        "--nodes",
        "200",
        "--degree",
        "3",
        "--seed",
        "3",
        "--out",
        &container,
    ]);
    assert_eq!(out.status.code(), Some(0));

    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
    let port = probe.local_addr().expect("addr").port().to_string();
    drop(probe);
    let mut server = Command::new(env!("CARGO_BIN_EXE_pcover"))
        .args([
            "serve",
            "--graph",
            &container,
            "--port",
            &port,
            "--threads",
            "2",
        ])
        .spawn()
        .expect("spawn serve");

    let addr = format!("127.0.0.1:{port}");
    let send = |target: &str, method: &str| -> Option<String> {
        for _ in 0..200 {
            if let Ok(mut s) = std::net::TcpStream::connect(&addr) {
                s.write_all(
                    format!(
                        "{method} {target} HTTP/1.1\r\nHost: t\r\n\
                         Content-Length: 0\r\nConnection: close\r\n\r\n"
                    )
                    .as_bytes(),
                )
                .ok()?;
                let mut out = String::new();
                s.read_to_string(&mut out).ok()?;
                return Some(out);
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        None
    };
    let health = send("/healthz", "GET").expect("healthz reachable");
    assert!(health.contains("200"), "{health}");
    let solved = send("/solve?k=3&variant=independent", "GET").expect("solve reachable");
    assert!(solved.contains("200"), "{solved}");
    let bye = send("/admin/shutdown", "POST").expect("shutdown reachable");
    assert!(bye.contains("200"), "{bye}");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "serve should exit 0 after drain");
}

#[test]
fn xtask_lint_flags_planted_fixture_tree() {
    // Cross-binary check required by the issue: run the workspace linter over
    // a tree with planted violations and assert it fails loudly. The xtask
    // binary is built as part of the workspace; invoke it through cargo so
    // this test does not depend on xtask's target path layout.
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../xtask/tests/fixtures/planted")
        .canonicalize()
        .expect("fixture tree exists");
    let out = Command::new(env!("CARGO"))
        .args(["run", "-q", "-p", "xtask", "--", "lint", "--root"])
        .arg(&fixture)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo run -p xtask");
    assert_eq!(out.status.code(), Some(1), "planted tree must fail lint");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[float-eq]"), "{text}");
    assert!(text.contains("[no-unwrap]"), "{text}");
    assert!(text.contains("violation(s)"), "{text}");
}
