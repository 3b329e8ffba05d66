//! Round-trip guard for the committed bench snapshots: `BENCH_5.json`,
//! `BENCH_7.json`, `BENCH_8.json`, `BENCH_9.json`, `BENCH_15.json`,
//! `BENCH_23.json` and `BENCH_24.json` must parse against the `pcover-bench-snapshot/1` schema *exactly* — a missing
//! field or an unknown field fails, so the snapshot format cannot drift
//! under the CI perf gates that diff the files. A fresh `--grid small` run
//! of the built binary must pass the same strict check.
//!
//! Every grid writes warm-pass entries (`delta-cold` / `delta-warm`), whose
//! optional extras ([`WARM_ENTRY_KEYS`]) every profile accepts.
//! `BENCH_9.json`, `BENCH_15.json`, `BENCH_23.json` and `BENCH_24.json` are
//! the `--grid large` container tier; their entries may also carry [`LARGE_ENTRY_KEYS`] (load backend,
//! load speedup). BENCH_5/7.json predate the warm pass and have no warm
//! entries.

use std::path::PathBuf;
use std::process::Command;

use serde_json::{Number, Value};

const SCHEMA: &str = "pcover-bench-snapshot/1";
const TOP_KEYS: [&str; 4] = ["schema", "pr", "seed", "entries"];
const ENTRY_KEYS: [&str; 10] = [
    "solver",
    "variant",
    "n",
    "avg_out_degree",
    "k",
    "seed",
    "wall_ms",
    "gain_evaluations",
    "memory_bytes",
    "cover",
];
/// Optional unsigned fields of the warm-pass entries, in every profile.
const WARM_ENTRY_KEYS: [&str; 3] = ["delta_changes", "rounds_reused", "rounds_repaired"];
/// Extra entry fields only the large container grid may attach.
const LARGE_ENTRY_KEYS: [&str; 2] = ["backend", "speedup_vs_json"];

fn is_u64(v: &Value) -> bool {
    matches!(v, Value::Number(Number::U64(_)))
}

fn is_f64(v: &Value) -> bool {
    matches!(v, Value::Number(Number::F64(_)))
}

/// Strict `pcover-bench-snapshot/1` validation: exact key sets at both
/// levels (the warm-pass extras optional), field types as written by
/// `bench-snapshot`, non-empty entries.
fn validate(snapshot: &Value) -> Result<(), String> {
    validate_profile(snapshot, false)
}

/// [`validate`] for the `--grid large` tier: the same fields, plus the
/// fixed optional extras in [`LARGE_ENTRY_KEYS`] (type-checked when
/// present; anything else is still rejected).
fn validate_large(snapshot: &Value) -> Result<(), String> {
    validate_profile(snapshot, true)
}

fn validate_profile(snapshot: &Value, large: bool) -> Result<(), String> {
    let Value::Object(obj) = snapshot else {
        return Err("top level is not an object".into());
    };
    for key in obj.keys() {
        if !TOP_KEYS.contains(&key.as_str()) {
            return Err(format!("unknown top-level field {key:?}"));
        }
    }
    for key in TOP_KEYS {
        if !obj.contains_key(key) {
            return Err(format!("missing top-level field {key:?}"));
        }
    }
    if obj["schema"].as_str() != Some(SCHEMA) {
        return Err(format!("schema is {}, want {SCHEMA:?}", obj["schema"]));
    }
    if !is_u64(&obj["pr"]) || !is_u64(&obj["seed"]) {
        return Err("pr and seed must be unsigned integers".into());
    }
    let entries = obj["entries"].as_array().ok_or("entries is not an array")?;
    if entries.is_empty() {
        return Err("entries is empty".into());
    }
    for (i, entry) in entries.iter().enumerate() {
        let Value::Object(e) = entry else {
            return Err(format!("entry {i} is not an object"));
        };
        for key in e.keys() {
            let key = key.as_str();
            let extra =
                WARM_ENTRY_KEYS.contains(&key) || (large && LARGE_ENTRY_KEYS.contains(&key));
            if !ENTRY_KEYS.contains(&key) && !extra {
                return Err(format!("entry {i}: unknown field {key:?}"));
            }
        }
        for key in ENTRY_KEYS {
            if !e.contains_key(key) {
                return Err(format!("entry {i}: missing field {key:?}"));
            }
        }
        for key in ["solver", "variant"] {
            if e[key].as_str().is_none() {
                return Err(format!("entry {i}: {key} must be a string"));
            }
        }
        for key in [
            "n",
            "avg_out_degree",
            "k",
            "seed",
            "gain_evaluations",
            "memory_bytes",
        ] {
            if !is_u64(&e[key]) {
                return Err(format!("entry {i}: {key} must be an unsigned integer"));
            }
        }
        for key in ["wall_ms", "cover"] {
            if !is_f64(&e[key]) {
                return Err(format!("entry {i}: {key} must be a float"));
            }
        }
        for key in WARM_ENTRY_KEYS {
            if e.get(key).is_some_and(|v| !is_u64(v)) {
                return Err(format!("entry {i}: {key} must be an unsigned integer"));
            }
        }
        if e.get("backend").is_some_and(|v| v.as_str().is_none()) {
            return Err(format!("entry {i}: backend must be a string"));
        }
        if e.get("speedup_vs_json").is_some_and(|v| !is_f64(v)) {
            return Err(format!("entry {i}: speedup_vs_json must be a float"));
        }
    }
    Ok(())
}

fn committed(name: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"))
}

#[test]
fn committed_snapshots_round_trip_strictly() {
    for (name, check) in [
        ("BENCH_5.json", validate as fn(&Value) -> Result<(), String>),
        ("BENCH_7.json", validate),
        ("BENCH_8.json", validate),
        ("BENCH_9.json", validate_large),
        ("BENCH_15.json", validate_large),
        ("BENCH_23.json", validate_large),
        ("BENCH_24.json", validate_large),
    ] {
        let snapshot = committed(name);
        check(&snapshot).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Round trip: serialize and re-validate; serde must not change
        // any field's shape on the way through.
        let again: Value =
            serde_json::from_str(&serde_json::to_string(&snapshot).unwrap()).unwrap();
        check(&again).unwrap_or_else(|e| panic!("{name} after round trip: {e}"));
        assert_eq!(snapshot, again, "{name} round trip changed the value");
    }
}

#[test]
fn snapshot_pr_stamps_identify_the_files() {
    for (name, pr) in [
        ("BENCH_5.json", 5),
        ("BENCH_7.json", 7),
        ("BENCH_8.json", 8),
        ("BENCH_9.json", 9),
        ("BENCH_15.json", 15),
        ("BENCH_23.json", 23),
        ("BENCH_24.json", 24),
    ] {
        assert_eq!(
            committed(name).get("pr"),
            Some(&Value::Number(Number::U64(pr))),
            "{name}"
        );
    }
}

/// The committed large-tier snapshot must carry the container cold-load
/// evidence the PR-9 acceptance gate demands: a `load-container` entry per
/// shape, at least 10x faster than its `load-json` twin at n >= 10^5.
#[test]
fn large_snapshot_records_a_tenfold_load_speedup() {
    let snapshot = committed("BENCH_9.json");
    let entries = snapshot
        .get("entries")
        .and_then(Value::as_array)
        .expect("entries");
    let solver = |e: &Value| e.get("solver").and_then(Value::as_str).map(str::to_string);
    let loads: Vec<_> = entries
        .iter()
        .filter(|e| solver(e).as_deref() == Some("load-container"))
        .collect();
    assert!(!loads.is_empty(), "no load-container entries");
    for e in loads {
        let n = e.get("n").and_then(Value::as_u64).expect("n");
        let speedup = e
            .get("speedup_vs_json")
            .and_then(Value::as_f64)
            .expect("speedup_vs_json");
        assert!(n >= 100_000, "large grid shapes start at 10^5, got {n}");
        assert!(
            speedup >= 10.0,
            "container load speedup {speedup:.1}x below the 10x gate at n={n}"
        );
    }
    // The solver tier must actually run over the container-backed graph.
    assert!(
        entries
            .iter()
            .any(|e| solver(e).as_deref() == Some("delta-warm")
                && e.get("backend").and_then(Value::as_str).is_some()),
        "no warm-delta entries with a backend stamp"
    );
}

/// The large-tier extras stay confined to the large profile: the strict
/// validator must reject them, and the large validator must still reject
/// anything outside its fixed optional set.
#[test]
fn large_extras_are_rejected_by_the_strict_profile() {
    let mut snapshot = committed("BENCH_5.json");
    let Value::Object(obj) = &mut snapshot else {
        unreachable!()
    };
    let Some(Value::Array(entries)) = obj.get_mut("entries") else {
        unreachable!()
    };
    let Some(Value::Object(first)) = entries.first_mut() else {
        unreachable!()
    };
    first.insert("backend".into(), Value::String("mmap".into()));
    assert!(validate(&snapshot).unwrap_err().contains("backend"));
    validate_large(&snapshot).expect("backend is a valid large-tier extra");

    let mut snapshot = committed("BENCH_9.json");
    let Value::Object(obj) = &mut snapshot else {
        unreachable!()
    };
    let Some(Value::Array(entries)) = obj.get_mut("entries") else {
        unreachable!()
    };
    let Some(Value::Object(first)) = entries.first_mut() else {
        unreachable!()
    };
    first.insert("p99_ms".into(), Value::Number(Number::F64(1.0)));
    assert!(validate_large(&snapshot).unwrap_err().contains("p99_ms"));
}

#[test]
fn unknown_field_is_rejected() {
    let mut snapshot = committed("BENCH_5.json");
    let Value::Object(obj) = &mut snapshot else {
        unreachable!()
    };
    obj.insert("surprise".into(), Value::Bool(true));
    assert!(validate(&snapshot).unwrap_err().contains("surprise"));

    let mut snapshot = committed("BENCH_5.json");
    let Value::Object(obj) = &mut snapshot else {
        unreachable!()
    };
    let Some(Value::Array(entries)) = obj.get_mut("entries") else {
        unreachable!()
    };
    let Some(Value::Object(first)) = entries.first_mut() else {
        unreachable!()
    };
    first.insert("p99_ms".into(), Value::Number(Number::F64(1.0)));
    assert!(validate(&snapshot).unwrap_err().contains("p99_ms"));
}

#[test]
fn missing_field_is_rejected() {
    let mut snapshot = committed("BENCH_5.json");
    let Value::Object(obj) = &mut snapshot else {
        unreachable!()
    };
    obj.remove("seed");
    assert!(validate(&snapshot).unwrap_err().contains("seed"));

    let mut snapshot = committed("BENCH_5.json");
    let Value::Object(obj) = &mut snapshot else {
        unreachable!()
    };
    let Some(Value::Array(entries)) = obj.get_mut("entries") else {
        unreachable!()
    };
    let Some(Value::Object(first)) = entries.first_mut() else {
        unreachable!()
    };
    first.remove("wall_ms");
    assert!(validate(&snapshot).unwrap_err().contains("wall_ms"));
}

/// The warm-pass extras are optional in every profile, but typed: BENCH_8's
/// warm rows validate strictly, and a non-integer warm field is rejected.
#[test]
fn warm_fields_are_accepted_and_type_checked() {
    for (key, bad) in [
        ("delta_changes", Value::String("3".into())),
        ("rounds_reused", Value::Number(Number::F64(1.5))),
        ("rounds_repaired", Value::Number(Number::I64(-1))),
    ] {
        let mut snapshot = committed("BENCH_8.json");
        let Value::Object(obj) = &mut snapshot else {
            unreachable!()
        };
        let Some(Value::Array(entries)) = obj.get_mut("entries") else {
            unreachable!()
        };
        let warm = entries
            .iter_mut()
            .find_map(|e| match e {
                Value::Object(e)
                    if e.get("solver").and_then(Value::as_str) == Some("delta-warm") =>
                {
                    Some(e)
                }
                _ => None,
            })
            .expect("BENCH_8.json has delta-warm entries");
        warm.insert(key.into(), bad);
        let err = validate(&snapshot).unwrap_err();
        assert!(
            err.contains(&format!("{key} must be an unsigned integer")),
            "{key}: {err}"
        );
    }
}

/// What the runner writes today passes the strict profile: a fresh
/// `--grid small` snapshot from the built binary, warm rows included.
#[test]
fn fresh_small_grid_snapshot_validates_strictly() {
    let out = std::env::temp_dir().join(format!("pcover-schema-small-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_pcover"))
        .args(["bench-snapshot", "--grid", "small", "--out"])
        .arg(&out)
        .status()
        .expect("spawn pcover");
    assert!(status.success(), "bench-snapshot --grid small: {status}");
    let text = std::fs::read_to_string(&out).expect("read snapshot");
    std::fs::remove_file(&out).ok();
    let snapshot: Value = serde_json::from_str(&text).expect("parse snapshot");
    validate(&snapshot).unwrap_or_else(|e| panic!("fresh small grid: {e}"));

    let entries = snapshot
        .get("entries")
        .and_then(Value::as_array)
        .expect("entries");
    assert_eq!(entries.len(), 24);
    let solver = |e: &Value| e.get("solver").and_then(Value::as_str).map(str::to_string);
    for (name, keys) in [
        ("delta-cold", &["delta_changes"][..]),
        ("delta-warm", &WARM_ENTRY_KEYS[..]),
    ] {
        let rows: Vec<_> = entries
            .iter()
            .filter(|e| solver(e).as_deref() == Some(name))
            .collect();
        assert_eq!(rows.len(), 4, "{name}: 2 variants x 2 budgets");
        for e in rows {
            for key in keys {
                assert!(e.get(key).is_some(), "{name} entry without {key}");
            }
        }
    }
}
