//! End-to-end container tests: round-trips over both load paths, a
//! corrupt-input table (every malformed file yields a typed error, never a
//! panic), streaming-vs-whole-graph byte identity, and property-based
//! round-trip / mutation fuzzing.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use pcover_graph::examples::figure1;
use pcover_graph::{DuplicateEdgePolicy, GraphBuilder, ItemId, PreferenceGraph};
use pcover_store::{
    is_container, probe, read_graph, read_graph_auto, verify, write_graph, OpenMode, StoreError,
    StreamingWriter, VariantHint, WriteOptions,
};

/// A unique scratch file path under a per-process temp directory.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("pcover-store-test-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!(
        "{tag}-{}.pcov",
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Every open mode this build can serve.
fn supported_modes() -> Vec<OpenMode> {
    let mut modes = vec![OpenMode::Pread, OpenMode::Auto];
    let path = scratch("mode-probe");
    write_graph(&figure1(), &path, WriteOptions::default()).expect("write probe container");
    if probe(&path).expect("probe").mmap_supported {
        modes.push(OpenMode::Mmap);
    }
    fs::remove_file(&path).ok();
    modes
}

#[test]
fn labeled_graph_round_trips_on_every_path() {
    let g = figure1();
    let path = scratch("figure1");
    let summary = write_graph(
        &g,
        &path,
        WriteOptions {
            variant: VariantHint::Normalized,
        },
    )
    .expect("write");
    assert_eq!(summary.nodes, 5);
    assert_eq!(summary.edges, 4);
    assert_eq!(summary.bytes, fs::metadata(&path).expect("metadata").len());
    assert!(is_container(&path).expect("is_container"));

    for mode in supported_modes() {
        let (loaded, load_path) = read_graph(&path, mode).expect("read");
        assert_eq!(loaded, g, "mode {mode:?} ({})", load_path.name());
        assert_eq!(
            loaded.is_externally_backed(),
            load_path.name() == "mmap",
            "backing for {mode:?}"
        );
        assert_eq!(loaded.labels().map(|l| l.len()), Some(5));
    }

    let info = verify(&path).expect("verify");
    assert_eq!(info.node_count, 5);
    assert_eq!(info.edge_count, 4);
    assert_eq!(info.variant, VariantHint::Normalized);
    assert!(info.has_labels);
    assert_eq!(info.sections.len(), 8);
}

#[test]
fn read_graph_auto_accepts_container_and_json() {
    let g = figure1();
    let container = scratch("auto");
    write_graph(&g, &container, WriteOptions::default()).expect("write container");
    let (from_container, how) = read_graph_auto(&container, OpenMode::Pread).expect("container");
    assert_eq!(how, "pread");
    assert_eq!(from_container, g);

    let json = scratch("auto-json");
    pcover_graph::io::json::write_json(&g, &json).expect("write json");
    assert!(!is_container(&json).expect("is_container"));
    let (from_json, how) = read_graph_auto(&json, OpenMode::Auto).expect("json");
    assert_eq!(how, "json");
    assert_eq!(from_json, g);

    let missing = scratch("auto-missing");
    assert!(matches!(
        read_graph_auto(&missing, OpenMode::Auto),
        Err(StoreError::Io(_))
    ));
}

/// The corrupt-input table: `(name, mutate, check)` triples applied to a
/// fresh valid container. Every load path must return the expected typed
/// error — and must never panic.
#[test]
fn corrupt_containers_fail_with_typed_errors() {
    type Check = fn(&StoreError) -> bool;
    type Mutate = fn(&mut Vec<u8>);
    let cases: &[(&str, Mutate, Check)] = &[
        (
            "empty",
            |b| b.clear(),
            |e| matches!(e, StoreError::Truncated { .. }),
        ),
        (
            "truncated-header",
            |b| b.truncate(10),
            |e| matches!(e, StoreError::Truncated { .. }),
        ),
        (
            "truncated-tail",
            |b| {
                let keep = b.len() - 5;
                b.truncate(keep);
            },
            |e| matches!(e, StoreError::Truncated { .. }),
        ),
        (
            "bad-magic",
            |b| b[0] = b'X',
            |e| matches!(e, StoreError::BadMagic { .. }),
        ),
        (
            "future-version",
            |b| b[8] = 99,
            |e| matches!(e, StoreError::UnsupportedVersion { found: 99, .. }),
        ),
        (
            "flipped-node-count",
            |b| b[16] ^= 0xff,
            |e| matches!(e, StoreError::ChecksumMismatch { section: 0, .. }),
        ),
        (
            "flipped-section-table",
            |b| b[60] ^= 0x01,
            |e| matches!(e, StoreError::ChecksumMismatch { section: 0, .. }),
        ),
        (
            "flipped-first-payload-byte",
            // Sections start at the first 64-byte boundary past the table;
            // with 8 sections that is offset 320 (node weights).
            |b| b[320] ^= 0x01,
            |e| matches!(e, StoreError::ChecksumMismatch { section: 1, .. }),
        ),
        (
            "flipped-last-payload-byte",
            |b| {
                let last = b.len() - 1;
                b[last] ^= 0x80;
            },
            |e| matches!(e, StoreError::ChecksumMismatch { .. }),
        ),
    ];

    let pristine = {
        let path = scratch("pristine");
        write_graph(&figure1(), &path, WriteOptions::default()).expect("write");
        let bytes = fs::read(&path).expect("read back");
        fs::remove_file(&path).ok();
        bytes
    };

    for (name, mutate, check) in cases {
        let mut bytes = pristine.clone();
        mutate(&mut bytes);
        let path = scratch(name);
        fs::write(&path, &bytes).expect("write corrupt file");
        for mode in supported_modes() {
            let err = read_graph(&path, mode).expect_err(name);
            assert!(check(&err), "{name} under {mode:?}: got {err}");
            // The error must render without panicking.
            let _ = err.to_string();
        }
        // verify() must agree for payload-level corruption too.
        assert!(verify(&path).is_err(), "{name}: verify accepted it");
    }
}

#[test]
fn streaming_writer_matches_write_graph_byte_for_byte() {
    // Unlabeled graph (streaming path does not carry labels).
    let mut b = GraphBuilder::new().normalize_node_weights(true);
    let ids: Vec<ItemId> = (0..6).map(|i| b.add_node(1.0 + i as f64)).collect();
    let rows: Vec<Vec<(u32, f64)>> = vec![
        vec![(1, 0.5), (3, 0.25)],
        vec![(0, 0.9)],
        vec![],
        vec![(0, 0.125), (4, 0.75), (5, 0.0625)],
        vec![(3, 1.0)],
        vec![],
    ];
    for (s, row) in rows.iter().enumerate() {
        for &(t, w) in row {
            b.add_edge(ids[s], ids[t as usize], w).expect("edge");
        }
    }
    let g = b.build().expect("build");

    let whole = scratch("whole");
    write_graph(&g, &whole, WriteOptions::default()).expect("write_graph");

    let streamed = scratch("streamed");
    let mut w = StreamingWriter::create(
        &streamed,
        g.node_weights().to_vec(),
        WriteOptions::default(),
    )
    .expect("create");
    for row in &rows {
        w.append_row(row).expect("append");
    }
    let summary = w.finish().expect("finish");
    assert_eq!(summary.edges, g.edge_count() as u64);

    let a = fs::read(&whole).expect("read whole");
    let b = fs::read(&streamed).expect("read streamed");
    assert_eq!(
        a, b,
        "streaming and whole-graph containers must be bitwise identical"
    );
}

#[test]
fn streaming_writer_rejects_contract_violations() {
    let weights = vec![0.5, 0.3, 0.2];
    let path = scratch("contract");
    let opts = WriteOptions::default();

    // Node weight outside [0, 1].
    assert!(matches!(
        StreamingWriter::create(&path, vec![0.5, 1.5], opts),
        Err(StoreError::WriterContract { .. })
    ));

    // Unsorted row.
    let mut w = StreamingWriter::create(&path, weights.clone(), opts).expect("create");
    assert!(matches!(
        w.append_row(&[(2, 0.5), (1, 0.5)]),
        Err(StoreError::WriterContract { .. })
    ));
    drop(w);

    // Duplicate target.
    let mut w = StreamingWriter::create(&path, weights.clone(), opts).expect("create");
    assert!(matches!(
        w.append_row(&[(1, 0.5), (1, 0.5)]),
        Err(StoreError::WriterContract { .. })
    ));
    drop(w);

    // Target out of range.
    let mut w = StreamingWriter::create(&path, weights.clone(), opts).expect("create");
    assert!(matches!(
        w.append_row(&[(7, 0.5)]),
        Err(StoreError::WriterContract { .. })
    ));
    drop(w);

    // Edge weight outside (0, 1].
    let mut w = StreamingWriter::create(&path, weights.clone(), opts).expect("create");
    assert!(matches!(
        w.append_row(&[(1, 0.0)]),
        Err(StoreError::WriterContract { .. })
    ));
    drop(w);

    // Finish before all rows are appended.
    let mut w = StreamingWriter::create(&path, weights.clone(), opts).expect("create");
    w.append_row(&[(1, 0.5)]).expect("row 0");
    assert!(matches!(w.finish(), Err(StoreError::WriterContract { .. })));

    // Too many rows.
    let mut w = StreamingWriter::create(&path, weights, opts).expect("create");
    for _ in 0..3 {
        w.append_row(&[]).expect("row");
    }
    assert!(matches!(
        w.append_row(&[]),
        Err(StoreError::WriterContract { .. })
    ));
    drop(w);

    // Nothing was ever committed to the destination.
    assert!(!path.exists(), "failed writes must not leave a container");
}

/// A strategy producing small random well-formed preference graphs
/// (same shape as the graph crate's proptest strategy; unlabeled).
fn arb_graph(max_nodes: usize) -> impl Strategy<Value = PreferenceGraph> {
    (1..=max_nodes)
        .prop_flat_map(|n| {
            let weights = proptest::collection::vec(1u32..1000, n);
            let edges = proptest::collection::vec((0..n, 0..n, 0.01f64..=1.0), 0..(n * 3).min(64));
            (Just(n), weights, edges)
        })
        .prop_map(|(_n, weights, edges)| {
            let mut b = GraphBuilder::new()
                .normalize_node_weights(true)
                .duplicate_edge_policy(DuplicateEdgePolicy::Max);
            let ids: Vec<ItemId> = weights.iter().map(|&w| b.add_node(w as f64)).collect();
            for (s, t, w) in edges {
                if s != t {
                    b.add_edge(ids[s], ids[t], w).expect("edge weight in range");
                }
            }
            b.build().expect("generated graph is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any well-formed graph survives the container round trip bitwise on
    /// every load path.
    #[test]
    fn round_trip_is_bitwise_identity(g in arb_graph(24)) {
        let path = scratch("prop-rt");
        write_graph(&g, &path, WriteOptions::default()).expect("write");
        for mode in supported_modes() {
            let (loaded, _) = read_graph(&path, mode).expect("read");
            prop_assert_eq!(&loaded, &g);
        }
        fs::remove_file(&path).ok();
    }

    /// Flipping any single byte of a container either fails with a typed
    /// error or — only when the byte lies in unchecksummed padding — loads
    /// a graph identical to the original. It never panics.
    #[test]
    fn single_byte_mutation_never_panics(pos in 0usize..2048, mask in 1u8..=255) {
        let g = figure1();
        let path = scratch("prop-mut");
        write_graph(&g, &path, WriteOptions::default()).expect("write");
        let mut bytes = fs::read(&path).expect("read back");
        let pos = pos % bytes.len();
        bytes[pos] ^= mask;
        fs::write(&path, &bytes).expect("write mutated");
        for mode in supported_modes() {
            match read_graph(&path, mode) {
                Ok((loaded, _)) => prop_assert_eq!(&loaded, &g),
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
        fs::remove_file(&path).ok();
    }

    /// Arbitrary bytes — pure noise, or noise behind the container magic
    /// so the header and section-table decoders see it — fail with a typed
    /// error on every load path. They never panic.
    #[test]
    fn garbage_bytes_never_panic(
        noise in proptest::collection::vec(any::<u8>(), 0..512),
        behind_magic in any::<bool>(),
    ) {
        let path = scratch("prop-garbage");
        let mut bytes = if behind_magic {
            pcover_store::format::MAGIC.to_vec()
        } else {
            Vec::new()
        };
        bytes.extend_from_slice(&noise);
        fs::write(&path, &bytes).expect("write garbage");
        for mode in supported_modes() {
            if let Err(e) = read_graph(&path, mode) {
                let _ = e.to_string();
            }
        }
        fs::remove_file(&path).ok();
    }
}
