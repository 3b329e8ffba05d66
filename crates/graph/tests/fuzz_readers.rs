//! Robustness: the text graph readers must return errors — never panic —
//! on arbitrary garbage. (The `.pcov` container's garbage, truncation and
//! mutation cases live in `crates/store/tests/store_roundtrip.rs`.)

#![allow(clippy::unwrap_used)] // integration tests: panicking on setup failure is the right behavior

use proptest::prelude::*;

use pcover_graph::io::{csv, json, LoadOptions};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn json_reader_never_panics_on_garbage(s in "\\PC{0,200}") {
        let _ = json::from_json_str(&s, &LoadOptions::default());
    }

    #[test]
    fn json_reader_never_panics_on_structured_noise(
        weights in proptest::collection::vec(any::<f64>(), 0..8),
        edges in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<f64>()), 0..8),
    ) {
        // Structurally valid JSON with semantically wild values.
        let doc = serde_json::json!({
            "node_weights": weights,
            "edges": edges
                .iter()
                .map(|(s, t, w)| serde_json::json!({"source": s, "target": t, "weight": w}))
                .collect::<Vec<_>>(),
        });
        let _ = json::from_json_str(&doc.to_string(), &LoadOptions::default());
    }

    #[test]
    fn csv_reader_never_panics_on_garbage(nodes in "\\PC{0,200}", edges in "\\PC{0,200}") {
        let dir = std::env::temp_dir()
            .join("pcover-fuzz-csv")
            .join(format!("{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("nodes.csv"), &nodes).unwrap();
        std::fs::write(dir.join("edges.csv"), &edges).unwrap();
        let _ = csv::read_csv(&dir, &LoadOptions::default());
    }
}
