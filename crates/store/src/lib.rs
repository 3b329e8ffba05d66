//! # pcover-store
//!
//! A versioned, checksummed on-disk container for
//! [`PreferenceGraph`](pcover_graph::PreferenceGraph) — the storage layer
//! that lets million-node graphs open in milliseconds instead of re-parsing
//! JSON and rebuilding the CSR on every run.
//!
//! A `.pcov` container is a little-endian binary file: a fixed header
//! (magic, format version, variant metadata) and a section table, followed
//! by the seven CSR sections (node weights, out/in offsets, targets,
//! sources, edge weights) plus optional labels, each 64-byte-aligned and
//! FNV-1a-checksummed. See [`format`] for the exact byte layout.
//!
//! Two load paths, selected by [`OpenMode`] at open time:
//!
//! * **mmap** — zero-copy: each section is cast once, at load, into a
//!   typed slice straight into a read-only file mapping, and the graph
//!   reads all seven through one [`pcover_graph::CsrSource::csr`] view
//!   with no per-call check. The only `unsafe` code in the crate lives in
//!   the narrow, audited `mmap` module (the workspace otherwise forbids
//!   unsafe; the xtask `unsafe-scope` rule pins it there).
//! * **pread** — buffered portable fallback decoding sections into owned
//!   vectors.
//!
//! Both paths verify every checksum and re-run full CSR validation, so
//! corrupt or adversarial containers produce typed [`StoreError`]s, never
//! panics.
//!
//! ## Quick example
//!
//! ```
//! use pcover_graph::examples::figure1;
//! use pcover_store::{read_graph, write_graph, OpenMode, WriteOptions};
//!
//! let dir = std::env::temp_dir().join(format!("pcov-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("figure1.pcov");
//!
//! let g = figure1();
//! write_graph(&g, &path, WriteOptions::default()).unwrap();
//! let (loaded, _path_used) = read_graph(&path, OpenMode::Auto).unwrap();
//! assert_eq!(loaded, g);
//! # std::fs::remove_file(&path).ok();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod container;
mod error;
mod mmap;
mod writer;

pub mod format;

pub use container::{
    is_container, probe, read_graph, read_graph_auto, verify, ContainerInfo, LoadPath, OpenMode,
};
pub use error::StoreError;
pub use format::VariantHint;
pub use writer::{write_graph, StreamingWriter, WriteOptions, WriteSummary};
