//! # pcover-graph
//!
//! The *preference graph* substrate of the Preference Cover system, a Rust
//! reproduction of "Inventory Reduction via Maximal Coverage in E-Commerce"
//! (Gershtein, Milo, Novgorodov — EDBT 2020).
//!
//! A preference graph `G = (V, E, W_V, W_E)` is a directed graph whose nodes
//! are items. A node weight `W(v) ∈ [0, 1]` is the probability that a random
//! purchase request is for item `v` (node weights sum to 1). An edge
//! `v → u` with weight `W(v, u) ∈ (0, 1]` is the probability that a consumer
//! requesting `v` would accept `u` as an alternative when `v` is not offered.
//!
//! This crate provides:
//!
//! * [`PreferenceGraph`] — an immutable, cache-friendly compressed sparse row
//!   representation storing *both* adjacency directions. The solver's
//!   `Gain`/`AddNode` procedures (Algorithms 2–5 of the paper) iterate over
//!   the **in**-neighbors of a candidate node, while cover evaluation
//!   iterates **out**-neighbors, so both directions are materialized once at
//!   build time.
//! * [`GraphBuilder`] — a mutable staging area with validation, duplicate
//!   edge policies and optional node-weight normalization.
//! * [`transform`] — normalization, reversal, induced subgraphs, and the
//!   self-loop completion used by the Max Vertex Cover reduction.
//! * [`reduction`] — the approximation-preserving reductions of Theorems 3.1
//!   and 4.1 (`NPC_k ↔ VC_k`, `DS_k → IPC_k`), used as test oracles.
//! * [`io`] — JSON and CSV interchange plus Graphviz DOT export (the binary
//!   `.pcov` container lives in `pcover-store`).
//! * [`examples`] — the paper's running examples (Figure 1, Figure 3) as
//!   ready-made graphs for tests and documentation.
//!
//! ## Quick example
//!
//! ```
//! use pcover_graph::{GraphBuilder, ItemId};
//!
//! let mut b = GraphBuilder::new();
//! let tv_lg = b.add_node_labeled(0.6, "LG 19in");
//! let tv_sam = b.add_node_labeled(0.4, "Samsung 19in");
//! b.add_edge(tv_lg, tv_sam, 0.7).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.out_degree(tv_lg), 1);
//! assert_eq!(g.in_degree(tv_sam), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod edge;
mod error;
mod graph;
mod id;
mod stats;
mod validate;

pub mod components;
pub mod delta;
pub mod examples;
pub mod float;
pub mod io;
pub mod reduction;
pub mod transform;

pub use builder::{DuplicateEdgePolicy, GraphBuilder};
pub use edge::Edge;
pub use error::GraphError;
pub use graph::{Csr, CsrParts, CsrSource, InEdgesIter, OutEdgesIter, PreferenceGraph};
pub use id::ItemId;
pub use stats::{DegreeHistogram, GraphStats};
pub use validate::{validate, ValidationIssue, ValidationOptions, ValidationReport};

/// Absolute tolerance used throughout the crate when comparing probability
/// sums against their theoretical targets (e.g. node weights summing to 1).
///
/// Weights are accumulated over potentially millions of `f64` additions, so
/// exact comparisons are meaningless; `1e-6` is far above accumulated
/// rounding error yet far below any semantically meaningful deviation.
pub const WEIGHT_EPSILON: f64 = 1e-6;
