//! Serialization of preference graphs.
//!
//! Two interchange formats live here:
//!
//! * [`json`] — human-readable interchange, the default for tooling.
//! * [`csv`] — two flat files (`nodes.csv`, `edges.csv`) for spreadsheet
//!   inspection and ingestion from external pipelines.
//!
//! Plus [`dot`] export for Graphviz. Large graphs go in the checksummed,
//! zero-copy `.pcov` container of the `pcover-store` crate.
//!
//! All readers funnel through [`GraphBuilder`](crate::GraphBuilder), so a
//! malformed file can never produce an invariant-violating graph.

pub mod csv;
pub mod dot;
pub mod json;

/// Options shared by all graph readers.
#[derive(Clone, Copy, Debug)]
pub struct LoadOptions {
    /// Require node weights to sum to 1 (within tolerance). Disable when
    /// loading intermediate reduction graphs.
    pub strict_weight_sum: bool,
    /// Permit self-loop edges (inert for cover computations, present in
    /// reduction instances).
    pub allow_self_loops: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            strict_weight_sum: true,
            allow_self_loops: true,
        }
    }
}
