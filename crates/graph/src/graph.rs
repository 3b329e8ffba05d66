//! The immutable compressed-sparse-row preference graph.

// lint: allow-file(no-index) — ItemId values are dense indices assigned by GraphBuilder and every
// per-node/per-edge array is sized to node_count/edge_count, so accesses are in
// bounds by construction.
use std::fmt;
use std::sync::Arc;

use crate::{Edge, GraphError, ItemId};

/// An external home for the seven CSR arrays of a preference graph,
/// outside the graph's own allocations: typically a memory-mapped on-disk
/// container (`pcover-store`).
///
/// [`csr`](Self::csr) runs once per kernel call (each gain evaluation,
/// each `add_node`, each row walk through [`PreferenceGraph`]), so an
/// implementation should only assemble slices it checked when it was
/// built: no re-slicing, re-casting or re-asserting per call. The view's
/// lengths must be mutually consistent (`out_offsets.len() ==
/// in_offsets.len() == node_weights.len() + 1`, edge arrays all of equal
/// length); [`PreferenceGraph::from_csr_source`] re-validates the full CSR
/// structure once before accepting a source, so a malformed implementation
/// is rejected rather than causing out-of-bounds panics later.
pub trait CsrSource: Send + Sync + fmt::Debug {
    /// The seven CSR arrays as one view.
    fn csr(&self) -> Csr<'_>;
}

/// A borrowed view of a graph's seven CSR arrays, whatever their backing:
/// the one way code reads them. [`PreferenceGraph::csr`] lends it; the row
/// walks ([`out_edges`](Self::out_edges), [`in_edges`](Self::in_edges))
/// are defined once here, so a kernel that fetches the view once per call
/// walks plain slices.
#[derive(Clone, Copy, Debug)]
pub struct Csr<'a> {
    /// `W(v)` per node, indexed by `ItemId::index`.
    pub node_weights: &'a [f64],
    /// Out-CSR row offsets, length `n + 1`.
    pub out_offsets: &'a [u32],
    /// Out-CSR edge targets, length `m`, each row sorted by target id.
    pub out_targets: &'a [ItemId],
    /// Out-CSR edge weights, parallel to `out_targets`.
    pub out_weights: &'a [f64],
    /// In-CSR row offsets, length `n + 1`.
    pub in_offsets: &'a [u32],
    /// In-CSR edge sources, length `m`, each row sorted by source id.
    pub in_sources: &'a [ItemId],
    /// In-CSR edge weights, parallel to `in_sources`.
    pub in_weights: &'a [f64],
}

impl<'a> Csr<'a> {
    /// The request probability `W(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn node_weight(self, v: ItemId) -> f64 {
        self.node_weights[v.index()]
    }

    /// The out-edges of `v` as `(target, weight)` pairs, sorted by target.
    #[inline]
    pub fn out_edges(self, v: ItemId) -> OutEdgesIter<'a> {
        let (lo, hi) = (self.out_offsets[v.index()], self.out_offsets[v.index() + 1]);
        OutEdgesIter {
            targets: &self.out_targets[lo as usize..hi as usize],
            weights: &self.out_weights[lo as usize..hi as usize],
            pos: 0,
        }
    }

    /// The in-edges of `v` as `(source, weight)` pairs, sorted by source:
    /// the iteration order of Algorithms 2–5.
    #[inline]
    pub fn in_edges(self, v: ItemId) -> InEdgesIter<'a> {
        let (lo, hi) = (self.in_offsets[v.index()], self.in_offsets[v.index() + 1]);
        InEdgesIter {
            sources: &self.in_sources[lo as usize..hi as usize],
            weights: &self.in_weights[lo as usize..hi as usize],
            pos: 0,
        }
    }
}

/// Owned CSR arrays: the storage of [`GraphBuilder`](crate::GraphBuilder)
/// output, of [`delta::apply`](crate::delta::apply) results and of graphs
/// loaded into memory (the buffered pread path of `pcover-store`, through
/// [`PreferenceGraph::from_csr_parts`]).
#[derive(Clone, Debug, Default)]
pub struct CsrParts {
    /// `W(v)` per node.
    pub node_weights: Vec<f64>,
    /// Out-CSR row offsets, length `n + 1`.
    pub out_offsets: Vec<u32>,
    /// Out-CSR edge targets, each row strictly ascending.
    pub out_targets: Vec<ItemId>,
    /// Out-CSR edge weights, parallel to `out_targets`.
    pub out_weights: Vec<f64>,
    /// In-CSR row offsets, length `n + 1`.
    pub in_offsets: Vec<u32>,
    /// In-CSR edge sources, each row strictly ascending.
    pub in_sources: Vec<ItemId>,
    /// In-CSR edge weights, parallel to `in_sources`.
    pub in_weights: Vec<f64>,
}

impl CsrParts {
    /// Assembles owned storage from node weights and a finished out-CSR
    /// (rows in source order, each sorted by target), deriving the in-CSR by
    /// a counting sort on target. Out-rows are visited in source order, so
    /// the stable redistribution leaves every in-row sorted by source.
    /// Also returns whether the sort met a self-loop `(v, v)`.
    pub(crate) fn from_out_csr(
        node_weights: Vec<f64>,
        out_offsets: Vec<u32>,
        out_targets: Vec<ItemId>,
        out_weights: Vec<f64>,
    ) -> (Self, bool) {
        let n = node_weights.len();
        let m = out_targets.len();
        let mut in_offsets = vec![0u32; n + 1];
        for t in &out_targets {
            in_offsets[t.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor: Vec<u32> = in_offsets[..n].to_vec();
        let mut in_sources = vec![ItemId::new(0); m];
        let mut in_weights = vec![0.0f64; m];
        let mut self_loop = false;
        for (v, row) in out_offsets.windows(2).enumerate() {
            let source = ItemId::from_index(v);
            for slot in row[0] as usize..row[1] as usize {
                let t = out_targets[slot];
                self_loop |= t == source;
                let dst = cursor[t.index()] as usize;
                in_sources[dst] = source;
                in_weights[dst] = out_weights[slot];
                cursor[t.index()] += 1;
            }
        }
        let parts = CsrParts {
            node_weights,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
        };
        (parts, self_loop)
    }

    /// Copies a view into owned vectors.
    pub fn copied_from(csr: Csr<'_>) -> Self {
        CsrParts {
            node_weights: csr.node_weights.to_vec(),
            out_offsets: csr.out_offsets.to_vec(),
            out_targets: csr.out_targets.to_vec(),
            out_weights: csr.out_weights.to_vec(),
            in_offsets: csr.in_offsets.to_vec(),
            in_sources: csr.in_sources.to_vec(),
            in_weights: csr.in_weights.to_vec(),
        }
    }

    /// The arrays as one view.
    #[inline]
    pub fn view(&self) -> Csr<'_> {
        Csr {
            node_weights: &self.node_weights,
            out_offsets: &self.out_offsets,
            out_targets: &self.out_targets,
            out_weights: &self.out_weights,
            in_offsets: &self.in_offsets,
            in_sources: &self.in_sources,
            in_weights: &self.in_weights,
        }
    }
}

/// Where a graph's CSR arrays live.
#[derive(Clone)]
enum Store {
    /// Heap-allocated vectors owned by the graph.
    Owned(CsrParts),
    /// Borrowed from an external backing (e.g. a memory-mapped container);
    /// cloning shares the backing via the `Arc`.
    External(Arc<dyn CsrSource>),
}

/// An immutable weighted directed preference graph in compressed sparse row
/// (CSR) form, storing both adjacency directions.
///
/// Construction goes through [`GraphBuilder`](crate::GraphBuilder), which
/// validates weights and assembles the CSR arrays, or through
/// [`from_csr_parts`](Self::from_csr_parts) /
/// [`from_csr_source`](Self::from_csr_source), which re-validate
/// pre-assembled CSR data (the `pcover-store` load paths). Once built, the
/// graph is read-only and safe to share across threads (`&PreferenceGraph`
/// is `Sync`), which is what the parallel greedy solver relies on.
///
/// # Representation
///
/// For `n` nodes and `m` edges the graph stores:
///
/// * `node_weights[n]` — `W(v)`, request probabilities.
/// * Out-CSR: `out_offsets[n + 1]`, `out_targets[m]`, `out_weights[m]` with
///   each row sorted by target id.
/// * In-CSR: `in_offsets[n + 1]`, `in_sources[m]`, `in_weights[m]` with each
///   row sorted by source id. This direction drives the solver's
///   `Gain`/`AddNode` loops ("for each `u ∉ S` such that `(u, v) ∈ E`").
/// * Optional string labels mapping dense ids back to external identifiers,
///   held in one shared table: clones and delta generations that add no
///   node point at the same labels instead of copying them.
///
/// The arrays are either owned vectors ([`CsrParts`]) or zero-copy views
/// into an external [`CsrSource`] (a memory-mapped container).
/// [`csr`](Self::csr) is the one `match` on the backing: it lends all seven
/// arrays as one [`Csr`] view, and every accessor reads through it. A
/// kernel that walks many rows fetches the view once per call, so solvers
/// run on plain slices whatever the backing.
#[derive(Clone)]
pub struct PreferenceGraph {
    store: Store,
    labels: Option<Arc<[String]>>,
    /// Known to hold no edge `(v, v)`: the builder's in-CSR sort met none,
    /// or the graph is a [`delta::apply`](crate::delta::apply) result
    /// (which fails on a surviving loop), or a reversal of such a graph.
    /// A graph assembled from CSR arrays is not known loop-free: checking
    /// every row for one would slow the validation that every load runs.
    /// `apply` scans its result for a loop only when the base is not known
    /// loop-free, so once per loaded graph.
    loop_free: bool,
}

/// Validates pre-assembled CSR arrays: offset shape and monotonicity, edge
/// array lengths, id bounds, strictly ascending rows, and weight domains.
/// Shared by the two non-builder constructors so an external source gets
/// exactly the owned-parts guarantees.
fn validate_csr(csr: Csr<'_>, labels: Option<&[String]>) -> Result<(), GraphError> {
    let n = csr.node_weights.len();
    let fail = |message: String| GraphError::Parse {
        line: None,
        message,
    };
    if n > u32::MAX as usize {
        return Err(GraphError::CapacityExceeded {
            what: "node count exceeds u32 index space",
        });
    }
    if csr.out_targets.len() > u32::MAX as usize {
        return Err(GraphError::CapacityExceeded {
            what: "edge count exceeds u32 index space",
        });
    }
    if let Some(labels) = labels {
        if labels.len() != n {
            return Err(fail(format!("csr: {} labels for {n} nodes", labels.len())));
        }
    }
    for (i, &w) in csr.node_weights.iter().enumerate() {
        if !w.is_finite() || !(0.0..=1.0).contains(&w) {
            return Err(GraphError::InvalidNodeWeight {
                node: ItemId::from_index(i),
                weight: w,
            });
        }
    }
    for (direction, offsets, ids, weights) in [
        ("out", csr.out_offsets, csr.out_targets, csr.out_weights),
        ("in", csr.in_offsets, csr.in_sources, csr.in_weights),
    ] {
        let m = ids.len();
        if offsets.len() != n + 1 {
            return Err(fail(format!(
                "csr: {direction}_offsets has length {} for {n} nodes (want {})",
                offsets.len(),
                n + 1
            )));
        }
        if weights.len() != m {
            return Err(fail(format!(
                "csr: {direction} weights/ids length mismatch ({} vs {m})",
                weights.len()
            )));
        }
        if offsets.first() != Some(&0) {
            return Err(fail(format!("csr: {direction}_offsets[0] must be 0")));
        }
        if offsets.last().map(|&o| o as usize) != Some(m) {
            return Err(fail(format!(
                "csr: {direction}_offsets must end at the edge count {m}"
            )));
        }
        for i in 0..n {
            if offsets[i] > offsets[i + 1] {
                return Err(fail(format!(
                    "csr: {direction}_offsets decreases at node {i}"
                )));
            }
            if offsets[i + 1] as usize > m {
                return Err(fail(format!(
                    "csr: {direction}_offsets[{}] exceeds the edge count {m}",
                    i + 1
                )));
            }
        }
        for i in 0..n {
            let row = &ids[offsets[i] as usize..offsets[i + 1] as usize];
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(fail(format!(
                        "csr: {direction} row of node {i} is not strictly ascending"
                    )));
                }
            }
        }
        for (slot, &id) in ids.iter().enumerate() {
            if id.index() >= n {
                return Err(fail(format!(
                    "csr: {direction} edge slot {slot} references node {id} out of range (n = {n})"
                )));
            }
        }
    }
    if csr.out_targets.len() != csr.in_sources.len() {
        return Err(fail(format!(
            "csr: out edge count {} != in edge count {}",
            csr.out_targets.len(),
            csr.in_sources.len()
        )));
    }
    for (slot, &w) in csr.out_weights.iter().chain(csr.in_weights).enumerate() {
        if !(w.is_finite() && w > 0.0 && w <= 1.0) {
            return Err(fail(format!(
                "csr: edge weight {w} at slot {slot} outside (0, 1]"
            )));
        }
    }
    Ok(())
}

impl PreferenceGraph {
    /// Assembles a graph from owned, builder-validated CSR arrays, known
    /// to hold no self-loop when `loop_free`.
    pub(crate) fn new_owned(csr: CsrParts, labels: Option<Arc<[String]>>, loop_free: bool) -> Self {
        PreferenceGraph {
            store: Store::Owned(csr),
            labels,
            loop_free,
        }
    }

    /// Assembles a graph from raw owned CSR parts and optional labels
    /// (length `n`), re-validating the full CSR structure (offset shape,
    /// row sortedness, id bounds, weight domains). This is the buffered
    /// load path of on-disk containers.
    ///
    /// Unlike [`GraphBuilder`](crate::GraphBuilder), no node-weight sum
    /// check is applied: a container faithfully round-trips graphs built
    /// with `skip_weight_sum_check`.
    ///
    /// # Errors
    ///
    /// [`GraphError::Parse`] for structural violations,
    /// [`GraphError::InvalidNodeWeight`] / [`GraphError::InvalidEdgeWeight`]
    /// domains via their `Parse` rendering, [`GraphError::CapacityExceeded`]
    /// past `u32` index space.
    pub fn from_csr_parts(
        parts: CsrParts,
        labels: Option<Vec<String>>,
    ) -> Result<Self, GraphError> {
        validate_csr(parts.view(), labels.as_deref())?;
        Ok(PreferenceGraph {
            store: Store::Owned(parts),
            labels: labels.map(Arc::from),
            loop_free: false,
        })
    }

    /// Assembles a graph over an external zero-copy [`CsrSource`] (e.g. a
    /// memory-mapped container section table), re-validating the full CSR
    /// structure up front so later accessors cannot go out of bounds.
    ///
    /// # Errors
    ///
    /// As [`from_csr_parts`](Self::from_csr_parts).
    pub fn from_csr_source(
        source: Arc<dyn CsrSource>,
        labels: Option<Vec<String>>,
    ) -> Result<Self, GraphError> {
        validate_csr(source.csr(), labels.as_deref())?;
        Ok(PreferenceGraph {
            store: Store::External(source),
            labels: labels.map(Arc::from),
            loop_free: false,
        })
    }

    /// Whether the CSR arrays live in an external backing (memory-mapped
    /// container) rather than heap vectors owned by this graph.
    pub fn is_externally_backed(&self) -> bool {
        matches!(self.store, Store::External(_))
    }

    /// Materializes owned storage (no-op when already owned) and returns it
    /// mutably. Used by transforms that patch arrays in place.
    pub(crate) fn owned_mut(&mut self) -> &mut CsrParts {
        if let Store::External(src) = &self.store {
            self.store = Store::Owned(CsrParts::copied_from(src.csr()));
        }
        match &mut self.store {
            Store::Owned(csr) => csr,
            Store::External(_) => unreachable!("external store was just materialized"),
        }
    }

    /// The seven CSR arrays as one view. This is the one `match` on the
    /// backing; a kernel that walks many rows fetches it once per call.
    #[inline]
    pub fn csr(&self) -> Csr<'_> {
        match &self.store {
            Store::Owned(parts) => parts.view(),
            Store::External(source) => source.csr(),
        }
    }

    /// All node weights as a slice indexed by `ItemId::index`.
    #[inline]
    pub fn node_weights(&self) -> &[f64] {
        self.csr().node_weights
    }

    /// Node labels, length `n`, if labels were provided at build time.
    pub fn labels(&self) -> Option<&[String]> {
        self.labels.as_deref()
    }

    /// The label table itself, for a derived graph with the same nodes to
    /// share rather than copy.
    pub(crate) fn shared_labels(&self) -> Option<Arc<[String]>> {
        self.labels.clone()
    }

    /// Whether the graph is known to hold no edge `(v, v)`.
    pub(crate) fn is_loop_free(&self) -> bool {
        self.loop_free
    }

    /// Number of nodes (items).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_weights().len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.csr().out_targets.len()
    }

    /// Returns true if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_weights().is_empty()
    }

    /// Iterator over all node ids in ascending order.
    #[inline]
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = ItemId> + Clone {
        (0..self.node_count() as u32).map(ItemId::new)
    }

    /// The request probability `W(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn node_weight(&self, v: ItemId) -> f64 {
        self.csr().node_weight(v)
    }

    /// Sum of all node weights (1.0 for a well-formed preference graph, up
    /// to floating-point error).
    pub fn total_node_weight(&self) -> f64 {
        crate::float::sum_stable(self.node_weights().iter().copied())
    }

    /// The label of `v`, if labels were provided at build time.
    pub fn label(&self, v: ItemId) -> Option<&str> {
        self.labels.as_ref().map(|l| l[v.index()].as_str())
    }

    /// Whether the graph carries node labels.
    pub fn has_labels(&self) -> bool {
        self.labels.is_some()
    }

    /// Out-degree of `v` (number of alternatives consumers consider for it).
    #[inline]
    pub fn out_degree(&self, v: ItemId) -> usize {
        self.out_edges(v).len()
    }

    /// In-degree of `v` (number of items for which `v` is an alternative).
    #[inline]
    pub fn in_degree(&self, v: ItemId) -> usize {
        self.in_edges(v).len()
    }

    /// Maximum in-degree `D` over all nodes — the degree bound in the
    /// paper's `O(nkD)` greedy complexity.
    pub fn max_in_degree(&self) -> usize {
        self.node_ids()
            .map(|v| self.in_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Maximum out-degree over all nodes.
    pub fn max_out_degree(&self) -> usize {
        self.node_ids()
            .map(|v| self.out_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterates over the out-edges of `v` as `(target, weight)` pairs,
    /// sorted by target id.
    #[inline]
    pub fn out_edges(&self, v: ItemId) -> OutEdgesIter<'_> {
        self.csr().out_edges(v)
    }

    /// Iterates over the in-edges of `v` as `(source, weight)` pairs, sorted
    /// by source id. This is the iteration order of Algorithms 2–5.
    #[inline]
    pub fn in_edges(&self, v: ItemId) -> InEdgesIter<'_> {
        self.csr().in_edges(v)
    }

    /// The weight of edge `v → u`, or `None` if no such edge exists.
    ///
    /// `O(log out_degree(v))` via binary search on the sorted out-row.
    pub fn edge_weight(&self, v: ItemId, u: ItemId) -> Option<f64> {
        let row = self.out_edges(v);
        row.targets
            .binary_search(&u)
            .ok()
            .map(|pos| row.weights[pos])
    }

    /// Whether edge `v → u` exists.
    #[inline]
    pub fn has_edge(&self, v: ItemId, u: ItemId) -> bool {
        self.edge_weight(v, u).is_some()
    }

    /// Sum of outgoing edge weights of `v`.
    ///
    /// In the Normalized variant this is at most 1 (each consumer considers
    /// at most one alternative).
    pub fn out_weight_sum(&self, v: ItemId) -> f64 {
        crate::float::sum_stable(self.out_edges(v).weights.iter().copied())
    }

    /// Iterates all edges of the graph in `(source, target)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let csr = self.csr();
        self.node_ids()
            .flat_map(move |v| csr.out_edges(v).map(move |(u, w)| Edge::new(v, u, w)))
    }

    /// Resolves a label back to its id via linear scan.
    ///
    /// Intended for tests and small graphs; adapt pipelines keep their own
    /// label maps.
    pub fn find_by_label(&self, label: &str) -> Option<ItemId> {
        let labels = self.labels.as_ref()?;
        labels
            .iter()
            .position(|l| l == label)
            .map(ItemId::from_index)
    }

    /// Approximate resident memory of the CSR arrays in bytes, excluding
    /// labels. For an externally backed graph this is the mapped footprint
    /// rather than heap usage. Useful for capacity planning in scalability
    /// experiments.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let c = self.csr();
        size_of_val(c.node_weights)
            + size_of_val(c.out_offsets)
            + size_of_val(c.in_offsets)
            + size_of_val(c.out_targets)
            + size_of_val(c.in_sources)
            + size_of_val(c.out_weights)
            + size_of_val(c.in_weights)
    }
}

/// Bitwise equality on an `f64` slice pair. Weight arrays are compared by
/// bit pattern — the container round-trip contract is "the same bytes", and
/// this avoids both the `NaN != NaN` trap and tolerance-based float
/// comparison in what is fundamentally a storage equality.
fn f64_bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl PartialEq for PreferenceGraph {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.csr(), other.csr());
        f64_bits_eq(a.node_weights, b.node_weights)
            && a.out_offsets == b.out_offsets
            && a.out_targets == b.out_targets
            && f64_bits_eq(a.out_weights, b.out_weights)
            && a.in_offsets == b.in_offsets
            && a.in_sources == b.in_sources
            && f64_bits_eq(a.in_weights, b.in_weights)
            && self.labels == other.labels
    }
}

impl fmt::Debug for PreferenceGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreferenceGraph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .field("labels", &self.has_labels())
            .field(
                "backing",
                &if self.is_externally_backed() {
                    "external"
                } else {
                    "owned"
                },
            )
            .finish()
    }
}

/// Iterator over `(target, weight)` pairs of a node's out-edges.
#[derive(Clone, Debug)]
pub struct OutEdgesIter<'a> {
    targets: &'a [ItemId],
    weights: &'a [f64],
    pos: usize,
}

impl<'a> Iterator for OutEdgesIter<'a> {
    type Item = (ItemId, f64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.pos < self.targets.len() {
            let item = (self.targets[self.pos], self.weights[self.pos]);
            self.pos += 1;
            Some(item)
        } else {
            None
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.targets.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for OutEdgesIter<'_> {}

/// Iterator over `(source, weight)` pairs of a node's in-edges.
#[derive(Clone, Debug)]
pub struct InEdgesIter<'a> {
    sources: &'a [ItemId],
    weights: &'a [f64],
    pos: usize,
}

impl<'a> Iterator for InEdgesIter<'a> {
    type Item = (ItemId, f64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.pos < self.sources.len() {
            let item = (self.sources[self.pos], self.weights[self.pos]);
            self.pos += 1;
            Some(item)
        } else {
            None
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.sources.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for InEdgesIter<'_> {}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable constants
mod tests {
    use crate::GraphBuilder;

    use super::*;

    fn diamond() -> PreferenceGraph {
        // a -> b (0.5), a -> c (0.25), b -> c (1.0), d isolated
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.4);
        let bb = b.add_node(0.3);
        let c = b.add_node(0.2);
        let _d = b.add_node(0.1);
        b.add_edge(a, bb, 0.5).unwrap();
        b.add_edge(a, c, 0.25).unwrap();
        b.add_edge(bb, c, 1.0).unwrap();
        b.build().unwrap()
    }

    fn diamond_parts() -> CsrParts {
        CsrParts::copied_from(diamond().csr())
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        let (a, b, c, d) = (
            ItemId::new(0),
            ItemId::new(1),
            ItemId::new(2),
            ItemId::new(3),
        );
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.out_degree(b), 1);
        assert_eq!(g.out_degree(c), 0);
        assert_eq!(g.in_degree(c), 2);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.in_degree(d), 0);
        assert_eq!(g.max_in_degree(), 2);
        assert_eq!(g.max_out_degree(), 2);
    }

    #[test]
    fn edge_lookup() {
        let g = diamond();
        let (a, b, c) = (ItemId::new(0), ItemId::new(1), ItemId::new(2));
        assert_eq!(g.edge_weight(a, b), Some(0.5));
        assert_eq!(g.edge_weight(a, c), Some(0.25));
        assert_eq!(g.edge_weight(b, c), Some(1.0));
        assert_eq!(g.edge_weight(c, a), None);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
    }

    #[test]
    fn out_and_in_iterators_sorted() {
        let g = diamond();
        let a = ItemId::new(0);
        let c = ItemId::new(2);
        let outs: Vec<_> = g.out_edges(a).collect();
        assert_eq!(outs, vec![(ItemId::new(1), 0.5), (ItemId::new(2), 0.25)]);
        let ins: Vec<_> = g.in_edges(c).collect();
        assert_eq!(ins, vec![(ItemId::new(0), 0.25), (ItemId::new(1), 1.0)]);
        assert_eq!(g.out_edges(a).len(), 2);
        assert_eq!(g.in_edges(c).len(), 2);
    }

    #[test]
    fn edges_iterator_covers_everything() {
        let g = diamond();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], Edge::new(ItemId::new(0), ItemId::new(1), 0.5));
    }

    #[test]
    fn out_weight_sum() {
        let g = diamond();
        assert!((g.out_weight_sum(ItemId::new(0)) - 0.75).abs() < 1e-12);
        assert_eq!(g.out_weight_sum(ItemId::new(2)), 0.0);
    }

    #[test]
    fn total_node_weight_is_one() {
        let g = diamond();
        assert!((g.total_node_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn labels_roundtrip() {
        let mut b = GraphBuilder::new();
        let x = b.add_node_labeled(0.7, "iphone-silver");
        let y = b.add_node_labeled(0.3, "iphone-gold");
        b.add_edge(x, y, 0.5).unwrap();
        let g = b.build().unwrap();
        assert!(g.has_labels());
        assert_eq!(g.label(x), Some("iphone-silver"));
        assert_eq!(g.find_by_label("iphone-gold"), Some(y));
        assert_eq!(g.find_by_label("nope"), None);
    }

    #[test]
    fn memory_accounting_positive() {
        let g = diamond();
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn from_csr_parts_round_trips_builder_output() {
        let g = diamond();
        let back = PreferenceGraph::from_csr_parts(diamond_parts(), None).unwrap();
        assert_eq!(back, g);
        assert!(!back.is_externally_backed());
    }

    #[test]
    fn from_csr_parts_rejects_structural_violations() {
        // Offsets not ending at the edge count.
        let mut p = diamond_parts();
        p.out_offsets[4] = 2;
        assert!(PreferenceGraph::from_csr_parts(p, None).is_err());

        // Decreasing offsets.
        let mut p = diamond_parts();
        p.out_offsets[1] = 3;
        p.out_offsets[2] = 2;
        assert!(PreferenceGraph::from_csr_parts(p, None).is_err());

        // Out-of-range target id.
        let mut p = diamond_parts();
        p.out_targets[0] = ItemId::new(99);
        assert!(PreferenceGraph::from_csr_parts(p, None).is_err());

        // Unsorted row (duplicate target).
        let mut p = diamond_parts();
        p.out_targets[1] = p.out_targets[0];
        assert!(PreferenceGraph::from_csr_parts(p, None).is_err());

        // Edge weight out of domain.
        let mut p = diamond_parts();
        p.out_weights[0] = 0.0;
        assert!(PreferenceGraph::from_csr_parts(p, None).is_err());

        // Node weight out of domain.
        let mut p = diamond_parts();
        p.node_weights[0] = f64::NAN;
        assert!(PreferenceGraph::from_csr_parts(p, None).is_err());

        // Label count mismatch.
        let labels = Some(vec!["only-one".into()]);
        assert!(PreferenceGraph::from_csr_parts(diamond_parts(), labels).is_err());

        // Out/in edge count mismatch.
        let mut p = diamond_parts();
        p.in_sources.pop();
        p.in_weights.pop();
        assert!(PreferenceGraph::from_csr_parts(p, None).is_err());
    }

    #[derive(Debug)]
    struct VecSource(CsrParts);

    impl CsrSource for VecSource {
        fn csr(&self) -> Csr<'_> {
            self.0.view()
        }
    }

    #[test]
    fn external_source_behaves_like_owned() {
        let g = diamond();
        let ext =
            PreferenceGraph::from_csr_source(Arc::new(VecSource(diamond_parts())), None).unwrap();
        assert!(ext.is_externally_backed());
        assert_eq!(ext, g);
        let a = ItemId::new(0);
        assert_eq!(ext.out_degree(a), g.out_degree(a));
        assert_eq!(
            ext.out_edges(a).collect::<Vec<_>>(),
            g.out_edges(a).collect::<Vec<_>>()
        );
        // Clones share the external backing.
        let clone = ext.clone();
        assert!(clone.is_externally_backed());
        assert_eq!(clone, g);
    }

    #[test]
    fn external_source_with_bad_structure_is_rejected() {
        let mut p = diamond_parts();
        p.in_offsets[1] = 7;
        assert!(PreferenceGraph::from_csr_source(Arc::new(VecSource(p)), None).is_err());
    }

    #[test]
    fn debug_names_the_backing() {
        let g = diamond();
        let dbg = format!("{g:?}");
        assert!(dbg.contains("owned"), "{dbg}");
        let ext =
            PreferenceGraph::from_csr_source(Arc::new(VecSource(diamond_parts())), None).unwrap();
        assert!(format!("{ext:?}").contains("external"));
    }
}
