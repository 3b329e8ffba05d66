//! Incremental graph updates.
//!
//! Preference graphs are periodically re-derived from fresh clickstreams,
//! but many consumers of the graph (dashboards, the repair solver) want to
//! apply *small* changes — demand shifts, new items, delisted items,
//! re-estimated edges — without rebuilding from raw data. A [`GraphDelta`]
//! is an ordered batch of such changes; [`apply`] produces a new validated
//! graph. The CSR representation is immutable by design, so application
//! writes new arrays, but it patches rather than rebuilds them, in both
//! directions: rows the batch cannot reach are copied whole and only the
//! rows it edits or delists into are merged, an `O(n + m)` copy plus an
//! `O(|delta| log |delta|)` sort of the edits.
//! A batch that adds no node shares the label table of its base graph, so
//! successive generations carry one copy of the labels between them.

// lint: allow-file(no-index) — every node id is checked against the current node count before a
// per-node array is indexed with it, and row bounds come from validated CSR offsets, so accesses are
// in bounds by construction.
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::builder::settle_node_weights;
use crate::graph::CsrParts;
use crate::{GraphError, ItemId, PreferenceGraph};

/// One atomic change.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Change {
    /// Set the (unnormalized) demand weight of an existing node.
    SetNodeWeight {
        /// Target node.
        node: ItemId,
        /// New weight (nonnegative; the batch is renormalized at the end).
        weight: f64,
    },
    /// Add a new node with the given (unnormalized) demand weight; new ids
    /// are assigned densely after the existing ones in batch order.
    AddNode {
        /// New weight.
        weight: f64,
        /// Optional label.
        label: Option<String>,
    },
    /// Insert or update edge `source → target`.
    UpsertEdge {
        /// Edge source.
        source: ItemId,
        /// Edge target.
        target: ItemId,
        /// New weight in `(0, 1]`.
        weight: f64,
    },
    /// Remove edge `source → target` (a no-op if absent).
    RemoveEdge {
        /// Edge source.
        source: ItemId,
        /// Edge target.
        target: ItemId,
    },
    /// Delist a node: its weight becomes 0 and all incident edges are
    /// dropped. The id remains valid (dense ids are load-bearing for
    /// downstream reports).
    Delist {
        /// Target node.
        node: ItemId,
    },
}

/// An ordered batch of changes.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GraphDelta {
    /// Changes, applied in order.
    pub changes: Vec<Change>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style append.
    pub fn push(mut self, change: Change) -> Self {
        self.changes.push(change);
        self
    }

    /// Number of changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when there are no changes.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Serializes the delta as JSON — the wire format accepted by the
    /// serving layer's `POST /admin/delta` endpoint.
    ///
    /// # Errors
    ///
    /// [`GraphError::Parse`] when serialization fails (a change carrying a
    /// non-finite weight is the only practical way there; such a delta
    /// would be rejected by [`apply`] anyway).
    pub fn to_json_string(&self) -> Result<String, GraphError> {
        serde_json::to_string(self).map_err(|e| GraphError::Parse {
            line: None,
            message: e.to_string(),
        })
    }

    /// Parses a delta from its JSON wire format (see [`Self::to_json_string`]).
    ///
    /// # Errors
    ///
    /// [`GraphError::Parse`] with the offending line on malformed input.
    pub fn from_json_str(s: &str) -> Result<Self, GraphError> {
        serde_json::from_str(s).map_err(|e| GraphError::Parse {
            line: Some(e.line()),
            message: e.to_string(),
        })
    }

    /// Whether any change in the batch rescales node weights when applied:
    /// [`apply`] renormalizes the weight vector iff this is true, so an
    /// edge-only delta leaves every node weight bitwise intact.
    pub fn rescales_node_weights(&self) -> bool {
        self.changes.iter().any(|c| {
            matches!(
                c,
                Change::SetNodeWeight { .. } | Change::AddNode { .. } | Change::Delist { .. }
            )
        })
    }

    /// The dirty frontier of the delta against `base`: every node whose own
    /// weight, in-row, or out-row can differ between `base` and
    /// `apply(base, self)` — delisted/re-weighted nodes together with their
    /// CSR in/out rows, plus both endpoints of every edge change that is
    /// not a bitwise no-op. Sorted by id and deduplicated.
    ///
    /// The set is conservative for compound deltas (a change undone later
    /// in the same batch still touches its nodes), but never misses a
    /// touch: **an empty result guarantees `apply` is a bitwise identity**
    /// (weights, labels, edges, and CSR layout all unchanged). Downstream
    /// layers rely on that invariant to keep cached solve results and warm
    /// solver states valid across a snapshot swap.
    ///
    /// Note that when [`Self::rescales_node_weights`] is true, the post-apply
    /// renormalization perturbs *every* node weight, not only this set;
    /// consumers that need bitwise weight stability must compare weights
    /// directly (the warm-start solver does).
    pub fn touched_nodes(&self, base: &PreferenceGraph) -> Vec<ItemId> {
        let n = base.node_count();
        let mut added = 0usize;
        let mut touched: Vec<ItemId> = Vec::new();
        // Rows only exist in `base` for ids below its node count; ids the
        // delta itself introduced have no base rows to walk.
        let mark_with_rows = |t: &mut Vec<ItemId>, v: ItemId| {
            t.push(v);
            if v.index() < n {
                for (x, _) in base.out_edges(v) {
                    t.push(x);
                }
                for (x, _) in base.in_edges(v) {
                    t.push(x);
                }
            }
        };
        for change in &self.changes {
            match change {
                Change::SetNodeWeight { node, .. } | Change::Delist { node } => {
                    mark_with_rows(&mut touched, *node);
                }
                Change::AddNode { .. } => {
                    touched.push(ItemId::from_index(n + added));
                    added += 1;
                }
                Change::UpsertEdge {
                    source,
                    target,
                    weight,
                } => {
                    let unchanged = source.index() < n
                        && target.index() < n
                        && base.edge_weight(*source, *target).map(f64::to_bits)
                            == Some(weight.to_bits());
                    if !unchanged {
                        touched.push(*source);
                        touched.push(*target);
                    }
                }
                Change::RemoveEdge { source, target } => {
                    let exists =
                        source.index() < n && target.index() < n && base.has_edge(*source, *target);
                    if exists {
                        touched.push(*source);
                        touched.push(*target);
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }
}

/// Applies `delta` to `g` and returns the new graph. When the batch
/// rescales node weights ([`GraphDelta::rescales_node_weights`]) the result
/// is renormalized to sum to 1; an edge-only batch skips renormalization so
/// every node weight survives bitwise — the stability the warm-start
/// solver's eval savings and cache survival across snapshot swaps depend
/// on.
///
/// The batch is validated in order (the first failing change wins), then
/// both CSR directions are patched rather than rebuilt, by one row patch.
/// The edge edits are sorted by `(source, target)`, keeping the last edit
/// per pair, and a transposed copy by `(target, source)`. Rows no change
/// can reach are copied from `g` in runs. An edited row, a delisted node's
/// row, or a row holding an edge to or from a delisted node is merged with
/// its edits and filtered. That is an `O(n + m)` copy plus an
/// `O(|delta| log |delta|)` sort, with no hashing. A batch that adds no
/// node shares `g`'s label table. The result is owned even when `g` reads
/// from an external (memory-mapped) backing.
///
/// # Errors
///
/// Unknown node ids, out-of-domain weights and similar problems surface as
/// [`GraphError`]s; the input graph is never modified. A self-loop carried
/// over from `g` (legal in `.pcov` containers and in builders with
/// `allow_self_loops`) fails the apply with
/// [`GraphError::SelfLoopDisallowed`] unless the batch removes it or
/// delists its node, and a result with no nodes fails with
/// [`GraphError::EmptyGraph`].
pub fn apply(g: &PreferenceGraph, delta: &GraphDelta) -> Result<PreferenceGraph, GraphError> {
    let base_n = g.node_count();
    let mut weights: Vec<f64> = g.node_weights().to_vec();
    let mut added_labels: Vec<String> = Vec::new();
    let mut any_label = g.has_labels();
    let mut edits: Vec<EdgeEdit> = Vec::new();
    let mut delists: Vec<ItemId> = Vec::new();

    let check_node = |node: ItemId, len: usize| -> Result<(), GraphError> {
        if node.index() >= len {
            return Err(GraphError::UnknownNode { node });
        }
        Ok(())
    };

    for change in &delta.changes {
        match change {
            Change::SetNodeWeight { node, weight } => {
                check_node(*node, weights.len())?;
                if !weight.is_finite() || *weight < 0.0 {
                    return Err(GraphError::InvalidNodeWeight {
                        node: *node,
                        weight: *weight,
                    });
                }
                weights[node.index()] = *weight;
            }
            Change::AddNode { weight, label } => {
                if !weight.is_finite() || *weight < 0.0 {
                    return Err(GraphError::InvalidNodeWeight {
                        node: ItemId::from_index(weights.len()),
                        weight: *weight,
                    });
                }
                weights.push(*weight);
                added_labels.push(label.clone().unwrap_or_default());
                any_label |= label.is_some();
            }
            Change::UpsertEdge {
                source,
                target,
                weight,
            } => {
                check_node(*source, weights.len())?;
                check_node(*target, weights.len())?;
                if !weight.is_finite() || *weight <= 0.0 || *weight > 1.0 {
                    return Err(GraphError::InvalidEdgeWeight {
                        source: *source,
                        target: *target,
                        weight: *weight,
                    });
                }
                if source == target {
                    return Err(GraphError::SelfLoopDisallowed { node: *source });
                }
                edits.push(EdgeEdit {
                    row: *source,
                    col: *target,
                    weight: Some(*weight),
                });
            }
            Change::RemoveEdge { source, target } => {
                check_node(*source, weights.len())?;
                check_node(*target, weights.len())?;
                edits.push(EdgeEdit {
                    row: *source,
                    col: *target,
                    weight: None,
                });
            }
            Change::Delist { node } => {
                check_node(*node, weights.len())?;
                weights[node.index()] = 0.0;
                delists.push(*node);
            }
        }
    }

    let n = weights.len();
    // Newest edit first, so that after the stable sort the dedup keeps the
    // last edit the batch made to each pair. Out-CSR edits are keyed by
    // (source, target), their transposes by (target, source).
    edits.reverse();
    edits.sort_by_key(|e| (e.row, e.col));
    edits.dedup_by_key(|e| (e.row, e.col));
    let mut transposed: Vec<EdgeEdit> = edits.iter().map(EdgeEdit::transposed).collect();
    transposed.sort_unstable_by_key(|e| (e.row, e.col));
    // A delisted node keeps no incident edge, whatever the batch did to it
    // before or after the delist.
    let mut delisted = vec![false; n];
    for v in &delists {
        delisted[v.index()] = true;
    }
    let live = |v: ItemId| !delisted[v.index()];

    // The rows that can differ from `g`'s besides the edited ones: delisted
    // rows and, for each delisted node, the rows holding an edge into it
    // (out-CSR) or out of it (in-CSR).
    let base = g.csr();
    let (mut out_dirty, mut in_dirty) = (Vec::new(), Vec::new());
    for &v in &delists {
        out_dirty.push(v.index());
        in_dirty.push(v.index());
        if v.index() < base_n {
            out_dirty.extend(base.in_edges(v).map(|(u, _)| u.index()));
            in_dirty.extend(base.out_edges(v).map(|(t, _)| t.index()));
        }
    }
    let (out_offsets, out_targets, out_weights) = patch_rows(
        n,
        (base.out_offsets, base.out_targets, base.out_weights),
        out_dirty,
        &edits,
        live,
    );
    let (in_offsets, in_sources, in_weights) = patch_rows(
        n,
        (base.in_offsets, base.in_sources, base.in_weights),
        in_dirty,
        &transposed,
        live,
    );
    let mut csr = CsrParts {
        node_weights: weights,
        out_offsets,
        out_targets,
        out_weights,
        in_offsets,
        in_sources,
        in_weights,
    };
    // A self-loop can only come from `g` (upserting one was rejected
    // above), so a base known to be loop-free is not scanned. The result
    // refuses a loop as the builder would, naming the smallest surviving
    // one, before any weight error.
    if !g.is_loop_free() {
        let view = csr.view();
        let looped = (0..n)
            .map(ItemId::from_index)
            .find(|&v| view.out_edges(v).any(|(t, _)| t == v));
        if let Some(node) = looped {
            return Err(GraphError::SelfLoopDisallowed { node });
        }
    }
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if csr.out_targets.len() > u32::MAX as usize {
        return Err(GraphError::CapacityExceeded {
            what: "edge count exceeds u32::MAX",
        });
    }

    // Renormalize only when a change actually rescaled the weight vector.
    // An edge-only delta re-emits the (already normalized) weights of `g`
    // untouched; dividing them by their own sum again would perturb every
    // weight by float noise and silently invalidate all cached gains.
    let rescaled = delta.rescales_node_weights();
    settle_node_weights(&mut csr.node_weights, rescaled, !rescaled)?;

    let labels = if n == base_n {
        g.shared_labels()
    } else if any_label {
        let mut all: Vec<String> = Vec::with_capacity(n);
        match g.labels() {
            Some(base) => all.extend_from_slice(base),
            None => all.resize(base_n, String::new()),
        }
        all.append(&mut added_labels);
        Some(Arc::from(all))
    } else {
        None
    };
    // The result is loop-free: a surviving loop failed above.
    Ok(PreferenceGraph::new_owned(csr, labels, true))
}

/// One edge change of a batch in one CSR direction: in row `row`, an upsert
/// (`Some` weight) or a removal of the entry for `col`. Out-CSR edits have
/// the source as `row`; their transposes have the target.
#[derive(Clone, Copy, Debug)]
struct EdgeEdit {
    row: ItemId,
    col: ItemId,
    weight: Option<f64>,
}

impl EdgeEdit {
    /// The same change seen from the other CSR direction.
    fn transposed(&self) -> Self {
        EdgeEdit {
            row: self.col,
            col: self.row,
            weight: self.weight,
        }
    }
}

/// One CSR direction of [`apply`]'s result over `n` nodes, from `base`'s
/// `(offsets, ids, weights)` in that direction. Rows in `dirty` or holding
/// an edit are merged with their `edits` (sorted by `(row, col)`, one per
/// pair), keeping only `live` entries, and a dirty row of a node that is
/// not live comes out empty. Every other row is copied from `base` in runs
/// with its offsets shifted, and rows past `base`'s nodes are empty.
/// Offsets are `u32`; they wrap only past `u32::MAX` entries, which
/// [`apply`] rejects.
fn patch_rows(
    n: usize,
    base: (&[u32], &[ItemId], &[f64]),
    mut dirty: Vec<usize>,
    edits: &[EdgeEdit],
    live: impl Fn(ItemId) -> bool + Copy,
) -> (Vec<u32>, Vec<ItemId>, Vec<f64>) {
    let (base_offsets, base_ids, base_weights) = base;
    let base_n = base_offsets.len() - 1;
    dirty.extend(edits.iter().map(|e| e.row.index()));
    dirty.sort_unstable();
    dirty.dedup();

    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut ids: Vec<ItemId> = Vec::with_capacity(base_ids.len() + edits.len());
    let mut weights: Vec<f64> = Vec::with_capacity(base_ids.len() + edits.len());
    let mut pending = edits;
    let mut v = 0;
    for next in dirty.into_iter().chain([n]) {
        // Rows v..next are clean: those of `base` are copied in one run
        // with their offsets shifted, and rows past its nodes are empty.
        let end = next.min(base_n);
        if v < end {
            let (lo, hi) = (base_offsets[v] as usize, base_offsets[end] as usize);
            let at = ids.len();
            ids.extend_from_slice(&base_ids[lo..hi]);
            weights.extend_from_slice(&base_weights[lo..hi]);
            offsets.extend(
                base_offsets[v + 1..=end]
                    .iter()
                    .map(|&o| (o as usize - lo + at) as u32),
            );
        }
        offsets.resize(next + 1, ids.len() as u32);
        if next == n {
            break;
        }
        // Row `next` is dirty: merged with its edits, or empty when its
        // node is not live.
        let row = ItemId::from_index(next);
        let (row_edits, rest) = pending.split_at(pending.partition_point(|e| e.row == row));
        pending = rest;
        if live(row) {
            let (lo, hi) = match base_offsets.get(next..next + 2) {
                Some(&[lo, hi]) => (lo as usize, hi as usize),
                _ => (0, 0),
            };
            merge_row(
                &base_ids[lo..hi],
                &base_weights[lo..hi],
                row_edits,
                live,
                &mut ids,
                &mut weights,
            );
        }
        offsets.push(ids.len() as u32);
        v = next + 1;
    }
    (offsets, ids, weights)
}

/// Appends the merge of one row (sorted by id) with its edits (sorted by
/// `col`, one per `col`) to `ids`/`weights`: an upsert replaces or inserts
/// its entry, a removal drops it, and ids that are not `live` are dropped.
fn merge_row(
    row_ids: &[ItemId],
    row_weights: &[f64],
    edits: &[EdgeEdit],
    live: impl Fn(ItemId) -> bool,
    ids: &mut Vec<ItemId>,
    weights: &mut Vec<f64>,
) {
    let (mut i, mut j) = (0, 0);
    loop {
        let (id, weight) = match (row_ids.get(i), edits.get(j)) {
            (Some(&t), e) if e.is_none_or(|e| t < e.col) => {
                let w = row_weights[i];
                i += 1;
                (t, Some(w))
            }
            (t, Some(e)) => {
                if t == Some(&e.col) {
                    i += 1;
                }
                j += 1;
                (e.col, e.weight)
            }
            // Both sides are exhausted.
            _ => break,
        };
        if let Some(w) = weight {
            if live(id) {
                ids.push(id);
                weights.push(w);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable constants
mod tests {
    use crate::examples::figure1_ids;

    use super::*;

    #[test]
    fn empty_delta_preserves_structure() {
        let (g, _) = figure1_ids();
        let g2 = apply(&g, &GraphDelta::new()).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for v in g.node_ids() {
            assert!((g2.node_weight(v) - g.node_weight(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn demand_shift_renormalizes() {
        let (g, ids) = figure1_ids();
        let delta = GraphDelta::new().push(Change::SetNodeWeight {
            node: ids.e,
            weight: 0.60,
        });
        let g2 = apply(&g, &delta).unwrap();
        assert!((g2.total_node_weight() - 1.0).abs() < 1e-9);
        // E's share rose from 0.17 to 0.60 / (0.83 + 0.60).
        let expected = 0.60 / (0.33 + 0.22 + 0.22 + 0.06 + 0.60);
        assert!((g2.node_weight(ids.e) - expected).abs() < 1e-12);
    }

    #[test]
    fn add_node_and_edge() {
        let (g, ids) = figure1_ids();
        let delta = GraphDelta::new()
            .push(Change::AddNode {
                weight: 0.1,
                label: Some("F".into()),
            })
            .push(Change::UpsertEdge {
                source: ItemId::new(5),
                target: ids.d,
                weight: 0.4,
            });
        let g2 = apply(&g, &delta).unwrap();
        assert_eq!(g2.node_count(), 6);
        let f = ItemId::new(5);
        assert_eq!(g2.label(f), Some("F"));
        assert_eq!(g2.edge_weight(f, ids.d), Some(0.4));
    }

    #[test]
    fn upsert_overwrites_and_remove_is_idempotent() {
        let (g, ids) = figure1_ids();
        let delta = GraphDelta::new()
            .push(Change::UpsertEdge {
                source: ids.a,
                target: ids.b,
                weight: 0.5,
            })
            .push(Change::RemoveEdge {
                source: ids.e,
                target: ids.d,
            })
            .push(Change::RemoveEdge {
                source: ids.e,
                target: ids.d,
            });
        let g2 = apply(&g, &delta).unwrap();
        assert_eq!(g2.edge_weight(ids.a, ids.b), Some(0.5));
        assert_eq!(g2.edge_weight(ids.e, ids.d), None);
        assert_eq!(g2.edge_count(), g.edge_count() - 1);
    }

    #[test]
    fn delist_removes_weight_and_edges() {
        let (g, ids) = figure1_ids();
        let g2 = apply(&g, &GraphDelta::new().push(Change::Delist { node: ids.b })).unwrap();
        assert_eq!(g2.node_weight(ids.b), 0.0);
        assert_eq!(g2.edge_weight(ids.a, ids.b), None);
        assert_eq!(g2.edge_weight(ids.b, ids.c), None);
        assert_eq!(g2.edge_weight(ids.c, ids.b), None);
        // Remaining weights renormalized over A, C, D, E.
        assert!((g2.total_node_weight() - 1.0).abs() < 1e-9);
        assert!((g2.node_weight(ids.a) - 0.33 / 0.78).abs() < 1e-12);
    }

    #[test]
    fn changes_apply_in_order() {
        let (g, ids) = figure1_ids();
        // Delist then re-weight: the later change wins for the weight, but
        // incident edges stay dropped (delist marked them).
        let delta =
            GraphDelta::new()
                .push(Change::Delist { node: ids.b })
                .push(Change::SetNodeWeight {
                    node: ids.b,
                    weight: 0.22,
                });
        let g2 = apply(&g, &delta).unwrap();
        assert!(g2.node_weight(ids.b) > 0.0);
        assert_eq!(g2.edge_weight(ids.a, ids.b), None);
    }

    #[test]
    fn validation_errors() {
        let (g, ids) = figure1_ids();
        let bad_node = GraphDelta::new().push(Change::SetNodeWeight {
            node: ItemId::new(99),
            weight: 0.1,
        });
        assert!(matches!(
            apply(&g, &bad_node),
            Err(GraphError::UnknownNode { .. })
        ));

        let bad_weight = GraphDelta::new().push(Change::UpsertEdge {
            source: ids.a,
            target: ids.b,
            weight: 1.5,
        });
        assert!(matches!(
            apply(&g, &bad_weight),
            Err(GraphError::InvalidEdgeWeight { .. })
        ));

        let self_loop = GraphDelta::new().push(Change::UpsertEdge {
            source: ids.a,
            target: ids.a,
            weight: 0.5,
        });
        assert!(matches!(
            apply(&g, &self_loop),
            Err(GraphError::SelfLoopDisallowed { .. })
        ));

        let negative = GraphDelta::new().push(Change::AddNode {
            weight: -1.0,
            label: None,
        });
        assert!(apply(&g, &negative).is_err());
    }

    #[test]
    fn empty_delta_is_identity() {
        // Beyond node/edge counts: weights, labels, and every edge weight
        // survive a round through apply() bit-for-bit (renormalizing an
        // already-normalized weight vector is a no-op up to float noise).
        let (g, _) = figure1_ids();
        let g2 = apply(&g, &GraphDelta::new()).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for v in g.node_ids() {
            assert!((g2.node_weight(v) - g.node_weight(v)).abs() < 1e-12);
            assert_eq!(g2.label(v), g.label(v));
        }
        for e in g.edges() {
            assert_eq!(g2.edge_weight(e.source, e.target), Some(e.weight));
        }
    }

    #[test]
    fn delist_edge_target_drops_incoming_edges() {
        // D is a pure edge *target* in Figure 1 (E→D, and D sources
        // nothing); delisting it must remove the incoming edge even though
        // no outgoing adjacency mentions D.
        let (g, ids) = figure1_ids();
        let g2 = apply(&g, &GraphDelta::new().push(Change::Delist { node: ids.d })).unwrap();
        assert_eq!(g2.node_weight(ids.d), 0.0);
        assert_eq!(
            g2.edge_weight(ids.e, ids.d),
            None,
            "edge into the delisted target must be dropped"
        );
        assert_eq!(g2.edge_count(), g.edge_count() - 1);
        // Unrelated edges survive, and the remaining mass renormalizes.
        assert!(g2.edge_weight(ids.a, ids.b).is_some());
        assert!((g2.total_node_weight() - 1.0).abs() < 1e-9);
        assert!((g2.node_weight(ids.a) - 0.33 / 0.94).abs() < 1e-12);
    }

    #[test]
    fn set_node_weight_to_zero_renormalizes_over_the_rest() {
        let (g, ids) = figure1_ids();
        let delta = GraphDelta::new().push(Change::SetNodeWeight {
            node: ids.a,
            weight: 0.0,
        });
        let g2 = apply(&g, &delta).unwrap();
        assert_eq!(g2.node_weight(ids.a), 0.0);
        assert!((g2.total_node_weight() - 1.0).abs() < 1e-9);
        // The remaining mass (0.22 + 0.22 + 0.06 + 0.17 = 0.67) is scaled
        // back up to 1; B's share becomes 0.22 / 0.67.
        assert!((g2.node_weight(ids.b) - 0.22 / 0.67).abs() < 1e-12);
        // Unlike Delist, zeroing the weight keeps incident edges: the item
        // still transfers demand even if it has none of its own.
        assert!(g2.edge_weight(ids.a, ids.b).is_some());
    }

    #[test]
    fn json_helpers_roundtrip_and_report_parse_errors() {
        let delta = GraphDelta::new()
            .push(Change::SetNodeWeight {
                node: ItemId::new(2),
                weight: 0.4,
            })
            .push(Change::RemoveEdge {
                source: ItemId::new(0),
                target: ItemId::new(2),
            });
        let json = delta.to_json_string().unwrap();
        let back = GraphDelta::from_json_str(&json).unwrap();
        assert_eq!(back, delta);

        let err = GraphDelta::from_json_str("{\"changes\": [{\"Nope\": {}}]}");
        assert!(matches!(err, Err(GraphError::Parse { .. })));
    }

    #[test]
    fn touched_nodes_covers_weight_change_rows() {
        let (g, ids) = figure1_ids();
        // B sources edges to A and C and receives from A and C: weight
        // change dirties B plus both rows.
        let delta = GraphDelta::new().push(Change::SetNodeWeight {
            node: ids.b,
            weight: 0.5,
        });
        let mut expected = vec![ids.a, ids.b, ids.c];
        expected.sort_unstable();
        assert_eq!(delta.touched_nodes(&g), expected);
        // Delisting has the same frontier.
        let delist = GraphDelta::new().push(Change::Delist { node: ids.b });
        assert_eq!(delist.touched_nodes(&g), expected);
    }

    #[test]
    fn touched_nodes_edge_changes_mark_endpoints_only() {
        let (g, ids) = figure1_ids();
        let delta = GraphDelta::new()
            .push(Change::UpsertEdge {
                source: ids.a,
                target: ids.b,
                weight: 0.9,
            })
            .push(Change::RemoveEdge {
                source: ids.e,
                target: ids.d,
            });
        let mut expected = vec![ids.a, ids.b, ids.d, ids.e];
        expected.sort_unstable();
        assert_eq!(delta.touched_nodes(&g), expected);
    }

    #[test]
    fn touched_nodes_skips_bitwise_noop_edge_changes() {
        let (g, ids) = figure1_ids();
        let same = g.edge_weight(ids.a, ids.b).unwrap();
        let delta = GraphDelta::new()
            .push(Change::UpsertEdge {
                source: ids.a,
                target: ids.b,
                weight: same,
            })
            .push(Change::RemoveEdge {
                source: ids.d,
                target: ids.a,
            }); // absent edge: removing it is a no-op
        assert!(delta.touched_nodes(&g).is_empty());
        // And the invariant: empty touched set ⟹ apply is bitwise identity.
        let g2 = apply(&g, &delta).unwrap();
        for v in g.node_ids() {
            assert_eq!(g2.node_weight(v).to_bits(), g.node_weight(v).to_bits());
        }
        assert_eq!(g2.edge_count(), g.edge_count());
        for e in g.edges() {
            assert_eq!(
                g2.edge_weight(e.source, e.target).map(f64::to_bits),
                Some(e.weight.to_bits())
            );
        }
    }

    #[test]
    fn touched_nodes_includes_added_nodes() {
        let (g, _) = figure1_ids();
        let delta = GraphDelta::new()
            .push(Change::AddNode {
                weight: 0.1,
                label: None,
            })
            .push(Change::UpsertEdge {
                source: ItemId::new(5),
                target: ItemId::new(0),
                weight: 0.4,
            });
        let touched = delta.touched_nodes(&g);
        assert!(touched.contains(&ItemId::new(5)));
        assert!(touched.contains(&ItemId::new(0)));
        assert!(delta.rescales_node_weights());
    }

    #[test]
    fn edge_only_delta_preserves_node_weights_bitwise() {
        let (g, ids) = figure1_ids();
        let delta = GraphDelta::new()
            .push(Change::UpsertEdge {
                source: ids.a,
                target: ids.b,
                weight: 0.125,
            })
            .push(Change::RemoveEdge {
                source: ids.e,
                target: ids.d,
            });
        assert!(!delta.rescales_node_weights());
        let g2 = apply(&g, &delta).unwrap();
        for v in g.node_ids() {
            assert_eq!(
                g2.node_weight(v).to_bits(),
                g.node_weight(v).to_bits(),
                "edge-only delta must not perturb node weights"
            );
        }
        assert_eq!(g2.edge_weight(ids.a, ids.b), Some(0.125));
        assert_eq!(g2.edge_weight(ids.e, ids.d), None);
    }

    #[test]
    fn label_table_is_shared_unless_a_node_is_added() {
        let (g, ids) = figure1_ids();
        let table = |g: &PreferenceGraph| g.labels().map(<[String]>::as_ptr);
        let delist = GraphDelta::new().push(Change::Delist { node: ids.b });
        let g2 = apply(&g, &delist).unwrap();
        assert_eq!(table(&g2), table(&g));
        let grow = GraphDelta::new().push(Change::AddNode {
            weight: 0.1,
            label: Some("F".into()),
        });
        let g3 = apply(&g2, &grow).unwrap();
        assert_ne!(table(&g3), table(&g));
        assert_eq!(g3.labels().map(<[String]>::len), Some(6));
    }

    #[test]
    fn delta_serde_roundtrip() {
        let delta = GraphDelta::new()
            .push(Change::Delist {
                node: ItemId::new(1),
            })
            .push(Change::AddNode {
                weight: 0.5,
                label: Some("new".into()),
            });
        let json = serde_json::to_string(&delta).unwrap();
        let back: GraphDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
    }
}
