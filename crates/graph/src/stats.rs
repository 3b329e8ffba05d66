//! Summary statistics over preference graphs.
//!
//! These power the Table 2 reproduction (dataset inventory) and the sanity
//! sections of experiment reports.

// lint: allow-file(no-index) — ItemId values are dense indices assigned by GraphBuilder and every
// per-node/per-edge array is sized to node_count/edge_count, so accesses are in
// bounds by construction.
use serde::{Deserialize, Serialize};

use crate::PreferenceGraph;

/// A histogram of node degrees with power-of-two buckets.
///
/// Bucket `i` counts nodes whose degree `d` satisfies
/// `2^(i-1) < d ≤ 2^i` (bucket 0 counts degree-0 nodes, bucket 1 degree-1).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegreeHistogram {
    /// Bucket counts; index is the bucket number described above.
    pub buckets: Vec<u64>,
}

impl DegreeHistogram {
    fn from_degrees(degrees: impl Iterator<Item = usize>) -> Self {
        let mut buckets: Vec<u64> = Vec::new();
        for d in degrees {
            let bucket = if d == 0 {
                0
            } else {
                (usize::BITS - (d - 1).leading_zeros()) as usize + 1
            };
            if buckets.len() <= bucket {
                buckets.resize(bucket + 1, 0);
            }
            buckets[bucket] += 1;
        }
        DegreeHistogram { buckets }
    }

    /// Total number of nodes counted.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Aggregate statistics of a preference graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of nodes (items).
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Mean out-degree (`edges / nodes`).
    pub avg_out_degree: f64,
    /// Maximum in-degree `D` (the paper's complexity parameter).
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Number of isolated nodes (no in- or out-edges).
    pub isolated_nodes: usize,
    /// Sum of node weights (≈ 1 for a well-formed graph).
    pub node_weight_sum: f64,
    /// Largest single node weight (popularity of the best-selling item).
    pub max_node_weight: f64,
    /// Mean edge weight.
    pub avg_edge_weight: f64,
    /// Fraction of nodes whose out-weight sum is ≤ 1 + ε (1.0 for any graph
    /// obeying the Normalized variant).
    pub normalized_fraction: f64,
    /// Number of weakly connected components — independent substitution
    /// islands, across which the cover function is additive.
    pub components: usize,
    /// Size of the largest weakly connected component.
    pub largest_component: usize,
    /// In-degree histogram with power-of-two buckets.
    pub in_degree_histogram: DegreeHistogram,
}

impl GraphStats {
    /// Computes statistics for `g` in a single pass over nodes and edges.
    pub fn compute(g: &PreferenceGraph) -> Self {
        let nodes = g.node_count();
        let edges = g.edge_count();

        let mut isolated = 0usize;
        let mut max_w = 0.0f64;
        let mut normalized_ok = 0usize;
        let mut edge_weight_sum = 0.0f64;
        for v in g.node_ids() {
            if g.in_degree(v) == 0 && g.out_degree(v) == 0 {
                isolated += 1;
            }
            max_w = max_w.max(g.node_weight(v));
            let out_sum = g.out_weight_sum(v);
            if out_sum <= 1.0 + crate::WEIGHT_EPSILON {
                normalized_ok += 1;
            }
            edge_weight_sum += out_sum;
        }

        let components = crate::components::weakly_connected_components(g);

        GraphStats {
            nodes,
            edges,
            avg_out_degree: if nodes == 0 {
                0.0
            } else {
                edges as f64 / nodes as f64
            },
            max_in_degree: g.max_in_degree(),
            max_out_degree: g.max_out_degree(),
            isolated_nodes: isolated,
            node_weight_sum: g.total_node_weight(),
            max_node_weight: max_w,
            avg_edge_weight: if edges == 0 {
                0.0
            } else {
                edge_weight_sum / edges as f64
            },
            normalized_fraction: if nodes == 0 {
                1.0
            } else {
                normalized_ok as f64 / nodes as f64
            },
            largest_component: components.largest(),
            components: components.count,
            in_degree_histogram: DegreeHistogram::from_degrees(
                g.node_ids().map(|v| g.in_degree(v)),
            ),
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable constants
mod tests {
    use crate::examples::figure1;
    use crate::GraphBuilder;

    use super::*;

    #[test]
    fn figure1_stats() {
        let g = figure1();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 4);
        assert_eq!(s.isolated_nodes, 0);
        assert!((s.node_weight_sum - 1.0).abs() < 1e-9);
        assert!((s.max_node_weight - 0.33).abs() < 1e-12);
        assert_eq!(s.normalized_fraction, 1.0);
        assert_eq!(s.components, 2);
        assert_eq!(s.largest_component, 3);
        assert_eq!(s.in_degree_histogram.total(), 5);
    }

    #[test]
    fn isolated_nodes_counted() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.5);
        let c = b.add_node(0.3);
        b.add_node(0.2); // isolated
        b.add_edge(a, c, 0.4).unwrap();
        let g = b.build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.isolated_nodes, 1);
        assert!((s.avg_edge_weight - 0.4).abs() < 1e-12);
    }

    #[test]
    fn degree_histogram_buckets() {
        // degrees: 0, 1, 2, 3, 5 -> buckets 0,1,2,3(two entries: 3 in bucket 3? )
        // bucket(d): 0 -> 0; 1 -> 1; 2 -> 2; 3..4 -> 3; 5..8 -> 4
        let h = DegreeHistogram::from_degrees(vec![0, 1, 2, 3, 5].into_iter());
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn stats_serde_roundtrip() {
        let g = figure1();
        let s = GraphStats::compute(&g);
        let json = serde_json::to_string(&s).unwrap();
        let back: GraphStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
