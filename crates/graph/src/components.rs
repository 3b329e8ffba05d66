//! Weakly connected components of a preference graph.
//!
//! Real preference graphs decompose into many independent substitution
//! islands (items in different departments never substitute for each
//! other). Because a node's cover depends only on its out-neighbors, the
//! cover function is **additive across weakly connected components**.
//! [`GraphStats`](crate::GraphStats) reports the component count and the
//! largest component's size.

// lint: allow-file(no-index) — ItemId values are dense indices assigned by GraphBuilder and every
// per-node/per-edge array is sized to node_count/edge_count, so accesses are in
// bounds by construction.
use crate::PreferenceGraph;

/// The component decomposition: a dense component id per node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// `component_of[v.index()]` — the component id of node `v`.
    pub component_of: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Size of the largest component.
    pub fn largest(&self) -> usize {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.component_of {
            sizes[c as usize] += 1;
        }
        sizes.into_iter().max().unwrap_or(0)
    }
}

/// Computes weakly connected components (edge orientation ignored) with an
/// iterative union-find; `O((n + m) α(n))`.
pub fn weakly_connected_components(g: &PreferenceGraph) -> Components {
    let n = g.node_count();
    let mut parent: Vec<u32> = (0..n as u32).collect();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            // Path halving.
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    for v in g.node_ids() {
        for (u, _) in g.out_edges(v) {
            let a = find(&mut parent, v.raw());
            let b = find(&mut parent, u.raw());
            if a != b {
                // Union by id keeps roots minimal, giving deterministic
                // component numbering.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi as usize] = lo;
            }
        }
    }

    // Relabel roots densely in first-appearance (ascending id) order.
    let mut component_of = vec![u32::MAX; n];
    let mut next = 0u32;
    for i in 0..n as u32 {
        let root = find(&mut parent, i);
        if component_of[root as usize] == u32::MAX {
            component_of[root as usize] = next;
            next += 1;
        }
        component_of[i as usize] = component_of[root as usize];
    }

    Components {
        component_of,
        count: next as usize,
    }
}

#[cfg(test)]
mod tests {
    use crate::examples::figure1_ids;
    use crate::GraphBuilder;

    use super::*;

    #[test]
    fn figure1_has_two_islands() {
        // {A, B, C} and {D, E}.
        let (g, ids) = figure1_ids();
        let c = weakly_connected_components(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.component_of[ids.a.index()], c.component_of[ids.b.index()]);
        assert_eq!(c.component_of[ids.b.index()], c.component_of[ids.c.index()]);
        assert_eq!(c.component_of[ids.d.index()], c.component_of[ids.e.index()]);
        assert_ne!(c.component_of[ids.a.index()], c.component_of[ids.d.index()]);
        assert_eq!(c.largest(), 3);
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        for _ in 0..4 {
            b.add_node(1.0);
        }
        let g = b.build().unwrap();
        let c = weakly_connected_components(&g);
        assert_eq!(c.count, 4);
        assert_eq!(c.largest(), 1);
    }

    #[test]
    fn orientation_is_ignored() {
        // x -> y and z -> y: all weakly connected despite no directed path
        // from x to z.
        let mut b = GraphBuilder::new().normalize_node_weights(true);
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        let z = b.add_node(1.0);
        b.add_edge(x, y, 0.5).unwrap();
        b.add_edge(z, y, 0.5).unwrap();
        let g = b.build().unwrap();
        let c = weakly_connected_components(&g);
        assert_eq!(c.count, 1);
    }

    #[test]
    fn component_ids_are_dense_and_deterministic() {
        let (g, _) = figure1_ids();
        let a = weakly_connected_components(&g);
        let b = weakly_connected_components(&g);
        assert_eq!(a, b);
        // Dense 0..count, first component contains node 0.
        assert_eq!(a.component_of[0], 0);
        assert!(a.component_of.iter().all(|&c| (c as usize) < a.count));
    }
}
