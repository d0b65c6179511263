//! Canned experiment scenarios mirroring the paper's setups.

use crate::topo_gen::TopologyConfig;
use tsch_sim::Tree;

/// A fixed 50-node, 5-layer tree standing in for the testbed topology of
/// Fig. 7(c).
///
/// The paper's exact node placement is not published; this deterministic
/// stand-in has the same node count, depth, and a comparable branching
/// profile (a handful of layer-1 relays, wider middle layers, sparse leaves
/// at layer 5), which is what the latency and adjustment experiments depend
/// on.
///
/// # Examples
///
/// ```
/// use workloads::testbed_50_node_tree;
///
/// let tree = testbed_50_node_tree();
/// assert_eq!(tree.len(), 50);
/// assert_eq!(tree.layers(), 5);
/// ```
#[must_use]
pub fn testbed_50_node_tree() -> Tree {
    // (child, parent) pairs. Gateway 0; layer 1: 1-4; layer 2: 5-16;
    // layer 3: 17-32; layer 4: 33-44; layer 5: 45-49.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    // Layer 1: four relays under the gateway.
    for c in 1..=4 {
        pairs.push((c, 0));
    }
    // Layer 2: three children per relay.
    for (i, c) in (5..=16).enumerate() {
        pairs.push((c, 1 + (i / 3) as u32));
    }
    // Layer 3: sixteen nodes spread over layer 2 (nodes 5..=12 get two each).
    for (i, c) in (17..=32).enumerate() {
        pairs.push((c, 5 + (i / 2) as u32));
    }
    // Layer 4: twelve nodes under the first twelve layer-3 nodes.
    for (i, c) in (33..=44).enumerate() {
        pairs.push((c, 17 + i as u32));
    }
    // Layer 5: five leaves under the first five layer-4 nodes.
    for (i, c) in (45..=49).enumerate() {
        pairs.push((c, 33 + i as u32));
    }
    Tree::from_parents(&pairs)
}

/// The random-topology batch of Fig. 11: 100 seeded 50-node, 5-layer trees.
#[must_use]
pub fn fig11_topologies() -> Vec<Tree> {
    TopologyConfig::paper_50_node().generate_batch(0xF1_611, 100)
}

/// The topology family of Fig. 12: 81-node, 10-layer trees.
#[must_use]
pub fn fig12_topologies(count: usize) -> Vec<Tree> {
    TopologyConfig::paper_81_node().generate_batch(0xF1_612, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_tree_shape() {
        let tree = testbed_50_node_tree();
        assert_eq!(tree.len(), 50);
        assert_eq!(tree.layers(), 5);
        assert_eq!(tree.nodes_at_depth(1).len(), 4);
        assert_eq!(tree.nodes_at_depth(2).len(), 12);
        assert_eq!(tree.nodes_at_depth(3).len(), 16);
        assert_eq!(tree.nodes_at_depth(4).len(), 12);
        assert_eq!(tree.nodes_at_depth(5).len(), 5);
    }

    #[test]
    fn fig11_batch_has_100_valid_topologies() {
        let batch = fig11_topologies();
        assert_eq!(batch.len(), 100);
        for t in &batch {
            assert_eq!(t.len(), 50);
            assert_eq!(t.layers(), 5);
        }
    }

    #[test]
    fn fig12_topologies_have_ten_layers() {
        for t in fig12_topologies(3) {
            assert_eq!(t.len(), 81);
            assert_eq!(t.layers(), 10);
        }
    }
}
