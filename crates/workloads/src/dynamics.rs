//! Demand recomputation for the dynamic experiments.

use tsch_sim::{Link, NodeId, Rate, Tree};

/// The new uplink cell requirement of every link on `node`'s path to the
/// gateway if the node's own rate becomes `new_rate` while every other node
/// keeps `base_rate` (one task per node, echo traffic).
///
/// Returns `(link, new_cells)` pairs from the node upward. This is the
/// demand recomputation a rate change induces: every ancestor link forwards
/// the extra packets.
#[must_use]
pub fn uplink_demand_after_change(
    tree: &Tree,
    node: NodeId,
    base_rate: Rate,
    new_rate: Rate,
) -> Vec<(Link, u32)> {
    let path = tree.path_to_root(node);
    path.windows(2)
        .map(|hop| {
            let child = hop[0];
            // Everyone in the child's subtree sends at base_rate except
            // `node`, which sends at new_rate.
            let others = f64::from(tree.subtree_size(child) - 1) * base_rate.as_f64();
            let cells = (others + new_rate.as_f64()).ceil() as u32;
            (Link::up(child), cells)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_recomputation_on_chain() {
        // 0 ← 1 ← 2: node 2's rate goes 1 → 3.
        let tree = Tree::from_parents(&[(1, 0), (2, 1)]);
        let demands = uplink_demand_after_change(
            &tree,
            NodeId(2),
            Rate::per_slotframe(1),
            Rate::per_slotframe(3),
        );
        assert_eq!(demands.len(), 2);
        // Link 2→1 carries only node 2's traffic: 3 cells.
        assert_eq!(demands[0], (Link::up(NodeId(2)), 3));
        // Link 1→0 carries node 1's own packet plus node 2's three.
        assert_eq!(demands[1], (Link::up(NodeId(1)), 4));
    }

    #[test]
    fn fractional_rate_rounds_up_per_link() {
        let tree = Tree::from_parents(&[(1, 0), (2, 1)]);
        let demands = uplink_demand_after_change(
            &tree,
            NodeId(2),
            Rate::per_slotframe(1),
            Rate::new(3, 2).unwrap(),
        );
        assert_eq!(demands[0].1, 2, "ceil(1.5)");
        assert_eq!(demands[1].1, 3, "ceil(1 + 1.5)");
    }

    #[test]
    fn unchanged_rate_reproduces_subtree_demand() {
        let tree = Tree::paper_fig1_example();
        let r = Rate::per_slotframe(1);
        let demands = uplink_demand_after_change(&tree, NodeId(9), r, r);
        for (link, cells) in demands {
            assert_eq!(cells, tree.subtree_size(link.child));
        }
    }
}
