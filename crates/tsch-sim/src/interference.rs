//! Interference models deciding when two same-cell transmissions collide.
//!
//! Two links scheduled on the *same cell* (same slot offset and channel
//! offset) may or may not actually collide, depending on radio geometry. The
//! simulator is parameterised over an [`InterferenceModel`]:
//!
//! * [`GlobalInterference`] — any two same-cell transmissions collide. The
//!   most conservative model; equals the paper's notion of a *schedule
//!   collision* (a cell assigned to more than one link).
//! * [`TwoHopInterference`] — transmissions collide when the links share a
//!   node, or a receiver is within radio range of the other sender. Range is
//!   tree adjacency plus optional extra interference edges (nodes that are
//!   physically close but not tree neighbours).

use crate::topology::{Link, NodeId, Tree};
use std::collections::HashSet;

/// Decides whether two links assigned to the same cell interfere.
///
/// Implementations must be symmetric: `conflicts(a, b) == conflicts(b, a)`.
/// The engine relies on it: it asks once per pair of a cell's active links
/// and marks both ends of a conflicting pair.
pub trait InterferenceModel {
    /// Returns `true` if simultaneous transmissions on `a` and `b` (same slot
    /// and channel) fail due to interference or radio constraints.
    fn conflicts(&self, tree: &Tree, a: Link, b: Link) -> bool;
}

/// Every pair of same-cell transmissions collides.
///
/// # Examples
///
/// ```
/// use tsch_sim::{GlobalInterference, InterferenceModel, Link, NodeId, Tree};
///
/// let tree = Tree::paper_fig1_example();
/// let m = GlobalInterference;
/// assert!(m.conflicts(&tree, Link::up(NodeId(4)), Link::up(NodeId(9))));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalInterference;

impl InterferenceModel for GlobalInterference {
    fn conflicts(&self, _tree: &Tree, _a: Link, _b: Link) -> bool {
        true
    }
}

/// Graph-based interference: links conflict when they share a node
/// (half-duplex / same-cell constraint) or when one link's receiver is in
/// radio range of the other link's sender (hidden-terminal collision).
///
/// Radio range is the tree adjacency plus any extra edges supplied at
/// construction ([`TwoHopInterference::with_extra_edges`]; the default has
/// none), which model nodes that hear each other without being routing
/// neighbours.
///
/// # Examples
///
/// ```
/// use tsch_sim::{InterferenceModel, Link, NodeId, Tree, TwoHopInterference};
///
/// let tree = Tree::paper_fig1_example();
/// let m = TwoHopInterference::default();
/// // Sibling uplinks share their receiver: always a conflict.
/// assert!(m.conflicts(&tree, Link::up(NodeId(4)), Link::up(NodeId(5))));
/// // Links in far-apart subtrees do not interfere.
/// assert!(!m.conflicts(&tree, Link::up(NodeId(4)), Link::up(NodeId(9))));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TwoHopInterference {
    /// Undirected extra radio edges, stored with the smaller id first.
    extra_edges: HashSet<(NodeId, NodeId)>,
}

impl TwoHopInterference {
    /// Adds extra radio edges beyond the routing tree.
    #[must_use]
    pub fn with_extra_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        Self {
            extra_edges: edges.into_iter().map(|(a, b)| normalise(a, b)).collect(),
        }
    }

    /// Returns `true` if `a` and `b` are within radio range of each other.
    #[must_use]
    pub(crate) fn in_range(&self, tree: &Tree, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        tree.parent(a) == Some(b)
            || tree.parent(b) == Some(a)
            || self.extra_edges.contains(&normalise(a, b))
    }
}

fn normalise(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl InterferenceModel for TwoHopInterference {
    fn conflicts(&self, tree: &Tree, a: Link, b: Link) -> bool {
        let (Ok((s1, r1)), Ok((s2, r2))) = (tree.endpoints(a), tree.endpoints(b)) else {
            return false;
        };
        // Shared node: half-duplex or same-receiver constraint.
        if s1 == s2 || s1 == r2 || r1 == s2 || r1 == r2 {
            return true;
        }
        // Hidden terminal: a receiver hears the other sender.
        self.in_range(tree, s2, r1) || self.in_range(tree, s1, r2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Direction;

    fn tree() -> Tree {
        Tree::paper_fig1_example()
    }

    #[test]
    fn global_conflicts_everything() {
        let t = tree();
        let m = GlobalInterference;
        for a in t.links(Direction::Up) {
            for b in t.links(Direction::Down) {
                assert!(m.conflicts(&t, a, b));
            }
        }
    }

    #[test]
    fn shared_receiver_conflicts() {
        let t = tree();
        let m = TwoHopInterference::default();
        // 4→1 and 5→1 share receiver 1.
        assert!(m.conflicts(&t, Link::up(NodeId(4)), Link::up(NodeId(5))));
    }

    #[test]
    fn shared_sender_conflicts() {
        let t = tree();
        let m = TwoHopInterference::default();
        // 1→4 and 1→5 share sender 1.
        assert!(m.conflicts(&t, Link::down(NodeId(4)), Link::down(NodeId(5))));
    }

    #[test]
    fn up_and_down_of_same_edge_conflict() {
        let t = tree();
        let m = TwoHopInterference::default();
        assert!(m.conflicts(&t, Link::up(NodeId(4)), Link::down(NodeId(4))));
    }

    #[test]
    fn chained_links_conflict() {
        let t = tree();
        let m = TwoHopInterference::default();
        // 9→7 and 7→3 share node 7.
        assert!(m.conflicts(&t, Link::up(NodeId(9)), Link::up(NodeId(7))));
    }

    #[test]
    fn hidden_terminal_via_tree_edge() {
        let t = tree();
        let m = TwoHopInterference::default();
        // 9→7 (receiver 7) and 8→3: sender 8's parent is 3; 8 is not
        // adjacent to 7, so no conflict from that side. But 10→7 up and
        // 9's downlink 7→9: sender 7 is adjacent to receiver 7? Use a
        // clearer case: up(9) rx=7 and down(11): sender 8 adjacent to 7? No
        // (8's parent is 3, 7's parent is 3, siblings are not adjacent).
        assert!(!m.conflicts(&t, Link::up(NodeId(9)), Link::down(NodeId(11))));
        // down(7): sender 3 transmits to 7; up(11): 11 transmits to 8,
        // receiver 8 is adjacent to sender 3 (8's parent is 3) → conflict.
        assert!(m.conflicts(&t, Link::down(NodeId(7)), Link::up(NodeId(11))));
    }

    #[test]
    fn distant_links_do_not_conflict() {
        let t = tree();
        let m = TwoHopInterference::default();
        // 4→1 and 9→7 share nothing and are far apart.
        assert!(!m.conflicts(&t, Link::up(NodeId(4)), Link::up(NodeId(9))));
        assert!(!m.conflicts(&t, Link::down(NodeId(4)), Link::down(NodeId(9))));
    }

    #[test]
    fn extra_edges_create_conflicts() {
        let t = tree();
        // Make node 4 and node 7 radio neighbours although not tree-adjacent.
        let m = TwoHopInterference::with_extra_edges([(NodeId(4), NodeId(7))]);
        // 9→7: receiver 7 now hears sender 4 of 4→1 → conflict.
        assert!(m.conflicts(&t, Link::up(NodeId(4)), Link::up(NodeId(9))));
        // Symmetric regardless of insertion order.
        let m2 = TwoHopInterference::with_extra_edges([(NodeId(7), NodeId(4))]);
        assert!(m2.conflicts(&t, Link::up(NodeId(9)), Link::up(NodeId(4))));
    }

    #[test]
    fn conflicts_is_symmetric() {
        let t = tree();
        let m = TwoHopInterference::default();
        for a in t.links(Direction::Up) {
            for b in t.links(Direction::Down) {
                assert_eq!(m.conflicts(&t, a, b), m.conflicts(&t, b, a));
            }
        }
    }

    #[test]
    fn root_link_is_never_conflicting() {
        let t = tree();
        let m = TwoHopInterference::default();
        // Link::up(root) is invalid; conflicts must return false, not panic.
        assert!(!m.conflicts(&t, Link::up(NodeId(0)), Link::up(NodeId(4))));
    }

    #[test]
    fn in_range_adjacency() {
        let t = tree();
        let m = TwoHopInterference::default();
        assert!(m.in_range(&t, NodeId(1), NodeId(0)));
        assert!(m.in_range(&t, NodeId(0), NodeId(1)));
        assert!(m.in_range(&t, NodeId(4), NodeId(4)));
        assert!(
            !m.in_range(&t, NodeId(4), NodeId(5)),
            "siblings not in range"
        );
    }
}
