//! Tree routing topology of an industrial wireless network.
//!
//! Following the paper's network model (§II-A), the routing topology is a
//! tree `G = (V, E)` rooted at the gateway. Every non-root node has exactly
//! one parent; links are directed (uplink toward the gateway, downlink away
//! from it) and carry a *layer* attribute equal to the child endpoint's hop
//! count to the gateway. `l(V_i)` — written [`Tree::link_layer`] here — is the
//! layer shared by all links between `V_i` and its children, and the layer of
//! a subtree `l(G_Vi)` ([`Tree::subtree_layer`]) is the largest link layer
//! inside it.

use core::fmt;

/// Identifier of a network node. The gateway is node `0` by convention of
/// [`TreeBuilder::new`], but any id may be the root.
///
/// # Examples
///
/// ```
/// use tsch_sim::NodeId;
///
/// let n = NodeId(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "N3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Traffic direction of a link or packet hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Toward the gateway (child transmits to parent).
    Up,
    /// Away from the gateway (parent transmits to child).
    Down,
}

impl Direction {
    /// Both directions, uplink first.
    pub const BOTH: [Direction; 2] = [Direction::Up, Direction::Down];
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Up => write!(f, "up"),
            Direction::Down => write!(f, "down"),
        }
    }
}

/// A directed link in the tree, identified by its child endpoint and
/// direction. (Each non-root node has exactly one parent, so the child id
/// pins down the tree edge.)
///
/// # Examples
///
/// ```
/// use tsch_sim::{Direction, Link, NodeId};
///
/// let up = Link::up(NodeId(5));
/// assert_eq!(up.child, NodeId(5));
/// assert_eq!(up.direction, Direction::Up);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Link {
    /// The child endpoint of the tree edge.
    pub child: NodeId,
    /// Which way traffic flows on this link.
    pub direction: Direction,
}

impl Link {
    /// The uplink of `child` (child → parent).
    #[must_use]
    pub const fn up(child: NodeId) -> Self {
        Self {
            child,
            direction: Direction::Up,
        }
    }

    /// The downlink of `child` (parent → child).
    #[must_use]
    pub const fn down(child: NodeId) -> Self {
        Self {
            child,
            direction: Direction::Down,
        }
    }

    /// The link's dense id, `child * 2 + direction` — the index of every
    /// per-link table. Ids order links as the derived `Ord` does: child
    /// first, then `Up < Down`.
    #[must_use]
    pub fn dense_id(self) -> usize {
        self.child.index() * 2 + usize::from(self.direction == Direction::Down)
    }

    /// The link with dense id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id / 2` does not fit a node id.
    #[must_use]
    pub fn from_dense_id(id: usize) -> Link {
        Link {
            child: NodeId(u32::try_from(id / 2).expect("link ids come from u32 node ids")),
            direction: Direction::BOTH[id % 2],
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.child, self.direction)
    }
}

/// Errors constructing or querying a [`Tree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TopologyError {
    /// Referenced a node id that does not exist in the tree.
    UnknownNode(NodeId),
    /// The root has no parent, no uplink and no downlink.
    RootHasNoParent,
    /// Moving `child` under `new_parent` would close a cycle: `new_parent`
    /// is `child` or one of its descendants.
    Cycle {
        /// The node that was to move.
        child: NodeId,
        /// The parent it was to move under.
        new_parent: NodeId,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::RootHasNoParent => write!(f, "the gateway has no parent link"),
            TopologyError::Cycle { child, new_parent } => {
                write!(f, "{new_parent} is in the subtree of {child}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Incrementally builds a [`Tree`] root-first.
///
/// # Examples
///
/// ```
/// use tsch_sim::TreeBuilder;
///
/// let mut b = TreeBuilder::new();
/// let gw = b.root();
/// let relay = b.add_child(gw).unwrap();
/// let leaf = b.add_child(relay).unwrap();
/// let tree = b.build();
/// assert_eq!(tree.depth(leaf), 2);
/// assert_eq!(tree.parent(leaf), Some(relay));
/// ```
#[derive(Debug, Clone)]
pub struct TreeBuilder {
    parent: Vec<Option<NodeId>>,
}

impl TreeBuilder {
    /// Starts a tree whose root (the gateway) is node `0`.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(1)
    }

    /// Starts a tree like [`TreeBuilder::new`], with room for `nodes`
    /// nodes (the root included) before its table grows.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Self {
        let mut parent = Vec::with_capacity(nodes.max(1));
        parent.push(None);
        Self { parent }
    }

    /// The root node id.
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes added so far (including the root).
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if only the root exists. (Never fully empty.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.len() <= 1
    }

    /// Adds a node under `parent` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if `parent` has not been added.
    pub fn add_child(&mut self, parent: NodeId) -> Result<NodeId, TopologyError> {
        if parent.index() >= self.parent.len() {
            return Err(TopologyError::UnknownNode(parent));
        }
        let id = NodeId(u32::try_from(self.parent.len()).expect("more than u32::MAX nodes"));
        self.parent.push(Some(parent));
        Ok(id)
    }

    /// Finalises the tree, computing children lists and depths.
    #[must_use]
    pub fn build(self) -> Tree {
        Tree::from_parent_vec(self.parent)
    }
}

impl Default for TreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable rooted tree topology.
///
/// Node ids are dense: `0..len()`. Use [`TreeBuilder`] or
/// [`Tree::from_parents`] to construct one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    parent: Vec<Option<NodeId>>,
    /// Node `v`'s children are `child_ids[child_offsets[v]..child_offsets[v + 1]]`.
    child_offsets: Vec<u32>,
    /// Every non-root node, grouped by parent, in id order within a group.
    child_ids: Vec<NodeId>,
    depth: Vec<u32>,
    /// Max link layer within each node's subtree (`l(G_Vi)` in the paper);
    /// equals the node's own depth for leaves.
    subtree_layer: Vec<u32>,
    subtree_size: Vec<u32>,
}

impl Tree {
    /// Builds a tree from `(child, parent)` pairs; node `0` is the root and
    /// must not appear as a child.
    ///
    /// # Panics
    ///
    /// Panics if the pairs do not describe a tree over dense ids `1..=n`
    /// with parents of smaller construction order — use [`TreeBuilder`] for
    /// incremental, checked construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use tsch_sim::{NodeId, Tree};
    ///
    /// // 0 ← 1 ← 2, 0 ← 3
    /// let tree = Tree::from_parents(&[(1, 0), (2, 1), (3, 0)]);
    /// assert_eq!(tree.len(), 4);
    /// assert_eq!(tree.depth(NodeId(2)), 2);
    /// assert_eq!(tree.children(NodeId(0)), &[NodeId(1), NodeId(3)]);
    /// ```
    #[must_use]
    pub fn from_parents(pairs: &[(u32, u32)]) -> Tree {
        let n = pairs.len() + 1;
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        for &(child, par) in pairs {
            assert_ne!(child, 0, "the root cannot have a parent");
            assert!((child as usize) < n, "node ids must be dense 0..{n}");
            assert!((par as usize) < n, "node ids must be dense 0..{n}");
            assert!(parent[child as usize].is_none(), "duplicate child {child}");
            parent[child as usize] = Some(NodeId(par));
        }
        Tree::from_parent_vec(parent)
    }

    fn from_parent_vec(parent: Vec<Option<NodeId>>) -> Tree {
        let n = parent.len();
        assert!(u32::try_from(n).is_ok(), "dense u32 ids");
        // Counting sort by parent. A tree is only ever built whole, so the
        // child lists are rows of one array rather than a vector each.
        let mut child_offsets = vec![0u32; n + 1];
        for (i, &p) in parent.iter().enumerate() {
            match p {
                Some(p) => child_offsets[p.index() + 1] += 1,
                None => assert_eq!(i, 0, "exactly node 0 may be the root"),
            }
        }
        for v in 0..n {
            child_offsets[v + 1] += child_offsets[v];
        }
        // Fill with each row's start as its write cursor, which leaves
        // every offset at its row's end; one rotation restores the starts.
        let mut child_ids = vec![NodeId(0); n.saturating_sub(1)];
        for (i, &p) in parent.iter().enumerate() {
            if let Some(p) = p {
                let at = &mut child_offsets[p.index()];
                child_ids[*at as usize] = NodeId(i as u32);
                *at += 1;
            }
        }
        child_offsets.rotate_right(1);
        child_offsets[0] = 0;
        let children = |v: NodeId| {
            &child_ids[child_offsets[v.index()] as usize..child_offsets[v.index() + 1] as usize]
        };
        // Depths: breadth first from the root, one node at a time into
        // `order`. Parents must form an acyclic structure; TreeBuilder
        // guarantees parents precede children, from_parents re-checks
        // reachability here.
        let mut depth = vec![u32::MAX; n];
        depth[0] = 0;
        let mut order = Vec::with_capacity(n);
        order.push(NodeId(0));
        let mut next = 0;
        while let Some(&u) = order.get(next) {
            next += 1;
            for &c in children(u) {
                assert_eq!(depth[c.index()], u32::MAX, "cycle at {c}");
                depth[c.index()] = depth[u.index()] + 1;
                order.push(c);
            }
        }
        assert_eq!(order.len(), n, "all nodes must be reachable from the root");

        // Breadth-first order walked backwards is deepest first: every
        // child is folded into its parent before the parent into its own.
        let mut subtree_layer = depth.clone();
        let mut subtree_size = vec![1u32; n];
        for &v in order.iter().rev() {
            if let Some(p) = parent[v.index()] {
                let (vi, pi) = (v.index(), p.index());
                subtree_layer[pi] = subtree_layer[pi].max(subtree_layer[vi]);
                subtree_size[pi] += subtree_size[vi];
            }
        }

        Tree {
            parent,
            child_offsets,
            child_ids,
            depth,
            subtree_layer,
            subtree_size,
        }
    }

    /// The gateway (root) node.
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes, including the gateway.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the tree is only the gateway.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.len() <= 1
    }

    /// Iterates over all node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.parent.len()).map(|i| NodeId(i as u32))
    }

    /// The parent of `node`, or `None` for the root.
    #[must_use]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// The children of `node`, in id order (a tree is built whole from its
    /// parent pointers, so a joined or reparented node sits by its id).
    #[must_use]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        let v = node.index();
        &self.child_ids[self.child_offsets[v] as usize..self.child_offsets[v + 1] as usize]
    }

    /// Returns `true` if `node` has no children.
    #[must_use]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children(node).is_empty()
    }

    /// Hop count from `node` to the gateway.
    #[must_use]
    pub fn depth(&self, node: NodeId) -> u32 {
        self.depth[node.index()]
    }

    /// `l(V_i)`: the layer of the links connecting `node` to its children
    /// (the children's hop count), i.e. `depth(node) + 1`.
    #[must_use]
    pub fn link_layer(&self, node: NodeId) -> u32 {
        self.depth(node) + 1
    }

    /// The layer of the link whose child endpoint is `link.child`.
    #[must_use]
    pub fn layer_of_link(&self, link: Link) -> u32 {
        self.depth(link.child)
    }

    /// `l(G_Vi)`: the largest link layer within the subtree rooted at `node`.
    /// For a leaf this equals its own depth (it has no links below it).
    #[must_use]
    pub fn subtree_layer(&self, node: NodeId) -> u32 {
        self.subtree_layer[node.index()]
    }

    /// Number of nodes in the subtree rooted at `node`, including `node`.
    #[must_use]
    pub fn subtree_size(&self, node: NodeId) -> u32 {
        self.subtree_size[node.index()]
    }

    /// The maximum link layer in the whole network (the paper's "number of
    /// layers", e.g. 5 for the testbed).
    #[must_use]
    pub fn layers(&self) -> u32 {
        self.subtree_layer(self.root())
    }

    /// All nodes at a given depth (hop count), in id order.
    #[must_use]
    pub fn nodes_at_depth(&self, d: u32) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.depth(v) == d).collect()
    }

    /// The nodes of the subtree rooted at `node`, in preorder.
    #[must_use]
    pub fn subtree_nodes(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.subtree_size(node) as usize);
        let mut stack = vec![node];
        while let Some(u) = stack.pop() {
            out.push(u);
            // Reverse so preorder visits children in id order.
            for &c in self.children(u).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The uplink routing path from `node` to the gateway, inclusive of both.
    #[must_use]
    pub fn path_to_root(&self, node: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.depth(node) as usize + 1);
        path.push(node);
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// All node ids in post-order (children before parents). Useful for the
    /// bottom-up resource-interface generation phase.
    #[must_use]
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = Vec::new();
        self.postorder_into(&mut order, &mut Vec::new());
        order
    }

    /// [`Tree::postorder`] into `order`, with `stack` as the walk's stack;
    /// both reserve the whole tree, so warm buffers allocate nothing.
    pub fn postorder_into(&self, order: &mut Vec<NodeId>, stack: &mut Vec<NodeId>) {
        order.clear();
        order.reserve(self.len());
        stack.clear();
        stack.reserve(self.len());
        stack.push(self.root());
        // A preorder that visits children in id order, reversed: children
        // before parents.
        while let Some(v) = stack.pop() {
            order.push(v);
            stack.extend(self.children(v).iter().rev());
        }
        order.reverse();
    }

    /// Returns `true` if `ancestor` lies on `node`'s path to the root
    /// (a node is its own ancestor).
    #[must_use]
    pub(crate) fn is_ancestor(&self, ancestor: NodeId, node: NodeId) -> bool {
        let mut cur = node;
        loop {
            if cur == ancestor {
                return true;
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// The sender and receiver endpoints of a directed link.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::RootHasNoParent`] if `link.child` is the root.
    pub fn endpoints(&self, link: Link) -> Result<(NodeId, NodeId), TopologyError> {
        let parent = self
            .parent(link.child)
            .ok_or(TopologyError::RootHasNoParent)?;
        Ok(match link.direction {
            Direction::Up => (link.child, parent),
            Direction::Down => (parent, link.child),
        })
    }

    /// All directed links in the tree for one direction, ordered by child id.
    #[must_use]
    pub fn links(&self, direction: Direction) -> Vec<Link> {
        self.nodes()
            .filter(|&v| v != self.root())
            .map(|v| Link {
                child: v,
                direction,
            })
            .collect()
    }

    /// A copy of this tree in which `child`'s parent becomes `new_parent` —
    /// the topology change caused by a node switching to a more reliable
    /// relay (the paper's interference-driven dynamics).
    ///
    /// # Errors
    ///
    /// * [`TopologyError::RootHasNoParent`] if `child` is the root.
    /// * [`TopologyError::UnknownNode`] if either node does not exist.
    /// * [`TopologyError::Cycle`] if `new_parent` lies inside `child`'s
    ///   subtree.
    ///
    /// # Examples
    ///
    /// ```
    /// use tsch_sim::{NodeId, Tree};
    ///
    /// let tree = Tree::paper_fig1_example();
    /// let moved = tree.with_reparented(NodeId(9), NodeId(1)).unwrap();
    /// assert_eq!(moved.parent(NodeId(9)), Some(NodeId(1)));
    /// assert_eq!(moved.depth(NodeId(9)), 2);
    /// ```
    pub fn with_reparented(
        &self,
        child: NodeId,
        new_parent: NodeId,
    ) -> Result<Tree, TopologyError> {
        if child == self.root() {
            return Err(TopologyError::RootHasNoParent);
        }
        if let Some(&unknown) = [child, new_parent].iter().find(|v| v.index() >= self.len()) {
            return Err(TopologyError::UnknownNode(unknown));
        }
        if self.is_ancestor(child, new_parent) {
            return Err(TopologyError::Cycle { child, new_parent });
        }
        let mut parent = self.parent.clone();
        parent[child.index()] = Some(new_parent);
        Ok(Tree::from_parent_vec(parent))
    }

    /// A copy of this tree with one new leaf under `parent`; returns the
    /// new tree and the id of the added node (always `len()` of the old
    /// tree) — a node joining the network.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if `parent` does not exist.
    ///
    /// # Examples
    ///
    /// ```
    /// use tsch_sim::{NodeId, Tree};
    ///
    /// let tree = Tree::paper_fig1_example();
    /// let (grown, id) = tree.with_new_leaf(NodeId(9)).unwrap();
    /// assert_eq!(id, NodeId(12));
    /// assert_eq!(grown.depth(id), 4);
    /// assert_eq!(grown.layers(), 4, "the network grew deeper");
    /// ```
    pub fn with_new_leaf(&self, parent: NodeId) -> Result<(Tree, NodeId), TopologyError> {
        if parent.index() >= self.len() {
            return Err(TopologyError::UnknownNode(parent));
        }
        let id = NodeId(u32::try_from(self.len()).expect("more than u32::MAX nodes"));
        let mut parents = self.parent.clone();
        parents.push(Some(parent));
        Ok((Tree::from_parent_vec(parents), id))
    }

    /// The example 12-node, 3-layer topology of Fig. 1(a) in the paper.
    ///
    /// Gateway `0`; layer-1 nodes 1, 2, 3; node 1 has children 4, 5;
    /// node 2 has child 6; node 3 has children 7, 8; node 7 has children
    /// 9, 10; node 8 has child 11.
    #[must_use]
    pub fn paper_fig1_example() -> Tree {
        Tree::from_parents(&[
            (1, 0),
            (2, 0),
            (3, 0),
            (4, 1),
            (5, 1),
            (6, 2),
            (7, 3),
            (8, 3),
            (9, 7),
            (10, 7),
            (11, 8),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Tree {
        Tree::paper_fig1_example()
    }

    #[test]
    fn builder_constructs_chain() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        assert!(b.is_empty());
        let a = b.add_child(root).unwrap();
        let c = b.add_child(a).unwrap();
        assert_eq!(b.len(), 3);
        let t = b.build();
        assert_eq!(t.depth(c), 2);
        assert_eq!(t.parent(c), Some(a));
        assert_eq!(t.parent(root), None);
    }

    /// Depth, subtree layer and subtree size of every node by recursion
    /// over the parent table alone.
    fn naive_shape(parent: &[Option<NodeId>]) -> Vec<(u32, u32, u32)> {
        fn below(v: usize, parent: &[Option<NodeId>], depth: u32) -> (u32, u32) {
            let (mut layer, mut size) = (depth, 1);
            for c in (0..parent.len()).filter(|&c| parent[c] == Some(NodeId(v as u32))) {
                let (l, s) = below(c, parent, depth + 1);
                layer = layer.max(l);
                size += s;
            }
            (layer, size)
        }
        (0..parent.len())
            .map(|v| {
                let mut depth = 0;
                let mut cur = v;
                while let Some(p) = parent[cur] {
                    depth += 1;
                    cur = p.index();
                }
                let (layer, size) = below(v, parent, depth);
                (depth, layer, size)
            })
            .collect()
    }

    fn assert_shape_is_naive(t: &Tree, what: &str) {
        let naive = naive_shape(&t.parent);
        for v in t.nodes() {
            assert_eq!(
                (t.depth(v), t.subtree_layer(v), t.subtree_size(v)),
                naive[v.index()],
                "{what}: node {v}"
            );
        }
    }

    /// `depth`, `subtree_layer` and `subtree_size` against recursion, on
    /// random trees whose labels are shuffled so that a parent may have a
    /// larger id than its child, and on reparented copies of them.
    #[test]
    fn shape_tables_match_a_recursive_referee() {
        let mut rng = crate::SplitMix64::new(0x7EE5);
        for case in 0..200u64 {
            let n = 1 + rng.next_below(120) as usize;
            // Node k of the construction order hangs under an earlier one;
            // the labels 1..n are then shuffled, the root keeps 0.
            let mut label: Vec<u32> = (0..n as u32).collect();
            for i in (2..n).rev() {
                let j = 1 + rng.next_below(i as u64) as usize;
                label.swap(i, j);
            }
            let pairs: Vec<(u32, u32)> = (1..n)
                .map(|k| (label[k], label[rng.next_below(k as u64) as usize]))
                .collect();
            let t = Tree::from_parents(&pairs);
            assert_shape_is_naive(&t, &format!("case {case}"));
            for _ in 0..4 {
                if n < 3 {
                    break;
                }
                let child = NodeId(1 + rng.next_below(n as u64 - 1) as u32);
                let to = NodeId(rng.next_below(n as u64) as u32);
                if let Ok(moved) = t.with_reparented(child, to) {
                    assert_shape_is_naive(&moved, &format!("case {case}, {child} under {to}"));
                }
            }
        }
    }

    #[test]
    fn builder_rejects_unknown_parent() {
        let mut b = TreeBuilder::new();
        assert_eq!(
            b.add_child(NodeId(9)).unwrap_err(),
            TopologyError::UnknownNode(NodeId(9))
        );
    }

    #[test]
    fn fig1_shape() {
        let t = fig1();
        assert_eq!(t.len(), 12);
        assert_eq!(t.layers(), 3);
        assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(t.children(NodeId(7)), &[NodeId(9), NodeId(10)]);
        assert!(t.is_leaf(NodeId(4)));
        assert!(!t.is_leaf(NodeId(7)));
    }

    #[test]
    fn fig1_depths_and_layers() {
        let t = fig1();
        assert_eq!(t.depth(NodeId(0)), 0);
        assert_eq!(t.depth(NodeId(3)), 1);
        assert_eq!(t.depth(NodeId(7)), 2);
        assert_eq!(t.depth(NodeId(9)), 3);
        // l(V_i) is the layer of V_i's links to its children.
        assert_eq!(t.link_layer(NodeId(0)), 1);
        assert_eq!(t.link_layer(NodeId(3)), 2);
        assert_eq!(t.link_layer(NodeId(7)), 3);
        // Link layer equals child's hop count.
        assert_eq!(t.layer_of_link(Link::up(NodeId(9))), 3);
        assert_eq!(t.layer_of_link(Link::down(NodeId(1))), 1);
    }

    #[test]
    fn fig1_subtree_layers() {
        let t = fig1();
        // G_V3 contains links at layers 2 and 3.
        assert_eq!(t.subtree_layer(NodeId(3)), 3);
        // G_V1 contains layer-2 links only.
        assert_eq!(t.subtree_layer(NodeId(1)), 2);
        // A leaf's subtree has no links below; its layer is its own depth.
        assert_eq!(t.subtree_layer(NodeId(4)), 2);
        assert_eq!(t.subtree_layer(NodeId(0)), 3);
    }

    #[test]
    fn fig1_subtree_sizes() {
        let t = fig1();
        assert_eq!(t.subtree_size(NodeId(0)), 12);
        assert_eq!(t.subtree_size(NodeId(3)), 6);
        assert_eq!(t.subtree_size(NodeId(7)), 3);
        assert_eq!(t.subtree_size(NodeId(4)), 1);
    }

    #[test]
    fn nodes_at_depth_matches_fig1() {
        let t = fig1();
        assert_eq!(t.nodes_at_depth(0), vec![NodeId(0)]);
        assert_eq!(t.nodes_at_depth(1), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(t.nodes_at_depth(3).len(), 3);
    }

    #[test]
    fn subtree_nodes_preorder() {
        let t = fig1();
        let sub = t.subtree_nodes(NodeId(3));
        assert_eq!(
            sub,
            vec![
                NodeId(3),
                NodeId(7),
                NodeId(9),
                NodeId(10),
                NodeId(8),
                NodeId(11)
            ]
        );
    }

    #[test]
    fn postorder_visits_children_first() {
        let t = fig1();
        let order = t.postorder();
        assert_eq!(order.len(), 12);
        let pos = |n: u32| {
            order
                .iter()
                .position(|&v| v == NodeId(n))
                .expect("node in order")
        };
        for &(child, parent) in &[(1u32, 0u32), (4, 1), (7, 3), (9, 7), (11, 8), (3, 0)] {
            assert!(pos(child) < pos(parent), "{child} before {parent}");
        }
    }

    #[test]
    fn path_to_root_from_leaf() {
        let t = fig1();
        assert_eq!(
            t.path_to_root(NodeId(9)),
            vec![NodeId(9), NodeId(7), NodeId(3), NodeId(0)]
        );
        assert_eq!(t.path_to_root(NodeId(0)), vec![NodeId(0)]);
    }

    #[test]
    fn ancestry() {
        let t = fig1();
        assert!(t.is_ancestor(NodeId(0), NodeId(9)));
        assert!(t.is_ancestor(NodeId(3), NodeId(9)));
        assert!(t.is_ancestor(NodeId(9), NodeId(9)));
        assert!(!t.is_ancestor(NodeId(1), NodeId(9)));
        assert!(!t.is_ancestor(NodeId(9), NodeId(3)));
    }

    #[test]
    fn endpoints_follow_direction() {
        let t = fig1();
        assert_eq!(
            t.endpoints(Link::up(NodeId(9))).unwrap(),
            (NodeId(9), NodeId(7))
        );
        assert_eq!(
            t.endpoints(Link::down(NodeId(9))).unwrap(),
            (NodeId(7), NodeId(9))
        );
        assert_eq!(
            t.endpoints(Link::up(NodeId(0))).unwrap_err(),
            TopologyError::RootHasNoParent
        );
    }

    #[test]
    fn links_enumerates_all_non_root() {
        let t = fig1();
        let ups = t.links(Direction::Up);
        assert_eq!(ups.len(), 11);
        assert!(ups.iter().all(|l| l.direction == Direction::Up));
    }

    #[test]
    #[should_panic(expected = "root cannot have a parent")]
    fn from_parents_rejects_root_child() {
        let _ = Tree::from_parents(&[(0, 1)]);
    }

    /// The child rows are exactly the per-node lists pushed in id order,
    /// whatever order the pairs arrive in.
    #[test]
    fn child_rows_equal_per_node_lists() {
        let mut rng = crate::rng::SplitMix64::new(0xC5A);
        for _ in 0..50 {
            let n = 2 + rng.next_below(120) as u32;
            let mut pairs: Vec<(u32, u32)> = (1..n)
                .map(|i| (i, rng.next_below(u64::from(i)) as u32))
                .collect();
            let in_id_order = pairs.clone();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let tree = Tree::from_parents(&pairs);
            for v in tree.nodes() {
                let list: Vec<NodeId> = in_id_order
                    .iter()
                    .filter(|&&(_, parent)| parent == v.0)
                    .map(|&(child, _)| NodeId(child))
                    .collect();
                assert_eq!(tree.children(v), list, "children of {v}");
                assert_eq!(tree.is_leaf(v), list.is_empty());
            }
        }
    }

    #[test]
    fn equality_sees_one_moved_parent() {
        let t = fig1();
        assert_eq!(t, fig1());
        // Same node count, same child counts at every depth but one edge.
        let moved = t.with_reparented(NodeId(10), NodeId(8)).unwrap();
        assert_ne!(t, moved);
        assert_eq!(moved.with_reparented(NodeId(10), NodeId(7)).unwrap(), t);
    }

    #[test]
    fn a_refused_reparent_names_its_reason() {
        let t = fig1();
        let cycle = TopologyError::Cycle {
            child: NodeId(3),
            new_parent: NodeId(9),
        };
        assert_eq!(t.with_reparented(NodeId(3), NodeId(9)), Err(cycle));
        let unknown = TopologyError::UnknownNode(NodeId(12));
        assert_eq!(t.with_reparented(NodeId(12), NodeId(1)), Err(unknown));
        let root = TopologyError::RootHasNoParent;
        assert_eq!(t.with_reparented(NodeId(0), NodeId(1)), Err(root));
    }

    #[test]
    fn single_node_tree() {
        let t = TreeBuilder::new().build();
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.layers(), 0);
        assert!(t.links(Direction::Up).is_empty());
        assert_eq!(t.subtree_nodes(t.root()), vec![NodeId(0)]);
    }
}
