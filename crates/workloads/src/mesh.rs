//! Mesh (non-tree) topologies and their decomposition into a routing tree
//! plus interference edges.
//!
//! The paper restricts HARP to tree routing topologies and sketches the
//! extension to general graphs: "decompose the topology to multiple tree
//! structures and apply HARP in a divide and conquer fashion" (footnote 1).
//! This module provides the single-gateway instance of that extension: a
//! random geometric mesh is generated, an RPL-style shortest-hop spanning
//! tree is extracted for routing, and the remaining radio edges become
//! *interference edges* for the two-hop interference model — exactly how a
//! real 6TiSCH deployment looks, where nodes hear more neighbours than
//! they route through.

use tsch_sim::{NodeId, SplitMix64, Tree};

/// A connectivity mesh: nodes with undirected radio links.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    /// Number of nodes; node 0 is the gateway.
    nodes: u32,
    /// Undirected radio edges (smaller id first), sorted and deduplicated.
    edges: Vec<(NodeId, NodeId)>,
}

impl Mesh {
    /// Number of nodes in the mesh.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes as usize
    }

    /// Returns `true` for a single-node mesh.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes <= 1
    }

    /// The undirected radio edges.
    #[must_use]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// The radio neighbours of `node`.
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == node {
                    Some(b)
                } else if b == node {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Generates a connected random geometric mesh: `nodes` points on the
    /// unit square, radio edges between points closer than `radius`, extra
    /// edges added greedily (nearest pair across components) to guarantee
    /// connectivity.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    #[must_use]
    pub fn random_geometric(nodes: u32, radius: f64, seed: u64) -> Mesh {
        assert!(nodes > 0, "a mesh needs at least the gateway");
        let mut rng = SplitMix64::new(seed);
        let positions: Vec<(f64, f64)> = (0..nodes)
            .map(|i| {
                if i == 0 {
                    (0.5, 0.5) // gateway in the middle of the plant floor
                } else {
                    (rng.next_f64(), rng.next_f64())
                }
            })
            .collect();
        let dist2 = |a: usize, b: usize| {
            let dx = positions[a].0 - positions[b].0;
            let dy = positions[a].1 - positions[b].1;
            dx * dx + dy * dy
        };
        let mut edges = Vec::new();
        for a in 0..nodes as usize {
            for b in a + 1..nodes as usize {
                if dist2(a, b) <= radius * radius {
                    edges.push((NodeId(a as u32), NodeId(b as u32)));
                }
            }
        }
        // Connect components: repeatedly join the closest cross-component
        // pair (a long-range link through a repeater, in deployment terms).
        let mut component = union_find(nodes as usize, &edges);
        loop {
            let roots: std::collections::BTreeSet<u32> = (0..nodes as usize)
                .map(|i| find(&mut component, i) as u32)
                .collect();
            if roots.len() <= 1 {
                break;
            }
            let mut best: Option<(usize, usize, f64)> = None;
            for a in 0..nodes as usize {
                for b in a + 1..nodes as usize {
                    if find(&mut component, a) != find(&mut component, b) {
                        let d = dist2(a, b);
                        if best.map(|(_, _, bd)| d < bd).unwrap_or(true) {
                            best = Some((a, b, d));
                        }
                    }
                }
            }
            let (a, b, _) = best.expect("disconnected components exist");
            edges.push((NodeId(a as u32), NodeId(b as u32)));
            union(&mut component, a, b);
        }
        edges.sort_unstable();
        edges.dedup();
        Mesh { nodes, edges }
    }

    /// Extracts the RPL-style routing tree: BFS from the gateway, each node
    /// adopting the first (lowest-id) neighbour at the smaller hop count as
    /// its preferred parent. Returns the tree (node ids preserved) and the
    /// *interference edges* — every radio edge that is not a tree edge.
    ///
    /// # Examples
    ///
    /// ```
    /// use workloads::Mesh;
    ///
    /// let mesh = Mesh::random_geometric(30, 0.3, 7);
    /// let (tree, extra) = mesh.routing_tree();
    /// assert_eq!(tree.len(), 30);
    /// // Tree edges + interference edges = all radio edges.
    /// assert_eq!(extra.len(), mesh.edges().len() - (tree.len() - 1));
    /// ```
    #[must_use]
    pub fn routing_tree(&self) -> (Tree, Vec<(NodeId, NodeId)>) {
        let n = self.len();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut depth: Vec<Option<u32>> = vec![None; n];
        depth[0] = Some(0);
        let mut queue = std::collections::VecDeque::from([NodeId(0)]);
        while let Some(u) = queue.pop_front() {
            let mut neighbors = self.neighbors(u);
            neighbors.sort_unstable();
            for v in neighbors {
                if depth[v.index()].is_none() {
                    depth[v.index()] = Some(depth[u.index()].expect("u visited") + 1);
                    parent[v.index()] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        debug_assert!(depth.iter().all(Option::is_some), "mesh is connected");
        let pairs: Vec<(u32, u32)> = (1..n)
            .map(|i| {
                (
                    i as u32,
                    parent[i].expect("non-gateway node has a parent").0,
                )
            })
            .collect();
        let tree = Tree::from_parents(&pairs);
        let extra: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .copied()
            .filter(|&(a, b)| tree.parent(a) != Some(b) && tree.parent(b) != Some(a))
            .collect();
        (tree, extra)
    }
}

/// One tree of a multi-gateway decomposition: the extracted [`Tree`] plus
/// the mapping from its dense local node ids back to mesh node ids.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestTree {
    /// The routing tree (local ids, gateway = 0).
    pub tree: Tree,
    /// `mesh_ids[local.index()]` is the mesh node represented by `local`.
    pub mesh_ids: Vec<NodeId>,
}

impl Mesh {
    /// Decomposes the mesh into one routing tree per gateway — the paper's
    /// footnote 1 ("decompose the topology to multiple tree structures and
    /// apply HARP in a divide and conquer fashion"). Every node joins the
    /// hop-wise closest gateway (ties to the lower gateway index); each
    /// tree gets its own dense id space with its gateway as node 0.
    ///
    /// Combine with [`harp_core::BandPlan`] to give each tree a disjoint
    /// channel band, making the co-existing deployments collision-free
    /// with respect to each other.
    ///
    /// # Panics
    ///
    /// Panics if `gateways` is empty or names a node twice.
    ///
    /// # Examples
    ///
    /// ```
    /// use tsch_sim::NodeId;
    /// use workloads::Mesh;
    ///
    /// let mesh = Mesh::random_geometric(40, 0.3, 5);
    /// let forest = mesh.routing_forest(&[NodeId(0), NodeId(1)]);
    /// assert_eq!(forest.len(), 2);
    /// let covered: usize = forest.iter().map(|t| t.tree.len()).sum();
    /// assert_eq!(covered, 40);
    /// ```
    #[must_use]
    pub fn routing_forest(&self, gateways: &[NodeId]) -> Vec<ForestTree> {
        assert!(!gateways.is_empty(), "need at least one gateway");
        let mut owner: Vec<Option<usize>> = vec![None; self.len()];
        let mut parent: Vec<Option<NodeId>> = vec![None; self.len()];
        let mut queue = std::collections::VecDeque::new();
        for (g_idx, &g) in gateways.iter().enumerate() {
            assert!(owner[g.index()].is_none(), "gateway {g} listed twice");
            owner[g.index()] = Some(g_idx);
            queue.push_back(g);
        }
        // Multi-source BFS: nodes adopt the first wave that reaches them.
        while let Some(u) = queue.pop_front() {
            let mut neighbors = self.neighbors(u);
            neighbors.sort_unstable();
            for v in neighbors {
                if owner[v.index()].is_none() {
                    owner[v.index()] = owner[u.index()];
                    parent[v.index()] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        // Build each tree with a dense local id space (preorder from the
        // gateway so parents precede children).
        let mut forest = Vec::with_capacity(gateways.len());
        for (g_idx, &g) in gateways.iter().enumerate() {
            let mut mesh_ids = vec![g];
            let mut local_of = std::collections::BTreeMap::new();
            local_of.insert(g, NodeId(0));
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            let mut stack: Vec<NodeId> = vec![g];
            while let Some(u) = stack.pop() {
                let mut kids: Vec<NodeId> = (0..self.len() as u32)
                    .map(NodeId)
                    .filter(|&v| owner[v.index()] == Some(g_idx) && parent[v.index()] == Some(u))
                    .collect();
                kids.sort_unstable();
                for v in kids {
                    let local = NodeId(mesh_ids.len() as u32);
                    mesh_ids.push(v);
                    local_of.insert(v, local);
                    pairs.push((local.0, local_of[&u].0));
                    stack.push(v);
                }
            }
            let tree = Tree::from_parents(&pairs);
            forest.push(ForestTree { tree, mesh_ids });
        }
        forest
    }
}

fn union_find(n: usize, edges: &[(NodeId, NodeId)]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..n).collect();
    for &(a, b) in edges {
        union(&mut parent, a.index(), b.index());
    }
    parent
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra] = rb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_is_connected_and_deterministic() {
        let a = Mesh::random_geometric(40, 0.25, 3);
        let b = Mesh::random_geometric(40, 0.25, 3);
        assert_eq!(a, b);
        let (tree, _) = a.routing_tree();
        assert_eq!(tree.len(), 40, "every node reached the tree");
    }

    #[test]
    fn sparse_radius_still_connects() {
        let mesh = Mesh::random_geometric(25, 0.05, 1);
        let (tree, _) = mesh.routing_tree();
        assert_eq!(tree.len(), 25);
    }

    #[test]
    fn tree_edges_are_radio_edges() {
        let mesh = Mesh::random_geometric(30, 0.3, 9);
        let (tree, _) = mesh.routing_tree();
        for v in tree.nodes().skip(1) {
            let p = tree.parent(v).unwrap();
            let key = if v < p { (v, p) } else { (p, v) };
            assert!(mesh.edges().contains(&key), "tree edge {v}-{p} not in mesh");
        }
    }

    #[test]
    fn interference_edges_complement_tree_edges() {
        let mesh = Mesh::random_geometric(30, 0.35, 5);
        let (tree, extra) = mesh.routing_tree();
        assert_eq!(extra.len() + tree.len() - 1, mesh.edges().len());
        for &(a, b) in &extra {
            assert_ne!(tree.parent(a), Some(b));
            assert_ne!(tree.parent(b), Some(a));
        }
    }

    #[test]
    fn bfs_parents_minimise_hops() {
        let mesh = Mesh::random_geometric(30, 0.3, 11);
        let (tree, _) = mesh.routing_tree();
        // BFS property: a node's depth is ≤ every radio neighbour's + 1.
        for v in tree.nodes() {
            for w in mesh.neighbors(v) {
                assert!(tree.depth(v) <= tree.depth(w) + 1, "{v} vs {w}");
            }
        }
    }

    #[test]
    fn forest_partitions_all_nodes() {
        let mesh = Mesh::random_geometric(50, 0.3, 7);
        let forest = mesh.routing_forest(&[NodeId(0), NodeId(5), NodeId(9)]);
        assert_eq!(forest.len(), 3);
        let total: usize = forest.iter().map(|t| t.tree.len()).sum();
        assert_eq!(total, 50, "every node belongs to exactly one tree");
        // Mesh ids across trees are disjoint.
        let mut seen = std::collections::BTreeSet::new();
        for t in &forest {
            for &m in &t.mesh_ids {
                assert!(seen.insert(m), "{m} appears in two trees");
            }
        }
        // Local tree edges are mesh radio edges.
        for t in &forest {
            for v in t.tree.nodes().skip(1) {
                let p = t.tree.parent(v).unwrap();
                let (a, b) = (t.mesh_ids[v.index()], t.mesh_ids[p.index()]);
                let key = if a < b { (a, b) } else { (b, a) };
                assert!(mesh.edges().contains(&key));
            }
        }
    }

    #[test]
    fn forest_with_single_gateway_matches_routing_tree_size() {
        let mesh = Mesh::random_geometric(30, 0.3, 3);
        let forest = mesh.routing_forest(&[NodeId(0)]);
        let (tree, _) = mesh.routing_tree();
        assert_eq!(forest[0].tree.len(), tree.len());
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn forest_rejects_duplicate_gateways() {
        let mesh = Mesh::random_geometric(10, 0.4, 1);
        let _ = mesh.routing_forest(&[NodeId(0), NodeId(0)]);
    }

    #[test]
    fn single_node_mesh() {
        let mesh = Mesh::random_geometric(1, 0.5, 0);
        assert!(mesh.is_empty());
        let (tree, extra) = mesh.routing_tree();
        assert_eq!(tree.len(), 1);
        assert!(extra.is_empty());
    }
}
