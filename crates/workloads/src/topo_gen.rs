//! Seeded random tree-topology generation.
//!
//! The paper's simulation studies use batches of random topologies with a
//! fixed node count and layer count ("100 network topologies with 5 layers
//! and 50 nodes", §VII-A; "81 nodes and 10 layers", §VII-B). The generator
//! here reproduces that: it first lays a backbone chain that realises the
//! requested depth, then attaches the remaining nodes to uniformly chosen
//! parents whose depth leaves room within the layer bound.

use tsch_sim::{SplitMix64, Tree, TreeBuilder};

/// An order-statistics set over node indices: membership toggles and
/// "k-th smallest member" queries in `O(log n)` via a Fenwick tree.
///
/// [`TopologyConfig::generate`] draws a uniform eligible parent per
/// attached node; rebuilding the eligible list per draw is `O(n)` and made
/// generation quadratic, which matters for the 100k+-node scale
/// topologies. Selecting the k-th member of this set is draw-for-draw
/// identical to indexing that list, so trees are unchanged.
struct EligibleSet {
    /// 1-based Fenwick array over the *full* capacity (so membership can
    /// be added incrementally without re-aggregating prefix ranges).
    fenwick: Vec<i64>,
    member: Vec<bool>,
    count: u64,
}

impl EligibleSet {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            fenwick: vec![0; capacity + 1],
            member: Vec::with_capacity(capacity),
            count: 0,
        }
    }

    fn add(&mut self, index: usize, delta: i64) {
        let mut pos = index + 1;
        while pos < self.fenwick.len() {
            self.fenwick[pos] += delta;
            pos += pos & pos.wrapping_neg();
        }
    }

    /// Appends the next index with the given membership.
    fn push(&mut self, eligible: bool) {
        let index = self.member.len();
        assert!(index + 1 < self.fenwick.len(), "capacity exceeded");
        self.member.push(eligible);
        if eligible {
            self.count += 1;
            self.add(index, 1);
        }
    }

    /// Sets an existing index's membership.
    fn set(&mut self, index: usize, eligible: bool) {
        if self.member[index] != eligible {
            self.member[index] = eligible;
            if eligible {
                self.count += 1;
                self.add(index, 1);
            } else {
                self.count -= 1;
                self.add(index, -1);
            }
        }
    }

    fn count(&self) -> u64 {
        self.count
    }

    /// Index of the `k`-th member (0-based, in increasing index order).
    fn kth(&self, k: u64) -> usize {
        debug_assert!(k < self.count);
        let target = i64::try_from(k + 1).expect("member count fits i64");
        let mut pos = 0usize;
        let mut remaining = target;
        let mut step = (self.fenwick.len() - 1).next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next < self.fenwick.len() && self.fenwick[next] < remaining {
                remaining -= self.fenwick[next];
                pos = next;
            }
            step >>= 1;
        }
        pos // largest 1-based prefix below the target, i.e. the 0-based answer
    }
}

/// Parameters for random tree generation.
///
/// # Examples
///
/// ```
/// use workloads::TopologyConfig;
///
/// let cfg = TopologyConfig { nodes: 50, layers: 5, max_children: 8 };
/// let tree = cfg.generate(42);
/// assert_eq!(tree.len(), 50);
/// assert_eq!(tree.layers(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyConfig {
    /// Total number of nodes including the gateway.
    pub nodes: u32,
    /// Exact depth of the tree (the maximum link layer).
    pub layers: u32,
    /// Upper bound on children per node (keeps trees realistic; use a large
    /// value for unconstrained growth).
    pub max_children: usize,
}

impl TopologyConfig {
    /// The paper's Fig. 11 simulation setting: 50 nodes, 5 layers.
    #[must_use]
    pub const fn paper_50_node() -> Self {
        Self {
            nodes: 50,
            layers: 5,
            max_children: 8,
        }
    }

    /// The paper's Fig. 12 setting: 81 nodes, 10 layers.
    #[must_use]
    pub const fn paper_81_node() -> Self {
        Self {
            nodes: 81,
            layers: 10,
            max_children: 8,
        }
    }

    /// Generates a random tree for this configuration.
    ///
    /// The same `(config, seed)` pair always produces the same tree.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is unsatisfiable: fewer than `layers + 1`
    /// nodes, zero layers with more than one node, or more nodes than
    /// `max_children` allows.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Tree {
        crate::obs::TOPOLOGIES_GENERATED.add(1);
        assert!(
            self.nodes > self.layers,
            "need more than {} nodes for {} layers",
            self.layers,
            self.layers
        );
        assert!(
            self.layers > 0 || self.nodes == 1,
            "multi-node trees need layers"
        );
        let mut rng = SplitMix64::new(seed);
        let nodes = self.nodes as usize;
        let mut builder = TreeBuilder::with_capacity(nodes);
        let mut depth = Vec::with_capacity(nodes);
        depth.push(0u32);
        let mut child_count = Vec::with_capacity(nodes);
        child_count.push(0usize);
        // A node is an eligible parent while its depth leaves room within
        // the layer bound and it has child capacity left. The set tracks
        // exactly the list the former O(n) rebuild produced, so each
        // `kth(next_below(count))` draw picks the same parent.
        let mut eligible = EligibleSet::with_capacity(nodes);
        let is_eligible =
            |depth: u32, children: usize| depth < self.layers && children < self.max_children;
        eligible.push(is_eligible(0, 0));

        // Backbone: a chain realising the exact depth.
        let mut tip = builder.root();
        for _ in 0..self.layers {
            let node = builder.add_child(tip).expect("tip exists");
            depth.push(depth[tip.index()] + 1);
            child_count.push(0);
            child_count[tip.index()] += 1;
            eligible.set(
                tip.index(),
                is_eligible(depth[tip.index()], child_count[tip.index()]),
            );
            eligible.push(is_eligible(depth[node.index()], 0));
            tip = node;
        }

        // Attach the rest to random eligible parents.
        while builder.len() < nodes {
            assert!(
                eligible.count() > 0,
                "max_children {} too small for {} nodes",
                self.max_children,
                self.nodes
            );
            let parent_idx = eligible.kth(rng.next_below(eligible.count()));
            let parent = tsch_sim::NodeId(parent_idx as u32);
            builder.add_child(parent).expect("parent exists");
            depth.push(depth[parent_idx] + 1);
            child_count.push(0);
            child_count[parent_idx] += 1;
            eligible.set(
                parent_idx,
                is_eligible(depth[parent_idx], child_count[parent_idx]),
            );
            eligible.push(is_eligible(*depth.last().unwrap(), 0));
        }
        builder.build()
    }

    /// Generates a batch of `count` independent topologies derived from one
    /// base seed (topology *i* uses `seed + i`).
    #[must_use]
    pub fn generate_batch(&self, seed: u64, count: usize) -> Vec<Tree> {
        (0..count)
            .map(|i| self.generate(seed.wrapping_add(i as u64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-Fenwick generator: rebuilds the eligible list per draw.
    /// Kept verbatim as the semantic reference for draw-for-draw identity.
    fn naive_generate(cfg: &TopologyConfig, seed: u64) -> Tree {
        let mut rng = SplitMix64::new(seed);
        let mut builder = TreeBuilder::new();
        let mut depth = vec![0u32];
        let mut child_count = vec![0usize];
        let mut tip = builder.root();
        for _ in 0..cfg.layers {
            let node = builder.add_child(tip).expect("tip exists");
            depth.push(depth[tip.index()] + 1);
            child_count.push(0);
            child_count[tip.index()] += 1;
            tip = node;
        }
        while builder.len() < cfg.nodes as usize {
            let eligible: Vec<usize> = (0..builder.len())
                .filter(|&i| depth[i] < cfg.layers && child_count[i] < cfg.max_children)
                .collect();
            let parent_idx = eligible[rng.next_below(eligible.len() as u64) as usize];
            let parent = tsch_sim::NodeId(parent_idx as u32);
            builder.add_child(parent).expect("parent exists");
            depth.push(depth[parent_idx] + 1);
            child_count.push(0);
            child_count[parent_idx] += 1;
        }
        builder.build()
    }

    #[test]
    fn fenwick_generator_is_draw_identical_to_naive() {
        let configs = [
            TopologyConfig::paper_50_node(),
            TopologyConfig::paper_81_node(),
            TopologyConfig {
                nodes: 200,
                layers: 7,
                max_children: 3,
            },
            TopologyConfig {
                nodes: 4,
                layers: 3,
                max_children: 2,
            },
        ];
        for cfg in configs {
            for seed in 0..10 {
                assert_eq!(
                    cfg.generate(seed),
                    naive_generate(&cfg, seed),
                    "{cfg:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn eligible_set_selects_kth_member() {
        let mut set = EligibleSet::with_capacity(10);
        for i in 0..10 {
            set.push(i % 2 == 0); // members: 0, 2, 4, 6, 8
        }
        assert_eq!(set.count(), 5);
        for (k, expect) in [(0, 0), (1, 2), (2, 4), (3, 6), (4, 8)] {
            assert_eq!(set.kth(k), expect);
        }
        set.set(4, false);
        set.set(5, true);
        assert_eq!(set.count(), 5);
        assert_eq!(set.kth(2), 5);
        set.set(5, true); // idempotent
        assert_eq!(set.count(), 5);
    }

    #[test]
    fn exact_node_and_layer_counts() {
        for seed in 0..20 {
            let tree = TopologyConfig::paper_50_node().generate(seed);
            assert_eq!(tree.len(), 50);
            assert_eq!(tree.layers(), 5, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = TopologyConfig {
            nodes: 30,
            layers: 4,
            max_children: 6,
        };
        assert_eq!(cfg.generate(7), cfg.generate(7));
        assert_ne!(cfg.generate(7), cfg.generate(8));
    }

    #[test]
    fn respects_max_children() {
        let cfg = TopologyConfig {
            nodes: 40,
            layers: 3,
            max_children: 4,
        };
        let tree = cfg.generate(3);
        for v in tree.nodes() {
            assert!(tree.children(v).len() <= 4);
        }
    }

    #[test]
    fn batch_is_seed_indexed() {
        let cfg = TopologyConfig::paper_50_node();
        let batch = cfg.generate_batch(100, 5);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch[2], cfg.generate(102));
    }

    #[test]
    fn eighty_one_node_ten_layer() {
        let tree = TopologyConfig::paper_81_node().generate(1);
        assert_eq!(tree.len(), 81);
        assert_eq!(tree.layers(), 10);
    }

    #[test]
    fn minimal_chain() {
        let cfg = TopologyConfig {
            nodes: 4,
            layers: 3,
            max_children: 2,
        };
        let tree = cfg.generate(0);
        assert_eq!(tree.len(), 4);
        assert_eq!(tree.layers(), 3);
    }

    #[test]
    #[should_panic(expected = "need more than")]
    fn too_few_nodes_panics() {
        let _ = TopologyConfig {
            nodes: 3,
            layers: 5,
            max_children: 4,
        }
        .generate(0);
    }

    #[test]
    fn every_layer_is_populated() {
        let tree = TopologyConfig::paper_81_node().generate(9);
        for d in 0..=10 {
            assert!(!tree.nodes_at_depth(d).is_empty(), "depth {d} empty");
        }
    }
}
