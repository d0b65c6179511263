//! Test support for the referees in `tests/`: what two or more of them
//! share.
//!
//! * [`alloc`]: the counting allocator behind every allocation budget;
//! * [`seeded`]: the seeded trees, demands, scenarios and networks;
//! * [`NodeContents`]: what a node holds, read through every getter;
//! * [`PreImage`]: what a rejected protocol event must leave as it found;
//! * [`assert_rows_installed`]: the schedule as a projection of what the
//!   children installed.
//!
//! No crate depends on this one. It depends on `tsch-sim`, `packing` and
//! `harp-core`, so a test that needs them lives here instead of giving a
//! lower crate a dev-dependency on a crate above it.

pub mod alloc;
pub mod seeded;

use harp_core::{
    CellRun, CompositionLayout, HarpNetwork, HarpNode, NodeObsCounters, ResourceInterface,
};
use packing::Rect;
use tsch_sim::{Cell, Direction, Link, NodeId, Tree};

/// Everything [`HarpNode`]'s getters read of one node: what it holds, not
/// where its network keeps it. Two nodes with equal contents behave the
/// same, whatever runs of the network's tables their state sits in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeContents {
    directions: [DirContents; 2],
    counters: NodeObsCounters,
}

/// [`NodeContents`] of one direction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DirContents {
    requirements: Vec<(NodeId, u32)>,
    child_interfaces: Vec<(NodeId, ResourceInterface)>,
    interface: Option<ResourceInterface>,
    layouts: Vec<(u32, CompositionLayout)>,
    partitions: Vec<(u32, Rect)>,
    child_partitions: Vec<(u32, Vec<(NodeId, Rect)>)>,
    pending: Vec<(u32, NodeId)>,
    assignments: Vec<(NodeId, CellRun)>,
    installed: CellRun,
}

impl NodeContents {
    /// Reads `node` through every getter.
    #[must_use]
    pub fn of(node: HarpNode<'_>) -> Self {
        let direction = |d| DirContents {
            requirements: node.requirements(d).collect(),
            child_interfaces: node.child_interfaces(d).collect(),
            interface: node.interface(d),
            layouts: node.layouts(d).collect(),
            partitions: node.partitions(d).collect(),
            child_partitions: node
                .child_partitions(d)
                .map(|(layer, placed)| (layer, placed.to_vec()))
                .collect(),
            pending: node.pending(d).collect(),
            assignments: node.assignments(d).collect(),
            installed: node.installed(d),
        };
        Self {
            directions: Direction::BOTH.map(direction),
            counters: node.counters(),
        }
    }
}

/// Panics, naming `ctx`, unless every link's row of `net`'s schedule holds
/// the run its child installed ([`HarpNode::installed`]): what a rollback,
/// which restores the rows from the logged own cells alone, relies on.
pub fn assert_rows_installed(net: &HarpNetwork, ctx: &str) {
    for link in Direction::BOTH.map(|d| net.tree().links(d)).concat() {
        let installed = net.node(link.child).installed(link.direction);
        let row = net.schedule().cells_of(link).iter().copied();
        assert!(row.eq(installed), "{ctx}: {link} is not as installed");
    }
}

/// Everything a rejected event must leave as it found it.
pub struct PreImage {
    tree: Tree,
    nodes: Vec<NodeContents>,
    rows: Vec<(Link, Vec<Cell>)>,
    schedule_version: u64,
}

impl PreImage {
    #[must_use]
    pub fn of(net: &HarpNetwork) -> Self {
        Self {
            tree: net.tree().clone(),
            nodes: net
                .tree()
                .nodes()
                .map(|v| NodeContents::of(net.node(v)))
                .collect(),
            rows: net
                .schedule()
                .iter_links()
                .map(|(l, c)| (l, c.to_vec()))
                .collect(),
            schedule_version: net.schedule().version(),
        }
    }

    /// Panics, naming `ctx`, unless `net` is back where [`PreImage::of`]
    /// found it and has no message in flight.
    pub fn assert_restored(&self, net: &HarpNetwork, ctx: &str) {
        assert!(*net.tree() == self.tree, "{ctx}: tree");
        // One node per tree entry is the runner's own (debug) invariant, so
        // the node count follows the tree's.
        for (v, before) in self.tree.nodes().zip(&self.nodes) {
            assert_eq!(NodeContents::of(net.node(v)), *before, "{ctx}: node {v}");
        }
        let after = net.schedule().iter_links();
        assert!(
            after.eq(self.rows.iter().map(|(l, c)| (*l, c.as_slice()))),
            "{ctx}: schedule rows"
        );
        assert_eq!(
            net.schedule().version(),
            self.schedule_version,
            "{ctx}: version"
        );
        assert!(net.quiescent(), "{ctx}: messages left in flight");
    }
}
