//! Test support for the referees in `tests/`: what two or more of them
//! share.
//!
//! * [`alloc`]: the counting allocator behind every allocation budget;
//! * [`seeded`]: the seeded trees, demands, scenarios and networks;
//! * [`NodeContents`]: what a node holds, read through every getter;
//! * [`PreImage`]: what a rejected protocol event must leave as it found;
//! * [`assert_rows_installed`]: the schedule as a projection of what the
//!   children installed, and that as what their parents assigned last.
//!
//! No crate depends on this one. It depends on `tsch-sim`, `packing` and
//! `harp-core`, so a test that needs them lives here instead of giving a
//! lower crate a dev-dependency on a crate above it.

pub mod alloc;
pub mod seeded;

use harp_core::{CellRun, CompositionLayout, HarpNetwork, HarpNode, ResourceInterface};
use packing::Rect;
use tsch_sim::{Cell, Direction, Link, NodeId, Tree};

/// Everything [`HarpNode`]'s getters read of one node: what it holds, not
/// where its network keeps it. Two nodes with equal contents behave the
/// same, whatever runs of the network's tables their state sits in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeContents {
    directions: [DirContents; 2],
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
        }
    }
}

/// Panics, naming `ctx`, at the first link found by [`misinstalled`].
pub fn assert_rows_installed(net: &HarpNetwork, ctx: &str) {
    if let Some(fault) = misinstalled(net) {
        panic!("{ctx}: {fault}");
    }
}

/// The first link whose row of `net`'s schedule is not the run its child
/// installed ([`HarpNode::installed`]) — what a rollback, which restores
/// the rows from the logged own cells alone, relies on — or whose installed
/// run is not the one its parent assigned last ([`HarpNode::assignment`]),
/// which is what the parent's disjoint partitions make collision-free.
#[must_use]
pub fn misinstalled(net: &HarpNetwork) -> Option<String> {
    let tree = net.tree();
    Direction::BOTH
        .map(|d| tree.links(d))
        .concat()
        .into_iter()
        .find_map(|link| {
            let installed = net.node(link.child).installed(link.direction);
            let row = net.schedule().cells_of(link).iter().copied();
            if !row.eq(installed.clone()) {
                return Some(format!("{link} is not as installed"));
            }
            let parent = tree.parent(link.child).expect("a link has a parent");
            let assigned = net.node(parent).assignment(link.direction, link.child);
            (installed != assigned).then(|| format!("{link} is not as assigned"))
        })
}

/// Everything a rejected event must leave as it found it.
pub struct PreImage {
    tree: Tree,
    nodes: Vec<NodeContents>,
    rows: Vec<(Link, Vec<Cell>)>,
    schedule_version: u64,
    adjust_counts: Vec<(String, u64)>,
}

/// The `harp.node.*` counts of `net`'s metrics: the decisions its nodes
/// made, which a rejected event takes back.
fn adjust_counts(net: &HarpNetwork) -> Vec<(String, u64)> {
    let mut counters = net.metrics_snapshot().counters;
    counters.retain(|name, _| name.starts_with("harp.node."));
    counters.into_iter().collect()
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
            adjust_counts: adjust_counts(net),
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
        assert_eq!(
            adjust_counts(net),
            self.adjust_counts,
            "{ctx}: adjustment counts"
        );
        assert!(net.quiescent(), "{ctx}: messages left in flight");
    }
}
