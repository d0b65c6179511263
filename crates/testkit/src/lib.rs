//! Test support for the referees in `tests/`: what two or more of them
//! share.
//!
//! * [`alloc`]: the counting allocator behind every allocation budget;
//! * [`seeded`]: the seeded trees, demands, scenarios and networks;
//! * [`PreImage`]: what a rejected protocol event must leave as it found.
//!
//! No crate depends on this one. It depends on `tsch-sim` and `harp-core`,
//! so a test that needs both lives here instead of giving a lower crate a
//! dev-dependency on a crate above it.

pub mod alloc;
pub mod seeded;

use harp_core::{HarpNetwork, HarpNode};
use tsch_sim::{Cell, Link, Tree};

/// Everything a rejected event must leave as it found it, apart from the
/// op sink, which the callers check themselves.
pub struct PreImage {
    tree: Tree,
    nodes: Vec<HarpNode>,
    rows: Vec<(Link, Vec<Cell>)>,
    schedule_version: u64,
}

impl PreImage {
    #[must_use]
    pub fn of(net: &HarpNetwork) -> Self {
        Self {
            tree: net.tree().clone(),
            nodes: net.tree().nodes().map(|v| net.node(v).clone()).collect(),
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
            assert_eq!(net.node(v), before, "{ctx}: node {v}");
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
