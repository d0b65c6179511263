//! The working buffers of Alg. 1 and of the local row scheduler, kept
//! between calls: [`Workspace`].

use crate::component::ResourceComponent;
use packing::{Rect, Size, StripWorkspace};
use tsch_sim::{Asn, NodeId, Tree};

/// Reusable working buffers for [`Workspace::compose`] and
/// [`Workspace::assign_row`].
///
/// Composing one layer packs at most a handful of components, twice, and
/// scheduling one row orders at most a handful of links; done with fresh
/// vectors each time, the static phase of a 256-node network spends more
/// on `malloc` for those temporaries than on the values it keeps. A
/// workspace holds them instead — the strip packer's skyline and pending
/// list, the size list and placements of the two passes, the components
/// gathered for a layer, the layouts of a node's layers on their way into
/// the node, the `(child, requirement)` list of a row, the walk of the
/// direct static settle — so what runs in it allocates only what its
/// caller keeps.
///
/// A workspace belongs to whoever drives the algorithms: a
/// [`HarpNetwork`](crate::HarpNetwork) has one and lends it to every
/// handler it invokes, [`build_interfaces`](crate::build_interfaces) and
/// [`generate_schedule`](crate::generate_schedule) make one per call. It is
/// never shared — not a thread-local, not a global — so independent
/// networks stay independent and a replay is the same at any thread count.
/// Every use resets the buffers it reads: results never depend on what a
/// workspace did before.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// The strip packer's skyline and pending list.
    pub(crate) strip: StripWorkspace,
    /// The components being composed, as the caller gave them.
    pub(crate) components: Vec<(NodeId, ResourceComponent)>,
    /// The non-empty components as packing items, in the orientation of the
    /// pass about to run.
    pub(crate) sizes: Vec<Size>,
    /// Placements of pass 1 (channel-major).
    pub(crate) pass1: Vec<Rect>,
    /// Placements of pass 2 (slot-major).
    pub(crate) pass2: Vec<Rect>,
    /// The placements of the layers `compose_layers` composed, back to
    /// back, until their caller copies them to where it keeps them; also
    /// the children's partitions a handler works out before storing them.
    pub(crate) placed: Vec<(NodeId, Rect)>,
    /// Each layer `compose_layers` composed: the layer, its composite and
    /// where its placements end in `placed`.
    pub(crate) composed: Vec<(u32, ResourceComponent, usize)>,
    /// The links of the row being scheduled, in the policy's order.
    pub(crate) row: Vec<(NodeId, u32)>,
    /// The direct static settle's post-order of the tree.
    pub(crate) order: Vec<NodeId>,
    /// The stack of the walk that produces `order`.
    pub(crate) stack: Vec<NodeId>,
    /// When each node's handler runs in the direct static settle.
    pub(crate) instants: Vec<Asn>,
}

impl Workspace {
    /// An empty workspace; it owns no heap until first used.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            strip: StripWorkspace::new(),
            components: Vec::new(),
            sizes: Vec::new(),
            pass1: Vec::new(),
            pass2: Vec::new(),
            placed: Vec::new(),
            composed: Vec::new(),
            row: Vec::new(),
            order: Vec::new(),
            stack: Vec::new(),
            instants: Vec::new(),
        }
    }

    /// Reserves what the static phase on `tree` works in: the direct
    /// settle's walk for every node, and the lists of the node with the
    /// most children and of the one that composes the most placements.
    pub(crate) fn reserve_for(&mut self, tree: &Tree) {
        let (mut children, mut layers, mut placed) = (0, 0, 0);
        for v in tree.nodes() {
            let kids = tree.children(v);
            children = children.max(kids.len());
            layers = layers.max(tree.subtree_layer(v).saturating_sub(tree.link_layer(v)));
            let reported = kids.iter().map(|&c| tree.subtree_layer(c) - tree.depth(c));
            placed = placed.max(reported.sum::<u32>() as usize);
        }
        let n = tree.len();
        self.order.reserve(n);
        self.stack.reserve(n);
        self.instants.reserve(n);
        self.strip.reserve(children);
        self.components.reserve(children);
        self.sizes.reserve(children);
        self.pass1.reserve(children);
        self.pass2.reserve(children);
        self.row.reserve(children);
        self.placed.reserve(placed);
        self.composed.reserve(layers as usize);
    }
}
