//! The working buffers of Alg. 1, Alg. 2 and the local row scheduler,
//! kept between calls: [`Workspace`].

use crate::adjust::AdjustScratch;
use crate::component::ResourceComponent;
use packing::{Rect, Size, StripWorkspace};
use tsch_sim::{Asn, Direction, NodeId, Tree};

/// Reusable working buffers for [`Workspace::compose`], Alg. 2 and
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
/// direct static settle, Alg. 2's idle area and order of removal and the
/// gateway's list of its layers — so what runs in it allocates only what
/// its caller keeps. Alg. 2 runs in the buffers composition uses too: the
/// sizes it re-places in `sizes`, where they land in `pass1`, every
/// entry's new rectangle in `pass2`, and its full repack in the container
/// form of the strip packer.
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
    /// The strip packer's skyline and pending list, for strips and, in
    /// Alg. 2's full repack, a fixed container.
    pub(crate) strip: StripWorkspace,
    /// The components being composed, as the caller gave them.
    pub(crate) components: Vec<(NodeId, ResourceComponent)>,
    /// The non-empty components as packing items, in the orientation of the
    /// pass about to run.
    pub(crate) sizes: Vec<Size>,
    /// Placements of pass 1 (channel-major); where Alg. 2 re-places the
    /// sizes it removed.
    pub(crate) pass1: Vec<Rect>,
    /// Placements of pass 2 (slot-major); Alg. 2's outcome, the new
    /// rectangle of every entry.
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
    /// Alg. 2's idle area and the order of its entries.
    pub(crate) adjust: AdjustScratch,
    /// The gateway's partitions, both directions, on their way into Alg. 2.
    pub(crate) gateway: Vec<((Direction, u32), Rect)>,
}

impl Workspace {
    /// An empty workspace; it owns no heap until first used.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
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
