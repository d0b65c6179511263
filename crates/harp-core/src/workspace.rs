//! The working buffers of Alg. 1 and of the local row scheduler, kept
//! between calls: [`Workspace`].

use crate::component::ResourceComponent;
use crate::compose::CompositionLayout;
use packing::{Rect, Size, StripWorkspace};
use tsch_sim::NodeId;

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
/// the node, the `(child, requirement)` list of a row — so what runs in it
/// allocates only what its caller keeps.
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
    /// The layouts of the layers a node just composed, until their caller
    /// takes them.
    pub(crate) layouts: Vec<(u32, CompositionLayout)>,
    /// The links of the row being scheduled, in the policy's order.
    pub(crate) row: Vec<(NodeId, u32)>,
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
            layouts: Vec::new(),
            row: Vec::new(),
        }
    }
}
