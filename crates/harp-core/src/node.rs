//! The per-node HARP state machine.
//!
//! A node holds the protocol state a real device holds on the testbed: the
//! cell requirements of its child links, the interfaces its children
//! reported, the partitions its parent granted, and the schedule it
//! decided for its own links. That state lives in the network's node
//! tables (`dir_state.rs`); [`HarpNode`] is the read view of one node that
//! [`HarpNetwork::node`](crate::HarpNetwork::node) lends. Its neighbourhood
//! (parent, children, link layer) is RPL's output, not HARP state: handlers
//! read it from the routing [`Tree`], the one the network owns and swaps on
//! every join and parent switch.
//!
//! A handler is a method of [`Cx`], what the network lends it, run for one
//! node: it consumes one [`HarpMessage`] and writes into an outbox of
//! [`Effects`] the messages to send to neighbours. A child installs a cell
//! assignment only on receipt — as its own cells and, their projection, in
//! its link's schedule row — which is what gives the dynamic-adjustment
//! experiments their latency shape.
//!
//! The dynamic phase (§V) makes three decisions, each in one transition
//! that every handler reaching it calls: `escalate` asks the parent for
//! room (or, at the gateway, re-places the slotframe), `adjust_within` is
//! one step of Alg. 2, and `take_partition` installs a granted partition.

use crate::adjust::relative_to;
use crate::component::{LayerComponents, ResourceComponent, ResourceInterface};
use crate::compose::CompositionLayout;
use crate::dir_state::{DirView, DirWriter, NodeTables, UndoLog, TABLE_LIMIT};
use crate::error::HarpError;
use crate::protocol::HarpMessage;
use crate::schedule_gen::{CellRun, SchedulingPolicy};
use crate::workspace::Workspace;
use packing::{Point, Rect};
use std::collections::BTreeMap;
use std::{fmt, mem};
use tsch_sim::{Direction, Link, NetworkSchedule, NodeId, SlotframeConfig, Tree};

/// Why a handler sends a message: what a protocol run's messages are
/// counted by ([`MessageCauses`](crate::MessageCauses)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// An interface climbing toward the gateway: the static phase's `POST
    /// intf`, or an escalation's `PUT intf`.
    Climb,
    /// A node's partitions granted to it: the static phase's `POST part`,
    /// or the `PUT part` that answers the node's escalation.
    Grant,
    /// A sibling Alg. 2 moved to make room for a grown partition (`PUT
    /// part`).
    SiblingMove,
    /// A child re-laid inside a partition that grew (`PUT part`).
    Bystander,
    /// A child carried along with a partition that moved at its size (`PUT
    /// part`).
    Translation,
    /// A cell assignment.
    Cells,
}

impl Cause {
    /// Every cause, in the order [`MessageCauses`](crate::MessageCauses)
    /// lists them.
    pub const ALL: [Cause; 6] = [
        Cause::Climb,
        Cause::Grant,
        Cause::SiblingMove,
        Cause::Bystander,
        Cause::Translation,
        Cause::Cells,
    ];

    /// The cause's name in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Cause::Climb => "climb",
            Cause::Grant => "grant",
            Cause::SiblingMove => "sibling_move",
            Cause::Bystander => "bystander",
            Cause::Translation => "translation",
            Cause::Cells => "cells",
        }
    }
}

/// What a handler wants sent: messages to neighbours.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    /// `(recipient, message, cause)` triples to hand to the management
    /// plane.
    pub messages: Vec<(NodeId, HarpMessage, Cause)>,
}

impl Effects {
    fn push(&mut self, to: NodeId, msg: HarpMessage, cause: Cause) {
        self.messages.push((to, msg, cause));
    }

    /// Queues `POST part` entries for `to`, onto the `POST part` already
    /// queued for it if there is one: a parent reports a child's
    /// partitions for both directions in one message, as on the testbed.
    fn post_partitions(&mut self, to: NodeId, partitions: Vec<(Direction, u32, Rect)>) {
        let queued = self.messages.iter_mut().find_map(|(t, m, _)| match m {
            HarpMessage::PostPartitions { partitions } if *t == to => Some(partitions),
            _ => None,
        });
        match queued {
            Some(queued) => queued.extend(partitions),
            None => self.push(to, HarpMessage::PostPartitions { partitions }, Cause::Grant),
        }
    }
}

/// What a handler borrows from the network that drives it: the routing tree
/// it reads its neighbourhood from, the slotframe and policy, the node
/// tables it keeps its state in, the undo log their writes feed, the
/// network's adjustment counts, the schedule it installs cells in, the
/// workspace it computes in, and its outbox.
pub(crate) struct Cx<'a> {
    pub tree: &'a Tree,
    pub config: SlotframeConfig,
    pub policy: SchedulingPolicy,
    pub nodes: &'a mut NodeTables,
    pub log: &'a mut UndoLog,
    pub counts: &'a mut AdjustCounts,
    pub schedule: &'a mut NetworkSchedule,
    pub ws: &'a mut Workspace,
    pub fx: &'a mut Effects,
}

/// The messages a parent's static-phase grant to one child stands for, in
/// the order they leave the parent: the uplink cell assignment, the
/// `POST part`, the downlink cell assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StaticGrant {
    /// The child's uplink got cells.
    pub up_cells: bool,
    /// The child (a non-leaf) got its partitions.
    pub partitions: bool,
    /// The child's downlink got cells.
    pub down_cells: bool,
}

/// The dynamic-phase decisions the network's nodes made since it was
/// built, summed over the nodes: the "harp.node.*" series of
/// [`HarpNetwork::metrics_snapshot`](crate::HarpNetwork::metrics_snapshot).
///
/// Kept once, by the network, and lent to every handler. Unlike the
/// runner's own counts they are part of what a transaction restores, so a
/// rolled-back event leaves no trace in them: the snapshot only ever
/// reports decisions that stood.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AdjustCounts {
    /// Case-1 changes absorbed in the node's own row (no mgmt messages).
    pub local_updates: u64,
    /// Case-2 escalations sent toward the gateway (`PUT intf`), including
    /// re-escalations from intermediate nodes.
    pub escalations: u64,
    /// Partition adjustments (Alg. 2) that fit locally — the feasibility
    /// test passed at the node.
    pub adjust_feasible: u64,
    /// Partition adjustments that could not fit even with every sibling
    /// removed and re-placed — the feasibility test failed and the request
    /// escalated (or, at the gateway, overflowed the slotframe).
    pub adjust_infeasible: u64,
    /// Partition rectangles moved by successful adjustments (the
    /// communication-overhead metric Alg. 2 minimises).
    pub partitions_moved: u64,
}

/// One HARP participant's protocol state, read through the network that
/// keeps it ([`HarpNetwork::node`](crate::HarpNetwork::node)). Its `Debug`
/// form lists what every getter reads.
#[derive(Clone, Copy)]
pub struct HarpNode<'a> {
    tables: &'a NodeTables,
    tree: &'a Tree,
    id: NodeId,
}

impl<'a> HarpNode<'a> {
    pub(crate) fn new(tables: &'a NodeTables, tree: &'a Tree, id: NodeId) -> Self {
        Self { tables, tree, id }
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    fn dir(&self, direction: Direction) -> DirView<'a> {
        self.tables.dir(self.tree, self.id, direction)
    }

    /// The node's generated interface for `direction`, if any.
    #[must_use]
    pub fn interface(&self, direction: Direction) -> Option<ResourceInterface> {
        Some(self.dir(direction).interface()?.iter().collect())
    }

    /// The partition granted to this node at `layer`.
    #[must_use]
    pub fn partition(&self, direction: Direction, layer: u32) -> Option<Rect> {
        self.dir(direction).partition(layer)
    }

    /// The partitions granted to this node, in layer order.
    pub fn partitions(&self, direction: Direction) -> impl Iterator<Item = (u32, Rect)> + 'a {
        self.dir(direction).partitions()
    }

    /// The cells this node assigned to the link toward `child` (an empty
    /// run if none).
    #[must_use]
    pub fn assignment(&self, direction: Direction, child: NodeId) -> CellRun {
        self.dir(direction).assignment(child).unwrap_or_default()
    }

    /// The cells this node assigned to its children's links, in child
    /// order.
    pub fn assignments(
        &self,
        direction: Direction,
    ) -> impl Iterator<Item = (NodeId, CellRun)> + 'a {
        self.dir(direction).assignments()
    }

    /// The cells this node installed on its link to its parent, which that
    /// link's schedule row holds (an empty run if none).
    #[must_use]
    pub fn installed(&self, direction: Direction) -> CellRun {
        self.dir(direction).own_cells().unwrap_or_default()
    }

    /// The current requirement of the link to `child` as this node tracks it.
    #[must_use]
    pub fn requirement(&self, direction: Direction, child: NodeId) -> u32 {
        self.dir(direction).req(child).unwrap_or(0)
    }

    /// The requirements this node tracks for its children's links, in child
    /// order (a child it tracks with no demand reads 0).
    pub fn requirements(&self, direction: Direction) -> impl Iterator<Item = (NodeId, u32)> + 'a {
        self.dir(direction).reqs()
    }

    /// The interfaces this node's children reported, in child order.
    pub fn child_interfaces(
        &self,
        direction: Direction,
    ) -> impl Iterator<Item = (NodeId, ResourceInterface)> + 'a {
        let reported = self.dir(direction).child_interfaces();
        reported.map(|(c, iface)| (c, iface.iter().collect()))
    }

    /// How this node composed its children's components, per composed
    /// layer in layer order.
    pub fn layouts(
        &self,
        direction: Direction,
    ) -> impl Iterator<Item = (u32, CompositionLayout)> + 'a {
        let layouts = self.dir(direction).layouts();
        layouts.map(|(layer, composite, placed)| {
            (
                layer,
                CompositionLayout::new(composite, placed.iter().collect()),
            )
        })
    }

    /// The partitions this node allocated to its children, in layer order.
    pub fn child_partitions(
        &self,
        direction: Direction,
    ) -> impl Iterator<Item = (u32, Vec<(NodeId, Rect)>)> + 'a {
        let allocated = self.dir(direction).child_partitions();
        allocated.map(|(layer, placed)| (layer, placed.iter().collect()))
    }

    /// The escalations awaiting a bigger partition from the parent, in
    /// layer order: each layer and the child whose component grew there.
    pub fn pending(&self, direction: Direction) -> impl Iterator<Item = (u32, NodeId)> + 'a {
        self.dir(direction).pendings()
    }
}

impl fmt::Debug for HarpNode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HarpNode")
            .field("id", &self.id)
            .field("up", &self.dir(Direction::Up))
            .field("down", &self.dir(Direction::Down))
            .finish()
    }
}

impl Cx<'_> {
    fn dir(&self, at: NodeId, direction: Direction) -> DirView<'_> {
        self.nodes.dir(self.tree, at, direction)
    }

    /// The only way to write one direction of `at`'s state: through the
    /// log.
    fn dir_mut(&mut self, at: NodeId, direction: Direction) -> DirWriter<'_> {
        DirWriter::new(self.nodes, self.log, self.tree, at, direction)
    }

    // ---- topology mutation (node join / departure / parent switch): the
    // edge itself is the tree's; each edit writes what the parent keeps
    // about the child through the log like a handler does, so a rejected
    // event rolls it back ----

    /// `at` takes on `child`, a new (leaf) child of it in the tree, with
    /// zero demand. Demand is added afterwards by a traffic change, which
    /// triggers the partition machinery.
    pub(crate) fn adopt_child(&mut self, at: NodeId, child: NodeId) {
        for d in Direction::BOTH {
            if self.dir(at, d).req(child).is_none() {
                self.dir_mut(at, d).put_req(child, Some(0));
            }
        }
    }

    /// `at` forgets `child`, which is leaving it (while the tree still
    /// names `at` its parent), dropping its demand, interface, cell
    /// assignments and partitions. The freed cells become idle area in
    /// `at`'s partition (released locally, as §V prescribes for
    /// departures).
    pub(crate) fn orphan_child(&mut self, at: NodeId, child: NodeId) {
        for d in Direction::BOTH {
            let mut ds = self.dir_mut(at, d);
            ds.put_req(child, None);
            ds.forget_child_interface(child);
            ds.drop_assignment(child);
            ds.drop_child_partitions(child);
        }
    }

    /// `leaf`, leaving its parent for another, drops every partition the
    /// old parent granted it, both directions: a node holds only
    /// partitions its parent reserves, and a leaf may still hold rows from
    /// children it once had.
    pub(crate) fn release_partitions(&mut self, leaf: NodeId) {
        for d in Direction::BOTH {
            self.dir_mut(leaf, d).drop_partitions();
        }
    }

    /// Kicks off the static phase at `at`. Nodes whose children are all
    /// leaves can generate and report their interfaces immediately;
    /// everyone else waits for `POST intf` messages.
    pub(crate) fn bootstrap(&mut self, at: NodeId) -> Result<(), HarpError> {
        if self.tree.is_leaf(at) {
            return Ok(());
        }
        self.maybe_generate_and_report(at)
    }

    /// Handles one protocol message from `from` at `at`; a cell assignment
    /// installs its cells in the schedule.
    ///
    /// Handlers are **idempotent**: the transport layer may re-deliver any
    /// message (a retransmission whose original squeaked through), so each
    /// arm recognises "nothing new" and sends nothing instead of
    /// re-applying state or re-triggering adjustments.
    pub(crate) fn handle(
        &mut self,
        at: NodeId,
        from: NodeId,
        msg: HarpMessage,
    ) -> Result<(), HarpError> {
        match msg {
            HarpMessage::PostInterface { up, down } => {
                // A static-phase report is a fact about the child's subtree;
                // once this node generated its own interface, every child
                // already contributed, so a further copy is a re-delivery.
                // Storing it again would clobber dynamic (`PUT intf`)
                // updates that arrived since.
                if self.dir(at, Direction::Up).interface().is_some() {
                    return Ok(());
                }
                self.dir_mut(at, Direction::Up)
                    .put_child_interface(from, &up)?;
                self.dir_mut(at, Direction::Down)
                    .put_child_interface(from, &down)?;
                self.maybe_generate_and_report(at)
            }
            HarpMessage::PostPartitions { partitions } => {
                // Every entry identical to stored state ⇒ the original of
                // this message was already processed (storage and
                // distribution happen atomically below).
                if !partitions.is_empty()
                    && partitions
                        .iter()
                        .all(|&(d, layer, rect)| self.dir(at, d).partition(layer) == Some(rect))
                {
                    return Ok(());
                }
                for &(d, layer, rect) in &partitions {
                    self.dir_mut(at, d).set_partition(layer, rect)?;
                }
                // A parent lists a direction's entries together, uplink
                // first.
                for d in Direction::BOTH {
                    if partitions.iter().any(|&(pd, _, _)| pd == d) {
                        self.distribute_partitions(at, d)?;
                    }
                }
                Ok(())
            }
            HarpMessage::PutInterface {
                direction,
                layer,
                component,
            } => self.on_child_component_update(at, direction, from, layer, component),
            HarpMessage::PutPartition {
                direction,
                layer,
                rect,
            } => {
                // An unchanged grant with no escalation pending is a
                // re-delivery; replaying it would only recompute a layout
                // identical to the stored one.
                let ds = self.dir(at, direction);
                if ds.partition(layer) == Some(rect) && ds.pending(layer).is_none() {
                    return Ok(());
                }
                self.take_partition(at, direction, layer, rect)
            }
            HarpMessage::CellAssignment { direction, cells } => {
                // The child starts (or stops) using the granted cells now.
                // A re-delivered assignment matches the cells already in
                // use and must not rewrite the row.
                if self.dir(at, direction).own_cells().as_ref() == Some(&cells) {
                    return Ok(());
                }
                self.install(at, direction, cells)
            }
        }
    }

    /// Makes `cells` `at`'s own cells in `direction` and its link's row in
    /// the schedule: the one place a link's installed cells are written.
    fn install(
        &mut self,
        at: NodeId,
        direction: Direction,
        cells: CellRun,
    ) -> Result<(), HarpError> {
        let link = Link {
            child: at,
            direction,
        };
        // The own cells are logged before the row is written: a rollback
        // writes the row back from them, so a row whose write fails half-way
        // (a `DuplicateAssignment`) is restored too.
        self.dir_mut(at, direction).set_own_cells(&cells)?;
        self.schedule.unassign_link(link);
        for cell in cells {
            self.schedule.assign(cell, link)?;
        }
        Ok(())
    }

    /// A traffic change at one of `at`'s child links (§V): `r(e)` of the
    /// link to `child` becomes `new_cells`. Either a purely local schedule
    /// update (Case 1) or a `PUT intf` escalation (Case 2).
    ///
    /// # Errors
    ///
    /// Fails if the static phase has not completed at this node, or the
    /// gateway cannot grow the slotframe allocation.
    pub(crate) fn request_change(
        &mut self,
        at: NodeId,
        direction: Direction,
        child: NodeId,
        new_cells: u32,
    ) -> Result<(), HarpError> {
        let layer = self.tree.link_layer(at);
        let slots = self.config.slots;
        let mut ds = self.dir_mut(at, direction);
        ds.put_req(child, Some(new_cells));
        let total = ds.read().direct_demand(slots)?;
        match ds.read().partition(layer) {
            Some(row) if total <= row.width() * row.height() => {
                // Case 1: enough idle cells in the current partition.
                self.counts.local_updates += 1;
                self.schedule_own_row(at, direction)
            }
            // Case 2: the partition itself must grow.
            _ => self.escalate(at, direction, layer, ResourceComponent::row(total), at),
        }
    }

    // ---- static phase internals ----

    /// Generates `at`'s interface (both directions) once every non-leaf
    /// child has reported, then reports upward — or allocates if `at` is
    /// the gateway.
    fn maybe_generate_and_report(&mut self, at: NodeId) -> Result<(), HarpError> {
        let tree = self.tree;
        let ready = |ds: DirView<'_>| {
            let mut nonleaf = tree.children(at).iter().filter(|&&c| !tree.is_leaf(c));
            nonleaf.all(|&c| ds.child_interface(c).is_some())
        };
        let (up, down) = (self.dir(at, Direction::Up), self.dir(at, Direction::Down));
        if up.interface().is_some() || !ready(up) || !ready(down) {
            return Ok(());
        }
        self.generate_interfaces(at)?;
        let Some(parent) = tree.parent(at) else {
            return self.gateway_allocate(at);
        };
        let generated = |d| -> ResourceInterface {
            let iface = self.dir(at, d).interface().expect("just generated");
            iface.iter().collect()
        };
        let msg = HarpMessage::PostInterface {
            up: generated(Direction::Up),
            down: generated(Direction::Down),
        };
        self.fx.push(parent, msg, Cause::Climb);
        Ok(())
    }

    /// Builds `at`'s interfaces, uplink then downlink, from local
    /// requirements and the interfaces its non-leaf children reported.
    pub(crate) fn generate_interfaces(&mut self, at: NodeId) -> Result<(), HarpError> {
        let own_layer = self.tree.link_layer(at);
        self.generate_interface(at, Direction::Up, own_layer)?;
        self.generate_interface(at, Direction::Down, own_layer)
    }

    /// Builds `at`'s interface for one direction (Case 1 + Case 2 of §IV-B)
    /// from local requirements and the children's interfaces, its own links
    /// being at `own_layer`, with a row for each of its layers and the
    /// composed layers' layouts in them.
    fn generate_interface(
        &mut self,
        at: NodeId,
        direction: Direction,
        own_layer: u32,
    ) -> Result<(), HarpError> {
        let (channels, slots) = (self.config.channels, self.config.slots);
        let ds = self.nodes.dir(self.tree, at, direction);
        let direct = ResourceComponent::row(ds.direct_demand(slots)?);
        let deepest = ds
            .child_interfaces()
            .filter_map(|(_, i)| i.last().map(|(l, _)| l))
            .max()
            .unwrap_or(own_layer);
        let children = ds.child_interfaces();
        self.ws
            .compose_layers(children, own_layer + 1..=deepest, channels)?;
        let composites = self.ws.composed().map(|(layer, c, _)| (layer, c));
        let needed = composites.clone().map(|(_, c)| u64::from(c.slots));
        let needed = needed.sum::<u64>() + u64::from(direct.slots);
        for (_, composite) in composites.clone() {
            self.check_composite(composite, needed)?;
        }
        let mut ds = DirWriter::new(self.nodes, self.log, self.tree, at, direction);
        ds.set_interface(own_layer, direct, composites)?;
        ds.hold_layers(own_layer..=deepest)?;
        for (layer, composite, placed) in self.ws.composed() {
            ds.set_layout(layer, composite, placed)?;
        }
        Ok(())
    }

    /// Refuses a `composite` wider than the slots a node's tables keep,
    /// which no slotframe holds either, as an allocation that needs
    /// `needed_slots`: what the node's interface sums to, or the
    /// composite's own width — what this node needs, a lower bound of the
    /// total the gateway would name (DESIGN §3).
    fn check_composite(
        &self,
        composite: ResourceComponent,
        needed_slots: u64,
    ) -> Result<(), HarpError> {
        if composite.slots <= TABLE_LIMIT {
            return Ok(());
        }
        Err(HarpError::SlotframeOverflow {
            needed_slots,
            available: self.config.slots,
        })
    }

    /// The gateway's slotframe placement: uplink super-partition first with
    /// layers descending, downlink after with layers ascending (§IV-C).
    fn gateway_allocate(&mut self, at: NodeId) -> Result<(), HarpError> {
        self.place_gateway_partitions(at)?;
        for d in Direction::BOTH {
            self.distribute_partitions(at, d)?;
        }
        Ok(())
    }

    /// Checks that the gateway's per-layer partitions fit the slotframe
    /// side by side, then lays them along it: a refusal places nothing,
    /// so no partition ends past the slotframe.
    pub(crate) fn place_gateway_partitions(&mut self, at: NodeId) -> Result<(), HarpError> {
        let slots = self.config.slots;
        let interfaces = Direction::BOTH.map(|d| self.dir(at, d).interface());
        let components = interfaces.into_iter().flatten().flat_map(|i| i.iter());
        let needed: u64 = components.map(|(_, c)| u64::from(c.slots)).sum();
        if needed > u64::from(slots) {
            return Err(HarpError::SlotframeOverflow {
                needed_slots: needed,
                available: slots,
            });
        }
        let mut cursor: u32 = 0;
        for (d, descending) in [(Direction::Up, true), (Direction::Down, false)] {
            cursor = self
                .dir_mut(at, d)
                .place_partitions_in_a_row(cursor, descending)?;
        }
        Ok(())
    }

    /// Having just received (or allocated) partitions for every layer of its
    /// subtree: `at` derives its children's partitions from the stored
    /// composition layouts, sends them down, and schedules its own row.
    fn distribute_partitions(&mut self, at: NodeId, direction: Direction) -> Result<(), HarpError> {
        self.dir_mut(at, direction).place_child_partitions()?;
        self.schedule_own_row(at, direction)?;
        let ds = self.dir(at, direction);
        let mut per_child: BTreeMap<NodeId, Vec<(Direction, u32, Rect)>> = BTreeMap::new();
        for (layer, _, _) in ds.layouts() {
            let placed = ds.child_partitions_at(layer).expect("derived above");
            for (c, rect) in placed.iter() {
                let entry = (direction, layer, rect);
                per_child.entry(c).or_default().push(entry);
            }
        }
        for (child, partitions) in per_child {
            self.fx.post_partitions(child, partitions);
        }
        Ok(())
    }

    /// Re-runs the local scheduler over `at`'s own partition row and
    /// notifies every child whose cells changed.
    fn schedule_own_row(&mut self, at: NodeId, direction: Direction) -> Result<(), HarpError> {
        self.assign_own_row(at, direction, true)
    }

    /// Re-runs the local scheduler over `at`'s own partition row, storing
    /// the cells of every child link whose cells changed and, if `notify`,
    /// sending each such child its cells, in row order.
    fn assign_own_row(
        &mut self,
        at: NodeId,
        direction: Direction,
        notify: bool,
    ) -> Result<(), HarpError> {
        let (policy, config) = (self.policy, self.config);
        let layer = self.tree.link_layer(at);
        let mut ds = DirWriter::new(self.nodes, self.log, self.tree, at, direction);
        let total = ds.read().direct_demand(config.slots)?;
        let Some(row) = ds.read().partition(layer) else {
            if total == 0 {
                return Ok(());
            }
            return Err(HarpError::MissingPartition { node: at, layer });
        };
        for (child, cells) in self
            .ws
            .assign_row(at, ds.read().reqs(), row, policy, config)?
        {
            // By the cells, not by the row they were cut from: a row that
            // grew in place leaves the leading links' cells where they were.
            let unchanged = match ds.read().assignment(child) {
                Some(old) => old == cells,
                None => cells.is_empty(),
            };
            if !unchanged {
                if notify {
                    let cells = cells.clone();
                    let msg = HarpMessage::CellAssignment { direction, cells };
                    self.fx.push(child, msg, Cause::Cells);
                }
                ds.put_assignment(child, &cells)?;
            }
        }
        Ok(())
    }

    // ---- direct static settle (see `HarpNetwork::run_static`) ----

    /// `at` stores the interfaces its child `child` generated, as its
    /// `POST intf` would have delivered them.
    pub(crate) fn store_child_interfaces(&mut self, at: NodeId, child: NodeId) {
        for d in Direction::BOTH {
            self.dir_mut(at, d).store_child_interface(child);
        }
    }

    /// With `at`'s partitions in place for every layer of its subtree:
    /// carves out the children's partitions and schedules the own row, both
    /// directions — the state a `POST part` handler leaves behind, without
    /// the messages.
    pub(crate) fn settle_partitions(&mut self, at: NodeId) -> Result<(), HarpError> {
        for d in Direction::BOTH {
            self.dir_mut(at, d).place_child_partitions()?;
            self.assign_own_row(at, d, false)?;
        }
        Ok(())
    }

    /// `at` takes over what its `parent` decided for it — its partitions at
    /// every composed layer (a leaf reported no interface, so it has none)
    /// and the cells of its own link, both directions — as the `POST part`
    /// and cell-assignment messages would have delivered them, and installs
    /// the cells in the schedule. Returns which of those messages the grant
    /// stands for.
    pub(crate) fn accept_static_grant(
        &mut self,
        at: NodeId,
        parent: NodeId,
    ) -> Result<StaticGrant, HarpError> {
        let mut grant = StaticGrant::default();
        for d in Direction::BOTH {
            let mut from = 0;
            loop {
                let layers = self.dir(parent, d).child_partitions();
                let next = layers.filter(|&(l, _)| l >= from).find_map(|(l, placed)| {
                    let (_, rect) = placed.iter().find(|&(c, _)| c == at)?;
                    Some((l, rect))
                });
                let Some((layer, rect)) = next else {
                    break;
                };
                self.dir_mut(at, d).set_partition(layer, rect)?;
                grant.partitions = true;
                from = layer + 1;
            }
            if let Some(cells) = self.dir(parent, d).assignment(at) {
                self.install(at, d, cells)?;
                match d {
                    Direction::Up => grant.up_cells = true,
                    Direction::Down => grant.down_cells = true,
                }
            }
        }
        Ok(grant)
    }

    // ---- dynamic phase: three transitions and the handlers around them ----

    /// `child` reported a grown component at `layer` to `at` (`PUT intf`).
    /// Try to absorb it locally (Alg. 2); escalate otherwise.
    fn on_child_component_update(
        &mut self,
        at: NodeId,
        direction: Direction,
        child: NodeId,
        layer: u32,
        component: ResourceComponent,
    ) -> Result<(), HarpError> {
        // Duplicate guard: the stored interface already matches and either
        // the child's current grant at this layer covers the component (the
        // original was fully absorbed) or an escalation for exactly this
        // child is already pending at the parent — re-processing would
        // re-grant or re-escalate redundantly.
        {
            let ds = self.dir(at, direction);
            let already_stored =
                ds.child_interface(child).and_then(|i| i.component(layer)) == Some(component);
            let already_granted = ds.child_partitions_at(layer).is_some_and(|ps| {
                ps.iter()
                    .any(|(c, r)| c == child && r.size == component.as_size())
            });
            let already_escalated = ds.pending(layer) == Some(child);
            if already_stored && (already_granted || already_escalated) {
                return Ok(());
            }
        }
        let mut ds = self.dir_mut(at, direction);
        ds.set_child_component(child, layer, component)?;
        // A layer this node has never held a partition for (the subtree just
        // grew deeper, e.g. after a node join): nothing to adjust locally —
        // escalate straight away so an ancestor creates the layer.
        let Some(own) = ds.read().partition(layer) else {
            return self.escalate_layer(at, direction, layer, child);
        };
        let placements = self.children_with(at, direction, layer, child);
        let adjusted = self.adjust_within(own, &placements, child, component);
        if !matches!(adjusted, Ok(true)) {
            self.ws.placed = placements;
            adjusted?;
            return self.escalate_layer(at, direction, layer, child);
        }
        self.ws.placed = self.take_adjusted(at, direction, layer, placements, child)?;
        Ok(())
    }

    /// The children's partitions `at` holds at `layer`, `child`'s among
    /// them (empty if it holds none yet): Alg. 2's entries, in the
    /// workspace's `placed` buffer, taken out of it.
    fn children_with(
        &mut self,
        at: NodeId,
        direction: Direction,
        layer: u32,
        child: NodeId,
    ) -> Vec<(NodeId, Rect)> {
        let mut placed = mem::take(&mut self.ws.placed);
        placed.clear();
        let held = self
            .nodes
            .dir(self.tree, at, direction)
            .child_partitions_at(layer);
        placed.extend(held.unwrap_or_default().iter());
        if !placed.iter().any(|(c, _)| *c == child) {
            placed.push((child, Rect::default()));
        }
        placed
    }

    /// Settles the last Alg. 2 on `placed`, `at`'s children's partitions
    /// at `layer`, for `child`'s growth: tells every child it moved (a
    /// grant to `child`, a sibling move to the others) and stores the
    /// outcome. Returns `placed`, rewritten to the outcome.
    fn take_adjusted(
        &mut self,
        at: NodeId,
        direction: Direction,
        layer: u32,
        mut placed: Vec<(NodeId, Rect)>,
        child: NodeId,
    ) -> Result<Vec<(NodeId, Rect)>, HarpError> {
        for (moved, rect) in self.ws.moved(&placed) {
            let msg = HarpMessage::PutPartition {
                direction,
                layer,
                rect,
            };
            let cause = if moved == child {
                Cause::Grant
            } else {
                Cause::SiblingMove
            };
            self.fx.push(moved, msg, cause);
        }
        self.ws.adopt_layout(&mut placed);
        self.dir_mut(at, direction)
            .set_child_partitions(layer, &placed)?;
        Ok(placed)
    }

    /// Recomposes `at`'s `layer` from the children's current components,
    /// stores the layout it will lay and escalates its composite: the
    /// stable layout when one qualifies (`Workspace::stable_layout`), which
    /// keeps every other child where it is, and the fresh composition
    /// otherwise.
    fn escalate_layer(
        &mut self,
        at: NodeId,
        direction: Direction,
        layer: u32,
        requester: NodeId,
    ) -> Result<(), HarpError> {
        let channels = self.config.channels;
        let ds = self.nodes.dir(self.tree, at, direction);
        self.ws
            .compose_layers(ds.child_interfaces(), layer..=layer, channels)?;
        // No child reports the layer: an empty composite, placing nobody.
        let fresh = self
            .ws
            .composed()
            .next()
            .map_or(ResourceComponent::default(), |(_, c, _)| c);
        let composed = self.ws.placed.len();
        let reported = ds
            .child_interface(requester)
            .and_then(|i| i.component(layer));
        let stable = match (ds.partition(layer), ds.child_partitions_at(layer), reported) {
            (Some(own), Some(current), Some(component)) => {
                let grown = (requester, component);
                self.ws
                    .stable_layout(own, current.iter(), grown, fresh.slots, channels)
            }
            _ => None,
        };
        let (composite, placed) = match stable {
            Some(composite) => (composite, &self.ws.placed[composed..]),
            None => (fresh, &self.ws.placed[..composed]),
        };
        self.check_composite(composite, u64::from(composite.slots))?;
        DirWriter::new(self.nodes, self.log, self.tree, at, direction)
            .set_layout(layer, composite, placed)?;
        self.escalate(at, direction, layer, composite, requester)
    }

    /// Case 2 of §V: `at`'s component at `layer` grows to `component` on
    /// behalf of `requester`. Marks the layer pending, then asks the parent
    /// for room (`PUT intf`) or, at the gateway, re-places the slotframe.
    fn escalate(
        &mut self,
        at: NodeId,
        direction: Direction,
        layer: u32,
        component: ResourceComponent,
        requester: NodeId,
    ) -> Result<(), HarpError> {
        let mut ds = self.dir_mut(at, direction);
        ds.set_component(layer, component)?;
        ds.put_pending(layer, Some(requester))?;
        let Some(parent) = self.tree.parent(at) else {
            return self.gateway_reallocate(at, direction, layer);
        };
        self.counts.escalations += 1;
        let msg = HarpMessage::PutInterface {
            direction,
            layer,
            component,
        };
        self.fx.push(parent, msg, Cause::Climb);
        Ok(())
    }

    /// One step of Alg. 2 (§V), in the workspace: `key`'s partition, one
    /// of `entries` inside `container`, grows to `component`. Counts the
    /// outcome, which is `false` when it does not fit even with every
    /// sibling removed; [`Workspace::moved`] and [`Workspace::adopt_layout`]
    /// read it when it is `true`.
    fn adjust_within<K: Copy + Ord>(
        &mut self,
        container: Rect,
        entries: &[(K, Rect)],
        key: K,
        component: ResourceComponent,
    ) -> Result<bool, HarpError> {
        let moved = self.ws.adjust(container, entries, key, component)?;
        match moved {
            Some(moved) => {
                self.counts.adjust_feasible += 1;
                self.counts.partitions_moved += moved as u64;
            }
            None => self.counts.adjust_infeasible += 1,
        }
        Ok(moved.is_some())
    }

    /// Installs a partition granted to `at` at `layer` (`PUT part`, or the
    /// gateway's own re-placement) and re-places whatever lives inside it.
    fn take_partition(
        &mut self,
        at: NodeId,
        direction: Direction,
        layer: u32,
        rect: Rect,
    ) -> Result<(), HarpError> {
        let mut ds = self.dir_mut(at, direction);
        let old = ds.read().partition(layer);
        ds.set_partition(layer, rect)?;
        self.replace_layer(at, direction, layer, old, rect)
    }

    /// `at`'s partition at `layer` became `rect` (it was `old`): settles
    /// the escalation pending there, re-places whatever lives inside it and
    /// tells every child whose partition changed. A child holds a partition
    /// only once it reported an interface; one whose own children have all
    /// moved away since is told too, as its rectangle still sits inside
    /// this node's partition.
    fn replace_layer(
        &mut self,
        at: NodeId,
        direction: Direction,
        layer: u32,
        old: Option<Rect>,
        rect: Rect,
    ) -> Result<(), HarpError> {
        let pending = self.dir(at, direction).pending(layer);
        if pending.is_some() {
            self.dir_mut(at, direction).put_pending(layer, None)?;
        }
        if layer == self.tree.link_layer(at) {
            return self.schedule_own_row(at, direction);
        }
        // A growth around the old partition keeps the children where they
        // are and re-places only the one that asked.
        if let (Some(old), Some(child)) = (old, pending) {
            let around = old.size != rect.size && rect.contains_rect(&old);
            if around && self.keep_children(at, direction, layer, rect, child)? {
                return Ok(());
            }
        }

        let ds = self.nodes.dir(self.tree, at, direction);
        let current = ds.child_partitions_at(layer).unwrap_or_default();
        let mut placed = mem::take(&mut self.ws.placed);
        placed.clear();
        let moved = match old {
            // Pure move: same size, translate everything inside.
            Some(old) if old.size == rect.size => {
                placed.extend(current.iter().map(|(c, r)| {
                    if r.is_empty() {
                        (c, r)
                    } else {
                        let dx = r.left() - old.left();
                        let dy = r.bottom() - old.bottom();
                        let origin = Point::new(rect.left() + dx, rect.bottom() + dy);
                        (c, Rect::new(origin, r.size))
                    }
                }));
                Cause::Translation
            }
            // Growth: lay the stored layout into the new rectangle.
            _ => {
                let Some(layout) = ds.layout(layer) else {
                    self.ws.placed = placed;
                    return Err(HarpError::MissingPartition { node: at, layer });
                };
                let (x, y) = (rect.origin.x, rect.origin.y);
                placed.extend(layout.iter().map(|(c, rel)| (c, rel.translated(x, y))));
                Cause::Bystander
            }
        };

        for &(c, r) in &placed {
            let old_rect = current
                .iter()
                .find(|&(n, _)| n == c)
                .map(|(_, r)| r)
                .unwrap_or_default();
            if r != old_rect {
                let msg = HarpMessage::PutPartition {
                    direction,
                    layer,
                    rect: r,
                };
                let cause = if pending == Some(c) {
                    Cause::Grant
                } else {
                    moved
                };
                self.fx.push(c, msg, cause);
            }
        }
        let stored = DirWriter::new(self.nodes, self.log, self.tree, at, direction)
            .set_child_partitions(layer, &placed);
        self.ws.placed = placed;
        stored
    }

    /// `at`'s partition at `layer` grew to `rect` around the old one, for
    /// `child`'s escalation: Alg. 2 re-places `child`'s reported component
    /// among the children where they are, tells only the children it moved
    /// and stores its outcome as the layer's layout. Returns `false`,
    /// changing nothing, when it does not fit.
    fn keep_children(
        &mut self,
        at: NodeId,
        direction: Direction,
        layer: u32,
        rect: Rect,
        child: NodeId,
    ) -> Result<bool, HarpError> {
        let ds = self.nodes.dir(self.tree, at, direction);
        let reported = ds.child_interface(child).and_then(|i| i.component(layer));
        let composite = ds.layouts().find(|&(l, _, _)| l == layer);
        let (Some(component), Some((_, composite, _))) = (reported, composite) else {
            return Ok(false);
        };
        let placed = self.children_with(at, direction, layer, child);
        let adjusted = self.ws.adjust(rect, &placed, child, component);
        if !matches!(adjusted, Ok(Some(_))) {
            self.ws.placed = placed;
            return adjusted.map(|_| false);
        }
        let mut placed = self.take_adjusted(at, direction, layer, placed, child)?;
        // The layout is the same placements, relative to the partition.
        for (_, r) in &mut placed {
            *r = relative_to(*r, rect);
        }
        let stored = self
            .dir_mut(at, direction)
            .set_layout(layer, composite, &placed);
        self.ws.placed = placed;
        stored.map(|()| true)
    }

    /// The gateway `at` absorbs a grown component at `(direction, layer)`
    /// by adjusting its slotframe-level placement (there is no parent to
    /// escalate to). The slotframe is the container, the gateway's
    /// per-layer partitions (both directions) are the sub-partitions, and
    /// the same cost-aware heuristic (Alg. 2) keeps unaffected layers in
    /// place — growth lands in the slotframe's idle area whenever possible.
    fn gateway_reallocate(
        &mut self,
        at: NodeId,
        direction: Direction,
        layer: u32,
    ) -> Result<(), HarpError> {
        let component = self
            .dir(at, direction)
            .interface()
            .and_then(|i| i.component(layer))
            .ok_or(HarpError::MissingPartition { node: at, layer })?;
        let container = Rect::from_xywh(0, 0, self.config.slots, u32::from(self.config.channels));
        let mut entries = mem::take(&mut self.ws.gateway);
        entries.clear();
        for d in Direction::BOTH {
            entries.extend(self.dir(at, d).partitions().map(|(l, r)| ((d, l), r)));
        }
        // A brand-new layer (the network just grew deeper): enter it with an
        // empty rectangle so the adjustment places it like a fresh grant.
        let key = (direction, layer);
        if !entries.iter().any(|&(k, _)| k == key) {
            entries.push((key, Rect::default()));
        }
        let adjusted = self.adjust_within(container, &entries, key, component);
        let result = match adjusted {
            Ok(true) => self.take_moved_partitions(at, &mut entries, key),
            Ok(false) => {
                let total: u64 =
                    entries.iter().map(|(_, r)| r.area()).sum::<u64>() + component.cell_count();
                // The binding constraint is either the total area or the grown
                // component's own slot extent (a row wider than the slotframe
                // can never fit, whatever the area says).
                let needed_slots = total
                    .div_ceil(u64::from(self.config.channels))
                    .max(u64::from(component.slots));
                Err(HarpError::SlotframeOverflow {
                    needed_slots,
                    available: self.config.slots,
                })
            }
            Err(e) => Err(e),
        };
        self.ws.gateway = entries;
        result
    }

    /// The gateway `at` takes every partition the last Alg. 2 on its
    /// layers, `entries`, moved, in key order; `key`'s, the grown one,
    /// always.
    fn take_moved_partitions(
        &mut self,
        at: NodeId,
        entries: &mut [((Direction, u32), Rect)],
        key: (Direction, u32),
    ) -> Result<(), HarpError> {
        // Taking a partition may run Alg. 2 again in the workspace: every
        // move is read out of it before the first is taken.
        self.ws.adopt_layout(entries);
        entries.sort_unstable_by_key(|&(k, _)| k);
        for &((d, l), rect) in &*entries {
            if (d, l) == key || self.dir(at, d).partition(l) != Some(rect) {
                self.take_partition(at, d, l, rect)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HarpNetwork, Requirements};
    use tsch_sim::Cell;

    /// Drives a network's handlers to quiescence with synchronous,
    /// zero-latency message delivery (protocol-order tests; timing is
    /// covered by the runner tests).
    struct Fabric {
        net: HarpNetwork,
        messages_seen: Vec<(NodeId, NodeId, HarpMessage, Cause)>,
    }

    impl Fabric {
        fn new(tree: &Tree, reqs: &Requirements) -> Self {
            let config = SlotframeConfig::paper_default();
            Self {
                net: HarpNetwork::new(tree.clone(), config, reqs, SchedulingPolicy::RateMonotonic),
                messages_seen: Vec::new(),
            }
        }

        fn dispatch(&mut self, from: NodeId, fx: Effects) {
            self.try_dispatch(from, fx).unwrap();
        }

        fn try_dispatch(&mut self, from: NodeId, fx: Effects) -> Result<(), HarpError> {
            let mut queue: Vec<(NodeId, NodeId, HarpMessage, Cause)> = fx
                .messages
                .into_iter()
                .map(|(to, m, cause)| (from, to, m, cause))
                .collect();
            while let Some((src, dst, msg, cause)) = queue.pop() {
                self.messages_seen.push((src, dst, msg.clone(), cause));
                let fx = self.net.deliver_now(src, dst, msg)?;
                let sent = fx.messages.into_iter();
                queue.extend(sent.map(|(to, m, cause)| (dst, to, m, cause)));
            }
            Ok(())
        }

        fn run_static(&mut self) {
            for v in self.net.tree().clone().nodes() {
                let fx = self.net.bootstrap_node(v).unwrap();
                self.dispatch(v, fx);
            }
        }

        fn request_change(&mut self, link: Link, cells: u32) {
            let parent = self.net.tree().parent(link.child).unwrap();
            let fx = self.net.request_change_now(link, cells).unwrap();
            self.dispatch(parent, fx);
        }

        fn node(&self, v: NodeId) -> HarpNode<'_> {
            self.net.node(v)
        }

        /// The network schedule the children installed into.
        fn schedule(&self) -> &NetworkSchedule {
            self.net.schedule()
        }
    }

    fn fig1_reqs(tree: &Tree) -> Requirements {
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), tree.subtree_size(v));
            reqs.set(Link::down(v), tree.subtree_size(v));
        }
        reqs
    }

    #[test]
    fn static_phase_distributed_matches_centralized() {
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();

        // Every non-leaf node must have an interface and a scheduling row.
        for v in tree.nodes() {
            if tree.is_leaf(v) {
                continue;
            }
            let node = fabric.node(v);
            assert!(
                node.interface(Direction::Up).is_some(),
                "{v} has up interface"
            );
            assert!(node.partition(Direction::Up, tree.link_layer(v)).is_some());
        }

        // The distributed outcome equals the centralized oracle (the paper
        // validates exactly this: testbed partitions identical to simulation).
        let cfg = SlotframeConfig::paper_default();
        let up = crate::build_interfaces(&tree, &reqs, Direction::Up, cfg.channels).unwrap();
        let down = crate::build_interfaces(&tree, &reqs, Direction::Down, cfg.channels).unwrap();
        let table = crate::allocate_partitions(&tree, &up, &down, cfg).unwrap();
        for v in tree.nodes() {
            if tree.is_leaf(v) {
                continue;
            }
            for d in Direction::BOTH {
                let distributed = fabric.node(v).partition(d, tree.link_layer(v));
                let centralized = table.scheduling_area(&tree, v, d);
                assert_eq!(distributed, centralized, "{v} {d}");
            }
        }
    }

    #[test]
    fn static_phase_schedule_is_collision_free_and_satisfies_demand() {
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();
        let schedule = fabric.schedule();
        assert!(schedule.is_exclusive());
        assert!(crate::unsatisfied_links(&tree, &reqs, schedule).is_empty());
    }

    #[test]
    fn static_message_count_is_two_per_nonleaf_nongateway_node_plus_cells() {
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();
        let intf = fabric
            .messages_seen
            .iter()
            .filter(|(_, _, m, _)| matches!(m, HarpMessage::PostInterface { .. }))
            .count();
        let part = fabric
            .messages_seen
            .iter()
            .filter(|(_, _, m, _)| matches!(m, HarpMessage::PostPartitions { .. }))
            .count();
        // Non-leaf, non-gateway nodes: 1, 2, 3, 7, 8 → 5 POST-intf.
        assert_eq!(intf, 5);
        // POST-part goes to each non-leaf child of a non-leaf node: 5 too.
        assert_eq!(part, 5);
    }

    #[test]
    fn case1_local_update_needs_no_management_messages() {
        // Shrink a link's demand: the parent reschedules locally; only a
        // cell-assignment message to the affected child.
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();
        fabric.messages_seen.clear();
        fabric.request_change(Link::up(NodeId(9)), 0);
        let mgmt = fabric
            .messages_seen
            .iter()
            .filter(|(_, _, m, _)| m.is_management())
            .count();
        assert_eq!(mgmt, 0, "local case sends no intf/part messages");
        let schedule = fabric.schedule();
        assert!(schedule.is_exclusive());
        assert!(schedule.cells_of(Link::up(NodeId(9))).is_empty());
    }

    #[test]
    fn case2_one_hop_adjustment() {
        // Node 7's row [2,1] grows when link 9→7 doubles: 7 asks 3, which
        // has a layer-3 partition [2,2] that cannot hold [3,1]+[1,1]... it
        // can: repack. Either way the request resolves at node 3.
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();
        fabric.messages_seen.clear();
        fabric.request_change(Link::up(NodeId(9)), 2);
        let schedule = fabric.schedule();
        assert!(schedule.is_exclusive(), "no collisions during adjustment");
        assert_eq!(schedule.cells_of(Link::up(NodeId(9))).len(), 2);
        // All other links still satisfied.
        let mut expected = fig1_reqs(&tree);
        expected.set(Link::up(NodeId(9)), 2);
        assert!(crate::unsatisfied_links(&tree, &expected, schedule).is_empty());
        let put_intf = fabric
            .messages_seen
            .iter()
            .filter(|(_, _, m, _)| matches!(m, HarpMessage::PutInterface { .. }))
            .count();
        assert!(put_intf >= 1, "the change escalates at least one hop");
    }

    #[test]
    fn multi_hop_adjustment_reaches_gateway_and_stays_collision_free() {
        // A large increase deep in the tree that cannot be absorbed below
        // the gateway.
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();
        fabric.messages_seen.clear();
        fabric.request_change(Link::up(NodeId(9)), 12);
        let schedule = fabric.schedule();
        assert!(schedule.is_exclusive());
        assert_eq!(schedule.cells_of(Link::up(NodeId(9))).len(), 12);
        let mut expected = fig1_reqs(&tree);
        expected.set(Link::up(NodeId(9)), 12);
        assert!(crate::unsatisfied_links(&tree, &expected, schedule).is_empty());
    }

    #[test]
    fn gateway_direct_increase() {
        // Increase a layer-1 link: the gateway reallocates its own row.
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();
        fabric.request_change(Link::up(NodeId(2)), 5);
        let schedule = fabric.schedule();
        assert!(schedule.is_exclusive());
        assert_eq!(schedule.cells_of(Link::up(NodeId(2))).len(), 5);
    }

    #[test]
    fn downlink_adjustment_works_too() {
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();
        fabric.request_change(Link::down(NodeId(11)), 4);
        let schedule = fabric.schedule();
        assert!(schedule.is_exclusive());
        assert_eq!(schedule.cells_of(Link::down(NodeId(11))).len(), 4);
    }

    #[test]
    fn infeasible_change_is_rejected_and_network_unharmed() {
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();
        // Demand more slots than the slotframe has. The rejection surfaces
        // as SlotframeOverflow, either immediately or while the escalation
        // chain is dispatched.
        let parent = NodeId(7);
        let result = fabric.net.request_change_now(Link::up(NodeId(9)), 500);
        let result = result.and_then(|fx| fabric.try_dispatch(parent, fx));
        assert!(
            matches!(result, Err(HarpError::SlotframeOverflow { .. })),
            "a 500-cell increase cannot be absorbed: {result:?}"
        );
    }

    #[test]
    fn repeated_changes_converge() {
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();
        for r in [2, 3, 2, 4, 1] {
            fabric.request_change(Link::up(NodeId(10)), r);
            let schedule = fabric.schedule();
            assert!(schedule.is_exclusive(), "after setting r={r}");
            assert_eq!(schedule.cells_of(Link::up(NodeId(10))).len(), r as usize);
        }
    }

    #[test]
    fn leaf_bootstrap_is_silent() {
        let tree = Tree::paper_fig1_example();
        let mut fabric = Fabric::new(&tree, &fig1_reqs(&tree));
        assert!(tree.is_leaf(NodeId(4)));
        let fx = fabric.net.bootstrap_node(NodeId(4)).unwrap();
        assert!(fx.messages.is_empty());
        assert_eq!(fabric.schedule().version(), 0, "nothing installed");
    }

    #[test]
    fn cell_assignment_installs_its_cells_at_child() {
        let tree = Tree::paper_fig1_example();
        let config = SlotframeConfig::paper_default();
        let mut fabric = Fabric::new(&tree, &fig1_reqs(&tree));
        let cells = CellRun::new(Rect::from_xywh(3, 0, 2, 1), config, 0..2);
        assert!(cells.clone().eq([Cell::new(3, 0), Cell::new(4, 0)]));
        let msg = HarpMessage::CellAssignment {
            direction: Direction::Up,
            cells: cells.clone(),
        };
        let fx = fabric.net.deliver_now(NodeId(1), NodeId(4), msg).unwrap();
        assert!(fx.messages.is_empty());
        assert_eq!(fabric.node(NodeId(4)).installed(Direction::Up), cells);
        let link = Link::up(NodeId(4));
        assert_eq!(
            fabric.schedule().cells_of(link),
            [Cell::new(3, 0), Cell::new(4, 0)]
        );

        // A shorter run replaces the row rather than adding to it.
        let fewer = CellRun::new(Rect::from_xywh(3, 0, 2, 1), config, 1..2);
        let msg = HarpMessage::CellAssignment {
            direction: Direction::Up,
            cells: fewer,
        };
        fabric.net.deliver_now(NodeId(1), NodeId(4), msg).unwrap();
        assert_eq!(fabric.schedule().cells_of(link), [Cell::new(4, 0)]);
    }

    #[test]
    fn a_growth_granted_around_its_partition_tells_no_bystander() {
        // N1's downlink layer-3 partition holds the rows of N2 (for N7)
        // and N5 (for N6). Once a first growth has moved the gateway's
        // layers, N6's growth climbs to the gateway, which grows N1's
        // partition around the old one, shifted toward the slotframe's
        // start: N1 re-places N5's row and leaves N2's where it was.
        let tree = Tree::from_parents(&[(1, 0), (2, 1), (3, 1), (4, 1), (5, 1), (6, 5), (7, 2)]);
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), 1);
            reqs.set(Link::down(v), 1);
        }
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();
        fabric.request_change(Link::down(NodeId(2)), 6);
        let (n1, d) = (NodeId(1), Direction::Down);
        let old = fabric.node(n1).partition(d, 3).unwrap();
        let bystander = |f: &Fabric| {
            let (_, placed) = f
                .node(n1)
                .child_partitions(d)
                .find(|&(l, _)| l == 3)
                .unwrap();
            placed.iter().find(|&&(c, _)| c == NodeId(2)).unwrap().1
        };
        let before = bystander(&fabric);
        fabric.messages_seen.clear();
        fabric.request_change(Link::down(NodeId(6)), 3);

        let new = fabric.node(n1).partition(d, 3).unwrap();
        assert!(
            new.contains_rect(&old) && new.origin != old.origin,
            "{old} -> {new}"
        );
        assert_eq!(bystander(&fabric), before, "N2's row stays");
        let causes: Vec<Cause> = fabric.messages_seen.iter().map(|m| m.3).collect();
        assert!(
            causes.contains(&Cause::Climb),
            "the growth escalated: {causes:?}"
        );
        for (_, to, msg, cause) in &fabric.messages_seen {
            let told = matches!(msg, HarpMessage::PutPartition { .. }) && *to == NodeId(2);
            assert!(!told, "N2 told of a partition ({cause:?})");
            assert!(
                !matches!(cause, Cause::Bystander | Cause::Translation),
                "{causes:?}"
            );
        }
        assert!(fabric.schedule().is_exclusive());
    }
}
