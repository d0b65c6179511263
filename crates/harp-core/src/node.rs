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

use crate::adjust::{adjust_partition, AdjustmentOutcome};
use crate::component::{LayerComponents, ResourceComponent, ResourceInterface};
use crate::compose::CompositionLayout;
use crate::dir_state::{DirView, DirWriter, NodeTables, UndoLog};
use crate::error::HarpError;
use crate::protocol::HarpMessage;
use crate::schedule_gen::{CellRun, SchedulingPolicy};
use crate::workspace::Workspace;
use packing::{Point, Rect};
use std::collections::BTreeMap;
use std::{fmt, mem};
use tsch_sim::{Direction, Link, NetworkSchedule, NodeId, SlotframeConfig, Tree};

/// What a handler wants sent: messages to neighbours.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    /// `(recipient, message)` pairs to hand to the management plane.
    pub messages: Vec<(NodeId, HarpMessage)>,
}

impl Effects {
    /// Queues `POST part` entries for `to`, onto the `POST part` already
    /// queued for it if there is one: a parent reports a child's
    /// partitions for both directions in one message, as on the testbed.
    fn post_partitions(&mut self, to: NodeId, partitions: Vec<(Direction, u32, Rect)>) {
        let queued = self.messages.iter_mut().find_map(|(t, m)| match m {
            HarpMessage::PostPartitions { partitions } if *t == to => Some(partitions),
            _ => None,
        });
        match queued {
            Some(queued) => queued.extend(partitions),
            None => self
                .messages
                .push((to, HarpMessage::PostPartitions { partitions })),
        }
    }
}

/// What a handler borrows from the network that drives it: the routing tree
/// it reads its neighbourhood from, the slotframe and policy, the node
/// tables it keeps its state in, the undo log their writes feed, the
/// schedule it installs cells in, the workspace it computes in, and its
/// outbox.
pub(crate) struct Cx<'a> {
    pub tree: &'a Tree,
    pub config: SlotframeConfig,
    pub policy: SchedulingPolicy,
    pub nodes: &'a mut NodeTables,
    pub log: &'a mut UndoLog,
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

/// Plain counters of one node's dynamic-adjustment activity, aggregated by
/// the runner into its metrics snapshot.
///
/// Deliberately not an `Obs` handle: the counters are node state, logged
/// like the rest of it, so a transactional rollback in
/// [`HarpNetwork::adjust_and_settle`](crate::HarpNetwork::adjust_and_settle)
/// rolls the counts of the aborted attempt back too — the snapshot only ever
/// reports work that actually happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeObsCounters {
    /// Case-1 changes absorbed in the node's own row (no mgmt messages).
    pub local_updates: u64,
    /// Case-2 escalations sent toward the gateway (`PUT intf`), including
    /// re-escalations from intermediate nodes.
    pub escalations: u64,
    /// Partition adjustments (Alg. 2) that fit locally — the feasibility
    /// test passed at this node.
    pub adjust_feasible: u64,
    /// Partition adjustments that could not fit even with a full repack —
    /// the feasibility test failed and the request escalated (or, at the
    /// gateway, overflowed the slotframe).
    pub adjust_infeasible: u64,
    /// Partition rectangles moved by successful adjustments (the
    /// communication-overhead metric Alg. 2 minimises).
    pub partitions_moved: u64,
}

impl NodeObsCounters {
    /// Folds another node's counters into this one.
    pub(crate) fn absorb(&mut self, other: &NodeObsCounters) {
        self.local_updates += other.local_updates;
        self.escalations += other.escalations;
        self.adjust_feasible += other.adjust_feasible;
        self.adjust_infeasible += other.adjust_infeasible;
        self.partitions_moved += other.partitions_moved;
    }
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

    /// This node's adjustment-activity counters.
    #[must_use]
    pub fn counters(&self) -> NodeObsCounters {
        *self.tables.counters(self.id)
    }

    /// The node's generated interface for `direction`, if any.
    #[must_use]
    pub fn interface(&self, direction: Direction) -> Option<ResourceInterface> {
        Some(self.dir(direction).interface()?.iter().copied().collect())
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
        self.dir(direction)
            .assignment(child)
            .cloned()
            .unwrap_or_default()
    }

    /// The cells this node assigned to its children's links, in child
    /// order.
    pub fn assignments(
        &self,
        direction: Direction,
    ) -> impl Iterator<Item = (NodeId, CellRun)> + 'a {
        let assigned = self.dir(direction).assignments();
        assigned.map(|(c, cells)| (c, cells.clone()))
    }

    /// The cells this node installed on its link to its parent, which that
    /// link's schedule row holds (an empty run if none).
    #[must_use]
    pub fn installed(&self, direction: Direction) -> CellRun {
        self.dir(direction).own_cells().cloned().unwrap_or_default()
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
        reported.map(|(c, iface)| (c, iface.iter().copied().collect()))
    }

    /// How this node composed its children's components, per composed
    /// layer in layer order.
    pub fn layouts(
        &self,
        direction: Direction,
    ) -> impl Iterator<Item = (u32, CompositionLayout)> + 'a {
        let layouts = self.dir(direction).layouts();
        layouts.map(|(layer, composite, placed)| {
            (layer, CompositionLayout::new(composite, placed.to_vec()))
        })
    }

    /// The partitions this node allocated to its children, in layer order.
    pub fn child_partitions(
        &self,
        direction: Direction,
    ) -> impl Iterator<Item = (u32, &'a [(NodeId, Rect)])> + 'a {
        self.dir(direction).child_partitions()
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
            .field("counters", &self.counters())
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

    /// Changes `at`'s counters, saving them to the log first.
    fn count(&mut self, at: NodeId, change: impl FnOnce(&mut NodeObsCounters)) {
        self.nodes.count(self.log, at, change);
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
            ds.put_child_interface(child, None);
            ds.put_assignment(child, None);
            ds.drop_child_partitions(child);
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
                    .put_child_interface(from, Some(&up));
                self.dir_mut(at, Direction::Down)
                    .put_child_interface(from, Some(&down));
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
                    self.dir_mut(at, d).set_partition(layer, rect);
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
                if self.dir(at, direction).own_cells() == Some(&cells) {
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
        self.dir_mut(at, direction).set_own_cells(cells.clone());
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
                self.count(at, |c| c.local_updates += 1);
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
            iface.iter().copied().collect()
        };
        let msg = HarpMessage::PostInterface {
            up: generated(Direction::Up),
            down: generated(Direction::Down),
        };
        self.fx.messages.push((parent, msg));
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
            .filter_map(|(_, i)| i.last().map(|&(l, _)| l))
            .max()
            .unwrap_or(own_layer);
        let children = ds.child_interfaces();
        self.ws
            .compose_layers(children, own_layer + 1..=deepest, channels)?;
        let mut ds = DirWriter::new(self.nodes, self.log, self.tree, at, direction);
        let composites = self.ws.composed().map(|(layer, c, _)| (layer, c));
        ds.set_interface(own_layer, direct, composites);
        ds.hold_layers(own_layer..=deepest);
        for (layer, composite, placed) in self.ws.composed() {
            ds.set_layout(layer, composite, placed);
        }
        Ok(())
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

    /// Lays the gateway's per-layer partitions side by side along the
    /// slotframe and checks that they fit it.
    pub(crate) fn place_gateway_partitions(&mut self, at: NodeId) -> Result<(), HarpError> {
        let slots = self.config.slots;
        let mut cursor: u32 = 0;
        for (d, descending) in [(Direction::Up, true), (Direction::Down, false)] {
            cursor = self
                .dir_mut(at, d)
                .place_partitions_in_a_row(cursor, descending, slots)?;
        }
        if cursor > slots {
            return Err(HarpError::SlotframeOverflow {
                needed_slots: u64::from(cursor),
                available: slots,
            });
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
            for &(c, rect) in placed {
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
                Some(old) => *old == cells,
                None => cells.is_empty(),
            };
            if !unchanged {
                if notify {
                    let cells = cells.clone();
                    let msg = HarpMessage::CellAssignment { direction, cells };
                    self.fx.messages.push((child, msg));
                }
                ds.put_assignment(child, Some(cells));
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
                    let (_, rect) = placed.iter().find(|&&(c, _)| c == at)?;
                    Some((l, *rect))
                });
                let Some((layer, rect)) = next else {
                    break;
                };
                self.dir_mut(at, d).set_partition(layer, rect);
                grant.partitions = true;
                from = layer + 1;
            }
            if let Some(cells) = self.dir(parent, d).assignment(at).cloned() {
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
                    .any(|&(c, r)| c == child && r.size == component.as_size())
            });
            let already_escalated = ds.pending(layer) == Some(child);
            if already_stored && (already_granted || already_escalated) {
                return Ok(());
            }
        }
        let mut ds = self.dir_mut(at, direction);
        ds.set_child_component(child, layer, component);
        // A layer this node has never held a partition for (the subtree just
        // grew deeper, e.g. after a node join): nothing to adjust locally —
        // escalate straight away so an ancestor creates the layer.
        let Some(own) = ds.read().partition(layer) else {
            return self.escalate_layer(at, direction, layer, child);
        };
        let mut placements = mem::take(&mut self.ws.placed);
        placements.clear();
        let held = self
            .nodes
            .dir(self.tree, at, direction)
            .child_partitions_at(layer);
        placements.extend_from_slice(held.unwrap_or_default());
        if !placements.iter().any(|(c, _)| *c == child) {
            placements.push((child, Rect::default()));
        }
        let outcome = self.adjust_within(at, own, &placements, child, component);
        self.ws.placed = placements;
        let Some(outcome) = outcome? else {
            return self.escalate_layer(at, direction, layer, child);
        };
        for (moved, rect) in outcome.moved_rects() {
            let msg = HarpMessage::PutPartition {
                direction,
                layer,
                rect,
            };
            self.fx.messages.push((moved, msg));
        }
        self.dir_mut(at, direction)
            .set_child_partitions(layer, &outcome.layout);
        Ok(())
    }

    /// Recomposes `at`'s `layer` from the children's current components,
    /// stores the layout and escalates the composite.
    fn escalate_layer(
        &mut self,
        at: NodeId,
        direction: Direction,
        layer: u32,
        requester: NodeId,
    ) -> Result<(), HarpError> {
        let children = self.nodes.dir(self.tree, at, direction).child_interfaces();
        self.ws
            .compose_layers(children, layer..=layer, self.config.channels)?;
        // No child reports the layer: an empty composite, placing nobody.
        let (composite, placed) = self
            .ws
            .composed()
            .next()
            .map_or((ResourceComponent::default(), &[][..]), |(_, c, p)| (c, p));
        DirWriter::new(self.nodes, self.log, self.tree, at, direction)
            .set_layout(layer, composite, placed);
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
        ds.set_component(layer, component);
        ds.put_pending(layer, Some(requester));
        let Some(parent) = self.tree.parent(at) else {
            return self.gateway_reallocate(at, direction, layer);
        };
        self.count(at, |c| c.escalations += 1);
        let msg = HarpMessage::PutInterface {
            direction,
            layer,
            component,
        };
        self.fx.messages.push((parent, msg));
        Ok(())
    }

    /// One step of Alg. 2 (§V) at `at`: `key`'s partition, one of `entries`
    /// inside `container`, grows to `component`. Counts the outcome, which
    /// is `None` when even a full repack cannot fit.
    fn adjust_within<K: Copy + Ord>(
        &mut self,
        at: NodeId,
        container: Rect,
        entries: &[(K, Rect)],
        key: K,
        component: ResourceComponent,
    ) -> Result<Option<AdjustmentOutcome<K>>, HarpError> {
        let outcome = adjust_partition(container, entries, key, component)?;
        self.count(at, |c| match &outcome {
            Some(outcome) => {
                c.adjust_feasible += 1;
                c.partitions_moved += outcome.moved_count() as u64;
            }
            None => c.adjust_infeasible += 1,
        });
        Ok(outcome)
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
        ds.set_partition(layer, rect);
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
        if self.dir(at, direction).pending(layer).is_some() {
            self.dir_mut(at, direction).put_pending(layer, None);
        }
        if layer == self.tree.link_layer(at) {
            return self.schedule_own_row(at, direction);
        }

        let ds = self.nodes.dir(self.tree, at, direction);
        let current = ds.child_partitions_at(layer).unwrap_or_default();
        let mut placed = mem::take(&mut self.ws.placed);
        placed.clear();
        match old {
            // Pure move: same size, translate everything inside.
            Some(old) if old.size == rect.size => {
                placed.extend(current.iter().map(|&(c, r)| {
                    if r.is_empty() {
                        (c, r)
                    } else {
                        let dx = r.left() - old.left();
                        let dy = r.bottom() - old.bottom();
                        let origin = Point::new(rect.left() + dx, rect.bottom() + dy);
                        (c, Rect::new(origin, r.size))
                    }
                }));
            }
            // Growth: lay the (re)composed layout into the new rectangle.
            _ => {
                let Some(layout) = ds.layout(layer) else {
                    self.ws.placed = placed;
                    return Err(HarpError::MissingPartition { node: at, layer });
                };
                let (x, y) = (rect.origin.x, rect.origin.y);
                placed.extend(layout.iter().map(|&(c, rel)| (c, rel.translated(x, y))));
            }
        }

        for &(c, r) in &placed {
            let old_rect = current
                .iter()
                .find(|(n, _)| *n == c)
                .map(|&(_, r)| r)
                .unwrap_or_default();
            if r != old_rect {
                let msg = HarpMessage::PutPartition {
                    direction,
                    layer,
                    rect: r,
                };
                self.fx.messages.push((c, msg));
            }
        }
        DirWriter::new(self.nodes, self.log, self.tree, at, direction)
            .set_child_partitions(layer, &placed);
        self.ws.placed = placed;
        Ok(())
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
        let container = Rect::from_xywh(0, 0, self.config.slots, u32::from(self.config.channels));
        let mut entries: Vec<((Direction, u32), Rect)> = Vec::new();
        for d in Direction::BOTH {
            for (l, r) in self.dir(at, d).partitions() {
                entries.push(((d, l), r));
            }
        }
        // A brand-new layer (the network just grew deeper): enter it with an
        // empty rectangle so the adjustment places it like a fresh grant.
        if !entries.iter().any(|&(k, _)| k == (direction, layer)) {
            entries.push(((direction, layer), Rect::default()));
        }
        let component = self
            .dir(at, direction)
            .interface()
            .and_then(|i| i.component(layer))
            .ok_or(HarpError::MissingPartition { node: at, layer })?;
        let key = (direction, layer);
        let Some(outcome) = self.adjust_within(at, container, &entries, key, component)? else {
            let total: u64 =
                entries.iter().map(|(_, r)| r.area()).sum::<u64>() + component.cell_count();
            // The binding constraint is either the total area or the grown
            // component's own slot extent (a row wider than the slotframe
            // can never fit, whatever the area says).
            let needed_slots = total
                .div_ceil(u64::from(self.config.channels))
                .max(u64::from(component.slots));
            return Err(HarpError::SlotframeOverflow {
                needed_slots,
                available: self.config.slots,
            });
        };
        for ((d, l), rect) in outcome.moved_rects() {
            self.take_partition(at, d, l, rect)?;
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
        messages_seen: Vec<(NodeId, NodeId, HarpMessage)>,
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
            let mut queue: Vec<(NodeId, NodeId, HarpMessage)> = fx
                .messages
                .into_iter()
                .map(|(to, m)| (from, to, m))
                .collect();
            while let Some((src, dst, msg)) = queue.pop() {
                self.messages_seen.push((src, dst, msg.clone()));
                let fx = self.net.deliver_now(src, dst, msg)?;
                queue.extend(fx.messages.into_iter().map(|(to, m)| (dst, to, m)));
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
            .filter(|(_, _, m)| matches!(m, HarpMessage::PostInterface { .. }))
            .count();
        let part = fabric
            .messages_seen
            .iter()
            .filter(|(_, _, m)| matches!(m, HarpMessage::PostPartitions { .. }))
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
            .filter(|(_, _, m)| m.is_management())
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
            .filter(|(_, _, m)| matches!(m, HarpMessage::PutInterface { .. }))
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
}
