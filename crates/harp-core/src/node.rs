//! The per-node HARP state machine.
//!
//! A [`HarpNode`] holds the protocol state a real device holds on the
//! testbed: the cell requirements of its child links, the interfaces its
//! children reported, the partitions its parent granted, and the schedule
//! it decided for its own links. Its neighbourhood (parent, children, link
//! layer) is RPL's output, not HARP state: handlers read it from the
//! routing [`Tree`] they are handed, the one the network owns and swaps on
//! every join and parent switch.
//!
//! Handlers consume one [`HarpMessage`] and write into an outbox of
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
use crate::component::{ResourceComponent, ResourceInterface};
use crate::dir_state::{DirState, DirWriter, UndoLog};
use crate::error::HarpError;
use crate::protocol::HarpMessage;
use crate::schedule_gen::{CellRun, SchedulingPolicy};
use crate::workspace::Workspace;
use packing::{Point, Rect};
use std::collections::BTreeMap;
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

/// What a handler borrows from whoever drives it: the routing tree it reads
/// its neighbourhood from, the undo log its writes feed, the schedule it
/// installs cells in, the workspace it computes in, and its outbox.
pub(crate) struct Cx<'a> {
    pub tree: &'a Tree,
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

/// One HARP participant: the distributed state machine of a single device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarpNode {
    id: NodeId,
    config: SlotframeConfig,
    policy: SchedulingPolicy,
    up: DirState,
    down: DirState,
    counters: NodeObsCounters,
}

impl HarpNode {
    /// Creates the node for `id`, holding no protocol state yet. Its
    /// neighbourhood is the routing tree's, which every handler is handed
    /// (a real device learns it from RPL).
    #[must_use]
    pub fn new(id: NodeId, config: SlotframeConfig, policy: SchedulingPolicy) -> Self {
        Self {
            id,
            config,
            policy,
            up: DirState::default(),
            down: DirState::default(),
            counters: NodeObsCounters::default(),
        }
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's adjustment-activity counters.
    #[must_use]
    pub(crate) fn obs_counters(&self) -> &NodeObsCounters {
        &self.counters
    }

    fn dir(&self, d: Direction) -> &DirState {
        match d {
            Direction::Up => &self.up,
            Direction::Down => &self.down,
        }
    }

    /// One direction's state. Harmless to hand out: its fields are private
    /// to `dir_state.rs`, which writes through this only to build a
    /// [`DirWriter`] or to roll back.
    pub(crate) fn dir_state_mut(&mut self, d: Direction) -> &mut DirState {
        match d {
            Direction::Up => &mut self.up,
            Direction::Down => &mut self.down,
        }
    }

    /// Puts back counters an aborted run had saved ([`UndoLog::rollback`]).
    pub(crate) fn restore_counters(&mut self, counters: NodeObsCounters) {
        self.counters = counters;
    }

    /// The only way to write one direction's state: through `log`.
    fn dir_mut<'a>(&'a mut self, log: &'a mut UndoLog, d: Direction) -> DirWriter<'a> {
        let id = self.id;
        DirWriter::new(self.dir_state_mut(d), log, id, d)
    }

    /// Changes the counters, saving them to `log` first.
    fn count(&mut self, log: &mut UndoLog, change: impl FnOnce(&mut NodeObsCounters)) {
        log.save_counters(self.id, self.counters);
        change(&mut self.counters);
    }

    /// Sets the requirement of the link to `child` (static configuration).
    pub fn set_requirement(&mut self, direction: Direction, child: NodeId, cells: u32) {
        self.dir_mut(&mut UndoLog::off(), direction)
            .put_req(child, Some(cells));
    }

    /// The node's generated interface for `direction`, if any.
    #[must_use]
    pub fn interface(&self, direction: Direction) -> Option<&ResourceInterface> {
        self.dir(direction).interface()
    }

    /// The partition granted to this node at `layer`.
    #[must_use]
    pub fn partition(&self, direction: Direction, layer: u32) -> Option<Rect> {
        self.dir(direction).partition(layer)
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

    // ---- topology mutation (node join / departure / parent switch): the
    // edge itself is the tree's; each edit writes what this node keeps
    // about the child through `log` like a handler does, so a rejected
    // event rolls it back ----

    /// Takes on `child`, a new (leaf) child of this node in the tree, with
    /// zero demand. Demand is added afterwards via
    /// [`HarpNode::request_change`], which triggers the partition machinery.
    pub(crate) fn adopt_child(&mut self, log: &mut UndoLog, child: NodeId) {
        for d in Direction::BOTH {
            if self.dir(d).req(child).is_none() {
                self.dir_mut(log, d).put_req(child, Some(0));
            }
        }
    }

    /// Forgets `child`, which left this node, dropping its demand,
    /// interface, cell assignments and partitions. The freed cells become
    /// idle area in this node's partition (released locally, as §V
    /// prescribes for departures).
    pub(crate) fn orphan_child(&mut self, log: &mut UndoLog, child: NodeId) {
        for d in Direction::BOTH {
            let mut ds = self.dir_mut(log, d);
            ds.put_req(child, None);
            ds.put_child_interface(child, None);
            ds.put_assignment(child, None);
            let mut from = 0;
            loop {
                let next = ds.child_partitions().find(|&(l, _)| l >= from);
                let Some((layer, placed)) = next else {
                    break;
                };
                if placed.iter().any(|&(c, _)| c == child) {
                    let kept = placed.iter().copied().filter(|&(c, _)| c != child);
                    let kept = kept.collect();
                    ds.set_child_partitions(layer, kept);
                }
                from = layer + 1;
            }
        }
    }

    /// Kicks off the static phase at this node, `tree` being the routing
    /// tree. Nodes whose children are all leaves can generate and report
    /// their interfaces immediately; everyone else waits for `POST intf`
    /// messages.
    ///
    /// # Errors
    ///
    /// Propagates composition/allocation failures.
    pub fn bootstrap(
        &mut self,
        tree: &Tree,
        schedule: &mut NetworkSchedule,
    ) -> Result<Effects, HarpError> {
        self.standalone(tree, schedule, Self::bootstrap_logged)
    }

    /// Runs `handler` on `tree` and `schedule` outside any transaction, in
    /// a fresh workspace, and returns what it put in its outbox.
    fn standalone(
        &mut self,
        tree: &Tree,
        schedule: &mut NetworkSchedule,
        handler: impl FnOnce(&mut Self, &mut Cx<'_>) -> Result<(), HarpError>,
    ) -> Result<Effects, HarpError> {
        let mut outbox = Effects::default();
        let (log, ws, fx) = (&mut UndoLog::off(), &mut Workspace::new(), &mut outbox);
        let cx = &mut Cx {
            tree,
            log,
            schedule,
            ws,
            fx,
        };
        handler(self, cx)?;
        Ok(outbox)
    }

    /// [`HarpNode::bootstrap`] in `cx`.
    pub(crate) fn bootstrap_logged(&mut self, cx: &mut Cx<'_>) -> Result<(), HarpError> {
        if cx.tree.is_leaf(self.id) {
            return Ok(());
        }
        self.maybe_generate_and_report(cx)
    }

    /// Handles one protocol message from a neighbour, `tree` being the
    /// routing tree; a cell assignment installs its cells in `schedule`.
    ///
    /// Handlers are **idempotent**: the transport layer may re-deliver any
    /// message (a retransmission whose original squeaked through), so each
    /// arm recognises "nothing new" and sends nothing instead of
    /// re-applying state or re-triggering adjustments.
    ///
    /// # Errors
    ///
    /// Propagates algorithmic failures (overflow, packing, missing state).
    pub fn handle(
        &mut self,
        tree: &Tree,
        schedule: &mut NetworkSchedule,
        from: NodeId,
        msg: HarpMessage,
    ) -> Result<Effects, HarpError> {
        self.standalone(tree, schedule, |node, cx| node.handle_logged(cx, from, msg))
    }

    /// [`HarpNode::handle`] in `cx`.
    pub(crate) fn handle_logged(
        &mut self,
        cx: &mut Cx<'_>,
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
                if self.up.interface().is_some() {
                    return Ok(());
                }
                self.dir_mut(cx.log, Direction::Up)
                    .put_child_interface(from, Some(up));
                self.dir_mut(cx.log, Direction::Down)
                    .put_child_interface(from, Some(down));
                self.maybe_generate_and_report(cx)
            }
            HarpMessage::PostPartitions { partitions } => {
                // Every entry identical to stored state ⇒ the original of
                // this message was already processed (storage and
                // distribution happen atomically below).
                if !partitions.is_empty()
                    && partitions
                        .iter()
                        .all(|&(d, layer, rect)| self.dir(d).partition(layer) == Some(rect))
                {
                    return Ok(());
                }
                for &(d, layer, rect) in &partitions {
                    self.dir_mut(cx.log, d).set_partition(layer, rect);
                }
                // A parent lists a direction's entries together, uplink
                // first.
                for d in Direction::BOTH {
                    if partitions.iter().any(|&(pd, _, _)| pd == d) {
                        self.distribute_partitions(cx, d)?;
                    }
                }
                Ok(())
            }
            HarpMessage::PutInterface {
                direction,
                layer,
                component,
            } => self.on_child_component_update(cx, direction, from, layer, component),
            HarpMessage::PutPartition {
                direction,
                layer,
                rect,
            } => {
                // An unchanged grant with no escalation pending is a
                // re-delivery; replaying it would only recompute a layout
                // identical to the stored one.
                let ds = self.dir(direction);
                if ds.partition(layer) == Some(rect) && ds.pending(layer).is_none() {
                    return Ok(());
                }
                self.take_partition(cx, direction, layer, rect)
            }
            HarpMessage::CellAssignment { direction, cells } => {
                // The child starts (or stops) using the granted cells now.
                // A re-delivered assignment matches the cells already in
                // use and must not rewrite the row.
                if self.dir(direction).own_cells() == Some(&cells) {
                    return Ok(());
                }
                self.install(cx.log, cx.schedule, direction, cells)
            }
        }
    }

    /// Makes `cells` this node's own cells in `direction` and its link's row
    /// in `schedule`: the one place a link's installed cells are written.
    fn install(
        &mut self,
        log: &mut UndoLog,
        schedule: &mut NetworkSchedule,
        direction: Direction,
        cells: CellRun,
    ) -> Result<(), HarpError> {
        let child = self.id;
        let link = Link { child, direction };
        // The own cells are logged before the row is written: a rollback
        // writes the row back from them, so a row whose write fails half-way
        // (a `DuplicateAssignment`) is restored too.
        self.dir_mut(log, direction).set_own_cells(cells.clone());
        schedule.unassign_link(link);
        for cell in cells {
            schedule.assign(cell, link)?;
        }
        Ok(())
    }

    /// A traffic change at one of this node's child links (§V), `tree`
    /// being the routing tree: `r(e)` of the link to `child` becomes
    /// `new_cells`. Returns the effects — either a purely local schedule
    /// update (Case 1) or a `PUT intf` escalation (Case 2).
    ///
    /// # Errors
    ///
    /// Fails if the static phase has not completed at this node, or the
    /// gateway cannot grow the slotframe allocation.
    pub fn request_change(
        &mut self,
        tree: &Tree,
        schedule: &mut NetworkSchedule,
        direction: Direction,
        child: NodeId,
        new_cells: u32,
    ) -> Result<Effects, HarpError> {
        self.standalone(tree, schedule, |node, cx| {
            node.request_change_logged(cx, direction, child, new_cells)
        })
    }

    /// [`HarpNode::request_change`] in `cx`.
    pub(crate) fn request_change_logged(
        &mut self,
        cx: &mut Cx<'_>,
        direction: Direction,
        child: NodeId,
        new_cells: u32,
    ) -> Result<(), HarpError> {
        let layer = cx.tree.link_layer(self.id);
        let slots = self.config.slots;
        let mut ds = self.dir_mut(cx.log, direction);
        ds.put_req(child, Some(new_cells));
        let total = ds.direct_demand(slots)?;
        match ds.partition(layer) {
            Some(row) if total <= row.width() * row.height() => {
                // Case 1: enough idle cells in the current partition.
                self.count(cx.log, |c| c.local_updates += 1);
                self.schedule_own_row(cx, direction)
            }
            // Case 2: the partition itself must grow.
            _ => self.escalate(cx, direction, layer, ResourceComponent::row(total), self.id),
        }
    }

    // ---- static phase internals ----

    /// Generates the interface (both directions) once every non-leaf child
    /// has reported, then reports upward — or allocates if this is the
    /// gateway.
    fn maybe_generate_and_report(&mut self, cx: &mut Cx<'_>) -> Result<(), HarpError> {
        let tree = cx.tree;
        let ready = |ds: &DirState| {
            let mut nonleaf = tree.children(self.id).iter().filter(|&&c| !tree.is_leaf(c));
            nonleaf.all(|&c| ds.child_interface(c).is_some())
        };
        if self.up.interface().is_some() || !ready(&self.up) || !ready(&self.down) {
            return Ok(());
        }
        self.generate_interfaces(tree, cx.log, cx.ws)?;
        let Some(parent) = tree.parent(self.id) else {
            return self.gateway_allocate(cx);
        };
        let msg = HarpMessage::PostInterface {
            up: self.up.interface().cloned().expect("just generated"),
            down: self.down.interface().cloned().expect("just generated"),
        };
        cx.fx.messages.push((parent, msg));
        Ok(())
    }

    /// Builds this node's interfaces, uplink then downlink, from local
    /// requirements and the interfaces its non-leaf children reported.
    pub(crate) fn generate_interfaces(
        &mut self,
        tree: &Tree,
        log: &mut UndoLog,
        ws: &mut Workspace,
    ) -> Result<(), HarpError> {
        let own_layer = tree.link_layer(self.id);
        self.generate_interface(log, ws, Direction::Up, own_layer)?;
        self.generate_interface(log, ws, Direction::Down, own_layer)
    }

    /// Builds this node's interface for one direction (Case 1 + Case 2 of
    /// §IV-B) from local requirements and the children's interfaces, its
    /// own links being at `own_layer`.
    fn generate_interface(
        &mut self,
        log: &mut UndoLog,
        ws: &mut Workspace,
        direction: Direction,
        own_layer: u32,
    ) -> Result<(), HarpError> {
        let (channels, slots) = (self.config.channels, self.config.slots);
        let mut ds = self.dir_mut(log, direction);
        let mut iface = ResourceInterface::new();
        iface.set(own_layer, ResourceComponent::row(ds.direct_demand(slots)?));

        let deepest = ds
            .child_interfaces()
            .filter_map(|(_, i)| i.max_layer())
            .max()
            .unwrap_or(own_layer);
        let children = ds.child_interfaces();
        let layouts = ws.compose_layers(children, own_layer + 1..=deepest, channels, &mut iface)?;
        ds.set_interface(iface);
        // A node generates its interface once, before it holds any layout.
        for (layer, layout) in layouts {
            ds.set_layout(layer, layout);
        }
        Ok(())
    }

    /// The gateway's slotframe placement: uplink super-partition first with
    /// layers descending, downlink after with layers ascending (§IV-C).
    fn gateway_allocate(&mut self, cx: &mut Cx<'_>) -> Result<(), HarpError> {
        self.place_gateway_partitions(cx.log)?;
        for d in Direction::BOTH {
            self.distribute_partitions(cx, d)?;
        }
        Ok(())
    }

    /// Lays the gateway's per-layer partitions side by side along the
    /// slotframe and checks that they fit it.
    pub(crate) fn place_gateway_partitions(&mut self, log: &mut UndoLog) -> Result<(), HarpError> {
        let slots = self.config.slots;
        let mut cursor: u32 = 0;
        for (d, descending) in [(Direction::Up, true), (Direction::Down, false)] {
            cursor = self
                .dir_mut(log, d)
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

    /// Having just received (or allocated) partitions for every layer of the
    /// own subtree: derive children's partitions from the stored composition
    /// layouts, send them down, and schedule the own row.
    fn distribute_partitions(
        &mut self,
        cx: &mut Cx<'_>,
        direction: Direction,
    ) -> Result<(), HarpError> {
        self.derive_child_partitions(cx.log, direction)?;
        self.schedule_own_row(cx, direction)?;
        let ds = self.dir(direction);
        let mut per_child: BTreeMap<NodeId, Vec<(Direction, u32, Rect)>> = BTreeMap::new();
        for (layer, _) in ds.layouts() {
            let placed = ds.child_partitions_at(layer).expect("derived above");
            for &(c, rect) in placed {
                let entry = (direction, layer, rect);
                per_child.entry(c).or_default().push(entry);
            }
        }
        for (child, partitions) in per_child {
            cx.fx.post_partitions(child, partitions);
        }
        Ok(())
    }

    /// Carves the children's partitions out of this node's own, one composed
    /// layer at a time, by translating the stored composition layouts.
    fn derive_child_partitions(
        &mut self,
        log: &mut UndoLog,
        direction: Direction,
    ) -> Result<(), HarpError> {
        let id = self.id;
        self.dir_mut(log, direction)
            .place_child_partitions(|layer, layout, own| {
                let own = own.ok_or(HarpError::MissingPartition { node: id, layer })?;
                Ok(layout
                    .placements()
                    .iter()
                    .map(|&(c, rel)| (c, rel.translated(own.origin.x, own.origin.y)))
                    .collect())
            })
    }

    /// Re-runs the local scheduler over the own partition row and notifies
    /// every child whose cells changed.
    fn schedule_own_row(&mut self, cx: &mut Cx<'_>, direction: Direction) -> Result<(), HarpError> {
        let messages = &mut cx.fx.messages;
        self.assign_own_row(cx.tree, cx.log, cx.ws, direction, |child, cells| {
            let cells = cells.clone();
            messages.push((child, HarpMessage::CellAssignment { direction, cells }));
        })
    }

    /// Re-runs the local scheduler over the own partition row, storing the
    /// cells of every child link whose cells changed and reporting each such
    /// `(child, cells)` to `changed`, in row order.
    fn assign_own_row(
        &mut self,
        tree: &Tree,
        log: &mut UndoLog,
        ws: &mut Workspace,
        direction: Direction,
        mut changed: impl FnMut(NodeId, &CellRun),
    ) -> Result<(), HarpError> {
        let id = self.id;
        let policy = self.policy;
        let config = self.config;
        let layer = tree.link_layer(id);
        let mut ds = self.dir_mut(log, direction);
        let total = ds.direct_demand(config.slots)?;
        let Some(row) = ds.partition(layer) else {
            if total == 0 {
                return Ok(());
            }
            return Err(HarpError::MissingPartition { node: id, layer });
        };
        for (child, cells) in ws.assign_row(id, ds.reqs(), row, policy, config)? {
            // By the cells, not by the row they were cut from: a row that
            // grew in place leaves the leading links' cells where they were.
            let unchanged = match ds.assignment(child) {
                Some(old) => *old == cells,
                None => cells.is_empty(),
            };
            if !unchanged {
                changed(child, &cells);
                ds.put_assignment(child, Some(cells));
            }
        }
        Ok(())
    }

    // ---- direct static settle (see `HarpNetwork::run_static`) ----

    /// Stores the interfaces `child` generated, as its `POST intf` would
    /// have delivered them.
    pub(crate) fn store_child_interfaces(&mut self, log: &mut UndoLog, child: &HarpNode) {
        for d in Direction::BOTH {
            let iface = child
                .dir(d)
                .interface()
                .cloned()
                .expect("children generate before their parent");
            self.dir_mut(log, d)
                .put_child_interface(child.id, Some(iface));
        }
    }

    /// With this node's partitions in place for every layer of its subtree:
    /// carves out the children's partitions and schedules the own row, both
    /// directions — the state a `POST part` handler leaves behind, without
    /// the messages.
    pub(crate) fn settle_partitions(
        &mut self,
        tree: &Tree,
        log: &mut UndoLog,
        ws: &mut Workspace,
    ) -> Result<(), HarpError> {
        for d in Direction::BOTH {
            self.derive_child_partitions(log, d)?;
            self.assign_own_row(tree, log, ws, d, |_, _| {})?;
        }
        Ok(())
    }

    /// Takes over what `parent` decided for this node — its partitions at
    /// every composed layer (a leaf reported no interface, so it has none)
    /// and the cells of its own link, both directions — as the `POST part`
    /// and cell-assignment messages would have delivered them, and installs
    /// the cells in `schedule`. Returns which of those messages the grant
    /// stands for.
    pub(crate) fn accept_static_grant(
        &mut self,
        log: &mut UndoLog,
        parent: &HarpNode,
        schedule: &mut NetworkSchedule,
    ) -> Result<StaticGrant, HarpError> {
        let id = self.id;
        let mut grant = StaticGrant::default();
        for d in Direction::BOTH {
            let from = parent.dir(d);
            for (layer, placed) in from.child_partitions() {
                for &(c, rect) in placed {
                    if c == id {
                        self.dir_mut(log, d).set_partition(layer, rect);
                        grant.partitions = true;
                    }
                }
            }
            if let Some(cells) = from.assignment(id) {
                self.install(log, schedule, d, cells.clone())?;
                match d {
                    Direction::Up => grant.up_cells = true,
                    Direction::Down => grant.down_cells = true,
                }
            }
        }
        Ok(grant)
    }

    // ---- dynamic phase: three transitions and the handlers around them ----

    /// A child reported a grown component at `layer` (`PUT intf`). Try to
    /// absorb it locally (Alg. 2); escalate otherwise.
    fn on_child_component_update(
        &mut self,
        cx: &mut Cx<'_>,
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
            let ds = self.dir(direction);
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
        let mut ds = self.dir_mut(cx.log, direction);
        ds.set_child_component(child, layer, component);
        // A layer this node has never held a partition for (the subtree just
        // grew deeper, e.g. after a node join): nothing to adjust locally —
        // escalate straight away so an ancestor creates the layer.
        let Some(own) = ds.partition(layer) else {
            return self.escalate_layer(cx, direction, layer, child);
        };
        let mut placements = ds
            .child_partitions_at(layer)
            .map(<[_]>::to_vec)
            .unwrap_or_default();
        if !placements.iter().any(|(c, _)| *c == child) {
            placements.push((child, Rect::default()));
        }
        let Some(outcome) = self.adjust_within(cx.log, own, &placements, child, component)? else {
            return self.escalate_layer(cx, direction, layer, child);
        };
        for (moved, rect) in outcome.moved_rects() {
            let msg = HarpMessage::PutPartition {
                direction,
                layer,
                rect,
            };
            cx.fx.messages.push((moved, msg));
        }
        self.dir_mut(cx.log, direction)
            .set_child_partitions(layer, outcome.layout);
        Ok(())
    }

    /// Recomposes `layer` from the children's current components, stores
    /// the layout and escalates the composite.
    fn escalate_layer(
        &mut self,
        cx: &mut Cx<'_>,
        direction: Direction,
        layer: u32,
        requester: NodeId,
    ) -> Result<(), HarpError> {
        let reported = self
            .dir(direction)
            .child_interfaces()
            .filter_map(|(c, i)| i.component(layer).map(|comp| (c, comp)));
        let layout = cx.ws.compose(reported, self.config.channels, layer)?;
        let composite = layout.composite();
        self.dir_mut(cx.log, direction).set_layout(layer, layout);
        self.escalate(cx, direction, layer, composite, requester)
    }

    /// Case 2 of §V: this node's component at `layer` grows to `component`
    /// on behalf of `requester`. Marks the layer pending, then asks the
    /// parent for room (`PUT intf`) or, at the gateway, re-places the
    /// slotframe.
    fn escalate(
        &mut self,
        cx: &mut Cx<'_>,
        direction: Direction,
        layer: u32,
        component: ResourceComponent,
        requester: NodeId,
    ) -> Result<(), HarpError> {
        let mut ds = self.dir_mut(cx.log, direction);
        ds.set_component(layer, component);
        ds.put_pending(layer, Some(requester));
        let Some(parent) = cx.tree.parent(self.id) else {
            return self.gateway_reallocate(cx, direction, layer);
        };
        self.count(cx.log, |c| c.escalations += 1);
        let msg = HarpMessage::PutInterface {
            direction,
            layer,
            component,
        };
        cx.fx.messages.push((parent, msg));
        Ok(())
    }

    /// One step of Alg. 2 (§V): `key`'s partition, one of `entries` inside
    /// `container`, grows to `component`. Counts the outcome, which is
    /// `None` when even a full repack cannot fit.
    fn adjust_within<K: Copy + Ord>(
        &mut self,
        log: &mut UndoLog,
        container: Rect,
        entries: &[(K, Rect)],
        key: K,
        component: ResourceComponent,
    ) -> Result<Option<AdjustmentOutcome<K>>, HarpError> {
        let outcome = adjust_partition(container, entries, key, component)?;
        self.count(log, |c| match &outcome {
            Some(outcome) => {
                c.adjust_feasible += 1;
                c.partitions_moved += outcome.moved_count() as u64;
            }
            None => c.adjust_infeasible += 1,
        });
        Ok(outcome)
    }

    /// Installs a partition granted at `layer` (`PUT part`, or the
    /// gateway's own re-placement) and re-places whatever lives inside it.
    fn take_partition(
        &mut self,
        cx: &mut Cx<'_>,
        direction: Direction,
        layer: u32,
        rect: Rect,
    ) -> Result<(), HarpError> {
        let mut ds = self.dir_mut(cx.log, direction);
        let old = ds.partition(layer);
        ds.set_partition(layer, rect);
        self.replace_layer(cx, direction, layer, old, rect)
    }

    /// The own partition at `layer` became `rect` (it was `old`): settles
    /// the escalation pending there, re-places whatever lives inside it and
    /// tells every child whose partition changed. A child holds a partition
    /// only once it reported an interface; one whose own children have all
    /// moved away since is told too, as its rectangle still sits inside
    /// this node's partition.
    fn replace_layer(
        &mut self,
        cx: &mut Cx<'_>,
        direction: Direction,
        layer: u32,
        old: Option<Rect>,
        rect: Rect,
    ) -> Result<(), HarpError> {
        if self.dir(direction).pending(layer).is_some() {
            self.dir_mut(cx.log, direction).put_pending(layer, None);
        }
        if layer == cx.tree.link_layer(self.id) {
            return self.schedule_own_row(cx, direction);
        }

        let current = self
            .dir(direction)
            .child_partitions_at(layer)
            .map(<[_]>::to_vec)
            .unwrap_or_default();

        let new_layout: Vec<(NodeId, Rect)> = match old {
            // Pure move: same size, translate everything inside.
            Some(old) if old.size == rect.size => current
                .iter()
                .map(|&(c, r)| {
                    if r.is_empty() {
                        (c, r)
                    } else {
                        let dx = r.left() - old.left();
                        let dy = r.bottom() - old.bottom();
                        (
                            c,
                            Rect::new(Point::new(rect.left() + dx, rect.bottom() + dy), r.size),
                        )
                    }
                })
                .collect(),
            // Growth: lay the (re)composed layout into the new rectangle.
            _ => {
                let layout =
                    self.dir(direction)
                        .layout(layer)
                        .ok_or(HarpError::MissingPartition {
                            node: self.id,
                            layer,
                        })?;
                layout
                    .placements()
                    .iter()
                    .map(|&(c, rel)| (c, rel.translated(rect.origin.x, rect.origin.y)))
                    .collect()
            }
        };

        for &(c, r) in &new_layout {
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
                cx.fx.messages.push((c, msg));
            }
        }
        self.dir_mut(cx.log, direction)
            .set_child_partitions(layer, new_layout);
        Ok(())
    }

    /// The gateway absorbs a grown component at `(direction, layer)` by
    /// adjusting its slotframe-level placement (there is no parent to
    /// escalate to). The slotframe is the container, the gateway's per-layer
    /// partitions (both directions) are the sub-partitions, and the same
    /// cost-aware heuristic (Alg. 2) keeps unaffected layers in place —
    /// growth lands in the slotframe's idle area whenever possible.
    fn gateway_reallocate(
        &mut self,
        cx: &mut Cx<'_>,
        direction: Direction,
        layer: u32,
    ) -> Result<(), HarpError> {
        let container = Rect::from_xywh(0, 0, self.config.slots, u32::from(self.config.channels));
        let mut entries: Vec<((Direction, u32), Rect)> = Vec::new();
        for d in Direction::BOTH {
            for (l, r) in self.dir(d).partitions() {
                entries.push(((d, l), r));
            }
        }
        // A brand-new layer (the network just grew deeper): enter it with an
        // empty rectangle so the adjustment places it like a fresh grant.
        if !entries.iter().any(|&(k, _)| k == (direction, layer)) {
            entries.push(((direction, layer), Rect::default()));
        }
        let component = self
            .dir(direction)
            .interface()
            .and_then(|i| i.component(layer))
            .ok_or(HarpError::MissingPartition {
                node: self.id,
                layer,
            })?;
        let key = (direction, layer);
        let Some(outcome) = self.adjust_within(cx.log, container, &entries, key, component)? else {
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
            self.take_partition(cx, d, l, rect)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::Cell;

    /// Drives a whole network of nodes to quiescence with synchronous,
    /// zero-latency message delivery (protocol-order tests; timing is
    /// covered by the runner tests).
    struct Fabric {
        tree: Tree,
        nodes: Vec<HarpNode>,
        schedule: NetworkSchedule,
        messages_seen: Vec<(NodeId, NodeId, HarpMessage)>,
    }

    impl Fabric {
        fn new(tree: &Tree, reqs: &crate::Requirements) -> Self {
            let config = SlotframeConfig::paper_default();
            let mut nodes: Vec<HarpNode> = tree
                .nodes()
                .map(|v| HarpNode::new(v, config, SchedulingPolicy::RateMonotonic))
                .collect();
            for (link, cells) in reqs.iter() {
                if let Ok((_, _)) = tree.endpoints(link) {
                    let parent = tree.parent(link.child).unwrap();
                    nodes[parent.index()].set_requirement(link.direction, link.child, cells);
                }
            }
            Self {
                tree: tree.clone(),
                nodes,
                schedule: NetworkSchedule::new(config),
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
                let node = &mut self.nodes[dst.index()];
                let fx = node.handle(&self.tree, &mut self.schedule, src, msg)?;
                queue.extend(fx.messages.into_iter().map(|(to, m)| (dst, to, m)));
            }
            Ok(())
        }

        fn run_static(&mut self) {
            for i in 0..self.nodes.len() {
                let id = self.nodes[i].id();
                let fx = self.nodes[i]
                    .bootstrap(&self.tree, &mut self.schedule)
                    .unwrap();
                self.dispatch(id, fx);
            }
        }

        fn request_change(&mut self, d: Direction, link: Link, cells: u32) {
            let parent = self.tree.parent(link.child).unwrap();
            let fx = self.nodes[parent.index()]
                .request_change(&self.tree, &mut self.schedule, d, link.child, cells)
                .unwrap();
            self.dispatch(parent, fx);
        }

        /// A copy of the network schedule the children installed into.
        fn schedule(&self) -> NetworkSchedule {
            self.schedule.clone()
        }
    }

    fn fig1_reqs(tree: &Tree) -> crate::Requirements {
        let mut reqs = crate::Requirements::new();
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
            let node = &fabric.nodes[v.index()];
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
                let distributed = fabric.nodes[v.index()].partition(d, tree.link_layer(v));
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
        assert!(crate::unsatisfied_links(&tree, &reqs, &schedule).is_empty());
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
        fabric.request_change(Direction::Up, Link::up(NodeId(9)), 0);
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
        fabric.request_change(Direction::Up, Link::up(NodeId(9)), 2);
        let schedule = fabric.schedule();
        assert!(schedule.is_exclusive(), "no collisions during adjustment");
        assert_eq!(schedule.cells_of(Link::up(NodeId(9))).len(), 2);
        // All other links still satisfied.
        let mut expected = fig1_reqs(&tree);
        expected.set(Link::up(NodeId(9)), 2);
        assert!(crate::unsatisfied_links(&tree, &expected, &schedule).is_empty());
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
        fabric.request_change(Direction::Up, Link::up(NodeId(9)), 12);
        let schedule = fabric.schedule();
        assert!(schedule.is_exclusive());
        assert_eq!(schedule.cells_of(Link::up(NodeId(9))).len(), 12);
        let mut expected = fig1_reqs(&tree);
        expected.set(Link::up(NodeId(9)), 12);
        assert!(crate::unsatisfied_links(&tree, &expected, &schedule).is_empty());
    }

    #[test]
    fn gateway_direct_increase() {
        // Increase a layer-1 link: the gateway reallocates its own row.
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let mut fabric = Fabric::new(&tree, &reqs);
        fabric.run_static();
        fabric.request_change(Direction::Up, Link::up(NodeId(2)), 5);
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
        fabric.request_change(Direction::Down, Link::down(NodeId(11)), 4);
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
        let result = fabric.nodes[parent.index()]
            .request_change(&tree, &mut fabric.schedule, Direction::Up, NodeId(9), 500)
            .and_then(|fx| fabric.try_dispatch(parent, fx));
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
            fabric.request_change(Direction::Up, Link::up(NodeId(10)), r);
            let schedule = fabric.schedule();
            assert!(schedule.is_exclusive(), "after setting r={r}");
            assert_eq!(schedule.cells_of(Link::up(NodeId(10))).len(), r as usize);
        }
    }

    #[test]
    fn leaf_bootstrap_is_silent() {
        let tree = Tree::paper_fig1_example();
        let mut node = HarpNode::new(
            NodeId(4),
            SlotframeConfig::paper_default(),
            SchedulingPolicy::RateMonotonic,
        );
        assert!(tree.is_leaf(NodeId(4)));
        let mut schedule = NetworkSchedule::new(SlotframeConfig::paper_default());
        let fx = node.bootstrap(&tree, &mut schedule).unwrap();
        assert!(fx.messages.is_empty());
        assert_eq!(schedule.version(), 0, "nothing installed");
    }

    #[test]
    fn cell_assignment_installs_its_cells_at_child() {
        let tree = Tree::paper_fig1_example();
        let config = SlotframeConfig::paper_default();
        let mut node = HarpNode::new(NodeId(4), config, SchedulingPolicy::RateMonotonic);
        let mut schedule = NetworkSchedule::new(config);
        let cells = CellRun::new(Rect::from_xywh(3, 0, 2, 1), config, 0..2);
        assert!(cells.clone().eq([Cell::new(3, 0), Cell::new(4, 0)]));
        let msg = HarpMessage::CellAssignment {
            direction: Direction::Up,
            cells: cells.clone(),
        };
        let fx = node.handle(&tree, &mut schedule, NodeId(1), msg).unwrap();
        assert!(fx.messages.is_empty());
        assert_eq!(node.installed(Direction::Up), cells);
        let link = Link::up(NodeId(4));
        assert_eq!(schedule.cells_of(link), [Cell::new(3, 0), Cell::new(4, 0)]);

        // A shorter run replaces the row rather than adding to it.
        let fewer = CellRun::new(Rect::from_xywh(3, 0, 2, 1), config, 1..2);
        let msg = HarpMessage::CellAssignment {
            direction: Direction::Up,
            cells: fewer,
        };
        node.handle(&tree, &mut schedule, NodeId(1), msg).unwrap();
        assert_eq!(schedule.cells_of(link), [Cell::new(4, 0)]);
    }
}
