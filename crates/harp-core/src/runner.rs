//! Drives a network of [`HarpNode`]s over the simulated management plane.
//!
//! [`HarpNetwork`] is the deployment harness: it owns one state machine per
//! device and a [`ControlPlane`] that delivers their messages with
//! management-cell timing (one hop costs up to a slotframe). The network can
//! run standalone — fast-forwarding the clock between deliveries — or in
//! lockstep with a data-plane [`Simulator`](tsch_sim::Simulator) by calling
//! [`HarpNetwork::step`] every slot and applying the returned schedule
//! operations.

use crate::dir_state::UndoLog;
use crate::error::HarpError;
use crate::node::{Effects, HarpNode, NodeObsCounters, ScheduleOp};
use crate::protocol::HarpMessage;
use crate::requirement::Requirements;
use crate::schedule_gen::SchedulingPolicy;
use crate::workspace::Workspace;
use harp_obs::{CounterId, MetricsSnapshot, Obs, NO_NODE};
use std::collections::{BTreeMap, BTreeSet};

use tsch_sim::{
    Asn, Cell, ControlPlane, Direction, Link, NetworkSchedule, NodeId, ReliabilityConfig,
    SlotframeConfig, Transport, TransportStats, Tree,
};

/// Counter handles for the runner's own metrics ("harp.*" namespace).
#[derive(Debug, Clone, Copy)]
struct HarpObsIds {
    static_runs: CounterId,
    adjustments: CounterId,
    /// Protocol events rolled back: adjustments and topology events alike.
    adjustments_rolled_back: CounterId,
    refreshes: CounterId,
    joins: CounterId,
    leaves: CounterId,
    reparents: CounterId,
    mgmt_messages: CounterId,
    cell_messages: CounterId,
}

impl HarpObsIds {
    fn register(obs: &mut Obs) -> Self {
        Self {
            static_runs: obs.metrics.counter("harp.static_runs"),
            adjustments: obs.metrics.counter("harp.adjustments"),
            adjustments_rolled_back: obs.metrics.counter("harp.adjustments_rolled_back"),
            refreshes: obs.metrics.counter("harp.refreshes"),
            joins: obs.metrics.counter("harp.joins"),
            leaves: obs.metrics.counter("harp.leaves"),
            reparents: obs.metrics.counter("harp.reparents"),
            mgmt_messages: obs.metrics.counter("harp.mgmt_messages"),
            cell_messages: obs.metrics.counter("harp.cell_messages"),
        }
    }
}

/// Counters and metadata for one protocol run (static phase or one dynamic
/// adjustment) — the raw material of Table II and Fig. 12.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProtocolReport {
    /// When the run started.
    pub started_at: Asn,
    /// When the last message of the run was delivered.
    pub completed_at: Asn,
    /// Management messages exchanged (`POST/PUT intf`, `POST/PUT part`).
    pub mgmt_messages: u64,
    /// Cell-assignment notifications exchanged.
    pub cell_messages: u64,
    /// Transport-layer retransmissions of lost (or unacknowledged) control
    /// messages during the run. Zero on a lossless transport.
    pub retransmissions: u64,
    /// Acknowledgements generated by the transport layer during the run.
    /// Zero on a lossless transport (the reliability sublayer disengages).
    pub acks: u64,
    /// Control transmissions lost to the channel during the run.
    pub dropped: u64,
    /// Nodes that sent or received any message during the run.
    pub involved_nodes: BTreeSet<NodeId>,
    /// Layers named in dynamic (`PUT`) messages.
    pub layers: BTreeSet<u32>,
}

impl ProtocolReport {
    /// Duration of the run in slots.
    #[must_use]
    pub fn elapsed_slots(&self) -> u64 {
        self.completed_at.since(self.started_at)
    }

    /// Duration in whole slotframes (rounded up).
    #[must_use]
    pub fn slotframes(&self, config: SlotframeConfig) -> u64 {
        self.elapsed_slots().div_ceil(u64::from(config.slots))
    }

    /// Duration in seconds.
    #[must_use]
    pub fn elapsed_seconds(&self, config: SlotframeConfig) -> f64 {
        config.slots_to_seconds(self.elapsed_slots())
    }
}

/// What it takes to abort the protocol event in progress.
///
/// HARP's adjustment is *local* — it walks a path of nodes toward the
/// gateway — so its rollback state is too: the node-state values the event
/// displaced (each handed over by the write that displaced it) and the
/// schedule link rows it rewrote, captured on first touch. A topology event
/// adds the tree it replaced, moved in rather than cloned, and the node
/// count to cut a joined node off at. Restoring on failure costs what the
/// event wrote, not the network size. Open only inside
/// [`HarpNetwork::transact`]; closed (the default), it records nothing and
/// owns no heap.
#[derive(Debug, Default)]
struct Transaction {
    /// Displaced node-state values, in write order (per-node counters and
    /// neighbourhood edits included, so they roll back too).
    log: UndoLog,
    /// First-touch cell rows of links rewritten by schedule ops.
    rows: BTreeMap<Link, Vec<Cell>>,
    /// Schedule version at the start of the event, restored verbatim so a
    /// rollback is indistinguishable from swapping in a pre-event clone.
    schedule_version: u64,
    /// Length of the op sink at the start of the event.
    ops_mark: usize,
    /// The tree before the event, if the event replaced it.
    tree: Option<Tree>,
    /// Number of nodes at the start of the event.
    node_count: usize,
}

/// What [`HarpNetwork::transact`] records when an event commits: its
/// counter, and a span of that name on that node.
#[derive(Debug, Clone, Copy)]
struct Event(CounterId, &'static str, NodeId);

/// A network of HARP nodes plus the management plane connecting them.
#[derive(Debug)]
pub struct HarpNetwork {
    tree: Tree,
    config: SlotframeConfig,
    policy: SchedulingPolicy,
    nodes: Vec<HarpNode>,
    plane: ControlPlane<HarpMessage>,
    /// Mirror of the installed schedule (authoritative when running
    /// standalone; callers integrating with a [`tsch_sim::Simulator`] apply
    /// the same ops there).
    schedule: NetworkSchedule,
    /// Schedule operations produced since the last [`HarpNetwork::take_ops`]
    /// drain — the stream an embedding simulator replays onto its own
    /// [`NetworkSchedule`] mirror.
    pending_ops: Vec<ScheduleOp>,
    now: Asn,
    report: ProtocolReport,
    /// Transport counters at the start of the current report window.
    stats_base: TransportStats,
    /// Nodes that have left the network (their tree entries remain, but
    /// they carry no demand and take no further part in the protocol).
    departed: BTreeSet<NodeId>,
    /// Observability handle (disabled unless
    /// [`HarpNetwork::enable_observability`] was called).
    obs: Obs,
    obs_ids: HarpObsIds,
    /// Rollback state of the protocol event in progress (closed outside
    /// [`HarpNetwork::transact`]). Every protocol handler and topology edit
    /// this network invokes writes node state through its log.
    txn: Transaction,
    /// Working buffers of composition and row scheduling, lent to every
    /// protocol handler this network invokes: after the first few nodes of
    /// the static phase they stop allocating.
    workspace: Workspace,
    /// Monotone stamp advancing on every mutation of observable state
    /// (see [`HarpNetwork::version`]).
    version: u64,
}

impl HarpNetwork {
    /// Builds the deployment: one node per device, requirements installed at
    /// each link's parent. Control messages travel over the ideal channel;
    /// use [`HarpNetwork::with_transport`] for lossy channels.
    #[must_use]
    pub fn new(
        tree: Tree,
        config: SlotframeConfig,
        requirements: &Requirements,
        policy: SchedulingPolicy,
    ) -> Self {
        let plane = ControlPlane::reliable(&tree, config);
        Self::assemble(tree, config, requirements, policy, plane)
    }

    /// Builds the deployment with an explicit control-message transport
    /// (e.g. [`tsch_sim::Lossy`] to model per-hop management-frame loss, or
    /// [`tsch_sim::Chaos`] for fault injection).
    #[must_use]
    pub fn with_transport(
        tree: Tree,
        config: SlotframeConfig,
        requirements: &Requirements,
        policy: SchedulingPolicy,
        transport: Box<dyn Transport>,
    ) -> Self {
        let plane = ControlPlane::new(&tree, config, transport);
        Self::assemble(tree, config, requirements, policy, plane)
    }

    fn assemble(
        tree: Tree,
        config: SlotframeConfig,
        requirements: &Requirements,
        policy: SchedulingPolicy,
        plane: ControlPlane<HarpMessage>,
    ) -> Self {
        let nodes = build_nodes(&tree, config, policy, requirements);
        let stats_base = plane.stats();
        let mut obs = Obs::disabled();
        let obs_ids = HarpObsIds::register(&mut obs);
        Self {
            tree,
            config,
            policy,
            nodes,
            plane,
            schedule: NetworkSchedule::new(config),
            pending_ops: Vec::new(),
            now: Asn::ZERO,
            report: ProtocolReport::default(),
            stats_base,
            departed: BTreeSet::new(),
            obs,
            obs_ids,
            txn: Transaction::default(),
            workspace: Workspace::new(),
            version: 0,
        }
    }

    /// An opaque stamp that advances on every mutation of observable
    /// network state: protocol runs, and once per adjustment or topology
    /// event — rejected ones included (a rejected event restores everything
    /// *except* `now`, so it still counts). A rendering of this network cached
    /// against the stamp — e.g. a service's schedule response — is valid
    /// exactly while the version it was built from still matches.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Advances the mutation stamp (call on every observable change).
    fn touch(&mut self) {
        self.version += 1;
    }

    /// Turns on metrics and span recording for this network, keeping up to
    /// `span_capacity` spans (protocol runs: static phase, adjustments,
    /// refreshes, topology events). Also enables observability on the
    /// underlying control plane, so transport counters ("transport.*")
    /// appear in [`HarpNetwork::metrics_snapshot`]. Recording never touches
    /// the protocol's decisions or its random streams: runs with and without
    /// observability are identical.
    pub fn enable_observability(&mut self, span_capacity: usize) {
        let mut obs = Obs::enabled(span_capacity);
        self.obs_ids = HarpObsIds::register(&mut obs);
        self.obs = obs;
        self.plane.enable_observability(span_capacity);
    }

    /// Sets the ambient correlation id on both the runner's and the
    /// control plane's observability handles: every span recorded until
    /// the next call carries it, and each management/cell message becomes
    /// an op span (see [`HarpNetwork::obs`]), so a service can resolve a
    /// request id to the exact protocol work it caused. Pass
    /// [`harp_obs::NO_CORRELATION`] to clear. No-op while observability is
    /// off, so batch experiments stay byte-identical.
    pub fn set_correlation(&mut self, corr: u64) {
        self.obs.set_correlation(corr);
        self.plane.set_correlation(corr);
    }

    /// The span rings of every observed layer under this network — the
    /// runner's own ring plus the control plane's — for merged trace
    /// dumps ([`harp_obs::merged_trace_json`]).
    #[must_use]
    pub fn span_rings(&self) -> Vec<&harp_obs::SpanRing> {
        vec![&self.obs.spans, &self.plane.obs().spans]
    }

    /// The observability handle (disabled unless
    /// [`HarpNetwork::enable_observability`] was called).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Snapshots all metrics of this deployment: the runner's own "harp.*"
    /// counters, the control plane's "transport.*" counters, and the
    /// per-node adjustment counters aggregated over every node
    /// ("harp.node.*"). Empty while observability is off.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.metrics.snapshot();
        if !self.obs.is_enabled() {
            return snap;
        }
        snap.merge(&self.plane.metrics_snapshot());
        let mut agg = NodeObsCounters::default();
        for n in &self.nodes {
            agg.absorb(n.obs_counters());
        }
        snap.add_counters([
            ("harp.node.local_updates", agg.local_updates),
            ("harp.node.escalations", agg.escalations),
            ("harp.node.adjust_feasible", agg.adjust_feasible),
            ("harp.node.adjust_infeasible", agg.adjust_infeasible),
            ("harp.node.partitions_moved", agg.partitions_moved),
        ]);
        snap
    }

    /// Records a protocol-run span from the current report window,
    /// enriched with the concerned node's tree depth (0 for network-wide
    /// runs) so flame views can fold per HARP layer.
    fn report_span(&mut self, name: &'static str, node: u32, detail: i64) {
        if !self.obs.is_enabled() {
            return;
        }
        let depth = if node == NO_NODE {
            0
        } else {
            self.tree.depth(NodeId(node))
        };
        let (start, end) = (self.report.started_at.0, self.report.completed_at.0);
        self.obs.span(name, "harp", node, depth, start, end, detail);
    }

    /// Replaces the retransmission tuning of the control plane. Affects
    /// messages sent after the call.
    pub fn set_reliability(&mut self, reliability: ReliabilityConfig) {
        self.plane.set_reliability(reliability);
    }

    /// The tree this network runs on.
    #[must_use]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The current clock of the management plane.
    #[must_use]
    pub fn now(&self) -> Asn {
        self.now
    }

    /// The slotframe configuration of this deployment.
    #[must_use]
    pub fn config(&self) -> SlotframeConfig {
        self.config
    }

    /// The schedule as installed so far by the protocol.
    #[must_use]
    pub fn schedule(&self) -> &NetworkSchedule {
        &self.schedule
    }

    /// Access to one node's state (inspection / tests).
    #[must_use]
    pub fn node(&self, id: NodeId) -> &HarpNode {
        &self.nodes[id.index()]
    }

    /// Returns `true` if `node` is still part of the network (has not
    /// departed via [`HarpNetwork::leave_leaf`]).
    #[must_use]
    pub fn is_active(&self, node: NodeId) -> bool {
        node.index() < self.tree.len() && !self.departed.contains(&node)
    }

    /// Returns `true` when no protocol message is in flight and nothing is
    /// awaiting an acknowledgement: the protocol has converged.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.plane.is_idle()
    }

    /// The report accumulated since the last [`HarpNetwork::reset_report`].
    #[must_use]
    pub fn report(&self) -> &ProtocolReport {
        &self.report
    }

    /// Cumulative transport counters since the network was built (monotonic
    /// across report windows).
    #[must_use]
    pub fn transport_stats(&self) -> TransportStats {
        self.plane.stats()
    }

    /// Starts a fresh report window at the current time.
    pub fn reset_report(&mut self) {
        self.report = ProtocolReport {
            started_at: self.now,
            completed_at: self.now,
            ..ProtocolReport::default()
        };
        self.stats_base = self.plane.stats();
    }

    /// Folds the transport counters accrued this window into the report.
    fn sync_transport_counters(&mut self) {
        let s = self.plane.stats();
        self.report.retransmissions = s.retransmissions - self.stats_base.retransmissions;
        self.report.acks = s.acks_sent - self.stats_base.acks_sent;
        self.report.dropped = s.dropped - self.stats_base.dropped;
    }

    /// Drains the schedule operations produced since the last drain. Apply
    /// them (in order) to an external [`NetworkSchedule`] mirror — e.g. a
    /// running [`Simulator`](tsch_sim::Simulator) — to track this network's
    /// installed schedule.
    pub fn take_ops(&mut self) -> Vec<ScheduleOp> {
        std::mem::take(&mut self.pending_ops)
    }

    /// Drops the schedule operations produced since the last drain, keeping
    /// the sink's capacity — for owners that read [`HarpNetwork::schedule`]
    /// directly and mirror nothing.
    pub fn discard_ops(&mut self) {
        self.pending_ops.clear();
    }

    fn send_effects(&mut self, from: NodeId, fx: Effects) -> Result<(), HarpError> {
        for op in &fx.schedule_ops {
            if self.txn.log.is_recording() {
                // Capture the row before the op rewrites it, so a partial
                // application (unassigned but not fully reassigned when an
                // error propagates) restores cleanly too.
                let ScheduleOp::SetLinkCells { link, .. } = op;
                if !self.txn.rows.contains_key(link) {
                    self.txn
                        .rows
                        .insert(*link, self.schedule.cells_of(*link).to_vec());
                }
            }
            apply_op(&mut self.schedule, op)?;
        }
        // Sink the ops so an embedding simulator can mirror the changes.
        self.pending_ops.extend(fx.schedule_ops);
        for (to, msg) in fx.messages {
            self.account_message(from, to, &msg);
            self.plane.send(&self.tree, self.now, from, to, msg)?;
        }
        Ok(())
    }

    fn account_message(&mut self, from: NodeId, to: NodeId, msg: &HarpMessage) {
        if msg.is_management() {
            self.report.mgmt_messages += 1;
            self.obs.metrics.inc(self.obs_ids.mgmt_messages, 1);
        } else {
            self.report.cell_messages += 1;
            self.obs.metrics.inc(self.obs_ids.cell_messages, 1);
        }
        // While a correlation id is ambient (a request scope is open),
        // every message becomes an instantaneous op span so the request
        // resolves to the exact control-plane traffic it caused. Gated on
        // the correlation so batch runs record no extra spans.
        if self.obs.correlation() != harp_obs::NO_CORRELATION {
            let name = if msg.is_management() {
                "mgmt_op"
            } else {
                "cell_op"
            };
            let at = self.now.0;
            self.obs
                .span(name, "harp", to.0, self.tree.depth(to), at, at, 1);
        }
        self.report.involved_nodes.insert(from);
        self.report.involved_nodes.insert(to);
        match msg {
            HarpMessage::PutInterface { layer, .. } | HarpMessage::PutPartition { layer, .. } => {
                self.report.layers.insert(*layer);
            }
            _ => {}
        }
    }

    /// Bootstraps the static phase: every node generates what it can and the
    /// first `POST intf` wave enters the management plane. Returns the
    /// schedule operations triggered so far (the leaves' trivial cells).
    ///
    /// # Errors
    ///
    /// Propagates composition/allocation failures.
    pub fn bootstrap(&mut self) -> Result<Vec<ScheduleOp>, HarpError> {
        self.touch();
        self.bootstrap_inner()?;
        Ok(self.take_ops())
    }

    fn bootstrap_inner(&mut self) -> Result<(), HarpError> {
        self.reset_report();
        for i in 0..self.nodes.len() {
            let id = self.nodes[i].id();
            let fx = self.nodes[i].bootstrap_logged(&mut self.txn.log, &mut self.workspace)?;
            self.send_effects(id, fx)?;
        }
        self.sync_transport_counters();
        Ok(())
    }

    /// Advances the management plane to `now`, delivering due messages into
    /// the node handlers and firing retransmission timers. Returns the
    /// schedule operations triggered (plus any still undrained from earlier
    /// calls).
    ///
    /// # Errors
    ///
    /// Propagates handler failures (e.g. an infeasible adjustment reaching
    /// the gateway) and [`HarpError::Mgmt`] when a neighbour stays
    /// unreachable after the transport's retry budget.
    pub fn step(&mut self, now: Asn) -> Result<Vec<ScheduleOp>, HarpError> {
        if self.step_inner(now)? {
            self.touch();
        }
        Ok(self.take_ops())
    }

    fn step_inner(&mut self, now: Asn) -> Result<bool, HarpError> {
        debug_assert!(now >= self.now, "time must not run backwards");
        self.now = now;
        let mut delivered_any = false;
        // Deliveries can enqueue messages due at the same instant; loop
        // until this instant is drained.
        loop {
            let delivered = self.plane.poll(&self.tree, now)?;
            if delivered.is_empty() {
                break;
            }
            delivered_any = true;
            for d in delivered {
                self.report.completed_at = self.report.completed_at.max(d.at);
                let fx = self.nodes[d.to.index()].handle_logged(
                    &mut self.txn.log,
                    &mut self.workspace,
                    d.from,
                    d.payload,
                )?;
                self.send_effects(d.to, fx)?;
            }
            if self.plane.next_event().map(|a| a > now).unwrap_or(true) {
                break;
            }
        }
        self.sync_transport_counters();
        Ok(delivered_any)
    }

    /// Fast-forwards between events (deliveries and retransmission timers)
    /// until the protocol converges. Returns the accumulated report for the
    /// window.
    ///
    /// # Errors
    ///
    /// Propagates handler failures and retry exhaustion.
    pub fn run_until_quiescent(&mut self) -> Result<ProtocolReport, HarpError> {
        while let Some(at) = self.plane.next_event() {
            self.step_inner(at)?;
        }
        Ok(self.report.clone())
    }

    /// Runs the complete static phase and returns its report. The internal
    /// op sink is cleared: callers embedding a simulator clone
    /// [`HarpNetwork::schedule`] after this call and mirror only subsequent
    /// ops.
    ///
    /// On a lossless transport the converged state, the message bill and
    /// the management clock are a pure function of (tree, requirements,
    /// slotframe), so a pristine network is settled directly — one
    /// bottom-up and one top-down tree walk, no message queue. Everything
    /// observable afterwards is what
    /// [`HarpNetwork::run_static_by_messages`] leaves behind, which stays
    /// the path for lossy transports, for networks that already exchanged
    /// messages, and while a correlation scope asks for per-message op
    /// spans.
    ///
    /// # Errors
    ///
    /// Propagates composition/allocation failures.
    pub fn run_static(&mut self) -> Result<ProtocolReport, HarpError> {
        // `version` is 0 exactly until the first protocol run or topology
        // event, i.e. while no message was ever sent: every management
        // cell is idle and every node holds nothing but its requirements.
        let direct = self.plane.is_lossless()
            && self.version == 0
            && self.obs.correlation() == harp_obs::NO_CORRELATION;
        if !direct {
            return self.run_static_by_messages();
        }
        self.touch();
        self.reset_report();
        self.settle_static_directly()?;
        self.close_static_run();
        Ok(self.report.clone())
    }

    /// The static phase as the devices run it: bootstrap every node, then
    /// deliver each `POST intf`, `POST part` and cell assignment through the
    /// management plane until nothing is in flight. The only way to settle
    /// over a lossy transport, and the referee the direct settle of
    /// [`HarpNetwork::run_static`] is tested against.
    ///
    /// # Errors
    ///
    /// Propagates composition/allocation failures and retry exhaustion.
    pub fn run_static_by_messages(&mut self) -> Result<ProtocolReport, HarpError> {
        self.touch();
        self.bootstrap_inner()?;
        let report = self.run_until_quiescent()?;
        self.close_static_run();
        Ok(report)
    }

    /// What both static paths do once converged: drop the ops (the schedule
    /// is the result), count the run, record its span.
    fn close_static_run(&mut self) {
        self.discard_ops();
        self.obs.metrics.inc(self.obs_ids.static_runs, 1);
        let msgs = self.report.mgmt_messages + self.report.cell_messages;
        self.report_span("static", NO_NODE, msgs as i64);
    }

    /// Solves the static phase of a pristine network on a lossless
    /// transport without simulating its messages.
    ///
    /// Each management cell is written by exactly one handler invocation: a
    /// node's uplink cell by the one that generates its interfaces (one
    /// `POST intf`), a node's downlink cell by the one in which its parent
    /// distributes partitions (uplink cell assignment, `POST part`,
    /// downlink cell assignment, in that order, on consecutive occurrences).
    /// So a handler's instant follows from its trigger's alone — the latest
    /// `POST intf` arrival on the way up, the `POST part` arrival on the
    /// way down — and one post-order plus one pre-order walk over
    /// [`ControlPlane::occupy_cell`] reproduce every delivery time, cell
    /// occupancy and counter of the message-driven run.
    fn settle_static_directly(&mut self) -> Result<(), HarpError> {
        let slots = u64::from(self.config.slots);
        let root = self.tree.root();
        let order = self.tree.postorder();
        // When each node's handler runs: the instant it generates its
        // interfaces on the way up, overwritten by the instant its
        // partitions arrive on the way down.
        let mut at = vec![self.now; self.tree.len()];

        let mut mgmt = 0u64;
        for &v in &order {
            if self.tree.is_leaf(v) {
                continue;
            }
            self.nodes[v.index()].generate_interfaces(&mut self.txn.log, &mut self.workspace)?;
            let Some(p) = self.tree.parent(v) else {
                continue;
            };
            let arrives = self.plane.occupy_cell(&self.tree, at[v.index()], v, p, 1)?;
            at[p.index()] = at[p.index()].max(arrives);
            let (child, parent) = read_and_write(&mut self.nodes, v.index(), p.index());
            parent.store_child_interfaces(&mut self.txn.log, child);
            self.report.involved_nodes.extend([v, p]);
            mgmt += 1;
        }
        // The gateway generates last; billing before it allocates leaves an
        // overflowing demand in the state the message-driven run fails in.
        self.bill_static(mgmt, 0, at[root.index()]);
        if self.tree.is_leaf(root) {
            return Ok(());
        }
        self.nodes[root.index()].place_gateway_partitions(&mut self.txn.log)?;

        let (mut mgmt, mut cells) = (0u64, 0u64);
        let mut last = at[root.index()];
        for &p in order.iter().rev() {
            if self.tree.is_leaf(p) {
                continue;
            }
            self.nodes[p.index()].settle_partitions(&mut self.txn.log, &mut self.workspace)?;
            for &c in self.tree.children(p) {
                let (parent, child) = read_and_write(&mut self.nodes, p.index(), c.index());
                let grant =
                    child.accept_static_grant(&mut self.txn.log, parent, &mut self.schedule)?;
                debug_assert!(grant.partitions || self.tree.is_leaf(c));
                let cell_msgs = u64::from(grant.up_cells) + u64::from(grant.down_cells);
                let count = cell_msgs + u64::from(grant.partitions);
                if count == 0 {
                    continue;
                }
                let first = self
                    .plane
                    .occupy_cell(&self.tree, at[p.index()], p, c, count)?;
                // The `POST part` leaves after the uplink cell assignment.
                at[c.index()] = first.plus(u64::from(grant.up_cells) * slots);
                last = last.max(first.plus((count - 1) * slots));
                self.report.involved_nodes.extend([p, c]);
                mgmt += u64::from(grant.partitions);
                cells += cell_msgs;
            }
        }
        self.bill_static(mgmt, cells, last);
        Ok(())
    }

    /// Books messages the direct settle stands for: the report, the
    /// "harp.*" message counters, and the clock at the last delivery.
    fn bill_static(&mut self, mgmt: u64, cells: u64, last_delivery: Asn) {
        self.report.mgmt_messages += mgmt;
        self.report.cell_messages += cells;
        self.obs.metrics.inc(self.obs_ids.mgmt_messages, mgmt);
        self.obs.metrics.inc(self.obs_ids.cell_messages, cells);
        self.report.completed_at = last_delivery;
        self.now = last_delivery;
    }

    /// Injects a traffic change: the requirement of `link` becomes
    /// `new_cells`. The change is processed by the link's parent node and
    /// may trigger a multi-hop adjustment. Counting continues in the current
    /// report window — call [`HarpNetwork::reset_report`] first (or use
    /// [`HarpNetwork::adjust_and_settle`]) to measure one event.
    ///
    /// # Errors
    ///
    /// Propagates handler failures, including [`HarpError::SlotframeOverflow`]
    /// for infeasible increases.
    pub fn request_change(
        &mut self,
        at: Asn,
        link: Link,
        new_cells: u32,
    ) -> Result<Vec<ScheduleOp>, HarpError> {
        self.touch();
        self.request_change_inner(at, link, new_cells)?;
        if self.obs.is_enabled() {
            // The request plus its synchronous handler cascade; messages it
            // triggered may still be in flight. Storm analysis folds these
            // together with settled `adjust` spans.
            let depth = self.tree.depth(link.child);
            self.obs.span(
                "change",
                "harp",
                link.child.0,
                depth,
                at.0,
                self.now.0.max(at.0),
                i64::from(new_cells),
            );
        }
        Ok(self.take_ops())
    }

    fn request_change_inner(
        &mut self,
        at: Asn,
        link: Link,
        new_cells: u32,
    ) -> Result<(), HarpError> {
        let parent = self
            .tree
            .parent(link.child)
            .ok_or(HarpError::MissingPartition {
                node: link.child,
                layer: 0,
            })?;
        self.now = self.now.max(at);
        self.report.involved_nodes.insert(parent);
        let fx = self.nodes[parent.index()].request_change_logged(
            &mut self.txn.log,
            &mut self.workspace,
            link.direction,
            link.child,
            new_cells,
        )?;
        self.send_effects(parent, fx)?;
        self.sync_transport_counters();
        Ok(())
    }

    /// Convenience: inject a change and drain the network, returning the
    /// adjustment report (the Table II row for this event).
    ///
    /// The operation is transactional: if the change turns out to be
    /// infeasible (e.g. [`HarpError::SlotframeOverflow`] at the gateway) or
    /// a hop stays dead past the transport's retry budget, every node's
    /// state, the schedule, the op sink and the management plane — pending
    /// deliveries *and* retransmission timers — are rolled back to their
    /// pre-request condition: the rejection a real deployment would deliver
    /// as a NACK. The cost of the transaction tracks what the run wrote —
    /// the escalation depth — not the network size (see `Transaction`).
    ///
    /// # Errors
    ///
    /// Propagates handler failures; on error the network is unchanged.
    pub fn adjust_and_settle(
        &mut self,
        at: Asn,
        link: Link,
        new_cells: u32,
    ) -> Result<ProtocolReport, HarpError> {
        let event = Event(self.obs_ids.adjustments, "adjust", link.child);
        self.transact(at, event, |net| {
            net.request_change_inner(at, link, new_cells)
        })
    }

    /// The one bracket around a protocol event — an adjustment, a join, a
    /// leave or a parent switch: advances the clock to `at`, opens a report
    /// window and a [`Transaction`], runs `body` and settles the network.
    /// On success it counts the event and records its span; on failure it
    /// rolls back everything the event wrote — node state, schedule rows,
    /// op sink, in-flight messages, the tree and any joined node — and
    /// counts the rollback.
    fn transact(
        &mut self,
        at: Asn,
        event: Event,
        body: impl FnOnce(&mut Self) -> Result<(), HarpError>,
    ) -> Result<ProtocolReport, HarpError> {
        self.now = self.now.max(at);
        self.reset_report();
        self.touch();
        debug_assert!(!self.txn.log.is_recording(), "protocol events do not nest");
        self.txn = Transaction {
            log: UndoLog::recording(),
            rows: BTreeMap::new(),
            schedule_version: self.schedule.version(),
            ops_mark: self.pending_ops.len(),
            tree: None,
            node_count: self.nodes.len(),
        };
        let result = body(self).and_then(|()| self.run_until_quiescent());
        let txn = std::mem::take(&mut self.txn);
        match &result {
            Ok(report) => {
                let Event(counter, span, node) = event;
                self.obs.metrics.inc(counter, 1);
                let msgs = report.mgmt_messages + report.cell_messages;
                self.report_span(span, node.0, msgs as i64);
            }
            Err(_) => {
                txn.log.rollback(&mut self.nodes);
                self.schedule.restore_rows(
                    txn.rows.iter().map(|(&l, c)| (l, c.as_slice())),
                    txn.schedule_version,
                );
                self.pending_ops.truncate(txn.ops_mark);
                self.plane.cancel_in_flight();
                if let Some(tree) = txn.tree {
                    self.tree = tree;
                }
                self.nodes.truncate(txn.node_count);
                self.obs
                    .metrics
                    .inc(self.obs_ids.adjustments_rolled_back, 1);
            }
        }
        debug_assert_eq!(self.nodes.len(), self.tree.len(), "one node per device");
        result
    }

    /// Puts `tree` in place for the event in progress; the transaction
    /// keeps the tree it replaces until the event commits.
    fn swap_tree(&mut self, tree: Tree) {
        debug_assert!(self.txn.tree.is_none(), "one topology edit per event");
        self.txn.tree = Some(std::mem::replace(&mut self.tree, tree));
    }

    /// Sets the (up, down) demand of `leaf`'s links at its parent, leaving
    /// a direction whose demand does not change alone.
    fn set_leaf_demand(&mut self, leaf: NodeId, demand: [u32; 2]) -> Result<(), HarpError> {
        let parent = self.tree.parent(leaf).expect("a leaf is not the gateway");
        for (link, cells) in [Link::up(leaf), Link::down(leaf)].into_iter().zip(demand) {
            if self.nodes[parent.index()].requirement(link.direction, leaf) != cells {
                self.request_change_inner(self.now, link, cells)?;
            }
        }
        Ok(())
    }

    /// Global refresh (a maintenance-window defragmentation): re-runs the
    /// whole static phase from the nodes' *current* demands, replacing the
    /// incrementally adjusted layout with a fresh compliant one. Returns
    /// the protocol report of the refresh plus how many links' cells moved.
    ///
    /// Dynamic adjustments trade latency compliance for low reconfiguration
    /// cost; a refresh pays the full static-phase message bill once to
    /// restore the compliant ordering (and with it the one-slotframe
    /// latency bound).
    ///
    /// # Errors
    ///
    /// Propagates static-phase failures (the current demand set is known to
    /// fit, so only slotframe overflow after extreme growth can fail).
    pub fn refresh(&mut self) -> Result<(ProtocolReport, usize), HarpError> {
        // Snapshot current demands from the per-node state machines.
        let mut requirements = Requirements::new();
        for v in self.tree.nodes() {
            for &c in self.tree.children(v) {
                for link in [Link::up(c), Link::down(c)] {
                    let cells = self.nodes[v.index()].requirement(link.direction, c);
                    requirements.set(link, cells);
                }
            }
        }

        self.touch();
        // Rebuild the control plane in place; the clock keeps running and
        // the transport (with its seeded random stream) carries over.
        self.nodes = build_nodes(&self.tree, self.config, self.policy, &requirements);
        self.plane.reset(&self.tree, self.config);
        // The old layout, kept for the release ops and the moved-link count.
        let old = std::mem::replace(&mut self.schedule, NetworkSchedule::new(self.config));
        // An external mirror still holds the pre-refresh layout: release
        // every previously scheduled link first, so replaying the sink never
        // double-assigns a cell the fresh bootstrap reuses.
        self.pending_ops
            .extend(old.iter_links().map(|(link, _)| ScheduleOp::SetLinkCells {
                link,
                cells: Vec::new(),
            }));
        self.bootstrap_inner()?;
        let report = self.run_until_quiescent()?;

        let moved = Direction::BOTH
            .into_iter()
            .flat_map(|d| self.tree.links(d))
            .filter(|&link| self.schedule.cells_of(link) != old.cells_of(link))
            .count();
        self.obs.metrics.inc(self.obs_ids.refreshes, 1);
        self.report_span("refresh", NO_NODE, moved as i64);
        Ok((report, moved))
    }

    // ---- topology dynamics (§V and the paper's motivation: interference
    // makes nodes switch to more reliable parents). Each event is a
    // transaction like an adjustment: a rejected one leaves the network as
    // it found it, tree and node count included ----

    /// A leaf node joins the network under `parent`, demanding
    /// `up_cells`/`down_cells` on its new links. Returns the new node's id
    /// and the protocol report for absorbing it.
    ///
    /// # Errors
    ///
    /// Propagates topology errors (unknown parent) and handler failures
    /// (infeasible demand); on error the network is unchanged.
    pub fn join_leaf(
        &mut self,
        at: Asn,
        parent: NodeId,
        up_cells: u32,
        down_cells: u32,
    ) -> Result<(NodeId, ProtocolReport), HarpError> {
        if !self.is_active(parent) {
            return Err(HarpError::NodeDeparted(parent));
        }
        let (tree, id) =
            self.tree
                .with_new_leaf(parent)
                .map_err(|_| HarpError::MissingPartition {
                    node: parent,
                    layer: 0,
                })?;
        let event = Event(self.obs_ids.joins, "join", id);
        let report = self.transact(at, event, |net| {
            net.swap_tree(tree);
            net.nodes
                .push(HarpNode::new(&net.tree, id, net.config, net.policy));
            let log = &mut net.txn.log;
            net.nodes[parent.index()].adopt_child(log, id);
            // If the parent just stopped being a leaf, its own parent must
            // start forwarding partition updates to it.
            if let Some(grandparent) = net.tree.parent(parent) {
                net.nodes[grandparent.index()].promote_child(log, parent);
            }
            net.set_leaf_demand(id, [up_cells, down_cells])
        })?;
        Ok((id, report))
    }

    /// A leaf node leaves the network: its parent releases the cells
    /// locally (§V — departures never need partition adjustment). The node
    /// keeps its id; its links simply carry no cells.
    ///
    /// # Errors
    ///
    /// Propagates handler failures; on error the network is unchanged.
    pub fn leave_leaf(&mut self, at: Asn, leaf: NodeId) -> Result<ProtocolReport, HarpError> {
        assert!(
            self.tree.is_leaf(leaf) && leaf != self.tree.root(),
            "only non-gateway leaves can leave"
        );
        if !self.is_active(leaf) {
            return Err(HarpError::NodeDeparted(leaf));
        }
        let parent = self.tree.parent(leaf).expect("non-gateway leaf");
        let event = Event(self.obs_ids.leaves, "leave", leaf);
        let report = self.transact(at, event, |net| {
            net.set_leaf_demand(leaf, [0, 0])?;
            net.run_until_quiescent()?;
            net.nodes[parent.index()].orphan_child(&mut net.txn.log, leaf);
            Ok(())
        })?;
        self.departed.insert(leaf);
        Ok(report)
    }

    /// A leaf switches to a more reliable parent (the interference-driven
    /// topology change of the paper's introduction): the old parent
    /// releases its cells locally, the new parent allocates fresh ones.
    ///
    /// # Errors
    ///
    /// Propagates topology errors (illegal move) and handler failures; on
    /// error the network is unchanged.
    pub fn reparent_leaf(
        &mut self,
        at: Asn,
        leaf: NodeId,
        new_parent: NodeId,
    ) -> Result<ProtocolReport, HarpError> {
        assert!(
            self.tree.is_leaf(leaf) && leaf != self.tree.root(),
            "only non-gateway leaves can switch parents"
        );
        if !self.is_active(leaf) {
            return Err(HarpError::NodeDeparted(leaf));
        }
        if !self.is_active(new_parent) {
            return Err(HarpError::NodeDeparted(new_parent));
        }
        let tree = self.tree.with_reparented(leaf, new_parent).map_err(|_| {
            HarpError::MissingPartition {
                node: new_parent,
                layer: 0,
            }
        })?;
        let old_parent = self.tree.parent(leaf).expect("non-gateway leaf");
        let demand = Direction::BOTH.map(|d| self.nodes[old_parent.index()].requirement(d, leaf));
        let event = Event(self.obs_ids.reparents, "reparent", leaf);
        self.transact(at, event, |net| {
            // Release at the old parent first (messages still travel the old
            // tree edge), and drain before rewiring.
            net.set_leaf_demand(leaf, [0, 0])?;
            net.run_until_quiescent()?;
            net.swap_tree(tree);
            let log = &mut net.txn.log;
            net.nodes[old_parent.index()].orphan_child(log, leaf);
            net.nodes[new_parent.index()].adopt_child(log, leaf);
            if let Some(grandparent) = net.tree.parent(new_parent) {
                net.nodes[grandparent.index()].promote_child(log, new_parent);
            }
            let layer = net.tree.link_layer(leaf);
            net.nodes[leaf.index()].set_parent(log, new_parent, layer);
            // Re-demand at the new parent.
            net.set_leaf_demand(leaf, demand)
        })
    }
}

/// One node per device, with each link's requirement installed at its
/// parent.
fn build_nodes(
    tree: &Tree,
    config: SlotframeConfig,
    policy: SchedulingPolicy,
    requirements: &Requirements,
) -> Vec<HarpNode> {
    let mut nodes: Vec<HarpNode> = tree
        .nodes()
        .map(|v| HarpNode::new(tree, v, config, policy))
        .collect();
    for (link, cells) in requirements.iter() {
        if let Some(parent) = tree.parent(link.child) {
            nodes[parent.index()].set_requirement(link.direction, link.child, cells);
        }
    }
    nodes
}

/// `(&nodes[read], &mut nodes[write])` for two distinct nodes.
fn read_and_write(nodes: &mut [HarpNode], read: usize, write: usize) -> (&HarpNode, &mut HarpNode) {
    if read < write {
        let (lo, hi) = nodes.split_at_mut(write);
        (&lo[read], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(read);
        (&hi[0], &mut lo[write])
    }
}

/// Applies one schedule operation to a network schedule.
///
/// # Errors
///
/// Propagates duplicate-assignment errors from the schedule.
pub fn apply_op(schedule: &mut NetworkSchedule, op: &ScheduleOp) -> Result<(), HarpError> {
    match op {
        ScheduleOp::SetLinkCells { link, cells } => {
            schedule.unassign_link(*link);
            for &c in cells {
                schedule.assign(c, *link)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::GlobalInterference;

    fn fig1_reqs(tree: &Tree) -> Requirements {
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), tree.subtree_size(v));
            reqs.set(Link::down(v), tree.subtree_size(v));
        }
        reqs
    }

    fn network() -> (Tree, Requirements, HarpNetwork) {
        let tree = Tree::paper_fig1_example();
        let reqs = fig1_reqs(&tree);
        let net = HarpNetwork::new(
            tree.clone(),
            SlotframeConfig::paper_default(),
            &reqs,
            SchedulingPolicy::RateMonotonic,
        );
        (tree, reqs, net)
    }

    #[test]
    fn static_phase_converges_with_timing() {
        let (tree, reqs, mut net) = network();
        let report = net.run_static().unwrap();
        assert!(net.quiescent());
        assert!(report.mgmt_messages >= 10, "5 intf + 5 part at least");
        assert!(report.elapsed_slots() > 0, "messages take time");
        // Static phase spans a bounded number of slotframes: interface wave
        // up (≤ depth hops) + partitions down + cell assignments.
        assert!(report.slotframes(SlotframeConfig::paper_default()) <= 12);
        let schedule = net.schedule();
        assert!(schedule.is_exclusive());
        assert!(crate::unsatisfied_links(&tree, &reqs, schedule).is_empty());
    }

    #[test]
    fn static_schedule_collision_free_under_global_model() {
        let (tree, _, mut net) = network();
        net.run_static().unwrap();
        let report = net.schedule().collision_report(&tree, &GlobalInterference);
        assert_eq!(report.colliding_assignments, 0);
    }

    #[test]
    fn local_adjustment_is_fast_and_cheap() {
        let (_, _, mut net) = network();
        net.run_static().unwrap();
        let t0 = net.now();
        // Decrease: handled locally, only cell messages.
        let report = net.adjust_and_settle(t0, Link::up(NodeId(9)), 0).unwrap();
        assert_eq!(report.mgmt_messages, 0);
        assert!(report.cell_messages >= 1);
        assert!(report.slotframes(SlotframeConfig::paper_default()) <= 1);
    }

    #[test]
    fn one_hop_adjustment_counts_messages_and_time() {
        let (_, _, mut net) = network();
        net.run_static().unwrap();
        let t0 = net.now();
        let report = net.adjust_and_settle(t0, Link::up(NodeId(9)), 2).unwrap();
        assert!(report.mgmt_messages >= 2, "PUT intf + PUT part at minimum");
        assert!(!report.layers.is_empty());
        assert!(report.elapsed_slots() > 0);
        let schedule = net.schedule();
        assert!(schedule.is_exclusive());
        assert_eq!(schedule.cells_of(Link::up(NodeId(9))).len(), 2);
    }

    #[test]
    fn deeper_events_cost_more_messages_than_local_ones() {
        let (_, _, mut net) = network();
        net.run_static().unwrap();
        let t0 = net.now();
        let small = net.adjust_and_settle(t0, Link::up(NodeId(9)), 2).unwrap();
        let t1 = net.now();
        // A much larger increase must also resolve; exact message counts
        // depend on where idle space sits after the first adjustment, so
        // assert the structural facts only.
        let big = net.adjust_and_settle(t1, Link::up(NodeId(10)), 12).unwrap();
        assert!(small.mgmt_messages >= 2, "escalation needs intf + part");
        assert!(big.mgmt_messages >= 2);
        assert_eq!(net.schedule().cells_of(Link::up(NodeId(10))).len(), 12);
        assert!(net.schedule().is_exclusive());
    }

    #[test]
    fn schedule_ops_mirror_into_external_schedule() {
        let (_, _, mut net) = network();
        let mut external = NetworkSchedule::new(SlotframeConfig::paper_default());
        let mut ops = net.bootstrap().unwrap();
        while !net.quiescent() {
            let at = net.now().plus(1);
            ops.extend(net.step(at).unwrap());
        }
        for op in &ops {
            apply_op(&mut external, op).unwrap();
        }
        // The external mirror equals the internal schedule.
        let a: Vec<_> = external
            .iter_links()
            .map(|(l, c)| (l, c.to_vec()))
            .collect();
        let b: Vec<_> = net
            .schedule()
            .iter_links()
            .map(|(l, c)| (l, c.to_vec()))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn report_resets_between_windows() {
        let (_, _, mut net) = network();
        let static_report = net.run_static().unwrap();
        assert!(static_report.mgmt_messages > 0);
        let t0 = net.now();
        let adj = net.adjust_and_settle(t0, Link::up(NodeId(9)), 2).unwrap();
        assert!(adj.mgmt_messages < static_report.mgmt_messages);
        assert!(adj.started_at >= static_report.completed_at);
    }

    #[test]
    fn infeasible_request_errors_cleanly() {
        let (_, _, mut net) = network();
        net.run_static().unwrap();
        let t0 = net.now();
        let result = net.adjust_and_settle(t0, Link::up(NodeId(9)), 500);
        assert!(matches!(result, Err(HarpError::SlotframeOverflow { .. })));
    }

    #[test]
    fn observability_counts_protocol_events() {
        let (_, _, mut net) = network();
        net.enable_observability(256);
        let static_report = net.run_static().unwrap();
        let t0 = net.now();
        let adj_report = net.adjust_and_settle(t0, Link::up(NodeId(9)), 2).unwrap();

        let snap = net.metrics_snapshot();
        assert_eq!(snap.counter("harp.static_runs"), Some(1));
        assert_eq!(snap.counter("harp.adjustments"), Some(1));
        assert_eq!(snap.counter("harp.adjustments_rolled_back"), Some(0));
        // Message counters mirror the protocol reports exactly — both are
        // incremented inside account_message.
        assert_eq!(
            snap.counter("harp.mgmt_messages"),
            Some(static_report.mgmt_messages + adj_report.mgmt_messages)
        );
        assert_eq!(
            snap.counter("harp.cell_messages"),
            Some(static_report.cell_messages + adj_report.cell_messages)
        );
        // Transport counters flow in through the merged control-plane
        // snapshot; the reliability sublayer saw every management message.
        assert!(snap.counter("transport.attempts").unwrap_or(0) > 0);
        // Per-node aggregates: the static wave absorbs or escalates at
        // every non-gateway node, and the adjustment moved partitions.
        assert!(snap.counter("harp.node.escalations").unwrap_or(0) > 0);
        assert!(snap.counter("harp.node.adjust_feasible").unwrap_or(0) > 0);

        // Spans: one "static" network-wide span, one "adjust" span naming
        // the adjusted child, both on the harp layer.
        let spans = &net.obs().spans;
        let stat: Vec<_> = spans.named("static").collect();
        assert_eq!(stat.len(), 1);
        assert_eq!(stat[0].layer, "harp");
        assert_eq!(stat[0].node, harp_obs::NO_NODE);
        let adj: Vec<_> = spans.named("adjust").collect();
        assert_eq!(adj.len(), 1);
        assert_eq!(adj[0].node, 9);
        assert_eq!(adj[0].start_asn, adj_report.started_at.0);
        assert_eq!(adj[0].end_asn, adj_report.completed_at.0);
    }

    #[test]
    fn failed_adjustment_rolls_node_counters_back() {
        let (_, _, mut net) = network();
        net.enable_observability(256);
        net.run_static().unwrap();
        let before = net.metrics_snapshot();
        let t0 = net.now();
        let result = net.adjust_and_settle(t0, Link::up(NodeId(9)), 500);
        assert!(matches!(result, Err(HarpError::SlotframeOverflow { .. })));
        let after = net.metrics_snapshot();

        assert_eq!(after.counter("harp.adjustments_rolled_back"), Some(1));
        assert_eq!(
            after.counter("harp.adjustments"),
            Some(0),
            "nothing settled"
        );
        // Node counters live on the nodes themselves and were restored by
        // the rollback: the aborted attempt leaves no trace in them.
        for key in [
            "harp.node.local_updates",
            "harp.node.escalations",
            "harp.node.adjust_feasible",
            "harp.node.adjust_infeasible",
            "harp.node.partitions_moved",
        ] {
            assert_eq!(after.counter(key), before.counter(key), "{key}");
        }
    }

    #[test]
    fn disabled_observability_is_free_and_invisible() {
        let (_, _, mut on) = network();
        let (_, _, mut off) = network();
        on.enable_observability(64);
        let report_on = on.run_static().unwrap();
        let report_off = off.run_static().unwrap();
        // Recording never touches protocol state: identical reports and
        // schedules either way.
        assert_eq!(report_on, report_off);
        assert!(off.metrics_snapshot().is_empty());
        assert!(off.obs().spans.is_empty());
        let a: Vec<_> = on.schedule().iter_links().collect();
        let b: Vec<_> = off.schedule().iter_links().collect();
        assert_eq!(a, b);
    }
}
