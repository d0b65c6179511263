//! Declarative fault injection for the slot engine.
//!
//! A [`FaultPlan`] is a list of `(Asn, FaultAction)` pairs compiled onto the
//! simulator's [`EventCalendar`](crate::EventCalendar) at build time
//! ([`SimulatorBuilder::fault_plan`](crate::SimulatorBuilder::fault_plan)).
//! Each action fires at the *exact* ASN it names — the engine drains the
//! fault calendar at the top of every slot with a single heap peek, so an
//! empty or quiescent plan costs one branch per slot and the event-driven
//! `idle_wakeups == 0` invariant is untouched (faults mutate link quality
//! and queue occupancy only through the same `note_queue_*` bookkeeping the
//! traffic paths use).
//!
//! The six scenario-level fault kinds (node crash/restart, gateway
//! failover, link-PDR degradation windows, subtree partition, traffic
//! bursts, reparenting churn) all lower onto this action set; the
//! control-plane kinds (gateway failover with re-bootstrap, reparenting)
//! additionally drive `HarpNetwork` operations from the scenario runner —
//! see the scenario part of `DESIGN.md`'s "Reports and benchmarks" section.
//!
//! # Semantics
//!
//! * **Node down** ([`FaultAction::NodeDown`]): every link adjacent to the
//!   node (its own up/down links and each child's up/down link) gets an
//!   effective PDR of 0 — frames to or from a dead radio are lost, retried,
//!   and eventually dropped by the retry limit, exactly as over a
//!   0-PDR link. Packets the node itself had queued to send are dropped
//!   immediately (a crash loses RAM), and tasks sourced at the node stop
//!   releasing packets while it is down.
//! * **Node up** ([`FaultAction::NodeUp`]): restores the adjacent links'
//!   configured PDR and resumes the node's tasks. Queues lost in the crash
//!   stay lost.
//! * **Link mask** ([`FaultAction::LinkMask`]): forces one directed link's
//!   effective PDR to 0 without touching its configured quality — the
//!   primitive under partition windows (mask every link crossing the cut).
//! * **Link PDR** ([`FaultAction::LinkPdr`]): rewrites the link's
//!   configured PDR (degradation windows restore the build-time value with
//!   a second action).
//! * **Task burst** ([`FaultAction::TaskBurst`]): releases extra packets
//!   for a task immediately, off the slotframe-boundary cadence, through
//!   the normal enqueue path (capacity drops and queue-pressure accounting
//!   included).
//! * **Task rate** ([`FaultAction::TaskRate`]): rewrites a task's release
//!   rate (traffic ramps), effective from the next slotframe boundary.
//!
//! Actions scheduled for the same ASN fire in plan order. All mutations are
//! deterministic: a plan never draws from the simulator's RNG, so the same
//! scenario + seed replays byte-identically (pinned by the
//! `fault_injection` test suite and the scenario replay tests).

use crate::packet::{Rate, TaskId};
use crate::time::Asn;
use crate::topology::{Link, NodeId};
use harp_obs::SpanKind;

/// One primitive fault mutation, applied at an exact ASN.
///
/// See the module docs for the semantics of each variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Crash a node: adjacent links go to effective PDR 0, its queued
    /// outbound packets are dropped, its tasks pause.
    NodeDown(NodeId),
    /// Restart a crashed node: adjacent links and tasks recover.
    NodeUp(NodeId),
    /// Force (`true`) or release (`false`) a directed link's effective PDR
    /// to 0, independent of its configured quality.
    LinkMask(Link, bool),
    /// Rewrite a directed link's configured PDR (must lie in `[0, 1]`).
    LinkPdr(Link, f64),
    /// Release `n` extra packets for the task immediately.
    TaskBurst(TaskId, u32),
    /// Rewrite the task's release rate from the next slotframe boundary.
    TaskRate(TaskId, Rate),
}

/// The span kind of a fault firing: the `"fault"` lane, named by the
/// action's kind.
const fn fault(name: &'static str) -> SpanKind {
    SpanKind {
        layer: "fault",
        name,
    }
}

impl FaultAction {
    /// Stable tag naming the action's kind — the label fault firings carry
    /// in trace spans and flight-recorder events.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.span_kind().name
    }

    /// The kind of the span a firing of this action records: layer
    /// `"fault"`, named by [`FaultAction::kind`].
    #[must_use]
    pub fn span_kind(&self) -> &'static SpanKind {
        const NODE_DOWN: &SpanKind = &fault("node_down");
        const NODE_UP: &SpanKind = &fault("node_up");
        const LINK_MASK: &SpanKind = &fault("link_mask");
        const LINK_UNMASK: &SpanKind = &fault("link_unmask");
        const LINK_PDR: &SpanKind = &fault("link_pdr");
        const TASK_BURST: &SpanKind = &fault("task_burst");
        const TASK_RATE: &SpanKind = &fault("task_rate");
        match self {
            Self::NodeDown(_) => NODE_DOWN,
            Self::NodeUp(_) => NODE_UP,
            Self::LinkMask(_, true) => LINK_MASK,
            Self::LinkMask(_, false) => LINK_UNMASK,
            Self::LinkPdr(..) => LINK_PDR,
            Self::TaskBurst(..) => TASK_BURST,
            Self::TaskRate(..) => TASK_RATE,
        }
    }

    /// The node the action concerns (the child endpoint for link actions),
    /// or `None` for task actions.
    #[must_use]
    pub fn node(&self) -> Option<NodeId> {
        match self {
            Self::NodeDown(n) | Self::NodeUp(n) => Some(*n),
            Self::LinkMask(link, _) | Self::LinkPdr(link, _) => Some(link.child),
            Self::TaskBurst(..) | Self::TaskRate(..) => None,
        }
    }
}

/// A deterministic schedule of [`FaultAction`]s, loaded onto the
/// simulator's event calendar at build time.
///
/// # Examples
///
/// ```
/// use tsch_sim::{Asn, FaultAction, FaultPlan, Link, NodeId};
///
/// let plan = FaultPlan::new()
///     .crash(NodeId(3), Asn(100), Some(Asn(300)))
///     .pdr_window(Link::up(NodeId(5)), Asn(50), Asn(250), 0.4, 1.0)
///     .at(Asn(400), FaultAction::LinkMask(Link::up(NodeId(7)), true));
/// assert_eq!(plan.len(), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<(Asn, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one action at an exact ASN (builder style). Actions sharing an
    /// ASN fire in insertion order.
    #[must_use]
    pub fn at(mut self, at: Asn, action: FaultAction) -> Self {
        self.push(at, action);
        self
    }

    /// Adds one action at an exact ASN.
    pub fn push(&mut self, at: Asn, action: FaultAction) {
        self.events.push((at, action));
    }

    /// Crash `node` at `down_at`, optionally restarting it at `up_at`.
    #[must_use]
    pub fn crash(mut self, node: NodeId, down_at: Asn, up_at: Option<Asn>) -> Self {
        self.push(down_at, FaultAction::NodeDown(node));
        if let Some(up) = up_at {
            self.push(up, FaultAction::NodeUp(node));
        }
        self
    }

    /// Degrade `link` to `degraded` PDR over `[from, until)`, restoring
    /// `restore` (normally the link's configured quality) at `until`.
    #[must_use]
    pub fn pdr_window(
        mut self,
        link: Link,
        from: Asn,
        until: Asn,
        degraded: f64,
        restore: f64,
    ) -> Self {
        self.push(from, FaultAction::LinkPdr(link, degraded));
        self.push(until, FaultAction::LinkPdr(link, restore));
        self
    }

    /// Mask `link` (effective PDR 0) over `[from, until)` — the partition
    /// primitive; mask every link crossing the cut for a subtree partition.
    #[must_use]
    pub fn mask_window(mut self, link: Link, from: Asn, until: Asn) -> Self {
        self.push(from, FaultAction::LinkMask(link, true));
        self.push(until, FaultAction::LinkMask(link, false));
        self
    }

    /// The scheduled events, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[(Asn, FaultAction)] {
        &self.events
    }

    /// Number of scheduled actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}
