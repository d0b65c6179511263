//! The allocator as a long-lived, incrementally driven handle.
//!
//! The experiment binaries build a [`HarpNetwork`], run the static phase,
//! maybe measure one adjustment, and throw the network away. A service
//! (the `harpd` crate of this workspace) instead keeps one allocator per
//! tenant alive for hours and drives it request by request; this module
//! packages that usage as [`AllocatorHandle`]: converge once, then any
//! number of [`AllocatorHandle::adjust`] calls, each returning the
//! [`ProtocolReport`] of the change (its messages, nodes, layers and
//! time), with a schedule summary ([`ScheduleSummary`]) cheap enough to
//! serve on every query.

use crate::error::HarpError;
use crate::requirement::Requirements;
use crate::runner::{HarpNetwork, ProtocolReport};
use crate::schedule_gen::SchedulingPolicy;
use harp_obs::MetricsSnapshot;
use tsch_sim::{Link, NodeId, SlotframeConfig, Tree};

/// A point-in-time view of the converged schedule, cheap to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleSummary {
    /// Nodes in the routing tree (gateway included).
    pub nodes: usize,
    /// Links holding at least one cell.
    pub scheduled_links: usize,
    /// Total (cell, link) assignments.
    pub assignments: usize,
    /// Distinct cells in use.
    pub active_cells: usize,
    /// Slots per slotframe.
    pub slots: u32,
    /// Channel offsets available.
    pub channels: u16,
    /// Collision freedom: no cell carries two links.
    pub exclusive: bool,
    /// The allocator clock (ASN) after the last protocol run.
    pub asn: u64,
}

/// One tenant's allocator: a converged [`HarpNetwork`] plus the running
/// totals a service reports about it.
///
/// # Examples
///
/// ```
/// use harp_core::{AllocatorHandle, Requirements, SchedulingPolicy};
/// use tsch_sim::{Link, NodeId, SlotframeConfig, Tree};
///
/// # fn main() -> Result<(), harp_core::HarpError> {
/// let tree = Tree::paper_fig1_example();
/// let mut reqs = Requirements::new();
/// for v in tree.nodes().skip(1) {
///     reqs.set(Link::up(v), 1);
/// }
/// let mut handle = AllocatorHandle::converge(
///     tree,
///     SlotframeConfig::paper_default(),
///     &reqs,
///     SchedulingPolicy::RateMonotonic,
/// )?;
/// let report = handle.adjust(Link::up(NodeId(9)), 3)?;
/// assert!(report.mgmt_messages >= 2);
/// assert!(handle.summary().exclusive);
/// assert_eq!(handle.adjustments(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AllocatorHandle {
    net: HarpNetwork,
    static_report: ProtocolReport,
    adjustments: u64,
    mgmt_messages_total: u64,
    cell_messages_total: u64,
}

impl AllocatorHandle {
    /// Builds the deployment and runs the static phase to convergence.
    ///
    /// # Errors
    ///
    /// The static phase's [`HarpError`] when the demand does not fit the
    /// slotframe.
    pub fn converge(
        tree: Tree,
        config: SlotframeConfig,
        requirements: &Requirements,
        policy: SchedulingPolicy,
    ) -> Result<Self, HarpError> {
        Self::converge_observed(tree, config, requirements, policy, 0)
    }

    /// Like [`AllocatorHandle::converge`], keeping up to `span_capacity`
    /// spans of the network and as many of its control plane's from
    /// before the static phase on, so the spans cover it.
    ///
    /// # Errors
    ///
    /// See [`AllocatorHandle::converge`].
    pub fn converge_observed(
        tree: Tree,
        config: SlotframeConfig,
        requirements: &Requirements,
        policy: SchedulingPolicy,
        span_capacity: usize,
    ) -> Result<Self, HarpError> {
        let mut net = HarpNetwork::new(tree, config, requirements, policy);
        net.enable_observability(span_capacity);
        let static_report = net.run_static()?;
        Ok(Self {
            net,
            static_report,
            adjustments: 0,
            mgmt_messages_total: static_report.mgmt_messages,
            cell_messages_total: static_report.cell_messages,
        })
    }

    /// Raises (or lowers) one link's cell requirement and settles the
    /// protocol, returning the report of the change: what it cost in
    /// messages, nodes, layers and time.
    ///
    /// # Errors
    ///
    /// The adjustment's [`HarpError`] when it is infeasible; the previous
    /// schedule stays installed (the protocol rolls back).
    pub fn adjust(&mut self, link: Link, cells: u32) -> Result<ProtocolReport, HarpError> {
        let now = self.net.now();
        let report = self.net.adjust_and_settle(now, link, cells)?;
        self.adjustments += 1;
        self.mgmt_messages_total += report.mgmt_messages;
        self.cell_messages_total += report.cell_messages;
        Ok(report)
    }

    /// Like [`AllocatorHandle::adjust`], with `corr` stamped as the
    /// ambient correlation id for the duration of the adjustment: the
    /// allocator's "adjust" span and every management/cell op span it
    /// records carry the id, so a service can resolve the request that
    /// returned `corr` to the exact protocol work it caused. The ambient
    /// id is cleared before returning, success or failure.
    ///
    /// # Errors
    ///
    /// See [`AllocatorHandle::adjust`].
    pub fn adjust_correlated(
        &mut self,
        link: Link,
        cells: u32,
        corr: u64,
    ) -> Result<ProtocolReport, HarpError> {
        self.net.set_correlation(corr);
        let result = self.adjust(link, cells);
        self.net.set_correlation(harp_obs::NO_CORRELATION);
        result
    }

    /// The current schedule, summarised.
    #[must_use]
    pub fn summary(&self) -> ScheduleSummary {
        let schedule = self.net.schedule();
        let config = self.net.config();
        ScheduleSummary {
            nodes: self.net.tree().len(),
            scheduled_links: schedule.iter_links().count(),
            assignments: schedule.assignment_count(),
            active_cells: schedule.active_cells(),
            slots: config.slots,
            channels: config.channels,
            exclusive: schedule.is_exclusive(),
            asn: self.net.now().0,
        }
    }

    /// An opaque version stamp that advances on every mutation of the
    /// underlying network, including the clock advance of a rejected
    /// adjustment (see [`HarpNetwork::version`]). A rendered
    /// [`summary`](Self::summary) cached against this value stays valid
    /// exactly until the next mutation, which is how a service splits its
    /// read path from in-flight adjustments.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.net.version()
    }

    /// The static phase's protocol report.
    #[must_use]
    pub fn static_report(&self) -> &ProtocolReport {
        &self.static_report
    }

    /// Adjustments served since convergence.
    #[must_use]
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Management messages across the static phase and every adjustment.
    #[must_use]
    pub fn mgmt_messages_total(&self) -> u64 {
        self.mgmt_messages_total
    }

    /// Cell-assignment messages across the static phase and every
    /// adjustment.
    #[must_use]
    pub fn cell_messages_total(&self) -> u64 {
        self.cell_messages_total
    }

    /// Whether `node` names a non-root node of this allocator's tree — the
    /// precondition for adjusting its uplink or downlink.
    #[must_use]
    pub fn is_adjustable_node(&self, node: NodeId) -> bool {
        node.index() < self.net.tree().len() && node != self.net.tree().root()
    }

    /// The underlying network (schedule queries, rendering, tests).
    #[must_use]
    pub fn network(&self) -> &HarpNetwork {
        &self.net
    }

    /// Metrics of the underlying deployment: its "harp.*", "harp.node.*"
    /// and "transport.*" counts since the network was built.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.net.metrics_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_handle() -> AllocatorHandle {
        let tree = Tree::paper_fig1_example();
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), 1);
        }
        AllocatorHandle::converge(
            tree,
            SlotframeConfig::paper_default(),
            &reqs,
            SchedulingPolicy::RateMonotonic,
        )
        .expect("fig1 demand fits")
    }

    /// Both directions of every link of `tree` at `cells(child)`.
    fn demand(tree: &Tree, cells: impl Fn(NodeId) -> u32) -> Requirements {
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), cells(v));
            reqs.set(Link::down(v), cells(v));
        }
        reqs
    }

    fn slotframe(slots: u32) -> SlotframeConfig {
        SlotframeConfig::new(slots, 16, 10_000).expect("a valid slotframe")
    }

    /// A node's tables keep a slot in 16 bits, as a Slotframe IE carries a
    /// slotframe's size: one slot more is refused before the static phase,
    /// on either of its paths, and not wrapped.
    #[test]
    fn a_slotframe_past_sixteen_bits_is_refused_where_it_is_built() {
        let tree = Tree::paper_fig1_example();
        let reqs = demand(&tree, |_| 1);
        let refused = Err(HarpError::TableLimit {
            what: "slotframe slots",
            count: 65_536,
        });
        let policy = SchedulingPolicy::RateMonotonic;
        let converged = AllocatorHandle::converge(tree.clone(), slotframe(65_536), &reqs, policy);
        assert_eq!(converged.map(drop), refused);
        let mut net = HarpNetwork::new(tree.clone(), slotframe(65_536), &reqs, policy);
        assert_eq!(net.run_static_by_messages().map(drop), refused);
        // The handler-at-a-time driver refuses it before its first handler.
        let mut net = HarpNetwork::new(tree.clone(), slotframe(65_536), &reqs, policy);
        assert_eq!(net.bootstrap_node(NodeId(9)).map(drop), refused);

        let handle = AllocatorHandle::converge(tree, slotframe(65_535), &reqs, policy)
            .expect("the widest slotframe the tables keep holds a small tree");
        assert!(handle.network().schedule().is_exclusive());
        assert!(handle.summary().assignments > 0);
    }

    /// The gateway's layers side by side past a 65,535-slot frame are a
    /// `SlotframeOverflow` naming their total, before a partition is laid:
    /// none ends past the slotframe, where the tables could not keep it.
    #[test]
    fn a_gateway_placement_past_the_widest_slotframe_overflows() {
        // 0 <- 1 <- 3 and 0 <- 2 <- 4: each direction's layers take 40,002
        // slots, both together 80,004.
        let tree = Tree::from_parents(&[(1, 0), (2, 0), (3, 1), (4, 2)]);
        let reqs = demand(&tree, |v| if v.0 >= 3 { 40_000 } else { 1 });
        let policy = SchedulingPolicy::RateMonotonic;
        let converged = AllocatorHandle::converge(tree, slotframe(65_535), &reqs, policy);
        assert_eq!(
            converged.map(drop),
            Err(HarpError::SlotframeOverflow {
                needed_slots: 80_004,
                available: 65_535,
            })
        );
    }

    #[test]
    fn converge_then_adjust_bills_each_change() {
        let mut handle = fig1_handle();
        assert_eq!(handle.adjustments(), 0);
        let before = handle.mgmt_messages_total();
        assert!(before > 0, "static phase exchanged messages");
        let bill = handle.adjust(Link::up(NodeId(9)), 3).unwrap();
        assert!(bill.mgmt_messages >= 2);
        assert!(bill.slotframes(handle.network().config()) >= 1);
        assert!(bill.involved_nodes >= 1);
        assert_eq!(handle.adjustments(), 1);
        assert_eq!(
            handle.mgmt_messages_total(),
            before + bill.mgmt_messages,
            "totals accumulate per adjustment"
        );
        // The handle survives the adjustment and keeps serving; lowering
        // back is absorbed locally, so only the count is guaranteed.
        handle.adjust(Link::up(NodeId(9)), 1).unwrap();
        assert_eq!(handle.adjustments(), 2);
        assert!(handle.summary().exclusive);
    }

    #[test]
    fn summary_reflects_converged_schedule() {
        let handle = fig1_handle();
        let s = handle.summary();
        assert_eq!(s.nodes, handle.network().tree().len());
        assert!(s.exclusive);
        assert!(s.scheduled_links > 0);
        assert!(s.assignments >= s.scheduled_links);
        assert!(s.active_cells > 0);
        assert_eq!(s.slots, 199);
        assert!(s.asn > 0);
    }

    #[test]
    fn infeasible_adjustment_keeps_handle_alive() {
        let mut handle = fig1_handle();
        let err = handle.adjust(Link::up(NodeId(9)), 10_000);
        assert!(err.is_err(), "cannot fit 10k cells in a 199-slot frame");
        assert_eq!(handle.adjustments(), 0, "failed adjustments are not billed");
        assert!(handle.summary().exclusive, "schedule rolled back intact");
        let bill = handle.adjust(Link::up(NodeId(9)), 2).unwrap();
        assert!(bill.mgmt_messages >= 2, "handle still serves after a 4xx");
    }

    #[test]
    fn a_thousand_adjustments_keep_the_handle_serving() {
        let mut handle = fig1_handle();
        let mut rejected = 0;
        for i in 0..1000u32 {
            // Local changes, escalations and (every 50th) a demand no
            // slotframe holds, which rolls back.
            let cells = if i % 50 == 49 { 10_000 } else { 1 + i % 4 };
            let node = NodeId(1 + i % 11);
            rejected += u32::from(handle.adjust(Link::up(node), cells).is_err());
        }
        assert_eq!(rejected, 20);
        assert_eq!(handle.adjustments(), 980);
        assert!(handle.summary().exclusive);
    }

    #[test]
    fn adjustable_node_bounds() {
        let handle = fig1_handle();
        assert!(handle.is_adjustable_node(NodeId(9)));
        assert!(!handle.is_adjustable_node(handle.network().tree().root()));
        assert!(!handle.is_adjustable_node(NodeId(10_000)));
    }

    #[test]
    fn correlated_adjustment_stamps_its_spans() {
        let tree = Tree::paper_fig1_example();
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), 1);
        }
        let mut handle = AllocatorHandle::converge_observed(
            tree,
            SlotframeConfig::paper_default(),
            &reqs,
            SchedulingPolicy::RateMonotonic,
            1024,
        )
        .unwrap();
        let bill = handle
            .adjust_correlated(Link::up(NodeId(9)), 3, 41)
            .unwrap();
        let tagged: Vec<_> = handle
            .network()
            .span_rings()
            .iter()
            .flat_map(|r| r.iter())
            .filter(|e| e.corr == 41)
            .cloned()
            .collect();
        assert!(
            tagged.iter().any(|e| e.name() == "adjust"),
            "the adjustment span carries the correlation id"
        );
        let ops = tagged.iter().filter(|e| e.name() == "mgmt_op").count() as u64;
        assert_eq!(
            ops, bill.mgmt_messages,
            "every billed mgmt message resolves to one tagged op span"
        );
        // The ambient id is cleared: a plain adjustment records untagged.
        handle.adjust(Link::up(NodeId(9)), 1).unwrap();
        assert!(handle
            .network()
            .span_rings()
            .iter()
            .flat_map(|r| r.iter())
            .all(|e| e.corr == 41 || e.corr == harp_obs::NO_CORRELATION));
        assert!(handle
            .network()
            .obs()
            .spans
            .iter()
            .filter(|e| e.name() == "adjust")
            .any(|e| e.corr == harp_obs::NO_CORRELATION));
    }

    #[test]
    fn observed_handle_snapshots_metrics() {
        let tree = Tree::paper_fig1_example();
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), 1);
        }
        let mut handle = AllocatorHandle::converge_observed(
            tree,
            SlotframeConfig::paper_default(),
            &reqs,
            SchedulingPolicy::RateMonotonic,
            256,
        )
        .unwrap();
        handle.adjust(Link::up(NodeId(9)), 2).unwrap();
        let snap = handle.metrics_snapshot();
        assert_eq!(snap.counter("harp.static_runs"), Some(1));
        assert_eq!(snap.counter("harp.adjustments"), Some(1));
        // Recording never changes a count: the unobserved handle snapshots
        // the same.
        let mut unobserved = fig1_handle();
        unobserved.adjust(Link::up(NodeId(9)), 2).unwrap();
        assert_eq!(unobserved.metrics_snapshot(), snap);
    }
}
