//! The allocator as a long-lived, incrementally driven handle.
//!
//! The experiment binaries build a [`HarpNetwork`], run the static phase,
//! maybe measure one adjustment, and throw the network away. A service
//! (the `harpd` crate of this workspace) instead keeps one allocator per
//! tenant alive for hours and drives it request by request; this module
//! packages that usage as [`AllocatorHandle`]: converge once, then any
//! number of [`AllocatorHandle::adjust`] calls, each returning the
//! control-message bill ([`AdjustmentBill`]) the change cost, with a
//! schedule summary ([`ScheduleSummary`]) cheap enough to serve on every
//! query.

use crate::error::HarpError;
use crate::requirement::Requirements;
use crate::runner::{HarpNetwork, ProtocolReport};
use crate::schedule_gen::SchedulingPolicy;
use harp_obs::MetricsSnapshot;
use tsch_sim::{Link, NodeId, SlotframeConfig, Tree};

/// The control-plane cost of one partition adjustment — what a service
/// returns to the caller that requested the change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdjustmentBill {
    /// Management messages exchanged (`POST/PUT intf`, `POST/PUT part`).
    pub mgmt_messages: u64,
    /// Cell-assignment notifications exchanged.
    pub cell_messages: u64,
    /// Nodes that sent or received any message.
    pub involved_nodes: usize,
    /// Distinct layers named in dynamic (`PUT`) messages.
    pub layers_touched: usize,
    /// Duration in whole slotframes (rounded up).
    pub slotframes: u64,
    /// Duration in seconds of slotframe time.
    pub seconds: f64,
}

impl AdjustmentBill {
    fn from_report(report: &ProtocolReport, config: SlotframeConfig) -> Self {
        Self {
            mgmt_messages: report.mgmt_messages,
            cell_messages: report.cell_messages,
            involved_nodes: report.involved_nodes.len(),
            layers_touched: report.layers.len(),
            slotframes: report.slotframes(config),
            seconds: report.elapsed_seconds(config),
        }
    }
}

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
/// let bill = handle.adjust(Link::up(NodeId(9)), 3)?;
/// assert!(bill.mgmt_messages >= 2);
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
        Self::converge_with(tree, config, requirements, policy, None)
    }

    /// Like [`AllocatorHandle::converge`] with observability enabled before
    /// the static phase, so the handle's [`AllocatorHandle::metrics_snapshot`]
    /// carries the "harp.*" and "transport.*" series and its spans cover
    /// the static phase.
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
        Self::converge_with(tree, config, requirements, policy, Some(span_capacity))
    }

    /// The one convergence body: observability, when asked for, is enabled
    /// before the static phase runs.
    fn converge_with(
        tree: Tree,
        config: SlotframeConfig,
        requirements: &Requirements,
        policy: SchedulingPolicy,
        span_capacity: Option<usize>,
    ) -> Result<Self, HarpError> {
        let mut net = HarpNetwork::new(tree, config, requirements, policy);
        if let Some(capacity) = span_capacity {
            net.enable_observability(capacity);
        }
        let static_report = net.run_static()?;
        let (mgmt, cells) = (static_report.mgmt_messages, static_report.cell_messages);
        Ok(Self {
            net,
            static_report,
            adjustments: 0,
            mgmt_messages_total: mgmt,
            cell_messages_total: cells,
        })
    }

    /// Raises (or lowers) one link's cell requirement and settles the
    /// protocol, returning the control-message bill of the change.
    ///
    /// # Errors
    ///
    /// The adjustment's [`HarpError`] when it is infeasible; the previous
    /// schedule stays installed (the protocol rolls back).
    pub fn adjust(&mut self, link: Link, cells: u32) -> Result<AdjustmentBill, HarpError> {
        let now = self.net.now();
        let report = self.net.adjust_and_settle(now, link, cells)?;
        self.adjustments += 1;
        self.mgmt_messages_total += report.mgmt_messages;
        self.cell_messages_total += report.cell_messages;
        Ok(AdjustmentBill::from_report(&report, self.net.config()))
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
    ) -> Result<AdjustmentBill, HarpError> {
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

    /// Metrics of the underlying deployment (empty unless built with
    /// [`AllocatorHandle::converge_observed`]).
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

    #[test]
    fn converge_then_adjust_bills_each_change() {
        let mut handle = fig1_handle();
        assert_eq!(handle.adjustments(), 0);
        let before = handle.mgmt_messages_total();
        assert!(before > 0, "static phase exchanged messages");
        let bill = handle.adjust(Link::up(NodeId(9)), 3).unwrap();
        assert!(bill.mgmt_messages >= 2);
        assert!(bill.slotframes >= 1);
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
            tagged.iter().any(|e| e.name == "adjust"),
            "the adjustment span carries the correlation id"
        );
        let ops = tagged.iter().filter(|e| e.name == "mgmt_op").count() as u64;
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
            .filter(|e| e.name == "adjust")
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
        // The unobserved handle snapshots empty.
        assert!(fig1_handle().metrics_snapshot().is_empty());
    }
}
