//! Measurement collection: latency samples, transmission counters, queue
//! occupancy.
//!
//! The experiment harness consumes these to reproduce the paper's figures:
//! per-node end-to-end latency (Fig. 9), latency over time under traffic
//! changes (Fig. 10), and transmission/collision counts (Fig. 11).
//!
//! # Storage modes
//!
//! [`SimStats`] records in one of two [`StatsMode`]s:
//!
//! * [`Full`](StatsMode::Full) (the default) keeps every
//!   [`DeliveryRecord`], so per-source percentiles and timelines are exact.
//!   Memory grows with the delivery count — fine for the paper-scale
//!   experiments, ruinous for million-node runs.
//! * [`Streaming`](StatsMode::Streaming) drops individual records and keeps
//!   only O(nodes + buckets) state: per-source count/sum/min/max plus a
//!   fixed-bucket latency histogram (bounds shared with the observability
//!   layer, [`harp_obs::LATENCY_SLOT_BOUNDS`]). Counters, per-link
//!   attempts, queue high-water marks, delivery counts, means, minima and
//!   maxima are identical to `Full` mode; per-source p95 becomes a
//!   histogram interpolation instead of an exact nearest-rank, and there
//!   is no per-slotframe timeline.
//!
//! In both modes per-link attempts and per-node queue high-water marks live
//! in dense id-indexed vectors (one add on the hot path); the `HashMap`
//! views the analysis code consumes are materialized only on export.

use crate::time::Asn;
use crate::topology::{Direction, Link, NodeId};
use harp_obs::{HistogramSnapshot, LATENCY_SLOT_BOUNDS};
use std::collections::HashMap;
use std::time::Duration;

/// Arithmetic mean of `samples`; `0.0` for an empty slice.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// `p` is a fraction in `[0, 1]`; returns `0` for an empty slice. With
/// `p = 0.95` this is the P95 used throughout the latency summaries.
#[must_use]
pub(crate) fn percentile_nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let count = sorted.len();
    let rank = ((count as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, count) - 1]
}

/// One delivered end-to-end packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The task's source node.
    pub source: NodeId,
    /// Generation time.
    pub created: Asn,
    /// Delivery time at the final destination.
    pub delivered: Asn,
}

impl DeliveryRecord {
    /// End-to-end latency in slots.
    #[must_use]
    pub fn latency_slots(&self) -> u64 {
        self.delivered.since(self.created)
    }
}

/// Simple descriptive statistics over latency samples (in slots).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Mean latency in slots.
    pub mean: f64,
    /// Minimum latency in slots.
    pub min: u64,
    /// Maximum latency in slots.
    pub max: u64,
    /// 95th-percentile latency in slots (nearest-rank in
    /// [`StatsMode::Full`], histogram-interpolated in
    /// [`StatsMode::Streaming`]).
    pub p95: u64,
}

impl LatencySummary {
    /// Computes a summary from raw slot latencies. Returns the default
    /// (all-zero) summary for an empty slice.
    #[must_use]
    pub(crate) fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|&s| u128::from(s)).sum();
        Self {
            count,
            mean: sum as f64 / count as f64,
            min: sorted[0],
            max: sorted[count - 1],
            p95: percentile_nearest_rank(&sorted, 0.95),
        }
    }
}

/// How a [`SimStats`] retains per-delivery data. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// Keep every [`DeliveryRecord`]; memory grows with deliveries.
    #[default]
    Full,
    /// Keep only streaming aggregates; memory is O(nodes + buckets).
    Streaming,
}

/// Streaming per-source latency aggregate.
#[derive(Debug, Clone, Default)]
struct SourceAgg {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Bucket counts over [`LATENCY_SLOT_BOUNDS`]; allocated on the first
    /// delivery in streaming mode only (full mode has the exact records).
    hist: Vec<u64>,
}

/// All measurements recorded by a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Every end-to-end delivery, in delivery order. Empty in
    /// [`StatsMode::Streaming`] — use [`delivered`](Self::delivered) for
    /// the count and the summary/timeline accessors for aggregates.
    pub deliveries: Vec<DeliveryRecord>,
    /// Transmission attempts (includes retries).
    pub tx_attempts: u64,
    /// Attempts that failed due to interference collisions.
    pub collisions: u64,
    /// Attempts that failed due to the radio loss process (PDR).
    pub losses: u64,
    /// Packets dropped because a queue overflowed.
    pub queue_drops: u64,
    /// Packets generated by tasks.
    pub generated: u64,
    /// Slots executed so far.
    pub slots_simulated: u64,
    /// Wall-clock time spent inside [`run_slots`](crate::Simulator::run_slots)
    /// (and [`run_slotframes`](crate::Simulator::run_slotframes)). Slots
    /// stepped one at a time via `step_slot` are counted in
    /// `slots_simulated` but not timed.
    pub run_time: Duration,
    mode: StatsMode,
    delivered: u64,
    /// Attempts per directed link, indexed by `child * 2 + direction`.
    tx_attempts_by_link: Vec<u64>,
    /// High-water mark of queued packets, indexed by node.
    queue_high_water_by_node: Vec<usize>,
    /// Per-source latency aggregates, indexed by node; maintained in both
    /// modes (they are O(nodes) and make network-wide summaries cheap).
    per_source: Vec<SourceAgg>,
}

impl SimStats {
    /// Creates an empty stats collector in [`StatsMode::Full`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty collector in [`StatsMode::Streaming`].
    #[must_use]
    pub(crate) fn streaming() -> Self {
        Self {
            mode: StatsMode::Streaming,
            ..Self::default()
        }
    }

    /// The collector's storage mode.
    #[must_use]
    pub fn mode(&self) -> StatsMode {
        self.mode
    }

    /// End-to-end deliveries so far (maintained in both modes).
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    fn link_index(link: Link) -> usize {
        link.child.index() * 2 + usize::from(link.direction == Direction::Down)
    }

    fn link_of(index: usize) -> Link {
        let child = NodeId(u32::try_from(index / 2).expect("link index fits u32"));
        if index & 1 == 0 {
            Link::up(child)
        } else {
            Link::down(child)
        }
    }

    fn observe_bucket(hist: &mut [u64], latency: u64) {
        let bucket = LATENCY_SLOT_BOUNDS
            .partition_point(|&b| b < latency)
            .min(LATENCY_SLOT_BOUNDS.len());
        hist[bucket] += 1;
    }

    /// Records one transmission attempt on `link` (per-link bookkeeping
    /// only; the caller maintains the aggregate `tx_attempts` counter).
    pub(crate) fn record_tx_attempt(&mut self, link: Link) {
        let i = Self::link_index(link);
        if i >= self.tx_attempts_by_link.len() {
            self.tx_attempts_by_link.resize(i + 1, 0);
        }
        self.tx_attempts_by_link[i] += 1;
    }

    /// Attempts per directed link, materialized as a map (links with zero
    /// attempts are omitted).
    #[must_use]
    pub fn tx_attempts_per_link(&self) -> HashMap<Link, u64> {
        self.tx_attempts_by_link
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (Self::link_of(i), n))
            .collect()
    }

    /// Records a delivery.
    pub(crate) fn record_delivery(&mut self, source: NodeId, created: Asn, delivered: Asn) {
        let latency = delivered.since(created);
        self.delivered += 1;
        let idx = source.index();
        if idx >= self.per_source.len() {
            self.per_source.resize_with(idx + 1, SourceAgg::default);
        }
        let agg = &mut self.per_source[idx];
        if agg.count == 0 {
            agg.min = latency;
            agg.max = latency;
        } else {
            agg.min = agg.min.min(latency);
            agg.max = agg.max.max(latency);
        }
        agg.count += 1;
        agg.sum += u128::from(latency);
        match self.mode {
            StatsMode::Full => self.deliveries.push(DeliveryRecord {
                source,
                created,
                delivered,
            }),
            StatsMode::Streaming => {
                if agg.hist.is_empty() {
                    agg.hist = vec![0; LATENCY_SLOT_BOUNDS.len() + 1];
                }
                Self::observe_bucket(&mut agg.hist, latency);
            }
        }
    }

    /// Updates a node's queue high-water mark.
    pub(crate) fn record_queue_depth(&mut self, node: NodeId, depth: usize) {
        let i = node.index();
        if i >= self.queue_high_water_by_node.len() {
            self.queue_high_water_by_node.resize(i + 1, 0);
        }
        let entry = &mut self.queue_high_water_by_node[i];
        *entry = (*entry).max(depth);
    }

    /// The deepest queue high-water mark across all nodes.
    #[must_use]
    pub fn max_queue_high_water(&self) -> usize {
        self.queue_high_water_by_node
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Per-node queue high-water marks, materialized as a map (nodes that
    /// never queued a packet are omitted).
    #[must_use]
    pub fn queue_high_water(&self) -> HashMap<NodeId, usize> {
        self.queue_high_water_by_node
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d > 0)
            .map(|(i, &d)| (NodeId(u32::try_from(i).expect("node index fits u32")), d))
            .collect()
    }

    /// Latency samples (slots) for packets originating at `source`. Exact
    /// records exist only in [`StatsMode::Full`]; empty when streaming.
    #[must_use]
    pub fn latencies_of(&self, source: NodeId) -> Vec<u64> {
        self.deliveries
            .iter()
            .filter(|d| d.source == source)
            .map(DeliveryRecord::latency_slots)
            .collect()
    }

    /// Latency summary for one source node. Exact in [`StatsMode::Full`];
    /// in [`StatsMode::Streaming`] the count/mean/min/max are still exact
    /// and p95 is interpolated from the per-source histogram.
    #[must_use]
    pub fn latency_summary(&self, source: NodeId) -> LatencySummary {
        match self.mode {
            StatsMode::Full => LatencySummary::from_samples(&self.latencies_of(source)),
            StatsMode::Streaming => {
                let Some(agg) = self.per_source.get(source.index()).filter(|a| a.count > 0) else {
                    return LatencySummary::default();
                };
                let snapshot = HistogramSnapshot {
                    bounds: LATENCY_SLOT_BOUNDS.to_vec(),
                    counts: agg.hist.clone(),
                    count: agg.count,
                    sum: agg.sum,
                    min: agg.min,
                    max: agg.max,
                };
                LatencySummary {
                    count: usize::try_from(agg.count).expect("delivery count fits usize"),
                    mean: agg.sum as f64 / agg.count as f64,
                    min: agg.min,
                    max: agg.max,
                    p95: snapshot.percentile(0.95),
                }
            }
        }
    }

    /// Network-wide latency histogram over [`LATENCY_SLOT_BOUNDS`], folded
    /// from the per-source aggregates. In [`StatsMode::Full`] bucket counts
    /// are rebuilt from the exact records; both modes agree.
    #[must_use]
    pub fn latency_histogram(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; LATENCY_SLOT_BOUNDS.len() + 1];
        let (mut count, mut sum) = (0u64, 0u128);
        let (mut min, mut max) = (u64::MAX, 0u64);
        for agg in self.per_source.iter().filter(|a| a.count > 0) {
            count += agg.count;
            sum += agg.sum;
            min = min.min(agg.min);
            max = max.max(agg.max);
            for (total, &n) in counts.iter_mut().zip(&agg.hist) {
                *total += n;
            }
        }
        if self.mode == StatsMode::Full {
            for d in &self.deliveries {
                Self::observe_bucket(&mut counts, d.latency_slots());
            }
        }
        HistogramSnapshot {
            bounds: LATENCY_SLOT_BOUNDS.to_vec(),
            counts,
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
        }
    }

    /// Deliveries from `source` bucketed by the slotframe of their delivery
    /// time — the Fig. 10 timeline series. Computed from the exact records,
    /// so empty in [`StatsMode::Streaming`].
    #[must_use]
    pub fn latency_timeline(&self, source: NodeId, slots_per_frame: u32) -> Vec<(u64, f64)> {
        let mut buckets: HashMap<u64, (u64, u64)> = HashMap::new();
        for d in self.deliveries.iter().filter(|d| d.source == source) {
            let frame = d.delivered.0 / u64::from(slots_per_frame);
            let e = buckets.entry(frame).or_insert((0, 0));
            e.0 += d.latency_slots();
            e.1 += 1;
        }
        let mut out: Vec<(u64, f64)> = buckets
            .into_iter()
            .map(|(frame, (sum, n))| (frame, sum as f64 / n as f64))
            .collect();
        out.sort_by_key(|&(frame, _)| frame);
        out
    }

    /// Simulation throughput in slots per wall-clock second, over the time
    /// accumulated in [`run_time`](Self::run_time); `0.0` before any timed
    /// run.
    #[must_use]
    pub fn slots_per_sec(&self) -> f64 {
        let secs = self.run_time.as_secs_f64();
        if secs > 0.0 {
            self.slots_simulated as f64 / secs
        } else {
            0.0
        }
    }

    /// Throughput normalized to schedule density: active-cell executions
    /// per wall-clock second, i.e. [`slots_per_sec`] scaled by
    /// `active_cells / slots_per_frame`. `active_cells` is the schedule's
    /// (cell, link) assignment count (`NetworkSchedule::assignment_count`)
    /// — per-slotframe transmission opportunities. With an event-driven
    /// engine this is the scale-study headline — it stays flat as the
    /// network grows because per-slot cost tracks the scheduled
    /// assignments, not the node count. `0.0` before any timed run or
    /// with an empty schedule.
    ///
    /// [`slots_per_sec`]: Self::slots_per_sec
    #[must_use]
    pub fn active_cell_slots_per_sec(&self, active_cells: usize, slots_per_frame: u32) -> f64 {
        if slots_per_frame == 0 {
            return 0.0;
        }
        self.slots_per_sec() * active_cells as f64 / f64::from(slots_per_frame)
    }

    /// Fraction of generated packets that were delivered.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_default() {
        let s = LatencySummary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_basic() {
        let s = LatencySummary::from_samples(&[10, 20, 30, 40]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 25.0);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 40);
        assert_eq!(s.p95, 40);
    }

    #[test]
    fn summary_p95_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.p95, 95);
    }

    #[test]
    fn summary_single_sample() {
        let s = LatencySummary::from_samples(&[7]);
        assert_eq!((s.min, s.max, s.p95, s.count), (7, 7, 7, 1));
    }

    #[test]
    fn deliveries_filter_by_source() {
        let mut stats = SimStats::new();
        stats.record_delivery(NodeId(1), Asn(0), Asn(10));
        stats.record_delivery(NodeId(2), Asn(0), Asn(20));
        stats.record_delivery(NodeId(1), Asn(5), Asn(25));
        assert_eq!(stats.latencies_of(NodeId(1)), vec![10, 20]);
        assert_eq!(stats.latency_summary(NodeId(1)).mean, 15.0);
        assert_eq!(stats.latencies_of(NodeId(3)), Vec::<u64>::new());
        assert_eq!(stats.delivered(), 3);
    }

    #[test]
    fn timeline_buckets_by_delivery_frame() {
        let mut stats = SimStats::new();
        stats.record_delivery(NodeId(1), Asn(0), Asn(5)); // frame 0
        stats.record_delivery(NodeId(1), Asn(2), Asn(9)); // frame 0
        stats.record_delivery(NodeId(1), Asn(12), Asn(25)); // frame 2
        let timeline = stats.latency_timeline(NodeId(1), 10);
        assert_eq!(timeline, vec![(0, 6.0), (2, 13.0)]);
    }

    #[test]
    fn per_link_attempts_default_to_zero() {
        let stats = SimStats::new();
        assert!(stats.tx_attempts_per_link().is_empty());
    }

    #[test]
    fn per_link_attempts_roundtrip_through_export() {
        let mut stats = SimStats::new();
        stats.record_tx_attempt(Link::up(NodeId(3)));
        stats.record_tx_attempt(Link::up(NodeId(3)));
        stats.record_tx_attempt(Link::down(NodeId(3)));
        let map = stats.tx_attempts_per_link();
        assert_eq!(map.len(), 2, "zero entries are omitted");
        assert_eq!(map[&Link::up(NodeId(3))], 2);
        assert_eq!(map[&Link::down(NodeId(3))], 1);
    }

    #[test]
    fn queue_high_water_is_monotone() {
        let mut stats = SimStats::new();
        stats.record_queue_depth(NodeId(1), 3);
        stats.record_queue_depth(NodeId(1), 1);
        stats.record_queue_depth(NodeId(1), 5);
        assert_eq!(stats.max_queue_high_water(), 5);
        assert_eq!(stats.queue_high_water(), HashMap::from([(NodeId(1), 5)]));
    }

    #[test]
    fn streaming_mode_matches_full_aggregates() {
        let mut full = SimStats::new();
        let mut streaming = SimStats::streaming();
        let deliveries = [
            (NodeId(1), Asn(0), Asn(5)),
            (NodeId(1), Asn(2), Asn(9)),
            (NodeId(2), Asn(0), Asn(20)),
            (NodeId(1), Asn(12), Asn(25)),
        ];
        for (source, created, delivered) in deliveries {
            full.record_delivery(source, created, delivered);
            streaming.record_delivery(source, created, delivered);
        }
        assert!(streaming.deliveries.is_empty());
        assert_eq!(streaming.delivered(), full.delivered());
        for node in [NodeId(1), NodeId(2), NodeId(3)] {
            let f = full.latency_summary(node);
            let s = streaming.latency_summary(node);
            assert_eq!(
                (f.count, f.mean, f.min, f.max),
                (s.count, s.mean, s.min, s.max)
            );
        }
        // A timeline needs the records streaming mode does not keep.
        assert!(streaming.latency_timeline(NodeId(1), 10).is_empty());
        let (fh, sh) = (full.latency_histogram(), streaming.latency_histogram());
        assert_eq!(fh, sh, "histograms agree bucket-for-bucket across modes");
        assert_eq!(fh.count, 4);
    }

    #[test]
    fn streaming_summary_p95_is_within_observed_range() {
        let mut stats = SimStats::streaming();
        for i in 0..100u64 {
            stats.record_delivery(NodeId(1), Asn(0), Asn(1 + i));
        }
        let s = stats.latency_summary(NodeId(1));
        assert_eq!((s.count, s.min, s.max), (100, 1, 100));
        assert!((90..=100).contains(&s.p95), "p95 estimate {} off", s.p95);
    }

    #[test]
    fn mean_and_percentile_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(percentile_nearest_rank(&[], 0.95), 0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nearest_rank(&sorted, 0.95), 95);
        assert_eq!(percentile_nearest_rank(&sorted, 0.5), 50);
        assert_eq!(percentile_nearest_rank(&sorted, 1.0), 100);
        assert_eq!(percentile_nearest_rank(&[7], 0.95), 7);
    }

    #[test]
    fn slots_per_sec_is_zero_without_timing() {
        let mut stats = SimStats::new();
        assert_eq!(stats.slots_per_sec(), 0.0);
        stats.slots_simulated = 1000;
        stats.run_time = Duration::from_millis(500);
        assert_eq!(stats.slots_per_sec(), 2000.0);
    }

    #[test]
    fn active_cell_rate_scales_slots_per_sec_by_schedule_density() {
        let mut stats = SimStats::new();
        stats.slots_simulated = 1000;
        stats.run_time = Duration::from_millis(500);
        // 2000 slots/s × 50 active cells / 200 slots per frame.
        assert_eq!(stats.active_cell_slots_per_sec(50, 200), 500.0);
        assert_eq!(stats.active_cell_slots_per_sec(50, 0), 0.0);
        assert_eq!(stats.active_cell_slots_per_sec(0, 200), 0.0);
    }

    #[test]
    fn delivery_ratio_handles_zero_generated() {
        let stats = SimStats::new();
        assert_eq!(stats.delivery_ratio(), 1.0);
        let mut stats = SimStats::new();
        stats.generated = 4;
        stats.record_delivery(NodeId(1), Asn(0), Asn(1));
        assert_eq!(stats.delivery_ratio(), 0.25);
    }
}
