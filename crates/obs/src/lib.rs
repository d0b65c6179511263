//! Zero-dependency observability layer for the HARP reproduction.
//!
//! Every quantitative claim in the paper — convergence slotframes,
//! adjustment overhead, collision-free schedules — needs a durable way to
//! be *seen* while the system runs and to be *guarded* in CI. This crate
//! provides the three pieces the rest of the workspace wires in:
//!
//! * a [`MetricsRegistry`] of counters, gauges and histograms keyed by
//!   static names, snapshotting to stable JSON ([`MetricsSnapshot`]);
//! * slotframe-time trace spans ([`SpanRing`], [`SpanEvent`]) — ring-buffered
//!   events stamped with start/end ASN and per-node / per-layer labels;
//! * process-wide [`StaticCounter`]s for library crates with no instance
//!   state to hang a registry off (packing calls, topology generations).
//!
//! Instrumented components own an [`Obs`] handle. Observability is **off by
//! default**: a disabled handle costs one well-predicted branch per record
//! call and produces empty snapshots, so simulations are byte-identical
//! with and without it (the acceptance bar of the observability PR).
//!
//! The [`json`] module is the consumer side: a minimal JSON value parser
//! that `harpd` reads request bodies with and `harp_trace` reads committed
//! reports and flight dumps with.
//!
//! # Examples
//!
//! ```
//! use harp_obs::Obs;
//!
//! let mut obs = Obs::enabled(64);
//! let tx = obs.metrics.counter("sim.tx_attempts");
//! obs.metrics.inc(tx, 3);
//! obs.span("slotframe", "sim", harp_obs::NO_NODE, 0, 0, 199, 3);
//! let snap = obs.metrics.snapshot();
//! assert_eq!(snap.counter("sim.tx_attempts"), Some(3));
//! assert_eq!(obs.spans.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flame;
pub mod flight;
pub mod json;
mod metrics;
pub mod prometheus;
mod span;

pub use flight::{FlightDoc, FlightEvent, FlightRecorder, NO_FLIGHT_NODE};
pub use metrics::{
    CounterId, GaugeId, HistogramId, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    StaticCounter, LATENCY_SLOT_BOUNDS,
};
pub use span::{merged_trace_json, spans_to_json, SpanEvent, SpanRing, NO_CORRELATION, NO_NODE};

/// One observability handle: a metrics registry plus a span ring.
///
/// Components that can be observed (the simulator, the control plane, the
/// HARP runner) own one of these; callers enable it at construction or via
/// the component's `enable_observability` hook.
#[derive(Debug, Clone)]
pub struct Obs {
    /// Named counters / gauges / histograms.
    pub metrics: MetricsRegistry,
    /// Ring buffer of slotframe-time spans.
    pub spans: SpanRing,
    /// Ambient correlation id stamped onto every span recorded while set
    /// ([`NO_CORRELATION`] outside any request scope).
    corr: u64,
}

impl Obs {
    /// An enabled handle retaining the most recent `span_capacity` spans.
    #[must_use]
    pub fn enabled(span_capacity: usize) -> Self {
        Self {
            metrics: MetricsRegistry::new(true),
            spans: SpanRing::new(span_capacity),
            corr: NO_CORRELATION,
        }
    }

    /// A disabled handle: registrations still hand out ids, every record
    /// call is a cheap early return, snapshots are empty.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            metrics: MetricsRegistry::new(false),
            spans: SpanRing::new(0),
            corr: NO_CORRELATION,
        }
    }

    /// Sets the ambient correlation id: every span recorded until the next
    /// call carries it, stitching the span to the request that caused it.
    /// Pass [`NO_CORRELATION`] to clear.
    pub fn set_correlation(&mut self, corr: u64) {
        self.corr = corr;
    }

    /// The ambient correlation id ([`NO_CORRELATION`] when unset).
    #[must_use]
    pub fn correlation(&self) -> u64 {
        self.corr
    }

    /// Whether metric recording is live.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled()
    }

    /// Records one span (no-op while disabled). `depth` is the tree depth
    /// of the node concerned — the HARP layer the event folds into in flame
    /// views — and 0 for network-wide events.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        name: &'static str,
        layer: &'static str,
        node: u32,
        depth: u32,
        start_asn: u64,
        end_asn: u64,
        detail: i64,
    ) {
        self.spans.record(SpanEvent {
            name,
            layer,
            node,
            depth,
            start_asn,
            end_asn,
            detail,
            corr: self.corr,
        });
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let mut obs = Obs::disabled();
        let c = obs.metrics.counter("x");
        obs.metrics.inc(c, 9);
        obs.span("s", "l", NO_NODE, 0, 0, 1, 0);
        assert!(!obs.is_enabled());
        assert!(obs.metrics.snapshot().is_empty());
        assert!(obs.spans.is_empty());
    }

    #[test]
    fn enabled_handle_records() {
        let mut obs = Obs::enabled(4);
        assert!(obs.is_enabled());
        let c = obs.metrics.counter("x");
        obs.metrics.inc(c, 2);
        obs.span("s", "l", 3, 1, 10, 20, -1);
        assert_eq!(obs.metrics.snapshot().counter("x"), Some(2));
        assert_eq!(obs.spans.iter().next().unwrap().slot_mass(), 11);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Obs::default().is_enabled());
    }

    #[test]
    fn ambient_correlation_stamps_spans_while_set() {
        let mut obs = Obs::enabled(4);
        obs.span("before", "l", NO_NODE, 0, 0, 0, 0);
        obs.set_correlation(7);
        obs.span("inside", "l", NO_NODE, 0, 1, 1, 0);
        obs.set_correlation(NO_CORRELATION);
        obs.span("after", "l", NO_NODE, 0, 2, 2, 0);
        let corrs: Vec<u64> = obs.spans.iter().map(|e| e.corr).collect();
        assert_eq!(corrs, vec![NO_CORRELATION, 7, NO_CORRELATION]);
        assert_eq!(obs.correlation(), NO_CORRELATION);
    }
}
