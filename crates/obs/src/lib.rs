//! Zero-dependency observability layer for the HARP reproduction.
//!
//! Every quantitative claim in the paper — convergence slotframes,
//! adjustment overhead, collision-free schedules — needs a durable way to
//! be *seen* while the system runs and to be *guarded* in CI. This crate
//! provides the pieces the rest of the workspace wires in:
//!
//! * [`MetricsSnapshot`]: counters, gauges and histograms by name, in
//!   stable JSON or Prometheus text ([`prometheus`]). The simulator, the
//!   control plane and the protocol runner keep every count once, in the
//!   stats their callers read, and render a snapshot from them on demand;
//!   `harpd` records its request series in a [`MetricsRegistry`];
//! * slotframe-time trace spans ([`SpanRing`], [`SpanEvent`]) — ring-buffered
//!   events stamped with start/end ASN and per-node / per-layer labels;
//! * process-wide [`StaticCounter`]s for library crates with no instance
//!   state to keep a count in (packing calls, topology generations).
//!
//! Instrumented components own an [`Obs`] handle: the switch that makes
//! their snapshots non-empty, and their span ring. Observability is **off
//! by default**: a disabled handle records no span and its component
//! snapshots empty, so simulations are byte-identical with and without it.
//!
//! The [`json`] module is the consumer side: a minimal JSON value parser
//! that `harpd` reads request bodies with and `harp_trace` reads committed
//! reports and flight dumps with.
//!
//! # Examples
//!
//! ```
//! use harp_obs::{MetricsSnapshot, Obs};
//!
//! let mut obs = Obs::enabled(64);
//! obs.span("slotframe", "sim", harp_obs::NO_NODE, 0, 0, 199, 3);
//! assert_eq!(obs.spans.len(), 1);
//! // A component renders the counts it keeps.
//! let mut snap = MetricsSnapshot::default();
//! snap.add_counters([("sim.tx_attempts", 3)]);
//! assert_eq!(snap.counter("sim.tx_attempts"), Some(3));
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
    CounterId, HistogramId, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, StaticCounter,
    LATENCY_SLOT_BOUNDS,
};
pub use span::{merged_trace_json, spans_to_json, SpanEvent, SpanRing, NO_CORRELATION, NO_NODE};

/// One observability handle: an on/off switch plus a span ring.
///
/// Components that can be observed (the simulator, the control plane, the
/// HARP runner) own one of these; callers enable it at construction or via
/// the component's `enable_observability` hook. The component's counts do
/// not live here: it keeps them always, and renders them into its
/// `metrics_snapshot` while the handle is enabled.
#[derive(Debug, Clone)]
pub struct Obs {
    /// Whether spans are recorded and the component's snapshots are filled.
    enabled: bool,
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
            enabled: true,
            spans: SpanRing::new(span_capacity),
            corr: NO_CORRELATION,
        }
    }

    /// A disabled handle: it records no span, and the component owning it
    /// snapshots empty.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
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

    /// Whether observability is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
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
        obs.span("s", "l", NO_NODE, 0, 0, 1, 0);
        assert!(!obs.is_enabled());
        assert!(obs.spans.is_empty());
    }

    #[test]
    fn enabled_handle_records() {
        let mut obs = Obs::enabled(4);
        assert!(obs.is_enabled());
        obs.span("s", "l", 3, 1, 10, 20, -1);
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
