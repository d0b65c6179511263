//! Zero-dependency observability layer for the HARP reproduction.
//!
//! Every quantitative claim in the paper — convergence slotframes,
//! adjustment overhead, collision-free schedules — needs a durable way to
//! be *seen* while the system runs and to be *guarded* in CI. This crate
//! provides the pieces the rest of the workspace wires in, one way to
//! record each kind of fact:
//!
//! * counts: [`MetricsSnapshot`], counters, gauges and histograms by name,
//!   in stable JSON or Prometheus text ([`prometheus`]). Every component —
//!   the simulator, the control plane, the protocol runner, `harpd` —
//!   keeps each count once, in a plain struct, and renders a snapshot from
//!   it on demand; a histogram grows through [`bucket_of`];
//! * recent history: one bounded [`Ring`], holding slotframe-time trace
//!   spans ([`SpanRing`], [`SpanEvent`] — stamped with start/end ASN, a
//!   node and a [`SpanKind`] each producer declares once), the simulator's
//!   trace events, and the [`FlightRecorder`]'s events;
//! * process-wide [`StaticCounter`]s for library crates with no instance
//!   state to keep a count in (packing calls, topology generations).
//!
//! Instrumented components own an [`Obs`] handle: their span ring and the
//! ambient correlation id. Its ring's capacity is the one observability
//! setting: 0 by default, which records no span. Counts are kept and
//! rendered either way, and recording never changes one, so simulations
//! are byte-identical with and without spans.
//!
//! The [`json`] module is the consumer side: a minimal JSON value parser
//! that `harpd` reads request bodies with and `harp_trace` reads committed
//! reports and flight dumps with.
//!
//! # Examples
//!
//! ```
//! use harp_obs::{MetricsSnapshot, Obs, SpanKind};
//!
//! const SLOTFRAME: &SpanKind = &SpanKind { layer: "sim", name: "slotframe" };
//! let mut obs = Obs::new(64);
//! obs.span(SLOTFRAME, harp_obs::NO_NODE, 0, 0, 199, 3);
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
mod ring;
mod span;

pub use flight::{FlightDoc, FlightEvent, FlightRecorder, FlightText, NO_FLIGHT_NODE};
pub use metrics::{
    bucket_of, HistogramSnapshot, MetricsSnapshot, StaticCounter, LATENCY_SLOT_BOUNDS,
};
pub use ring::Ring;
pub use span::{
    merged_trace_json, spans_to_json, SpanEvent, SpanKind, SpanRing, NO_CORRELATION, NO_NODE,
};

/// One observability handle: a span ring plus the ambient correlation id.
///
/// Components that can be observed (the simulator, the control plane, the
/// HARP runner) own one of these, with a ring of capacity 0 until a caller
/// sizes it at construction or through the component's
/// `enable_observability` hook. The component's counts do not live here:
/// it keeps them always, and its `metrics_snapshot` renders them.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Ring buffer of slotframe-time spans.
    pub spans: SpanRing,
    /// Ambient correlation id stamped onto every span recorded while set
    /// ([`NO_CORRELATION`] outside any request scope).
    corr: u64,
}

impl Obs {
    /// A handle retaining the most recent `span_capacity` spans.
    #[must_use]
    pub fn new(span_capacity: usize) -> Self {
        Self {
            spans: SpanRing::new(span_capacity),
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

    /// Records one span of `kind` (nothing at span capacity 0), stamped
    /// with the ambient correlation id. `kind` is one of the recorder's
    /// declared constants; `depth` is the tree depth of the node concerned
    /// — the HARP layer the event folds into in flame views — and 0 for
    /// network-wide events.
    #[inline]
    pub fn span(
        &mut self,
        kind: &'static SpanKind,
        node: u32,
        depth: u32,
        start_asn: u64,
        end_asn: u64,
        detail: i64,
    ) {
        self.spans.push(SpanEvent {
            kind,
            node,
            depth,
            start_asn,
            end_asn,
            detail,
            corr: self.corr,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn kind(name: &'static str) -> SpanKind {
        SpanKind { layer: "l", name }
    }
    const S: &SpanKind = &kind("s");
    const BEFORE: &SpanKind = &kind("before");
    const INSIDE: &SpanKind = &kind("inside");
    const AFTER: &SpanKind = &kind("after");

    #[test]
    fn default_handle_records_nothing() {
        let mut obs = Obs::default();
        obs.span(S, NO_NODE, 0, 0, 1, 0);
        assert!(obs.spans.is_empty());
        assert_eq!(obs.spans.total_recorded(), 0);
    }

    #[test]
    fn sized_handle_records() {
        let mut obs = Obs::new(4);
        obs.span(S, 3, 1, 10, 20, -1);
        assert_eq!(obs.spans.iter().next().unwrap().slot_mass(), 11);
    }

    #[test]
    fn ambient_correlation_stamps_spans_while_set() {
        let mut obs = Obs::new(4);
        obs.span(BEFORE, NO_NODE, 0, 0, 0, 0);
        obs.set_correlation(7);
        obs.span(INSIDE, NO_NODE, 0, 1, 1, 0);
        obs.set_correlation(NO_CORRELATION);
        obs.span(AFTER, NO_NODE, 0, 2, 2, 0);
        let corrs: Vec<u64> = obs.spans.iter().map(|e| e.corr).collect();
        assert_eq!(corrs, vec![NO_CORRELATION, 7, NO_CORRELATION]);
        assert_eq!(obs.correlation(), NO_CORRELATION);
    }
}
