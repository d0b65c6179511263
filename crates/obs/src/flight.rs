//! Always-on flight recorder: a bounded ring of recent structured events
//! for post-mortem debugging of a live service.
//!
//! Metrics answer "how much", spans answer "where did the time go"; the
//! flight recorder answers "what happened in the last N events before this
//! incident". It records discrete, tagged occurrences — requests served,
//! fault-plan actions fired, storm-detector windows, retransmission bursts
//! — each stamped with a caller-supplied timestamp (`at`), an optional
//! tenant, and the correlation id of the request that caused it. Eviction
//! is accounted (`dropped`), so a dump can never be mistaken for a complete
//! history.
//!
//! The ring allocates nothing once it is full, so it is cheap enough to
//! leave on in production: [`FlightRecorder::next_slot`] hands out the slot
//! of the event it evicts, whose two strings the caller clears and writes
//! in place, keeping their capacity. Only the first `capacity` events,
//! which fill the ring, start from empty strings.
//!
//! When something trips — the adjustment-storm detector fires, or a request
//! breaches the latency SLO — [`FlightRecorder::trip`] freezes the ring
//! *as it was at that moment* into an incident snapshot. Later events keep
//! recording into the live ring, but the frozen dump preserves the lead-up
//! to the first breach for `/debug/flight?incident`.
//!
//! Determinism: the recorder never reads a wall clock or RNG — every
//! timestamp comes from the caller (µs-since-boot in `harpd`, ASN in the
//! scenario runner), so a seeded scenario produces byte-identical dumps
//! across runs and thread counts (pinned by `flight_determinism`).

use crate::json::escape_json;
use crate::Ring;

/// Node id meaning "no specific node" in a [`FlightEvent`].
pub const NO_FLIGHT_NODE: i64 = -1;

/// One recorded occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number, assigned by the recorder (1-based).
    pub seq: u64,
    /// Caller-supplied timestamp: µs since service start for daemon
    /// events, ASN for simulation events.
    pub at: u64,
    /// Event class (`"request"`, `"fault"`, `"storm"`, `"retx"`,
    /// `"slo_breach"`, ...).
    pub kind: &'static str,
    /// Tenant the event belongs to (empty for service-wide events).
    pub tenant: String,
    /// Correlation id of the causing request (0 outside request scope).
    pub corr: u64,
    /// Node concerned, or [`NO_FLIGHT_NODE`].
    pub node: i64,
    /// Free-form label (route, fault action, storm window, ...).
    pub detail: String,
    /// Free-form magnitude (latency µs, cells moved, span count, ...).
    pub magnitude: i64,
}

impl FlightEvent {
    /// Renders the event as one JSON object (the element shape of
    /// [`FlightRecorder::to_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\": {}, \"at\": {}, \"kind\": \"{}\", \"tenant\": \"{}\", \"corr\": {}, \"node\": {}, \"detail\": \"{}\", \"magnitude\": {}}}",
            self.seq,
            self.at,
            escape_json(self.kind),
            escape_json(&self.tenant),
            self.corr,
            self.node,
            escape_json(&self.detail),
            self.magnitude,
        )
    }
}

/// A frozen incident snapshot: the ring as it stood when the first trip
/// fired, plus why it fired.
#[derive(Debug, Clone)]
struct Incident {
    reason: String,
    at_seq: u64,
    dump: String,
}

/// The bounded event ring (capacity 0 records nothing) plus what is the
/// recorder's own: its trips and the frozen incident.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    events: Ring<FlightEvent>,
    trips: u64,
    incident: Option<Incident>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            events: Ring::new(capacity),
            trips: 0,
            incident: None,
        }
    }

    /// Records one event, assigning its sequence number and evicting the
    /// oldest when full. The caller's `seq` field is overwritten.
    pub fn record(&mut self, event: FlightEvent) {
        if let Some(slot) = self.next_slot() {
            let seq = slot.seq;
            *slot = FlightEvent { seq, ..event };
        }
    }

    /// The slot of the next event, for the caller to write in place: `seq`
    /// assigned, the other fields reset, and — once the ring is full — the
    /// `tenant` and `detail` strings of the event it evicts, cleared but
    /// keeping their capacity. Writing into them allocates nothing once
    /// they have grown to the lengths written. `None` at capacity 0.
    pub fn next_slot(&mut self) -> Option<&mut FlightEvent> {
        let evicted = self.events.push(FlightEvent {
            seq: self.events.total_recorded() + 1,
            at: 0,
            kind: "",
            tenant: String::new(),
            corr: 0,
            node: NO_FLIGHT_NODE,
            detail: String::new(),
            magnitude: 0,
        });
        let slot = self.events.newest_mut()?;
        if let Some(FlightEvent {
            mut tenant,
            mut detail,
            ..
        }) = evicted
        {
            tenant.clear();
            detail.clear();
            (slot.tenant, slot.detail) = (tenant, detail);
        }
        Some(slot)
    }

    /// The event ring: retained events, oldest first, and its accounting
    /// (the sequence number of the newest event is its `total_recorded`).
    #[must_use]
    pub fn events(&self) -> &Ring<FlightEvent> {
        &self.events
    }

    /// How many times [`FlightRecorder::trip`] has fired.
    #[must_use]
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Renders up to `limit` of the most recent events as
    /// `{"total_recorded", "dropped", "trips", "events": [...]}` —
    /// `dropped` counts events absent from the output (eviction plus the
    /// render limit), so a tail is never mistaken for the whole history.
    #[must_use]
    pub fn to_json(&self, limit: usize) -> String {
        let mut body = String::new();
        let mut rendered = 0u64;
        for e in self.events.tail(limit) {
            if rendered > 0 {
                body.push_str(", ");
            }
            body.push_str(&e.to_json());
            rendered += 1;
        }
        let total = self.events.total_recorded();
        let dropped = total - rendered;
        format!(
            "{{\"total_recorded\": {total}, \"dropped\": {dropped}, \"trips\": {}, \"events\": [{body}]}}",
            self.trips,
        )
    }

    /// Trips the recorder: freezes the current ring into an incident
    /// snapshot tagged with `reason`. Only the **first** trip freezes (the
    /// lead-up to the first breach is the post-mortem that matters); later
    /// trips are counted but do not overwrite it. Returns whether this
    /// call created the snapshot.
    pub fn trip(&mut self, reason: &str) -> bool {
        self.trips += 1;
        if self.incident.is_some() {
            return false;
        }
        self.incident = Some(Incident {
            reason: reason.to_owned(),
            at_seq: self.events.total_recorded(),
            dump: self.to_json(self.events.len()),
        });
        true
    }

    /// The frozen incident as `{"reason", "tripped_at_seq", "dump"}`, or
    /// `None` if nothing has tripped yet.
    #[must_use]
    pub fn incident_json(&self) -> Option<String> {
        self.incident.as_ref().map(|i| {
            format!(
                "{{\"reason\": \"{}\", \"tripped_at_seq\": {}, \"dump\": {}}}",
                escape_json(&i.reason),
                i.at_seq,
                i.dump,
            )
        })
    }
}

/// One event as read back from a dump (owned strings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFlightEvent {
    /// Sequence number in the producing recorder.
    pub seq: u64,
    /// Caller-supplied timestamp (µs or ASN — see [`FlightEvent::at`]).
    pub at: u64,
    /// Event class.
    pub kind: String,
    /// Tenant tag (empty for service-wide events).
    pub tenant: String,
    /// Correlation id (0 outside request scope).
    pub corr: u64,
    /// Node concerned, or [`NO_FLIGHT_NODE`].
    pub node: i64,
    /// Free-form label.
    pub detail: String,
    /// Free-form magnitude.
    pub magnitude: i64,
}

/// A parsed flight-recorder dump: events plus truncation accounting.
#[derive(Debug, Clone, Default)]
pub struct FlightDoc {
    /// The retained events, in dump order (oldest first).
    pub events: Vec<ParsedFlightEvent>,
    /// Events ever recorded by the producing recorder.
    pub total_recorded: u64,
    /// Events recorded but absent from `events`.
    pub dropped: u64,
    /// Trip count of the producing recorder.
    pub trips: u64,
}

impl FlightDoc {
    /// Parses a dump produced by [`FlightRecorder::to_json`], or an
    /// incident wrapper produced by [`FlightRecorder::incident_json`]
    /// (the nested `"dump"` is unwrapped).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn parse_str(text: &str) -> Result<Self, String> {
        let doc = crate::json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&doc)
    }

    /// See [`FlightDoc::parse_str`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(doc: &crate::json::Json) -> Result<Self, String> {
        use crate::json::Json;
        if let Some(dump) = doc.get("dump") {
            return Self::from_json(dump);
        }
        let arr = doc
            .get("events")
            .and_then(Json::as_arr)
            .ok_or_else(|| "flight dump missing \"events\" array".to_owned())?;
        let num = |v: &Json, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("flight event missing numeric field {key:?}"))
        };
        let text = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("flight event missing string field {key:?}"))
        };
        let mut events = Vec::with_capacity(arr.len());
        for v in arr {
            events.push(ParsedFlightEvent {
                seq: num(v, "seq")? as u64,
                at: num(v, "at")? as u64,
                kind: text(v, "kind")?,
                tenant: text(v, "tenant")?,
                corr: num(v, "corr")? as u64,
                node: num(v, "node")? as i64,
                detail: text(v, "detail")?,
                magnitude: num(v, "magnitude")? as i64,
            });
        }
        let top = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        Ok(Self {
            total_recorded: if doc.get("total_recorded").is_some() {
                top("total_recorded")
            } else {
                events.len() as u64
            },
            dropped: top("dropped"),
            trips: top("trips"),
            events,
        })
    }

    /// Folds the events into [`TraceSpan`](crate::flame::TraceSpan)s so the
    /// existing flame/heatmap/storm machinery renders a flight dump: each
    /// event becomes an instantaneous span named by its kind, laid on a
    /// per-tenant layer (`"service"` for untagged events), with the
    /// magnitude as detail.
    #[must_use]
    pub fn to_trace_spans(&self) -> Vec<crate::flame::TraceSpan> {
        self.events
            .iter()
            .map(|e| crate::flame::TraceSpan {
                name: e.kind.clone(),
                layer: if e.tenant.is_empty() {
                    "service".to_owned()
                } else {
                    e.tenant.clone()
                },
                node: e.node,
                depth: 0,
                start_asn: e.at,
                end_asn: e.at,
                detail: e.magnitude,
                corr: e.corr,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ev(at: u64, kind: &'static str, tenant: &str) -> FlightEvent {
        FlightEvent {
            seq: 0,
            at,
            kind,
            tenant: tenant.to_owned(),
            corr: 0,
            node: NO_FLIGHT_NODE,
            detail: "x".to_owned(),
            magnitude: 1,
        }
    }

    #[test]
    fn ring_evicts_and_accounts_dropped() {
        let mut r = FlightRecorder::new(2);
        for i in 0..5 {
            r.record(ev(i, "request", "t1"));
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events().total_recorded(), 5);
        assert_eq!(r.events().dropped(), 3);
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5], "seq is assigned by the recorder");
        let text = r.to_json(10);
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("dropped").and_then(json::Json::as_f64), Some(3.0));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut r = FlightRecorder::new(0);
        r.record(ev(0, "request", ""));
        assert!(r.next_slot().is_none());
        assert!(r.events().is_empty());
        assert_eq!(r.events().total_recorded(), 0);
    }

    #[test]
    fn a_full_ring_hands_out_the_evicted_strings() {
        let mut r = FlightRecorder::new(2);
        for i in 0..3 {
            r.record(ev(i, "request", "t1"));
        }
        let evicted = r.events().iter().next().map(|e| e.detail.as_ptr()).unwrap();
        let slot = r.next_slot().unwrap();
        assert_eq!((slot.seq, slot.kind, slot.node), (4, "", NO_FLIGHT_NODE));
        assert!(slot.tenant.is_empty() && slot.detail.is_empty());
        assert_eq!(slot.detail.as_ptr(), evicted, "the oldest event's buffer");
        slot.detail.push('y');
        let seqs: Vec<(u64, &str)> = r
            .events()
            .iter()
            .map(|e| (e.seq, e.detail.as_str()))
            .collect();
        assert_eq!(seqs, [(3, "x"), (4, "y")]);
        assert_eq!(r.events().dropped(), 2);
    }

    #[test]
    fn render_limit_counts_as_dropped() {
        let mut r = FlightRecorder::new(8);
        for i in 0..5 {
            r.record(ev(i, "request", ""));
        }
        let text = r.to_json(2);
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("dropped").and_then(json::Json::as_f64), Some(3.0));
        let events = doc.get("events").and_then(json::Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("at").and_then(json::Json::as_f64), Some(3.0));
    }

    #[test]
    fn first_trip_freezes_later_trips_count() {
        let mut r = FlightRecorder::new(8);
        r.record(ev(1, "request", "t1"));
        assert!(r.trip("slo p99 breach"));
        r.record(ev(2, "request", "t2"));
        assert!(!r.trip("storm"), "second trip must not overwrite");
        assert_eq!(r.trips(), 2);
        let incident = r.incident_json().unwrap();
        let doc = json::parse(&incident).unwrap();
        assert_eq!(
            doc.get("reason").and_then(json::Json::as_str),
            Some("slo p99 breach")
        );
        let dump = doc.get("dump").unwrap();
        let events = dump.get("events").and_then(json::Json::as_arr).unwrap();
        assert_eq!(events.len(), 1, "frozen before the t2 event");
    }

    #[test]
    fn dump_round_trips_and_folds_to_trace_spans() {
        let mut r = FlightRecorder::new(8);
        r.record(FlightEvent {
            corr: 9,
            node: 5,
            magnitude: 42,
            ..ev(100, "adjust", "t1")
        });
        r.record(ev(200, "fault", ""));
        let doc = FlightDoc::parse_str(&r.to_json(10)).unwrap();
        assert_eq!(doc.total_recorded, 2);
        assert_eq!(doc.events[0].kind, "adjust");
        assert_eq!(doc.events[0].corr, 9);
        let spans = doc.to_trace_spans();
        assert_eq!(spans[0].layer, "t1");
        assert_eq!(
            spans[1].layer, "service",
            "untagged events fold to the service lane"
        );
        assert_eq!(spans[0].start_asn, 100);
        assert_eq!(spans[0].detail, 42);
        assert_eq!(spans[0].corr, 9);
        // The incident wrapper parses too.
        r.trip("storm");
        let doc = FlightDoc::parse_str(&r.incident_json().unwrap()).unwrap();
        assert_eq!(doc.events.len(), 2);
    }

    #[test]
    fn detail_is_escaped() {
        let mut r = FlightRecorder::new(2);
        r.record(FlightEvent {
            detail: "say \"hi\"\n".to_owned(),
            ..ev(1, "request", "")
        });
        let text = r.to_json(2);
        let doc = json::parse(&text).unwrap();
        let events = doc.get("events").and_then(json::Json::as_arr).unwrap();
        assert_eq!(
            events[0].get("detail").and_then(json::Json::as_str),
            Some("say \"hi\"\n")
        );
    }
}
