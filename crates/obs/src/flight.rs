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
//! Recording allocates nothing, from the first event on, so the recorder is
//! cheap enough to leave on in production. The ring keeps a fixed-size head
//! per event (at most 64 bytes, asserted below); the event's two texts,
//! tenant and detail back to back, live in one byte arena that
//! [`FlightRecorder::new`] reserves once, [`FLIGHT_TEXT_BYTES`] per event
//! of capacity. Texts are laid out in ring order at a running offset, and
//! one that would run past the arena's end starts again at its beginning,
//! so every text reads back as one `&str` and evicting an event frees its
//! bytes. Eviction goes by event count alone: should the retained texts
//! outgrow the arena, it doubles, so a dump is never truncated.
//! [`FlightRecorder::begin`] hands out a [`FlightText`] that appends the
//! event's detail straight into the arena (`fmt::Write`); readers borrow
//! [`FlightEvent`]s from it.
//!
//! When something trips — the adjustment-storm detector fires, or a request
//! breaches the latency SLO — [`FlightRecorder::trip`] copies the heads and
//! the arena *as they were at that moment* into an incident snapshot,
//! rendered when `/debug/flight?incident` reads it. Later events keep
//! recording into the live ring, but the frozen copy preserves the lead-up
//! to the first breach.
//!
//! Determinism: the recorder never reads a wall clock or RNG — every
//! timestamp comes from the caller (µs-since-boot in `harpd`, ASN in the
//! scenario runner), so a seeded scenario produces byte-identical dumps
//! across runs and thread counts (pinned by `flight_determinism`).

use std::fmt;

use crate::json::JsonBuf;
use crate::Ring;

/// Node id meaning "no specific node" in a [`FlightEvent`].
pub const NO_FLIGHT_NODE: i64 = -1;

/// Text bytes the arena holds per event of capacity, reserved when the
/// recorder is built: harpd's longest event text is 42 bytes.
pub const FLIGHT_TEXT_BYTES: usize = 48;

/// One recorded occurrence, its texts borrowed: what
/// [`FlightRecorder::record`] takes and [`FlightRecorder::events`] hands
/// out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent<'a> {
    /// Monotone sequence number, assigned by the recorder (1-based).
    pub seq: u64,
    /// Caller-supplied timestamp: µs since service start for daemon
    /// events, ASN for simulation events.
    pub at: u64,
    /// Event class (`"request"`, `"fault"`, `"storm"`, `"retx"`,
    /// `"slo_breach"`, ...).
    pub kind: &'static str,
    /// Tenant the event belongs to (empty for service-wide events).
    pub tenant: &'a str,
    /// Correlation id of the causing request (0 outside request scope).
    pub corr: u64,
    /// Node concerned, or [`NO_FLIGHT_NODE`].
    pub node: i64,
    /// Free-form label (route, fault action, storm window, ...).
    pub detail: &'a str,
    /// Free-form magnitude (latency µs, cells moved, span count, ...).
    pub magnitude: i64,
}

impl FlightEvent<'_> {
    /// Appends the event as one JSON object, the element shape of
    /// [`FlightRecorder::to_json`].
    fn write_json(&self, out: &mut JsonBuf) {
        out.raw("{\"seq\": ")
            .u64(self.seq)
            .raw(", \"at\": ")
            .u64(self.at)
            .raw(", \"kind\": ")
            .string(self.kind)
            .raw(", \"tenant\": ")
            .string(self.tenant)
            .raw(", \"corr\": ")
            .u64(self.corr)
            .raw(", \"node\": ")
            .i64(self.node)
            .raw(", \"detail\": ")
            .string(self.detail)
            .raw(", \"magnitude\": ")
            .i64(self.magnitude)
            .raw("}");
    }
}

/// What the ring keeps of an event: all but its sequence number, which is
/// the ring's running total, and its text, which is `tenant_len +
/// detail_len` bytes of the arena from the running offset `text` (at
/// position `text % arena.len()`).
#[derive(Debug, Clone, Copy)]
struct Head {
    at: u64,
    corr: u64,
    node: i64,
    magnitude: i64,
    kind: &'static str,
    text: u64,
    tenant_len: u32,
    detail_len: u32,
}

const _: () = assert!(std::mem::size_of::<Head>() <= 64);

/// The retained events: heads in a ring, their texts in the arena. The
/// live recorder writes into one; a trip freezes a copy.
#[derive(Debug, Clone, Default)]
struct Events {
    heads: Ring<Head>,
    /// Every retained text lies in a window of running offsets no longer
    /// than the arena, none across a multiple of its length.
    arena: Vec<u8>,
}

impl Events {
    fn new(capacity: usize) -> Self {
        Self {
            heads: Ring::new(capacity),
            arena: vec![0; capacity * FLIGHT_TEXT_BYTES],
        }
    }

    /// The event `head`, numbered `seq`.
    fn event(&self, head: &Head, seq: u64) -> FlightEvent<'_> {
        let at = (head.text % self.arena.len() as u64) as usize;
        let split = at + head.tenant_len as usize;
        FlightEvent {
            seq,
            at: head.at,
            kind: head.kind,
            tenant: text(&self.arena[at..split]),
            corr: head.corr,
            node: head.node,
            detail: text(&self.arena[split..split + head.detail_len as usize]),
            magnitude: head.magnitude,
        }
    }

    /// The most recent `limit` events, oldest first.
    fn tail(&self, limit: usize) -> impl Iterator<Item = FlightEvent<'_>> {
        let shown = limit.min(self.heads.len()) as u64;
        let first = self.heads.total_recorded() - shown + 1;
        (first..)
            .zip(self.heads.tail(limit))
            .map(|(seq, head)| self.event(head, seq))
    }

    /// Writes the most recent `limit` events as `{"total_recorded",
    /// "dropped", "trips", "events": [...]}`.
    fn write_json(&self, out: &mut JsonBuf, limit: usize, trips: u64) {
        let total = self.heads.total_recorded();
        let shown = limit.min(self.heads.len()) as u64;
        out.raw("{\"total_recorded\": ")
            .u64(total)
            .raw(", \"dropped\": ")
            .u64(total - shown)
            .raw(", \"trips\": ")
            .u64(trips)
            .raw(", \"events\": [");
        for (i, event) in self.tail(limit).enumerate() {
            if i > 0 {
                out.raw(", ");
            }
            event.write_json(out);
        }
        out.raw("]}");
    }

    /// Appends `s` to the newest event's text and hands back its head, for
    /// the caller to count `s` into the tenant or the detail. A text that
    /// would run past the arena's end moves to its start; the arena
    /// doubles when the retained texts would not fit.
    fn append(&mut self, s: &str) -> &mut Head {
        let oldest = match self.heads.len() {
            0 | 1 => None,
            _ => self.heads.iter().next().map(|head| head.text),
        };
        let head = *self.heads.newest_mut().expect("an event is being written");
        let written = u64::from(head.tenant_len + head.detail_len);
        let len = written + s.len() as u64;
        let mut start = head.text;
        loop {
            let size = self.arena.len() as u64;
            if start % size + len > size {
                start = start.next_multiple_of(size);
            }
            if start % size + len <= size && start + len - oldest.unwrap_or(start) <= size {
                break;
            }
            self.grow();
        }
        let size = self.arena.len() as u64;
        let (from, to) = ((head.text % size) as usize, (start % size) as usize);
        self.arena.copy_within(from..from + written as usize, to);
        let end = to + written as usize;
        self.arena[end..end + s.len()].copy_from_slice(s.as_bytes());
        let head = self.heads.newest_mut().expect("an event is being written");
        head.text = start;
        head
    }

    /// Doubles the arena, each retained text moving to its position in the
    /// larger one.
    fn grow(&mut self) {
        let mut arena = vec![0; 2 * self.arena.len()];
        let (old, new) = (self.arena.len() as u64, arena.len() as u64);
        for head in self.heads.iter() {
            let len = (head.tenant_len + head.detail_len) as usize;
            let (from, to) = ((head.text % old) as usize, (head.text % new) as usize);
            arena[to..to + len].copy_from_slice(&self.arena[from..from + len]);
        }
        self.arena = arena;
    }
}

/// The newest event's text being written: [`fmt::Write`] appends to its
/// detail, straight into the arena.
pub struct FlightText<'r> {
    events: &'r mut Events,
}

impl fmt::Write for FlightText<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.events.append(s).detail_len += len32(s);
        Ok(())
    }
}

/// A frozen incident: the events as they stood when the first trip fired,
/// the trip count then, and why it fired.
#[derive(Debug, Clone)]
struct Incident {
    reason: String,
    trips: u64,
    events: Events,
}

/// The bounded event ring (capacity 0 records nothing) plus what is the
/// recorder's own: its trips and the frozen incident.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    events: Events,
    trips: u64,
    incident: Option<Incident>,
}

/// The length of a text as a head keeps it.
fn len32(s: &str) -> u32 {
    u32::try_from(s.len()).expect("a flight text is shorter than 4 GiB")
}

/// Arena bytes written from `&str`s, read back as one.
fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("the arena holds what was written as text")
}

/// A rendered JSON document as a string.
fn into_string(out: JsonBuf) -> String {
    String::from_utf8(out.into_bytes()).expect("JSON written from text is text")
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events, with an arena
    /// of [`FLIGHT_TEXT_BYTES`] per event for their texts.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            events: Events::new(capacity),
            trips: 0,
            incident: None,
        }
    }

    /// Records one event, assigning its sequence number and evicting the
    /// oldest when full. The caller's `seq` field is ignored.
    pub fn record(&mut self, event: FlightEvent<'_>) {
        self.begin(event);
    }

    /// Records `event` as [`FlightRecorder::record`] does, and hands back
    /// its text for the caller to append more detail to. `None` at
    /// capacity 0.
    pub fn begin(&mut self, event: FlightEvent<'_>) -> Option<FlightText<'_>> {
        let events = &mut self.events;
        if events.arena.is_empty() {
            return None;
        }
        let text = events
            .heads
            .newest_mut()
            .map_or(0, |h| h.text + u64::from(h.tenant_len + h.detail_len));
        events.heads.push(Head {
            at: event.at,
            corr: event.corr,
            node: event.node,
            magnitude: event.magnitude,
            kind: event.kind,
            text,
            tenant_len: 0,
            detail_len: 0,
        });
        events.append(event.tenant).tenant_len = len32(event.tenant);
        events.append(event.detail).detail_len = len32(event.detail);
        Some(FlightText { events })
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = FlightEvent<'_>> {
        self.events.tail(usize::MAX)
    }

    /// Events ever recorded; the newest event's sequence number.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.events.heads.total_recorded()
    }

    /// Events recorded but evicted since.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.events.heads.dropped()
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
        let mut out = JsonBuf::new();
        self.events.write_json(&mut out, limit, self.trips);
        into_string(out)
    }

    /// Trips the recorder: copies the events into an incident snapshot
    /// tagged with `reason`. Only the **first** trip freezes (the lead-up
    /// to the first breach is the post-mortem that matters); later trips
    /// are counted but do not overwrite it. Returns whether this call
    /// created the snapshot.
    pub fn trip(&mut self, reason: &str) -> bool {
        self.trips += 1;
        if self.incident.is_some() {
            return false;
        }
        self.incident = Some(Incident {
            reason: reason.to_owned(),
            trips: self.trips,
            events: self.events.clone(),
        });
        true
    }

    /// The frozen incident as `{"reason", "tripped_at_seq", "dump"}`, or
    /// `None` if nothing has tripped yet.
    #[must_use]
    pub fn incident_json(&self) -> Option<String> {
        self.incident.as_ref().map(|i| {
            let mut out = JsonBuf::new();
            out.raw("{\"reason\": ")
                .string(&i.reason)
                .raw(", \"tripped_at_seq\": ")
                .u64(i.events.heads.total_recorded())
                .raw(", \"dump\": ");
            i.events.write_json(&mut out, usize::MAX, i.trips);
            out.raw("}");
            into_string(out)
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
    use std::collections::VecDeque;
    use std::fmt::Write as _;

    use super::*;
    use crate::json::{self, escape_json};

    fn ev(at: u64, kind: &'static str, tenant: &'static str) -> FlightEvent<'static> {
        FlightEvent {
            seq: 0,
            at,
            kind,
            tenant,
            corr: 0,
            node: NO_FLIGHT_NODE,
            detail: "x",
            magnitude: 1,
        }
    }

    #[test]
    fn ring_evicts_and_accounts_dropped() {
        let mut r = FlightRecorder::new(2);
        for i in 0..5 {
            r.record(ev(i, "request", "t1"));
        }
        assert_eq!(r.events().count(), 2);
        assert_eq!(r.total_recorded(), 5);
        assert_eq!(r.dropped(), 3);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5], "seq is assigned by the recorder");
        let text = r.to_json(10);
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("dropped").and_then(json::Json::as_f64), Some(3.0));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut r = FlightRecorder::new(0);
        r.record(ev(0, "request", ""));
        assert!(r.begin(ev(1, "request", "")).is_none());
        assert_eq!(r.events().count(), 0);
        assert_eq!(r.total_recorded(), 0);
    }

    /// The dump a `VecDeque` of owned strings keeping the last `capacity`
    /// renders, through the per-field formatting the recorder's writer
    /// replaced. Event `seq` is at `seq - 1`, kind `"k"`, corr `seq`, node
    /// `seq - 2` and magnitude `-seq`.
    fn model_json(model: &VecDeque<(String, String)>, total: u64, trips: u64) -> String {
        let first = total - model.len() as u64 + 1;
        let events: Vec<String> = (first..)
            .zip(model)
            .map(|(seq, (tenant, detail))| {
                format!(
                    "{{\"seq\": {seq}, \"at\": {}, \"kind\": \"k\", \"tenant\": \"{}\", \"corr\": {seq}, \"node\": {}, \"detail\": \"{}\", \"magnitude\": {}}}",
                    seq - 1,
                    escape_json(tenant),
                    seq as i64 - 2,
                    escape_json(detail),
                    -(seq as i64),
                )
            })
            .collect();
        format!(
            "{{\"total_recorded\": {total}, \"dropped\": {}, \"trips\": {trips}, \"events\": [{}]}}",
            total - model.len() as u64,
            events.join(", ")
        )
    }

    /// The model referee: a ring of 5 fed texts of varied lengths — empty,
    /// multi-byte UTF-8, escapes, and one three events' share of the arena
    /// long, so it grows — for twelve laps, every other event's detail
    /// written a character at a time. After every event the dump equals
    /// the model's, and the incident frozen midway equals the dump of that
    /// moment although the arena has been overwritten since.
    #[test]
    fn the_dump_equals_a_model_of_owned_strings() {
        const CAPACITY: usize = 5;
        let long = "ü".repeat(3 * FLIGHT_TEXT_BYTES / 2);
        let texts = ["", "t1", "köln→東京", "say \"hi\"\n", &long, "cells=3"];
        let mut r = FlightRecorder::new(CAPACITY);
        let arena = r.events.arena.len();
        let mut model = VecDeque::new();
        let mut frozen = None;
        for seq in 1..=12 * CAPACITY as u64 {
            let tenant = texts[seq as usize % texts.len()];
            let detail = texts[(seq as usize * 5 + 2) % texts.len()];
            let event = FlightEvent {
                seq: 0,
                at: seq - 1,
                kind: "k",
                tenant,
                corr: seq,
                node: seq as i64 - 2,
                detail,
                magnitude: -(seq as i64),
            };
            if seq % 2 == 0 {
                r.record(event);
            } else {
                let mut text = r
                    .begin(FlightEvent {
                        detail: "",
                        ..event
                    })
                    .unwrap();
                for c in detail.chars() {
                    text.write_char(c).unwrap();
                }
            }
            if model.len() == CAPACITY {
                model.pop_front();
            }
            model.push_back((tenant.to_owned(), detail.to_owned()));
            let trips = u64::from(seq >= 23);
            if seq == 23 {
                r.trip("storm");
                frozen = Some(model_json(&model, seq, trips));
            }
            assert_eq!(
                r.to_json(CAPACITY),
                model_json(&model, seq, trips),
                "seq {seq}"
            );
        }
        assert!(
            r.events.arena.len() > arena,
            "the long text grows the arena"
        );
        assert_eq!(
            r.incident_json().unwrap(),
            format!(
                "{{\"reason\": \"storm\", \"tripped_at_seq\": 23, \"dump\": {}}}",
                frozen.unwrap()
            )
        );
    }

    /// Texts no longer than harpd's longest line, over three laps of
    /// harpd's ring: the arena reserved when the recorder was built holds
    /// them all, wrap gaps included.
    #[test]
    fn texts_as_long_as_harpds_never_grow_the_arena() {
        const CAPACITY: usize = 1024;
        let mut r = FlightRecorder::new(CAPACITY);
        let arena = r.events.arena.len();
        let line = "POST /networks/n00042/adjust -> 409 twelve";
        assert_eq!(line.len(), 42);
        for i in 0..3 * CAPACITY {
            let (tenant, detail) = line.split_at(i % 7);
            r.record(FlightEvent {
                tenant,
                detail: &detail[..detail.len() - i % 13],
                ..ev(i as u64, "request", "")
            });
        }
        assert_eq!(r.events.arena.len(), arena);
        assert_eq!(arena, CAPACITY * FLIGHT_TEXT_BYTES);
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
            detail: "say \"hi\"\n",
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
