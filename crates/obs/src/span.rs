//! Slotframe-time trace spans.
//!
//! A span is an interval of simulated time — stamped with its start and end
//! ASN — labelled with the subsystem ("layer") that produced it, the node it
//! concerns (or [`NO_NODE`] for network-wide events), the node's tree depth
//! (the HARP layer the event folds into) and a free-form integer detail
//! (messages exchanged, cells moved, transmissions attempted).
//! Spans land in a bounded [`Ring`] so steady-state recording never
//! allocates unboundedly; experiments keep the tail that explains *why* the
//! run ended the way it did.

use crate::Ring;
use core::fmt;

/// Sentinel node id for network-wide spans.
pub const NO_NODE: u32 = u32::MAX;

/// Correlation id meaning "not caused by any tracked request".
pub const NO_CORRELATION: u64 = 0;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// What happened (e.g. `"slotframe"`, `"adjust"`, `"retx"`).
    pub name: &'static str,
    /// Which subsystem recorded it (e.g. `"sim"`, `"transport"`, `"harp"`).
    pub layer: &'static str,
    /// The node concerned, or [`NO_NODE`].
    pub node: u32,
    /// Tree depth of the node concerned (the HARP layer the event belongs
    /// to); 0 for network-wide events and the gateway.
    pub depth: u32,
    /// First ASN of the interval.
    pub start_asn: u64,
    /// Last ASN of the interval (inclusive; equal to `start_asn` for
    /// instantaneous events).
    pub end_asn: u64,
    /// Free-form magnitude (messages, cells, attempts, ...).
    pub detail: i64,
    /// Correlation id stitching this span to the request that caused it
    /// ([`NO_CORRELATION`] when recorded outside any request scope).
    pub corr: u64,
}

impl SpanEvent {
    /// The span's *mass* in slots: the number of slots the inclusive
    /// interval covers (`end - start + 1`). Flame folding aggregates mass,
    /// so instantaneous events still weigh one slot.
    #[must_use]
    pub fn slot_mass(&self) -> u64 {
        self.end_asn.saturating_sub(self.start_asn) + 1
    }

    /// Renders this span as one JSON object (the element shape of
    /// [`SpanRing::to_json`]). The `corr` field is emitted only when the
    /// span belongs to a request scope, so traces recorded outside any
    /// request (every batch experiment) keep their exact byte shape.
    #[must_use]
    pub fn to_json(&self) -> String {
        let corr = if self.corr == NO_CORRELATION {
            String::new()
        } else {
            format!(", \"corr\": {}", self.corr)
        };
        format!(
            "{{\"name\": \"{}\", \"layer\": \"{}\", \"node\": {}, \"depth\": {}, \"start_asn\": {}, \"end_asn\": {}, \"detail\": {}{corr}}}",
            self.name,
            self.layer,
            if self.node == NO_NODE { -1 } else { i64::from(self.node) },
            self.depth,
            self.start_asn,
            self.end_asn,
            self.detail,
        )
    }
}

impl fmt::Display for SpanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}..{}] {}/{}",
            self.start_asn, self.end_asn, self.layer, self.name
        )?;
        if self.node != NO_NODE {
            write!(f, " N{}@L{}", self.node, self.depth)?;
        }
        write!(f, " detail={}", self.detail)?;
        if self.corr != NO_CORRELATION {
            write!(f, " corr={}", self.corr)?;
        }
        Ok(())
    }
}

/// Renders a batch of spans as a self-describing JSON object:
/// `{"total_recorded": T, "dropped": D, "spans": [...]}`, where `dropped`
/// counts spans recorded but *not* present in the array (evicted by a ring
/// bound or cut by a render limit) — so a truncated trace can never be
/// mistaken for a complete one.
#[must_use]
pub fn spans_to_json<'a, I>(events: I, total_recorded: u64) -> String
where
    I: IntoIterator<Item = &'a SpanEvent>,
{
    let mut body = String::new();
    let mut rendered = 0u64;
    for e in events {
        if rendered > 0 {
            body.push_str(", ");
        }
        body.push_str(&e.to_json());
        rendered += 1;
    }
    let dropped = total_recorded.saturating_sub(rendered);
    format!("{{\"total_recorded\": {total_recorded}, \"dropped\": {dropped}, \"spans\": [{body}]}}")
}

/// A bounded ring of spans (capacity 0 records nothing).
pub type SpanRing = Ring<SpanEvent>;

impl Ring<SpanEvent> {
    /// Retained spans with one name.
    pub fn named(&self, name: &'static str) -> impl Iterator<Item = &SpanEvent> + '_ {
        self.iter().filter(move |e| e.name == name)
    }

    /// Renders up to `limit` of the most recent spans as a JSON object
    /// `{"total_recorded", "dropped", "spans"}` — `dropped` states how many
    /// recorded spans the output does *not* contain (ring evictions plus
    /// the render limit), so consumers can tell a truncated trace from a
    /// complete one.
    #[must_use]
    pub fn to_json(&self, limit: usize) -> String {
        spans_to_json(self.tail(limit), self.total_recorded())
    }
}

/// Merges the retained spans of several rings into one JSON trace document
/// (same shape as [`SpanRing::to_json`]), ordered by `(start_asn, end_asn,
/// layer, name, node)` so the merge is deterministic regardless of ring
/// order. The union's `total_recorded` is the sum over the rings, so the
/// `dropped` count carries across the merge.
#[must_use]
pub fn merged_trace_json(rings: &[&SpanRing], limit: usize) -> String {
    let mut all: Vec<&SpanEvent> = rings.iter().flat_map(|r| r.iter()).collect();
    all.sort_by_key(|e| (e.start_asn, e.end_asn, e.layer, e.name, e.node));
    let skip = all.len().saturating_sub(limit);
    let total: u64 = rings.iter().map(|r| r.total_recorded()).sum();
    spans_to_json(all.into_iter().skip(skip), total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, layer: &'static str, start: u64) -> SpanEvent {
        SpanEvent {
            name,
            layer,
            node: 2,
            depth: 3,
            start_asn: start,
            end_asn: start + 5,
            detail: 7,
            corr: NO_CORRELATION,
        }
    }

    #[test]
    fn filters_by_name() {
        let mut r = SpanRing::new(8);
        r.push(ev("a", "sim", 0));
        r.push(ev("b", "transport", 1));
        r.push(ev("a", "harp", 2));
        assert_eq!(r.named("a").count(), 2);
    }

    #[test]
    fn display_and_mass() {
        let e = ev("adjust", "harp", 100);
        assert_eq!(e.slot_mass(), 6);
        assert_eq!(e.to_string(), "[100..105] harp/adjust N2@L3 detail=7");
        let net = SpanEvent { node: NO_NODE, ..e };
        assert_eq!(net.to_string(), "[100..105] harp/adjust detail=7");
        let point = SpanEvent { end_asn: 100, ..e };
        assert_eq!(point.slot_mass(), 1);
    }

    #[test]
    fn json_keeps_most_recent_limit_and_counts_dropped() {
        let mut r = SpanRing::new(8);
        for i in 0..5 {
            r.push(ev("a", "sim", i));
        }
        let json = r.to_json(2);
        let parsed = crate::json::parse(&json).unwrap();
        assert_eq!(
            parsed
                .get("total_recorded")
                .and_then(crate::json::Json::as_f64),
            Some(5.0)
        );
        assert_eq!(
            parsed.get("dropped").and_then(crate::json::Json::as_f64),
            Some(3.0),
            "2 rendered of 5 recorded -> 3 dropped"
        );
        let arr = parsed
            .get("spans")
            .and_then(crate::json::Json::as_arr)
            .unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("start_asn").and_then(crate::json::Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            arr[0].get("depth").and_then(crate::json::Json::as_f64),
            Some(3.0)
        );
        // NO_NODE serialises as -1.
        let mut r2 = SpanRing::new(2);
        r2.push(SpanEvent {
            node: NO_NODE,
            ..ev("a", "sim", 0)
        });
        let text = r2.to_json(10);
        let parsed = crate::json::parse(&text).unwrap();
        let spans = parsed
            .get("spans")
            .and_then(crate::json::Json::as_arr)
            .unwrap();
        assert_eq!(
            spans[0].get("node").and_then(crate::json::Json::as_f64),
            Some(-1.0)
        );
        assert_eq!(
            parsed.get("dropped").and_then(crate::json::Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn eviction_counts_as_dropped_even_without_limit() {
        let mut r = SpanRing::new(2);
        for i in 0..6 {
            r.push(ev("a", "sim", i));
        }
        let text = r.to_json(100);
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("total_recorded")
                .and_then(crate::json::Json::as_f64),
            Some(6.0)
        );
        assert_eq!(
            parsed.get("dropped").and_then(crate::json::Json::as_f64),
            Some(4.0)
        );
    }

    #[test]
    fn merged_trace_orders_by_time_across_rings() {
        let mut a = SpanRing::new(8);
        let mut b = SpanRing::new(8);
        a.push(ev("a", "sim", 10));
        b.push(ev("b", "harp", 0));
        b.push(ev("c", "harp", 20));
        let json = merged_trace_json(&[&a, &b], 100);
        let parsed = crate::json::parse(&json).unwrap();
        let spans = parsed
            .get("spans")
            .and_then(crate::json::Json::as_arr)
            .unwrap();
        let starts: Vec<f64> = spans
            .iter()
            .map(|s| {
                s.get("start_asn")
                    .and_then(crate::json::Json::as_f64)
                    .unwrap()
            })
            .collect();
        assert_eq!(starts, vec![0.0, 10.0, 20.0]);
        assert_eq!(
            parsed
                .get("total_recorded")
                .and_then(crate::json::Json::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn correlation_serialises_only_when_set() {
        let anon = ev("a", "sim", 0);
        assert!(!anon.to_json().contains("corr"), "{}", anon.to_json());
        assert!(!anon.to_string().contains("corr"));
        let scoped = SpanEvent { corr: 42, ..anon };
        assert!(
            scoped.to_json().ends_with("\"corr\": 42}"),
            "{}",
            scoped.to_json()
        );
        assert!(scoped.to_string().ends_with("corr=42"));
        let text = scoped.to_json();
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("corr").and_then(crate::json::Json::as_f64),
            Some(42.0)
        );
    }
}
