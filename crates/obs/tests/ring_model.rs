//! Referee for the one bounded ring: [`harp_obs::Ring`] against a `Vec`
//! that keeps the last *N* items, on every capacity 0–8 and every push
//! count 0–40, with seeded item values and render limits.
//!
//! After each push it compares what the ring hands back, the retained
//! items, `total_recorded`, `dropped`, and the `limit`-tail — both as
//! [`harp_obs::Ring::tail`] yields it and as a span ring's `to_json`
//! renders it.

use harp_obs::json::{parse, Json};
use harp_obs::{Ring, SpanEvent, SpanKind, SpanRing, NO_CORRELATION, NO_NODE};

/// SplitMix64: a seeded stream of item values and render limits.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The model: every item pushed into a ring of capacity `capacity`, of
/// which the ring must retain the last `capacity`.
struct Model {
    capacity: usize,
    kept: Vec<u64>,
    total: u64,
}

impl Model {
    /// Pushes `item`; returns what leaves: the oldest kept item once full,
    /// or `item` itself at capacity 0, which keeps and counts nothing.
    fn push(&mut self, item: u64) -> Option<u64> {
        if self.capacity == 0 {
            return Some(item);
        }
        self.kept.push(item);
        self.total += 1;
        (self.kept.len() > self.capacity).then(|| self.kept.remove(0))
    }

    fn tail(&self, limit: usize) -> &[u64] {
        &self.kept[self.kept.len().saturating_sub(limit)..]
    }
}

fn span(start_asn: u64) -> SpanEvent {
    SpanEvent {
        kind: &SpanKind {
            layer: "model",
            name: "s",
        },
        node: NO_NODE,
        depth: 0,
        start_asn,
        end_asn: start_asn,
        detail: 0,
        corr: NO_CORRELATION,
    }
}

/// `(total_recorded, dropped, start_asn of each span)` of a rendered trace.
fn rendered(json: &str) -> (u64, u64, Vec<u64>) {
    let doc = parse(json).expect("to_json renders valid JSON");
    let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_f64).unwrap() as u64;
    let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
    (
        num(&doc, "total_recorded"),
        num(&doc, "dropped"),
        spans.iter().map(|s| num(s, "start_asn")).collect(),
    )
}

/// Compares the ring (and the span ring fed the same items) with the model,
/// rendering the most recent `limit` items.
fn check(ring: &Ring<u64>, spans: &SpanRing, model: &Model, limit: usize) {
    let ctx = format!("capacity {}, {} pushed", model.capacity, model.total);
    let kept: Vec<u64> = ring.iter().copied().collect();
    assert_eq!(kept, model.kept, "{ctx}: retained items");
    assert_eq!(ring.len(), model.kept.len(), "{ctx}");
    assert_eq!(ring.is_empty(), model.kept.is_empty(), "{ctx}");
    assert_eq!(ring.total_recorded(), model.total, "{ctx}");
    let dropped = model.total - model.kept.len() as u64;
    assert_eq!(ring.dropped(), dropped, "{ctx}: dropped");

    let tail: Vec<u64> = ring.tail(limit).copied().collect();
    assert_eq!(tail, model.tail(limit), "{ctx}: tail({limit})");
    let (total, json_dropped, starts) = rendered(&spans.to_json(limit));
    assert_eq!(starts, model.tail(limit), "{ctx}: to_json({limit})");
    assert_eq!(total, model.total, "{ctx}: rendered total");
    assert_eq!(
        json_dropped,
        model.total - starts.len() as u64,
        "{ctx}: rendered dropped counts evictions and the limit"
    );
}

#[test]
fn ring_matches_a_vec_keeping_the_last_n_items() {
    let mut rng = SplitMix(0x5EED_0042);
    let mut cases = 0;
    for capacity in 0..=8 {
        for pushes in 0..=40 {
            let mut ring = Ring::new(capacity);
            let mut spans = SpanRing::new(capacity);
            let mut model = Model {
                capacity,
                kept: Vec::new(),
                total: 0,
            };
            let limit = |rng: &mut SplitMix| (rng.next() % (capacity as u64 + 2)) as usize;
            check(&ring, &spans, &model, limit(&mut rng));
            for _ in 0..pushes {
                // Values below 2^53 survive the JSON round trip exactly.
                let item = rng.next() >> 11;
                let left = model.push(item);
                assert_eq!(ring.push(item), left, "capacity {capacity}: what leaves");
                spans.push(span(item));
                check(&ring, &spans, &model, limit(&mut rng));
            }
            cases += 1;
        }
    }
    assert_eq!(cases, 9 * 41);
}
