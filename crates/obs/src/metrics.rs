//! Metric snapshots, and the registry the daemon records its own request
//! series in.
//!
//! A [`MetricsSnapshot`] is the one vocabulary every component reports
//! in: counters, gauges and histograms by name, rendered as stable JSON or
//! Prometheus text. The simulator, the control plane and the protocol
//! runner keep each count once, in the stats their callers already read,
//! and render a snapshot from them when one is asked for. The process-wide
//! [`StaticCounter`]s of the library crates fold in with
//! [`MetricsSnapshot::add_counters`].
//!
//! A [`MetricsRegistry`] is for a component with no such stats: `harpd`'s
//! telemetry, which counts requests and observes their latencies. Handles
//! ([`CounterId`], [`HistogramId`]) are dense indices handed out at
//! registration, so recording is one bounds-checked array access.

use crate::json::escape_json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Power-of-two bucket bounds for slot-latency histograms, `1..=2^20`
/// (inclusive upper bounds; one implicit overflow bucket above).
///
/// Shared by the simulator's metrics histogram and the streaming stats
/// collector so both resolve percentiles over the same ladder. The top
/// bound covers a packet sitting queued for a million slots — beyond any
/// latency the experiments produce — so real observations never land in
/// the overflow bucket, where percentile estimates degrade to the max.
pub const LATENCY_SLOT_BOUNDS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131_072,
    262_144, 524_288, 1_048_576,
];

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone)]
struct Histogram {
    name: &'static str,
    /// Ascending inclusive upper bounds; one implicit overflow bucket above.
    bounds: &'static [u64],
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Named counters and histograms, recorded through pre-registered handles.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) a counter. Registration is idempotent per name.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|&(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a histogram over `bounds` (ascending inclusive
    /// upper bucket bounds; values above the last bound land in an implicit
    /// overflow bucket).
    pub fn histogram(&mut self, name: &'static str, bounds: &'static [u64]) -> HistogramId {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "ascending bounds");
        if let Some(i) = self.histograms.iter().position(|h| h.name == name) {
            return HistogramId(i);
        }
        self.histograms.push(Histogram {
            name,
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `by` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        let h = &mut self.histograms[id.0];
        let bucket = h
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(h.bounds.len());
        h.counts[bucket] += 1;
        h.count += 1;
        h.sum += u128::from(value);
        h.min = h.min.min(value);
        h.max = h.max.max(value);
    }

    /// Snapshots every metric into an owned, name-sorted view.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for &(name, v) in &self.counters {
            snap.counters.insert(name.to_owned(), v);
        }
        for h in &self.histograms {
            snap.histograms.insert(
                h.name.to_owned(),
                HistogramSnapshot {
                    bounds: h.bounds.to_vec(),
                    counts: h.counts.clone(),
                    count: h.count,
                    sum: h.sum,
                    min: if h.count == 0 { 0 } else { h.min },
                    max: h.max,
                },
            );
        }
        snap
    }
}

/// One histogram's frozen state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds (ascending).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u128,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observed value; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`), linearly interpolated within the
    /// bucket holding rank `ceil(q * count)`: observations in a bucket are
    /// assumed uniform over `(lower, upper]`, so a rank `k` of `n` resolves
    /// to `lower + width * k / n` (integer arithmetic), clamped into the
    /// exactly-recorded `[min, max]`. Overflow-bucket ranks interpolate up
    /// to `max`. An empty histogram reports 0. Deterministic.
    ///
    /// Without interpolation, every quantile collapses to its bucket's
    /// upper bound — with exponentially spaced bounds that overstates p50
    /// by up to 2x and makes p50/p95/p99 indistinguishable whenever the
    /// distribution fits a single bucket.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            let below = cumulative;
            cumulative += n;
            if cumulative >= rank {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = match self.bounds.get(i) {
                    Some(&le) => le,
                    None => self.max,
                };
                let width = upper.saturating_sub(lower);
                let into = rank - below; // 1..=n
                let est = lower + (u128::from(width) * u128::from(into) / u128::from(n)) as u64;
                return est.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A frozen, name-sorted set of named metrics (or a merge of several).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up one counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Looks up one gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Folds `other` into `self`: counters add, gauges keep the maximum
    /// (they carry high-water marks when merged across runs), histograms
    /// add bucket-wise when the bounds agree (otherwise only the aggregate
    /// count/sum/min/max fold in).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.gauges {
            let e = self.gauges.entry(name.clone()).or_insert(f64::MIN);
            if v > *e {
                *e = v;
            }
        }
        for (name, h) in &other.histograms {
            let e = self.histograms.entry(name.clone()).or_default();
            if e.count == 0 {
                *e = h.clone();
                continue;
            }
            if e.bounds == h.bounds {
                for (a, b) in e.counts.iter_mut().zip(&h.counts) {
                    *a += b;
                }
            }
            e.min = if h.count == 0 {
                e.min
            } else {
                e.min.min(h.min)
            };
            e.max = e.max.max(h.max);
            e.count += h.count;
            e.sum += h.sum;
        }
    }

    /// Adds a batch of externally collected counter totals (e.g. the
    /// process-wide [`StaticCounter`]s of the library crates).
    pub fn add_counters<I: IntoIterator<Item = (&'static str, u64)>>(&mut self, totals: I) {
        for (name, v) in totals {
            *self.counters.entry(name.to_owned()).or_insert(0) += v;
        }
    }

    /// Renders the snapshot as a stable (name-sorted) JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {v}", escape_json(name)));
        }
        out.push_str("}, \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", escape_json(name), fmt_f64(*v)));
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                escape_json(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                fmt_f64(h.mean()),
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99),
            ));
            for (j, &n) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                match h.bounds.get(j) {
                    Some(&le) => out.push_str(&format!("{{\"le\": {le}, \"n\": {n}}}")),
                    None => out.push_str(&format!("{{\"le\": \"inf\", \"n\": {n}}}")),
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Formats an `f64` as a JSON-valid number (non-finite values become 0).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on an integral f64 prints without a fraction, which is still
        // valid JSON; nothing more to do.
        s
    } else {
        "0".to_owned()
    }
}

/// A process-wide counter for library crates with no instance to own a
/// registry (packing calls, topology generations). Relaxed atomics: totals
/// are exact, ordering across threads is not observable.
#[derive(Debug)]
pub struct StaticCounter(AtomicU64);

impl StaticCounter {
    /// A zeroed counter (usable in `static` items).
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `by`.
    #[inline]
    pub fn add(&self, by: u64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }

    /// The total so far.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for StaticCounter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("a");
        let a2 = r.counter("a");
        assert_eq!(a, a2);
        r.inc(a, 2);
        r.inc(a2, 3);
        assert_eq!(r.snapshot().counter("a"), Some(5));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat", &[10, 100]);
        for v in [1, 10, 11, 1000] {
            r.observe(h, v);
        }
        let snap = r.snapshot();
        let hs = &snap.histograms["lat"];
        assert_eq!(hs.counts, vec![2, 1, 1]);
        assert_eq!((hs.count, hs.min, hs.max), (4, 1, 1000));
        assert_eq!(hs.sum, 1022);
        assert_eq!(hs.mean(), 255.5);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat", &[10, 100, 1000]);
        // 90 observations <= 10, 9 in (10, 100], 1 in (1000, inf).
        for _ in 0..90 {
            r.observe(h, 5);
        }
        for _ in 0..9 {
            r.observe(h, 50);
        }
        r.observe(h, 5000);
        let snap = r.snapshot();
        let hs = &snap.histograms["lat"];
        // Rank 50 of 90 in (0, 10]: 10 * 50 / 90 = 5 — the true value,
        // where bucket-bound resolution would report 10.
        assert_eq!(hs.percentile(0.50), 5);
        // Rank 95 is the 5th of 9 in (10, 100]: 10 + 90 * 5 / 9 = 60.
        assert_eq!(hs.percentile(0.95), 60);
        // Rank 99 is the last of that bucket: its upper bound.
        assert_eq!(hs.percentile(0.99), 100);
        // The tail lands in the overflow bucket: report the exact max.
        assert_eq!(hs.percentile(1.0), 5000);
        // Empty histogram: all zeros.
        assert_eq!(HistogramSnapshot::default().percentile(0.95), 0);
        // Single observation: every quantile is that observation's bucket,
        // clamped into the [min, max] range actually seen.
        let mut r2 = MetricsRegistry::new();
        let h2 = r2.histogram("one", &[64]);
        r2.observe(h2, 7);
        let s2 = r2.snapshot();
        assert_eq!(s2.histograms["one"].percentile(0.5), 7);
    }

    #[test]
    fn snapshot_json_includes_percentiles() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat", &[10, 100]);
        for v in [1, 2, 3, 50] {
            r.observe(h, v);
        }
        let json = r.snapshot().to_json();
        let parsed = crate::json::parse(&json).expect("valid JSON");
        let hist = parsed.get("histograms").and_then(|h| h.get("lat")).unwrap();
        assert_eq!(
            hist.get("p50").and_then(crate::json::Json::as_f64),
            Some(6.0),
            "rank 2 of 3 in (0, 10] interpolates to 6"
        );
        assert_eq!(
            hist.get("p95").and_then(crate::json::Json::as_f64),
            Some(50.0),
            "p95 interpolates past 50 but clamps to the observed max"
        );
        assert_eq!(
            hist.get("p99").and_then(crate::json::Json::as_f64),
            Some(50.0)
        );
    }

    #[test]
    fn empty_histogram_reports_zero_min() {
        let mut r = MetricsRegistry::new();
        r.histogram("h", &[1]);
        let snap = r.snapshot();
        assert_eq!(snap.histograms["h"].min, 0);
        assert_eq!(snap.histograms["h"].mean(), 0.0);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        let c = a.counter("c");
        let h = a.histogram("h", &[5]);
        a.inc(c, 1);
        a.observe(h, 3);
        let mut snap = a.snapshot();
        let mut b = MetricsRegistry::new();
        let c2 = b.counter("c");
        let h2 = b.histogram("h", &[5]);
        b.inc(c2, 4);
        b.observe(h2, 9);
        let mut other = b.snapshot();
        other.gauges.insert("g".to_owned(), 2.0);
        snap.merge(&other);
        snap.merge(&MetricsSnapshot {
            gauges: BTreeMap::from([("g".to_owned(), 1.0)]),
            ..MetricsSnapshot::default()
        });
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.gauge("g"), Some(2.0), "gauges keep the maximum");
        let hs = &snap.histograms["h"];
        assert_eq!(hs.counts, vec![1, 1]);
        assert_eq!((hs.count, hs.min, hs.max), (2, 3, 9));
    }

    #[test]
    fn add_counters_folds_static_totals() {
        let mut snap = MetricsSnapshot::default();
        snap.add_counters([("pack.calls", 3), ("pack.calls", 2)]);
        assert_eq!(snap.counter("pack.calls"), Some(5));
    }

    #[test]
    fn snapshot_json_is_stable_and_parseable() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("z.count");
        let c2 = r.counter("a.count");
        let h = r.histogram("h", &[2]);
        r.inc(c, 1);
        r.inc(c2, 2);
        r.observe(h, 1);
        r.observe(h, 3);
        let mut snap = r.snapshot();
        snap.gauges.insert("g".to_owned(), 1.5);
        let json = snap.to_json();
        // Name-sorted: "a.count" precedes "z.count".
        assert!(json.find("a.count").unwrap() < json.find("z.count").unwrap());
        let parsed = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("a.count"))
                .and_then(crate::json::Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("g"))
                .and_then(crate::json::Json::as_f64),
            Some(1.5)
        );
    }

    #[test]
    fn static_counter_accumulates() {
        static C: StaticCounter = StaticCounter::new();
        C.add(2);
        C.add(3);
        assert!(C.get() >= 5);
    }

    #[test]
    fn fmt_f64_guards_non_finite() {
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
        assert_eq!(fmt_f64(2.5), "2.5");
        assert_eq!(fmt_f64(3.0), "3");
    }
}
