//! Trace analysis: folding [`SpanRing`](crate::SpanRing) dumps into
//! renderable views.
//!
//! PR 3 left the span ring readable only as raw JSON; this module is the
//! instrument built on top of it. A trace — the `"trace_sample"` section of
//! any `BENCH_*.json`, or a live ring — folds into:
//!
//! * a **text flame view** ([`text_flame`]): span-slot mass aggregated per
//!   `layer/name`, per node and per tree depth, with proportional bars —
//!   adjustment storms and retransmission bursts legible at a glance;
//! * **collapsed stacks** ([`collapsed_stacks`]): the
//!   `frame;frame;frame count` format consumed by inferno /
//!   `flamegraph.pl`;
//! * **Chrome trace events** ([`chrome_trace`]): a JSON array of complete
//!   (`"ph": "X"`) events loadable in `chrome://tracing` / Perfetto —
//!   node → pid (shifted by one so the network-wide pseudo-node is pid 0),
//!   layer → tid (lexicographic rank), ASN → microseconds via the slot
//!   duration;
//! * a **slotframe-utilization heatmap** ([`utilization_heatmap`]): span
//!   mass per (layer × time-bucket), text-rendered with a density ramp;
//! * an **adjustment-storm report** ([`detect_storms`], [`storm_report`]):
//!   windows where adjustment-class spans from at least `k` distinct nodes
//!   overlap in slotframe time, with the cell/message bill each storm ran
//!   up.
//!
//! Every renderer is deterministic: aggregation uses ordered maps, ties
//! break on explicit keys, and no wall clock or randomness is involved —
//! the same trace bytes always produce the same view bytes.

use crate::json::{escape_json, Json};
use crate::span::{SpanEvent, NO_NODE};
use std::collections::BTreeMap;

/// Span names that count as *adjustment-class* for storm detection: the
/// runner's settled adjustments and the raw change requests experiments
/// inject mid-run.
pub const ADJUSTMENT_SPAN_NAMES: &[&str] = &["adjust", "change"];

/// One span as read back from a trace document (owned strings — the
/// declared [`SpanKind`](crate::SpanKind) of a [`SpanEvent`] does not
/// survive parsing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// What happened (`"slotframe"`, `"adjust"`, ...).
    pub name: String,
    /// The subsystem that recorded it (`"sim"`, `"transport"`, `"harp"`).
    pub layer: String,
    /// Node id, or -1 for network-wide spans.
    pub node: i64,
    /// Tree depth of the node (0 for network-wide spans and the gateway).
    pub depth: u32,
    /// First ASN of the interval.
    pub start_asn: u64,
    /// Last ASN of the interval (inclusive).
    pub end_asn: u64,
    /// Free-form magnitude (messages, cells, attempts, ...).
    pub detail: i64,
    /// Correlation id of the request that caused the span (0 when the span
    /// was recorded outside any request scope, and for old traces).
    pub corr: u64,
}

impl TraceSpan {
    /// The span's mass in slots (inclusive interval length; an
    /// instantaneous event weighs one slot).
    #[must_use]
    pub fn slot_mass(&self) -> u64 {
        self.end_asn.saturating_sub(self.start_asn) + 1
    }

    /// Stable node label: `"net"` for network-wide spans, else `"N<id>"`.
    #[must_use]
    pub(crate) fn node_label(&self) -> String {
        if self.node < 0 {
            "net".to_owned()
        } else {
            format!("N{}", self.node)
        }
    }

    /// Converts a live [`SpanEvent`] (no JSON round-trip needed).
    #[must_use]
    pub fn from_event(e: &SpanEvent) -> Self {
        Self {
            name: e.kind.name.to_owned(),
            layer: e.kind.layer.to_owned(),
            node: if e.node == NO_NODE {
                -1
            } else {
                i64::from(e.node)
            },
            depth: e.depth,
            start_asn: e.start_asn,
            end_asn: e.end_asn,
            detail: e.detail,
            corr: e.corr,
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("span missing numeric field {key:?}"))
        };
        let text = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("span missing string field {key:?}"))
        };
        let start_asn = num("start_asn")? as u64;
        let end_asn = num("end_asn")? as u64;
        if end_asn < start_asn {
            return Err(format!("span interval inverted: {start_asn}..{end_asn}"));
        }
        Ok(Self {
            name: text("name")?,
            layer: text("layer")?,
            node: num("node")? as i64,
            // Traces written before spans carried tree depth fold into
            // depth 0 rather than failing.
            depth: v.get("depth").and_then(Json::as_f64).unwrap_or(0.0) as u32,
            start_asn,
            end_asn,
            detail: num("detail")? as i64,
            // Absent in traces written before request-scoped tracing.
            corr: v.get("corr").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        })
    }
}

/// A parsed trace: the spans plus the ring's truncation accounting.
#[derive(Debug, Clone, Default)]
pub struct TraceDoc {
    /// The retained spans, in document order.
    pub spans: Vec<TraceSpan>,
    /// Spans ever recorded by the producing ring (0 when the source format
    /// predates the accounting).
    pub total_recorded: u64,
    /// Spans recorded but absent from `spans` (ring evictions plus render
    /// limits). A nonzero value means the trace is a *tail*, not the whole
    /// run.
    pub dropped: u64,
}

impl TraceDoc {
    /// Extracts a trace from any of the shapes the workspace writes:
    ///
    /// * a whole benchmark report with a `"trace_sample"` section,
    /// * a standalone `{"total_recorded", "dropped", "spans": [...]}`
    ///   object (the [`SpanRing::to_json`](crate::SpanRing::to_json)
    ///   shape),
    /// * a bare JSON array of spans (the pre-accounting format).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/malformed field when the
    /// document holds no recognisable trace.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        if let Some(section) = doc.get("trace_sample") {
            return Self::from_json(section);
        }
        let (spans_json, total, dropped) = if let Some(arr) = doc.as_arr() {
            (arr, None, None)
        } else if let Some(spans) = doc.get("spans").and_then(Json::as_arr) {
            (
                spans,
                doc.get("total_recorded").and_then(Json::as_f64),
                doc.get("dropped").and_then(Json::as_f64),
            )
        } else {
            return Err(
                "no trace found: expected a span array, a {\"spans\": [...]} object, \
                 or a report with a \"trace_sample\" section"
                    .to_owned(),
            );
        };
        let spans = spans_json
            .iter()
            .map(TraceSpan::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let total_recorded = total.unwrap_or(spans.len() as f64) as u64;
        Ok(Self {
            dropped: dropped.unwrap_or(0.0) as u64,
            total_recorded,
            spans,
        })
    }

    /// Parses a trace from raw text (see [`TraceDoc::from_json`]).
    ///
    /// # Errors
    ///
    /// Propagates JSON and shape errors as messages.
    pub fn parse_str(text: &str) -> Result<Self, String> {
        let doc = crate::json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&doc)
    }

    /// Builds a trace from live span events (no serialisation round-trip).
    #[must_use]
    pub fn from_events<'a, I: IntoIterator<Item = &'a SpanEvent>>(events: I) -> Self {
        let spans: Vec<TraceSpan> = events.into_iter().map(TraceSpan::from_event).collect();
        Self {
            total_recorded: spans.len() as u64,
            dropped: 0,
            spans,
        }
    }

    /// One-line provenance banner: how much of the run this trace holds.
    #[must_use]
    pub fn coverage_banner(&self) -> String {
        if self.dropped == 0 {
            format!("complete trace: {} spans", self.spans.len())
        } else {
            format!(
                "TRUNCATED trace: {} of {} recorded spans retained ({} dropped by the ring bound)",
                self.spans.len(),
                self.total_recorded,
                self.dropped
            )
        }
    }
}

/// Folds spans into the collapsed-stack format consumed by inferno /
/// `flamegraph.pl`: one `layer;name;node mass` line per distinct stack,
/// lexicographically sorted. Mass is span-slots ([`TraceSpan::slot_mass`]),
/// so the x-axis of the rendered flamegraph is simulated time, not sample
/// counts.
#[must_use]
pub fn collapsed_stacks(spans: &[TraceSpan]) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let stack = format!("{};{};{}", s.layer, s.name, s.node_label());
        *folded.entry(stack).or_insert(0) += s.slot_mass();
    }
    let mut out = String::new();
    for (stack, mass) in folded {
        out.push_str(&format!("{stack} {mass}\n"));
    }
    out
}

/// Renders spans as a Chrome trace-event JSON array (loadable in
/// `chrome://tracing` and Perfetto): every span becomes one complete
/// (`"ph": "X"`) event with
///
/// * `pid` = node id + 1 (the network-wide pseudo-node is pid 0),
/// * `tid` = the layer's lexicographic rank among the layers present,
/// * `ts`/`dur` = ASN × `slot_us` (slot duration in microseconds — 10000
///   for the paper's 10 ms slots),
/// * `cat` = layer, and `args` carrying the raw node/depth/detail.
///
/// Events are sorted by `(ts, pid, tid, name)`; the output is a pure JSON
/// array of complete events, nothing else, so it validates structurally by
/// parsing and checking every element's `"ph"`.
#[must_use]
pub fn chrome_trace(spans: &[TraceSpan], slot_us: u64) -> String {
    let mut layers: Vec<&str> = spans.iter().map(|s| s.layer.as_str()).collect();
    layers.sort_unstable();
    layers.dedup();
    let tid_of = |layer: &str| layers.binary_search(&layer).unwrap_or(0);

    let mut ordered: Vec<&TraceSpan> = spans.iter().collect();
    ordered.sort_by(|a, b| {
        (a.start_asn, a.node, tid_of(&a.layer), &a.name).cmp(&(
            b.start_asn,
            b.node,
            tid_of(&b.layer),
            &b.name,
        ))
    });

    let mut out = String::from("[");
    for (i, s) in ordered.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n ");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{\"node\": {}, \"depth\": {}, \"detail\": {}}}}}",
            escape_json(&s.name),
            escape_json(&s.layer),
            s.start_asn * slot_us,
            s.slot_mass() * slot_us,
            s.node + 1,
            tid_of(&s.layer),
            s.node,
            s.depth,
            s.detail,
        ));
    }
    out.push_str("]\n");
    out
}

/// One aggregated flame row: label plus accumulated slot mass.
fn fold_by<F: Fn(&TraceSpan) -> String>(spans: &[TraceSpan], key: F) -> Vec<(String, u64)> {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        *folded.entry(key(s)).or_insert(0) += s.slot_mass();
    }
    let mut rows: Vec<(String, u64)> = folded.into_iter().collect();
    // Heaviest first; ties break on the label (already unique).
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

const BAR_WIDTH: u64 = 40;

fn render_rows(out: &mut String, title: &str, rows: &[(String, u64)]) {
    let max = rows.iter().map(|r| r.1).max().unwrap_or(0).max(1);
    let label_width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0).max(8);
    out.push_str(&format!("## {title}\n"));
    for (label, mass) in rows {
        let bar = "#".repeat((mass * BAR_WIDTH / max).max(1) as usize);
        out.push_str(&format!("{label:<label_width$} {mass:>10} {bar}\n"));
    }
    out.push('\n');
}

/// The flamegraph-style text view: span-slot mass aggregated per
/// `layer/name`, per node, and per tree depth, each section sorted
/// heaviest-first with proportional `#` bars. The one view that needs no
/// external tool — adjustment storms show up as heavy `harp/adjust` rows
/// and retransmission bursts as heavy `transport/retx` rows.
#[must_use]
pub fn text_flame(spans: &[TraceSpan]) -> String {
    let total: u64 = spans.iter().map(TraceSpan::slot_mass).sum();
    let mut out = format!(
        "# flame view: {} spans, {} span-slots total\n\n",
        spans.len(),
        total
    );
    if spans.is_empty() {
        return out;
    }
    render_rows(
        &mut out,
        "by layer/name (span-slots)",
        &fold_by(spans, |s| format!("{}/{}", s.layer, s.name)),
    );
    render_rows(
        &mut out,
        "by node (span-slots)",
        &fold_by(spans, TraceSpan::node_label),
    );
    render_rows(
        &mut out,
        "by tree depth (span-slots)",
        &fold_by(spans, |s| format!("L{}", s.depth)),
    );
    out
}

/// Density ramp for the heatmap, lightest to heaviest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders slotframe utilization as a (layer × time-bucket) text heatmap:
/// the trace's ASN range is split into `cols` equal buckets, each span's
/// mass is distributed over the buckets it overlaps (integer slot overlap,
/// no fractional attribution), and each cell renders a ramp character
/// scaled by the heaviest cell. Row order is lexicographic by layer.
#[must_use]
pub fn utilization_heatmap(spans: &[TraceSpan], cols: usize) -> String {
    let cols = cols.max(1);
    if spans.is_empty() {
        return "# heatmap: empty trace\n".to_owned();
    }
    let lo = spans.iter().map(|s| s.start_asn).min().unwrap_or(0);
    let hi = spans.iter().map(|s| s.end_asn).max().unwrap_or(0);
    let range = hi - lo + 1;
    let bucket_slots = range.div_ceil(cols as u64).max(1);
    let cols = range.div_ceil(bucket_slots) as usize;

    let mut rows: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        let cells = rows
            .entry(s.layer.as_str())
            .or_insert_with(|| vec![0; cols]);
        let first = ((s.start_asn - lo) / bucket_slots) as usize;
        let last = ((s.end_asn - lo) / bucket_slots) as usize;
        for (b, cell) in cells.iter_mut().enumerate().take(last + 1).skip(first) {
            let b_start = lo + b as u64 * bucket_slots;
            let b_end = b_start + bucket_slots - 1;
            let overlap = s.end_asn.min(b_end) - s.start_asn.max(b_start) + 1;
            *cell += overlap;
        }
    }
    let max_cell = rows
        .values()
        .flat_map(|cells| cells.iter().copied())
        .max()
        .unwrap_or(0)
        .max(1);
    let label_width = rows.keys().map(|k| k.len()).max().unwrap_or(5).max(5);

    let mut out = format!(
        "# utilization heatmap: ASN {lo}..{hi}, {bucket_slots} slots/bucket, peak {max_cell} span-slots/cell\n"
    );
    for (layer, cells) in &rows {
        out.push_str(&format!("{layer:>label_width$} |"));
        for &mass in cells {
            let idx = if mass == 0 {
                0
            } else {
                // Nonzero mass never renders as blank: clamp up to '.'.
                (((mass * (RAMP.len() as u64 - 1)) / max_cell) as usize).max(1)
            };
            out.push(RAMP[idx] as char);
        }
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "{:>label_width$} ^ASN {lo} (each column = {bucket_slots} slots)\n",
        ""
    ));
    out
}

/// One detected adjustment storm: a maximal window where adjustment-class
/// spans from at least `k` distinct nodes overlapped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Storm {
    /// First ASN of the window.
    pub start_asn: u64,
    /// Last ASN of the window (inclusive).
    pub end_asn: u64,
    /// Distinct nodes whose adjustment spans touch the window, ascending.
    pub nodes: Vec<i64>,
    /// Adjustment-class spans overlapping the window.
    pub span_count: usize,
    /// The storm's bill: the summed `detail` of the overlapping spans
    /// (messages for `adjust` spans, cells for `change` spans).
    pub bill: i64,
}

/// Finds maximal windows where adjustment-class spans
/// ([`ADJUSTMENT_SPAN_NAMES`]) from at least `k` distinct nodes are
/// simultaneously active. A sweep over interval boundaries tracks the set
/// of active nodes; a window opens when the distinct count reaches `k` and
/// closes when it falls below. Returns storms in time order.
#[must_use]
pub fn detect_storms(spans: &[TraceSpan], k: usize) -> Vec<Storm> {
    let k = k.max(1);
    let adjusting: Vec<&TraceSpan> = spans
        .iter()
        .filter(|s| ADJUSTMENT_SPAN_NAMES.contains(&s.name.as_str()))
        .collect();
    if adjusting.is_empty() {
        return Vec::new();
    }
    // Boundary sweep: +1 at start_asn, -1 just past end_asn. Starts sort
    // before ends at the same ASN so touching intervals count as
    // overlapping for the slot they share.
    let mut bounds: Vec<(u64, i8, i64)> = Vec::with_capacity(adjusting.len() * 2);
    for s in &adjusting {
        bounds.push((s.start_asn, 0, s.node));
        bounds.push((s.end_asn + 1, 1, s.node));
    }
    bounds.sort_unstable();

    let mut active: BTreeMap<i64, usize> = BTreeMap::new();
    let mut open_at: Option<u64> = None;
    let mut windows: Vec<(u64, u64)> = Vec::new();
    for (asn, kind, node) in bounds {
        if kind == 0 {
            *active.entry(node).or_insert(0) += 1;
            if active.len() >= k && open_at.is_none() {
                open_at = Some(asn);
            }
        } else {
            if let Some(n) = active.get_mut(&node) {
                *n -= 1;
                if *n == 0 {
                    active.remove(&node);
                }
            }
            if active.len() < k {
                if let Some(start) = open_at.take() {
                    windows.push((start, asn - 1));
                }
            }
        }
    }
    if let Some(start) = open_at {
        let end = adjusting.iter().map(|s| s.end_asn).max().unwrap_or(start);
        windows.push((start, end));
    }

    windows
        .into_iter()
        .map(|(start, end)| {
            let overlapping: Vec<&&TraceSpan> = adjusting
                .iter()
                .filter(|s| s.start_asn <= end && s.end_asn >= start)
                .collect();
            let mut nodes: Vec<i64> = overlapping.iter().map(|s| s.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            Storm {
                start_asn: start,
                end_asn: end,
                nodes,
                span_count: overlapping.len(),
                bill: overlapping.iter().map(|s| s.detail).sum(),
            }
        })
        .collect()
}

/// Renders a storm list as a text report (one block per storm, plus a
/// headline count). `k` is echoed so the report is self-describing.
#[must_use]
pub fn storm_report(storms: &[Storm], k: usize) -> String {
    let mut out = format!(
        "# adjustment storms (>= {k} nodes with overlapping adjustment spans): {}\n",
        storms.len()
    );
    for (i, s) in storms.iter().enumerate() {
        let nodes: Vec<String> = s.nodes.iter().map(|n| format!("N{n}")).collect();
        out.push_str(&format!(
            "storm {}: ASN {}..{} ({} slots), {} spans from {} nodes [{}], bill {}\n",
            i,
            s.start_asn,
            s.end_asn,
            s.end_asn - s.start_asn + 1,
            s.span_count,
            s.nodes.len(),
            nodes.join(" "),
            s.bill,
        ));
    }
    out
}

/// Total span-slot mass of a trace — the conserved quantity every fold
/// must preserve (the property tests pin this).
#[must_use]
pub fn total_mass(spans: &[TraceSpan]) -> u64 {
    spans.iter().map(TraceSpan::slot_mass).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &str,
        layer: &str,
        node: i64,
        depth: u32,
        start: u64,
        end: u64,
        detail: i64,
    ) -> TraceSpan {
        TraceSpan {
            name: name.to_owned(),
            layer: layer.to_owned(),
            node,
            depth,
            start_asn: start,
            end_asn: end,
            detail,
            corr: 0,
        }
    }

    #[test]
    fn parses_all_three_source_shapes() {
        let bare = r#"[{"name": "a", "layer": "sim", "node": -1, "start_asn": 0, "end_asn": 4, "detail": 2}]"#;
        let doc = TraceDoc::parse_str(bare).unwrap();
        assert_eq!(doc.spans.len(), 1);
        assert_eq!(doc.dropped, 0);
        assert_eq!(doc.spans[0].depth, 0, "missing depth defaults to 0");

        let object = r#"{"total_recorded": 9, "dropped": 8, "spans": [
            {"name": "a", "layer": "sim", "node": 3, "depth": 2, "start_asn": 5, "end_asn": 5, "detail": 1}]}"#;
        let doc = TraceDoc::parse_str(object).unwrap();
        assert_eq!((doc.total_recorded, doc.dropped), (9, 8));
        assert_eq!(doc.spans[0].depth, 2);
        assert!(doc.coverage_banner().contains("TRUNCATED"));
        assert!(doc.coverage_banner().contains("8 dropped"));

        let report = format!(r#"{{"metrics": {{}}, "trace_sample": {object}}}"#);
        let doc = TraceDoc::parse_str(&report).unwrap();
        assert_eq!(doc.spans.len(), 1);

        assert!(TraceDoc::parse_str("{}").is_err());
        assert!(TraceDoc::parse_str(r#"{"spans": [{"name": "x"}]}"#).is_err());
    }

    #[test]
    fn rejects_inverted_intervals() {
        let bad = r#"[{"name": "a", "layer": "sim", "node": 0, "start_asn": 9, "end_asn": 3, "detail": 0}]"#;
        assert!(TraceDoc::parse_str(bad).unwrap_err().contains("inverted"));
    }

    #[test]
    fn collapsed_stacks_aggregate_and_sort() {
        let spans = vec![
            span("slotframe", "sim", -1, 0, 0, 198, 4),
            span("slotframe", "sim", -1, 0, 199, 397, 4),
            span("adjust", "harp", 7, 2, 50, 249, 12),
        ];
        let out = collapsed_stacks(&spans);
        assert_eq!(out, "harp;adjust;N7 200\nsim;slotframe;net 398\n");
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_complete_events() {
        let spans = vec![
            span("adjust", "harp", 7, 2, 50, 249, 12),
            span("slotframe", "sim", -1, 0, 0, 198, 4),
        ];
        let out = chrome_trace(&spans, 10_000);
        let parsed = crate::json::parse(&out).unwrap();
        let events = parsed.as_arr().unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        }
        // Sorted by ts: the slotframe span starts first.
        assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            events[0].get("pid").and_then(Json::as_f64),
            Some(0.0),
            "network-wide span maps to pid 0"
        );
        assert_eq!(
            events[0].get("dur").and_then(Json::as_f64),
            Some(199.0 * 10_000.0)
        );
        assert_eq!(events[1].get("pid").and_then(Json::as_f64), Some(8.0));
        // tid = lexicographic rank of the layer: harp=0, sim=1.
        assert_eq!(events[1].get("tid").and_then(Json::as_f64), Some(0.0));
        assert_eq!(events[0].get("tid").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("depth"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn text_flame_sections_and_mass() {
        let spans = vec![
            span("slotframe", "sim", -1, 0, 0, 198, 4),
            span("adjust", "harp", 7, 2, 50, 249, 12),
        ];
        let out = text_flame(&spans);
        assert!(out.contains("2 spans, 399 span-slots total"));
        assert!(out.contains("by layer/name"));
        assert!(out.contains("sim/slotframe"));
        assert!(out.contains("by node"));
        assert!(out.contains("N7"));
        assert!(out.contains("by tree depth"));
        assert!(out.contains("L2"));
        assert_eq!(
            text_flame(&[]),
            "# flame view: 0 spans, 0 span-slots total\n\n"
        );
    }

    #[test]
    fn heatmap_buckets_preserve_row_mass() {
        let spans = vec![
            span("slotframe", "sim", -1, 0, 0, 99, 1),
            span("retx", "transport", 3, 1, 90, 109, 1),
        ];
        let out = utilization_heatmap(&spans, 10);
        assert!(out.starts_with("# utilization heatmap: ASN 0..109"));
        let sim_row = out.lines().find(|l| l.contains("sim |")).unwrap();
        let transport_row = out.lines().find(|l| l.contains("transport |")).unwrap();
        // The sim span covers buckets 0..=9 of 11 slots: the first cells are
        // saturated, the tail blank.
        assert!(sim_row.contains('@'));
        assert!(transport_row.chars().filter(|&c| c != ' ').count() > 2);
        assert_eq!(utilization_heatmap(&[], 10), "# heatmap: empty trace\n");
    }

    #[test]
    fn storm_detection_finds_overlap_windows() {
        let spans = vec![
            span("adjust", "harp", 1, 1, 0, 99, 10),
            span("adjust", "harp", 2, 2, 50, 149, 20),
            span("adjust", "harp", 3, 3, 140, 239, 30),
            span("slotframe", "sim", -1, 0, 0, 999, 0),
        ];
        // k=2: nodes 1+2 overlap at 50..99, nodes 2+3 at 140..149.
        let storms = detect_storms(&spans, 2);
        assert_eq!(storms.len(), 2);
        assert_eq!((storms[0].start_asn, storms[0].end_asn), (50, 99));
        assert_eq!(storms[0].nodes, vec![1, 2]);
        assert_eq!(storms[0].bill, 30);
        assert_eq!((storms[1].start_asn, storms[1].end_asn), (140, 149));
        assert_eq!(storms[1].nodes, vec![2, 3]);
        assert_eq!(storms[1].bill, 50);
        // k=3: never three distinct nodes at once.
        assert!(detect_storms(&spans, 3).is_empty());
        // The report renders deterministically.
        let report = storm_report(&storms, 2);
        assert!(report.contains("adjustment storms (>= 2 nodes"));
        assert!(report.contains("storm 0: ASN 50..99 (50 slots)"));
        assert!(report.contains("[N1 N2]"));
    }

    #[test]
    fn storm_window_still_open_at_trace_end_is_closed() {
        let spans = vec![
            span("adjust", "harp", 1, 1, 0, 100, 1),
            span("change", "harp", 2, 2, 40, 100, 2),
        ];
        let storms = detect_storms(&spans, 2);
        assert_eq!(storms.len(), 1);
        assert_eq!((storms[0].start_asn, storms[0].end_asn), (40, 100));
        assert_eq!(storms[0].bill, 3, "change spans count toward the bill");
    }

    #[test]
    fn folding_preserves_total_mass() {
        let spans = vec![
            span("a", "x", 1, 1, 0, 10, 0),
            span("b", "x", 2, 1, 5, 5, 0),
            span("a", "y", -1, 0, 100, 199, 0),
        ];
        let total = total_mass(&spans);
        let collapsed: u64 = collapsed_stacks(&spans)
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(collapsed, total);
    }
}
