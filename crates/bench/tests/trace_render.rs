//! Renders the committed trace artefacts through the `harp_trace` views
//! and pins the acceptance properties: every committed report's
//! `trace_sample` parses, every view renders byte-identically across
//! repeated renders (pure functions of the trace), and the Chrome export
//! validates as a JSON array of complete events.

use harp_obs::flame::{chrome_trace, collapsed_stacks, text_flame, utilization_heatmap, TraceDoc};
use harp_obs::json::{parse, Json};

/// Committed workspace-root reports that carry a renderable trace. (The
/// simulator bench's `BENCH_trace_sample.json` is git-ignored: a clean
/// checkout does not have it, and CI renders it right after producing it.)
const TRACE_FILES: [&str; 5] = [
    "BENCH_simulator.json",
    "BENCH_mgmt_loss.json",
    "BENCH_fig9.json",
    "BENCH_fig10.json",
    "BENCH_table2.json",
];

fn read_root(file: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {file}: {e}"))
}

#[test]
fn every_committed_trace_renders_deterministically() {
    for file in TRACE_FILES {
        let doc = TraceDoc::parse_str(&read_root(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(!doc.spans.is_empty(), "{file}: empty trace sample");

        // Pure functions of the spans: two renders must agree byte-for-byte.
        for _ in 0..2 {
            assert_eq!(collapsed_stacks(&doc.spans), collapsed_stacks(&doc.spans));
            assert_eq!(
                chrome_trace(&doc.spans, 10_000),
                chrome_trace(&doc.spans, 10_000)
            );
            assert_eq!(text_flame(&doc.spans), text_flame(&doc.spans));
            assert_eq!(
                utilization_heatmap(&doc.spans, 64),
                utilization_heatmap(&doc.spans, 64)
            );
        }

        // The flame header and the collapsed masses agree on the total.
        let total: u64 = doc
            .spans
            .iter()
            .map(harp_obs::flame::TraceSpan::slot_mass)
            .sum();
        let collapsed_total: u64 = collapsed_stacks(&doc.spans)
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(collapsed_total, total, "{file}: fold lost mass");
    }
}

#[test]
fn committed_chrome_exports_are_complete_event_arrays() {
    for file in TRACE_FILES {
        let doc = TraceDoc::parse_str(&read_root(file)).unwrap();
        let chrome = chrome_trace(&doc.spans, 10_000);
        let parsed = parse(&chrome).unwrap_or_else(|e| panic!("{file}: chrome export: {e}"));
        let events = parsed
            .as_arr()
            .unwrap_or_else(|| panic!("{file}: not an array"));
        assert_eq!(events.len(), doc.spans.len(), "{file}: event count");
        let mut last_ts = f64::MIN;
        for e in events {
            assert_eq!(
                e.get("ph").and_then(Json::as_str),
                Some("X"),
                "{file}: incomplete event"
            );
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            assert!(ts >= last_ts, "{file}: events out of ts order");
            last_ts = ts;
            assert!(e.get("dur").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(e.get("pid").and_then(Json::as_f64).unwrap() >= 0.0);
        }
    }
}

#[test]
fn truncation_accounting_survives_the_report_round_trip() {
    // The simulator bench writes its ring with a render limit; the parsed
    // doc must state the truncation rather than silently posing as the
    // whole run.
    let doc = TraceDoc::parse_str(&read_root("BENCH_simulator.json")).unwrap();
    assert_eq!(
        doc.total_recorded,
        doc.spans.len() as u64 + doc.dropped,
        "spans + dropped must account for every recorded span"
    );
    if doc.dropped > 0 {
        assert!(doc.coverage_banner().contains("TRUNCATED"));
    }
}
