//! `harp_trace` — renders a recorded span trace into human- and
//! tool-readable views: a flamegraph-style text view, the collapsed-stack
//! format understood by inferno / `flamegraph.pl`, Chrome trace-event JSON
//! (load it at `chrome://tracing` or in Perfetto), a slotframe-utilization
//! heatmap, and an adjustment-storm report.
//!
//! ```text
//! harp_trace [INPUT.json] [options]
//!   INPUT.json        report with a `trace_sample` section, a span dump
//!                     ({"spans": [...]}), a bare span array, or a harpd
//!                     flight-recorder dump ({"events": [...]}, as served
//!                     by /debug/flight — incident wrappers included)
//!                     (default: BENCH_trace_sample.json at the repo root)
//!   --live            ignore INPUT; converge an instrumented allocator on
//!                     50 nodes, adjust one deep link and render its trace
//!   --view VIEW       all | flame | collapsed | chrome | heatmap | storms
//!                     (default: all)
//!   --out-dir DIR     write <stem>.flame.txt / .collapsed.txt /
//!                     .chrome.json / .heatmap.txt / .storms.txt into DIR
//!                     instead of printing to stdout
//!   --slot-us N       microseconds per slot for the Chrome export
//!                     (default: 10000, the paper's 10 ms slots)
//!   --storm-k K       minimum distinct nodes whose adjustment spans must
//!                     overlap to count as a storm (default: 3)
//! ```
//!
//! Every view is a pure function of the input spans, so re-rendering a
//! committed trace is byte-identical — CI relies on that.

use harp_obs::flame::{
    chrome_trace, collapsed_stacks, detect_storms, storm_report, text_flame, utilization_heatmap,
    TraceDoc,
};
use std::process::ExitCode;

/// Heatmap width in character columns.
const HEATMAP_COLS: usize = 64;

struct Options {
    input: Option<String>,
    live: bool,
    view: String,
    out_dir: Option<String>,
    slot_us: u64,
    storm_k: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        input: None,
        live: false,
        view: "all".to_owned(),
        out_dir: None,
        slot_us: 10_000,
        storm_k: 3,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--live" => opts.live = true,
            "--view" => opts.view = value("--view")?,
            "--out-dir" => opts.out_dir = Some(value("--out-dir")?),
            "--slot-us" => {
                opts.slot_us = value("--slot-us")?
                    .parse()
                    .map_err(|e| format!("--slot-us: {e}"))?;
            }
            "--storm-k" => {
                opts.storm_k = value("--storm-k")?
                    .parse()
                    .map_err(|e| format!("--storm-k: {e}"))?;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => {
                if opts.input.replace(other.to_owned()).is_some() {
                    return Err("at most one input file".to_owned());
                }
            }
        }
    }
    match opts.view.as_str() {
        "all" | "flame" | "collapsed" | "chrome" | "heatmap" | "storms" => Ok(opts),
        v => Err(format!(
            "unknown view {v} (expected all|flame|collapsed|chrome|heatmap|storms)"
        )),
    }
}

/// Parses either a span trace or a harpd flight-recorder dump. A flight
/// dump (`{"events": [...]}` or an incident wrapper) folds onto trace
/// spans — one zero-width span per event, tenant as layer — so every view
/// (flame, heatmap, storms, chrome) renders service incidents unchanged.
fn parse_trace_or_flight(text: &str) -> Result<TraceDoc, String> {
    if let Ok(flight) = harp_obs::FlightDoc::parse_str(text) {
        return Ok(TraceDoc {
            spans: flight.to_trace_spans(),
            total_recorded: flight.total_recorded,
            dropped: flight.dropped,
        });
    }
    TraceDoc::parse_str(text)
}

/// Default input: the committed trace sample at the workspace root.
fn default_input() -> std::path::PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::Path::new(&dir).join("../../BENCH_trace_sample.json"),
        Err(_) => std::path::PathBuf::from("BENCH_trace_sample.json"),
    }
}

/// Converges an instrumented allocator on the 50-node testbed topology,
/// adjusts one deep link and returns the recorded trace.
fn live_trace() -> TraceDoc {
    use tsch_sim::{Link, NodeId, SlotframeConfig};
    let tree = workloads::testbed_50_node_tree();
    let reqs = workloads::aggregated_echo_requirements(&tree, tsch_sim::Rate::per_slotframe(1));
    let mut handle = harp_core::AllocatorHandle::converge_observed(
        tree,
        SlotframeConfig::paper_default(),
        &reqs,
        harp_core::SchedulingPolicy::RateMonotonic,
        2048,
    )
    .expect("testbed workload is feasible");
    let link = Link::up(NodeId(45));
    handle
        .adjust(link, reqs.get(link) + 2)
        .expect("adjustment resolves");
    TraceDoc::from_events(handle.network().obs().spans.iter())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("harp_trace: {e}");
            return ExitCode::from(2);
        }
    };

    let (doc, stem) = if opts.live {
        (live_trace(), "live".to_owned())
    } else {
        let path = opts
            .input
            .as_ref()
            .map_or_else(default_input, std::path::PathBuf::from);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("harp_trace: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let doc = match parse_trace_or_flight(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("harp_trace: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let stem = path
            .file_stem()
            .map_or_else(|| "trace".to_owned(), |s| s.to_string_lossy().into_owned());
        (doc, stem)
    };

    let spans = &doc.spans;
    let want = |v: &str| opts.view == "all" || opts.view == v;
    let mut outputs: Vec<(&str, String)> = Vec::new();
    if want("flame") {
        outputs.push(("flame.txt", text_flame(spans)));
    }
    if want("collapsed") {
        outputs.push(("collapsed.txt", collapsed_stacks(spans)));
    }
    if want("chrome") {
        outputs.push(("chrome.json", chrome_trace(spans, opts.slot_us)));
    }
    if want("heatmap") {
        outputs.push(("heatmap.txt", utilization_heatmap(spans, HEATMAP_COLS)));
    }
    if want("storms") {
        let storms = detect_storms(spans, opts.storm_k);
        outputs.push(("storms.txt", storm_report(&storms, opts.storm_k)));
    }

    eprintln!("# {}", doc.coverage_banner());
    match &opts.out_dir {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("harp_trace: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
            for (suffix, content) in &outputs {
                let path = dir.join(format!("{stem}.{suffix}"));
                if let Err(e) = std::fs::write(&path, content) {
                    eprintln!("harp_trace: cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                eprintln!("# wrote {}", path.display());
            }
        }
        None => {
            for (i, (suffix, content)) in outputs.iter().enumerate() {
                if opts.view == "all" {
                    if i > 0 {
                        println!();
                    }
                    println!("== {stem}.{suffix} ==");
                }
                print!("{content}");
                if !content.ends_with('\n') {
                    println!();
                }
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_flags_and_positional_input() {
        let o = opts(&[
            "in.json",
            "--view",
            "chrome",
            "--slot-us",
            "500",
            "--storm-k",
            "2",
            "--out-dir",
            "d",
        ])
        .unwrap();
        assert_eq!(o.input.as_deref(), Some("in.json"));
        assert_eq!(o.view, "chrome");
        assert_eq!(o.slot_us, 500);
        assert_eq!(o.storm_k, 2);
        assert_eq!(o.out_dir.as_deref(), Some("d"));
        assert!(!o.live);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(opts(&["--view", "nope"]).is_err());
        assert!(opts(&["--slot-us"]).is_err());
        assert!(opts(&["--frobnicate"]).is_err());
        assert!(opts(&["a.json", "b.json"]).is_err());
    }

    #[test]
    fn flight_dumps_fold_onto_trace_views() {
        let mut recorder = harp_obs::FlightRecorder::new(8);
        recorder.record(harp_obs::FlightEvent {
            seq: 0,
            at: 120,
            kind: "adjust",
            tenant: "t1".to_owned(),
            corr: 7,
            node: 5,
            detail: "cells=2".to_owned(),
            magnitude: 2,
        });
        let doc = parse_trace_or_flight(&recorder.to_json(8)).expect("flight dump parses");
        assert_eq!(doc.spans.len(), 1);
        assert_eq!(doc.spans[0].layer, "t1");
        assert_eq!(doc.spans[0].corr, 7);
        // The span dump shape still parses through the same entry point.
        let trace = parse_trace_or_flight(
            "{\"total_recorded\": 1, \"dropped\": 0, \"spans\": [{\"name\": \"x\", \
             \"layer\": \"harp\", \"node\": 1, \"depth\": 0, \"start_asn\": 0, \
             \"end_asn\": 1, \"detail\": 0}]}",
        )
        .expect("span dump parses");
        assert_eq!(trace.spans.len(), 1);
    }

    #[test]
    fn live_trace_produces_spans() {
        let doc = live_trace();
        assert!(!doc.spans.is_empty());
        assert!(doc.spans.iter().any(|s| s.name == "adjust"));
        assert!(doc.spans.iter().any(|s| s.name == "static"));
    }
}
