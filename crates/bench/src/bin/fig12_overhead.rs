//! Fig. 12: dynamic schedule/partition adjustment overhead per layer,
//! APaS (centralized) vs HARP.
//!
//! 81-node, 10-layer topologies. After the static phase, each node's demand
//! is raised and the management packets needed to absorb the change are
//! counted. The paper's shape: APaS costs `3l − 1` packets for a node at
//! layer `l` (grows linearly with depth); HARP's cost is small and roughly
//! flat because most requests resolve at the parent.
//!
//! APaS's column is that count, [`apas_adjustment_packets`]. HARP's is
//! the [`ProtocolReport`](harp_core::ProtocolReport) of
//! [`AllocatorHandle::adjust`] — the report harpd returns for the same
//! change.
//!
//! Writes `BENCH_fig12.json` at the workspace root: one gated row per
//! layer, plus a trace sample from one instrumented adjustment per layer
//! (the `adjust` spans carry the layer depth, so the flame view shows how
//! deep each escalation reached).
//!
//! Run with `cargo run --release -p harp-bench --bin fig12_overhead`.

use harp_bench::harness::{
    print_bench_threads, rows_json, to_json_with_sections, write_report, Args,
};
use harp_bench::{mean, par_map};
use harp_core::{AllocatorHandle, Cause, MessageCauses, SchedulingPolicy};
use harp_obs::{spans_to_json, MetricsSnapshot, SpanEvent};
use schedulers::{apas_adjustment_packets, sixtop_transaction_packets};
use tsch_sim::{Direction, Link, SlotframeConfig};

/// HARP's messages by cause, each a column of the report: the mean over a
/// layer's samples.
const CAUSE_COLUMNS: [(Cause, &str); 6] = [
    (Cause::Climb, "harp_climb"),
    (Cause::Grant, "harp_grant"),
    (Cause::SiblingMove, "harp_sibling_move"),
    (Cause::Bystander, "harp_bystander"),
    (Cause::Translation, "harp_translation"),
    (Cause::Cells, "harp_cells"),
];

fn main() {
    Args::parse("usage: fig12_overhead");
    let config = SlotframeConfig::paper_default();
    let topologies = workloads::fig12_topologies(10);

    println!("# Fig. 12 — adjustment overhead (management packets) per layer");
    println!(
        "# {} topologies, 81 nodes, 10 layers; demand of one uplink 1 -> 2",
        topologies.len()
    );
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10}",
        "layer", "apas", "harp", "harp_max", "msf_6p"
    );

    // Every (layer, topology, node) measurement replays the static phase
    // from scratch, so the layers are independent: sweep them in parallel
    // and print the rows in layer order.
    let layers: Vec<u32> = (1..=10).collect();
    let per_layer = par_map(&layers, |_, &layer| {
        let mut harp_samples = Vec::new();
        let mut harp_causes: Vec<MessageCauses> = Vec::new();
        let mut spans: Vec<SpanEvent> = Vec::new();
        for (ti, tree) in topologies.iter().enumerate() {
            // Sample up to three nodes at this layer per topology.
            let nodes = tree.nodes_at_depth(layer);
            for (ni, &node) in nodes.iter().take(3).enumerate() {
                let link = Link {
                    child: node,
                    direction: Direction::Up,
                };
                // One cell per link for the static phase (low, so
                // adjustments have room to resolve below the gateway, as in
                // the paper's setup). The first sample of each layer runs
                // instrumented and contributes its `adjust` spans to the
                // trace sample; observability never changes the bill.
                let reqs = workloads::uniform_link_requirements(tree, 1);
                let policy = SchedulingPolicy::RateMonotonic;
                let handle = if ti == 0 && ni == 0 {
                    AllocatorHandle::converge_observed(tree.clone(), config, &reqs, policy, 1024)
                } else {
                    AllocatorHandle::converge(tree.clone(), config, &reqs, policy)
                };
                if let Ok(mut handle) = handle {
                    if let Ok(bill) = handle.adjust(link, 2) {
                        harp_samples.push(bill.mgmt_messages as f64);
                        harp_causes.push(bill.causes);
                        let trace = &handle.network().obs().spans;
                        spans.extend(trace.iter().filter(|s| s.name() == "adjust"));
                    }
                }
            }
        }
        let harp_max = harp_samples.iter().copied().fold(0.0f64, f64::max);
        let apas = apas_adjustment_packets(layer) as f64;
        // MSF adds cells with one 6P pair at any depth — flat and minimal,
        // but with no collision protection (the Fig. 11 trade-off).
        let text = format!(
            "{:>5} {:>10.2} {:>10.2} {:>10.0} {:>10}",
            layer,
            apas,
            mean(&harp_samples),
            harp_max,
            sixtop_transaction_packets()
        );
        let mut fields: Vec<(&'static str, f64)> = vec![
            ("apas_packets", apas),
            ("harp_messages", mean(&harp_samples)),
            ("harp_max", harp_max),
            ("msf_6p", sixtop_transaction_packets() as f64),
        ];
        for (cause, column) in CAUSE_COLUMNS {
            let counts: Vec<f64> = harp_causes.iter().map(|c| c.get(cause) as f64).collect();
            fields.push((column, mean(&counts)));
        }
        (text, (format!("L{layer:02}"), fields), spans)
    });
    let mut rows = Vec::new();
    let mut spans = Vec::new();
    for (text, row, layer_spans) in per_layer {
        println!("{text}");
        rows.push(row);
        spans.extend(layer_spans);
    }
    println!("{}", harp_bench::obs_footer());

    let mut snap = MetricsSnapshot::default();
    harp_bench::add_all_library_counters(&mut snap);
    let total = spans.len() as u64;
    print_bench_threads(tsch_sim::bench_threads());
    let json = to_json_with_sections(
        &[],
        &[
            ("rows", rows_json(&rows)),
            ("obs", snap.to_json()),
            ("trace_sample", spans_to_json(spans.iter(), total)),
        ],
    );
    write_report("BENCH_fig12.json", &json);
}
