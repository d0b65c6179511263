//! Fig. 9: per-node average end-to-end latency in the static 50-node
//! network.
//!
//! One echo task per node at 1 packet/slotframe (2 s period, as on the
//! testbed); HARP's distributed static phase builds the schedule; the data
//! plane then runs for 30 simulated minutes with a 0.99 per-link PDR to
//! reproduce the environmental-loss outliers the paper reports. The shape
//! to check: latencies are bounded by roughly one slotframe (1.99 s), with
//! loss-induced spikes at nodes many hops from the gateway.
//!
//! Two variants are printed: the exact-fit allocation with drop-on-loss
//! (the headline table), and a loss-provisioned allocation
//! (`r'(e) = ceil(r(e)/PDR)`) that sustains link-layer retransmissions —
//! closer to how the physical testbed stayed stable. The variants are
//! independent simulations and run on separate worker threads; their output
//! blocks are assembled off-line and printed in a fixed order, so the
//! report is byte-identical to a serial run.
//!
//! Writes `BENCH_fig9.json` at the workspace root: per-layer latency rows,
//! deterministic delivery metrics, an observability snapshot, and a merged
//! control-plane + data-plane trace sample (render it with `harp_trace`).
//!
//! Run with `cargo run --release -p harp-bench --bin fig9_latency`.

use harp_bench::harness::{
    print_bench_threads, rows_json, to_json_with_sections, write_report, Args,
};
use harp_core::{HarpNetwork, ProtocolReport, Requirements, SchedulingPolicy};
use harp_obs::{merged_trace_json, SpanRing};
use std::fmt::Write as _;
use tsch_sim::{LinkQuality, Rate, SimStats, Simulator, SimulatorBuilder, SlotframeConfig, Tree};

/// One echo packet per node per slotframe (a 2 s period, as on the testbed).
const RATE: Rate = Rate::per_slotframe(1);

/// The per-link PDR of both variants' data plane.
fn quality() -> LinkQuality {
    LinkQuality::uniform(0.99).expect("valid pdr")
}

/// What one variant's half hour leaves for its printer: the static phase's
/// bill and spans, and the data plane with its statistics and spans.
struct Run {
    tree: Tree,
    config: SlotframeConfig,
    static_report: ProtocolReport,
    control_spans: SpanRing,
    sim: Simulator,
}

/// HARP's distributed static phase on the testbed tree under `reqs`, then
/// the echo tasks on the schedule it built for `slotframes` slotframes.
fn simulate(reqs: &Requirements, max_retries: u32, slotframes: u64) -> Run {
    let tree = workloads::testbed_50_node_tree();
    let config = SlotframeConfig::paper_default();
    let mut net = HarpNetwork::new(tree.clone(), config, reqs, SchedulingPolicy::RateMonotonic);
    net.enable_observability(1024);
    let static_report = net.run_static().expect("the testbed workload is feasible");
    assert!(
        net.schedule().is_exclusive(),
        "HARP schedules never collide"
    );
    let mut builder = SimulatorBuilder::new(tree.clone(), config)
        .schedule(net.schedule().clone())
        .quality(quality())
        .max_retries(max_retries)
        .seed(0xF19)
        .observability(256);
    for task in workloads::echo_task_per_node(&tree, RATE) {
        builder = builder.task(task).expect("valid task");
    }
    let mut sim = builder.build();
    sim.run_slotframes(slotframes);
    Run {
        tree,
        config,
        static_report,
        control_spans: net.obs().spans.clone(),
        sim,
    }
}

/// Mean latency (slots) over one layer's nodes that delivered anything,
/// their number, and the layer's sample count.
struct LayerRow {
    mean_slots: f64,
    nodes: usize,
    samples: usize,
}

fn layer_row(tree: &Tree, stats: &SimStats, layer: u32) -> LayerRow {
    let mut sum = 0.0;
    let mut samples = 0usize;
    let mut nodes = 0usize;
    for node in tree.nodes_at_depth(layer) {
        let s = stats.latency_summary(node);
        if s.count > 0 {
            sum += s.mean;
            samples += s.count;
            nodes += 1;
        }
    }
    LayerRow {
        mean_slots: if nodes > 0 { sum / nodes as f64 } else { 0.0 },
        nodes,
        samples,
    }
}

/// One variant's printable block plus its report fragments.
struct VariantOut {
    text: String,
    rows: Vec<(String, Vec<(&'static str, f64)>)>,
    metrics: Vec<(&'static str, f64)>,
    rings: Vec<SpanRing>,
}

impl VariantOut {
    /// Per-layer rows for the gated report (latency in slots — seeded, so
    /// deterministic; seconds would just rescale by the slot duration).
    fn new(prefix: &str, text: String, metrics: Vec<(&'static str, f64)>, run: Run) -> Self {
        let rows = (1..=run.tree.layers())
            .map(|layer| {
                let row = layer_row(&run.tree, run.sim.stats(), layer);
                (
                    format!("{prefix}_L{layer}"),
                    vec![
                        ("mean_latency_slots", row.mean_slots),
                        ("samples", row.samples as f64),
                    ],
                )
            })
            .collect();
        Self {
            text,
            rows,
            metrics,
            rings: vec![run.control_spans, run.sim.obs().spans.clone()],
        }
    }
}

/// 0.99 per-link PDR, drop on loss (no link-layer retransmission): the
/// partitions run at exactly full utilisation, so any retransmission
/// permanently displaces a later packet and queueing delay accumulates
/// for the whole 30 minutes. Dropping reproduces the paper's picture —
/// latency bounded by ~one slotframe with loss showing up as missing
/// samples at nodes many hops from the gateway.
fn exact_fit_report(slotframes: u64) -> VariantOut {
    let reqs = workloads::aggregated_echo_requirements(&workloads::testbed_50_node_tree(), RATE);
    let run = simulate(&reqs, 0, slotframes);
    let (tree, config, stats, static_report) =
        (&run.tree, run.config, run.sim.stats(), &run.static_report);
    let mut out = String::new();
    writeln!(
        out,
        "# static phase: {} mgmt msgs, {} cell msgs, {:.2} s",
        static_report.mgmt_messages,
        static_report.cell_messages,
        static_report.elapsed_seconds(config)
    )
    .unwrap();
    writeln!(
        out,
        "# {} slotframes, generated {}, delivered {}, collisions {}, losses {}",
        slotframes,
        stats.generated,
        stats.deliveries.len(),
        stats.collisions,
        stats.losses
    )
    .unwrap();
    writeln!(
        out,
        "{:>4} {:>5} {:>9} {:>9} {:>9} {:>7}",
        "node", "layer", "mean(s)", "p95(s)", "max(s)", "samples"
    )
    .unwrap();
    // Nodes sorted by ascending layer, as in the figure.
    let mut nodes: Vec<_> = tree.nodes().skip(1).collect();
    nodes.sort_by_key(|&n| (tree.depth(n), n));
    for node in nodes {
        let s = stats.latency_summary(node);
        let slot_s = f64::from(config.slot_duration_us) / 1e6;
        writeln!(
            out,
            "{:>4} {:>5} {:>9.3} {:>9.3} {:>9.3} {:>7}",
            node.0,
            tree.depth(node),
            s.mean * slot_s,
            config.slots_to_seconds(s.p95),
            config.slots_to_seconds(s.max),
            s.count
        )
        .unwrap();
    }
    let metrics = vec![
        ("exact_generated", stats.generated as f64),
        ("exact_delivered", stats.deliveries.len() as f64),
        ("exact_collisions", stats.collisions as f64),
        ("exact_losses", stats.losses as f64),
        ("static_mgmt_messages", static_report.mgmt_messages as f64),
        ("static_cell_messages", static_report.cell_messages as f64),
    ];
    VariantOut::new("exact", out, metrics, run)
}

/// Variant: loss-provisioned allocation with retransmissions enabled.
fn provisioned_report(slotframes: u64) -> VariantOut {
    let reqs = workloads::aggregated_echo_requirements(&workloads::testbed_50_node_tree(), RATE)
        .provisioned_for_loss(&quality());
    let run = simulate(&reqs, 8, slotframes);
    let (tree, stats) = (&run.tree, run.sim.stats());
    let slot_s = f64::from(run.config.slot_duration_us) / 1e6;
    let mut out = String::new();
    writeln!(
        out,
        "\n# provisioned variant (ceil(r/PDR) cells, 8 retries): delivered {}/{}          ({} losses absorbed)",
        stats.deliveries.len(),
        stats.generated,
        stats.losses
    )
    .unwrap();
    writeln!(out, "{:>5} {:>12} {:>6}", "layer", "mean lat(s)", "nodes").unwrap();
    for layer in 1..=tree.layers() {
        let row = layer_row(tree, stats, layer);
        writeln!(
            out,
            "{layer:>5} {:>12.3} {:>6}",
            row.mean_slots * slot_s,
            row.nodes
        )
        .unwrap();
    }
    let metrics = vec![
        ("prov_generated", stats.generated as f64),
        ("prov_delivered", stats.deliveries.len() as f64),
        ("prov_losses", stats.losses as f64),
    ];
    VariantOut::new("prov", out, metrics, run)
}

fn main() {
    Args::parse("usage: fig9_latency");
    let config = SlotframeConfig::paper_default();
    // Data plane: 30 minutes = ~905 slotframes of 1.99 s.
    let minutes = 30u64;
    let slotframes = (minutes * 60 * 1_000_000) / (u64::from(config.slots) * 10_000);

    let variants: [fn(u64) -> VariantOut; 2] = [exact_fit_report, provisioned_report];
    let blocks = harp_bench::par_map(&variants, |_, variant| variant(slotframes));
    for block in &blocks {
        print!("{}", block.text);
    }
    println!("{}", harp_bench::obs_footer());

    // Assemble the gated report: rows + metrics from both variants, the
    // library-counter snapshot, and a merged trace across all four rings
    // (control plane + data plane of each variant).
    let mut rows: Vec<(String, Vec<(&'static str, f64)>)> = Vec::new();
    let mut metrics: Vec<(&str, f64)> = Vec::new();
    for block in &blocks {
        rows.extend(block.rows.iter().cloned());
        metrics.extend(block.metrics.iter().copied());
    }
    print_bench_threads(tsch_sim::bench_threads());
    let mut snap = harp_obs::MetricsSnapshot::default();
    harp_bench::add_all_library_counters(&mut snap);
    let rings: Vec<&SpanRing> = blocks.iter().flat_map(|b| b.rings.iter()).collect();
    let json = to_json_with_sections(
        &metrics,
        &[
            ("rows", rows_json(&rows)),
            ("obs", snap.to_json()),
            ("trace_sample", merged_trace_json(&rings, 64)),
        ],
    );
    write_report("BENCH_fig9.json", &json);
}
