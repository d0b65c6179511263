//! Fig. 9: per-node average end-to-end latency in the static 50-node
//! network.
//!
//! One echo task per node at 1 packet/slotframe (2 s period, as on the
//! testbed); HARP's distributed static phase builds the schedule; the data
//! plane then runs for 30 simulated minutes with a 0.97 per-link PDR to
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

use harp_bench::harness::{print_bench_threads, rows_json, to_json_with_sections, write_report};
use harp_core::{HarpNetwork, SchedulingPolicy};
use harp_obs::{merged_trace_json, SpanRing};
use std::fmt::Write as _;
use tsch_sim::{LinkQuality, Rate, SimulatorBuilder, SlotframeConfig};

/// One variant's printable block plus its report fragments.
struct VariantOut {
    text: String,
    rows: Vec<(String, Vec<(&'static str, f64)>)>,
    metrics: Vec<(&'static str, f64)>,
    rings: Vec<SpanRing>,
}

fn exact_fit_report(slotframes: u64) -> VariantOut {
    let tree = workloads::testbed_50_node_tree();
    let config = SlotframeConfig::paper_default();
    let rate = Rate::per_slotframe(1);
    let reqs = workloads::aggregated_echo_requirements(&tree, rate);
    let mut out = String::new();

    // Distributed static phase.
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.enable_observability(1024);
    let static_report = net.run_static().expect("the testbed workload is feasible");
    assert!(
        net.schedule().is_exclusive(),
        "HARP schedules never collide"
    );
    writeln!(
        out,
        "# static phase: {} mgmt msgs, {} cell msgs, {:.2} s",
        static_report.mgmt_messages,
        static_report.cell_messages,
        static_report.elapsed_seconds(config)
    )
    .unwrap();

    // 0.99 per-link PDR, drop on loss (no link-layer retransmission): the
    // partitions run at exactly full utilisation, so any retransmission
    // permanently displaces a later packet and queueing delay accumulates
    // for the whole 30 minutes. Dropping reproduces the paper's picture —
    // latency bounded by ~one slotframe with loss showing up as missing
    // samples at nodes many hops from the gateway.
    let mut builder = SimulatorBuilder::new(tree.clone(), config)
        .schedule(net.schedule().clone())
        .quality(LinkQuality::uniform(0.99).expect("valid pdr"))
        .max_retries(0)
        .seed(0xF19)
        .observability(256);
    for task in workloads::echo_task_per_node(&tree, rate) {
        builder = builder.task(task).expect("valid task");
    }
    let mut sim = builder.build();
    sim.run_slotframes(slotframes);

    let stats = sim.stats();
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
    // Per-layer rows for the gated report (latency in slots — seeded, so
    // deterministic; seconds would just rescale by the slot duration).
    let rows = (1..=tree.layers())
        .map(|layer| (format!("exact_L{layer}"), layer_row(&tree, stats, layer)))
        .collect();
    let metrics = vec![
        ("exact_generated", stats.generated as f64),
        ("exact_delivered", stats.deliveries.len() as f64),
        ("exact_collisions", stats.collisions as f64),
        ("exact_losses", stats.losses as f64),
        ("static_mgmt_messages", static_report.mgmt_messages as f64),
        ("static_cell_messages", static_report.cell_messages as f64),
    ];
    let rings = vec![net.obs().spans.clone(), sim.obs().spans.clone()];
    VariantOut {
        text: out,
        rows,
        metrics,
        rings,
    }
}

/// Mean latency (slots) and sample count over one layer's nodes.
fn layer_row(
    tree: &tsch_sim::Tree,
    stats: &tsch_sim::SimStats,
    layer: u32,
) -> Vec<(&'static str, f64)> {
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
    let mean_slots = if nodes > 0 { sum / nodes as f64 } else { 0.0 };
    vec![
        ("mean_latency_slots", mean_slots),
        ("samples", samples as f64),
    ]
}

fn provisioned_report(slotframes: u64) -> VariantOut {
    let tree = workloads::testbed_50_node_tree();
    let config = SlotframeConfig::paper_default();
    let rate = Rate::per_slotframe(1);
    let reqs = workloads::aggregated_echo_requirements(&tree, rate);
    let mut out = String::new();

    // Variant: loss-provisioned allocation with retransmissions enabled.
    let quality = LinkQuality::uniform(0.99).expect("valid pdr");
    let provisioned = reqs.provisioned_for_loss(&quality);
    let mut net = HarpNetwork::new(
        tree.clone(),
        config,
        &provisioned,
        SchedulingPolicy::RateMonotonic,
    );
    net.enable_observability(1024);
    net.run_static().expect("provisioned demand still fits");
    let mut builder = SimulatorBuilder::new(tree.clone(), config)
        .schedule(net.schedule().clone())
        .quality(quality)
        .max_retries(8)
        .seed(0xF19)
        .observability(256);
    for task in workloads::echo_task_per_node(&tree, rate) {
        builder = builder.task(task).expect("valid task");
    }
    let mut sim = builder.build();
    sim.run_slotframes(slotframes);
    let stats = sim.stats();
    let slot_s = f64::from(config.slot_duration_us) / 1e6;
    writeln!(
        out,
        "\n# provisioned variant (ceil(r/PDR) cells, 8 retries): delivered {}/{}          ({} losses absorbed)",
        stats.deliveries.len(),
        stats.generated,
        stats.losses
    )
    .unwrap();
    let mut layer_means: Vec<(u32, f64, usize)> = Vec::new();
    for layer in 1..=tree.layers() {
        let mut sum = 0.0;
        let mut n = 0usize;
        for node in tree.nodes_at_depth(layer) {
            let s = stats.latency_summary(node);
            if s.count > 0 {
                sum += s.mean * slot_s;
                n += 1;
            }
        }
        layer_means.push((layer, if n > 0 { sum / n as f64 } else { 0.0 }, n));
    }
    writeln!(out, "{:>5} {:>12} {:>6}", "layer", "mean lat(s)", "nodes").unwrap();
    for (layer, mean, n) in layer_means {
        writeln!(out, "{layer:>5} {mean:>12.3} {n:>6}").unwrap();
    }
    let rows = (1..=tree.layers())
        .map(|layer| (format!("prov_L{layer}"), layer_row(&tree, stats, layer)))
        .collect();
    let metrics = vec![
        ("prov_generated", stats.generated as f64),
        ("prov_delivered", stats.deliveries.len() as f64),
        ("prov_losses", stats.losses as f64),
    ];
    let rings = vec![net.obs().spans.clone(), sim.obs().spans.clone()];
    VariantOut {
        text: out,
        rows,
        metrics,
        rings,
    }
}

fn main() {
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
