//! Scale study: event-engine throughput and conflict-storage footprint at
//! 1k / 10k / 100k / 1M nodes.
//!
//! Each size runs the [`workloads::scale_scenario`] — 16 grafted fanout-4
//! subtrees, a 199-slot × 16-channel slotframe, and a conflict-free
//! schedule confined to per-subtree slot ranges — on the event-driven
//! engine with streaming stats, so memory stays flat no matter how many
//! packets flow.
//!
//! The headline metric is `active_cell_slots_per_sec`: throughput
//! normalized to the number of *active cells* — scheduled (cell, link)
//! assignments, i.e. per-slotframe transmission opportunities. (Distinct
//! cells would undercount: non-conflicting links share cells, and the
//! sharing density grows with size.) The event engine touches only slots
//! whose scheduled links hold traffic, so this rate stays flat (±25%,
//! asserted here) from 1k to 1M nodes while the raw slots/sec
//! necessarily falls with schedule density. The run executes with
//! observability enabled and asserts the engine's `sim.idle_wakeups`
//! counter stays zero — the calendar never woke a slot with no traffic.
//!
//! Writes `BENCH_scale.json` at the workspace root: one row per size
//! with the CSR conflict-storage bytes, the idle-wakeup count and the
//! deterministic traffic counts. The raw and per-active-cell rates are
//! printed as `timing` lines, and the flatness check runs here, on the
//! rates of this run ([`harp_bench::harness::assert_flat`]).
//!
//! Run with `cargo run --release -p harp-bench --bin fig_scale`; pass
//! `--smoke` for the CI debug-assertions pass (10k nodes, 2 slotframes,
//! no report).

use harp_bench::harness::{
    assert_flat, median, print_timing, rows_json, to_json_with_sections, write_report, Args,
};
use harp_obs::MetricsSnapshot;
use tsch_sim::{Simulator, SimulatorBuilder, StatsMode};
use workloads::{scale_scenario, ScaleScenario, SCALE_SIZES};

/// Per-node budget on CSR conflict storage. The dense matrix needed
/// `(2n)^2` bytes (~37 GiB at 100k); the CSR rows grow linearly, so a
/// fixed per-node allowance covers every row including 1M.
const CONFLICT_BYTES_PER_NODE: usize = 256;

/// Untimed slotframes run before the measured window. Until the packet
/// pipeline fills (one frame per route hop, ~10 frames at 1M nodes) each
/// frame first-touches fresh queue and stats memory; that page-fault
/// storm costs up to ~100× the steady-state frame and would swamp the
/// measurement.
const WARMUP_FRAMES: u64 = 20;

/// Timed slotframes per measurement round.
const FRAMES_PER_ROUND: u64 = 200;

/// Measurement rounds. Each round times every size back to back, so slow
/// drift in host CPU speed — minutes-scale throttling on shared machines —
/// hits all sizes alike instead of inflating whichever row happened to run
/// first; the per-size medians across rounds are what the flatness check
/// compares.
const ROUNDS: usize = 7;

fn scenario_seed(nodes: u32) -> u64 {
    0x5CA1_E000 | u64::from(nodes)
}

/// Row label: `scale_1k` … `scale_1m`.
fn row_label(nodes: u32) -> String {
    if nodes >= 1_000_000 {
        format!("scale_{}m", nodes / 1_000_000)
    } else if nodes >= 1_000 {
        format!("scale_{}k", nodes / 1_000)
    } else {
        format!("scale_{nodes}")
    }
}

/// One size's live engine plus the rates sampled so far.
struct SizeRun {
    scenario: ScaleScenario,
    sim: Simulator,
    rates: Vec<f64>,
}

/// Builds and warms the engine for one size, with observability on so
/// the idle-wakeup counter is live.
fn build_size(nodes: u32, warmup: u64) -> SizeRun {
    let scenario = scale_scenario(nodes, scenario_seed(nodes));
    let mut builder = SimulatorBuilder::new(scenario.tree.clone(), scenario.config)
        .schedule(scenario.schedule.clone())
        .stats_mode(StatsMode::Streaming)
        .observability(16);
    for task in &scenario.tasks {
        builder = builder.task(task.clone()).expect("unique task ids");
    }
    let mut sim = builder.build();
    sim.run_slotframes(warmup);
    SizeRun {
        scenario,
        sim,
        rates: Vec::new(),
    }
}

fn main() {
    let smoke = Args::parse("usage: fig_scale [--smoke]").flag("--smoke");
    let (sizes, rounds, frames, warmup): (&[u32], usize, u64, u64) = if smoke {
        (&[10_000], 1, 2, 2)
    } else {
        (&SCALE_SIZES, ROUNDS, FRAMES_PER_ROUND, WARMUP_FRAMES)
    };
    println!("# Scale study — event engine, streaming stats");
    println!("# {rounds} round(s) x {frames} slotframes per size, interleaved");

    // Build and warm every size up front, then interleave the timed
    // rounds across sizes (see [`ROUNDS`] for why).
    let mut runs: Vec<SizeRun> = sizes
        .iter()
        .map(|&nodes| build_size(nodes, warmup))
        .collect();
    for _ in 0..rounds {
        for run in &mut runs {
            let slots = frames * u64::from(run.scenario.config.slots);
            let start = std::time::Instant::now();
            run.sim.run_slotframes(frames);
            run.rates.push(slots as f64 / start.elapsed().as_secs_f64());
        }
    }

    println!(
        "{:>8} {:>14} {:>8} {:>8} {:>14} {:>14} {:>10}",
        "nodes", "conflict_B", "active", "distinct", "slots/s", "cell_slots/s", "delivered"
    );
    let mut rows = Vec::new();
    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut cell_rates: Vec<(String, f64)> = Vec::new();
    for run in runs {
        let nodes = run.scenario.tree.len() as u32;
        let active_cells = run.scenario.schedule.assignment_count();
        let distinct_cells = run.scenario.schedule.active_cells();
        let slots = run.scenario.config.slots;
        let conflict_bytes = run.sim.conflict_storage_bytes();
        let conflict_entries = run.sim.conflict_entries();
        let conflict_limit = nodes as usize * CONFLICT_BYTES_PER_NODE;
        assert!(
            conflict_bytes < conflict_limit,
            "conflict storage {conflict_bytes} B exceeds the {conflict_limit} B budget \
             at {nodes} nodes"
        );
        let idle_wakeups = run
            .sim
            .metrics_snapshot()
            .counter("sim.idle_wakeups")
            .unwrap_or(0);
        assert_eq!(
            idle_wakeups, 0,
            "the event calendar woke an idle slot at {nodes} nodes"
        );
        let stats = run.sim.into_stats();
        assert_eq!(stats.collisions, 0, "the scale schedule is conflict-free");

        let rate = median(&run.rates);
        // Same normalization as SimStats::active_cell_slots_per_sec, but
        // over the measured rounds only (stats.run_time includes warmup).
        let cell_rate = rate * active_cells as f64 / f64::from(slots);

        println!(
            "{:>8} {:>14} {:>8} {:>8} {:>14.0} {:>14.0} {:>10}",
            nodes,
            conflict_bytes,
            active_cells,
            distinct_cells,
            rate,
            cell_rate,
            stats.delivered()
        );

        let label = row_label(nodes);
        timings.push((format!("{label}.slots_per_sec"), rate));
        timings.push((format!("{label}.active_cell_slots_per_sec"), cell_rate));
        cell_rates.push((label.clone(), cell_rate));
        rows.push((
            label,
            vec![
                ("nodes", f64::from(nodes)),
                ("conflict_bytes", conflict_bytes as f64),
                ("conflict_entries", conflict_entries as f64),
                ("active_cells", active_cells as f64),
                ("distinct_cells", distinct_cells as f64),
                ("idle_wakeups", idle_wakeups as f64),
                ("delivered", stats.delivered() as f64),
                ("collisions", stats.collisions as f64),
                ("queue_drops", stats.queue_drops as f64),
            ],
        ));
    }

    for (name, rate) in &timings {
        print_timing(name, *rate, "1/s");
    }
    println!("{}", harp_bench::obs_footer());

    if smoke {
        println!("smoke mode: report not written");
        return;
    }
    let mut snap = MetricsSnapshot::default();
    snap.add_counters(workloads::obs::totals());
    let json = to_json_with_sections(&[], &[("rows", rows_json(&rows)), ("obs", snap.to_json())]);
    write_report("BENCH_scale.json", &json);

    // Flat-cost criterion, after the report: the file does not depend on
    // the clock, the verdict does.
    assert_flat("active-cell rate", &cell_rates);
}
