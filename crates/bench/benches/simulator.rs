//! Throughput benchmarks of the TSCH simulator and the distributed
//! protocol runner — the substrate costs behind every experiment.
//!
//! The engine runs a 100-node network with the paper's 199-slot,
//! 16-channel slotframe, once timed and once instrumented for a sustained
//! run. Every timing — the means, the engine's slots/sec — is printed as a
//! `timing` line; `BENCH_simulator.json` at the workspace root holds what
//! the seeds determine: packing quality against proven optima and the
//! counters and spans of the instrumented sustained run.

use harp_bench::harness::{
    measure, measure_with_setup, print_timing, to_json_with_sections, write_report, Measurement,
};
use harp_core::{HarpNetwork, SchedulingPolicy};
use packing::{exact_strip_height, pack_strip, FreeSpace, Size};
use schedulers::{HarpScheduler, Scheduler};
use std::hint::black_box;
use tsch_sim::{
    NetworkSchedule, Rate, Simulator, SimulatorBuilder, SlotframeConfig, SplitMix64, Task, Tree,
};
use workloads::TopologyConfig;

/// The engine's scenario: 100 nodes, paper slotframe, a HARP
/// (collision-free) schedule, and an echo task on every node.
fn scenario_100_nodes() -> (Tree, SlotframeConfig, NetworkSchedule, Vec<Task>) {
    let tree = TopologyConfig {
        nodes: 100,
        layers: 6,
        max_children: 8,
    }
    .generate(42);
    let config = SlotframeConfig::paper_default();
    let reqs = workloads::uniform_link_requirements(&tree, 1);
    let schedule = HarpScheduler::default().build_schedule(&tree, &reqs, config, 0);
    let tasks = workloads::echo_task_per_node(&tree, Rate::per_slotframe(1));
    (tree, config, schedule, tasks)
}

fn build_dense(
    tree: &Tree,
    config: SlotframeConfig,
    schedule: &NetworkSchedule,
    tasks: &[Task],
) -> Simulator {
    let mut builder = SimulatorBuilder::new(tree.clone(), config).schedule(schedule.clone());
    for task in tasks {
        builder = builder.task(task.clone()).unwrap();
    }
    builder.build()
}

/// The observability artefacts of the instrumented sustained run.
struct DenseOutcome {
    /// Rendered metrics snapshot.
    obs_json: String,
    /// Rendered sample of the most recent slotframe spans.
    trace_json: String,
}

fn print_mean(m: &Measurement) {
    print_timing(&m.name, m.mean_ns(), "ns");
}

fn bench_engine_100_nodes() -> DenseOutcome {
    let (tree, config, schedule, tasks) = scenario_100_nodes();
    let frames_per_iter = 10u64;

    let dense = measure_with_setup(
        "dense_sim_10_slotframes_100_nodes",
        || build_dense(&tree, config, &schedule, &tasks),
        |mut sim| {
            sim.run_slotframes(frames_per_iter);
            black_box(sim.stats().deliveries.len())
        },
    );
    // Sustained dense throughput on a longer run, via the engine's own
    // timing (stats.run_time covers run_slotframes only). This run has
    // observability ON — the reported slots/sec is the *instrumented*
    // throughput, which the acceptance budget requires to stay within
    // noise of the uninstrumented engine.
    let mut builder = SimulatorBuilder::new(tree.clone(), config)
        .schedule(schedule.clone())
        .observability(1024);
    for task in &tasks {
        builder = builder.task(task.clone()).unwrap();
    }
    let mut sim = builder.build();
    sim.run_slotframes(200);
    let slots_per_sec = sim.stats().slots_per_sec();
    let obs_json = sim.metrics_snapshot().to_json();
    let trace_json = sim.obs().spans.to_json(16);

    print_mean(&dense);
    print_timing("dense_slots_per_sec", slots_per_sec, "1/s");
    DenseOutcome {
        obs_json,
        trace_json,
    }
}

fn bench_data_plane() {
    let tree = workloads::testbed_50_node_tree();
    let config = SlotframeConfig::paper_default();
    let rate = Rate::per_slotframe(1);
    let reqs = workloads::aggregated_echo_requirements(&tree, rate);
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();
    let schedule = net.schedule().clone();
    let tasks = workloads::echo_task_per_node(&tree, rate);

    let m = measure_with_setup(
        "sim_slotframe_50_nodes",
        || build_dense(&tree, config, &schedule, &tasks),
        |mut sim| {
            sim.run_slotframes(5);
            black_box(sim.stats().deliveries.len())
        },
    );
    print_mean(&m);

    // What a replicate pays before its first slot — the tree and schedule
    // cloned in, the builder, `build()` — which is the interval the
    // benchmark's traced run reports as `tsch-sim.build_us`, on two of its
    // inputs: the testbed tree under HARP's schedule and the 500-node
    // scale scenario with its stacked cells.
    let m = measure("simulator_build/testbed50", || {
        build_dense(&tree, config, &schedule, &tasks)
    });
    print_mean(&m);
    let scale = workloads::scale_scenario(500, 1);
    let m = measure("simulator_build/scale500", || {
        build_dense(&scale.tree, scale.config, &scale.schedule, &scale.tasks)
    });
    print_mean(&m);
}

/// The schedule table on the benchmark's tenant shape (256 nodes, 8
/// layers, at most 4 children, one cell per link and direction): the clone
/// every replicate and every schedule read starts from, and one pass of
/// the unassign + re-assign that every adjustment applies, over all links.
fn bench_schedule_table() {
    let tree = TopologyConfig {
        nodes: 256,
        layers: 8,
        max_children: 4,
    }
    .generate(0x5E771E + 256);
    let config = SlotframeConfig::paper_default();
    let reqs = workloads::uniform_link_requirements(&tree, 1);
    let schedule = HarpScheduler::default().build_schedule(&tree, &reqs, config, 0);
    let rows: Vec<(tsch_sim::Link, Vec<tsch_sim::Cell>)> = schedule
        .iter_links()
        .map(|(link, cells)| (link, cells.to_vec()))
        .collect();

    let m = measure("schedule/clone/256", || schedule.clone());
    print_mean(&m);
    let m = measure_with_setup(
        "schedule/assign_unassign/256",
        || schedule.clone(),
        |mut schedule| {
            for (link, cells) in &rows {
                schedule.unassign_link(*link);
                for &cell in cells {
                    schedule.assign(cell, *link).unwrap();
                }
            }
            black_box(schedule.assignment_count())
        },
    );
    print_mean(&m);
}

fn bench_control_plane() {
    let tree = workloads::testbed_50_node_tree();
    let config = SlotframeConfig::paper_default();
    let reqs = workloads::uniform_link_requirements(&tree, 1);

    let converged = || {
        let mut net =
            HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
        net.run_static().unwrap();
        net
    };

    let static_phase = measure("harp_static_phase_50_nodes", || {
        let net = converged();
        black_box(net.schedule().assignment_count())
    });
    print_mean(&static_phase);

    let adjustment = measure_with_setup("harp_adjustment_leaf", converged, |mut net| {
        let link = tsch_sim::Link::up(tsch_sim::NodeId(45));
        net.adjust_and_settle(net.now(), link, 2).unwrap();
        black_box(net.schedule().assignment_count())
    });
    print_mean(&adjustment);
}

/// Strip width for the packing-quality instances (all item sides fit).
const QUALITY_WIDTH: u32 = 12;

/// Node budget for the exact search — ≤8-rect instances finish well
/// inside it, so every baseline below is a proven optimum.
const QUALITY_BUDGET: u64 = 5_000_000;

/// Seeded ≤8-rect instances for the heuristic-vs-exact comparison.
fn quality_instances() -> Vec<Vec<Size>> {
    let mut rng = SplitMix64::new(0x9AC4_71FA);
    (0..24)
        .map(|_| {
            let n = 5 + rng.next_below(4) as usize;
            (0..n)
                .map(|_| Size::new(1 + rng.next_below(6) as u32, 1 + rng.next_below(6) as u32))
                .collect()
        })
        .collect()
}

/// Minimal strip height at which greedy MaxRects places every item:
/// scans up from the area/tallest-item lower bound. Any height it
/// succeeds at is a feasible packing, so the ratio to the exact optimum
/// is a true quality factor (≥ 1).
fn maxrects_strip_height(items: &[Size], width: u32) -> u32 {
    let area: u64 = items.iter().map(|s| s.area()).sum();
    let tallest = items.iter().map(|s| s.h).max().unwrap_or(0);
    let total_h: u32 = items.iter().map(|s| s.h).sum();
    let lower = u32::try_from(area.div_ceil(u64::from(width))).expect("small instance");
    let mut h = lower.max(tallest);
    while h <= total_h {
        if FreeSpace::new(Size::new(width, h))
            .place_all(items)
            .is_some()
        {
            return h;
        }
        h += 1;
    }
    unreachable!("stacking all items vertically always fits")
}

/// Heuristic-vs-exact packing quality on seeded small instances — the
/// ROADMAP "packing exactness" metric. All values are deterministic
/// (seeded instances, proven optima).
fn packing_quality_metrics() -> Vec<(&'static str, f64)> {
    let instances = quality_instances();
    let mut skyline_factors = Vec::with_capacity(instances.len());
    let mut maxrects_factors = Vec::with_capacity(instances.len());
    for items in &instances {
        let exact = exact_strip_height(items, QUALITY_WIDTH, QUALITY_BUDGET).unwrap();
        assert!(exact.is_optimal(), "budget too small for {items:?}");
        let optimal = f64::from(exact.height());
        let skyline = f64::from(pack_strip(items, QUALITY_WIDTH).unwrap().height());
        let maxrects = f64::from(maxrects_strip_height(items, QUALITY_WIDTH));
        skyline_factors.push(skyline / optimal);
        maxrects_factors.push(maxrects / optimal);
    }
    let worst = |v: &[f64]| v.iter().copied().fold(1.0f64, f64::max);
    vec![
        ("skyline_quality_mean", harp_bench::mean(&skyline_factors)),
        ("skyline_quality_worst", worst(&skyline_factors)),
        ("maxrects_quality_mean", harp_bench::mean(&maxrects_factors)),
        ("maxrects_quality_worst", worst(&maxrects_factors)),
    ]
}

fn main() {
    let outcome = bench_engine_100_nodes();
    bench_data_plane();
    bench_schedule_table();
    bench_control_plane();
    let quality = packing_quality_metrics();
    for (name, value) in &quality {
        println!("# {name}: {value:.3}");
    }

    let json = to_json_with_sections(
        &quality,
        &[
            ("obs", outcome.obs_json),
            ("trace_sample", outcome.trace_json.clone()),
        ],
    );
    write_report("BENCH_simulator.json", &json);
    // Standalone trace sample (CI uploads it as an artifact; not committed).
    write_report(
        "BENCH_trace_sample.json",
        &format!("{}\n", outcome.trace_json),
    );
}
