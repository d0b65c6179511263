//! Throughput benchmarks of the TSCH simulator and the distributed
//! protocol runner — the substrate costs behind every experiment.
//!
//! The engine runs a 100-node network with the paper's 199-slot,
//! 16-channel slotframe, once timed and once instrumented for a sustained
//! run. Every timing — the means, the engine's slots/sec — is printed as a
//! `timing` line; `BENCH_simulator.json` at the workspace root holds what
//! the seeds determine: the counters and spans of the instrumented
//! sustained run.

use harp_bench::harness::{
    measure, measure_with_setup, print_timing, to_json_with_sections, write_report, Measurement,
};
use harp_core::{HarpNetwork, SchedulingPolicy};
use schedulers::{HarpScheduler, Scheduler};
use std::hint::black_box;
use tsch_sim::{NetworkSchedule, Rate, Simulator, SimulatorBuilder, SlotframeConfig, Task, Tree};
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

fn main() {
    let outcome = bench_engine_100_nodes();
    bench_data_plane();
    bench_schedule_table();
    bench_control_plane();

    let json = to_json_with_sections(
        &[],
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
