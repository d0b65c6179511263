//! Integration tests for the two future-work extensions: the end-to-end
//! latency/deadline analysis validated against the simulator, and HARP over
//! mesh topologies decomposed into a routing tree plus interference edges.

use harp::core::{check_deadlines, latency_bound, DeadlineTask, HarpNetwork, SchedulingPolicy};
use harp::sim::{Rate, SimulatorBuilder, SlotframeConfig, Task, TaskId, TwoHopInterference};
use schedulers::{AliceScheduler, HarpScheduler, RandomScheduler, Scheduler};
use workloads::{Mesh, TopologyConfig};

#[test]
fn analysis_bound_dominates_simulated_latency() {
    // On a loss-free network with per-task dedicated cells, every simulated
    // latency must sit within [best_case, worst_case] of the analysis.
    let config = SlotframeConfig::paper_default();
    for seed in 0..5 {
        let tree = TopologyConfig {
            nodes: 20,
            layers: 4,
            max_children: 5,
        }
        .generate(seed);
        let rate = Rate::per_slotframe(1);
        let reqs = workloads::aggregated_echo_requirements(&tree, rate);
        let mut net =
            HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
        net.run_static().unwrap();
        let schedule = net.schedule().clone();

        let tasks = workloads::echo_task_per_node(&tree, rate);
        let mut builder = SimulatorBuilder::new(tree.clone(), config).schedule(schedule.clone());
        for t in &tasks {
            builder = builder.task(t.clone()).unwrap();
        }
        let mut sim = builder.build();
        sim.run_slotframes(12);

        for task in &tasks {
            let bound = latency_bound(&schedule, &tree, task).unwrap();
            for latency in sim.stats().latencies_of(task.source) {
                assert!(
                    latency <= bound.worst_case_slots,
                    "seed {seed}: {} took {latency} > bound {}",
                    task.source,
                    bound.worst_case_slots
                );
                assert!(
                    latency >= bound.best_case_slots,
                    "seed {seed}: {} took {latency} < best case {}",
                    task.source,
                    bound.best_case_slots
                );
            }
        }
    }
}

#[test]
fn harp_static_schedules_are_deadline_schedulable_within_two_frames() {
    let config = SlotframeConfig::paper_default();
    let tree = workloads::testbed_50_node_tree();
    let rate = Rate::per_slotframe(1);
    let reqs = workloads::aggregated_echo_requirements(&tree, rate);
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();

    let deadline = 2 * u64::from(config.slots);
    let tasks: Vec<DeadlineTask> = workloads::echo_task_per_node(&tree, rate)
        .into_iter()
        .map(|task| DeadlineTask {
            task,
            deadline_slots: deadline,
        })
        .collect();
    let reports = check_deadlines(net.schedule(), &tree, &tasks).unwrap();
    for r in &reports {
        assert!(
            r.is_schedulable(),
            "{} misses: worst case {} > {}",
            r.source,
            r.worst_case_slots,
            r.deadline_slots
        );
    }
}

#[test]
fn harp_on_mesh_topologies_stays_collision_free_under_real_interference() {
    let config = SlotframeConfig::paper_default();
    for seed in 0..5 {
        let mesh = Mesh::random_geometric(40, 0.28, seed);
        let (tree, extra) = mesh.routing_tree();
        let reqs = workloads::uniform_uplink_requirements(&tree, 2);
        let model = TwoHopInterference::with_extra_edges(extra.iter().copied());

        // HARP: exclusive cells → zero collisions under ANY interference.
        let harp = HarpScheduler::default().build_schedule(&tree, &reqs, config, seed);
        let report = harp.collision_report(&tree, &model);
        assert_eq!(report.colliding_assignments, 0, "seed {seed}");

        // The baselines get strictly worse when radio edges beyond the tree
        // are taken into account.
        for s in [&RandomScheduler as &dyn Scheduler, &AliceScheduler] {
            let schedule = s.build_schedule(&tree, &reqs, config, seed);
            let tree_only = schedule
                .collision_report(&tree, &TwoHopInterference::default())
                .colliding_assignments;
            let with_mesh = schedule
                .collision_report(&tree, &model)
                .colliding_assignments;
            assert!(
                with_mesh >= tree_only,
                "{}: mesh interference cannot reduce collisions",
                s.name()
            );
        }
    }
}

#[test]
fn mesh_deployment_runs_end_to_end() {
    // Full pipeline on a mesh: decompose, partition, simulate with the mesh
    // interference model — every packet arrives, zero collisions.
    let config = SlotframeConfig::paper_default();
    let mesh = Mesh::random_geometric(30, 0.3, 42);
    let (tree, extra) = mesh.routing_tree();
    let rate = Rate::per_slotframe(1);
    let reqs = workloads::aggregated_echo_requirements(&tree, rate);
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();

    let mut builder = SimulatorBuilder::new(tree.clone(), config)
        .schedule(net.schedule().clone())
        .interference(Box::new(TwoHopInterference::with_extra_edges(extra)));
    for (i, v) in tree.nodes().skip(1).enumerate() {
        builder = builder.task(Task::echo(TaskId(i as u32), v, rate)).unwrap();
    }
    let mut sim = builder.build();
    sim.run_slotframes(10);
    assert_eq!(sim.stats().collisions, 0);
    assert_eq!(sim.stats().deliveries.len() as u64, sim.stats().generated);
}
