//! Deploying HARP on a real radio mesh: extract the routing tree, keep the
//! non-tree radio links as interference edges, partition, and verify
//! end-to-end deadlines analytically before going live.
//!
//! This exercises two of the paper's future-work extensions implemented in
//! this reproduction: non-tree topologies (footnote 1: decompose into a
//! routing tree) and diverse end-to-end deadlines (§VIII).
//!
//! Run with `cargo run --example mesh_deployment`.

use harp::core::{check_deadlines, DeadlineTask, HarpNetwork, Requirements, SchedulingPolicy};
use harp::sim::{Rate, SimulatorBuilder, SlotframeConfig, Task, TaskId, TwoHopInterference};
use workloads::Mesh;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 45-node plant floor: random geometric radio connectivity.
    let mesh = Mesh::random_geometric(45, 0.28, 2026);
    let (tree, interference_edges) = mesh.routing_tree();
    println!(
        "mesh: {} nodes, {} radio edges -> routing tree of depth {}, {} interference edges",
        mesh.len(),
        mesh.edges().len(),
        tree.layers(),
        interference_edges.len()
    );

    // One echo control loop per node; demand aggregates along the tree.
    let config = SlotframeConfig::paper_default();
    let rate = Rate::per_slotframe(1);
    let tasks: Vec<Task> = tree
        .nodes()
        .skip(1)
        .enumerate()
        .map(|(i, n)| Task::echo(TaskId(i as u32), n, rate))
        .collect();
    let reqs = Requirements::from_tasks(&tree, &tasks);

    // HARP static phase over the extracted tree.
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    let report = net.run_static()?;
    println!(
        "HARP converged: {} mgmt messages in {:.2} s, exclusive: {}",
        report.mgmt_messages,
        report.elapsed_seconds(config),
        net.schedule().is_exclusive()
    );

    // Deadline admission test BEFORE running traffic: every loop must close
    // within two slotframes.
    let deadline = 2 * u64::from(config.slots);
    let deadline_tasks: Vec<DeadlineTask> = tasks
        .iter()
        .map(|task| DeadlineTask {
            task: task.clone(),
            deadline_slots: deadline,
        })
        .collect();
    let verdicts = check_deadlines(net.schedule(), &tree, &deadline_tasks)?;
    let misses: Vec<_> = verdicts.iter().filter(|v| !v.is_schedulable()).collect();
    println!(
        "deadline analysis: {}/{} loops schedulable within {:.2} s{}",
        verdicts.len() - misses.len(),
        verdicts.len(),
        config.slots_to_seconds(deadline),
        if misses.is_empty() {
            " — admitted"
        } else {
            ""
        },
    );
    assert!(
        misses.is_empty(),
        "HARP's compliant layout meets 2-frame deadlines"
    );

    // Go live under the REAL interference graph (mesh edges included) with
    // tracing on: HARP's exclusive cells ignore the extra edges entirely.
    let mut builder = SimulatorBuilder::new(tree.clone(), config)
        .schedule(net.schedule().clone())
        .interference(Box::new(TwoHopInterference::with_extra_edges(
            interference_edges,
        )))
        .trace_capacity(256);
    for task in &tasks {
        builder = builder.task(task.clone())?;
    }
    let mut sim = builder.build();
    sim.run_slotframes(50);
    let stats = sim.stats();
    println!(
        "data plane: {} generated, {} delivered, {} collisions, {} trace failures",
        stats.generated,
        stats.deliveries.len(),
        stats.collisions,
        sim.trace().iter().filter(|e| e.is_failure()).count()
    );
    assert_eq!(stats.collisions, 0);
    assert_eq!(stats.deliveries.len() as u64, stats.generated);
    println!("all control loops closed on a real mesh — zero collisions");
    Ok(())
}
