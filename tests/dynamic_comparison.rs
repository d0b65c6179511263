//! HARP under a traffic surge: it spends a few management messages and
//! never collides.

use harp::core::{HarpNetwork, SchedulingPolicy};
use harp::sim::{
    GlobalInterference, Link, NodeId, Rate, SimulatorBuilder, SlotframeConfig, Task, TaskId,
};

/// The shared scenario: a 50-node network where one deep node's rate jumps
/// from 1 to 4 packets per slotframe.
fn scenario() -> (tsch_sim::Tree, NodeId) {
    let tree = workloads::testbed_50_node_tree();
    let surging = tree.nodes_at_depth(4)[0];
    (tree, surging)
}

#[test]
fn harp_absorbs_surge_without_collisions() {
    let (tree, surging) = scenario();
    let config = SlotframeConfig::paper_default();
    let reqs = workloads::uniform_link_requirements(&tree, 1);
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();
    // The surge raises demand on every link of the node's uplink path.
    let mut total_msgs = 0;
    for hop in tree.path_to_root(surging).windows(2) {
        let report = net
            .adjust_and_settle(net.now(), Link::up(hop[0]), 4)
            .unwrap();
        total_msgs += report.mgmt_messages;
    }

    // Drive the data plane with the surged traffic on the final schedule.
    let mut builder = SimulatorBuilder::new(tree.clone(), config)
        .schedule(net.schedule().clone())
        .interference(Box::new(GlobalInterference));
    builder = builder
        .task(Task::uplink(TaskId(0), surging, Rate::per_slotframe(4)))
        .unwrap();
    let mut sim = builder.build();
    sim.run_slotframes(20);
    // Drain the in-flight tail (adjusted partitions lose the compliant
    // ordering, so a packet may span two frames).
    sim.set_task_rate(TaskId(0), Rate::per_slotframe(0))
        .unwrap();
    sim.run_slotframes(4);

    assert_eq!(sim.stats().collisions, 0, "HARP never collides");
    assert_eq!(sim.stats().deliveries.len() as u64, sim.stats().generated);
    assert!(total_msgs >= 2, "the surge escalates at least one hop");
    assert!(total_msgs <= 120, "but stays far from a full rebuild");
}
