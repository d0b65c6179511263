//! A shift change on the factory floor: a burst of traffic changes sweeps
//! the network and HARP absorbs each one without ever breaking schedule
//! exclusivity.
//!
//! The example raises and lowers demands across all layers — including an
//! infeasible request and an impossible join that HARP must reject
//! cleanly — and prints the adjustment cost of every event.
//!
//! Run with `cargo run --example network_dynamics`.

use harp::core::{HarpError, HarpNetwork, SchedulingPolicy};
use harp::sim::{Link, NodeId, SlotframeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tree = workloads::testbed_50_node_tree();
    let config = SlotframeConfig::paper_default();
    let reqs = workloads::uniform_link_requirements(&tree, 1);

    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static()?;
    println!(
        "static phase done at {:.2} s\n",
        config.slots_to_seconds(net.now().0)
    );

    // A burst of demand changes at different layers, including decreases.
    let events: [(Link, u32, &str); 7] = [
        (Link::up(NodeId(45)), 2, "leaf sensor doubles its rate"),
        (
            Link::up(NodeId(17)),
            3,
            "layer-3 relay aggregates a new sensor",
        ),
        (
            Link::down(NodeId(14)),
            2,
            "actuator at layer 2 gets a new setpoint stream",
        ),
        (Link::up(NodeId(45)), 1, "leaf sensor backs off again"),
        (
            Link::up(NodeId(5)),
            4,
            "layer-2 subtree turns on a camera burst",
        ),
        (
            Link::down(NodeId(33)),
            3,
            "deep actuator joins a control loop",
        ),
        (Link::up(NodeId(1)), 6, "whole east wing ramps up"),
    ];

    println!(
        "{:<46} {:>5} {:>6} {:>8}",
        "event", "msgs", "nodes", "time(s)"
    );
    for (link, cells, label) in events {
        let report = net.adjust_and_settle(net.now(), link, cells)?;
        assert!(net.schedule().is_exclusive(), "never a collision");
        assert_eq!(net.schedule().cells_of(link).len(), cells as usize);
        println!(
            "{label:<46} {:>5} {:>6} {:>8.2}",
            report.mgmt_messages,
            report.involved_nodes.len(),
            report.elapsed_seconds(config)
        );
    }

    // An impossible demand is rejected without corrupting the network.
    let before = net.schedule().assignment_count();
    match net.adjust_and_settle(net.now(), Link::up(NodeId(45)), 500) {
        Err(HarpError::SlotframeOverflow {
            needed_slots,
            available,
        }) => println!(
            "\ninfeasible request rejected: needs {needed_slots} slots, slotframe has {available}"
        ),
        other => panic!("expected an overflow rejection, got {other:?}"),
    }
    assert!(net.schedule().is_exclusive());
    println!(
        "schedule intact after rejection ({before} assignments) — network still collision-free"
    );

    // So is a device that asks to join with more than the slotframe holds:
    // the join is rolled back, tree included.
    let nodes = net.tree().len();
    match net.join_leaf(net.now(), NodeId(45), 500, 1) {
        Err(e) => println!("impossible join rejected: {e}"),
        Ok((id, _)) => panic!("expected the join to be rejected, {id} joined"),
    }
    assert_eq!(net.schedule().assignment_count(), before);
    assert_eq!(net.tree().len(), nodes);
    println!("tree and schedule unchanged after rejection ({nodes} nodes)");

    // A maintenance window: defragment back to the compliant static layout.
    let (refresh_report, links_moved) = net.refresh()?;
    println!(
        "\nmaintenance refresh: {} mgmt messages, {} links re-celled, {:.2} s — compliant again",
        refresh_report.mgmt_messages,
        links_moved,
        refresh_report.elapsed_seconds(config)
    );
    assert!(net.schedule().is_exclusive());
    Ok(())
}
