//! Quickstart: partition a small industrial network with HARP and watch a
//! traffic change get absorbed.
//!
//! Run with `cargo run --example quickstart`.

use harp::core::{HarpNetwork, Requirements, SchedulingPolicy};
use harp::sim::{Direction, Link, NodeId, SlotframeConfig, Tree};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The 12-node, 3-layer network of the paper's Fig. 1.
    let tree = Tree::paper_fig1_example();
    println!("network: {} nodes, {} layers", tree.len(), tree.layers());

    // One cell per uplink and downlink for every node's subtree traffic
    // (the testbed's demand model: a parent forwards its whole subtree).
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), tree.subtree_size(v));
        reqs.set(Link::down(v), tree.subtree_size(v));
    }

    // Deploy HARP: one state machine per device, a management plane with
    // realistic per-hop timing, and run the static partition allocation.
    let mut net = HarpNetwork::new(
        tree.clone(),
        SlotframeConfig::paper_default(),
        &reqs,
        SchedulingPolicy::RateMonotonic,
    );
    let report = net.run_static()?;
    println!(
        "static phase: {} management messages, {:.2} s, schedule exclusive: {}",
        report.mgmt_messages,
        report.elapsed_seconds(net.config()),
        net.schedule().is_exclusive()
    );

    // Inspect the hierarchy: every non-leaf node got a dedicated row.
    for v in tree.nodes() {
        if tree.is_leaf(v) {
            continue;
        }
        let row = net
            .node(v)
            .partition(Direction::Up, tree.link_layer(v))
            .expect("allocated");
        println!(
            "  {v}: uplink scheduling row at slots {}..{} channel {}",
            row.left(),
            row.right(),
            row.bottom()
        );
    }

    // A traffic change: link 9 -> 7 suddenly needs 3 cells instead of 1.
    let adj = net.adjust_and_settle(net.now(), Link::up(NodeId(9)), 3)?;
    println!(
        "adjustment: {} management messages, {} nodes involved, {:.2} s",
        adj.mgmt_messages,
        adj.involved_nodes,
        adj.elapsed_seconds(net.config())
    );
    assert!(net.schedule().is_exclusive(), "still collision-free");
    println!(
        "link N9:up now holds {} cells — done",
        net.schedule().cells_of(Link::up(NodeId(9))).len()
    );
    Ok(())
}
