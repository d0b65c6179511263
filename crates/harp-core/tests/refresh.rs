//! Tests of the maintenance-window refresh: after a storm of incremental
//! adjustments, a refresh restores the static phase's latency-compliant
//! layout at the cost of one full static-phase message exchange.

use harp_core::{
    allocate_partitions, build_interfaces, latency_bound, unsatisfied_links, verify_schedule,
    verify_uplink_compliance, HarpNetwork, Requirements, SchedulingPolicy,
};
use tsch_sim::{Direction, Link, NodeId, Rate, SlotframeConfig, Task, TaskId, Tree};

fn network() -> (Tree, Requirements, HarpNetwork) {
    let tree = Tree::paper_fig1_example();
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), 1);
        reqs.set(Link::down(v), 1);
    }
    let net = HarpNetwork::new(
        tree.clone(),
        SlotframeConfig::paper_default(),
        &reqs,
        SchedulingPolicy::RateMonotonic,
    );
    (tree, reqs, net)
}

#[test]
fn refresh_restores_compliance_after_adjustments() {
    let (tree, reqs, mut net) = network();
    net.run_static().unwrap();

    // A storm of growth that drags partitions into the slotframe's idle
    // area (losing compliant ordering).
    let changes = [(9u32, 4u32), (10, 3), (11, 5), (4, 3), (6, 4)];
    let mut expected = reqs.clone();
    for (node, cells) in changes {
        net.adjust_and_settle(net.now(), Link::up(NodeId(node)), cells)
            .unwrap();
        expected.set(Link::up(NodeId(node)), cells);
    }
    assert!(net.schedule().is_exclusive());

    // Refresh: demands preserved, compliance restored.
    let (report, moved) = net.refresh().unwrap();
    assert!(net.quiescent());
    assert!(report.mgmt_messages >= 10, "a refresh pays the static bill");
    assert!(moved > 0, "the layout actually changed");
    assert!(verify_schedule(&tree, &expected, net.schedule()).is_empty());

    // The refreshed layout matches the centralized oracle for the *current*
    // demands — i.e. it is exactly the compliant static allocation.
    let cfg = SlotframeConfig::paper_default();
    let up = build_interfaces(&tree, &expected, Direction::Up, cfg.channels).unwrap();
    let down = build_interfaces(&tree, &expected, Direction::Down, cfg.channels).unwrap();
    let table = allocate_partitions(&tree, &up, &down, cfg).unwrap();
    assert!(verify_uplink_compliance(&tree, &table).is_empty());

    // Latency bound after refresh: every uplink task fits two slotframes
    // again (compliant best case within one).
    for v in tree.nodes().skip(1) {
        let task = Task::uplink(TaskId(0), v, Rate::per_slotframe(1));
        let bound = latency_bound(net.schedule(), &tree, &task).unwrap();
        assert!(
            bound.best_case_slots <= u64::from(cfg.slots),
            "{v} best case {} after refresh",
            bound.best_case_slots
        );
    }
}

/// A refresh re-lays the schedule, not the network's history: no counter of
/// the metrics goes back, the nodes' adjustment counts included.
#[test]
fn a_refresh_takes_back_no_count() {
    let (_, _, mut net) = network();
    net.run_static().unwrap();
    for (node, cells) in [(9u32, 4u32), (10, 3), (11, 5), (4, 3), (6, 4), (9, 1)] {
        net.adjust_and_settle(net.now(), Link::up(NodeId(node)), cells)
            .unwrap();
    }
    let before = net.metrics_snapshot();
    assert!(before.counter("harp.node.escalations") > Some(0));
    net.refresh().unwrap();
    let after = net.metrics_snapshot();
    for (name, &was) in &before.counters {
        let now = after.counter(name).unwrap_or(0);
        assert!(now >= was, "{name} fell from {was} to {now}");
    }
}

#[test]
fn refresh_is_idempotent() {
    let (tree, reqs, mut net) = network();
    net.run_static().unwrap();
    let (_, moved_first) = net.refresh().unwrap();
    // Right after a static phase, a refresh recomputes the same layout.
    assert_eq!(moved_first, 0, "refresh of a fresh layout moves nothing");
    let (_, moved_second) = net.refresh().unwrap();
    assert_eq!(moved_second, 0);
    assert!(unsatisfied_links(&tree, &reqs, net.schedule()).is_empty());
}

#[test]
fn network_remains_adjustable_after_refresh() {
    let (_, _, mut net) = network();
    net.run_static().unwrap();
    net.adjust_and_settle(net.now(), Link::up(NodeId(9)), 6)
        .unwrap();
    net.refresh().unwrap();
    // The refreshed state machines keep working for further dynamics.
    net.adjust_and_settle(net.now(), Link::up(NodeId(10)), 4)
        .unwrap();
    assert!(net.schedule().is_exclusive());
    assert_eq!(net.schedule().cells_of(Link::up(NodeId(9))).len(), 6);
    assert_eq!(net.schedule().cells_of(Link::up(NodeId(10))).len(), 4);
}

#[test]
fn rejected_adjustment_is_fully_rolled_back() {
    // Regression: a rejected (infeasible) adjustment must not leave the
    // inflated demand behind — a later refresh or adjustment would
    // otherwise explode on the phantom requirement.
    let (tree, reqs, mut net) = network();
    net.run_static().unwrap();
    let before = net
        .node(tree.parent(NodeId(9)).unwrap())
        .requirement(Direction::Up, NodeId(9));

    let result = net.adjust_and_settle(net.now(), Link::up(NodeId(9)), 500);
    assert!(result.is_err(), "500 cells cannot fit");

    // Demand restored at the parent, schedule untouched, plane drained.
    let after = net
        .node(tree.parent(NodeId(9)).unwrap())
        .requirement(Direction::Up, NodeId(9));
    assert_eq!(after, before);
    assert!(net.quiescent());
    assert!(unsatisfied_links(&tree, &reqs, net.schedule()).is_empty());

    // Both a follow-up adjustment and a refresh now succeed cleanly.
    net.adjust_and_settle(net.now(), Link::up(NodeId(9)), 3)
        .unwrap();
    let (_, _moved) = net.refresh().unwrap();
    assert!(net.schedule().is_exclusive());
    assert_eq!(net.schedule().cells_of(Link::up(NodeId(9))).len(), 3);
}
