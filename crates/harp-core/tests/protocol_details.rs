//! White-box tests of protocol details: message coalescing and order,
//! partition translation on sibling moves, pending-request consumption,
//! and report accounting.

use harp_core::{HarpMessage, HarpNetwork, Requirements, ResourceComponent, SchedulingPolicy};
use tsch_sim::{Direction, Link, NodeId, SlotframeConfig, Tree};

fn fig1_reqs(tree: &Tree) -> Requirements {
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), 1);
        reqs.set(Link::down(v), 1);
    }
    reqs
}

#[test]
fn post_partitions_carries_both_directions_in_one_message() {
    // The gateway's POST-part to each child must contain uplink and
    // downlink entries together (one message per child, as on the testbed).
    let tree = Tree::paper_fig1_example();
    // Drive the static phase synchronously and capture the gateway's output.
    let mut net = fresh_network(&tree);
    let mut inbox = bootstrap_all(&mut net);
    let mut gateway_posts = Vec::new();
    while let Some((from, to, msg)) = inbox.pop() {
        if from == tree.root() {
            if let HarpMessage::PostPartitions { partitions } = &msg {
                gateway_posts.push((to, partitions.clone()));
            }
        }
        let fx = net.deliver_now(from, to, msg).unwrap();
        inbox.extend(fx.messages.into_iter().map(|(t, m)| (to, t, m)));
    }
    assert!(!gateway_posts.is_empty());
    for (child, partitions) in gateway_posts {
        let has_up = partitions.iter().any(|&(d, _, _)| d == Direction::Up);
        let has_down = partitions.iter().any(|&(d, _, _)| d == Direction::Down);
        assert!(
            has_up && has_down,
            "POST-part to {child} missing a direction"
        );
    }
}

#[test]
fn sibling_move_translates_nested_partitions() {
    // When an adjustment moves a sibling subtree's partition, every nested
    // partition inside it must translate with it, and the descendants'
    // schedules must follow.
    let tree = Tree::paper_fig1_example();
    let config = SlotframeConfig::paper_default();
    let reqs = fig1_reqs(&tree);
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();

    // Before: record where node 7 schedules layer 3.
    let before = net.node(NodeId(7)).partition(Direction::Up, 3).unwrap();

    // A large layer-3 increase from node 8's side forces the gateway layer
    // to reorganise; wherever node 7's partition lands, its cells must
    // still be exclusive and satisfy its links.
    net.adjust_and_settle(net.now(), Link::up(NodeId(11)), 9)
        .unwrap();
    let after = net.node(NodeId(7)).partition(Direction::Up, 3).unwrap();
    assert!(net.schedule().is_exclusive());
    let mut expected = reqs.clone();
    expected.set(Link::up(NodeId(11)), 9);
    assert!(harp_core::unsatisfied_links(&tree, &expected, net.schedule()).is_empty());
    // The partition may or may not have moved; if it did, the schedule
    // followed it (cells of links 9→7 and 10→7 are inside `after`).
    for child in [NodeId(9), NodeId(10)] {
        for cell in net.schedule().cells_of(Link::up(child)) {
            assert!(
                cell.slot >= after.left() && cell.slot < after.right(),
                "cell {cell} outside node 7's row {after:?} (was {before:?})"
            );
        }
    }
}

#[test]
fn pending_requests_are_consumed_once() {
    // Two successive escalating increases at the same link must both
    // resolve (a stale pending entry would corrupt the second).
    let tree = Tree::paper_fig1_example();
    let config = SlotframeConfig::paper_default();
    let reqs = fig1_reqs(&tree);
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();
    for cells in [4u32, 8] {
        net.adjust_and_settle(net.now(), Link::up(NodeId(9)), cells)
            .unwrap();
        assert!(net.schedule().is_exclusive());
        assert_eq!(
            net.schedule().cells_of(Link::up(NodeId(9))).len(),
            cells as usize
        );
    }
}

#[test]
fn interleaved_up_and_down_changes_do_not_interfere() {
    let tree = Tree::paper_fig1_example();
    let config = SlotframeConfig::paper_default();
    let reqs = fig1_reqs(&tree);
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();
    // Fire both directions' changes at the same instant, settle once.
    let now = net.now();
    net.reset_report();
    net.request_change(now, Link::up(NodeId(9)), 3).unwrap();
    net.request_change(now, Link::down(NodeId(9)), 4).unwrap();
    net.run_until_quiescent().unwrap();
    assert!(net.schedule().is_exclusive());
    assert_eq!(net.schedule().cells_of(Link::up(NodeId(9))).len(), 3);
    assert_eq!(net.schedule().cells_of(Link::down(NodeId(9))).len(), 4);
}

#[test]
fn report_counts_are_internally_consistent() {
    let tree = Tree::paper_fig1_example();
    let config = SlotframeConfig::paper_default();
    let reqs = fig1_reqs(&tree);
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    let report = net.run_static().unwrap();
    assert!(report.completed_at >= report.started_at);
    assert!(!report.involved_nodes.is_empty());
    // Static phase sends no dynamic messages, so no layers recorded.
    assert!(report.layers.is_empty());
    // Seconds and slotframes derive from the same elapsed count.
    let secs = report.elapsed_seconds(config);
    assert!((secs - config.slots_to_seconds(report.elapsed_slots())).abs() < 1e-9);
}

#[test]
fn zero_demand_network_converges_with_empty_schedule() {
    let tree = Tree::paper_fig1_example();
    let config = SlotframeConfig::paper_default();
    let reqs = Requirements::new();
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();
    assert!(net.quiescent());
    assert_eq!(net.schedule().assignment_count(), 0);
    // A first demand can still be injected dynamically.
    net.adjust_and_settle(net.now(), Link::up(NodeId(4)), 2)
        .unwrap();
    assert_eq!(net.schedule().cells_of(Link::up(NodeId(4))).len(), 2);
    assert!(net.schedule().is_exclusive());
}

#[test]
fn resource_component_growth_direction_matters() {
    // A [n,1] row growing in channels (the paper's C_{40,5}: [1,1]→[1,2]
    // event shape) — direct rows cannot grow in channels, but composed
    // layers can; check a channel-growth adjustment at a composed layer.
    let tree = Tree::paper_fig1_example();
    let config = SlotframeConfig::paper_default();
    let reqs = fig1_reqs(&tree);
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();
    // Increase both children of node 7 so that C_{3,3} must grow in the
    // channel dimension (two rows of width 2 compose to [2,2] within the
    // slot budget rather than [4,1]).
    net.adjust_and_settle(net.now(), Link::up(NodeId(9)), 2)
        .unwrap();
    net.adjust_and_settle(net.now(), Link::up(NodeId(10)), 2)
        .unwrap();
    assert!(net.schedule().is_exclusive());
    let iface = net.node(NodeId(7)).interface(Direction::Up).unwrap();
    assert_eq!(iface.component(3), Some(ResourceComponent::row(4)));
}

// ---- handler idempotency (transport duplicates as defence in depth) ----

fn variant(msg: &HarpMessage) -> &'static str {
    match msg {
        HarpMessage::PostInterface { .. } => "PostInterface",
        HarpMessage::PostPartitions { .. } => "PostPartitions",
        HarpMessage::PutInterface { .. } => "PutInterface",
        HarpMessage::PutPartition { .. } => "PutPartition",
        HarpMessage::CellAssignment { .. } => "CellAssignment",
    }
}

/// Drives a synchronous exchange delivering every message **twice**. The
/// duplicate must be a no-op: no new messages, no schedule write (its
/// version does not move), and the receiver's state unchanged (compared
/// via its `Debug` rendering, which lists every getter's reading).
/// Returns the set of message variants exercised.
fn drive_with_duplicates(
    net: &mut HarpNetwork,
    mut inbox: Vec<(NodeId, NodeId, HarpMessage)>,
) -> std::collections::BTreeSet<&'static str> {
    let mut covered = std::collections::BTreeSet::new();
    while let Some((from, to, msg)) = inbox.pop() {
        covered.insert(variant(&msg));
        let fx = net.deliver_now(from, to, msg.clone()).unwrap();
        let state_after = format!("{:?}", net.node(to));
        let version = net.schedule().version();
        let dup = net.deliver_now(from, to, msg.clone()).unwrap();
        assert!(
            dup.messages.is_empty(),
            "duplicate {} re-delivered to {to} re-emitted messages: {:?}",
            variant(&msg),
            dup.messages
        );
        assert_eq!(
            net.schedule().version(),
            version,
            "duplicate {} re-delivered to {to} rewrote the schedule",
            variant(&msg)
        );
        assert_eq!(
            format!("{:?}", net.node(to)),
            state_after,
            "duplicate {} re-delivered to {to} changed node state",
            variant(&msg)
        );
        inbox.extend(fx.messages.into_iter().map(|(t, m)| (to, t, m)));
    }
    covered
}

/// Fig. 1 with one cell per link, before the static phase.
fn fresh_network(tree: &Tree) -> HarpNetwork {
    let config = SlotframeConfig::paper_default();
    let policy = SchedulingPolicy::RateMonotonic;
    HarpNetwork::new(tree.clone(), config, &fig1_reqs(tree), policy)
}

/// Every node's bootstrap, in id order: the first wave of the static phase.
fn bootstrap_all(net: &mut HarpNetwork) -> Vec<(NodeId, NodeId, HarpMessage)> {
    let mut inbox = Vec::new();
    for from in net.tree().clone().nodes() {
        let fx = net.bootstrap_node(from).unwrap();
        inbox.extend(fx.messages.into_iter().map(|(to, m)| (from, to, m)));
    }
    inbox
}

#[test]
fn static_phase_handlers_are_idempotent() {
    let tree = Tree::paper_fig1_example();
    let mut net = fresh_network(&tree);
    let inbox = bootstrap_all(&mut net);
    let covered = drive_with_duplicates(&mut net, inbox);
    for want in ["PostInterface", "PostPartitions", "CellAssignment"] {
        assert!(
            covered.contains(want),
            "static phase never exercised {want}"
        );
    }
}

#[test]
fn dynamic_phase_handlers_are_idempotent() {
    let tree = Tree::paper_fig1_example();
    let mut net = fresh_network(&tree);
    // Converge the static phase first (without duplicates).
    let mut inbox = bootstrap_all(&mut net);
    while let Some((from, to, msg)) = inbox.pop() {
        let fx = net.deliver_now(from, to, msg).unwrap();
        inbox.extend(fx.messages.into_iter().map(|(t, m)| (to, t, m)));
    }
    // A large increase deep in the tree escalates through every ancestor,
    // exercising PUT intf, PUT part and fresh cell assignments; deliver the
    // whole cascade with duplicates.
    let parent = tree.parent(NodeId(9)).unwrap();
    let fx = net.request_change_now(Link::up(NodeId(9)), 8).unwrap();
    let inbox: Vec<(NodeId, NodeId, HarpMessage)> = fx
        .messages
        .into_iter()
        .map(|(to, m)| (parent, to, m))
        .collect();
    let covered = drive_with_duplicates(&mut net, inbox);
    for want in ["PutInterface", "PutPartition", "CellAssignment"] {
        assert!(covered.contains(want), "adjustment never exercised {want}");
    }
}

// ---- message order ----

/// Delivers `inbox` and everything it triggers through the synchronous
/// loop (last in, first out), recording `from -> to: message` for every
/// delivery.
fn deliver_in_order(
    net: &mut HarpNetwork,
    mut inbox: Vec<(NodeId, NodeId, HarpMessage)>,
) -> Vec<String> {
    let mut seen = Vec::new();
    while let Some((from, to, msg)) = inbox.pop() {
        seen.push(format!("{from} -> {to}: {msg}"));
        let fx = net.deliver_now(from, to, msg).unwrap();
        inbox.extend(fx.messages.into_iter().map(|(t, m)| (to, t, m)));
    }
    seen
}

/// The messages the parent of `child` sends for one traffic change of the
/// uplink of `child`.
fn change(net: &mut HarpNetwork, child: NodeId, cells: u32) -> Vec<(NodeId, NodeId, HarpMessage)> {
    let node = net.tree().parent(child).unwrap();
    let fx = net.request_change_now(Link::up(child), cells).unwrap();
    fx.messages
        .into_iter()
        .map(|(to, m)| (node, to, m))
        .collect()
}

/// The static wave and three cascades on fig. 1, one cell per link, each
/// message in the order it is delivered: `Up N9 → 8` climbs to the
/// gateway (N3's Alg. 2 step fails), `Up N2 → 5` is absorbed by the
/// gateway re-placing its own row, and `Up N11 → 2` is absorbed by N3's
/// Alg. 2 step. Counts and timing are pinned elsewhere; this pins order.
#[test]
fn messages_leave_in_a_fixed_order() {
    let tree = Tree::paper_fig1_example();
    let mut net = fresh_network(&tree);
    let inbox = bootstrap_all(&mut net);
    assert_eq!(
        deliver_in_order(&mut net, inbox),
        [
            "N8 -> N3: POST intf up={l3:[1, 1]} down={l3:[1, 1]}",
            "N7 -> N3: POST intf up={l3:[2, 1]} down={l3:[2, 1]}",
            "N3 -> N0: POST intf up={l2:[2, 1], l3:[2, 2]} down={l2:[2, 1], l3:[2, 2]}",
            "N2 -> N0: POST intf up={l2:[1, 1]} down={l2:[1, 1]}",
            "N1 -> N0: POST intf up={l2:[2, 1]} down={l2:[2, 1]}",
            "N0 -> N3: CELLS down (1 cells)",
            "N0 -> N2: CELLS down (1 cells)",
            "N0 -> N1: CELLS down (1 cells)",
            "N0 -> N3: POST part (4 entries)",
            "N3 -> N8: CELLS down (1 cells)",
            "N3 -> N7: CELLS down (1 cells)",
            "N3 -> N8: POST part (2 entries)",
            "N8 -> N11: CELLS down (1 cells)",
            "N8 -> N11: CELLS up (1 cells)",
            "N3 -> N7: POST part (2 entries)",
            "N7 -> N10: CELLS down (1 cells)",
            "N7 -> N9: CELLS down (1 cells)",
            "N7 -> N10: CELLS up (1 cells)",
            "N7 -> N9: CELLS up (1 cells)",
            "N3 -> N8: CELLS up (1 cells)",
            "N3 -> N7: CELLS up (1 cells)",
            "N0 -> N2: POST part (2 entries)",
            "N2 -> N6: CELLS down (1 cells)",
            "N2 -> N6: CELLS up (1 cells)",
            "N0 -> N1: POST part (2 entries)",
            "N1 -> N5: CELLS down (1 cells)",
            "N1 -> N4: CELLS down (1 cells)",
            "N1 -> N5: CELLS up (1 cells)",
            "N1 -> N4: CELLS up (1 cells)",
            "N0 -> N3: CELLS up (1 cells)",
            "N0 -> N2: CELLS up (1 cells)",
            "N0 -> N1: CELLS up (1 cells)",
        ]
    );
    let inbox = change(&mut net, NodeId(9), 8);
    assert_eq!(
        deliver_in_order(&mut net, inbox),
        [
            "N7 -> N3: PUT intf up l3 [9, 1]",
            "N3 -> N0: PUT intf up l3 [9, 2]",
            "N0 -> N3: PUT part up l3 9x2+(14, 0)",
            "N3 -> N8: PUT part up l3 1x1+(14, 1)",
            "N8 -> N11: CELLS up (1 cells)",
            "N3 -> N7: PUT part up l3 9x1+(14, 0)",
            "N7 -> N10: CELLS up (1 cells)",
            "N7 -> N9: CELLS up (8 cells)",
        ]
    );
    let inbox = change(&mut net, NodeId(2), 5);
    assert_eq!(
        deliver_in_order(&mut net, inbox),
        [
            "N0 -> N3: CELLS up (1 cells)",
            "N0 -> N1: CELLS up (1 cells)",
            "N0 -> N2: CELLS up (5 cells)",
        ]
    );
    let inbox = change(&mut net, NodeId(11), 2);
    assert_eq!(
        deliver_in_order(&mut net, inbox),
        [
            "N8 -> N3: PUT intf up l3 [2, 1]",
            "N3 -> N8: PUT part up l3 2x1+(14, 1)",
            "N8 -> N11: CELLS up (2 cells)",
        ]
    );
}
