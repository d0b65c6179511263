//! Regression tests for the schedule-op sink: every pathway that mutates the
//! network's internal schedule — static phase, dynamic adjustments, topology
//! changes and global refreshes — must emit the matching [`ScheduleOp`]s, so
//! an embedding simulator replaying [`HarpNetwork::take_ops`] onto its own
//! [`NetworkSchedule`] stays in lockstep. (Earlier versions silently dropped
//! the ops of `join_leaf`/`leave_leaf`/`reparent_leaf` and `refresh`.)

use harp_core::{apply_op, HarpNetwork, Requirements, SchedulingPolicy};
use tsch_sim::{Link, NetworkSchedule, NodeId, SlotframeConfig, Tree};

fn fig1_reqs(tree: &Tree) -> Requirements {
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), 1);
        reqs.set(Link::down(v), 1);
    }
    reqs
}

fn assert_mirror_matches(net: &HarpNetwork, mirror: &NetworkSchedule, stage: &str) {
    let got: Vec<_> = mirror.iter_links().map(|(l, c)| (l, c.to_vec())).collect();
    let want: Vec<_> = net
        .schedule()
        .iter_links()
        .map(|(l, c)| (l, c.to_vec()))
        .collect();
    assert_eq!(got, want, "external mirror diverged after {stage}");
}

#[test]
fn every_mutation_pathway_emits_mirrorable_ops() {
    let tree = Tree::paper_fig1_example();
    let config = SlotframeConfig::paper_default();
    let reqs = fig1_reqs(&tree);
    let mut net = HarpNetwork::new(tree, config, &reqs, SchedulingPolicy::RateMonotonic);
    let mut mirror = NetworkSchedule::new(config);

    let replay = |net: &mut HarpNetwork, mirror: &mut NetworkSchedule, stage: &str| {
        for op in net.take_ops() {
            apply_op(mirror, &op).unwrap();
        }
        assert_mirror_matches(net, mirror, stage);
    };

    // Static phase via bootstrap + drain (the op-returning path).
    let boot_ops = net.bootstrap().unwrap();
    for op in &boot_ops {
        apply_op(&mut mirror, op).unwrap();
    }
    net.run_until_quiescent().unwrap();
    replay(&mut net, &mut mirror, "static phase");

    // Dynamic adjustment (multi-hop escalation).
    net.adjust_and_settle(net.now(), Link::up(NodeId(9)), 4)
        .unwrap();
    replay(&mut net, &mut mirror, "adjust_and_settle");

    // A leaf joins with fresh demand.
    let (joined, _) = net.join_leaf(net.now(), NodeId(7), 2, 1).unwrap();
    replay(&mut net, &mut mirror, "join_leaf");

    // A leaf reparents (release at the old parent, re-grant at the new).
    net.reparent_leaf(net.now(), joined, NodeId(8)).unwrap();
    replay(&mut net, &mut mirror, "reparent_leaf");

    // A leaf leaves (its cells are released).
    net.leave_leaf(net.now(), joined).unwrap();
    replay(&mut net, &mut mirror, "leave_leaf");

    // Global refresh rebuilds the whole layout; the sink must release the
    // old cells before re-assigning, or the mirror replay double-books.
    let (_, moved) = net.refresh().unwrap();
    replay(&mut net, &mut mirror, "refresh");
    assert!(net.quiescent());
    let _ = moved;
}

#[test]
fn topology_events_keep_each_others_ops_and_bump_the_version_once() {
    // A leave or a reparent used to drain the sink through the public
    // `request_change`, dropping the ops of every event before it, and to
    // advance the version three times.
    let tree = Tree::paper_fig1_example();
    let config = SlotframeConfig::paper_default();
    let reqs = fig1_reqs(&tree);
    let mut net = HarpNetwork::new(tree, config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();
    let mut mirror = net.schedule().clone();

    let v0 = net.version();
    let (joined, _) = net.join_leaf(net.now(), NodeId(7), 2, 1).unwrap();
    assert_eq!(net.version(), v0 + 1, "join");
    net.leave_leaf(net.now(), joined).unwrap();
    assert_eq!(net.version(), v0 + 2, "leave");
    net.reparent_leaf(net.now(), NodeId(10), NodeId(8)).unwrap();
    assert_eq!(net.version(), v0 + 3, "reparent");

    for op in net.take_ops() {
        apply_op(&mut mirror, &op).unwrap();
    }
    assert_mirror_matches(&net, &mirror, "join, leave and reparent with one drain");
}

#[test]
fn run_static_clears_the_sink_for_lockstep_embedding() {
    // Lockstep callers clone the post-static schedule as their mirror seed;
    // a stale static-phase op replayed afterwards would double-assign.
    let tree = Tree::paper_fig1_example();
    let config = SlotframeConfig::paper_default();
    let reqs = fig1_reqs(&tree);
    let mut net = HarpNetwork::new(tree, config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();
    assert!(net.take_ops().is_empty());
}
