//! Rollback oracle for [`HarpNetwork::adjust_and_settle`].
//!
//! One network per transport runs a fixed sequence of feasible and
//! infeasible adjustments. The oracle is the test's own pre-image: after
//! every rejection, node state, schedule contents and version, the op sink
//! and quiescence must read exactly as they did before the attempt (the
//! clock alone may advance) — on the reliable transport and under
//! Lossy/Chaos channels, where rollbacks are triggered by retry exhaustion
//! rather than infeasibility and the plane must cancel in-flight messages.
//! `undo_log.rs` asks the same of generated trees and demands.

use harp_core::{apply_op, HarpNetwork, Requirements, SchedulingPolicy};
use std::fmt::Write as _;
use tsch_sim::{Chaos, Link, Lossy, NodeId, SlotframeConfig, Tree};

fn fig1_reqs(tree: &Tree) -> Requirements {
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), tree.subtree_size(v));
        reqs.set(Link::down(v), tree.subtree_size(v));
    }
    reqs
}

#[derive(Clone, Copy)]
enum Channel {
    Reliable,
    Lossy,
    Chaos,
}

fn build(channel: Channel) -> HarpNetwork {
    let tree = Tree::paper_fig1_example();
    let reqs = fig1_reqs(&tree);
    let cfg = SlotframeConfig::paper_default();
    let policy = SchedulingPolicy::RateMonotonic;
    let mut net = match channel {
        Channel::Reliable => HarpNetwork::new(tree, cfg, &reqs, policy),
        Channel::Lossy => HarpNetwork::with_transport(
            tree,
            cfg,
            &reqs,
            policy,
            Box::new(Lossy::uniform(0.8, 42).expect("valid pdr")),
        ),
        Channel::Chaos => HarpNetwork::with_transport(
            tree,
            cfg,
            &reqs,
            policy,
            Box::new(Chaos::new(9, 0.15, 0.10, 0.30, 7)),
        ),
    };
    net.enable_observability(256);
    net
}

/// Every observable byte of the network but the schedule version (checked
/// on its own). The `now` and `metrics` lines are what a failed adjustment
/// legitimately moves: the clock, and the rolled-back counter.
fn state_dump(net: &HarpNetwork) -> String {
    let mut out = String::new();
    for v in net.tree().nodes() {
        writeln!(out, "node {v:?}: {:?}", net.node(v)).unwrap();
    }
    let s = net.schedule();
    writeln!(out, "links {:?}", s.iter_links().collect::<Vec<_>>()).unwrap();
    writeln!(out, "cells {:?}", s.iter_cells().collect::<Vec<_>>()).unwrap();
    writeln!(out, "quiescent {}", net.quiescent()).unwrap();
    writeln!(out, "now {:?}", net.now()).unwrap();
    writeln!(out, "metrics {}", net.metrics_snapshot().to_json()).unwrap();
    out
}

/// The seeded adjustment sequence: `(child node, new cells)` with cell
/// counts far beyond the slotframe mixed in, so both feasible settles and
/// gateway-rejected escalations occur on every channel.
const MOVES: &[(u32, u32)] = &[
    (9, 2),
    (9, 500),
    (10, 3),
    (4, 1),
    (4, 900),
    (5, 2),
    (9, 0),
    (10, 700),
    (10, 1),
    (3, 2),
    (3, 505),
    (8, 1),
];

fn run_moves(channel: Channel) {
    let mut net = build(channel);
    net.run_static().expect("static phase converges");
    assert!(net.take_ops().is_empty());
    // What an embedding simulator would hold: the drained ops, replayed.
    let mut mirror = net.schedule().clone();

    let mut failures = 0usize;
    let mut successes = 0usize;
    for &(node, cells) in MOVES {
        let link = Link::up(NodeId(node));
        let before = state_dump(&net);
        let version_before = net.schedule().version();
        let at = net.now();

        match net.adjust_and_settle(at, link, cells) {
            Ok(_) => {
                successes += 1;
                assert_eq!(net.schedule().cells_of(link).len(), cells as usize);
                assert!(net.schedule().is_exclusive());
                for op in net.take_ops() {
                    apply_op(&mut mirror, &op).unwrap();
                }
            }
            Err(_) => {
                failures += 1;
                let strip_now = |d: &str| {
                    d.lines()
                        .filter(|l| !l.starts_with("now ") && !l.starts_with("metrics "))
                        .collect::<Vec<_>>()
                        .join("\n")
                };
                assert_eq!(
                    strip_now(&before),
                    strip_now(&state_dump(&net)),
                    "state not restored after ({node}, {cells})"
                );
                assert_eq!(net.schedule().version(), version_before);
                assert!(net.quiescent(), "in-flight messages not cancelled");
                assert!(net.take_ops().is_empty(), "a rollback truncates its ops");
            }
        }
        assert!(
            mirror.iter_links().eq(net.schedule().iter_links()),
            "drained ops diverged from the schedule after ({node}, {cells})"
        );
    }
    assert!(successes > 0, "sequence must exercise the commit path");
    assert!(failures > 0, "sequence must exercise the rollback path");
    let snap = net.metrics_snapshot();
    assert_eq!(snap.counter("harp.adjustments"), Some(successes as u64));
    assert_eq!(
        snap.counter("harp.adjustments_rolled_back"),
        Some(failures as u64)
    );
}

#[test]
fn rollback_restores_the_pre_image_on_reliable_transport() {
    run_moves(Channel::Reliable);
}

#[test]
fn rollback_restores_the_pre_image_on_lossy_transport() {
    run_moves(Channel::Lossy);
}

#[test]
fn rollback_restores_the_pre_image_on_chaos_transport() {
    run_moves(Channel::Chaos);
}

/// Pending-ops truncation: ops committed by an earlier successful
/// adjustment must survive a later failed one un-drained, and nothing of the
/// failed one may: replayed onto a mirror, the sink reproduces the schedule.
#[test]
fn failed_adjustment_truncates_only_its_own_ops() {
    let mut net = build(Channel::Reliable);
    net.run_static().unwrap();
    net.take_ops();
    let mut mirror = net.schedule().clone();

    // Leave the successful adjustment's ops sitting in the sink.
    let at = net.now();
    net.adjust_and_settle(at, Link::up(NodeId(9)), 2).unwrap();
    let at = net.now();
    assert!(net
        .adjust_and_settle(at, Link::up(NodeId(10)), 600)
        .is_err());

    let ops = net.take_ops();
    assert!(
        !ops.is_empty(),
        "the successful adjustment's ops must survive the failed one"
    );
    for op in &ops {
        apply_op(&mut mirror, op).unwrap();
    }
    assert!(mirror.iter_links().eq(net.schedule().iter_links()));
}

/// The version stamp: every mutation advances it — including a rejected
/// adjustment, whose clock advance is observable — and reads leave it
/// alone, which is what lets a service cache rendered summaries.
#[test]
fn version_stamp_advances_on_every_mutation() {
    let mut net = build(Channel::Reliable);
    let v0 = net.version();
    net.run_static().unwrap();
    let v1 = net.version();
    assert_ne!(v0, v1);

    let _ = net.schedule();
    let _ = net.metrics_snapshot();
    assert_eq!(net.version(), v1, "reads must not advance the stamp");

    let at = net.now();
    net.adjust_and_settle(at, Link::up(NodeId(9)), 2).unwrap();
    let v2 = net.version();
    assert_ne!(v1, v2);

    let at = net.now();
    assert!(net.adjust_and_settle(at, Link::up(NodeId(9)), 777).is_err());
    assert_ne!(
        net.version(),
        v2,
        "a rejected adjustment still advances now"
    );
}
