//! Rollback oracle for [`HarpNetwork::adjust_and_settle`].
//!
//! One network per transport runs a fixed sequence of feasible and
//! infeasible adjustments. The oracle is the test's own pre-image: after
//! every rejection, node state, schedule contents and version and
//! quiescence must read exactly as they did before the attempt (the clock
//! alone may advance) — on the reliable transport and under
//! Lossy/Chaos channels, where rollbacks are triggered by retry exhaustion
//! rather than infeasibility and the plane must cancel in-flight messages.
//! `undo_log.rs` asks the same of generated trees and demands.

use harp_core::{HarpNetwork, Requirements};
use testkit::seeded::seeded_network;
use testkit::PreImage;
use tsch_sim::{Link, NodeId, SlotframeConfig, Tree};

fn fig1_reqs(tree: &Tree) -> Requirements {
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), tree.subtree_size(v));
        reqs.set(Link::down(v), tree.subtree_size(v));
    }
    reqs
}

/// The paper's tree on `channel`: 0 reliable, 1 Lossy, 2 Chaos.
fn build(channel: usize) -> HarpNetwork {
    let tree = Tree::paper_fig1_example();
    let reqs = fig1_reqs(&tree);
    let mut net = seeded_network(&tree, &reqs, SlotframeConfig::paper_default(), channel, 0);
    net.enable_observability(256);
    net
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

fn run_moves(channel: usize) {
    let mut net = build(channel);
    net.run_static().expect("static phase converges");

    let mut failures = 0usize;
    let mut successes = 0usize;
    for &(node, cells) in MOVES {
        let link = Link::up(NodeId(node));
        let pre = PreImage::of(&net);
        let at = net.now();

        match net.adjust_and_settle(at, link, cells) {
            Ok(_) => {
                successes += 1;
                assert_eq!(net.schedule().cells_of(link).len(), cells as usize);
                assert!(net.schedule().is_exclusive());
            }
            Err(_) => {
                failures += 1;
                pre.assert_restored(&net, &format!("after ({node}, {cells})"));
            }
        }
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
    run_moves(0);
}

#[test]
fn rollback_restores_the_pre_image_on_lossy_transport() {
    run_moves(1);
}

#[test]
fn rollback_restores_the_pre_image_on_chaos_transport() {
    run_moves(2);
}

/// A failed adjustment takes back only what it wrote: the rows an earlier
/// successful one installed stay as that one left them.
#[test]
fn failed_adjustment_keeps_the_commit_before_it() {
    let mut net = build(0);
    net.run_static().unwrap();
    let settled = net.schedule().clone();

    let at = net.now();
    net.adjust_and_settle(at, Link::up(NodeId(9)), 2).unwrap();
    let committed = net.schedule().clone();
    assert!(
        !committed.iter_links().eq(settled.iter_links()),
        "the successful adjustment moved cells"
    );
    let at = net.now();
    assert!(net
        .adjust_and_settle(at, Link::up(NodeId(10)), 600)
        .is_err());
    assert!(committed.iter_links().eq(net.schedule().iter_links()));
    assert_eq!(committed.version(), net.schedule().version());
}

/// The version stamp: every mutation advances it — including a rejected
/// adjustment, whose clock advance is observable — and reads leave it
/// alone, which is what lets a service cache rendered summaries.
#[test]
fn version_stamp_advances_on_every_mutation() {
    let mut net = build(0);
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
