//! Differential referee for the direct static settle.
//!
//! On a lossless transport [`HarpNetwork::run_static`] solves the static
//! phase of a pristine network with two tree walks instead of delivering
//! its messages; [`HarpNetwork::run_static_by_messages`] is the
//! message-driven original. This suite drives both over seeded trees and
//! demands and asserts that nothing observable tells them apart: the
//! report, the clock, every node, the schedule, the transport counters,
//! the metrics and the span rings — and that the same feasible,
//! escalating and infeasible adjustments then bill identically on both.
//! On the same trees, a `Lossy` channel that loses nothing must settle to
//! the reliable channel's report, acknowledgements aside. (When each management cell is next free is pinned in `tsch-sim`, by
//! `occupying_a_cell_books_what_the_sends_would`: once a run is quiescent
//! the clock has passed every cell's last use, so no later protocol run
//! can observe it.)

use harp_core::{HarpError, HarpNetwork, ProtocolReport, Requirements, SchedulingPolicy};
use testkit::seeded::{seeded_config, seeded_network, seeded_reqs, seeded_tree};
use testkit::NodeContents;
use tsch_sim::{Direction, Link, Lossy, NodeId, SlotframeConfig, SplitMix64, Tree};

const CASES: u64 = 240;
const ADJUSTMENTS: usize = 32;

fn build(tree: &Tree, config: SlotframeConfig, reqs: &Requirements) -> HarpNetwork {
    let mut net = seeded_network(tree, reqs, config, 0, 0);
    net.enable_observability(4096);
    net
}

/// Everything a caller can observe about a network, compared field by
/// field (the schedule's process-unique version stamp excepted: it is
/// meaningless across two networks).
fn assert_same(direct: &HarpNetwork, referee: &HarpNetwork, ctx: &str) {
    assert_eq!(direct.report(), referee.report(), "{ctx}: report");
    assert_same_involvement(direct, referee, ctx);
    assert_eq!(direct.now(), referee.now(), "{ctx}: clock");
    assert_eq!(direct.version(), referee.version(), "{ctx}: version");
    assert_eq!(direct.quiescent(), referee.quiescent(), "{ctx}: quiescent");
    for v in direct.tree().nodes() {
        let (a, b) = (direct.node(v), referee.node(v));
        assert_eq!(NodeContents::of(a), NodeContents::of(b), "{ctx}: node {v}");
    }
    let (a, b) = (direct.schedule(), referee.schedule());
    assert!(a.iter_links().eq(b.iter_links()), "{ctx}: link rows");
    assert!(a.iter_cells().eq(b.iter_cells()), "{ctx}: cell rows");
    assert_eq!(
        direct.transport_stats(),
        referee.transport_stats(),
        "{ctx}: transport stats"
    );
    assert_eq!(
        direct.metrics_snapshot(),
        referee.metrics_snapshot(),
        "{ctx}: metrics"
    );
    for (x, y) in direct.span_rings().iter().zip(referee.span_rings()) {
        assert!(x.iter().eq(y.iter()), "{ctx}: spans");
        assert_eq!(x.total_recorded(), y.total_recorded(), "{ctx}: span count");
    }
}

/// The report counts the involved nodes; this compares them node by node.
fn assert_same_involvement(a: &HarpNetwork, b: &HarpNetwork, ctx: &str) {
    for v in a.tree().nodes() {
        assert_eq!(a.involved(v), b.involved(v), "{ctx}: is {v} involved");
    }
}

#[test]
fn direct_settle_is_indistinguishable_from_the_message_driven_run() {
    let (mut converged, mut rejected) = (0u32, 0u32);
    let (mut local, mut escalated, mut refused) = (0u32, 0u32, 0u32);
    let (mut stars, mut idle_links) = (0u32, 0u32);
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xD1EC7 ^ (case << 20));
        let tree = seeded_tree(&mut rng, case);
        let reqs = seeded_reqs(&mut rng, case, &tree);
        let config = seeded_config(&mut rng);
        let ctx = format!(
            "case {case} ({} nodes, {} layers, {}x{})",
            tree.len(),
            tree.layers(),
            config.slots,
            config.channels
        );
        assert!(tree.layers() <= 8, "{ctx}");
        stars += u32::from(tree.children(tree.root()).iter().all(|&c| tree.is_leaf(c)));
        idle_links += u32::from(tree.links(Direction::Up).iter().any(|&l| reqs.get(l) == 0));

        let mut direct = build(&tree, config, &reqs);
        let mut referee = build(&tree, config, &reqs);
        let a = direct.run_static();
        let b = referee.run_static_by_messages();
        assert_eq!(a, b, "{ctx}: static outcome");
        assert_same(&direct, &referee, &ctx);
        if a.is_err() {
            rejected += 1;
            continue;
        }
        converged += 1;

        // The same adjustments on both: small ones settle in the parent's
        // row, larger ones escalate, the largest overflow the slotframe
        // and roll back.
        let n = tree.len() as u64;
        for step in 0..ADJUSTMENTS {
            let link = Link {
                child: NodeId(1 + rng.next_below(n - 1) as u32),
                direction: if rng.chance(0.5) {
                    Direction::Up
                } else {
                    Direction::Down
                },
            };
            let cells = match rng.next_below(8) {
                0 => 0,
                1..=3 => 1 + rng.next_below(3) as u32,
                4..=6 => 4 + rng.next_below(12) as u32,
                _ => 4 * config.slots,
            };
            let ra = direct.adjust_and_settle(direct.now(), link, cells);
            let rb = referee.adjust_and_settle(referee.now(), link, cells);
            assert_eq!(ra, rb, "{ctx}: adjustment {step} ({link} -> {cells})");
            assert_same(&direct, &referee, &format!("{ctx}, adjustment {step}"));
            match ra {
                Ok(r) if r.mgmt_messages == 0 => local += 1,
                Ok(_) => escalated += 1,
                Err(_) => refused += 1,
            }
        }
    }
    // The generator must keep covering what the suite claims to cover.
    assert!(converged >= 200, "only {converged} trees converged");
    assert!(rejected > 0, "no infeasible static demand was generated");
    assert!(stars > 0 && idle_links > 0);
    assert!(local > 0 && escalated > 0 && refused > 0);
}

#[test]
fn infeasible_demand_fails_the_same_way_on_both_paths() {
    let tree = Tree::paper_fig1_example();
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), 40);
        reqs.set(Link::down(v), 40);
    }
    let config = SlotframeConfig::paper_default();
    let mut direct = build(&tree, config, &reqs);
    let mut referee = build(&tree, config, &reqs);
    let a = direct.run_static();
    let b = referee.run_static_by_messages();
    assert!(
        matches!(a, Err(HarpError::SlotframeOverflow { .. })),
        "{a:?}"
    );
    assert_eq!(a, b);
    // Both stop where the gateway's allocation overflows: interfaces
    // reported, nothing granted.
    assert_same(&direct, &referee, "overflow");
    assert!(direct.report().mgmt_messages > 0);
    assert_eq!(direct.report().cell_messages, 0);
}

/// The dispatch is a property of the input. A lossy transport's arrivals
/// are not a function of the cells, so its static phase is message-driven
/// whichever entry point is called — visible in the acknowledgements only
/// the reliability sublayer produces.
#[test]
fn lossy_and_chaos_networks_settle_by_messages() {
    let tree = Tree::paper_fig1_example();
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), 1);
        reqs.set(Link::down(v), 1);
    }
    let config = SlotframeConfig::paper_default();
    let run = |net: &mut HarpNetwork, by_messages: bool| -> ProtocolReport {
        if by_messages {
            net.run_static_by_messages().expect("converges")
        } else {
            net.run_static().expect("converges")
        }
    };

    let mut reliable = seeded_network(&tree, &reqs, config, 0, 0);
    let settled = run(&mut reliable, false);
    assert_eq!(
        settled.acks, 0,
        "nothing to acknowledge on a lossless plane"
    );

    for by_messages in [false, true] {
        let mut a = seeded_network(&tree, &reqs, config, 1, 0);
        let report = run(&mut a, by_messages);
        assert!(report.acks >= report.mgmt_messages + report.cell_messages);
        assert!(report.dropped > 0, "a 0.8 PDR loses frames");
        let mut b = seeded_network(&tree, &reqs, config, 2, 0);
        let report = run(&mut b, by_messages);
        assert!(report.acks >= report.mgmt_messages + report.cell_messages);
        // Same bill and schedule as the lossless settle, only later.
        for net in [&a, &b] {
            assert_eq!(net.report().mgmt_messages, settled.mgmt_messages);
            assert_eq!(net.report().cell_messages, settled.cell_messages);
            assert!(net
                .schedule()
                .iter_links()
                .eq(reliable.schedule().iter_links()));
        }
    }
}

/// A [`Lossy`] channel at PDR 1.0 loses nothing (every draw succeeds), so
/// its message-driven static phase must end where the reliable channel's
/// direct settle does: the same report but for the acknowledgements only
/// its reliability sublayer sends, no retransmission or drop, and the same
/// schedule. Only the reliable network records spans, so this also holds
/// that observability does not perturb the protocol.
#[test]
fn a_lossy_channel_that_loses_nothing_settles_like_the_reliable_one() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xD1EC7 ^ (case << 20));
        let tree = seeded_tree(&mut rng, case);
        let reqs = seeded_reqs(&mut rng, case, &tree);
        let config = seeded_config(&mut rng);
        let ctx = format!("case {case} ({} nodes)", tree.len());
        let mut reliable = build(&tree, config, &reqs);
        let mut lossless = HarpNetwork::with_transport(
            tree.clone(),
            config,
            &reqs,
            SchedulingPolicy::RateMonotonic,
            Box::new(Lossy::uniform(1.0, case).expect("valid pdr")),
        );
        let (a, b) = (reliable.run_static(), lossless.run_static());
        assert_eq!(a.err(), b.err(), "{ctx}: static outcome");
        let mut report = lossless.report();
        assert_eq!(report.retransmissions, 0, "{ctx}");
        assert_eq!(report.dropped, 0, "{ctx}");
        report.acks = reliable.report().acks;
        assert_eq!(report, reliable.report(), "{ctx}: report");
        assert_same_involvement(&lossless, &reliable, &ctx);
        assert!(
            lossless
                .schedule()
                .iter_links()
                .eq(reliable.schedule().iter_links()),
            "{ctx}: schedule"
        );
    }
}

/// Only a pristine network is settled directly: once messages were
/// exchanged, `run_static` is the message-driven run it always was.
#[test]
fn a_network_that_already_exchanged_messages_settles_by_messages() {
    let tree = Tree::paper_fig1_example();
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), tree.subtree_size(v));
    }
    let config = SlotframeConfig::paper_default();
    let mut stepped = build(&tree, config, &reqs);
    let mut referee = build(&tree, config, &reqs);
    // Lockstep embedding: bootstrap, advance a few slots, then let
    // `run_static` finish what is in flight.
    for net in [&mut stepped, &mut referee] {
        net.bootstrap().expect("bootstraps");
        net.step(net.now().plus(3)).expect("steps");
    }
    let a = stepped.run_static().expect("converges");
    let b = referee.run_static_by_messages().expect("converges");
    assert_eq!(a, b);
    assert_same(&stepped, &referee, "resumed");
    assert!(stepped.schedule().is_exclusive());
}
