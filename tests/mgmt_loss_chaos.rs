//! Chaos tests of the control-plane transport: the static phase must
//! converge to the *same* collision-free schedule whether management frames
//! travel an ideal channel, a lossy one (CoAP-style retransmissions doing
//! the repair), or an adversarial one that also duplicates and delays.
//! Everything is seeded, so each scenario is exactly reproducible.

use harp::core::{unsatisfied_links, HarpNetwork, SchedulingPolicy};
use harp::sim::{Cell, Chaos, Link, Lossy, SlotframeConfig, Transport};
use workloads::{uniform_link_requirements, TopologyConfig};

const TOPOLOGIES: usize = 20;

fn schedule_key(net: &HarpNetwork) -> Vec<(Link, Vec<Cell>)> {
    net.schedule()
        .iter_links()
        .map(|(l, c)| (l, c.to_vec()))
        .collect()
}

fn run_static_with(
    tree: &harp::sim::Tree,
    config: SlotframeConfig,
    transport: Box<dyn Transport>,
) -> HarpNetwork {
    let reqs = uniform_link_requirements(tree, 1);
    let mut net = HarpNetwork::with_transport(
        tree.clone(),
        config,
        &reqs,
        SchedulingPolicy::RateMonotonic,
        transport,
    );
    net.run_static().unwrap();
    assert!(net.quiescent());
    net
}

#[test]
fn lossy_transport_converges_to_the_reliable_schedule() {
    let config = SlotframeConfig::paper_default();
    let trees = TopologyConfig::paper_50_node().generate_batch(0xB5, TOPOLOGIES);
    let mut total_retransmissions = 0u64;
    let mut total_dropped = 0u64;
    for (i, tree) in trees.iter().enumerate() {
        let seed = 0x51ED_u64.wrapping_add(i as u64);
        let reqs = uniform_link_requirements(tree, 1);
        let mut reliable =
            HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
        reliable.run_static().unwrap();

        let net = run_static_with(tree, config, Box::new(Lossy::uniform(0.85, seed).unwrap()));
        assert_eq!(
            schedule_key(&net),
            schedule_key(&reliable),
            "topology {i}: lossy run produced a different schedule"
        );
        assert!(net.schedule().is_exclusive());
        assert!(unsatisfied_links(tree, &reqs, net.schedule()).is_empty());
        let report = net.report();
        total_retransmissions += report.retransmissions;
        total_dropped += report.dropped;

        // Same seed ⇒ same trace: identical report, counters and schedule.
        let again = run_static_with(tree, config, Box::new(Lossy::uniform(0.85, seed).unwrap()));
        assert_eq!(again.report(), report, "topology {i}: non-deterministic");
        assert_eq!(
            again.transport_stats(),
            net.transport_stats(),
            "topology {i}: transport counters diverged between identical runs"
        );
        assert_eq!(schedule_key(&again), schedule_key(&net));
    }
    // At 85% per-hop PDR across 20 × 50-node static phases, losses (and the
    // retransmissions repairing them) must actually have occurred.
    assert!(total_dropped > 0, "loss model never dropped a frame");
    assert!(total_retransmissions > 0, "no retransmission was exercised");
}

#[test]
fn chaos_transport_with_drops_duplicates_and_delays_still_converges() {
    let config = SlotframeConfig::paper_default();
    let trees = TopologyConfig::paper_50_node().generate_batch(0xC4A0, TOPOLOGIES);
    let mut total_suppressed = 0u64;
    let mut total_retransmissions = 0u64;
    for (i, tree) in trees.iter().enumerate() {
        let seed = 0xD1CE_u64.wrapping_add(i as u64);
        let reqs = uniform_link_requirements(tree, 1);
        let mut reliable =
            HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
        reliable.run_static().unwrap();

        let chaos = || Box::new(Chaos::new(seed, 0.10, 0.15, 0.20, 7));
        let net = run_static_with(tree, config, chaos());
        assert_eq!(
            schedule_key(&net),
            schedule_key(&reliable),
            "topology {i}: chaos run produced a different schedule"
        );
        assert!(net.schedule().is_exclusive());
        assert!(unsatisfied_links(tree, &reqs, net.schedule()).is_empty());
        let stats = net.transport_stats();
        total_suppressed += stats.duplicates_suppressed;
        total_retransmissions += stats.retransmissions;

        let again = run_static_with(tree, config, chaos());
        assert_eq!(
            again.report(),
            net.report(),
            "topology {i}: non-deterministic"
        );
        assert_eq!(again.transport_stats(), stats);
    }
    assert!(
        total_suppressed > 0,
        "duplicate suppression was never exercised"
    );
    assert!(total_retransmissions > 0);
}
