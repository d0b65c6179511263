//! Seeded randomized tests of the simulator's conservation and timing
//! invariants.
//!
//! Inputs are drawn from `tsch-sim`'s own [`SplitMix64`] generator, so every
//! case is reproducible from the fixed seeds below and the suite builds
//! offline with no external property-testing dependency.

use std::sync::Arc;
use testkit::seeded::random_tree;
use tsch_sim::{
    Cell, Direction, Link, NetworkSchedule, NodeId, Packet, Rate, SimulatorBuilder,
    SlotframeConfig, SplitMix64, Task, TaskId, Tree,
};

/// A collision-free uplink schedule: every link gets one dedicated cell,
/// scheduled deepest-first (compliant order), cells enumerated across
/// channels.
fn chain_schedule(tree: &Tree, config: SlotframeConfig) -> NetworkSchedule {
    let mut schedule = NetworkSchedule::new(config);
    let mut links = tree.links(Direction::Up);
    links.sort_by_key(|&l| std::cmp::Reverse(tree.layer_of_link(l)));
    for (i, link) in links.into_iter().enumerate() {
        let slot = (i as u32) % config.slots;
        let channel = ((i as u32) / config.slots) as u16;
        schedule
            .assign(Cell::new(slot, channel % config.channels), link)
            .expect("distinct cells");
    }
    schedule
}

#[test]
fn packet_conservation() {
    // generated = delivered + queued + dropped, always.
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0xC0_5E ^ case);
        let tree = random_tree(&mut rng, 16);
        let frames = 1 + rng.next_below(5);
        let config = SlotframeConfig::new(32, 4, 10_000).unwrap();
        let schedule = chain_schedule(&tree, config);
        let mut builder = SimulatorBuilder::new(tree.clone(), config).schedule(schedule);
        for (i, v) in tree.nodes().skip(1).enumerate() {
            builder = builder
                .task(Task::uplink(TaskId(i as u32), v, Rate::per_slotframe(1)))
                .unwrap();
        }
        let mut sim = builder.build();
        sim.run_slotframes(frames);
        let stats = sim.stats();
        assert_eq!(
            stats.generated,
            stats.deliveries.len() as u64 + sim.queued_packets() as u64 + stats.queue_drops,
            "case {case}"
        );
    }
}

#[test]
fn one_cell_per_link_uplink_delivers_everything_eventually() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0xDE_11 ^ case);
        let tree = random_tree(&mut rng, 12);
        let config = SlotframeConfig::new(32, 4, 10_000).unwrap();
        let schedule = chain_schedule(&tree, config);
        let mut builder = SimulatorBuilder::new(tree.clone(), config).schedule(schedule);
        for (i, v) in tree.nodes().skip(1).enumerate() {
            // A single packet per node (released in frame 0 only): with one
            // dedicated cell per link, everything must eventually arrive.
            builder = builder
                .task(Task::uplink(
                    TaskId(i as u32),
                    v,
                    Rate::new(1, 10_000).unwrap(),
                ))
                .unwrap();
        }
        let mut sim = builder.build();
        // Horizon: the most congested link serves a whole subtree at one
        // cell per frame, plus the path depth.
        sim.run_slotframes(tree.len() as u64 + u64::from(tree.layers()) + 1);
        assert!(sim.stats().generated > 0, "case {case}");
        assert_eq!(
            sim.stats().deliveries.len() as u64,
            sim.stats().generated,
            "case {case}"
        );
        assert_eq!(sim.stats().collisions, 0, "case {case}");
    }
}

#[test]
fn latency_respects_hop_count() {
    // A packet from depth d needs at least d slots to reach the root.
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x1A_7E ^ case);
        let tree = random_tree(&mut rng, 12);
        let config = SlotframeConfig::new(64, 4, 10_000).unwrap();
        let schedule = chain_schedule(&tree, config);
        let mut builder = SimulatorBuilder::new(tree.clone(), config).schedule(schedule);
        for (i, v) in tree.nodes().skip(1).enumerate() {
            builder = builder
                .task(Task::uplink(TaskId(i as u32), v, Rate::new(1, 8).unwrap()))
                .unwrap();
        }
        let mut sim = builder.build();
        sim.run_slotframes(10);
        for d in &sim.stats().deliveries {
            let depth = tree.depth(d.source);
            assert!(
                d.latency_slots() >= u64::from(depth),
                "case {case}: {} at depth {depth} delivered in {} slots",
                d.source,
                d.latency_slots()
            );
        }
    }
}

#[test]
fn rate_release_counts_are_exact() {
    for case in 0..200u64 {
        let mut rng = SplitMix64::new(0x4A_7E ^ case);
        let packets = 1 + rng.next_below(5) as u32;
        let per = 1 + rng.next_below(4) as u32;
        let frames = 1 + rng.next_below(39);
        let rate = Rate::new(packets, per).unwrap();
        let released: u64 = (0..frames)
            .map(|f| u64::from(rate.packets_in_slotframe(f)))
            .sum();
        let exact = u64::from(packets) * frames / u64::from(per);
        // Accumulated releases never drift more than one period's worth.
        assert!(released >= exact, "case {case}");
        assert!(released <= exact + u64::from(packets), "case {case}");
    }
}

#[test]
fn packet_route_traversal_never_skips() {
    for hops in 1usize..8 {
        let route: Arc<[NodeId]> = (0..=hops as u32).map(NodeId).collect();
        let mut p = Packet::new(TaskId(0), 0, tsch_sim::Asn(0), route);
        let mut visited = vec![p.holder()];
        while !p.is_delivered() {
            p.advance();
            visited.push(p.holder());
        }
        assert_eq!(visited.len(), hops + 1);
        let _ = Link::up(NodeId(0));
    }
}
