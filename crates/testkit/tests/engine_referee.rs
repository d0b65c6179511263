//! Equivalence referee for the slot engine.
//!
//! Three engines must agree byte-for-byte on every seeded scenario:
//!
//! * the default **event** engine — slots are skipped unless a scheduled
//!   link holds traffic (the queue-pressure wake index);
//! * the **dense walk** — the same engine with
//!   [`SimulatorBuilder::dense_walk`] forcing the unconditional per-slot
//!   cell iteration the event path replaced;
//! * the map-based [`ReferenceSimulator`] oracle — per-link queues in a
//!   `BTreeMap<Link, VecDeque<_>>`, a `links_on` probe for every (slot,
//!   channel) pair, pairwise interference checks on every occupied cell.
//!
//! The skip is sound because an idle slot draws no RNG, emits no stats and
//! no trace; these tests pin that argument empirically across random
//! topologies, shared cells, lossy links (all engines consume one
//! `SplitMix64` stream — a single extra or missing draw diverges
//! everything after it), extra radio edges, runtime schedule mutation, and
//! the calendar-based control-plane retransmission timers. A final
//! property test drives the engine with observability on and requires the
//! `sim.idle_wakeups` counter to stay zero: the wake index may never
//! promise work an executed slot does not find.

use testkit::seeded::{random_scenario, random_tree};
use tsch_sim::reference::ReferenceSimulator;
use tsch_sim::{
    Asn, Cell, Chaos, ControlPlane, Delivered, Inbox, Link, Lossy, NodeId, SimStats, Simulator,
    SimulatorBuilder, SlotframeConfig, SplitMix64, TraceEvent, TransportStats, Tree,
    TwoHopInterference,
};

/// One seeded scenario on all three engines.
struct Engines {
    event: Simulator,
    dense: Simulator,
    reference: ReferenceSimulator,
    nodes: u64,
    config: SlotframeConfig,
}

impl Engines {
    /// Draws a tree of up to `max_nodes` nodes, [`random_scenario`] on it,
    /// `extra_edges` candidate radio edges beyond the tree (a drawn
    /// self-loop is dropped) and the engines' seed, in that order.
    fn draw(
        rng: &mut SplitMix64,
        max_nodes: usize,
        config: SlotframeConfig,
        lossy: bool,
        extra_edges: usize,
    ) -> Self {
        let tree = random_tree(rng, max_nodes);
        let (schedule, quality, tasks) = random_scenario(rng, &tree, config, lossy);
        let n = tree.len() as u64;
        let edges: Vec<(NodeId, NodeId)> = (0..extra_edges)
            .map(|_| {
                (
                    NodeId(rng.next_below(n) as u32),
                    NodeId(rng.next_below(n) as u32),
                )
            })
            .filter(|(a, b)| a != b)
            .collect();
        let seed = rng.next_u64();
        let interference = || TwoHopInterference::with_extra_edges(edges.iter().copied());
        let simulator = |dense_walk: bool| {
            let mut builder = SimulatorBuilder::new(tree.clone(), config)
                .schedule(schedule.clone())
                .quality(quality.clone())
                .interference(Box::new(interference()))
                .seed(seed)
                .dense_walk(dense_walk)
                .trace_capacity(1 << 20);
            for task in &tasks {
                builder = builder.task(task.clone()).unwrap();
            }
            builder.build()
        };
        Self {
            event: simulator(false),
            dense: simulator(true),
            reference: ReferenceSimulator::new(
                tree.clone(),
                config,
                schedule.clone(),
                quality.clone(),
                seed,
                &tasks,
            )
            .with_interference(interference()),
            nodes: n,
            config,
        }
    }

    fn run_slotframes(&mut self, frames: u64) {
        self.event.run_slotframes(frames);
        self.dense.run_slotframes(frames);
        self.reference.run_slotframes(frames);
    }

    /// The same seeded edit on all three schedules: a random link loses
    /// its cells or gains a random one.
    fn mutate(&mut self, rng: &mut SplitMix64) {
        let victim = NodeId(1 + rng.next_below(self.nodes - 1) as u32);
        let link = if rng.chance(0.5) {
            Link::up(victim)
        } else {
            Link::down(victim)
        };
        let schedules = [
            self.event.schedule_mut(),
            self.dense.schedule_mut(),
            self.reference.schedule_mut(),
        ];
        if rng.chance(0.5) {
            for schedule in schedules {
                schedule.unassign_link(link);
            }
        } else {
            let cell = Cell::new(
                rng.next_below(u64::from(self.config.slots)) as u32,
                rng.next_below(u64::from(self.config.channels)) as u16,
            );
            for schedule in schedules {
                let _ = schedule.assign(cell, link);
            }
        }
    }

    fn assert_agree(&self, label: &str) {
        // The traces are compared whole: they name the link of every
        // attempt, so no event may have been evicted.
        let trace = |sim: &Simulator| -> Vec<TraceEvent> {
            assert_eq!(sim.trace().dropped(), 0, "{label}: trace evicted events");
            sim.trace().iter().copied().collect()
        };
        let (event, dense) = (trace(&self.event), trace(&self.dense));
        let event = (self.event.stats(), event.as_slice());
        assert_same_run(
            &format!("{label}, dense walk"),
            event,
            (self.dense.stats(), &dense),
        );
        assert_same_run(
            &format!("{label}, reference"),
            event,
            (self.reference.stats(), self.reference.trace()),
        );
    }
}

fn assert_same_run(
    label: &str,
    (x, ta): (&SimStats, &[TraceEvent]),
    (y, tb): (&SimStats, &[TraceEvent]),
) {
    assert_eq!(x.deliveries, y.deliveries, "{label}: deliveries");
    assert_eq!(x.tx_attempts, y.tx_attempts, "{label}: tx_attempts");
    assert_eq!(x.collisions, y.collisions, "{label}: collisions");
    assert_eq!(x.losses, y.losses, "{label}: losses");
    assert_eq!(x.queue_drops, y.queue_drops, "{label}: queue_drops");
    assert_eq!(x.generated, y.generated, "{label}: generated");
    assert_eq!(
        x.queue_high_water(),
        y.queue_high_water(),
        "{label}: queue high-water"
    );
    assert_eq!(
        x.slots_simulated, y.slots_simulated,
        "{label}: slots simulated"
    );
    // Every attempt, with its link, cell and outcome.
    assert_eq!(ta, tb, "{label}: trace events");
}

#[test]
fn engines_agree_on_random_scenarios() {
    // (seed base, cases, lossy links, every case loses). Lossy links make
    // slot skipping observable through the shared RNG stream: if the event
    // engine ever skipped a slot the dense walk executes (or vice versa),
    // the loss pattern diverges from that draw on. Some cases must
    // collide, or the interference rule goes unrefereed.
    let mut colliding = 0;
    for (base, cases, lossy, loses) in [
        (0x000D_E25E, 24, true, false),
        (0xE7E4_7000, 16, false, false),
        (0xE7E4_7105, 16, true, true),
    ] {
        for case in 0..cases {
            let mut rng = SplitMix64::new(base ^ case);
            let config = SlotframeConfig::new(20, 4, 10_000).unwrap();
            let mut engines = Engines::draw(&mut rng, 24, config, lossy, 0);
            engines.run_slotframes(12);
            let label = format!("{base:#x} case {case}");
            engines.assert_agree(&label);
            assert!(
                !loses || engines.event.stats().losses > 0,
                "{label}: scenario must actually draw losses"
            );
            colliding += usize::from(engines.event.stats().collisions > 0);
        }
    }
    println!("{colliding} of 56 cases collide");
    assert!(colliding > 0, "no case exercises the collision rule");
}

#[test]
fn engines_agree_with_extra_radio_edges() {
    // Extra (non-tree) radio edges add hidden-terminal conflicts the tree
    // alone does not imply: every engine must ask the model about them
    // on every occupied cell and collide exactly where the reference does.
    let mut colliding = 0;
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0x0E_D6E5 ^ case);
        let config = SlotframeConfig::new(20, 4, 10_000).unwrap();
        let mut engines = Engines::draw(&mut rng, 24, config, true, 4);
        engines.run_slotframes(10);
        engines.assert_agree(&format!("extra-edge case {case}"));
        colliding += usize::from(engines.event.stats().collisions > 0);
    }
    println!("{colliding} of 16 cases collide");
    assert!(colliding > 0, "no case exercises the collision rule");
}

#[test]
fn engines_agree_under_runtime_schedule_mutation() {
    // The engine caches a per-slot table keyed on the schedule version and
    // a wake index; mutating the schedule mid-run must invalidate both
    // exactly like the reference's per-slot probing, and pressure
    // accumulated by occupied links must survive the rebuild.
    for base in [0x0034_17ED, 0xE7E4_7200] {
        for case in 0..12u64 {
            let mut rng = SplitMix64::new(base ^ case);
            let config = SlotframeConfig::new(15, 3, 10_000).unwrap();
            let mut engines = Engines::draw(&mut rng, 16, config, true, 0);
            for _round in 0..6u64 {
                engines.run_slotframes(2);
                engines.mutate(&mut rng);
            }
            engines.run_slotframes(4);
            engines.assert_agree(&format!("{base:#x} mutation case {case}"));
        }
    }
}

/// Runs a seeded control-plane scenario to completion and returns its
/// full observable outcome.
fn control_plane_outcome(
    make_transport: &dyn Fn() -> Box<dyn tsch_sim::Transport>,
) -> (Vec<Delivered<u32>>, TransportStats, u64) {
    let tree = Tree::paper_fig1_example();
    let config = SlotframeConfig::new(20, 4, 10_000).unwrap();
    let mut plane: ControlPlane<u32> = ControlPlane::new(&tree, config, make_transport());
    let pairs = [
        (NodeId(9), NodeId(7)),
        (NodeId(4), NodeId(1)),
        (NodeId(1), NodeId(4)),
        (NodeId(7), NodeId(9)),
    ];
    for (i, &(from, to)) in pairs.iter().cycle().take(12).enumerate() {
        plane
            .send(&tree, Asn(i as u64 * 3), from, to, i as u32)
            .unwrap();
    }
    let mut delivered = Vec::new();
    let mut inbox = Inbox::new();
    while let Some(at) = plane.next_event() {
        plane.poll_into(&tree, at, &mut inbox).unwrap();
        delivered.extend(inbox.drain());
    }
    (delivered, plane.stats(), plane.stats().attempts)
}

#[test]
fn calendar_timers_are_byte_identical_under_lossy_transport() {
    // Retransmissions fire from the outstanding list, in token order; two
    // identically seeded runs must produce the same delivery stream,
    // stats, and message count — and retransmissions must actually fire,
    // so the timer path is the one being exercised.
    let run = || control_plane_outcome(&|| Box::new(Lossy::uniform(0.5, 0xCAFE).unwrap()) as _);
    let (delivered, stats, sent) = run();
    assert_eq!((delivered.clone(), stats, sent), run(), "lossy reruns");
    assert!(stats.retransmissions > 0, "timers must fire");
    assert_eq!(delivered.len(), 12, "reliability recovers every payload");
}

#[test]
fn calendar_timers_are_byte_identical_under_chaos_transport() {
    let run = || control_plane_outcome(&|| Box::new(Chaos::new(0xD1CE, 0.25, 0.2, 0.5, 7)) as _);
    let (delivered, stats, sent) = run();
    assert_eq!((delivered.clone(), stats, sent), run(), "chaos reruns");
    assert!(stats.retransmissions > 0, "timers must fire");
    assert!(
        stats.duplicates_suppressed > 0,
        "chaos duplicates exercise the dedup window"
    );
    assert_eq!(delivered.len(), 12, "reliability recovers every payload");
}

#[test]
fn calendar_never_wakes_an_idle_slot() {
    // Property: with observability on, the engine's own idle-wakeup
    // counter stays zero across random scenarios, lossy links, and
    // runtime schedule mutation — executed slots always find work.
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0xE7E4_7300 ^ case);
        let tree = random_tree(&mut rng, 24);
        let config = SlotframeConfig::new(20, 4, 10_000).unwrap();
        let (schedule, quality, tasks) = random_scenario(&mut rng, &tree, config, true);
        let seed = rng.next_u64();

        let mut builder = SimulatorBuilder::new(tree.clone(), config)
            .schedule(schedule.clone())
            .quality(quality.clone())
            .seed(seed)
            .observability(16);
        for task in &tasks {
            builder = builder.task(task.clone()).unwrap();
        }
        let mut sim = builder.build();
        for _round in 0..4u64 {
            sim.run_slotframes(3);
            let victim = NodeId(1 + rng.next_below(tree.len() as u64 - 1) as u32);
            sim.schedule_mut().unassign_link(Link::up(victim));
        }
        sim.run_slotframes(3);
        let snap = sim.metrics_snapshot();
        assert_eq!(
            snap.counter("sim.idle_wakeups"),
            Some(0),
            "case {case}: the wake index promised work an executed slot did not find"
        );
        assert!(
            snap.counter("sim.slots").unwrap_or(0) > 0,
            "case {case}: the run actually executed"
        );
    }
}
