//! Fault-injection engine invariants: exact-ASN firing, crash/restart and
//! window semantics, determinism, and the event-driven `idle_wakeups == 0`
//! invariant holding under active fault windows (differentially checked
//! against the dense walk).

use tsch_sim::{
    Asn, Cell, FaultAction, FaultPlan, Link, LinkQuality, NetworkSchedule, NodeId, Rate, Simulator,
    SimulatorBuilder, SlotframeConfig, Task, TaskId, TraceEvent, Tree,
};

fn chain_tree() -> Tree {
    // 0 ← 1 ← 2
    Tree::from_parents(&[(1, 0), (2, 1)])
}

fn small_config() -> SlotframeConfig {
    SlotframeConfig::new(10, 2, 10_000).unwrap()
}

/// Collision-free chain schedule: 2→1 up, 1→0 up, 0→1 down, 1→2 down.
fn chain_schedule() -> NetworkSchedule {
    let mut s = NetworkSchedule::new(small_config());
    s.assign(Cell::new(0, 0), Link::up(NodeId(2))).unwrap();
    s.assign(Cell::new(1, 0), Link::up(NodeId(1))).unwrap();
    s.assign(Cell::new(2, 0), Link::down(NodeId(1))).unwrap();
    s.assign(Cell::new(3, 0), Link::down(NodeId(2))).unwrap();
    s
}

fn chain_sim(plan: FaultPlan) -> Simulator {
    SimulatorBuilder::new(chain_tree(), small_config())
        .schedule(chain_schedule())
        .seed(7)
        .fault_plan(plan)
        .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
        .unwrap()
        .build()
}

#[test]
fn faults_fire_at_exact_asn() {
    let plan = FaultPlan::new().crash(NodeId(2), Asn(25), None);
    let mut sim = chain_sim(plan);
    sim.run_slots(25); // now == 25, the fault slot has not executed yet
    assert!(!sim.node_is_down(NodeId(2)));
    assert_eq!(sim.faults_fired(), 0);
    assert_eq!(sim.pending_faults(), 1);
    sim.run_slots(1); // slot 25 executes: the action fires at its top
    assert!(sim.node_is_down(NodeId(2)));
    assert_eq!(sim.faults_fired(), 1);
    assert_eq!(sim.pending_faults(), 0);
}

#[test]
fn crash_clears_queues_and_pauses_generation() {
    // No schedule: packets pile up at node 2's uplink until the crash.
    let plan = FaultPlan::new().crash(NodeId(2), Asn(30), None);
    let mut sim = SimulatorBuilder::new(chain_tree(), small_config())
        .fault_plan(plan)
        .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
        .unwrap()
        .build();
    sim.run_slotframes(3); // frames 0..2 release 3 packets, none scheduled
    assert_eq!(sim.queue_depth(NodeId(2)), 3);
    sim.run_slotframes(3); // crash fires at slot 30 (frame-3 boundary)
    assert!(sim.node_is_down(NodeId(2)));
    assert_eq!(sim.queue_depth(NodeId(2)), 0, "crash drops queued frames");
    assert_eq!(sim.stats().queue_drops, 3);
    assert_eq!(sim.stats().generated, 3, "a down node releases nothing");
}

#[test]
fn restart_resumes_delivery() {
    let plan = FaultPlan::new().crash(NodeId(2), Asn(20), Some(Asn(50)));
    let mut sim = chain_sim(plan);
    sim.run_slotframes(2);
    let before = sim.stats().delivered();
    assert!(before > 0);
    sim.run_slotframes(3); // frames 2..4: down the whole time
    assert_eq!(sim.stats().generated, 2, "no releases while down");
    sim.run_slotframes(5); // restarted at slot 50
    assert!(!sim.node_is_down(NodeId(2)));
    assert!(sim.stats().delivered() > before, "deliveries resume");
}

#[test]
fn pdr_window_degrades_then_restores() {
    // Degrade the first hop to PDR 0 over frames 2..5; the retry limit
    // turns the dead window into drops, then traffic recovers.
    let plan = FaultPlan::new().pdr_window(Link::up(NodeId(2)), Asn(20), Asn(50), 0.0, 1.0);
    let mut sim = chain_sim(plan);
    sim.run_slotframes(10);
    let stats = sim.stats();
    assert!(stats.losses > 0, "dead window loses frames");
    assert_eq!(sim.faults_fired(), 2);
    // Packets released after the restore sail through: drain and compare.
    let delivered_before = stats.delivered();
    sim.run_slotframes(2);
    assert_eq!(sim.stats().delivered(), delivered_before + 2);
}

#[test]
fn mask_window_partitions_and_heals() {
    // Mask the 1→0 uplink: the gateway side of the cut sees nothing.
    let plan = FaultPlan::new().mask_window(Link::up(NodeId(1)), Asn(0), Asn(40));
    let mut sim = chain_sim(plan);
    sim.run_slotframes(4);
    assert_eq!(sim.stats().delivered(), 0, "cut isolates the subtree");
    assert!(sim.stats().losses > 0);
    sim.run_slotframes(4);
    assert!(sim.stats().delivered() > 0, "heals when the mask lifts");
}

#[test]
fn gateway_failover_window_stops_all_delivery() {
    let plan = FaultPlan::new().crash(NodeId(0), Asn(0), Some(Asn(40)));
    let mut sim = chain_sim(plan);
    sim.run_slotframes(4);
    assert_eq!(sim.stats().delivered(), 0, "no gateway, no delivery");
    sim.run_slotframes(6);
    assert!(sim.stats().delivered() > 0, "failover back online");
}

#[test]
fn burst_releases_mid_frame() {
    let plan = FaultPlan::new().at(Asn(23), FaultAction::TaskBurst(TaskId(0), 5));
    let mut sim = chain_sim(plan);
    sim.run_slots(23);
    assert_eq!(sim.stats().generated, 3); // frames 0, 1, 2
    sim.run_slots(1);
    assert_eq!(
        sim.stats().generated,
        3 + 5,
        "burst lands at its exact slot"
    );
    // The schedule carries one packet per frame, so the burst drains as a
    // backlog; nothing is lost along the way.
    sim.run_slotframes(10);
    let stats = sim.stats();
    assert_eq!(stats.generated, 3 + 5 + 10);
    assert_eq!(stats.queue_drops, 0);
    assert_eq!(
        stats.generated - stats.delivered(),
        sim.queued_packets() as u64,
        "burst packets are conserved"
    );
    assert!(stats.delivered() >= 10);
}

#[test]
fn rate_ramp_takes_effect_at_next_boundary() {
    let plan = FaultPlan::new().at(
        Asn(30),
        FaultAction::TaskRate(TaskId(0), Rate::per_slotframe(3)),
    );
    let mut sim = chain_sim(plan);
    sim.run_slotframes(3);
    assert_eq!(sim.stats().generated, 3);
    sim.run_slotframes(2);
    assert_eq!(sim.stats().generated, 3 + 6, "ramped rate from frame 3");
}

/// A PDR window, a partition and a crash of the link's parent, nested on
/// one link in each of the six orders. The trace, which names the link of
/// every attempt, shows the link never delivering while it is masked or
/// its parent is down, losing frames at the degraded PDR while only the
/// PDR window is open, and at its configured PDR once every window has
/// closed.
#[test]
fn overlapping_windows_on_one_link_compose_in_every_nesting_order() {
    const CONFIGURED: f64 = 0.9;
    const DEGRADED: f64 = 0.3;
    /// The outer, middle and inner window, in slots.
    const WINDOWS: [(u64, u64); 3] = [(100, 1000), (300, 800), (500, 600)];
    const KINDS: [&str; 3] = ["pdr window", "partition", "parent crash"];
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let link = Link::up(NodeId(2));
    // Five cells a frame for the link and five for its parent's uplink;
    // five releases a frame keep the link's queue from ever draining.
    let mut schedule = NetworkSchedule::new(small_config());
    for slot in 0..5 {
        schedule.assign(Cell::new(slot, 0), link).unwrap();
        schedule
            .assign(Cell::new(slot + 5, 0), Link::up(NodeId(1)))
            .unwrap();
    }
    let mut quality = LinkQuality::perfect();
    quality.set_pdr(link, CONFIGURED).unwrap();
    for order in ORDERS {
        let label = order.map(|k| KINDS[k]).join(" ⊃ ");
        // Each kind's window, indexed as `KINDS`.
        let mut window = [(0, 0); 3];
        let mut plan = FaultPlan::new();
        for (&kind, (from, until)) in order.iter().zip(WINDOWS) {
            window[kind] = (from, until);
            let (from, until) = (Asn(from), Asn(until));
            plan = match kind {
                0 => plan.pdr_window(link, from, until, DEGRADED, CONFIGURED),
                1 => plan.mask_window(link, from, until),
                _ => plan.crash(NodeId(1), from, Some(until)),
            };
        }
        let mut sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(schedule.clone())
            .quality(quality.clone())
            .seed(0x0FA7)
            .trace_capacity(1 << 16)
            .fault_plan(plan)
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(5)))
            .unwrap()
            .build();
        sim.run_slotframes(160);
        assert_eq!(sim.trace().dropped(), 0, "{label}: the trace holds the run");

        let open = |kind: usize, at: u64| (window[kind].0..window[kind].1).contains(&at);
        // Attempts and losses while only the PDR window is open, and after
        // the last window closed.
        let (mut degraded, mut restored) = ([0u32; 2], [0u32; 2]);
        for event in sim.trace().iter().filter(|e| e.link() == link) {
            let lost = match event {
                TraceEvent::TxOk { .. } => false,
                TraceEvent::TxLoss { .. } => true,
                _ => continue,
            };
            let at = event.at().0;
            if open(1, at) || open(2, at) {
                assert!(lost, "{label}: delivered at {at} while cut off");
                continue;
            }
            let tally = if open(0, at) {
                &mut degraded
            } else if at >= WINDOWS[0].1 {
                &mut restored
            } else {
                continue;
            };
            tally[0] += 1;
            tally[1] += u32::from(lost);
        }
        let loss = |[attempts, losses]: [u32; 2]| f64::from(losses) / f64::from(attempts);
        // Only an outermost PDR window is ever open alone: 40 frames of it.
        if order[0] == 0 {
            assert!(degraded[0] >= 150, "{label}: {degraded:?}");
            let rate = loss(degraded);
            assert!(
                (0.55..0.85).contains(&rate),
                "{label}: loss {rate} at PDR {DEGRADED}"
            );
        } else {
            assert_eq!(degraded[0], 0, "{label}");
        }
        assert!(restored[0] >= 250, "{label}: {restored:?}");
        let rate = loss(restored);
        assert!(
            (0.02..0.2).contains(&rate),
            "{label}: loss {rate} at PDR {CONFIGURED}"
        );
    }
}

fn storm_plan() -> FaultPlan {
    FaultPlan::new()
        .crash(NodeId(2), Asn(95), Some(Asn(195)))
        .pdr_window(Link::up(NodeId(1)), Asn(100), Asn(300), 0.5, 1.0)
        .mask_window(Link::down(NodeId(2)), Asn(150), Asn(250))
        .at(Asn(123), FaultAction::TaskBurst(TaskId(0), 7))
        .at(
            Asn(200),
            FaultAction::TaskRate(TaskId(0), Rate::per_slotframe(2)),
        )
}

fn storm_sim(dense: bool) -> Simulator {
    SimulatorBuilder::new(chain_tree(), small_config())
        .schedule(chain_schedule())
        .seed(42)
        .dense_walk(dense)
        .fault_plan(storm_plan())
        .task(Task::echo(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
        .unwrap()
        .build()
}

#[test]
fn fault_storm_replays_identically_and_never_wakes_idle() {
    let mut a = storm_sim(false);
    let mut b = storm_sim(false);
    a.run_slotframes(50);
    b.run_slotframes(50);
    assert_eq!(a.stats().generated, b.stats().generated);
    assert_eq!(a.stats().delivered(), b.stats().delivered());
    assert_eq!(a.stats().losses, b.stats().losses);
    assert_eq!(a.stats().queue_drops, b.stats().queue_drops);
    assert_eq!(a.faults_fired(), b.faults_fired());
    assert_eq!(a.faults_fired(), storm_plan().len() as u64);
    assert_eq!(
        a.idle_wakeups(),
        0,
        "fault windows never break the calendar"
    );
}

#[test]
fn fault_storm_matches_dense_walk_baseline() {
    // The event-driven skip and the unconditional walk must agree under
    // active fault windows — the differential check that fault mutations
    // keep the queue-pressure index consistent.
    let mut event = storm_sim(false);
    let mut dense = storm_sim(true);
    event.run_slotframes(50);
    dense.run_slotframes(50);
    assert_eq!(event.stats().generated, dense.stats().generated);
    assert_eq!(event.stats().delivered(), dense.stats().delivered());
    assert_eq!(event.stats().losses, dense.stats().losses);
    assert_eq!(event.stats().collisions, dense.stats().collisions);
    assert_eq!(event.stats().queue_drops, dense.stats().queue_drops);
    assert_eq!(event.stats().tx_attempts, dense.stats().tx_attempts);
    assert_eq!(event.queued_packets(), dense.queued_packets());
    assert_eq!(event.idle_wakeups(), 0);
}

#[test]
#[should_panic(expected = "outside the tree")]
fn build_rejects_fault_on_unknown_node() {
    let plan = FaultPlan::new().crash(NodeId(99), Asn(1), None);
    let _ = SimulatorBuilder::new(chain_tree(), small_config())
        .fault_plan(plan)
        .build();
}

#[test]
#[should_panic(expected = "unregistered task")]
fn build_rejects_fault_on_unknown_task() {
    let plan = FaultPlan::new().at(Asn(1), FaultAction::TaskBurst(TaskId(9), 1));
    let _ = SimulatorBuilder::new(chain_tree(), small_config())
        .fault_plan(plan)
        .build();
}
