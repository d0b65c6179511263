//! Observability reconciliation: the engine's metrics snapshot must agree
//! with [`SimStats`] *exactly* — it is rendered from them — and switching
//! observability on must not change simulation behaviour at all.
//!
//! The scenario deliberately exercises every counter: an imperfect channel
//! (losses), two links sharing a cell (collisions) and a queue under an
//! oversubscribed rate (queue drops).

use tsch_sim::{
    Cell, Direction, Link, LinkQuality, NetworkSchedule, NodeId, Rate, Simulator, SimulatorBuilder,
    SlotframeConfig, Task, TaskId, TraceEvent, Tree,
};

/// A 7-node tree: a 0-1-2-3-4 chain plus sibling leaves 5 and 6 under 1.
fn tree() -> Tree {
    Tree::from_parents(&[(1, 0), (2, 1), (3, 2), (4, 3), (5, 1), (6, 1)])
}

/// One cell per uplink, deepest-first — except links up(5) and up(6), which
/// share a cell on purpose: they share receiver 1, so their transmissions
/// collide whenever both queues are non-empty.
fn schedule(tree: &Tree, config: SlotframeConfig) -> NetworkSchedule {
    let mut schedule = NetworkSchedule::new(config);
    let mut links = tree.links(Direction::Up);
    links.sort_by_key(|&l| std::cmp::Reverse(tree.layer_of_link(l)));
    let mut slot = 0u32;
    for link in links {
        if link == Link::up(NodeId(6)) {
            continue; // assigned below, on top of up(5)'s cell
        }
        schedule.assign(Cell::new(slot, 0), link).unwrap();
        if link == Link::up(NodeId(5)) {
            schedule
                .assign(Cell::new(slot, 0), Link::up(NodeId(6)))
                .unwrap();
        }
        slot += 1;
    }
    schedule
}

fn build(observability: bool) -> Simulator {
    let tree = tree();
    let config = SlotframeConfig::new(16, 2, 10_000).unwrap();
    let mut builder = SimulatorBuilder::new(tree.clone(), config)
        .schedule(schedule(&tree, config))
        .quality(LinkQuality::uniform(0.8).unwrap())
        .trace_capacity(1 << 16)
        .seed(0x0B5E_CAFE);
    if observability {
        builder = builder.observability(256);
    }
    // Node 4 is oversubscribed: four packets per frame into a single cell,
    // so its queue grows by at least three a frame and overflows the
    // 64-packet bound well within the run.
    for (i, v) in tree.nodes().skip(1).enumerate() {
        let rate = if v == NodeId(4) {
            Rate::per_slotframe(4)
        } else {
            Rate::per_slotframe(1)
        };
        builder = builder
            .task(Task::uplink(TaskId(i as u32), v, rate))
            .unwrap();
    }
    builder.build()
}

fn run(observability: bool) -> Simulator {
    let mut sim = build(observability);
    sim.run_slotframes(50);
    sim
}

/// Every field of [`tsch_sim::SimStats`] that the metrics snapshot
/// renders, and the whole trace, which names the link of every attempt,
/// for the byte-identical comparison (run_time is wall clock and
/// excluded).
fn fingerprint(sim: &Simulator) -> impl PartialEq + std::fmt::Debug + '_ {
    assert_eq!(sim.trace().dropped(), 0, "the trace holds the whole run");
    let stats = sim.stats();
    (
        &stats.deliveries,
        stats.tx_attempts,
        sim.trace().iter().copied().collect::<Vec<TraceEvent>>(),
        stats.collisions,
        stats.losses,
        stats.queue_drops,
        stats.generated,
        stats.queue_high_water(),
        stats.slots_simulated,
    )
}

#[test]
fn scenario_exercises_every_counter() {
    let sim = run(false);
    let stats = sim.stats();
    assert!(stats.losses > 0, "imperfect channel must lose frames");
    assert!(stats.collisions > 0, "shared cell must collide");
    assert!(stats.queue_drops > 0, "oversubscribed queue must drop");
    assert!(
        !stats.deliveries.is_empty(),
        "traffic must still get through"
    );
}

#[test]
fn metrics_reconcile_exactly_with_sim_stats() {
    let sim = run(true);
    let stats = sim.stats();
    let snap = sim.metrics_snapshot();

    // The snapshot is rendered from the stats, so this is exact
    // equality, not tolerance-based agreement.
    assert_eq!(snap.counter("sim.slots"), Some(stats.slots_simulated));
    assert_eq!(snap.counter("sim.tx_attempts"), Some(stats.tx_attempts));
    assert_eq!(snap.counter("sim.collisions"), Some(stats.collisions));
    assert_eq!(snap.counter("sim.losses"), Some(stats.losses));
    assert_eq!(snap.counter("sim.queue_drops"), Some(stats.queue_drops));
    assert_eq!(snap.counter("sim.generated"), Some(stats.generated));
    assert_eq!(
        snap.counter("sim.deliveries"),
        Some(stats.deliveries.len() as u64)
    );

    // The latency histogram sees one observation per delivery, and its sum
    // is the total end-to-end latency.
    let latency = snap.histograms.get("sim.latency_slots").unwrap();
    assert_eq!(latency.count, stats.deliveries.len() as u64);
    let total: u128 = stats
        .deliveries
        .iter()
        .map(|d| u128::from(d.latency_slots()))
        .sum();
    assert_eq!(latency.sum, total);

    // The high-water gauge tracks the deepest queue seen anywhere.
    let deepest = stats.max_queue_high_water();
    assert_eq!(snap.gauge("sim.queue_high_water"), Some(deepest as f64));
}

#[test]
fn slotframe_spans_cover_the_run() {
    let sim = run(true);
    let spans: Vec<_> = sim.obs().spans.named("slotframe").collect();
    // One span per *completed* slotframe boundary crossed mid-run; the
    // final frame's span is only emitted once the next frame starts.
    assert_eq!(spans.len(), 49);
    let slots = u64::from(sim.config().slots);
    let mut tx_total = 0i64;
    for (i, span) in spans.iter().enumerate() {
        assert_eq!(span.layer(), "sim");
        assert_eq!(span.start_asn, i as u64 * slots);
        assert_eq!(span.end_asn, span.start_asn + slots - 1);
        tx_total += span.detail;
    }
    // Span details carry per-frame tx attempts; summed they account for
    // every attempt except the final (unreported) frame's.
    assert!(tx_total > 0);
    assert!((tx_total as u64) <= sim.stats().tx_attempts);
}

#[test]
fn disabled_observability_is_empty_and_behaviour_identical() {
    let on = run(true);
    let off = run(false);

    // Recording never changes a count: the unobserved run snapshots the
    // same series with the same values.
    assert!(!on.metrics_snapshot().is_empty());
    assert_eq!(on.metrics_snapshot(), off.metrics_snapshot());
    assert!(!on.obs().spans.is_empty());
    assert!(off.obs().spans.is_empty());

    // Observability never touches the RNG or the data path: both runs
    // must produce identical statistics, delivery for delivery.
    assert_eq!(fingerprint(&on), fingerprint(&off));
}
