//! Chaos test of the lockstep path: the data plane runs continuously while
//! random traffic changes stream through the control plane. At no instant —
//! including mid-adjustment, while partitions move and cell assignments are
//! in flight — may a single transmission collide. The simulator follows the
//! control plane's installed schedule by its version, copying it whenever
//! it moved.

use harp::core::{HarpNetwork, SchedulingPolicy};
use harp::sim::{Asn, Direction, Link, NodeId, Rate, Simulator, SimulatorBuilder, SlotframeConfig};

/// Copies `net`'s installed schedule into `sim` if its version moved.
fn follow(sim: &mut Simulator, net: &HarpNetwork) {
    if sim.schedule().version() != net.schedule().version() {
        sim.schedule_mut().clone_from(net.schedule());
    }
}

#[test]
fn continuous_operation_under_random_changes_never_collides() {
    let tree = workloads::testbed_50_node_tree();
    let config = SlotframeConfig::paper_default();
    let reqs = workloads::uniform_link_requirements(&tree, 1);

    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().unwrap();
    let net_offset = net.now().0;

    let mut builder = SimulatorBuilder::new(tree.clone(), config)
        .schedule(net.schedule().clone())
        .seed(7);
    // Light background traffic so the data plane is active throughout.
    for (i, v) in tree.nodes().skip(1).enumerate().take(10) {
        builder = builder
            .task(harp::sim::Task::uplink(
                harp::sim::TaskId(i as u32),
                v,
                Rate::new(1, 4).unwrap(),
            ))
            .unwrap();
    }
    let mut sim = builder.build();

    let mut rng = harp::sim::SplitMix64::new(0xC0A5);
    let frames = 60u64;
    for frame in 0..frames {
        // Roughly every four frames, inject a random change mid-frame.
        if frame % 4 == 1 {
            let node = NodeId(1 + rng.next_below(49) as u32);
            let direction = if rng.chance(0.5) {
                Direction::Up
            } else {
                Direction::Down
            };
            let cells = 1 + rng.next_below(3) as u32;
            let at = Asn(sim.now().0 + net_offset);
            net.request_change(
                at,
                Link {
                    child: node,
                    direction,
                },
                cells,
            )
            .unwrap_or_else(|e| panic!("frame {frame}: {e}"));
            follow(&mut sim, &net);
        }
        // Advance both planes one slotframe, slot by slot.
        for _ in 0..config.slots {
            sim.step_slot();
            net.step(Asn(sim.now().0 + net_offset)).unwrap();
            follow(&mut sim, &net);
            // The invariant, checked every single slot.
            assert_eq!(
                sim.stats().collisions,
                0,
                "collision at ASN {} (frame {frame})",
                sim.now()
            );
        }
    }
    // Sanity: traffic actually flowed and changes actually happened.
    assert!(
        sim.stats().deliveries.len() as u64 > frames,
        "data plane was active"
    );
    assert!(net.quiescent(), "all adjustments settled");
    assert!(sim.schedule().is_exclusive());
}
