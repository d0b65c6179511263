//! Seeded randomized tests of the *distributed* HARP deployment: on
//! arbitrary trees and demands, the message-passing protocol and its direct
//! settle must converge to the same schedule as the centralized oracle, and
//! arbitrary sequences of feasible traffic changes must preserve
//! exclusivity and demand satisfaction.

use harp_core::{
    allocate_partitions, build_interfaces, generate_schedule, unsatisfied_links, HarpNetwork,
    Requirements, SchedulingPolicy,
};
use testkit::seeded::{random_reqs, random_tree};
use tsch_sim::{Direction, Link, NodeId, SlotframeConfig, SplitMix64};

#[test]
fn distributed_converges_to_centralized() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xD1_57 ^ case);
        let tree = random_tree(&mut rng, 18);
        let reqs = random_reqs(&mut rng, &tree, 2);
        let config = SlotframeConfig::paper_default();
        let up = build_interfaces(&tree, &reqs, Direction::Up, config.channels).unwrap();
        let down = build_interfaces(&tree, &reqs, Direction::Down, config.channels).unwrap();
        let Ok(table) = allocate_partitions(&tree, &up, &down, config) else {
            continue;
        };
        let oracle =
            generate_schedule(&tree, &reqs, &table, SchedulingPolicy::RateMonotonic).unwrap();

        // Three routes to one schedule: the direct settle, the
        // message-driven protocol and the centralized functions.
        let mut net =
            HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
        net.run_static().unwrap();
        let mut by_messages =
            HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
        by_messages.run_static_by_messages().unwrap();
        for net in [&net, &by_messages] {
            assert!(net.quiescent(), "case {case}");
            for d in Direction::BOTH {
                for link in tree.links(d) {
                    assert_eq!(
                        net.schedule().cells_of(link),
                        oracle.cells_of(link),
                        "case {case}: {link}"
                    );
                }
            }
        }
    }
}

#[test]
fn random_adjustment_sequences_keep_invariants() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xAD_3C ^ case);
        let tree = random_tree(&mut rng, 14);
        let n = tree.len() as u64;
        let changes: Vec<(u32, bool, u32)> = (0..1 + rng.next_below(11))
            .map(|_| {
                (
                    1 + rng.next_below(n - 1) as u32,
                    rng.next_below(2) == 1,
                    1 + rng.next_below(3) as u32,
                )
            })
            .collect();
        let config = SlotframeConfig::paper_default();
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), 1);
            reqs.set(Link::down(v), 1);
        }
        let mut net =
            HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
        net.run_static().unwrap();

        let mut expected = reqs.clone();
        for (node, up, cells) in changes {
            let direction = if up { Direction::Up } else { Direction::Down };
            let link = Link {
                child: NodeId(node),
                direction,
            };
            net.adjust_and_settle(net.now(), link, cells).unwrap();
            expected.set(link, cells);
            assert!(net.schedule().is_exclusive(), "case {case}");
            assert!(
                unsatisfied_links(&tree, &expected, net.schedule()).is_empty(),
                "case {case}"
            );
            // Exact allocation after every change, not just coverage.
            assert_eq!(
                net.schedule().cells_of(link).len(),
                cells as usize,
                "case {case}"
            );
        }
    }
}

#[test]
fn static_phase_message_complexity_is_linear() {
    // The static phase exchanges exactly one POST-intf and at most one
    // POST-part per non-leaf, non-gateway node — the efficiency claim
    // behind HARP's bottom-up/top-down design.
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0x11_EA ^ case);
        let tree = random_tree(&mut rng, 20);
        let config = SlotframeConfig::paper_default();
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), 1);
        }
        let mut net =
            HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
        let report = net.run_static().unwrap();
        let interior = tree.nodes().skip(1).filter(|&v| !tree.is_leaf(v)).count() as u64;
        assert!(report.mgmt_messages <= 2 * interior + 2, "case {case}");
        // Timing: bounded by a constant number of slotframes per tree level.
        let levels = u64::from(tree.layers().max(1));
        assert!(
            report.slotframes(config) <= 3 * levels + 2,
            "case {case}: {} slotframes for {} levels",
            report.slotframes(config),
            levels
        );
    }
}
