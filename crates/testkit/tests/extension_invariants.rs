//! Seeded randomized tests for the extension modules: channel-band
//! coexistence, latency analysis, and the verify checkers.

use harp_core::{
    allocate_partitions, build_interfaces, generate_schedule, latency_bound, verify_partitions,
    verify_schedule, verify_uplink_compliance, BandPlan, Requirements, SchedulingPolicy,
};
use testkit::seeded::random_tree;
use tsch_sim::{Direction, Link, NodeId, Rate, SlotframeConfig, SplitMix64, Task, TaskId, Tree};

#[test]
fn band_plan_survives_random_adjustment_sequences() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0xBA_2D ^ case);
        let widths: Vec<u16> = (0..2 + rng.next_below(3))
            .map(|_| 1 + rng.next_below(4) as u16)
            .collect();
        let adjustments: Vec<(usize, u16)> = (0..1 + rng.next_below(11))
            .map(|_| (rng.next_below(5) as usize, 1 + rng.next_below(8) as u16))
            .collect();
        let Ok(mut plan) = BandPlan::allocate(&widths, 16) else {
            continue; // over-subscribed initial widths: nothing to test
        };
        for (idx, new_width) in adjustments {
            let idx = idx % widths.len();
            match plan.adjust(idx, new_width) {
                Ok(moved) => {
                    assert!(plan.is_isolated(), "case {case}");
                    assert_eq!(plan.band(idx).width, new_width, "case {case}");
                    // Every unmoved band is untouched by definition of the
                    // outcome; spot-check the isolation of all widths.
                    assert!(
                        moved.contains(&idx) || plan.band(idx).width == new_width,
                        "case {case}"
                    );
                }
                Err(_) => {
                    // A refusal must leave a consistent plan behind.
                    assert!(plan.is_isolated(), "case {case}");
                }
            }
        }
    }
}

#[test]
fn band_plan_never_exceeds_total() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0xBA_57 ^ case);
        let widths: Vec<u16> = (0..1 + rng.next_below(5))
            .map(|_| 1 + rng.next_below(6) as u16)
            .collect();
        let total: u32 = widths.iter().map(|&w| u32::from(w)).sum();
        let plan = BandPlan::allocate(&widths, 16);
        assert_eq!(plan.is_ok(), total <= 16, "case {case}");
        if let Ok(plan) = plan {
            assert!(plan.is_isolated(), "case {case}");
            assert_eq!(u32::from(plan.idle_channels()), 16 - total, "case {case}");
        }
    }
}

#[test]
fn static_allocations_pass_every_verifier() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x5A_11 ^ case);
        let tree = random_tree(&mut rng, 20);
        let cfg = SlotframeConfig::paper_default();
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), tree.subtree_size(v));
            reqs.set(Link::down(v), tree.subtree_size(v));
        }
        let up = build_interfaces(&tree, &reqs, Direction::Up, cfg.channels).unwrap();
        let down = build_interfaces(&tree, &reqs, Direction::Down, cfg.channels).unwrap();
        let Ok(table) = allocate_partitions(&tree, &up, &down, cfg) else {
            continue;
        };
        let schedule =
            generate_schedule(&tree, &reqs, &table, SchedulingPolicy::RateMonotonic).unwrap();
        assert!(
            verify_schedule(&tree, &reqs, &schedule).is_empty(),
            "case {case}"
        );
        assert!(verify_partitions(&tree, &table).is_empty(), "case {case}");
        assert!(
            verify_uplink_compliance(&tree, &table).is_empty(),
            "case {case}"
        );
    }
}

#[test]
fn compliant_schedules_bound_uplink_latency_by_one_frame_plus_wait() {
    // For a compliant static allocation, an uplink packet that releases
    // at slot 0 rides the frame in order: best case is under one frame.
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x1A_7B ^ case);
        let tree = random_tree(&mut rng, 16);
        let cfg = SlotframeConfig::paper_default();
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), tree.subtree_size(v));
        }
        let up = build_interfaces(&tree, &reqs, Direction::Up, cfg.channels).unwrap();
        let down = build_interfaces(&tree, &reqs, Direction::Down, cfg.channels).unwrap();
        let Ok(table) = allocate_partitions(&tree, &up, &down, cfg) else {
            continue;
        };
        let schedule =
            generate_schedule(&tree, &reqs, &table, SchedulingPolicy::RateMonotonic).unwrap();
        for v in tree.nodes().skip(1) {
            let task = Task::uplink(TaskId(0), v, Rate::per_slotframe(1));
            let bound = latency_bound(&schedule, &tree, &task).unwrap();
            assert!(
                bound.best_case_slots <= u64::from(cfg.slots),
                "case {case}: {v}: best case {} exceeds a frame",
                bound.best_case_slots
            );
            // Worst case is bounded by two frames: missing the whole
            // compliant run costs exactly one extra frame.
            assert!(
                bound.worst_case_slots <= 2 * u64::from(cfg.slots),
                "case {case}: {v}: worst case {}",
                bound.worst_case_slots
            );
        }
    }
}

#[test]
fn latency_bound_monotone_in_depth_for_chains() {
    // On a chain with one cell per link in compliant order, the bound
    // grows with depth.
    for depth in 1u32..10 {
        let cfg = SlotframeConfig::paper_default();
        let pairs: Vec<(u32, u32)> = (1..=depth).map(|i| (i, i - 1)).collect();
        let tree = Tree::from_parents(&pairs);
        let mut reqs = Requirements::new();
        for v in tree.nodes().skip(1) {
            reqs.set(Link::up(v), 1);
        }
        let up = build_interfaces(&tree, &reqs, Direction::Up, cfg.channels).unwrap();
        let down = build_interfaces(&tree, &reqs, Direction::Down, cfg.channels).unwrap();
        let table = allocate_partitions(&tree, &up, &down, cfg).unwrap();
        let schedule =
            generate_schedule(&tree, &reqs, &table, SchedulingPolicy::RateMonotonic).unwrap();
        let mut last = 0;
        for d in 1..=depth {
            let node = NodeId(d);
            let task = Task::uplink(TaskId(0), node, Rate::per_slotframe(1));
            let bound = latency_bound(&schedule, &tree, &task).unwrap();
            assert!(bound.best_case_slots >= last, "depth {depth}");
            last = bound.best_case_slots;
        }
    }
}
