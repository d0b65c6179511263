//! Seeded randomized tests of the HARP invariants on randomly generated
//! trees and demands.
//!
//! The generators build arbitrary parent-pointer trees (each node's parent
//! is some earlier node) and arbitrary small per-link demands; the
//! assertions check the paper's claims hold universally, not just on the
//! canned examples:
//!
//! * composition composites contain all children, disjointly, with minimal
//!   slot extent bounds;
//! * partition allocation isolates every scheduling area;
//! * generated schedules are exclusive and demand-satisfying;
//! * dynamic adjustment preserves all of the above.

use harp_core::{
    adjust_partition, allocate_partitions, build_interfaces, compose_components, generate_schedule,
    is_feasible, unsatisfied_links, ResourceComponent, SchedulingPolicy,
};
use packing::{all_disjoint, Rect};
use testkit::seeded::{random_reqs, random_tree};
use tsch_sim::{Direction, NodeId, SlotframeConfig, SplitMix64};

#[test]
fn composition_contains_children_disjointly() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xC0_3E ^ case);
        let comps: Vec<(u32, u32)> = (0..1 + rng.next_below(9))
            .map(|_| (1 + rng.next_below(8) as u32, 1 + rng.next_below(4) as u32))
            .collect();
        let children: Vec<(NodeId, ResourceComponent)> = comps
            .iter()
            .enumerate()
            .map(|(i, &(s, c))| (NodeId(i as u32), ResourceComponent::new(s, c)))
            .collect();
        let layout = compose_components(&children, 16, 1).unwrap();
        let composite = layout.composite();
        // (i) contains all children without overlap.
        let rects: Vec<Rect> = layout.placements().iter().map(|&(_, r)| r).collect();
        assert!(all_disjoint(&rects), "case {case}");
        let bounds = Rect::from_xywh(0, 0, composite.slots, composite.channels);
        for &(_, r) in layout.placements() {
            assert!(bounds.contains_rect(&r), "case {case}");
        }
        // (ii) the slot extent is minimal-feasible: at least the widest
        // child and at least the 16-channel area bound.
        let widest = comps.iter().map(|&(s, _)| s).max().unwrap();
        let area: u64 = comps
            .iter()
            .map(|&(s, c)| u64::from(s) * u64::from(c))
            .sum();
        assert!(composite.slots >= widest, "case {case}");
        assert!(
            u64::from(composite.slots) >= area.div_ceil(16),
            "case {case}"
        );
        // (iii) the channel budget is respected.
        assert!(composite.channels <= 16, "case {case}");
    }
}

#[test]
fn pipeline_produces_exclusive_satisfying_schedules() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xE5_C1 ^ case);
        let tree = random_tree(&mut rng, 24);
        let reqs = random_reqs(&mut rng, &tree, 3);
        let config = SlotframeConfig::paper_default();
        let up = build_interfaces(&tree, &reqs, Direction::Up, config.channels).unwrap();
        let down = build_interfaces(&tree, &reqs, Direction::Down, config.channels).unwrap();
        let Ok(table) = allocate_partitions(&tree, &up, &down, config) else {
            // Overflow is a legal outcome for extreme demands; nothing to check.
            continue;
        };
        let schedule =
            generate_schedule(&tree, &reqs, &table, SchedulingPolicy::RateMonotonic).unwrap();
        assert!(schedule.is_exclusive(), "case {case}");
        assert!(
            unsatisfied_links(&tree, &reqs, &schedule).is_empty(),
            "case {case}"
        );
        // Exact allocation: no link holds more cells than required.
        for (link, cells) in reqs.iter() {
            assert_eq!(schedule.cells_of(link).len(), cells as usize, "case {case}");
        }
    }
}

#[test]
fn scheduling_areas_are_isolated() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x15_0A ^ case);
        let tree = random_tree(&mut rng, 24);
        let reqs = random_reqs(&mut rng, &tree, 3);
        let config = SlotframeConfig::paper_default();
        let up = build_interfaces(&tree, &reqs, Direction::Up, config.channels).unwrap();
        let down = build_interfaces(&tree, &reqs, Direction::Down, config.channels).unwrap();
        let Ok(table) = allocate_partitions(&tree, &up, &down, config) else {
            continue;
        };
        let mut areas = Vec::new();
        for d in Direction::BOTH {
            for v in tree.nodes() {
                if tree.is_leaf(v) {
                    continue;
                }
                if let Some(area) = table.scheduling_area(&tree, v, d) {
                    areas.push(area);
                }
            }
        }
        assert!(all_disjoint(&areas), "case {case}");
    }
}

#[test]
fn adjustment_outcome_is_always_valid() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xAD_75 ^ case);
        let widths: Vec<u32> = (0..2 + rng.next_below(6))
            .map(|_| 1 + rng.next_below(5) as u32)
            .collect();
        let grow_to = 1 + rng.next_below(12) as u32;
        let parent_w = 16 + rng.next_below(15) as u32;
        let parent_h = 1 + rng.next_below(3) as u32;
        // Lay siblings out in a row, then grow the first one.
        let mut children = Vec::new();
        let mut x = 0;
        for (i, &w) in widths.iter().enumerate() {
            children.push((NodeId(i as u32), Rect::from_xywh(x, 0, w, 1)));
            x += w;
        }
        if x > parent_w {
            continue;
        }
        let parent = Rect::from_xywh(0, 0, parent_w, parent_h);
        let new_size = ResourceComponent::row(grow_to);
        match adjust_partition(parent, &children, NodeId(0), new_size).unwrap() {
            Some(outcome) => {
                let rects: Vec<Rect> = outcome
                    .layout
                    .iter()
                    .map(|&(_, r)| r)
                    .filter(|r| !r.is_empty())
                    .collect();
                assert!(all_disjoint(&rects), "case {case}");
                for &(n, r) in &outcome.layout {
                    assert!(parent.contains_rect(&r) || r.is_empty(), "case {case}");
                    let expected = if n == NodeId(0) {
                        new_size.as_size()
                    } else {
                        children.iter().find(|(c, _)| *c == n).unwrap().1.size
                    };
                    assert_eq!(r.size, expected, "case {case}");
                }
                // Unmoved children really did not move.
                for &(n, old) in &children {
                    if !outcome.moved.contains(&n) {
                        let now = outcome.layout.iter().find(|(c, _)| *c == n).unwrap().1;
                        assert_eq!(now, old, "case {case}");
                    }
                }
            }
            None => {
                // The heuristic said no; the exact area bound must agree
                // that it is at least tight.
                let others: u64 = widths[1..].iter().map(|&w| u64::from(w)).sum();
                let needed = others + u64::from(grow_to);
                assert!(
                    needed > u64::from(parent_w) * u64::from(parent_h) || grow_to > parent_w,
                    "case {case}: refused although area and width admit a packing: \
                     needed {needed}, capacity {}",
                    parent_w * parent_h
                );
            }
        }
    }
}

#[test]
fn feasibility_test_never_false_positive() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xFE_A5 ^ case);
        let comps: Vec<(u32, u32)> = (0..1 + rng.next_below(7))
            .map(|_| (1 + rng.next_below(6) as u32, 1 + rng.next_below(3) as u32))
            .collect();
        let pw = 1 + rng.next_below(20) as u32;
        let ph = 1 + rng.next_below(4) as u32;
        let components: Vec<ResourceComponent> = comps
            .iter()
            .map(|&(s, c)| ResourceComponent::new(s, c))
            .collect();
        let parent = ResourceComponent::new(pw, ph);
        if is_feasible(parent, &components).unwrap() {
            // A positive answer comes with an actual packing inside.
            let area: u64 = components.iter().map(|c| c.cell_count()).sum();
            assert!(area <= parent.cell_count(), "case {case}");
            for c in &components {
                assert!(c.slots <= pw && c.channels <= ph, "case {case}");
            }
        }
    }
}

#[test]
fn interfaces_direct_component_matches_demand() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x1F_DC ^ case);
        let tree = random_tree(&mut rng, 20);
        let reqs = random_reqs(&mut rng, &tree, 3);
        let set = build_interfaces(&tree, &reqs, Direction::Up, 16).unwrap();
        for v in tree.nodes() {
            if tree.is_leaf(v) {
                continue;
            }
            let direct = set
                .node(v)
                .interface
                .component(tree.link_layer(v))
                .expect("non-leaf nodes have a direct component");
            assert_eq!(
                direct.slots,
                reqs.direct_total(&tree, v, Direction::Up),
                "case {case}"
            );
            assert!(direct.channels <= 1 || direct.slots == 0, "case {case}");
        }
    }
}
