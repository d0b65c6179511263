//! Demands whose sums do not fit a `u32`: the protocol totals them in
//! `u64` and refuses with a `SlotframeOverflow` naming the true total,
//! where it used to wrap (release) or panic (debug). CI runs this file in
//! both profiles.

use harp_core::{AllocatorHandle, HarpError, Requirements, SchedulingPolicy};
use testkit::PreImage;
use tsch_sim::{Link, NodeId, SlotframeConfig, Tree};

/// `cells(child)` on both directions of the link of every `child` of `tree`.
fn demand(tree: &Tree, cells: impl Fn(NodeId) -> u32) -> Requirements {
    let mut reqs = Requirements::new();
    for v in tree.nodes().skip(1) {
        reqs.set(Link::up(v), cells(v));
        reqs.set(Link::down(v), cells(v));
    }
    reqs
}

fn converge(tree: Tree, reqs: &Requirements) -> Result<AllocatorHandle, HarpError> {
    let config = SlotframeConfig::paper_default();
    AllocatorHandle::converge(tree, config, reqs, SchedulingPolicy::RateMonotonic)
}

/// The true total a refusal names, which no `u32` holds.
fn assert_overflows_u32(result: Result<impl std::fmt::Debug, HarpError>) {
    match result {
        Err(HarpError::SlotframeOverflow { needed_slots, .. }) => {
            assert!(needed_slots > u64::from(u32::MAX), "{needed_slots}");
        }
        other => panic!("expected a slotframe overflow, got {other:?}"),
    }
}

#[test]
fn an_adjustment_past_u32_max_at_the_parent_rolls_back() {
    let tree = Tree::paper_fig1_example();
    let reqs = demand(&tree, |_| 1);
    let mut handle = converge(tree, &reqs).expect("one cell per link fits");
    let pre = PreImage::of(handle.network());
    // N1's direct row would hold N4's u32::MAX cells plus N5's one.
    let result = handle.adjust(Link::up(NodeId(4)), u32::MAX);
    assert_eq!(
        result.map(drop),
        Err(HarpError::SlotframeOverflow {
            needed_slots: u64::from(u32::MAX) + 1,
            available: 199,
        })
    );
    pre.assert_restored(handle.network(), "u32::MAX on N4:up");
    assert_eq!(handle.adjustments(), 0);
}

#[test]
fn a_uniform_demand_of_u32_max_is_refused_with_its_true_total() {
    let tree = Tree::paper_fig1_example();
    let reqs = demand(&tree, |_| u32::MAX);
    assert_overflows_u32(converge(tree, &reqs));
}

#[test]
fn a_gateway_placement_past_u32_max_is_refused_before_it_places() {
    // 0 <- 1 <- 3 and 0 <- 2 <- 4: each leaf link fits its parent's row,
    // and the gateway's layers side by side do not fit a u32.
    let tree = Tree::from_parents(&[(1, 0), (2, 0), (3, 1), (4, 2)]);
    let reqs = demand(&tree, |v| if v.0 >= 3 { u32::MAX } else { 1 });
    assert_overflows_u32(converge(tree, &reqs));
}

#[test]
fn a_composite_past_sixteen_bits_names_the_total_of_the_node_that_composed_it() {
    // 0 <- 1 <- 2 <- 3: N2's row of 70,000 cells is N1's layer-2 composite,
    // wider than a node's tables keep. N1 refuses it with its own
    // interface's total, 70,000 plus its direct cell, before the gateway
    // would total both directions.
    let tree = Tree::from_parents(&[(1, 0), (2, 1), (3, 2)]);
    let reqs = demand(&tree, |v| if v.0 == 3 { 70_000 } else { 1 });
    assert_eq!(
        converge(tree, &reqs).map(drop),
        Err(HarpError::SlotframeOverflow {
            needed_slots: 70_001,
            available: 199,
        })
    );
}
