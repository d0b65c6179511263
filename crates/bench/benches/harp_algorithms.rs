//! Timings of HARP's algorithms: Alg. 1's two-pass composition, the
//! centralized static pipeline, and Alg. 2's neighbour-first adjustment
//! beside ablation 3's baseline, a skyline repack of the same siblings.
//! `static_settle/*` times what a service pays per tenant: the distributed
//! static phase through [`AllocatorHandle`] and the drop of its result.
//! What the design choices buy (channels saved, partitions moved) is
//! counted over seeded instances by `ablation_report`, not here.

use harp_bench::harness::{measure, measure_with_setup};
use harp_core::{
    adjust_partition, allocate_partitions, build_interfaces, compose_components, generate_schedule,
    AllocatorHandle, Requirements, ResourceComponent, SchedulingPolicy,
};
use packing::{pack_into, Rect, Size};
use std::hint::black_box;
use tsch_sim::{Direction, SlotframeConfig, SplitMix64, Tree};
use workloads::TopologyConfig;

fn random_components(n: usize, seed: u64) -> Vec<(tsch_sim::NodeId, ResourceComponent)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            (
                tsch_sim::NodeId(i as u32),
                ResourceComponent::new(1 + rng.next_below(10) as u32, 1 + rng.next_below(3) as u32),
            )
        })
        .collect()
}

fn bench_compose() {
    for &n in &[4usize, 16, 64] {
        let comps = random_components(n, 11);
        let m = measure(&format!("compose/alg1_two_pass/{n}"), || {
            compose_components(black_box(&comps), 16, 1).unwrap()
        });
        println!("{}", m.report());
    }
}

fn testbed_inputs() -> (Tree, Requirements, SlotframeConfig) {
    let tree = workloads::testbed_50_node_tree();
    let reqs = workloads::aggregated_echo_requirements(&tree, tsch_sim::Rate::per_slotframe(1));
    (tree, reqs, SlotframeConfig::paper_default())
}

fn bench_static_pipeline() {
    let (tree50, reqs50, config) = testbed_inputs();
    let tree81 = TopologyConfig::paper_81_node().generate(1);
    let reqs81 = workloads::uniform_link_requirements(&tree81, 1);

    for (name, tree, reqs) in [
        ("testbed_50", &tree50, &reqs50),
        ("deep_81", &tree81, &reqs81),
    ] {
        let m = measure(&format!("static_pipeline/interfaces/{name}"), || {
            build_interfaces(black_box(tree), black_box(reqs), Direction::Up, 16).unwrap()
        });
        println!("{}", m.report());
        let m = measure(&format!("static_pipeline/full_schedule/{name}"), || {
            let up = build_interfaces(tree, reqs, Direction::Up, config.channels).unwrap();
            let down = build_interfaces(tree, reqs, Direction::Down, config.channels).unwrap();
            let table = allocate_partitions(tree, &up, &down, config).unwrap();
            generate_schedule(tree, reqs, &table, SchedulingPolicy::RateMonotonic).unwrap()
        });
        println!("{}", m.report());
    }
}

/// The two halves of a `create_churn` op below harpd, on the benchmark's
/// tenant shape (8 layers, at most 4 children, one cell per link and
/// direction): the distributed static phase as `AllocatorHandle` settles
/// it, and the drop of the converged handle. These are the operations the
/// benchmark's traced run times as `harp-core.handle.converge_us` and
/// `harp-core.handle.drop_us` — same call, same arguments, the tree moved
/// in — so the rows here and the spans there can be read side by side. The
/// rows above time the centralized functions, which keep no per-node state.
fn bench_static_settle() {
    /// The spans harpd keeps per tenant allocator ring, what its trace
    /// dump returns (`TRACE_DUMP_LIMIT` in `harpd/src/state/tenant.rs`).
    const TRACE_DUMP_LIMIT: usize = 512;
    let config = SlotframeConfig::paper_default();
    for nodes in [64u32, 256] {
        let tree = TopologyConfig {
            nodes,
            layers: 8,
            max_children: 4,
        }
        .generate(0x5E771E + u64::from(nodes));
        let reqs = workloads::uniform_link_requirements(&tree, 1);
        let converge = |tree: Tree| {
            AllocatorHandle::converge_observed(
                tree,
                config,
                &reqs,
                SchedulingPolicy::RateMonotonic,
                TRACE_DUMP_LIMIT,
            )
            .expect("one cell per link fits the paper's slotframe")
        };
        let m = measure_with_setup(
            &format!("static_settle/converge/{nodes}"),
            || tree.clone(),
            converge,
        );
        println!("{}", m.report());
        let m = measure_with_setup(
            &format!("static_settle/drop/{nodes}"),
            || converge(tree.clone()),
            drop,
        );
        println!("{}", m.report());
    }
}

fn bench_adjustment() {
    // A partly fragmented parent partition with 12 sibling rows.
    let parent = Rect::from_xywh(0, 0, 60, 4);
    let mut children = Vec::new();
    let mut x = 0;
    for i in 0..12u32 {
        let w = 3 + (i % 3);
        children.push((tsch_sim::NodeId(i), Rect::from_xywh(x, i % 3, w, 1)));
        x += w + 1;
    }
    let grown = ResourceComponent::row(9);

    let m = measure("adjustment/alg2_neighbour_first", || {
        adjust_partition(
            black_box(parent),
            black_box(&children),
            tsch_sim::NodeId(0),
            grown,
        )
        .unwrap()
    });
    println!("{}", m.report());
    // Ablation 3's baseline, not a step of Alg. 2: a skyline repack of every entry.
    let m = measure("adjustment/baseline_skyline_repack", || {
        let sizes: Vec<Size> = children
            .iter()
            .map(|&(n, r)| {
                if n == tsch_sim::NodeId(0) {
                    grown.as_size()
                } else {
                    r.size
                }
            })
            .collect();
        pack_into(black_box(&sizes), parent.size).unwrap()
    });
    println!("{}", m.report());
}

fn main() {
    bench_compose();
    bench_static_pipeline();
    bench_static_settle();
    bench_adjustment();
}
