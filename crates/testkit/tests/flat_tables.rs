//! What the flat tables promise, pinned where it was measured.
//!
//! A replicate is `tree.clone()`, `schedule.clone()`, a builder, `build()`
//! and a run; until PR 21 three quarters of its allocations were containers
//! — a vector per child list, per scheduled cell and per link, two fresh
//! candidate vectors per link in `build` — that a flat table makes
//! unnecessary. The budgets below are the counts measured on the
//! benchmark's `fault_storm` input, + 10 %; the counts repeat exactly, in
//! debug and release.

use harp_core::{AllocatorHandle, SchedulingPolicy};
use testkit::alloc::counted;
use tsch_sim::{
    Direction, FaultPlan, InterferenceModel, Link, NetworkSchedule, NodeId, SimulatorBuilder,
    SlotframeConfig, Task, Tree, TwoHopInterference,
};
use workloads::scenario_dsl::parse_scenario;
use workloads::{testbed_50_node_tree, TopologyConfig};

/// The benchmark's `fault_storm` input: `scenarios/fault_storm.scn` and the
/// schedule HARP converges to on its tree.
struct Input {
    tree: Tree,
    config: SlotframeConfig,
    schedule: NetworkSchedule,
    tasks: Vec<Task>,
    faults: FaultPlan,
    frames: u64,
}

fn fault_storm() -> Input {
    let scenario = parse_scenario(include_str!("../../../scenarios/fault_storm.scn"))
        .expect("the checked-in scenario parses");
    let config = scenario.slotframe_config().expect("a valid slotframe");
    let tree = scenario.trees(true).pop().expect("one topology");
    let handle = AllocatorHandle::converge(
        tree.clone(),
        config,
        &scenario.requirements(&tree),
        SchedulingPolicy::RateMonotonic,
    )
    .expect("the static phase fits");
    Input {
        schedule: handle.network().schedule().clone(),
        tasks: scenario.tasks(&tree),
        faults: scenario.data_fault_plan(&tree).expect("faults resolve"),
        frames: scenario.frames,
        tree,
        config,
    }
}

#[test]
fn a_replicate_allocates_what_it_keeps() {
    /// `build()` on the 50-node input: the per-link-id tables, the conflict
    /// CSR, the slot table, one queue, one PDR and one occupancy entry per
    /// lane, a lane route per task (177; 1,015 with candidate vectors per
    /// link and a vector per scheduled cell), + 10 %.
    const BUILD_BUDGET: u64 = 200;
    /// Sixty slotframes of it: queue growth and the statistics (175; 477
    /// with a fresh release list every slotframe), + 10 %.
    const RUN_BUDGET: u64 = 192;

    let input = fault_storm();
    assert!(input.schedule.is_exclusive());

    // The cell index, the link table and the cell pool; an exclusive
    // schedule has no stacked cell to copy.
    let (schedule, allocs) = counted(|| input.schedule.clone());
    println!("schedule.clone() allocates {allocs} times");
    assert!(allocs <= 4, "schedule.clone() allocates {allocs} times");
    // Parents, two child arrays, depths, subtree layers and sizes.
    let (tree, allocs) = counted(|| input.tree.clone());
    println!("tree.clone() allocates {allocs} times");
    assert!(allocs <= 6, "tree.clone() allocates {allocs} times");

    let mut builder = SimulatorBuilder::new(tree, input.config)
        .schedule(schedule)
        .seed(1)
        .fault_plan(input.faults.clone());
    for task in &input.tasks {
        builder = builder.task(task.clone()).expect("tasks of the tree");
    }
    let (mut sim, allocs) = counted(|| builder.build());
    println!("build() allocates {allocs} times");
    assert!(
        allocs <= BUILD_BUDGET,
        "build() allocates {allocs} times, budget {BUILD_BUDGET}"
    );
    let ((), allocs) = counted(|| sim.run_slotframes(input.frames));
    println!("run_slotframes({}) allocates {allocs} times", input.frames);
    assert!(
        allocs <= RUN_BUDGET,
        "the run allocates {allocs} times, budget {RUN_BUDGET}"
    );
    assert!(sim.stats().delivered() > 0 && sim.stats().collisions == 0);
}

#[test]
fn candidates_into_a_warm_buffer_allocate_nothing() {
    let tree = testbed_50_node_tree();
    let model = TwoHopInterference::from_tree(&tree);
    let links: Vec<Link> = Direction::BOTH
        .into_iter()
        .flat_map(|d| tree.links(d))
        .collect();
    let mut out = Vec::new();
    // The first link sizes the buffer for its own neighbourhood; a larger
    // one later may still grow it, so one pass warms it for all of them.
    let ((), warming) = counted(|| {
        for &link in &links {
            assert!(model.conflict_candidates(&tree, link, &mut out));
        }
    });
    let ((), warm) = counted(|| {
        for &link in &links {
            assert!(model.conflict_candidates(&tree, link, &mut out));
        }
    });
    println!(
        "{} links: {warming} allocations warming, {warm} warm",
        links.len()
    );
    assert!(warming <= 8, "{warming} allocations to size one buffer");
    assert_eq!(warm, 0, "a warm buffer is all a call needs");
}

/// The child rows of a generated tree are the per-node lists a parent
/// vector implies, order included.
#[test]
fn child_rows_match_the_parent_vector_on_generated_trees() {
    for seed in 0..20 {
        let tree = TopologyConfig::paper_81_node().generate(seed);
        let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); tree.len()];
        for v in tree.nodes() {
            if let Some(p) = tree.parent(v) {
                lists[p.index()].push(v);
            }
        }
        for v in tree.nodes() {
            assert_eq!(tree.children(v), lists[v.index()], "seed {seed}: {v}");
        }
    }
}
