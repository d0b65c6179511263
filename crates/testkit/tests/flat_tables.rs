//! What the flat tables promise, pinned where it was measured.
//!
//! A replicate is `schedule.clone()`, `tree.clone()`, a builder and the
//! registration of its tasks, `build()` and a run — what the benchmark's
//! `dataplane_replay` op does, on each of its three inputs. Three quarters
//! of its allocations were once containers — a vector per child list, per
//! scheduled cell and per link, two fresh candidate vectors per link in
//! `build` — and later most of the rest were one small heap object per
//! task route, per lane queue and per streaming source, all of which a flat
//! table makes unnecessary. The budgets below are the counts measured on
//! each input, + 10 %; the counts repeat exactly, in debug and release.

use harp_core::{AllocatorHandle, SchedulingPolicy};
use testkit::alloc::counted;
use tsch_sim::{
    Cell, FaultPlan, Link, NetworkSchedule, NodeId, Rate, Simulator, SimulatorBuilder,
    SlotframeConfig, StatsMode, Task, TaskId, Tree,
};
use workloads::scenario_dsl::parse_scenario;
use workloads::TopologyConfig;

/// One of the benchmark's `dataplane_replay` inputs.
struct Input {
    name: String,
    tree: Tree,
    config: SlotframeConfig,
    schedule: NetworkSchedule,
    tasks: Vec<Task>,
    faults: FaultPlan,
    frames: u64,
    stats_mode: StatsMode,
}

/// A checked-in scenario and the schedule HARP converges to on its tree.
fn scenario_input(name: &str, text: &str) -> Input {
    let scenario = parse_scenario(text).expect("the checked-in scenario parses");
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
        name: name.to_owned(),
        schedule: handle.network().schedule().clone(),
        tasks: scenario.tasks(&tree),
        faults: scenario.data_fault_plan(&tree).expect("faults resolve"),
        frames: scenario.frames,
        stats_mode: StatsMode::Full,
        tree,
        config,
    }
}

/// The scale scenario of `nodes` nodes, four slotframes, streaming
/// statistics.
fn scale_input(nodes: u32) -> Input {
    let scale = workloads::scale_scenario(nodes, 1);
    Input {
        name: format!("scale {nodes}"),
        tree: scale.tree,
        config: scale.config,
        schedule: scale.schedule,
        tasks: scale.tasks,
        faults: FaultPlan::default(),
        frames: 4,
        stats_mode: StatsMode::Streaming,
    }
}

/// The benchmark's three `dataplane_replay` inputs, in its order.
fn benchmark_inputs() -> [Input; 3] {
    [
        scenario_input(
            "fault_storm",
            include_str!("../../../scenarios/fault_storm.scn"),
        ),
        scenario_input(
            "gateway_failover",
            include_str!("../../../scenarios/gateway_failover.scn"),
        ),
        scale_input(500),
    ]
}

/// Allocations of each phase of one replicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bill {
    schedule_clone: u64,
    tree_clone: u64,
    registration: u64,
    build: u64,
    run: u64,
}

/// Runs one replicate of `input` with its first `tasks` tasks, billing
/// each phase.
fn replicate(input: &Input, tasks: usize) -> (Bill, Simulator) {
    let (schedule, schedule_clone) = counted(|| input.schedule.clone());
    let (tree, tree_clone) = counted(|| input.tree.clone());
    let (builder, registration) = counted(|| {
        let mut builder = SimulatorBuilder::new(tree, input.config)
            .schedule(schedule)
            .seed(1)
            .stats_mode(input.stats_mode)
            .fault_plan(input.faults.clone());
        for task in &input.tasks[..tasks] {
            builder = builder.task(task.clone()).expect("tasks of the tree");
        }
        builder
    });
    let (mut sim, build) = counted(|| builder.build());
    let ((), run) = counted(|| sim.run_slotframes(input.frames));
    let bill = Bill {
        schedule_clone,
        tree_clone,
        registration,
        build,
        run,
    };
    (bill, sim)
}

#[test]
fn a_replicate_allocates_what_it_keeps() {
    /// Per input, the budget of each phase: `schedule.clone()`,
    /// `tree.clone()`, registration, `build()` and the run.
    ///
    /// - The schedule clone copies the cell index, the link table and the
    ///   cell pool (3); the scale schedule stacks links in cells, and its
    ///   table of stacked cells adds a box and two vectors: 6 (127 with a
    ///   vector per stacked cell).
    /// - The tree clone copies parents, two child arrays, depths, subtree
    ///   layers and sizes (6, held exactly).
    /// - Registration is the builder's interference model, the fault
    ///   plan's copy and the task list's growth: 7 at 49 tasks and at 128
    ///   (203 and 391 while each task built its route and its `Arc`).
    /// - `build()` allocates each table once, at the size a counting pass
    ///   over the schedule and the routes gives it: the id → lane table,
    ///   the lane vectors and the pool's lane triples, the slot table, the
    ///   wake index, the lane-route table, the scratch buffers, the
    ///   statistics' per-node and per-source tables, the fault calendar
    ///   (sized to the plan) and, when streaming, the histogram table: 22,
    ///   22 and 22 (24 on `fault_storm` while the fault calendar grew by
    ///   doubling; 27, 25 and 25 while the engine kept a PDR and a fault
    ///   mask per link id and the statistics an attempt count per link id;
    ///   53, 51 and 55 while the lane vectors and the slot table grew by
    ///   doubling; 149, 147 and 308 with a lane route `Arc` per task; 177
    ///   on `fault_storm` with a conflict CSR and a link table too).
    /// - The run reserves, at its start, the packet pool's room for one
    ///   slotframe's releases and, in `Full` mode, the delivery records
    ///   (see `a_run_reserves_its_delivery_records_once`); it then grows
    ///   the pool past a slotframe's releases (a crash's backlog, a burst)
    ///   and on `fault_storm` the masked links' list and the quality map's
    ///   first override: 6, 5 and 3 (20, 17 and 8 while the pool and the
    ///   records grew by doubling from empty; 18 on `fault_storm` while
    ///   masks and PDRs were per-link-id vectors filled at build; 43, 42
    ///   and 46 while the statistics' tables, the occupied set and the
    ///   scratch buffers grew in the run; 175, 171 and 439 with a queue
    ///   per lane and a histogram vector per streaming source; 477 on
    ///   `fault_storm` with a fresh release list every slotframe too).
    ///
    /// Each is the count measured + 10 %, the tree's exact (the build's
    /// were 30, 28 and 28 before the per-link-id vectors went; the budgets
    /// were build 27/25/25 and run 22/19/9 before the run reserved).
    const BUDGETS: [(&str, [u64; 5]); 3] = [
        ("fault_storm", [4, 6, 8, 25, 7]),
        ("gateway_failover", [4, 6, 8, 25, 6]),
        ("scale 500", [7, 6, 8, 25, 4]),
    ];

    for (input, (name, budget)) in benchmark_inputs().iter().zip(BUDGETS) {
        assert_eq!(input.name, name);
        let (bill, sim) = replicate(input, input.tasks.len());
        let phases = [
            ("schedule.clone()".to_owned(), bill.schedule_clone),
            ("tree.clone()".to_owned(), bill.tree_clone),
            (
                format!("registration of {} tasks", input.tasks.len()),
                bill.registration,
            ),
            ("build()".to_owned(), bill.build),
            (format!("run_slotframes({})", input.frames), bill.run),
        ];
        for ((phase, allocs), budget) in phases.iter().zip(budget) {
            println!("{name}: {phase} allocates {allocs} times");
            assert!(
                *allocs <= budget,
                "{name}: {phase} allocates {allocs} times, budget {budget}"
            );
        }
        assert!(sim.stats().delivered() > 0 && sim.stats().collisions == 0);
        assert_eq!(sim.idle_wakeups(), 0);
    }
}

/// A run sizes its delivery records once, at its start, to the lesser of
/// the packets the window can release (those queued, each task's releases
/// at its slotframe boundaries, the bursts due in it) and the deliveries
/// its last-hop cells can carry. On `fault_storm` that is 49 tasks × 60
/// slotframes + a 20-packet burst; `gateway_failover` is 49 × 40; the
/// scale input streams and keeps no record. While the records grew by
/// doubling, the two scenarios ended at 4,096 and 2,048.
#[test]
fn a_run_reserves_its_delivery_records_once() {
    let inputs = benchmark_inputs();
    for (input, reserved) in inputs.iter().zip([2_960, 1_960, 0]) {
        let (_, sim) = replicate(input, input.tasks.len());
        let records = &sim.stats().deliveries;
        println!(
            "{}: run_slotframes({}) reserves {} delivery records and keeps {}",
            input.name,
            input.frames,
            records.capacity(),
            records.len()
        );
        assert_eq!(records.capacity(), reserved, "{}", input.name);
    }

    // Without a schedule no last-hop cell carries anything: 100
    // slotframes of 49 echo tasks reserve no record.
    let storm = &inputs[0];
    let mut unscheduled = SimulatorBuilder::new(storm.tree.clone(), storm.config);
    for task in &storm.tasks {
        unscheduled = unscheduled.task(task.clone()).expect("tasks of the tree");
    }
    let mut unscheduled = unscheduled.build();
    unscheduled.run_slotframes(100);
    assert_eq!(unscheduled.stats().deliveries.capacity(), 0);
    assert_eq!(unscheduled.stats().delivered(), 0);

    // Five packets a slotframe over one uplink cell per hop: 10 slotframes
    // release 50 packets, and the last hop's 10 cells bound the records.
    let config = SlotframeConfig::new(10, 2, 10_000).expect("a valid slotframe");
    let mut schedule = NetworkSchedule::new(config);
    schedule
        .assign(Cell::new(0, 0), Link::up(NodeId(2)))
        .unwrap();
    schedule
        .assign(Cell::new(1, 0), Link::up(NodeId(1)))
        .unwrap();
    let mut overloaded = SimulatorBuilder::new(Tree::from_parents(&[(1, 0), (2, 1)]), config)
        .schedule(schedule)
        .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(5)))
        .expect("a task of the tree")
        .build();
    overloaded.run_slotframes(10);
    let stats = overloaded.stats();
    assert_eq!(stats.generated, 50);
    assert_eq!(stats.deliveries.capacity(), 10, "the carriers bound");
    assert_eq!(stats.delivered(), 10);

    // Stepped a slotframe at a time, the run records what it records in
    // one call; the records then grow a slotframe's bound at a time.
    let (_, whole) = replicate(storm, storm.tasks.len());
    let mut stepped = SimulatorBuilder::new(storm.tree.clone(), storm.config)
        .schedule(storm.schedule.clone())
        .seed(1)
        .fault_plan(storm.faults.clone());
    for task in &storm.tasks {
        stepped = stepped.task(task.clone()).expect("tasks of the tree");
    }
    let mut stepped = stepped.build();
    for _ in 0..storm.frames {
        stepped.run_slotframes(1);
    }
    let counts = |sim: &Simulator| {
        let s = sim.stats();
        [
            s.generated,
            s.delivered(),
            s.tx_attempts,
            s.collisions,
            s.losses,
            s.queue_drops,
            s.slots_simulated,
            sim.faults_fired(),
            s.max_queue_high_water() as u64,
        ]
    };
    assert_eq!(stepped.stats().deliveries, whole.stats().deliveries);
    assert_eq!(counts(&stepped), counts(&whole));
}

/// Registration plus `build()` costs the same at any task count: routes
/// are one table, not one object per task (26 with 16 tasks against 29
/// with 128; 29 against 32 with the per-link-id PDR, mask and attempt
/// vectors; 136 against 699 while each task built its own).
#[test]
fn registration_and_build_are_flat_in_the_task_count() {
    let input = scale_input(500);
    let all = input.tasks.len();
    assert_eq!(all, 128);
    let setup = |tasks| {
        let (bill, _) = replicate(&input, tasks);
        bill.registration + bill.build
    };
    let (few, many) = (setup(16), setup(all));
    println!(
        "scale 500: registration + build() allocates {few} times with 16 tasks, {many} with {all}"
    );
    assert!(
        few.abs_diff(many) <= 4,
        "registration + build(): {few} allocations with 16 tasks, {many} with {all}"
    );
}

/// A replicate's schedule clone and `build()` allocate the same at every
/// tree size: the schedule's stacked cells are one table, and `build()`
/// sizes each of its tables before filling it, from the schedule, the
/// routes and the node count (6 and 22 at every size; `build()` was 25
/// while it kept a PDR, a fault mask and an attempt count per link id).
/// The scale schedule's clone allocated 31, 127, 171 and 226 times at
/// these sizes while it kept a vector per stacked cell.
#[test]
fn a_replicate_allocates_the_same_at_every_size() {
    const SIZES: [u32; 4] = [100, 500, 2_000, 10_000];
    let bills = SIZES.map(|nodes| {
        let input = scale_input(nodes);
        replicate(&input, input.tasks.len()).0
    });
    let line = |phase: fn(&Bill) -> u64| bills.map(|b| phase(&b).to_string()).join("/");
    println!(
        "allocations of a replicate at {} nodes: schedule.clone() {}, build() {}",
        SIZES.map(|n| n.to_string()).join("/"),
        line(|b| b.schedule_clone),
        line(|b| b.build)
    );
    for (nodes, bill) in SIZES.iter().zip(&bills) {
        assert_eq!(
            (bill.schedule_clone, bill.build),
            (bills[0].schedule_clone, bills[0].build),
            "scale {nodes}: schedule.clone() and build() against scale {}",
            SIZES[0]
        );
    }
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
