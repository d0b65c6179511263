//! One replayed pass of the simulator workload: no daemon, only `tsch-sim`.
//!
//! Set-up parses the two checked-in fault scenarios, converges HARP on
//! their tree to obtain the schedule, and builds the scale scenario. An op
//! builds a [`tsch_sim::Simulator`] for one of the three inputs and runs one
//! replicate under the op's data-plane seed. Every simulated statistic is a
//! pure function of (input, seed), so the digest of all of them must be
//! identical in every pass and on every commit; only time may change.

use std::time::Instant;

use harp_core::{AllocatorHandle, Requirements, SchedulingPolicy};
use tsch_sim::{
    FaultPlan, NetworkSchedule, SimulatorBuilder, SlotframeConfig, StatsMode, Task, Tree,
};
use workloads::scenario_dsl::parse_scenario;

use crate::gen::{DataplanePlan, SimInput, SCALE_FRAMES, SCALE_NODES};
use crate::pass::{Fnv, Pass};
use crate::trace::{Recorder, NONE};

/// `scenarios/fault_storm.scn`, embedded so the binary reads no file.
pub const FAULT_STORM_SCN: &str = include_str!("../../scenarios/fault_storm.scn");
/// `scenarios/gateway_failover.scn`.
pub const GATEWAY_FAILOVER_SCN: &str = include_str!("../../scenarios/gateway_failover.scn");

/// Everything a replicate of one input needs.
#[derive(Debug, Clone)]
pub struct SimCase {
    /// The routing tree.
    pub tree: Tree,
    /// The link demand the schedule was built for (empty for the scale
    /// scenario, which carries a hand-coloured schedule).
    pub requirements: Requirements,
    /// Slotframe geometry.
    pub config: SlotframeConfig,
    /// The schedule every replicate runs.
    pub schedule: NetworkSchedule,
    /// Data-plane tasks.
    pub tasks: Vec<Task>,
    /// Fault events (empty for the scale scenario).
    pub faults: FaultPlan,
    /// Slotframes per replicate.
    pub frames: u64,
    /// Stats storage (the scale scenario streams, as `fig_scale` does).
    pub stats_mode: StatsMode,
    /// Management messages the static phase billed to produce the schedule.
    pub static_mgmt_msgs: u64,
    /// Control-plane retransmissions during that static phase.
    pub static_retransmissions: u64,
}

fn scenario_case(text: &str, rec: &mut Recorder) -> Result<SimCase, String> {
    let (scenario, _) = rec.time("workloads.scenario_dsl.parse_scenario", NONE, NONE, || {
        parse_scenario(text)
    });
    let scenario = scenario.map_err(|e| format!("embedded scenario does not parse: {e}"))?;
    let config = scenario.slotframe_config()?;
    let (mut trees, _) = rec.time("workloads.scenario_dsl.trees", NONE, NONE, || {
        scenario.trees(true)
    });
    let tree = trees.pop().ok_or("scenario yields no topology")?;
    let (requirements, _) = rec.time("workloads.scenario_dsl.requirements", NONE, NONE, || {
        scenario.requirements(&tree)
    });
    let faults = scenario.data_fault_plan(&tree)?;
    let (handle, _) = rec.time("harp-core.handle.converge", NONE, NONE, || {
        AllocatorHandle::converge(
            tree.clone(),
            config,
            &requirements,
            SchedulingPolicy::RateMonotonic,
        )
    });
    let handle = handle.map_err(|e| format!("static phase: {e}"))?;
    let case = SimCase {
        schedule: handle.network().schedule().clone(),
        tasks: scenario.tasks(&tree),
        static_mgmt_msgs: handle.static_report().mgmt_messages,
        static_retransmissions: handle.static_report().retransmissions,
        tree,
        requirements,
        config,
        faults,
        frames: scenario.frames,
        stats_mode: StatsMode::Full,
    };
    Ok(case)
}

/// Builds the three inputs, indexed by [`SimInput`] order.
///
/// # Errors
///
/// A message when an embedded scenario stops parsing or converging.
pub fn set_up(plan: &DataplanePlan, rec: &mut Recorder) -> Result<[SimCase; 3], String> {
    let storm = scenario_case(FAULT_STORM_SCN, rec)?;
    let failover = scenario_case(GATEWAY_FAILOVER_SCN, rec)?;
    let (scale, _) = rec.time("workloads.scale.scale_scenario", NONE, NONE, || {
        workloads::scale_scenario(SCALE_NODES, plan.scale_seed)
    });
    let scale = SimCase {
        tree: scale.tree,
        requirements: Requirements::new(),
        config: scale.config,
        schedule: scale.schedule,
        tasks: scale.tasks,
        faults: FaultPlan::default(),
        frames: SCALE_FRAMES,
        stats_mode: StatsMode::Streaming,
        static_mgmt_msgs: 0,
        static_retransmissions: 0,
    };
    Ok([storm, failover, scale])
}

fn case_of(cases: &[SimCase; 3], input: SimInput) -> &SimCase {
    match input {
        SimInput::FaultStorm => &cases[0],
        SimInput::GatewayFailover => &cases[1],
        SimInput::Scale => &cases[2],
    }
}

/// What one pass measured and simulated.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// The workload-independent part; `succeeded`/`offered` are packets
    /// delivered/generated.
    pub core: Pass,
    /// Per-op `SimulatorBuilder::build` time, ns.
    pub build_ns: Vec<u64>,
    /// Per-op `run_slotframes` time, ns.
    pub run_ns: Vec<u64>,
    /// Sum of delivery latencies, slots.
    pub latency_slots: u128,
    /// Transmission attempts lost to collisions.
    pub collisions: u64,
    /// Packets dropped at a full queue.
    pub queue_drops: u64,
    /// Slot-loop wake-ups that found nothing to do.
    pub idle_wakeups: u64,
    /// Fault events fired.
    pub faults_fired: u64,
    /// Slots simulated.
    pub slots: u64,
    /// Control-plane retransmissions behind the schedules the ops ran on.
    pub mgmt_retx: u64,
}

/// Runs one pass: set-up, then every op of `plan`.
///
/// # Errors
///
/// See [`set_up`].
pub fn run_pass(plan: &DataplanePlan, rec: &mut Recorder) -> Result<PassResult, String> {
    let n = plan.ops.len();
    let mut out = PassResult::default();
    out.core.op_ns.reserve(n);
    out.core.op_digest.reserve(n);
    out.build_ns.reserve(n);
    out.run_ns.reserve(n);
    let setup_start = Instant::now();
    let cases = set_up(plan, rec)?;
    out.core.setup_ns = setup_start.elapsed().as_nanos() as u64;

    out.core.alloc_before_ops = crate::alloc::read();
    let pass_start = Instant::now();
    for (index, &(input, seed)) in plan.ops.iter().enumerate() {
        let case = case_of(&cases, input);
        let op = index as u32;
        let op_start = Instant::now();
        let mut builder = SimulatorBuilder::new(case.tree.clone(), case.config)
            .schedule(case.schedule.clone())
            .seed(seed)
            .stats_mode(case.stats_mode)
            .fault_plan(case.faults.clone());
        for task in &case.tasks {
            builder = builder
                .task(task.clone())
                .map_err(|e| format!("op {index}: task rejected: {e:?}"))?;
        }
        let mut sim = builder.build();
        let built = Instant::now();
        sim.run_slotframes(case.frames);
        let op_end = Instant::now();

        let id = rec.span("dataplane.op", op, NONE, op_start, op_end);
        rec.span("tsch-sim.engine.build", op, id, op_start, built);
        rec.span("tsch-sim.engine.run_slotframes", op, id, built, op_end);
        out.core
            .op_ns
            .push(op_end.duration_since(op_start).as_nanos() as u64);
        out.build_ns
            .push(built.duration_since(op_start).as_nanos() as u64);
        out.run_ns
            .push(op_end.duration_since(built).as_nanos() as u64);

        let stats = sim.stats();
        let latency = stats.latency_histogram();
        let fields = [
            stats.generated,
            stats.delivered(),
            stats.tx_attempts,
            stats.collisions,
            stats.losses,
            stats.queue_drops,
            stats.slots_simulated,
            latency.sum as u64,
            sim.faults_fired(),
            sim.queued_packets() as u64,
            sim.idle_wakeups(),
        ];
        let mut digest = Fnv::default();
        for f in fields {
            digest.write(&f.to_le_bytes());
        }
        out.core.op_digest.push(digest.0);
        out.core.offered += stats.generated;
        out.core.succeeded += stats.delivered();
        out.latency_slots += latency.sum;
        out.collisions += stats.collisions;
        out.queue_drops += stats.queue_drops;
        out.idle_wakeups += sim.idle_wakeups();
        out.faults_fired += sim.faults_fired();
        out.slots += stats.slots_simulated;
        out.core.mgmt_msgs += case.static_mgmt_msgs;
        out.mgmt_retx += case.static_retransmissions;
        // Disjoint partitions cannot collide, and the event calendar must
        // never wake the slot loop for nothing — fault windows included.
        if stats.collisions != 0 || sim.idle_wakeups() != 0 {
            let (collisions, idle) = (stats.collisions, sim.idle_wakeups());
            out.core.fail(|| {
                format!("op {index} ({input:?}): {collisions} collisions, {idle} idle wake-ups")
            });
        }
    }
    out.core.wall_ns = pass_start.elapsed().as_nanos() as u64;
    out.core.alloc_after_ops = crate::alloc::read();
    Ok(out)
}
