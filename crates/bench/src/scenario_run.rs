//! Scenario execution: the runner behind `harp_sim`, the one binary that
//! replays a scenario file.
//!
//! [`run_scenario`] dispatches on the scenario's report mode:
//!
//! * `timeline` — control and data plane in lockstep with rate steps
//!   applied at their frames (the Fig. 10 shape);
//! * `pdr_sweep` — static phase + one adjustment per control-channel PDR
//!   over the topology batch (the management-loss shape);
//! * `adjustments` — one measured partition adjustment per `demand_step`
//!   (the Table II shape);
//! * `replicates` — independently seeded data-plane runs under the
//!   scenario's fault plan, one row each;
//! * `churn` — sequential `reparent` events on a converged control plane,
//!   one row each.
//!
//! Determinism: every random draw derives from the scenario seed (or the
//! `--seed` override) — replicate seeds come from a [`SplitMix64`] stream,
//! sweeps fan out through [`par_map_with_threads`], which is byte-identical
//! across thread counts, and reports render through the same JSON writers
//! as the bespoke binaries use. A scenario that names a `[report] file`
//! therefore reproduces its committed `BENCH_*` byte for byte, and any scenario+seed
//! pair replays identically across runs, `--threads` settings and
//! `HARP_BENCH_THREADS` values (the thread count is printed, not
//! reported). Every data-plane run also re-pins the engine's
//! `idle_wakeups == 0` invariant, fault windows included.

use crate::harness::{print_bench_threads, rows_json, to_json_with_sections, write_report};
use crate::{follow_schedule, run_lockstep};
use harp_core::{AllocatorHandle, HarpNetwork, ProtocolReport, SchedulingPolicy};
use harp_obs::flame::{detect_storms, TraceSpan};
use harp_obs::{
    merged_trace_json, spans_to_json, FlightEvent, FlightRecorder, MetricsSnapshot, SpanEvent,
    NO_FLIGHT_NODE,
};
use std::fmt::Write as _;
use std::path::Path;
use tsch_sim::{
    bench_threads, mean, par_map_with_threads, Asn, Direction, Link, Lossy, NodeId, Rate,
    SimulatorBuilder, SlotframeConfig, SplitMix64, Tree,
};
use workloads::scenario_dsl::{parse_scenario, DemandModel, ReportMode, Scenario};

/// Runner knobs that come from the command line, not the scenario file.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Shrink sweeps to their `quick_count` (the CI smoke setting).
    pub quick: bool,
    /// Overrides the scenario's seed.
    pub seed: Option<u64>,
    /// Worker threads for parallel sweeps (default: [`bench_threads`]).
    /// Results are byte-identical for any value.
    pub threads: Option<usize>,
}

/// What a scenario run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Human-readable run log (the tables `harp_sim` prints).
    pub stdout: String,
    /// The rendered report document.
    pub json: String,
    /// Report file name from the `[report]` section, if any.
    pub file: Option<String>,
    /// Flight-recorder dump of the run (ASN timebase): fault-plan
    /// firings, mode-specific events and detected adjustment storms.
    /// `None` for modes without an event timeline (sweeps, churn).
    /// A pure function of scenario + seed: byte-identical across runs
    /// and `--threads` values.
    pub flight: Option<String>,
}

impl RunOutput {
    /// Prints the run log and writes the report file when the scenario
    /// names one. A `quick` run shrinks the sweep, so its report is another
    /// population's: it is never written over the committed one.
    pub fn emit(&self, opts: &RunOptions) {
        print!("{}", self.stdout);
        println!("{}", crate::obs_footer());
        print_bench_threads(opts.threads.unwrap_or_else(bench_threads));
        match &self.file {
            Some(file) if opts.quick => println!("quick run: {file} not written"),
            Some(file) => write_report(file, &self.json),
            None => {}
        }
    }
}

/// Reads and parses a scenario file, prefixing diagnostics with the path.
///
/// # Errors
///
/// The I/O or parse failure as `"<path>: line L, column C: ..."`.
pub fn load_scenario_file(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_scenario(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Executes a scenario and renders its report.
///
/// # Errors
///
/// A message when the scenario does not fit its report mode (e.g. a
/// `timeline` without echo demand) or references nodes/links/tasks the
/// topology does not have.
///
/// # Panics
///
/// Panics when the control plane rejects the scenario mid-run (infeasible
/// adjustment) — scenarios, like the binaries before them, are expected to
/// be feasible.
pub fn run_scenario(scenario: &Scenario, opts: &RunOptions) -> Result<RunOutput, String> {
    let seed = opts.seed.unwrap_or(scenario.seed);
    let threads = opts.threads.unwrap_or_else(bench_threads);
    let json_file = scenario.report.file.clone();
    let (stdout, json, flight) = match scenario.report.mode {
        ReportMode::Timeline { node } => run_timeline(scenario, node, seed, opts)?,
        ReportMode::PdrSweep => {
            let (out, json) = run_pdr_sweep(scenario, seed, opts, threads)?;
            (out, json, None)
        }
        ReportMode::Adjustments => {
            let (out, json) = run_adjustments(scenario, opts, threads)?;
            (out, json, None)
        }
        ReportMode::Replicates { repeats } => {
            run_replicates(scenario, repeats, seed, opts, threads)?
        }
        ReportMode::Churn => {
            let (out, json) = run_churn(scenario, opts)?;
            (out, json, None)
        }
    };
    Ok(RunOutput {
        stdout,
        json,
        file: json_file,
        flight,
    })
}

/// Renders the flight dump of a scenario run: the fault plan's firings,
/// mode-specific `extra` events and adjustment storms detected over
/// `spans`, merged onto one ASN timeline. Nothing here touches a clock or
/// an RNG, so the dump is byte-identical across runs and thread counts.
fn scenario_flight(
    scenario: &Scenario,
    plan: &tsch_sim::FaultPlan,
    spans: &[TraceSpan],
    extra: Vec<FlightEvent>,
) -> String {
    let mut events: Vec<FlightEvent> = plan
        .events()
        .iter()
        .map(|&(at, action)| FlightEvent {
            seq: 0,
            at: at.0,
            kind: action.kind(),
            tenant: scenario.name.clone(),
            corr: 0,
            node: action.node().map_or(NO_FLIGHT_NODE, |n| i64::from(n.0)),
            detail: String::new(),
            magnitude: 0,
        })
        .collect();
    events.extend(extra);
    for storm in detect_storms(spans, 3) {
        events.push(FlightEvent {
            seq: 0,
            at: storm.start_asn,
            kind: "storm",
            tenant: scenario.name.clone(),
            corr: 0,
            node: NO_FLIGHT_NODE,
            detail: format!("nodes={} bill={}", storm.nodes.len(), storm.bill),
            magnitude: storm.span_count as i64,
        });
    }
    // Stable by ASN: events sharing a slot keep plan/extra/storm order.
    events.sort_by_key(|e| e.at);
    let count = events.len().max(1);
    let mut recorder = FlightRecorder::new(count);
    for event in events {
        recorder.record(event);
    }
    recorder.to_json(count)
}

fn single_tree(scenario: &Scenario, opts: &RunOptions) -> Tree {
    scenario
        .trees(opts.quick)
        .into_iter()
        .next()
        .expect("every topology spec yields at least one tree")
}

/// `timeline node=N`: lockstep control/data planes, rate steps applied at
/// their frames, per-slotframe latency rows of the observed node.
fn run_timeline(
    scenario: &Scenario,
    node: u32,
    seed: u64,
    opts: &RunOptions,
) -> Result<(String, String, Option<String>), String> {
    let tree = single_tree(scenario, opts);
    let config = scenario.slotframe_config()?;
    let observed = NodeId(node);
    if observed.index() >= tree.len() || observed == tree.root() {
        return Err(format!(
            "timeline observes node {node}, which is not a non-root tree node"
        ));
    }
    let DemandModel::Echo(base_rate) = scenario.workload.demand else {
        return Err("`mode timeline` needs `demand echo` (rate steps change echo tasks)".into());
    };

    // Static phase, with the declared headroom padded onto the node's path
    // and then released (partitions keep their size, schedules shrink).
    let base = scenario.requirements(&tree);
    let mut padded = base.clone();
    if let Some(h) = scenario.workload.headroom {
        for hop in tree.path_to_root(NodeId(h.node)).windows(2) {
            for link in [Link::up(hop[0]), Link::down(hop[0])] {
                padded.set(link, padded.get(link) + h.cells);
            }
        }
    }
    let mut net = HarpNetwork::new(
        tree.clone(),
        config,
        &padded,
        SchedulingPolicy::RateMonotonic,
    );
    net.enable_observability(2048);
    net.run_static().map_err(|e| format!("static phase: {e}"))?;
    for (link, cells) in base.iter() {
        if padded.get(link) != cells {
            net.request_change(net.now(), link, cells)
                .expect("local decrease");
        }
    }
    net.run_until_quiescent().expect("decreases settle");
    assert!(net.schedule().is_exclusive());

    // Data plane, with the scenario's fault plan compiled in.
    let net_offset = net.now().0;
    let fault_plan = scenario.data_fault_plan(&tree)?;
    let mut builder = SimulatorBuilder::new(tree.clone(), config)
        .schedule(net.schedule().clone())
        .seed(seed)
        .observability(256)
        .fault_plan(fault_plan.clone());
    for task in scenario.tasks(&tree) {
        builder = builder.task(task).expect("valid task");
    }
    let mut sim = builder.build();

    let mut steps = scenario.workload.rate_steps.clone();
    steps.sort_by_key(|s| s.at_frame); // stable: file order within a frame
    let mut frame = 0u64;
    for step in &steps {
        if step.at_frame > scenario.frames {
            return Err(format!(
                "rate_step at frame {} is past the run",
                step.at_frame
            ));
        }
        run_lockstep(
            &mut sim,
            &mut net,
            net_offset,
            (step.at_frame - frame) * u64::from(config.slots),
        );
        frame = step.at_frame;
        let stepped = NodeId(step.node);
        let task = workloads::task_id_of(&tree, stepped)
            .ok_or_else(|| format!("rate_step names node {}, which has no task", step.node))?;
        sim.set_task_rate(task, step.rate).expect("task exists");
        apply_demand_change(&tree, &mut net, &mut sim, stepped, base_rate, step.rate);
    }
    run_lockstep(
        &mut sim,
        &mut net,
        net_offset,
        (scenario.frames - frame) * u64::from(config.slots),
    );
    assert_eq!(sim.idle_wakeups(), 0, "the slot calendar never idles");

    // Report: average latency of the observed node per slotframe.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} — e2e latency of node {} over time",
        scenario.name, observed.0
    );
    for step in &steps {
        let _ = writeln!(
            out,
            "# rate step at slotframe {}: node {} -> {}",
            step.at_frame, step.node, step.rate
        );
    }
    let _ = writeln!(out, "{:>10} {:>12}", "slotframe", "latency(s)");
    let slot_s = f64::from(config.slot_duration_us) / 1e6;
    let timeline = sim.stats().latency_timeline(observed, config.slots);
    for &(frame, mean_slots) in &timeline {
        let _ = writeln!(out, "{frame:>10} {:>12.3}", mean_slots * slot_s);
    }
    let _ = writeln!(
        out,
        "# schedule exclusive throughout: {}",
        sim.schedule().is_exclusive()
    );

    let rows: Vec<(String, Vec<(&'static str, f64)>)> = timeline
        .iter()
        .map(|&(frame, mean_slots)| {
            (
                format!("sf{frame:03}"),
                vec![("mean_latency_slots", mean_slots)],
            )
        })
        .collect();
    let stats = sim.stats();
    let metrics: Vec<(&str, f64)> = vec![
        ("generated", stats.generated as f64),
        ("delivered", stats.deliveries.len() as f64),
        ("collisions", stats.collisions as f64),
        ("losses", stats.losses as f64),
    ];
    let mut snap = net.metrics_snapshot();
    crate::add_library_counters(&mut snap);
    let trace = merged_trace_json(&[&net.obs().spans, &sim.obs().spans], 96);
    let json = to_json_with_sections(
        &metrics,
        &[
            ("rows", rows_json(&rows)),
            ("obs", snap.to_json()),
            ("trace_sample", trace),
        ],
    );

    // Flight dump: fault firings, rate steps and adjustment storms on the
    // run's ASN timeline.
    let rate_events: Vec<FlightEvent> = steps
        .iter()
        .map(|step| FlightEvent {
            seq: 0,
            at: step.at_frame * u64::from(config.slots),
            kind: "rate_step",
            tenant: scenario.name.clone(),
            corr: 0,
            node: i64::from(step.node),
            detail: format!("{}", step.rate),
            magnitude: 0,
        })
        .collect();
    let storm_spans: Vec<TraceSpan> = net
        .obs()
        .spans
        .iter()
        .chain(sim.obs().spans.iter())
        .map(TraceSpan::from_event)
        .collect();
    let flight = scenario_flight(scenario, &fault_plan, &storm_spans, rate_events);
    Ok((out, json, Some(flight)))
}

/// Recomputes the demand of every link on the stepped node's path for the
/// new rate and injects the changes into the control plane (echo traffic:
/// downlinks mirror uplinks).
fn apply_demand_change(
    tree: &Tree,
    net: &mut HarpNetwork,
    sim: &mut tsch_sim::Simulator,
    stepped: NodeId,
    base_rate: Rate,
    new_rate: Rate,
) {
    let now = Asn(net.now().0.max(sim.now().0));
    let ups = workloads::uplink_demand_after_change(tree, stepped, base_rate, new_rate);
    let mut changes: Vec<(Link, u32)> = ups.clone();
    changes.extend(ups.iter().map(|&(l, c)| {
        (
            Link {
                child: l.child,
                direction: Direction::Down,
            },
            c,
        )
    }));
    for (link, cells) in changes {
        net.request_change(now, link, cells)
            .expect("feasible change");
        follow_schedule(sim, net);
    }
}

struct SweepSample {
    static_report: ProtocolReport,
    adjust_report: ProtocolReport,
}

/// One full control-plane run — static phase plus the scenario's first
/// `demand_step` as an adjustment — over a channel with the given PDR.
fn sweep_one(
    scenario: &Scenario,
    tree: &Tree,
    config: SlotframeConfig,
    pdr: f64,
    seed: u64,
) -> SweepSample {
    let reqs = scenario.requirements(tree);
    let mut net = if pdr >= 1.0 {
        HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic)
    } else {
        HarpNetwork::with_transport(
            tree.clone(),
            config,
            &reqs,
            SchedulingPolicy::RateMonotonic,
            Box::new(Lossy::uniform(pdr, seed).expect("valid pdr")),
        )
    };
    let static_report = net.run_static().expect("static phase converges");
    let step = scenario.workload.demand_steps[0];
    let link = step.link.resolve(tree).expect("validated before the sweep");
    let adjust_report = net
        .adjust_and_settle(net.now(), link, reqs.get(link) + step.delta)
        .expect("adjustment resolves");
    SweepSample {
        static_report,
        adjust_report,
    }
}

/// `pdr_sweep`: the management-loss experiment — per control-channel PDR,
/// averaged static-phase and adjustment overheads over the topology batch.
fn run_pdr_sweep(
    scenario: &Scenario,
    seed: u64,
    opts: &RunOptions,
    threads: usize,
) -> Result<(String, String), String> {
    let trees = scenario.trees(opts.quick);
    let topologies = trees.len();
    let config = scenario.slotframe_config()?;
    let pdrs = &scenario.scheduler.control_pdrs;
    // Resolve the adjustment once per tree up front so a bad selector is a
    // diagnostic, not a worker panic.
    for tree in &trees {
        scenario.demand_step_events(tree)?;
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} — static phase + one adjustment per control PDR",
        scenario.name
    );
    let _ = writeln!(out, "# {topologies} topologies per PDR");
    let _ = writeln!(
        out,
        "{:>6} {:>9} {:>9} {:>7} {:>7} {:>8} {:>9} {:>9}",
        "pdr", "st_frames", "st_msgs", "retx", "drops", "acks", "adj_msgs", "adj_frames"
    );

    // Each (pdr, topology) cell is independent; sweep them in parallel.
    let jobs: Vec<(usize, usize)> = (0..pdrs.len())
        .flat_map(|p| (0..trees.len()).map(move |t| (p, t)))
        .collect();
    let samples = par_map_with_threads(&jobs, threads, |_, &(p, t)| {
        let job_seed = seed + ((p as u64) << 8) + t as u64;
        sweep_one(scenario, &trees[t], config, pdrs[p], job_seed)
    });

    // Ideal-channel columns must never retransmit or drop.
    for (sample, &(p, _)) in samples.iter().zip(&jobs) {
        if pdrs[p] >= 1.0 {
            assert_eq!(
                sample.static_report.retransmissions, 0,
                "ideal channel must need no retransmissions"
            );
            assert_eq!(sample.static_report.dropped, 0);
        }
    }
    // The report's `obs` and `trace_sample` come from one instrumented
    // static phase on the ideal channel.
    let ideal = AllocatorHandle::converge_observed(
        trees[0].clone(),
        config,
        &scenario.requirements(&trees[0]),
        SchedulingPolicy::RateMonotonic,
        1024,
    )
    .expect("static phase converges");
    let mut obs_snapshot = ideal.metrics_snapshot();
    crate::add_library_counters(&mut obs_snapshot);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"topologies\": {topologies},");
    json.push_str("  \"rows\": [\n");
    for (p, &pdr) in pdrs.iter().enumerate() {
        let rows: Vec<&SweepSample> = samples
            .iter()
            .zip(&jobs)
            .filter(|(_, &(jp, _))| jp == p)
            .map(|(s, _)| s)
            .collect();
        let col =
            |f: &dyn Fn(&SweepSample) -> f64| mean(&rows.iter().map(|s| f(s)).collect::<Vec<_>>());
        let st_frames = col(&|s| s.static_report.slotframes(config) as f64);
        let st_msgs =
            col(&|s| (s.static_report.mgmt_messages + s.static_report.cell_messages) as f64);
        let retx = col(&|s| s.static_report.retransmissions as f64);
        let drops = col(&|s| s.static_report.dropped as f64);
        let acks = col(&|s| s.static_report.acks as f64);
        let adj_msgs =
            col(&|s| (s.adjust_report.mgmt_messages + s.adjust_report.cell_messages) as f64);
        let adj_frames = col(&|s| s.adjust_report.slotframes(config) as f64);
        let _ = writeln!(
            out,
            "{pdr:>6.2} {st_frames:>9.2} {st_msgs:>9.2} {retx:>7.2} {drops:>7.2} {acks:>8.2} {adj_msgs:>9.2} {adj_frames:>10.2}"
        );
        let sep = if p + 1 < pdrs.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"pdr\": {pdr}, \"static_slotframes\": {st_frames:.3}, \
             \"static_messages\": {st_msgs:.3}, \"retransmissions\": {retx:.3}, \
             \"dropped\": {drops:.3}, \"acks\": {acks:.3}, \
             \"adjust_messages\": {adj_msgs:.3}, \"adjust_slotframes\": {adj_frames:.3}}}{sep}"
        );
    }
    json.push_str("  ],\n  \"obs\": ");
    json.push_str(&obs_snapshot.to_json());
    json.push_str(",\n  \"trace_sample\": ");
    json.push_str(&ideal.network().obs().spans.to_json(32));
    json.push_str("\n}\n");
    Ok((out, json))
}

/// `adjustments`: one measured partition adjustment per `demand_step` on a
/// freshly converged network (the Table II shape).
fn run_adjustments(
    scenario: &Scenario,
    opts: &RunOptions,
    threads: usize,
) -> Result<(String, String), String> {
    let tree = single_tree(scenario, opts);
    let config = scenario.slotframe_config()?;
    let reqs = scenario.requirements(&tree);
    let events = scenario.demand_step_events(&tree)?;

    let mut out = String::new();
    let _ = writeln!(out, "# {} — partition adjustment overhead", scenario.name);
    let _ = writeln!(
        out,
        "{:<30} {:>6} {:>7} {:>5} {:>8} {:>4}",
        "Event", "Nodes", "Layers", "Msg.", "Time(s)", "SF"
    );
    // Each event replays the static phase from scratch, so the rows are
    // independent: measure them in parallel, print in event order.
    let results = par_map_with_threads(&events, threads, |_, ev| {
        let old = reqs.get(ev.link);
        let new_cells = old + ev.delta;
        let parent = tree.parent(ev.link.child).expect("non-root");
        let label = format!(
            "C_{{{},{}}}: r(up N{}) {}->{}",
            parent.0,
            tree.layer_of_link(ev.link),
            ev.link.child.0,
            old,
            new_cells
        );
        let measured = AllocatorHandle::converge_observed(
            tree.clone(),
            config,
            &reqs,
            SchedulingPolicy::RateMonotonic,
            1024,
        )
        .ok()
        .and_then(|mut handle| {
            let bill = handle.adjust(ev.link, new_cells).ok()?;
            Some((bill, handle))
        });
        match measured {
            Some((bill, handle)) => {
                let text = format!(
                    "{:<30} {:>6} {:>7} {:>5} {:>8.2} {:>4}",
                    label,
                    bill.involved_nodes,
                    bill.layers_touched,
                    bill.mgmt_messages,
                    bill.seconds,
                    bill.slotframes
                );
                let row = (
                    format!(
                        "C{}_L{}_N{}",
                        parent.0,
                        tree.layer_of_link(ev.link),
                        ev.link.child.0
                    ),
                    vec![
                        ("involved_nodes", bill.involved_nodes as f64),
                        ("layers_touched", bill.layers_touched as f64),
                        ("mgmt_messages", bill.mgmt_messages as f64),
                        ("seconds", bill.seconds),
                        ("slotframes", bill.slotframes as f64),
                    ],
                );
                // Keep the adjustment spans only: the identical static
                // phases would otherwise drown the interesting part.
                let spans: Vec<SpanEvent> = handle
                    .network()
                    .obs()
                    .spans
                    .iter()
                    .filter(|s| s.name == "adjust")
                    .copied()
                    .collect();
                (text, Some(row), spans)
            }
            None => (format!("{label:<30} infeasible"), None, Vec::new()),
        }
    });
    let mut rows = Vec::new();
    let mut spans: Vec<SpanEvent> = Vec::new();
    for (text, row, event_spans) in results {
        let _ = writeln!(out, "{text}");
        rows.extend(row);
        spans.extend(event_spans);
    }

    let mut snap = MetricsSnapshot::default();
    crate::add_library_counters(&mut snap);
    let total = spans.len() as u64;
    let json = to_json_with_sections(
        &[],
        &[
            ("rows", rows_json(&rows)),
            ("obs", snap.to_json()),
            ("trace_sample", spans_to_json(spans.iter(), total)),
        ],
    );
    Ok((out, json))
}

/// `replicates repeats=R`: independently seeded data-plane runs under the
/// scenario's fault plan, one row per replicate. The schedule comes from
/// one static phase; each replicate re-runs the data plane with a seed
/// drawn from the scenario seed's [`SplitMix64`] stream.
fn run_replicates(
    scenario: &Scenario,
    repeats: u32,
    seed: u64,
    opts: &RunOptions,
    threads: usize,
) -> Result<(String, String, Option<String>), String> {
    let tree = single_tree(scenario, opts);
    let config = scenario.slotframe_config()?;
    let reqs = scenario.requirements(&tree);
    let plan = scenario.data_fault_plan(&tree)?;
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.run_static().map_err(|e| format!("static phase: {e}"))?;
    let schedule = net.schedule().clone();

    let mut rng = SplitMix64::new(seed);
    let rep_seeds: Vec<u64> = (0..repeats).map(|_| rng.next_u64()).collect();
    let rows = par_map_with_threads(&rep_seeds, threads, |i, &rep_seed| {
        let mut builder = SimulatorBuilder::new(tree.clone(), config)
            .schedule(schedule.clone())
            .seed(rep_seed)
            .fault_plan(plan.clone());
        for task in scenario.tasks(&tree) {
            builder = builder.task(task).expect("valid task");
        }
        let mut sim = builder.build();
        sim.run_slotframes(scenario.frames);
        assert_eq!(
            sim.idle_wakeups(),
            0,
            "fault windows never break the calendar"
        );
        let stats = sim.stats();
        (
            format!("rep{i:02}"),
            vec![
                ("generated", stats.generated as f64),
                ("delivered", stats.delivered() as f64),
                ("losses", stats.losses as f64),
                ("collisions", stats.collisions as f64),
                ("queue_drops", stats.queue_drops as f64),
                ("faults_fired", sim.faults_fired() as f64),
                ("queued", sim.queued_packets() as f64),
            ],
        )
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} — {repeats} fault-plan replicates over {} frames",
        scenario.name, scenario.frames
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>8} {:>8} {:>7}",
        "rep", "generated", "delivered", "losses", "qdrops", "faults"
    );
    for (name, fields) in &rows {
        let v = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0.0, |(_, v)| *v)
        };
        let _ = writeln!(
            out,
            "{name:>6} {:>10} {:>10} {:>8} {:>8} {:>7}",
            v("generated"),
            v("delivered"),
            v("losses"),
            v("queue_drops"),
            v("faults_fired")
        );
    }

    let mut snap = MetricsSnapshot::default();
    crate::add_library_counters(&mut snap);
    let metrics: Vec<(&str, f64)> = vec![
        ("replicates", f64::from(repeats)),
        ("frames", scenario.frames as f64),
        ("fault_events", plan.len() as f64),
    ];
    let json = to_json_with_sections(
        &metrics,
        &[("rows", rows_json(&rows)), ("obs", snap.to_json())],
    );

    // Flight dump: the shared fault plan plus one end-of-run event per
    // replicate. `par_map_with_threads` returns rows in input order, so
    // the dump is identical for every `--threads` value.
    let end_asn = scenario.frames * u64::from(config.slots);
    let replicate_events: Vec<FlightEvent> = rows
        .iter()
        .map(|(name, fields)| {
            let delivered = fields
                .iter()
                .find(|(k, _)| *k == "delivered")
                .map_or(0.0, |(_, v)| *v);
            FlightEvent {
                seq: 0,
                at: end_asn,
                kind: "replicate",
                tenant: scenario.name.clone(),
                corr: 0,
                node: NO_FLIGHT_NODE,
                detail: name.clone(),
                magnitude: delivered as i64,
            }
        })
        .collect();
    let flight = scenario_flight(scenario, &plan, &[], replicate_events);
    Ok((out, json, Some(flight)))
}

/// `churn`: sequential mobile-node churn on a converged control plane —
/// each `reparent` fault re-attaches a leaf and reports the protocol cost.
/// A move the network refuses — the node is no longer a leaf, or the new
/// path cannot hold it — changes nothing and is reported as a row with
/// `rejected` 1 (and no cost); the run goes on.
fn run_churn(scenario: &Scenario, opts: &RunOptions) -> Result<(String, String), String> {
    let tree = single_tree(scenario, opts);
    let config = scenario.slotframe_config()?;
    let reqs = scenario.requirements(&tree);
    let events = scenario.reparent_events();
    if events.is_empty() {
        return Err("`mode churn` needs at least one `reparent` fault".into());
    }
    for &(_, node, to) in &events {
        if NodeId(node).index() >= tree.len() || NodeId(to).index() >= tree.len() {
            return Err(format!(
                "reparent names node {node} or {to} outside the tree"
            ));
        }
    }
    let mut net = HarpNetwork::new(tree.clone(), config, &reqs, SchedulingPolicy::RateMonotonic);
    net.enable_observability(1024);
    net.run_static().map_err(|e| format!("static phase: {e}"))?;

    let mut out = String::new();
    let _ = writeln!(out, "# {} — sequential reparent churn", scenario.name);
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>7} {:>5} {:>4}",
        "Event", "Nodes", "Layers", "Msg.", "SF"
    );
    let mut rows = Vec::new();
    for (i, &(at_frame, node, to)) in events.iter().enumerate() {
        let at = Asn(net.now().0.max(at_frame * u64::from(config.slots)));
        let label = format!("ev{i}_N{node}_to{to}");
        let (report, rejected) = match net.reparent_leaf(at, NodeId(node), NodeId(to)) {
            Ok(report) => {
                let _ = writeln!(
                    out,
                    "{label:<16} {:>6} {:>7} {:>5} {:>4}",
                    report.involved_nodes.len(),
                    report.layers.len(),
                    report.mgmt_messages + report.cell_messages,
                    report.slotframes(config)
                );
                (report, false)
            }
            Err(e) => {
                let _ = writeln!(out, "{label:<16} rejected: {e}");
                (ProtocolReport::default(), true)
            }
        };
        rows.push((
            label,
            vec![
                ("involved_nodes", report.involved_nodes.len() as f64),
                ("layers_touched", report.layers.len() as f64),
                ("mgmt_messages", report.mgmt_messages as f64),
                ("cell_messages", report.cell_messages as f64),
                ("slotframes", report.slotframes(config) as f64),
                ("rejected", f64::from(u8::from(rejected))),
            ],
        ));
    }

    let mut snap = net.metrics_snapshot();
    crate::add_library_counters(&mut snap);
    let metrics: Vec<(&str, f64)> = vec![("churn_events", events.len() as f64)];
    let trace = net.obs().spans.to_json(64);
    let json = to_json_with_sections(
        &metrics,
        &[
            ("rows", rows_json(&rows)),
            ("obs", snap.to_json()),
            ("trace_sample", trace),
        ],
    );
    Ok((out, json))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::TopologyConfig;

    #[test]
    fn lossy_sweep_converges_on_one_topology() {
        let scenario = parse_scenario(
            "scenario s\n[workloads]\ndemand uniform cells=1\ndemand_step link=deepest delta=1\n\
             [report]\nmode pdr_sweep\n",
        )
        .unwrap();
        let tree = TopologyConfig::paper_50_node().generate(3);
        let sample = sweep_one(&scenario, &tree, SlotframeConfig::paper_default(), 0.9, 42);
        assert!(sample.static_report.mgmt_messages > 0);
        assert!(sample.adjust_report.elapsed_slots() > 0);
    }

    #[test]
    fn churn_reports_a_rejected_reparent_and_goes_on() {
        // Eight slots hold the static phase exactly (two layer-1 cells,
        // one each at layers 2 and 3, per direction); moving node 2 under
        // node 4 needs a fourth layer, which the slotframe cannot hold.
        let scenario = parse_scenario(
            "scenario s\n[topology]\nlink 1 0\nlink 2 0\nlink 3 1\nlink 4 3\n\
             [scheduler]\nslots 8\nchannels 1\n[workloads]\ndemand uniform cells=1\n\
             [faults]\nreparent node=2 to=4 at_frame=1\nreparent node=4 to=3 at_frame=2\n\
             [report]\nmode churn\n",
        )
        .unwrap();
        let run = run_scenario(&scenario, &RunOptions::default()).unwrap();
        assert!(
            run.stdout.contains("ev0_N2_to4       rejected: "),
            "{}",
            run.stdout
        );
        let rows: Vec<&str> = run.json.lines().filter(|l| l.contains("\"ev")).collect();
        assert_eq!(rows.len(), 2, "{}", run.json);
        assert!(rows[0].contains("\"rejected\": 1.000"), "{}", rows[0]);
        assert!(rows[0].contains("\"mgmt_messages\": 0.000"), "{}", rows[0]);
        assert!(rows[1].contains("\"rejected\": 0.000"), "{}", rows[1]);
        assert!(rows[1].contains("\"cell_messages\": 4.000"), "{}", rows[1]);
    }

    #[test]
    fn churn_rejects_a_move_of_a_node_an_earlier_move_made_a_parent() {
        // Node 3 starts as a leaf; once node 2 moves under it, it is not.
        let scenario = parse_scenario(
            "scenario s\n[topology]\nlink 1 0\nlink 2 0\nlink 3 1\n\
             [faults]\nreparent node=2 to=3 at_frame=1\nreparent node=3 to=0 at_frame=2\n\
             [report]\nmode churn\n",
        )
        .unwrap();
        let run = run_scenario(&scenario, &RunOptions::default()).unwrap();
        let rows: Vec<&str> = run.stdout.lines().filter(|l| l.starts_with("ev")).collect();
        assert_eq!(rows.len(), 2, "{}", run.stdout);
        assert!(!rows[0].contains("rejected"), "{}", rows[0]);
        assert_eq!(
            rows[1],
            "ev1_N3_to0       rejected: N3 has children; only a leaf can move"
        );
    }

    #[test]
    fn timeline_rejects_non_echo_demand() {
        let scenario = parse_scenario(
            "scenario s\n[workloads]\ndemand uniform cells=1\n[report]\nmode timeline node=5\n",
        )
        .unwrap();
        let err = run_scenario(&scenario, &RunOptions::default()).unwrap_err();
        assert!(err.contains("echo"), "got: {err}");
    }
}
