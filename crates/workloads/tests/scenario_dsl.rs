//! Scenario DSL: grammar round-trips, positioned diagnostics, and the
//! lowering of frame-denominated fault directives onto exact-ASN plans.

use tsch_sim::{Asn, FaultAction, Link, NodeId, Rate, TaskId};
use workloads::scenario_dsl::{
    parse_scenario, DemandModel, FaultSpec, LinkSel, ReportMode, TopologySpec,
};
use workloads::testbed_50_node_tree;

const FULL: &str = "\
# A kitchen-sink scenario exercising every directive.
scenario storm          # trailing comments are fine
seed 0xF10
frames 100

[topology]
generator testbed50

[scheduler]
slots 199
channels 16
control_pdr 1.0 0.95 0.9

[workloads]
demand echo rate=3/2
headroom node=15 cells=1
rate_step node=15 at_frame=30 rate=3
demand_step link=up:5 delta=2
demand_step link=deepest delta=1

[faults]
crash node=7 at_frame=10 restart_frame=20
gateway_failover at_frame=30 frames=5
pdr_window link=up:9 from_frame=12 frames=8 pdr=0.5
partition subtree=3 at_frame=40 frames=6
burst node=21 at_frame=8 packets=20
reparent node=45 to=2 at_frame=25

[report]
file BENCH_storm.json
mode replicates repeats=4
";

#[test]
fn full_grammar_round_trips() {
    let s = parse_scenario(FULL).unwrap();
    assert_eq!(s.name, "storm");
    assert_eq!(s.seed, 0xF10);
    assert_eq!(s.frames, 100);
    assert_eq!(s.topology, TopologySpec::Testbed50);
    assert_eq!(s.scheduler.slots, 199);
    assert_eq!(s.scheduler.channels, 16);
    assert_eq!(s.scheduler.control_pdrs, vec![1.0, 0.95, 0.9]);
    assert_eq!(
        s.workload.demand,
        DemandModel::Echo(Rate::new(3, 2).unwrap())
    );
    let h = s.workload.headroom.unwrap();
    assert_eq!((h.node, h.cells), (15, 1));
    assert_eq!(s.workload.rate_steps.len(), 1);
    assert_eq!(s.workload.rate_steps[0].rate, Rate::per_slotframe(3));
    assert_eq!(s.workload.demand_steps.len(), 2);
    assert_eq!(s.workload.demand_steps[1].link, LinkSel::Deepest);
    assert_eq!(s.faults.len(), 6);
    assert!(matches!(
        s.faults[0],
        FaultSpec::Crash {
            node: 7,
            at_frame: 10,
            restart_frame: Some(20)
        }
    ));
    assert_eq!(s.report.file.as_deref(), Some("BENCH_storm.json"));
    assert_eq!(s.report.mode, ReportMode::Replicates { repeats: 4 });
}

#[test]
fn defaults_fill_omitted_sections() {
    let s = parse_scenario("scenario tiny\n").unwrap();
    assert_eq!(s.seed, 0);
    assert_eq!(s.frames, 100);
    assert_eq!(s.topology, TopologySpec::Testbed50);
    assert_eq!(s.scheduler.slots, 199);
    assert_eq!(s.scheduler.control_pdrs, vec![1.0]);
    assert_eq!(s.workload.demand, DemandModel::Echo(Rate::per_slotframe(1)));
    assert_eq!(s.report.mode, ReportMode::Replicates { repeats: 1 });
    assert!(s.report.file.is_none());
}

#[test]
fn explicit_links_build_a_tree() {
    let s = parse_scenario("scenario chain\n[topology]\nlink 1 0\nlink 2 1\n").unwrap();
    assert_eq!(s.topology, TopologySpec::Explicit(vec![(1, 0), (2, 1)]));
    let trees = s.trees(false);
    assert_eq!(trees.len(), 1);
    assert_eq!(trees[0].len(), 3);
}

#[test]
fn random_generator_quick_count() {
    let s = parse_scenario(
        "scenario r\n[topology]\ngenerator random nodes=20 layers=4 count=5 quick_count=2 seed=9\n",
    )
    .unwrap();
    assert_eq!(s.trees(false).len(), 5);
    assert_eq!(s.trees(true).len(), 2);
}

fn err_of(text: &str) -> (usize, usize, String) {
    let e = parse_scenario(text).unwrap_err();
    (e.line, e.col, e.msg)
}

#[test]
fn diagnostics_carry_line_and_column() {
    // Unknown section, positioned at the header token.
    let (line, col, msg) = err_of("scenario x\n[bogus]\n");
    assert_eq!((line, col), (2, 1));
    assert!(msg.contains("unknown section"));

    // Bad value, positioned at the value's token.
    let (line, col, msg) = err_of("scenario x\n[faults]\ncrash node=7 at_frame=ten\n");
    assert_eq!(line, 3);
    assert_eq!(col, 14, "column points at `at_frame=ten`");
    assert!(msg.contains("invalid value"));

    // Display formats as line/column.
    let e = parse_scenario("nonsense\n").unwrap_err();
    assert_eq!(e.to_string(), format!("line 1, column 1: {}", e.msg));
}

#[test]
fn semantic_checks_reject_bad_directives() {
    for (text, needle) in [
        ("frames 0\nscenario x\n", "positive"),
        ("scenario x\n[topology]\n[topology]\n", "duplicate section"),
        ("scenario x\n[scheduler]\ncontrol_pdr 1.5\n", "[0, 1]"),
        (
            "scenario x\n[faults]\ncrash node=1 at_frame=5 restart_frame=5\n",
            "after `at_frame`",
        ),
        (
            "scenario x\n[faults]\nmeteor node=1\n",
            "unknown fault kind",
        ),
        (
            "scenario x\n[faults]\ncrash node=1 at_frame=5 color=red\n",
            "unknown argument",
        ),
        (
            "scenario x\n[report]\nmode replicates repeats=0\n",
            "positive",
        ),
        ("scenario x\n[report]\nmode adjustments\n", "demand_step"),
        ("scenario x\n[report]\nmode churn\n", "fault"),
        ("scenario x\n[report]\nfile /tmp/x.json\n", "relative path"),
        (
            "scenario x\n[report]\nfile a/../../x.json\n",
            "relative path",
        ),
        ("[topology]\n", "missing `scenario"),
    ] {
        let e = parse_scenario(text).unwrap_err();
        assert!(
            e.msg.contains(needle),
            "for {text:?}: expected {needle:?} in {:?}",
            e.msg
        );
    }
}

#[test]
fn fault_plan_lowers_frames_to_exact_asns() {
    let s = parse_scenario(FULL).unwrap();
    let tree = testbed_50_node_tree();
    let plan = s.data_fault_plan(&tree).unwrap();
    let slots = 199u64;
    let events = plan.events();
    // crash + restart, failover down + up, pdr degrade + restore,
    // partition 2 masks + 2 unmasks, burst = 11; reparent is excluded.
    assert_eq!(events.len(), 11);
    assert!(events.contains(&(Asn(10 * slots), FaultAction::NodeDown(NodeId(7)))));
    assert!(events.contains(&(Asn(20 * slots), FaultAction::NodeUp(NodeId(7)))));
    assert!(events.contains(&(Asn(30 * slots), FaultAction::NodeDown(NodeId(0)))));
    assert!(events.contains(&(Asn(35 * slots), FaultAction::NodeUp(NodeId(0)))));
    assert!(events.contains(&(
        Asn(12 * slots),
        FaultAction::LinkPdr(Link::up(NodeId(9)), 0.5)
    )));
    assert!(events.contains(&(
        Asn(20 * slots),
        FaultAction::LinkPdr(Link::up(NodeId(9)), 1.0)
    )));
    assert!(events.contains(&(
        Asn(40 * slots),
        FaultAction::LinkMask(Link::up(NodeId(3)), true)
    )));
    assert!(events.contains(&(
        Asn(46 * slots),
        FaultAction::LinkMask(Link::down(NodeId(3)), false)
    )));
    // Burst resolves the node's task id under the echo demand model.
    let task = workloads::task_id_of(&tree, NodeId(21)).unwrap();
    assert!(events.contains(&(Asn(8 * slots), FaultAction::TaskBurst(task, 20))));
    assert_eq!(s.reparent_events(), vec![(25, 45, 2)]);
}

#[test]
fn deepest_resolves_to_last_populated_layer() {
    let s = parse_scenario("scenario d\n[workloads]\ndemand uniform cells=1\n").unwrap();
    let tree = testbed_50_node_tree();
    let link = LinkSel::Deepest.resolve(&tree).unwrap();
    // Testbed layer 5 starts at node 45.
    assert_eq!(link, Link::up(NodeId(45)));
    assert!(matches!(s.workload.demand, DemandModel::Uniform(1)));
}

#[test]
fn compile_rejects_out_of_tree_references() {
    let tree = testbed_50_node_tree();
    for (faults, needle) in [
        ("crash node=99 at_frame=1", "outside the tree"),
        ("partition subtree=0 at_frame=1 frames=2", "gateway"),
        (
            "pdr_window link=up:88 from_frame=1 frames=2 pdr=0.5",
            "outside the tree",
        ),
        ("burst node=0 at_frame=1 packets=3", "no task"),
    ] {
        let text = format!("scenario bad\n[faults]\n{faults}\n");
        let s = parse_scenario(&text).unwrap();
        let e = s.data_fault_plan(&tree).unwrap_err();
        assert!(e.contains(needle), "for {faults:?}: got {e:?}");
    }
}

#[test]
fn scenario_tasks_match_demand_model() {
    let s = parse_scenario("scenario t\n[workloads]\ndemand echo rate=2\n").unwrap();
    let tree = testbed_50_node_tree();
    let tasks = s.tasks(&tree);
    assert_eq!(tasks.len(), 49);
    assert_eq!(tasks[0].rate, Rate::per_slotframe(2));
    assert!(s.requirements(&tree).total(tsch_sim::Direction::Up) > 0);
    assert_eq!(tasks[0].id, TaskId(0));
}
