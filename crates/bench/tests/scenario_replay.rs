//! Replay determinism: the same scenario file and seed must produce
//! byte-identical output — across repeated runs, across thread counts
//! (`HARP_BENCH_THREADS` for the binary, [`RunOptions::threads`] in
//! process), and with fault windows active mid-run. That is what lets CI gate the committed `BENCH_*.json` on
//! equality with a regenerated copy; the last test keeps anything a clock
//! or the machine decides out of those files.
//!
//! Two layers of coverage:
//!
//! * end to end through the `harp_sim` binary (fresh process each run, so
//!   stdout, the report file and the process-wide counter footer are all
//!   compared byte for byte);
//! * in-process through [`run_scenario`], where the `obs` section is
//!   masked out (library counters are process-cumulative by design, so a
//!   second run in the same process legitimately reports larger totals).

use harp_bench::scenario_run::{load_scenario_file, run_scenario, RunOptions};
use harp_obs::json::{parse, Json};
use std::path::PathBuf;
use std::process::Command;
use workloads::scenario_dsl::parse_scenario;

/// A fault-heavy replicates scenario: every window is inside the run, so
/// a replay that mishandles fault state cannot accidentally pass.
const FAULTY_REPLICATES: &str = "\
scenario replay_probe
seed 0xBEEF
frames 30

[topology]
generator testbed50

[workloads]
demand echo rate=1

[faults]
crash node=7 at_frame=5 restart_frame=12
pdr_window link=up:9 from_frame=6 frames=8 pdr=0.5
partition subtree=3 at_frame=20 frames=4
burst node=21 at_frame=4 packets=10

[report]
";

/// Drops the `obs` section from a rendered report, keeping metrics, rows
/// and the trace sample intact.
fn without_obs(json: &str) -> String {
    let Some(start) = json.find("\"obs\":") else {
        return json.to_owned();
    };
    let end = json[start..]
        .find("\"trace_sample\"")
        .map_or(json.len(), |i| start + i);
    format!("{}{}", &json[..start], &json[end..])
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../")
}

/// Runs the `harp_sim` binary on `scenario_path` under
/// `HARP_BENCH_THREADS=threads` (the one worker-count setting) and returns
/// its stdout plus the bytes of the report it wrote.
fn run_harp_sim(
    scenario_path: &std::path::Path,
    seed: u64,
    threads: usize,
    report: &str,
) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_harp_sim"))
        .arg("--scenario")
        .arg(scenario_path)
        .args(["--seed", &seed.to_string()])
        .env("CARGO_MANIFEST_DIR", env!("CARGO_MANIFEST_DIR"))
        .env("HARP_BENCH_THREADS", threads.to_string())
        .output()
        .expect("harp_sim spawns");
    assert!(
        out.status.success(),
        "harp_sim failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let json = std::fs::read_to_string(workspace_root().join(report)).expect("report written");
    (stdout, json)
}

#[test]
fn harp_sim_replays_byte_identically_across_runs_and_threads() {
    let dir = std::env::temp_dir().join("harp_scenario_replay_test");
    std::fs::create_dir_all(&dir).unwrap();
    let scn = dir.join("replay_probe.scn");
    let report = "target/replay_probe.json";
    std::fs::write(
        &scn,
        format!("{FAULTY_REPLICATES}file {report}\nmode replicates repeats=3\n"),
    )
    .unwrap();

    let (stdout_a, json_a) = run_harp_sim(&scn, 5, 1, report);
    let (stdout_b, json_b) = run_harp_sim(&scn, 5, 1, report);
    assert_eq!(stdout_a, stdout_b, "same seed, same threads: same bytes");
    assert_eq!(json_a, json_b);

    let (stdout_c, json_c) = run_harp_sim(&scn, 5, 4, report);
    assert_eq!(stdout_a, stdout_c, "thread count must not leak into output");
    assert_eq!(
        json_a, json_c,
        "a report is a function of tree and seed, not of the machine's threads"
    );

    // The comparison must have happened under live fault pressure: all
    // nine lowered events (crash 2, pdr_window 2, partition 4, burst 1)
    // fire inside every replicate's 30 frames.
    assert!(json_a.contains("\"fault_events\": 9.000"), "got: {json_a}");
    assert!(json_a.contains("\"faults_fired\": 9.000"), "got: {json_a}");
}

#[test]
fn harp_sim_rejects_a_flag_it_does_not_define() {
    // `--quik` used to run the full sweep and overwrite the committed report.
    let out = Command::new(env!("CARGO_BIN_EXE_harp_sim"))
        .args(["--scenario", "scenarios/fault_storm.scn", "--quik"])
        .current_dir(workspace_root())
        .output()
        .expect("harp_sim spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`--quik`") && stderr.contains("usage:"),
        "{stderr}"
    );
}

#[test]
fn every_experiment_binary_rejects_a_flag_it_does_not_define() {
    // A binary that ignored the flag would run in full — `adjust_hot
    // --quik` builds 100k-node trees and overwrites its committed report —
    // so the cheapest goes first.
    for (name, bin) in [
        ("harp_sim", env!("CARGO_BIN_EXE_harp_sim")),
        ("ablation_report", env!("CARGO_BIN_EXE_ablation_report")),
        ("fig12_overhead", env!("CARGO_BIN_EXE_fig12_overhead")),
        ("fig9_latency", env!("CARGO_BIN_EXE_fig9_latency")),
        (
            "fig11a_collision_rate",
            env!("CARGO_BIN_EXE_fig11a_collision_rate"),
        ),
        (
            "fig11b_collision_channels",
            env!("CARGO_BIN_EXE_fig11b_collision_channels"),
        ),
        ("adjust_hot", env!("CARGO_BIN_EXE_adjust_hot")),
        ("fig_scale", env!("CARGO_BIN_EXE_fig_scale")),
        ("harpd_smoke", env!("CARGO_BIN_EXE_harpd_smoke")),
    ] {
        let out = Command::new(bin)
            .arg("--no-such-flag")
            .current_dir(workspace_root())
            .output()
            .unwrap_or_else(|e| panic!("{name} spawns: {e}"));
        assert_eq!(out.status.code(), Some(2), "{name}");
        assert!(out.stdout.is_empty(), "{name} ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("`--no-such-flag`") && stderr.contains(&format!("usage: {name}")),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn harp_sim_refuses_a_flight_dump_the_mode_cannot_record_before_running() {
    // The loss sweep has no event timeline. The refusal must come before
    // the sweep runs, which without `--quick` writes its report.
    let dump = std::env::temp_dir().join("harp_sim_refused_flight.json");
    let out = Command::new(env!("CARGO_BIN_EXE_harp_sim"))
        .args([
            "--scenario",
            "scenarios/mgmt_loss.scn",
            "--quick",
            "--flight",
        ])
        .arg(&dump)
        .current_dir(workspace_root())
        .output()
        .expect("harp_sim spawns");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        out.stdout.is_empty(),
        "the sweep ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--flight needs a `timeline` or `replicates` scenario"),
        "{stderr}"
    );
}

#[test]
fn timeline_replays_byte_identically_under_fault_windows() {
    let scenario = parse_scenario(
        "scenario timeline_replay
seed 0x7E57
frames 12

[workloads]
demand echo rate=1
rate_step node=15 at_frame=6 rate=2

[faults]
crash node=7 at_frame=4 restart_frame=8
pdr_window link=up:15 from_frame=3 frames=5 pdr=0.6

[report]
mode timeline node=15
",
    )
    .unwrap();
    let opts = RunOptions {
        seed: Some(11),
        ..RunOptions::default()
    };
    let a = run_scenario(&scenario, &opts).unwrap();
    let b = run_scenario(&scenario, &opts).unwrap();
    assert_eq!(a.stdout, b.stdout);
    assert_eq!(without_obs(&a.json), without_obs(&b.json));
}

#[test]
fn flight_dump_is_byte_identical_across_runs_and_threads() {
    let scenario = parse_scenario(
        "scenario flight_probe
seed 0xF117
frames 30

[topology]
generator testbed50

[workloads]
demand echo rate=1

[faults]
crash node=7 at_frame=5 restart_frame=12
pdr_window link=up:9 from_frame=6 frames=8 pdr=0.5
burst node=21 at_frame=4 packets=10

[report]
mode replicates repeats=3
",
    )
    .unwrap();
    let run = |threads: usize| {
        run_scenario(
            &scenario,
            &RunOptions {
                seed: Some(9),
                threads: Some(threads),
                ..RunOptions::default()
            },
        )
        .unwrap()
        .flight
        .expect("replicates mode records a flight dump")
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a, b, "same seed, same threads: same flight bytes");
    let c = run(4);
    assert_eq!(a, c, "thread count must not leak into the flight dump");

    // The dump parses and carries the plan's firings on the ASN timebase.
    let doc = harp_obs::FlightDoc::parse_str(&a).expect("flight dump parses");
    assert!(doc.events.iter().any(|e| e.kind == "node_down"), "{a}");
    assert!(doc.events.iter().any(|e| e.kind == "task_burst"), "{a}");
    assert_eq!(
        doc.events.iter().filter(|e| e.kind == "replicate").count(),
        3,
        "{a}"
    );
    assert!(
        doc.events.windows(2).all(|w| w[0].at <= w[1].at),
        "events are time-ordered: {a}"
    );
}

#[test]
fn timeline_flight_dump_records_faults_and_rate_steps() {
    let scenario = parse_scenario(
        "scenario timeline_flight
seed 0x7E57
frames 12

[workloads]
demand echo rate=1
rate_step node=15 at_frame=6 rate=2

[faults]
crash node=7 at_frame=4 restart_frame=8

[report]
mode timeline node=15
",
    )
    .unwrap();
    let opts = RunOptions {
        seed: Some(11),
        ..RunOptions::default()
    };
    let a = run_scenario(&scenario, &opts).unwrap();
    let b = run_scenario(&scenario, &opts).unwrap();
    let flight_a = a.flight.expect("timeline mode records a flight dump");
    assert_eq!(
        flight_a,
        b.flight.unwrap(),
        "flight replays byte-identically"
    );
    let doc = harp_obs::FlightDoc::parse_str(&flight_a).expect("parses");
    assert!(doc
        .events
        .iter()
        .any(|e| e.kind == "node_down" && e.node == 7));
    assert!(doc
        .events
        .iter()
        .any(|e| e.kind == "node_up" && e.node == 7));
    assert!(
        doc.events
            .iter()
            .any(|e| e.kind == "rate_step" && e.node == 15),
        "{flight_a}"
    );
    assert!(
        doc.events.iter().all(|e| e.tenant == "timeline_flight"),
        "every event carries the scenario tag: {flight_a}"
    );
}

#[test]
fn pdr_sweep_is_thread_count_invariant() {
    let scenario = load_scenario_file(&workspace_root().join("scenarios/mgmt_loss.scn"))
        .expect("checked-in scenario parses");
    let run = |threads: usize| {
        run_scenario(
            &scenario,
            &RunOptions {
                quick: true,
                threads: Some(threads),
                ..RunOptions::default()
            },
        )
        .unwrap()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.stdout, four.stdout);
    assert_eq!(without_obs(&one.json), without_obs(&four.json));
}

#[test]
fn seed_override_changes_the_replay() {
    let scenario =
        parse_scenario(&format!("{FAULTY_REPLICATES}mode replicates repeats=2\n")).unwrap();
    let run = |seed: u64| {
        run_scenario(
            &scenario,
            &RunOptions {
                seed: Some(seed),
                threads: Some(2),
                ..RunOptions::default()
            },
        )
        .unwrap()
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(
        without_obs(&a.json),
        without_obs(&b.json),
        "the PDR window makes replicate stats seed-dependent"
    );
}

/// True for a key whose value a clock or the machine decides.
fn is_timed_key(key: &str) -> bool {
    key.ends_with("_ns")
        || key.ends_with("per_sec")
        || key.contains("speedup")
        || key == "bench_threads"
        || key == "iters"
}

fn timed_keys(value: &Json, path: &str, found: &mut Vec<String>) {
    match value {
        Json::Obj(members) => {
            for (key, member) in members {
                let here = format!("{path}.{key}");
                if is_timed_key(key) {
                    found.push(here.clone());
                }
                timed_keys(member, &here, found);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                timed_keys(item, &format!("{path}[{i}]"), found);
            }
        }
        _ => {}
    }
}

#[test]
fn committed_reports_hold_nothing_timed() {
    // The reports are whatever `BENCH_*.json` the workspace root holds, not
    // a list: a new report is covered the moment it is committed.
    let mut checked = 0;
    for entry in std::fs::read_dir(workspace_root()).expect("workspace root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("report reads");
        let doc = parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        let mut found = Vec::new();
        timed_keys(&doc, "", &mut found);
        assert!(
            found.is_empty(),
            "{name} holds timed or machine-derived fields, which cannot be compared \
             for equality; print them as `timing` lines instead: {found:?}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no BENCH_*.json at the workspace root");
}

#[test]
fn every_scenario_report_is_committed() {
    // `harp_sim` is the only writer of a scenario's report and CI's gate
    // runs it for whatever `scenarios/*.scn` names one, so a scenario whose
    // report is missing here is one the gate's loop does not reach.
    let mut checked = 0;
    let scenarios = std::fs::read_dir(workspace_root().join("scenarios"))
        .expect("scenarios/")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "scn"));
    for path in scenarios {
        let scenario = load_scenario_file(&path).expect("checked-in scenario parses");
        if let Some(file) = scenario.report.file {
            assert!(
                workspace_root().join(&file).is_file(),
                "{} writes {file}, which is not at the workspace root",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no scenario names a report");
}
