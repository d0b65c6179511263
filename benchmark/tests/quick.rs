//! Every workload end to end at `--quick` size: the checks (digest equal in
//! every pass, exclusive schedules, request reconciliation, zero collisions
//! and idle wake-ups) run exactly as in a full run.

use harp_benchmark::gen::Workload;
use harp_benchmark::layers::{self, PER_LAYER};
use harp_benchmark::run::{self, RunConfig, END_TO_END};

fn quick(workload: Workload) -> RunConfig {
    RunConfig {
        workload,
        seed: 2,
        quick: true,
    }
}

#[test]
fn every_workload_runs_correct_and_reports_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let report =
            run::run(quick(workload)).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(report.correct, "{}: {:?}", workload.name(), report.info);
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= 1);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        for (name, value, _) in &report.metrics {
            // This test binary has no counting allocator installed, so the
            // three heap metrics read 0 here; everything else is positive.
            let heap = matches!(*name, "allocs_per_op" | "alloc_kb_per_op" | "peak_heap_mb");
            assert!(
                value.is_finite() && (*value > 0.0 || heap),
                "{} {name} = {value}",
                workload.name()
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_reconcile() {
    let value = |report: &run::Report, name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };

    let churn = layers::run_traced(quick(Workload::CreateChurn)).expect("create_churn");
    assert!(churn.correct, "{:?}", churn.info);
    assert_eq!(churn.metrics.len(), PER_LAYER.len());
    assert!(value(&churn, "harp-core.handle.converge_us") > 0.0);
    assert!(value(&churn, "harpd.state.handle_request_us.create") > 0.0);
    assert!(value(&churn, "packing.strip_packs_per_op") > 0.0);
    // The simulator is never entered.
    assert_eq!(value(&churn, "tsch-sim.run_us"), 0.0);

    let sim = layers::run_traced(quick(Workload::DataplaneReplay)).expect("dataplane_replay");
    assert!(sim.correct, "{:?}", sim.info);
    assert!(value(&sim, "tsch-sim.run_us") > 0.0);
    assert_eq!(value(&sim, "tsch-sim.collisions"), 0.0);
    assert_eq!(value(&sim, "tsch-sim.idle_wakeups"), 0.0);
    // The daemon is never entered.
    for m in PER_LAYER.iter().filter(|m| m.name.starts_with("harpd.")) {
        assert_eq!(value(&sim, m.name), 0.0, "{}", m.name);
    }
}
