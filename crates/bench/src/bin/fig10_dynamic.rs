//! Fig. 10: end-to-end latency of the observed node while its data rate
//! steps 1 → 1.5 → 3 packets/slotframe.
//!
//! The experiment itself is the checked-in `scenarios/fig10_dynamic.scn`
//! (topology, headroom, rate steps, report shape) replayed through the
//! shared scenario runner — this binary is a thin wrapper kept for CI and
//! muscle memory. Equivalent invocation:
//! `harp_sim --scenario scenarios/fig10_dynamic.scn`.
//!
//! Writes `BENCH_fig10.json` at the workspace root.

use harp_bench::harness::flag;
use harp_bench::scenario_run::{load_scenario_file, run_scenario, scenario_dir, RunOptions};

fn main() {
    let scenario = load_scenario_file(&scenario_dir().join("fig10_dynamic.scn"))
        .expect("checked-in scenario parses");
    let opts = RunOptions {
        quick: flag("--quick"),
        ..RunOptions::default()
    };
    run_scenario(&scenario, &opts)
        .expect("scenario runs")
        .emit(&opts);
}
