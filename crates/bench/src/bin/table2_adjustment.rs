//! Table II: partition-adjustment overhead for a selected set of events at
//! different layers of the 50-node testbed network.
//!
//! The experiment itself is the checked-in `scenarios/table2_adjustment.scn`
//! (one `demand_step` per Table II event) replayed through the shared
//! scenario runner — this binary is a thin wrapper kept for CI and muscle
//! memory. Equivalent invocation:
//! `harp_sim --scenario scenarios/table2_adjustment.scn`.
//!
//! Writes `BENCH_table2.json` at the workspace root.

use harp_bench::harness::flag;
use harp_bench::scenario_run::{load_scenario_file, run_scenario, scenario_dir, RunOptions};

fn main() {
    let scenario = load_scenario_file(&scenario_dir().join("table2_adjustment.scn"))
        .expect("checked-in scenario parses");
    let opts = RunOptions {
        quick: flag("--quick"),
        ..RunOptions::default()
    };
    run_scenario(&scenario, &opts)
        .expect("scenario runs")
        .emit(&opts);
}
