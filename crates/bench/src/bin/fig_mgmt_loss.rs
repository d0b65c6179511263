//! Management-frame loss sweep: static-phase convergence and adjustment
//! overhead vs the per-hop PDR of the control channel.
//!
//! The experiment itself is the checked-in `scenarios/mgmt_loss.scn`
//! (topology batch, PDR list, the deepest-link adjustment) replayed
//! through the shared scenario runner — this binary is a thin wrapper
//! kept for CI and muscle memory. Equivalent invocation:
//! `harp_sim --scenario scenarios/mgmt_loss.scn [--quick]`.
//!
//! Writes `BENCH_mgmt_loss.json` at the workspace root; `--quick` runs the
//! two-topology smoke batch (CI) and writes nothing.

use harp_bench::harness::flag;
use harp_bench::scenario_run::{load_scenario_file, run_scenario, scenario_dir, RunOptions};

fn main() {
    let scenario = load_scenario_file(&scenario_dir().join("mgmt_loss.scn"))
        .expect("checked-in scenario parses");
    let opts = RunOptions {
        quick: flag("--quick"),
        ..RunOptions::default()
    };
    run_scenario(&scenario, &opts)
        .expect("scenario runs")
        .emit(&opts);
}
