//! `harp_sim` — run any declarative scenario file through the shared
//! runner.
//!
//! ```text
//! harp_sim --scenario scenarios/mgmt_loss.scn [--seed 42] [--quick] \
//!          [--threads N] [--flight dump.json]
//! ```
//!
//! `--flight` writes the run's flight-recorder dump (fault firings, rate
//! steps, replicate outcomes, detected adjustment storms on the ASN
//! timeline) for `harp_trace` to render; available for `timeline` and
//! `replicates` scenarios, and byte-identical across runs and `--threads`
//! values.
//!
//! The scenario file declares topology, scheduler, workload, fault
//! schedule and report shape (grammar in `DESIGN.md` §14); the runner
//! replays it deterministically — the same scenario and seed produce a
//! byte-identical report on every run and for every `--threads` value.
//! `--seed` overrides the file's seed and still writes to the scenario's
//! own `[report] file`, so on a checkout whose reports are compared with
//! the committed ones, restore that file afterwards. `--quick` shrinks
//! topology sweeps to their `quick_count` (the CI smoke setting) and never
//! writes the report file.

use harp_bench::harness::{arg_value, flag};
use harp_bench::scenario_run::{load_scenario_file, run_scenario, RunOptions};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: harp_sim --scenario <file.scn> [--seed <n>] [--quick] [--threads <n>] [--flight <out.json>]
  --seed <n>  replay with another seed; the report still goes to the scenario's own `[report] file`
  --quick     shrink sweeps to their quick_count; the report file is not written";

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let Some(path) = arg_value("--scenario") else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let seed = match arg_value("--seed") {
        Some(v) => match parse_u64(&v) {
            Some(n) => Some(n),
            None => {
                eprintln!("error: invalid --seed `{v}`");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let threads = match arg_value("--threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                eprintln!("error: invalid --threads `{v}`");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let opts = RunOptions {
        quick: flag("--quick"),
        seed,
        threads,
    };
    let scenario = match load_scenario_file(Path::new(&path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_scenario(&scenario, &opts) {
        Ok(output) => {
            output.emit(&opts);
            if let Some(path) = arg_value("--flight") {
                let Some(flight) = &output.flight else {
                    eprintln!(
                        "error: --flight needs a `timeline` or `replicates` scenario; \
                         this mode records no event timeline"
                    );
                    return ExitCode::FAILURE;
                };
                if let Err(e) = std::fs::write(&path, flight) {
                    eprintln!("error: write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("# wrote flight dump {path}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
