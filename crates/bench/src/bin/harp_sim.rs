//! `harp_sim` — run any declarative scenario file through the shared
//! runner.
//!
//! ```text
//! harp_sim --scenario scenarios/mgmt_loss.scn [--seed 42] [--quick] \
//!          [--flight dump.json]
//! ```
//!
//! `--flight` writes the run's flight-recorder dump (fault firings, rate
//! steps, replicate outcomes, detected adjustment storms on the ASN
//! timeline) for `harp_trace` to render; available for `timeline` and
//! `replicates` scenarios, and byte-identical across runs and
//! `HARP_BENCH_THREADS` values.
//!
//! The scenario file declares topology, scheduler, workload, fault
//! schedule and report shape (grammar in `workloads::scenario_dsl`); the runner
//! replays it deterministically — the same scenario and seed produce a
//! byte-identical report on every run and for every `HARP_BENCH_THREADS`
//! value, the worker count every experiment binary reads.
//! `--seed` overrides the file's seed and still writes to the scenario's
//! own `[report] file`, so on a checkout whose reports are compared with
//! the committed ones, restore that file afterwards. `--quick` shrinks
//! topology sweeps to their `quick_count` (the CI smoke setting) and never
//! writes the report file.

use harp_bench::harness::Args;
use harp_bench::scenario_run::{load_scenario_file, run_scenario, RunOptions};
use std::path::Path;
use std::process::ExitCode;
use workloads::scenario_dsl::ReportMode;

const USAGE: &str =
    "usage: harp_sim --scenario <file.scn> [--seed <n>] [--quick] [--flight <out.json>]
  --seed <n>  replay with another seed; the report still goes to the scenario's own `[report] file`
  --quick     shrink sweeps to their quick_count; the report file is not written";

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The scenario path and the run options the flags name.
fn run_options(args: &Args) -> Result<(&str, RunOptions), String> {
    let scenario = args.value("--scenario").ok_or("--scenario is required")?;
    let seed = args
        .value("--seed")
        .map(|v| parse_u64(v).ok_or_else(|| format!("invalid --seed `{v}`")))
        .transpose()?;
    let quick = args.flag("--quick");
    Ok((
        scenario,
        RunOptions {
            quick,
            seed,
            threads: None,
        },
    ))
}

fn main() -> ExitCode {
    let args = Args::parse(USAGE);
    let (scenario, opts) = match run_options(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let flight = args.value("--flight");
    let scenario = match load_scenario_file(Path::new(scenario)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let records_flight = matches!(
        scenario.report.mode,
        ReportMode::Timeline { .. } | ReportMode::Replicates { .. }
    );
    if flight.is_some() && !records_flight {
        eprintln!(
            "error: --flight needs a `timeline` or `replicates` scenario; \
             this mode records no event timeline"
        );
        return ExitCode::FAILURE;
    }
    match run_scenario(&scenario, &opts) {
        Ok(output) => {
            output.emit(&opts);
            if let Some(path) = flight {
                let flight = output
                    .flight
                    .as_ref()
                    .expect("timeline and replicates runs record a flight dump");
                if let Err(e) = std::fs::write(path, flight) {
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
