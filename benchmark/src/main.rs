//! `harp-benchmark`: the one command behind `BENCHMARK.json`.
//!
//! ```text
//! harp-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!                [--quick] [--repeat N]
//! ```
//!
//! Prints every metric by name with its unit, then info lines, and ends
//! with one JSON object (`correct`, `attempted`, `failed`, `metrics`).
//! `--trace 0` (the default) prints the end-to-end metrics of an untraced
//! run, followed by its op timings as `timing` lines; `--trace 1` prints
//! the per-layer metrics of a traced run and writes
//! `benchmark/traces/<workload>-seed<k>.json`. Without `--workload` all
//! four run in turn. `--seconds` is accepted and changes nothing: a run is
//! its ops times a constant number of passes. The exit code is non-zero
//! when a check failed.

use std::process::ExitCode;

use harp_benchmark::alloc::CountingAlloc;
use harp_benchmark::gen::Workload;
use harp_benchmark::layers;
use harp_benchmark::run::{self, MetricDef, Report, RunConfig, END_TO_END, TIMING};
use harp_benchmark::stats::{median, quartile_spread};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: harp-benchmark [--workload create_churn|adjust_storm|read_mostly|dataplane_replay] \
[--seed <u64>] [--seconds <s>] [--trace <0|1>] [--quick] [--repeat <n>]";

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    trace: bool,
    quick: bool,
    repeat: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        trace: false,
        quick: false,
        repeat: 1,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                cli.workloads = vec![Workload::from_name(&name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?];
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                // Part of the command line every benchmark is driven by. A
                // run's length is its ops times a constant number of
                // passes, so that two runs use the same estimator.
                let v = value(&mut i, "--seconds")?;
                v.parse::<f64>()
                    .map_err(|_| format!("--seconds {v:?} is not a duration"))?;
            }
            "--trace" => {
                // `--trace 1`, `--trace 0`, or a bare `--trace`.
                match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        cli.trace = false;
                        i += 1;
                    }
                    Some("1") => {
                        cli.trace = true;
                        i += 1;
                    }
                    _ => cli.trace = true,
                }
            }
            "--quick" => cli.quick = true,
            "--repeat" => {
                let v = value(&mut i, "--repeat")?;
                cli.repeat = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--repeat {v:?} is not a count"))?;
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(cli)
}

/// The contract's last line.
fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn print_report(report: &mut Report) {
    for (name, value, unit) in &mut report.metrics {
        if !value.is_finite() {
            report
                .info
                .push(format!("FAILURE: metric {name} is not a number"));
            report.correct = false;
            *value = 0.0;
        }
        println!("metric {name} {value} {unit}");
    }
    for (name, value, unit) in &report.timing {
        println!("timing {name} {value} {unit}");
    }
    for line in &report.info {
        println!("# {line}");
    }
    println!("{}", json_line(report));
}

/// `--repeat N`: N full runs, then min / median / max / spread per metric
/// against its bound, and the same for the timing lines, which are shown
/// and not judged. Returns whether every metric's spread stayed within its
/// bound.
fn repeat_table(runs: &[Report]) -> bool {
    println!(
        "# {:<18} {:>14} {:>14} {:>14} {:>9} {:>9} {:>6}",
        "metric", "min", "median", "max", "range/med", "iqr/med", "bound"
    );
    let row = |def: &MetricDef, values: Vec<f64>, judged: bool| -> bool {
        let (min, max) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let med = median(&values);
        let range = if med == 0.0 { 0.0 } else { (max - min) / med };
        let iqr = if values.len() >= 2 {
            quartile_spread(&values)
        } else {
            0.0
        };
        let ok = range <= def.bound;
        println!(
            "# {:<18} {:>14.4} {:>14.4} {:>14.4} {:>9.4} {:>9.4} {:>6.3}{}",
            def.name,
            min,
            med,
            max,
            range,
            iqr,
            def.bound,
            match (ok, judged) {
                (true, _) => "",
                (false, true) => "  << exceeds bound",
                (false, false) => "  (timing: shown, not judged)",
            }
        );
        ok || !judged
    };
    let mut within = true;
    for (k, def) in END_TO_END.iter().enumerate() {
        within &= row(def, runs.iter().map(|r| r.metrics[k].1).collect(), true);
    }
    for (k, def) in TIMING.iter().enumerate() {
        row(def, runs.iter().map(|r| r.timing[k].1).collect(), false);
    }
    within
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Before any thread is spawned, so the daemon's threads inherit it.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    match harp_benchmark::pin::pin_to_one_cpu() {
        Some(cpu) => println!("# nproc {nproc}, pinned to cpu {cpu}"),
        None => println!("# nproc {nproc}, NOT pinned: CPU affinity is unavailable, expect noisier service workloads"),
    }
    let mut all_correct = true;
    for &workload in &cli.workloads {
        let cfg = RunConfig {
            workload,
            seed: cli.seed,
            quick: cli.quick,
        };
        let mut runs: Vec<Report> = Vec::new();
        for _ in 0..cli.repeat {
            let result = if cli.trace {
                layers::run_traced(cfg)
            } else {
                run::run(cfg)
            };
            match result {
                Ok(mut report) => {
                    print_report(&mut report);
                    all_correct &= report.correct;
                    runs.push(report);
                }
                Err(message) => {
                    // The run could not complete: no metrics to report.
                    eprintln!("harp-benchmark: {}: {message}", workload.name());
                    return ExitCode::from(1);
                }
            }
        }
        if cli.repeat > 1 && !cli.trace {
            all_correct &= repeat_table(&runs);
            // Keep the contract's JSON object last.
            println!("{}", json_line(runs.last().expect("repeat >= 1")));
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
