//! A small self-contained micro-benchmark harness.
//!
//! The workspace builds offline, so the `[[bench]]` targets cannot pull in
//! an external harness crate; this module provides the few pieces they
//! need: warmed-up, time-budgeted measurement loops, a plain JSON report
//! writer, the flat-cost check the two scale studies share
//! ([`assert_flat`]) and the command-line check every experiment binary
//! without a parser of its own starts with ([`Args`]).
//!
//! A report file holds only what the source tree and the seeds written in
//! it determine, so the committed copy can be compared byte for byte with a
//! regenerated one. Anything read from a clock is printed by the binary
//! that measured it ([`print_timing`]) and never enters a file.
//!
//! Timing uses a doubling batch schedule against a wall-clock budget
//! (`HARP_BENCH_BUDGET_MS`, default 200 ms per benchmark), which keeps a
//! full bench run in seconds while still amortising timer overhead for
//! nanosecond-scale bodies.

use harp_obs::json::escape_json;
use std::time::{Duration, Instant};

/// One benchmark's timing result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name, as reported.
    pub name: String,
    /// Iterations actually executed (excluding warm-up).
    pub iters: u64,
    /// Total wall-clock time over all iterations.
    pub total: Duration,
}

impl Measurement {
    /// Mean wall-clock nanoseconds per iteration.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.iters == 0 {
            0.0
        } else {
            self.total.as_nanos() as f64 / self.iters as f64
        }
    }

    /// Iterations per second.
    #[must_use]
    pub fn per_sec(&self) -> f64 {
        let ns = self.mean_ns();
        if ns > 0.0 {
            1e9 / ns
        } else {
            0.0
        }
    }

    /// One formatted report line (name, mean time, rate).
    #[must_use]
    pub fn report(&self) -> String {
        format!(
            "{:<44} {:>12} {:>14} iters {}",
            self.name,
            format_ns(self.mean_ns()),
            format!("{:.1}/s", self.per_sec()),
            self.iters
        )
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Per-benchmark time budget: `HARP_BENCH_BUDGET_MS` or 200 ms.
#[must_use]
pub fn budget() -> Duration {
    let ms = std::env::var("HARP_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(200);
    Duration::from_millis(ms)
}

/// Times `f` until the budget elapses (doubling batches, two warm-up
/// runs) and returns the measurement.
pub fn measure<R>(name: &str, mut f: impl FnMut() -> R) -> Measurement {
    for _ in 0..2 {
        std::hint::black_box(f());
    }
    let budget = budget();
    let mut iters = 0u64;
    let mut batch = 1u64;
    let start = Instant::now();
    let total = loop {
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        iters += batch;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            break elapsed;
        }
        batch = batch.saturating_mul(2);
    };
    Measurement {
        name: name.to_owned(),
        iters,
        total,
    }
}

/// Like [`measure`], but runs `setup` untimed before every timed
/// `routine` call — the equivalent of criterion's `iter_batched` for
/// routines that consume fresh state (a built simulator, a converged
/// network) whose construction should not pollute the measurement.
///
/// Iterates until the *timed* portion reaches the budget, with a wall
/// clock cap of four budgets so expensive setups cannot stall the run.
pub fn measure_with_setup<S, R>(
    name: &str,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> R,
) -> Measurement {
    for _ in 0..2 {
        std::hint::black_box(routine(setup()));
    }
    let budget = budget();
    let mut iters = 0u64;
    let mut timed = Duration::ZERO;
    let wall = Instant::now();
    while timed < budget && wall.elapsed() < budget * 4 {
        let input = setup();
        let start = Instant::now();
        let out = routine(input);
        timed += start.elapsed();
        std::hint::black_box(out);
        iters += 1;
    }
    Measurement {
        name: name.to_owned(),
        iters,
        total: timed,
    }
}

/// Prints one `timing <name> <value> <unit>` line, the format `benchmark/`
/// prints its ungated op timings in.
pub fn print_timing(name: &str, value: f64, unit: &str) {
    println!("timing {name} {value:.3} {unit}");
}

/// Prints the worker-thread count a sweep fans out over, on stderr. It
/// explains the run's wall-clock and nothing else: the report and stdout
/// are the same bytes for every count.
pub fn print_bench_threads(threads: usize) {
    eprintln!("# bench_threads: {threads}");
}

/// Renders scalar metrics plus further top-level sections as a JSON
/// document: `{"metrics": {...}, "<section>": <rendered>...}`. Each section
/// is a key plus an already-rendered JSON value (a [`rows_json`] array, an
/// observability snapshot from [`harp_obs::MetricsSnapshot::to_json`], a
/// span-ring dump). A report without scalar metrics has no `metrics` key.
#[must_use]
pub fn to_json_with_sections(metrics: &[(&str, f64)], sections: &[(&str, String)]) -> String {
    let mut entries = Vec::with_capacity(sections.len() + 1);
    if !metrics.is_empty() {
        let mut body = String::from("{\n");
        for (i, (name, value)) in metrics.iter().enumerate() {
            let sep = if i + 1 < metrics.len() { "," } else { "" };
            body.push_str(&format!("    \"{}\": {value:.3}{sep}\n", escape_json(name)));
        }
        body.push_str("  }");
        entries.push(format!("  \"metrics\": {body}"));
    }
    for (name, rendered) in sections {
        entries.push(format!("  \"{}\": {rendered}", escape_json(name)));
    }
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

/// Renders a `rows` section: an array of objects each labelled with a
/// `name` field followed by its numeric fields, in the given order.
#[must_use]
pub fn rows_json(rows: &[(String, Vec<(&str, f64)>)]) -> String {
    let mut out = String::from("[\n");
    for (i, (name, fields)) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("    {{\"name\": \"{}\"", escape_json(name)));
        for (k, v) in fields {
            out.push_str(&format!(", \"{}\": {v:.3}", escape_json(k)));
        }
        out.push_str(&format!("}}{sep}\n"));
    }
    out.push_str("  ]");
    out
}

/// The flat-cost bound: every row's rate must lie within this ratio of the
/// geometric mean across rows.
const FLATNESS_TOLERANCE: f64 = 0.25;

/// Median of `samples` (mean of the middle pair for even counts).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The geometric mean of `rates` when every one lies within
/// ±[`FLATNESS_TOLERANCE`] of it; otherwise a message naming the rows out
/// of band. Fewer than two rows, or a rate that is not positive, is a
/// failure too: there is nothing to be flat across.
fn check_flatness(rates: &[(String, f64)]) -> Result<f64, String> {
    if rates.len() < 2 || rates.iter().any(|&(_, r)| r.is_nan() || r <= 0.0) {
        return Err(format!(
            "flatness needs at least two rows with a positive rate, got {rates:?}"
        ));
    }
    let mean = (rates.iter().map(|(_, r)| r.ln()).sum::<f64>() / rates.len() as f64).exp();
    let band = 1.0 - FLATNESS_TOLERANCE..=1.0 + FLATNESS_TOLERANCE;
    let outliers: Vec<String> = rates
        .iter()
        .filter(|(_, rate)| !band.contains(&(rate / mean)))
        .map(|(label, rate)| format!("{label} ({rate:.0}/s, {:.2}x)", rate / mean))
        .collect();
    if outliers.is_empty() {
        Ok(mean)
    } else {
        Err(format!(
            "outside ±{FLATNESS_TOLERANCE} of the geometric mean {mean:.0}/s: {}",
            outliers.join(", ")
        ))
    }
}

/// The flat-cost check of the scale studies, as the last act of a binary:
/// the same work timed at several network sizes in one run must cost the
/// same at each, so every labelled rate has to lie within ±0.25 of the
/// geometric mean of all of them. The rates come from one process on one
/// machine, which is why this can be a check where a comparison against a
/// committed timing cannot. Prints the flatness line for `what` (e.g.
/// "adjustment rate").
///
/// # Panics
///
/// Panics, so the process exits non-zero, naming the rows out of band;
/// also with fewer than two rows or a rate that is not positive.
pub fn assert_flat(what: &str, rates: &[(String, f64)]) {
    let mean = check_flatness(rates).unwrap_or_else(|e| panic!("{what}: {e}"));
    println!("# {what} flat within ±{FLATNESS_TOLERANCE} of {mean:.0}/s");
}

/// Resolves a path against the workspace root: relative to this crate's
/// manifest when run under cargo, else the working directory. Reports,
/// committed baselines and the `scenarios/` directory all live there.
#[must_use]
pub fn workspace_path(rel: &str) -> std::path::PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::Path::new(&dir).join("../../").join(rel),
        Err(_) => std::path::PathBuf::from(rel),
    }
}

/// An experiment binary's command line, checked against the flags its usage
/// line names: every `--name` word of the line is a flag the binary defines,
/// and one followed by a `<placeholder>` word takes a value. So
/// `usage: harpd_smoke --harpd <bin> [--port <n>]` defines `--harpd` and
/// `--port`, both with a value, and `usage: fig9_latency` defines none.
#[derive(Debug)]
pub struct Args {
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the process arguments against `usage`. Anything the line does
    /// not name — an unknown flag, a stray word, a flag without its value —
    /// prints the error and the usage line on stderr and exits 2 before the
    /// binary runs, so a mistyped `--quick` cannot run the full study and
    /// overwrite its committed report. A binary that defines no flag calls
    /// it for the check alone.
    pub fn parse(usage: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(usage, &args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{usage}");
            std::process::exit(2);
        })
    }

    fn parse_from(usage: &str, args: &[String]) -> Result<Self, String> {
        // `Some(takes_value)` for a flag the usage line names.
        let defined = |arg: &str| {
            if !arg.starts_with("--") {
                return None;
            }
            let mut words = usage
                .split_whitespace()
                .map(|w| w.trim_matches(|c| c == '[' || c == ']'));
            words.find(|w| *w == arg)?;
            Some(words.next().is_some_and(|w| w.starts_with('<')))
        };
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let value = match defined(arg) {
                None => return Err(format!("unknown argument `{arg}`")),
                Some(false) => None,
                Some(true) => Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{arg} needs a value"))?,
                ),
            };
            given.push((arg.clone(), value));
        }
        Ok(Self { given })
    }

    /// Whether the flag `name` was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| flag == name)
    }

    /// The value given with the flag `name`, if it was given.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(flag, _)| flag == name)
            .and_then(|(_, value)| value.as_deref())
    }
}

/// Writes a report file at the workspace root (see [`workspace_path`]) and
/// prints where it went.
///
/// # Panics
///
/// Panics when the file cannot be written — a bench run whose report
/// silently vanishes would let the CI gate pass on stale data.
pub fn write_report(file_name: &str, contents: &str) {
    let path = workspace_path(file_name);
    // A report may name a directory that a build elsewhere never made
    // (`target/` under an external `CARGO_TARGET_DIR`).
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {file_name}: {e}"));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_iterations() {
        let mut calls = 0u64;
        let m = measure("noop", || calls += 1);
        assert_eq!(m.name, "noop");
        assert!(m.iters > 0);
        assert_eq!(calls, m.iters + 2, "two warm-up calls are not counted");
        assert!(m.total >= budget());
        assert!(m.mean_ns() > 0.0);
        assert!(m.per_sec() > 0.0);
    }

    #[test]
    fn measure_with_setup_times_routine_only() {
        let mut setups = 0u64;
        let m = measure_with_setup(
            "setup",
            || {
                setups += 1;
                7u64
            },
            |x| x * 2,
        );
        assert!(m.iters > 0);
        assert_eq!(setups, m.iters + 2, "one setup per routine call");
    }

    #[test]
    fn json_report_is_well_formed() {
        let json = to_json_with_sections(
            &[("a\"b", 2.5), ("count", 100.0)],
            &[("rows", "[\n  ]".into())],
        );
        assert_eq!(
            json,
            "{\n  \"metrics\": {\n    \"a\\\"b\": 2.500,\n    \"count\": 100.000\n  },\n  \"rows\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn report_without_metrics_has_no_metrics_key() {
        let json = to_json_with_sections(&[], &[("rows", "[\n  ]".into()), ("obs", "{}".into())]);
        assert_eq!(json, "{\n  \"rows\": [\n  ],\n  \"obs\": {}\n}\n");
    }

    #[test]
    fn rows_json_labels_and_orders_fields() {
        let rows = vec![
            ("sf0".to_owned(), vec![("a", 1.0), ("b", 2.5)]),
            ("sf\"1".to_owned(), vec![("a", 3.0)]),
        ];
        let json = rows_json(&rows);
        assert!(json.contains("{\"name\": \"sf0\", \"a\": 1.000, \"b\": 2.500},"));
        assert!(json.contains("{\"name\": \"sf\\\"1\", \"a\": 3.000}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    fn args(usage: &str, args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        Args::parse_from(usage, &args)
    }

    #[test]
    fn args_accept_what_the_usage_line_names() {
        let usage = "usage: smoke --harpd <bin> [--port <n>] [--quick]";
        let parsed = args(usage, &["--quick", "--harpd", "h", "--port", "5"]).unwrap();
        assert!(parsed.flag("--quick") && parsed.flag("--port"));
        assert_eq!(parsed.value("--harpd"), Some("h"));
        assert_eq!(parsed.value("--port"), Some("5"));
        assert_eq!(parsed.value("--quick"), None);
        assert!(!args(usage, &[]).unwrap().flag("--quick"));
    }

    #[test]
    fn args_refuse_what_the_usage_line_does_not_name() {
        let usage = "usage: smoke [--quick] [--port <n>]";
        for (given, error) in [
            (&["--quik"][..], "unknown argument `--quik`"),
            (&["--prot", "5"], "unknown argument `--prot`"),
            (&["smoke"], "unknown argument `smoke`"),
            (&["<n>"], "unknown argument `<n>`"),
            (&["--port"], "--port needs a value"),
        ] {
            assert_eq!(args(usage, given).unwrap_err(), error, "{given:?}");
        }
        assert!(args("usage: fig9_latency", &["--quick"]).is_err());
    }

    fn rates(rows: &[(&str, f64)]) -> Vec<(String, f64)> {
        rows.iter().map(|&(l, r)| (l.to_owned(), r)).collect()
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn flatness_accepts_flat_rates() {
        let two = rates(&[("scale_1k", 95_000.0), ("scale_1m", 105_000.0)]);
        let mean = check_flatness(&two).unwrap();
        assert!((mean - (95_000.0f64 * 105_000.0).sqrt()).abs() < 1e-6);
        let three = rates(&[("1k", 110_000.0), ("10k", 95_000.0), ("100k", 105_000.0)]);
        assert!(check_flatness(&three).is_ok());
    }

    #[test]
    fn flatness_trips_on_one_row_out_of_band() {
        let mut rows = rates(&[
            ("scale_1k", 100_000.0),
            ("scale_10k", 100_000.0),
            ("scale_100k", 100_000.0),
            ("scale_1m", 100_000.0),
        ]);
        assert!(check_flatness(&rows).is_ok());
        rows[3].1 = 60_000.0;
        let err = check_flatness(&rows).unwrap_err();
        assert!(err.contains("scale_1m (60000/s, 0.68x)"), "{err}");
        assert!(!err.contains("scale_10k"), "{err}");
    }

    #[test]
    fn flatness_trips_on_size_dependent_rates() {
        // A 10x fall from 1k to 100k is the O(nodes) signature the check
        // exists to catch; only the drifted rows are named.
        let err = check_flatness(&rates(&[
            ("1k", 100_000.0),
            ("10k", 33_000.0),
            ("100k", 10_000.0),
        ]))
        .unwrap_err();
        assert!(err.contains("1k (") && err.contains("100k ("), "{err}");
        assert!(!err.contains("10k ("), "{err}");
    }

    #[test]
    fn flatness_demands_usable_rows() {
        // No row, a single row and a zero rate are failures, not passes.
        for unusable in [
            rates(&[]),
            rates(&[("1k", 100_000.0)]),
            rates(&[("1k", 0.0), ("10k", 100_000.0)]),
        ] {
            assert!(check_flatness(&unusable).is_err(), "{unusable:?}");
        }
    }

    #[test]
    fn ns_formatting_picks_sane_units() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("us"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(2_000_000_000.0).ends_with(" s"));
    }
}
