//! A small self-contained micro-benchmark harness.
//!
//! The workspace builds offline, so the `[[bench]]` targets cannot pull in
//! an external harness crate; this module provides the few pieces they
//! need: warmed-up, time-budgeted measurement loops and a plain JSON
//! report writer (consumed by `BENCH_simulator.json`).
//!
//! Timing uses a doubling batch schedule against a wall-clock budget
//! (`HARP_BENCH_BUDGET_MS`, default 200 ms per benchmark), which keeps a
//! full bench run in seconds while still amortising timer overhead for
//! nanosecond-scale bodies.

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

/// Renders measurements plus scalar metrics as a JSON document.
///
/// The shape is stable for downstream tooling:
/// `{"benchmarks": [{"name", "iters", "total_ns", "mean_ns"}...],
///   "metrics": {...}}`.
#[must_use]
pub fn to_json(measurements: &[Measurement], metrics: &[(&str, f64)]) -> String {
    to_json_with_sections(measurements, metrics, &[])
}

/// [`to_json`] with extra top-level sections, each a key plus an
/// already-rendered JSON value (e.g. an observability snapshot from
/// [`harp_obs::MetricsSnapshot::to_json`] or a span-ring dump). The gate
/// ([`crate::gate`]) ignores sections it does not classify, so reports may
/// grow new sections without breaking old baselines.
#[must_use]
pub fn to_json_with_sections(
    measurements: &[Measurement],
    metrics: &[(&str, f64)],
    sections: &[(&str, String)],
) -> String {
    let mut out = String::from("{\n");
    if !measurements.is_empty() {
        out.push_str("  \"benchmarks\": [\n");
        for (i, m) in measurements.iter().enumerate() {
            let sep = if i + 1 < measurements.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters\": {}, \"total_ns\": {}, \"mean_ns\": {:.1}}}{sep}\n",
                escape(&m.name),
                m.iters,
                m.total.as_nanos(),
                m.mean_ns()
            ));
        }
        out.push_str("  ],\n");
    }
    out.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i + 1 < metrics.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\": {value:.3}{sep}\n", escape(name)));
    }
    out.push_str("  }");
    for (name, rendered) in sections {
        out.push_str(&format!(",\n  \"{}\": {rendered}", escape(name)));
    }
    out.push_str("\n}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a `rows` section: an array of objects each labelled with a
/// `name` field followed by its numeric fields, in the given order. The
/// gate keys row comparison on `name`, so labels must be unique within a
/// report and stable across runs.
#[must_use]
pub fn rows_json(rows: &[(String, Vec<(&str, f64)>)]) -> String {
    let mut out = String::from("[\n");
    for (i, (name, fields)) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("    {{\"name\": \"{}\"", escape(name)));
        for (k, v) in fields {
            out.push_str(&format!(", \"{}\": {v:.3}", escape(k)));
        }
        out.push_str(&format!("}}{sep}\n"));
    }
    out.push_str("  ]");
    out
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

/// True when `name` appears among the process arguments — the experiment
/// binaries' shared convention for flags like `--quick`.
#[must_use]
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Value of a `--key value` argument pair, if present.
#[must_use]
pub fn arg_value(key: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == key {
            return args.next();
        }
    }
    None
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
        let ms = vec![
            Measurement {
                name: "a".into(),
                iters: 10,
                total: Duration::from_micros(5),
            },
            Measurement {
                name: "b\"x".into(),
                iters: 1,
                total: Duration::from_nanos(7),
            },
        ];
        let json = to_json(&ms, &[("speedup", 2.5), ("rate", 100.0)]);
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"b\\\"x\""));
        assert!(json.contains("\"speedup\": 2.500"));
        assert!(json.contains("\"rate\": 100.000"));
        // Balanced braces/brackets as a cheap structural check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_measurements_omit_benchmarks_section() {
        let json = to_json_with_sections(&[], &[("x", 1.0)], &[("rows", "[\n  ]".into())]);
        assert!(!json.contains("\"benchmarks\""));
        assert!(json.contains("\"x\": 1.000"));
        assert!(json.contains("\"rows\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
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

    #[test]
    fn ns_formatting_picks_sane_units() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("us"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(2_000_000_000.0).ends_with(" s"));
    }
}
