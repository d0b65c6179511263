//! An untraced run: warm-up passes, timed passes, one counting pass, and
//! the end-to-end metrics and op timings computed from them.

use std::time::Instant;

use crate::alloc;
use crate::dataplane;
use crate::gen::{self, DataplanePlan, ServicePlan, Workload};
use crate::pass::Pass;
use crate::service;
use crate::stats::{per_op_min, percentile};
use crate::trace::Recorder;

/// Passes replayed before timing starts (page cache, allocator arenas,
/// branch predictors; the first also fixes the reference digest).
pub const WARMUP_PASSES: usize = 2;
/// Timed passes of every run. The statistic is a minimum over passes,
/// which falls as passes are added, so two runs are only comparable when
/// they take the same number. A scratch prototype of this estimator spread
/// 13 % between runs with 9 passes and under 8 % with 21.
pub const TIMED_PASSES: usize = 21;
/// Timed passes of a `--quick` run.
pub const QUICK_PASSES: usize = 2;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A declared metric; `BENCHMARK.json` carries the same table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as declared.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, the same six on every workload: what repeats
/// from run to run on a shared host. The counts are exact for a workload
/// whatever the seed (the seed only orders a fixed population, see
/// [`crate::gen`]), so they carry the tight bounds; `setup_s` is the one
/// time among them and carries the widest bound a benchmark may declare.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("mgmt_msgs_per_op", "count", Better::Lower, 0.001),
    e2e("success_ratio", "ratio", Better::Higher, 0.001),
    e2e("allocs_per_op", "count", Better::Lower, 0.001),
    e2e("alloc_kb_per_op", "KB", Better::Lower, 0.001),
    e2e("peak_heap_mb", "MB", Better::Lower, 0.02),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// The op timings every run reports as `timing` lines. They were declared
/// end-to-end metrics with bound 0.10 and are not any more: on the host
/// this was built on, ten runs of a service workload agree within
/// 0.02–0.06 in a quiet half hour and differ by 0.11–0.43 among
/// themselves, and by up to 0.49 from the first ten, 40 minutes later
/// (`README.md`, "Stability"), and a metric that cannot hold its bound is
/// reported, not gated on. The bound stays here as what two runs on a quiet host agree
/// within; `--repeat` prints it beside their spread.
pub const TIMING: [MetricDef; 3] = [
    e2e("ops_per_s", "1/s", Better::Higher, 0.10),
    e2e("op_p50_us", "us", Better::Lower, 0.10),
    e2e("op_p99_us", "us", Better::Lower, 0.10),
];

/// A generated workload, ready to replay.
#[derive(Debug, Clone)]
pub enum Plan {
    /// One of the three daemon workloads.
    Service(ServicePlan),
    /// The simulator workload.
    Dataplane(DataplanePlan),
}

impl Plan {
    /// Generates `workload` from `seed`.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64, quick: bool) -> Self {
        match workload {
            Workload::DataplaneReplay => Plan::Dataplane(gen::dataplane_plan(seed, quick)),
            w => Plan::Service(gen::service_plan(w, seed, quick)),
        }
    }

    /// Ops per pass.
    #[must_use]
    pub fn ops(&self) -> usize {
        match self {
            Plan::Service(p) => p.ops.len(),
            Plan::Dataplane(p) => p.ops.len(),
        }
    }
}

/// Workload-specific detail of a pass, kept for the info lines.
#[derive(Debug, Clone)]
pub enum Detail {
    /// A daemon pass.
    Service(service::PassResult),
    /// A simulator pass.
    Dataplane(dataplane::PassResult),
}

impl Detail {
    /// The workload-independent part.
    #[must_use]
    pub fn core(&self) -> &Pass {
        match self {
            Detail::Service(p) => &p.core,
            Detail::Dataplane(p) => &p.core,
        }
    }
}

/// Replays `plan` once.
///
/// # Errors
///
/// The pass's transport, set-up or reconciliation error.
pub fn run_pass(plan: &Plan, rec: &mut Recorder) -> Result<Detail, String> {
    match plan {
        Plan::Service(p) => service::run_pass(p, rec).map(Detail::Service),
        Plan::Dataplane(p) => dataplane::run_pass(p, rec).map(Detail::Dataplane),
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Generator seed.
    pub seed: u64,
    /// Tenth-size workload, [`QUICK_PASSES`] passes; every check still
    /// runs, the numbers are not claims.
    pub quick: bool,
}

/// The outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Ops executed, over all passes.
    pub attempted: u64,
    /// Ops that failed or whose result differed from the reference pass.
    pub failed: u64,
    /// (name, value, unit), in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The [`TIMING`] figures of an untraced run, same layout.
    pub timing: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines that are not metrics.
    pub info: Vec<String>,
}

/// Per-op minimum and the figures derived from it.
#[derive(Debug, Clone)]
pub struct OpTimes {
    /// Fastest observation of each op, ns.
    pub min_ns: Vec<u64>,
    /// Ops ÷ Σ per-op-min.
    pub ops_per_s: f64,
    /// Median across ops of per-op-min, µs.
    pub p50_us: f64,
    /// p99 across ops of per-op-min, µs (the maximum when there are too
    /// few ops for a p99, which only a `--quick` run has).
    pub p99_us: f64,
}

/// Reduces a passes × ops matrix.
#[must_use]
pub fn op_times(passes: &[Vec<u64>]) -> OpTimes {
    let min_ns = per_op_min(passes);
    let total_ns: u64 = min_ns.iter().sum();
    let mut sorted = min_ns.clone();
    sorted.sort_unstable();
    let pct = |q: f64| {
        percentile(&sorted, q).unwrap_or_else(|_| *sorted.last().expect("ops")) as f64 / 1e3
    };
    OpTimes {
        ops_per_s: min_ns.len() as f64 / (total_ns as f64 / 1e9),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        min_ns,
    }
}

/// Compares a pass with the reference pass; returns how many ops differ.
fn differing_ops(reference: &Pass, pass: &Pass) -> u64 {
    if reference.op_digest.len() != pass.op_digest.len() {
        return reference.op_digest.len().max(pass.op_digest.len()) as u64;
    }
    reference
        .op_digest
        .iter()
        .zip(&pass.op_digest)
        .filter(|(a, b)| a != b)
        .count() as u64
}

/// Runs `cfg` end to end.
///
/// # Errors
///
/// A pass that could not complete (transport failure, set-up refused,
/// request counts that do not reconcile).
pub fn run(cfg: RunConfig) -> Result<Report, String> {
    let plan = Plan::generate(cfg.workload, cfg.seed, cfg.quick);
    let ops = plan.ops();
    let mut rec = Recorder::disabled();
    let mut report = Report::default();
    let mut failures: Vec<String> = Vec::new();
    let mut account = |report: &mut Report, reference: Option<&Pass>, pass: &Pass| {
        report.attempted += pass.op_ns.len() as u64;
        report.failed += pass.failed_ops;
        failures.extend(
            pass.failures
                .iter()
                .take(5 - failures.len().min(5))
                .cloned(),
        );
        if let Some(reference) = reference {
            let differing = differing_ops(reference, pass);
            if differing > 0 {
                report.failed += differing;
                failures.push(format!(
                    "{differing} ops returned something else than in the reference pass"
                ));
            }
        }
    };

    // Warm-up; the first pass is the reference every later pass must equal.
    let reference = run_pass(&plan, &mut rec)?;
    account(&mut report, None, reference.core());
    let mut setups: Vec<u64> = vec![reference.core().setup_ns];
    for _ in 1..if cfg.quick { 1 } else { WARMUP_PASSES } {
        let pass = run_pass(&plan, &mut rec)?;
        account(&mut report, Some(reference.core()), pass.core());
        setups.push(pass.core().setup_ns);
    }

    // Timed passes.
    let measure_start = Instant::now();
    let mut timed: Vec<Vec<u64>> = Vec::new();
    let mut walls: Vec<u64> = Vec::new();
    for _ in 0..if cfg.quick {
        QUICK_PASSES
    } else {
        TIMED_PASSES
    } {
        let pass = run_pass(&plan, &mut rec)?;
        account(&mut report, Some(reference.core()), pass.core());
        let core = pass.core();
        setups.push(core.setup_ns);
        walls.push(core.wall_ns);
        timed.push(core.op_ns.clone());
    }
    let measured = measure_start.elapsed();

    // Counting pass: the same ops once more with the allocator counting.
    alloc::start();
    let counted = run_pass(&plan, &mut rec);
    let heap = alloc::stop();
    let counted = counted?;
    account(&mut report, Some(reference.core()), counted.core());
    let (before, after) = (
        counted.core().alloc_before_ops,
        counted.core().alloc_after_ops,
    );

    let times = op_times(&timed);
    let core = reference.core();
    report.timing = TIMING
        .iter()
        .zip([times.ops_per_s, times.p50_us, times.p99_us])
        .map(|(m, value)| (m.name, value, m.unit))
        .collect();
    let value = |name: &str| -> f64 {
        match name {
            "mgmt_msgs_per_op" => core.mgmt_msgs as f64 / ops as f64,
            "success_ratio" => core.succeeded as f64 / core.offered as f64,
            "allocs_per_op" => (after.allocs - before.allocs) as f64 / ops as f64,
            "alloc_kb_per_op" => (after.bytes - before.bytes) as f64 / 1024.0 / ops as f64,
            "peak_heap_mb" => heap.peak as f64 / (1024.0 * 1024.0),
            "setup_s" => *setups.iter().min().expect("uncounted passes") as f64 / 1e9,
            other => unreachable!("undeclared metric {other}"),
        }
    };
    report.metrics = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();

    // Info lines: what the pooled estimators would have said, and how noisy
    // the host was while we measured.
    let mut pooled: Vec<u64> = timed.iter().flatten().copied().collect();
    pooled.sort_unstable();
    let pooled_pct = |q: f64| percentile(&pooled, q).map_or(f64::NAN, |v| v as f64 / 1e3);
    let mut sorted_walls = walls.clone();
    sorted_walls.sort_unstable();
    let wall_min = sorted_walls[0] as f64;
    let wall_median = sorted_walls[sorted_walls.len() / 2] as f64;
    report.info.push(format!(
        "workload {} seed {} ops/pass {} passes {}+{}+1 measured {:.1}s{}",
        cfg.workload.name(),
        cfg.seed,
        ops,
        if cfg.quick { 1 } else { WARMUP_PASSES },
        timed.len(),
        measured.as_secs_f64(),
        if cfg.quick {
            "  ** --quick: not claims **"
        } else {
            ""
        }
    ));
    report.info.push(format!(
        "pooled (all passes) p50 {:.1} us p99 {:.1} us; ops/median-pass {:.0} /s",
        pooled_pct(0.50),
        pooled_pct(0.99),
        ops as f64 / (wall_median / 1e9)
    ));
    report.info.push(format!(
        "pass wall ms: {}",
        walls
            .iter()
            .map(|w| format!("{:.0}", *w as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report
        .info
        .push(format!("host_jitter {:.3}", wall_median / wall_min));
    report
        .info
        .push(format!("digest {:016x}", reference.core().digest()));
    match &reference {
        Detail::Service(p) => {
            let adjusts = p.local_adjusts + p.escalated_adjusts + p.refused_ops;
            if adjusts > 0 {
                let share = |n: u64| n as f64 / adjusts as f64;
                report.info.push(format!(
                    "adjust outcomes: local {:.3} escalated {:.3} rejected {:.3} of {adjusts}; reconnects {}",
                    share(p.local_adjusts),
                    share(p.escalated_adjusts),
                    share(p.refused_ops),
                    p.reconnects
                ));
                // The storm is only a storm while its mix holds: mostly
                // local, a solid share escalating, a few rollbacks.
                if cfg.workload == Workload::AdjustStorm && !cfg.quick {
                    let in_bands = share(p.local_adjusts) >= 0.50
                        && share(p.escalated_adjusts) >= 0.20
                        && (0.02..=0.08).contains(&share(p.refused_ops));
                    if !in_bands {
                        report.failed += 1;
                        failures.push(
                            "adjust_storm outcome mix left its bands (local >= 0.50, escalated >= 0.20, rejected 0.02..0.08)"
                                .into(),
                        );
                    }
                }
            }
        }
        Detail::Dataplane(p) => report.info.push(format!(
            "simulated: {} slots, {} generated, {} delivered, {} collisions, {} idle wake-ups, {} faults fired",
            p.slots, p.core.offered, p.core.succeeded, p.collisions, p.idle_wakeups, p.faults_fired
        )),
    }
    for f in &failures {
        report.info.push(format!("FAILURE: {f}"));
    }
    report.correct = report.failed == 0;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_times_use_the_per_op_minimum() {
        // 1000 ops of 1 µs, 10 of 50 µs, 14 of 100 µs; the second pass is
        // uniformly slower and must not show.
        let mut quiet: Vec<u64> = vec![1_000; 1000];
        quiet.extend(vec![50_000; 10]);
        quiet.extend(vec![100_000; 14]);
        let noisy: Vec<u64> = quiet.iter().map(|v| v * 3).collect();
        let t = op_times(&[noisy, quiet.clone()]);
        assert_eq!(t.min_ns, quiet);
        assert_eq!(t.p50_us, 1.0);
        assert_eq!(t.p99_us, 100.0); // rank ceil(1024 * .99) = 1014 → 100 µs
        let total_s = (1000.0 * 1e3 + 10.0 * 50e3 + 14.0 * 100e3) / 1e9;
        assert!((t.ops_per_s - 1024.0 / total_s).abs() < 1e-6);
    }

    #[test]
    fn differing_ops_counts_positions() {
        let pass = |d: &[u64]| Pass {
            op_digest: d.to_vec(),
            ..Pass::default()
        };
        assert_eq!(differing_ops(&pass(&[1, 2, 3]), &pass(&[1, 2, 3])), 0);
        assert_eq!(differing_ops(&pass(&[1, 2, 3]), &pass(&[1, 9, 8])), 2);
        assert_eq!(differing_ops(&pass(&[1, 2, 3]), &pass(&[1, 2])), 3);
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let doc = harp_obs::json::parse(json).expect("BENCHMARK.json parses");
        let declared = doc
            .get("end_to_end")
            .and_then(harp_obs::json::Json::as_arr)
            .expect("end_to_end array");
        assert_eq!(declared.len(), END_TO_END.len());
        for (d, m) in declared.iter().zip(END_TO_END) {
            let s = |k: &str| d.get(k).and_then(harp_obs::json::Json::as_str).unwrap();
            assert_eq!(s("name"), m.name);
            assert_eq!(s("unit"), m.unit);
            assert_eq!(s("better") == "higher", m.better == Better::Higher);
            let bound = d
                .get("bound")
                .and_then(harp_obs::json::Json::as_f64)
                .unwrap();
            assert!((bound - m.bound).abs() < 1e-12, "{}", m.name);
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(harp_obs::json::Json::as_arr)
            .expect("workloads array")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(harp_obs::json::Json::as_str)
                    .unwrap()
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
