//! The CI perf-regression gate: compares a freshly produced benchmark
//! report against the committed baseline and reports tolerance violations.
//!
//! Keys are classified by name, because the two committed reports mix
//! quantities with very different stability:
//!
//! * **Wall-clock timings** (`mean_ns` of each benchmark) vary wildly
//!   across CI machines — the gate only catches catastrophic slowdowns,
//!   allowing up to [`TIME_SLOWDOWN`]× the baseline.
//! * **Rates** (`*per_sec`) are timings inverted: fresh may drop to
//!   `1/TIME_SLOWDOWN` of the baseline before the gate trips.
//! * **Ratios** (`*speedup*`) divide two timings taken on the *same*
//!   machine, so they are far more stable: fresh must stay above
//!   [`SPEEDUP_FLOOR`] of the baseline.
//! * **Deterministic counts** (everything else: message counts,
//!   slotframes, retransmissions — all derived from seeded runs) must
//!   match to [`COUNT_REL_TOL`]; a drift here is a behaviour change, not
//!   noise.
//!
//! Benchmarks or rows present in the baseline but missing from the fresh
//! report are violations (a silently dropped benchmark must not pass the
//! gate); *new* keys in the fresh report are fine. The `iters`/`total_ns`
//! fields and embedded `obs`/`trace_sample` sections are ignored: they
//! describe how the measurement ran, not how fast the code is.

use harp_obs::json::{parse, Json};
use std::fmt;

/// A fresh timing may be up to this many times the baseline (4× = 300%
/// slower) before the gate trips. Generous on purpose: shared CI runners
/// routinely jitter by 2×; a real regression from an accidental
/// `O(n²)` or a de-vectorised hot loop overshoots 4× easily.
pub const TIME_SLOWDOWN: f64 = 4.0;

/// A fresh speedup ratio must stay above this fraction of the baseline.
pub const SPEEDUP_FLOOR: f64 = 0.5;

/// Relative tolerance for deterministic counts (floating-point formatting
/// headroom only).
pub const COUNT_REL_TOL: f64 = 1e-3;

/// How a key is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Absolute wall-clock time in nanoseconds: higher is worse.
    TimeNs,
    /// A throughput rate: lower is worse.
    Rate,
    /// A same-machine timing ratio: lower is worse, tighter bound.
    Speedup,
    /// A deterministic quantity: any drift is a violation.
    Count,
    /// Not compared at all.
    Ignored,
}

/// Classifies a metric key by name.
#[must_use]
pub fn classify(key: &str) -> Kind {
    if key == "iters"
        || key == "total_ns"
        || key == "obs"
        || key == "trace_sample"
        || key == "bench_threads"
    {
        // `bench_threads` records the machine's resolved worker count —
        // provenance, not performance, and different on every runner.
        Kind::Ignored
    } else if key.ends_with("_ns") {
        Kind::TimeNs
    } else if key.ends_with("per_sec") {
        Kind::Rate
    } else if key.contains("speedup") {
        Kind::Speedup
    } else {
        Kind::Count
    }
}

/// One tolerance violation found by [`compare_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Where the value lives, e.g. `benchmarks[dense_sim...].mean_ns`.
    pub key: String,
    /// The committed baseline value (`None` when the fresh report is
    /// missing the key entirely).
    pub baseline: Option<f64>,
    /// The fresh value (`None` when missing).
    pub fresh: Option<f64>,
    /// Human-readable statement of the violated bound.
    pub limit: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let num = |v: &Option<f64>| match v {
            Some(x) => format!("{x:.3}"),
            None => "missing".to_owned(),
        };
        write!(
            f,
            "{}: baseline {} -> fresh {} ({})",
            self.key,
            num(&self.baseline),
            num(&self.fresh),
            self.limit
        )
    }
}

fn check(key: String, baseline: f64, fresh: f64, out: &mut Vec<Violation>) {
    let violation = |limit: String| Violation {
        key: key.clone(),
        baseline: Some(baseline),
        fresh: Some(fresh),
        limit,
    };
    match classify(key.rsplit('.').next().unwrap_or(&key)) {
        Kind::Ignored => {}
        Kind::TimeNs => {
            if fresh > baseline * TIME_SLOWDOWN {
                out.push(violation(format!(
                    "allowed at most {TIME_SLOWDOWN}x slower"
                )));
            }
        }
        Kind::Rate => {
            if fresh < baseline / TIME_SLOWDOWN {
                out.push(violation(format!(
                    "allowed to drop to 1/{TIME_SLOWDOWN} of baseline"
                )));
            }
        }
        Kind::Speedup => {
            if fresh < baseline * SPEEDUP_FLOOR {
                out.push(violation(format!(
                    "must stay above {SPEEDUP_FLOOR} of baseline"
                )));
            }
        }
        Kind::Count => {
            let scale = baseline.abs().max(1.0);
            if (fresh - baseline).abs() > scale * COUNT_REL_TOL {
                out.push(violation(format!(
                    "deterministic value drifted beyond {COUNT_REL_TOL:e} relative"
                )));
            }
        }
    }
}

fn missing(key: String, baseline: Option<f64>, out: &mut Vec<Violation>) {
    out.push(Violation {
        key,
        baseline,
        fresh: None,
        limit: "present in baseline but missing from fresh report".to_owned(),
    });
}

/// Returns entries of a JSON array keyed by the string field `name_key`
/// (for `benchmarks`) or the numeric field rendered as text (for `rows`).
fn entry_label(entry: &Json, name_key: &str) -> Option<String> {
    match entry.get(name_key)? {
        Json::Str(s) => Some(s.clone()),
        Json::Num(n) => Some(format!("{n}")),
        _ => None,
    }
}

fn compare_keyed_array(
    section: &str,
    name_key: &str,
    baseline: &[Json],
    fresh: &[Json],
    out: &mut Vec<Violation>,
) {
    for b in baseline {
        let Some(label) = entry_label(b, name_key) else {
            continue;
        };
        let Some(f) = fresh
            .iter()
            .find(|e| entry_label(e, name_key).as_deref() == Some(&label))
        else {
            missing(format!("{section}[{label}]"), None, out);
            continue;
        };
        let Some(fields) = b.as_obj() else { continue };
        for (k, bv) in fields {
            if k == name_key || classify(k) == Kind::Ignored {
                continue;
            }
            let Some(bnum) = bv.as_f64() else { continue };
            match f.get(k).and_then(Json::as_f64) {
                Some(fnum) => check(format!("{section}[{label}].{k}"), bnum, fnum, out),
                None => missing(format!("{section}[{label}].{k}"), Some(bnum), out),
            }
        }
    }
}

/// Picks the label field for a `rows` array: experiment reports label rows
/// with a `name` field; the original `BENCH_mgmt_loss.json` keys rows by
/// their numeric `pdr` sweep point instead.
fn rows_label_key(rows: &[Json]) -> &'static str {
    let has = |k: &str| rows.first().is_some_and(|r| r.get(k).is_some());
    if has("name") {
        "name"
    } else {
        "pdr"
    }
}

/// Compares a baseline report against a fresh one. Both are whole JSON
/// documents in any committed shape (`BENCH_simulator.json` with
/// `benchmarks` + `metrics`, `BENCH_mgmt_loss.json` with `pdr`-keyed
/// `rows`, or the `BENCH_fig*.json` experiment reports with `name`-keyed
/// `rows`).
#[must_use]
pub fn compare_reports(baseline: &Json, fresh: &Json) -> Vec<Violation> {
    let mut out = Vec::new();
    let arr = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_arr).map(<[Json]>::to_vec);

    if let Some(base) = arr(baseline, "benchmarks") {
        let fresh_arr = arr(fresh, "benchmarks").unwrap_or_default();
        compare_keyed_array("benchmarks", "name", &base, &fresh_arr, &mut out);
    }
    if let Some(base) = arr(baseline, "rows") {
        let fresh_arr = arr(fresh, "rows").unwrap_or_default();
        let key = rows_label_key(&base);
        compare_keyed_array("rows", key, &base, &fresh_arr, &mut out);
    }
    if let Some(Json::Obj(base)) = baseline.get("metrics") {
        let empty = Vec::new();
        let fresh_metrics = match fresh.get("metrics") {
            Some(Json::Obj(m)) => m,
            _ => &empty,
        };
        for (k, bv) in base {
            if classify(k) == Kind::Ignored {
                continue;
            }
            let Some(bnum) = bv.as_f64() else { continue };
            let found = fresh_metrics
                .iter()
                .find(|(fk, _)| fk == k)
                .and_then(|(_, v)| v.as_f64());
            match found {
                Some(fnum) => check(format!("metrics.{k}"), bnum, fnum, &mut out),
                None => missing(format!("metrics.{k}"), Some(bnum), &mut out),
            }
        }
    }
    out
}

/// The scale report's per-active-cell rate must stay within this ratio
/// of the geometric mean across rows (the flat-cost acceptance bound).
pub const SCALE_FLATNESS_TOLERANCE: f64 = 0.25;

/// Invariants specific to `BENCH_scale.json`, checked on the *fresh*
/// report alone (they hold by construction, not relative to a baseline):
///
/// * `idle_wakeups` is zero on every row — the event calendar never woke
///   a slot without traffic;
/// * `active_cell_slots_per_sec` stays within
///   [`SCALE_FLATNESS_TOLERANCE`] of the geometric mean across rows —
///   per-active-cell cost is flat in the node count.
#[must_use]
pub fn scale_checks(fresh: &Json) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(rows) = fresh.get("rows").and_then(Json::as_arr) else {
        missing("rows".to_owned(), None, &mut out);
        return out;
    };
    let mut rates: Vec<(String, f64)> = Vec::new();
    for row in rows {
        let label = entry_label(row, "name").unwrap_or_else(|| "?".to_owned());
        let field = |k: &str| row.get(k).and_then(Json::as_f64);
        if let Some(wakeups) = field("idle_wakeups") {
            if wakeups != 0.0 {
                out.push(Violation {
                    key: format!("rows[{label}].idle_wakeups"),
                    baseline: Some(0.0),
                    fresh: Some(wakeups),
                    limit: "event calendar must never wake an idle slot".to_owned(),
                });
            }
        }
        if let Some(rate) = field("active_cell_slots_per_sec") {
            rates.push((label, rate));
        }
    }
    if rates.len() > 1 && rates.iter().all(|&(_, r)| r > 0.0) {
        let mean = (rates.iter().map(|(_, r)| r.ln()).sum::<f64>() / rates.len() as f64).exp();
        for (label, rate) in rates {
            let ratio = rate / mean;
            if !(1.0 - SCALE_FLATNESS_TOLERANCE..=1.0 + SCALE_FLATNESS_TOLERANCE).contains(&ratio) {
                out.push(Violation {
                    key: format!("rows[{label}].active_cell_slots_per_sec"),
                    baseline: Some(mean),
                    fresh: Some(rate),
                    limit: format!(
                        "per-active-cell rate must stay within \
                         ±{SCALE_FLATNESS_TOLERANCE} of the geometric mean"
                    ),
                });
            }
        }
    }
    out
}

/// [`scale_checks`] on a report string.
///
/// # Errors
///
/// Returns the parse error message if the document is not valid JSON.
pub fn scale_check_str(fresh: &str) -> Result<Vec<Violation>, String> {
    let f = parse(fresh).map_err(|e| format!("fresh: {e}"))?;
    Ok(scale_checks(&f))
}

/// Invariants specific to `BENCH_adjust_hot.json`, checked on the *fresh*
/// report alone: `adjusts_per_sec` must stay within
/// [`SCALE_FLATNESS_TOLERANCE`] of the geometric mean across rows. The
/// rows time the same fixed-depth adjustment on 1k–100k-node networks, so
/// any size-dependence in the rate is an `O(nodes)` residue on the
/// adjustment hot path — exactly what the undo-log rollback removed
/// (the legacy path cloned every node and the whole schedule per
/// adjustment).
#[must_use]
pub fn adjust_hot_checks(fresh: &Json) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(rows) = fresh.get("rows").and_then(Json::as_arr) else {
        missing("rows".to_owned(), None, &mut out);
        return out;
    };
    let mut rates: Vec<(String, f64)> = Vec::new();
    for row in rows {
        let label = entry_label(row, "name").unwrap_or_else(|| "?".to_owned());
        if let Some(rate) = row.get("adjusts_per_sec").and_then(Json::as_f64) {
            rates.push((label, rate));
        }
    }
    if rates.len() < 2 || rates.iter().any(|&(_, r)| r <= 0.0) {
        missing("rows[*].adjusts_per_sec".to_owned(), None, &mut out);
        return out;
    }
    let mean = (rates.iter().map(|(_, r)| r.ln()).sum::<f64>() / rates.len() as f64).exp();
    for (label, rate) in rates {
        let ratio = rate / mean;
        if !(1.0 - SCALE_FLATNESS_TOLERANCE..=1.0 + SCALE_FLATNESS_TOLERANCE).contains(&ratio) {
            out.push(Violation {
                key: format!("rows[{label}].adjusts_per_sec"),
                baseline: Some(mean),
                fresh: Some(rate),
                limit: format!(
                    "adjustment rate must stay within \
                     ±{SCALE_FLATNESS_TOLERANCE} of the geometric mean \
                     across network sizes"
                ),
            });
        }
    }
    out
}

/// [`adjust_hot_checks`] on a report string.
///
/// # Errors
///
/// Returns the parse error message if the document is not valid JSON.
pub fn adjust_hot_check_str(fresh: &str) -> Result<Vec<Violation>, String> {
    let f = parse(fresh).map_err(|e| format!("fresh: {e}"))?;
    Ok(adjust_hot_checks(&f))
}

/// Parses two report strings and compares them.
///
/// # Errors
///
/// Returns the parse error message (with which input failed) if either
/// document is not valid JSON.
pub fn compare_report_strs(baseline: &str, fresh: &str) -> Result<Vec<Violation>, String> {
    let b = parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let f = parse(fresh).map_err(|e| format!("fresh: {e}"))?;
    Ok(compare_reports(&b, &f))
}

/// Parses a bench manifest (`crates/bench/bench_manifest.txt`): one
/// workspace-relative report file per line, `#` comments and blank lines
/// ignored. The manifest is the single registry of gated reports — CI's
/// snapshot step and `bench_check --manifest` both consume it, so a
/// report is registered exactly once.
#[must_use]
pub fn manifest_files(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
      "benchmarks": [
        {"name": "dense", "iters": 982, "total_ns": 200107149, "mean_ns": 200000.0},
        {"name": "slow", "iters": 10, "total_ns": 1, "mean_ns": 1000000.0}
      ],
      "metrics": {
        "dense_speedup_vs_reference": 6.8,
        "dense_slots_per_sec": 13000000.0
      }
    }"#;

    fn fresh_with(dense_ns: f64, speedup: f64, rate: f64) -> String {
        format!(
            r#"{{
              "benchmarks": [
                {{"name": "dense", "iters": 5, "total_ns": 9, "mean_ns": {dense_ns}}},
                {{"name": "slow", "iters": 5, "total_ns": 9, "mean_ns": 1100000.0}}
              ],
              "metrics": {{
                "dense_speedup_vs_reference": {speedup},
                "dense_slots_per_sec": {rate}
              }}
            }}"#
        )
    }

    #[test]
    fn identical_reports_pass() {
        let v = compare_report_strs(BASELINE, BASELINE).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn noise_within_tolerance_passes() {
        // 2x slower timing, 20% lower speedup, 30% lower rate: all noise.
        let fresh = fresh_with(400_000.0, 5.5, 9_000_000.0);
        let v = compare_report_strs(BASELINE, &fresh).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn synthetic_slowdown_beyond_tolerance_trips() {
        // 5x the baseline mean_ns: beyond TIME_SLOWDOWN.
        let fresh = fresh_with(1_000_000.0, 6.8, 13_000_000.0);
        let v = compare_report_strs(BASELINE, &fresh).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].key, "benchmarks[dense].mean_ns");
        assert!(v[0].to_string().contains("4x slower"));
    }

    #[test]
    fn rate_collapse_trips() {
        let fresh = fresh_with(200_000.0, 6.8, 2_000_000.0);
        let v = compare_report_strs(BASELINE, &fresh).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].key, "metrics.dense_slots_per_sec");
    }

    #[test]
    fn speedup_collapse_trips() {
        let fresh = fresh_with(200_000.0, 2.0, 13_000_000.0);
        let v = compare_report_strs(BASELINE, &fresh).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].key, "metrics.dense_speedup_vs_reference");
    }

    #[test]
    fn missing_benchmark_trips() {
        let fresh = r#"{"benchmarks": [], "metrics": {}}"#;
        let v = compare_report_strs(BASELINE, fresh).unwrap();
        assert!(v.iter().any(|x| x.key == "benchmarks[dense]"));
        assert!(v.iter().any(|x| x.key == "metrics.dense_slots_per_sec"));
    }

    #[test]
    fn new_keys_in_fresh_are_fine() {
        let fresh = r#"{
          "benchmarks": [
            {"name": "dense", "mean_ns": 200000.0},
            {"name": "slow", "mean_ns": 1000000.0},
            {"name": "brand_new", "mean_ns": 5.0}
          ],
          "metrics": {
            "dense_speedup_vs_reference": 6.8,
            "dense_slots_per_sec": 13000000.0,
            "extra_metric": 42.0
          },
          "obs": {"counters": {"sim.slots": 1}}
        }"#;
        let v = compare_report_strs(BASELINE, fresh).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn deterministic_rows_are_strict() {
        let base = r#"{"rows": [
            {"pdr": 1, "static_messages": 139.0, "retransmissions": 0.0}
        ]}"#;
        let drifted = r#"{"rows": [
            {"pdr": 1, "static_messages": 141.0, "retransmissions": 0.0}
        ]}"#;
        let v = compare_report_strs(base, drifted).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].key, "rows[1].static_messages");
        // Identical rows pass.
        assert!(compare_report_strs(base, base).unwrap().is_empty());
    }

    #[test]
    fn name_keyed_rows_use_name_label() {
        let base = r#"{"rows": [
            {"name": "sf0", "slotframes": 12.0, "mean_latency_slots": 3.5}
        ]}"#;
        let drifted = r#"{"rows": [
            {"name": "sf0", "slotframes": 13.0, "mean_latency_slots": 3.5}
        ]}"#;
        let v = compare_report_strs(base, drifted).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].key, "rows[sf0].slotframes");
        assert!(compare_report_strs(base, base).unwrap().is_empty());
    }

    #[test]
    fn baseline_column_missing_from_fresh_row_trips() {
        // Dropping a report column needs the baseline recommitted with it.
        let base = r#"{"rows": [
            {"name": "scale_1k", "delivered": 181548.0, "removed_column": 1.0}
        ]}"#;
        let fresh = r#"{"rows": [{"name": "scale_1k", "delivered": 181548.0}]}"#;
        let v = compare_report_strs(base, fresh).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].key, "rows[scale_1k].removed_column");
        assert_eq!(v[0].fresh, None);
        // The other direction — a new column in the fresh row — is fine.
        assert!(compare_report_strs(fresh, base).unwrap().is_empty());
    }

    #[test]
    fn committed_baselines_self_compare_clean() {
        // Every report the manifest registers must exist, parse, and
        // self-compare empty — the manifest and the committed artefacts
        // cannot drift apart.
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("bench_manifest.txt");
        let files = manifest_files(&std::fs::read_to_string(&manifest).unwrap());
        assert!(files.len() >= 13, "manifest lists the gated reports");
        for file in files {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../")
                .join(&file);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("manifest entry {file} unreadable: {e}"));
            let v = compare_report_strs(&text, &text).unwrap();
            assert!(v.is_empty(), "{file}: {v:?}");
        }
    }

    #[test]
    fn manifest_parser_skips_comments_and_blanks() {
        let files = manifest_files("# registry\n\nBENCH_a.json\n  BENCH_b.json  \n# tail\n");
        assert_eq!(files, vec!["BENCH_a.json", "BENCH_b.json"]);
    }

    #[test]
    fn bench_threads_metric_is_ignored() {
        let base = r#"{"metrics": {"bench_threads": 2.0, "x_per_sec": 100.0}}"#;
        let fresh = r#"{"metrics": {"bench_threads": 64.0, "x_per_sec": 100.0}}"#;
        assert!(compare_report_strs(base, fresh).unwrap().is_empty());
    }

    #[test]
    fn scale_checks_accept_flat_zero_wakeup_rows() {
        let fresh = r#"{"rows": [
            {"name": "scale_1k", "idle_wakeups": 0.0,
             "active_cell_slots_per_sec": 95000.0},
            {"name": "scale_1m", "idle_wakeups": 0.0,
             "active_cell_slots_per_sec": 105000.0}
        ]}"#;
        assert!(scale_check_str(fresh).unwrap().is_empty());
    }

    #[test]
    fn scale_checks_trip_on_wakeups_and_drift() {
        let fresh = r#"{"rows": [
            {"name": "scale_1k", "idle_wakeups": 3.0,
             "active_cell_slots_per_sec": 100000.0},
            {"name": "scale_1m", "idle_wakeups": 0.0,
             "active_cell_slots_per_sec": 20000.0}
        ]}"#;
        let v = scale_check_str(fresh).unwrap();
        assert!(v.iter().any(|x| x.key == "rows[scale_1k].idle_wakeups"));
        assert!(v
            .iter()
            .any(|x| x.key == "rows[scale_1m].active_cell_slots_per_sec"));
    }

    #[test]
    fn adjust_hot_checks_accept_flat_rates() {
        let fresh = r#"{"rows": [
            {"name": "1k", "adjusts_per_sec": 110000.0},
            {"name": "10k", "adjusts_per_sec": 95000.0},
            {"name": "100k", "adjusts_per_sec": 105000.0}
        ]}"#;
        assert!(adjust_hot_check_str(fresh).unwrap().is_empty());
    }

    #[test]
    fn adjust_hot_checks_trip_on_size_dependent_rates() {
        // A 10x fall from 1k to 100k is the O(nodes) signature the gate
        // exists to catch; only the drifted rows are named.
        let fresh = r#"{"rows": [
            {"name": "1k", "adjusts_per_sec": 100000.0},
            {"name": "10k", "adjusts_per_sec": 33000.0},
            {"name": "100k", "adjusts_per_sec": 10000.0}
        ]}"#;
        let v = adjust_hot_check_str(fresh).unwrap();
        assert!(v.iter().any(|x| x.key == "rows[1k].adjusts_per_sec"));
        assert!(v.iter().any(|x| x.key == "rows[100k].adjusts_per_sec"));
        assert!(!v.iter().any(|x| x.key == "rows[10k].adjusts_per_sec"));
    }

    #[test]
    fn adjust_hot_checks_demand_usable_rows() {
        // No rows section, a single row, and a zero rate are all reported
        // as missing data rather than silently passing.
        for fresh in [
            r#"{"metrics": {"rounds": 7.0}}"#,
            r#"{"rows": [{"name": "1k", "adjusts_per_sec": 100000.0}]}"#,
            r#"{"rows": [
                {"name": "1k", "adjusts_per_sec": 0.0},
                {"name": "10k", "adjusts_per_sec": 100000.0}
            ]}"#,
        ] {
            assert_eq!(adjust_hot_check_str(fresh).unwrap().len(), 1, "{fresh}");
        }
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(compare_report_strs("{", "{}").is_err());
        assert!(compare_report_strs("{}", "nope").is_err());
    }
}
