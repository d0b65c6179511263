//! The paper's claims, checked against the committed reports.
//!
//! The report gate holds every `BENCH_*.json` byte-identical, but nothing
//! else says that the bytes still show what the paper shows. This file
//! does, standard library and `harp_obs::json` only, in three parts:
//!
//! - *claims*, one test per figure or table: the shape the paper reports
//!   (HARP collision-free where the paper has it so, APaS's `3l − 1` law,
//!   costs that grow with depth, recovery after a local step);
//! - *ratchets*, where the reproduction is further from the paper than it
//!   should be: each holds the committed value as a ceiling and prints the
//!   paper's number beside it. A change that closes a gap lowers its
//!   ceiling;
//! - *doc sync*: every table EXPERIMENTS.md copies from a report equals
//!   that report, within the rounding it is printed with.

use std::fs;
use std::path::PathBuf;

use harp_obs::json::parse;

/// A parsed report; its text lives as long as the test binary.
type Json = harp_obs::json::Json<'static>;
use workloads::scenario_dsl::parse_scenario;

/// The paper's numbers the ratchets print beside the reproduction's.
mod paper {
    /// Table II: the most management messages any of the six events
    /// exchanges (its events cost 2–9).
    pub const TABLE2_MAX_MESSAGES: f64 = 9.0;
    /// Fig. 10: after the escalated step the latency settles within about
    /// one slotframe (199 slots of 10 ms).
    pub const FIG10_SETTLED_S: f64 = 1.99;
    /// Fig. 12: HARP's cost at layer 10. The paper gives no number, only
    /// a curve that stays nearly flat over depth.
    pub const FIG12_HARP_AT_LAYER_10: &str = "nearly flat over depth";
}

/// Ceilings on where the reproduction stands today.
mod ratchet {
    /// Table II's most management messages of one event.
    pub const TABLE2_MAX_MESSAGES: f64 = 23.0;
    /// Fig. 10's settled latency after the escalated step, in seconds.
    pub const FIG10_SETTLED_S: f64 = 4.11;
    /// Fig. 12's HARP mean at layer 10, in messages.
    pub const FIG12_HARP_AT_LAYER_10: f64 = 20.867;
}

/// One slot of the testbed, in seconds.
const SLOT_S: f64 = 0.010;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(name: &str) -> String {
    let path = root().join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A committed report, parsed.
fn report(name: &str) -> Json {
    let text: &'static str = Box::leak(read(name).into_boxed_str());
    parse(text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// A report's rows.
fn rows(report: &Json) -> &[Json] {
    report
        .get("rows")
        .and_then(Json::as_arr)
        .expect("a report has rows")
}

/// The row named `name`.
fn row<'j>(report: &'j Json, name: &str) -> &'j Json {
    rows(report)
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("no row {name}"))
}

fn name(row: &Json) -> &str {
    row.get("name")
        .and_then(Json::as_str)
        .expect("a row has a name")
}

fn num(row: &Json, key: &str) -> f64 {
    row.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("row {} has no number {key}", name(row)))
}

/// The schedulers HARP is compared with in Fig. 11.
const BASELINES: [&str; 4] = ["random", "msf", "alice", "ldsf"];

fn harp_is_never_worse_than_a_baseline(report: &Json) {
    for r in rows(report) {
        for baseline in BASELINES {
            assert!(
                num(r, "harp") <= num(r, baseline),
                "{}: harp {} above {baseline} {}",
                name(r),
                num(r, "harp"),
                num(r, baseline)
            );
        }
    }
}

/// Fig. 11(a): HARP is collision-free at rates 1–7, and at no rate worse
/// than a baseline.
#[test]
fn fig11a_harp_is_collision_free_below_rate_8_and_never_worse() {
    let fig = report("BENCH_fig11a.json");
    for rate in 1..=7 {
        assert_eq!(
            num(row(&fig, &format!("rate{rate}")), "harp"),
            0.0,
            "rate {rate}"
        );
    }
    harp_is_never_worse_than_a_baseline(&fig);
}

/// Fig. 11(b): at rate 3 HARP is collision-free at every channel count, and
/// at no point worse than a baseline.
#[test]
fn fig11b_harp_is_collision_free_at_rate_3_and_never_worse() {
    let fig = report("BENCH_fig11b.json");
    let rate3: Vec<&Json> = rows(&fig)
        .iter()
        .filter(|r| name(r).starts_with("r3c"))
        .collect();
    assert!(rate3.len() >= 5, "the rate-3 sweep has its channel counts");
    for r in rate3 {
        assert_eq!(num(r, "harp"), 0.0, "{}", name(r));
    }
    harp_is_never_worse_than_a_baseline(&fig);
}

/// Fig. 12: APaS costs exactly `3l − 1` packets at layer `l`, and HARP
/// less at every layer.
#[test]
fn fig12_apas_follows_3l_minus_1_and_harp_is_cheaper() {
    let fig = report("BENCH_fig12.json");
    for layer in 1..=10u32 {
        let r = row(&fig, &format!("L{layer:02}"));
        assert_eq!(
            num(r, "apas_packets"),
            f64::from(3 * layer - 1),
            "layer {layer}"
        );
        assert!(
            num(r, "harp_messages") < num(r, "apas_packets"),
            "layer {layer}: HARP {} is not below APaS",
            num(r, "harp_messages")
        );
    }
}

/// The management causes of a protocol run's messages (`ProtocolReport`'s
/// `causes`, less the cell assignments): the columns that sum to its
/// management messages.
const MGMT_CAUSES: [&str; 5] = ["climb", "grant", "sibling_move", "bystander", "translation"];

/// Every management message of Table II and Fig. 12 has a cause: the
/// cause columns sum to the messages, exactly in Table II and, in Fig.
/// 12's means, within the rounding of the five printed columns.
#[test]
fn message_causes_sum_to_the_messages() {
    let table = report("BENCH_table2.json");
    for r in rows(&table) {
        let by_cause: f64 = MGMT_CAUSES.iter().map(|c| num(r, c)).sum();
        assert_eq!(by_cause, num(r, "mgmt_messages"), "{}", name(r));
    }
    let fig = report("BENCH_fig12.json");
    for r in rows(&fig) {
        let by_cause: f64 = MGMT_CAUSES
            .iter()
            .map(|c| num(r, &format!("harp_{c}")))
            .sum();
        let messages = num(r, "harp_messages");
        assert!(
            (by_cause - messages).abs() <= 6.0 * 0.0005 + 1e-9,
            "{}: causes sum to {by_cause}, the messages are {messages}",
            name(r)
        );
    }
}

/// The link layer of a Table II event (`C5_L3_N17` is at layer 3).
fn event_layer(row: &Json) -> u32 {
    name(row)
        .split('_')
        .find_map(|part| part.strip_prefix('L')?.parse().ok())
        .unwrap_or_else(|| panic!("{} names no layer", name(row)))
}

/// Table II: an event deeper in the tree never settles in fewer slotframes.
#[test]
fn table2_slotframes_never_fall_as_the_layer_rises() {
    let table = report("BENCH_table2.json");
    let events = rows(&table);
    assert_eq!(events.len(), 6, "the paper's six events");
    for a in events {
        for b in events.iter().filter(|b| event_layer(a) < event_layer(b)) {
            assert!(
                num(a, "slotframes") <= num(b, "slotframes"),
                "{} settles in more slotframes than the deeper {}",
                name(a),
                name(b)
            );
        }
    }
}

/// Fig. 9: the exact-provisioned static run never collides.
#[test]
fn fig9_the_exact_run_has_no_collisions() {
    let fig = report("BENCH_fig9.json");
    let metrics = fig.get("metrics").expect("Fig. 9 has metrics");
    assert_eq!(num(metrics, "exact_collisions"), 0.0);
    assert!(num(metrics, "exact_delivered") > 0.0);
}

/// The observed node's latency per slotframe, in slots, and the frames of
/// its two rate steps, read from the scenario that produced the report.
fn fig10() -> (Vec<f64>, u64, u64) {
    let fig = report("BENCH_fig10.json");
    let latency: Vec<f64> = rows(&fig)
        .iter()
        .map(|r| num(r, "mean_latency_slots"))
        .collect();
    let scenario = parse_scenario(&read("scenarios/fig10_dynamic.scn")).expect("Fig. 10 parses");
    let steps: Vec<u64> = scenario
        .workload
        .rate_steps
        .iter()
        .map(|s| s.at_frame)
        .collect();
    let [local, escalated] = steps[..] else {
        panic!("Fig. 10 has two rate steps, not {steps:?}");
    };
    (latency, local, escalated)
}

/// Fig. 10: after the local step, the latency comes back to where it was
/// before it, well ahead of the escalated step.
#[test]
fn fig10_the_local_step_recovers_to_the_pre_step_steady_state() {
    let (latency, local, escalated) = fig10();
    let (local, escalated) = (local as usize, escalated as usize);
    let before = latency[local - 1];
    assert!(
        latency[local..local + 3].iter().any(|&l| l > before),
        "the local step shows an excursion"
    );
    // The last ten slotframes before the escalated step.
    for (frame, &l) in latency
        .iter()
        .enumerate()
        .take(escalated)
        .skip(escalated - 10)
    {
        assert!(
            l <= before,
            "slotframe {frame}: {l} slots, above the pre-step {before}"
        );
    }
}

/// Prints a ratchet beside the paper's number and holds it.
fn hold(what: &str, value: f64, ceiling: f64, paper: &str) {
    println!("ratchet {what}: {value} (ceiling {ceiling}; paper: {paper})");
    assert!(
        value <= ceiling,
        "{what} rose to {value}, above its ceiling {ceiling}"
    );
}

#[test]
fn ratchet_table2_max_messages() {
    let table = report("BENCH_table2.json");
    let most = rows(&table)
        .iter()
        .map(|r| num(r, "mgmt_messages"))
        .fold(0.0, f64::max);
    hold(
        "Table II max messages",
        most,
        ratchet::TABLE2_MAX_MESSAGES,
        &paper::TABLE2_MAX_MESSAGES.to_string(),
    );
}

#[test]
fn ratchet_fig10_settled_latency_after_the_escalated_step() {
    let (latency, _, _) = fig10();
    let settled = latency.last().expect("Fig. 10 has rows") * SLOT_S;
    let settled = (settled * 100.0).round() / 100.0;
    hold(
        "Fig. 10 settled latency after the escalated step (s)",
        settled,
        ratchet::FIG10_SETTLED_S,
        &format!("about one slotframe, {} s", paper::FIG10_SETTLED_S),
    );
}

#[test]
fn ratchet_fig12_harp_at_layer_10() {
    let fig = report("BENCH_fig12.json");
    hold(
        "Fig. 12 HARP mean at layer 10",
        num(row(&fig, "L10"), "harp_messages"),
        ratchet::FIG12_HARP_AT_LAYER_10,
        paper::FIG12_HARP_AT_LAYER_10,
    );
}

/// The tables of an EXPERIMENTS.md section (`## <heading>…` up to the next
/// `## `), each as its body rows of cells, header and rule left out.
fn doc_tables(heading: &str) -> Vec<Vec<Vec<String>>> {
    let doc = read("EXPERIMENTS.md");
    let start = doc
        .find(&format!("\n## {heading}"))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no section {heading}"));
    let section = &doc[start + 1..];
    let section = &section[..section[3..].find("\n## ").map_or(section.len(), |e| e + 3)];
    let mut tables = Vec::new();
    let mut current: Vec<Vec<String>> = Vec::new();
    for line in section.lines().map(str::trim) {
        if let Some(inner) = line.strip_prefix('|') {
            current.push(
                inner
                    .trim_end_matches('|')
                    .split('|')
                    .map(|c| c.trim().to_owned())
                    .collect(),
            );
        } else if !current.is_empty() {
            tables.push(std::mem::take(&mut current).split_off(2));
        }
    }
    if !current.is_empty() {
        tables.push(current.split_off(2));
    }
    tables
}

/// Whether a printed cell (`1.1 %`, `3.385`, `0 %`) equals `value` within
/// the rounding it is printed with; a `%` cell prints `value` × 100.
fn printed_as(cell: &str, value: f64) -> bool {
    let (text, scale) = match cell.strip_suffix('%') {
        Some(t) => (t.trim(), 100.0),
        None => (cell, 1.0),
    };
    let printed: f64 = text
        .parse()
        .unwrap_or_else(|_| panic!("`{cell}` is not a number"));
    let decimals = text.split_once('.').map_or(0, |(_, d)| d.len());
    let half_unit = 0.5 * 10f64.powi(-(decimals as i32));
    (printed - value * scale).abs() <= half_unit + 1e-9
}

fn assert_cells(doc_row: &[String], report_row: &Json, columns: &[(usize, &str)]) {
    for &(at, key) in columns {
        assert!(
            printed_as(&doc_row[at], num(report_row, key)),
            "EXPERIMENTS.md prints {} for {key} of {}, the report has {}",
            doc_row[at],
            name(report_row),
            num(report_row, key)
        );
    }
}

/// The four columns the Fig. 11 tables print.
const FIG11_COLUMNS: [(usize, &str); 4] = [(1, "random"), (2, "msf"), (3, "ldsf"), (4, "harp")];

#[test]
fn doc_fig11a_table_equals_its_report() {
    let fig = report("BENCH_fig11a.json");
    let tables = doc_tables("Fig. 11(a)");
    assert_eq!(tables.len(), 1);
    for doc_row in &tables[0] {
        let r = row(&fig, &format!("rate{}", doc_row[0]));
        assert_cells(doc_row, r, &FIG11_COLUMNS);
    }
}

#[test]
fn doc_fig11b_tables_equal_their_report() {
    let fig = report("BENCH_fig11b.json");
    let tables = doc_tables("Fig. 11(b)");
    assert_eq!(tables.len(), 2, "one table at rate 3, one at rate 6");
    for (table, rate) in tables.iter().zip([3, 6]) {
        for doc_row in table {
            let channels: u32 = doc_row[0].parse().expect("a channel count");
            let r = row(&fig, &format!("r{rate}c{channels:02}"));
            assert_cells(doc_row, r, &FIG11_COLUMNS);
        }
    }
}

#[test]
fn doc_fig12_table_equals_its_report() {
    let fig = report("BENCH_fig12.json");
    let tables = doc_tables("Fig. 12");
    assert_eq!(tables.len(), 1);
    for doc_row in &tables[0] {
        let layer: u32 = doc_row[0].parse().expect("a layer");
        let r = row(&fig, &format!("L{layer:02}"));
        assert_cells(
            doc_row,
            r,
            &[
                (1, "apas_packets"),
                (2, "harp_messages"),
                (3, "harp_climb"),
                (4, "harp_grant"),
                (5, "harp_sibling_move"),
                (6, "harp_bystander"),
                (7, "harp_translation"),
            ],
        );
    }
}

#[test]
fn doc_table2_equals_its_report() {
    let table = report("BENCH_table2.json");
    let tables = doc_tables("Table II");
    assert_eq!(tables.len(), 1);
    assert_eq!(tables[0].len(), rows(&table).len(), "one line per event");
    for (doc_row, r) in tables[0].iter().zip(rows(&table)) {
        assert_cells(
            doc_row,
            r,
            &[
                (1, "involved_nodes"),
                (2, "mgmt_messages"),
                (3, "seconds"),
                (4, "slotframes"),
                (5, "climb"),
                (6, "grant"),
                (7, "sibling_move"),
                (8, "bystander"),
                (9, "translation"),
            ],
        );
    }
}
