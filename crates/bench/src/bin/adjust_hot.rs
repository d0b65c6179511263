//! Adjustment hot path at scale: is a settle as local as Algorithm 2?
//!
//! HARP's partition adjustment (§V, Alg. 2) touches only the nodes on the
//! path from the changed link toward the gateway, so its cost should track
//! the *escalation depth*, never the network size. The allocator's rollback
//! machinery is the part of the implementation where that locality is
//! easiest to lose: a clone-everything snapshot costs `O(nodes)` per
//! adjustment and turns the constant-depth algorithm into a linear one.
//! This benchmark pins the fix — an undo log of the values a run
//! displaces — by timing the *same* adjustment (same link, same depth,
//! same demand delta) on 1k, 10k and 100k-node networks and asserting the
//! rate stays flat.
//!
//! Construction, per size:
//!
//! * a seeded [`workloads::TopologyConfig`] tree with exactly
//!   [`ADJUST_DEPTH`] layers. The generator lays a backbone chain first, so
//!   `NodeId(1..=ADJUST_DEPTH)` sit at depths `1..=ADJUST_DEPTH` in every
//!   tree regardless of the node count — the adjusted link is pinned to the
//!   same depth on every row;
//! * sparse, path-routed demand: [`SOURCES`] depth-[`ADJUST_DEPTH`] nodes
//!   each contribute one uplink cell along their whole path to the gateway.
//!   Uniform per-node demand would overflow the 199×16 slotframe long
//!   before 100k nodes; routed demand keeps every size feasible while
//!   still exercising multi-hop interfaces on the adjusted path;
//! * the timed loop alternates the cell requirement of
//!   `Link::up(NodeId(ADJUST_DEPTH))` between [`SWING_HIGH`] and 1. The
//!   first raise (warmup) escalates through the whole
//!   [`ADJUST_DEPTH`]-deep chain of resource interfaces; the parent then
//!   retains the slack (§V releases locally), so every *timed*
//!   adjustment is the steady-state transaction: log the displaced
//!   values, move `SWING_HIGH - 1` cells in the parent's partition,
//!   settle the confirming cell message, whose child installs the cells
//!   in its link's row. Rollback never fires — the log cost measured is the
//!   pure bookkeeping overhead the old snapshot paid as `O(nodes)`.
//!
//! Rounds interleave the sizes (1k, 10k, 100k, 1k, ...) so minutes-scale
//! host throttling hits all rows alike; the per-size medians across rounds
//! are printed as `timing` lines. A full run then holds `adjusts_per_sec`
//! to the same ±25% of the geometric mean across rows as the engine-scale
//! study ([`harp_bench::harness::assert_flat`]) and exits non-zero
//! outside it: any size-dependence in the rate is an `O(nodes)` residue on
//! the adjustment hot path.
//!
//! Writes `BENCH_adjust_hot.json` at the workspace root: the matrix and
//! the protocol traffic per adjustment, which the seeds determine.
//! `--quick` runs a shrunk matrix and prints the report to stdout without
//! writing it or judging flatness, so a validation run can never overwrite
//! the committed baseline.

use harp_bench::harness::{
    assert_flat, median, print_timing, rows_json, to_json_with_sections, write_report, Args,
};
use harp_core::{AllocatorHandle, Requirements, SchedulingPolicy};
use std::collections::BTreeMap;
use std::time::Instant;
use tsch_sim::{Link, NodeId, SlotframeConfig};
use workloads::TopologyConfig;

/// Depth of the adjusted link — and of the tree, so the escalation chain
/// is as long as the topology allows and identical on every row.
const ADJUST_DEPTH: u32 = 8;

/// Demand sources: nodes at [`ADJUST_DEPTH`] whose gateway paths carry one
/// uplink cell each. Eight paths keep the busiest link (the backbone's
/// first hop, where paths merge) far below the slotframe bound.
const SOURCES: usize = 8;

/// High point of the alternating demand swing. The first raise escalates
/// to the gateway (warmup); after that the parent retains the slack — §V
/// releases locally — so every timed adjustment moves `SWING_HIGH - 1`
/// cells through the parent's partition, the schedule rows and the undo
/// log without further escalation. The batch makes the measured work
/// deterministic and large enough to dominate per-tree structural noise
/// (the parent's child count differs between seeded topologies).
const SWING_HIGH: u32 = 33;

/// Untimed adjustments before the first measured round: they trigger the
/// one-time escalation that provisions the slack and warm allocator-side
/// lazy state (interface maps) on every row.
const WARMUP_ADJUSTS: usize = 16;

/// Timed adjustments per round per size; even, so the alternating swing
/// contributes the same raise/lower mix to every round.
const ADJUSTS_PER_ROUND: usize = 64;

/// Measurement rounds; the per-size median across rounds is reported.
const ROUNDS: usize = 7;

fn sizes(quick: bool) -> Vec<(&'static str, u32)> {
    if quick {
        vec![("1k", 1_000), ("4k", 4_000)]
    } else {
        vec![("1k", 1_000), ("10k", 10_000), ("100k", 100_000)]
    }
}

fn scenario_seed(nodes: u32) -> u64 {
    0xADBE_0000 | u64::from(nodes)
}

/// One size's converged allocator plus its sampled rates.
struct SizeRun {
    label: &'static str,
    nodes: u32,
    handle: AllocatorHandle,
    /// Next cell count for the alternating adjustment ([`SWING_HIGH`] or
    /// 1); carried across rounds so every adjustment is a real change.
    next_cells: u32,
    rates: Vec<f64>,
    mean_ns: Vec<f64>,
}

impl SizeRun {
    /// Runs `count` alternating adjustments, asserting each settles.
    fn adjust_burst(&mut self, count: usize) {
        let link = Link::up(NodeId(ADJUST_DEPTH));
        for _ in 0..count {
            self.handle
                .adjust(link, self.next_cells)
                .expect("the alternating swing fits the provisioned slack");
            self.next_cells = if self.next_cells == 1 { SWING_HIGH } else { 1 };
        }
    }
}

/// Builds the tree, routes the sparse demand and converges the allocator.
fn build_size(label: &'static str, nodes: u32) -> SizeRun {
    let tree = TopologyConfig {
        nodes,
        layers: ADJUST_DEPTH,
        max_children: 64,
    }
    .generate(scenario_seed(nodes));
    let deep: Vec<NodeId> = tree
        .nodes()
        .filter(|&v| tree.depth(v) == ADJUST_DEPTH)
        .take(SOURCES)
        .collect();
    assert!(
        deep.contains(&NodeId(ADJUST_DEPTH)),
        "backbone chain must place NodeId({ADJUST_DEPTH}) at depth {ADJUST_DEPTH}"
    );
    assert_eq!(deep.len(), SOURCES, "not enough depth-{ADJUST_DEPTH} nodes");
    let mut demand: BTreeMap<Link, u32> = BTreeMap::new();
    for &source in &deep {
        for hop in tree.path_to_root(source) {
            if hop != tree.root() {
                *demand.entry(Link::up(hop)).or_insert(0) += 1;
            }
        }
    }
    let mut reqs = Requirements::new();
    for (&link, &cells) in &demand {
        reqs.set(link, cells);
    }
    let handle = AllocatorHandle::converge(
        tree,
        SlotframeConfig::paper_default(),
        &reqs,
        SchedulingPolicy::RateMonotonic,
    )
    .expect("sparse routed demand fits the paper slotframe at every size");
    SizeRun {
        label,
        nodes,
        handle,
        next_cells: SWING_HIGH,
        rates: Vec::new(),
        mean_ns: Vec::new(),
    }
}

fn main() {
    let quick = Args::parse("usage: adjust_hot [--quick]").flag("--quick");
    let rounds = if quick { 3 } else { ROUNDS };
    let adjusts_per_round = if quick { 16 } else { ADJUSTS_PER_ROUND };

    let mut runs: Vec<SizeRun> = sizes(quick)
        .into_iter()
        .map(|(label, nodes)| {
            eprintln!("# adjust_hot: building {label} ({nodes} nodes)");
            let mut run = build_size(label, nodes);
            run.adjust_burst(WARMUP_ADJUSTS);
            run
        })
        .collect();

    // Protocol traffic per adjustment is deterministic; snapshot the
    // totals here so the timed window alone defines the per-adjust
    // averages. Steady-state mgmt is zero by construction (no further
    // escalation); the cell messages prove the settles are real.
    let traffic_before: Vec<(u64, u64)> = runs
        .iter()
        .map(|r| {
            (
                r.handle.mgmt_messages_total(),
                r.handle.cell_messages_total(),
            )
        })
        .collect();

    for round in 0..rounds {
        for run in &mut runs {
            let start = Instant::now();
            run.adjust_burst(adjusts_per_round);
            let elapsed = start.elapsed();
            #[allow(clippy::cast_precision_loss)]
            let per_adjust_ns = elapsed.as_nanos() as f64 / adjusts_per_round as f64;
            run.mean_ns.push(per_adjust_ns);
            run.rates.push(1e9 / per_adjust_ns);
        }
        eprintln!("# adjust_hot: round {}/{rounds} done", round + 1);
    }

    let mut rows: Vec<(String, Vec<(&str, f64)>)> = Vec::new();
    let mut rates: Vec<(String, f64)> = Vec::new();
    for (run, &(mgmt_before, cells_before)) in runs.iter().zip(&traffic_before) {
        let label = run.label.to_owned();
        print_timing(
            &format!("{label}.mean_adjust_ns"),
            median(&run.mean_ns),
            "ns",
        );
        let rate = median(&run.rates);
        print_timing(&format!("{label}.adjusts_per_sec"), rate, "1/s");
        rates.push((label.clone(), rate));
        let timed_adjusts = (rounds * adjusts_per_round) as u64;
        #[allow(clippy::cast_precision_loss)]
        let per_adjust = |total: u64, before: u64| (total - before) as f64 / timed_adjusts as f64;
        rows.push((
            label,
            vec![
                ("nodes", f64::from(run.nodes)),
                ("adjust_depth", f64::from(ADJUST_DEPTH)),
                (
                    "mgmt_messages_per_adjust",
                    per_adjust(run.handle.mgmt_messages_total(), mgmt_before),
                ),
                (
                    "cell_messages_per_adjust",
                    per_adjust(run.handle.cell_messages_total(), cells_before),
                ),
            ],
        ));
    }

    #[allow(clippy::cast_precision_loss)]
    let metrics: Vec<(&str, f64)> = vec![
        ("rounds", rounds as f64),
        ("adjusts_per_round", adjusts_per_round as f64),
        ("warmup_adjusts", WARMUP_ADJUSTS as f64),
        ("demand_sources", SOURCES as f64),
    ];
    let json = to_json_with_sections(&metrics, &[("rows", rows_json(&rows))]);
    if quick {
        // Never overwrite the committed baseline with quick-run numbers.
        println!("{json}");
        return;
    }
    write_report("BENCH_adjust_hot.json", &json);
    assert_flat("adjustment rate", &rates);
}
