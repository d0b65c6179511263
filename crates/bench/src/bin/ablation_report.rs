//! Ablation report for the design choices DESIGN.md §7 calls out:
//!
//! 1. best-fit skyline vs greedy MaxRects vs the FFDH shelf packer vs the
//!    exact optimum (solution quality on composition-shaped workloads);
//! 2. the two-pass SPP mapping of Alg. 1 vs stopping after pass 1
//!    (channel waste);
//! 3. Alg. 2's neighbour-first adjustment vs an immediate full repack
//!    (partitions moved = messages sent).
//!
//! Writes `BENCH_ablation.json` at the workspace root: one gated row per
//! ablation point plus the packing counters. Every instance is seeded, so
//! the report is a function of the source tree like every other.
//!
//! Run with `cargo run --release -p harp-bench --bin ablation_report`.

use harp_bench::harness::{
    print_bench_threads, rows_json, to_json_with_sections, write_report, Args,
};
use harp_bench::{bench_threads, mean, par_map};
use harp_core::{adjust_partition, compose_components, ResourceComponent};
use harp_obs::MetricsSnapshot;
use packing::shelf::pack_strip_ffdh;
use packing::{exact_strip_height, pack_into, pack_strip, FreeSpace, Rect, Size};
use tsch_sim::{NodeId, SplitMix64};

/// Seeded instances per ablation point.
const INSTANCES: u64 = 40;

fn components(n: usize, seed: u64) -> Vec<Size> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Size::new(1 + rng.next_below(4) as u32, 1 + rng.next_below(8) as u32))
        .collect()
}

/// Minimal strip height at which greedy MaxRects places every item:
/// scans up from the area/tallest-item lower bound. Any height it
/// succeeds at is a feasible packing, so the ratio to the exact optimum
/// is a true quality factor (≥ 1).
fn maxrects_strip_height(items: &[Size], width: u32) -> u32 {
    let area: u64 = items.iter().map(|s| s.area()).sum();
    let tallest = items.iter().map(|s| s.h).max().unwrap_or(0);
    let total_h: u32 = items.iter().map(|s| s.h).sum();
    let lower = u32::try_from(area.div_ceil(u64::from(width))).expect("small instance");
    let mut h = lower.max(tallest);
    while h <= total_h {
        if FreeSpace::new(Size::new(width, h))
            .place_all(items)
            .is_some()
        {
            return h;
        }
        h += 1;
    }
    unreachable!("stacking all items vertically always fits")
}

/// The largest ratio of a heuristic's height to the exact one.
fn worst_ratio(heights: &[f64], exact: &[f64]) -> f64 {
    heights
        .iter()
        .zip(exact)
        .map(|(h, e)| h / e)
        .fold(1.0, f64::max)
}

fn main() {
    Args::parse("usage: ablation_report");
    let mut rows: Vec<(String, Vec<(&'static str, f64)>)> = Vec::new();

    println!("# Ablation 1 — packer quality on composition workloads");
    println!("# (strip width 16 channels; mean heights, worst ratio to the exact optimum)");
    println!(
        "{:>3} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>7}",
        "n", "exact", "skyline", "ffdh", "maxrects", "sky_worst", "mr_worst", "solved"
    );
    for &n in &[4usize, 6, 8] {
        // The exact solver dominates this sweep; spread the seeds across
        // cores and fold the per-seed heights back in seed order.
        let seeds: Vec<u64> = (0..INSTANCES).collect();
        let samples = par_map(&seeds, |_, &seed| {
            let items = components(n, seed);
            let e = exact_strip_height(&items, 16, 3_000_000).unwrap();
            (
                e.is_optimal(),
                [
                    e.height(),
                    pack_strip(&items, 16).unwrap().height(),
                    pack_strip_ffdh(&items, 16).unwrap().height(),
                    maxrects_strip_height(&items, 16),
                ]
                .map(f64::from),
            )
        });
        let solved = samples.iter().filter(|s| s.0).count();
        let column = |i: usize| -> Vec<f64> { samples.iter().map(|s| s.1[i]).collect() };
        let heights = [0, 1, 2, 3].map(column);
        let [exact, sky, ffdh, maxrects] = [0, 1, 2, 3].map(|i| mean(&heights[i]));
        let sky_worst = worst_ratio(&heights[1], &heights[0]);
        let mr_worst = worst_ratio(&heights[3], &heights[0]);
        println!(
            "{n:>3} {exact:>8.2} {sky:>8.2} {ffdh:>8.2} {maxrects:>8.2} \
             {sky_worst:>9.3} {mr_worst:>9.3} {solved:>4}/{INSTANCES}"
        );
        rows.push((
            format!("packers_n{n}"),
            vec![
                ("exact", exact),
                ("skyline", sky),
                ("ffdh", ffdh),
                ("maxrects", maxrects),
                ("skyline_worst", sky_worst),
                ("maxrects_worst", mr_worst),
                ("solved", solved as f64),
            ],
        ));
    }

    println!("\n# Ablation 2 — Alg. 1 second pass (channel extent saved)");
    println!(
        "{:>3} {:>14} {:>14} {:>8}",
        "n", "one-pass ch", "two-pass ch", "saved"
    );
    for &n in &[4usize, 8, 16, 32] {
        let seeds: Vec<u64> = (100..100 + INSTANCES).collect();
        let samples = par_map(&seeds, |_, &seed| {
            let comps: Vec<(NodeId, ResourceComponent)> = components(n, seed)
                .into_iter()
                .enumerate()
                .map(|(i, s)| (NodeId(i as u32), ResourceComponent::new(s.h, s.w)))
                .collect();
            let two_pass = compose_components(&comps, 16, 1).unwrap().composite();
            let items: Vec<Size> = comps
                .iter()
                .map(|(_, c)| c.as_size_channel_major())
                .collect();
            let p = pack_strip(&items, 16).unwrap();
            let one_pass_channels = p.placements().iter().map(Rect::right).max().unwrap_or(0);
            (f64::from(one_pass_channels), f64::from(two_pass.channels))
        });
        let one = mean(&samples.iter().map(|s| s.0).collect::<Vec<_>>());
        let two = mean(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
        println!("{n:>3} {one:>14.2} {two:>14.2} {:>8.2}", one - two);
        rows.push((
            format!("second_pass_n{n}"),
            vec![
                ("one_pass_channels", one),
                ("two_pass_channels", two),
                ("saved", one - two),
            ],
        ));
    }

    println!("\n# Ablation 3 — Alg. 2 vs full repack (partitions moved per adjustment)");
    println!(
        "{:>9} {:>10} {:>12} {:>9} {:>9}",
        "siblings", "alg2", "full repack", "alg2 ok", "repack ok"
    );
    for &n in &[4usize, 8, 12] {
        let seeds: Vec<u64> = (200..200 + INSTANCES).collect();
        let samples = par_map(&seeds, |_, &seed| {
            let mut rng = SplitMix64::new(seed);
            // Sibling rows spaced with one idle slot between them.
            let parent = Rect::from_xywh(0, 0, 8 * n as u32, 2);
            let mut children = Vec::new();
            let mut x = 0;
            for i in 0..n as u32 {
                let w = 2 + rng.next_below(4) as u32;
                children.push((NodeId(i), Rect::from_xywh(x, 0, w, 1)));
                x += w + 1;
            }
            let grown =
                ResourceComponent::row(children[0].1.width() + 2 + rng.next_below(4) as u32);
            let alg2 = adjust_partition(parent, &children, NodeId(0), grown)
                .unwrap()
                .map(|outcome| outcome.moved_count() as f64);
            let sizes: Vec<Size> = children
                .iter()
                .map(|&(id, r)| {
                    if id == NodeId(0) {
                        grown.as_size()
                    } else {
                        r.size
                    }
                })
                .collect();
            let repack = pack_into(&sizes, parent.size).unwrap().map(|placements| {
                placements
                    .iter()
                    .zip(&children)
                    .filter(|(new, (_, old))| **new != *old)
                    .count() as f64
            });
            (alg2, repack)
        });
        let alg2_moved: Vec<f64> = samples.iter().filter_map(|s| s.0).collect();
        let repack_moved: Vec<f64> = samples.iter().filter_map(|s| s.1).collect();
        let (alg2_ok, repack_ok) = (alg2_moved.len(), repack_moved.len());
        println!(
            "{n:>9} {:>10.2} {:>12.2} {:>6}/{INSTANCES} {:>6}/{INSTANCES}",
            mean(&alg2_moved),
            mean(&repack_moved),
            alg2_ok,
            repack_ok
        );
        rows.push((
            format!("alg2_siblings{n}"),
            vec![
                ("alg2_moved", mean(&alg2_moved)),
                ("repack_moved", mean(&repack_moved)),
                ("alg2_feasible", alg2_ok as f64),
                ("repack_feasible", repack_ok as f64),
            ],
        ));
    }
    println!("{}", harp_bench::obs_footer());

    print_bench_threads(bench_threads());
    let mut snap = MetricsSnapshot::default();
    snap.add_counters(packing::obs::totals());
    let json = to_json_with_sections(&[], &[("rows", rows_json(&rows)), ("obs", snap.to_json())]);
    write_report("BENCH_ablation.json", &json);
}
