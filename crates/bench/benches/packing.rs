//! Packing-substrate timings.
//!
//! DESIGN.md calls out the choice of the best-fit skyline heuristic over
//! a simpler shelf packer (FFDH). This bench times both on
//! workloads shaped like HARP compositions; their strip heights against
//! the exact optimum and MaxRects are `ablation_report`'s ablation 1.
//!
//! The 2- and 4-item rows are the traffic: every `BENCHMARK.json` workload
//! composes at most `max_children` = 4 components per layer, where the
//! fixed cost of a call is the whole cost. `skyline` is [`pack_strip`]
//! (a fresh workspace per call — what the benchmark's traced
//! `packing.skyline.pack_strip_us` times), `skyline_reused` the same pack
//! through one warm [`StripWorkspace`] (what a `HarpNetwork` composes
//! with).

use harp_bench::harness::measure;
use packing::shelf::pack_strip_ffdh;
use packing::{pack_strip, FreeSpace, Rect, Size, StripWorkspace};
use std::hint::black_box;
use tsch_sim::SplitMix64;

/// Deterministic random components shaped like per-subtree rows and small
/// composites.
fn component_set(n: usize, seed: u64) -> Vec<Size> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let slots = 1 + rng.next_below(12) as u32;
            let channels = 1 + rng.next_below(4) as u32;
            Size::new(channels, slots) // channel-major, as in Alg. 1 pass 1
        })
        .collect()
}

fn bench_strip_packers() {
    for &n in &[2usize, 4, 8, 32, 128] {
        let items = component_set(n, 7);
        let m = measure(&format!("strip_packing/skyline/{n}"), || {
            pack_strip(black_box(&items), 16).unwrap()
        });
        println!("{}", m.report());
        let mut ws = StripWorkspace::new();
        let mut placements = Vec::new();
        let m = measure(&format!("strip_packing/skyline_reused/{n}"), || {
            ws.pack(black_box(&items), 16, &mut placements).unwrap()
        });
        println!("{}", m.report());
        let m = measure(&format!("strip_packing/ffdh/{n}"), || {
            pack_strip_ffdh(black_box(&items), 16).unwrap()
        });
        println!("{}", m.report());
    }
}

fn bench_freespace() {
    let m = measure("freespace/occupy_then_place_40", || {
        let mut fs = FreeSpace::new(Size::new(199, 16));
        let mut rng = SplitMix64::new(3);
        for _ in 0..40 {
            let x = rng.next_below(180) as u32;
            let y = rng.next_below(14) as u32;
            fs.occupy(Rect::from_xywh(x, y, 1 + rng.next_below(8) as u32, 1));
        }
        black_box(fs.place(Size::new(6, 1)))
    });
    println!("{}", m.report());
}

fn main() {
    bench_strip_packers();
    bench_freespace();
}
