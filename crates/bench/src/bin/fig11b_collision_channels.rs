//! Fig. 11(b): schedule-collision probability vs number of channels.
//!
//! Same 100 topologies as Fig. 11(a); the data rate is fixed at 3
//! packets/slotframe while the channel budget shrinks from 16 to 2 (and 1,
//! beyond the paper, to show HARP's wrap-around degradation point in our
//! demand model). The paper's shape: baselines degrade sharply as channels
//! vanish; HARP stays at zero until the slotframe physically cannot hold
//! the demand, then rises slightly but keeps dominating.
//!
//! Writes `BENCH_fig11b.json` at the workspace root: one gated row per
//! (rate, channels) point with every scheduler's collision probability.
//!
//! Run with `cargo run --release -p harp-bench --bin fig11b_collision_channels`.

use harp_bench::harness::Args;
use harp_bench::Fig11Sweep;
use tsch_sim::SlotframeConfig;

fn main() {
    Args::parse("usage: fig11b_collision_channels");
    let mut sweep = Fig11Sweep::new();
    // The paper sweeps at rate 3. Our composition packs tighter than the
    // testbed implementation, so at rate 3 HARP stays collision-free even
    // on one channel; the rate-6 sweep below exposes the same
    // starvation-induced degradation the paper reports below 4 channels.
    for rate in [3u32, 6] {
        println!("# Fig. 11(b) — collision probability vs number of channels (rate {rate})");
        println!(
            "# {} topologies, 50 nodes, 5 layers, 199 slots",
            sweep.topology_count()
        );
        print!("{:>8}", "channels");
        sweep.print_scheduler_columns();
        println!();

        for channels in [16u16, 12, 8, 6, 4, 3, 2, 1] {
            let config = SlotframeConfig::paper_default()
                .with_channels(channels)
                .expect("nonzero channel count");
            print!("{channels:>8}");
            sweep.point(format!("r{rate}c{channels:02}"), rate, config);
            println!();
        }
        println!();
    }
    sweep.write_report("BENCH_fig11b.json");
}
