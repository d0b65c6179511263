//! Fig. 11(a): schedule-collision probability vs per-node data rate.
//!
//! 100 random 50-node, 5-layer topologies; slotframe 199 × 16; every link
//! demands `rate` cells; four schedulers compared. The paper's shape:
//! Random/MSF/LDSF grow roughly linearly with the rate, HARP stays at zero.
//!
//! Writes `BENCH_fig11a.json` at the workspace root: one gated row per
//! rate with every scheduler's collision probability.
//!
//! Run with `cargo run --release -p harp-bench --bin fig11a_collision_rate`.

use harp_bench::harness::Args;
use harp_bench::Fig11Sweep;
use tsch_sim::SlotframeConfig;

fn main() {
    Args::parse("usage: fig11a_collision_rate");
    let mut sweep = Fig11Sweep::new();
    let config = SlotframeConfig::paper_default();

    println!("# Fig. 11(a) — collision probability vs data rate");
    println!(
        "# {} topologies, 50 nodes, 5 layers, {} slots x {} channels",
        sweep.topology_count(),
        config.slots,
        config.channels
    );
    print!("{:>4}", "rate");
    sweep.print_scheduler_columns();
    println!(" {:>12}", "total_cells");

    for rate in 1..=8u32 {
        print!("{rate:>4}");
        sweep
            .point(format!("rate{rate}"), rate, config)
            .push(("total_cells", f64::from(49 * rate)));
        println!(" {:>12}", 49 * rate);
    }
    sweep.write_report("BENCH_fig11a.json");
}
