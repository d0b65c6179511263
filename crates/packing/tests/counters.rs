//! What the container form adds to the packing counters.
//!
//! The counters are process-wide, so this binary holds one test: nothing
//! else packs while it counts.

use packing::{fits_into, obs, pack_into, pack_strip, Size};
use tsch_sim::SplitMix64;

/// The counters `f` bumps, in the order of [`obs::totals`]: strip packs,
/// container packs, feasibility tests, idle-area placements.
fn bumped(f: impl FnOnce()) -> [u64; 4] {
    let before = obs::totals().map(|(_, n)| n);
    f();
    let after = obs::totals().map(|(_, n)| n);
    [0, 1, 2, 3].map(|i| after[i] - before[i])
}

/// The strip packs a container packing runs: none when the input is
/// refused before packing, one when the primary orientation fits, two
/// otherwise.
fn strip_packs(items: &[Size], container: Size) -> u64 {
    if container.w == 0 || container.h == 0 || items.iter().any(|i| i.w == 0 || i.h == 0) {
        return 0;
    }
    if items.iter().any(|i| !i.fits_in(container)) {
        return 0;
    }
    let primary = pack_strip(items, container.w).expect("validated");
    if primary.height() <= container.h {
        1
    } else {
        2
    }
}

#[test]
fn the_container_form_counts_one_pack_and_its_strips() {
    let mut rng = SplitMix64::new(0xC0_4E75);
    let mut seen = [0u32; 3];
    for call in 0..300u64 {
        let width = if call % 50 == 7 {
            0
        } else {
            1 + rng.next_below(16) as u32
        };
        let container = Size::new(width, 1 + rng.next_below(16) as u32);
        let n = [32, 1, 2, 4, 8][call as usize % 5];
        let mut items: Vec<Size> = (0..n)
            .map(|_| Size::new(1 + rng.next_below(8) as u32, 1 + rng.next_below(8) as u32))
            .collect();
        if call % 50 == 13 {
            items[n / 2].h = 0;
        }
        let strips = strip_packs(&items, container);
        seen[strips as usize] += 1;
        let mut packed = Ok(None);
        let counted = bumped(|| packed = pack_into(&items, container));
        assert_eq!(counted, [strips, 1, 0, 0], "call {call}: {packed:?}");
        let counted_test = bumped(|| {
            let _ = fits_into(&items, container);
        });
        assert_eq!(counted_test, [strips, 1, 1, 0], "call {call}");
    }
    assert!(seen.iter().all(|&n| n > 0), "every path: {seen:?}");
}
