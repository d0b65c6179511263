//! The counting allocator, installed as this test binary's global
//! allocator. One test function only: the counters are process-wide, and a
//! second test running on another thread would show up in them.

use std::hint::black_box;

use harp_benchmark::alloc::{self, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MIB: usize = 1 << 20;

#[test]
fn counting_is_off_by_default_and_balanced() {
    // Off by default: a timed pass leaves no trace in the counters.
    assert!(!alloc::is_enabled());
    let before = alloc::read();
    drop(black_box(vec![0u8; MIB]));
    assert_eq!(alloc::read(), before);

    // On: an allocation is counted, and dropping it returns live bytes to
    // the baseline while the peak remembers it.
    alloc::start();
    assert!(alloc::is_enabled());
    let baseline = alloc::read();
    assert_eq!((baseline.allocs, baseline.live), (0, 0));
    let v = black_box(vec![0u8; MIB]);
    let during = alloc::read();
    assert_eq!(during.allocs, 1);
    assert_eq!(during.bytes, MIB as u64);
    assert_eq!(during.live, MIB as i64);
    drop(v);
    assert_eq!(alloc::read().live, 0);

    // A thread that takes itself out of the count leaves no trace, and its
    // frees do not unbalance the live bytes.
    let before = alloc::read();
    alloc::uncounted(|| drop(black_box(vec![0u8; MIB])));
    assert_eq!(alloc::read(), before);

    // Growth through realloc counts as a call and keeps live bytes exact.
    let mut grown: Vec<u8> = black_box(Vec::with_capacity(MIB));
    grown.reserve_exact(2 * MIB);
    assert_eq!(alloc::read().live, 2 * MIB as i64);
    drop(grown);

    let window = alloc::stop();
    assert!(!alloc::is_enabled());
    assert_eq!(window.live, 0);
    assert_eq!(window.peak, 2 * MIB as i64);
    assert_eq!(window.allocs, 3);
}
