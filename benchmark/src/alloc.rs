//! A counting wrapper around the system allocator.
//!
//! The benchmark binary installs [`CountingAlloc`] as its global allocator.
//! Counting is **off** by default — a timed pass pays one relaxed load per
//! allocation and nothing else — and is switched on for one extra
//! *counting pass* per run, which yields the three memory metrics
//! (`allocs_per_op`, `alloc_kb_per_op`, `peak_heap_mb`). Heap numbers
//! replace RSS, which does not repeat between runs of the same commit.

//!
//! A thread can take itself out of the count ([`uncounted`]): the service
//! workloads' client thread does, so the metrics are what the daemon's
//! threads allocate and the client is free to parse what it receives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The wrapper; install with `#[global_allocator]`.
pub struct CountingAlloc;

// All five are statistics that publish no other data, hence `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // No destructor and a constant initialiser: reading it never allocates
    // and stays valid while the thread's other locals are torn down.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    ENABLED.load(Ordering::Relaxed) && !UNCOUNTED.with(Cell::get)
}

/// Runs `f` with the calling thread's allocations left out of the count.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = UNCOUNTED.with(|u| u.replace(true));
    let out = f();
    UNCOUNTED.with(|u| u.set(was));
    out
}

/// What one counting window saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Allocation calls (`alloc`, `alloc_zeroed`, and each `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes allocated inside the window and not yet freed. Signed: memory
    /// allocated before the window and freed inside it counts negative.
    pub live: i64,
    /// High-water mark of `live` inside the window.
    pub peak: i64,
}

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the bookkeeping
// touches only the atomics above and never the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            on_alloc(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            on_alloc(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            on_dealloc(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Zeroes the counters and switches counting on.
pub fn start() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// The counters so far; counting stays in whatever state it is in.
#[must_use]
pub fn read() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
    }
}

/// Switches counting off and returns what the window saw.
pub fn stop() -> AllocStats {
    ENABLED.store(false, Ordering::Relaxed);
    read()
}

/// Whether counting is on.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
