//! The counting allocator of every test binary that links this crate.
//!
//! It is the binary's `#[global_allocator]`, declared here once so that no
//! test can forget it. The counters are per thread, so tests running beside
//! one another on other threads stay out of each other's numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;

struct CountingAlloc;

thread_local! {
    // Constant initialisers, no destructors: reading them never allocates.
    static ALLOCS: Counter<u64> = const { Counter::new(0) };
    static BYTES: Counter<u64> = const { Counter::new(0) };
    static FREES: Counter<u64> = const { Counter::new(0) };
}

fn on_alloc(size: usize) {
    // `try_with`: a thread may still allocate while its locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the bookkeeping
// touches thread-local counters only, never the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` of the calling thread so far.
#[must_use]
pub fn allocated() -> (u64, u64) {
    (ALLOCS.with(Counter::get), BYTES.with(Counter::get))
}

/// Blocks the calling thread has freed so far. A block that grew in place
/// of being freed (`realloc`) is not among them.
#[must_use]
pub fn freed() -> u64 {
    FREES.with(Counter::get)
}

/// The value of `f` and how many times the calling thread allocated in it.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocated().0;
    let out = f();
    (out, allocated().0 - before)
}
