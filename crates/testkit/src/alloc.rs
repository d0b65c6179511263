//! The counting allocator of every test binary that links this crate.
//!
//! It is the binary's `#[global_allocator]`, declared here once so that no
//! test can forget it. The counters are per thread, so tests running beside
//! one another on other threads stay out of each other's numbers.
//!
//! In debug builds it can also say *where* a thread allocates:
//! [`sites::attributed`] captures a backtrace per allocation and lets the
//! caller file it under a layer. Debug only, because a release build
//! inlines the frames a layer is recognised by.

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
    #[cfg(debug_assertions)]
    if sites::in_tally() {
        return;
    }
    // `try_with`: a thread may still allocate while its locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    #[cfg(debug_assertions)]
    sites::attribute();
}

fn on_free() {
    #[cfg(debug_assertions)]
    if sites::in_tally() {
        return;
    }
    let _ = FREES.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the bookkeeping
// touches thread-local state only, never the allocated memory.
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
        on_free();
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

/// Who allocates: the calling thread's allocations filed by call site
/// (debug builds only).
///
/// While [`attributed`](sites::attributed) runs its closure, each allocation the thread makes
/// is counted as usual and also described by a
/// [`Backtrace`](std::backtrace::Backtrace) captured on the spot, which a
/// classifier files under one of [`SLOTS`](sites::SLOTS) layers. A re-entrancy guard
/// keeps the capture's own allocations and frees out of every counter, so
/// the layers always sum to what [`allocated`] saw. Capturing and resolving
/// a backtrace costs far more than the allocation it describes: this is a
/// probe for a test that prints a bill per layer, not a budget.
#[cfg(debug_assertions)]
pub mod sites {
    use std::backtrace::Backtrace;
    use std::cell::Cell;

    /// How many layers a classifier may file allocations under; a larger
    /// answer is filed under the last one.
    pub const SLOTS: usize = 8;

    /// Files a backtrace's text under a layer.
    pub type Classifier = fn(&str) -> usize;

    thread_local! {
        static CLASSIFY: Cell<Option<Classifier>> = const { Cell::new(None) };
        static INSIDE: Cell<bool> = const { Cell::new(false) };
        static COUNTS: Cell<[u64; SLOTS]> = const { Cell::new([0; SLOTS]) };
    }

    /// `true` while the tally itself runs on this thread (or the thread's
    /// locals are gone): its allocations are nobody's.
    pub(super) fn in_tally() -> bool {
        INSIDE.try_with(Cell::get).unwrap_or(true)
    }

    /// Files the allocation being made under its layer, when a tally is on.
    pub(super) fn attribute() {
        let Ok(Some(classify)) = CLASSIFY.try_with(Cell::get) else {
            return;
        };
        INSIDE.set(true);
        let slot = classify(&Backtrace::force_capture().to_string()).min(SLOTS - 1);
        let mut counts = COUNTS.get();
        counts[slot] += 1;
        COUNTS.set(counts);
        INSIDE.set(false);
    }

    /// The value of `f` and its allocations on the calling thread, filed by
    /// `classify` under layers `0..SLOTS`. `classify` reads a backtrace as
    /// [`Backtrace`]'s `Display` prints it: one numbered line per frame,
    /// innermost first, each followed by its source location.
    ///
    /// # Panics
    ///
    /// Panics when a tally is already on for this thread.
    pub fn attributed<T>(classify: Classifier, f: impl FnOnce() -> T) -> (T, [u64; SLOTS]) {
        assert!(CLASSIFY.get().is_none(), "one tally at a time");
        COUNTS.set([0; SLOTS]);
        CLASSIFY.set(Some(classify));
        let out = f();
        CLASSIFY.set(None);
        (out, COUNTS.get())
    }
}
