//! Deterministic fork-join helpers over OS threads.
//!
//! Used by the experiment harness for parameter sweeps. Result order never
//! depends on OS scheduling, so parallel runs are byte-identical to serial
//! ones.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-thread count for parallel work: the `HARP_BENCH_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism (1 if that cannot be determined).
#[must_use]
pub fn bench_threads() -> usize {
    if let Ok(v) = std::env::var("HARP_BENCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on `threads` OS threads.
///
/// The result order is the item order — identical to a serial
/// `items.iter().map(...)` — no matter how the OS schedules the workers:
/// each worker tags results with the item index and the merged output is
/// sorted by it. Work is distributed by an atomic cursor, so uneven item
/// costs balance across threads.
///
/// # Panics
///
/// Propagates a panic from `f` (the panicking worker's join fails).
pub fn par_map_with_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        let mut all = Vec::with_capacity(items.len());
        for handle in handles {
            all.extend(handle.join().expect("parallel worker panicked"));
        }
        all
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// [`par_map_with_threads`] with the default [`bench_threads`] count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with_threads(items, bench_threads(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_map_in_order() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 8, 200] {
            let parallel = par_map_with_threads(&items, threads, |i, &x| x * 3 + i as u64);
            assert_eq!(parallel, serial, "threads={threads}");
        }
        assert_eq!(par_map(&items, |i, &x| x * 3 + i as u64), serial);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(
            par_map_with_threads(&[] as &[u8], 4, |_, &x| x),
            Vec::<u8>::new()
        );
        assert_eq!(
            par_map_with_threads(&[9u8], 4, |i, &x| (i, x)),
            vec![(0, 9)]
        );
    }

    #[test]
    fn par_map_balances_uneven_work_deterministically() {
        let items: Vec<u64> = (0..40).collect();
        let out = par_map_with_threads(&items, 4, |_, &x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(out, (1..=40).collect::<Vec<u64>>());
    }
}
