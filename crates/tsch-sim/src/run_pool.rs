//! Many short lists in one vector: a [`RunPool`] and its [`Run`]s.
//!
//! A run is one list's place in the pool: `len` items from `start`, with
//! room for `cap`. A list that outgrows its room moves to the pool's tail,
//! and the room it leaves behind is garbage until a compaction packs the
//! live runs to the front again. [`NetworkSchedule`](crate::NetworkSchedule)
//! keeps each link's cells as a run; HARP's node state keeps interfaces,
//! layer rows and placements as runs of three more pools.
//!
//! A run that moved leaves its old items where they were, so the old
//! descriptor still reads them until the pool compacts: restoring it is a
//! whole rollback of the move. Whoever keeps displaced descriptors for that
//! purpose must not compact the pool while it does.

use core::ops::Range;

/// Garbage entries tolerated before [`RunPool::wants_compaction`] asks for
/// a compaction (they must also outnumber half of the pool).
const GARBAGE_FLOOR: usize = 64;

/// Where one list sits in a [`RunPool`]. The default is an empty run that
/// owns no room.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Run {
    /// First pool entry of the run.
    start: u32,
    /// Items in the run: the live prefix of its room.
    len: u32,
    /// Pool entries the run owns from `start`.
    cap: u32,
}

impl Run {
    /// A descriptor no pool makes, as it holds more items than room and
    /// starts past any pool's end, so reading it panics: what a table keeps
    /// for "no run" in a run's own 12 bytes, where an `Option<Run>` takes
    /// 16.
    pub const NONE: Run = Run {
        start: u32::MAX,
        len: 1,
        cap: 0,
    };

    /// Number of items in the run.
    #[must_use]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the run holds no item.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn items(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }

    fn end_of_room(self) -> usize {
        (self.start + self.cap) as usize
    }
}

/// One vector holding many [`Run`]s of `T`; see the module docs.
#[derive(Debug, Clone)]
pub struct RunPool<T> {
    items: Vec<T>,
    /// Pool entries no run owns.
    garbage: usize,
    /// Compaction's bitmap of live entries, then each word's rank: the live
    /// entries before it. Kept for the next compaction.
    marks: Vec<u64>,
}

/// Words of a compaction bitmap over `items` entries, and as many ranks.
fn mark_words(items: usize) -> usize {
    2 * items.div_ceil(64)
}

impl<T: Copy> Default for RunPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

fn pool_index(at: usize) -> u32 {
    u32::try_from(at).expect("a run pool fits u32 indices")
}

impl<T: Copy> RunPool<T> {
    /// An empty pool; it owns no heap until first written.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            items: Vec::new(),
            garbage: 0,
            marks: Vec::new(),
        }
    }

    /// An empty pool with room for `items` entries, compactions of them
    /// included.
    #[must_use]
    pub fn with_capacity(items: usize) -> Self {
        Self {
            items: Vec::with_capacity(items),
            garbage: 0,
            marks: Vec::with_capacity(mark_words(items)),
        }
    }

    /// The items of `run`.
    #[must_use]
    pub fn get(&self, run: Run) -> &[T] {
        &self.items[run.items()]
    }

    /// The items of `run`, to overwrite in place.
    pub fn get_mut(&mut self, run: Run) -> &mut [T] {
        &mut self.items[run.items()]
    }

    /// Appends `item` to `run`: into its room while it has some, at the
    /// pool's tail when its room ends there, else the run moves to the tail
    /// and its old room becomes garbage. Returns whether the run moved.
    pub fn push(&mut self, run: &mut Run, item: T) -> bool {
        let (start, len, cap) = (run.start as usize, run.len as usize, run.cap as usize);
        run.len += 1;
        if len < cap {
            self.items[start + len] = item;
            return false;
        }
        let moved = start + cap != self.items.len();
        if moved {
            run.start = pool_index(self.items.len());
            run.cap = run.len - 1;
            self.items.extend_from_within(start..start + len);
            self.garbage += cap;
        }
        run.cap += 1;
        self.items.push(item);
        moved
    }

    /// Empties `run`. It keeps its room for the items that refill it,
    /// unless the room ends the pool, which then shrinks.
    pub fn clear(&mut self, run: &mut Run) {
        run.len = 0;
        if run.end_of_room() == self.items.len() {
            self.items.truncate(run.start as usize);
            *run = Run::default();
        }
    }

    /// Replaces the items of `run` with the ones `fill` appends to the
    /// vector it is handed (it may copy them from `run` itself). With
    /// `in_place`, they go over the old items when they fit the run's room
    /// or the room ends the pool; otherwise the run moves to the tail and
    /// its old room becomes garbage, its old items untouched. Returns the
    /// run as it was, which [`RunPool::restore`] puts back after a move.
    pub fn rewrite(
        &mut self,
        run: &mut Run,
        in_place: bool,
        fill: impl FnOnce(&mut Vec<T>),
    ) -> Run {
        let old = *run;
        let at = self.items.len();
        fill(&mut self.items);
        let len = self.items.len() - at;
        if in_place && (len <= old.cap as usize || old.end_of_room() == at) {
            let start = old.start as usize;
            self.items.copy_within(at.., start);
            self.items.truncate(at.max(start + len));
            run.len = pool_index(len);
            run.cap = old.cap.max(run.len);
        } else {
            self.garbage += old.cap as usize;
            *run = Run {
                start: pool_index(at),
                len: pool_index(len),
                cap: pool_index(len),
            };
        }
        old
    }

    /// Inserts `item` at position `at` of `run`, as [`RunPool::rewrite`]
    /// writes; returns the run as it was.
    pub fn insert(&mut self, run: &mut Run, in_place: bool, at: usize, item: T) -> Run {
        let old = run.items();
        self.rewrite(run, in_place, |v| {
            v.extend_from_within(old.start..old.start + at);
            v.push(item);
            v.extend_from_within(old.start + at..old.end);
        })
    }

    /// Rewrites `run` with what `f` makes of each item of `src` in order
    /// (`None`: leave it out), as [`RunPool::rewrite`] writes; `src` may be
    /// `run` itself. Returns the run as it was.
    pub fn rewrite_from(
        &mut self,
        run: &mut Run,
        in_place: bool,
        src: Run,
        mut f: impl FnMut(T) -> Option<T>,
    ) -> Run {
        self.rewrite(run, in_place, |v| {
            for i in src.items() {
                if let Some(item) = f(v[i]) {
                    v.push(item);
                }
            }
        })
    }

    /// Gives up `run`'s room: garbage until the pool compacts.
    pub fn discard(&mut self, run: Run) {
        self.garbage += run.cap as usize;
    }

    /// Puts `old` back in place of `current`, undoing the
    /// [`RunPool::rewrite`] that moved `old` or the [`RunPool::discard`]
    /// that gave it up (`None` on either side: no run there). Valid until
    /// the pool compacts.
    pub fn restore(&mut self, current: Option<Run>, old: Option<Run>) {
        let cap = |run: Option<Run>| run.map_or(0, |r| r.cap as usize);
        self.garbage = self.garbage + cap(current) - cap(old);
    }

    /// Pool entries no run owns.
    #[must_use]
    pub fn garbage(&self) -> usize {
        self.garbage
    }

    /// Entries the pool can still take before it has to grow.
    #[must_use]
    pub fn room(&self) -> usize {
        self.items.capacity() - self.items.len()
    }

    /// Whether garbage has grown past both a floor and half of the pool.
    #[must_use]
    pub fn wants_compaction(&self) -> bool {
        self.garbage > GARBAGE_FLOOR.max(self.items.len() / 2)
    }

    /// Packs every live run to the front of the pool, in the order the runs
    /// sit, without room to spare; the garbage goes. `runs` hands each live
    /// run to the callback it gets, and is called twice: to mark the live
    /// entries, then to move each run to its entries' new place. The items
    /// move in place and the marks fit the capacity the pool was made with,
    /// so a compaction allocates nothing until the pool has outgrown it.
    pub fn compact(&mut self, mut runs: impl FnMut(&mut dyn FnMut(&mut Run))) {
        let words = mark_words(self.items.len()) / 2;
        self.marks.clear();
        self.marks.resize(2 * words, 0);
        let (live, ranks) = self.marks.split_at_mut(words);
        runs(&mut |run| {
            for i in run.items() {
                live[i / 64] |= 1 << (i % 64);
            }
        });
        // Live entries never overlap, so each moves down to its rank.
        let mut rank = 0;
        for (w, (&bits, word_rank)) in live.iter().zip(ranks.iter_mut()).enumerate() {
            *word_rank = rank as u64;
            let mut bits = bits;
            while bits != 0 {
                self.items[rank] = self.items[64 * w + bits.trailing_zeros() as usize];
                rank += 1;
                bits &= bits - 1;
            }
        }
        self.items.truncate(rank);
        self.garbage = 0;
        runs(&mut |run| {
            let i = run.start as usize;
            let below = live.get(i / 64).map_or(0, |w| w & ((1 << (i % 64)) - 1));
            let start = ranks.get(i / 64).map_or(0, |&r| r as u32) + below.count_ones();
            *run = Run {
                start: if run.len == 0 { 0 } else { start },
                len: run.len,
                cap: run.len,
            };
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_moved_run_leaves_its_old_items_for_a_restore() {
        let mut pool = RunPool::with_capacity(8);
        let mut a = Run::default();
        pool.rewrite(&mut a, false, |v| v.extend([1, 2, 3]));
        let mut b = Run::default();
        pool.push(&mut b, 9);
        // `a` no longer ends the pool: growing it moves it.
        let old = pool.rewrite(&mut a, false, |v| v.extend([1, 2, 3, 4]));
        assert_eq!(pool.get(a), [1, 2, 3, 4]);
        assert_eq!(pool.get(old), [1, 2, 3]);
        assert_eq!(pool.garbage(), 3);
        pool.restore(Some(a), Some(old));
        assert_eq!(pool.garbage(), 4, "the moved-to items are the garbage now");
        assert_eq!(pool.get(b), [9]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn the_none_run_reads_nothing() {
        let mut pool = RunPool::new();
        pool.push(&mut Run::default(), 1);
        let _ = pool.get(Run::NONE);
    }

    #[test]
    fn an_in_place_rewrite_reuses_the_room_or_the_tail() {
        let mut pool = RunPool::new();
        let mut a = Run::default();
        pool.rewrite(&mut a, true, |v| v.extend([1, 2, 3]));
        let mut b = Run::default();
        pool.rewrite(&mut b, true, |v| v.extend([7, 8]));
        // Shorter: into its own room, which it keeps.
        pool.rewrite(&mut a, true, |v| v.extend([5]));
        assert_eq!((pool.get(a), a.cap), (&[5][..], 3));
        // Longer, ending the pool: grows over the tail.
        pool.rewrite(&mut b, true, |v| v.extend([7, 8, 9, 10]));
        assert_eq!(pool.get(b), [7, 8, 9, 10]);
        assert_eq!(pool.items.len(), 7);
        assert_eq!(pool.garbage(), 0);
    }

    #[test]
    fn compaction_packs_live_runs_in_place() {
        let mut pool = RunPool::new();
        let mut runs = [Run::default(); 4];
        for (k, run) in runs.iter_mut().enumerate() {
            for i in 0..=k {
                pool.push(run, 10 * k + i);
            }
        }
        // Grow the first run twice: it moves past the others.
        pool.push(&mut runs[0], 1);
        pool.push(&mut runs[0], 2);
        pool.clear(&mut runs[2]);
        let contents: Vec<Vec<usize>> = runs.iter().map(|&r| pool.get(r).to_vec()).collect();
        pool.compact(|each| runs.iter_mut().for_each(each));
        let after: Vec<Vec<usize>> = runs.iter().map(|&r| pool.get(r).to_vec()).collect();
        assert_eq!(after, contents);
        assert_eq!(pool.garbage(), 0);
        assert_eq!(pool.items.len(), 3 + 2 + 4, "the cleared run kept nothing");
        assert_eq!(runs[2], Run::default());
    }
}
