//! Maximal-rectangles tracking of free space inside a container with
//! obstacles.
//!
//! HARP's partition-adjustment heuristic (Alg. 2 in the paper) repeatedly asks
//! "can this set of components be placed *in the idle rectangular areas* of
//! the parent partition, keeping every other child partition where it is?".
//! [`FreeSpace`] answers that: it maintains the set of *maximal* free
//! rectangles of a container after a number of regions have been occupied, and
//! places new rectangles into them bottom-left-first.

use crate::{Point, Rect, Size};

/// The free space of a container, represented as maximal free rectangles.
///
/// Start from an empty container, mark existing partitions with
/// [`FreeSpace::occupy`], then try to place new rectangles with
/// [`FreeSpace::place`] / [`FreeSpace::place_all`]. Placements are committed —
/// a successful `place` shrinks the free space. Use [`Clone`] to test a
/// placement tentatively.
///
/// The rectangles are updated in place: once its buffer has grown to the
/// largest set it held, a space that is [`reset`](FreeSpace::reset) and
/// refilled allocates nothing, which is how Alg. 2 runs it once per pass
/// of its loop.
///
/// # Examples
///
/// ```
/// use packing::{FreeSpace, Rect, Size};
///
/// let mut space = FreeSpace::new(Size::new(10, 4));
/// space.occupy(Rect::from_xywh(0, 0, 6, 4)); // an existing partition
/// let spot = space.place(Size::new(4, 2)).expect("fits in the idle area");
/// assert!(spot.x >= 6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FreeSpace {
    container: Size,
    free: Vec<Rect>,
}

impl FreeSpace {
    /// Creates the free space of an entirely empty container.
    #[must_use]
    pub fn new(container: Size) -> Self {
        let mut space = Self::default();
        space.reset(container);
        space
    }

    /// Empties the space into a fresh `container`, keeping the buffer.
    pub fn reset(&mut self, container: Size) {
        self.container = container;
        self.free.clear();
        if !container.is_empty() {
            self.free.push(Rect::new(Point::ORIGIN, container));
        }
    }

    /// Total free area in unit cells.
    ///
    /// Maximal rectangles overlap, so this is computed by sweeping rows
    /// rather than summing rectangle areas.
    #[must_use]
    pub fn free_area(&self) -> u64 {
        // Row sweep: for each row y, merge the x-intervals of free rects
        // covering it. Containers here are small (slotframe-sized), so this
        // exact O(rows · rects log rects) sweep is plenty fast.
        let mut total = 0u64;
        for y in 0..self.container.h {
            let mut intervals: Vec<(u32, u32)> = self
                .free
                .iter()
                .filter(|r| y >= r.bottom() && y < r.top())
                .map(|r| (r.left(), r.right()))
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u32, u32)> = None;
            for (lo, hi) in intervals {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += (chi - clo) as u64;
                        cur = Some((lo, hi));
                    }
                    None => cur = Some((lo, hi)),
                }
            }
            if let Some((clo, chi)) = cur {
                covered += (chi - clo) as u64;
            }
            total += covered;
        }
        total
    }

    /// Marks a region as occupied, removing it from the free space.
    ///
    /// The region is clipped to the container; occupying an area that is
    /// already (partly) occupied is permitted and idempotent.
    pub fn occupy(&mut self, region: Rect) {
        let Some(region) = region.intersection(&Rect::new(Point::ORIGIN, self.container)) else {
            return;
        };
        // Split every free rectangle the region cuts into up to four
        // maximal leftovers around the cut, appended behind the current
        // ones; then drop the cut rectangles (no leftover meets the region).
        let existing = self.free.len();
        for i in 0..existing {
            let fr = self.free[i];
            let Some(cut) = fr.intersection(&region) else {
                continue;
            };
            if cut.left() > fr.left() {
                self.free.push(Rect::from_xywh(
                    fr.left(),
                    fr.bottom(),
                    cut.left() - fr.left(),
                    fr.height(),
                ));
            }
            if cut.right() < fr.right() {
                self.free.push(Rect::from_xywh(
                    cut.right(),
                    fr.bottom(),
                    fr.right() - cut.right(),
                    fr.height(),
                ));
            }
            if cut.bottom() > fr.bottom() {
                self.free.push(Rect::from_xywh(
                    fr.left(),
                    fr.bottom(),
                    fr.width(),
                    cut.bottom() - fr.bottom(),
                ));
            }
            if cut.top() < fr.top() {
                self.free.push(Rect::from_xywh(
                    fr.left(),
                    cut.top(),
                    fr.width(),
                    fr.top() - cut.top(),
                ));
            }
        }
        self.free.retain(|fr| !fr.overlaps(&region));
        self.prune();
    }

    /// Removes free rectangles contained in other free rectangles (of two
    /// equal ones, the later), keeping the set maximal and small.
    ///
    /// Containment is transitive, so a rectangle dropped early never
    /// shields one it contains: that one is dropped for a rectangle still
    /// in the set. The surviving set is the maximal one whatever the order.
    fn prune(&mut self) {
        let mut i = 0;
        while i < self.free.len() {
            let fr = self.free[i];
            let contained =
                self.free.iter().enumerate().any(|(j, other)| {
                    j != i && other.contains_rect(&fr) && (*other != fr || j < i)
                });
            if contained {
                self.free.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Places a rectangle of `size` in the free space, bottom-left-first
    /// (lowest fitting position, ties toward the left), and commits it.
    ///
    /// Returns the chosen origin, or `None` if no free rectangle can host
    /// `size`. Zero-sized requests are rejected with `None`.
    pub fn place(&mut self, size: Size) -> Option<Point> {
        if size.is_empty() {
            return None;
        }
        let spot = self
            .free
            .iter()
            .filter(|fr| size.fits_in(fr.size))
            .map(|fr| fr.origin)
            .min_by_key(|p| (p.y, p.x))?;
        self.occupy(Rect::new(spot, size));
        Some(spot)
    }

    /// Places every size in `sizes`, largest area first, committing all of
    /// them; returns one placement per input (input order), or `None` if any
    /// fails — in which case `self` is left unchanged.
    ///
    /// The atomic form of [`FreeSpace::place_all_into`]: it places into a
    /// copy and keeps the copy only on success.
    pub fn place_all(&mut self, sizes: &[Size]) -> Option<Vec<Rect>> {
        let mut trial = self.clone();
        let mut placements = Vec::with_capacity(sizes.len());
        if !trial.place_all_into(sizes, &mut placements) {
            return None;
        }
        *self = trial;
        Some(placements)
    }

    /// [`FreeSpace::place_all`] into a caller's buffer: on success `out`
    /// holds one placement per input (input order) and every one is
    /// committed. On failure (`false`) the sizes placed before the one that
    /// did not fit stay committed: [`reset`](FreeSpace::reset) the space,
    /// or use `place_all`, to try again from where it was.
    ///
    /// Placement order is the standard decreasing one — largest area
    /// first, then the taller, then the wider, ties in input order —
    /// picked by selection, so nothing but `out` is written.
    pub fn place_all_into(&mut self, sizes: &[Size], out: &mut Vec<Rect>) -> bool {
        crate::obs::FREESPACE_PLACEMENTS.add(1);
        out.clear();
        out.resize(sizes.len(), Rect::default());
        // A placed size is non-empty (`place` rejects empty ones), so an
        // empty slot of `out` is one still to place.
        let key = |s: Size| (s.area(), s.h, s.w);
        while let Some(i) =
            (0..sizes.len())
                .filter(|&i| out[i].is_empty())
                .fold(None, |best: Option<usize>, i| match best {
                    Some(b) if key(sizes[b]) >= key(sizes[i]) => Some(b),
                    _ => Some(i),
                })
        {
            let Some(origin) = self.place(sizes[i]) else {
                return false;
            };
            out[i] = Rect::new(origin, sizes[i]);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_disjoint;

    #[test]
    fn fresh_container_is_one_free_rect() {
        let fs = FreeSpace::new(Size::new(8, 4));
        assert_eq!(fs.free, [Rect::from_xywh(0, 0, 8, 4)]);
        assert_eq!(fs.free_area(), 32);
    }

    #[test]
    fn empty_container_has_no_free_space() {
        let fs = FreeSpace::new(Size::new(0, 4));
        assert!(fs.free.is_empty());
        assert_eq!(fs.free_area(), 0);
    }

    #[test]
    fn occupy_splits_into_maximal_rects() {
        let mut fs = FreeSpace::new(Size::new(8, 4));
        fs.occupy(Rect::from_xywh(2, 1, 3, 2));
        // Maximal rects: left band, right band, bottom band, top band.
        assert_eq!(fs.free.len(), 4);
        assert_eq!(fs.free_area(), 32 - 6);
        for fr in &fs.free {
            assert!(!fr.overlaps(&Rect::from_xywh(2, 1, 3, 2)));
        }
    }

    #[test]
    fn occupy_is_clipped_to_container() {
        let mut fs = FreeSpace::new(Size::new(4, 4));
        fs.occupy(Rect::from_xywh(3, 3, 10, 10));
        assert_eq!(fs.free_area(), 16 - 1);
    }

    #[test]
    fn occupy_outside_container_is_noop() {
        let mut fs = FreeSpace::new(Size::new(4, 4));
        fs.occupy(Rect::from_xywh(10, 10, 2, 2));
        assert_eq!(fs.free_area(), 16);
    }

    #[test]
    fn double_occupy_is_idempotent() {
        let mut fs = FreeSpace::new(Size::new(6, 6));
        fs.occupy(Rect::from_xywh(0, 0, 3, 3));
        let area = fs.free_area();
        fs.occupy(Rect::from_xywh(0, 0, 3, 3));
        assert_eq!(fs.free_area(), area);
    }

    #[test]
    fn place_bottom_left_first() {
        let mut fs = FreeSpace::new(Size::new(8, 4));
        fs.occupy(Rect::from_xywh(0, 0, 3, 1));
        let p = fs.place(Size::new(2, 1)).unwrap();
        assert_eq!(p, Point::new(3, 0), "lowest then leftmost");
    }

    #[test]
    fn place_commits_and_shrinks() {
        let mut fs = FreeSpace::new(Size::new(4, 4));
        let before = fs.free_area();
        fs.place(Size::new(2, 2)).unwrap();
        assert_eq!(fs.free_area(), before - 4);
    }

    #[test]
    fn place_fails_when_fragmented() {
        let mut fs = FreeSpace::new(Size::new(8, 1));
        fs.occupy(Rect::from_xywh(3, 0, 2, 1)); // splits row into 3 + 3
        assert_eq!(fs.free_area(), 6);
        assert!(fs.place(Size::new(4, 1)).is_none(), "no contiguous 4-run");
        assert!(fs.place(Size::new(3, 1)).is_some());
    }

    #[test]
    fn place_zero_size_rejected() {
        let mut fs = FreeSpace::new(Size::new(4, 4));
        assert!(fs.place(Size::new(0, 2)).is_none());
    }

    #[test]
    fn place_all_is_atomic_on_failure() {
        let mut fs = FreeSpace::new(Size::new(4, 2));
        let before = fs.free_area();
        // 3x2 fits, but then 2x2 cannot.
        let result = fs.place_all(&[Size::new(3, 2), Size::new(2, 2)]);
        assert!(result.is_none());
        assert_eq!(fs.free_area(), before, "failed place_all must not commit");
    }

    #[test]
    fn place_all_returns_input_order() {
        let mut fs = FreeSpace::new(Size::new(6, 2));
        let sizes = [Size::new(1, 1), Size::new(4, 2)];
        let placements = fs.place_all(&sizes).unwrap();
        assert_eq!(placements[0].size, sizes[0]);
        assert_eq!(placements[1].size, sizes[1]);
        assert!(all_disjoint(&placements));
    }

    #[test]
    fn place_all_fills_exact_capacity() {
        let mut fs = FreeSpace::new(Size::new(4, 4));
        fs.occupy(Rect::from_xywh(0, 0, 4, 2));
        let placements = fs
            .place_all(&[Size::new(2, 2), Size::new(2, 2)])
            .expect("two 2x2 fill the top half");
        assert!(all_disjoint(&placements));
        assert_eq!(fs.free_area(), 0);
    }

    #[test]
    fn free_rects_never_overlap_occupied() {
        let mut fs = FreeSpace::new(Size::new(10, 10));
        let occupied = [
            Rect::from_xywh(0, 0, 4, 4),
            Rect::from_xywh(6, 2, 3, 5),
            Rect::from_xywh(2, 6, 5, 3),
        ];
        for &r in &occupied {
            fs.occupy(r);
        }
        for fr in &fs.free {
            for occ in &occupied {
                assert!(!fr.overlaps(occ), "{fr} overlaps occupied {occ}");
            }
        }
        // The second and third obstacles overlap in exactly one cell (6, 6).
        assert_eq!(fs.free_area(), 100 - 16 - 15 - 15 + 1);
    }

    /// Every maximal free rectangle of a `w × h` grid whose cells are
    /// free where `free[y][x]`, by brute force: a free rectangle that no
    /// free row or column can extend, on any of its four sides.
    fn maximal_free_rects(free: &[Vec<bool>], w: u32, h: u32) -> Vec<Rect> {
        let all_free = |r: &Rect| {
            (r.bottom()..r.top())
                .all(|y| (r.left()..r.right()).all(|x| free[y as usize][x as usize]))
        };
        let mut out = Vec::new();
        for (x, y) in (0..w).flat_map(|x| (0..h).map(move |y| (x, y))) {
            for (rw, rh) in (1..=w - x).flat_map(|rw| (1..=h - y).map(move |rh| (rw, rh))) {
                let r = Rect::from_xywh(x, y, rw, rh);
                if !all_free(&r) {
                    continue;
                }
                let grown = [
                    (x > 0).then(|| Rect::from_xywh(x - 1, y, rw + 1, rh)),
                    (y > 0).then(|| Rect::from_xywh(x, y - 1, rw, rh + 1)),
                    (x + rw < w).then(|| Rect::from_xywh(x, y, rw + 1, rh)),
                    (y + rh < h).then(|| Rect::from_xywh(x, y, rw, rh + 1)),
                ];
                if !grown.iter().flatten().any(all_free) {
                    out.push(r);
                }
            }
        }
        out.sort_by_key(|r| (r.origin.x, r.origin.y, r.size.w, r.size.h));
        out
    }

    #[test]
    fn occupy_keeps_exactly_the_maximal_free_rectangles() {
        // Random obstacle sequences, some clipped by the container, one
        // space reset and refilled throughout: after every occupy, its
        // rectangles are the maximal free ones of the cell grid, each once.
        let mut state = 0x5EED_F5EE_u64;
        let mut next = |bound: u32| {
            // xorshift64*: enough for test inputs, no dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as u32 % bound
        };
        let mut fs = FreeSpace::default();
        for case in 0..200 {
            let (w, h) = (1 + next(9), 1 + next(5));
            fs.reset(Size::new(w, h));
            let mut free = vec![vec![true; w as usize]; h as usize];
            for _ in 0..next(7) {
                let r = Rect::from_xywh(next(w + 2), next(h + 1), 1 + next(4), 1 + next(3));
                fs.occupy(r);
                for (y, row) in free.iter_mut().enumerate() {
                    for (x, cell) in row.iter_mut().enumerate() {
                        *cell &= !r.contains_cell(x as u32, y as u32);
                    }
                }
                let mut held = fs.free.clone();
                held.sort_by_key(|r| (r.origin.x, r.origin.y, r.size.w, r.size.h));
                assert_eq!(
                    held,
                    maximal_free_rects(&free, w, h),
                    "case {case}, after {r}"
                );
            }
        }
    }

    #[test]
    fn place_all_into_matches_place_all() {
        // The buffer form commits what the atomic form returns; on failure
        // the atomic form leaves the space as it was.
        let mut out = vec![Rect::from_xywh(9, 9, 9, 9)];
        for sizes in [
            &[Size::new(1, 1), Size::new(4, 2), Size::new(2, 2)][..],
            &[Size::new(3, 2), Size::new(3, 2), Size::new(3, 2)],
            &[Size::new(2, 1), Size::new(1, 2), Size::new(2, 1)],
        ] {
            let mut atomic = FreeSpace::new(Size::new(6, 2));
            atomic.occupy(Rect::from_xywh(0, 0, 1, 1));
            let mut into = atomic.clone();
            let before = atomic.free_area();
            let placed = atomic.place_all(sizes);
            assert_eq!(into.place_all_into(sizes, &mut out), placed.is_some());
            match placed {
                Some(placements) => {
                    assert_eq!(out, placements);
                    assert_eq!(into.free_area(), atomic.free_area());
                }
                None => assert_eq!(atomic.free_area(), before),
            }
        }
    }

    #[test]
    fn prune_keeps_maximal_set_small() {
        let mut fs = FreeSpace::new(Size::new(16, 16));
        for i in 0..8 {
            fs.occupy(Rect::from_xywh(i * 2, i, 1, 1));
        }
        // No free rect contained in another.
        let rects = &fs.free;
        for (i, a) in rects.iter().enumerate() {
            for (j, b) in rects.iter().enumerate() {
                if i != j {
                    assert!(!b.contains_rect(a), "{a} ⊂ {b} should be pruned");
                }
            }
        }
    }
}
