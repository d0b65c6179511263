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
#[derive(Debug, Clone)]
pub struct FreeSpace {
    container: Rect,
    free: Vec<Rect>,
}

impl FreeSpace {
    /// Creates the free space of an entirely empty container.
    #[must_use]
    pub fn new(container: Size) -> Self {
        let container = Rect::new(Point::ORIGIN, container);
        let free = if container.is_empty() {
            Vec::new()
        } else {
            vec![container]
        };
        Self { container, free }
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
        for y in self.container.bottom()..self.container.top() {
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
                        let _ = clo;
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
        let Some(region) = region.intersection(&self.container) else {
            return;
        };
        let mut next: Vec<Rect> = Vec::with_capacity(self.free.len() + 4);
        for &fr in &self.free {
            if let Some(cut) = fr.intersection(&region) {
                // Split `fr` into up to four maximal leftovers around `cut`.
                if cut.left() > fr.left() {
                    next.push(Rect::from_xywh(
                        fr.left(),
                        fr.bottom(),
                        cut.left() - fr.left(),
                        fr.height(),
                    ));
                }
                if cut.right() < fr.right() {
                    next.push(Rect::from_xywh(
                        cut.right(),
                        fr.bottom(),
                        fr.right() - cut.right(),
                        fr.height(),
                    ));
                }
                if cut.bottom() > fr.bottom() {
                    next.push(Rect::from_xywh(
                        fr.left(),
                        fr.bottom(),
                        fr.width(),
                        cut.bottom() - fr.bottom(),
                    ));
                }
                if cut.top() < fr.top() {
                    next.push(Rect::from_xywh(
                        fr.left(),
                        cut.top(),
                        fr.width(),
                        fr.top() - cut.top(),
                    ));
                }
            } else {
                next.push(fr);
            }
        }
        self.free = next;
        self.prune();
    }

    /// Removes free rectangles contained in other free rectangles, keeping
    /// the set maximal and small.
    fn prune(&mut self) {
        let mut keep = vec![true; self.free.len()];
        for i in 0..self.free.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..self.free.len() {
                if i != j
                    && keep[j]
                    && keep[i]
                    && self.free[j].contains_rect(&self.free[i])
                    && !(self.free[i] == self.free[j] && i < j)
                {
                    keep[i] = false;
                }
            }
        }
        let mut idx = 0;
        self.free.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
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
    pub fn place_all(&mut self, sizes: &[Size]) -> Option<Vec<Rect>> {
        crate::obs::FREESPACE_PLACEMENTS.add(1);
        let mut trial = self.clone();
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        // Largest-area-first is the standard decreasing heuristic order.
        order.sort_by_key(|&i| std::cmp::Reverse((sizes[i].area(), sizes[i].h, sizes[i].w)));
        let mut placements = vec![Rect::default(); sizes.len()];
        for i in order {
            let origin = trial.place(sizes[i])?;
            placements[i] = Rect::new(origin, sizes[i]);
        }
        *self = trial;
        Some(placements)
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
