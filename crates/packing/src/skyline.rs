//! Best-fit skyline heuristic for the 2-D strip packing problem (SPP).
//!
//! This is the constructive heuristic the HARP paper selects (Wei et al.,
//! *An improved skyline based heuristic for the 2D strip packing problem*,
//! C&OR 2017) because it runs in `O(n log n)` on resource-constrained
//! devices while producing near-optimal strips.
//!
//! The strip has a fixed width and unbounded height. The *skyline* is the
//! staircase outline of the already-placed rectangles. At each step the
//! algorithm:
//!
//! 1. finds the lowest skyline segment (ties broken leftward),
//! 2. picks the unplaced rectangle that *best fits* that segment — the widest
//!    one not exceeding the segment width, preferring an exact width match,
//!    then the tallest,
//! 3. if nothing fits, raises the segment to its lowest neighbour (creating
//!    waste) and merges,
//! 4. otherwise places the rectangle against the taller neighbouring wall to
//!    keep the skyline flat.
//!
//! Rectangles are never rotated: in HARP the two axes are time slots and
//! channels, which are semantically distinct.

use crate::{PackError, Point, Rect, Size};

/// The result of packing rectangles into a strip.
///
/// `placements[i]` is the position chosen for `items[i]` of the call that
/// produced this value; the indices always correspond.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripPacking {
    /// One placed rectangle per input item, in input order.
    placements: Vec<Rect>,
    /// Width of the strip that was packed into.
    width: u32,
    /// Height of the packing: the maximum `top()` over all placements.
    height: u32,
}

impl StripPacking {
    /// Assembles a packing from raw parts (used by the other packers in this
    /// crate, which uphold the same invariants).
    pub(crate) fn from_parts(placements: Vec<Rect>, width: u32, height: u32) -> Self {
        Self {
            placements,
            width,
            height,
        }
    }

    /// The placed rectangles, in the same order as the input items.
    #[must_use]
    pub fn placements(&self) -> &[Rect] {
        &self.placements
    }

    /// Consumes the packing and returns the placements.
    #[must_use]
    pub(crate) fn into_placements(self) -> Vec<Rect> {
        self.placements
    }

    /// The strip width the items were packed into.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The achieved strip height (the quantity SPP minimises).
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }
}

/// One horizontal segment of the skyline: the interval `[x, x + w)` at
/// height `y` (the next free row above placed material).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    x: u32,
    w: u32,
    y: u32,
}

/// The skyline contour of a partially packed strip.
///
/// Maintains a list of disjoint horizontal segments covering `[0, width)`,
/// ordered by `x`. Exposed for use by the packers in this crate and by
/// white-box tests; most callers want [`pack_strip`] or a [`StripWorkspace`].
#[derive(Debug, Clone)]
pub struct Skyline {
    segments: Vec<Segment>,
    width: u32,
    /// Highest top edge of any placed rectangle.
    max_top: u32,
}

impl Skyline {
    /// Creates a flat skyline of the given strip width.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::ZeroWidthStrip`] if `width == 0`.
    pub fn new(width: u32) -> Result<Self, PackError> {
        let mut skyline = Self::unset();
        skyline.reset(width)?;
        Ok(skyline)
    }

    /// A skyline over no strip yet; [`Skyline::reset`] gives it one.
    const fn unset() -> Self {
        Self {
            segments: Vec::new(),
            width: 0,
            max_top: 0,
        }
    }

    /// Flattens the skyline over a strip of the given width, keeping the
    /// segment storage.
    fn reset(&mut self, width: u32) -> Result<(), PackError> {
        if width == 0 {
            return Err(PackError::ZeroWidthStrip);
        }
        self.segments.clear();
        self.segments.push(Segment {
            x: 0,
            w: width,
            y: 0,
        });
        self.width = width;
        self.max_top = 0;
        Ok(())
    }

    /// The strip width.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The current packing height (max top edge of placed rectangles).
    #[must_use]
    pub fn height(&self) -> u32 {
        self.max_top
    }

    /// Index of the lowest segment, ties broken toward the left.
    fn lowest_segment(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.segments.iter().enumerate().skip(1) {
            if s.y < self.segments[best].y {
                best = i;
            }
        }
        best
    }

    /// Heights of the walls bounding segment `i` on the left and right.
    /// The strip edge counts as an infinitely tall wall.
    fn walls(&self, i: usize) -> (u32, u32) {
        let left = if i == 0 {
            u32::MAX
        } else {
            self.segments[i - 1].y
        };
        let right = if i + 1 == self.segments.len() {
            u32::MAX
        } else {
            self.segments[i + 1].y
        };
        (left, right)
    }

    /// Raises segment `i` to the height of its lower neighbouring wall and
    /// merges it into that neighbour. The skipped area becomes waste.
    fn raise(&mut self, i: usize) {
        let (left, right) = self.walls(i);
        debug_assert!(
            left != u32::MAX || right != u32::MAX,
            "a single full-width segment fits everything, so raise is never \
             called on it"
        );
        let target = left.min(right);
        self.segments[i].y = target;
        self.merge();
    }

    /// Places a rectangle of `size` on segment `i`, against the taller wall.
    /// Returns the chosen origin.
    fn place_on(&mut self, i: usize, size: Size) -> Point {
        let seg = self.segments[i];
        debug_assert!(size.w <= seg.w && !size.is_empty());
        let (left_wall, right_wall) = self.walls(i);
        // Against the taller wall: fills corners first, keeping the skyline
        // flat (Burke et al. best-fit placement policy).
        let x = if left_wall >= right_wall {
            seg.x
        } else {
            seg.x + seg.w - size.w
        };
        let origin = Point::new(x, seg.y);
        let top = seg.y + size.h;

        // Rebuild the affected segment: the covered interval rises to `top`,
        // the remainder keeps the old height.
        let covered = Segment {
            x,
            w: size.w,
            y: top,
        };
        let mut replacement = [covered; 3];
        let mut n = 0;
        if x > seg.x {
            replacement[n] = Segment {
                x: seg.x,
                w: x - seg.x,
                y: seg.y,
            };
            n += 1;
        }
        replacement[n] = covered;
        n += 1;
        let right_rest = (seg.x + seg.w) - (x + size.w);
        if right_rest > 0 {
            replacement[n] = Segment {
                x: x + size.w,
                w: right_rest,
                y: seg.y,
            };
            n += 1;
        }
        self.segments
            .splice(i..=i, replacement[..n].iter().copied());
        self.max_top = self.max_top.max(top);
        self.merge();
        origin
    }

    /// Merges adjacent segments of equal height.
    fn merge(&mut self) {
        let mut i = 0;
        while i + 1 < self.segments.len() {
            if self.segments[i].y == self.segments[i + 1].y {
                self.segments[i].w += self.segments[i + 1].w;
                self.segments.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    /// Invariant check: segments tile `[0, width)` in order.
    #[cfg(test)]
    fn assert_well_formed(&self) {
        let mut x = 0;
        for s in &self.segments {
            assert_eq!(s.x, x, "segments must be contiguous");
            assert!(s.w > 0, "segments must be non-empty");
            x += s.w;
        }
        assert_eq!(x, self.width, "segments must cover the strip");
    }
}

/// Validates a list of items against a strip width (the shelf packer's
/// check too).
pub(crate) fn validate(items: &[Size], width: u32) -> Result<(), PackError> {
    if width == 0 {
        return Err(PackError::ZeroWidthStrip);
    }
    for (index, item) in items.iter().enumerate() {
        if item.is_empty() {
            return Err(PackError::EmptyItem { index });
        }
        if item.w > width {
            return Err(PackError::ItemTooWide {
                index,
                item_width: item.w,
                strip_width: width,
            });
        }
    }
    Ok(())
}

/// The best-fit skyline packer with its working buffers kept between calls.
///
/// [`pack_strip`] allocates a skyline, a pending list and a placement
/// vector per call; a caller that packs many small strips — HARP composes
/// at most a handful of components per layer, twice — pays more for those
/// than for the packing. A workspace keeps the first two and writes the
/// placements into a buffer the caller brings, so a warm one allocates
/// nothing. Every call resets what it reads: results depend on the
/// arguments only, never on what the workspace packed before.
#[derive(Debug, Clone)]
pub struct StripWorkspace {
    skyline: Skyline,
    /// Indices of items not yet placed.
    pending: Vec<usize>,
}

impl Default for StripWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl StripWorkspace {
    /// An empty workspace; it owns no heap until its first pack.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            skyline: Skyline::unset(),
            pending: Vec::new(),
        }
    }

    /// Reserves room to pack up to `items` rectangles without allocating:
    /// a skyline has at most one segment more than it holds items.
    pub fn reserve(&mut self, items: usize) {
        self.skyline.segments.reserve(items + 1);
        self.pending.reserve(items);
    }

    /// Packs `items` into a strip of the given `width` using the best-fit
    /// skyline heuristic, minimising the resulting height, which it
    /// returns.
    ///
    /// `placements` is overwritten with one placement per input item, in
    /// input order; placements never overlap and never exceed the strip
    /// width. Items are *not* rotated. On error `placements` is left as it
    /// was.
    ///
    /// # Errors
    ///
    /// * [`PackError::ZeroWidthStrip`] if `width == 0`.
    /// * [`PackError::EmptyItem`] if any item has a zero dimension.
    /// * [`PackError::ItemTooWide`] if any item is wider than the strip.
    pub fn pack(
        &mut self,
        items: &[Size],
        width: u32,
        placements: &mut Vec<Rect>,
    ) -> Result<u32, PackError> {
        crate::obs::STRIP_PACKS.add(1);
        validate(items, width)?;
        let Self { skyline, pending } = self;
        skyline.reset(width)?;
        placements.clear();
        placements.resize(items.len(), Rect::default());
        pending.clear();
        pending.extend(0..items.len());

        while !pending.is_empty() {
            let seg_idx = skyline.lowest_segment();
            let seg_w = skyline.segments[seg_idx].w;

            // Best fit: widest item that fits the gap; exact width match
            // wins; ties broken by greater height (locks in tall items
            // early), then by input order for determinism.
            let mut best: Option<(usize, Size)> = None;
            for &item_idx in pending.iter() {
                let size = items[item_idx];
                if size.w > seg_w {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, b)) => {
                        let exact_new = size.w == seg_w;
                        let exact_old = b.w == seg_w;
                        (exact_new, size.w, size.h) > (exact_old, b.w, b.h)
                    }
                };
                if better {
                    best = Some((item_idx, size));
                }
            }

            match best {
                Some((item_idx, size)) => {
                    let origin = skyline.place_on(seg_idx, size);
                    placements[item_idx] = Rect::new(origin, size);
                    pending.retain(|&i| i != item_idx);
                }
                None => skyline.raise(seg_idx),
            }
        }
        Ok(skyline.height())
    }
}

/// Packs `items` into a strip of the given `width` using the best-fit
/// skyline heuristic, minimising the resulting height:
/// [`StripWorkspace::pack`] on a fresh workspace.
///
/// The returned [`StripPacking`] holds one placement per input item, in
/// input order; placements never overlap and never exceed the strip width.
/// Items are *not* rotated.
///
/// # Errors
///
/// * [`PackError::ZeroWidthStrip`] if `width == 0`.
/// * [`PackError::EmptyItem`] if any item has a zero dimension.
/// * [`PackError::ItemTooWide`] if any item is wider than the strip.
///
/// # Examples
///
/// ```
/// use packing::{pack_strip, Size};
///
/// # fn main() -> Result<(), packing::PackError> {
/// let items = [Size::new(3, 2), Size::new(2, 2), Size::new(5, 1)];
/// let packing = pack_strip(&items, 5)?;
/// assert_eq!(packing.height(), 3); // 3+2 wide side by side, 5-wide on top
/// # Ok(())
/// # }
/// ```
pub fn pack_strip(items: &[Size], width: u32) -> Result<StripPacking, PackError> {
    let mut placements = Vec::with_capacity(items.len());
    let height = StripWorkspace::new().pack(items, width, &mut placements)?;
    Ok(StripPacking {
        placements,
        width,
        height,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_disjoint;

    fn sizes(v: &[(u32, u32)]) -> Vec<Size> {
        v.iter().map(|&(w, h)| Size::new(w, h)).collect()
    }

    fn check_valid(items: &[Size], packing: &StripPacking) {
        assert_eq!(packing.placements().len(), items.len());
        for (item, rect) in items.iter().zip(packing.placements()) {
            assert_eq!(rect.size, *item, "placement preserves size");
            assert!(rect.right() <= packing.width(), "within strip width");
            assert!(rect.top() <= packing.height(), "within reported height");
        }
        assert!(all_disjoint(packing.placements()), "no overlaps");
    }

    #[test]
    fn empty_input_packs_to_zero_height() {
        let packing = pack_strip(&[], 10).unwrap();
        assert_eq!(packing.height(), 0);
        assert!(packing.placements().is_empty());
    }

    #[test]
    fn single_item_at_origin() {
        let items = sizes(&[(4, 3)]);
        let packing = pack_strip(&items, 10).unwrap();
        check_valid(&items, &packing);
        assert_eq!(packing.height(), 3);
        assert_eq!(packing.placements()[0].origin, Point::ORIGIN);
    }

    #[test]
    fn exact_row_fills_width() {
        let items = sizes(&[(4, 2), (3, 2), (3, 2)]);
        let packing = pack_strip(&items, 10).unwrap();
        check_valid(&items, &packing);
        assert_eq!(packing.height(), 2, "all three fit in one row");
    }

    #[test]
    fn stacks_when_too_wide_for_row() {
        let items = sizes(&[(6, 1), (6, 2)]);
        let packing = pack_strip(&items, 10).unwrap();
        check_valid(&items, &packing);
        assert_eq!(packing.height(), 3);
    }

    #[test]
    fn perfect_square_tiling() {
        // Four 5x5 squares tile a 10x10 area exactly.
        let items = sizes(&[(5, 5), (5, 5), (5, 5), (5, 5)]);
        let packing = pack_strip(&items, 10).unwrap();
        check_valid(&items, &packing);
        assert_eq!(packing.height(), 10);
    }

    #[test]
    fn doc_example_height() {
        let items = sizes(&[(3, 2), (2, 2), (5, 1)]);
        let packing = pack_strip(&items, 5).unwrap();
        check_valid(&items, &packing);
        assert_eq!(packing.height(), 3);
    }

    #[test]
    fn unit_width_strip_stacks_vertically() {
        let items = sizes(&[(1, 2), (1, 3), (1, 1)]);
        let packing = pack_strip(&items, 1).unwrap();
        check_valid(&items, &packing);
        assert_eq!(packing.height(), 6);
    }

    #[test]
    fn wide_gap_best_fit_prefers_exact_match() {
        // Lowest gap is width 10. The 10-wide item is an exact match and
        // should be chosen over the (wider-is-better within <=gap) tall one.
        let items = sizes(&[(10, 1), (4, 8)]);
        let packing = pack_strip(&items, 10).unwrap();
        check_valid(&items, &packing);
        // 10-wide goes down first, then the 4x8 on top: height 9.
        assert_eq!(packing.placements()[0].bottom(), 0);
        assert_eq!(packing.height(), 9);
    }

    #[test]
    fn raises_waste_when_nothing_fits_gap() {
        // After placing 7x3 and 3x1, the lowest gap is 3 wide at y=1; the
        // remaining 5-wide item cannot fit there, forcing a raise.
        let items = sizes(&[(7, 3), (3, 1), (5, 2)]);
        let packing = pack_strip(&items, 10).unwrap();
        check_valid(&items, &packing);
        assert!(packing.height() >= 4);
    }

    #[test]
    fn item_as_wide_as_strip() {
        let items = sizes(&[(10, 2), (10, 3)]);
        let packing = pack_strip(&items, 10).unwrap();
        check_valid(&items, &packing);
        assert_eq!(packing.height(), 5);
    }

    #[test]
    fn error_zero_width_strip() {
        assert_eq!(
            pack_strip(&[Size::new(1, 1)], 0).unwrap_err(),
            PackError::ZeroWidthStrip
        );
    }

    #[test]
    fn error_empty_item() {
        let err = pack_strip(&sizes(&[(2, 2), (0, 3)]), 5).unwrap_err();
        assert_eq!(err, PackError::EmptyItem { index: 1 });
    }

    #[test]
    fn error_item_too_wide() {
        let err = pack_strip(&sizes(&[(6, 1)]), 5).unwrap_err();
        assert_eq!(
            err,
            PackError::ItemTooWide {
                index: 0,
                item_width: 6,
                strip_width: 5
            }
        );
    }

    #[test]
    fn height_is_max_top_not_waste_height() {
        // One tall narrow item plus a short wide one; the reported height must
        // equal the max placement top exactly.
        let items = sizes(&[(1, 7), (9, 2)]);
        let packing = pack_strip(&items, 10).unwrap();
        check_valid(&items, &packing);
        let max_top = packing.placements().iter().map(Rect::top).max().unwrap();
        assert_eq!(packing.height(), max_top);
    }

    #[test]
    fn skyline_well_formed_through_operations() {
        let mut sky = Skyline::new(10).unwrap();
        sky.assert_well_formed();
        sky.place_on(0, Size::new(4, 2));
        sky.assert_well_formed();
        sky.place_on(sky.lowest_segment(), Size::new(3, 1));
        sky.assert_well_formed();
        let low = sky.lowest_segment();
        sky.raise(low);
        sky.assert_well_formed();
    }

    #[test]
    fn placements_indexed_like_input() {
        let items = sizes(&[(2, 1), (3, 1), (4, 1)]);
        let packing = pack_strip(&items, 9).unwrap();
        for (i, item) in items.iter().enumerate() {
            assert_eq!(packing.placements()[i].size, *item);
        }
    }

    #[test]
    fn many_unit_squares_fill_exactly() {
        let items = vec![Size::new(1, 1); 100];
        let packing = pack_strip(&items, 10).unwrap();
        check_valid(&items, &packing);
        assert_eq!(packing.height(), 10);
    }
}
