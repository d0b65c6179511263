//! Axis-aligned rectangle geometry used throughout the packing algorithms.
//!
//! All coordinates are unsigned integers: in the HARP setting a rectangle's
//! width/height count time slots and channels, which are small non-negative
//! quantities. Rectangles are half-open: a rectangle at `(x, y)` with size
//! `(w, h)` covers the cells `x..x+w` × `y..y+h`.

use core::fmt;

/// A width × height extent with no position.
///
/// # Examples
///
/// ```
/// use packing::Size;
///
/// let s = Size::new(4, 2);
/// assert_eq!(s.area(), 8);
/// assert!(!s.is_empty());
/// assert!(s.fits_in(Size::new(4, 3)));
/// assert!(!s.fits_in(Size::new(3, 3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Size {
    /// Horizontal extent (number of columns).
    pub w: u32,
    /// Vertical extent (number of rows).
    pub h: u32,
}

impl Size {
    /// Creates a new size.
    #[must_use]
    pub const fn new(w: u32, h: u32) -> Self {
        Self { w, h }
    }

    /// The number of unit cells covered by this extent.
    #[must_use]
    pub const fn area(self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// Returns `true` if either dimension is zero.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// Returns `true` if `self` fits inside `other` without rotation.
    #[must_use]
    pub const fn fits_in(self, other: Size) -> bool {
        self.w <= other.w && self.h <= other.h
    }

    /// Swaps width and height.
    #[must_use]
    pub(crate) const fn transposed(self) -> Size {
        Size::new(self.h, self.w)
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.w, self.h)
    }
}

impl From<(u32, u32)> for Size {
    fn from((w, h): (u32, u32)) -> Self {
        Size::new(w, h)
    }
}

/// A point in the packing plane.
///
/// # Examples
///
/// ```
/// use packing::Point;
///
/// let p = Point::new(3, 1);
/// assert_eq!((p.x, p.y), (3, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: u32,
    /// Vertical coordinate.
    pub y: u32,
}

impl Point {
    /// Creates a new point.
    #[must_use]
    pub const fn new(x: u32, y: u32) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub(crate) const ORIGIN: Point = Point::new(0, 0);
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(u32, u32)> for Point {
    fn from((x, y): (u32, u32)) -> Self {
        Point::new(x, y)
    }
}

/// A positioned, axis-aligned rectangle (half-open on both axes).
///
/// # Examples
///
/// ```
/// use packing::Rect;
///
/// let a = Rect::from_xywh(0, 0, 4, 2);
/// let b = Rect::from_xywh(3, 1, 2, 2);
/// let c = Rect::from_xywh(4, 0, 1, 1);
/// assert!(a.overlaps(&b));
/// assert!(!a.overlaps(&c)); // touching edges do not overlap
/// assert!(a.contains_rect(&Rect::from_xywh(1, 0, 2, 2)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Position of the lower-left corner.
    pub origin: Point,
    /// Extent of the rectangle.
    pub size: Size,
}

impl Rect {
    /// Creates a rectangle from an origin and a size.
    #[must_use]
    pub const fn new(origin: Point, size: Size) -> Self {
        Self { origin, size }
    }

    /// Creates a rectangle from raw coordinates.
    #[must_use]
    pub const fn from_xywh(x: u32, y: u32, w: u32, h: u32) -> Self {
        Self::new(Point::new(x, y), Size::new(w, h))
    }

    /// Leftmost column (inclusive).
    #[must_use]
    pub const fn left(&self) -> u32 {
        self.origin.x
    }

    /// One past the rightmost column (exclusive).
    #[must_use]
    pub const fn right(&self) -> u32 {
        self.origin.x + self.size.w
    }

    /// Bottom row (inclusive).
    #[must_use]
    pub const fn bottom(&self) -> u32 {
        self.origin.y
    }

    /// One past the top row (exclusive).
    #[must_use]
    pub const fn top(&self) -> u32 {
        self.origin.y + self.size.h
    }

    /// Width of the rectangle.
    #[must_use]
    pub const fn width(&self) -> u32 {
        self.size.w
    }

    /// Height of the rectangle.
    #[must_use]
    pub const fn height(&self) -> u32 {
        self.size.h
    }

    /// Area in unit cells.
    #[must_use]
    pub const fn area(&self) -> u64 {
        self.size.area()
    }

    /// Returns `true` if the rectangle covers no cells.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.size.is_empty()
    }

    /// Returns `true` if the two rectangles share at least one unit cell.
    ///
    /// Rectangles that merely touch along an edge do not overlap.
    #[must_use]
    pub fn overlaps(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.left() < other.right()
            && other.left() < self.right()
            && self.bottom() < other.top()
            && other.bottom() < self.top()
    }

    /// Returns `true` if `other` lies entirely within `self`.
    ///
    /// An empty rectangle is contained anywhere its origin lies within the
    /// closed bounds of `self`.
    #[must_use]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.left() >= self.left()
            && other.right() <= self.right()
            && other.bottom() >= self.bottom()
            && other.top() <= self.top()
    }

    /// Returns `true` if the unit cell at `(x, y)` lies inside the rectangle.
    #[must_use]
    pub fn contains_cell(&self, x: u32, y: u32) -> bool {
        x >= self.left() && x < self.right() && y >= self.bottom() && y < self.top()
    }

    /// The intersection of two rectangles, if it is non-empty.
    #[must_use]
    pub(crate) fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.overlaps(other) {
            return None;
        }
        let x = self.left().max(other.left());
        let y = self.bottom().max(other.bottom());
        let r = self.right().min(other.right());
        let t = self.top().min(other.top());
        Some(Rect::from_xywh(x, y, r - x, t - y))
    }

    /// Translates the rectangle by `(dx, dy)`.
    #[must_use]
    pub fn translated(&self, dx: u32, dy: u32) -> Rect {
        Rect::new(
            Point::new(self.origin.x + dx, self.origin.y + dy),
            self.size,
        )
    }

    /// The Chebyshev (L∞) distance between the closest cells of two
    /// rectangles; `0` when they touch or overlap.
    ///
    /// Used by the partition-adjustment heuristic (Alg. 2 in the paper) to
    /// pick "the partition closest to `P_j,l`" when freeing space.
    #[must_use]
    pub fn distance_to(&self, other: &Rect) -> u32 {
        let dx = gap(self.left(), self.right(), other.left(), other.right());
        let dy = gap(self.bottom(), self.top(), other.bottom(), other.top());
        dx.max(dy)
    }
}

/// The gap between two 1-D half-open intervals; `0` when they intersect or touch.
fn gap(a_lo: u32, a_hi: u32, b_lo: u32, b_hi: u32) -> u32 {
    if a_hi >= b_lo && b_hi >= a_lo {
        0
    } else if a_hi < b_lo {
        b_lo - a_hi
    } else {
        a_lo - b_hi
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.size, self.origin)
    }
}

/// Returns `true` if no pair of rectangles in `rects` overlaps.
///
/// Runs in O(n²); intended for validation and tests rather than hot paths.
#[must_use]
pub fn all_disjoint(rects: &[Rect]) -> bool {
    for (i, a) in rects.iter().enumerate() {
        for b in &rects[i + 1..] {
            if a.overlaps(b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_area_and_empty() {
        assert_eq!(Size::new(3, 4).area(), 12);
        assert!(Size::new(0, 4).is_empty());
        assert!(Size::new(4, 0).is_empty());
        assert!(!Size::new(1, 1).is_empty());
    }

    #[test]
    fn size_area_does_not_overflow_u32() {
        let s = Size::new(u32::MAX, u32::MAX);
        assert_eq!(s.area(), u32::MAX as u64 * u32::MAX as u64);
    }

    #[test]
    fn size_fits_in_requires_both_dims() {
        assert!(Size::new(2, 2).fits_in(Size::new(2, 2)));
        assert!(!Size::new(3, 1).fits_in(Size::new(2, 2)));
        assert!(!Size::new(1, 3).fits_in(Size::new(2, 2)));
    }

    #[test]
    fn size_transposed_swaps() {
        assert_eq!(Size::new(3, 7).transposed(), Size::new(7, 3));
    }

    #[test]
    fn rect_edges() {
        let r = Rect::from_xywh(2, 3, 4, 5);
        assert_eq!(r.left(), 2);
        assert_eq!(r.right(), 6);
        assert_eq!(r.bottom(), 3);
        assert_eq!(r.top(), 8);
        assert_eq!(r.area(), 20);
    }

    #[test]
    fn overlap_is_strict() {
        let a = Rect::from_xywh(0, 0, 2, 2);
        assert!(!a.overlaps(&Rect::from_xywh(2, 0, 2, 2)), "edge touch");
        assert!(!a.overlaps(&Rect::from_xywh(0, 2, 2, 2)), "edge touch");
        assert!(!a.overlaps(&Rect::from_xywh(2, 2, 2, 2)), "corner touch");
        assert!(a.overlaps(&Rect::from_xywh(1, 1, 2, 2)));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn empty_rect_never_overlaps() {
        let a = Rect::from_xywh(0, 0, 2, 2);
        let e = Rect::from_xywh(1, 1, 0, 3);
        assert!(!a.overlaps(&e));
        assert!(!e.overlaps(&a));
    }

    #[test]
    fn containment() {
        let outer = Rect::from_xywh(0, 0, 10, 10);
        assert!(outer.contains_rect(&Rect::from_xywh(0, 0, 10, 10)));
        assert!(outer.contains_rect(&Rect::from_xywh(9, 9, 1, 1)));
        assert!(!outer.contains_rect(&Rect::from_xywh(9, 9, 2, 1)));
    }

    #[test]
    fn contains_cell_matches_bounds() {
        let r = Rect::from_xywh(1, 1, 2, 2);
        assert!(r.contains_cell(1, 1));
        assert!(r.contains_cell(2, 2));
        assert!(!r.contains_cell(3, 1));
        assert!(!r.contains_cell(0, 1));
    }

    #[test]
    fn intersection_clips() {
        let a = Rect::from_xywh(0, 0, 4, 4);
        let b = Rect::from_xywh(2, 3, 5, 5);
        assert_eq!(a.intersection(&b), Some(Rect::from_xywh(2, 3, 2, 1)));
        assert_eq!(a.intersection(&Rect::from_xywh(4, 0, 1, 1)), None);
    }

    #[test]
    fn distance_zero_when_touching() {
        let a = Rect::from_xywh(0, 0, 2, 2);
        assert_eq!(a.distance_to(&Rect::from_xywh(2, 0, 2, 2)), 0);
        assert_eq!(a.distance_to(&Rect::from_xywh(1, 1, 3, 3)), 0);
    }

    #[test]
    fn distance_is_chebyshev_gap() {
        let a = Rect::from_xywh(0, 0, 2, 2);
        assert_eq!(a.distance_to(&Rect::from_xywh(5, 0, 1, 1)), 3);
        assert_eq!(a.distance_to(&Rect::from_xywh(0, 6, 1, 1)), 4);
        assert_eq!(a.distance_to(&Rect::from_xywh(5, 6, 1, 1)), 4);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Rect::from_xywh(0, 0, 2, 2);
        let b = Rect::from_xywh(7, 3, 1, 4);
        assert_eq!(a.distance_to(&b), b.distance_to(&a));
    }

    #[test]
    fn all_disjoint_detects_overlap() {
        let ok = [Rect::from_xywh(0, 0, 2, 2), Rect::from_xywh(2, 0, 2, 2)];
        assert!(all_disjoint(&ok));
        let bad = [Rect::from_xywh(0, 0, 2, 2), Rect::from_xywh(1, 1, 2, 2)];
        assert!(!all_disjoint(&bad));
    }

    #[test]
    fn conversions_from_tuples() {
        assert_eq!(Size::from((2, 3)), Size::new(2, 3));
        assert_eq!(Point::from((2, 3)), Point::new(2, 3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Size::new(2, 3).to_string(), "2x3");
        assert_eq!(Point::new(2, 3).to_string(), "(2, 3)");
        assert_eq!(Rect::from_xywh(1, 2, 3, 4).to_string(), "3x4+(1, 2)");
    }
}
