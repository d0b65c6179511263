//! A shelf-based strip-packing baseline used for the ablation study.
//!
//! The HARP paper picks the best-fit skyline heuristic for resource-component
//! composition; this simpler packer exists to quantify that choice (see the
//! `packers_n*` rows of `ablation_report`):
//!
//! * [`pack_strip_ffdh`] — First-Fit Decreasing Height: sort by height, place
//!   each item on the first shelf it fits, open a new shelf otherwise. The
//!   classic 1.7·OPT + 1 approximation.

use crate::skyline::{validate, StripPacking};
use crate::{PackError, Rect, Size};

/// A horizontal shelf: items are placed left to right, the shelf height is
/// fixed by its first (tallest) item.
#[derive(Debug, Clone)]
struct Shelf {
    y: u32,
    height: u32,
    used_width: u32,
}

/// Packs `items` into a strip of `width` using First-Fit Decreasing Height.
///
/// # Errors
///
/// Same conditions as [`crate::pack_strip`]: zero-width strip, empty items,
/// or an item wider than the strip.
///
/// # Examples
///
/// ```
/// use packing::{shelf::pack_strip_ffdh, Size};
///
/// # fn main() -> Result<(), packing::PackError> {
/// let items = [Size::new(3, 2), Size::new(3, 2), Size::new(4, 1)];
/// let packing = pack_strip_ffdh(&items, 6)?;
/// assert_eq!(packing.height(), 3); // shelf of height 2, shelf of height 1
/// # Ok(())
/// # }
/// ```
pub fn pack_strip_ffdh(items: &[Size], width: u32) -> Result<StripPacking, PackError> {
    validate(items.iter().copied(), width)?;
    let mut shelves: Vec<Shelf> = Vec::new();
    let mut placements = vec![Rect::default(); items.len()];
    let mut top = 0u32;
    // Decreasing height (ties: decreasing width, then input order), the
    // order the guarantee needs.
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| (items[b].h, items[b].w, a).cmp(&(items[a].h, items[a].w, b)));

    for idx in order {
        let size = items[idx];
        let candidate = shelves
            .iter_mut()
            .find(|s| s.height >= size.h && s.used_width + size.w <= width);
        let shelf = match candidate {
            Some(shelf) => shelf,
            None => {
                shelves.push(Shelf {
                    y: top,
                    height: size.h,
                    used_width: 0,
                });
                top += size.h;
                shelves.last_mut().expect("just pushed")
            }
        };
        placements[idx] = Rect::from_xywh(shelf.used_width, shelf.y, size.w, size.h);
        shelf.used_width += size.w;
    }

    let height = placements.iter().map(Rect::top).max().unwrap_or(0);
    Ok(StripPacking::from_parts(placements, width, height))
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
            assert_eq!(rect.size, *item);
            assert!(rect.right() <= packing.width());
            assert!(rect.top() <= packing.height());
        }
        assert!(all_disjoint(packing.placements()));
    }

    #[test]
    fn ffdh_single_shelf() {
        let items = sizes(&[(2, 2), (2, 2), (2, 2)]);
        let p = pack_strip_ffdh(&items, 6).unwrap();
        check_valid(&items, &p);
        assert_eq!(p.height(), 2);
    }

    #[test]
    fn ffdh_reuses_earlier_shelf() {
        // Heights sorted: 3, 2, 1, 1. The two unit items return to shelf 1's
        // spare width.
        let items = sizes(&[(4, 3), (4, 2), (1, 1), (1, 1)]);
        let ffdh = pack_strip_ffdh(&items, 6).unwrap();
        check_valid(&items, &ffdh);
        assert_eq!(ffdh.height(), 5);
        assert_eq!(ffdh.placements()[2].bottom(), 0, "on the first shelf");
    }

    #[test]
    fn shelf_errors_match_skyline() {
        assert_eq!(
            pack_strip_ffdh(&[Size::new(1, 1)], 0).unwrap_err(),
            PackError::ZeroWidthStrip
        );
        assert_eq!(
            pack_strip_ffdh(&sizes(&[(0, 1)]), 5).unwrap_err(),
            PackError::EmptyItem { index: 0 }
        );
        assert_eq!(
            pack_strip_ffdh(&sizes(&[(9, 1)]), 5).unwrap_err(),
            PackError::ItemTooWide {
                index: 0,
                item_width: 9,
                strip_width: 5
            }
        );
    }

    #[test]
    fn empty_input_is_flat() {
        assert_eq!(pack_strip_ffdh(&[], 5).unwrap().height(), 0);
    }

    #[test]
    fn skyline_not_worse_than_shelves_on_mixed_load() {
        // Sanity anchor for the ablation claim: on a mixed workload the
        // skyline heuristic should not lose to the shelf baseline.
        let items = sizes(&[
            (5, 3),
            (3, 4),
            (2, 2),
            (4, 1),
            (1, 5),
            (6, 2),
            (2, 3),
            (3, 1),
        ]);
        let sky = crate::pack_strip(&items, 8).unwrap();
        let ffdh = pack_strip_ffdh(&items, 8).unwrap();
        check_valid(&items, &sky);
        assert!(sky.height() <= ffdh.height());
    }
}
