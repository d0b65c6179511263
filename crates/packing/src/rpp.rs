//! Rectangle Packing Problem (RPP): can a set of rectangles fit inside a
//! fixed container?
//!
//! HARP's dynamic-adjustment *feasibility test* (Problem 2 in the paper) is an
//! RPP instance: given the updated resource component and its siblings, decide
//! whether they still fit in the parent's partition. Following the paper we
//! answer it with the best-fit skyline heuristic — pack into a strip of the
//! container's width and accept if the achieved height fits. The heuristic is
//! sound (a reported packing is always valid) but, like any heuristic for an
//! NP-hard problem, incomplete: it may report "no" for instances an exact
//! solver could pack.

use crate::{PackError, Rect, Size, StripWorkspace};

impl StripWorkspace {
    /// The container form of the packer: [`pack_into`]'s decision, its
    /// placements written into a buffer the caller brings, so a warm
    /// workspace allocates nothing.
    ///
    /// Returns whether the items fit. When they do, `placements` holds one
    /// placement per item, in input order, pairwise disjoint and inside
    /// `(0,0)..(container.w, container.h)`; when they do not, it holds the
    /// last attempt's. On error it is left as it was.
    ///
    /// # Errors
    ///
    /// As [`pack_into`].
    pub fn pack_into(
        &mut self,
        items: &[Size],
        container: Size,
        placements: &mut Vec<Rect>,
    ) -> Result<bool, PackError> {
        crate::obs::CONTAINER_PACKS.add(1);
        if container.is_empty() {
            return Err(PackError::ZeroWidthStrip);
        }
        for (index, item) in items.iter().enumerate() {
            if item.is_empty() {
                return Err(PackError::EmptyItem { index });
            }
        }
        if items.iter().any(|i| !i.fits_in(container)) {
            return Ok(false);
        }

        // Primary orientation: strip width = container width, height bound =
        // container height.
        if self.pack(items, container.w, placements)? <= container.h {
            return Ok(true);
        }

        // Secondary orientation: pack along the other axis (read every item
        // transposed, then transpose the placements back). The items
        // themselves are still not rotated — only the packing direction
        // changes.
        if self.pack_oriented(items, container.h, Size::transposed, placements)? <= container.w {
            for r in placements.iter_mut() {
                *r = Rect::from_xywh(r.origin.y, r.origin.x, r.size.h, r.size.w);
            }
            return Ok(true);
        }
        Ok(false)
    }
}

/// Attempts to pack `items` inside a `container` of fixed size:
/// [`StripWorkspace::pack_into`] on a fresh workspace.
///
/// On success, returns one placement per item (input order) whose rectangles
/// are pairwise disjoint and lie within `(0,0)..(container.w, container.h)`.
/// Returns `Ok(None)` when the heuristic cannot fit the items.
///
/// The heuristic tries both axis assignments (packing along the container's
/// width and along its height) and accepts the first that fits, which in
/// practice recovers most of the gap to an exact solver at negligible cost.
///
/// # Errors
///
/// * [`PackError::ZeroWidthStrip`] if the container has a zero dimension.
/// * [`PackError::EmptyItem`] if any item has a zero dimension.
///
/// An item larger than the container is not an error — it simply makes the
/// instance infeasible (`Ok(None)`).
///
/// # Examples
///
/// ```
/// use packing::{pack_into, Size};
///
/// # fn main() -> Result<(), packing::PackError> {
/// let items = [Size::new(2, 2), Size::new(2, 2)];
/// assert!(pack_into(&items, Size::new(4, 2))?.is_some());
/// assert!(pack_into(&items, Size::new(3, 2))?.is_none());
/// # Ok(())
/// # }
/// ```
pub fn pack_into(items: &[Size], container: Size) -> Result<Option<Vec<Rect>>, PackError> {
    let mut placements = Vec::with_capacity(items.len());
    let fits = StripWorkspace::new().pack_into(items, container, &mut placements)?;
    Ok(fits.then_some(placements))
}

/// Convenience wrapper for [`pack_into`] when only feasibility is needed.
///
/// # Errors
///
/// Same conditions as [`pack_into`].
///
/// # Examples
///
/// ```
/// use packing::{fits_into, Size};
///
/// # fn main() -> Result<(), packing::PackError> {
/// assert!(fits_into(&[Size::new(1, 1); 4], Size::new(2, 2))?);
/// assert!(!fits_into(&[Size::new(1, 1); 5], Size::new(2, 2))?);
/// # Ok(())
/// # }
/// ```
pub fn fits_into(items: &[Size], container: Size) -> Result<bool, PackError> {
    crate::obs::FEASIBILITY_TESTS.add(1);
    Ok(pack_into(items, container)?.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_disjoint;

    fn sizes(v: &[(u32, u32)]) -> Vec<Size> {
        v.iter().map(|&(w, h)| Size::new(w, h)).collect()
    }

    fn check_inside(items: &[Size], container: Size, placements: &[Rect]) {
        let bounds = Rect::from_xywh(0, 0, container.w, container.h);
        assert_eq!(placements.len(), items.len());
        for (item, rect) in items.iter().zip(placements) {
            assert_eq!(rect.size, *item);
            assert!(bounds.contains_rect(rect), "{rect} outside {container}");
        }
        assert!(all_disjoint(placements));
    }

    #[test]
    fn exact_tiling_fits() {
        let items = sizes(&[(2, 2); 4]);
        let container = Size::new(4, 4);
        let placements = pack_into(&items, container).unwrap().unwrap();
        check_inside(&items, container, &placements);
    }

    #[test]
    fn over_capacity_is_infeasible() {
        // Total area 17 > 16.
        let mut items = sizes(&[(2, 2); 4]);
        items.push(Size::new(1, 1));
        assert!(pack_into(&items, Size::new(4, 4)).unwrap().is_none());
    }

    #[test]
    fn item_taller_than_container_is_infeasible_not_error() {
        assert!(pack_into(&sizes(&[(1, 5)]), Size::new(10, 4))
            .unwrap()
            .is_none());
    }

    #[test]
    fn item_wider_than_container_is_infeasible_not_error() {
        assert!(pack_into(&sizes(&[(11, 1)]), Size::new(10, 4))
            .unwrap()
            .is_none());
    }

    #[test]
    fn empty_container_is_error() {
        assert_eq!(
            pack_into(&sizes(&[(1, 1)]), Size::new(0, 4)).unwrap_err(),
            PackError::ZeroWidthStrip
        );
    }

    #[test]
    fn empty_item_is_error() {
        assert_eq!(
            pack_into(&sizes(&[(1, 0)]), Size::new(4, 4)).unwrap_err(),
            PackError::EmptyItem { index: 0 }
        );
    }

    #[test]
    fn no_items_always_fit() {
        assert!(fits_into(&[], Size::new(1, 1)).unwrap());
    }

    #[test]
    fn transposed_orientation_rescues_tall_instances() {
        // Three 1x4 columns in a 3x4 container: the primary orientation
        // packs them side by side already, but a 4x1-rows instance in a
        // 1x12 container needs nothing fancy either. Construct a case where
        // packing along the height axis is the natural fit.
        let items = sizes(&[(1, 4), (1, 4), (1, 4)]);
        let container = Size::new(3, 4);
        let placements = pack_into(&items, container).unwrap().unwrap();
        check_inside(&items, container, &placements);
    }

    #[test]
    fn feasibility_matches_packing() {
        let items = sizes(&[(3, 2), (2, 3), (2, 2)]);
        let container = Size::new(5, 4);
        let fit = fits_into(&items, container).unwrap();
        let packed = pack_into(&items, container).unwrap();
        assert_eq!(fit, packed.is_some());
    }

    #[test]
    fn single_item_exactly_container_sized() {
        let items = sizes(&[(7, 3)]);
        let container = Size::new(7, 3);
        let placements = pack_into(&items, container).unwrap().unwrap();
        check_inside(&items, container, &placements);
        assert_eq!(placements[0], Rect::from_xywh(0, 0, 7, 3));
    }

    #[test]
    fn harp_shaped_instance_rows_fit() {
        // HARP components at a layer are rows [n_s, 1]; many rows must fit a
        // partition that is wide in slots and short in channels.
        let items = sizes(&[(5, 1), (3, 1), (4, 1), (2, 1), (6, 1)]);
        let container = Size::new(10, 2);
        let placements = pack_into(&items, container).unwrap().unwrap();
        check_inside(&items, container, &placements);
    }
}
