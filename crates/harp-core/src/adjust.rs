//! Dynamic partition adjustment (§V of the paper): the feasibility test
//! (Problem 2) and the cost-aware adjustment heuristic (Problem 3 / Alg. 2).
//!
//! When a child subtree's component at some layer grows, its parent must
//! find room for the larger rectangle inside its own partition at that
//! layer. Moving a partition is expensive — every descendant holding cells
//! inside it must be told — so the heuristic minimises the number of *other*
//! partitions that move:
//!
//! 1. first try to place the grown component using only the idle areas of
//!    the parent partition (no sibling moves at all);
//! 2. otherwise remove the sibling closest to the grown component's old
//!    position, add it to the set to re-place, and retry;
//! 3. when every sibling has been removed the problem degenerates to plain
//!    rectangle packing (the feasibility test); if even that fails the
//!    request must escalate to the grandparent.

use crate::component::ResourceComponent;
use crate::error::HarpError;
use packing::{pack_into, FreeSpace, Rect, Size};

/// The outcome of a successful partition adjustment.
///
/// Generic over the key identifying each sub-partition: interior nodes key
/// by child [`NodeId`](tsch_sim::NodeId); the gateway keys its slotframe-level
/// adjustment by `(Direction, layer)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjustmentOutcome<K> {
    /// The new absolute placement of every child partition at the layer,
    /// including the requester's. Children absent from the input keep their
    /// (empty) placements.
    pub layout: Vec<(K, Rect)>,
    /// Children whose partition rectangle changed (the requester always
    /// appears here unless its old rectangle happened to fit the new size).
    pub moved: Vec<K>,
}

impl<K> AdjustmentOutcome<K> {
    /// Number of partitions that moved — the communication-overhead metric
    /// minimised by Alg. 2.
    #[must_use]
    pub fn moved_count(&self) -> usize {
        self.moved.len()
    }

    /// The partitions that moved, each with its new rectangle, in `moved`
    /// order.
    pub(crate) fn moved_rects(&self) -> impl Iterator<Item = (K, Rect)> + '_
    where
        K: Copy + Eq,
    {
        self.moved.iter().map(|&k| {
            let (_, rect) = self
                .layout
                .iter()
                .find(|&&(n, _)| n == k)
                .expect("a moved key is in the layout");
            (k, *rect)
        })
    }
}

/// The feasibility test (Problem 2): can the updated component plus its
/// siblings' components be packed inside the parent partition at all?
///
/// This is the oracle a node consults before deciding between adjusting
/// locally and escalating to its parent. It ignores current placements —
/// a full repack is permitted.
///
/// # Errors
///
/// Propagates [`HarpError::Pack`] on degenerate input (an empty parent
/// partition with non-empty components is reported as infeasible, not an
/// error).
pub fn is_feasible(
    parent: ResourceComponent,
    components: &[ResourceComponent],
) -> Result<bool, HarpError> {
    let items: Vec<Size> = components
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| c.as_size())
        .collect();
    if items.is_empty() {
        return Ok(true);
    }
    if parent.is_empty() {
        return Ok(false);
    }
    Ok(pack_into(&items, parent.as_size())?.is_some())
}

/// Cost-aware partition adjustment (Alg. 2).
///
/// * `parent_rect` — the parent partition `P_{p,l}` (absolute).
/// * `children` — current absolute placements of all child partitions at
///   the layer (the requester included, at its *old* size).
/// * `requester` — the child whose component grew.
/// * `new_size` — the grown component `C'_{j,l}` as (slots × channels).
///
/// Returns `Ok(None)` when even a full repack cannot fit — the caller must
/// escalate the request one level up.
///
/// # Errors
///
/// Propagates packing-input errors ([`HarpError::Pack`]); an unknown
/// `requester` is also an error.
///
/// # Examples
///
/// ```
/// use harp_core::{adjust_partition, ResourceComponent};
/// use packing::Rect;
/// use tsch_sim::NodeId;
///
/// # fn main() -> Result<(), harp_core::HarpError> {
/// let parent = Rect::from_xywh(0, 0, 10, 2);
/// let children = vec![
///     (NodeId(1), Rect::from_xywh(0, 0, 4, 1)),
///     (NodeId(2), Rect::from_xywh(4, 0, 3, 1)),
/// ];
/// // Node 1 grows to 6x1: plenty of idle space, nothing else moves.
/// let outcome = adjust_partition(
///     parent,
///     &children,
///     NodeId(1),
///     ResourceComponent::new(6, 1),
/// )?
/// .expect("fits");
/// assert_eq!(outcome.moved, vec![NodeId(1)]);
/// # Ok(())
/// # }
/// ```
pub fn adjust_partition<K: Copy + Ord>(
    parent_rect: Rect,
    children: &[(K, Rect)],
    requester: K,
    new_size: ResourceComponent,
) -> Result<Option<AdjustmentOutcome<K>>, HarpError> {
    let old_rect = children
        .iter()
        .find(|(n, _)| *n == requester)
        .map(|&(_, r)| r)
        .ok_or(HarpError::UnknownAdjustmentTarget)?;

    // Fast path: the new size still fits where the old partition was.
    if new_size.slots <= old_rect.width() && new_size.channels <= old_rect.height() {
        let mut layout = children.to_vec();
        let mut moved = Vec::new();
        if new_size.slots != old_rect.width() || new_size.channels != old_rect.height() {
            // Shrink in place (release the extra cells).
            for (n, r) in &mut layout {
                if *n == requester {
                    *r = Rect::new(old_rect.origin, new_size.as_size());
                    moved.push(requester);
                }
            }
        }
        return Ok(Some(AdjustmentOutcome { layout, moved }));
    }

    // An empty parent partition cannot host any growth: escalate. (Arises
    // when a zero-demand subtree sees its first traffic.)
    if parent_rect.is_empty() {
        return Ok(None);
    }

    // Alg. 2 proper: S ← {C'_j}; grow S with the nearest remaining sibling
    // until everything in S fits the idle areas.
    let mut removed: Vec<(K, Size)> = vec![(requester, new_size.as_size())];
    let mut remaining: Vec<(K, Rect)> = children
        .iter()
        .filter(|&&(n, r)| n != requester && !r.is_empty())
        .copied()
        .collect();
    let untouched_empty: Vec<(K, Rect)> = children
        .iter()
        .filter(|&&(n, r)| n != requester && r.is_empty())
        .copied()
        .collect();

    loop {
        // Idle space = parent minus the partitions still in place.
        let mut free = FreeSpace::new(parent_rect.size);
        for &(_, r) in &remaining {
            let rel = Rect::from_xywh(
                r.left() - parent_rect.left(),
                r.bottom() - parent_rect.bottom(),
                r.width(),
                r.height(),
            );
            free.occupy(rel);
        }
        let sizes: Vec<Size> = removed.iter().map(|&(_, s)| s).collect();
        if let Some(placements) = free.place_all(&sizes) {
            let mut layout: Vec<(K, Rect)> = remaining.clone();
            layout.extend(untouched_empty.iter().copied());
            let mut moved = Vec::new();
            for (&(node, _), rel) in removed.iter().zip(&placements) {
                let abs = rel.translated(parent_rect.left(), parent_rect.bottom());
                layout.push((node, abs));
                let old = children
                    .iter()
                    .find(|(n, _)| *n == node)
                    .map(|&(_, r)| r)
                    .expect("removed children come from the input");
                if abs != old {
                    moved.push(node);
                } else if node == requester {
                    // Same origin but a different size still counts as a
                    // change the child must learn about.
                    moved.push(node);
                }
            }
            layout.sort_by_key(|&(n, _)| n);
            moved.sort_unstable();
            return Ok(Some(AdjustmentOutcome { layout, moved }));
        }

        // Nothing fits: remove the sibling closest to the requester's old
        // position (ties broken by id for determinism) and retry.
        let Some(best_idx) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &(n, r))| (old_rect.distance_to(&r), n))
            .map(|(i, _)| i)
        else {
            // Everything removed: the final fallback is a full repack
            // (Problem 2's rectangle packing).
            return full_repack(parent_rect, children, requester, new_size);
        };
        let (node, rect) = remaining.swap_remove(best_idx);
        removed.push((node, rect.size));
    }
}

/// Full repack of all child partitions into the parent (the Alg. 2 line-15
/// fallback).
fn full_repack<K: Copy + Ord>(
    parent_rect: Rect,
    children: &[(K, Rect)],
    requester: K,
    new_size: ResourceComponent,
) -> Result<Option<AdjustmentOutcome<K>>, HarpError> {
    let entries: Vec<(K, Size)> = children
        .iter()
        .map(|&(n, r)| {
            (
                n,
                if n == requester {
                    new_size.as_size()
                } else {
                    r.size
                },
            )
        })
        .collect();
    let packable: Vec<(K, Size)> = entries
        .iter()
        .filter(|(_, s)| !s.is_empty())
        .copied()
        .collect();
    let sizes: Vec<Size> = packable.iter().map(|&(_, s)| s).collect();
    let Some(placements) = pack_into(&sizes, parent_rect.size)? else {
        return Ok(None);
    };
    let mut layout = Vec::with_capacity(children.len());
    let mut moved = Vec::new();
    let mut placed = packable.iter().zip(&placements);
    for &(node, old) in children {
        let size = if node == requester {
            new_size.as_size()
        } else {
            old.size
        };
        let abs = if size.is_empty() {
            Rect::default()
        } else {
            let (_, rel) = placed
                .next()
                .expect("packable entries align with placements");
            rel.translated(parent_rect.left(), parent_rect.bottom())
        };
        layout.push((node, abs));
        if abs != old || node == requester {
            moved.push(node);
        }
    }
    moved.sort_unstable();
    Ok(Some(AdjustmentOutcome { layout, moved }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::NodeId;

    fn rc(s: u32, c: u32) -> ResourceComponent {
        ResourceComponent::new(s, c)
    }

    fn check_outcome(
        parent: Rect,
        children: &[(NodeId, Rect)],
        requester: NodeId,
        new_size: ResourceComponent,
        outcome: &AdjustmentOutcome<NodeId>,
    ) {
        // Every child appears exactly once.
        assert_eq!(outcome.layout.len(), children.len());
        for &(n, _) in children {
            assert_eq!(outcome.layout.iter().filter(|(m, _)| *m == n).count(), 1);
        }
        // Sizes: requester has the new size, others keep theirs.
        for &(n, r) in &outcome.layout {
            let old = children.iter().find(|(m, _)| *m == n).unwrap().1;
            if n == requester {
                assert_eq!(r.size, new_size.as_size());
            } else {
                assert_eq!(r.size, old.size);
            }
            assert!(
                r.is_empty() || parent.contains_rect(&r),
                "{n} at {r} outside parent"
            );
        }
        // No overlaps.
        let rects: Vec<Rect> = outcome
            .layout
            .iter()
            .map(|&(_, r)| r)
            .filter(|r| !r.is_empty())
            .collect();
        assert!(packing::all_disjoint(&rects));
        // moved lists exactly the changed children (plus always the requester).
        for &(n, r) in &outcome.layout {
            let old = children.iter().find(|(m, _)| *m == n).unwrap().1;
            if n != requester {
                assert_eq!(outcome.moved.contains(&n), r != old, "moved flag of {n}");
            }
        }
    }

    #[test]
    fn shrink_in_place_moves_only_requester() {
        let parent = Rect::from_xywh(0, 0, 10, 1);
        let children = vec![
            (NodeId(1), Rect::from_xywh(0, 0, 4, 1)),
            (NodeId(2), Rect::from_xywh(4, 0, 4, 1)),
        ];
        let outcome = adjust_partition(parent, &children, NodeId(1), rc(2, 1))
            .unwrap()
            .unwrap();
        check_outcome(parent, &children, NodeId(1), rc(2, 1), &outcome);
        assert_eq!(outcome.moved, vec![NodeId(1)]);
        assert_eq!(
            outcome
                .layout
                .iter()
                .find(|(n, _)| *n == NodeId(1))
                .unwrap()
                .1,
            Rect::from_xywh(0, 0, 2, 1)
        );
    }

    #[test]
    fn same_size_is_a_noop() {
        let parent = Rect::from_xywh(0, 0, 10, 1);
        let children = vec![(NodeId(1), Rect::from_xywh(0, 0, 4, 1))];
        let outcome = adjust_partition(parent, &children, NodeId(1), rc(4, 1))
            .unwrap()
            .unwrap();
        assert!(outcome.moved.is_empty());
        assert_eq!(outcome.layout, children);
    }

    #[test]
    fn grow_into_idle_space_moves_only_requester() {
        // Paper Fig. 6(c): the grown partition relocates into idle space,
        // everything else stays.
        let parent = Rect::from_xywh(0, 0, 12, 2);
        let children = vec![
            (NodeId(1), Rect::from_xywh(0, 0, 4, 1)),
            (NodeId(2), Rect::from_xywh(4, 0, 4, 1)),
            (NodeId(3), Rect::from_xywh(0, 1, 4, 1)),
        ];
        let outcome = adjust_partition(parent, &children, NodeId(2), rc(8, 1))
            .unwrap()
            .unwrap();
        check_outcome(parent, &children, NodeId(2), rc(8, 1), &outcome);
        assert_eq!(outcome.moved, vec![NodeId(2)], "only the requester moves");
    }

    #[test]
    fn grow_requires_moving_one_neighbour() {
        // Idle space is fragmented; moving the nearest sibling frees a
        // contiguous run.
        let parent = Rect::from_xywh(0, 0, 10, 1);
        let children = vec![
            (NodeId(1), Rect::from_xywh(0, 0, 3, 1)),
            (NodeId(2), Rect::from_xywh(4, 0, 3, 1)),
        ];
        // Node 1 wants 6 slots: idle cells are {3} and {7,8,9} — not
        // contiguous enough, so node 2 must move.
        let outcome = adjust_partition(parent, &children, NodeId(1), rc(6, 1))
            .unwrap()
            .unwrap();
        check_outcome(parent, &children, NodeId(1), rc(6, 1), &outcome);
        assert_eq!(outcome.moved, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn infeasible_growth_escalates() {
        let parent = Rect::from_xywh(0, 0, 8, 1);
        let children = vec![
            (NodeId(1), Rect::from_xywh(0, 0, 4, 1)),
            (NodeId(2), Rect::from_xywh(4, 0, 4, 1)),
        ];
        // 4 + 6 > 8: impossible even with a full repack.
        let outcome = adjust_partition(parent, &children, NodeId(1), rc(6, 1)).unwrap();
        assert!(outcome.is_none());
    }

    #[test]
    fn channel_growth_uses_second_dimension() {
        let parent = Rect::from_xywh(0, 0, 6, 3);
        let children = vec![
            (NodeId(1), Rect::from_xywh(0, 0, 6, 1)),
            (NodeId(2), Rect::from_xywh(0, 1, 3, 1)),
        ];
        // Node 2 grows to 3x2: fits above its old spot or beside.
        let outcome = adjust_partition(parent, &children, NodeId(2), rc(3, 2))
            .unwrap()
            .unwrap();
        check_outcome(parent, &children, NodeId(2), rc(3, 2), &outcome);
        assert_eq!(outcome.moved, vec![NodeId(2)]);
    }

    #[test]
    fn closest_neighbour_removed_first() {
        // Three siblings; the grown one is adjacent to node 2, distant from
        // node 3. If one sibling must move it should be node 2.
        let parent = Rect::from_xywh(0, 0, 12, 1);
        let children = vec![
            (NodeId(1), Rect::from_xywh(0, 0, 3, 1)),
            (NodeId(2), Rect::from_xywh(3, 0, 3, 1)),
            (NodeId(3), Rect::from_xywh(9, 0, 3, 1)),
        ];
        // Node 1 wants 5 slots: idle is {6,7,8} (3 slots) — insufficient,
        // remove node 2 (closest) → idle {3..9} = 6 slots → 5 + 3 fit.
        let outcome = adjust_partition(parent, &children, NodeId(1), rc(5, 1))
            .unwrap()
            .unwrap();
        check_outcome(parent, &children, NodeId(1), rc(5, 1), &outcome);
        assert!(outcome.moved.contains(&NodeId(2)));
        assert!(
            !outcome.moved.contains(&NodeId(3)),
            "distant sibling untouched"
        );
    }

    #[test]
    fn full_repack_when_badly_fragmented() {
        // Four 2-wide siblings spaced out in an 11-slot row; the requester
        // wants 5 — several removals are needed; the heuristic must still
        // find the repacked solution.
        let parent = Rect::from_xywh(0, 0, 11, 1);
        let children = vec![
            (NodeId(1), Rect::from_xywh(0, 0, 2, 1)),
            (NodeId(2), Rect::from_xywh(3, 0, 2, 1)),
            (NodeId(3), Rect::from_xywh(6, 0, 2, 1)),
            (NodeId(4), Rect::from_xywh(9, 0, 2, 1)),
        ];
        let outcome = adjust_partition(parent, &children, NodeId(1), rc(5, 1))
            .unwrap()
            .unwrap();
        check_outcome(parent, &children, NodeId(1), rc(5, 1), &outcome);
        // 5 + 2 + 2 + 2 = 11 exactly: feasible only as a full repack.
        assert!(outcome.moved_count() >= 3);
    }

    #[test]
    fn unknown_requester_is_an_error() {
        let parent = Rect::from_xywh(0, 0, 8, 1);
        let children = vec![(NodeId(1), Rect::from_xywh(0, 0, 4, 1))];
        let err = adjust_partition(parent, &children, NodeId(9), rc(1, 1)).unwrap_err();
        assert_eq!(err, HarpError::UnknownAdjustmentTarget);
    }

    #[test]
    fn empty_sibling_partitions_are_preserved() {
        let parent = Rect::from_xywh(0, 0, 8, 1);
        let children = vec![
            (NodeId(1), Rect::from_xywh(0, 0, 4, 1)),
            (NodeId(2), Rect::default()), // zero-demand sibling
        ];
        let outcome = adjust_partition(parent, &children, NodeId(1), rc(6, 1))
            .unwrap()
            .unwrap();
        check_outcome(parent, &children, NodeId(1), rc(6, 1), &outcome);
        let empty = outcome
            .layout
            .iter()
            .find(|(n, _)| *n == NodeId(2))
            .unwrap();
        assert!(empty.1.is_empty());
        assert!(!outcome.moved.contains(&NodeId(2)));
    }

    #[test]
    fn a_parent_away_from_the_origin_keeps_placements_inside() {
        // Parent partition not at the origin: placements must stay inside
        // the absolute rectangle.
        let parent = Rect::from_xywh(50, 3, 8, 2);
        let children = vec![
            (NodeId(1), Rect::from_xywh(50, 3, 4, 1)),
            (NodeId(2), Rect::from_xywh(54, 3, 4, 1)),
        ];
        let outcome = adjust_partition(parent, &children, NodeId(1), rc(4, 2))
            .unwrap()
            .unwrap();
        check_outcome(parent, &children, NodeId(1), rc(4, 2), &outcome);
    }

    // ---- feasibility test ----

    #[test]
    fn feasibility_accepts_fitting_sets() {
        assert!(is_feasible(rc(10, 2), &[rc(5, 1), rc(5, 1), rc(10, 1)]).unwrap());
        assert!(is_feasible(rc(4, 4), &[]).unwrap());
        assert!(is_feasible(rc(0, 0), &[]).unwrap());
    }

    #[test]
    fn feasibility_rejects_overflow() {
        assert!(!is_feasible(rc(10, 1), &[rc(6, 1), rc(5, 1)]).unwrap());
        assert!(!is_feasible(rc(0, 0), &[rc(1, 1)]).unwrap());
        assert!(
            !is_feasible(rc(4, 1), &[rc(1, 2)]).unwrap(),
            "too many channels"
        );
    }

    #[test]
    fn feasibility_ignores_empty_components() {
        assert!(is_feasible(rc(2, 1), &[rc(0, 1), rc(2, 1), rc(0, 0)]).unwrap());
    }
}
