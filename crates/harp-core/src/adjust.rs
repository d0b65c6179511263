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
use crate::workspace::Workspace;
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
///   the layer (the requester included, at its *old* size); each key once.
/// * `requester` — the child whose component grew.
/// * `new_size` — the grown component `C'_{j,l}` as (slots × channels).
///
/// Returns `Ok(None)` when even a full repack cannot fit — the caller must
/// escalate the request one level up.
///
/// This is `Workspace::adjust` on a fresh [`Workspace`], its outcome
/// collected into owned vectors; a network runs the same code in its own
/// warm workspace, where it allocates nothing.
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
    let mut ws = Workspace::new();
    let adjusted = ws.adjust(parent_rect, children, requester, new_size)?;
    Ok(adjusted.map(|_| ws.adjustment_outcome(children)))
}

/// The working buffers of Alg. 2 that a [`Workspace`] holds beside those it
/// shares with composition.
///
/// Alg. 2 works on entry indices, never on keys, so one scratch serves an
/// interior node's children (keyed by [`NodeId`](tsch_sim::NodeId)) and
/// the gateway's layers (keyed by `(Direction, layer)`) alike. What it
/// decides lives in the workspace until the next adjustment: the new
/// rectangle of every entry in `Workspace::pass2`, by entry index, and the
/// order the layout lists them in here.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdjustScratch {
    /// The parent partition's idle area on the current pass.
    free: FreeSpace,
    /// While the loop runs, the entries re-placed so far (the requester
    /// first, then each removed sibling in removal order) followed by the
    /// siblings still in place; once it succeeds, every entry in key
    /// order.
    order: Vec<u32>,
    /// The requester's index in the entries.
    requester: u32,
    /// How the last outcome was reached.
    path: Path,
}

/// How Alg. 2 reached an outcome, which decides the layout's order and
/// whether the requester counts as moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Path {
    /// The new size fits the old rectangle: the layout keeps the input's
    /// order and the requester moved only if its size changed.
    #[default]
    InPlace,
    /// Placed in the idle area, with siblings removed if need be: the
    /// layout is in key order and the requester always moved.
    IdleArea,
    /// Every sibling removed, all repacked: the layout keeps the input's
    /// order and the requester always moved.
    Repack,
}

impl Workspace {
    /// Alg. 2 in this workspace: [`adjust_partition`]'s decision, kept
    /// here instead of returned. `Some(moved)` counts the partitions that
    /// moved; [`Workspace::moved`] and [`Workspace::adopt_layout`] read
    /// the outcome until the next adjustment. Allocates nothing once the
    /// workspace is warm.
    ///
    /// # Errors
    ///
    /// As [`adjust_partition`].
    pub(crate) fn adjust<K: Copy + Ord>(
        &mut self,
        parent_rect: Rect,
        entries: &[(K, Rect)],
        requester: K,
        new_size: ResourceComponent,
    ) -> Result<Option<usize>, HarpError> {
        let req = entries
            .iter()
            .position(|&(k, _)| k == requester)
            .ok_or(HarpError::UnknownAdjustmentTarget)?;
        let old_rect = entries[req].1;
        let Self {
            adjust: scratch,
            sizes,
            pass1: placements,
            pass2: rects,
            ..
        } = self;
        rects.clear();
        rects.extend(entries.iter().map(|&(_, r)| r));

        // Fast path: the new size still fits where the old partition was;
        // a smaller one shrinks in place (releasing the extra cells).
        if new_size.slots <= old_rect.width() && new_size.channels <= old_rect.height() {
            rects[req] = Rect::new(old_rect.origin, new_size.as_size());
            return Ok(Some(scratch.finish(entries, rects, req, Path::InPlace)));
        }

        // An empty parent partition cannot host any growth: escalate. (Arises
        // when a zero-demand subtree sees its first traffic.)
        if parent_rect.is_empty() {
            return Ok(None);
        }

        // Alg. 2 proper: S ← {C'_j}; grow S with the nearest remaining sibling
        // until everything in S fits the idle areas.
        let order = &mut scratch.order;
        order.clear();
        order.push(req as u32);
        order.extend((0..entries.len() as u32).filter(|&i| {
            let i = i as usize;
            i != req && !entries[i].1.is_empty()
        }));
        sizes.clear();
        sizes.push(new_size.as_size());
        let (dx, dy) = (parent_rect.left(), parent_rect.bottom());
        loop {
            let removed = sizes.len();
            // Idle space = parent minus the partitions still in place.
            scratch.free.reset(parent_rect.size);
            for &i in &scratch.order[removed..] {
                let r = entries[i as usize].1;
                scratch.free.occupy(Rect::from_xywh(
                    r.left() - dx,
                    r.bottom() - dy,
                    r.width(),
                    r.height(),
                ));
            }
            if scratch.free.place_all_into(sizes, placements) {
                for (&i, rel) in scratch.order.iter().zip(placements.iter()) {
                    rects[i as usize] = rel.translated(dx, dy);
                }
                return Ok(Some(scratch.finish(entries, rects, req, Path::IdleArea)));
            }

            // Nothing fits: remove the sibling closest to the requester's old
            // position (ties broken by key for determinism) and retry.
            let Some(nearest) = (removed..scratch.order.len()).min_by_key(|&t| {
                let (k, r) = entries[scratch.order[t] as usize];
                (old_rect.distance_to(&r), k)
            }) else {
                break;
            };
            scratch.order.swap(removed, nearest);
            sizes.push(entries[scratch.order[removed] as usize].1.size);
        }
        // Everything removed: the final fallback is a full repack
        // (Problem 2's rectangle packing).
        self.full_repack(parent_rect, entries, req, new_size)
    }

    /// Full repack of all entries into the parent (the Alg. 2 line-15
    /// fallback), in this workspace's strip packer, `sizes` and `pass1`;
    /// leaves the new rectangles in `pass2`.
    fn full_repack<K: Copy + Ord>(
        &mut self,
        parent_rect: Rect,
        entries: &[(K, Rect)],
        req: usize,
        new_size: ResourceComponent,
    ) -> Result<Option<usize>, HarpError> {
        let size = |i: usize| {
            if i == req {
                new_size.as_size()
            } else {
                entries[i].1.size
            }
        };
        let Self {
            strip,
            adjust: scratch,
            sizes,
            pass1: placements,
            pass2: rects,
            ..
        } = self;
        sizes.clear();
        sizes.extend((0..entries.len()).map(size).filter(|s| !s.is_empty()));
        if !strip.pack_into(sizes, parent_rect.size, placements)? {
            return Ok(None);
        }
        let mut placed = placements.iter();
        for (i, rect) in rects.iter_mut().enumerate() {
            *rect = if size(i).is_empty() {
                Rect::default()
            } else {
                let rel = placed
                    .next()
                    .expect("packable entries align with placements");
                rel.translated(parent_rect.left(), parent_rect.bottom())
            };
        }
        Ok(Some(scratch.finish(entries, rects, req, Path::Repack)))
    }

    /// The partitions the last [`Workspace::adjust`] on `entries` moved,
    /// each with its new rectangle, in key order.
    pub(crate) fn moved<'a, K: Copy>(
        &'a self,
        entries: &'a [(K, Rect)],
    ) -> impl Iterator<Item = (K, Rect)> + 'a {
        (0..entries.len()).filter_map(|t| self.moved_at(entries, t))
    }

    /// The `t`-th of `entries` in key order with its new rectangle, if the
    /// last [`Workspace::adjust`] on them moved it: [`Workspace::moved`]
    /// one at a time, for a caller that needs the workspace in between.
    pub(crate) fn moved_at<K: Copy>(&self, entries: &[(K, Rect)], t: usize) -> Option<(K, Rect)> {
        let i = self.adjust.order[t];
        let (k, old) = entries[i as usize];
        let rect = self.pass2[i as usize];
        self.adjust.moved(i, old, rect).then_some((k, rect))
    }

    /// Rewrites `entries`, the input of the last [`Workspace::adjust`],
    /// into its layout: every entry with its new rectangle, in the
    /// layout's order.
    pub(crate) fn adopt_layout<K: Copy + Ord>(&self, entries: &mut [(K, Rect)]) {
        for ((_, rect), &new) in entries.iter_mut().zip(&self.pass2) {
            *rect = new;
        }
        if self.adjust.path == Path::IdleArea {
            entries.sort_unstable_by_key(|&(k, _)| k);
        }
    }

    /// The last [`Workspace::adjust`] on `entries` as an owned outcome.
    fn adjustment_outcome<K: Copy + Ord>(&self, entries: &[(K, Rect)]) -> AdjustmentOutcome<K> {
        let mut layout = entries.to_vec();
        let moved = self.moved(entries).map(|(k, _)| k).collect();
        self.adopt_layout(&mut layout);
        AdjustmentOutcome { layout, moved }
    }
}

impl AdjustScratch {
    /// Settles an outcome reached by `path` whose new rectangles are
    /// `rects`: lists every entry in key order and returns how many moved.
    fn finish<K: Copy + Ord>(
        &mut self,
        entries: &[(K, Rect)],
        rects: &[Rect],
        requester: usize,
        path: Path,
    ) -> usize {
        (self.requester, self.path) = (requester as u32, path);
        self.order.clear();
        self.order.extend(0..entries.len() as u32);
        // Keys are unique, so the unstable sort is the stable one.
        self.order.sort_unstable_by_key(|&i| entries[i as usize].0);
        (0..entries.len() as u32)
            .filter(|&i| self.moved(i, entries[i as usize].1, rects[i as usize]))
            .count()
    }

    /// Whether entry `i`, which was at `old`, moved to `new`: its rectangle
    /// changed, or it is the requester off the in-place path (Alg. 2 tells
    /// it its grant even when the rectangle stayed, e.g. one still empty).
    fn moved(&self, i: u32, old: Rect, new: Rect) -> bool {
        old != new || (i == self.requester && self.path != Path::InPlace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::{Direction, NodeId, SplitMix64};

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

    /// A seeded Alg. 2 instance over `keys` (distinct, in input order):
    /// a parent partition away from the origin, disjoint children inside it
    /// — packed tight or scattered, a few of them empty — the requester (now
    /// and then a key no child has) and its new size, smaller or larger.
    fn instance<K: Copy>(
        rng: &mut SplitMix64,
        keys: &[K],
        stranger: K,
    ) -> (Rect, Vec<(K, Rect)>, K, ResourceComponent) {
        let (w, h) = (1 + rng.next_below(16) as u32, 1 + rng.next_below(4) as u32);
        let parent = Rect::from_xywh(rng.next_below(40) as u32, rng.next_below(3) as u32, w, h);
        let tight = rng.next_below(2) == 0;
        let mut space = FreeSpace::new(parent.size);
        let mut children = Vec::new();
        for &k in &keys[..1 + rng.next_below(keys.len() as u64) as usize] {
            let size = Size::new(1 + rng.next_below(5) as u32, 1 + rng.next_below(2) as u32);
            let spot = if rng.next_below(6) == 0 {
                None
            } else if tight {
                space.place(size)
            } else {
                let at = packing::Point::new(
                    rng.next_below(u64::from(w)) as u32,
                    rng.next_below(u64::from(h)) as u32,
                );
                let mut probe = space.clone();
                probe.occupy(Rect::new(at, size));
                let fits = at.x + size.w <= w
                    && at.y + size.h <= h
                    && probe.free_area() + size.area() == space.free_area();
                fits.then(|| {
                    space = probe;
                    at
                })
            };
            let rect = spot.map_or(Rect::default(), |at| {
                Rect::new(at, size).translated(parent.left(), parent.bottom())
            });
            children.push((k, rect));
        }
        let requester = if rng.next_below(16) == 0 {
            stranger
        } else {
            children[rng.next_below(children.len() as u64) as usize].0
        };
        let new_size = rc(rng.next_below(9) as u32, 1 + rng.next_below(3) as u32);
        (parent, children, requester, new_size)
    }

    /// Runs one instance through the warm `ws` and through a fresh
    /// [`adjust_partition`], asserts the two agree, and names the path
    /// Alg. 2 took.
    fn warm_against_fresh<K: Copy + Ord + std::fmt::Debug>(
        ws: &mut Workspace,
        (parent, children, requester, new_size): (Rect, Vec<(K, Rect)>, K, ResourceComponent),
        case: u64,
    ) -> &'static str {
        let fresh = adjust_partition(parent, &children, requester, new_size);
        let warm = ws
            .adjust(parent, &children, requester, new_size)
            .map(|moved| moved.map(|_| ws.adjustment_outcome(&children)));
        assert_eq!(warm, fresh, "case {case}");
        match fresh {
            Err(_) => "unknown target",
            Ok(None) => "escalation",
            Ok(Some(outcome)) => match ws.adjust.path {
                Path::InPlace => "in place",
                Path::Repack => "full repack",
                Path::IdleArea if outcome.moved.len() > 1 => "neighbour removal",
                Path::IdleArea => "idle area",
            },
        }
    }

    #[test]
    fn a_warm_scratch_adjusts_as_fresh_ones() {
        // One workspace through a seeded sequence of interior and gateway
        // instances: each must equal a fresh run, layout for layout and
        // error for error — an idle area, an order or a rectangle left
        // over from the previous instance would show.
        let mut ws = Workspace::new();
        let mut paths = std::collections::BTreeMap::new();
        for case in 0..800u64 {
            let mut rng = SplitMix64::new(0xA1_62 ^ case);
            let path = if case % 2 == 0 {
                let mut ids: Vec<NodeId> = (1..=8).map(NodeId).collect();
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
                let inst = instance(&mut rng, &ids, NodeId(99));
                warm_against_fresh(&mut ws, inst, case)
            } else {
                let keys: Vec<(Direction, u32)> = Direction::BOTH
                    .into_iter()
                    .flat_map(|d| (1..=4).map(move |l| (d, l)))
                    .collect();
                let inst = instance(&mut rng, &keys, (Direction::Up, 9));
                warm_against_fresh(&mut ws, inst, case)
            };
            *paths.entry(path).or_insert(0) += 1;
        }
        let kinds = [
            "in place",
            "idle area",
            "neighbour removal",
            "full repack",
            "escalation",
            "unknown target",
        ];
        for kind in kinds {
            assert!(
                paths.get(kind).is_some_and(|&n| n >= 10),
                "{kind}: {paths:?}"
            );
        }
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
