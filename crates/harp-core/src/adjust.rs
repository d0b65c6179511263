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
//!    the parent partition (no sibling moves at all), around its old
//!    rectangle if it can be — the grown partition's own children then
//!    stay where they are — and wherever it fits best if not;
//! 2. otherwise remove the sibling closest to the grown component's old
//!    position, add it to the set to re-place, and retry;
//! 3. when every sibling has been removed the problem degenerates to plain
//!    rectangle packing into the empty parent: that last pass is the
//!    feasibility test (Problem 2), and if it fails the request must
//!    escalate to the grandparent.

use crate::component::ResourceComponent;
use crate::error::HarpError;
use crate::workspace::Workspace;
use packing::{FreeSpace, Point, Rect, Size};
use tsch_sim::NodeId;

/// The outcome of a successful partition adjustment.
///
/// Generic over the key identifying each sub-partition: interior nodes key
/// by child [`NodeId`]; the gateway keys its slotframe-level
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

/// Cost-aware partition adjustment (Alg. 2).
///
/// * `parent_rect` — the parent partition `P_{p,l}` (absolute).
/// * `children` — current absolute placements of all child partitions at
///   the layer (the requester included, at its *old* size); each key once.
/// * `requester` — the child whose component grew.
/// * `new_size` — the grown component `C'_{j,l}` as (slots × channels).
///
/// Returns `Ok(None)` when the entries do not fit even with every sibling
/// removed and re-placed — the caller must escalate the request one level
/// up.
///
/// This is `Workspace::adjust` on a fresh [`Workspace`], its outcome
/// collected into owned vectors; a network runs the same code in its own
/// warm workspace, where it allocates nothing.
///
/// # Errors
///
/// [`HarpError::UnknownAdjustmentTarget`] when no entry is `requester`.
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

/// `r`, inside `partition`, relative to `partition`'s origin, as a layout
/// holds it; an empty `r` is the empty rectangle, wherever it sat.
pub(crate) fn relative_to(r: Rect, partition: Rect) -> Rect {
    if r.is_empty() {
        return Rect::default();
    }
    let origin = Point::new(r.left() - partition.left(), r.bottom() - partition.bottom());
    Rect::new(origin, r.size)
}

/// The working buffers of Alg. 2 that a [`Workspace`] holds beside those it
/// shares with composition.
///
/// Alg. 2 works on entry indices, never on keys, so one scratch serves an
/// interior node's children (keyed by [`NodeId`]) and
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
        // a smaller one shrinks in place (releasing the extra cells). An
        // empty size needs no room, however tall or wide.
        let fits = new_size.slots <= old_rect.width() && new_size.channels <= old_rect.height();
        if fits || new_size.is_empty() {
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
            // With every sibling in place, grow around the old rectangle
            // first: the requester's own children then keep their cells.
            if removed == 1 && !old_rect.is_empty() && parent_rect.contains_rect(&old_rect) {
                let (x, y) = (old_rect.left() - dx, old_rect.bottom() - dy);
                let around = Rect::new(Point::new(x, y), old_rect.size);
                if let Some(at) = scratch.free.place_around(sizes[0], around) {
                    rects[req] = Rect::new(at, sizes[0]).translated(dx, dy);
                    return Ok(Some(scratch.finish(entries, rects, req, Path::IdleArea)));
                }
            }
            if scratch.free.place_all_into(sizes, placements) {
                for (&i, rel) in scratch.order.iter().zip(placements.iter()) {
                    rects[i as usize] = rel.translated(dx, dy);
                }
                return Ok(Some(scratch.finish(entries, rects, req, Path::IdleArea)));
            }

            // Nothing fits: remove the sibling closest to the requester's old
            // position (ties broken by key for determinism) and retry. With
            // every sibling removed, the pass that just failed was the
            // feasibility test (Problem 2): the request must escalate.
            let Some(nearest) = (removed..scratch.order.len()).min_by_key(|&t| {
                let (k, r) = entries[scratch.order[t] as usize];
                (old_rect.distance_to(&r), k)
            }) else {
                return Ok(None);
            };
            scratch.order.swap(removed, nearest);
            sizes.push(entries[scratch.order[removed] as usize].1.size);
        }
    }

    /// The stable layout of an escalation at a node whose partition at the
    /// layer is `own`, its children's partitions there `current`, and whose
    /// child `requester` reported the grown `component` there: every other
    /// child where it is, the requester in a container `channels` tall,
    /// around its old spot if it can be and anywhere if not, at the
    /// narrowest width from `own`'s up to `max(own's, fresh_slots)` that
    /// holds it, `fresh_slots` being the fresh composite's. Appends the
    /// layout, relative to the partition and in `current`'s order, behind
    /// what `placed` holds, and returns its composite: that width by the
    /// higher of `own`'s height and the requester's top.
    ///
    /// `None`, appending nothing, when no width holds it, or when the
    /// fresh composition, the `placed` it left, places other children than
    /// `current` or `requester` holds no partition yet.
    pub(crate) fn stable_layout(
        &mut self,
        own: Rect,
        current: impl ExactSizeIterator<Item = (NodeId, Rect)> + Clone,
        (requester, component): (NodeId, ResourceComponent),
        fresh_slots: u32,
        channels: u16,
    ) -> Option<ResourceComponent> {
        let composed = &self.placed;
        let same = current.len() == composed.len()
            && current
                .clone()
                .all(|(c, _)| composed.iter().any(|&(p, _)| p == c));
        let old = current.clone().find(|&(c, _)| c == requester)?.1;
        let inside = current
            .clone()
            .all(|(_, r)| r.is_empty() || own.contains_rect(&r));
        if !same || !inside || component.is_empty() {
            return None;
        }
        let relative = |r: Rect| relative_to(r, own);
        let size = component.as_size();
        // The container `width` wide, every other child in place.
        let room = |free: &mut FreeSpace, width: u32| {
            free.reset(Size::new(width, u32::from(channels)));
            for (c, r) in current.clone() {
                if c != requester && !r.is_empty() {
                    free.occupy(relative(r));
                }
            }
        };
        let fits = |free: &mut FreeSpace, width: u32| {
            room(free, width);
            free.place(size).is_some()
        };
        // Whether the requester fits only grows with the width: bisect.
        let free = &mut self.adjust.free;
        let (mut narrow, mut wide) = (own.width(), own.width().max(fresh_slots));
        if !fits(free, wide) {
            return None;
        }
        while narrow < wide {
            let mid = narrow + (wide - narrow) / 2;
            if fits(free, mid) {
                wide = mid;
            } else {
                narrow = mid + 1;
            }
        }
        room(free, wide);
        let at = free
            .place_around(size, relative(old))
            .or_else(|| free.place(size))
            .expect("the narrowest width holds it");
        let grown = Rect::new(at, size);
        self.placed
            .extend(current.map(|(c, r)| (c, if c == requester { grown } else { relative(r) })));
        Some(ResourceComponent::new(wide, own.height().max(grown.top())))
    }

    /// The partitions the last [`Workspace::adjust`] on `entries` moved,
    /// each with its new rectangle, in key order.
    pub(crate) fn moved<'a, K: Copy>(
        &'a self,
        entries: &'a [(K, Rect)],
    ) -> impl Iterator<Item = (K, Rect)> + 'a {
        self.adjust.order.iter().filter_map(|&i| {
            let (k, old) = entries[i as usize];
            let rect = self.pass2[i as usize];
            self.adjust.moved(i, old, rect).then_some((k, rect))
        })
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
    fn a_growth_with_room_around_it_keeps_its_old_rectangle() {
        // Bottom-left best-fit would start the grown partition at slot 0,
        // clear of its old cells; growing around them fits as well.
        let parent = Rect::from_xywh(0, 0, 10, 2);
        let old = Rect::from_xywh(4, 0, 2, 1);
        let children = vec![(NodeId(1), old), (NodeId(2), Rect::from_xywh(0, 1, 3, 1))];
        let outcome = adjust_partition(parent, &children, NodeId(1), rc(4, 1))
            .unwrap()
            .unwrap();
        check_outcome(parent, &children, NodeId(1), rc(4, 1), &outcome);
        let grown = outcome
            .layout
            .iter()
            .find(|(n, _)| *n == NodeId(1))
            .unwrap()
            .1;
        assert!(grown.contains_rect(&old), "{grown} leaves {old}");
        assert_eq!(grown, Rect::from_xywh(4, 0, 4, 1), "nearest its old origin");
        assert_eq!(outcome.moved, vec![NodeId(1)]);
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
        // 4 + 6 > 8: impossible even with node 2 removed and re-placed.
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
    fn only_the_all_removed_pass_fits_a_fragmented_row() {
        // Idle slots are {3} and {6}. With node 2 removed, node 3 still
        // splits the row: 3 + 2 do not fit [0, 4) and [6, 7). Only the last
        // pass, every sibling removed, fits 3 + 2 + 2 into the 7 slots.
        let parent = Rect::from_xywh(0, 0, 7, 1);
        let children = vec![
            (NodeId(1), Rect::from_xywh(0, 0, 1, 1)),
            (NodeId(2), Rect::from_xywh(1, 0, 2, 1)),
            (NodeId(3), Rect::from_xywh(4, 0, 2, 1)),
        ];
        let outcome = adjust_partition(parent, &children, NodeId(1), rc(3, 1))
            .unwrap()
            .unwrap();
        check_outcome(parent, &children, NodeId(1), rc(3, 1), &outcome);
        assert_eq!(outcome.moved_count(), 3);
    }

    #[test]
    fn the_last_pass_refuses_a_gateway_the_skyline_packs() {
        // `undo_log.rs` case 117 (Chaos), event 14: a leaf joins at the
        // gateway and its (Up, 1) entry grows 2x1 → 10x1. The eight layers,
        // 315 cells, fit the 159x2 slotframe's 318: the two 2-channel
        // layers side by side (135 slots), the six others in two rows of
        // 23 and 22 in the 24 slots left. The greedy last pass, largest
        // first, does not find that row split, so a feasible join is
        // refused; the skyline finds it.
        use Direction::{Down, Up};
        let slotframe = Rect::from_xywh(0, 0, 159, 2);
        let entries = [
            ((Up, 1), Rect::from_xywh(156, 0, 2, 1)),
            ((Up, 2), Rect::from_xywh(17, 0, 131, 2)),
            ((Up, 3), Rect::from_xywh(15, 0, 2, 1)),
            ((Up, 4), Rect::from_xywh(0, 0, 13, 1)),
            ((Down, 1), Rect::from_xywh(14, 0, 1, 1)),
            ((Down, 2), Rect::from_xywh(148, 0, 4, 2)),
            ((Down, 3), Rect::from_xywh(152, 0, 4, 1)),
            ((Down, 4), Rect::from_xywh(0, 1, 15, 1)),
        ];
        let grown = rc(10, 1);
        assert_eq!(
            adjust_partition(slotframe, &entries, (Up, 1), grown).unwrap(),
            None
        );
        let mut sizes: Vec<Size> = entries.iter().map(|&(_, r)| r.size).collect();
        sizes[0] = grown.as_size();
        let packed = packing::pack_into(&sizes, slotframe.size)
            .unwrap()
            .expect("the skyline packs them");
        assert!(packed.iter().all(|r| slotframe.contains_rect(r)));
        assert!(packing::all_disjoint(&packed));
    }

    #[test]
    fn an_emptied_partition_stays_in_place_however_tall() {
        // 2x1 → 0x3 needs no cells: the requester keeps its origin and no
        // sibling moves, although a 0x3 rectangle is taller than the old.
        let parent = Rect::from_xywh(0, 0, 4, 1);
        let children = vec![
            (NodeId(1), Rect::from_xywh(0, 0, 2, 1)),
            (NodeId(2), Rect::from_xywh(2, 0, 2, 1)),
        ];
        let mut ws = Workspace::new();
        let moved = ws.adjust(parent, &children, NodeId(1), rc(0, 3)).unwrap();
        assert_eq!(moved, Some(1), "the requester alone, its size changed");
        assert_eq!(ws.adjust.path, Path::InPlace);
        let outcome = ws.adjustment_outcome(&children);
        assert_eq!(outcome.moved, vec![NodeId(1)]);
        assert_eq!(outcome.layout[1], children[1]);
        assert_eq!(outcome.layout[0].1.origin, children[0].1.origin);
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

    /// The stable layout by trying every width from the narrowest up:
    /// what `Workspace::stable_layout` finds by bisection.
    fn stable_layout_by_every_width(
        own: Rect,
        current: &[(NodeId, Rect)],
        (requester, component): (NodeId, ResourceComponent),
        fresh_slots: u32,
        channels: u16,
    ) -> Option<(ResourceComponent, Vec<(NodeId, Rect)>)> {
        let relative = |r: Rect| {
            if r.is_empty() {
                Rect::default()
            } else {
                Rect::new(
                    Point::new(r.left() - own.left(), r.bottom() - own.bottom()),
                    r.size,
                )
            }
        };
        let old = current.iter().find(|&&(c, _)| c == requester)?.1;
        let size = component.as_size();
        let room = |width: u32| {
            let mut free = FreeSpace::new(Size::new(width, u32::from(channels)));
            for &(c, r) in current {
                if c != requester && !r.is_empty() {
                    free.occupy(relative(r));
                }
            }
            free
        };
        let width = (own.width()..=own.width().max(fresh_slots))
            .find(|&w| room(w).place(size).is_some())?;
        let mut free = room(width);
        let at = free
            .place_around(size, relative(old))
            .or_else(|| free.place(size))?;
        let grown = Rect::new(at, size);
        let layout = current
            .iter()
            .map(|&(c, r)| (c, if c == requester { grown } else { relative(r) }))
            .collect();
        Some((
            ResourceComponent::new(width, own.height().max(grown.top())),
            layout,
        ))
    }

    #[test]
    fn the_stable_layout_bisects_to_the_narrowest_width() {
        // Seeded partitions with children placed tight or scattered, some
        // empty, and a grown requester: the bisection must pick the width
        // a walk over every width picks, and lay the same layout behind
        // what the workspace's placements held.
        let (mut stable, mut none) = (0, 0);
        let mut ws = Workspace::new();
        for case in 0..600u64 {
            let mut rng = SplitMix64::new(0x57AB ^ case);
            let ids: Vec<NodeId> = (1..=6).map(NodeId).collect();
            let (own, current, _, _) = instance(&mut rng, &ids, NodeId(99));
            let requester = current[rng.next_below(current.len() as u64) as usize].0;
            let component = rc(1 + rng.next_below(24) as u32, 1 + rng.next_below(4) as u32);
            let fresh_slots = rng.next_below(u64::from(own.width()) + 24) as u32;
            let channels = (own.height() + rng.next_below(3) as u32) as u16;
            let grown = (requester, component);
            let expected =
                stable_layout_by_every_width(own, &current, grown, fresh_slots, channels);
            // The fresh composition places the same children, in its order.
            ws.placed.clear();
            ws.placed.extend(current.iter().rev());
            let fresh = ws.placed.clone();
            let composite =
                ws.stable_layout(own, current.iter().copied(), grown, fresh_slots, channels);
            assert_eq!(&ws.placed[..fresh.len()], &fresh[..], "case {case}");
            let laid = ws.placed[fresh.len()..].to_vec();
            match expected {
                Some((c, layout)) => {
                    stable += 1;
                    assert_eq!(composite, Some(c), "case {case}");
                    assert_eq!(laid, layout, "case {case}");
                }
                None => {
                    none += 1;
                    assert_eq!(composite, None, "case {case}");
                    assert!(laid.is_empty(), "case {case}");
                }
            }
        }
        assert!(stable >= 100 && none >= 50, "{stable} stable, {none} fresh");
    }
}
