//! Per-link cell requirements `r(e)`.
//!
//! The paper assumes the number of cells each link needs per slotframe is
//! given, derived from the task set's routing paths (§II-A). This module
//! provides both the explicit table ([`Requirements`]) and the standard
//! derivation from a task set: every task contributes its rate to every
//! link its route traverses, and the per-link total is rounded up to whole
//! cells (a link forwarding 1.5 packets per slotframe needs 2 cells).

use core::fmt;
use tsch_sim::{Direction, Link, NodeId, Task, TaskKind, Tree};

/// An exact sum of rational packet rates, used while accumulating task
/// demand on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Fraction {
    num: u64,
    den: u64,
}

impl Fraction {
    const ZERO: Fraction = Fraction { num: 0, den: 1 };

    fn add(self, num: u64, den: u64) -> Fraction {
        debug_assert!(den > 0);
        if self.num == 0 {
            return Fraction { num, den }.reduced();
        }
        Fraction {
            num: self.num * den + num * self.den,
            den: self.den * den,
        }
        .reduced()
    }

    fn reduced(self) -> Fraction {
        let g = gcd(self.num.max(1), self.den);
        Fraction {
            num: self.num / g,
            den: self.den / g,
        }
    }

    fn ceil(self) -> u64 {
        self.num.div_ceil(self.den)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The per-link cell requirements of a network, for both directions.
///
/// # Examples
///
/// ```
/// use harp_core::Requirements;
/// use tsch_sim::{Link, NodeId};
///
/// let mut reqs = Requirements::new();
/// reqs.set(Link::up(NodeId(4)), 2);
/// assert_eq!(reqs.get(Link::up(NodeId(4))), 2);
/// assert_eq!(reqs.get(Link::down(NodeId(4))), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Requirements {
    /// `r(link)` at the link's dense id, 0 where unset, as long as the
    /// largest id ever set.
    cells: Vec<u32>,
}

/// Equal when every link's requirement is, whatever ids were set to 0.
impl PartialEq for Requirements {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Requirements {}

impl Requirements {
    /// Creates an empty requirement table (every link needs 0 cells).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for both links of every node of `tree`.
    #[must_use]
    pub fn for_tree(tree: &Tree) -> Self {
        Self {
            cells: Vec::with_capacity(2 * tree.len()),
        }
    }

    /// Sets `r(link)`; a value of 0 removes the entry.
    pub fn set(&mut self, link: Link, cells: u32) {
        let id = link.dense_id();
        if id >= self.cells.len() {
            if cells == 0 {
                return;
            }
            self.cells.resize(id + 1, 0);
        }
        self.cells[id] = cells;
    }

    /// The requirement of one directed link (0 if unset).
    #[must_use]
    pub fn get(&self, link: Link) -> u32 {
        self.cells.get(link.dense_id()).copied().unwrap_or(0)
    }

    /// Every link's requirement at its dense id (0: unset); links past the
    /// end are unset too.
    pub(crate) fn dense(&self) -> &[u32] {
        &self.cells
    }

    /// Iterates over all non-zero requirements in link order.
    pub fn iter(&self) -> impl Iterator<Item = (Link, u32)> + '_ {
        let set = self.cells.iter().enumerate().filter(|&(_, &c)| c > 0);
        set.map(|(id, &c)| (Link::from_dense_id(id), c))
    }

    /// Sum of requirements of the links between `parent` and its children in
    /// the given direction — the width of the parent's Case 1 component
    /// `[Σ r(e), 1]`.
    #[must_use]
    pub fn direct_total(&self, tree: &Tree, parent: NodeId, direction: Direction) -> u32 {
        tree.children(parent)
            .iter()
            .map(|&c| {
                self.get(Link {
                    child: c,
                    direction,
                })
            })
            .sum()
    }

    /// Total cells required network-wide in one direction.
    #[must_use]
    pub fn total(&self, direction: Direction) -> u64 {
        self.iter()
            .filter(|(l, _)| l.direction == direction)
            .map(|(_, c)| u64::from(c))
            .sum()
    }

    /// Derives requirements from a task set over `tree`.
    ///
    /// Each task adds its rate to the uplink of every hop from its source to
    /// the gateway; echo tasks also add it to the downlinks of the return
    /// path. Per-link totals are accumulated exactly and rounded up to whole
    /// cells per slotframe.
    ///
    /// # Examples
    ///
    /// ```
    /// use harp_core::Requirements;
    /// use tsch_sim::{Link, NodeId, Rate, Task, TaskId, Tree};
    ///
    /// let tree = Tree::paper_fig1_example();
    /// // One echo task per node at 1 pkt/slotframe, like the testbed.
    /// let tasks: Vec<Task> = tree
    ///     .nodes()
    ///     .skip(1)
    ///     .enumerate()
    ///     .map(|(i, n)| Task::echo(TaskId(i as u32), n, Rate::per_slotframe(1)))
    ///     .collect();
    /// let reqs = Requirements::from_tasks(&tree, &tasks);
    /// // Node 3's uplink forwards its whole 6-node subtree.
    /// assert_eq!(reqs.get(Link::up(NodeId(3))), 6);
    /// assert_eq!(reqs.get(Link::down(NodeId(3))), 6);
    /// ```
    #[must_use]
    pub fn from_tasks(tree: &Tree, tasks: &[Task]) -> Self {
        // Dense by link id, like the table it becomes.
        let mut acc = vec![Fraction::ZERO; 2 * tree.len()];
        for task in tasks {
            let (num, den) = rate_parts(task.rate);
            if num == 0 {
                continue;
            }
            let mut hop = task.source;
            while tree.parent(hop).is_some() {
                let f = &mut acc[Link::up(hop).dense_id()];
                *f = f.add(num, den);
                if task.kind == TaskKind::Echo {
                    let f = &mut acc[Link::down(hop).dense_id()];
                    *f = f.add(num, den);
                }
                hop = tree.parent(hop).expect("checked above");
            }
        }
        let mut reqs = Requirements::for_tree(tree);
        for (id, f) in acc.into_iter().enumerate() {
            let cells = u32::try_from(f.ceil()).expect("requirement fits in u32");
            reqs.set(Link::from_dense_id(id), cells);
        }
        reqs
    }
}

/// The exact `(packets, per_slotframes)` parts of a [`Rate`](tsch_sim::Rate),
/// reduced to lowest terms.
fn rate_parts(rate: tsch_sim::Rate) -> (u64, u64) {
    let (num, den) = (u64::from(rate.packets()), u64::from(rate.per_slotframes()));
    if num == 0 {
        return (0, 1);
    }
    let g = gcd(num, den);
    (num / g, den / g)
}

/// Loss-aware provisioning: inflates every requirement to cover expected
/// retransmissions on lossy links.
impl Requirements {
    /// Returns a copy where each link's demand is divided by its packet
    /// delivery ratio and rounded up: `r'(e) = ceil(r(e) / PDR(e))`. With
    /// this head-room a link can retransmit lost packets without displacing
    /// later traffic — the provisioning that keeps queues bounded on lossy
    /// deployments (cf. the latency outliers of the paper's Fig. 9).
    ///
    /// Links with a PDR of zero are left at their raw demand (no finite
    /// provisioning can help a dead link).
    ///
    /// # Examples
    ///
    /// ```
    /// use harp_core::Requirements;
    /// use tsch_sim::{Link, LinkQuality, NodeId};
    ///
    /// let mut reqs = Requirements::new();
    /// reqs.set(Link::up(NodeId(1)), 10);
    /// let quality = LinkQuality::uniform(0.9).unwrap();
    /// let provisioned = reqs.provisioned_for_loss(&quality);
    /// assert_eq!(provisioned.get(Link::up(NodeId(1))), 12); // ceil(10/0.9)
    /// ```
    #[must_use]
    pub fn provisioned_for_loss(&self, quality: &tsch_sim::LinkQuality) -> Requirements {
        let mut out = Requirements::new();
        for (link, cells) in self.iter() {
            let pdr = quality.pdr(link);
            let provisioned = if pdr > 0.0 && pdr < 1.0 {
                (f64::from(cells) / pdr).ceil() as u32
            } else {
                cells
            };
            out.set(link, provisioned);
        }
        out
    }
}

impl fmt::Display for Requirements {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (link, cells)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{link}:{cells}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsch_sim::{Rate, TaskId};

    #[test]
    fn fraction_accumulation() {
        let f = Fraction::ZERO.add(1, 2).add(1, 2).add(1, 3);
        assert_eq!(f, Fraction { num: 4, den: 3 });
        assert_eq!(f.ceil(), 2);
        assert_eq!(Fraction::ZERO.ceil(), 0);
    }

    #[test]
    fn set_zero_removes() {
        let mut reqs = Requirements::new();
        reqs.set(Link::up(NodeId(1)), 3);
        reqs.set(Link::up(NodeId(1)), 0);
        assert_eq!(reqs.get(Link::up(NodeId(1))), 0);
        assert_eq!(reqs.iter().count(), 0);
    }

    #[test]
    fn direct_total_sums_children() {
        let tree = Tree::paper_fig1_example();
        let mut reqs = Requirements::new();
        reqs.set(Link::up(NodeId(4)), 1);
        reqs.set(Link::up(NodeId(5)), 2);
        assert_eq!(reqs.direct_total(&tree, NodeId(1), Direction::Up), 3);
        assert_eq!(reqs.direct_total(&tree, NodeId(1), Direction::Down), 0);
        assert_eq!(
            reqs.direct_total(&tree, NodeId(4), Direction::Up),
            0,
            "leaf"
        );
    }

    #[test]
    fn from_tasks_echo_per_node_matches_subtree_sizes() {
        // The testbed setting (§VI-B): one echo task per node at rate 1 →
        // each link's demand equals the child-side subtree size, both ways.
        let tree = Tree::paper_fig1_example();
        let tasks: Vec<Task> = tree
            .nodes()
            .skip(1)
            .enumerate()
            .map(|(i, n)| Task::echo(TaskId(i as u32), n, Rate::per_slotframe(1)))
            .collect();
        let reqs = Requirements::from_tasks(&tree, &tasks);
        for node in tree.nodes().skip(1) {
            let expect = tree.subtree_size(node);
            assert_eq!(reqs.get(Link::up(node)), expect, "uplink of {node}");
            assert_eq!(reqs.get(Link::down(node)), expect, "downlink of {node}");
        }
    }

    #[test]
    fn from_tasks_uplink_only_has_no_downlink() {
        let tree = Tree::paper_fig1_example();
        let tasks = vec![Task::uplink(TaskId(0), NodeId(9), Rate::per_slotframe(2))];
        let reqs = Requirements::from_tasks(&tree, &tasks);
        assert_eq!(reqs.get(Link::up(NodeId(9))), 2);
        assert_eq!(reqs.get(Link::up(NodeId(7))), 2);
        assert_eq!(reqs.get(Link::up(NodeId(3))), 2);
        assert_eq!(reqs.get(Link::down(NodeId(9))), 0);
        assert_eq!(reqs.total(Direction::Up), 6);
        assert_eq!(reqs.total(Direction::Down), 0);
    }

    #[test]
    fn from_tasks_fractional_rates_round_up_after_summing() {
        // Two 0.5-rate tasks through the same link need 1 cell, not 2.
        let tree = Tree::from_parents(&[(1, 0), (2, 1), (3, 1)]);
        let half = Rate::new(1, 2).unwrap();
        let tasks = vec![
            Task::uplink(TaskId(0), NodeId(2), half),
            Task::uplink(TaskId(1), NodeId(3), half),
        ];
        let reqs = Requirements::from_tasks(&tree, &tasks);
        assert_eq!(reqs.get(Link::up(NodeId(1))), 1, "0.5 + 0.5 sums to 1");
        assert_eq!(reqs.get(Link::up(NodeId(2))), 1, "0.5 alone rounds up to 1");
    }

    #[test]
    fn from_tasks_mixed_rates() {
        let tree = Tree::from_parents(&[(1, 0), (2, 1)]);
        let tasks = vec![
            Task::uplink(TaskId(0), NodeId(2), Rate::new(3, 2).unwrap()), // 1.5
            Task::uplink(TaskId(1), NodeId(1), Rate::per_slotframe(1)),
        ];
        let reqs = Requirements::from_tasks(&tree, &tasks);
        assert_eq!(reqs.get(Link::up(NodeId(2))), 2, "ceil(1.5)");
        assert_eq!(reqs.get(Link::up(NodeId(1))), 3, "ceil(1.5 + 1) = 3");
    }

    #[test]
    fn gateway_task_contributes_nothing() {
        let tree = Tree::from_parents(&[(1, 0)]);
        let tasks = vec![Task::echo(TaskId(0), NodeId(0), Rate::per_slotframe(5))];
        let reqs = Requirements::from_tasks(&tree, &tasks);
        assert_eq!(reqs.iter().count(), 0);
    }

    #[test]
    fn rate_parts_recovers_fractions() {
        assert_eq!(rate_parts(Rate::per_slotframe(3)), (3, 1));
        assert_eq!(rate_parts(Rate::new(3, 2).unwrap()), (3, 2));
        assert_eq!(rate_parts(Rate::new(2, 4).unwrap()), (1, 2), "reduced");
        assert_eq!(rate_parts(Rate::per_slotframe(0)), (0, 1));
    }

    #[test]
    fn provisioning_inflates_by_inverse_pdr() {
        let mut reqs = Requirements::new();
        reqs.set(Link::up(NodeId(1)), 10);
        reqs.set(Link::up(NodeId(2)), 4);
        let mut quality = tsch_sim::LinkQuality::uniform(0.8).unwrap();
        quality.set_pdr(Link::up(NodeId(2)), 1.0).unwrap();
        let p = reqs.provisioned_for_loss(&quality);
        assert_eq!(p.get(Link::up(NodeId(1))), 13, "ceil(10/0.8)");
        assert_eq!(p.get(Link::up(NodeId(2))), 4, "perfect links unchanged");
    }

    #[test]
    fn provisioning_leaves_dead_links_alone() {
        let mut reqs = Requirements::new();
        reqs.set(Link::up(NodeId(1)), 3);
        let quality = tsch_sim::LinkQuality::uniform(0.0).unwrap();
        assert_eq!(
            reqs.provisioned_for_loss(&quality).get(Link::up(NodeId(1))),
            3
        );
    }

    #[test]
    fn display_lists_links() {
        let mut reqs = Requirements::new();
        reqs.set(Link::up(NodeId(1)), 2);
        assert_eq!(reqs.to_string(), "{N1:up:2}");
    }
}
