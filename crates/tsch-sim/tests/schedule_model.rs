//! The two-map model of [`NetworkSchedule`] as the oracle of its flat tables.
//!
//! Until PR 21 the schedule *was* these two maps (`BTreeMap<Cell,
//! Vec<Link>>` + `BTreeMap<Link, Vec<Cell>>`). The production type is now a
//! dense cell index plus a link table over one cell pool; the maps live on
//! here, driven side by side with it through seeded operation sequences.
//! After every operation every reader must agree, and the version rules of
//! the unit test `version_changes_on_every_mutation` must hold.

use std::collections::{BTreeMap, HashSet};

use tsch_sim::{
    Cell, CollisionReport, GlobalInterference, InterferenceModel, Link, NetworkSchedule, NodeId,
    ScheduleError, SlotframeConfig, SplitMix64, Tree, TwoHopInterference,
};

/// The pre-PR 21 representation, minus the version counter.
#[derive(Debug, Clone)]
struct Model {
    config: SlotframeConfig,
    by_cell: BTreeMap<Cell, Vec<Link>>,
    by_link: BTreeMap<Link, Vec<Cell>>,
}

impl Model {
    fn new(config: SlotframeConfig) -> Self {
        Self {
            config,
            by_cell: BTreeMap::new(),
            by_link: BTreeMap::new(),
        }
    }

    fn assign(&mut self, cell: Cell, link: Link) -> Result<(), ScheduleError> {
        if !self.config.contains_cell(cell) {
            return Err(ScheduleError::CellOutOfBounds {
                cell,
                slots: self.config.slots,
                channels: self.config.channels,
            });
        }
        let links = self.by_cell.entry(cell).or_default();
        if links.contains(&link) {
            return Err(ScheduleError::DuplicateAssignment { cell, link });
        }
        links.push(link);
        self.by_link.entry(link).or_default().push(cell);
        Ok(())
    }

    fn unassign_link(&mut self, link: Link) -> usize {
        let Some(cells) = self.by_link.remove(&link) else {
            return 0;
        };
        for cell in &cells {
            if let Some(links) = self.by_cell.get_mut(cell) {
                links.retain(|&l| l != link);
                if links.is_empty() {
                    self.by_cell.remove(cell);
                }
            }
        }
        cells.len()
    }

    fn restore_rows<'a>(&mut self, rows: impl IntoIterator<Item = (Link, &'a [Cell])>) {
        for (link, cells) in rows {
            self.unassign_link(link);
            for &cell in cells {
                self.by_cell.entry(cell).or_default().push(link);
            }
            if !cells.is_empty() {
                self.by_link.insert(link, cells.to_vec());
            }
        }
    }

    fn clear(&mut self) {
        self.by_cell.clear();
        self.by_link.clear();
    }

    fn cells_of(&self, link: Link) -> &[Cell] {
        self.by_link.get(&link).map_or(&[], Vec::as_slice)
    }

    fn links_on(&self, cell: Cell) -> &[Link] {
        self.by_cell.get(&cell).map_or(&[], Vec::as_slice)
    }

    fn collision_report<M: InterferenceModel>(&self, tree: &Tree, model: &M) -> CollisionReport {
        let mut report = CollisionReport {
            total_assignments: self.by_link.values().map(Vec::len).sum(),
            ..CollisionReport::default()
        };
        for links in self.by_cell.values() {
            let mut colliding = vec![false; links.len()];
            for i in 0..links.len() {
                for j in i + 1..links.len() {
                    if model.conflicts(tree, links[i], links[j]) {
                        colliding[i] = true;
                        colliding[j] = true;
                    }
                }
            }
            let n = colliding.iter().filter(|&&c| c).count();
            if n > 0 {
                report.colliding_cells += 1;
                report.colliding_assignments += n;
            }
        }
        report
    }
}

/// The schedule under test beside its model, plus what the version rules
/// need: every version seen so far.
struct Pair {
    real: NetworkSchedule,
    model: Model,
    tree: Tree,
    two_hop: TwoHopInterference,
    seen_versions: HashSet<u64>,
}

impl Pair {
    fn new(config: SlotframeConfig, tree: Tree) -> Self {
        let real = NetworkSchedule::new(config);
        assert_eq!(real.version(), 0, "fresh schedules are version 0");
        Self {
            real,
            model: Model::new(config),
            two_hop: TwoHopInterference::from_tree(&tree),
            tree,
            seen_versions: HashSet::from([0]),
        }
    }

    /// Runs one mutation on both sides; `mutated` is whether it succeeded
    /// in changing anything, which is exactly when the version must move.
    fn step<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        real: impl FnOnce(&mut NetworkSchedule) -> T,
        model: impl FnOnce(&mut Model) -> T,
        mutated: impl FnOnce(&T) -> bool,
    ) -> T {
        let before = self.real.version();
        let got = real(&mut self.real);
        let want = model(&mut self.model);
        assert_eq!(got, want, "{what}: result");
        if mutated(&got) {
            assert!(
                self.seen_versions.insert(self.real.version()),
                "{what}: a successful mutation mints a process-unique version"
            );
        } else {
            assert_eq!(self.real.version(), before, "{what}: version untouched");
        }
        self.check(what);
        got
    }

    fn assign(&mut self, cell: Cell, link: Link) -> Result<(), ScheduleError> {
        self.step(
            &format!("assign {cell} {link}"),
            |s| s.assign(cell, link),
            |m| m.assign(cell, link),
            Result::is_ok,
        )
    }

    fn unassign(&mut self, link: Link) -> usize {
        self.step(
            &format!("unassign {link}"),
            |s| s.unassign_link(link),
            |m| m.unassign_link(link),
            |&n| n > 0,
        )
    }

    /// A link's row rewritten as a child installs new cells: unassign, then
    /// re-assign.
    fn set_link_cells(&mut self, link: Link, cells: &[Cell]) {
        self.unassign(link);
        for &cell in cells {
            self.assign(cell, link).expect("free in-bounds cell");
        }
    }

    fn clear(&mut self) {
        self.step("clear", |s| s.clear(), Model::clear, |()| true);
    }

    /// Swaps the schedule for its clone: everything below must hold on the
    /// copy too, and a clone keeps its origin's version.
    fn continue_on_clone(&mut self) {
        let clone = self.real.clone();
        assert_eq!(clone.version(), self.real.version());
        self.real = clone;
        self.check("clone");
    }

    fn restore(&mut self, rows: &[(Link, Vec<Cell>)], version: u64) {
        let real = rows.iter().map(|(l, c)| (*l, c.iter().copied()));
        self.real.restore_rows(real, version);
        self.model
            .restore_rows(rows.iter().map(|(l, c)| (*l, c.as_slice())));
        assert_eq!(
            self.real.version(),
            version,
            "restore reinstates the version"
        );
        self.check("restore_rows");
    }

    /// Every reader agrees with the model.
    fn check(&self, what: &str) {
        let (real, model) = (&self.real, &self.model);
        let config = real.config();
        let links = (0..self.tree.len() as u32 + 3)
            .flat_map(|c| [Link::up(NodeId(c)), Link::down(NodeId(c))]);
        for link in links {
            assert_eq!(
                real.cells_of(link),
                model.cells_of(link),
                "{what}: cells_of {link}"
            );
        }
        // One row and one column past the slotframe read as empty.
        for slot in 0..=config.slots {
            for channel in 0..=config.channels {
                let cell = Cell::new(slot, channel);
                assert_eq!(
                    real.links_on(cell),
                    model.links_on(cell),
                    "{what}: links_on {cell}"
                );
            }
        }
        assert!(
            real.iter_cells()
                .eq(model.by_cell.iter().map(|(&c, ls)| (c, ls.as_slice()))),
            "{what}: iter_cells"
        );
        assert!(
            real.iter_links()
                .eq(model.by_link.iter().map(|(&l, cs)| (l, cs.as_slice()))),
            "{what}: iter_links"
        );
        assert_eq!(
            real.assignment_count(),
            model.by_link.values().map(Vec::len).sum::<usize>(),
            "{what}: assignment_count"
        );
        assert_eq!(
            real.active_cells(),
            model.by_cell.len(),
            "{what}: active_cells"
        );
        let shared: Vec<Cell> = model
            .by_cell
            .iter()
            .filter(|(_, ls)| ls.len() > 1)
            .map(|(&c, _)| c)
            .collect();
        assert_eq!(
            real.is_exclusive(),
            shared.is_empty(),
            "{what}: is_exclusive"
        );
        assert_eq!(real.shared_cells(), shared, "{what}: shared_cells");
        assert_eq!(
            real.collision_report(&self.tree, &GlobalInterference),
            model.collision_report(&self.tree, &GlobalInterference),
            "{what}: collision_report (global)"
        );
        assert_eq!(
            real.collision_report(&self.tree, &self.two_hop),
            model.collision_report(&self.tree, &self.two_hop),
            "{what}: collision_report (two-hop)"
        );
    }

    /// Dead pool entries, read off the derived `Debug` output: the one
    /// window onto the pool that needs no accessor in the library.
    fn garbage(&self) -> usize {
        let text = format!("{:?}", self.real);
        let rest = text
            .split("garbage: ")
            .nth(1)
            .expect("NetworkSchedule has a `garbage` field");
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().expect("a count")
    }
}

fn random_tree(rng: &mut SplitMix64, nodes: usize) -> Tree {
    let pairs: Vec<(u32, u32)> = (1..nodes as u32)
        .map(|i| (i, rng.next_below(u64::from(i)) as u32))
        .collect();
    Tree::from_parents(&pairs)
}

fn small() -> SlotframeConfig {
    SlotframeConfig::new(10, 4, 10_000).unwrap()
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

fn random_link(rng: &mut SplitMix64, nodes: usize) -> Link {
    // The root's links are legal keys too, though no tree edge backs them.
    let child = NodeId(below(rng, nodes) as u32);
    if rng.next_below(2) == 0 {
        Link::up(child)
    } else {
        Link::down(child)
    }
}

fn random_cell(rng: &mut SplitMix64, config: SlotframeConfig) -> Cell {
    Cell::new(
        below(rng, config.slots as usize) as u32,
        below(rng, usize::from(config.channels)) as u16,
    )
}

/// Up to `n` distinct cells nobody holds.
fn free_cells(rng: &mut SplitMix64, pair: &Pair, n: usize) -> Vec<Cell> {
    let config = pair.real.config();
    let mut cells = Vec::new();
    for _ in 0..n * 8 {
        let cell = random_cell(rng, config);
        if cells.len() < n && pair.model.links_on(cell).is_empty() && !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    cells
}

/// One seeded sequence of `ops` operations over every kind of input.
fn drive(seed: u64, config: SlotframeConfig, nodes: usize, ops: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut pair = Pair::new(config, random_tree(&mut rng, nodes));
    for _ in 0..ops {
        match rng.next_below(100) {
            // Fresh or stacked, whichever the cell happens to be.
            0..=39 => {
                let (cell, link) = (random_cell(&mut rng, config), random_link(&mut rng, nodes));
                let _ = pair.assign(cell, link);
            }
            // Out of bounds on either axis.
            40..=44 => {
                let cell = if rng.next_below(2) == 0 {
                    Cell::new(config.slots + below(&mut rng, 3) as u32, 0)
                } else {
                    Cell::new(0, config.channels + below(&mut rng, 3) as u16)
                };
                let err = pair.assign(cell, random_link(&mut rng, nodes)).unwrap_err();
                assert!(matches!(err, ScheduleError::CellOutOfBounds { .. }));
            }
            // A (cell, link) pair that is already there.
            45..=54 => {
                let link = random_link(&mut rng, nodes);
                if let Some(&cell) = pair.model.cells_of(link).first() {
                    let err = pair.assign(cell, link).unwrap_err();
                    assert!(matches!(err, ScheduleError::DuplicateAssignment { .. }));
                }
            }
            // Present or absent.
            55..=64 => {
                pair.unassign(random_link(&mut rng, nodes));
            }
            // Re-assigned shorter, equal or longer.
            65..=84 => {
                let link = random_link(&mut rng, nodes);
                let held = pair.model.cells_of(link).len();
                let want = (held + below(&mut rng, 3)).saturating_sub(1);
                let cells = free_cells(&mut rng, &pair, want);
                pair.set_link_cells(link, &cells);
            }
            // An aborted transaction over a few captured rows.
            85..=94 => {
                let captured: Vec<Link> = (0..1 + below(&mut rng, 3))
                    .map(|_| random_link(&mut rng, nodes))
                    .collect();
                let version = pair.real.version();
                let rows: Vec<(Link, Vec<Cell>)> = captured
                    .iter()
                    .map(|&l| (l, pair.real.cells_of(l).to_vec()))
                    .collect();
                for _ in 0..1 + below(&mut rng, 4) {
                    let link = captured[below(&mut rng, captured.len())];
                    if rng.next_below(3) == 0 {
                        pair.unassign(link);
                    } else {
                        let _ = pair.assign(random_cell(&mut rng, config), link);
                    }
                }
                pair.restore(&rows, version);
            }
            95..=97 => pair.continue_on_clone(),
            _ => pair.clear(),
        }
    }
}

#[test]
fn seeded_sequences_on_a_small_slotframe() {
    // 40 cells for up to 28 links: most cells end up stacked.
    for seed in 0..24 {
        drive(0x5EED_0000 + seed, small(), 12, 400);
    }
}

#[test]
fn seeded_sequences_on_the_paper_slotframe() {
    for seed in 0..4 {
        drive(
            0x5EED_1000 + seed,
            SlotframeConfig::paper_default(),
            64,
            300,
        );
    }
}

/// An exclusive schedule rolled back with `restore_rows` equals the clone
/// taken when the rows were captured — version included.
#[test]
fn restore_equals_the_clone_taken_at_capture() {
    let config = SlotframeConfig::paper_default();
    let mut rng = SplitMix64::new(0xC10E);
    let mut pair = Pair::new(config, random_tree(&mut rng, 32));
    for child in 1..32 {
        let want = 1 + below(&mut rng, 4);
        let cells = free_cells(&mut rng, &pair, want);
        pair.set_link_cells(Link::up(NodeId(child)), &cells);
    }
    for _ in 0..40 {
        let snapshot = pair.model.clone();
        let version = pair.real.version();
        let captured: Vec<Link> = (0..3)
            .map(|_| Link::up(NodeId(1 + below(&mut rng, 31) as u32)))
            .collect();
        let rows: Vec<(Link, Vec<Cell>)> = captured
            .iter()
            .map(|&l| (l, pair.real.cells_of(l).to_vec()))
            .collect();
        for &link in &captured {
            let want = below(&mut rng, 6);
            let cells = free_cells(&mut rng, &pair, want);
            pair.set_link_cells(link, &cells);
        }
        pair.restore(&rows, version);
        assert!(pair.real.is_exclusive());
        assert_eq!(pair.model.by_cell, snapshot.by_cell);
        assert_eq!(pair.model.by_link, snapshot.by_link);
    }
}

/// The three ways a run leaves and re-enters the pool: the tail run
/// shrinks the pool, a middle run keeps its room and is re-assigned
/// shorter, equal and longer (the last moves it to the tail).
#[test]
fn tail_and_middle_runs_reassigned_shorter_equal_longer() {
    let mut pair = Pair::new(small(), Tree::paper_fig1_example());
    let (a, b, c) = (
        Link::up(NodeId(1)),
        Link::down(NodeId(2)),
        Link::up(NodeId(3)),
    );
    let row = |slot: u32, n: u16| -> Vec<Cell> { (0..n).map(|ch| Cell::new(slot, ch)).collect() };
    pair.set_link_cells(a, &row(0, 3));
    pair.set_link_cells(b, &row(1, 3));
    pair.set_link_cells(c, &row(2, 3));
    // c is the tail run.
    pair.set_link_cells(c, &row(3, 4));
    pair.set_link_cells(c, &row(4, 1));
    // b is a middle run.
    pair.set_link_cells(b, &row(5, 2));
    pair.set_link_cells(b, &row(6, 3));
    pair.set_link_cells(b, &row(7, 4));
    // a's run is first in the pool; absent links are no-ops.
    assert_eq!(pair.unassign(a), 3);
    assert_eq!(pair.unassign(a), 0);
    assert_eq!(pair.unassign(Link::down(NodeId(11))), 0);
    pair.set_link_cells(a, &row(8, 4));
}

/// Regression: a row emptied by truncating the pool's tail kept its
/// `start`; once an earlier run shrank the pool further, reading the empty
/// row sliced out of range.
#[test]
fn emptied_tail_row_reads_empty_after_the_pool_shrinks_further() {
    let mut pair = Pair::new(small(), Tree::paper_fig1_example());
    let (first, tail) = (Link::up(NodeId(1)), Link::up(NodeId(2)));
    pair.assign(Cell::new(0, 0), first).unwrap();
    pair.assign(Cell::new(1, 0), first).unwrap();
    pair.assign(Cell::new(2, 0), tail).unwrap();
    assert_eq!(pair.unassign(tail), 1);
    assert_eq!(pair.unassign(first), 2);
    assert!(pair.real.cells_of(tail).is_empty());
    assert!(pair.real.iter_links().next().is_none());
    pair.assign(Cell::new(3, 0), tail).unwrap();
    assert_eq!(pair.real.cells_of(tail), &[Cell::new(3, 0)]);
}

/// Growing middle runs leaves their old room behind as garbage; once it
/// passes both 64 entries and half the pool the pool is compacted, and
/// nothing a reader sees may change.
#[test]
fn relocations_cross_the_compaction_threshold() {
    let config = SlotframeConfig::paper_default();
    let mut rng = SplitMix64::new(0xC0A9);
    let mut pair = Pair::new(config, random_tree(&mut rng, 41));
    for child in 1..=40 {
        let cells = free_cells(&mut rng, &pair, 4);
        pair.set_link_cells(Link::up(NodeId(child)), &cells);
    }
    let mut peak = 0;
    let mut compactions = 0;
    for round in 0..3 {
        for child in 1..=40 {
            let cells = free_cells(&mut rng, &pair, 5 + round);
            pair.set_link_cells(Link::up(NodeId(child)), &cells);
            let garbage = pair.garbage();
            if garbage < peak {
                compactions += 1;
                assert!(peak > 64, "compacted at {peak} dead entries");
                assert_eq!(garbage, 0);
            }
            peak = garbage;
        }
    }
    assert!(compactions >= 1, "the sequence never compacted the pool");
}
