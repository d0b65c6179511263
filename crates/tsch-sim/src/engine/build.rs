//! Building a [`Simulator`] and deriving its tables from the schedule: the
//! builder, the sparse conflict adjacency, the per-slot cell table and the
//! wake index. Everything here runs at build time or after a schedule
//! mutation, never inside a slot.

use super::{link_id, Simulator, SlotCell, TaskState};
use super::{DEFAULT_MAX_RETRIES, DEFAULT_QUEUE_CAPACITY};
use crate::calendar::EventCalendar;
use crate::faults::{FaultAction, FaultPlan};
use crate::interference::InterferenceModel;
use crate::packet::Task;
use crate::radio::LinkQuality;
use crate::rng::SplitMix64;
use crate::schedule::NetworkSchedule;
use crate::stats::{SimStats, StatsMode};
use crate::time::{Asn, SlotframeConfig};
use crate::topology::{Link, NodeId, Tree};
use crate::trace::TraceBuffer;
use crate::SimError;
use core::fmt;
use harp_obs::Obs;
use std::collections::VecDeque;
use std::sync::Arc;

/// Configures and builds a [`Simulator`].
///
/// # Examples
///
/// ```
/// use tsch_sim::{
///     Rate, SimulatorBuilder, SlotframeConfig, Task, TaskId, Tree,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tree = Tree::paper_fig1_example();
/// let sim = SimulatorBuilder::new(tree, SlotframeConfig::paper_default())
///     .seed(7)
///     .task(Task::echo(TaskId(0), tsch_sim::NodeId(4), Rate::per_slotframe(1)))?
///     .build();
/// assert_eq!(sim.now().0, 0);
/// # Ok(())
/// # }
/// ```
pub struct SimulatorBuilder {
    tree: Tree,
    config: SlotframeConfig,
    schedule: Option<NetworkSchedule>,
    interference: Box<dyn InterferenceModel + Send + Sync>,
    quality: LinkQuality,
    tasks: Vec<TaskState>,
    seed: u64,
    queue_capacity: usize,
    max_retries: u32,
    trace_capacity: usize,
    obs_span_capacity: Option<usize>,
    stats_mode: StatsMode,
    dense_walk: bool,
    fault_plan: FaultPlan,
}

impl fmt::Debug for SimulatorBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimulatorBuilder")
            .field("nodes", &self.tree.len())
            .field("config", &self.config)
            .field("tasks", &self.tasks.len())
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl SimulatorBuilder {
    /// Starts a builder with perfect links and two-hop interference.
    #[must_use]
    pub fn new(tree: Tree, config: SlotframeConfig) -> Self {
        let interference = Box::new(crate::interference::TwoHopInterference::from_tree(&tree));
        Self {
            tree,
            config,
            schedule: None,
            interference,
            quality: LinkQuality::perfect(),
            tasks: Vec::new(),
            seed: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            max_retries: DEFAULT_MAX_RETRIES,
            trace_capacity: 0,
            obs_span_capacity: None,
            stats_mode: StatsMode::Full,
            dense_walk: false,
            fault_plan: FaultPlan::new(),
        }
    }

    /// Disables the event-driven slot skip, walking every slot's cell list
    /// unconditionally like the pre-calendar engine. Off by default — the
    /// two modes are observationally identical (pinned by the `testkit`
    /// crate's `engine_referee` suite); this toggle exists as the in-tree
    /// differential baseline for that suite.
    #[must_use]
    pub fn dense_walk(mut self, dense: bool) -> Self {
        self.dense_walk = dense;
        self
    }

    /// Selects how stats are retained; [`StatsMode::Streaming`] keeps
    /// memory O(nodes) on runs whose delivery count would otherwise
    /// dominate (see the [`SimStats`] docs).
    #[must_use]
    pub fn stats_mode(mut self, mode: StatsMode) -> Self {
        self.stats_mode = mode;
        self
    }

    /// Installs the initial network schedule.
    #[must_use]
    pub fn schedule(mut self, schedule: NetworkSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Replaces the interference model.
    #[must_use]
    pub fn interference(mut self, model: Box<dyn InterferenceModel + Send + Sync>) -> Self {
        self.interference = model;
        self
    }

    /// Sets the link-quality (PDR) model.
    #[must_use]
    pub fn quality(mut self, quality: LinkQuality) -> Self {
        self.quality = quality;
        self
    }

    /// Seeds the simulator's random processes.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bounds the per-link packet queue (packets beyond it are dropped).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Bounds per-hop retransmissions before a packet is dropped.
    #[must_use]
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Enables event tracing, retaining the most recent `capacity` events
    /// (0, the default, disables tracing).
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Enables the observability layer, retaining the most recent
    /// `span_capacity` slotframe-time spans. Off by default; a disabled
    /// simulator records nothing and snapshots empty, and its random
    /// processes are untouched, so runs are byte-identical either way.
    #[must_use]
    pub fn observability(mut self, span_capacity: usize) -> Self {
        self.obs_span_capacity = Some(span_capacity);
        self
    }

    /// Installs a fault-injection plan; its actions fire at their exact
    /// ASNs as the simulation advances (see [`FaultPlan`]).
    ///
    /// The plan is validated when [`build`](Self::build) runs: every
    /// referenced node and link must lie inside the tree's id space, PDR
    /// values must be within `[0, 1]`, and every referenced task must be
    /// registered — `build` panics otherwise.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Registers a task.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownTaskSource`] if the source node is not in the tree;
    /// [`SimError::DuplicateTask`] on a repeated task id.
    pub fn task(mut self, task: Task) -> Result<Self, SimError> {
        if task.source.index() >= self.tree.len() {
            return Err(SimError::UnknownTaskSource(task.source));
        }
        if self.tasks.iter().any(|t| t.task.id == task.id) {
            return Err(SimError::DuplicateTask(task.id));
        }
        let route: Arc<[NodeId]> = task.route(&self.tree).into();
        self.tasks.push(TaskState {
            task,
            route,
            route_lanes: Arc::from([]),
            next_seq: 0,
        });
        Ok(self)
    }

    /// Builds the simulator at ASN 0.
    #[must_use]
    pub fn build(self) -> Simulator {
        let schedule = self
            .schedule
            .unwrap_or_else(|| NetworkSchedule::new(self.config));
        let link_count = self.tree.len() * 2;

        // Intern every directed tree link; the dense id is
        // `child * 2 + direction`, so `links[id]` inverts the mapping.
        let links: Vec<Link> = (0..link_count).map(Link::from_dense_id).collect();

        // Per-link PDR, frozen at build time (the quality model has no
        // runtime mutation API).
        let pdr: Vec<f64> = links.iter().map(|&l| self.quality.pdr(l)).collect();

        // Pairwise interference in sparse CSR form, consulted once per
        // ordered pair here rather than once per pair per occupied cell.
        // Links whose child is the root have no tree edge and can never
        // carry traffic; their rows stay empty. Models exposing conflict
        // candidates (bounded-range interference such as
        // [`crate::TwoHopInterference`]) make the build near-linear —
        // O(Σ degree) storage instead of the old dense `(2n)²` matrix,
        // which is ~37 GiB at 100k nodes.
        let valid: Vec<bool> = (0..link_count)
            .map(|id| self.tree.parent(links[id].child).is_some())
            .collect();
        let mut conflict_offsets: Vec<u32> = Vec::with_capacity(link_count + 1);
        let mut conflict_neighbors: Vec<u32> = Vec::new();
        let mut row: Vec<u32> = Vec::new();
        // One candidate buffer for every link: the model writes into it.
        let mut candidates: Vec<Link> = Vec::new();
        conflict_offsets.push(0);
        for a in 0..link_count {
            row.clear();
            if valid[a] {
                let conflicts_with = |b: usize| {
                    b != a
                        && valid[b]
                        && self.interference.conflicts(&self.tree, links[a], links[b])
                };
                if self
                    .interference
                    .conflict_candidates(&self.tree, links[a], &mut candidates)
                {
                    let ids = candidates
                        .iter()
                        .filter_map(|&candidate| link_id(self.tree.len(), candidate));
                    row.extend(ids.filter(|&b| conflicts_with(b)).map(|b| b as u32));
                    row.sort_unstable();
                    row.dedup();
                } else {
                    row.extend(
                        (0..link_count)
                            .filter(|&b| conflicts_with(b))
                            .map(|b| b as u32),
                    );
                }
            }
            conflict_neighbors.extend_from_slice(&row);
            conflict_offsets.push(
                u32::try_from(conflict_neighbors.len()).expect("conflict adjacency fits u32"),
            );
        }

        let obs = match self.obs_span_capacity {
            Some(capacity) => Obs::enabled(capacity),
            None => Obs::disabled(),
        };

        // Validate the fault plan against the tree and task set, then load
        // it onto the event calendar. Same-ASN actions keep plan order
        // (the calendar is FIFO within a slot).
        let mut fault_calendar = EventCalendar::new();
        for &(at, action) in self.fault_plan.events() {
            match action {
                FaultAction::NodeDown(n) | FaultAction::NodeUp(n) => {
                    assert!(
                        n.index() < self.tree.len(),
                        "fault plan names node {n} outside the tree"
                    );
                }
                FaultAction::LinkMask(l, _) => {
                    assert!(
                        l.child.index() < self.tree.len(),
                        "fault plan names link {l:?} outside the tree"
                    );
                }
                FaultAction::LinkPdr(l, p) => {
                    assert!(
                        l.child.index() < self.tree.len(),
                        "fault plan names link {l:?} outside the tree"
                    );
                    assert!(
                        (0.0..=1.0).contains(&p),
                        "fault plan PDR {p} outside [0, 1]"
                    );
                }
                FaultAction::TaskBurst(t, _) | FaultAction::TaskRate(t, _) => {
                    assert!(
                        self.tasks.iter().any(|s| s.task.id == t),
                        "fault plan names unregistered task {t}"
                    );
                }
            }
            fault_calendar.schedule(at, action);
        }

        let nodes = self.tree.len();
        let mut sim = Simulator {
            tree: self.tree,
            config: self.config,
            schedule,
            tasks: self.tasks,
            queues: Vec::new(),
            lane_of: vec![u32::MAX; link_count],
            lane_links: Vec::new(),
            lane_link_id: Vec::new(),
            lane_pdr: Vec::new(),
            links,
            pdr,
            conflict_offsets,
            conflict_neighbors,
            slot_offsets: Vec::new(),
            slot_cells: Vec::new(),
            cell_lanes: Vec::new(),
            table_version: u64::MAX,
            link_slot_offsets: vec![0; link_count + 1],
            link_slots: Vec::new(),
            slot_busy: vec![0; self.config.slots as usize],
            occupied_links: Vec::new(),
            occupied_pos: Vec::new(),
            dense_walk: self.dense_walk,
            active_scratch: Vec::new(),
            collided_scratch: Vec::new(),
            depth_scratch: Vec::new(),
            touched_scratch: Vec::new(),
            release_scratch: Vec::new(),
            active_stamp: vec![0; link_count],
            stamp: 0,
            now: Asn::ZERO,
            rng: SplitMix64::new(self.seed),
            stats: match self.stats_mode {
                StatsMode::Full => SimStats::new(),
                StatsMode::Streaming => SimStats::streaming(),
            },
            queue_capacity: self.queue_capacity,
            max_retries: self.max_retries,
            trace: TraceBuffer::new(self.trace_capacity),
            obs,
            frame_start_asn: 0,
            frame_tx_base: 0,
            fault_calendar,
            node_down: vec![false; nodes],
            link_masked: vec![false; link_count],
            faults_fired: 0,
            idle_wakeup_count: 0,
        };
        sim.rebuild_slot_table();
        // Scheduled links took the low (cache-densest) lanes above; now
        // resolve each task route into its per-hop lane sequence so the
        // enqueue path is a single indexed read.
        for i in 0..sim.tasks.len() {
            let route = sim.tasks[i].route.clone();
            let lanes: Vec<u32> = route
                .windows(2)
                .map(|hop| {
                    let id = sim.route_link_id(hop[0], hop[1]);
                    sim.lane_for(id) as u32
                })
                .collect();
            sim.tasks[i].route_lanes = lanes.into();
        }
        sim
    }
}

impl Simulator {
    /// Re-derives the per-slot schedule table from the live schedule.
    pub(super) fn rebuild_slot_table(&mut self) {
        let slots = self.config.slots as usize;
        self.slot_offsets.clear();
        self.slot_offsets.resize(slots + 1, 0);
        self.slot_cells.clear();
        self.cell_lanes.clear();
        // First pass: dense link ids. `iter_cells` is cell-ordered, so the
        // cells arrive grouped by slot with channels ascending.
        let nodes = self.tree.len();
        for (cell, links) in self.schedule.iter_cells() {
            // Mirror the map-based engine: only cells inside the simulator's
            // own slotframe bounds ever execute.
            if cell.slot >= self.config.slots || cell.channel >= self.config.channels {
                continue;
            }
            let lanes = self.cell_lanes.len();
            self.cell_lanes.extend(
                links
                    .iter()
                    .filter_map(|&l| link_id(nodes, l))
                    .map(|id| id as u32),
            );
            if self.cell_lanes.len() > lanes {
                self.slot_cells.push(SlotCell {
                    channel: cell.channel,
                    lanes: lanes as u32,
                });
                self.slot_offsets[cell.slot as usize + 1] += 1;
            }
        }
        self.slot_cells.push(SlotCell {
            channel: 0,
            lanes: u32::try_from(self.cell_lanes.len()).expect("assignments fit u32"),
        });
        for slot in 0..slots {
            self.slot_offsets[slot + 1] += self.slot_offsets[slot];
        }
        // Second pass: dense ids → lanes (a `&mut self` call, so it cannot
        // run while `iter_cells` borrows the schedule). Every scheduled
        // link gets its lane here, in (slot, channel, assignment) order.
        let mut lanes = std::mem::take(&mut self.cell_lanes);
        for id in &mut lanes {
            *id = self.lane_for(*id as usize) as u32;
        }
        self.cell_lanes = lanes;
        self.table_version = self.schedule.version();
        self.rebuild_wake_index();
    }

    /// The lane of dense link `id`, allocated on first use. A lane pins
    /// the link's queue, occupancy slot and wake rows into contiguous
    /// arrays, so per-slot work touches memory proportional to the active
    /// link population — the mechanism behind the flat per-active-cell
    /// cost from 1k to 1M nodes.
    fn lane_for(&mut self, id: usize) -> usize {
        let lane = self.lane_of[id];
        if lane != u32::MAX {
            return lane as usize;
        }
        let lane = self.lane_links.len();
        self.lane_of[id] = u32::try_from(lane).expect("lane count fits u32");
        self.lane_links.push(self.links[id]);
        self.lane_link_id.push(id as u32);
        self.lane_pdr.push(self.effective_pdr(id));
        self.queues.push(VecDeque::new());
        self.occupied_pos.push(u32::MAX);
        lane
    }

    /// Re-derives the link→slots CSR and per-slot queue-pressure counts
    /// from the freshly rebuilt slot table.
    ///
    /// One CSR entry exists per (slot, cell, link) assignment — duplicates
    /// are kept deliberately so that `slot_busy` increments and decrements
    /// stay balanced when a link appears several times in one slotframe.
    fn rebuild_wake_index(&mut self) {
        let lane_count = self.lane_links.len();
        self.link_slot_offsets.clear();
        self.link_slot_offsets.resize(lane_count + 1, 0);
        for &lane in &self.cell_lanes {
            self.link_slot_offsets[lane as usize + 1] += 1;
        }
        for i in 0..lane_count {
            self.link_slot_offsets[i + 1] += self.link_slot_offsets[i];
        }
        let total = self.link_slot_offsets[lane_count] as usize;
        self.link_slots.clear();
        self.link_slots.resize(total, 0);
        // Fill with each row's start as its write cursor, which leaves
        // every offset at its row's end; one rotation restores the starts.
        for slot in 0..self.config.slots as usize {
            for k in self.slot_offsets[slot] as usize..self.slot_offsets[slot + 1] as usize {
                let lanes =
                    self.slot_cells[k].lanes as usize..self.slot_cells[k + 1].lanes as usize;
                for &lane in &self.cell_lanes[lanes] {
                    let at = &mut self.link_slot_offsets[lane as usize];
                    self.link_slots[*at as usize] = slot as u32;
                    *at += 1;
                }
            }
        }
        self.link_slot_offsets.rotate_right(1);
        self.link_slot_offsets[0] = 0;
        // Re-derive slot pressure from the lanes that currently hold
        // traffic; the occupied set itself is schedule-independent.
        self.slot_busy.clear();
        self.slot_busy.resize(self.config.slots as usize, 0);
        for i in 0..self.occupied_links.len() {
            let lane = self.occupied_links[i] as usize;
            let (lo, hi) = self.lane_slot_range(lane);
            for k in lo..hi {
                self.slot_busy[self.link_slots[k] as usize] += 1;
            }
        }
    }

    /// The dense id of the link from `holder` to `next` (build-time route
    /// resolution; see [`TaskState::route_lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if the hop is not a tree edge.
    fn route_link_id(&self, holder: NodeId, next: NodeId) -> usize {
        if self.tree.parent(holder) == Some(next) {
            holder.index() * 2 // Link::up(holder)
        } else if self.tree.parent(next) == Some(holder) {
            next.index() * 2 + 1 // Link::down(next)
        } else {
            panic!("route hop {holder}->{next} is not a tree edge");
        }
    }
}
