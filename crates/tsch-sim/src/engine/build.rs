//! Building a [`Simulator`] and deriving its tables from the schedule: the
//! builder, the lanes, the per-slot cell table and the wake index.
//! Everything here runs at build time or after a schedule mutation, never
//! inside a slot.

use super::pool::PacketPool;
use super::{Simulator, SlotCell};
use super::{DEFAULT_MAX_RETRIES, DEFAULT_QUEUE_CAPACITY};
use crate::calendar::EventCalendar;
use crate::faults::{FaultAction, FaultPlan};
use crate::interference::InterferenceModel;
use crate::packet::{Task, TaskKind};
use crate::radio::LinkQuality;
use crate::rng::SplitMix64;
use crate::schedule::NetworkSchedule;
use crate::stats::{SimStats, StatsMode};
use crate::time::{Asn, SlotframeConfig};
use crate::topology::{Link, Tree};
use crate::trace::TraceBuffer;
use crate::SimError;
use core::fmt;
use harp_obs::Obs;

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
    tasks: Vec<Task>,
    seed: u64,
    max_retries: u32,
    trace_capacity: usize,
    span_capacity: usize,
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
        let interference = Box::new(crate::interference::TwoHopInterference::default());
        Self {
            tree,
            config,
            schedule: None,
            interference,
            quality: LinkQuality::perfect(),
            tasks: Vec::new(),
            seed: 0,
            max_retries: DEFAULT_MAX_RETRIES,
            trace_capacity: 0,
            span_capacity: 0,
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

    /// Retains the most recent `span_capacity` slotframe-time spans (0, the
    /// default, records none). Spans never touch the counts or the random
    /// processes, so runs are byte-identical at every capacity.
    #[must_use]
    pub fn observability(mut self, span_capacity: usize) -> Self {
        self.span_capacity = span_capacity;
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
        if self.tasks.iter().any(|t| t.id == task.id) {
            return Err(SimError::DuplicateTask(task.id));
        }
        self.tasks.push(task);
        Ok(self)
    }

    /// Builds the simulator at ASN 0.
    #[must_use]
    pub fn build(self) -> Simulator {
        let schedule = self
            .schedule
            .unwrap_or_else(|| NetworkSchedule::new(self.config));

        // Validate the fault plan against the tree and task set, then load
        // it onto the event calendar. Same-ASN actions keep plan order
        // (the calendar is FIFO within a slot).
        let mut fault_calendar = EventCalendar::with_capacity(self.fault_plan.events().len());
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
                        self.tasks.iter().any(|s| s.id == t),
                        "fault plan names unregistered task {t}"
                    );
                }
            }
            fault_calendar.schedule(at, action);
        }

        let nodes = self.tree.len();
        let mut sim = Simulator {
            route_offsets: Vec::new(),
            route_lanes: Vec::new(),
            queues: PacketPool::new(DEFAULT_QUEUE_CAPACITY),
            lane_of: vec![u32::MAX; 2 * nodes],
            lane_links: Vec::new(),
            lane_pdr: Vec::new(),
            quality: self.quality,
            interference: self.interference,
            slot_offsets: Vec::new(),
            slot_cells: Vec::with_capacity(schedule.active_cells() + 1),
            cell_lanes: Vec::with_capacity(schedule.assignment_count()),
            table_version: u64::MAX,
            link_slot_offsets: Vec::new(),
            link_slots: Vec::new(),
            slot_busy: vec![0; self.config.slots as usize],
            occupied_links: Vec::new(),
            occupied_pos: Vec::new(),
            dense_walk: self.dense_walk,
            active_scratch: Vec::new(),
            collided_scratch: Vec::new(),
            depth_scratch: vec![0; nodes],
            touched_scratch: Vec::new(),
            now: Asn::ZERO,
            rng: SplitMix64::new(self.seed),
            stats: SimStats::sized(self.stats_mode, nodes, self.tasks.len()),
            tree: self.tree,
            config: self.config,
            schedule,
            tasks: self.tasks,
            max_retries: self.max_retries,
            trace: TraceBuffer::new(self.trace_capacity),
            obs: Obs::new(self.span_capacity),
            frame_start_asn: 0,
            frame_tx_base: 0,
            fault_calendar,
            node_down: vec![false; nodes],
            masked: Vec::new(),
            faults_fired: 0,
            idle_wakeup_count: 0,
        };
        // Both tables name their links by dense id first, so the lanes can
        // be counted, and every lane table sized, before any is handed out.
        // Scheduled links take the low (cache-densest) lanes; the route
        // links follow in task and hop order.
        sim.fill_slot_table();
        let mut route_lanes = sim.fill_route_table();
        sim.number_lanes(&mut route_lanes);
        sim.route_lanes = route_lanes;
        sim.index_slot_table();
        // A sender per occupied lane at most.
        sim.touched_scratch
            .reserve_exact(sim.lane_links.len().min(nodes));
        // The per-cell scratch holds the active lanes of one cell at most.
        let widest = sim.slot_cells.windows(2).map(|w| w[1].lanes - w[0].lanes);
        let widest = widest.max().unwrap_or(0) as usize;
        sim.active_scratch.reserve_exact(widest);
        sim.collided_scratch.reserve_exact(widest);
        sim
    }
}

impl Simulator {
    /// Sizes the two tables a run of `n` slots grows, once, before its
    /// first slot; the run then allocates for them only past these bounds.
    /// [`Simulator::run_slots`] calls it; a caller that advances by
    /// [`Simulator::step_slot`] instead (a lockstep driver, which follows
    /// another schedule between slots) calls it once before its loop.
    ///
    /// * The packet pool gets room for one slotframe's releases, which a
    ///   boundary queues all at once: each routed task's most packets in
    ///   one slotframe (`⌈packets / per_slotframes⌉`), at most a queue's
    ///   capacity.
    /// * Under [`StatsMode::Full`] the delivery records get room for the
    ///   lesser of two bounds on what the window `now..now + n` can
    ///   deliver. *Packets*: those queued now, each task's releases at the
    ///   window's slotframe boundaries ([`Rate::packets_in_slotframes`])
    ///   and the [`FaultAction::TaskBurst`] packets due before the window
    ///   ends. *Carriers*: per task, the cells per slotframe of its
    ///   last-hop lane, from the wake index, times the slotframes the
    ///   window touches; a gateway-sourced task delivers each release as
    ///   it is made, so it counts its releases instead. An unscheduled or
    ///   overloaded run therefore reserves nothing it cannot fill.
    ///
    /// The records are reserved exactly: a window's reservation adds its
    /// bound to the records kept before it, so a lockstep driver's windows
    /// each hold what they can deliver and no more, and a caller stepping
    /// one slotframe at a time reallocates at most once a slotframe. A
    /// [`FaultAction::TaskRate`] raise inside the window, or a burst at a
    /// gateway-sourced task, is not counted: the records then grow as they
    /// come. No outcome depends on the bounds.
    ///
    /// [`Rate::packets_in_slotframes`]: crate::Rate::packets_in_slotframes
    pub fn reserve_slots(&mut self, n: u64) {
        let (frame, records) = self.run_bounds(n);
        self.queues.reserve(frame);
        if self.stats.mode() == StatsMode::Full {
            // A bound too large to allocate reserves nothing.
            let _ = self.stats.deliveries.try_reserve_exact(records);
        }
    }

    /// The delivery records a run of `n` slots from now can add: the
    /// bound [`Simulator::reserve_slots`] reserves room for under
    /// [`StatsMode::Full`], saturated to `usize::MAX`.
    pub fn records_bound(&mut self, n: u64) -> usize {
        self.run_bounds(n).1
    }

    /// The packet pool's and the delivery records' bounds for a run of `n`
    /// slots from now, as [`Simulator::reserve_slots`] describes them.
    fn run_bounds(&mut self, n: u64) -> (usize, usize) {
        if n == 0 {
            return (0, 0);
        }
        // The rebuild `step_slot` would do first: the carriers are read
        // from the fresh wake index.
        if self.table_version != self.schedule.version() {
            self.rebuild_slot_table();
        }
        let slots = u64::from(self.config.slots);
        let (now, end) = (self.now.0, self.now.0.saturating_add(n));
        // The window holds the boundaries of frames `first..last` and
        // touches frames `now / slots..last`.
        let (first, last) = (now.div_ceil(slots), end.div_ceil(slots));
        let touched = last - now / slots;
        let mut frame = 0usize;
        let mut packets = self.queues.live() as u64;
        let mut carriers = 0u64;
        for (t, task) in self.tasks.iter().enumerate() {
            let released = task.rate.packets_in_slotframes(first, last);
            packets = packets.saturating_add(released);
            let hops = self.route_offsets[t] as usize..self.route_offsets[t + 1] as usize;
            let Some(&lane) = self.route_lanes[hops].last() else {
                carriers = carriers.saturating_add(released);
                continue;
            };
            frame += (task.rate.cells_per_slotframe() as usize).min(DEFAULT_QUEUE_CAPACITY);
            let (lo, hi) = self.lane_slot_range(lane as usize);
            carriers = carriers.saturating_add(((hi - lo) as u64).saturating_mul(touched));
        }
        for (at, action) in self.fault_calendar.iter() {
            if let (FaultAction::TaskBurst(_, burst), true) = (action, at.0 < end) {
                packets = packets.saturating_add(u64::from(*burst));
            }
        }
        let records = usize::try_from(packets.min(carriers)).unwrap_or(usize::MAX);
        (frame, records)
    }

    /// Re-derives the per-slot schedule table from the live schedule,
    /// giving a lane to each link that has none yet.
    pub(super) fn rebuild_slot_table(&mut self) {
        self.fill_slot_table();
        self.number_lanes(&mut []);
        self.index_slot_table();
    }

    /// Fills the per-slot schedule table from the live schedule, naming
    /// each cell's links by dense id. `iter_cells` is cell-ordered, so the
    /// cells arrive grouped by slot with channels ascending.
    fn fill_slot_table(&mut self) {
        let slots = self.config.slots as usize;
        self.slot_offsets.clear();
        self.slot_offsets.resize(slots + 1, 0);
        self.slot_cells.clear();
        self.cell_lanes.clear();
        let nodes = self.tree.len();
        for (cell, links) in self.schedule.iter_cells() {
            // Mirror the map-based engine: only cells inside the simulator's
            // own slotframe bounds ever execute.
            if cell.slot >= self.config.slots || cell.channel >= self.config.channels {
                continue;
            }
            // A link outside the tree's id space can never carry traffic.
            let lanes = self.cell_lanes.len();
            self.cell_lanes.extend(
                links
                    .iter()
                    .filter(|l| l.child.index() < nodes)
                    .map(|l| l.dense_id() as u32),
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
    }

    /// Stamps the slot table, which must already name lanes, with the
    /// schedule's version and derives the wake index from it.
    fn index_slot_table(&mut self) {
        self.table_version = self.schedule.version();
        self.rebuild_wake_index();
    }

    /// Gives every link id that the freshly filled slot table or `routes`
    /// names, and that has no lane yet, the next lane, in the order the
    /// two tables first name it; then rewrites both from ids to lanes.
    /// Pass 1 numbers the new lanes, every lane table grows once, to the
    /// new count, and pass 2 fills the new lanes and rewrites the ids. A
    /// lane pins the link's queue, occupancy slot and wake rows into
    /// contiguous arrays, so per-slot work touches memory proportional to
    /// the links that carry traffic — the mechanism behind the flat
    /// per-active-cell cost from 1k to 1M nodes.
    fn number_lanes(&mut self, routes: &mut [u32]) {
        let first = self.lane_links.len();
        let mut next = u32::try_from(first).expect("lane count fits u32");
        for &id in self.cell_lanes.iter().chain(&*routes) {
            let lane = &mut self.lane_of[id as usize];
            if *lane == u32::MAX {
                *lane = next;
                next = next.checked_add(1).expect("lane count fits u32");
            }
        }
        let lanes = next as usize;
        self.lane_links.resize(lanes, Link::from_dense_id(0));
        self.lane_pdr.resize(lanes, 0.0);
        self.queues.add_lanes(lanes - first);
        self.occupied_pos.resize(lanes, u32::MAX);
        self.occupied_links
            .reserve(lanes - self.occupied_links.len());
        // Lanes go out in first-naming order, so the tables name lane
        // `next` for the first time exactly where it is new.
        let mut next = first as u32;
        for id in self.cell_lanes.iter_mut().chain(routes) {
            let lane = self.lane_of[*id as usize];
            if lane == next {
                self.lane_links[lane as usize] = Link::from_dense_id(*id as usize);
                next += 1;
            }
            *id = lane;
        }
        for lane in first..lanes {
            self.lane_pdr[lane] = self.effective_pdr(self.lane_links[lane]);
        }
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

    /// Fills every task's route offsets, and returns its hops by dense
    /// link id, in one table sized exactly: up from the source to the
    /// gateway (`Task::route`'s first half), then, for an echo task, back
    /// down the same links.
    fn fill_route_table(&mut self) -> Vec<u32> {
        let hop_count = |task: &Task| {
            let up = self.tree.depth(task.source) as usize;
            match task.kind {
                TaskKind::UplinkOnly => up,
                TaskKind::Echo => 2 * up,
            }
        };
        let total: usize = self.tasks.iter().map(hop_count).sum();
        let mut offsets = Vec::with_capacity(self.tasks.len() + 1);
        let mut hops = Vec::with_capacity(total);
        offsets.push(0);
        for task in &self.tasks {
            let start = hops.len();
            let mut node = task.source;
            while let Some(parent) = self.tree.parent(node) {
                hops.push(Link::up(node).dense_id() as u32);
                node = parent;
            }
            if task.kind == TaskKind::Echo {
                // Down from the gateway: the uplinks' children, reversed.
                for k in (start..hops.len()).rev() {
                    let child = Link::from_dense_id(hops[k] as usize).child;
                    hops.push(Link::down(child).dense_id() as u32);
                }
            }
            offsets.push(u32::try_from(hops.len()).expect("route hops fit u32"));
        }
        debug_assert_eq!(hops.len(), total);
        self.route_offsets = offsets;
        hops
    }
}
