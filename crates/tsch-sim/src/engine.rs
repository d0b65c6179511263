//! Slot-by-slot discrete-event simulation of a multi-channel TSCH network.
//!
//! The [`Simulator`] executes the network schedule one slot at a time:
//!
//! 1. at every slotframe boundary, tasks release packets according to their
//!    rates;
//! 2. in every slot, each scheduled cell whose link has queued traffic
//!    attempts a transmission;
//! 3. same-cell transmissions are checked pairwise against the interference
//!    model — conflicting transmissions all fail and are retried at the
//!    link's next cell;
//! 4. surviving transmissions succeed with the link's packet delivery ratio;
//! 5. delivered packets are recorded with end-to-end latency, forwarded
//!    packets join the next hop's queue.
//!
//! The schedule and task rates can be mutated between slots, which is how
//! the dynamic-adjustment experiments (Fig. 10, Table II) inject traffic
//! changes while the network is running.
//!
//! # Dense fast path
//!
//! The hot loop never touches a map. Every directed link has a dense id
//! (`child * 2 + direction`), and a link that is scheduled or queues a
//! packet also gets a compact *lane*. The engine keeps:
//!
//! * per-lane queues, [`Link`]s and PDRs in flat vectors;
//! * per-link configured PDRs in a flat `Vec<f64>` indexed by dense id;
//! * a per-slot table of non-empty cells in CSR form (slot → cells →
//!   lanes, three flat vectors filled straight from
//!   [`NetworkSchedule::iter_cells`]).
//!
//! Interference is decided where it acts: inside one cell, each pair of
//! active lanes asks the [`InterferenceModel`], as
//! [`crate::reference::ReferenceSimulator`] does, so the build derives
//! nothing from the model and its cost follows the schedule, not the tree.
//!
//! The slot table is derived from the [`NetworkSchedule`] and rebuilt lazily
//! whenever the schedule's version counter changes (see
//! [`NetworkSchedule::version`]), so runtime reconfiguration through
//! [`Simulator::schedule_mut`] keeps working. Scratch buffers for the
//! per-cell active/collided sets are reused across slots, so steady-state
//! execution performs no allocation.
//!
//! # Event-driven wake index
//!
//! The dense fast path alone still walks every slot's cell list and, at
//! slotframe boundaries, every per-link queue — at 100k+ nodes the
//! slotframe is overwhelmingly idle per (link, slot) and those walks
//! dominate. The engine therefore keeps an *event calendar* derived from
//! the same slot table:
//!
//! * `link_slot_offsets`/`link_slots` — a CSR bucket array mapping each
//!   link to the slot offsets where it holds a scheduled cell (one entry
//!   per assignment, rebuilt with the slot table);
//! * `slot_busy` — per slot, the number of scheduled assignments whose
//!   link currently has queued traffic. A queue's empty ↔ non-empty
//!   transitions adjust the counters through the link's CSR row, so a slot
//!   executes only when `slot_busy` is non-zero — otherwise every
//!   scheduled link would be skipped by the in-cell queue check anyway,
//!   consuming no RNG and recording nothing, and the slot can be skipped
//!   wholesale without observable difference;
//! * `occupied_links`/`occupied_pos` — a swap-remove index of links with
//!   non-empty queues, so boundary queue-depth sampling visits O(occupied)
//!   queues instead of all `2n` (the high-water merge is order-blind).
//!
//! The invariant that a skipped slot truly had no work is self-checked: a
//! slot whose `slot_busy` count promised work but whose cells all turned
//! out idle counts as an idle wakeup ([`Simulator::idle_wakeups`], the
//! `sim.idle_wakeups` metric) and trips a debug assertion; the equivalence
//! suite pins that count to zero. Builders
//! can opt back into the unconditional walk with
//! [`SimulatorBuilder::dense_walk`], which is kept as the in-tree
//! differential baseline.
//!
//! The builder and the derivations of these tables live in `engine/build.rs`;
//! this file is what runs inside a slot: the slot loop, the queues, fault
//! application and the statistics they feed.

mod build;

pub use build::SimulatorBuilder;

use crate::calendar::EventCalendar;
use crate::faults::FaultAction;
use crate::interference::InterferenceModel;
use crate::packet::{Packet, Rate, Task, TaskId};
use crate::radio::PdrError;
use crate::rng::SplitMix64;
use crate::schedule::NetworkSchedule;
use crate::stats::SimStats;
use crate::time::{Asn, Cell, SlotframeConfig};
use crate::topology::{Direction, Link, NodeId, Tree};
use crate::trace::{TraceBuffer, TraceEvent};
use core::fmt;
use harp_obs::{MetricsSnapshot, Obs, NO_NODE};
use std::collections::VecDeque;
use std::sync::Arc;

/// Default bound on packets queued per directed link.
pub(crate) const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Default number of transmission attempts per hop before a packet is
/// dropped.
pub(crate) const DEFAULT_MAX_RETRIES: u32 = 16;

/// Errors raised when configuring or driving the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A task references a node outside the tree.
    UnknownTaskSource(NodeId),
    /// A task id was registered twice.
    DuplicateTask(TaskId),
    /// Referenced a task that does not exist.
    UnknownTask(TaskId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownTaskSource(n) => write!(f, "task source {n} not in the tree"),
            SimError::DuplicateTask(t) => write!(f, "task {t} registered twice"),
            SimError::UnknownTask(t) => write!(f, "unknown task {t}"),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone)]
struct TaskState {
    task: Task,
    route: Arc<[NodeId]>,
    /// Lane of each route hop's link, precomputed at build so the enqueue
    /// hot path never walks the tree or the id→lane table.
    route_lanes: Arc<[u32]>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct QueuedPacket {
    packet: Packet,
    /// The packet's task-wide lane route (`route_lanes[hop]` is the lane
    /// the packet queues on next), shared via `Arc` like the route itself.
    route_lanes: Arc<[u32]>,
    retries: u32,
}

/// One slotframe-boundary release: route, lane route, task, first
/// sequence number, and packet count.
type TaskRelease = (Arc<[NodeId]>, Arc<[u32]>, TaskId, u64, u32);

/// One non-empty cell of the slot table: its channel and where its lanes
/// start in `Simulator::cell_lanes`. They end where the next cell's start;
/// a sentinel closes the last.
#[derive(Debug, Clone, Copy)]
struct SlotCell {
    channel: u16,
    lanes: u32,
}

/// The dense id of `link` (`child * 2 + direction`) in a tree of `nodes`
/// nodes, or `None` for links outside its id space (they can never carry
/// traffic).
fn link_id(nodes: usize, link: Link) -> Option<usize> {
    (link.child.index() < nodes).then(|| link.dense_id())
}

/// The running network simulation.
pub struct Simulator {
    tree: Tree,
    config: SlotframeConfig,
    schedule: NetworkSchedule,
    tasks: Vec<TaskState>,
    /// Per-lane queues. All mutable per-link hot state is indexed by the
    /// compact *lane* id — allocated on first schedule appearance or first
    /// queued packet — so the cache/TLB working set scales with the number
    /// of links that ever carry traffic, not with the tree size.
    queues: Vec<VecDeque<QueuedPacket>>,
    /// Dense link id (`child * 2 + direction`) → lane, `u32::MAX` while
    /// the link has no lane yet.
    lane_of: Vec<u32>,
    /// Lane → [`Link`], for interference, stats, trace and sampler
    /// reporting.
    lane_links: Vec<Link>,
    /// Lane → PDR (copied from [`Self::pdr`]; quality is frozen at build).
    lane_pdr: Vec<f64>,
    /// Per-link PDR, indexed by dense link id.
    pdr: Vec<f64>,
    /// Decides which same-cell transmissions collide.
    interference: Box<dyn InterferenceModel + Send + Sync>,
    /// The slot table in CSR form: slot `s`'s non-empty cells are
    /// `slot_cells[slot_offsets[s]..slot_offsets[s + 1]]`, in channel order.
    slot_offsets: Vec<u32>,
    /// Every non-empty cell in (slot, channel) order, plus the sentinel.
    slot_cells: Vec<SlotCell>,
    /// The lanes of every scheduled assignment, in (slot, channel,
    /// assignment) order.
    cell_lanes: Vec<u32>,
    /// Schedule version the slot table was built from.
    table_version: u64,
    /// CSR offsets into [`Self::link_slots`]; lane `l`'s scheduled slot
    /// offsets span `link_slot_offsets[l]..link_slot_offsets[l + 1]`.
    /// Lanes allocated since the last rebuild are past the end and
    /// (being unscheduled) have an empty range — see
    /// [`Self::lane_slot_range`].
    link_slot_offsets: Vec<u32>,
    /// Concatenated per-lane scheduled slot offsets, one entry per (cell,
    /// assignment) occurrence — the event calendar's bucket array.
    link_slots: Vec<u32>,
    /// Per slot: scheduled assignments whose link queue is non-empty. A
    /// slot with count 0 is skipped (no RNG, stats or trace possible).
    slot_busy: Vec<u32>,
    /// Lanes with non-empty queues, unordered (swap-remove membership).
    occupied_links: Vec<u32>,
    /// Lane → its index in [`Self::occupied_links`], `u32::MAX` when
    /// the queue is empty.
    occupied_pos: Vec<u32>,
    /// Walk every slot unconditionally (the pre-calendar behaviour), kept
    /// as the differential baseline for the equivalence suite.
    dense_walk: bool,
    active_scratch: Vec<u32>,
    collided_scratch: Vec<bool>,
    depth_scratch: Vec<usize>,
    /// Sender nodes touched by the current queue-depth sample.
    touched_scratch: Vec<u32>,
    /// The releases of the slotframe boundary in progress.
    release_scratch: Vec<TaskRelease>,
    now: Asn,
    rng: SplitMix64,
    stats: SimStats,
    queue_capacity: usize,
    max_retries: u32,
    trace: TraceBuffer,
    obs: Obs,
    /// First ASN of the slotframe in progress (observability only).
    frame_start_asn: u64,
    /// `stats.tx_attempts` at the start of the slotframe in progress.
    frame_tx_base: u64,
    /// Pending fault actions, drained at the top of every slot
    /// ([`crate::FaultPlan`]). Empty unless a plan was installed.
    fault_calendar: EventCalendar<FaultAction>,
    /// Per node: currently crashed. Adjacent links read as PDR 0.
    node_down: Vec<bool>,
    /// Per dense link id: effective PDR forced to 0 (partition windows).
    link_masked: Vec<bool>,
    /// Fault actions applied so far.
    faults_fired: u64,
    /// Slots the wake index executed without finding an active link —
    /// must stay 0 (see the module docs).
    idle_wakeup_count: u64,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.tree.len())
            .field("tasks", &self.tasks.len())
            .field("queued", &self.queued_packets())
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// The current absolute slot number.
    #[must_use]
    pub fn now(&self) -> Asn {
        self.now
    }

    /// The network tree.
    #[must_use]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The slotframe configuration.
    #[must_use]
    pub fn config(&self) -> SlotframeConfig {
        self.config
    }

    /// Read access to the schedule.
    #[must_use]
    pub fn schedule(&self) -> &NetworkSchedule {
        &self.schedule
    }

    /// Mutable access to the schedule (for runtime reconfiguration).
    ///
    /// The engine's dense slot table is re-derived automatically before the
    /// next slot executes, keyed off [`NetworkSchedule::version`].
    #[must_use]
    pub fn schedule_mut(&mut self) -> &mut NetworkSchedule {
        &mut self.schedule
    }

    /// Collected measurements so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Consumes the simulator, returning its measurements.
    #[must_use]
    pub fn into_stats(self) -> SimStats {
        self.stats
    }

    /// The event trace (empty unless enabled via
    /// [`SimulatorBuilder::trace_capacity`]).
    #[must_use]
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// The observability handle (disabled unless enabled via
    /// [`SimulatorBuilder::observability`]).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Renders the engine's counts as metrics (empty while observability
    /// is off): the `sim.*` counters from [`SimStats`] and
    /// [`Simulator::idle_wakeups`], the deepest queue as the
    /// `sim.queue_high_water` gauge, and [`SimStats::latency_histogram`] as
    /// `sim.latency_slots`. Counts run from the build.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        if !self.obs.is_enabled() {
            return snap;
        }
        let s = &self.stats;
        snap.add_counters([
            ("sim.slots", s.slots_simulated),
            ("sim.tx_attempts", s.tx_attempts),
            ("sim.collisions", s.collisions),
            ("sim.losses", s.losses),
            ("sim.queue_drops", s.queue_drops),
            ("sim.deliveries", s.delivered()),
            ("sim.generated", s.generated),
            ("sim.idle_wakeups", self.idle_wakeup_count),
        ]);
        snap.gauges.insert(
            "sim.queue_high_water".to_owned(),
            s.max_queue_high_water() as f64,
        );
        snap.histograms
            .insert("sim.latency_slots".to_owned(), s.latency_histogram());
        snap
    }

    /// Total packets currently queued anywhere in the network.
    #[must_use]
    pub fn queued_packets(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Packets queued at one node (over all its outgoing links).
    #[must_use]
    pub fn queue_depth(&self, node: NodeId) -> usize {
        // The node transmits on its own uplink and on each child's downlink.
        let mut total = match self.tree.parent(node) {
            Some(_) => self.id_queue_len(node.index() * 2),
            None => 0,
        };
        for &child in self.tree.children(node) {
            total += self.id_queue_len(child.index() * 2 + 1);
        }
        total
    }

    /// Queue length of the dense link id, 0 while the link has no lane.
    fn id_queue_len(&self, id: usize) -> usize {
        match self.lane_of[id] {
            u32::MAX => 0,
            lane => self.queues[lane as usize].len(),
        }
    }

    /// Changes a task's rate, effective from the next slotframe boundary.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownTask`] for an unregistered id.
    pub fn set_task_rate(&mut self, id: TaskId, rate: Rate) -> Result<(), SimError> {
        let state = self
            .tasks
            .iter_mut()
            .find(|t| t.task.id == id)
            .ok_or(SimError::UnknownTask(id))?;
        state.task.rate = rate;
        Ok(())
    }

    /// The registered tasks.
    #[must_use]
    pub fn tasks(&self) -> Vec<Task> {
        self.tasks.iter().map(|t| t.task.clone()).collect()
    }

    /// Advances the simulation by `n` slots, accumulating wall-clock time
    /// into [`SimStats::run_time`].
    pub fn run_slots(&mut self, n: u64) {
        let start = std::time::Instant::now();
        for _ in 0..n {
            self.step_slot();
        }
        self.stats.run_time += start.elapsed();
    }

    /// Advances the simulation by `n` whole slotframes.
    pub fn run_slotframes(&mut self, n: u64) {
        self.run_slots(n * u64::from(self.config.slots));
    }

    /// Executes exactly one slot.
    pub fn step_slot(&mut self) {
        // Re-derive the slot table and wake index *before* any queue
        // transition this slot: boundary releases must raise queue
        // pressure through the fresh schedule, not a stale one. The
        // rebuild is a pure derivation, so hoisting it ahead of the
        // boundary work cannot change observable behaviour.
        if self.table_version != self.schedule.version() {
            self.rebuild_slot_table();
        }
        // Drain fault actions due this slot *before* boundary work, so a
        // crash or rate change landing on a frame boundary governs that
        // frame's releases. One heap peek per slot when a plan is armed,
        // one branch when none is.
        if !self.fault_calendar.is_empty() {
            while let Some((_, action)) = self.fault_calendar.pop_due(self.now) {
                self.faults_fired += 1;
                // Tag each firing as an instantaneous span on a "fault"
                // lane so traces and flight recorders can show what the
                // plan did and when, not just that something fired.
                if self.obs.is_enabled() {
                    let node = action.node().map_or(NO_NODE, |n| n.0);
                    self.obs.span(
                        action.kind(),
                        "fault",
                        node,
                        0,
                        self.now.0,
                        self.now.0,
                        self.faults_fired as i64,
                    );
                }
                self.apply_fault(action);
            }
        }
        if self.config.slot_offset(self.now) == 0 {
            if self.obs.is_enabled() {
                if self.now.0 > 0 {
                    let tx_in_frame = self.stats.tx_attempts - self.frame_tx_base;
                    self.obs.span(
                        "slotframe",
                        "sim",
                        NO_NODE,
                        0,
                        self.frame_start_asn,
                        self.now.0 - 1,
                        tx_in_frame as i64,
                    );
                }
                self.frame_start_asn = self.now.0;
                self.frame_tx_base = self.stats.tx_attempts;
            }
            self.release_tasks();
            self.sample_queue_depths();
        }
        let slot = self.config.slot_offset(self.now) as usize;
        // Event-driven skip: a slot none of whose scheduled links has
        // queued traffic would reject every cell at the in-cell queue
        // check — no transmission, no RNG draw, no stats or trace — so it
        // can be skipped without touching its cell list at all.
        if self.dense_walk || self.slot_busy[slot] > 0 {
            // Walk the slot's cells by index: nothing below touches the
            // table, and the engine is borrowed mutably by each cell.
            let mut any_active = false;
            for k in self.slot_offsets[slot] as usize..self.slot_offsets[slot + 1] as usize {
                let (cell, next) = (self.slot_cells[k], self.slot_cells[k + 1]);
                any_active |= self.execute_cell(
                    Cell::new(slot as u32, cell.channel),
                    cell.lanes as usize..next.lanes as usize,
                );
            }
            if !self.dense_walk && !any_active {
                // The queue-pressure index promised work but every cell
                // was idle — unreachable by construction; the reconcile
                // suite and the bench gate pin this counter to zero.
                self.idle_wakeup_count += 1;
                debug_assert!(false, "event calendar woke idle slot {slot}");
            }
        }
        self.stats.slots_simulated += 1;
        self.now = self.now.plus(1);
    }

    /// Scheduled slot range of `lane` in the wake CSR. Lanes allocated
    /// after the last rebuild are necessarily unscheduled: empty range.
    fn lane_slot_range(&self, lane: usize) -> (usize, usize) {
        if lane + 1 < self.link_slot_offsets.len() {
            (
                self.link_slot_offsets[lane] as usize,
                self.link_slot_offsets[lane + 1] as usize,
            )
        } else {
            (0, 0)
        }
    }

    /// Records that `lane`'s queue just went from empty to non-empty:
    /// raises queue pressure on every slot the link is scheduled in.
    fn note_queue_nonempty(&mut self, lane: usize) {
        debug_assert_eq!(self.occupied_pos[lane], u32::MAX);
        self.occupied_pos[lane] = self.occupied_links.len() as u32;
        self.occupied_links.push(lane as u32);
        let (lo, hi) = self.lane_slot_range(lane);
        for k in lo..hi {
            self.slot_busy[self.link_slots[k] as usize] += 1;
        }
    }

    /// Records that `lane`'s queue just drained to empty: drops its
    /// queue pressure and swap-removes it from the occupied set.
    fn note_queue_empty(&mut self, lane: usize) {
        let pos = self.occupied_pos[lane];
        debug_assert_ne!(pos, u32::MAX);
        let last = self
            .occupied_links
            .pop()
            .expect("occupied set contains the draining lane");
        if last != lane as u32 {
            self.occupied_links[pos as usize] = last;
            self.occupied_pos[last as usize] = pos;
        }
        self.occupied_pos[lane] = u32::MAX;
        let (lo, hi) = self.lane_slot_range(lane);
        for k in lo..hi {
            let busy = &mut self.slot_busy[self.link_slots[k] as usize];
            debug_assert!(*busy > 0);
            *busy -= 1;
        }
    }

    /// Releases task packets at a slotframe boundary.
    fn release_tasks(&mut self) {
        let frame = self.config.slotframe_index(self.now);
        // Collect first: route clones are cheap (Arc), and we must not hold
        // a borrow of `self.tasks` while enqueueing.
        let mut releases = std::mem::take(&mut self.release_scratch);
        for state in &mut self.tasks {
            // A crashed node generates nothing while down (the sensor is
            // off, not buffering); its sequence numbers do not advance.
            if self.node_down[state.task.source.index()] {
                continue;
            }
            let n = state.task.rate.packets_in_slotframe(frame);
            if n > 0 {
                releases.push((
                    state.route.clone(),
                    state.route_lanes.clone(),
                    state.task.id,
                    state.next_seq,
                    n,
                ));
                state.next_seq += u64::from(n);
            }
        }
        for (route, route_lanes, task, seq0, n) in releases.drain(..) {
            for k in 0..u64::from(n) {
                self.stats.generated += 1;
                let packet = Packet::new(task, seq0 + k, self.now, route.clone());
                if packet.is_delivered() {
                    // Gateway-sourced degenerate route: delivered instantly.
                    self.stats
                        .record_delivery(packet.holder(), self.now, self.now);
                } else {
                    self.enqueue(packet, route_lanes.clone());
                }
            }
        }
        self.release_scratch = releases;
    }

    /// Queues a packet at its current holder for its next hop.
    fn enqueue(&mut self, packet: Packet, route_lanes: Arc<[u32]>) {
        let lane = route_lanes[packet.hop] as usize;
        let queue = &mut self.queues[lane];
        if queue.len() >= self.queue_capacity {
            self.stats.queue_drops += 1;
        } else {
            let was_empty = queue.is_empty();
            queue.push_back(QueuedPacket {
                packet,
                route_lanes,
                retries: 0,
            });
            if was_empty {
                self.note_queue_nonempty(lane);
            }
        }
    }

    /// Executes all transmissions scheduled on one cell.
    ///
    /// Returns `true` if at least one link transmitted, so `step_slot` can
    /// verify that the queue-pressure index never wakes an idle slot.
    fn execute_cell(&mut self, cell: Cell, lanes: core::ops::Range<usize>) -> bool {
        // Links with traffic ready on this cell.
        self.active_scratch.clear();
        for &lane in &self.cell_lanes[lanes] {
            if !self.queues[lane as usize].is_empty() {
                self.active_scratch.push(lane);
            }
        }
        let n = self.active_scratch.len();
        if n == 0 {
            return false;
        }
        self.stats.tx_attempts += n as u64;
        for &lane in &self.active_scratch {
            self.stats.record_tx_attempt(self.lane_links[lane as usize]);
        }

        // Interference among simultaneous transmissions: each pair of
        // active lanes asks the model, as the reference engine does. The
        // model is symmetric, so marking both ends of a conflicting pair
        // marks exactly the links that collide.
        self.collided_scratch.clear();
        self.collided_scratch.resize(n, false);
        for i in 0..n {
            let a = self.lane_links[self.active_scratch[i] as usize];
            for j in i + 1..n {
                let b = self.lane_links[self.active_scratch[j] as usize];
                if self.interference.conflicts(&self.tree, a, b) {
                    self.collided_scratch[i] = true;
                    self.collided_scratch[j] = true;
                }
            }
        }

        for idx in 0..n {
            let lane = self.active_scratch[idx] as usize;
            let link = self.lane_links[lane];
            if self.collided_scratch[idx] {
                self.stats.collisions += 1;
                self.trace.record(TraceEvent::TxCollision {
                    at: self.now,
                    link,
                    cell,
                });
                self.fail_head(lane, link);
                continue;
            }
            let pdr = self.lane_pdr[lane];
            if pdr < 1.0 && !self.rng.chance(pdr) {
                self.stats.losses += 1;
                self.trace.record(TraceEvent::TxLoss {
                    at: self.now,
                    link,
                    cell,
                });
                self.fail_head(lane, link);
                continue;
            }
            self.trace.record(TraceEvent::TxOk {
                at: self.now,
                link,
                cell,
            });
            self.deliver_head(lane);
        }
        true
    }

    /// Handles a failed transmission: retry or drop the head packet.
    fn fail_head(&mut self, lane: usize, link: Link) {
        let queue = &mut self.queues[lane];
        let head = queue.front_mut().expect("active link queue is non-empty");
        head.retries += 1;
        if head.retries > self.max_retries {
            queue.pop_front();
            let emptied = queue.is_empty();
            self.stats.queue_drops += 1;
            self.trace.record(TraceEvent::Drop { at: self.now, link });
            if emptied {
                self.note_queue_empty(lane);
            }
        }
    }

    /// Advances the head packet of lane `lane` by one hop.
    fn deliver_head(&mut self, lane: usize) {
        let mut queued = self.queues[lane]
            .pop_front()
            .expect("active link queue is non-empty");
        if self.queues[lane].is_empty() {
            self.note_queue_empty(lane);
        }
        queued.packet.advance();
        if queued.packet.is_delivered() {
            let source = queued.packet.route[0];
            let delivered_at = self.now.plus(1);
            self.stats
                .record_delivery(source, queued.packet.created, delivered_at);
        } else {
            queued.retries = 0;
            self.enqueue(queued.packet, queued.route_lanes);
        }
    }

    /// Samples per-node queue depths into the stats high-water marks.
    ///
    /// The event-driven path walks only the occupied links — the nodes it
    /// reports and the depths it reports for them are exactly those the
    /// dense scan finds, because empty queues contribute nothing either
    /// way and `record_queue_depth` is an order-insensitive max-merge.
    fn sample_queue_depths(&mut self) {
        if self.dense_walk {
            self.depth_scratch.clear();
            self.depth_scratch.resize(self.tree.len(), 0);
            for (lane, queue) in self.queues.iter().enumerate() {
                if queue.is_empty() {
                    continue;
                }
                let link = self.lane_links[lane];
                // The sender of an uplink is the child itself; of a downlink,
                // the child's parent. Links without a tree edge hold no
                // traffic.
                let sender = match link.direction {
                    Direction::Up => self.tree.parent(link.child).map(|_| link.child),
                    Direction::Down => self.tree.parent(link.child),
                };
                if let Some(sender) = sender {
                    self.depth_scratch[sender.index()] += queue.len();
                }
            }
            for (i, &depth) in self.depth_scratch.iter().enumerate() {
                if depth > 0 {
                    self.stats.record_queue_depth(NodeId(i as u32), depth);
                }
            }
            return;
        }
        if self.depth_scratch.len() < self.tree.len() {
            self.depth_scratch.resize(self.tree.len(), 0);
        }
        self.touched_scratch.clear();
        for i in 0..self.occupied_links.len() {
            let lane = self.occupied_links[i] as usize;
            let link = self.lane_links[lane];
            let sender = match link.direction {
                Direction::Up => self.tree.parent(link.child).map(|_| link.child),
                Direction::Down => self.tree.parent(link.child),
            };
            let sender = sender.expect("occupied link lies on a tree edge");
            if self.depth_scratch[sender.index()] == 0 {
                self.touched_scratch.push(sender.index() as u32);
            }
            self.depth_scratch[sender.index()] += self.queues[lane].len();
        }
        self.touched_scratch.sort_unstable();
        for i in 0..self.touched_scratch.len() {
            let node = self.touched_scratch[i] as usize;
            let depth = self.depth_scratch[node];
            self.depth_scratch[node] = 0;
            self.stats.record_queue_depth(NodeId(node as u32), depth);
        }
    }

    // --- Fault injection -------------------------------------------------

    /// Applies one fault action now (see [`crate::FaultPlan`] for semantics).
    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::NodeDown(node) => {
                if self.node_down[node.index()] {
                    return;
                }
                self.node_down[node.index()] = true;
                // A crash loses the node's RAM: drop everything it had
                // queued to send before its links go dark.
                self.clear_sender_queues(node);
                self.refresh_node_links(node);
            }
            FaultAction::NodeUp(node) => {
                if !self.node_down[node.index()] {
                    return;
                }
                self.node_down[node.index()] = false;
                self.refresh_node_links(node);
            }
            FaultAction::LinkMask(link, masked) => {
                if let Some(id) = link_id(self.tree.len(), link) {
                    self.link_masked[id] = masked;
                    self.refresh_link_quality(id);
                }
            }
            FaultAction::LinkPdr(link, pdr) => {
                if let Some(id) = link_id(self.tree.len(), link) {
                    self.pdr[id] = pdr;
                    self.refresh_link_quality(id);
                }
            }
            FaultAction::TaskBurst(task, n) => self.release_burst(task, n),
            FaultAction::TaskRate(task, rate) => {
                self.set_task_rate(task, rate)
                    .expect("fault plan tasks are validated at build");
            }
        }
    }

    /// The PDR link `id` currently transmits at: 0 while either endpoint
    /// is down or the link is masked, its configured value otherwise.
    fn effective_pdr(&self, id: usize) -> f64 {
        if self.link_masked[id] {
            return 0.0;
        }
        let link = Link::from_dense_id(id);
        if self.node_down[link.child.index()] {
            return 0.0;
        }
        if let Some(parent) = self.tree.parent(link.child) {
            if self.node_down[parent.index()] {
                return 0.0;
            }
        }
        self.pdr[id]
    }

    /// Re-derives the lane-cached PDR of link `id` after a fault mutation.
    /// Links without a lane need nothing: [`Self::lane_for`] reads the
    /// effective value at allocation.
    fn refresh_link_quality(&mut self, id: usize) {
        let lane = self.lane_of[id];
        if lane != u32::MAX {
            self.lane_pdr[lane as usize] = self.effective_pdr(id);
        }
    }

    /// Refreshes every link with `node` as an endpoint: its own up/down
    /// pair and each child's up/down pair.
    fn refresh_node_links(&mut self, node: NodeId) {
        self.refresh_link_quality(node.index() * 2);
        self.refresh_link_quality(node.index() * 2 + 1);
        for i in 0..self.tree.children(node).len() {
            let child = self.tree.children(node)[i].index();
            self.refresh_link_quality(child * 2);
            self.refresh_link_quality(child * 2 + 1);
        }
    }

    /// Drops everything `node` had queued to send (its uplink and each
    /// child's downlink), with queue-drop accounting and trace events, and
    /// releases the lanes' queue pressure.
    fn clear_sender_queues(&mut self, node: NodeId) {
        if self.tree.parent(node).is_some() {
            self.clear_queue(node.index() * 2); // Link::up(node)
        }
        for i in 0..self.tree.children(node).len() {
            let child = self.tree.children(node)[i].index();
            self.clear_queue(child * 2 + 1); // Link::down(child)
        }
    }

    /// Drops the queue of dense link `id`, if it has one and it holds
    /// anything.
    fn clear_queue(&mut self, id: usize) {
        let lane = self.lane_of[id];
        if lane == u32::MAX {
            return;
        }
        let lane = lane as usize;
        let n = self.queues[lane].len();
        if n == 0 {
            return;
        }
        let link = self.lane_links[lane];
        self.queues[lane].clear();
        self.stats.queue_drops += n as u64;
        for _ in 0..n {
            self.trace.record(TraceEvent::Drop { at: self.now, link });
        }
        self.note_queue_empty(lane);
    }

    /// Releases `n` extra packets for `task` immediately (off the
    /// slotframe-boundary cadence), through the normal enqueue path. A
    /// burst at a crashed node is silently absorbed — the radio is off.
    fn release_burst(&mut self, id: TaskId, n: u32) {
        let Some(i) = self.tasks.iter().position(|t| t.task.id == id) else {
            return;
        };
        if self.node_down[self.tasks[i].task.source.index()] {
            return;
        }
        let route = self.tasks[i].route.clone();
        let route_lanes = self.tasks[i].route_lanes.clone();
        let seq0 = self.tasks[i].next_seq;
        self.tasks[i].next_seq += u64::from(n);
        for k in 0..u64::from(n) {
            self.stats.generated += 1;
            let packet = Packet::new(id, seq0 + k, self.now, route.clone());
            if packet.is_delivered() {
                self.stats
                    .record_delivery(packet.holder(), self.now, self.now);
            } else {
                self.enqueue(packet, route_lanes.clone());
            }
        }
    }

    /// Rewrites one directed link's configured PDR at runtime, outside any
    /// fault plan. Masks and crashed endpoints still override it to 0.
    ///
    /// # Errors
    ///
    /// [`PdrError`] if `pdr` is outside `[0, 1]`.
    pub fn set_link_pdr(&mut self, link: Link, pdr: f64) -> Result<(), PdrError> {
        if !(0.0..=1.0).contains(&pdr) {
            return Err(PdrError { pdr });
        }
        if let Some(id) = link_id(self.tree.len(), link) {
            self.pdr[id] = pdr;
            self.refresh_link_quality(id);
        }
        Ok(())
    }

    /// Whether `node` is currently crashed by a fault plan.
    #[must_use]
    pub fn node_is_down(&self, node: NodeId) -> bool {
        node.index() < self.node_down.len() && self.node_down[node.index()]
    }

    /// Fault actions applied so far.
    #[must_use]
    pub fn faults_fired(&self) -> u64 {
        self.faults_fired
    }

    /// Fault actions still scheduled to fire.
    #[must_use]
    pub fn pending_faults(&self) -> usize {
        self.fault_calendar.len()
    }

    /// Slots the event calendar woke without finding work — the engine's
    /// core invariant pins this to 0. Always counted, observability or
    /// not; a snapshot renders it as `sim.idle_wakeups`.
    #[must_use]
    pub fn idle_wakeups(&self) -> u64 {
        self.idle_wakeup_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::GlobalInterference;
    use crate::radio::LinkQuality;

    fn chain_tree() -> Tree {
        // 0 ← 1 ← 2
        Tree::from_parents(&[(1, 0), (2, 1)])
    }

    fn small_config() -> SlotframeConfig {
        SlotframeConfig::new(10, 2, 10_000).unwrap()
    }

    /// A collision-free schedule for the chain: 2→1 up at slot 0, 1→0 up at
    /// slot 1, 0→1 down at slot 2, 1→2 down at slot 3.
    fn chain_schedule() -> NetworkSchedule {
        let mut s = NetworkSchedule::new(small_config());
        s.assign(Cell::new(0, 0), Link::up(NodeId(2))).unwrap();
        s.assign(Cell::new(1, 0), Link::up(NodeId(1))).unwrap();
        s.assign(Cell::new(2, 0), Link::down(NodeId(1))).unwrap();
        s.assign(Cell::new(3, 0), Link::down(NodeId(2))).unwrap();
        s
    }

    #[test]
    fn echo_packet_round_trip_latency() {
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(chain_schedule())
            .task(Task::echo(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(3);
        let stats = sim.stats();
        assert_eq!(stats.generated, 3);
        // Packet released at slot 0 of each frame: up at slots 0,1; down at
        // slots 2,3 → delivered at end of slot 3 (latency 4 slots).
        let latencies = stats.latencies_of(NodeId(2));
        assert_eq!(latencies.len(), 3);
        assert!(latencies.iter().all(|&l| l == 4), "latencies {latencies:?}");
    }

    #[test]
    fn uplink_only_task_delivers_at_gateway() {
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(chain_schedule())
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(2);
        let latencies = sim.stats().latencies_of(NodeId(2));
        assert_eq!(latencies.len(), 2);
        assert!(latencies.iter().all(|&l| l == 2), "up in slots 0 and 1");
    }

    #[test]
    fn no_schedule_means_no_delivery() {
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .task(Task::echo(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(2);
        assert_eq!(sim.stats().deliveries.len(), 0);
        assert!(sim.queued_packets() > 0);
    }

    #[test]
    fn gateway_task_is_degenerate() {
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .task(Task::echo(TaskId(0), NodeId(0), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(1);
        assert_eq!(sim.stats().deliveries.len(), 1);
        assert_eq!(sim.stats().deliveries[0].latency_slots(), 0);
    }

    #[test]
    fn colliding_cells_block_delivery() {
        // Both uplinks on the same cell; global interference → both always
        // collide, nothing is ever delivered.
        let mut s = NetworkSchedule::new(small_config());
        s.assign(Cell::new(0, 0), Link::up(NodeId(2))).unwrap();
        s.assign(Cell::new(0, 0), Link::up(NodeId(1))).unwrap();
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(s)
            .interference(Box::new(GlobalInterference))
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
            .unwrap()
            .task(Task::uplink(TaskId(1), NodeId(1), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(2);
        assert_eq!(sim.stats().deliveries.len(), 0);
        assert!(sim.stats().collisions > 0);
    }

    #[test]
    fn two_hop_model_allows_parallel_distant_links() {
        // Star: 0 ← 1, 0 ← 2. Links up(1), up(2) share receiver 0 → they DO
        // conflict. Build deeper: 0←1←3, 0←2←4; up(3) and up(4) are distant.
        let tree = Tree::from_parents(&[(1, 0), (2, 0), (3, 1), (4, 2)]);
        let mut s = NetworkSchedule::new(small_config());
        s.assign(Cell::new(0, 0), Link::up(NodeId(3))).unwrap();
        s.assign(Cell::new(0, 0), Link::up(NodeId(4))).unwrap();
        s.assign(Cell::new(1, 0), Link::up(NodeId(1))).unwrap();
        s.assign(Cell::new(2, 0), Link::up(NodeId(2))).unwrap();
        let sim = SimulatorBuilder::new(tree, small_config())
            .schedule(s)
            .task(Task::uplink(TaskId(0), NodeId(3), Rate::per_slotframe(1)))
            .unwrap()
            .task(Task::uplink(TaskId(1), NodeId(4), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(1);
        assert_eq!(sim.stats().collisions, 0);
        assert_eq!(sim.stats().deliveries.len(), 2);
    }

    #[test]
    fn pdr_losses_are_retried_and_eventually_delivered() {
        let mut quality = LinkQuality::perfect();
        quality.set_pdr(Link::up(NodeId(2)), 0.5).unwrap();
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(chain_schedule())
            .quality(quality)
            .seed(11)
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::new(1, 2).unwrap()))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(40);
        let stats = sim.stats();
        assert!(stats.losses > 0, "a 0.5 PDR link must lose packets");
        assert!(!stats.deliveries.is_empty(), "retries eventually succeed");
    }

    #[test]
    fn retry_limit_drops_packets() {
        // Uplink PDR 0: the packet can never cross, must be dropped after
        // max_retries attempts.
        let mut quality = LinkQuality::perfect();
        quality.set_pdr(Link::up(NodeId(2)), 0.0).unwrap();
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(chain_schedule())
            .quality(quality)
            .max_retries(3)
            .task(Task::uplink(
                TaskId(0),
                NodeId(2),
                Rate::new(1, 10).unwrap(),
            ))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(10);
        assert!(sim.stats().queue_drops >= 1);
        assert_eq!(sim.queue_depth(NodeId(2)), 0, "dropped, not stuck");
    }

    #[test]
    fn queue_capacity_drops_overflow() {
        // No schedule: queues fill up at rate 2/frame with capacity 3.
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .queue_capacity(3)
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(2)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(5);
        assert_eq!(sim.queued_packets(), 3);
        assert_eq!(sim.stats().queue_drops, 10 - 3);
    }

    #[test]
    fn rate_change_takes_effect() {
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(chain_schedule())
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(2);
        assert_eq!(sim.stats().generated, 2);
        sim.set_task_rate(TaskId(0), Rate::per_slotframe(3))
            .unwrap();
        sim.run_slotframes(2);
        assert_eq!(sim.stats().generated, 2 + 6);
        assert!(matches!(
            sim.set_task_rate(TaskId(9), Rate::per_slotframe(1)),
            Err(SimError::UnknownTask(_))
        ));
    }

    #[test]
    fn schedule_mutation_at_runtime() {
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .task(Task::uplink(TaskId(0), NodeId(1), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(1);
        assert!(sim.stats().deliveries.is_empty());
        // Install the uplink cell mid-run.
        sim.schedule_mut()
            .assign(Cell::new(4, 0), Link::up(NodeId(1)))
            .unwrap();
        sim.run_slotframes(2);
        assert!(!sim.stats().deliveries.is_empty());
    }

    #[test]
    fn schedule_unassign_at_runtime_stops_traffic() {
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(chain_schedule())
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(2);
        let delivered = sim.stats().deliveries.len();
        assert!(delivered > 0);
        // Remove the first hop's cell: new packets stall at node 2.
        sim.schedule_mut().unassign_link(Link::up(NodeId(2)));
        sim.run_slotframes(3);
        assert_eq!(sim.stats().deliveries.len(), delivered);
        assert!(sim.queue_depth(NodeId(2)) > 0);
    }

    #[test]
    fn determinism_same_seed_same_stats() {
        let build = || {
            let mut quality = LinkQuality::perfect();
            quality.set_pdr(Link::up(NodeId(2)), 0.7).unwrap();
            SimulatorBuilder::new(chain_tree(), small_config())
                .schedule(chain_schedule())
                .quality(quality)
                .seed(99)
                .task(Task::echo(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
                .unwrap()
                .build()
        };
        let mut a = build();
        let mut b = build();
        a.run_slotframes(30);
        b.run_slotframes(30);
        assert_eq!(a.stats().losses, b.stats().losses);
        assert_eq!(a.stats().deliveries.len(), b.stats().deliveries.len());
    }

    #[test]
    fn builder_rejects_bad_tasks() {
        let b = SimulatorBuilder::new(chain_tree(), small_config());
        assert!(matches!(
            b.task(Task::echo(TaskId(0), NodeId(9), Rate::per_slotframe(1))),
            Err(SimError::UnknownTaskSource(_))
        ));
        let b = SimulatorBuilder::new(chain_tree(), small_config())
            .task(Task::echo(TaskId(0), NodeId(1), Rate::per_slotframe(1)))
            .unwrap();
        assert!(matches!(
            b.task(Task::echo(TaskId(0), NodeId(2), Rate::per_slotframe(1))),
            Err(SimError::DuplicateTask(_))
        ));
    }

    #[test]
    fn trace_records_outcomes() {
        let mut quality = LinkQuality::perfect();
        quality.set_pdr(Link::up(NodeId(2)), 0.5).unwrap();
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(chain_schedule())
            .quality(quality)
            .seed(5)
            .max_retries(1)
            .trace_capacity(128)
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(20);
        let trace = sim.trace();
        assert!(trace.total_recorded() > 0);
        let ok = trace.iter().filter(|e| !e.is_failure()).count();
        let losses = trace
            .iter()
            .filter(|e| matches!(e, crate::trace::TraceEvent::TxLoss { .. }))
            .count();
        assert!(ok > 0, "successes traced");
        assert!(losses > 0, "losses traced on a 0.5 PDR link");
        // Stats and trace agree on the loss count (within ring capacity).
        assert!(sim.stats().losses as usize >= losses);
    }

    #[test]
    fn trace_disabled_by_default() {
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(chain_schedule())
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(3);
        assert!(sim.trace().is_empty());
        assert_eq!(sim.trace().total_recorded(), 0);
    }

    #[test]
    fn queue_depth_by_node() {
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(2)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(1);
        assert_eq!(sim.queue_depth(NodeId(2)), 2);
        assert_eq!(sim.queue_depth(NodeId(1)), 0);
    }

    #[test]
    fn slots_simulated_counts_every_slot() {
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(chain_schedule())
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(4);
        assert_eq!(sim.stats().slots_simulated, 40);
        assert!(sim.stats().run_time > std::time::Duration::ZERO);
        assert!(sim.stats().slots_per_sec() > 0.0);
    }

    #[test]
    fn out_of_bounds_schedule_cells_are_ignored() {
        // A schedule built for a larger slotframe: cells beyond the
        // simulator's own bounds never execute, exactly as when they were
        // probed cell-by-cell.
        let big = SlotframeConfig::new(50, 8, 10_000).unwrap();
        let mut s = NetworkSchedule::new(big);
        s.assign(Cell::new(0, 0), Link::up(NodeId(2))).unwrap();
        s.assign(Cell::new(1, 0), Link::up(NodeId(1))).unwrap();
        s.assign(Cell::new(40, 0), Link::up(NodeId(2))).unwrap(); // beyond 10 slots
        s.assign(Cell::new(2, 5), Link::up(NodeId(2))).unwrap(); // beyond 2 channels
        let sim = SimulatorBuilder::new(chain_tree(), small_config())
            .schedule(s)
            .task(Task::uplink(TaskId(0), NodeId(2), Rate::per_slotframe(1)))
            .unwrap();
        let mut sim = sim.build();
        sim.run_slotframes(1);
        // Delivered via the two in-bounds cells only.
        assert_eq!(sim.stats().deliveries.len(), 1);
        assert_eq!(sim.stats().tx_attempts, 2);
    }
}
