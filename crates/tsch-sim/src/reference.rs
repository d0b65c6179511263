//! The straightforward map-based simulation engine, kept as a differential
//! oracle.
//!
//! [`ReferenceSimulator`] is the pre-optimization formulation of the engine:
//! per-link queues live in a `BTreeMap<Link, VecDeque<_>>`, every
//! (slot, channel) pair probes [`NetworkSchedule::links_on`], and the
//! interference model is consulted pairwise on every occupied cell. It is
//! deliberately simple and obviously faithful to the TSCH semantics the
//! optimised [`Simulator`](crate::Simulator) implements.
//!
//! Its one consumer is the `testkit` crate's `engine_referee` test, which
//! checks that [`Simulator`](crate::Simulator) is observationally
//! identical (same RNG stream, same stats, same trace) on arbitrary
//! scenarios.
//!
//! It supports exactly the features that test needs: tasks, PDR losses,
//! retries, bounded queues, extra radio edges, runtime schedule mutation.
//! Its queue capacity and retry limit are the real engine's defaults. A
//! queued packet carries its task's node route, where the real engine
//! keeps a task index and a hop into one lane-route table.

use crate::engine::{DEFAULT_MAX_RETRIES, DEFAULT_QUEUE_CAPACITY};
use crate::interference::{InterferenceModel, TwoHopInterference};
use crate::packet::Task;
use crate::radio::LinkQuality;
use crate::rng::SplitMix64;
use crate::schedule::NetworkSchedule;
use crate::stats::SimStats;
use crate::time::{Asn, Cell, SlotframeConfig};
use crate::topology::{Direction, Link, NodeId, Tree};
use crate::trace::TraceEvent;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A packet in flight: its route, shared by every packet of its task, and
/// the index of the node holding it.
#[derive(Debug)]
struct Packet {
    created: Asn,
    route: Arc<[NodeId]>,
    hop: usize,
}

impl Packet {
    /// A packet at the start of `route`.
    ///
    /// # Panics
    ///
    /// Panics if the route is empty.
    fn new(created: Asn, route: Arc<[NodeId]>) -> Self {
        assert!(!route.is_empty(), "a packet route cannot be empty");
        Self {
            created,
            route,
            hop: 0,
        }
    }

    /// The node currently holding the packet.
    fn holder(&self) -> NodeId {
        self.route[self.hop]
    }

    /// The next node on the route, or `None` once delivered.
    fn next_hop(&self) -> Option<NodeId> {
        self.route.get(self.hop + 1).copied()
    }

    /// Whether the packet reached the end of its route.
    fn is_delivered(&self) -> bool {
        self.hop + 1 == self.route.len()
    }

    /// Advances the packet one hop.
    ///
    /// # Panics
    ///
    /// Panics if the packet is already delivered.
    fn advance(&mut self) {
        assert!(!self.is_delivered(), "cannot advance a delivered packet");
        self.hop += 1;
    }
}

/// The map-based oracle engine. See the module docs.
#[derive(Debug)]
pub struct ReferenceSimulator {
    tree: Tree,
    config: SlotframeConfig,
    schedule: NetworkSchedule,
    interference: TwoHopInterference,
    quality: LinkQuality,
    tasks: Vec<(Task, Arc<[NodeId]>)>,
    queues: BTreeMap<Link, VecDeque<(Packet, u32)>>,
    now: Asn,
    rng: SplitMix64,
    stats: SimStats,
    trace: Vec<TraceEvent>,
}

impl ReferenceSimulator {
    /// Builds the oracle at ASN 0 with two-hop interference and the
    /// engine's default queue capacity and retry limit.
    ///
    /// # Panics
    ///
    /// Panics if a task's source is outside the tree (its route would be
    /// empty).
    #[must_use]
    pub fn new(
        tree: Tree,
        config: SlotframeConfig,
        schedule: NetworkSchedule,
        quality: LinkQuality,
        seed: u64,
        tasks: &[Task],
    ) -> Self {
        let interference = TwoHopInterference::default();
        let tasks = tasks
            .iter()
            .map(|t| (t.clone(), Arc::<[NodeId]>::from(t.route(&tree))))
            .collect();
        Self {
            tree,
            config,
            schedule,
            interference,
            quality,
            tasks,
            queues: BTreeMap::new(),
            now: Asn::ZERO,
            rng: SplitMix64::new(seed),
            stats: SimStats::new(),
            trace: Vec::new(),
        }
    }

    /// Replaces the interference model (builder-style), e.g. to add extra
    /// radio edges beyond the routing tree.
    #[must_use]
    pub fn with_interference(mut self, interference: TwoHopInterference) -> Self {
        self.interference = interference;
        self
    }

    /// Collected measurements so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Every trace event so far, unbounded.
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Mutable access to the schedule (for runtime reconfiguration).
    #[must_use]
    pub fn schedule_mut(&mut self) -> &mut NetworkSchedule {
        &mut self.schedule
    }

    /// Advances the simulation by `n` whole slotframes.
    pub fn run_slotframes(&mut self, n: u64) {
        for _ in 0..n * u64::from(self.config.slots) {
            self.step_slot();
        }
    }

    /// Executes exactly one slot.
    pub fn step_slot(&mut self) {
        if self.config.slot_offset(self.now) == 0 {
            self.release_tasks();
            self.sample_queue_depths();
        }
        let slot = self.config.slot_offset(self.now);
        for channel in 0..self.config.channels {
            self.execute_cell(Cell::new(slot, channel));
        }
        self.stats.slots_simulated += 1;
        self.now = self.now.plus(1);
    }

    fn release_tasks(&mut self) {
        let frame = self.config.slotframe_index(self.now);
        for t in 0..self.tasks.len() {
            let (task, route) = &self.tasks[t];
            let route = route.clone();
            for _ in 0..task.rate.packets_in_slotframe(frame) {
                self.stats.generated += 1;
                let packet = Packet::new(self.now, route.clone());
                if packet.is_delivered() {
                    self.stats
                        .record_delivery(packet.holder(), self.now, self.now);
                } else {
                    self.enqueue(packet);
                }
            }
        }
    }

    fn next_link(&self, packet: &Packet) -> Link {
        let holder = packet.holder();
        let next = packet.next_hop().expect("packet not delivered");
        if self.tree.parent(holder) == Some(next) {
            Link::up(holder)
        } else if self.tree.parent(next) == Some(holder) {
            Link::down(next)
        } else {
            panic!("route hop {holder}->{next} is not a tree edge");
        }
    }

    fn enqueue(&mut self, packet: Packet) {
        let link = self.next_link(&packet);
        let queue = self.queues.entry(link).or_default();
        if queue.len() >= DEFAULT_QUEUE_CAPACITY {
            self.stats.queue_drops += 1;
        } else {
            queue.push_back((packet, 0));
        }
    }

    fn execute_cell(&mut self, cell: Cell) {
        let active: Vec<Link> = self
            .schedule
            .links_on(cell)
            .iter()
            .copied()
            .filter(|l| self.queues.get(l).is_some_and(|q| !q.is_empty()))
            .collect();
        if active.is_empty() {
            return;
        }
        self.stats.tx_attempts += active.len() as u64;
        let mut collided = vec![false; active.len()];
        for i in 0..active.len() {
            for j in i + 1..active.len() {
                if self
                    .interference
                    .conflicts(&self.tree, active[i], active[j])
                {
                    collided[i] = true;
                    collided[j] = true;
                }
            }
        }
        for (idx, &link) in active.iter().enumerate() {
            if collided[idx] {
                self.stats.collisions += 1;
                self.trace.push(TraceEvent::TxCollision {
                    at: self.now,
                    link,
                    cell,
                });
                self.fail_head(link);
                continue;
            }
            let pdr = self.quality.pdr(link);
            if pdr < 1.0 && !self.rng.chance(pdr) {
                self.stats.losses += 1;
                self.trace.push(TraceEvent::TxLoss {
                    at: self.now,
                    link,
                    cell,
                });
                self.fail_head(link);
                continue;
            }
            self.trace.push(TraceEvent::TxOk {
                at: self.now,
                link,
                cell,
            });
            self.deliver_head(link);
        }
    }

    fn fail_head(&mut self, link: Link) {
        let queue = self.queues.get_mut(&link).expect("active link has a queue");
        let head = queue.front_mut().expect("active link queue is non-empty");
        head.1 += 1;
        if head.1 > DEFAULT_MAX_RETRIES {
            queue.pop_front();
            self.stats.queue_drops += 1;
            self.trace.push(TraceEvent::Drop { at: self.now, link });
        }
    }

    fn deliver_head(&mut self, link: Link) {
        let queue = self.queues.get_mut(&link).expect("active link has a queue");
        let (mut packet, _) = queue.pop_front().expect("active link queue is non-empty");
        packet.advance();
        if packet.is_delivered() {
            self.stats
                .record_delivery(packet.route[0], packet.created, self.now.plus(1));
        } else {
            self.enqueue(packet);
        }
    }

    fn sample_queue_depths(&mut self) {
        let mut per_node: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (link, queue) in &self.queues {
            if queue.is_empty() {
                continue;
            }
            let sender = match link.direction {
                Direction::Up => self.tree.parent(link.child).map(|_| link.child),
                Direction::Down => self.tree.parent(link.child),
            };
            if let Some(sender) = sender {
                *per_node.entry(sender).or_default() += queue.len();
            }
        }
        for (node, depth) in per_node {
            self.stats.record_queue_depth(node, depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_traversal() {
        let route: Arc<[NodeId]> = vec![NodeId(9), NodeId(7), NodeId(3)].into();
        let mut p = Packet::new(Asn(5), route);
        assert_eq!(p.holder(), NodeId(9));
        assert_eq!(p.next_hop(), Some(NodeId(7)));
        assert!(!p.is_delivered());
        p.advance();
        p.advance();
        assert!(p.is_delivered());
        assert_eq!(p.holder(), NodeId(3));
        assert_eq!(p.next_hop(), None);
    }

    #[test]
    fn packet_route_traversal_never_skips() {
        for hops in 1usize..8 {
            let route: Arc<[NodeId]> = (0..=hops as u32).map(NodeId).collect();
            let mut p = Packet::new(Asn(0), route);
            let mut visited = vec![p.holder()];
            while !p.is_delivered() {
                p.advance();
                visited.push(p.holder());
            }
            assert_eq!(visited, (0..=hops as u32).map(NodeId).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "cannot advance")]
    fn packet_advance_past_end_panics() {
        let mut p = Packet::new(Asn(0), vec![NodeId(0)].into());
        p.advance();
    }

    #[test]
    #[should_panic(expected = "route cannot be empty")]
    fn packet_empty_route_panics() {
        let _ = Packet::new(Asn(0), Vec::new().into());
    }
}
