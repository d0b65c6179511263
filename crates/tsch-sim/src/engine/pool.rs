//! Every lane's packet queue in one slab.
//!
//! A lane queue is a singly linked FIFO threaded through one vector of
//! compact entries; a free list recycles the entries a pop or a clear
//! gives back. A run therefore allocates for queues only while the number
//! of packets queued at once climbs past its previous high-water mark, and
//! never per lane; a run reserves room for one slotframe's releases at its
//! start ([`PacketPool::reserve`]), so the first boundary grows nothing.

use crate::time::Asn;

/// End of a lane's chain or of the free list.
const NIL: u32 = u32::MAX;

/// One queued packet: its task, how many hops of the task's lane route it
/// has crossed, its retries on the current hop and when it was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Queued {
    pub(super) created: Asn,
    /// Index of the packet's task in `Simulator::tasks`.
    pub(super) task: u32,
    pub(super) hop: u32,
    pub(super) retries: u32,
    /// The entry behind this one in its lane, or on the free list.
    next: u32,
}

impl Queued {
    /// A packet of task index `task` at hop `hop`, no retries yet.
    pub(super) fn new(task: u32, hop: u32, created: Asn) -> Self {
        Self {
            created,
            task,
            hop,
            retries: 0,
            next: NIL,
        }
    }
}

/// A lane's FIFO: its first and last entries and its length.
#[derive(Debug, Clone, Copy)]
struct Lane {
    head: u32,
    tail: u32,
    len: u32,
}

/// The queues of every lane, bounded at `capacity` packets each.
#[derive(Debug, Clone)]
pub(super) struct PacketPool {
    entries: Vec<Queued>,
    lanes: Vec<Lane>,
    /// First recycled entry, `NIL` when none is free.
    free: u32,
    /// Entries on the free list.
    free_len: usize,
    capacity: usize,
}

impl PacketPool {
    pub(super) fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            lanes: Vec::new(),
            free: NIL,
            free_len: 0,
            capacity,
        }
    }

    /// Adds `n` empty lanes, growing the lane table once; lanes are
    /// numbered in the order they are added.
    pub(super) fn add_lanes(&mut self, n: usize) {
        let empty = Lane {
            head: NIL,
            tail: NIL,
            len: 0,
        };
        self.lanes.resize(self.lanes.len() + n, empty);
    }

    /// Makes room for `packets` more queued packets, the recycled entries
    /// included, so that many pushes allocate nothing.
    pub(super) fn reserve(&mut self, packets: usize) {
        self.entries.reserve(packets.saturating_sub(self.free_len));
    }

    /// Packets queued over all lanes.
    pub(super) fn live(&self) -> usize {
        self.entries.len() - self.free_len
    }

    pub(super) fn len(&self, lane: usize) -> usize {
        self.lanes[lane].len as usize
    }

    pub(super) fn is_empty(&self, lane: usize) -> bool {
        self.lanes[lane].len == 0
    }

    /// Appends `packet` to `lane`; `false`, and nothing queued, when the
    /// lane already holds `capacity` packets.
    pub(super) fn push(&mut self, lane: usize, packet: Queued) -> bool {
        if self.len(lane) >= self.capacity {
            return false;
        }
        let at = if self.free == NIL {
            let at = u32::try_from(self.entries.len()).expect("queued packets fit u32");
            self.entries.push(packet);
            at
        } else {
            let at = self.free;
            self.free = self.entries[at as usize].next;
            self.free_len -= 1;
            self.entries[at as usize] = packet;
            at
        };
        let q = &mut self.lanes[lane];
        if q.len == 0 {
            q.head = at;
        } else {
            self.entries[q.tail as usize].next = at;
        }
        q.tail = at;
        q.len += 1;
        true
    }

    /// The oldest packet of a non-empty `lane`.
    pub(super) fn front_mut(&mut self, lane: usize) -> &mut Queued {
        let head = self.lanes[lane].head;
        assert_ne!(head, NIL, "lane {lane} is empty");
        &mut self.entries[head as usize]
    }

    /// Removes and returns the oldest packet of a non-empty `lane`.
    pub(super) fn pop_front(&mut self, lane: usize) -> Queued {
        let q = &mut self.lanes[lane];
        let at = q.head;
        assert_ne!(at, NIL, "lane {lane} is empty");
        let mut packet = self.entries[at as usize];
        q.head = packet.next;
        q.len -= 1;
        if q.len == 0 {
            q.tail = NIL;
        }
        self.entries[at as usize].next = self.free;
        self.free = at;
        self.free_len += 1;
        packet.next = NIL;
        packet
    }

    /// Empties `lane`, returning how many packets it held.
    pub(super) fn clear(&mut self, lane: usize) -> usize {
        let q = self.lanes[lane];
        if q.len == 0 {
            return 0;
        }
        // The lane's chain joins the free list whole.
        self.entries[q.tail as usize].next = self.free;
        self.free = q.head;
        self.free_len += q.len as usize;
        self.lanes[lane] = Lane {
            head: NIL,
            tail: NIL,
            len: 0,
        };
        q.len as usize
    }
}

#[cfg(test)]
mod tests {
    //! Referee for the pool: seeded push, pop-front and clear operations on
    //! 1–8 lanes at capacities 1–6, against one `VecDeque` per lane.

    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::VecDeque;

    fn packet(n: u64) -> Queued {
        let mut p = Queued::new(n as u32, (n % 7) as u32, Asn(n));
        p.retries = (n % 3) as u32;
        p
    }

    /// The lane's packets in order, read by walking its chain.
    fn chain(pool: &PacketPool, lane: usize) -> Vec<Queued> {
        let mut out = Vec::new();
        let mut at = pool.lanes[lane].head;
        while at != NIL {
            let mut p = pool.entries[at as usize];
            at = p.next;
            p.next = NIL;
            out.push(p);
        }
        out
    }

    fn free_list_len(pool: &PacketPool) -> usize {
        let (mut n, mut at) = (0, pool.free);
        while at != NIL {
            n += 1;
            at = pool.entries[at as usize].next;
        }
        n
    }

    fn check(pool: &PacketPool, model: &[VecDeque<Queued>], ctx: &str) {
        for (lane, queue) in model.iter().enumerate() {
            let items: Vec<Queued> = queue.iter().copied().collect();
            assert_eq!(chain(pool, lane), items, "{ctx}: lane {lane} items");
            assert_eq!(pool.len(lane), queue.len(), "{ctx}: lane {lane} length");
            assert_eq!(pool.is_empty(lane), queue.is_empty(), "{ctx}: lane {lane}");
        }
        let queued: usize = model.iter().map(VecDeque::len).sum();
        assert_eq!(pool.live(), queued, "{ctx}: live count");
        assert_eq!(free_list_len(pool), pool.free_len, "{ctx}: free list");
    }

    #[test]
    fn pool_matches_a_deque_per_lane() {
        let mut rng = SplitMix64::new(43);
        for lanes in 1..=8 {
            for capacity in 1..=6 {
                let mut pool = PacketPool::new(capacity);
                let mut model: Vec<VecDeque<Queued>> = vec![VecDeque::new(); lanes];
                pool.add_lanes(lanes);
                let (mut drops, mut model_drops) = (0u64, 0u64);
                for step in 0..400u64 {
                    let lane = rng.next_below(lanes as u64) as usize;
                    let ctx = format!("{lanes} lanes, capacity {capacity}, step {step}");
                    match rng.next_below(10) {
                        // Pushes outnumber pops so lanes fill up to their bound.
                        0..=5 => {
                            let p = packet(step);
                            if !pool.push(lane, p) {
                                drops += 1;
                            }
                            if model[lane].len() >= capacity {
                                model_drops += 1;
                            } else {
                                model[lane].push_back(p);
                            }
                        }
                        6..=8 => {
                            if let Some(p) = model[lane].pop_front() {
                                assert_eq!(pool.front_mut(lane).task, p.task, "{ctx}: head");
                                assert_eq!(pool.pop_front(lane), p, "{ctx}: popped");
                            }
                        }
                        _ => {
                            let n = model[lane].len();
                            model[lane].clear();
                            assert_eq!(pool.clear(lane), n, "{ctx}: cleared");
                        }
                    }
                    assert_eq!(drops, model_drops, "{ctx}: drops");
                    check(&pool, &model, &ctx);
                }
                assert!(
                    pool.entries.len() <= lanes * capacity,
                    "{lanes} lanes, capacity {capacity}: the slab outgrew the lanes' bound"
                );
            }
        }
    }
}
