//! Transport layer for the management plane: confirmable envelopes, loss
//! models and CoAP-style reliability.
//!
//! The paper's testbed runs HARP over CoAP confirmable messages (§VI-A): a
//! control message can be lost like any other frame, so the endpoints
//! acknowledge, retransmit with exponential backoff and suppress duplicates.
//! [`ControlPlane`] reproduces that sublayer on top of the management
//! plane's cell timing (`MgmtPlane`):
//!
//! * every payload travels in an `Envelope` (`Con` carrying data, `Ack`
//!   confirming a `msg_id`/`token` pair);
//! * a pluggable [`Transport`] decides the fate of each transmission —
//!   [`Reliable`] (every frame arrives, the pre-transport behaviour),
//!   [`Lossy`] (per-hop Bernoulli drops from a [`LinkQuality`] PDR model,
//!   seeded) and [`Chaos`] (drops + duplicates + delays, for robustness
//!   tests);
//! * ACKs piggyback on the next occurrence of the reverse management cell:
//!   they share the cell with regular traffic, cost no airtime accounting
//!   and do not serialise behind queued messages;
//! * unacknowledged `Con`s are retransmitted from the sender's management
//!   cell after a timeout measured in slotframes, doubling up to a cap,
//!   until a retry budget is exhausted ([`MgmtError::RetriesExhausted`]);
//! * receivers keep a per-neighbour sliding msg-id window so re-delivered
//!   `Con`s are acknowledged again but never handed to the application
//!   twice.
//!
//! With a lossless transport the sublayer disengages entirely: no envelope
//! ids, no ACKs, no timers — deliveries are bit-for-bit identical to the
//! plain `MgmtPlane`, which keeps the paper-reproduction reports stable.

use crate::calendar::EventCalendar;
use crate::mgmt::{hop, Delivered, MgmtError, MgmtPlane};
use crate::radio::{LinkQuality, PdrError};
use crate::rng::SplitMix64;
use crate::time::{Asn, SlotframeConfig};
use crate::topology::{Link, NodeId, Tree};
use core::fmt;
use harp_obs::{MetricsSnapshot, Obs};
use std::collections::{BTreeMap, BTreeSet};

/// Whether an envelope carries data or confirms receipt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnvelopeKind {
    /// A confirmable message carrying a payload.
    Con,
    /// An acknowledgement of a previously received `Con`.
    Ack,
}

/// The unit the transport layer moves: a payload (or an acknowledgement)
/// plus the identifiers the reliability sublayer needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Envelope<M> {
    /// Per-sender-receiver-pair message id, assigned densely in send order;
    /// the receiver's duplicate-suppression window tracks these.
    msg_id: u64,
    /// Plane-wide unique exchange token matching an ACK to its `Con`.
    token: u64,
    /// Data or acknowledgement.
    kind: EnvelopeKind,
    /// The payload (`Some` for `Con`, `None` for `Ack`).
    payload: Option<M>,
}

/// What happened to one transmission attempt on the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxFate {
    /// The frame reached the receiver.
    pub delivered: bool,
    /// The receiver heard the frame twice (only meaningful when delivered).
    pub duplicated: bool,
    /// Extra slots of propagation/processing delay before the receiver
    /// processes the frame.
    pub delay_slots: u64,
}

impl TxFate {
    /// A clean single delivery with no delay.
    pub(crate) const DELIVERED: TxFate = TxFate {
        delivered: true,
        duplicated: false,
        delay_slots: 0,
    };
}

/// A channel model for management-cell transmissions.
///
/// Implementations must be deterministic given their construction seed: the
/// reliability layer draws exactly one fate per transmission attempt, in a
/// deterministic order, so a fixed seed reproduces the identical run.
pub trait Transport: fmt::Debug + Send + Sync {
    /// The fate of one transmission attempt on `link`.
    fn fate(&mut self, link: Link) -> TxFate;

    /// Returns `true` if every attempt is guaranteed to be a clean delivery.
    /// Lossless transports bypass the reliability sublayer entirely (no
    /// ACKs, no timers, no envelope ids).
    fn is_lossless(&self) -> bool {
        false
    }
}

/// The ideal channel: every transmission arrives exactly once, on time.
///
/// This is the pre-transport behaviour of the management plane; all
/// paper-reproduction experiments use it unless they study loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reliable;

impl Transport for Reliable {
    fn fate(&mut self, _link: Link) -> TxFate {
        TxFate::DELIVERED
    }

    fn is_lossless(&self) -> bool {
        true
    }
}

/// Bernoulli loss per hop, driven by the data plane's [`LinkQuality`] PDR
/// model and a seeded [`SplitMix64`].
///
/// # Examples
///
/// ```
/// use tsch_sim::{Link, Lossy, NodeId, Transport};
///
/// let mut t = Lossy::uniform(0.5, 42).unwrap();
/// let fate = t.fate(Link::up(NodeId(3)));
/// assert!(!fate.duplicated);
/// assert_eq!(fate.delay_slots, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Lossy {
    quality: LinkQuality,
    rng: SplitMix64,
}

impl Lossy {
    /// A lossy channel with per-link PDRs from `quality`.
    #[must_use]
    pub fn new(quality: LinkQuality, seed: u64) -> Self {
        Self {
            quality,
            rng: SplitMix64::new(seed),
        }
    }

    /// A uniform PDR on every management hop.
    ///
    /// # Errors
    ///
    /// Returns [`PdrError`] if `pdr` is outside `[0, 1]`.
    pub fn uniform(pdr: f64, seed: u64) -> Result<Self, PdrError> {
        Ok(Self::new(LinkQuality::uniform(pdr)?, seed))
    }
}

impl Transport for Lossy {
    fn fate(&mut self, link: Link) -> TxFate {
        TxFate {
            delivered: self.rng.chance(self.quality.pdr(link)),
            duplicated: false,
            delay_slots: 0,
        }
    }
}

/// Adversarial channel for robustness tests: independent seeded drop,
/// duplicate and delay processes on every transmission.
#[derive(Debug, Clone)]
pub struct Chaos {
    rng: SplitMix64,
    drop: f64,
    duplicate: f64,
    delay: f64,
    max_delay_slots: u64,
}

impl Chaos {
    /// A chaos channel dropping with probability `drop`, duplicating with
    /// probability `duplicate` and delaying (uniformly up to
    /// `max_delay_slots`) with probability `delay`.
    #[must_use]
    pub fn new(seed: u64, drop: f64, duplicate: f64, delay: f64, max_delay_slots: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            drop,
            duplicate,
            delay,
            max_delay_slots,
        }
    }
}

impl Transport for Chaos {
    fn fate(&mut self, _link: Link) -> TxFate {
        // Draw all three processes unconditionally so the stream consumed
        // per attempt is fixed and runs stay reproducible.
        let delivered = !self.rng.chance(self.drop);
        let duplicated = self.rng.chance(self.duplicate);
        let delayed = self.rng.chance(self.delay);
        TxFate {
            delivered,
            duplicated,
            delay_slots: if delayed && self.max_delay_slots > 0 {
                self.rng.next_below(self.max_delay_slots + 1)
            } else {
                0
            },
        }
    }
}

/// Tuning of the reliability sublayer, in slotframe units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Initial retransmission timeout, counted from the `Con`'s scheduled
    /// arrival. Two slotframes cover the worst-case ACK return trip (the
    /// reverse management cell is at most one slotframe away).
    pub ack_timeout_slotframes: u64,
    /// How many retransmissions before the sender gives up with
    /// [`MgmtError::RetriesExhausted`].
    pub max_retransmissions: u32,
    /// Upper bound of the exponential backoff.
    pub max_backoff_slotframes: u64,
    /// Size of the per-neighbour duplicate-suppression msg-id window.
    pub dedup_window: u64,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        Self {
            ack_timeout_slotframes: 2,
            max_retransmissions: 12,
            max_backoff_slotframes: 16,
            dedup_window: 64,
        }
    }
}

/// Monotonic counters of the reliability sublayer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Transmission attempts (first sends + retransmissions) of `Con`s.
    pub attempts: u64,
    /// Retransmissions among the attempts.
    pub retransmissions: u64,
    /// ACKs generated by receivers.
    pub acks_sent: u64,
    /// Transmissions (`Con` or `Ack`) lost to the channel.
    pub dropped: u64,
    /// Re-delivered `Con`s suppressed by the receiver's msg-id window.
    pub duplicates_suppressed: u64,
}

/// Sliding per-neighbour msg-id window: everything below `floor` was
/// observed; ids at or above it are looked up in `seen`.
#[derive(Debug, Clone, Default)]
struct DedupWindow {
    floor: u64,
    seen: BTreeSet<u64>,
}

impl DedupWindow {
    /// Records `id`; returns `true` if it was fresh (first observation).
    fn observe(&mut self, id: u64, window: u64) -> bool {
        if id < self.floor || !self.seen.insert(id) {
            return false;
        }
        // Advance the floor over the contiguous prefix, then clamp the
        // window so state stays bounded.
        while self.seen.remove(&self.floor) {
            self.floor += 1;
        }
        if let Some(&max) = self.seen.iter().next_back() {
            let min_keep = max.saturating_sub(window.saturating_sub(1));
            if self.floor < min_keep {
                self.floor = min_keep;
                self.seen = self.seen.split_off(&min_keep);
            }
        }
        true
    }
}

/// A `Con` awaiting its ACK, with its retransmission timer.
#[derive(Debug, Clone)]
struct OutstandingCon<M> {
    token: u64,
    msg_id: u64,
    from: NodeId,
    to: NodeId,
    payload: M,
    retries_left: u32,
    backoff_slotframes: u64,
    next_retry_at: Asn,
}

/// The management plane wrapped in a transport: envelopes, loss, ACKs,
/// retransmissions and duplicate suppression.
///
/// # Examples
///
/// ```
/// use tsch_sim::{Asn, ControlPlane, NodeId, Reliable, SlotframeConfig, Tree};
///
/// # fn main() -> Result<(), tsch_sim::MgmtError> {
/// let tree = Tree::paper_fig1_example();
/// let mut plane: ControlPlane<&str> =
///     ControlPlane::reliable(&tree, SlotframeConfig::paper_default());
/// let at = plane.send(&tree, Asn(0), NodeId(4), NodeId(1), "request")?;
/// let delivered = plane.poll(&tree, at)?;
/// assert_eq!(delivered[0].payload, "request");
/// assert!(plane.is_idle());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ControlPlane<M> {
    config: SlotframeConfig,
    reliability: ReliabilityConfig,
    transport: Box<dyn Transport>,
    /// Cached `transport.is_lossless()`: lossless transports bypass the
    /// reliability sublayer entirely.
    lossless: bool,
    plane: MgmtPlane<Envelope<M>>,
    outstanding: Vec<OutstandingCon<M>>,
    /// Retransmission wakeups (token keyed by fire time). Entries are never
    /// cancelled: an ACK or a reschedule leaves a stale entry behind, and
    /// [`ControlPlane::run_retransmission_timers`] validates each popped
    /// token against the live `outstanding` state instead (lazy deletion).
    retry_timers: EventCalendar<u64>,
    next_token: u64,
    /// Next msg id per directed `(sender, receiver)` pair.
    next_msg_id: BTreeMap<(NodeId, NodeId), u64>,
    /// Receiver-side dedup windows per directed `(sender, receiver)` pair.
    windows: BTreeMap<(NodeId, NodeId), DedupWindow>,
    stats: TransportStats,
    obs: Obs,
}

impl<M: Clone> ControlPlane<M> {
    /// Builds a control plane over `transport` with default reliability
    /// tuning.
    #[must_use]
    pub fn new(tree: &Tree, config: SlotframeConfig, transport: Box<dyn Transport>) -> Self {
        let lossless = transport.is_lossless();
        Self {
            config,
            reliability: ReliabilityConfig::default(),
            transport,
            lossless,
            plane: MgmtPlane::new(tree, config),
            outstanding: Vec::new(),
            retry_timers: EventCalendar::new(),
            next_token: 0,
            next_msg_id: BTreeMap::new(),
            windows: BTreeMap::new(),
            stats: TransportStats::default(),
            obs: Obs::disabled(),
        }
    }

    /// A control plane over the ideal channel (the pre-transport behaviour).
    #[must_use]
    pub fn reliable(tree: &Tree, config: SlotframeConfig) -> Self {
        Self::new(tree, config, Box::new(Reliable))
    }

    /// Replaces the reliability tuning in place. Affects only messages sent
    /// after the call; already-outstanding `Con`s keep their timers.
    pub fn set_reliability(&mut self, reliability: ReliabilityConfig) {
        self.reliability = reliability;
    }

    /// Total management transmissions (first sends and retransmissions;
    /// piggybacked ACKs are free) — the overhead metric of Table II and
    /// Fig. 12.
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.plane.messages_sent()
    }

    /// Envelopes currently in flight (including ACKs and duplicates).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.plane.in_flight()
    }

    /// Nothing in flight and nothing awaiting an ACK.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.plane.in_flight() == 0 && self.outstanding.is_empty()
    }

    /// Counters accumulated since construction (monotonic; snapshot and
    /// subtract to meter a window).
    #[must_use]
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Enables the observability layer, retaining the most recent
    /// `span_capacity` spans (retransmissions and duplicate suppressions).
    /// Off by default. [`ControlPlane::metrics_snapshot`] renders the
    /// counts since construction, enabled early or late.
    pub fn enable_observability(&mut self, span_capacity: usize) {
        self.obs = Obs::enabled(span_capacity);
    }

    /// The observability handle (disabled unless
    /// [`ControlPlane::enable_observability`] was called).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Sets the ambient correlation id stamped onto transport spans
    /// (retransmissions, duplicate suppressions) until the next call —
    /// [`harp_obs::NO_CORRELATION`] clears it. Lets a service stitch the
    /// retransmissions a request caused to that request's id.
    pub fn set_correlation(&mut self, corr: u64) {
        self.obs.set_correlation(corr);
    }

    /// Renders [`ControlPlane::stats`] as the five `transport.*` counters
    /// (empty while observability is off).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        if self.obs.is_enabled() {
            let s = self.stats;
            snap.add_counters([
                ("transport.attempts", s.attempts),
                ("transport.retransmissions", s.retransmissions),
                ("transport.acks_sent", s.acks_sent),
                ("transport.dropped", s.dropped),
                ("transport.duplicates_suppressed", s.duplicates_suppressed),
            ]);
        }
        snap
    }

    /// Sends `payload` from `from` to its tree neighbour `to` as a
    /// confirmable message, drawing its fate from the transport. Returns
    /// the ASN of the transmission's management cell (the arrival time if
    /// the frame survives the channel).
    ///
    /// # Errors
    ///
    /// Returns [`MgmtError::NotNeighbors`] unless `to` is `from`'s parent or
    /// child.
    pub fn send(
        &mut self,
        tree: &Tree,
        now: Asn,
        from: NodeId,
        to: NodeId,
        payload: M,
    ) -> Result<Asn, MgmtError> {
        let link = hop(tree, from, to)?;
        let deliver_at = self.plane.occupy(now, link, 1);
        self.stats.attempts += 1;
        if self.lossless {
            self.plane.enqueue_raw(
                deliver_at,
                from,
                to,
                Envelope {
                    msg_id: 0,
                    token: 0,
                    kind: EnvelopeKind::Con,
                    payload: Some(payload),
                },
            );
            return Ok(deliver_at);
        }
        let msg_id = {
            let next = self.next_msg_id.entry((from, to)).or_insert(0);
            let id = *next;
            *next += 1;
            id
        };
        let token = self.next_token;
        self.next_token += 1;
        let fate = self.transport.fate(link);
        let envelope = Envelope {
            msg_id,
            token,
            kind: EnvelopeKind::Con,
            payload: Some(payload.clone()),
        };
        self.deliver_per_fate(fate, deliver_at, from, to, envelope);
        let next_retry_at =
            deliver_at.plus(self.reliability.ack_timeout_slotframes * u64::from(self.config.slots));
        self.outstanding.push(OutstandingCon {
            token,
            msg_id,
            from,
            to,
            payload,
            retries_left: self.reliability.max_retransmissions,
            backoff_slotframes: self.reliability.ack_timeout_slotframes,
            next_retry_at,
        });
        self.retry_timers.schedule(next_retry_at, token);
        Ok(deliver_at)
    }

    /// Returns `true` if the transport delivers every frame exactly once, on
    /// time: the reliability sublayer is disengaged and a transmission's
    /// arrival is the ASN its management cell fires.
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.lossless
    }

    /// Occupies the next `count` occurrences of the `from → to` management
    /// cell for a sender that delivers the payloads itself: the cells, the
    /// transmission count and the attempt counters move exactly as under
    /// `count` [`ControlPlane::send`] calls at `now`, but nothing is
    /// enqueued. Returns when the first occurrence fires; the `k`-th fires
    /// `k` slotframes later. On a lossless transport those are the arrival
    /// times, which is what lets a caller that knows every message a cell
    /// will carry settle a protocol phase without an event queue.
    ///
    /// # Errors
    ///
    /// Returns [`MgmtError::NotNeighbors`] unless `to` is `from`'s parent or
    /// child.
    ///
    /// # Panics
    ///
    /// Panics on a lossy transport, where a frame's fate has to be drawn
    /// per attempt and arrivals are not a function of the cell alone.
    pub fn occupy_cell(
        &mut self,
        tree: &Tree,
        now: Asn,
        from: NodeId,
        to: NodeId,
        count: u64,
    ) -> Result<Asn, MgmtError> {
        assert!(
            self.lossless,
            "cell occupancy without fates needs a lossless transport"
        );
        let first = self.plane.occupy(now, hop(tree, from, to)?, count);
        self.stats.attempts += count;
        Ok(first)
    }

    /// Enqueues `envelope` according to `fate` (possibly dropping it, adding
    /// delay, or delivering a second copy one slotframe later).
    fn deliver_per_fate(
        &mut self,
        fate: TxFate,
        deliver_at: Asn,
        from: NodeId,
        to: NodeId,
        envelope: Envelope<M>,
    ) {
        if !fate.delivered {
            self.stats.dropped += 1;
            return;
        }
        if fate.duplicated {
            self.plane.enqueue_raw(
                deliver_at
                    .plus(fate.delay_slots)
                    .plus(u64::from(self.config.slots)),
                from,
                to,
                envelope.clone(),
            );
        }
        self.plane
            .enqueue_raw(deliver_at.plus(fate.delay_slots), from, to, envelope);
    }

    /// Delivers every due fresh payload (ASN ≤ `now`), consuming ACKs,
    /// acknowledging and deduplicating `Con`s, then firing due
    /// retransmission timers.
    ///
    /// # Errors
    ///
    /// Returns [`MgmtError::RetriesExhausted`] when a `Con` runs out of
    /// retransmissions (the neighbour is effectively unreachable).
    pub fn poll(&mut self, tree: &Tree, now: Asn) -> Result<Vec<Delivered<M>>, MgmtError> {
        let mut out = Vec::new();
        for d in self.plane.poll(now) {
            let envelope = d.payload;
            match envelope.kind {
                EnvelopeKind::Ack => {
                    self.outstanding.retain(|o| o.token != envelope.token);
                }
                EnvelopeKind::Con => {
                    let payload = envelope.payload.expect("Con envelopes carry a payload");
                    if self.lossless {
                        out.push(Delivered {
                            from: d.from,
                            to: d.to,
                            at: d.at,
                            payload,
                        });
                        continue;
                    }
                    // Acknowledge every received copy — the ACK for the
                    // original may have been the frame that got lost.
                    self.send_ack(tree, d.at, d.to, d.from, envelope.msg_id, envelope.token)?;
                    let fresh = self
                        .windows
                        .entry((d.from, d.to))
                        .or_default()
                        .observe(envelope.msg_id, self.reliability.dedup_window);
                    if fresh {
                        out.push(Delivered {
                            from: d.from,
                            to: d.to,
                            at: d.at,
                            payload,
                        });
                    } else {
                        self.stats.duplicates_suppressed += 1;
                        self.obs.span(
                            "dup_suppressed",
                            "transport",
                            d.to.0,
                            tree.depth(d.to),
                            d.at.0,
                            d.at.0,
                            1,
                        );
                    }
                }
            }
        }
        self.run_retransmission_timers(tree, now)?;
        Ok(out)
    }

    /// Emits an ACK for (`msg_id`, `token`) from `from` back to `to`,
    /// piggybacked on the next reverse management cell after `received_at`.
    fn send_ack(
        &mut self,
        tree: &Tree,
        received_at: Asn,
        from: NodeId,
        to: NodeId,
        msg_id: u64,
        token: u64,
    ) -> Result<(), MgmtError> {
        let link = hop(tree, from, to)?;
        let ack_at = self.plane.peek_transmit_time(received_at, link);
        self.stats.acks_sent += 1;
        let fate = self.transport.fate(link);
        if fate.delivered {
            self.plane.enqueue_raw(
                ack_at.plus(fate.delay_slots),
                from,
                to,
                Envelope {
                    msg_id,
                    token,
                    kind: EnvelopeKind::Ack,
                    payload: None,
                },
            );
        } else {
            self.stats.dropped += 1;
        }
        Ok(())
    }

    /// Retransmits every timed-out `Con`, backing off exponentially;
    /// removes (and reports) exchanges whose retry budget is exhausted.
    ///
    /// Driven by the wakeup calendar: only tokens with a due wakeup are
    /// examined, instead of the old full scan over every outstanding
    /// exchange per poll. Due tokens fire in ascending token order — the
    /// order the scan used, since `outstanding` always stays sorted by
    /// token (tokens are assigned monotonically and removals keep order) —
    /// so the transport RNG stream and cell occupations are unchanged.
    fn run_retransmission_timers(&mut self, tree: &Tree, now: Asn) -> Result<(), MgmtError> {
        let mut due: Vec<u64> = Vec::new();
        while let Some((_, token)) = self.retry_timers.pop_due(now) {
            due.push(token);
        }
        if due.is_empty() {
            return Ok(());
        }
        due.sort_unstable();
        due.dedup();
        let mut exhausted: Option<(NodeId, NodeId)> = None;
        for token in due {
            let Ok(i) = self.outstanding.binary_search_by_key(&token, |o| o.token) else {
                continue; // ACKed or cancelled before the timer fired.
            };
            if self.outstanding[i].next_retry_at > now {
                continue; // Stale wakeup: the exchange was rescheduled.
            }
            if self.outstanding[i].retries_left == 0 {
                let o = self.outstanding.remove(i);
                exhausted.get_or_insert((o.from, o.to));
                continue;
            }
            let (from, to, msg_id, payload) = {
                let o = &self.outstanding[i];
                (o.from, o.to, o.msg_id, o.payload.clone())
            };
            let link = hop(tree, from, to)?;
            let deliver_at = self.plane.occupy(now, link, 1);
            self.stats.attempts += 1;
            self.stats.retransmissions += 1;
            self.obs.span(
                "retx",
                "transport",
                from.0,
                tree.depth(from),
                now.0,
                deliver_at.0,
                i64::from(self.outstanding[i].retries_left),
            );
            let fate = self.transport.fate(link);
            self.deliver_per_fate(
                fate,
                deliver_at,
                from,
                to,
                Envelope {
                    msg_id,
                    token,
                    kind: EnvelopeKind::Con,
                    payload: Some(payload),
                },
            );
            let backoff_cap = self.reliability.max_backoff_slotframes;
            let o = &mut self.outstanding[i];
            o.retries_left -= 1;
            o.backoff_slotframes = (o.backoff_slotframes * 2).min(backoff_cap);
            o.next_retry_at = deliver_at.plus(o.backoff_slotframes * u64::from(self.config.slots));
            self.retry_timers.schedule(o.next_retry_at, token);
        }
        if let Some((from, to)) = exhausted {
            return Err(MgmtError::RetriesExhausted { from, to });
        }
        Ok(())
    }

    /// The earliest ASN at which something happens: a pending delivery or a
    /// retransmission timer. Drive [`ControlPlane::poll`] to these instants
    /// to fast-forward through idle slots.
    #[must_use]
    pub fn next_event(&self) -> Option<Asn> {
        let delivery = self.plane.next_delivery();
        let retry = self.outstanding.iter().map(|o| o.next_retry_at).min();
        match (delivery, retry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Drops every in-flight envelope and cancels every retransmission
    /// timer (a transactional rollback). Dedup windows and msg-id counters
    /// survive, so post-cancel traffic cannot collide with pre-cancel ids;
    /// counters are unaffected.
    pub fn cancel_in_flight(&mut self) {
        self.plane.clear_in_flight();
        self.outstanding.clear();
        self.retry_timers.clear();
    }

    /// Rebuilds the underlying plane for (possibly new) `tree`/`config`,
    /// clearing all reliability state but keeping the transport — and with
    /// it the seeded random stream — and the cumulative stats.
    pub fn reset(&mut self, tree: &Tree, config: SlotframeConfig) {
        self.config = config;
        self.plane = MgmtPlane::new(tree, config);
        self.outstanding.clear();
        self.retry_timers.clear();
        self.next_msg_id.clear();
        self.windows.clear();
        self.next_token = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Tree {
        Tree::paper_fig1_example()
    }

    fn cfg() -> SlotframeConfig {
        SlotframeConfig::new(20, 4, 10_000).unwrap()
    }

    /// A transport that pops scripted fates (and delivers cleanly once the
    /// script runs out).
    #[derive(Debug)]
    struct Scripted {
        fates: Vec<TxFate>,
    }

    impl Scripted {
        fn new(mut fates: Vec<TxFate>) -> Self {
            fates.reverse();
            Self { fates }
        }

        fn drop_first(n: usize) -> Self {
            Self::new(vec![
                TxFate {
                    delivered: false,
                    duplicated: false,
                    delay_slots: 0
                };
                n
            ])
        }
    }

    impl Transport for Scripted {
        fn fate(&mut self, _link: Link) -> TxFate {
            self.fates.pop().unwrap_or(TxFate::DELIVERED)
        }
    }

    /// Drains the plane event by event, returning all payload deliveries.
    fn drain(plane: &mut ControlPlane<u32>, tree: &Tree) -> Vec<Delivered<u32>> {
        let mut out = Vec::new();
        while let Some(at) = plane.next_event() {
            out.extend(plane.poll(tree, at).unwrap());
        }
        out
    }

    #[test]
    fn reliable_matches_plain_mgmt_plane() {
        let t = tree();
        let mut plain: MgmtPlane<u32> = MgmtPlane::new(&t, cfg());
        let mut wrapped: ControlPlane<u32> = ControlPlane::reliable(&t, cfg());
        let sends = [
            (NodeId(9), NodeId(7), 1u32),
            (NodeId(4), NodeId(1), 2),
            (NodeId(9), NodeId(7), 3),
            (NodeId(1), NodeId(4), 4),
        ];
        for &(from, to, m) in &sends {
            let a = plain.send(&t, Asn(0), from, to, m).unwrap();
            let b = wrapped.send(&t, Asn(0), from, to, m).unwrap();
            assert_eq!(a, b, "identical cell timing");
        }
        let got_plain = plain.poll(Asn(1000));
        let got_wrapped = wrapped.poll(&t, Asn(1000)).unwrap();
        assert_eq!(got_plain.len(), got_wrapped.len());
        for (p, w) in got_plain.iter().zip(&got_wrapped) {
            assert_eq!(
                (p.from, p.to, p.at, p.payload),
                (w.from, w.to, w.at, w.payload)
            );
        }
        assert_eq!(plain.messages_sent(), wrapped.messages_sent());
        assert!(wrapped.is_idle(), "no ACKs outstanding on lossless");
        assert_eq!(wrapped.stats().acks_sent, 0);
        assert_eq!(wrapped.stats().retransmissions, 0);
    }

    #[test]
    fn occupying_a_cell_books_what_the_sends_would() {
        let t = tree();
        let slots = u64::from(cfg().slots);
        for (from, to) in [(NodeId(9), NodeId(7)), (NodeId(1), NodeId(4))] {
            let mut sent: ControlPlane<u32> = ControlPlane::reliable(&t, cfg());
            let mut booked: ControlPlane<u32> = ControlPlane::reliable(&t, cfg());
            let arrivals: Vec<Asn> = (0..3)
                .map(|m| sent.send(&t, Asn(5), from, to, m).unwrap())
                .collect();
            let first = booked.occupy_cell(&t, Asn(5), from, to, 3).unwrap();
            let expected: Vec<Asn> = (0..3).map(|k| first.plus(k * slots)).collect();
            assert_eq!(arrivals, expected, "one occurrence per slotframe");
            assert_eq!(booked.stats(), sent.stats());
            assert_eq!(booked.messages_sent(), sent.messages_sent());
            assert!(booked.is_idle(), "nothing was enqueued");
            // The cell stays busy through its last booked occurrence: a
            // send handed over earlier queues behind it on both planes.
            assert_eq!(
                booked.send(&t, Asn(6), from, to, 9).unwrap(),
                sent.send(&t, Asn(6), from, to, 9).unwrap()
            );
        }
        let mut plane: ControlPlane<u32> = ControlPlane::reliable(&t, cfg());
        assert_eq!(
            plane.occupy_cell(&t, Asn(0), NodeId(4), NodeId(0), 1),
            Err(MgmtError::NotNeighbors {
                from: NodeId(4),
                to: NodeId(0)
            })
        );
    }

    #[test]
    #[should_panic(expected = "lossless transport")]
    fn occupying_a_cell_refuses_a_lossy_transport() {
        let t = tree();
        let mut plane: ControlPlane<u32> =
            ControlPlane::new(&t, cfg(), Box::new(Lossy::uniform(0.9, 1).unwrap()));
        let _ = plane.occupy_cell(&t, Asn(0), NodeId(9), NodeId(7), 1);
    }

    #[test]
    fn lossy_at_full_pdr_matches_reliable_deliveries() {
        let t = tree();
        let mut reliable: ControlPlane<u32> = ControlPlane::reliable(&t, cfg());
        let mut lossy: ControlPlane<u32> =
            ControlPlane::new(&t, cfg(), Box::new(Lossy::uniform(1.0, 7).unwrap()));
        for &(from, to, m) in &[(NodeId(9), NodeId(7), 1u32), (NodeId(1), NodeId(0), 2)] {
            reliable.send(&t, Asn(0), from, to, m).unwrap();
            lossy.send(&t, Asn(0), from, to, m).unwrap();
        }
        let a = drain(&mut reliable, &t);
        let b = drain(&mut lossy, &t);
        assert_eq!(a, b, "PDR 1.0 delivers the same payloads at the same ASNs");
        assert_eq!(lossy.stats().retransmissions, 0);
        assert_eq!(lossy.stats().dropped, 0);
        assert!(lossy.is_idle(), "all ACKs returned");
        assert_eq!(lossy.stats().acks_sent, 2);
    }

    #[test]
    fn dropped_con_is_retransmitted_and_delivered_once() {
        let t = tree();
        let mut plane: ControlPlane<u32> =
            ControlPlane::new(&t, cfg(), Box::new(Scripted::drop_first(1)));
        plane.send(&t, Asn(0), NodeId(9), NodeId(7), 42).unwrap();
        let delivered = drain(&mut plane, &t);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].payload, 42);
        assert_eq!(plane.stats().retransmissions, 1);
        assert_eq!(plane.stats().dropped, 1);
        assert!(plane.is_idle());
        assert_eq!(plane.messages_sent(), 2, "both attempts cost airtime");
    }

    #[test]
    fn dropped_ack_causes_duplicate_which_is_suppressed() {
        let t = tree();
        // Fates drawn in order: con (ok), ack (dropped), retransmitted con
        // (ok), second ack (ok).
        let mut plane: ControlPlane<u32> = ControlPlane::new(
            &t,
            cfg(),
            Box::new(Scripted::new(vec![
                TxFate::DELIVERED,
                TxFate {
                    delivered: false,
                    duplicated: false,
                    delay_slots: 0,
                },
            ])),
        );
        plane.send(&t, Asn(0), NodeId(9), NodeId(7), 5).unwrap();
        let delivered = drain(&mut plane, &t);
        assert_eq!(delivered.len(), 1, "application sees the payload once");
        assert_eq!(plane.stats().retransmissions, 1);
        assert_eq!(plane.stats().duplicates_suppressed, 1);
        assert_eq!(plane.stats().acks_sent, 2, "every copy is re-acked");
        assert!(plane.is_idle());
    }

    #[test]
    fn snapshot_holds_the_five_transport_counts() {
        let t = tree();
        let lost = TxFate {
            delivered: false,
            duplicated: false,
            delay_slots: 0,
        };
        // Fates drawn in order: con (lost), its retransmission (delivered
        // twice), the first copy's ack (lost), the second copy's ack (ok).
        let twice = TxFate {
            duplicated: true,
            ..TxFate::DELIVERED
        };
        let mut plane: ControlPlane<u32> =
            ControlPlane::new(&t, cfg(), Box::new(Scripted::new(vec![lost, twice, lost])));
        plane.enable_observability(16);
        plane.send(&t, Asn(0), NodeId(9), NodeId(7), 3).unwrap();
        assert_eq!(drain(&mut plane, &t).len(), 1);
        let s = plane.stats();
        let expected = [
            ("transport.acks_sent", s.acks_sent),
            ("transport.attempts", s.attempts),
            ("transport.dropped", s.dropped),
            ("transport.duplicates_suppressed", s.duplicates_suppressed),
            ("transport.retransmissions", s.retransmissions),
        ];
        assert!(expected.iter().all(|&(_, n)| n > 0), "{s:?}");
        let snap = plane.metrics_snapshot();
        let series: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .map(|(k, &v)| (k.as_str(), v))
            .collect();
        assert_eq!(series, expected);
        assert!(snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn chaos_duplicate_is_suppressed() {
        let t = tree();
        let mut plane: ControlPlane<u32> = ControlPlane::new(
            &t,
            cfg(),
            Box::new(Scripted::new(vec![TxFate {
                delivered: true,
                duplicated: true,
                delay_slots: 0,
            }])),
        );
        plane.send(&t, Asn(0), NodeId(9), NodeId(7), 8).unwrap();
        let delivered = drain(&mut plane, &t);
        assert_eq!(delivered.len(), 1);
        assert_eq!(plane.stats().duplicates_suppressed, 1);
        assert!(plane.is_idle());
    }

    #[test]
    fn retries_exhausted_surfaces_as_error() {
        let t = tree();
        let blackhole = Scripted::new(vec![
            TxFate {
                delivered: false,
                duplicated: false,
                delay_slots: 0
            };
            64
        ]);
        let mut plane: ControlPlane<u32> = ControlPlane::new(&t, cfg(), Box::new(blackhole));
        plane.set_reliability(ReliabilityConfig {
            max_retransmissions: 3,
            ..ReliabilityConfig::default()
        });
        plane.send(&t, Asn(0), NodeId(9), NodeId(7), 1).unwrap();
        let mut last = Ok(Vec::new());
        while let Some(at) = plane.next_event() {
            last = plane.poll(&t, at);
            if last.is_err() {
                break;
            }
        }
        assert_eq!(
            last.unwrap_err(),
            MgmtError::RetriesExhausted {
                from: NodeId(9),
                to: NodeId(7)
            }
        );
        assert_eq!(plane.stats().retransmissions, 3);
    }

    #[test]
    fn backoff_doubles_up_to_cap() {
        let t = tree();
        let slots = u64::from(cfg().slots);
        let blackhole = Scripted::new(vec![
            TxFate {
                delivered: false,
                duplicated: false,
                delay_slots: 0
            };
            64
        ]);
        let mut plane: ControlPlane<u32> = ControlPlane::new(&t, cfg(), Box::new(blackhole));
        plane.set_reliability(ReliabilityConfig {
            ack_timeout_slotframes: 1,
            max_retransmissions: 5,
            max_backoff_slotframes: 4,
            dedup_window: 64,
        });
        plane.send(&t, Asn(0), NodeId(9), NodeId(7), 1).unwrap();
        let mut timer_gaps = Vec::new();
        let mut prev = None;
        while let Some(at) = plane.next_event() {
            if let Some(p) = prev {
                timer_gaps.push((at.0 - p) / slots);
            }
            prev = Some(at.0);
            if plane.poll(&t, at).is_err() {
                break;
            }
        }
        // Gaps between retransmission timers follow the doubling backoff
        // capped at 4 slotframes, plus the one frame it takes the
        // retransmitted frame to reach the next cell occurrence.
        assert_eq!(timer_gaps, vec![3, 5, 5, 5, 5]);
    }

    #[test]
    fn cancel_in_flight_clears_timers_and_queue() {
        let t = tree();
        let mut plane: ControlPlane<u32> =
            ControlPlane::new(&t, cfg(), Box::new(Lossy::uniform(0.5, 3).unwrap()));
        for i in 0..4 {
            plane.send(&t, Asn(0), NodeId(9), NodeId(7), i).unwrap();
        }
        assert!(!plane.is_idle());
        plane.cancel_in_flight();
        assert!(plane.is_idle());
        assert_eq!(plane.next_event(), None);
    }

    #[test]
    fn dedup_window_slides_and_stays_bounded() {
        let mut w = DedupWindow::default();
        for id in 0..200 {
            assert!(w.observe(id, 8), "id {id} is fresh");
            assert!(!w.observe(id, 8), "id {id} re-observed");
        }
        assert!(w.seen.len() <= 8);
        // Out-of-order arrivals within the window are tracked exactly.
        let mut w = DedupWindow::default();
        assert!(w.observe(2, 8));
        assert!(w.observe(0, 8));
        assert!(!w.observe(0, 8));
        assert!(w.observe(1, 8));
        assert!(!w.observe(2, 8));
        // Anything below the advanced floor reads as duplicate.
        let mut w = DedupWindow::default();
        for id in 0..20 {
            w.observe(id, 4);
        }
        assert!(!w.observe(3, 4));
    }

    #[test]
    fn lossy_is_deterministic_per_seed() {
        let t = tree();
        let run = |seed: u64| {
            let mut plane: ControlPlane<u32> =
                ControlPlane::new(&t, cfg(), Box::new(Lossy::uniform(0.6, seed).unwrap()));
            for i in 0..6 {
                plane
                    .send(&t, Asn(i), NodeId(9), NodeId(7), i as u32)
                    .unwrap();
            }
            let delivered = drain(&mut plane, &t);
            (delivered, plane.stats(), plane.messages_sent())
        };
        assert_eq!(run(11), run(11), "same seed, same trace");
        let (a, ..) = run(11);
        assert_eq!(a.len(), 6, "reliability recovers every payload");
    }

    #[test]
    fn chaos_transport_draws_are_deterministic() {
        let mut a = Chaos::new(9, 0.2, 0.2, 0.5, 7);
        let mut b = Chaos::new(9, 0.2, 0.2, 0.5, 7);
        for _ in 0..100 {
            assert_eq!(a.fate(Link::up(NodeId(1))), b.fate(Link::up(NodeId(1))));
        }
    }
}
