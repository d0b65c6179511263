//! Tasks (periodic data flows) and the rates they release packets at.
//!
//! Following the paper (§II-A), a *task* periodically samples a physical
//! entity at a source node and sends the reading along the uplink path to
//! the gateway; for end-to-end (echo) tasks the gateway sends a control
//! packet back down the same path, as in the testbed experiments (§VI-B).
//! Rates are expressed in packets per slotframe and may be fractional
//! (e.g. the 1.5 packet/slotframe step of Fig. 10), represented exactly as
//! a rational number.

use crate::topology::{NodeId, Tree};
use core::fmt;

/// Identifier of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a `usize` index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A packet generation rate in packets per slotframe, as an exact rational
/// `packets / per_slotframes`.
///
/// # Examples
///
/// ```
/// use tsch_sim::Rate;
///
/// let r = Rate::per_slotframe(1);
/// assert_eq!(r.as_f64(), 1.0);
/// let r = Rate::new(3, 2).unwrap(); // 1.5 packets per slotframe
/// assert_eq!(r.as_f64(), 1.5);
/// // Releases over slotframes 0..4: 2, 1, 2, 1 packets (accumulated).
/// assert_eq!(r.packets_in_slotframe(0), 2);
/// assert_eq!(r.packets_in_slotframe(1), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rate {
    packets: u32,
    per_slotframes: u32,
}

impl Rate {
    /// `packets` per `per_slotframes` slotframes.
    ///
    /// # Errors
    ///
    /// Returns [`RateError`] if `per_slotframes` is zero.
    pub const fn new(packets: u32, per_slotframes: u32) -> Result<Self, RateError> {
        if per_slotframes == 0 {
            return Err(RateError::ZeroDenominator);
        }
        Ok(Self {
            packets,
            per_slotframes,
        })
    }

    /// A whole number of packets every slotframe.
    #[must_use]
    pub const fn per_slotframe(packets: u32) -> Self {
        Self {
            packets,
            per_slotframes: 1,
        }
    }

    /// The rate as a float (packets per slotframe).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        f64::from(self.packets) / f64::from(self.per_slotframes)
    }

    /// The exact numerator: packets per `per_slotframes()` slotframes.
    #[must_use]
    pub const fn packets(self) -> u32 {
        self.packets
    }

    /// The exact denominator in slotframes.
    #[must_use]
    pub const fn per_slotframes(self) -> u32 {
        self.per_slotframes
    }

    /// Number of packets released in slotframe `index`, using an exact
    /// accumulator: over any window of `per_slotframes` frames exactly
    /// `packets` packets are released, front-loaded.
    #[must_use]
    pub fn packets_in_slotframe(self, index: u64) -> u32 {
        let n = u64::from(self.packets);
        let d = u64::from(self.per_slotframes);
        (((index + 1) * n).div_ceil(d) - (index * n).div_ceil(d)) as u32
    }

    /// Number of packets released over slotframes `first..end`, the sum
    /// of [`packets_in_slotframe`](Self::packets_in_slotframe) over the
    /// range in closed form: `⌈end·packets / per_slotframes⌉ −
    /// ⌈first·packets / per_slotframes⌉`. An empty range releases 0; a
    /// count past `u64::MAX` saturates.
    ///
    /// ```
    /// use tsch_sim::Rate;
    ///
    /// let r = Rate::new(3, 2).unwrap();
    /// assert_eq!(r.packets_in_slotframes(1, 4), 1 + 2 + 1);
    /// ```
    #[must_use]
    pub fn packets_in_slotframes(self, first: u64, end: u64) -> u64 {
        let released = |frames: u64| {
            (u128::from(frames) * u128::from(self.packets))
                .div_ceil(u128::from(self.per_slotframes))
        };
        u64::try_from(released(end).saturating_sub(released(first))).unwrap_or(u64::MAX)
    }

    /// Cells needed per slotframe to sustain this rate on one hop
    /// (`⌈packets / per_slotframes⌉`).
    #[must_use]
    pub fn cells_per_slotframe(self) -> u32 {
        self.packets.div_ceil(self.per_slotframes)
    }
}

impl Default for Rate {
    fn default() -> Self {
        Rate::per_slotframe(1)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.per_slotframes == 1 {
            write!(f, "{} pkt/SF", self.packets)
        } else {
            write!(f, "{}/{} pkt/SF", self.packets, self.per_slotframes)
        }
    }
}

/// Error constructing a [`Rate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RateError {
    /// The slotframe denominator must be positive.
    ZeroDenominator,
}

impl fmt::Display for RateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RateError::ZeroDenominator => write!(f, "rate denominator must be positive"),
        }
    }
}

impl std::error::Error for RateError {}

/// What a task does with its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Sensor data flows up to the gateway only.
    UplinkOnly,
    /// End-to-end echo: up to the gateway, then back down the same path to
    /// the source (the testbed's configuration).
    Echo,
}

/// A periodic data flow rooted at a source node.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Unique id.
    pub id: TaskId,
    /// The sensing node that generates packets.
    pub source: NodeId,
    /// Packet generation rate.
    pub rate: Rate,
    /// Uplink-only or echo.
    pub kind: TaskKind,
}

impl Task {
    /// Creates an echo task (the testbed default).
    #[must_use]
    pub fn echo(id: TaskId, source: NodeId, rate: Rate) -> Self {
        Self {
            id,
            source,
            rate,
            kind: TaskKind::Echo,
        }
    }

    /// Creates an uplink-only task.
    #[must_use]
    pub fn uplink(id: TaskId, source: NodeId, rate: Rate) -> Self {
        Self {
            id,
            source,
            rate,
            kind: TaskKind::UplinkOnly,
        }
    }

    /// The full node path this task's packets traverse: source → … → gateway
    /// for uplink-only, plus gateway → … → source for echo tasks.
    #[must_use]
    pub fn route(&self, tree: &Tree) -> Vec<NodeId> {
        let up = tree.path_to_root(self.source);
        match self.kind {
            TaskKind::UplinkOnly => up,
            TaskKind::Echo => {
                let mut route = Vec::with_capacity(2 * up.len() - 1);
                route.extend_from_slice(&up);
                route.extend(up.iter().rev().skip(1));
                route
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_constructors() {
        assert_eq!(Rate::per_slotframe(2).as_f64(), 2.0);
        assert_eq!(Rate::new(3, 2).unwrap().as_f64(), 1.5);
        assert_eq!(Rate::new(1, 0).unwrap_err(), RateError::ZeroDenominator);
    }

    #[test]
    fn rate_release_pattern_integral() {
        let r = Rate::per_slotframe(2);
        for f in 0..10 {
            assert_eq!(r.packets_in_slotframe(f), 2);
        }
    }

    #[test]
    fn rate_release_pattern_fractional() {
        let r = Rate::new(3, 2).unwrap(); // 1.5/SF
        let counts: Vec<u32> = (0..6).map(|f| r.packets_in_slotframe(f)).collect();
        assert_eq!(counts.iter().sum::<u32>(), 9, "3 packets every 2 frames");
        for w in 0..4 {
            let window: u32 = (w..w + 2).map(|f| r.packets_in_slotframe(f)).sum();
            assert_eq!(window, 3, "every 2-frame window releases exactly 3");
        }
    }

    #[test]
    fn rate_release_pattern_sparse() {
        let r = Rate::new(1, 4).unwrap(); // one packet every 4 slotframes
        let counts: Vec<u32> = (0..8).map(|f| r.packets_in_slotframe(f)).collect();
        assert_eq!(counts.iter().sum::<u32>(), 2);
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 2);
    }

    #[test]
    fn closed_form_releases_sum_the_per_frame_releases() {
        for (n, d) in [(0, 1), (1, 1), (3, 2), (1, 4), (7, 3), (5, 5)] {
            let r = Rate::new(n, d).unwrap();
            for first in 0..12 {
                for end in first..24 {
                    let sum: u64 = (first..end)
                        .map(|f| u64::from(r.packets_in_slotframe(f)))
                        .sum();
                    assert_eq!(
                        r.packets_in_slotframes(first, end),
                        sum,
                        "{r} over {first}..{end}"
                    );
                }
            }
            assert_eq!(r.packets_in_slotframes(5, 2), 0, "an empty range");
        }
        let r = Rate::per_slotframe(u32::MAX);
        assert_eq!(r.packets_in_slotframes(0, u64::MAX), u64::MAX, "saturates");
    }

    #[test]
    fn rate_zero_generates_nothing() {
        let r = Rate::per_slotframe(0);
        assert_eq!((0..10).map(|f| r.packets_in_slotframe(f)).sum::<u32>(), 0);
    }

    #[test]
    fn rate_cells_needed_rounds_up() {
        assert_eq!(Rate::new(3, 2).unwrap().cells_per_slotframe(), 2);
        assert_eq!(Rate::per_slotframe(3).cells_per_slotframe(), 3);
        assert_eq!(Rate::new(1, 4).unwrap().cells_per_slotframe(), 1);
    }

    #[test]
    fn rate_display() {
        assert_eq!(Rate::per_slotframe(2).to_string(), "2 pkt/SF");
        assert_eq!(Rate::new(3, 2).unwrap().to_string(), "3/2 pkt/SF");
    }

    #[test]
    fn task_routes() {
        let tree = Tree::paper_fig1_example();
        let up = Task::uplink(TaskId(0), NodeId(9), Rate::default());
        assert_eq!(
            up.route(&tree),
            vec![NodeId(9), NodeId(7), NodeId(3), NodeId(0)]
        );
        let echo = Task::echo(TaskId(1), NodeId(9), Rate::default());
        assert_eq!(
            echo.route(&tree),
            vec![
                NodeId(9),
                NodeId(7),
                NodeId(3),
                NodeId(0),
                NodeId(3),
                NodeId(7),
                NodeId(9)
            ]
        );
    }

    #[test]
    fn gateway_task_route_is_trivial() {
        let tree = Tree::paper_fig1_example();
        let echo = Task::echo(TaskId(0), NodeId(0), Rate::default());
        assert_eq!(echo.route(&tree), vec![NodeId(0)]);
    }
}
