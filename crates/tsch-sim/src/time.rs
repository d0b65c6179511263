//! Time-slotted channel-hopping time base: absolute slot numbers, cells and
//! slotframes.
//!
//! A TSCH network divides time into fixed-length *slots* (10 ms in the
//! paper's 6TiSCH testbed), numbered globally by the Absolute Slot Number
//! ([`Asn`]). Consecutive slots are grouped into *slotframes* that repeat for
//! the lifetime of the network; the paper uses a slotframe of 199 slots × 16
//! channels. A [`Cell`] is the atomic schedulable resource: one (slot offset,
//! channel offset) pair within the slotframe.

use core::fmt;

/// Absolute Slot Number: the number of slots elapsed since network start.
///
/// # Examples
///
/// ```
/// use tsch_sim::{Asn, SlotframeConfig};
///
/// let cfg = SlotframeConfig::paper_default();
/// let asn = Asn(400);
/// assert_eq!(cfg.slot_offset(asn), 400 % 199);
/// assert_eq!(cfg.slotframe_index(asn), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Asn(pub u64);

impl Asn {
    /// The slot at network start.
    pub const ZERO: Asn = Asn(0);

    /// The ASN `n` slots later.
    #[must_use]
    pub const fn plus(self, n: u64) -> Asn {
        Asn(self.0 + n)
    }

    /// Slots elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[must_use]
    pub fn since(self, earlier: Asn) -> u64 {
        self.0
            .checked_sub(earlier.0)
            .expect("`earlier` must not be later than `self`")
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ASN {}", self.0)
    }
}

/// A schedulable cell: a (slot offset, channel offset) pair in the slotframe.
///
/// # Examples
///
/// ```
/// use tsch_sim::Cell;
///
/// let c = Cell::new(42, 3);
/// assert_eq!(c.slot, 42);
/// assert_eq!(c.channel, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Slot offset within the slotframe, `0..slots`.
    pub slot: u32,
    /// Channel offset, `0..channels`.
    pub channel: u16,
}

impl Cell {
    /// Creates a cell from a slot offset and channel offset.
    #[must_use]
    pub const fn new(slot: u32, channel: u16) -> Self {
        Self { slot, channel }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(s{}, ch{})", self.slot, self.channel)
    }
}

/// Static slotframe parameters of a network.
///
/// # Examples
///
/// ```
/// use tsch_sim::SlotframeConfig;
///
/// let cfg = SlotframeConfig::paper_default();
/// assert_eq!(cfg.slots, 199);
/// assert_eq!(cfg.channels, 16);
/// assert_eq!(cfg.cells_per_slotframe(), 199 * 16);
/// // One slotframe is 1.99 s, as reported in the paper.
/// assert!((cfg.slots_to_seconds(199) - 1.99).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotframeConfig {
    /// Number of slots per slotframe.
    pub slots: u32,
    /// Number of channel offsets available.
    pub channels: u16,
    /// Duration of one slot in microseconds (6TiSCH default: 10 ms).
    pub slot_duration_us: u32,
}

impl SlotframeConfig {
    /// The configuration used throughout the paper's testbed and
    /// simulations: 199 slots, 16 channels, 10 ms slots.
    #[must_use]
    pub const fn paper_default() -> Self {
        Self {
            slots: 199,
            channels: 16,
            slot_duration_us: 10_000,
        }
    }

    /// Creates a configuration, validating that both dimensions are nonzero.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `slots` or `channels` is zero.
    pub fn new(slots: u32, channels: u16, slot_duration_us: u32) -> Result<Self, ConfigError> {
        if slots == 0 {
            return Err(ConfigError::ZeroSlots);
        }
        if channels == 0 {
            return Err(ConfigError::ZeroChannels);
        }
        Ok(Self {
            slots,
            channels,
            slot_duration_us,
        })
    }

    /// Same slotframe with a different channel budget (used by the Fig. 11(b)
    /// channel sweep).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroChannels`] if `channels` is zero.
    pub fn with_channels(self, channels: u16) -> Result<Self, ConfigError> {
        Self::new(self.slots, channels, self.slot_duration_us)
    }

    /// Total number of cells in one slotframe.
    #[must_use]
    pub const fn cells_per_slotframe(&self) -> u64 {
        self.slots as u64 * self.channels as u64
    }

    /// The slot offset of `asn` within the slotframe.
    #[must_use]
    pub const fn slot_offset(&self, asn: Asn) -> u32 {
        (asn.0 % self.slots as u64) as u32
    }

    /// How many complete slotframes precede `asn`.
    #[must_use]
    pub const fn slotframe_index(&self, asn: Asn) -> u64 {
        asn.0 / self.slots as u64
    }

    /// The earliest ASN at or after `now` whose slot offset is `slot`.
    #[must_use]
    pub(crate) fn next_occurrence(&self, now: Asn, slot: u32) -> Asn {
        debug_assert!(slot < self.slots);
        let cur = self.slot_offset(now);
        if slot >= cur {
            now.plus((slot - cur) as u64)
        } else {
            now.plus((self.slots - cur + slot) as u64)
        }
    }

    /// Converts a slot count to seconds.
    #[must_use]
    pub fn slots_to_seconds(&self, slots: u64) -> f64 {
        slots as f64 * self.slot_duration_us as f64 / 1e6
    }

    /// Returns `true` if `cell` lies within this slotframe's bounds.
    #[must_use]
    pub const fn contains_cell(&self, cell: Cell) -> bool {
        cell.slot < self.slots && cell.channel < self.channels
    }
}

impl Default for SlotframeConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Errors constructing a [`SlotframeConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ConfigError {
    /// The slotframe must contain at least one slot.
    ZeroSlots,
    /// The network must have at least one channel.
    ZeroChannels,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroSlots => write!(f, "slotframe must have at least one slot"),
            ConfigError::ZeroChannels => write!(f, "network must have at least one channel"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asn_arithmetic() {
        assert_eq!(Asn::ZERO.plus(5), Asn(5));
        assert_eq!(Asn(10).since(Asn(4)), 6);
        assert_eq!(Asn(10).since(Asn(10)), 0);
    }

    #[test]
    #[should_panic(expected = "`earlier` must not be later")]
    fn asn_since_panics_on_future() {
        let _ = Asn(3).since(Asn(4));
    }

    #[test]
    fn paper_default_matches_testbed() {
        let cfg = SlotframeConfig::paper_default();
        assert_eq!(cfg.slots, 199);
        assert_eq!(cfg.channels, 16);
        assert_eq!(cfg.slot_duration_us, 10_000);
        assert!((cfg.slots_to_seconds(199) - 1.99).abs() < 1e-12);
    }

    #[test]
    fn config_validation() {
        assert_eq!(
            SlotframeConfig::new(0, 16, 10).unwrap_err(),
            ConfigError::ZeroSlots
        );
        assert_eq!(
            SlotframeConfig::new(9, 0, 10).unwrap_err(),
            ConfigError::ZeroChannels
        );
        assert!(SlotframeConfig::new(9, 2, 10).is_ok());
    }

    #[test]
    fn with_channels_keeps_other_fields() {
        let cfg = SlotframeConfig::paper_default().with_channels(4).unwrap();
        assert_eq!(cfg.channels, 4);
        assert_eq!(cfg.slots, 199);
        assert!(SlotframeConfig::paper_default().with_channels(0).is_err());
    }

    #[test]
    fn slot_offset_and_index_wrap() {
        let cfg = SlotframeConfig::new(10, 2, 10_000).unwrap();
        assert_eq!(cfg.slot_offset(Asn(0)), 0);
        assert_eq!(cfg.slot_offset(Asn(9)), 9);
        assert_eq!(cfg.slot_offset(Asn(10)), 0);
        assert_eq!(cfg.slotframe_index(Asn(9)), 0);
        assert_eq!(cfg.slotframe_index(Asn(10)), 1);
    }

    #[test]
    fn next_occurrence_same_or_future_slot() {
        let cfg = SlotframeConfig::new(10, 2, 10_000).unwrap();
        assert_eq!(cfg.next_occurrence(Asn(12), 2), Asn(12));
        assert_eq!(cfg.next_occurrence(Asn(12), 5), Asn(15));
        assert_eq!(
            cfg.next_occurrence(Asn(12), 1),
            Asn(21),
            "wraps to next frame"
        );
        assert_eq!(cfg.next_occurrence(Asn(0), 0), Asn(0));
    }

    #[test]
    fn contains_cell_bounds() {
        let cfg = SlotframeConfig::new(10, 2, 10_000).unwrap();
        assert!(cfg.contains_cell(Cell::new(9, 1)));
        assert!(!cfg.contains_cell(Cell::new(10, 0)));
        assert!(!cfg.contains_cell(Cell::new(0, 2)));
    }

    #[test]
    fn seconds_conversions() {
        let cfg = SlotframeConfig::paper_default();
        assert!((cfg.slots_to_seconds(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Asn(7).to_string(), "ASN 7");
        assert_eq!(Cell::new(3, 1).to_string(), "(s3, ch1)");
        assert!(ConfigError::ZeroSlots.to_string().contains("slot"));
    }
}
