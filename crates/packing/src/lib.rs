//! 2-D rectangle packing substrate for the HARP reproduction.
//!
//! The HARP framework (ICDCS 2022) reduces its three core geometric problems
//! to rectangle packing:
//!
//! * **Resource component composition** (Alg. 1) → strip packing, solved here
//!   by the best-fit skyline heuristic: [`pack_strip`].
//! * **Feasibility test** (Problem 2) → rectangle packing into a fixed
//!   container: [`pack_into`] / [`fits_into`].
//! * **Cost-aware partition adjustment** (Alg. 2) → packing into the *idle*
//!   areas of a partly occupied container: [`FreeSpace`].
//!
//! Rectangles are never rotated — the axes represent time slots and channels,
//! which are semantically distinct in a TSCH slotframe.
//!
//! # Examples
//!
//! Compose three per-subtree resource components into a strip limited to 16
//! channels, as a HARP node would when building its resource interface:
//!
//! ```
//! use packing::{pack_strip, Size};
//!
//! # fn main() -> Result<(), packing::PackError> {
//! // Components are (channels, slots) here: strip width = channel budget.
//! let components = [Size::new(1, 5), Size::new(2, 3), Size::new(1, 2)];
//! let packing = pack_strip(&components, 16)?;
//! assert_eq!(packing.height(), 5); // all fit side by side in 5 slots
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod maxrects;
mod rect;
mod rpp;
pub mod shelf;
mod skyline;

pub use exact::{exact_strip_height, ExactResult};
pub use maxrects::FreeSpace;
pub use rect::{all_disjoint, Point, Rect, Size};
pub use rpp::{fits_into, pack_into};
pub use skyline::{pack_strip, Skyline, StripPacking, StripWorkspace};

use core::fmt;

/// Process-wide activity counters of the packing substrate.
///
/// The packing algorithms are pure functions with no handle to thread an
/// [`harp_obs::Obs`] through, so the library keeps always-on global totals
/// instead: plain relaxed atomics whose cost is one uncontended fetch-add
/// per *algorithm invocation* (never per inner-loop step). Fold them into a
/// snapshot with [`harp_obs::MetricsSnapshot::add_counters`] via
/// [`totals`](obs::totals).
pub mod obs {
    use harp_obs::StaticCounter;

    /// Strip packings computed ([`pack_strip`](crate::pack_strip) — HARP's
    /// component composition, Alg. 1).
    pub(crate) static STRIP_PACKS: StaticCounter = StaticCounter::new();
    /// Fixed-container packings attempted ([`pack_into`](crate::pack_into)).
    pub(crate) static CONTAINER_PACKS: StaticCounter = StaticCounter::new();
    /// Feasibility tests run ([`fits_into`](crate::fits_into) — Problem 2).
    pub(crate) static FEASIBILITY_TESTS: StaticCounter = StaticCounter::new();
    /// Idle-area batch placements
    /// ([`FreeSpace::place_all`](crate::FreeSpace::place_all) — Alg. 2's
    /// cost-aware adjustment).
    pub(crate) static FREESPACE_PLACEMENTS: StaticCounter = StaticCounter::new();

    /// Current totals, in the shape
    /// [`MetricsSnapshot::add_counters`](harp_obs::MetricsSnapshot::add_counters)
    /// accepts. Totals are process-wide and monotonic (tests and parallel
    /// sweeps sharing the process all contribute).
    #[must_use]
    pub fn totals() -> [(&'static str, u64); 4] {
        [
            ("packing.strip_packs", STRIP_PACKS.get()),
            ("packing.container_packs", CONTAINER_PACKS.get()),
            ("packing.feasibility_tests", FEASIBILITY_TESTS.get()),
            ("packing.freespace_placements", FREESPACE_PLACEMENTS.get()),
        ]
    }
}

/// Errors reported by the packing algorithms.
///
/// All of these indicate invalid *input* — a heuristic failing to find a
/// packing is expressed in the success type (`None` placements), not as an
/// error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PackError {
    /// The strip or container has a zero dimension.
    ZeroWidthStrip,
    /// An item has a zero width or height.
    EmptyItem {
        /// Index of the offending item in the input slice.
        index: usize,
    },
    /// An item is wider than the strip it must be packed into.
    ItemTooWide {
        /// Index of the offending item in the input slice.
        index: usize,
        /// The item's width.
        item_width: u32,
        /// The strip width it exceeds.
        strip_width: u32,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::ZeroWidthStrip => write!(f, "strip or container has a zero dimension"),
            PackError::EmptyItem { index } => {
                write!(f, "item {index} has a zero width or height")
            }
            PackError::ItemTooWide {
                index,
                item_width,
                strip_width,
            } => write!(
                f,
                "item {index} of width {item_width} exceeds strip width {strip_width}"
            ),
        }
    }
}

impl std::error::Error for PackError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_and_specific() {
        let e = PackError::ItemTooWide {
            index: 3,
            item_width: 9,
            strip_width: 5,
        };
        assert_eq!(e.to_string(), "item 3 of width 9 exceeds strip width 5");
        assert!(PackError::ZeroWidthStrip.to_string().starts_with("strip"));
    }

    #[test]
    fn error_is_send_sync_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<PackError>();
    }

    #[test]
    fn public_types_are_debug_clone() {
        fn assert_traits<T: std::fmt::Debug + Clone>() {}
        assert_traits::<Size>();
        assert_traits::<Point>();
        assert_traits::<Rect>();
        assert_traits::<PackError>();
        assert_traits::<StripPacking>();
        assert_traits::<FreeSpace>();
    }
}
