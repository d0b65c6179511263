//! The one bounded ring every recorder keeps its recent history in.
//!
//! Spans ([`SpanRing`](crate::SpanRing)), the simulator's trace events and
//! the [`FlightRecorder`](crate::FlightRecorder)'s events all land in a
//! [`Ring`]: it keeps the most recent `capacity` items, evicts the oldest
//! when full, and counts every item it ever kept, so a reader can tell a
//! tail from the whole history. A ring of capacity 0 keeps and counts
//! nothing: that is what an unobserved component records into.

use std::collections::VecDeque;

/// The most storage a ring reserves at once; a larger ring grows past it
/// on demand.
const MAX_RESERVATION: usize = 4096;

/// A bounded ring of the most recent `capacity` items.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    total_recorded: u64,
}

impl<T> Ring<T> {
    /// A ring keeping the most recent `capacity` items. Storage is reserved
    /// by the first [`Ring::push`], so a ring that never records costs
    /// nothing.
    #[must_use]
    pub const fn new(capacity: usize) -> Self {
        Self {
            items: VecDeque::new(),
            capacity,
            total_recorded: 0,
        }
    }

    /// Appends `item`, evicting the oldest when the ring is full, and hands
    /// back what left the ring: the evicted item, or — at capacity 0, where
    /// nothing is kept or counted — `item` itself.
    #[inline]
    pub fn push(&mut self, item: T) -> Option<T> {
        if self.capacity == 0 {
            return Some(item);
        }
        if self.items.capacity() == 0 {
            self.items.reserve_exact(self.capacity.min(MAX_RESERVATION));
        }
        let evicted = if self.items.len() == self.capacity {
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(item);
        self.total_recorded += 1;
        evicted
    }

    /// The most recent item, for the caller to fill in place.
    pub fn newest_mut(&mut self) -> Option<&mut T> {
        self.items.back_mut()
    }

    /// The retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// The most recent `limit` retained items, oldest first — what a dump
    /// with a render limit contains.
    pub fn tail(&self, limit: usize) -> impl Iterator<Item = &T> {
        self.items
            .iter()
            .skip(self.items.len().saturating_sub(limit))
    }

    /// Number of retained items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items ever kept, evicted ones included.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Items kept once but evicted since.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.total_recorded - self.items.len() as u64
    }
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_is_reserved_once_by_the_first_push() {
        let mut r = Ring::new(64);
        assert_eq!(r.items.capacity(), 0, "an idle ring holds no storage");
        r.push(0u64);
        let reserved = r.items.capacity();
        assert!(reserved >= 64);
        for i in 1..200 {
            r.push(i);
        }
        assert_eq!(r.items.capacity(), reserved, "a full ring never regrows");
        assert_eq!(r.len(), 64);
    }
}
