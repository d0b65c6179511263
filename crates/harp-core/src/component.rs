//! Resource components and resource interfaces (Definitions 1 and 2 of the
//! paper).
//!
//! A *resource component* `C_{i,l} = [n^s, n^c]` abstracts the cells required
//! by all links at layer `l` inside subtree `G_Vi` as a rectangle: `n^s`
//! consecutive time slots × `n^c` channels. A *resource interface* `I_i` is
//! the collection of a subtree's components, one per layer from `l(V_i)` to
//! `l(G_Vi)`. Interfaces are what HARP nodes exchange bottom-up during
//! static partition allocation — a compact, constant-size-per-layer summary
//! of an arbitrarily large subtree's demand.

use core::fmt;
use packing::Size;
use std::collections::BTreeMap;

/// A rectangular resource requirement: `slots × channels` cells
/// (`C_{i,l} = [n^s_{i,l}, n^c_{i,l}]` in the paper).
///
/// # Examples
///
/// ```
/// use harp_core::ResourceComponent;
///
/// let c = ResourceComponent::new(5, 2);
/// assert_eq!(c.cell_count(), 10);
/// assert!(!c.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ResourceComponent {
    /// Number of time slots (`n^s`).
    pub slots: u32,
    /// Number of channels (`n^c`).
    pub channels: u32,
}

impl ResourceComponent {
    /// Creates a component of `slots × channels`.
    #[must_use]
    pub const fn new(slots: u32, channels: u32) -> Self {
        Self { slots, channels }
    }

    /// A single-channel row of `slots` cells — the shape of every direct
    /// (Case 1) component `[Σ r(e), 1]`.
    #[must_use]
    pub const fn row(slots: u32) -> Self {
        Self { slots, channels: 1 }
    }

    /// Total cells covered.
    #[must_use]
    pub const fn cell_count(&self) -> u64 {
        self.slots as u64 * self.channels as u64
    }

    /// Returns `true` if the component requires no cells.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.slots == 0 || self.channels == 0
    }

    /// The component as a packing [`Size`] in *slot-major* orientation:
    /// width = slots, height = channels. This is the orientation used for
    /// partition rectangles in the slotframe (x = slot, y = channel).
    #[must_use]
    pub const fn as_size(&self) -> Size {
        Size::new(self.slots, self.channels)
    }

    /// The component as a packing [`Size`] in *channel-major* orientation:
    /// width = channels, height = slots. This is the orientation of the
    /// first strip-packing pass of Alg. 1 (fixed channel budget, minimise
    /// slots).
    #[must_use]
    pub const fn as_size_channel_major(&self) -> Size {
        Size::new(self.channels, self.slots)
    }

    /// Returns `true` if this component fits inside `other` without
    /// rotation.
    #[must_use]
    pub const fn fits_in(&self, other: ResourceComponent) -> bool {
        self.slots <= other.slots && self.channels <= other.channels
    }
}

impl fmt::Display for ResourceComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.slots, self.channels)
    }
}

impl From<ResourceComponent> for Size {
    fn from(c: ResourceComponent) -> Size {
        c.as_size()
    }
}

/// A subtree's per-layer resource components (`I_i` in the paper).
///
/// # Examples
///
/// ```
/// use harp_core::{ResourceComponent, ResourceInterface};
///
/// let mut iface = ResourceInterface::new();
/// iface.set(2, ResourceComponent::row(7));
/// iface.set(3, ResourceComponent::new(4, 2));
/// assert_eq!(iface.component(2), Some(ResourceComponent::row(7)));
/// assert_eq!(iface.layers().collect::<Vec<_>>(), vec![2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceInterface {
    components: BTreeMap<u32, ResourceComponent>,
}

impl ResourceInterface {
    /// Creates an empty interface.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the component at `layer` and returns the one it displaced, if
    /// any. Empty components are stored too — they record that the layer
    /// exists with zero demand.
    pub fn set(&mut self, layer: u32, component: ResourceComponent) -> Option<ResourceComponent> {
        self.components.insert(layer, component)
    }

    /// The component at `layer`, if present.
    #[must_use]
    pub fn component(&self, layer: u32) -> Option<ResourceComponent> {
        self.components.get(&layer).copied()
    }

    /// Iterates over layers in increasing order.
    pub fn layers(&self) -> impl Iterator<Item = u32> + '_ {
        self.components.keys().copied()
    }

    /// Iterates over `(layer, component)` pairs in layer order (from
    /// either end).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u32, ResourceComponent)> + '_ {
        self.components.iter().map(|(&l, &c)| (l, c))
    }

    /// Number of layers covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Returns `true` if no layer is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The largest layer, if any (`l(G_Vi)`).
    #[cfg(test)]
    pub(crate) fn max_layer(&self) -> Option<u32> {
        self.components.keys().next_back().copied()
    }
}

/// Per-layer components, however they are kept: a [`ResourceInterface`],
/// or a run of `(layer, component)` in layer order as a network's node
/// tables keep interfaces.
pub(crate) trait LayerComponents {
    /// The component at `layer`, if present.
    fn component(&self, layer: u32) -> Option<ResourceComponent>;
}

impl LayerComponents for &ResourceInterface {
    fn component(&self, layer: u32) -> Option<ResourceComponent> {
        ResourceInterface::component(self, layer)
    }
}

impl LayerComponents for &[(u32, ResourceComponent)] {
    fn component(&self, layer: u32) -> Option<ResourceComponent> {
        self.iter().find(|&&(l, _)| l == layer).map(|&(_, c)| c)
    }
}

impl FromIterator<(u32, ResourceComponent)> for ResourceInterface {
    fn from_iter<I: IntoIterator<Item = (u32, ResourceComponent)>>(iter: I) -> Self {
        Self {
            components: iter.into_iter().collect(),
        }
    }
}

impl Extend<(u32, ResourceComponent)> for ResourceInterface {
    fn extend<I: IntoIterator<Item = (u32, ResourceComponent)>>(&mut self, iter: I) {
        self.components.extend(iter);
    }
}

impl fmt::Display for ResourceInterface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (l, c)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "l{l}:{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_shapes() {
        let c = ResourceComponent::new(3, 2);
        assert_eq!(c.cell_count(), 6);
        assert_eq!(c.as_size(), Size::new(3, 2));
        assert_eq!(c.as_size_channel_major(), Size::new(2, 3));
        assert_eq!(ResourceComponent::row(5), ResourceComponent::new(5, 1));
    }

    #[test]
    fn component_emptiness() {
        assert!(ResourceComponent::new(0, 1).is_empty());
        assert!(ResourceComponent::new(1, 0).is_empty());
        assert!(!ResourceComponent::new(1, 1).is_empty());
        assert!(ResourceComponent::default().is_empty());
    }

    #[test]
    fn component_fits_in() {
        let small = ResourceComponent::new(2, 1);
        let big = ResourceComponent::new(3, 2);
        assert!(small.fits_in(big));
        assert!(!big.fits_in(small));
        assert!(big.fits_in(big));
    }

    #[test]
    fn component_display() {
        assert_eq!(ResourceComponent::new(7, 2).to_string(), "[7, 2]");
    }

    #[test]
    fn interface_layer_bounds() {
        let mut iface = ResourceInterface::new();
        assert!(iface.is_empty());
        iface.set(3, ResourceComponent::row(1));
        iface.set(1, ResourceComponent::row(2));
        iface.set(2, ResourceComponent::row(3));
        assert_eq!(iface.max_layer(), Some(3));
        assert_eq!(iface.len(), 3);
        assert_eq!(iface.layers().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn interface_replaces_on_set() {
        let mut iface = ResourceInterface::new();
        iface.set(2, ResourceComponent::row(1));
        iface.set(2, ResourceComponent::row(9));
        assert_eq!(iface.component(2), Some(ResourceComponent::row(9)));
        assert_eq!(iface.len(), 1);
    }

    #[test]
    fn interface_display() {
        let iface: ResourceInterface = [
            (1, ResourceComponent::row(2)),
            (2, ResourceComponent::new(1, 1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(iface.to_string(), "{l1:[2, 1], l2:[1, 1]}");
    }

    #[test]
    fn interface_extend() {
        let mut iface = ResourceInterface::new();
        iface.extend([(5, ResourceComponent::row(1))]);
        assert_eq!(iface.component(5), Some(ResourceComponent::row(1)));
    }
}
