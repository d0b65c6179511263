//! APaS — the centralized adjustment baseline of §VII-B, reduced to the
//! packet count Fig. 12 plots beside HARP.
//!
//! APaS (RTAS'21, same authors) keeps the whole schedule at the gateway.
//! When a node's demand changes, the request travels hop-by-hop to the
//! root; the root computes new cells for the node *and its parent* and
//! sends both updates back down.

/// The per-adjustment packet cost of APaS for a node at `layer`: `l`
/// (request up) + `l` (update to the node) + `l − 1` (update to the
/// parent) = `3l − 1` management packets, the formula the paper derives.
/// Every hop is one packet on a lossless plane, so the count is exact.
///
/// # Examples
///
/// ```
/// use schedulers::apas_adjustment_packets;
///
/// assert_eq!(apas_adjustment_packets(1), 2);
/// assert_eq!(apas_adjustment_packets(5), 14);
/// ```
#[must_use]
pub fn apas_adjustment_packets(layer: u32) -> u64 {
    u64::from(3 * layer - 1)
}
