//! 6P (6top protocol, RFC 8480) transaction costs — the signalling model
//! used by MSF-style distributed schedulers for comparison context.
//!
//! When an MSF node needs more cells toward its parent it runs one 6P ADD
//! transaction: a request listing candidate cells and a response picking
//! some — two link-local packets regardless of network depth. That makes
//! MSF's *adjustment* overhead flat and minimal; the price is paid
//! elsewhere, in schedule collisions (Fig. 11), because nothing coordinates
//! the chosen cells across the network. HARP's overhead sits between the
//! two extremes: more than a 6P pair, far less than APaS's centralized
//! round trip — while keeping the schedule provably collision-free.

/// Packets of one two-step 6P transaction (ADD/DELETE/RELOCATE): request +
/// response between a node and its parent.
///
/// # Examples
///
/// ```
/// use schedulers::sixtop_transaction_packets;
///
/// assert_eq!(sixtop_transaction_packets(), 2);
/// ```
#[must_use]
pub fn sixtop_transaction_packets() -> u64 {
    2
}
