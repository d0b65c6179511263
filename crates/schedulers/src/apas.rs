//! APaS — the centralized adjustment baseline of §VII-B.
//!
//! APaS (RTAS'21, same authors) keeps the whole schedule at the gateway.
//! When a node's demand changes, the request travels hop-by-hop to the
//! root; the root computes new cells for the node *and its parent* and
//! sends both updates back down. For a node at layer `l` that costs
//! `l` (request up) + `l` (update to the node) + `l − 1` (update to the
//! parent) = `3l − 1` management packets — the formula the paper derives
//! and Fig. 12 plots. [`ApasNetwork`] reproduces the exchange over the
//! simulated management plane so both the packet count and the elapsed
//! time are measured rather than assumed.

use tsch_sim::{Asn, ControlPlane, Inbox, NodeId, SlotframeConfig, Tree};

/// The analytic per-adjustment packet cost of APaS for a node at `layer`.
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

/// A hop-by-hop APaS management message.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ApasMessage {
    /// A demand-change request being relayed toward the root.
    Request {
        /// The node whose demand changed.
        origin: NodeId,
    },
    /// A schedule update being relayed toward `target`.
    Update {
        /// The node that must install the new cells.
        target: NodeId,
    },
}

/// Result of one APaS adjustment round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApasReport {
    /// Management packets exchanged (should equal `3·layer − 1`).
    pub packets: u64,
    /// Slots from the request until the last update arrived.
    pub elapsed_slots: u64,
}

impl ApasReport {
    /// Elapsed time in whole slotframes, rounded up.
    #[must_use]
    pub fn slotframes(&self, config: SlotframeConfig) -> u64 {
        self.elapsed_slots.div_ceil(u64::from(config.slots))
    }
}

/// A centralized APaS deployment over the simulated management plane.
#[derive(Debug)]
pub struct ApasNetwork {
    tree: Tree,
    plane: ControlPlane<ApasMessage>,
    now: Asn,
}

impl ApasNetwork {
    /// Builds the deployment.
    #[must_use]
    pub fn new(tree: Tree, config: SlotframeConfig) -> Self {
        let plane = ControlPlane::reliable(&tree, config);
        Self {
            tree,
            plane,
            now: Asn::ZERO,
        }
    }

    /// The current clock.
    #[must_use]
    pub fn now(&self) -> Asn {
        self.now
    }

    /// Executes one adjustment for a demand change at `node`, relaying the
    /// request to the root and the two updates back down, and returns the
    /// measured cost.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the gateway (the root adjusts itself for free).
    pub fn adjust(&mut self, at: Asn, node: NodeId) -> ApasReport {
        assert_ne!(
            node,
            self.tree.root(),
            "the gateway has no uplink to adjust"
        );
        self.now = self.now.max(at);
        let start = self.now;
        let sent_before = self.plane.stats().attempts;

        let parent = self.tree.parent(node).expect("non-root node");
        let mut pending_updates = 0u32;
        // The request leaves `node` toward its parent.
        self.plane
            .send(
                &self.tree,
                self.now,
                node,
                parent,
                ApasMessage::Request { origin: node },
            )
            .expect("parent is a neighbour");

        let mut last_delivery = self.now;
        let mut inbox = Inbox::new();
        while let Some(next) = self.plane.next_event() {
            self.now = next;
            self.plane
                .poll_into(&self.tree, next, &mut inbox)
                .expect("reliable transport never exhausts retries");
            for d in inbox.drain() {
                last_delivery = last_delivery.max(d.at);
                match d.payload {
                    ApasMessage::Request { origin } => {
                        if d.to == self.tree.root() {
                            // Root recomputes and issues the two updates.
                            for target in [origin, self.tree.parent(origin).expect("non-root")] {
                                if target == self.tree.root() {
                                    continue; // the root updates itself locally
                                }
                                pending_updates += 1;
                                let first_hop = self.next_hop_down(self.tree.root(), target);
                                self.plane
                                    .send(
                                        &self.tree,
                                        d.at,
                                        self.tree.root(),
                                        first_hop,
                                        ApasMessage::Update { target },
                                    )
                                    .expect("first hop is a neighbour");
                            }
                        } else {
                            let up = self.tree.parent(d.to).expect("relay is not the root");
                            self.plane
                                .send(&self.tree, d.at, d.to, up, ApasMessage::Request { origin })
                                .expect("parent is a neighbour");
                        }
                    }
                    ApasMessage::Update { target } => {
                        if d.to == target {
                            pending_updates -= 1;
                        } else {
                            let hop = self.next_hop_down(d.to, target);
                            self.plane
                                .send(&self.tree, d.at, d.to, hop, ApasMessage::Update { target })
                                .expect("next hop is a neighbour");
                        }
                    }
                }
            }
            if pending_updates == 0 && self.plane.in_flight() == 0 {
                break;
            }
        }

        ApasReport {
            packets: self.plane.stats().attempts - sent_before,
            elapsed_slots: last_delivery.since(start),
        }
    }

    /// The child of `from` on the path down to `target`.
    fn next_hop_down(&self, from: NodeId, target: NodeId) -> NodeId {
        let mut cur = target;
        loop {
            let parent = self.tree.parent(cur).expect("target below from");
            if parent == from {
                return cur;
            }
            cur = parent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::TopologyConfig;

    #[test]
    fn packet_count_matches_formula_on_chain() {
        // 0 ← 1 ← 2 ← 3: adjusting node 3 (layer 3) costs 3+3+2 = 8 = 3l-1.
        let tree = Tree::from_parents(&[(1, 0), (2, 1), (3, 2)]);
        let cfg = SlotframeConfig::paper_default();
        let mut net = ApasNetwork::new(tree.clone(), cfg);
        for node in [1u32, 2, 3] {
            let mut fresh = ApasNetwork::new(tree.clone(), cfg);
            let layer = tree.depth(NodeId(node));
            let report = fresh.adjust(Asn(0), NodeId(node));
            assert_eq!(
                report.packets,
                apas_adjustment_packets(layer),
                "node {node} at layer {layer}"
            );
        }
        let _ = net.adjust(Asn(0), NodeId(3));
    }

    #[test]
    fn deep_nodes_cost_proportionally_more() {
        let tree = TopologyConfig::paper_81_node().generate(0);
        let cfg = SlotframeConfig::paper_default();
        let mut last = 0;
        for layer in 1..=10 {
            let node = tree.nodes_at_depth(layer)[0];
            let mut net = ApasNetwork::new(tree.clone(), cfg);
            let report = net.adjust(Asn(0), node);
            assert_eq!(report.packets, apas_adjustment_packets(layer));
            assert!(report.packets > last);
            last = report.packets;
        }
    }

    #[test]
    fn elapsed_time_grows_with_depth() {
        let tree = TopologyConfig::paper_81_node().generate(1);
        let cfg = SlotframeConfig::paper_default();
        let shallow = {
            let node = tree.nodes_at_depth(1)[0];
            ApasNetwork::new(tree.clone(), cfg).adjust(Asn(0), node)
        };
        let deep = {
            let node = tree.nodes_at_depth(10)[0];
            ApasNetwork::new(tree.clone(), cfg).adjust(Asn(0), node)
        };
        assert!(deep.elapsed_slots > shallow.elapsed_slots);
        assert!(deep.slotframes(cfg) >= shallow.slotframes(cfg));
    }

    #[test]
    #[should_panic(expected = "gateway has no uplink")]
    fn adjusting_the_gateway_panics() {
        let tree = Tree::from_parents(&[(1, 0)]);
        ApasNetwork::new(tree, SlotframeConfig::paper_default()).adjust(Asn(0), NodeId(0));
    }
}
