//! Protocols ICC0 and ICC1: the ICC consensus core over a peer-to-peer
//! gossip sub-layer — the one node every simulation, test and process
//! runs (ICC2's erasure-coded node aside).
//!
//! ICC1 is "designed to be integrated with a peer-to-peer gossip
//! sub-layer, which reduces the bottleneck created at the leader for
//! disseminating large blocks" (paper abstract). The consensus *logic*
//! is byte-for-byte the ICC0 core from `icc-core`; only dissemination
//! changes:
//!
//! * **small artifacts** (signature shares, notarizations,
//!   finalizations, beacon shares — a few dozen bytes each) are
//!   *pushed*: the party that produces one sends it once to every
//!   overlay neighbor, and a node that receives one for the first time
//!   sends it on only while it can still be news there — never on a
//!   complete overlay (one hop already reached everyone; the layer then
//!   is the paper's broadcast primitive), and not once this node holds
//!   what supersedes it (the aggregate a share was for, a first
//!   aggregate for the same block, the round's beacon). Nothing a
//!   neighbor can still need is withheld: each node passes on every
//!   share it had before the aggregate, and then the aggregate. The
//!   three rules and the liveness argument are in [`node`];
//! * **large artifacts** (block proposals) travel by *advert / request /
//!   deliver*: the holder announces the block hash and size to its
//!   neighbors; a node lacking the body requests it from one advertiser
//!   and, once it has it, advertises in turn. The leader therefore
//!   uploads the block `O(degree)` times instead of `n − 1` times, at
//!   the cost of multi-hop latency — exactly the trade-off the paper
//!   attributes to gossip networks (§1.1, Tendermint discussion);
//! * **what a replica missed** — after a restart, in a round that stays
//!   open, or on hearing of rounds far ahead — it *pulls*: it tells one
//!   neighbor what it holds and is sent what it lacks, or a certified
//!   catch-up package if it is far behind. The rules are in [`node`].
//!
//! **ICC0** is this node on a full mesh with every artifact pushed
//! inline ([`Recipe::icc0`]): with nothing advertised and nothing
//! relayed, each artifact goes once from its producer to the `n − 1`
//! other parties — the paper's broadcast primitive, with ICC0's
//! commits, round times and verification counts to the microsecond.
//!
//! [`overlay`] builds the peer graph; [`GossipNode`] is the node;
//! [`Recipe`] assembles it, [`Recipe::shipped`] as every replica runs it,
//! for one process ([`Recipe::node`]) or a simulated cluster.
//!
//! # Quickstart
//!
//! ```
//! use icc_core::cluster::ClusterBuilder;
//! use icc_gossip::Recipe;
//! use icc_types::SimDuration;
//!
//! let mut cluster = Recipe::shipped(4).cluster(ClusterBuilder::new(4).seed(1));
//! cluster.run_for(SimDuration::from_secs(2));
//! cluster.assert_safety();
//! assert!(cluster.min_committed_round() > 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod overlay;

pub use node::{aggregators_for, DisseminationMode, GossipConfig, GossipMessage, GossipNode, Have};
pub use overlay::Overlay;

use icc_core::cluster::{Cluster, ClusterBuilder};
use icc_core::consensus::ConsensusCore;
use std::sync::Arc;

/// How a gossip node is assembled: one overlay, shared by the cluster,
/// and one [`GossipConfig`]. Keys are not part of it: the
/// [`ClusterBuilder`] (or a replica process) deals them once for all.
///
/// # Example
///
/// ```
/// use icc_core::cluster::ClusterBuilder;
/// use icc_gossip::{GossipConfig, Overlay, Recipe};
/// use icc_types::SimDuration;
///
/// let recipe = Recipe::shipped(7)
///     .with_overlay(Overlay::random_regular(7, 4, 1))
///     .with_config(GossipConfig::inline_small_blocks());
/// let mut cluster = recipe.cluster(ClusterBuilder::new(7).seed(1));
/// cluster.run_for(SimDuration::from_secs(5));
/// assert!(cluster.min_committed_round() > 0);
/// cluster.assert_safety();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recipe {
    overlay: Arc<Overlay>,
    config: GossipConfig,
}

impl Recipe {
    /// What ships: [`Overlay::for_subnet`] (the same graph at every
    /// replica) and [`GossipConfig::default`].
    pub fn shipped(n: usize) -> Recipe {
        Recipe {
            overlay: Arc::new(Overlay::for_subnet(n, subnet_overlay_seed(n))),
            config: GossipConfig::default(),
        }
    }

    /// ICC0: a full mesh with every artifact pushed inline, nothing
    /// advertised or relayed — the paper's broadcast primitive.
    pub fn icc0(n: usize) -> Recipe {
        Recipe {
            overlay: Arc::new(Overlay::full_mesh(n)),
            config: GossipConfig {
                inline_threshold: usize::MAX,
                mode: DisseminationMode::Flood,
            },
        }
    }

    /// The scale-out configuration `claims E17` sweeps to n = 1000: the
    /// shipped overlay with [`GossipConfig::routed`] shares.
    ///
    /// # Example
    ///
    /// ```
    /// use icc_core::cluster::ClusterBuilder;
    /// use icc_gossip::Recipe;
    /// use icc_types::SimDuration;
    ///
    /// let mut cluster = Recipe::routed(7).cluster(ClusterBuilder::new(7).seed(1));
    /// cluster.run_for(SimDuration::from_secs(5));
    /// assert!(cluster.min_committed_round() > 0);
    /// cluster.assert_safety();
    /// ```
    pub fn routed(n: usize) -> Recipe {
        Recipe::shipped(n).with_config(GossipConfig::routed())
    }

    /// The same recipe on another graph.
    pub fn with_overlay(self, overlay: Overlay) -> Recipe {
        Recipe {
            overlay: Arc::new(overlay),
            ..self
        }
    }

    /// The same recipe with another config.
    pub fn with_config(self, config: GossipConfig) -> Recipe {
        Recipe { config, ..self }
    }

    /// The graph every node of this recipe runs on.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// One party's node around its consensus core. In routed mode most
    /// nodes never see `t + 1` beacon shares, so the core also
    /// broadcasts each combined beacon value.
    pub fn node(&self, core: ConsensusCore) -> GossipNode {
        let core = match self.config.mode {
            DisseminationMode::Routed => core.with_beacon_value_broadcast(),
            DisseminationMode::Flood => core,
        };
        GossipNode::new(core, Arc::clone(&self.overlay), self.config)
    }

    /// A simulated cluster of this recipe's nodes.
    pub fn cluster(self, builder: ClusterBuilder) -> Cluster<GossipNode> {
        assert_eq!(self.overlay.n(), builder.n_nodes(), "overlay size");
        builder.build_with(move |core| self.node(core))
    }
}

/// Builds an ICC0 cluster: [`Recipe::icc0`] over `builder`.
///
/// # Example
///
/// ```
/// use icc_core::cluster::ClusterBuilder;
/// use icc_gossip::icc0_cluster;
/// use icc_types::SimDuration;
///
/// let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(1));
/// cluster.run_for(SimDuration::from_secs(5));
/// assert!(cluster.min_committed_round() > 0);
/// cluster.assert_safety();
/// ```
pub fn icc0_cluster(builder: ClusterBuilder) -> Cluster<GossipNode> {
    Recipe::icc0(builder.n_nodes()).cluster(builder)
}

/// The overlay seed [`Recipe::shipped`] derives for a subnet of `n`.
pub fn subnet_overlay_seed(n: usize) -> u64 {
    0x1cc0 ^ n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repo benchmark (`benchmark/src/sut.rs`) still assembles its
    /// replicas by hand, as `gossip_config()` and `overlay(n)`. This
    /// pins that hand-built pair to [`Recipe::shipped`]: a failure
    /// means the shipped recipe moved, and `sut.rs` must follow it in a
    /// benchmark-only change.
    #[test]
    fn shipped_recipe_is_what_the_benchmark_builds_by_hand() {
        for n in [4, 40] {
            let by_hand = Recipe {
                overlay: Arc::new(Overlay::for_subnet(n, subnet_overlay_seed(n))),
                config: GossipConfig {
                    inline_threshold: 0,
                    mode: DisseminationMode::Flood,
                },
            };
            assert_eq!(Recipe::shipped(n), by_hand, "n = {n}");
        }
    }
}
