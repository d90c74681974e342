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
//!   attributes to gossip networks (§1.1, Tendermint discussion).
//!
//! **ICC0** is this node on a full mesh with every artifact pushed
//! inline ([`icc0_cluster`]): with nothing advertised and nothing
//! relayed, each artifact goes once from its producer to the `n − 1`
//! other parties — the paper's broadcast primitive, with ICC0's
//! commits, round times and verification counts to the microsecond.
//!
//! [`overlay`] builds the peer graph; [`GossipNode`] is the node;
//! [`icc0_cluster`], [`gossip_cluster`] and [`routed_gossip_cluster`]
//! wire a simulated cluster.
//!
//! # Quickstart
//!
//! ```
//! use icc_core::cluster::ClusterBuilder;
//! use icc_gossip::icc0_cluster;
//! use icc_types::SimDuration;
//!
//! let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(1));
//! cluster.run_for(SimDuration::from_secs(2));
//! cluster.assert_safety();
//! assert!(cluster.min_committed_round() > 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod overlay;

pub use node::{aggregators_for, DisseminationMode, GossipConfig, GossipMessage, GossipNode};
pub use overlay::Overlay;

use icc_core::cluster::{Cluster, ClusterBuilder};
use std::sync::Arc;

/// Builds an ICC1 cluster: the given consensus configuration running
/// over a gossip overlay.
///
/// # Example
///
/// ```
/// use icc_core::cluster::ClusterBuilder;
/// use icc_gossip::{gossip_cluster, GossipConfig, Overlay};
/// use icc_types::SimDuration;
///
/// let overlay = Overlay::random_regular(7, 4, 1);
/// let mut cluster = gossip_cluster(
///     ClusterBuilder::new(7).seed(1),
///     overlay,
///     GossipConfig::default(),
/// );
/// cluster.run_for(SimDuration::from_secs(5));
/// assert!(cluster.min_committed_round() > 0);
/// cluster.assert_safety();
/// ```
pub fn gossip_cluster(
    builder: ClusterBuilder,
    overlay: Overlay,
    config: GossipConfig,
) -> Cluster<GossipNode> {
    let overlay = Arc::new(overlay);
    builder.build_with(move |core| GossipNode::new(core, Arc::clone(&overlay), config))
}

/// Builds an ICC0 cluster: the gossip node on a full mesh with every
/// artifact pushed inline, so nothing is advertised and — the overlay
/// being complete — nothing relayed. Each artifact goes once from its
/// producer to every other party: the paper's broadcast primitive.
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
    let overlay = Overlay::full_mesh(builder.n_nodes());
    let config = GossipConfig {
        inline_threshold: usize::MAX,
        ..GossipConfig::default()
    };
    gossip_cluster(builder, overlay, config)
}

/// The overlay seed [`routed_gossip_cluster`] derives for a subnet of
/// `n` — public so experiment binaries can rebuild the identical graph
/// for topology reporting (degree, diameter).
pub fn subnet_overlay_seed(n: usize) -> u64 {
    0x1cc0 ^ n as u64
}

/// Builds the scale-out ICC1 cluster: the [`Overlay::for_subnet`]
/// topology with aggregator-routed share dissemination
/// ([`DisseminationMode::Routed`]) and beacon-value broadcast, so
/// per-node traffic stays ~flat as `n` grows. This is the
/// configuration the n = 1000 sweep (`fig_scale`) runs.
///
/// # Example
///
/// ```
/// use icc_core::cluster::ClusterBuilder;
/// use icc_gossip::routed_gossip_cluster;
/// use icc_types::SimDuration;
///
/// let mut cluster = routed_gossip_cluster(ClusterBuilder::new(7).seed(1));
/// cluster.run_for(SimDuration::from_secs(5));
/// assert!(cluster.min_committed_round() > 0);
/// cluster.assert_safety();
/// ```
pub fn routed_gossip_cluster(builder: ClusterBuilder) -> Cluster<GossipNode> {
    let n = builder.n_nodes();
    let overlay = Arc::new(Overlay::for_subnet(n, subnet_overlay_seed(n)));
    let config = GossipConfig::routed();
    builder
        .with_beacon_value_broadcast()
        .build_with(move |core| GossipNode::new(core, Arc::clone(&overlay), config))
}
