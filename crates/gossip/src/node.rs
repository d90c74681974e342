//! The gossip dissemination node wrapping a [`ConsensusCore`].
//!
//! See the crate docs for the dissemination rules. A node's *outgoing*
//! consensus artifacts are intercepted here: small ones become
//! [`GossipMessage::Push`]es, block proposals become
//! [`GossipMessage::Advert`]s served on demand. Incoming artifacts are
//! fed to the core exactly as ICC0 would deliver them — the consensus
//! logic cannot tell the difference.
//!
//! # What a push is sent on to
//!
//! Every first-seen push is ingested. It is *relayed* — sent on to
//! every neighbor but the one it came from — only while it can still be
//! news there, in either [`DisseminationMode`]:
//!
//! * **(a) never on a complete overlay.** Relays exist to reach nodes
//!   the sender is not adjacent to. When every node is adjacent to
//!   every other ([`Overlay::is_complete`], decided once per node from
//!   the graph) this layer *is* the paper's broadcast primitive, and a
//!   Byzantine sender that addresses only some parties is covered the
//!   way ICC0 covers it, by what the core does anyway: it echoes the
//!   proposals it supports and broadcasts every notarization and
//!   finalization it obtains (Fig. 1, Fig. 2).
//! * **(b) not when superseded at this node**
//!   ([`Pool::supersedes`](icc_core::pool::Pool::supersedes)): a
//!   notarization / finalization share, or a second (byte-different)
//!   aggregate, for a block whose aggregate of that kind the pool
//!   holds; a beacon share or combined value for a round whose beacon
//!   is known.
//! * **(c) the core's own output goes once to every neighbor**, except
//!   when this node relayed the identical bytes to every neighbor on
//!   arrival — the seen set remembers "sent to all" per id.
//!
//! Client commands the core sends to a round's leader
//! ([`ConsensusMessage::Commands`], in `Step::sends`) go to that node
//! alone and end there: never relayed, advertised or put in the seen set.
//!
//! *Liveness.* A node relays every share that reaches it before it
//! holds the aggregate (the beacon), and each way of coming to hold
//! one sends it on: received as a push, it was relayed on arrival;
//! combined locally, the core broadcasts it in the same step; carried
//! by a child block's proposal, that proposal is advertised to every
//! neighbor and the core broadcasts the aggregate on finishing the
//! round. So each neighbor obtains from this node alone either the
//! aggregate or every share this node ever had towards it — what is
//! withheld is only what that neighbor can no longer need. (A replica
//! that learnt an aggregate from a catch-up package or its own WAL was
//! behind the subnet, which has it already.)
//!
//! # What a replica that missed something does
//!
//! It pulls: it sends one overlay neighbor that is up — the next in
//! turn, pull after pull — a [`Have`], the summary of what it holds: its
//! catch-up horizon, its beacon tip, and the blocks of its last
//! [`CATCH_UP_THRESHOLD`] open rounds with the certificates of each. It
//! pulls on restart (its pool is empty), after applying a catch-up
//! package and after refusing one; and, unless it pulled less than a
//! round trip (2 Δbnd) ago, when a message names a round
//! [`CATCH_UP_THRESHOLD`] or more above its horizon, and when its round
//! has stayed open a whole [pull period](GossipNode::pull_period) on the
//! layer's one timer — again after 2, 4 and 8 periods, then every 8.
//!
//! The peer answers with what the summary lacks of its open rounds from
//! the lowest the summary describes, lowest first: beacon values, the
//! bodies of notarized blocks (of valid ones while a round has none),
//! their notarizations and finalizations — never shares. A requester
//! [`CATCH_UP_THRESHOLD`] or more rounds behind the peer's committed
//! round gets a certified [`CatchUpPackage`] instead, verified before
//! anything is installed. Answers to one peer are capped at
//! [`PULL_ANSWER_BYTES`] per round the answering node is in.
//!
//! A body is requested from its first advertiser, and from a later one
//! once a round trip has passed without it. An advertiser that never
//! serves it (crashed, purged or Byzantine) holds the round open until
//! such an advert or the stuck-round pull: two pull periods and a round
//! trip, a period more if that pull goes to the silent peer.
//!
//! # What is forgotten
//!
//! The layer owns no bodies — requests and pulls are served from the
//! core's pool — and its dedup memory (push ids seen, block ids
//! advertised and requested) is keyed by round and dropped at the pool's
//! [`floor`](icc_core::pool::Pool::floor), the one retention bound of
//! the replica. A push, advert or delivery for a round below the floor
//! is dropped at the door — not ingested, relayed or requested — and
//! counted in `stale_dropped`: whatever it could decide is finalized
//! here, and whoever still needs it is behind by more than the
//! catch-up threshold and is served a package instead. Per peer, the
//! layer keeps only the bytes it answered that peer with in the current
//! round.

// Nothing a peer sends may panic the node.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

use bytes::Bytes;
use icc_core::cluster::CoreAccess;
use icc_core::consensus::{ConsensusCore, Step, CATCH_UP_THRESHOLD};
use icc_core::events::NodeEvent;
use icc_core::pool::Pool;
use icc_core::recovery::{CatchUpError, CatchUpPackage};
use icc_crypto::{hash_parts, Hash256};
use icc_sim::{Context, Node, WireMessage};
use icc_telemetry::{SpanEvent, SpanKind};
use icc_types::codec::{encode_to_vec, CodecError, Decode, Encode, Reader};
use icc_types::messages::{Beacon, BlockProposal, ConsensusMessage};
use icc_types::{Command, HashedBlock, NodeIndex, Round, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use crate::overlay::Overlay;

/// How small artifacts travel across the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisseminationMode {
    /// Every push floods hop-by-hop under the relay rules of the
    /// [module docs](self): not at all on a complete overlay (one hop
    /// reaches everyone: `n − 1` sends per artifact, as ICC0); on a
    /// bounded-degree overlay each share crosses a node once *until
    /// that node holds the aggregate*, and one aggregate per block and
    /// kind follows — at most `O(n · degree)` per node and share round,
    /// less the further the aggregate overtakes the shares. Right for
    /// small subnets.
    Flood,
    /// Signature and beacon shares are *unicast* to a small rotating
    /// per-round aggregator set instead of flooding; only the compact
    /// round certificates (notarization / finalization aggregates,
    /// combined beacon values) flood, one per block and kind past each
    /// node. Per-node traffic goes ~flat in
    /// `n`, which is what makes n = 1000 feasible. Requires cores built
    /// with beacon-value broadcast so non-aggregators still learn the
    /// beacon ([`Recipe::node`](crate::Recipe::node) turns it on).
    Routed,
}

/// Routed mode's aggregator-set size per round (liveness degrades
/// gracefully: a stalled round widens the set exponentially from it).
const ROUTED_AGGREGATORS: usize = 3;

/// Routed mode's liveness watchdog period: if the committed round has
/// not advanced between two ticks, recent own shares are re-sent to an
/// exponentially widened aggregator set.
const STALL_TIMEOUT: SimDuration = SimDuration::from_millis(1_000);

/// Cap on the blocks a [`Have`] lists: four for each round a requester
/// can still be served without a package.
pub const MAX_HELD: usize = 4 * CATCH_UP_THRESHOLD as usize;

/// Bytes a node sends in answers to one peer's pulls while it is in one
/// round: [`CATCH_UP_THRESHOLD`] rounds of 64 KiB blocks. Checked before
/// each message, so one larger body still goes.
pub const PULL_ANSWER_BYTES: usize = CATCH_UP_THRESHOLD as usize * (64 << 10);

/// [`Have::held`] flag: the block's notarization is held.
const NOTARIZED: u8 = 1;
/// [`Have::held`] flag: the block's finalization is held.
const FINALIZED: u8 = 2;

/// Gossip sub-layer tuning. [`Default`] is the config that ships;
/// the named variants below are experiments' alternatives to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Artifacts whose wire size is at most this are flooded inline;
    /// larger ones go advert/request.
    pub inline_threshold: usize,
    /// How shares travel: [`DisseminationMode::Flood`] (default) or
    /// [`DisseminationMode::Routed`].
    pub mode: DisseminationMode,
}

impl Default for GossipConfig {
    /// The shipped config: shares flood, and `inline_threshold: 0`
    /// sends every proposal through the advert/request path.
    fn default() -> Self {
        GossipConfig {
            inline_threshold: 0,
            mode: DisseminationMode::Flood,
        }
    }
}

impl GossipConfig {
    /// Flooded shares with every artifact up to 4 KiB pushed inline, so
    /// a small block skips the advert/request round trip.
    pub fn inline_small_blocks() -> Self {
        GossipConfig {
            inline_threshold: 4 << 10,
            mode: DisseminationMode::Flood,
        }
    }

    /// Aggregator-routed share dissemination (3 aggregators per round)
    /// with 4 KiB inline — the scale-out mode.
    pub fn routed() -> Self {
        GossipConfig {
            inline_threshold: 4 << 10,
            mode: DisseminationMode::Routed,
        }
    }
}

/// The rotating per-round aggregator set: `k` distinct node indices
/// drawn deterministically from the round number (splitmix64 over the
/// round), so every party computes the identical set with zero
/// coordination and the role rotates round-to-round — no node is a
/// standing hot spot or a standing single point of failure.
pub fn aggregators_for(round: Round, n: usize, k: usize) -> Vec<NodeIndex> {
    let k = k.min(n);
    let mut out: Vec<NodeIndex> = Vec::with_capacity(k);
    let mut x = round.get().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while out.len() < k {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let cand = NodeIndex::new((z % n as u64) as u32);
        if !out.contains(&cand) {
            out.push(cand);
        }
    }
    out
}

/// The blocks of `round` a pull answer offers: its notarized blocks, or
/// while it has none, its valid ones. A [`Have`] lists the same, so that
/// what both sides hold is not sent.
fn offered(pool: &Pool, round: Round) -> Vec<&HashedBlock> {
    let notarized = pool.notarized_blocks(round);
    if notarized.is_empty() {
        pool.valid_blocks(round)
    } else {
        notarized
    }
}

/// Shares are the artifacts routed mode unicasts to aggregators; all
/// other pushes (certificates, beacon values, small proposals) flood.
fn is_share(msg: &ConsensusMessage) -> bool {
    matches!(
        msg,
        ConsensusMessage::NotarizationShare(_)
            | ConsensusMessage::FinalizationShare(_)
            | ConsensusMessage::BeaconShare(_)
    )
}

/// A small consensus artifact paired with its wire encoding.
///
/// The artifact is encoded **once** when the push is built; every
/// fan-out recipient then shares the same [`Bytes`] buffer (cloning is
/// a refcount bump, not a re-encode), wire metering reads the buffer's
/// length in O(1), and the flood-dedup id is the hash of those bytes —
/// computed once instead of once per hop.
#[derive(Debug, Clone, PartialEq)]
pub struct PushedArtifact {
    msg: ConsensusMessage,
    bytes: Bytes,
    id: Hash256,
}

impl PushedArtifact {
    /// Encodes the artifact once, deriving its dedup id from the bytes.
    pub fn new(msg: ConsensusMessage) -> Self {
        let bytes = Bytes::from(encode_to_vec(&msg));
        PushedArtifact::with_encoding(msg, bytes)
    }

    /// Pairs `msg` with `bytes`, its canonical encoding; the dedup id
    /// is always derived here, from the bytes.
    fn with_encoding(msg: ConsensusMessage, bytes: Bytes) -> Self {
        let id = hash_parts("gossip-push", &[&bytes]);
        PushedArtifact { msg, bytes, id }
    }

    /// The wrapped consensus artifact.
    pub fn msg(&self) -> &ConsensusMessage {
        &self.msg
    }

    /// The flood-dedup identity: hash of the encoded bytes.
    pub fn id(&self) -> Hash256 {
        self.id
    }

    /// Encoded size of the artifact (O(1): the buffer's length).
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }
}

/// Messages exchanged on the gossip overlay.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipMessage {
    /// A small artifact, flooded hop-by-hop (or unicast to aggregators
    /// in routed mode). Carries its pre-encoded bytes so the buffer is
    /// shared across every recipient, plus the hop distance travelled
    /// so far — the relay-depth observability signal.
    Push {
        /// The artifact with its shared encoding.
        artifact: PushedArtifact,
        /// Overlay hops this copy has travelled (0 at the originator).
        hops: u8,
    },
    /// "I hold the block with this hash" (sent to neighbors).
    Advert {
        /// The block hash.
        id: Hash256,
        /// Body size in bytes (lets receivers budget).
        size: u64,
        /// The block's round (lets receivers ignore stale adverts).
        round: Round,
    },
    /// "Send me that block" (unicast to one advertiser).
    Request {
        /// The requested block hash.
        id: Hash256,
    },
    /// The requested proposal body (unicast reply).
    Deliver {
        /// The delivered block hash.
        id: Hash256,
        /// The full proposal.
        proposal: BlockProposal,
    },
    /// A pull: "this is what I hold; send me what I lack" (unicast to
    /// one peer that is up; see the [module docs](self)).
    CatchUpRequest {
        /// What the requester holds.
        have: Have,
    },
    /// A certified catch-up package (unicast reply). The receiver
    /// verifies every certificate before installing anything — a
    /// Byzantine responder can waste one round trip, never corrupt
    /// state.
    CatchUpResponse {
        /// The package.
        package: Box<CatchUpPackage>,
    },
}

/// What a replica holds, sent with every pull so that the peer sends
/// only what it lacks. At most [`MAX_HELD`] blocks; one left out is
/// merely sent again.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Have {
    /// Its catch-up horizon: every round up to here is committed and its
    /// beacon held.
    pub floor: Round,
    /// The highest round whose beacon value it holds.
    pub tip: Round,
    /// The lowest round `held` describes: the peer answers for blocks of
    /// rounds from here on. Above `floor`, and at most
    /// [`CATCH_UP_THRESHOLD`] rounds below the requester's own round.
    pub from: Round,
    /// The blocks it holds of rounds from `from` on that an answer would
    /// offer (see [`offered`]), as `(round, id, certificates)`: bit 0 its
    /// notarization, bit 1 its finalization.
    pub held: Vec<(Round, Hash256, u8)>,
}

impl Encode for Have {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.floor.encode(buf);
        self.tip.encode(buf);
        self.from.encode(buf);
        (self.held.len() as u64).encode(buf);
        for (round, id, certs) in &self.held {
            round.encode(buf);
            id.encode(buf);
            buf.push(*certs);
        }
    }
    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 8 + self.held.len() * (8 + 32 + 1)
    }
}

impl Decode for Have {
    /// Refuses a count above [`MAX_HELD`] before reading an entry, and
    /// unknown certificate bits.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (floor, tip, from) = (Round::decode(r)?, Round::decode(r)?, Round::decode(r)?);
        let count = u64::decode(r)?;
        if count > MAX_HELD as u64 {
            return Err(CodecError::LengthOverflow { len: count });
        }
        let mut held = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let entry = (Round::decode(r)?, Hash256::decode(r)?, u8::decode(r)?);
            if entry.2 & !(NOTARIZED | FINALIZED) != 0 {
                return Err(CodecError::NonCanonical { ty: "Have" });
            }
            held.push(entry);
        }
        Ok(Have {
            floor,
            tip,
            from,
            held,
        })
    }
}

impl Encode for PushedArtifact {
    /// The pre-encoded artifact bytes verbatim — no extra length prefix
    /// (`ConsensusMessage` encodings are self-delimiting), so the wire
    /// form is byte-identical to what the simulator meters.
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.bytes);
    }
    fn encoded_len(&self) -> usize {
        self.bytes.len()
    }
}

impl Decode for PushedArtifact {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // The shared buffer is the span the decoder just consumed — the
        // codec admits one wire form per artifact, so these are the
        // canonical bytes without re-encoding — and the flood-dedup id
        // is recomputed from them: a peer cannot ship a mismatched
        // (bytes, id) pair.
        let (msg, bytes) = r.decode_spanned::<ConsensusMessage>()?;
        Ok(PushedArtifact::with_encoding(
            msg,
            Bytes::copy_from_slice(bytes),
        ))
    }
}

impl Encode for GossipMessage {
    /// Tag byte then the variant payload; tags and layouts match the
    /// sizes [`WireMessage::wire_bytes`] has always metered (except the
    /// catch-up package, whose metered size is a deployment-compact
    /// approximation — see [`CatchUpPackage::encoded_len`]).
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            GossipMessage::Push { artifact, hops } => {
                buf.push(0);
                buf.push(*hops);
                artifact.encode(buf);
            }
            GossipMessage::Advert { id, size, round } => {
                buf.push(1);
                id.encode(buf);
                size.encode(buf);
                round.encode(buf);
            }
            GossipMessage::Request { id } => {
                buf.push(2);
                id.encode(buf);
            }
            GossipMessage::Deliver { id, proposal } => {
                buf.push(3);
                id.encode(buf);
                proposal.encode(buf);
            }
            GossipMessage::CatchUpRequest { have } => {
                buf.push(4);
                have.encode(buf);
            }
            GossipMessage::CatchUpResponse { package } => {
                buf.push(5);
                package.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            GossipMessage::Push { artifact, .. } => 1 + Encode::encoded_len(artifact),
            GossipMessage::Advert { .. } => 32 + 8 + 8,
            GossipMessage::Request { .. } => 32,
            GossipMessage::Deliver { proposal, .. } => 32 + proposal.encoded_len(),
            GossipMessage::CatchUpRequest { have } => have.encoded_len(),
            GossipMessage::CatchUpResponse { package } => Encode::encoded_len(&**package),
        }
    }
}

impl Decode for GossipMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => {
                let hops = u8::decode(r)?;
                Ok(GossipMessage::Push {
                    artifact: PushedArtifact::decode(r)?,
                    hops,
                })
            }
            1 => Ok(GossipMessage::Advert {
                id: Hash256::decode(r)?,
                size: u64::decode(r)?,
                round: Round::decode(r)?,
            }),
            2 => Ok(GossipMessage::Request {
                id: Hash256::decode(r)?,
            }),
            3 => Ok(GossipMessage::Deliver {
                id: Hash256::decode(r)?,
                proposal: BlockProposal::decode(r)?,
            }),
            4 => Ok(GossipMessage::CatchUpRequest {
                have: Have::decode(r)?,
            }),
            5 => Ok(GossipMessage::CatchUpResponse {
                package: Box::new(CatchUpPackage::decode(r)?),
            }),
            tag => Err(CodecError::InvalidTag {
                tag,
                ty: "GossipMessage",
            }),
        }
    }
}

impl WireMessage for GossipMessage {
    /// The encoded length (a push's is its shared buffer's, O(1)), but
    /// a package's deployment-compact size.
    fn wire_bytes(&self) -> usize {
        match self {
            GossipMessage::CatchUpResponse { package } => 1 + package.encoded_len(),
            other => Encode::encoded_len(other),
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            GossipMessage::Push { artifact, .. } => artifact.msg().kind(),
            GossipMessage::Advert { .. } => "advert",
            GossipMessage::Request { .. } => "request",
            GossipMessage::Deliver { .. } => "deliver",
            GossipMessage::CatchUpRequest { .. } => "catch-up-request",
            GossipMessage::CatchUpResponse { .. } => "catch-up-package",
        }
    }
}

/// Timer tags.
const TAG_CORE: u64 = 0;
const TAG_PULL: u64 = 1;
const TAG_LIVENESS: u64 = 2;

/// A round that stays open pulls after 1, 2, 4, … pull periods, and
/// then every `MAX_PULL_GAP` periods: however far Δbnd underestimates
/// the network, what is still in flight is not pulled again on every
/// tick.
const MAX_PULL_GAP: u32 = 8;

/// Own routed shares remembered for the liveness watchdog's re-send.
const MAX_ROUTED_RECENT: usize = 64;

/// An ICC1 party: consensus core + gossip dissemination.
#[derive(Debug)]
pub struct GossipNode {
    core: ConsensusCore,
    overlay: Arc<Overlay>,
    /// Whether this node relays at all: not on a complete overlay.
    relays: bool,
    config: GossipConfig,
    volatile: Volatile,
    /// Test knob: serve forged catch-up packages (the finalization
    /// certificate is replaced by a wrong-domain signature).
    forge_catch_up: bool,
    /// Dissemination observability (relay fan-out, dedup hits, hop
    /// depths, routed-share volume). Survives `crash()` like the core's
    /// telemetry: it is an external monitor, not replica state.
    counters: icc_sim::GossipCounters,
}

/// What a crash forgets: all of the gossip layer's state but its
/// counters.
#[derive(Debug, Default)]
struct Volatile {
    /// Flood dedup: the id of every push received or emitted, under the
    /// round of its artifact, mapped to whether this node has sent it to
    /// every neighbor. Rounds below the pool's floor are split off.
    seen_pushes: BTreeMap<(Round, Hash256), bool>,
    /// Block hashes already advertised to neighbors, under their round;
    /// split off at the floor likewise.
    adverted: BTreeSet<(Round, Hash256)>,
    /// Block hashes already requested, under their round, with when;
    /// likewise.
    requested: BTreeMap<(Round, Hash256), SimTime>,
    core_wakeups: BTreeSet<u64>,
    /// The last pull: to whom, and when.
    pulled: Option<(NodeIndex, SimTime)>,
    /// The core's round at the last pull-timer tick, and how many ticks
    /// in a row found it still open.
    open: (Round, u32),
    /// Answer bytes sent to each peer, with the round this node was in.
    served: HashMap<NodeIndex, (Round, usize)>,
    /// Own shares recently unicast to aggregators, kept for the
    /// liveness watchdog's escalating re-send. Bounded.
    routed_recent: VecDeque<(Round, PushedArtifact)>,
    /// Committed round at the last watchdog tick.
    last_progress_round: Round,
    /// Consecutive watchdog ticks without progress (drives the
    /// aggregator-set widening).
    stall_attempts: u32,
    /// Highest round this node received a routed share for (counts
    /// `aggregator_rounds` once per round served).
    last_aggregated_round: Round,
}

impl GossipNode {
    /// Wraps a consensus core for gossip dissemination.
    pub fn new(core: ConsensusCore, overlay: Arc<Overlay>, config: GossipConfig) -> GossipNode {
        GossipNode {
            core,
            relays: !overlay.is_complete(),
            overlay,
            config,
            volatile: Volatile::default(),
            forge_catch_up: false,
            counters: icc_sim::GossipCounters::default(),
        }
    }

    /// Test knob: this node answers catch-up requests with forged
    /// packages — the finalization certificate is swapped for a
    /// wrong-domain multi-signature. Honest receivers must reject it.
    pub fn with_forged_catch_up(mut self) -> Self {
        self.forge_catch_up = true;
        self
    }

    /// The wrapped consensus core.
    pub fn core(&self) -> &ConsensusCore {
        &self.core
    }

    /// Mutable access to the wrapped consensus core — what a process
    /// host needs at shutdown (flushing the durable store) without the
    /// node layer growing a forwarding method per core concern.
    pub fn core_mut(&mut self) -> &mut ConsensusCore {
        &mut self.core
    }

    /// A snapshot of the dissemination counters (relay fan-out, dedup,
    /// hop depths, routed-share volume).
    pub fn gossip_counters(&self) -> icc_sim::GossipCounters {
        self.counters
    }

    /// What this node holds, by collection: the core's
    /// [`footprint`](ConsensusCore::footprint) plus this layer's dedup
    /// memory (diagnostics).
    pub fn footprint(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.core.footprint();
        out.extend([
            ("gossip_dedup_ids", self.volatile.seen_pushes.len() as u64),
            ("gossip_adverted_ids", self.volatile.adverted.len() as u64),
            ("gossip_requested_ids", self.volatile.requested.len() as u64),
        ]);
        out
    }

    /// Whether `round` lies below the pool's floor; counts it if so.
    fn stale(&mut self, round: Round) -> bool {
        let stale = round < self.core.pool().floor();
        self.counters.stale_dropped += u64::from(stale);
        stale
    }

    /// The flood-dedup record of `push`: `None` if this node never saw
    /// it, else whether it has gone to every neighbor.
    fn seen(&self, push: &PushedArtifact) -> Option<bool> {
        let key = (push.msg().round(), push.id());
        self.volatile.seen_pushes.get(&key).copied()
    }

    /// Records `push` as seen and whether it has now gone to every
    /// neighbor.
    fn mark_seen(&mut self, push: &PushedArtifact, sent_to_all: bool) {
        let key = (push.msg().round(), push.id());
        self.volatile.seen_pushes.insert(key, sent_to_all);
    }

    /// Sends `artifact` to every neighbor except `except` (the peer it
    /// came from, if any); returns how many copies went out.
    fn push_to_neighbors(
        &self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        artifact: &PushedArtifact,
        hops: u8,
        except: Option<NodeIndex>,
    ) -> u64 {
        let mut sent = 0;
        for &nb in self.overlay.neighbors(ctx.me()) {
            if Some(nb) != except {
                ctx.send(
                    nb,
                    GossipMessage::Push {
                        artifact: artifact.clone(),
                        hops,
                    },
                );
                sent += 1;
            }
        }
        sent
    }

    /// Advertises the block `id` of `round` to every neighbor, once.
    fn advertise(
        &mut self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        id: Hash256,
        size: u64,
        round: Round,
    ) {
        if self.volatile.adverted.insert((round, id)) {
            for &nb in self.overlay.neighbors(ctx.me()) {
                ctx.send(nb, GossipMessage::Advert { id, size, round });
            }
        }
    }

    /// Routes one outgoing consensus artifact into the gossip layer.
    fn disseminate(
        &mut self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        msg: ConsensusMessage,
    ) {
        let is_large = msg.wire_bytes() > self.config.inline_threshold;
        match msg {
            // The core's pool holds the body and serves the requests.
            ConsensusMessage::Proposal(p) if is_large => {
                self.advertise(ctx, p.block.hash(), p.encoded_len() as u64, p.block.round());
            }
            other => {
                let routed = self.config.mode == DisseminationMode::Routed && is_share(&other);
                // Encode once; every recipient shares the same buffer.
                let push = PushedArtifact::new(other);
                // Routed: the share travels to the round's aggregators
                // only — O(k) sends instead of a flood crossing every
                // overlay edge.
                if routed {
                    self.mark_seen(&push, false);
                    let round = push.msg().round();
                    let me = ctx.me();
                    for agg in aggregators_for(round, self.overlay.n(), ROUTED_AGGREGATORS) {
                        if agg != me {
                            ctx.send(
                                agg,
                                GossipMessage::Push {
                                    artifact: push.clone(),
                                    hops: 0,
                                },
                            );
                            self.counters.shares_routed += 1;
                        }
                    }
                    let recent = &mut self.volatile.routed_recent;
                    recent.push_back((round, push));
                    if recent.len() > MAX_ROUTED_RECENT {
                        recent.pop_front();
                    }
                } else if self.seen(&push) == Some(true) {
                    // Rule (c): once to every neighbor, unless the
                    // identical bytes went to all of them on arrival.
                    self.counters.emits_already_sent += 1;
                } else {
                    self.mark_seen(&push, true);
                    self.push_to_neighbors(ctx, &push, 0, None);
                }
            }
        }
    }

    fn apply_step(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>, step: Step) {
        for msg in step.broadcasts {
            self.disseminate(ctx, msg);
        }
        for (to, msg) in step.sends {
            // Targeted sends (commands for a leader, corrupt behaviors)
            // bypass the overlay.
            ctx.send(
                to,
                GossipMessage::Push {
                    artifact: PushedArtifact::new(msg),
                    hops: 0,
                },
            );
        }
        for event in step.events {
            ctx.output(event);
        }
        if let Some(at) = step.next_wakeup {
            if self.volatile.core_wakeups.insert(at.as_micros()) {
                ctx.set_timer(at.saturating_since(ctx.now()), TAG_CORE);
            }
        }
        // Only a step of the core moves the floor.
        let floor = (self.core.pool().floor(), Hash256::ZERO);
        let v = &mut self.volatile;
        let seen = v.seen_pushes.first_key_value();
        if seen.is_some_and(|(id, _)| *id < floor) {
            v.seen_pushes = v.seen_pushes.split_off(&floor);
        }
        if v.adverted.first().is_some_and(|id| *id < floor) {
            v.adverted = v.adverted.split_off(&floor);
        }
        let requested = v.requested.first_key_value();
        if requested.is_some_and(|(id, _)| *id < floor) {
            v.requested = v.requested.split_off(&floor);
        }
    }

    /// Feeds an artifact into the core and re-disseminates what the
    /// core reacts with; also advertises newly learned proposal bodies.
    fn ingest(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>, msg: &ConsensusMessage) {
        let step = self.core.on_message(ctx.now(), msg);
        // A proposal body the pool now holds — not one it refused — can
        // be served to neighbors; the adverts leave ahead of the step's
        // own sends.
        if let ConsensusMessage::Proposal(p) = msg {
            let id = p.block.hash();
            let large = p.encoded_len() > self.config.inline_threshold;
            if large && self.core.pool().block(&id).is_some() {
                self.advertise(ctx, id, p.encoded_len() as u64, p.block.round());
            }
        }
        self.apply_step(ctx, step);
    }

    /// Arms the pull timer and, in routed mode, the liveness watchdog.
    fn arm_timers(&self, ctx: &mut Context<'_, GossipMessage, NodeEvent>) {
        ctx.set_timer(self.pull_period(), TAG_PULL);
        if matches!(self.config.mode, DisseminationMode::Routed) {
            ctx.set_timer(STALL_TIMEOUT, TAG_LIVENESS);
        }
    }

    /// Asks the first advertiser of a body this node lacks for it, and a
    /// later one once a round trip (2 Δbnd) has passed without the body.
    fn on_advert(
        &mut self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        from: NodeIndex,
        id: Hash256,
        round: Round,
    ) {
        // A block below this node's committed round can no longer gate
        // progress (honest parties only extend notarized blocks at or
        // above it), so it is not worth a request.
        if self.stale(round) || round < self.core.committed_round() {
            return;
        }
        let round_trip = self.core.delta_bound() * 2;
        let asked = self.volatile.requested.get(&(round, id));
        if self.core.pool().block(&id).is_none()
            && asked.is_none_or(|at| ctx.now() >= *at + round_trip)
        {
            self.volatile.requested.insert((round, id), ctx.now());
            ctx.send(from, GossipMessage::Request { id });
        }
    }

    /// How often the layer's one timer ticks: a round open for a whole
    /// period is stuck. Four Δbnd — an honest round whose rank-0 party
    /// is down ends within 2 Δbnd + 2δ. A round that stays open pulls
    /// again after twice as long, up to [`MAX_PULL_GAP`] periods.
    pub fn pull_period(&self) -> SimDuration {
        self.core.delta_bound() * 4
    }

    /// What this replica holds, for a pull: of the (at most)
    /// [`CATCH_UP_THRESHOLD`] open rounds up to its own.
    fn have(&self) -> Have {
        let pool = self.core.pool();
        let floor = self.core.catch_up_horizon();
        let last = self.core.current_round().get();
        let from = (floor.get() + 1).max((last + 1).saturating_sub(CATCH_UP_THRESHOLD));
        let blocks = (from..=last).flat_map(|r| offered(pool, Round::new(r)));
        let held = blocks.map(|b| {
            let id = b.hash();
            let notarized = u8::from(pool.notarization_of(&id).is_some()) * NOTARIZED;
            let finalized = u8::from(pool.finalization_of(&id).is_some()) * FINALIZED;
            (b.round(), id, notarized | finalized)
        });
        Have {
            floor,
            tip: pool.latest_beacon_round(),
            from: Round::new(from),
            held: held.take(MAX_HELD).collect(),
        }
    }

    /// Sends this replica's [`Have`] to the next overlay neighbor that is
    /// up: one rotation over all pulls, down from this node's own index
    /// (so that replicas do not all start at the same peer), and a
    /// silent or forging peer is passed over by the next pull.
    fn pull(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>) {
        let up = self.overlay.neighbors(ctx.me()).iter().copied();
        let up: Vec<NodeIndex> = up.filter(|p| ctx.peer_up(*p)).collect();
        let Some(last) = up.len().checked_sub(1) else {
            return;
        };
        let below = up.iter().filter(|p| **p < ctx.me()).count();
        let turn = (self.counters.pulls % up.len() as u64) as usize;
        let Some(&peer) = up.get((below + last - turn) % up.len()) else {
            return;
        };
        let have = self.have();
        self.core.telemetry_mut().record(SpanEvent {
            at_us: ctx.now().as_micros(),
            node: ctx.me().get(),
            round: have.floor.get(),
            kind: SpanKind::CatchUpRequested,
        });
        ctx.send(peer, GossipMessage::CatchUpRequest { have });
        self.counters.pulls += 1;
        self.volatile.pulled = Some((peer, ctx.now()));
    }

    /// Pulls unless the last pull is younger than a round trip (2 Δbnd).
    fn pull_unless_pulling(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>) {
        let round_trip = self.core.delta_bound() * 2;
        let pulled = self.volatile.pulled;
        if pulled.is_none_or(|(_, at)| ctx.now() >= at + round_trip) {
            self.pull(ctx);
        }
    }

    /// Answers a pull from `from` with what `have` lacks, within
    /// [`PULL_ANSWER_BYTES`] per peer for the round this node is in.
    fn on_pull(
        &mut self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        from: NodeIndex,
        have: &Have,
    ) {
        let round = self.core.current_round();
        let spent = match self.volatile.served.get(&from) {
            Some(&(r, spent)) if r == round => spent,
            _ => 0,
        };
        if spent >= PULL_ANSWER_BYTES {
            return;
        }
        let mut sent = 0;
        for msg in self.answer(have) {
            if spent + sent >= PULL_ANSWER_BYTES {
                break;
            }
            sent += msg.wire_bytes();
            ctx.send(from, msg);
        }
        self.counters.pull_answer_bytes += sent as u64;
        self.volatile.served.insert(from, (round, spent + sent));
    }

    /// What `have` lacks of this node's open rounds, lowest round first —
    /// or a catch-up package, if the requester is [`CATCH_UP_THRESHOLD`]
    /// or more rounds behind (none if this node cannot build one: the
    /// requester's next pull goes to another peer).
    fn answer(&self, have: &Have) -> Vec<GossipMessage> {
        let floor = have.floor.get();
        if self.core.committed_round().get() >= floor.saturating_add(CATCH_UP_THRESHOLD) {
            let Some(mut pkg) = self.core.build_catch_up_package(have.floor) else {
                return Vec::new();
            };
            if self.forge_catch_up {
                // A forged finalization: reuse the notarization's
                // aggregate signature, which signs the wrong domain.
                // Structurally plausible, cryptographically invalid.
                pkg.finalization.sig = pkg.notarization.sig.clone();
            }
            let package = Box::new(pkg);
            return vec![GossipMessage::CatchUpResponse { package }];
        }
        let pool = self.core.pool();
        let push = |msg| GossipMessage::Push {
            artifact: PushedArtifact::new(msg),
            hops: 0,
        };
        let first = floor.saturating_add(1).max(pool.floor().get());
        let beacons = pool.beacons_from(Round::new(first.max(have.tip.get().saturating_add(1))));
        let mut out: Vec<GossipMessage> = beacons
            .into_iter()
            .map(|(round, value)| push(ConsensusMessage::Beacon(Beacon { round, value })))
            .collect();
        for r in first.max(have.from.get())..=self.core.current_round().get() {
            for id in offered(pool, Round::new(r)).iter().map(|b| b.hash()) {
                let held = have.held.iter().find(|(_, h, _)| *h == id);
                let certs = match held {
                    Some(&(_, _, certs)) => certs,
                    None => {
                        let body = pool.proposal_of(&id);
                        out.extend(body.map(|proposal| GossipMessage::Deliver { id, proposal }));
                        0
                    }
                };
                if certs & NOTARIZED == 0 {
                    let n = pool.notarization_of(&id).cloned();
                    out.extend(n.map(|n| push(ConsensusMessage::Notarization(n))));
                }
                if certs & FINALIZED == 0 {
                    let f = pool.finalization_of(&id).cloned();
                    out.extend(f.map(|f| push(ConsensusMessage::Finalization(f))));
                }
            }
        }
        out
    }

    /// Verifies and installs a received catch-up package, then pulls
    /// again at once: after a package, to say what is held now; after a
    /// forged one from the peer last pulled, to ask the next peer.
    fn on_catch_up_response(
        &mut self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        from: NodeIndex,
        pkg: CatchUpPackage,
    ) {
        let last = self.volatile.pulled;
        match self.core.apply_catch_up(&pkg, ctx.now()) {
            Ok(step) => {
                let rec = self.core.recovery_stats_mut();
                rec.catch_up_bytes += pkg.encoded_len() as u64;
                if let Some((_, sent)) = last {
                    rec.catch_up_latency_us += ctx.now().saturating_since(sent).as_micros();
                }
                self.apply_step(ctx, step);
                self.pull(ctx);
            }
            Err(CatchUpError::Stale | CatchUpError::Halted) => {
                // A duplicate or raced response, or a replica that has
                // stopped: nothing to count, nobody to blame.
            }
            Err(_) => {
                self.core.recovery_stats_mut().catch_up_rejected += 1;
                if last.is_some_and(|(peer, _)| peer == from) {
                    self.pull(ctx);
                }
            }
        }
    }
}

impl Node for GossipNode {
    type Msg = GossipMessage;
    type External = Command;
    type Output = NodeEvent;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        let step = self.core.start(ctx.now());
        self.apply_step(ctx, step);
        self.arm_timers(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        from: NodeIndex,
        msg: Self::Msg,
    ) {
        let named = match &msg {
            GossipMessage::Push { artifact, .. } => Some(artifact.msg().round()),
            GossipMessage::Advert { round, .. } => Some(*round),
            GossipMessage::Deliver { proposal, .. } => Some(proposal.block.round()),
            _ => None,
        };
        let bar = self.core.catch_up_horizon().get() + CATCH_UP_THRESHOLD;
        if named.is_some_and(|r| r.get() >= bar) {
            self.pull_unless_pulling(ctx);
        }
        match msg {
            GossipMessage::Push { artifact, hops } => {
                // Dedup id and encoded bytes travel with the artifact:
                // forwarding a flood costs refcount bumps, never a
                // re-encode or re-hash per hop.
                if self.stale(artifact.msg().round()) {
                    return;
                }
                if let ConsensusMessage::Commands { .. } = artifact.msg() {
                    // Sent to this node as a leader: it ends here —
                    // never relayed, advertised or remembered (the
                    // core's command pool dedups by digest).
                    self.ingest(ctx, artifact.msg());
                    return;
                }
                if self.seen(&artifact).is_some() {
                    self.counters.pushes_deduped += 1;
                    return;
                }
                let routed_share = matches!(self.config.mode, DisseminationMode::Routed)
                    && is_share(artifact.msg());
                if routed_share {
                    // Routed shares terminate here (this node is one of
                    // the round's aggregators).
                    self.mark_seen(&artifact, false);
                    let round = artifact.msg().round();
                    if round > self.volatile.last_aggregated_round {
                        self.volatile.last_aggregated_round = round;
                        self.counters.aggregator_rounds += 1;
                    }
                } else {
                    // Everything else floods on while it can still be
                    // news (rules (a) and (b) of the module docs).
                    self.counters.relayed_first_seen += 1;
                    self.counters.relay_hops_total += u64::from(hops) + 1;
                    let superseded = self.relays && self.core.pool().supersedes(artifact.msg());
                    self.counters.relays_suppressed += u64::from(superseded);
                    let relay = self.relays && !superseded;
                    self.mark_seen(&artifact, relay);
                    if relay {
                        self.counters.pushes_relayed += self.push_to_neighbors(
                            ctx,
                            &artifact,
                            hops.saturating_add(1),
                            Some(from),
                        );
                    }
                }
                self.ingest(ctx, artifact.msg());
            }
            GossipMessage::Advert { id, round, .. } => self.on_advert(ctx, from, id, round),
            GossipMessage::Request { id } => {
                // The pool is the one owner of bodies; one it has purged
                // (or never held) is answered by silence.
                if let Some(proposal) = self.core.pool().proposal_of(&id) {
                    ctx.send(from, GossipMessage::Deliver { id, proposal });
                }
            }
            GossipMessage::Deliver { proposal, .. } => {
                if !self.stale(proposal.block.round()) {
                    self.ingest(ctx, &ConsensusMessage::Proposal(proposal));
                }
            }
            GossipMessage::CatchUpRequest { have } => self.on_pull(ctx, from, &have),
            GossipMessage::CatchUpResponse { package } => {
                self.on_catch_up_response(ctx, from, *package)
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, tag: u64) {
        match tag {
            TAG_PULL => {
                let (round, ticks) = (self.core.current_round(), self.volatile.open.1 + 1);
                let open = round == self.volatile.open.0;
                self.volatile.open = (round, if open { ticks } else { 0 });
                if open && (ticks.is_power_of_two() || ticks.is_multiple_of(MAX_PULL_GAP)) {
                    self.pull_unless_pulling(ctx);
                }
                // The one timer every mode arms is the anomaly
                // detector's clock too: a stalled round emits no spans,
                // only this tick can flag it.
                self.core.telemetry_mut().tick(ctx.now().as_micros());
                ctx.set_timer(self.pull_period(), TAG_PULL);
            }
            // Armed in routed mode only.
            TAG_LIVENESS => {
                let committed = self.core.committed_round();
                if committed > self.volatile.last_progress_round {
                    self.volatile.last_progress_round = committed;
                    self.volatile.stall_attempts = 0;
                } else {
                    // No progress for a whole watchdog period: the
                    // round's aggregator set may be crashed or silent.
                    // Re-send our own recent shares to an exponentially
                    // widened set — it eventually covers the subnet, so
                    // an honest live aggregator is always reached.
                    self.volatile.stall_attempts = self.volatile.stall_attempts.saturating_add(1);
                    let n = self.overlay.n();
                    let widened = ROUTED_AGGREGATORS
                        .saturating_mul(1usize << self.volatile.stall_attempts.min(10))
                        .min(n);
                    let me = ctx.me();
                    let resend: Vec<(Round, PushedArtifact)> = self
                        .volatile
                        .routed_recent
                        .iter()
                        .filter(|(r, _)| *r > committed)
                        .cloned()
                        .collect();
                    for (round, push) in resend {
                        for agg in aggregators_for(round, n, widened) {
                            if agg != me && ctx.peer_up(agg) {
                                ctx.send(
                                    agg,
                                    GossipMessage::Push {
                                        artifact: push.clone(),
                                        hops: 0,
                                    },
                                );
                                self.counters.shares_routed += 1;
                            }
                        }
                    }
                }
                ctx.set_timer(STALL_TIMEOUT, TAG_LIVENESS);
            }
            _ => {
                let fired: Vec<u64> = self
                    .volatile
                    .core_wakeups
                    .range(..=ctx.now().as_micros())
                    .copied()
                    .collect();
                for f in fired {
                    self.volatile.core_wakeups.remove(&f);
                }
                let step = self.core.on_wakeup(ctx.now());
                self.apply_step(ctx, step);
            }
        }
    }

    fn on_external(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        input: Self::External,
    ) {
        let step = self.core.on_command(ctx.now(), input);
        self.apply_step(ctx, step);
    }

    fn on_crash(&mut self) {
        self.core.crash();
        // `counters` survive, like the core's telemetry (the pull
        // rotation goes on from where it was).
        self.volatile = Volatile::default();
    }

    /// Restores the core and pulls: the pool is empty, and nobody
    /// re-sends what the open rounds already carried.
    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        let step = self.core.restore(ctx.now());
        self.apply_step(ctx, step);
        self.arm_timers(ctx);
        self.pull(ctx);
    }

    /// A departed peer is never pulled from again (`peer_up` says so);
    /// a pull it still owed an answer goes to the next peer at once.
    fn on_peer_departed(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        peer: NodeIndex,
    ) {
        self.volatile.served.remove(&peer);
        if self.volatile.pulled.is_some_and(|(p, _)| p == peer) {
            self.pull(ctx);
        }
    }
}

impl CoreAccess for GossipNode {
    fn core(&self) -> &ConsensusCore {
        GossipNode::core(self)
    }

    fn gossip_counters(&self) -> Option<icc_sim::GossipCounters> {
        Some(self.counters)
    }

    fn footprint(&self) -> Vec<(&'static str, u64)> {
        GossipNode::footprint(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The transport's in-place framing of `msg` is byte-identical to
    /// framing its separately encoded `bytes`.
    fn assert_framed_in_place(msg: &GossipMessage, bytes: &[u8]) {
        let mut in_place = Vec::new();
        icc_types::frame::frame(&mut in_place, |buf| msg.encode(buf));
        assert_eq!(in_place, icc_types::frame::encode_frame(bytes));
    }

    #[test]
    fn gossip_message_sizes() {
        let advert = GossipMessage::Advert {
            id: Hash256::ZERO,
            size: 1000,
            round: Round::new(1),
        };
        assert_eq!(advert.wire_bytes(), 49);
        assert_eq!(advert.kind(), "advert");
        let req = GossipMessage::Request { id: Hash256::ZERO };
        assert_eq!(req.wire_bytes(), 33);
    }

    #[test]
    fn gossip_message_codec_roundtrips() {
        use icc_core::artifacts;
        use icc_core::keys::generate_keys;
        use icc_types::block::{Block, Payload};
        use icc_types::codec::decode_from_slice;
        use icc_types::SubnetConfig;

        let keys = generate_keys(SubnetConfig::new(4), 11);
        let block = Block::new(
            Round::new(1),
            NodeIndex::new(1),
            keys[0].setup.genesis.hash(),
            Payload::synthetic(2, 24, Round::new(1)),
        )
        .into_hashed();
        let proposal = artifacts::proposal(&keys[1], block, None);

        let roundtrip = |msg: GossipMessage| {
            let bytes = encode_to_vec(&msg);
            assert_eq!(bytes.len(), Encode::encoded_len(&msg), "encoded_len drift");
            assert_framed_in_place(&msg, &bytes);
            let back: GossipMessage = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, msg);
        };

        roundtrip(GossipMessage::Push {
            artifact: PushedArtifact::new(ConsensusMessage::Proposal(proposal.clone())),
            hops: 3,
        });
        roundtrip(GossipMessage::Advert {
            id: Hash256([9; 32]),
            size: 1234,
            round: Round::new(7),
        });
        roundtrip(GossipMessage::Request {
            id: Hash256([1; 32]),
        });
        roundtrip(GossipMessage::Deliver {
            id: proposal.block.hash(),
            proposal,
        });
        roundtrip(GossipMessage::CatchUpRequest {
            have: Have {
                floor: Round::new(42),
                tip: Round::new(43),
                from: Round::new(43),
                held: vec![(Round::new(43), Hash256([5; 32]), NOTARIZED)],
            },
        });

        // Unknown tags are typed errors, not panics.
        assert!(matches!(
            decode_from_slice::<GossipMessage>(&[6]),
            Err(icc_types::codec::CodecError::InvalidTag {
                ty: "GossipMessage",
                ..
            })
        ));
    }

    #[test]
    fn catch_up_response_codec_roundtrips_through_real_package() {
        use icc_core::cluster::ClusterBuilder;
        use icc_types::codec::decode_from_slice;

        // Drive a small cluster far enough to build a genuine certified
        // package, then round-trip it through the transport codec.
        let mut cluster = crate::icc0_cluster(ClusterBuilder::new(4).seed(21));
        cluster.run_for(icc_types::SimDuration::from_secs(10));
        assert!(cluster.min_committed_round() > 2, "cluster made progress");
        let pkg = cluster
            .sim
            .node(0)
            .core()
            .build_catch_up_package(Round::GENESIS)
            .expect("finalized rounds exist");
        let msg = GossipMessage::CatchUpResponse {
            package: Box::new(pkg),
        };
        let bytes = encode_to_vec(&msg);
        assert_eq!(bytes.len(), Encode::encoded_len(&msg));
        assert_framed_in_place(&msg, &bytes);
        let back: GossipMessage = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    // ------------------------------------------------------------------
    // The relay rules, one node against a scripted transport
    // ------------------------------------------------------------------

    use icc_core::artifacts;
    use icc_core::delays::StaticDelays;
    use icc_core::keys::{generate_keys, NodeKeys};
    use icc_core::Behavior;
    use icc_sim::{drive, RecvError, Transport, TransportEvent};
    use icc_types::block::{Block, Payload};
    use icc_types::messages::{BlockRef, Notarization};
    use icc_types::SubnetConfig;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    type Sent = Vec<(NodeIndex, GossipMessage)>;

    /// Pre-loaded events in, every send recorded out, then `Closed`.
    struct Script {
        me: NodeIndex,
        n: usize,
        events: VecDeque<TransportEvent<GossipMessage, Command>>,
        sent: Rc<RefCell<Sent>>,
    }

    impl Transport for Script {
        type Msg = GossipMessage;
        type External = Command;
        fn me(&self) -> NodeIndex {
            self.me
        }
        fn n(&self) -> usize {
            self.n
        }
        fn send(&mut self, to: NodeIndex, msg: GossipMessage) {
            self.sent.borrow_mut().push((to, msg));
        }
        fn recv(
            &mut self,
            _timeout: std::time::Duration,
        ) -> Result<TransportEvent<GossipMessage, Command>, RecvError> {
            self.events.pop_front().ok_or(RecvError::Closed)
        }
    }

    /// Key material is deterministic in the seed, so a node's own keys
    /// (not `Clone`) are simply generated again.
    fn subnet(n: usize) -> Vec<NodeKeys> {
        generate_keys(SubnetConfig::new(n), 3)
    }

    /// Starts node 0 of `keys`' subnet over `overlay`, delivers `pushes`
    /// in order (each a hop-0 push from `from`) and returns the node
    /// with everything it sent.
    fn run_node_0(
        keys: &[NodeKeys],
        overlay: Overlay,
        from: NodeIndex,
        pushes: &[ConsensusMessage],
    ) -> (GossipNode, Sent) {
        let delays = StaticDelays::new(SimDuration::from_secs(10), SimDuration::ZERO);
        let own = subnet(keys.len()).swap_remove(0);
        let core = ConsensusCore::new(own, delays, Behavior::Honest);
        let node = GossipNode::new(core, Arc::new(overlay), GossipConfig::inline_small_blocks());
        let sent = Rc::new(RefCell::new(Vec::new()));
        let events = pushes.iter().map(|msg| TransportEvent::Msg {
            from,
            msg: GossipMessage::Push {
                artifact: PushedArtifact::new(msg.clone()),
                hops: 0,
            },
        });
        let script = Script {
            me: keys[0].index,
            n: keys.len(),
            events: events.collect(),
            sent: Rc::clone(&sent),
        };
        let node = drive(node, script, std::time::Instant::now(), |_| {});
        let sent = sent.borrow().clone();
        (node, sent)
    }

    /// Who was sent a push of exactly `msg`, in send order.
    fn recipients(sent: &Sent, msg: &ConsensusMessage) -> Vec<NodeIndex> {
        let pushed = |m: &GossipMessage| matches!(m, GossipMessage::Push { artifact, .. } if artifact.msg() == msg);
        let hits = sent.iter().filter(|(_, m)| pushed(m));
        hits.map(|(to, _)| *to).collect()
    }

    /// A round-1 block by party 1 and what parties sign over it.
    struct Round1 {
        proposal: ConsensusMessage,
        block_ref: BlockRef,
    }

    impl Round1 {
        fn new(keys: &[NodeKeys]) -> Round1 {
            let genesis = keys[0].setup.genesis.hash();
            let block =
                Block::new(Round::new(1), keys[1].index, genesis, Payload::empty()).into_hashed();
            Round1 {
                block_ref: BlockRef::of_hashed(&block),
                proposal: ConsensusMessage::Proposal(artifacts::proposal(&keys[1], block, None)),
            }
        }

        fn share(&self, k: &NodeKeys) -> ConsensusMessage {
            ConsensusMessage::NotarizationShare(artifacts::notarization_share(k, self.block_ref))
        }

        /// The notarization combined from `signers`' shares: a different
        /// signer set gives different bytes for the same block.
        fn notarization(&self, signers: &[NodeKeys]) -> ConsensusMessage {
            ConsensusMessage::Notarization(notarization(signers, self.block_ref))
        }
    }

    fn notarization(signers: &[NodeKeys], block_ref: BlockRef) -> Notarization {
        let shares = signers
            .iter()
            .map(|k| artifacts::notarization_share(k, block_ref).share);
        let notary = &signers[0].setup.notary;
        let sig = notary.combine(&block_ref.sign_bytes(), shares).unwrap();
        Notarization { block_ref, sig }
    }

    fn beacon_share(k: &NodeKeys) -> ConsensusMessage {
        let share = artifacts::beacon_share(k, Round::new(1), &k.setup.genesis_beacon);
        ConsensusMessage::BeaconShare(share)
    }

    /// Rule (a): on a complete overlay nothing is relayed, and an
    /// aggregate that arrived from the network is still broadcast by the
    /// core, once, to all n − 1 neighbors.
    #[test]
    fn complete_overlay_relays_nothing_and_emits_a_received_aggregate_once() {
        let keys = subnet(4);
        let r1 = Round1::new(&keys);
        let notarization = r1.notarization(&keys[1..]);
        let pushes = [
            beacon_share(&keys[1]), // with its own: round 1 entered
            r1.share(&keys[2]),
            notarization.clone(),
            r1.proposal.clone(), // block valid: round 1 finishes
            r1.share(&keys[3]),
        ];
        let (node, sent) = run_node_0(&keys, Overlay::full_mesh(4), keys[1].index, &pushes);
        let c = node.gossip_counters();
        assert_eq!((c.pushes_relayed, c.relays_suppressed), (0, 0), "{c:?}");
        assert_eq!(c.emits_already_sent, 0);
        assert_eq!((c.relayed_first_seen, c.relay_hops_total), (5, 5));
        let everyone: Vec<NodeIndex> = keys[1..].iter().map(|k| k.index).collect();
        assert_eq!(recipients(&sent, &notarization), everyone);
        assert!(recipients(&sent, &r1.share(&keys[2])).is_empty());
        assert!(recipients(&sent, &r1.proposal).is_empty());
    }

    /// Rules (b) and (c) on a bounded-degree overlay: every share that
    /// arrives before the aggregate is relayed, none after; a second,
    /// byte-different aggregate for the held block is not; and the
    /// aggregate relayed on arrival is not sent again when the core
    /// broadcasts it.
    #[test]
    fn sparse_overlay_relays_until_the_aggregate_is_held() {
        let keys = subnet(7);
        let overlay = Overlay::random_regular(7, 3, 1);
        assert!(!overlay.is_complete());
        let neighbors = overlay.neighbors(keys[0].index).to_vec();
        let from = neighbors[0];
        let others = &neighbors[1..];
        assert!(!others.is_empty());

        let r1 = Round1::new(&keys);
        let first = r1.notarization(&keys[..5]);
        let second = r1.notarization(&keys[2..]);
        assert_ne!(first, second);
        let pushes = [
            r1.share(&keys[1]),
            r1.share(&keys[2]),
            first.clone(),
            r1.share(&keys[3]), // superseded
            r1.share(&keys[4]), // superseded
            second.clone(),     // superseded
            beacon_share(&keys[1]),
            beacon_share(&keys[2]), // with its own: round 1 entered
            beacon_share(&keys[3]), // superseded
            r1.proposal.clone(),    // block valid: round 1 finishes
        ];
        let (node, sent) = run_node_0(&keys, overlay, from, &pushes);

        for relayed in [0, 1, 2, 6, 7, 9] {
            assert_eq!(
                recipients(&sent, &pushes[relayed]),
                others,
                "push {relayed}"
            );
        }
        for withheld in [3, 4, 5, 8] {
            assert!(
                recipients(&sent, &pushes[withheld]).is_empty(),
                "push {withheld}"
            );
        }
        let c = node.gossip_counters();
        assert_eq!(c.pushes_relayed, 6 * others.len() as u64);
        assert_eq!(c.relays_suppressed, 4);
        // The core finished round 1 on `first` and broadcast it: the
        // copies counted above are the relay's, and there are no more.
        assert!(node.core().pool().is_notarized(&r1.block_ref.hash));
        assert_eq!(c.emits_already_sent, 1);
        assert_eq!((c.relayed_first_seen, c.relay_hops_total), (10, 10));
        assert_eq!(c.pushes_deduped, 0);
    }

    /// The door rule on a bounded-degree overlay. The node is fed a
    /// chain of `PURGE_DEPTH + 2` blocks finalized at the tip, which puts
    /// its floor at round 2. A notarization share for the round-1 block
    /// is then neither ingested nor relayed, and counted; the same
    /// signer's share for the tip block is ingested and relayed to every
    /// other neighbor, as ever.
    #[test]
    fn below_floor_push_is_dropped_at_the_door() {
        use icc_core::PURGE_DEPTH;
        use icc_types::messages::Finalization;

        let keys = subnet(7);
        let overlay = Overlay::random_regular(7, 3, 1);
        let neighbors = overlay.neighbors(keys[0].index).to_vec();
        let (from, others) = (neighbors[0], &neighbors[1..]);

        let mut pushes = Vec::new();
        let mut refs = Vec::new();
        let mut parent = (keys[0].setup.genesis.hash(), None);
        for round in 1..=PURGE_DEPTH + 2 {
            let block = Block::new(Round::new(round), keys[1].index, parent.0, Payload::empty());
            let block = block.into_hashed();
            let block_ref = BlockRef::of_hashed(&block);
            let proposal = artifacts::proposal(&keys[1], block, parent.1.take());
            pushes.push(ConsensusMessage::Proposal(proposal));
            parent = (block_ref.hash, Some(notarization(&keys[..5], block_ref)));
            refs.push(block_ref);
        }
        let tip = refs[refs.len() - 1];
        let shares = keys[..5]
            .iter()
            .map(|k| artifacts::finalization_share(k, tip).share);
        let finality = &keys[0].setup.finality;
        let sig = finality.combine(&tip.sign_bytes(), shares).unwrap();
        pushes.push(ConsensusMessage::Finalization(Finalization {
            block_ref: tip,
            sig,
        }));
        let share =
            |r| ConsensusMessage::NotarizationShare(artifacts::notarization_share(&keys[2], r));
        let (stale, live) = (share(refs[0]), share(tip));
        pushes.extend([stale.clone(), live.clone()]);

        let (node, sent) = run_node_0(&keys, overlay, from, &pushes);
        let pool = node.core().pool();
        assert_eq!(node.core().committed_round(), tip.round);
        assert_eq!(pool.floor(), Round::new(2));
        assert!(recipients(&sent, &stale).is_empty());
        assert_eq!(recipients(&sent, &live), others);
        let c = node.gossip_counters();
        assert_eq!(c.stale_dropped, 1);
        assert_eq!(c.relayed_first_seen, pushes.len() as u64 - 1);
        // The pool never saw the stale share; the live one it holds.
        assert_eq!(pool.stats().stale_dropped, 0);
        assert!(pool.footprint().contains(&("pool_share_buckets", 1)));
    }

    /// Commands forwarded to this node as a leader end here, even on a
    /// bounded-degree overlay: taken into the core's command pool, never
    /// relayed, advertised or counted as a relayed push.
    #[test]
    fn forwarded_commands_end_at_the_leader() {
        let keys = subnet(7);
        let overlay = Overlay::random_regular(7, 3, 1);
        let from = overlay.neighbors(keys[0].index)[0];
        let commands = vec![Command::new(vec![1; 64]), Command::new(vec![2; 64])];
        let round = Round::new(2);
        let push = ConsensusMessage::Commands { round, commands };
        let (node, sent) = run_node_0(&keys, overlay, from, &[push]);
        assert_eq!(node.core().pending_commands(), 2);
        assert_eq!(node.core().ingress_stats().received, 2);
        // All it sent is its own round-1 beacon share.
        let own_share = |m: &GossipMessage| {
            matches!(m, GossipMessage::Push { artifact, .. }
                if matches!(artifact.msg(), ConsensusMessage::BeaconShare(_)))
        };
        assert!(sent.iter().all(|(_, m)| own_share(m)), "{sent:?}");
        let c = node.gossip_counters();
        assert_eq!((c.relayed_first_seen, c.pushes_relayed), (0, 0), "{c:?}");
        assert_eq!(node.volatile.seen_pushes.len(), 1, "only the own share");
        assert!(node.volatile.adverted.is_empty());
    }

    /// A large proposal is advertised only once the pool — which serves
    /// the requests — holds its body: one with a forged authenticator
    /// leaves no trace in the gossip layer, a genuine one is advertised
    /// to every neighbor as before.
    #[test]
    fn refused_proposal_is_neither_offered_nor_advertised() {
        let keys = subnet(4);
        let genesis = keys[0].setup.genesis.hash();
        let payload = Payload::from_commands(vec![Command::new(vec![7; 5000])]);
        let block = Block::new(Round::new(1), keys[1].index, genesis, payload).into_hashed();
        let id = block.hash();
        let genuine = artifacts::proposal(&keys[1], block, None);
        assert!(genuine.encoded_len() > GossipConfig::inline_small_blocks().inline_threshold);
        let mut forged = genuine.clone();
        forged.authenticator = keys[2]
            .auth
            .sign(icc_types::messages::domains::AUTH, b"junk");
        let run = |proposal| {
            let pushes = [ConsensusMessage::Proposal(proposal)];
            let (node, sent) = run_node_0(&keys, Overlay::full_mesh(4), keys[1].index, &pushes);
            let adverts = sent.iter().filter_map(|(to, m)| {
                matches!(m, GossipMessage::Advert { id: advertised, .. } if *advertised == id)
                    .then_some(*to)
            });
            (adverts.collect::<Vec<NodeIndex>>(), node)
        };

        let (adverts, node) = run(forged);
        assert!(adverts.is_empty(), "advertised to {adverts:?}");
        assert!(node.core().pool().block(&id).is_none() && node.volatile.adverted.is_empty());
        assert!(node.volatile.requested.is_empty());
        assert_eq!(node.core().pool().stats().rejected, 1);

        let (adverts, node) = run(genuine);
        let everyone: Vec<NodeIndex> = keys[1..].iter().map(|k| k.index).collect();
        assert_eq!(adverts, everyone);
        assert!(node.core().pool().proposal_of(&id).is_some(), "servable");
        assert_eq!(node.core().pool().stats().rejected, 0);
    }

    #[test]
    fn pushed_artifact_meters_and_dedups_from_shared_buffer() {
        use icc_crypto::multisig::MultiSigShare;
        use icc_crypto::sig::Signature;
        use icc_types::messages::{BlockRef, NotarizationShare};

        let msg = ConsensusMessage::NotarizationShare(NotarizationShare {
            block_ref: BlockRef {
                round: Round::new(3),
                proposer: NodeIndex::new(1),
                hash: Hash256::ZERO,
            },
            share: MultiSigShare {
                signer: 1,
                signature: Signature::from_value(7),
            },
        });
        let push = PushedArtifact::new(msg.clone());
        // Metering from the buffer length agrees with the codec walk.
        assert_eq!(push.encoded_len(), msg.wire_bytes());
        assert_eq!(
            GossipMessage::Push {
                artifact: push.clone(),
                hops: 0
            }
            .wire_bytes(),
            2 + msg.wire_bytes()
        );
        // The dedup id is the hash of the encoded bytes, so two pushes
        // of the same artifact collide (and a forwarded clone carries
        // the identical id without rehashing).
        let again = PushedArtifact::new(msg);
        assert_eq!(push.id(), again.id());
        assert_eq!(push.clone().id(), push.id());
        // A decoded push takes its buffer from the received span, not a
        // re-encode, and lands on the same (bytes, id) pair.
        let wire = encode_to_vec(&push);
        let decoded: PushedArtifact = icc_types::codec::decode_from_slice(&wire).unwrap();
        assert_eq!(decoded, push);
        assert_eq!(decoded.id(), push.id());
        // The one non-canonical form the span could have smuggled in —
        // an unreduced signature value for the same share — is refused
        // by the codec, so no second id for one artifact exists.
        let mut forged = wire;
        let at = forged.len() - 48;
        forged[at..at + 8].copy_from_slice(&(icc_crypto::field::P + 7).to_le_bytes());
        assert!(icc_types::codec::decode_from_slice::<PushedArtifact>(&forged).is_err());
    }
}
