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
//! # What is forgotten
//!
//! The layer owns no bodies — a request is served from the core's pool
//! — and its dedup memory (push ids seen, block ids advertised) is
//! keyed by round and dropped at the pool's
//! [`floor`](icc_core::pool::Pool::floor), the one retention bound of
//! the replica. A push, advert or delivery for a round below the floor
//! is dropped at the door — not ingested, relayed or requested — and
//! counted in `stale_dropped`: whatever it could decide is finalized
//! here, and whoever still needs it is behind by more than the
//! catch-up threshold and is served a package instead.

// Nothing a peer sends may panic the node.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

use bytes::Bytes;
use icc_core::cluster::CoreAccess;
use icc_core::consensus::{ConsensusCore, Step, CATCH_UP_THRESHOLD};
use icc_core::events::NodeEvent;
use icc_core::recovery::{CatchUpError, CatchUpPackage};
use icc_crypto::{hash_parts, Hash256};
use icc_sim::{Context, Node, WireMessage};
use icc_telemetry::{SpanEvent, SpanKind};
use icc_types::codec::{encode_to_vec, CodecError, Decode, Encode, Reader};
use icc_types::messages::{BlockProposal, ConsensusMessage};
use icc_types::{Command, NodeIndex, Round, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// How long to wait for a requested body before asking another
/// advertiser.
const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(300);

/// Cap on the per-request exponential retry backoff (body requests and
/// catch-up requests alike double their timeout on every retry up to
/// this cap).
const RETRY_BACKOFF_CAP: SimDuration = SimDuration::from_millis(3_000);

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
    /// sends every proposal through the advert/request path. Adverts
    /// are round-tagged, and those tags are the *only* behind-detection
    /// signal the gossip layer has — a restarted replica discovers it
    /// must fetch a certified catch-up package precisely because
    /// adverts for far-future rounds arrive.
    fn default() -> Self {
        GossipConfig {
            inline_threshold: 0,
            mode: DisseminationMode::Flood,
        }
    }
}

impl GossipConfig {
    /// Flooded shares with every artifact up to 4 KiB pushed inline, so
    /// a small block skips the advert/request round trip. Not shipped:
    /// without adverts a replica cannot tell it fell behind ([`Default`]).
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

/// [`REQUEST_TIMEOUT`] `× 2^attempts`, saturating at
/// [`RETRY_BACKOFF_CAP`].
fn backoff_after(attempts: u32) -> SimDuration {
    let mult = 1u64 << attempts.min(20);
    SimDuration::from_micros(
        REQUEST_TIMEOUT
            .as_micros()
            .saturating_mul(mult)
            .min(RETRY_BACKOFF_CAP.as_micros()),
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
    /// "I am at round `have_round`; send me a certified catch-up
    /// package" (unicast to one peer believed to be ahead).
    CatchUpRequest {
        /// The requester's latest committed round.
        have_round: Round,
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
            GossipMessage::CatchUpRequest { have_round } => {
                buf.push(4);
                have_round.encode(buf);
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
            GossipMessage::CatchUpRequest { .. } => 8,
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
                have_round: Round::decode(r)?,
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
    fn wire_bytes(&self) -> usize {
        match self {
            // Metered from the shared buffer's length, not a re-walk of
            // the payload; identical by construction to `encoded_len`.
            GossipMessage::Push { artifact, .. } => 2 + artifact.encoded_len(),
            GossipMessage::Advert { .. } => 1 + 32 + 8 + 8,
            GossipMessage::Request { .. } => 1 + 32,
            GossipMessage::Deliver { proposal, .. } => 1 + 32 + proposal.encoded_len(),
            GossipMessage::CatchUpRequest { .. } => 1 + 8,
            GossipMessage::CatchUpResponse { package } => 1 + package.encoded_len(),
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
const TAG_SWEEP: u64 = 1;
const TAG_CATCHUP: u64 = 2;
const TAG_LIVENESS: u64 = 3;

/// Cap on advertisers remembered per outstanding body request. Retries
/// only ever need a handful of fallback peers; without the cap a full
/// mesh makes every pending entry O(n).
const MAX_ADVERTISERS: usize = 16;

/// Cap on remembered per-peer advertised rounds (the behind-detection
/// signal). Eviction drops the *least-ahead* peer — the one least
/// useful as a catch-up target — keeping the map O(degree)-ish instead
/// of O(n).
const MAX_PEER_ROUNDS: usize = 64;

/// Own routed shares remembered for the liveness watchdog's re-send.
const MAX_ROUTED_RECENT: usize = 64;

/// An outstanding body request.
#[derive(Debug)]
struct PendingRequest {
    /// The advertised block's round: retries are issued lowest-round
    /// first (the blocks gating consensus progress), and requests whose
    /// round falls below this node's committed round are dropped as
    /// stale at the next sweep.
    round: Round,
    advertisers: Vec<NodeIndex>,
    next_advertiser: usize,
    /// Retries so far; the per-entry backoff doubles with each one.
    attempts: u32,
    /// Earliest time the sweep may re-request this body.
    next_retry_at: SimTime,
}

/// An ICC1 party: consensus core + gossip dissemination.
#[derive(Debug)]
pub struct GossipNode {
    core: ConsensusCore,
    overlay: Arc<Overlay>,
    /// Whether this node relays at all: not on a complete overlay.
    relays: bool,
    config: GossipConfig,
    /// Flood dedup: the id of every push received or emitted, under the
    /// round of its artifact, mapped to whether this node has sent it to
    /// every neighbor. Rounds below the pool's floor are split off.
    seen_pushes: BTreeMap<(Round, Hash256), bool>,
    /// Block hashes already advertised to neighbors, under their round;
    /// split off at the floor likewise.
    adverted: BTreeSet<(Round, Hash256)>,
    /// Outstanding body requests.
    pending: HashMap<Hash256, PendingRequest>,
    sweep_armed: bool,
    core_wakeups: BTreeSet<u64>,
    /// Highest round each peer has advertised a block for — the
    /// behind-detection signal driving catch-up requests.
    peer_rounds: HashMap<NodeIndex, Round>,
    /// The catch-up request in flight: `(peer, sent_at, deadline)`.
    catch_up_inflight: Option<(NodeIndex, SimTime, SimTime)>,
    /// Consecutive unanswered/rejected catch-up attempts (drives the
    /// exponential backoff; reset on success).
    catch_up_attempts: u32,
    /// Rotation cursor over ahead peers, so retries spread across
    /// advertisers instead of hammering one possibly-faulty peer.
    catch_up_rotation: usize,
    /// Test knob: serve forged catch-up packages (the finalization
    /// certificate is replaced by a wrong-domain signature).
    forge_catch_up: bool,
    /// Dissemination observability (relay fan-out, dedup hits, hop
    /// depths, routed-share volume). Survives `crash()` like the core's
    /// telemetry: it is an external monitor, not replica state.
    counters: icc_sim::GossipCounters,
    /// Own shares recently unicast to aggregators, kept for the
    /// liveness watchdog's escalating re-send. Bounded.
    routed_recent: std::collections::VecDeque<(Round, PushedArtifact)>,
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
            seen_pushes: BTreeMap::new(),
            adverted: BTreeSet::new(),
            pending: HashMap::new(),
            sweep_armed: false,
            core_wakeups: BTreeSet::new(),
            peer_rounds: HashMap::new(),
            catch_up_inflight: None,
            catch_up_attempts: 0,
            catch_up_rotation: 0,
            forge_catch_up: false,
            counters: icc_sim::GossipCounters::default(),
            routed_recent: std::collections::VecDeque::new(),
            last_progress_round: Round::GENESIS,
            stall_attempts: 0,
            last_aggregated_round: Round::GENESIS,
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

    /// Number of outstanding body requests (diagnostics).
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// A snapshot of the dissemination counters (relay fan-out, dedup,
    /// hop depths, routed-share volume).
    pub fn gossip_counters(&self) -> icc_sim::GossipCounters {
        self.counters
    }

    /// What this node holds, by collection: the core's
    /// [`footprint`](ConsensusCore::footprint) plus this layer's dedup
    /// memory and outstanding requests (diagnostics).
    pub fn footprint(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.core.footprint();
        out.extend([
            ("gossip_dedup_ids", self.seen_pushes.len() as u64),
            ("gossip_adverted_ids", self.adverted.len() as u64),
            ("gossip_pending_requests", self.pending.len() as u64),
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
        self.seen_pushes.get(&key).copied()
    }

    /// Records `push` as seen and whether it has now gone to every
    /// neighbor.
    fn mark_seen(&mut self, push: &PushedArtifact, sent_to_all: bool) {
        let key = (push.msg().round(), push.id());
        self.seen_pushes.insert(key, sent_to_all);
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
        if self.adverted.insert((round, id)) {
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
                    self.remember_routed(round, push);
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

    /// Remembers an own routed share for the watchdog's re-send.
    fn remember_routed(&mut self, round: Round, push: PushedArtifact) {
        self.routed_recent.push_back((round, push));
        while self.routed_recent.len() > MAX_ROUTED_RECENT {
            self.routed_recent.pop_front();
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
            if self.core_wakeups.insert(at.as_micros()) {
                ctx.set_timer(at.saturating_since(ctx.now()), TAG_CORE);
            }
        }
        // Only a step of the core moves the floor.
        let floor = (self.core.pool().floor(), Hash256::ZERO);
        let seen = self.seen_pushes.first_key_value();
        if seen.is_some_and(|(id, _)| *id < floor) {
            self.seen_pushes = self.seen_pushes.split_off(&floor);
        }
        if self.adverted.first().is_some_and(|id| *id < floor) {
            self.adverted = self.adverted.split_off(&floor);
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

    fn arm_sweep(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>) {
        if !self.sweep_armed && !self.pending.is_empty() {
            self.sweep_armed = true;
            ctx.set_timer(REQUEST_TIMEOUT, TAG_SWEEP);
        }
    }

    fn on_advert(
        &mut self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        from: NodeIndex,
        id: Hash256,
        round: Round,
    ) {
        // Round-tagged adverts double as the behind-detection signal:
        // remember the highest round each peer claims to hold a block
        // for, and trigger a catch-up request if the gap to our own
        // committed round clears the threshold. The map is bounded:
        // past the cap, the least-ahead peer (the worst catch-up
        // candidate) is evicted in favour of a more-ahead newcomer.
        if let Some(best) = self.peer_rounds.get_mut(&from) {
            if round > *best {
                *best = round;
            }
        } else if self.peer_rounds.len() < MAX_PEER_ROUNDS {
            self.peer_rounds.insert(from, round);
        } else if let Some((&evict, &min_round)) =
            self.peer_rounds.iter().min_by_key(|&(p, r)| (*r, *p))
        {
            if round > min_round {
                self.peer_rounds.remove(&evict);
                self.peer_rounds.insert(from, round);
            }
        }
        self.maybe_request_catch_up(ctx);
        // Stale adverts: a block below this node's committed round can
        // no longer gate progress (honest parties only extend notarized
        // blocks at or above it), so it is not worth a request.
        if self.stale(round) || round < self.core.committed_round() {
            return;
        }
        if self.core.pool().block(&id).is_some() {
            return;
        }
        match self.pending.get_mut(&id) {
            Some(req) => {
                // A handful of fallback advertisers is all the retry
                // sweep ever consults; don't hold O(n) of them.
                if req.advertisers.len() < MAX_ADVERTISERS && !req.advertisers.contains(&from) {
                    req.advertisers.push(from);
                }
            }
            None => {
                ctx.send(from, GossipMessage::Request { id });
                self.pending.insert(
                    id,
                    PendingRequest {
                        round,
                        advertisers: vec![from],
                        next_advertiser: 0,
                        attempts: 0,
                        next_retry_at: ctx.now() + REQUEST_TIMEOUT,
                    },
                );
                self.arm_sweep(ctx);
            }
        }
    }

    fn on_request(
        &mut self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        from: NodeIndex,
        id: Hash256,
    ) {
        // The pool is the one owner of bodies; one it has purged (or
        // never held) is answered by silence.
        if let Some(proposal) = self.core.pool().proposal_of(&id) {
            ctx.send(from, GossipMessage::Deliver { id, proposal });
        }
    }

    /// Issues a catch-up request if this node has fallen
    /// [`CATCH_UP_THRESHOLD`] or more rounds behind the highest round its
    /// peers advertise and no request is already in flight.
    ///
    /// The target peer is chosen from the *ahead* peers (those whose
    /// advertised round clears the threshold and that the engine
    /// reports up), most-ahead first, rotated by the retry cursor so a
    /// silent or forging peer is routed around on the next attempt.
    fn maybe_request_catch_up(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>) {
        if self.catch_up_inflight.is_some() {
            return;
        }
        let have = self.core.catch_up_horizon();
        let bar = have.get() + CATCH_UP_THRESHOLD;
        let mut ahead: Vec<(Round, NodeIndex)> = self
            .peer_rounds
            .iter()
            .filter(|(p, r)| r.get() >= bar && ctx.peer_up(**p))
            .map(|(p, r)| (*r, *p))
            .collect();
        ahead.sort_by(|a, b| b.cmp(a)); // most-ahead first, deterministic
        let pick = self.catch_up_rotation.checked_rem(ahead.len());
        let Some(&(_, peer)) = pick.and_then(|i| ahead.get(i)) else {
            return;
        };
        ctx.send(peer, GossipMessage::CatchUpRequest { have_round: have });
        let me = ctx.me().get();
        let at_us = ctx.now().as_micros();
        self.core.telemetry_mut().record(SpanEvent {
            at_us,
            node: me,
            round: have.get(),
            kind: SpanKind::CatchUpRequested,
        });
        let wait = backoff_after(self.catch_up_attempts);
        self.catch_up_attempts = self.catch_up_attempts.saturating_add(1);
        self.catch_up_inflight = Some((peer, ctx.now(), ctx.now() + wait));
        ctx.set_timer(wait, TAG_CATCHUP);
    }

    /// Serves a catch-up request: builds a package from this node's
    /// latest finalized block (or stays silent if not ahead of the
    /// requester or the beacon history was purged too deep — the
    /// requester's timeout rotates it to another peer).
    fn on_catch_up_request(
        &mut self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        from: NodeIndex,
        have_round: Round,
    ) {
        let Some(mut pkg) = self.core.build_catch_up_package(have_round) else {
            return;
        };
        if self.forge_catch_up {
            // A forged finalization: reuse the notarization's aggregate
            // signature, which signs the wrong domain. Structurally
            // plausible, cryptographically invalid.
            pkg.finalization.sig = pkg.notarization.sig.clone();
        }
        ctx.send(
            from,
            GossipMessage::CatchUpResponse {
                package: Box::new(pkg),
            },
        );
    }

    /// Verifies and installs a received catch-up package. On success the
    /// node fast-forwards (and may immediately request another package
    /// if still behind); on rejection the forging peer is dropped from
    /// the ahead set and the next peer is tried.
    fn on_catch_up_response(
        &mut self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        from: NodeIndex,
        pkg: CatchUpPackage,
    ) {
        let matched = matches!(self.catch_up_inflight, Some((p, _, _)) if p == from);
        let latency = match self.catch_up_inflight {
            Some((p, sent, _)) if p == from => {
                self.catch_up_inflight = None;
                Some(ctx.now().saturating_since(sent))
            }
            _ => None,
        };
        match self.core.apply_catch_up(&pkg, ctx.now()) {
            Ok(step) => {
                self.catch_up_attempts = 0;
                let rec = self.core.recovery_stats_mut();
                rec.catch_up_bytes += pkg.encoded_len() as u64;
                if let Some(lat) = latency {
                    rec.catch_up_latency_us += lat.as_micros();
                }
                self.apply_step(ctx, step);
                self.maybe_request_catch_up(ctx);
            }
            Err(CatchUpError::Stale | CatchUpError::Halted) => {
                // A duplicate or raced response, or a replica that has
                // stopped: nothing to count, nobody to blame.
            }
            Err(_) => {
                self.core.recovery_stats_mut().catch_up_rejected += 1;
                if matched {
                    // Stop trusting this peer's advertised round; the
                    // rotation moves on to the next candidate.
                    self.peer_rounds.remove(&from);
                    self.catch_up_rotation += 1;
                    self.maybe_request_catch_up(ctx);
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
        if matches!(self.config.mode, DisseminationMode::Routed) {
            ctx.set_timer(STALL_TIMEOUT, TAG_LIVENESS);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        from: NodeIndex,
        msg: Self::Msg,
    ) {
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
                    if round > self.last_aggregated_round {
                        self.last_aggregated_round = round;
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
            GossipMessage::Request { id } => self.on_request(ctx, from, id),
            GossipMessage::Deliver { id, proposal } => {
                self.pending.remove(&id);
                if !self.stale(proposal.block.round()) {
                    self.ingest(ctx, &ConsensusMessage::Proposal(proposal));
                }
            }
            GossipMessage::CatchUpRequest { have_round } => {
                self.on_catch_up_request(ctx, from, have_round)
            }
            GossipMessage::CatchUpResponse { package } => {
                self.on_catch_up_response(ctx, from, *package)
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, tag: u64) {
        match tag {
            TAG_SWEEP => {
                self.sweep_armed = false;
                // Drop requests whose body arrived through another path
                // (e.g. a targeted push) — the pool is the source of
                // truth for held bodies — and requests gone stale (round
                // below the committed round): without this the sweep
                // would re-request them forever.
                let pool = self.core.pool();
                let committed = self.core.committed_round();
                self.pending
                    .retain(|id, req| req.round >= committed && pool.block(id).is_none());
                // Re-request every still-missing body whose per-entry
                // backoff has elapsed, from the next advertiser that is
                // up (round-robin, skipping crashed peers), lowest round
                // first: the earliest missing block is the one gating
                // progress. Each retry doubles the entry's backoff up to
                // the cap so a body nobody can serve anymore
                // decays to a trickle instead of a drumbeat.
                let now = ctx.now();
                let mut retries: Vec<(Round, Hash256, NodeIndex, u32)> = Vec::new();
                for (id, req) in self.pending.iter_mut() {
                    if now < req.next_retry_at {
                        continue;
                    }
                    let n = req.advertisers.len();
                    let mut chosen = None;
                    for k in 1..=n {
                        let idx = (req.next_advertiser + k) % n;
                        let up = req.advertisers.get(idx).filter(|p| ctx.peer_up(**p));
                        if let Some(&peer) = up {
                            req.next_advertiser = idx;
                            chosen = Some(peer);
                            break;
                        }
                    }
                    req.attempts = req.attempts.saturating_add(1);
                    req.next_retry_at = now + backoff_after(req.attempts);
                    if let Some(peer) = chosen {
                        retries.push((req.round, *id, peer, req.attempts));
                    }
                }
                retries.sort_by_key(|(round, id, _, _)| (*round, *id));
                let me = ctx.me().get();
                let at_us = now.as_micros();
                for (round, id, peer, attempts) in retries {
                    ctx.send(peer, GossipMessage::Request { id });
                    self.core.telemetry_mut().record(SpanEvent {
                        at_us,
                        node: me,
                        round: round.get(),
                        kind: SpanKind::GossipRetry { attempts },
                    });
                }
                // The sweep is the one periodic heartbeat every mode
                // arms, so it doubles as the anomaly detector's clock:
                // a stalled round emits no spans, only this tick can
                // flag it.
                self.core.telemetry_mut().tick(at_us);
                self.arm_sweep(ctx);
            }
            TAG_LIVENESS => {
                let committed = self.core.committed_round();
                if committed > self.last_progress_round {
                    self.last_progress_round = committed;
                    self.stall_attempts = 0;
                } else if self.config.mode == DisseminationMode::Routed {
                    // No progress for a whole watchdog period: the
                    // round's aggregator set may be crashed or silent.
                    // Re-send our own recent shares to an exponentially
                    // widened set — it eventually covers the subnet, so
                    // an honest live aggregator is always reached.
                    self.stall_attempts = self.stall_attempts.saturating_add(1);
                    let n = self.overlay.n();
                    let widened = ROUTED_AGGREGATORS
                        .saturating_mul(1usize << self.stall_attempts.min(10))
                        .min(n);
                    let me = ctx.me();
                    let resend: Vec<(Round, PushedArtifact)> = self
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
                if matches!(self.config.mode, DisseminationMode::Routed) {
                    ctx.set_timer(STALL_TIMEOUT, TAG_LIVENESS);
                }
            }
            TAG_CATCHUP => {
                match self.catch_up_inflight {
                    // The in-flight request timed out unanswered: rotate
                    // to the next ahead peer (with a longer backoff).
                    Some((_, _, deadline)) if ctx.now() >= deadline => {
                        self.catch_up_inflight = None;
                        self.catch_up_rotation += 1;
                        self.maybe_request_catch_up(ctx);
                    }
                    // A stale timer from an earlier request; the current
                    // one has its own timer pending.
                    Some(_) => {}
                    None => self.maybe_request_catch_up(ctx),
                }
            }
            _ => {
                let fired: Vec<u64> = self
                    .core_wakeups
                    .range(..=ctx.now().as_micros())
                    .copied()
                    .collect();
                for f in fired {
                    self.core_wakeups.remove(&f);
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
        // Everything in the gossip layer is volatile: flood dedup,
        // outstanding requests, peer round intelligence. Only the
        // core's durable store survives.
        self.seen_pushes.clear();
        self.adverted.clear();
        self.pending.clear();
        self.sweep_armed = false;
        self.core_wakeups.clear();
        self.peer_rounds.clear();
        self.catch_up_inflight = None;
        self.catch_up_attempts = 0;
        self.catch_up_rotation = 0;
        // `counters` deliberately survives, like the core's telemetry.
        self.routed_recent.clear();
        self.last_progress_round = Round::GENESIS;
        self.stall_attempts = 0;
        self.last_aggregated_round = Round::GENESIS;
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        let step = self.core.restore(ctx.now());
        self.apply_step(ctx, step);
        if matches!(self.config.mode, DisseminationMode::Routed) {
            ctx.set_timer(STALL_TIMEOUT, TAG_LIVENESS);
        }
    }

    /// Evicts a peer that left the membership. Without this the sweep
    /// kept retrying bodies whose only advertiser was gone: `peer_up`
    /// suppressed the send, but the entry (and its ever-growing backoff
    /// state) lingered forever and kept the sweep timer armed.
    fn on_peer_departed(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        peer: NodeIndex,
    ) {
        // Drop its advertised-round intelligence: a departed peer must
        // never be picked as a catch-up target again.
        self.peer_rounds.remove(&peer);
        // Strip it from outstanding requests' advertiser lists; requests
        // nobody else advertises are dropped outright.
        self.pending.retain(|_, req| {
            req.advertisers.retain(|a| *a != peer);
            if req.next_advertiser >= req.advertisers.len() {
                req.next_advertiser = 0;
            }
            !req.advertisers.is_empty()
        });
        // An in-flight catch-up request to the departed peer will never
        // be answered: rotate to the next ahead peer immediately.
        if matches!(self.catch_up_inflight, Some((p, _, _)) if p == peer) {
            self.catch_up_inflight = None;
            self.catch_up_rotation += 1;
            self.maybe_request_catch_up(ctx);
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
            have_round: Round::new(42),
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
        assert_eq!(node.seen_pushes.len(), 1, "only the own share");
        assert!(node.adverted.is_empty());
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
        assert!(node.core().pool().block(&id).is_none() && node.adverted.is_empty());
        assert_eq!(node.pending_requests(), 0);
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
