//! The artifact pool (paper §3.1, §3.4).
//!
//! Each party holds a pool of the artifacts it has received (including
//! from itself). The paper's pool never deletes (§3.1) and mentions a
//! purge it elides; here [`Pool::purge_below`] *is* that purge, and the
//! core runs it on every commit, so a pool holds the rounds in flight
//! plus a fixed depth below the finalized tip — a finalized prefix never
//! changes, so nothing below it can matter to this party again. Two
//! retentions, one [`floor`](Pool::floor): blocks, certificates and
//! shares go at the floor; beacon *values* stay [`BEACON_DEPTH`] rounds
//! longer, because a catch-up package must chain the beacon from the
//! round the requester stopped at. What arrives for a round below the
//! floor is dropped at the door.
//!
//! §3.4's block properties are properties *of a block*, and
//! are held that way: one `BlockEntry` per block hash carries all the
//! pool knows about it, and the classification is read off that record:
//!
//! * **authentic** — the body is held, with its authenticator (a valid
//!   `S_auth` signature by the claimed proposer);
//! * **valid** — authentic, and its parent is a *notarized* block of the
//!   previous round in this pool; a property of the whole ancestor
//!   chain, so the one flag the record stores;
//! * **notarized** / **finalized** — valid with a verified `(n−t)`
//!   notarization / finalization held (`root` is both by definition).
//!
//! Three indexes answer what the table cannot: `by_round` (the blocks
//! of round k, in arrival order), `pending_validity` (the bodies the
//! fixpoint can still promote) and `finalized_by_round` (the finalized
//! frontier). Everything the purge removes is reachable through a
//! round-ordered map, so a purge costs what it removes.
//! Messages are verified one at a time, on arrival, by one
//! write path ([`Pool::insert`]) with one route per artifact *shape*;
//! which certificate a share or aggregate belongs to (`Cert`) only
//! selects the scheme, the quorum and the share buckets. Per artifact:
//!
//! ```text
//!   round below the floor ──────────────────▶ dropped, no crypto
//!   duplicate of what is held ──────────────▶ dropped, no crypto
//!   structural check (round, signer index) ─▶ rejected, no crypto
//!   own / WAL-replayed artifact ────────────▶ trusted, no crypto
//!   epoch-membership gate ──────────────────▶ rejected, no crypto
//!   share after its quorum or aggregate ────▶ dropped unverified
//!   ONE signature check ────────────────────▶ rejected on failure
//!   insert into the block's record (validated.rs)
//! ```
//!
//! followed by one `recheck_validity` fixpoint per message. Two kinds
//! cannot be checked on arrival, because the message they sign chains
//! from the *previous* beacon value (§3.4): beacon shares are held
//! unchecked and verified at combine time (each at most once), and
//! combined beacon values whose predecessor is unknown wait in a small
//! bounded list until it lands.
//!
//! The seed's eager-verify pool survives as test code
//! (`tests/support/eager_pool.rs`), the differential-testing model.

// Nothing a peer sends may panic the pool.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

pub mod stats;
mod validated;

pub use stats::PoolStats;
pub use validated::CertifiedBlock;

use crate::epoch::EpochInfo;
use crate::keys::PublicSetup;
use crate::recovery::{CatchUpError, CatchUpPackage};
use crate::storage::Checkpoint;
use icc_crypto::beacon::{beacon_sign_message, BeaconValue};
use icc_crypto::multisig::{MultiSig, MultiSigScheme, MultiSigShare};
use icc_crypto::sig::Signature;
use icc_crypto::threshold::ThresholdSigShare;
use icc_crypto::Hash256;
use icc_types::block::HashedBlock;
use icc_types::messages::{
    domains, Beacon, BeaconShare, BlockRef, ConsensusMessage, Finalization, Notarization,
};
use icc_types::Round;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Combined beacon values that may wait for their predecessor at once;
/// beyond it the oldest is dropped.
const MAX_PARKED_BEACONS: usize = 1024;

/// How many rounds below the floor beacon values are kept (≈ 4 MB): the
/// furthest a peer can have fallen behind and still be served a
/// catch-up package, whose beacon segment starts where the peer stopped.
pub const BEACON_DEPTH: u64 = 65_536;

/// Removes the entries of `map` in rounds `1..bar` (genesis stays),
/// oldest first: the cost is what it removes.
fn drain_below<V>(map: &mut BTreeMap<Round, V>, bar: Round) -> impl Iterator<Item = V> + '_ {
    let first = Round::new(1);
    std::iter::from_fn(move || {
        let (&round, _) = map.range(first..bar.max(first)).next()?;
        map.remove(&round)
    })
}

/// Which of a block's two `(n − t)` certificates a share or aggregate
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cert {
    Notary,
    Finality,
}
use Cert::{Finality, Notary};

impl Cert {
    /// The signature scheme of this certificate and its `m − t` in
    /// `epoch`.
    fn signing<'a>(self, setup: &'a PublicSetup, epoch: &EpochInfo) -> (&'a MultiSigScheme, usize) {
        match self {
            Notary => (&setup.notary, epoch.notarization_threshold()),
            Finality => (&setup.finality, epoch.finalization_threshold()),
        }
    }
}

/// One artifact of a wire message, borrowed for the length of the
/// write path (a proposal carries two: its parent's notarization and
/// the block itself).
#[derive(Debug, Clone, Copy)]
enum Artifact<'a> {
    /// A block with its authenticator.
    Block(&'a HashedBlock, &'a Signature),
    Share(Cert, BlockRef, MultiSigShare),
    Aggregate(Cert, BlockRef, &'a MultiSig),
    BeaconShare(&'a BeaconShare),
    Beacon(&'a Beacon),
}

impl<'a> Artifact<'a> {
    /// Decomposes a wire message into its artifacts.
    fn of(msg: &'a ConsensusMessage) -> [Option<Artifact<'a>>; 2] {
        let notarization = |n: &'a Notarization| Artifact::Aggregate(Notary, n.block_ref, &n.sig);
        match msg {
            ConsensusMessage::Proposal(p) => [
                p.parent_notarization.as_ref().map(notarization),
                Some(Artifact::Block(&p.block, &p.authenticator)),
            ],
            ConsensusMessage::NotarizationShare(s) => {
                [Some(Artifact::Share(Notary, s.block_ref, s.share)), None]
            }
            ConsensusMessage::Notarization(n) => [Some(notarization(n)), None],
            ConsensusMessage::FinalizationShare(s) => {
                [Some(Artifact::Share(Finality, s.block_ref, s.share)), None]
            }
            ConsensusMessage::Finalization(f) => [
                Some(Artifact::Aggregate(Finality, f.block_ref, &f.sig)),
                None,
            ],
            ConsensusMessage::BeaconShare(b) => [Some(Artifact::BeaconShare(b)), None],
            ConsensusMessage::Beacon(b) => [Some(Artifact::Beacon(b)), None],
            // Client input, held by the core's command pool.
            ConsensusMessage::Commands { .. } => [None, None],
        }
    }

    /// The round the artifact belongs to.
    fn round(&self) -> Round {
        match self {
            Artifact::Block(block, _) => block.round(),
            Artifact::Share(_, block_ref, _) | Artifact::Aggregate(_, block_ref, _) => {
                block_ref.round
            }
            Artifact::BeaconShare(b) => b.round,
            Artifact::Beacon(b) => b.round,
        }
    }

    /// The block reference a signed artifact is over, if any.
    fn block_ref(&self) -> Option<BlockRef> {
        match self {
            Artifact::Block(block, _) => Some(BlockRef::of_hashed(block)),
            Artifact::Share(_, block_ref, _) | Artifact::Aggregate(_, block_ref, _) => {
                Some(*block_ref)
            }
            Artifact::BeaconShare(_) | Artifact::Beacon(_) => None,
        }
    }
}

/// Everything the pool holds about one block hash (§3.4). Whatever
/// arrives first creates it.
#[derive(Debug, Default)]
struct BlockEntry {
    /// The body: held ⇔ the block is authentic. Absent while only a
    /// certificate for the hash has arrived.
    body: Option<HashedBlock>,
    /// `S_auth` by the proposer, verified before the body was stored
    /// (`root` has none: it serves as its own).
    authenticator: Option<Signature>,
    /// Authentic, and the parent is a notarized block one round below.
    valid: bool,
    notarization: Option<Notarization>,
    finalization: Option<Finalization>,
}

impl BlockEntry {
    /// The held certificate of `kind`, as the reference and aggregate
    /// signature it consists of.
    fn cert(&self, kind: Cert) -> Option<(BlockRef, &MultiSig)> {
        match kind {
            Notary => self.notarization.as_ref().map(|n| (n.block_ref, &n.sig)),
            Finality => self.finalization.as_ref().map(|f| (f.block_ref, &f.sig)),
        }
    }

    /// Notarized / finalized (§3.4): valid with the certificate held;
    /// `root` serves as its own notarization and finalization.
    fn certified(&self, kind: Cert) -> bool {
        let root = || self.body.as_ref().is_some_and(|b| b.round().is_genesis());
        self.valid && (self.cert(kind).is_some() || root())
    }
}

/// Shares by the reference they *sign* (and were verified over), not by
/// block hash alone: a share over `{other round or proposer, H}`
/// verifies on its own, but must never count towards — or be combined
/// with — the quorum of the real block `H`. It sits in a bucket of its
/// own that no honest party adds to. Ordered (a reference sorts by
/// round first), for the purge.
type ShareBuckets = BTreeMap<BlockRef, BTreeMap<u32, MultiSigShare>>;

/// A beacon share as held: it signs a message that chains from the
/// previous beacon value, so it is checked at combine time, once.
#[derive(Debug, Clone, Copy)]
struct HeldBeaconShare {
    share: ThresholdSigShare,
    /// Already verified (or self-signed): a later combine attempt
    /// costs no crypto for it.
    checked: bool,
}

/// The per-party artifact pool and block classifier.
#[derive(Debug)]
pub struct Pool {
    setup: Arc<PublicSetup>,
    stats: PoolStats,
    /// The one table of block state.
    entries: HashMap<Hash256, BlockEntry>,
    /// Nothing below this round is held or accepted (beacon values
    /// excepted); raised by [`purge_below`](Self::purge_below).
    floor: Round,
    /// Held bodies by round, in arrival order.
    by_round: BTreeMap<Round, Vec<Hash256>>,
    /// Records a certificate created ahead of the body, under the round
    /// the certificate names.
    awaiting_body: BTreeMap<Round, Vec<Hash256>>,
    /// Blocks that are authentic but not yet valid (awaiting ancestors).
    pending_validity: HashSet<Hash256>,
    /// Finalized blocks indexed by round (P2 guarantees at most one).
    finalized_by_round: BTreeMap<Round, Hash256>,
    notarization_shares: ShareBuckets,
    finalization_shares: ShareBuckets,
    beacon_shares: BTreeMap<Round, BTreeMap<u32, HeldBeaconShare>>,
    beacons: BTreeMap<Round, BeaconValue>,
    /// Combined beacon values whose predecessor is not yet known, in
    /// arrival order (at most [`MAX_PARKED_BEACONS`]).
    parked_beacons: VecDeque<Beacon>,
}

/// Whether `value` is the round-`round` beacon: the unique threshold
/// signature over its predecessor `prev` (one group signature check).
fn beacon_value_ok(
    setup: &PublicSetup,
    stats: &mut PoolStats,
    round: Round,
    prev: &BeaconValue,
    value: &BeaconValue,
) -> bool {
    let BeaconValue::Signature(sig) = value else {
        return false;
    };
    stats.verify_calls += 1;
    let msg = beacon_sign_message(round.get(), prev);
    setup.beacon.verify(&msg, sig)
}

impl Pool {
    /// An empty pool for a party of the given setup. The genesis block
    /// is pre-inserted as valid — hence notarized and finalized (§3.4:
    /// `root` serves as its own authenticator, notarization and
    /// finalization) — and `R_0` as the round-0 beacon.
    pub fn new(setup: Arc<PublicSetup>) -> Pool {
        let genesis = setup.genesis.clone();
        let ghash = genesis.hash();
        let root = BlockEntry {
            body: Some(genesis),
            valid: true,
            ..BlockEntry::default()
        };
        Pool {
            stats: PoolStats::default(),
            entries: HashMap::from([(ghash, root)]),
            floor: Round::GENESIS,
            by_round: BTreeMap::from([(Round::GENESIS, vec![ghash])]),
            awaiting_body: BTreeMap::new(),
            pending_validity: HashSet::new(),
            finalized_by_round: BTreeMap::from([(Round::GENESIS, ghash)]),
            notarization_shares: BTreeMap::new(),
            finalization_shares: BTreeMap::new(),
            beacon_shares: BTreeMap::new(),
            beacons: BTreeMap::from([(Round::GENESIS, setup.genesis_beacon)]),
            parked_beacons: VecDeque::new(),
            setup,
        }
    }

    /// The pool's observability counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// The round below which nothing is held or accepted: the one
    /// retention bound every layer reads (genesis until the first
    /// purge).
    pub fn floor(&self) -> Round {
        self.floor
    }

    fn buckets(&self, kind: Cert) -> &ShareBuckets {
        match kind {
            Notary => &self.notarization_shares,
            Finality => &self.finalization_shares,
        }
    }

    /// Whether the `kind` aggregate for `hash` is held (its block may
    /// not be).
    fn holds_cert(&self, kind: Cert, hash: &Hash256) -> bool {
        self.entries.get(hash).and_then(|e| e.cert(kind)).is_some()
    }

    // ------------------------------------------------------------------
    // The write path
    // ------------------------------------------------------------------

    /// Verifies and inserts an incoming message's artifacts. Returns
    /// `true` if anything new entered the classifier.
    pub fn insert(&mut self, msg: &ConsensusMessage) -> bool {
        self.insert_inner(msg, false)
    }

    /// Inserts an artifact this party produced and signed itself, or
    /// replays from its own WAL: the same path (dedup, structural
    /// check, classification) minus every signature verification.
    pub fn insert_owned(&mut self, msg: &ConsensusMessage) -> bool {
        self.insert_inner(msg, true)
    }

    fn insert_inner(&mut self, msg: &ConsensusMessage, trusted: bool) -> bool {
        let mut admitted = false;
        let mut changed = false;
        for artifact in Artifact::of(msg).into_iter().flatten() {
            if artifact.round() < self.floor {
                self.stats.stale_dropped += 1;
                continue;
            }
            if self.holds(&artifact) {
                self.stats.duplicates_dropped += 1;
                continue;
            }
            if !self.plausible(&artifact) {
                self.stats.rejected += 1;
                continue;
            }
            admitted = true;
            if trusted {
                changed |= self.store(artifact, true);
            } else if let Artifact::Beacon(b) = artifact {
                // Checked below, once the predecessor is known.
                if self.parked_beacons.len() == MAX_PARKED_BEACONS {
                    self.parked_beacons.pop_front();
                }
                self.parked_beacons.push_back(*b);
            } else {
                match self.verify(&artifact) {
                    Some(true) => changed |= self.store(artifact, false),
                    Some(false) => self.stats.rejected += 1,
                    None => self.stats.shares_skipped_after_quorum += 1,
                }
            }
        }
        // Parked beacon values (one just admitted included) are tried
        // whenever a message brought something new.
        if admitted {
            changed |= self.settle_parked_beacons();
        }
        if changed {
            self.recheck_validity();
        }
        changed
    }

    /// Whether an identical artifact is already held. Duplicates never
    /// reach verification.
    fn holds(&self, artifact: &Artifact<'_>) -> bool {
        match artifact {
            Artifact::Block(block, _) => self.block(&block.hash()).is_some(),
            Artifact::Aggregate(kind, block_ref, _) => self.holds_cert(*kind, &block_ref.hash),
            Artifact::Share(kind, block_ref, share) => {
                let bucket = self.buckets(*kind).get(block_ref);
                bucket.is_some_and(|m| m.contains_key(&share.signer))
            }
            Artifact::BeaconShare(b) => {
                let bucket = self.beacon_shares.get(&b.round);
                bucket.is_some_and(|m| m.contains_key(&b.share.signer))
            }
            // Any value for an already-known round is redundant: the
            // beacon scheme is unique, so a verified competitor would be
            // byte-identical anyway.
            Artifact::Beacon(b) => {
                self.beacons.contains_key(&b.round) || self.parked_beacons.contains(b)
            }
        }
    }

    /// Structural checks: no crypto, just plausibility.
    fn plausible(&self, artifact: &Artifact<'_>) -> bool {
        let n = self.setup.config.n();
        match artifact {
            Artifact::Block(block, _) => {
                !block.round().is_genesis() && block.proposer().as_usize() < n
            }
            Artifact::Share(_, _, share) => (share.signer as usize) < n,
            Artifact::BeaconShare(b) => (b.share.signer as usize) < n,
            // Non-genesis rounds only ever carry Signature values; the
            // genesis seed is baked into every party's setup.
            Artifact::Beacon(b) => {
                !b.round.is_genesis() && matches!(b.value, BeaconValue::Signature(_))
            }
            Artifact::Aggregate(..) => true,
        }
    }

    /// The cryptographic half of the write path for one network
    /// artifact: whether it may enter the classifier — or `None` for a
    /// share that is dropped unverified.
    ///
    /// Per-epoch signer sets: the proposer of a block, every signer of
    /// an aggregate, and every share signer must be a *member* of the
    /// epoch governing the artifact's round. Departed (or
    /// not-yet-joined) parties hold valid universe keys, so the
    /// membership gate — not signature verification — is what refuses
    /// them.
    fn verify(&mut self, artifact: &Artifact<'_>) -> Option<bool> {
        // Beacon shares are verified at combine time (§3.4).
        let Some(block_ref) = artifact.block_ref() else {
            return Some(true);
        };
        let epoch = self.setup.epoch_of(block_ref.round);
        Some(match *artifact {
            Artifact::Block(_, authenticator) => {
                let proposer = block_ref.proposer;
                match self.setup.auth_keys.get(proposer.as_usize()) {
                    Some(pk) if epoch.is_member(proposer.get()) => {
                        self.stats.verify_calls += 1;
                        pk.verify(domains::AUTH, &block_ref.sign_bytes(), authenticator)
                    }
                    _ => false,
                }
            }
            Artifact::Aggregate(kind, _, sig) => {
                let (scheme, need) = kind.signing(&self.setup, epoch);
                self.stats.verify_calls += 1;
                scheme.verify_subset(&block_ref.sign_bytes(), sig, need, &epoch.members)
            }
            Artifact::Share(kind, _, share) => {
                let (scheme, need) = kind.signing(&self.setup, epoch);
                if !epoch.is_member(share.signer) {
                    return Some(false);
                }
                // Early stop: once the pool holds the aggregate — or a
                // full quorum of shares — for a block, further shares
                // cannot change any decision (not a failure: never
                // counted as rejected). This is what keeps per-round
                // signature work bounded by the threshold instead of the
                // subnet size.
                let held = || self.buckets(kind).get(&block_ref).map_or(0, BTreeMap::len);
                if self.holds_cert(kind, &block_ref.hash) || held() >= need {
                    return None;
                }
                self.stats.verify_calls += 1;
                scheme.verify_share(&block_ref.sign_bytes(), &share)
            }
            // No block reference: returned above.
            Artifact::BeaconShare(_) | Artifact::Beacon(_) => true,
        })
    }

    /// Decides every parked beacon value against the beacon chain as it
    /// stands: redundant once its round is known, verified (one group
    /// signature check) once its predecessor is, left waiting
    /// otherwise. All decisions of one pass read the same chain; the
    /// accepted values are installed after it.
    fn settle_parked_beacons(&mut self) -> bool {
        let mut accepted = Vec::new();
        let (beacons, setup, stats) = (&self.beacons, &self.setup, &mut self.stats);
        self.parked_beacons.retain(|b| {
            if beacons.contains_key(&b.round) {
                return false;
            }
            let Some(prev) = b.round.prev().and_then(|p| beacons.get(&p)) else {
                return true;
            };
            if beacon_value_ok(setup, stats, b.round, prev, &b.value) {
                accepted.push(*b);
            } else {
                stats.rejected += 1;
            }
            false
        });
        let mut changed = false;
        for b in accepted {
            changed |= self.install_beacon_trusted(b.round, b.value);
        }
        changed
    }

    // ------------------------------------------------------------------
    // Certified installs (checkpoint restore and catch-up)
    // ------------------------------------------------------------------

    /// Installs a checkpoint this replica took itself: its block becomes
    /// a certified root (valid + notarized + finalized without the
    /// parent chain — the finalization vouches for the prefix) and its
    /// beacon value anchors the restored beacon chain. Trusted path —
    /// no verification; the certificates were verified (or produced)
    /// before the checkpoint was written. Network echoes of them are
    /// duplicates of what is then held, so they never verify either.
    pub fn install_checkpoint(&mut self, cp: &Checkpoint) {
        self.install_beacon_trusted(cp.round(), cp.beacon);
        self.install_certified_root(&cp.proposal, &cp.notarization, &cp.finalization);
    }

    /// Verifies a [`CatchUpPackage`] against the subnet's public keys
    /// and, on success, installs its block as a certified root and its
    /// beacon segment. A certificate equal to the one this pool already
    /// holds for the block was verified when it entered and is not
    /// verified again (counted in `verify_cache_hits`); everything else
    /// counts into `verify_calls`, and any failure rejects the whole
    /// package with nothing installed.
    ///
    /// When the package's block lies in a later epoch than this
    /// replica's finalized knowledge, the package must carry one
    /// [`EpochTransition`](crate::recovery::EpochTransition) per crossed
    /// boundary; each link is verified under the *outgoing* epoch's
    /// signer set before the target epoch's certificates are trusted.
    /// Returns the number of epoch boundaries the verified chain
    /// crossed (0 for a same-epoch catch-up).
    pub fn verify_and_install_catch_up(
        &mut self,
        pkg: &CatchUpPackage,
    ) -> Result<usize, CatchUpError> {
        let verified = self.verify_catch_up(pkg);
        let (crossed, beacons) = verified.inspect_err(|_| self.stats.rejected += 1)?;
        for (r, v) in beacons {
            self.install_beacon_trusted(r, v);
        }
        self.install_certified_root(&pkg.proposal, &pkg.notarization, &pkg.finalization);
        Ok(crossed)
    }

    /// A catch-up certificate costs a cache hit if already `held`, the
    /// write path's check otherwise.
    fn held_or_verified(&mut self, held: bool, artifact: Artifact<'_>) -> bool {
        self.stats.verify_cache_hits += u64::from(held);
        held || self.verify(&artifact) == Some(true)
    }

    /// The read-only half of catch-up: every check of the package,
    /// returning the epoch boundaries crossed and the verified beacon
    /// segment to install. Its certificates are the artifacts the write
    /// path sees and take the same check ([`verify`](Self::verify)).
    fn verify_catch_up(
        &mut self,
        pkg: &CatchUpPackage,
    ) -> Result<(usize, Vec<(Round, BeaconValue)>), CatchUpError> {
        let block = &pkg.proposal.block;
        let round = block.round();
        let bref = BlockRef::of_hashed(block);
        if pkg.notarization.block_ref != bref || pkg.finalization.block_ref != bref {
            return Err(CatchUpError::Mismatched);
        }

        // Cross-epoch certificate chain first: the later per-epoch
        // checks assume the target epoch is reachable from what this
        // replica already finalized.
        let target_epoch = self.setup.epoch_index_of(round);
        let local_epoch = self.setup.epoch_index_of(self.latest_finalized_round());
        let links = &pkg.transitions;
        let mut pairs = links.iter().zip(links.iter().skip(1));
        if !pairs.all(|(a, b)| a.epoch < b.epoch) {
            return Err(CatchUpError::BadTransition);
        }
        for e in (local_epoch + 1)..=target_epoch {
            let Some(link) = links.iter().find(|t| t.epoch == e as u64) else {
                return Err(CatchUpError::MissingTransition);
            };
            // The handoff block must belong to the outgoing epoch, so
            // that is the signer set its certificates are checked under.
            let link_ref = link.finalization.block_ref;
            let certs = [
                Artifact::Aggregate(Notary, link_ref, &link.notarization.sig),
                Artifact::Aggregate(Finality, link_ref, &link.finalization.sig),
            ];
            if link.notarization.block_ref != link_ref
                || self.setup.epoch_index_of(link_ref.round) + 1 != e
                || !certs.iter().all(|c| self.verify(c) == Some(true))
            {
                return Err(CatchUpError::BadTransition);
            }
        }

        // The block's authenticator (S_auth by the claimed proposer, a
        // member of its epoch) and its two aggregates under the epoch's
        // signer set; the finalization is the actual catch-up
        // certificate. What equals the pool's own copy was verified on
        // the way in.
        let auth = &pkg.proposal.authenticator;
        let (n, f) = (&pkg.notarization.sig, &pkg.finalization.sig);
        let held = self.entries.get(&bref.hash);
        let held_cert = |kind, sig| held.and_then(|e| e.cert(kind)) == Some((bref, sig));
        let auth_held = held.and_then(|e| e.authenticator.as_ref()) == Some(auth);
        let (n_held, f_held) = (held_cert(Notary, n), held_cert(Finality, f));
        if !self.held_or_verified(auth_held, Artifact::Block(block, auth)) {
            return Err(CatchUpError::BadAuthenticator);
        }
        if !self.held_or_verified(n_held, Artifact::Aggregate(Notary, bref, n)) {
            return Err(CatchUpError::BadNotarization);
        }
        if !self.held_or_verified(f_held, Artifact::Aggregate(Finality, bref, f)) {
            return Err(CatchUpError::BadFinalization);
        }

        // Beacon segment: anchored at a locally-known value and
        // consecutive from there, each entry the unique threshold
        // signature over its predecessor.
        let mut staged: Vec<(Round, BeaconValue)> = Vec::with_capacity(pkg.beacons.len());
        for &(r, v) in &pkg.beacons {
            let prev = match staged.last() {
                Some(&(last, value)) => (last.next() == r).then_some(value),
                None => r.prev().and_then(|p| self.beacon(p)).copied(),
            };
            let (setup, stats) = (&self.setup, &mut self.stats);
            if !prev.is_some_and(|prev| beacon_value_ok(setup, stats, r, &prev, &v)) {
                return Err(CatchUpError::BadBeacon);
            }
            staged.push((r, v));
        }
        // Coverage: to *act* after catch-up the replica must be able to
        // enter round `round + 1`, which needs that round's beacon.
        let staged_upto = staged.last().map_or(Round::GENESIS, |(r, _)| *r);
        if staged_upto.max(self.latest_beacon_round()) < round.next() {
            return Err(CatchUpError::Truncated);
        }
        Ok((target_epoch.saturating_sub(local_epoch), staged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts;
    use crate::keys::{generate_keys, NodeKeys};
    use icc_types::block::{Block, Payload};
    use icc_types::SubnetConfig;

    fn keys() -> Vec<NodeKeys> {
        generate_keys(SubnetConfig::new(4), 11)
    }

    fn block_at(keys: &NodeKeys, round: u64, parent: Hash256, tag: u8) -> HashedBlock {
        Block::new(
            Round::new(round),
            keys.index,
            parent,
            Payload::from_commands(vec![icc_types::Command::new(vec![tag])]),
        )
        .into_hashed()
    }

    fn notarize(keys: &[NodeKeys], block: &HashedBlock) -> Notarization {
        let r = BlockRef::of_hashed(block);
        let shares = keys
            .iter()
            .take(keys[0].setup.config.notarization_threshold())
            .map(|k| artifacts::notarization_share(k, r).share);
        Notarization {
            block_ref: r,
            sig: keys[0]
                .setup
                .notary
                .combine(&r.sign_bytes(), shares)
                .unwrap(),
        }
    }

    fn finalize(keys: &[NodeKeys], block: &HashedBlock) -> Finalization {
        let r = BlockRef::of_hashed(block);
        let shares = keys
            .iter()
            .take(keys[0].setup.config.finalization_threshold())
            .map(|k| artifacts::finalization_share(k, r).share);
        Finalization {
            block_ref: r,
            sig: keys[0]
                .setup
                .finality
                .combine(&r.sign_bytes(), shares)
                .unwrap(),
        }
    }

    #[test]
    fn genesis_preclassified() {
        let ks = keys();
        let pool = Pool::new(Arc::clone(&ks[0].setup));
        let g = ks[0].setup.genesis.hash();
        assert!(pool.is_valid(&g));
        assert!(pool.is_notarized(&g));
        assert!(pool.is_finalized(&g));
        assert_eq!(
            pool.beacon(Round::GENESIS),
            Some(&ks[0].setup.genesis_beacon)
        );
    }

    #[test]
    fn round1_block_becomes_valid_then_notarized() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b = block_at(&ks[1], 1, ks[0].setup.genesis.hash(), 1);
        let p = artifacts::proposal(&ks[1], b.clone(), None);
        assert!(pool.insert(&ConsensusMessage::Proposal(p)));
        assert!(pool.is_valid(&b.hash()));
        assert!(!pool.is_notarized(&b.hash()));
        let n = notarize(&ks, &b);
        assert!(pool.insert(&ConsensusMessage::Notarization(n)));
        assert!(pool.is_notarized(&b.hash()));
        assert_eq!(
            pool.notarized_block(Round::new(1)).unwrap().0.hash(),
            b.hash()
        );
    }

    #[test]
    fn forged_authenticator_rejected() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b = block_at(&ks[1], 1, ks[0].setup.genesis.hash(), 1);
        // Signed by party 2, claiming to be party 1's block.
        let mut p = artifacts::proposal(&ks[1], b, None);
        p.authenticator = ks[2].auth.sign(domains::AUTH, b"junk");
        assert!(!pool.insert(&ConsensusMessage::Proposal(p)));
        assert_eq!(pool.stats().rejected, 1);
        assert!(pool.valid_blocks(Round::new(1)).is_empty());
        // The forgery left nothing behind.
        assert_eq!(pool.block_count(), 1);
    }

    #[test]
    fn orphan_block_validates_when_parent_notarizes() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b1 = block_at(&ks[1], 1, ks[0].setup.genesis.hash(), 1);
        let b2 = block_at(&ks[2], 2, b1.hash(), 2);
        // Child arrives first: authentic but not valid.
        let p2 = artifacts::proposal(&ks[2], b2.clone(), Some(notarize(&ks, &b1)));
        pool.insert(&ConsensusMessage::Proposal(p2));
        assert!(!pool.is_valid(&b2.hash()));
        // Parent proposal arrives: the notarization (already held) plus
        // the body make the parent notarized, cascading to the child.
        let p1 = artifacts::proposal(&ks[1], b1.clone(), None);
        pool.insert(&ConsensusMessage::Proposal(p1));
        assert!(pool.is_notarized(&b1.hash()));
        assert!(pool.is_valid(&b2.hash()));
    }

    #[test]
    fn completable_notarization_requires_quorum_and_validity() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b = block_at(&ks[0], 1, ks[0].setup.genesis.hash(), 1);
        let r = BlockRef::of_hashed(&b);
        pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
            &ks[0],
            b.clone(),
            None,
        )));
        // Two of three required shares: not completable.
        for k in &ks[..2] {
            pool.insert(&ConsensusMessage::NotarizationShare(
                artifacts::notarization_share(k, r),
            ));
        }
        assert!(pool.completable_notarization(Round::new(1)).is_none());
        pool.insert(&ConsensusMessage::NotarizationShare(
            artifacts::notarization_share(&ks[2], r),
        ));
        let n = pool.completable_notarization(Round::new(1)).unwrap();
        assert_eq!(n.block_ref.hash, b.hash());
        assert!(ks[0].setup.notary.verify(&r.sign_bytes(), &n.sig));
        // Once notarized, it is no longer "completable".
        pool.insert(&ConsensusMessage::Notarization(n));
        assert!(pool.completable_notarization(Round::new(1)).is_none());
    }

    #[test]
    fn invalid_share_rejected_and_counted() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b = block_at(&ks[0], 1, ks[0].setup.genesis.hash(), 1);
        let r = BlockRef::of_hashed(&b);
        let mut s = artifacts::notarization_share(&ks[1], r);
        s.share.signer = 2; // claim someone else produced it
        assert!(!pool.insert(&ConsensusMessage::NotarizationShare(s)));
        let st = pool.stats();
        assert_eq!(
            (st.rejected, st.verify_calls),
            (1, 1),
            "one check, one reject"
        );
    }

    /// The property the old batch fallback existed for: a forged share
    /// arriving ahead of the valid ones costs them nothing — not even
    /// the forger's own later, genuine share.
    #[test]
    fn forged_share_ahead_of_valid_ones_still_completes_quorum() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b = block_at(&ks[0], 1, ks[0].setup.genesis.hash(), 1);
        let r = BlockRef::of_hashed(&b);
        pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
            &ks[0],
            b.clone(),
            None,
        )));
        let mut forged = artifacts::notarization_share(&ks[3], r);
        forged.share.signer = 1;
        assert!(!pool.insert(&ConsensusMessage::NotarizationShare(forged)));
        for k in &ks[..3] {
            assert!(pool.insert(&ConsensusMessage::NotarizationShare(
                artifacts::notarization_share(k, r)
            )));
        }
        assert_eq!(pool.stats().rejected, 1);
        assert!(pool.completable_notarization(Round::new(1)).is_some());
    }

    /// The early stop: a share that arrives once its block's quorum or
    /// aggregate is held is dropped without a signature check.
    #[test]
    fn shares_after_quorum_or_aggregate_skip_verification() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b = block_at(&ks[0], 1, ks[0].setup.genesis.hash(), 1);
        let r = BlockRef::of_hashed(&b);
        let share =
            |k: &NodeKeys| ConsensusMessage::FinalizationShare(artifacts::finalization_share(k, r));
        for k in &ks[..3] {
            assert!(pool.insert(&share(k)));
        }
        assert_eq!(pool.stats().verify_calls, 3);
        // Fourth share of a quorum of three.
        assert!(!pool.insert(&share(&ks[3])));
        // Any notarization share once the notarization itself is held.
        pool.insert(&ConsensusMessage::Notarization(notarize(&ks, &b)));
        assert!(!pool.insert(&ConsensusMessage::NotarizationShare(
            artifacts::notarization_share(&ks[0], r)
        )));
        let st = pool.stats();
        assert_eq!(st.verify_calls, 4, "three shares and the aggregate");
        assert_eq!(st.shares_skipped_after_quorum, 2);
        assert_eq!(st.rejected, 0, "a skipped share is not a failure");
    }

    #[test]
    fn finalization_flow_and_chain_walk() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b1 = block_at(&ks[1], 1, ks[0].setup.genesis.hash(), 1);
        let b2 = block_at(&ks[2], 2, b1.hash(), 2);
        pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
            &ks[1],
            b1.clone(),
            None,
        )));
        pool.insert(&ConsensusMessage::Notarization(notarize(&ks, &b1)));
        pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
            &ks[2],
            b2.clone(),
            Some(notarize(&ks, &b1)),
        )));
        pool.insert(&ConsensusMessage::Notarization(notarize(&ks, &b2)));
        assert!(pool.finalized_above(Round::GENESIS).is_none());
        pool.insert(&ConsensusMessage::Finalization(finalize(&ks, &b2)));
        let f = pool.finalized_above(Round::GENESIS).unwrap();
        assert_eq!(f.hash(), b2.hash());
        let chain = pool.chain_back_to(&b2, Round::GENESIS).unwrap();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].hash(), b1.hash());
        assert_eq!(chain[1].hash(), b2.hash());
        let partial = pool.chain_back_to(&b2, Round::new(1)).unwrap();
        assert_eq!(partial.len(), 1);
        assert_eq!(partial[0].hash(), b2.hash());
    }

    #[test]
    fn completable_finalization() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b1 = block_at(&ks[1], 1, ks[0].setup.genesis.hash(), 1);
        let r = BlockRef::of_hashed(&b1);
        pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
            &ks[1],
            b1.clone(),
            None,
        )));
        for k in &ks[..3] {
            pool.insert(&ConsensusMessage::FinalizationShare(
                artifacts::finalization_share(k, r),
            ));
        }
        let f = pool.completable_finalization(Round::GENESIS).unwrap();
        assert_eq!(f.block_ref.hash, b1.hash());
        // Not completable below the bar.
        assert!(pool.completable_finalization(Round::new(1)).is_none());
    }

    #[test]
    fn beacon_combines_at_threshold_and_drops_bad_shares() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let r1 = Round::new(1);
        let prev = ks[0].setup.genesis_beacon;
        // A garbage share (wrong round message) plus one good one: not
        // enough.
        let bad = artifacts::beacon_share(&ks[3], Round::new(2), &prev);
        pool.insert(&ConsensusMessage::BeaconShare(BeaconShare {
            round: r1,
            share: bad.share,
        }));
        pool.insert(&ConsensusMessage::BeaconShare(artifacts::beacon_share(
            &ks[0], r1, &prev,
        )));
        assert!(pool.try_compute_beacon(r1).is_none());
        assert_eq!(pool.beacon_share_count(r1), 1, "bad share dropped");
        // A second good share reaches t + 1 = 2.
        pool.insert(&ConsensusMessage::BeaconShare(artifacts::beacon_share(
            &ks[1], r1, &prev,
        )));
        let v = pool.try_compute_beacon(r1).unwrap();
        assert_eq!(pool.beacon(r1), Some(&v));
        // Beacon values chain: round 2 now computable from new shares.
        pool.insert(&ConsensusMessage::BeaconShare(artifacts::beacon_share(
            &ks[0],
            Round::new(2),
            &v,
        )));
        pool.insert(&ConsensusMessage::BeaconShare(artifacts::beacon_share(
            &ks[2],
            Round::new(2),
            &v,
        )));
        assert!(pool.try_compute_beacon(Round::new(2)).is_some());
    }

    #[test]
    fn wrong_depth_parent_rejected() {
        // A malicious proposer extends a round-1 block with a "round 3"
        // child; the child must never become valid.
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b1 = block_at(&ks[1], 1, ks[0].setup.genesis.hash(), 1);
        pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
            &ks[1],
            b1.clone(),
            None,
        )));
        pool.insert(&ConsensusMessage::Notarization(notarize(&ks, &b1)));
        let bad = block_at(&ks[2], 3, b1.hash(), 9);
        pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
            &ks[2],
            bad.clone(),
            None,
        )));
        assert!(!pool.is_valid(&bad.hash()));
    }

    #[test]
    fn purge_below_keeps_recent_and_genesis() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b1 = block_at(&ks[1], 1, ks[0].setup.genesis.hash(), 1);
        let b2 = block_at(&ks[2], 2, b1.hash(), 2);
        pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
            &ks[1],
            b1.clone(),
            None,
        )));
        pool.insert(&ConsensusMessage::Notarization(notarize(&ks, &b1)));
        pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
            &ks[2],
            b2.clone(),
            Some(notarize(&ks, &b1)),
        )));
        assert_eq!(pool.block_count(), 3); // genesis + 2
        pool.purge_below(Round::new(2));
        assert_eq!(pool.block_count(), 2); // genesis + b2
        assert!(pool.block(&b1.hash()).is_none());
        assert!(pool.block(&b2.hash()).is_some());
    }

    /// Share buckets go with the round they sign — a share over a
    /// made-up reference to a held block with its claimed round — and
    /// with nothing else: one whose block body has not arrived yet stays.
    #[test]
    fn purge_prunes_share_buckets() {
        let ks = keys();
        let genesis = ks[0].setup.genesis.hash();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let mut parent = genesis;
        for round in 1..=4u64 {
            let b = block_at(&ks[1], round, parent, round as u8);
            let notarization = pool.notarization_of(&parent).cloned();
            pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
                &ks[1],
                b.clone(),
                notarization,
            )));
            pool.insert(&ConsensusMessage::Notarization(notarize(&ks, &b)));
            pool.insert(&ConsensusMessage::FinalizationShare(
                artifacts::finalization_share(&ks[0], BlockRef::of_hashed(&b)),
            ));
            parent = b.hash();
        }
        // A finalization share for a round-5 block this pool has not
        // seen yet, and one over a made-up round-1 reference to the
        // round-4 block.
        let unseen = block_at(&ks[2], 5, parent, 99);
        pool.insert(&ConsensusMessage::FinalizationShare(
            artifacts::finalization_share(&ks[2], BlockRef::of_hashed(&unseen)),
        ));
        let made_up = BlockRef {
            round: Round::new(1),
            proposer: ks[1].index,
            hash: parent,
        };
        pool.insert(&ConsensusMessage::FinalizationShare(
            artifacts::finalization_share(&ks[3], made_up),
        ));
        let rounds = |pool: &Pool| -> Vec<u64> {
            let refs = pool.finalization_shares.keys();
            refs.map(|r| r.round.get()).collect()
        };
        assert_eq!(rounds(&pool), [1, 1, 2, 3, 4, 5]);

        pool.purge_below(Round::new(3));
        assert_eq!(rounds(&pool), [3, 4, 5]);
        assert!(pool.completable_finalization(Round::GENESIS).is_none());
    }

    /// One floor, two retentions: below it blocks, certificates and
    /// shares are gone and refused at the door, while a beacon value
    /// outlives its block by `BEACON_DEPTH` rounds; a certificate that
    /// arrived ahead of its body goes with its round, not before; and
    /// the floor never falls.
    #[test]
    fn floor_splits_retention_and_refuses_what_is_below_it() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b1 = block_at(&ks[1], 1, ks[0].setup.genesis.hash(), 1);
        let b2 = block_at(&ks[2], 2, b1.hash(), 2);
        let p1 = ConsensusMessage::Proposal(artifacts::proposal(&ks[1], b1.clone(), None));
        let n2 = ConsensusMessage::Notarization(notarize(&ks, &b2));
        pool.insert(&p1);
        pool.insert(&n2); // ahead of its body
        let value = ks[0].setup.genesis_beacon;
        for round in 1..=BEACON_DEPTH + 10 {
            pool.install_beacon_trusted(Round::new(round), value);
        }

        pool.purge_below(Round::new(2));
        assert_eq!(pool.floor(), Round::new(2));
        assert!(pool.block(&b1.hash()).is_none());
        assert!(pool.beacon(Round::new(1)).is_some(), "outlives its block");
        assert!(
            pool.notarization_of(&b2.hash()).is_some(),
            "round 2 is live"
        );
        assert!(!pool.insert(&p1), "below the floor");
        assert_eq!(pool.stats().stale_dropped, 1);
        assert_eq!(pool.block_count(), 1);

        pool.purge_below(Round::new(1));
        assert_eq!(pool.floor(), Round::new(2), "never falls");
        pool.purge_below(Round::new(3));
        assert!(pool.notarization_of(&b2.hash()).is_none());
        assert!(pool.entries.len() == 1 && pool.awaiting_body.is_empty());

        // The beacon tail: BEACON_DEPTH rounds below the floor.
        pool.purge_below(Round::new(BEACON_DEPTH + 8));
        assert!(pool.beacon(Round::new(7)).is_none());
        assert!(pool.beacon(Round::new(8)).is_some());
        assert_eq!(pool.beacons.len() as u64, 1 + BEACON_DEPTH + 3, "and R_0");
    }

    /// One Byzantine member signs `{other round or proposer, H}` for a
    /// real block `H`: the share verifies on its own. Wherever it lands
    /// in the stream — ahead of, between or behind the genuine shares —
    /// it neither joins `H`'s quorum nor poisons the combine (at the
    /// parent commit it did both, and the combine panicked).
    #[test]
    fn forged_ref_shares_never_join_the_real_quorum() {
        let ks = keys();
        let b = block_at(&ks[0], 1, ks[0].setup.genesis.hash(), 1);
        let real = BlockRef::of_hashed(&b);
        let other_round = BlockRef {
            round: Round::new(2),
            ..real
        };
        let other_proposer = BlockRef {
            proposer: ks[2].index,
            ..real
        };
        for position in 0..=3 {
            let mut pool = Pool::new(Arc::clone(&ks[0].setup));
            pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
                &ks[0],
                b.clone(),
                None,
            )));
            let forge = |pool: &mut Pool| {
                for r in [other_round, other_proposer] {
                    assert!(pool.insert(&ConsensusMessage::NotarizationShare(
                        artifacts::notarization_share(&ks[3], r)
                    )));
                    assert!(pool.insert(&ConsensusMessage::FinalizationShare(
                        artifacts::finalization_share(&ks[3], r)
                    )));
                }
            };
            for (i, k) in ks[..3].iter().enumerate() {
                if i == position {
                    forge(&mut pool);
                }
                assert!(pool.completable_notarization(Round::new(1)).is_none());
                assert!(pool.completable_finalization(Round::GENESIS).is_none());
                pool.insert(&ConsensusMessage::NotarizationShare(
                    artifacts::notarization_share(k, real),
                ));
                pool.insert(&ConsensusMessage::FinalizationShare(
                    artifacts::finalization_share(k, real),
                ));
            }
            if position == 3 {
                forge(&mut pool);
            }
            let n = pool.completable_notarization(Round::new(1)).unwrap();
            let f = pool.completable_finalization(Round::GENESIS).unwrap();
            assert_eq!((n.block_ref, f.block_ref), (real, real));
            assert!(ks[0].setup.notary.verify(&real.sign_bytes(), &n.sig));
            assert!(ks[0].setup.finality.verify(&real.sign_bytes(), &f.sig));
            assert_eq!(pool.stats().rejected, 0, "position {position}");
        }
    }

    #[test]
    fn duplicate_inserts_are_noops() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b = block_at(&ks[1], 1, ks[0].setup.genesis.hash(), 1);
        let p = ConsensusMessage::Proposal(artifacts::proposal(&ks[1], b.clone(), None));
        assert!(pool.insert(&p));
        assert!(!pool.insert(&p));
        let s = ConsensusMessage::NotarizationShare(artifacts::notarization_share(
            &ks[0],
            BlockRef::of_hashed(&b),
        ));
        assert!(pool.insert(&s));
        assert!(!pool.insert(&s));
    }

    /// Re-inserting an already-pooled artifact performs **zero**
    /// signature verifications.
    #[test]
    fn reinsert_performs_zero_verifications() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b = block_at(&ks[1], 1, ks[0].setup.genesis.hash(), 1);
        let p = ConsensusMessage::Proposal(artifacts::proposal(&ks[1], b.clone(), None));
        let s = ConsensusMessage::NotarizationShare(artifacts::notarization_share(
            &ks[0],
            BlockRef::of_hashed(&b),
        ));
        pool.insert(&p);
        pool.insert(&s);
        let verifies_before = pool.stats().verify_calls;
        assert!(verifies_before > 0);
        for _ in 0..10 {
            pool.insert(&p);
            pool.insert(&s);
        }
        let st = pool.stats();
        assert_eq!(st.verify_calls, verifies_before, "re-inserts never verify");
        assert_eq!(st.duplicates_dropped, 20);
    }

    /// The duplicate probe keys on the block digest a [`HashedBlock`]
    /// caches. A proposal re-learned from its wire encoding — whose
    /// digest the receiver recomputes from scratch — is a duplicate of
    /// the original: zero further verifications.
    #[test]
    fn cache_key_derives_from_cached_digest() {
        use icc_types::codec::{decode_from_slice, encode_to_vec};
        use icc_types::messages::BlockProposal;

        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b = block_at(&ks[1], 1, ks[0].setup.genesis.hash(), 1);
        let prop = artifacts::proposal(&ks[1], b, None);
        pool.insert(&ConsensusMessage::Proposal(prop.clone()));
        let before = pool.stats();

        let decoded: BlockProposal = decode_from_slice(&encode_to_vec(&prop)).unwrap();
        assert!(!pool.insert(&ConsensusMessage::Proposal(decoded)));
        let after = pool.stats();
        assert_eq!(after.verify_calls, before.verify_calls);
        assert_eq!(after.duplicates_dropped, before.duplicates_dropped + 1);
    }

    /// Own artifacts skip verification entirely but still classify.
    #[test]
    fn owned_inserts_do_not_verify() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let b = block_at(&ks[0], 1, ks[0].setup.genesis.hash(), 1);
        let p = ConsensusMessage::Proposal(artifacts::proposal(&ks[0], b.clone(), None));
        assert!(pool.insert_owned(&p));
        assert!(pool.is_valid(&b.hash()));
        assert_eq!(pool.stats().verify_calls, 0);
        // And a later echo of the same block from the network is a
        // duplicate — still no verification.
        assert!(!pool.insert(&p));
        let st = pool.stats();
        assert_eq!(st.verify_calls, 0);
        assert_eq!(st.duplicates_dropped, 1);
    }

    /// A beacon share is verified once: a below-threshold combine
    /// attempt's work is reused by the next.
    #[test]
    fn beacon_shares_verify_once_across_attempts() {
        let ks = keys();
        let mut pool = Pool::new(Arc::clone(&ks[0].setup));
        let r1 = Round::new(1);
        let prev = ks[0].setup.genesis_beacon;
        pool.insert(&ConsensusMessage::BeaconShare(artifacts::beacon_share(
            &ks[0], r1, &prev,
        )));
        assert!(pool.try_compute_beacon(r1).is_none());
        assert_eq!(pool.stats().verify_calls, 1);
        // Second attempt with no new shares: no crypto.
        assert!(pool.try_compute_beacon(r1).is_none());
        let st = pool.stats();
        assert_eq!(st.verify_calls, 1);
        assert_eq!(st.verify_cache_hits, 1);
        // Reaching threshold verifies only the new share.
        pool.insert(&ConsensusMessage::BeaconShare(artifacts::beacon_share(
            &ks[1], r1, &prev,
        )));
        assert!(pool.try_compute_beacon(r1).is_some());
        let st = pool.stats();
        assert_eq!(st.verify_calls, 2);
        assert_eq!(st.verify_cache_hits, 2);
    }

    /// Combined beacon values for future rounds cost nothing until
    /// their predecessor is known, cannot pile up without bound, and
    /// are accepted by the first insert after the predecessor lands.
    #[test]
    fn parked_beacon_values_are_bounded_and_settle_on_predecessor() {
        let ks = keys();
        let setup = Arc::clone(&ks[0].setup);
        let mut pool = Pool::new(Arc::clone(&setup));
        // The genuine values of rounds 1..=3.
        let mut chain = vec![setup.genesis_beacon];
        for round in 1..=3u64 {
            let msg = beacon_sign_message(round, chain.last().unwrap());
            let shares = ks[..2].iter().map(|k| k.beacon().sign_share(&msg));
            let sig = setup.beacon.combine(&msg, shares).unwrap();
            chain.push(BeaconValue::Signature(sig));
        }
        let value = |round: u64, v: BeaconValue| {
            ConsensusMessage::Beacon(Beacon {
                round: Round::new(round),
                value: v,
            })
        };

        // 2 000 values, round 3 genuine and the rest junk: every
        // predecessor unknown.
        assert!(!pool.insert(&value(3, chain[3])));
        for round in 4..2003u64 {
            assert!(!pool.insert(&value(round, chain[1])));
        }
        assert_eq!(pool.parked_beacons.len(), MAX_PARKED_BEACONS);
        let st = pool.stats();
        assert_eq!((st.verify_calls, st.rejected), (0, 0), "nothing checked");
        assert_eq!(pool.latest_beacon_round(), Round::GENESIS, "none inserted");
        // FIFO: the oldest went first — park round 3 again.
        assert!(!pool.parked_beacons.iter().any(|b| b.round == Round::new(3)));
        assert!(!pool.insert(&value(3, chain[3])));
        // A re-sent parked value is a duplicate.
        assert!(!pool.insert(&value(3, chain[3])));
        assert_eq!(pool.stats().duplicates_dropped, 1);

        // Round 1 arrives with its predecessor (genesis) known.
        assert!(pool.insert(&value(1, chain[1])));
        assert_eq!(pool.stats().verify_calls, 1);
        // Round 2 lands; round 3, parked, is taken on the next insert.
        assert!(pool.insert(&value(2, chain[2])));
        assert_eq!(pool.beacon(Round::new(3)), None);
        let b = block_at(&ks[1], 1, setup.genesis.hash(), 1);
        pool.insert(&ConsensusMessage::Proposal(artifacts::proposal(
            &ks[1], b, None,
        )));
        assert_eq!(pool.beacon(Round::new(3)), Some(&chain[3]));
        // A junk value whose predecessor is known is checked at once.
        assert_eq!(pool.stats().rejected, 0);
        assert!(!pool.insert(&value(4, chain[1])));
        assert_eq!(pool.stats().rejected, 1);
        assert_eq!(pool.beacon(Round::new(4)), None);
    }
}
