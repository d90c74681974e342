//! The §3.4 classifier and the pool's read side, over the one record
//! per block (`BlockEntry`).
//!
//! Everything that reaches these inserts has already passed the write
//! path in `mod.rs` (beacon shares excepted — they verify at combine
//! time, when the previous beacon value is finally known), so nothing
//! here checks a signature on insertion. An insert fills a field of a
//! block's record or a share bucket; the only derived state written is
//! the record's `valid` flag and the `finalized_by_round` index.
//! Notarized and finalized are computed from the record when asked for,
//! and every read is a checked lookup.

use icc_crypto::beacon::{beacon_sign_message, BeaconValue};
use icc_crypto::multisig::MultiSig;
use icc_crypto::Hash256;
use icc_types::block::HashedBlock;
use icc_types::messages::{BlockProposal, BlockRef, ConsensusMessage, Finalization, Notarization};
use icc_types::{NodeIndex, Round};
use std::collections::BTreeMap;
use std::ops::RangeBounds;

use super::{
    drain_below, Artifact, BlockEntry, Cert, Finality, HeldBeaconShare, Notary, Pool, BEACON_DEPTH,
};

/// A held block with whichever of its certificates the pool holds —
/// what a caller would otherwise assemble from separate lookups.
#[derive(Debug, Clone)]
pub struct CertifiedBlock<'a> {
    /// Body and authenticator as the WAL, a checkpoint and a catch-up
    /// package carry them: without the parent's notarization, since the
    /// block's own certificates vouch for the prefix.
    pub proposal: BlockProposal,
    /// Its notarization, if held.
    pub notarization: Option<&'a Notarization>,
    /// Its finalization, if held.
    pub finalization: Option<&'a Finalization>,
}

impl Pool {
    // ------------------------------------------------------------------
    // Inserts (artifacts the write path has let through)
    // ------------------------------------------------------------------

    /// Inserts an artifact into the classifier; `checked` marks a
    /// beacon share as needing no verification at combine time. The
    /// caller runs [`recheck_validity`](Self::recheck_validity) once
    /// per message.
    pub(super) fn store(&mut self, artifact: Artifact<'_>, checked: bool) -> bool {
        match artifact {
            Artifact::Block(block, authenticator) => {
                let hash = block.hash();
                let entry = self.entries.entry(hash).or_default();
                if entry.body.is_some() {
                    return false;
                }
                entry.body = Some(block.clone());
                entry.authenticator = Some(*authenticator);
                self.by_round.entry(block.round()).or_default().push(hash);
                self.pending_validity.insert(hash);
                true
            }
            Artifact::Aggregate(kind, block_ref, sig) => {
                let entry = self.entries.entry(block_ref.hash).or_insert_with(|| {
                    let awaiting = self.awaiting_body.entry(block_ref.round).or_default();
                    awaiting.push(block_ref.hash);
                    BlockEntry::default()
                });
                if entry.cert(kind).is_some() {
                    return false;
                }
                let sig = sig.clone();
                match kind {
                    Notary => entry.notarization = Some(Notarization { block_ref, sig }),
                    Finality => {
                        entry.finalization = Some(Finalization { block_ref, sig });
                        self.index_if_finalized(block_ref.hash);
                    }
                }
                true
            }
            Artifact::Share(kind, block_ref, share) => {
                let buckets = match kind {
                    Notary => &mut self.notarization_shares,
                    Finality => &mut self.finalization_shares,
                };
                let bucket = buckets.entry(block_ref).or_default();
                bucket.insert(share.signer, share).is_none()
            }
            Artifact::BeaconShare(b) => {
                let held = HeldBeaconShare {
                    share: b.share,
                    checked,
                };
                let bucket = self.beacon_shares.entry(b.round).or_default();
                bucket.insert(b.share.signer, held).is_none()
            }
            Artifact::Beacon(b) => self.install_beacon_trusted(b.round, b.value),
        }
    }

    /// Files `hash` under its round if it is finalized. Called whenever
    /// one of the two things that make it so — validity, the
    /// finalization — has just been written.
    fn index_if_finalized(&mut self, hash: Hash256) {
        let entry = self.entries.get(&hash);
        let finalized = entry.filter(|e| e.certified(Finality));
        if let Some(block) = finalized.and_then(|e| e.body.as_ref()) {
            self.finalized_by_round.insert(block.round(), hash);
        }
    }

    /// Raises the `valid` flag of the held block `hash`.
    fn mark_valid(&mut self, hash: Hash256) {
        self.pending_validity.remove(&hash);
        if let Some(entry) = self.entries.get_mut(&hash) {
            entry.valid = true;
        }
        self.index_if_finalized(hash);
    }

    /// Whether the held body `hash` extends a notarized block of the
    /// round below its own (`root` for round 1). The round is checked
    /// as well as the link: a malicious proposer could reference a
    /// notarized block of the wrong round.
    fn extends_notarized(&self, hash: &Hash256) -> bool {
        let Some(block) = self.block(hash) else {
            return false;
        };
        let parent = self.entries.get(&block.parent());
        let parent = parent.filter(|p| p.certified(Notary));
        parent.is_some_and(|p| p.body.as_ref().map(|b| b.round().next()) == Some(block.round()))
    }

    /// Recomputes validity to a fixpoint (§3.4). Cheap: only blocks
    /// whose status can still change are revisited. Notarized and
    /// finalized follow from the flag — a block whose certificate
    /// arrived first becomes notarized the moment it becomes valid, and
    /// may validate its children on the next iteration.
    pub(super) fn recheck_validity(&mut self) {
        loop {
            let pending = self.pending_validity.iter().copied();
            let newly_valid: Vec<Hash256> = pending.filter(|h| self.extends_notarized(h)).collect();
            if newly_valid.is_empty() {
                break;
            }
            for hash in newly_valid {
                self.mark_valid(hash);
            }
        }
    }

    // ------------------------------------------------------------------
    // Certified installs (checkpoint restore and catch-up)
    // ------------------------------------------------------------------

    /// Installs a block with full certificates directly as valid —
    /// hence notarized and finalized: the generalization of the genesis
    /// pre-classification in [`Pool::new`] to a certified non-root
    /// block. Its parent body may be absent: the `n − t` finalization is
    /// what vouches for the prefix, exactly as `root` vouches for
    /// itself. The caller must have verified (or produced) the
    /// certificates; what is already held stays, and waiting children
    /// cascade.
    pub(super) fn install_certified_root(
        &mut self,
        proposal: &BlockProposal,
        notarization: &Notarization,
        finalization: &Finalization,
    ) {
        let (p, n, f) = (proposal, notarization, finalization);
        self.store(Artifact::Block(&p.block, &p.authenticator), true);
        self.store(Artifact::Aggregate(Notary, n.block_ref, &n.sig), true);
        self.store(Artifact::Aggregate(Finality, f.block_ref, &f.sig), true);
        self.mark_valid(p.block.hash());
        self.recheck_validity();
    }

    /// Installs a beacon value the caller knows to be good (verified,
    /// or replayed from its own WAL) unless the round already has one
    /// (the scheme is unique, so any verified competitor is identical).
    /// Returns whether it was new.
    pub fn install_beacon_trusted(&mut self, round: Round, value: BeaconValue) -> bool {
        if self.beacons.contains_key(&round) {
            return false;
        }
        self.beacons.insert(round, value);
        true
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The records of the bodies held for `round`, in arrival order.
    fn round_entries(&self, round: Round) -> impl Iterator<Item = &BlockEntry> {
        let hashes = self.by_round.get(&round).into_iter().flatten();
        hashes.filter_map(|h| self.entries.get(h))
    }

    /// The block body for `hash`, if present.
    pub fn block(&self, hash: &Hash256) -> Option<&HashedBlock> {
        self.entries.get(hash)?.body.as_ref()
    }

    /// The block `hash` with its authenticator and the certificates
    /// held for it; `None` without a body (or for `root`, which has no
    /// authenticator).
    pub fn certified_block(&self, hash: &Hash256) -> Option<CertifiedBlock<'_>> {
        let entry = self.entries.get(hash)?;
        Some(CertifiedBlock {
            proposal: BlockProposal {
                block: entry.body.clone()?,
                authenticator: entry.authenticator?,
                parent_notarization: None,
            },
            notarization: entry.notarization.as_ref(),
            finalization: entry.finalization.as_ref(),
        })
    }

    /// The block `hash` as a proposal that can be sent — body,
    /// authenticator and (except in round 1) the parent's notarization,
    /// which a valid block's parent always has.
    pub fn proposal_of(&self, hash: &Hash256) -> Option<BlockProposal> {
        let mut proposal = self.certified_block(hash)?.proposal;
        if proposal.block.round() != Round::new(1) {
            let parent = self.notarization_of(&proposal.block.parent())?;
            proposal.parent_notarization = Some(parent.clone());
        }
        Some(proposal)
    }

    /// Whether `hash` is valid for this party.
    pub fn is_valid(&self, hash: &Hash256) -> bool {
        self.entries.get(hash).is_some_and(|e| e.valid)
    }

    /// Whether `hash` is notarized for this party.
    pub fn is_notarized(&self, hash: &Hash256) -> bool {
        self.entries.get(hash).is_some_and(|e| e.certified(Notary))
    }

    /// Whether `hash` is finalized for this party.
    pub fn is_finalized(&self, hash: &Hash256) -> bool {
        self.entries
            .get(hash)
            .is_some_and(|e| e.certified(Finality))
    }

    /// All valid blocks of `round`, in insertion order.
    pub fn valid_blocks(&self, round: Round) -> Vec<&HashedBlock> {
        let valid = self.round_entries(round).filter(|e| e.valid);
        valid.filter_map(|e| e.body.as_ref()).collect()
    }

    /// Any notarized block of `round` (the first to arrive in this
    /// pool), with its notarization.
    pub fn notarized_block(&self, round: Round) -> Option<(&HashedBlock, &Notarization)> {
        let mut valid = self.round_entries(round).filter(|e| e.valid);
        valid.find_map(|e| e.body.as_ref().zip(e.notarization.as_ref()))
    }

    /// All notarized blocks of `round`.
    pub fn notarized_blocks(&self, round: Round) -> Vec<&HashedBlock> {
        let notarized = self.round_entries(round).filter(|e| e.certified(Notary));
        notarized.filter_map(|e| e.body.as_ref()).collect()
    }

    /// The notarization for `hash`, if present.
    pub fn notarization_of(&self, hash: &Hash256) -> Option<&Notarization> {
        self.entries.get(hash)?.notarization.as_ref()
    }

    /// The finalization for `hash`, if present.
    pub fn finalization_of(&self, hash: &Hash256) -> Option<&Finalization> {
        self.entries.get(hash)?.finalization.as_ref()
    }

    /// Whether this pool holds what makes `msg` redundant: the
    /// aggregate, for a notarization / finalization share or another
    /// aggregate of the same kind for the same block; the round's
    /// beacon, for a beacon share or combined value. The dissemination
    /// layer relays only what is not superseded.
    pub fn supersedes(&self, msg: &ConsensusMessage) -> bool {
        // A proposal's last artifact is its block: never superseded.
        match Artifact::of(msg).into_iter().flatten().last() {
            Some(Artifact::Share(kind, block_ref, _) | Artifact::Aggregate(kind, block_ref, _)) => {
                self.holds_cert(kind, &block_ref.hash)
            }
            Some(Artifact::BeaconShare(b)) => self.beacons.contains_key(&b.round),
            Some(Artifact::Beacon(b)) => self.beacons.contains_key(&b.round),
            Some(Artifact::Block(..)) | None => false,
        }
    }

    /// The first *valid but not yet certified* block of `rounds`
    /// holding a quorum of `kind` shares for its round's epoch, with the
    /// aggregate combined from them. The shares are those filed under
    /// the block's own reference, taken from its body; each was verified
    /// over that very reference on the way in, so a failed combine is
    /// unreachable short of a bug: it is counted, and the bucket
    /// discarded so that fresh shares can still form the quorum.
    fn completable(
        &mut self,
        kind: Cert,
        rounds: impl RangeBounds<Round>,
    ) -> Option<(BlockRef, MultiSig)> {
        let in_range = self.by_round.range(rounds);
        let mut candidates =
            in_range.flat_map(|(round, hashes)| hashes.iter().map(move |h| (round, h)));
        let (block_ref, need) = candidates.find_map(|(round, h)| {
            let entry = self.entries.get(h).filter(|e| e.valid)?;
            if entry.certified(kind) {
                return None;
            }
            let (_, need) = kind.signing(&self.setup, self.setup.epoch_of(*round));
            let block_ref = BlockRef::of_hashed(entry.body.as_ref()?);
            let shares = self.buckets(kind).get(&block_ref)?;
            (shares.len() >= need).then_some((block_ref, need))
        })?;
        let (scheme, buckets) = match kind {
            Notary => (&self.setup.notary, &mut self.notarization_shares),
            Finality => (&self.setup.finality, &mut self.finalization_shares),
        };
        let shares = buckets.get(&block_ref)?.values().copied();
        let combined = scheme.combine_with_threshold(&block_ref.sign_bytes(), shares, need);
        if combined.is_err() {
            self.stats.rejected += 1;
            buckets.remove(&block_ref);
        }
        Some((block_ref, combined.ok()?))
    }

    /// A *valid but non-notarized* block of `round` holding a full set
    /// of `m − t` notarization shares for the round's epoch; combines
    /// them (Fig. 1 clause (a)).
    pub fn completable_notarization(&mut self, round: Round) -> Option<Notarization> {
        let (block_ref, sig) = self.completable(Notary, round..=round)?;
        Some(Notarization { block_ref, sig })
    }

    /// A *valid but non-finalized* block of round > `above` holding a
    /// full set of finalization shares; combines them (Fig. 2 case ii).
    pub fn completable_finalization(&mut self, above: Round) -> Option<Finalization> {
        let (block_ref, sig) = self.completable(Finality, above.next()..)?;
        Some(Finalization { block_ref, sig })
    }

    /// The highest finalized non-genesis block, if any.
    pub fn latest_finalized_block(&self) -> Option<&HashedBlock> {
        self.finalized_above(Round::GENESIS)
    }

    /// The highest finalized round (genesis if nothing finalized).
    pub fn latest_finalized_round(&self) -> Round {
        let last = self.finalized_by_round.last_key_value();
        last.map_or(Round::GENESIS, |(round, _)| *round)
    }

    /// The highest round holding a notarized block (genesis if none).
    pub fn highest_notarized_round(&self) -> Round {
        self.by_round
            .iter()
            .rev()
            .find_map(|(r, hs)| hs.iter().any(|h| self.is_notarized(h)).then_some(*r))
            .unwrap_or(Round::GENESIS)
    }

    /// The highest finalized non-genesis block with round < `below`, if
    /// any — the handoff block of an epoch whose boundary is `below`.
    pub fn finalized_below(&self, below: Round) -> Option<&HashedBlock> {
        let (round, hash) = self.finalized_by_round.range(..below).next_back()?;
        self.block(hash).filter(|_| !round.is_genesis())
    }

    /// The highest finalized block with round > `above`, if any
    /// (Fig. 2 case i).
    pub fn finalized_above(&self, above: Round) -> Option<&HashedBlock> {
        let (_, hash) = self.finalized_by_round.range(above.next()..).next_back()?;
        self.block(hash)
    }

    /// The chain of blocks `(above, k]` ending at `block` (ancestors
    /// first). Returns `None` if any ancestor body is missing — which
    /// cannot happen for a block that is valid for this party.
    pub fn chain_back_to(&self, block: &HashedBlock, above: Round) -> Option<Vec<HashedBlock>> {
        let mut chain = Vec::new();
        let mut cur = block;
        while cur.round() > above {
            chain.push(cur.clone());
            if cur.round() == Round::new(1) {
                break;
            }
            cur = self.block(&cur.parent())?;
        }
        chain.reverse();
        Some(chain)
    }

    // ------------------------------------------------------------------
    // Beacon
    // ------------------------------------------------------------------

    /// The computed beacon value for `round`, if known.
    pub fn beacon(&self, round: Round) -> Option<&BeaconValue> {
        self.beacons.get(&round)
    }

    /// Attempts to compute the round-`round` beacon from held shares.
    /// Requires `R_{round−1}`; returns the value if newly computed.
    /// This is where beacon shares are finally verified, each once: a
    /// share checked on an earlier (below-threshold) attempt, or signed
    /// by this party, costs no crypto on the next one. Shares that fail
    /// are discarded — as is the whole set should verified shares ever
    /// fail to combine (a bug, not an input: counted, not a panic).
    pub fn try_compute_beacon(&mut self, round: Round) -> Option<BeaconValue> {
        if self.beacons.contains_key(&round) {
            return None;
        }
        let prev = *self.beacons.get(&round.prev()?)?;
        let msg = beacon_sign_message(round.get(), &prev);
        let shares = self.beacon_shares.entry(round).or_default();
        // The round's epoch owns the share commitments: an old-epoch
        // share (same party, pre-reshare position) fails here even
        // though the group key never changes.
        let epoch = self.setup.epoch_of(round);
        let stats = &mut self.stats;
        shares.retain(|_, held| {
            if held.checked {
                stats.verify_cache_hits += 1;
            } else {
                stats.verify_calls += 1;
                held.checked = epoch.beacon.verify_share(&msg, &held.share);
                if !held.checked {
                    stats.rejected += 1;
                }
            }
            held.checked
        });
        if shares.len() < epoch.beacon_threshold() {
            return None;
        }
        let combined = epoch
            .beacon
            .combine(&msg, shares.values().map(|held| held.share));
        let Ok(sig) = combined else {
            stats.rejected += 1;
            shares.clear();
            return None;
        };
        let value = BeaconValue::Signature(sig);
        self.beacons.insert(round, value);
        Some(value)
    }

    /// Number of shares held for the round-`round` beacon.
    pub fn beacon_share_count(&self, round: Round) -> usize {
        self.beacon_shares.get(&round).map_or(0, BTreeMap::len)
    }

    /// The highest round whose beacon value is known.
    pub fn latest_beacon_round(&self) -> Round {
        let last = self.beacons.last_key_value();
        last.map_or(Round::GENESIS, |(round, _)| *round)
    }

    /// All known beacon values of rounds ≥ `from`, ascending.
    pub fn beacons_from(&self, from: Round) -> Vec<(Round, BeaconValue)> {
        self.beacons.range(from..).map(|(r, v)| (*r, *v)).collect()
    }

    /// Raises the [`floor`](Self::floor) to `round` (it never falls):
    /// blocks, certificates, shares and beacon shares of rounds below it
    /// are discarded — the garbage collection §3.1 alludes to — and
    /// beacon values [`BEACON_DEPTH`] rounds further down. Genesis is
    /// kept. Every index walked is round-ordered, so the cost is what is
    /// removed.
    pub fn purge_below(&mut self, round: Round) {
        if round <= self.floor {
            return;
        }
        self.floor = round;
        for index in [&mut self.by_round, &mut self.awaiting_body] {
            for hash in drain_below(index, round).flatten() {
                self.entries.remove(&hash);
                self.pending_validity.remove(&hash);
            }
        }
        drain_below(&mut self.finalized_by_round, round).for_each(drop);
        drain_below(&mut self.beacon_shares, round).for_each(drop);
        // The least reference of `round`: what sorts below it signs an
        // earlier round.
        let first = BlockRef {
            round,
            proposer: NodeIndex::new(0),
            hash: Hash256::ZERO,
        };
        for buckets in [&mut self.notarization_shares, &mut self.finalization_shares] {
            *buckets = buckets.split_off(&first);
        }
        let beacon_floor = Round::new(round.get().saturating_sub(BEACON_DEPTH));
        drain_below(&mut self.beacons, beacon_floor).for_each(drop);
        self.parked_beacons.retain(|b| b.round >= round);
    }

    /// Total number of block bodies held (diagnostics).
    pub fn block_count(&self) -> usize {
        self.entries.values().filter(|e| e.body.is_some()).count()
    }

    /// What the pool holds, by collection (diagnostics): every entry is
    /// bounded by the rounds between the floor and the tip, beacon
    /// values by [`BEACON_DEPTH`] more.
    pub fn footprint(&self) -> Vec<(&'static str, u64)> {
        let buckets = self.notarization_shares.len() + self.finalization_shares.len();
        let beacon_shares = self.beacon_shares.values().map(BTreeMap::len);
        vec![
            ("pool_blocks", self.block_count() as u64),
            ("pool_share_buckets", buckets as u64),
            ("pool_beacon_shares", beacon_shares.sum::<usize>() as u64),
            ("pool_beacons", self.beacons.len() as u64),
        ]
    }
}
