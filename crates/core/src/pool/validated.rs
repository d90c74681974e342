//! The §3.4 classifier and the pool's read side.
//!
//! Everything that reaches these inserts has already passed the write
//! path in `mod.rs` (beacon shares excepted — they verify at combine
//! time, when the previous beacon value is finally known), so nothing
//! here checks a signature on insertion: it only maintains the
//! authentic / valid / notarized / finalized sets of §3.4 and the share
//! accumulators the combine paths read.

use icc_crypto::beacon::{beacon_sign_message, BeaconValue};
use icc_crypto::multisig::{MultiSig, MultiSigScheme, MultiSigShare};
use icc_crypto::sig::Signature;
use icc_crypto::Hash256;
use icc_types::block::HashedBlock;
use icc_types::messages::{
    BlockRef, ConsensusMessage, Finalization, FinalizationShare, Notarization, NotarizationShare,
};
use icc_types::Round;
use std::collections::{BTreeMap, HashMap, HashSet};

use super::{Artifact, HeldBeaconShare, Pool, PoolStats};

/// Combines the shares filed under `block_ref`. Each was verified over
/// that very reference on the way in, so a failure is unreachable short
/// of a bug; it is counted, and the bucket discarded so that fresh
/// shares can still form the quorum.
fn combine_bucket<S>(
    scheme: &MultiSigScheme,
    buckets: &mut HashMap<BlockRef, BTreeMap<u32, S>>,
    stats: &mut PoolStats,
    block_ref: BlockRef,
    need: usize,
    share: impl Fn(&S) -> MultiSigShare,
) -> Option<MultiSig> {
    let shares = buckets.get(&block_ref)?.values().map(share);
    let combined = scheme.combine_with_threshold(&block_ref.sign_bytes(), shares, need);
    if combined.is_err() {
        stats.rejected += 1;
        buckets.remove(&block_ref);
    }
    combined.ok()
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
            Artifact::Block {
                block,
                authenticator,
            } => self.insert_block(block.clone(), *authenticator),
            Artifact::Notarization(n) => self.insert_notarization(n.clone()),
            Artifact::Finalization(f) => self.insert_finalization(f.clone()),
            Artifact::NotarizationShare(s) => self.insert_notarization_share(*s),
            Artifact::FinalizationShare(s) => self.insert_finalization_share(*s),
            Artifact::BeaconShare(b) => self
                .beacon_shares
                .entry(b.round)
                .or_default()
                .insert(
                    b.share.signer,
                    HeldBeaconShare {
                        share: b.share,
                        checked,
                    },
                )
                .is_none(),
            Artifact::Beacon(b) => self.install_beacon_trusted(b.round, b.value),
        }
    }

    fn insert_block(&mut self, block: HashedBlock, authenticator: Signature) -> bool {
        let hash = block.hash();
        if self.authentic.contains(&hash) {
            return false;
        }
        self.blocks.insert(hash, block.clone());
        self.by_round.entry(block.round()).or_default().push(hash);
        self.authentic.insert(hash);
        self.authenticators.insert(hash, authenticator);
        self.pending_validity.insert(hash);
        true
    }

    fn insert_notarization(&mut self, n: Notarization) -> bool {
        if self.notarizations.contains_key(&n.block_ref.hash) {
            return false;
        }
        let hash = n.block_ref.hash;
        self.notarizations.insert(hash, n);
        if self.valid.contains(&hash) {
            self.notarized.insert(hash);
        } else {
            self.pending_notarized.insert(hash);
        }
        true
    }

    fn insert_finalization(&mut self, f: Finalization) -> bool {
        if self.finalizations.contains_key(&f.block_ref.hash) {
            return false;
        }
        let hash = f.block_ref.hash;
        self.finalizations.insert(hash, f);
        if self.valid.contains(&hash) {
            self.mark_finalized(hash);
        } else {
            self.pending_finalized.insert(hash);
        }
        true
    }

    fn insert_notarization_share(&mut self, s: NotarizationShare) -> bool {
        self.notarization_shares
            .entry(s.block_ref)
            .or_default()
            .insert(s.share.signer, s)
            .is_none()
    }

    fn insert_finalization_share(&mut self, s: FinalizationShare) -> bool {
        self.finalization_shares
            .entry(s.block_ref)
            .or_default()
            .insert(s.share.signer, s)
            .is_none()
    }

    /// Recomputes the valid / notarized / finalized classification to a
    /// fixpoint (§3.4). Cheap: only blocks whose status can still change
    /// are revisited.
    pub(super) fn recheck_validity(&mut self) {
        let genesis_hash = self.setup.genesis.hash();
        loop {
            let mut newly_valid = Vec::new();
            for &hash in &self.pending_validity {
                let block = &self.blocks[&hash];
                let parent_ok = if block.round() == Round::new(1) {
                    block.parent() == genesis_hash
                } else {
                    self.notarized.contains(&block.parent())
                };
                // The parent must sit exactly one round below; the hash
                // link plus per-round bookkeeping guarantees this when
                // the parent is known, but a malicious proposer could
                // reference a notarized block of the wrong round.
                let depth_ok = parent_ok
                    && self
                        .blocks
                        .get(&block.parent())
                        .is_some_and(|p| p.round().next() == block.round());
                if depth_ok {
                    newly_valid.push(hash);
                }
            }
            if newly_valid.is_empty() {
                break;
            }
            for hash in newly_valid {
                self.pending_validity.remove(&hash);
                self.valid.insert(hash);
                // Promote aggregates that arrived before validity; a
                // newly notarized parent may validate children on the
                // next fixpoint iteration.
                if self.pending_notarized.remove(&hash) {
                    self.notarized.insert(hash);
                }
                if self.pending_finalized.remove(&hash) {
                    self.mark_finalized(hash);
                }
            }
        }
    }

    fn mark_finalized(&mut self, hash: Hash256) {
        if self.finalized.insert(hash) {
            let round = self.blocks[&hash].round();
            self.finalized_by_round.insert(round, hash);
        }
    }

    // ------------------------------------------------------------------
    // Certified installs (checkpoint restore and catch-up)
    // ------------------------------------------------------------------

    /// Installs a block with full certificates directly as valid,
    /// notarized and finalized — the generalization of the genesis
    /// pre-classification in [`Pool::new`] to a certified non-root
    /// block. Its parent body may be absent: the `n − t` finalization is
    /// what vouches for the prefix, exactly as `root` vouches for
    /// itself. The caller must have verified (or produced) the
    /// certificates, and runs [`recheck_validity`](Self::recheck_validity)
    /// afterwards so waiting children cascade.
    pub(super) fn install_certified_root(
        &mut self,
        block: HashedBlock,
        authenticator: Signature,
        notarization: Notarization,
        finalization: Finalization,
    ) {
        let hash = block.hash();
        if !self.authentic.contains(&hash) {
            self.by_round.entry(block.round()).or_default().push(hash);
            self.blocks.insert(hash, block);
            self.authentic.insert(hash);
            self.authenticators.insert(hash, authenticator);
        }
        self.pending_validity.remove(&hash);
        self.valid.insert(hash);
        self.notarizations.entry(hash).or_insert(notarization);
        self.pending_notarized.remove(&hash);
        self.notarized.insert(hash);
        self.finalizations.entry(hash).or_insert(finalization);
        self.pending_finalized.remove(&hash);
        self.mark_finalized(hash);
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

    /// The block body for `hash`, if present.
    pub fn block(&self, hash: &Hash256) -> Option<&HashedBlock> {
        self.blocks.get(hash)
    }

    /// The stored authenticator for `hash` (needed to echo a block).
    pub fn authenticator_of(&self, hash: &Hash256) -> Option<Signature> {
        self.authenticators.get(hash).copied()
    }

    /// Whether `hash` is valid for this party.
    pub fn is_valid(&self, hash: &Hash256) -> bool {
        self.valid.contains(hash)
    }

    /// Whether `hash` is notarized for this party.
    pub fn is_notarized(&self, hash: &Hash256) -> bool {
        self.notarized.contains(hash)
    }

    /// Whether `hash` is finalized for this party.
    pub fn is_finalized(&self, hash: &Hash256) -> bool {
        self.finalized.contains(hash)
    }

    /// All valid blocks of `round`, in insertion order.
    pub fn valid_blocks(&self, round: Round) -> Vec<&HashedBlock> {
        self.by_round
            .get(&round)
            .into_iter()
            .flatten()
            .filter(|h| self.valid.contains(*h))
            .map(|h| &self.blocks[h])
            .collect()
    }

    /// Any notarized block of `round` (the first to become notarized
    /// in this pool), with its notarization.
    pub fn notarized_block(&self, round: Round) -> Option<(&HashedBlock, &Notarization)> {
        self.by_round
            .get(&round)
            .into_iter()
            .flatten()
            .find_map(|h| {
                if self.notarized.contains(h) {
                    Some((&self.blocks[h], &self.notarizations[h]))
                } else {
                    None
                }
            })
    }

    /// All notarized blocks of `round`.
    pub fn notarized_blocks(&self, round: Round) -> Vec<&HashedBlock> {
        self.by_round
            .get(&round)
            .into_iter()
            .flatten()
            .filter(|h| self.notarized.contains(*h))
            .map(|h| &self.blocks[h])
            .collect()
    }

    /// The notarization for `hash`, if present.
    pub fn notarization_of(&self, hash: &Hash256) -> Option<&Notarization> {
        self.notarizations.get(hash)
    }

    /// The finalization for `hash`, if present.
    pub fn finalization_of(&self, hash: &Hash256) -> Option<&Finalization> {
        self.finalizations.get(hash)
    }

    /// Whether this pool holds what makes `msg` redundant: the
    /// aggregate, for a notarization / finalization share or another
    /// aggregate of the same kind for the same block; the round's
    /// beacon, for a beacon share or combined value. The dissemination
    /// layer relays only what is not superseded.
    pub fn supersedes(&self, msg: &ConsensusMessage) -> bool {
        match msg {
            ConsensusMessage::Proposal(_) => false,
            ConsensusMessage::NotarizationShare(s) => {
                self.notarizations.contains_key(&s.block_ref.hash)
            }
            ConsensusMessage::Notarization(n) => self.notarizations.contains_key(&n.block_ref.hash),
            ConsensusMessage::FinalizationShare(s) => {
                self.finalizations.contains_key(&s.block_ref.hash)
            }
            ConsensusMessage::Finalization(f) => self.finalizations.contains_key(&f.block_ref.hash),
            ConsensusMessage::BeaconShare(b) => self.beacons.contains_key(&b.round),
            ConsensusMessage::Beacon(b) => self.beacons.contains_key(&b.round),
        }
    }

    /// A *valid but non-notarized* block of `round` holding a full set
    /// of `m − t` notarization shares for the round's epoch; combines
    /// them (Fig. 1 clause (a)). The shares combined are those filed
    /// under the block's own reference, taken from its body.
    pub fn completable_notarization(&mut self, round: Round) -> Option<Notarization> {
        let need = self.setup.epoch_of(round).notarization_threshold();
        let block_ref = self.by_round.get(&round)?.iter().find_map(|h| {
            if !self.valid.contains(h) || self.notarized.contains(h) {
                return None;
            }
            let block_ref = BlockRef::of_hashed(&self.blocks[h]);
            let shares = self.notarization_shares.get(&block_ref)?;
            (shares.len() >= need).then_some(block_ref)
        })?;
        let sig = combine_bucket(
            &self.setup.notary,
            &mut self.notarization_shares,
            &mut self.stats,
            block_ref,
            need,
            |s| s.share,
        )?;
        Some(Notarization { block_ref, sig })
    }

    /// A *valid but non-finalized* block of round > `above` holding a
    /// full set of finalization shares; combines them (Fig. 2 case ii).
    pub fn completable_finalization(&mut self, above: Round) -> Option<Finalization> {
        let (block_ref, need) = self
            .by_round
            .range(above.next()..)
            .flat_map(|(round, hashes)| hashes.iter().map(move |h| (round, h)))
            .find_map(|(round, h)| {
                if !self.valid.contains(h) || self.finalized.contains(h) {
                    return None;
                }
                let need = self.setup.epoch_of(*round).finalization_threshold();
                let block_ref = BlockRef::of_hashed(&self.blocks[h]);
                let shares = self.finalization_shares.get(&block_ref)?;
                (shares.len() >= need).then_some((block_ref, need))
            })?;
        let sig = combine_bucket(
            &self.setup.finality,
            &mut self.finalization_shares,
            &mut self.stats,
            block_ref,
            need,
            |s| s.share,
        )?;
        Some(Finalization { block_ref, sig })
    }

    /// The highest finalized non-genesis block, if any.
    pub fn latest_finalized_block(&self) -> Option<&HashedBlock> {
        self.finalized_by_round
            .iter()
            .next_back()
            .and_then(|(r, h)| (!r.is_genesis()).then(|| &self.blocks[h]))
    }

    /// The highest finalized round (genesis if nothing finalized).
    pub fn latest_finalized_round(&self) -> Round {
        self.finalized_by_round
            .keys()
            .next_back()
            .copied()
            .unwrap_or(Round::GENESIS)
    }

    /// The highest round holding a notarized block (genesis if none).
    pub fn highest_notarized_round(&self) -> Round {
        self.by_round
            .iter()
            .rev()
            .find_map(|(r, hs)| hs.iter().any(|h| self.notarized.contains(h)).then_some(*r))
            .unwrap_or(Round::GENESIS)
    }

    /// The highest finalized non-genesis block with round < `below`, if
    /// any — the handoff block of an epoch whose boundary is `below`.
    pub fn finalized_below(&self, below: Round) -> Option<&HashedBlock> {
        self.finalized_by_round
            .range(..below)
            .next_back()
            .and_then(|(r, h)| (!r.is_genesis()).then(|| &self.blocks[h]))
    }

    /// The highest finalized block with round > `above`, if any
    /// (Fig. 2 case i).
    pub fn finalized_above(&self, above: Round) -> Option<&HashedBlock> {
        self.finalized_by_round
            .range(above.next()..)
            .next_back()
            .map(|(_, h)| &self.blocks[h])
    }

    /// The chain of blocks `(above, k]` ending at `block` (ancestors
    /// first). Returns `None` if any ancestor body is missing — which
    /// cannot happen for a block that is valid for this party.
    pub fn chain_back_to(&self, block: &HashedBlock, above: Round) -> Option<Vec<HashedBlock>> {
        let mut chain = Vec::new();
        let mut cur = block.clone();
        while cur.round() > above {
            let parent = cur.parent();
            let next = if cur.round() == Round::new(1) {
                None
            } else {
                Some(self.blocks.get(&parent)?.clone())
            };
            chain.push(cur);
            match next {
                Some(p) => cur = p,
                None => break,
            }
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
    /// are discarded.
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
        let sig = epoch
            .beacon
            .combine(&msg, shares.values().map(|held| held.share))
            .expect("verified shares combine");
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
        self.beacons
            .keys()
            .next_back()
            .copied()
            .unwrap_or(Round::GENESIS)
    }

    /// All known beacon values of rounds ≥ `from`, ascending.
    pub fn beacons_from(&self, from: Round) -> Vec<(Round, BeaconValue)> {
        self.beacons.range(from..).map(|(r, v)| (*r, *v)).collect()
    }

    /// Discards artifacts strictly below `round` — the garbage-collection
    /// optimization §3.1 alludes to — along with everything that refers
    /// to a block whose body is not held. Genesis is kept.
    pub fn purge_below(&mut self, round: Round) {
        let keep: HashSet<Hash256> = self
            .blocks
            .iter()
            .filter(|(_, b)| b.round() >= round || b.round().is_genesis())
            .map(|(h, _)| *h)
            .collect();
        self.blocks.retain(|h, _| keep.contains(h));
        self.by_round.retain(|r, _| *r >= round || r.is_genesis());
        self.authentic.retain(|h| keep.contains(h));
        self.authenticators.retain(|h, _| keep.contains(h));
        self.valid.retain(|h| keep.contains(h));
        self.notarized.retain(|h| keep.contains(h));
        self.finalized.retain(|h| keep.contains(h));
        self.notarizations.retain(|h, _| keep.contains(h));
        self.finalizations.retain(|h, _| keep.contains(h));
        // By the round a share signs as well: a share over a made-up
        // reference to a held block goes with its claimed round.
        self.notarization_shares
            .retain(|r, _| r.round >= round && keep.contains(&r.hash));
        self.finalization_shares
            .retain(|r, _| r.round >= round && keep.contains(&r.hash));
        self.pending_notarized.retain(|h| keep.contains(h));
        self.pending_finalized.retain(|h| keep.contains(h));
        self.pending_validity.retain(|h| keep.contains(h));
        self.finalized_by_round
            .retain(|r, _| *r >= round || r.is_genesis());
        self.beacon_shares.retain(|r, _| *r >= round);
        // Keep the last beacon below the bar: the next round's message
        // chains from it.
        let last_needed = round.prev().unwrap_or(Round::GENESIS);
        self.beacons.retain(|r, _| *r >= last_needed);
        self.parked_beacons.retain(|b| b.round >= round);
    }

    /// Total number of block bodies held (diagnostics).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}
