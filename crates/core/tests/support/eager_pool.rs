//! The seed's eager-verification pool, kept verbatim as a reference
//! model (test code: nothing in the shipping crate calls it).
//!
//! [`EagerPool`] verifies every signature at insertion time, exactly as
//! the seed's pool did. It exists for two purposes:
//!
//! * the differential property test asserts that the pool
//!   ([`icc_core::pool::Pool`]) reaches the **same classification**
//!   (§3.4) as this model on arbitrary artifact streams;
//! * the duplicate-stream test checks that the pool verifies less than
//!   this model does.

use icc_core::keys::PublicSetup;
use icc_crypto::beacon::{beacon_sign_message, BeaconValue};
use icc_crypto::threshold::ThresholdSigShare;
use icc_crypto::Hash256;
use icc_types::block::HashedBlock;
use icc_types::messages::{
    domains, BlockRef, ConsensusMessage, Finalization, FinalizationShare, Notarization,
    NotarizationShare,
};
use icc_types::Round;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The eager-verification pool (the seed's behavior).
#[derive(Debug)]
pub struct EagerPool {
    setup: Arc<PublicSetup>,
    blocks: HashMap<Hash256, HashedBlock>,
    by_round: BTreeMap<Round, Vec<Hash256>>,
    authentic: HashSet<Hash256>,
    valid: HashSet<Hash256>,
    notarized: HashSet<Hash256>,
    finalized: HashSet<Hash256>,
    authenticators: HashMap<Hash256, icc_crypto::sig::Signature>,
    notarizations: HashMap<Hash256, Notarization>,
    finalizations: HashMap<Hash256, Finalization>,
    notarization_shares: HashMap<Hash256, BTreeMap<u32, NotarizationShare>>,
    finalization_shares: HashMap<Hash256, BTreeMap<u32, FinalizationShare>>,
    finalization_share_rounds: BTreeMap<Round, HashSet<Hash256>>,
    pending_notarized: HashSet<Hash256>,
    pending_finalized: HashSet<Hash256>,
    refs: HashMap<Hash256, BlockRef>,
    beacon_shares: BTreeMap<Round, BTreeMap<u32, ThresholdSigShare>>,
    beacons: BTreeMap<Round, BeaconValue>,
    pending_validity: HashSet<Hash256>,
    finalized_by_round: BTreeMap<Round, Hash256>,
    rejected: u64,
    verify_calls: u64,
}

impl EagerPool {
    /// An empty pool with genesis pre-classified (as [`icc_core::pool::Pool::new`]).
    pub fn new(setup: Arc<PublicSetup>) -> EagerPool {
        let genesis = setup.genesis.clone();
        let ghash = genesis.hash();
        let mut pool = EagerPool {
            setup,
            blocks: HashMap::new(),
            by_round: BTreeMap::new(),
            authentic: HashSet::new(),
            authenticators: HashMap::new(),
            valid: HashSet::new(),
            notarized: HashSet::new(),
            finalized: HashSet::new(),
            notarizations: HashMap::new(),
            finalizations: HashMap::new(),
            notarization_shares: HashMap::new(),
            finalization_shares: HashMap::new(),
            finalization_share_rounds: BTreeMap::new(),
            pending_notarized: HashSet::new(),
            pending_finalized: HashSet::new(),
            refs: HashMap::new(),
            beacon_shares: BTreeMap::new(),
            beacons: BTreeMap::new(),
            pending_validity: HashSet::new(),
            finalized_by_round: BTreeMap::new(),
            rejected: 0,
            verify_calls: 0,
        };
        pool.beacons
            .insert(Round::GENESIS, pool.setup.genesis_beacon);
        pool.blocks.insert(ghash, genesis);
        pool.by_round.insert(Round::GENESIS, vec![ghash]);
        pool.authentic.insert(ghash);
        pool.valid.insert(ghash);
        pool.notarized.insert(ghash);
        pool.finalized.insert(ghash);
        pool.finalized_by_round.insert(Round::GENESIS, ghash);
        pool
    }

    /// Artifacts rejected for failing verification.
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// Signature verifications performed (for benchmark comparison with
    /// [`icc_core::pool::PoolStats::verify_calls`]).
    pub fn verify_calls(&self) -> u64 {
        self.verify_calls
    }

    /// Inserts an incoming message's artifacts, verifying signatures
    /// eagerly. Returns `true` if anything new and valid entered.
    pub fn insert(&mut self, msg: &ConsensusMessage) -> bool {
        let changed = match msg {
            ConsensusMessage::Proposal(p) => {
                let mut changed = false;
                if let Some(n) = &p.parent_notarization {
                    changed |= self.insert_notarization(n.clone());
                }
                changed |= self.insert_block(p.block.clone(), &p.authenticator);
                changed
            }
            ConsensusMessage::NotarizationShare(s) => self.insert_notarization_share(*s),
            ConsensusMessage::Notarization(n) => self.insert_notarization(n.clone()),
            ConsensusMessage::FinalizationShare(s) => self.insert_finalization_share(*s),
            ConsensusMessage::Finalization(f) => self.insert_finalization(f.clone()),
            ConsensusMessage::BeaconShare(b) => self
                .beacon_shares
                .entry(b.round)
                .or_default()
                .insert(b.share.signer, b.share)
                .is_none(),
            ConsensusMessage::Beacon(b) => self.insert_beacon_value(*b),
            ConsensusMessage::Commands { .. } => false,
        };
        if changed {
            self.recheck_validity();
        }
        changed
    }

    fn insert_block(
        &mut self,
        block: HashedBlock,
        authenticator: &icc_crypto::sig::Signature,
    ) -> bool {
        let hash = block.hash();
        if self.authentic.contains(&hash) {
            return false;
        }
        let block_ref = BlockRef::of_hashed(&block);
        if block.round().is_genesis() {
            self.rejected += 1;
            return false;
        }
        let Some(pk) = self.setup.auth_keys.get(block.proposer().as_usize()) else {
            self.rejected += 1;
            return false;
        };
        self.verify_calls += 1;
        if !pk.verify(domains::AUTH, &block_ref.sign_bytes(), authenticator) {
            self.rejected += 1;
            return false;
        }
        self.refs.insert(hash, block_ref);
        self.blocks.insert(hash, block.clone());
        self.by_round.entry(block.round()).or_default().push(hash);
        self.authentic.insert(hash);
        self.authenticators.insert(hash, *authenticator);
        self.pending_validity.insert(hash);
        true
    }

    /// Inserts a verified notarization.
    pub fn insert_notarization(&mut self, n: Notarization) -> bool {
        if self.notarizations.contains_key(&n.block_ref.hash) {
            return false;
        }
        self.verify_calls += 1;
        if !self.setup.notary.verify(&n.block_ref.sign_bytes(), &n.sig) {
            self.rejected += 1;
            return false;
        }
        let hash = n.block_ref.hash;
        self.refs.insert(hash, n.block_ref);
        self.notarizations.insert(hash, n);
        if self.valid.contains(&hash) {
            self.notarized.insert(hash);
        } else {
            self.pending_notarized.insert(hash);
        }
        self.recheck_validity();
        true
    }

    /// Inserts a verified finalization.
    pub fn insert_finalization(&mut self, f: Finalization) -> bool {
        if self.finalizations.contains_key(&f.block_ref.hash) {
            return false;
        }
        self.verify_calls += 1;
        if !self
            .setup
            .finality
            .verify(&f.block_ref.sign_bytes(), &f.sig)
        {
            self.rejected += 1;
            return false;
        }
        let hash = f.block_ref.hash;
        self.refs.insert(hash, f.block_ref);
        self.finalizations.insert(hash, f);
        if self.valid.contains(&hash) {
            self.mark_finalized(hash);
        } else {
            self.pending_finalized.insert(hash);
        }
        self.recheck_validity();
        true
    }

    fn insert_notarization_share(&mut self, s: NotarizationShare) -> bool {
        self.verify_calls += 1;
        if !self
            .setup
            .notary
            .verify_share(&s.block_ref.sign_bytes(), &s.share)
        {
            self.rejected += 1;
            return false;
        }
        self.refs.insert(s.block_ref.hash, s.block_ref);
        self.notarization_shares
            .entry(s.block_ref.hash)
            .or_default()
            .insert(s.share.signer, s)
            .is_none()
    }

    fn insert_finalization_share(&mut self, s: FinalizationShare) -> bool {
        self.verify_calls += 1;
        if !self
            .setup
            .finality
            .verify_share(&s.block_ref.sign_bytes(), &s.share)
        {
            self.rejected += 1;
            return false;
        }
        self.refs.insert(s.block_ref.hash, s.block_ref);
        self.finalization_share_rounds
            .entry(s.block_ref.round)
            .or_default()
            .insert(s.block_ref.hash);
        self.finalization_shares
            .entry(s.block_ref.hash)
            .or_default()
            .insert(s.share.signer, s)
            .is_none()
    }

    /// Inserts a combined beacon value, verifying it eagerly against the
    /// previous value and the group key. Values whose predecessor is
    /// unknown are dropped (the eager model holds nothing pending).
    fn insert_beacon_value(&mut self, b: icc_types::messages::Beacon) -> bool {
        if self.beacons.contains_key(&b.round) {
            return false;
        }
        let Some(prev) = b.round.prev().and_then(|p| self.beacons.get(&p)).copied() else {
            return false;
        };
        let BeaconValue::Signature(sig) = b.value else {
            self.rejected += 1;
            return false;
        };
        self.verify_calls += 1;
        if !self
            .setup
            .beacon
            .verify(&beacon_sign_message(b.round.get(), &prev), &sig)
        {
            self.rejected += 1;
            return false;
        }
        self.beacons.insert(b.round, b.value);
        true
    }

    fn recheck_validity(&mut self) {
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

    /// The computed beacon value for `round`, if known.
    pub fn beacon(&self, round: Round) -> Option<&BeaconValue> {
        self.beacons.get(&round)
    }

    /// Attempts to compute the round-`round` beacon from held shares
    /// (re-verifying every held share on each attempt, as the seed did).
    pub fn try_compute_beacon(&mut self, round: Round) -> Option<BeaconValue> {
        if self.beacons.contains_key(&round) {
            return None;
        }
        let prev = *self.beacons.get(&round.prev()?)?;
        let msg = beacon_sign_message(round.get(), &prev);
        let shares = self.beacon_shares.entry(round).or_default();
        let setup = &self.setup;
        let mut dropped = 0u64;
        let mut verified = 0u64;
        shares.retain(|_, s| {
            verified += 1;
            let ok = setup.beacon.verify_share(&msg, s);
            if !ok {
                dropped += 1;
            }
            ok
        });
        self.verify_calls += verified;
        self.rejected += dropped;
        if shares.len() < self.setup.config.beacon_threshold() {
            return None;
        }
        let sig = self
            .setup
            .beacon
            .combine(&msg, shares.values().copied())
            .expect("verified shares combine");
        let value = BeaconValue::Signature(sig);
        self.beacons.insert(round, value);
        Some(value)
    }

    /// Number of block bodies held.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}
