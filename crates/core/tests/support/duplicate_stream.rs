//! A duplicate-heavy artifact stream: three rounds of real n = 4
//! consensus traffic, each artifact repeated [`DUP_FACTOR`] times.
//! Shared by the duplicate-stream test (`pool_differential.rs`) and the
//! `consensus_round` bench's `pool_duplicate_inserts` group.

use icc_core::artifacts;
use icc_core::keys::{generate_keys, NodeKeys, PublicSetup};
use icc_types::block::{Block, Payload};
use icc_types::messages::{BlockRef, ConsensusMessage, Notarization};
use icc_types::{NodeIndex, Round, SubnetConfig};
use std::sync::Arc;

/// How many times each distinct artifact appears in the stream —
/// re-gossip pressure from an n=4 flood where every relay forwards.
pub const DUP_FACTOR: usize = 8;

fn notarization_of(keys: &[NodeKeys], block_ref: BlockRef) -> Notarization {
    let setup = &keys[0].setup;
    let shares = (0..setup.config.notarization_threshold())
        .map(|i| artifacts::notarization_share(&keys[i], block_ref).share);
    Notarization {
        block_ref,
        sig: setup
            .notary
            .combine(&block_ref.sign_bytes(), shares)
            .expect("threshold shares combine"),
    }
}

/// Three rounds of real consensus traffic (proposals, all parties'
/// shares, aggregates) plus a *sub-threshold* set of round-1 beacon
/// shares, each artifact repeated [`DUP_FACTOR`] times round-robin.
/// Sub-threshold beacon shares mean every combine attempt re-examines
/// the held shares — already checked in the pool, through `S_sig.verify`
/// again in the eager reference pool.
pub fn duplicate_stream() -> (Arc<PublicSetup>, Vec<ConsensusMessage>) {
    let n = 4usize;
    let keys = generate_keys(SubnetConfig::new(n), 9);
    let setup = keys[0].setup.clone();
    let mut unique = Vec::new();

    let mut parent = setup.genesis.clone();
    let mut parent_notarization: Option<Notarization> = None;
    for round in 1..=3u64 {
        let round = Round::new(round);
        let proposer = round.get() as usize % n;
        let block = Block::new(
            round,
            NodeIndex::new(proposer as u32),
            parent.hash(),
            Payload::empty(),
        )
        .into_hashed();
        let block_ref = BlockRef::of_hashed(&block);
        unique.push(ConsensusMessage::Proposal(artifacts::proposal(
            &keys[proposer],
            block.clone(),
            parent_notarization.clone(),
        )));
        for k in &keys {
            unique.push(ConsensusMessage::NotarizationShare(
                artifacts::notarization_share(k, block_ref),
            ));
            unique.push(ConsensusMessage::FinalizationShare(
                artifacts::finalization_share(k, block_ref),
            ));
        }
        let notarization = notarization_of(&keys, block_ref);
        unique.push(ConsensusMessage::Notarization(notarization.clone()));
        parent = block;
        parent_notarization = Some(notarization);
    }
    // One beacon share short of the threshold: combine keeps failing.
    for k in keys
        .iter()
        .take(setup.config.beacon_threshold().saturating_sub(1))
    {
        unique.push(ConsensusMessage::BeaconShare(artifacts::beacon_share(
            k,
            Round::new(1),
            &setup.genesis_beacon,
        )));
    }

    let mut stream = Vec::with_capacity(unique.len() * DUP_FACTOR);
    for _ in 0..DUP_FACTOR {
        stream.extend(unique.iter().cloned());
    }
    (setup, stream)
}
