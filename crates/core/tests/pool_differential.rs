//! Differential property test: the pool must reach exactly the
//! classification (§3.4: valid / notarized / finalized) of the seed's
//! eager-verification pool on arbitrary artifact streams — any
//! interleaving, duplicates and replays, forged artifacts, blocks
//! arriving before the parent notarization that makes them valid
//! (pending promotions), whole share floods with a forged share in
//! front, shares past the quorum and shares behind the aggregate, and
//! genuine signatures over made-up references to real blocks.
//!
//! The eager model ([`EagerPool`]) is the seed's implementation kept
//! verbatim in `pool::reference`: it checks every signature of every
//! message, duplicates included. The pool ([`Pool`]) drops duplicates
//! and shares past a quorum before any check. Equal final
//! classification — and the same quorums completing — on random streams
//! is the correctness argument for everything the pool skips; the
//! verification-count comparison at the bottom is the performance
//! argument.

use icc_core::artifacts;
use icc_core::keys::{generate_keys, NodeKeys};
use icc_core::pool::{EagerPool, Pool};
use icc_crypto::Hash256;
use icc_types::block::{Block, Payload};
use icc_types::messages::{BlockRef, ConsensusMessage, Finalization, Notarization};
use icc_types::{NodeIndex, Round, SubnetConfig};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Block tree: two forks per round for three rounds, both children of
/// the previous round's first fork (so fork B of each round exercises
/// the valid-but-not-extended paths).
struct Universe {
    keys: Vec<NodeKeys>,
    /// Every message in the universe, duplicated freely by the stream.
    messages: Vec<ConsensusMessage>,
    /// References of all real (non-forged) blocks.
    blocks: Vec<BlockRef>,
    /// One notarization and one finalization share flood per real block.
    floods: Vec<Flood>,
}

/// Everything signed over one block under one scheme, as a burst.
struct Flood {
    /// Every party's share, in signer order: the last one arrives after
    /// the quorum.
    shares: Vec<ConsensusMessage>,
    /// A share attributed to signer 0 but signed by someone else.
    forged: ConsensusMessage,
    /// The aggregate (fork A only, like the rest of the universe).
    aggregate: Option<ConsensusMessage>,
}

/// One step of a generated stream.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Any message of the universe.
    Pick(usize),
    /// The message sent this many steps ago, again.
    Replay(usize),
    /// A whole [`Flood`], optionally behind a forged share for the same
    /// block and optionally behind the aggregate.
    Flood {
        which: usize,
        forged_first: bool,
        aggregate_first: bool,
    },
}

impl Step {
    fn decode(v: u16) -> Step {
        let arg = (v / 4) as usize;
        match v % 4 {
            0 => Step::Flood {
                which: arg / 4,
                forged_first: arg & 1 == 1,
                aggregate_first: arg & 2 == 2,
            },
            1 => Step::Replay(arg % 16 + 1),
            _ => Step::Pick(arg),
        }
    }
}

impl Universe {
    /// Expands generated steps into the message stream.
    fn stream(&self, steps: &[Step]) -> Vec<&ConsensusMessage> {
        let mut out: Vec<&ConsensusMessage> = Vec::new();
        for step in steps {
            match *step {
                Step::Pick(i) => out.push(&self.messages[i % self.messages.len()]),
                Step::Replay(back) => {
                    if let Some(&m) = out.len().checked_sub(back).and_then(|i| out.get(i)) {
                        out.push(m);
                    }
                }
                Step::Flood {
                    which,
                    forged_first,
                    aggregate_first,
                } => {
                    let flood = &self.floods[which % self.floods.len()];
                    if forged_first {
                        out.push(&flood.forged);
                    }
                    if aggregate_first {
                        out.extend(&flood.aggregate);
                    }
                    out.extend(&flood.shares);
                }
            }
        }
        out
    }
}

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

fn finalization_of(keys: &[NodeKeys], block_ref: BlockRef) -> Finalization {
    let setup = &keys[0].setup;
    let shares = (0..setup.config.finalization_threshold())
        .map(|i| artifacts::finalization_share(&keys[i], block_ref).share);
    Finalization {
        block_ref,
        sig: setup
            .finality
            .combine(&block_ref.sign_bytes(), shares)
            .expect("threshold shares combine"),
    }
}

fn build_universe(seed: u64) -> Universe {
    let n = 4usize;
    let keys = generate_keys(SubnetConfig::new(n), seed);
    let setup = keys[0].setup.clone();
    let mut messages = Vec::new();
    let mut blocks = Vec::new();
    let mut floods = Vec::new();

    let mut parent = setup.genesis.clone();
    let mut parent_notarization: Option<Notarization> = None;
    for round in 1..=3u64 {
        let round = Round::new(round);
        // Two forks per round by different proposers.
        let forks: Vec<_> = (0..2usize)
            .map(|f| {
                let proposer = (round.get() as usize + f) % n;
                let block = Block::new(
                    round,
                    NodeIndex::new(proposer as u32),
                    parent.hash(),
                    Payload::empty(),
                )
                .into_hashed();
                let proposal = artifacts::proposal(
                    &keys[proposer],
                    block.clone(),
                    parent_notarization.clone(),
                );
                (block, proposal)
            })
            .collect();
        // Aggregates for fork A only; fork B stays share-only (so the
        // completable-aggregate path differs from the aggregate path).
        let (block_a, _) = &forks[0];
        let ref_a = BlockRef::of_hashed(block_a);
        let notarization = notarization_of(&keys, ref_a);
        let finalization = finalization_of(&keys, ref_a);
        for (block, proposal) in &forks {
            let block_ref = BlockRef::of_hashed(block);
            blocks.push(block_ref);
            messages.push(ConsensusMessage::Proposal(proposal.clone()));
            // Shares from every party over both forks, plus one that
            // party 3 signed and attributes to party 0.
            let on_a = block_ref == ref_a;
            let n_share = |k: &NodeKeys, claimed: u32| {
                let mut s = artifacts::notarization_share(k, block_ref);
                s.share.signer = claimed;
                ConsensusMessage::NotarizationShare(s)
            };
            let f_share = |k: &NodeKeys, claimed: u32| {
                let mut s = artifacts::finalization_share(k, block_ref);
                s.share.signer = claimed;
                ConsensusMessage::FinalizationShare(s)
            };
            floods.push(Flood {
                shares: keys.iter().map(|k| n_share(k, k.index.get())).collect(),
                forged: n_share(&keys[3], 0),
                aggregate: on_a.then(|| ConsensusMessage::Notarization(notarization.clone())),
            });
            floods.push(Flood {
                shares: keys.iter().map(|k| f_share(k, k.index.get())).collect(),
                forged: f_share(&keys[3], 0),
                aggregate: on_a.then(|| ConsensusMessage::Finalization(finalization.clone())),
            });
            for flood in &floods[floods.len() - 2..] {
                messages.extend(flood.shares.iter().cloned());
            }
        }
        messages.push(ConsensusMessage::Notarization(notarization.clone()));
        messages.push(ConsensusMessage::Finalization(finalization));
        // Beacon shares for this round from every party (verified at
        // combine time only — §3.4).
        if round == Round::new(1) {
            for k in &keys {
                messages.push(ConsensusMessage::BeaconShare(artifacts::beacon_share(
                    k,
                    round,
                    &setup.genesis_beacon,
                )));
            }
        }
        parent = block_a.clone();
        parent_notarization = Some(notarization);
    }

    // Forged artifacts: both pools must reject them identically.
    // (1) A proposal whose authenticator was produced by the wrong key.
    let forged_block = Block::new(
        Round::new(1),
        NodeIndex::new(0),
        setup.genesis.hash(),
        Payload::from_commands(vec![icc_types::Command::new(b"forged".to_vec())]),
    )
    .into_hashed();
    let mut forged_proposal = artifacts::proposal(&keys[1], forged_block, None);
    // keys[1] signed, but the block names proposer 0: S_auth must fail.
    forged_proposal.parent_notarization = None;
    messages.push(ConsensusMessage::Proposal(forged_proposal));
    // (2) A notarization share transplanted onto a different block ref.
    let real_share = artifacts::notarization_share(
        &keys[2],
        BlockRef {
            round: Round::new(2),
            proposer: NodeIndex::new(9),
            hash: Hash256([0xAB; 32]),
        },
    );
    let mut transplanted = real_share;
    transplanted.block_ref = BlockRef {
        round: Round::new(1),
        proposer: NodeIndex::new(1),
        hash: blocks[0].hash,
    };
    messages.push(ConsensusMessage::NotarizationShare(transplanted));
    // (3) Genuine signatures by party 3 over a made-up reference to a
    // real block: each verifies on its own and must count towards
    // nothing — least of all the real block's quorum.
    let made_up = BlockRef {
        round: Round::new(2),
        ..blocks[0]
    };
    messages.push(ConsensusMessage::NotarizationShare(
        artifacts::notarization_share(&keys[3], made_up),
    ));
    messages.push(ConsensusMessage::FinalizationShare(
        artifacts::finalization_share(&keys[3], made_up),
    ));

    Universe {
        keys,
        messages,
        blocks,
        floods,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Same classification as the eager reference on random streams.
    #[test]
    fn prop_two_tier_matches_eager_classification(
        seed in 0u64..500,
        steps in proptest::collection::vec(any::<u16>().prop_map(Step::decode), 10..160),
        beacon_probe in any::<u16>(),
    ) {
        let universe = build_universe(seed);
        let setup = universe.keys[0].setup.clone();
        let mut pipeline = Pool::new(Arc::clone(&setup));
        let mut eager = EagerPool::new(Arc::clone(&setup));
        // Distinct signers whose *genuine* share over a reference the
        // stream has presented, per scheme: what a quorum can be built
        // from.
        type Signers = HashMap<BlockRef, BTreeSet<u32>>;
        let mut notarizers: Signers = HashMap::new();
        let mut finalizers: Signers = HashMap::new();

        for (i, msg) in universe.stream(&steps).into_iter().enumerate() {
            pipeline.insert(msg);
            eager.insert(msg);
            match msg {
                ConsensusMessage::NotarizationShare(s)
                    if setup.notary.verify_share(&s.block_ref.sign_bytes(), &s.share) =>
                {
                    notarizers.entry(s.block_ref).or_default().insert(s.share.signer);
                }
                ConsensusMessage::FinalizationShare(s)
                    if setup.finality.verify_share(&s.block_ref.sign_bytes(), &s.share) =>
                {
                    finalizers.entry(s.block_ref).or_default().insert(s.share.signer);
                }
                _ => {}
            }
            // Occasionally try combining the beacon mid-stream, so
            // partial share sets are exercised on both sides.
            if i as u16 % 13 == beacon_probe % 13 {
                pipeline.try_compute_beacon(Round::new(1));
                eager.try_compute_beacon(Round::new(1));
            }
        }
        pipeline.try_compute_beacon(Round::new(1));
        eager.try_compute_beacon(Round::new(1));

        for hash in universe.blocks.iter().map(|b| &b.hash) {
            prop_assert_eq!(
                pipeline.is_valid(hash), eager.is_valid(hash),
                "valid mismatch for {:?}", hash
            );
            prop_assert_eq!(
                pipeline.is_notarized(hash), eager.is_notarized(hash),
                "notarized mismatch for {:?}", hash
            );
            prop_assert_eq!(
                pipeline.is_finalized(hash), eager.is_finalized(hash),
                "finalized mismatch for {:?}", hash
            );
        }
        prop_assert_eq!(
            pipeline.beacon(Round::new(1)).copied(),
            eager.beacon(Round::new(1)).copied(),
            "beacon mismatch"
        );
        prop_assert_eq!(pipeline.block_count(), eager.block_count());

        // Every quorum the stream's genuine shares allow completes —
        // whatever was forged ahead of them, replayed between them or
        // dropped past the quorum. (A valid block that is not yet
        // notarized has no aggregate held, so no share of it was
        // skipped for that reason; likewise for finalized.)
        let open = |valid: bool, certified: bool, signers: Option<&BTreeSet<u32>>, need: usize| {
            valid && !certified && signers.map_or(0, BTreeSet::len) >= need
        };
        for (i, forks) in universe.blocks.chunks(2).enumerate() {
            let round = Round::new(i as u64 + 1);
            let need = setup.config.notarization_threshold();
            let expected: Vec<&BlockRef> = forks
                .iter()
                .filter(|b| {
                    let (valid, done) = (pipeline.is_valid(&b.hash), pipeline.is_notarized(&b.hash));
                    open(valid, done, notarizers.get(b), need)
                })
                .collect();
            match pipeline.completable_notarization(round) {
                Some(n) => {
                    prop_assert!(expected.contains(&&n.block_ref), "round {}", round);
                    prop_assert!(setup.notary.verify(&n.block_ref.sign_bytes(), &n.sig));
                }
                None => prop_assert!(expected.is_empty(), "round {} quorum lost", round),
            }
        }
        let need = setup.config.finalization_threshold();
        let expected: Vec<&BlockRef> = universe
            .blocks
            .iter()
            .filter(|b| {
                let (valid, done) = (pipeline.is_valid(&b.hash), pipeline.is_finalized(&b.hash));
                open(valid, done, finalizers.get(b), need)
            })
            .collect();
        match pipeline.completable_finalization(Round::GENESIS) {
            Some(f) => {
                prop_assert!(expected.contains(&&f.block_ref));
                prop_assert!(setup.finality.verify(&f.block_ref.sign_bytes(), &f.sig));
            }
            None => prop_assert!(expected.is_empty(), "finalization quorum lost"),
        }

        // The performance half of the argument: the pipeline never
        // verifies more than the eager pool, and any duplicate in the
        // stream must have been absorbed without crypto.
        prop_assert!(
            pipeline.stats().verify_calls <= eager.verify_calls(),
            "pipeline verified {} > eager {}",
            pipeline.stats().verify_calls, eager.verify_calls()
        );
    }
}
