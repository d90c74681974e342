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
//! verbatim in `support/eager_pool.rs`: it checks every signature of every
//! message, duplicates included. The pool ([`Pool`]) drops duplicates
//! and shares past a quorum before any check. Equal final
//! classification — and the same quorums completing — on random streams
//! is the correctness argument for everything the pool skips; the
//! verification-count comparisons (in the proptest, and over a fixed
//! duplicate-heavy stream) are the performance argument.

use icc_core::artifacts;
use icc_core::keys::{generate_keys, NodeKeys};
use icc_core::pool::Pool;
use icc_crypto::Hash256;
use icc_types::block::{Block, Payload};
use icc_types::messages::{BlockRef, ConsensusMessage, Finalization, Notarization};
use icc_types::{NodeIndex, Round, SubnetConfig};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use support::duplicate_stream::duplicate_stream;
use support::eager_pool::EagerPool;

mod support;

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

    /// The same streams with `purge_below` at random points: after every
    /// step every public read returns for every universe hash and round
    /// (no read can find a block in one place and miss it in another),
    /// and what the record implies holds. The floor only rises; whatever
    /// the stream sends next, nothing of a round below it is held again
    /// — while a beacon value outlives its block (the split retention).
    #[test]
    fn prop_reads_hold_across_purges(
        seed in 0u64..500,
        steps in proptest::collection::vec(any::<u16>().prop_map(Step::decode), 10..120),
        purges in proptest::collection::vec(any::<u16>(), 1..6),
    ) {
        let universe = build_universe(seed);
        let setup = universe.keys[0].setup.clone();
        let genesis = setup.genesis.hash();
        let mut pool = Pool::new(Arc::clone(&setup));
        let rounds: Vec<Round> = (0..=4).map(Round::new).collect();
        for r in &rounds[1..] {
            pool.install_beacon_trusted(*r, setup.genesis_beacon);
        }

        let stream = universe.stream(&steps);
        for (i, msg) in stream.iter().enumerate() {
            pool.insert(msg);
            check_reads(&mut pool, &universe, &rounds);
            // A purge (bar = v mod 6) after message v / 6 of the stream.
            for v in purges.iter().filter(|v| (**v / 6) as usize % stream.len() == i) {
                let bar = Round::new(u64::from(*v % 6));
                let floor = pool.floor();
                pool.purge_below(bar);
                prop_assert_eq!(pool.floor(), floor.max(bar));
                check_reads(&mut pool, &universe, &rounds);
            }
            // Nothing below the floor but `root` — and every beacon.
            let floor = pool.floor();
            prop_assert!(pool.is_finalized(&genesis) && pool.block(&genesis).is_some());
            for b in universe.blocks.iter().filter(|b| b.round < floor) {
                prop_assert!(pool.block(&b.hash).is_none(), "{:?} held", b);
                prop_assert!(!pool.is_valid(&b.hash));
                prop_assert!(pool.notarization_of(&b.hash).is_none());
                prop_assert!(pool.finalization_of(&b.hash).is_none());
                prop_assert!(pool.proposal_of(&b.hash).is_none());
            }
            prop_assert!(rounds.iter().all(|r| *r >= floor || r.is_genesis()
                || pool.valid_blocks(*r).is_empty() && pool.beacon_share_count(*r) == 0));
            prop_assert!(pool.latest_finalized_round() >= floor
                || pool.latest_finalized_round().is_genesis());
            prop_assert!(rounds.iter().all(|r| pool.beacon(*r).is_some()));
        }
    }
}

/// Calls every public read of `pool` for every hash and round of the
/// universe and checks the implications between their answers.
fn check_reads(pool: &mut Pool, universe: &Universe, rounds: &[Round]) {
    for b in &universe.blocks {
        let h = &b.hash;
        let body = pool.block(h).cloned();
        if pool.is_notarized(h) {
            prop_assert!(pool.is_valid(h) && body.is_some() && pool.notarization_of(h).is_some());
        }
        if pool.is_finalized(h) {
            prop_assert!(pool.is_valid(h) && pool.finalization_of(h).is_some());
            // Filed under its round (the universe finalizes one fork per
            // round, so the highest finalized block ≤ its round is itself).
            let filed = pool.finalized_below(b.round.next()).map(|f| f.hash());
            prop_assert_eq!(filed, Some(*h));
        }
        if pool.is_valid(h) {
            let held = pool.certified_block(h);
            prop_assert!(held.is_some_and(|c| BlockRef::of_hashed(&c.proposal.block) == *b));
            prop_assert!(pool.proposal_of(h).is_some_and(|p| {
                (b.round == Round::new(1)) == p.parent_notarization.is_none()
            }));
        }
        if let Some(body) = body {
            for above in rounds {
                pool.chain_back_to(&body, *above);
            }
        }
    }
    for r in rounds {
        let valid: Vec<Hash256> = pool.valid_blocks(*r).iter().map(|b| b.hash()).collect();
        let notarized = pool.notarized_blocks(*r);
        prop_assert!(notarized.iter().all(|b| valid.contains(&b.hash())));
        let first = pool.notarized_block(*r);
        prop_assert_eq!(first.is_some(), !notarized.is_empty() && !r.is_genesis());
        prop_assert!(first.is_none_or(|(b, n)| n.block_ref == BlockRef::of_hashed(b)));
        if let Some(n) = pool.completable_notarization(*r) {
            prop_assert!(pool.is_valid(&n.block_ref.hash) && !pool.is_notarized(&n.block_ref.hash));
        }
        if let Some(f) = pool.completable_finalization(*r) {
            prop_assert!(f.block_ref.round > *r && !pool.is_finalized(&f.block_ref.hash));
        }
        let (above, below) = (pool.finalized_above(*r), pool.finalized_below(*r));
        prop_assert!(above.is_none_or(|b| b.round() > *r && pool.is_finalized(&b.hash())));
        prop_assert!(below.is_none_or(|b| b.round() < *r && pool.is_finalized(&b.hash())));
    }
    let tip = pool
        .latest_finalized_block()
        .map_or(Round::GENESIS, |b| b.round());
    prop_assert_eq!(tip, pool.latest_finalized_round());
    // A finalization may be held without the notarization: no order
    // between the two frontiers, the read just has to answer.
    pool.highest_notarized_round();
}

/// The pool verifies strictly less than the eager model over a fixed
/// stream in which every artifact arrives eight times.
#[test]
fn duplicates_never_reach_verification() {
    let (setup, stream) = duplicate_stream();
    let mut pool = Pool::new(Arc::clone(&setup));
    let mut eager = EagerPool::new(setup);
    for (i, msg) in stream.iter().enumerate() {
        pool.insert(msg);
        eager.insert(msg);
        // Gossip nodes poll the beacon combine like this.
        if i % 16 == 0 {
            pool.try_compute_beacon(Round::new(1));
            eager.try_compute_beacon(Round::new(1));
        }
    }
    // Every artifact is genuine: the eager model rejects none of them,
    // yet verifies every copy.
    assert_eq!(eager.rejected_count(), 0);
    let (pool, eager) = (pool.stats().verify_calls, eager.verify_calls());
    assert!(
        pool < eager,
        "duplicates reached verification: {pool} ≥ {eager}"
    );
}
