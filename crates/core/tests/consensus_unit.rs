//! Direct state-machine tests of `ConsensusCore`: Figure 1's clauses
//! exercised one message at a time, with hand-built artifacts, no
//! simulator in the loop. These pin down the *when* of every protocol
//! action (delay gating, pipelining, disqualification) more precisely
//! than the end-to-end tests can.

use icc_core::artifacts;
use icc_core::byzantine::Behavior;
use icc_core::consensus::ConsensusCore;
use icc_core::delays::StaticDelays;
use icc_core::events::NodeEvent;
use icc_core::keys::{generate_keys, NodeKeys};
use icc_crypto::beacon::{BeaconValue, RankPermutation};
use icc_types::block::{Block, HashedBlock, Payload};
use icc_types::messages::{BlockRef, ConsensusMessage, Notarization};
use icc_types::{Command, Round, SimDuration, SimTime, SubnetConfig};

const N: usize = 4; // t = 1: notarization quorum 3, beacon quorum 2

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn t(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

/// Keys for a 4-party subnet and a core for party 0 with
/// Δbnd = 100 ms, ε = 0 (Δprop(r) = Δntry(r) = 200ms·r).
fn setup() -> (Vec<NodeKeys>, ConsensusCore) {
    let mut keys = generate_keys(SubnetConfig::new(N), 5);
    let k0 = keys.remove(0);
    let core = ConsensusCore::new(
        k0,
        StaticDelays::new(ms(100), SimDuration::ZERO),
        Behavior::Honest,
    );
    let keys = generate_keys(SubnetConfig::new(N), 5);
    (keys, core)
}

fn kinds(msgs: &[ConsensusMessage]) -> Vec<&'static str> {
    msgs.iter().map(|m| m.kind()).collect()
}

/// The round-1 permutation all parties derive (needed to know who the
/// round-1 leader is in these deterministic tests).
fn round1_perm(keys: &[NodeKeys]) -> RankPermutation {
    // Compute beacon 1 from two shares.
    let prev = keys[0].setup.genesis_beacon;
    let msg = icc_crypto::beacon::beacon_sign_message(1, &prev);
    let shares = vec![
        keys[0].beacon().sign_share(&msg),
        keys[1].beacon().sign_share(&msg),
    ];
    let sig = keys[0].setup.beacon.combine(&msg, shares).unwrap();
    RankPermutation::derive(&BeaconValue::Signature(sig), N)
}

fn feed_beacon_round1(
    core: &mut ConsensusCore,
    keys: &[NodeKeys],
    now: SimTime,
) -> Vec<ConsensusMessage> {
    let prev = keys[0].setup.genesis_beacon;
    let share = artifacts::beacon_share(&keys[1], Round::new(1), &prev);
    core.on_message(now, &ConsensusMessage::BeaconShare(share))
        .broadcasts
}

fn block_from(keys: &NodeKeys, round: u64, parent: icc_crypto::Hash256, tag: u8) -> HashedBlock {
    Block::new(
        Round::new(round),
        keys.index,
        parent,
        Payload::from_commands(vec![Command::new(vec![tag])]),
    )
    .into_hashed()
}

fn notarize(keys: &[NodeKeys], block: &HashedBlock) -> Notarization {
    let r = BlockRef::of_hashed(block);
    let shares = keys
        .iter()
        .take(3)
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

#[test]
fn start_broadcasts_round1_beacon_share_only() {
    let (_, mut core) = setup();
    let step = core.start(SimTime::ZERO);
    assert_eq!(kinds(&step.broadcasts), vec!["beacon-share"]);
    assert_eq!(core.current_round(), Round::new(1));
    // Without t+1 = 2 shares, the round has not started: no wakeup yet.
    assert!(step.next_wakeup.is_none());
}

#[test]
fn second_beacon_share_enters_round_and_pipelines_next() {
    let (keys, mut core) = setup();
    core.start(SimTime::ZERO);
    let step = core.on_message(
        t(10),
        &ConsensusMessage::BeaconShare(artifacts::beacon_share(
            &keys[1],
            Round::new(1),
            &keys[0].setup.genesis_beacon,
        )),
    );
    // Pipelining: the share for round 2 goes out the moment beacon 1 is
    // known.
    let bshares: Vec<_> = step
        .broadcasts
        .iter()
        .filter_map(|m| match m {
            ConsensusMessage::BeaconShare(b) => Some(b.round),
            _ => None,
        })
        .collect();
    assert_eq!(bshares, vec![Round::new(2)]);
}

#[test]
fn leader_proposes_immediately_nonleader_waits_2_delta_bnd_per_rank() {
    let (keys, mut core) = setup();
    core.start(SimTime::ZERO);
    let step = feed_beacon_round1(&mut core, &keys, t(10));
    let perm = round1_perm(&keys);
    let my_rank = perm.rank_of(0);
    let proposals = step.iter().filter(|m| m.kind() == "proposal").count();
    if my_rank == 0 {
        assert_eq!(proposals, 1, "leader proposes at Δprop(0) = 0");
    } else {
        assert_eq!(proposals, 0, "rank {my_rank} must wait");
        // The wakeup must be exactly t0 + 200ms·rank.
        let step2 = core.on_wakeup(t(10) + ms(200 * u64::from(my_rank)));
        assert_eq!(
            step2
                .broadcasts
                .iter()
                .filter(|m| m.kind() == "proposal")
                .count(),
            1,
            "proposes once its Δprop elapses"
        );
    }
}

#[test]
fn supports_valid_block_and_finishes_round_at_quorum() {
    let (keys, mut core) = setup();
    core.start(SimTime::ZERO);
    feed_beacon_round1(&mut core, &keys, t(10));
    let perm = round1_perm(&keys);
    let leader = perm.party_at_rank(0) as usize;
    if leader == 0 {
        return; // this seed's round-1 leader is the core itself; covered elsewhere
    }
    let block = block_from(&keys[leader], 1, keys[0].setup.genesis.hash(), 7);
    let proposal = artifacts::proposal(&keys[leader], block.clone(), None);
    let step = core.on_message(t(20), &ConsensusMessage::Proposal(proposal));
    // Leader's block (rank 0): Δntry(0) = 0 ⇒ immediate echo + share.
    let ks = kinds(&step.broadcasts);
    assert!(ks.contains(&"notarization-share"), "{ks:?}");
    assert!(ks.contains(&"proposal"), "echoes the block: {ks:?}");

    // Two more shares complete the quorum (ours + 2 = 3 = n − t):
    let r = BlockRef::of_hashed(&block);
    for (i, k) in keys.iter().enumerate().skip(1).take(2) {
        let share = artifacts::notarization_share(k, r);
        let step = core.on_message(
            t(25 + i as u64),
            &ConsensusMessage::NotarizationShare(share),
        );
        let ks = kinds(&step.broadcasts);
        if i == 2 {
            assert!(ks.contains(&"notarization"), "combined at quorum: {ks:?}");
            assert!(
                ks.contains(&"finalization-share"),
                "N ⊆ {{B}} ⇒ finalization share: {ks:?}"
            );
            assert_eq!(core.current_round(), Round::new(2), "advanced");
        } else {
            assert!(!ks.contains(&"notarization"), "not yet at quorum: {ks:?}");
        }
    }
}

#[test]
fn higher_rank_block_gated_until_its_ntry_and_blocked_by_better() {
    let (keys, mut core) = setup();
    core.start(SimTime::ZERO);
    // Keep the beacon-step broadcasts: when the core itself is the
    // round-1 leader its self-support share is emitted right here
    // (Δntry(0) = 0), not in any of the later steps.
    let step0 = feed_beacon_round1(&mut core, &keys, t(10));
    let perm = round1_perm(&keys);
    // Find the non-core parties of best and worst rank.
    let mut ranked: Vec<usize> = (1..N).collect();
    ranked.sort_by_key(|&p| perm.rank_of(p as u32));
    let best = ranked[0];
    let worst = ranked[2];
    let worst_rank = perm.rank_of(worst as u32);

    // The worst-rank block arrives first; before Δntry(worst) no share.
    let wb = block_from(&keys[worst], 1, keys[0].setup.genesis.hash(), 1);
    let wb_hash = wb.hash();
    let step1 = core.on_message(
        t(20),
        &ConsensusMessage::Proposal(artifacts::proposal(&keys[worst], wb, None)),
    );
    assert!(
        !kinds(&step1.broadcasts).contains(&"notarization-share"),
        "gated by Δntry({worst_rank})"
    );

    // A better block arrives, then the worst rank's gate passes: the
    // core must support the better candidate (its own proposal or the
    // best peer's) and never the worst one (guard (iv)).
    let bb = block_from(&keys[best], 1, keys[0].setup.genesis.hash(), 2);
    let bb_hash = bb.hash();
    let step2 = core.on_message(
        t(21),
        &ConsensusMessage::Proposal(artifacts::proposal(&keys[best], bb, None)),
    );
    let step3 = core.on_wakeup(t(10) + ms(200 * u64::from(worst_rank)) + ms(1));
    let shares: Vec<_> = step0
        .iter()
        .chain([&step1, &step2, &step3].iter().flat_map(|s| &s.broadcasts))
        .filter_map(|m| match m {
            ConsensusMessage::NotarizationShare(s) => Some(s.block_ref.hash),
            _ => None,
        })
        .collect();
    assert!(
        !shares.contains(&wb_hash),
        "worst-ranked block must never be supported"
    );
    if perm.rank_of(best as u32) < perm.rank_of(0) {
        assert!(
            shares.contains(&bb_hash),
            "best peer block supported: {shares:?}"
        );
    } else {
        // The core itself outranks the best peer: it supports its own
        // proposal instead.
        assert_eq!(shares.len(), 1, "exactly one support: {shares:?}");
    }
}

#[test]
fn equivocation_disqualifies_rank_and_withholds_finalization_share() {
    let (keys, mut core) = setup();
    core.start(SimTime::ZERO);
    feed_beacon_round1(&mut core, &keys, t(10));
    let perm = round1_perm(&keys);
    let leader = perm.party_at_rank(0) as usize;
    if leader == 0 {
        return;
    }
    let b1 = block_from(&keys[leader], 1, keys[0].setup.genesis.hash(), 1);
    let b2 = block_from(&keys[leader], 1, keys[0].setup.genesis.hash(), 2);
    let s1 = core.on_message(
        t(20),
        &ConsensusMessage::Proposal(artifacts::proposal(&keys[leader], b1.clone(), None)),
    );
    assert!(kinds(&s1.broadcasts).contains(&"notarization-share"));
    // The second, conflicting block: echoed (so others can catch the
    // equivocation) but NOT supported; rank 0 is disqualified.
    let s2 = core.on_message(
        t(21),
        &ConsensusMessage::Proposal(artifacts::proposal(&keys[leader], b2.clone(), None)),
    );
    let ks = kinds(&s2.broadcasts);
    assert!(ks.contains(&"proposal"), "echoed: {ks:?}");
    assert!(!ks.contains(&"notarization-share"), "not supported: {ks:?}");

    // Now b2 gets notarized by the others. Finishing the round with a
    // block ≠ the one we shared for ⇒ no finalization share (N ⊄ {B}).
    let s3 = core.on_message(t(30), &ConsensusMessage::Notarization(notarize(&keys, &b2)));
    let ks = kinds(&s3.broadcasts);
    assert!(ks.contains(&"notarization"), "{ks:?}");
    assert!(
        !ks.contains(&"finalization-share"),
        "must withhold finalization share after supporting a different block: {ks:?}"
    );
    assert_eq!(core.current_round(), Round::new(2));
}

#[test]
fn crash_behavior_emits_nothing() {
    let keys = generate_keys(SubnetConfig::new(N), 5);
    let mut crashed = ConsensusCore::new(
        generate_keys(SubnetConfig::new(N), 5).remove(0),
        StaticDelays::new(ms(100), SimDuration::ZERO),
        Behavior::Crash,
    );
    assert!(crashed.start(SimTime::ZERO).broadcasts.is_empty());
    let share = artifacts::beacon_share(&keys[1], Round::new(1), &keys[0].setup.genesis_beacon);
    let step = crashed.on_message(t(5), &ConsensusMessage::BeaconShare(share));
    assert!(step.broadcasts.is_empty());
    assert!(step.next_wakeup.is_none());
}

#[test]
fn commands_queue_and_commit_via_finalization() {
    let (keys, mut core) = setup();
    core.start(SimTime::ZERO);
    core.on_command(SimTime::ZERO, Command::new(b"cmd-a".to_vec()));
    core.on_command(SimTime::ZERO, Command::new(b"cmd-a".to_vec())); // duplicate ignored
    assert_eq!(core.pending_commands(), 1);

    feed_beacon_round1(&mut core, &keys, t(10));
    // Build a finalized round-1 block elsewhere and deliver it.
    let b = block_from(&keys[1], 1, keys[0].setup.genesis.hash(), 3);
    let r = BlockRef::of_hashed(&b);
    let fin_shares = keys
        .iter()
        .take(3)
        .map(|k| artifacts::finalization_share(k, r).share);
    let finalization = icc_types::messages::Finalization {
        block_ref: r,
        sig: keys[0]
            .setup
            .finality
            .combine(&r.sign_bytes(), fin_shares)
            .unwrap(),
    };
    core.on_message(
        t(20),
        &ConsensusMessage::Proposal(artifacts::proposal(&keys[1], b.clone(), None)),
    );
    core.on_message(t(21), &ConsensusMessage::Notarization(notarize(&keys, &b)));
    let step = core.on_message(t(22), &ConsensusMessage::Finalization(finalization));
    let commits: Vec<_> = step
        .events
        .iter()
        .filter_map(NodeEvent::as_committed)
        .collect();
    assert_eq!(commits.len(), 1);
    assert_eq!(commits[0].hash(), b.hash());
    assert_eq!(core.committed_round(), Round::new(1));
}

#[test]
fn stale_wakeups_are_harmless() {
    let (keys, mut core) = setup();
    core.start(SimTime::ZERO);
    feed_beacon_round1(&mut core, &keys, t(10));
    let before = core.current_round();
    for i in 0..5 {
        let step = core.on_wakeup(t(11 + i));
        // Repeated wakeups with no new information produce no duplicate
        // broadcasts (at most the one proposal if we are the leader).
        assert!(step.broadcasts.len() <= 1);
    }
    assert_eq!(core.current_round(), before);
}
