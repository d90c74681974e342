//! Dynamic membership: epoch boundaries, beacon-key resharing, and the
//! cross-epoch certificate chain (ROADMAP item 5).
//!
//! The member set of the subnet changes only at predetermined boundary
//! rounds of an [`EpochSchedule`]. At each boundary the beacon key is
//! *reshared* — the group public key (and so the beacon sequence) is
//! preserved, while the share vector moves to the new member positions —
//! and the pool classifier switches to the new epoch's signer set and
//! quorums. These tests drive real clusters across boundaries (join,
//! leave, replace, no-op reshare), then attack the machinery: forged
//! reshare dealings, stale-epoch shares, and forged links in the
//! cross-epoch catch-up certificate chain must all be rejected.

use icc_core::byzantine::Behavior;
use icc_core::cluster::{Cluster, ClusterBuilder};
use icc_core::consensus::ConsensusCore;
use icc_core::delays::StaticDelays;
use icc_core::epoch::{EpochSchedule, EpochSpec};
use icc_core::events::NodeEvent;
use icc_core::keys::generate_keys_with_schedule;
use icc_core::recovery::CatchUpError;
use icc_crypto::dkg::{reshare_aggregate, ReshareDealing};
use icc_crypto::sig::PublicKey;
use icc_crypto::threshold::Dealer;
use icc_crypto::CryptoError;
use icc_gossip::{icc0_cluster, GossipNode};
use icc_types::{Round, SimDuration, SimTime, SubnetConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Rounds in which `node` broadcast its own proposal.
fn proposed_rounds(cluster: &Cluster<GossipNode>, node: usize) -> Vec<Round> {
    cluster
        .events_of(node)
        .filter_map(|o| match &o.output {
            NodeEvent::Proposed { round, .. } => Some(*round),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Boundary acceptance: join / leave / replace / no-op reshare.
// ---------------------------------------------------------------------

#[test]
fn join_at_boundary_admits_new_member() {
    // Universe of 5; node 4 joins at round 25.
    let schedule = EpochSchedule::new(vec![
        EpochSpec::new(Round::GENESIS, vec![0, 1, 2, 3]),
        EpochSpec::new(Round::new(25), vec![0, 1, 2, 3, 4]),
    ]);
    let mut cluster = icc0_cluster(ClusterBuilder::new(5).seed(41).with_epochs(schedule));
    cluster.run_for(SimDuration::from_secs(4));
    cluster.assert_safety();
    assert!(
        cluster.min_committed_round() > 60,
        "cluster must keep committing across the boundary (got {})",
        cluster.min_committed_round()
    );

    // Every node crossed into epoch 1 at the boundary round.
    for node in 0..5 {
        assert_eq!(
            cluster.epochs_entered(node),
            vec![(Round::new(25), 1)],
            "node {node} must report the boundary"
        );
    }

    // The joiner proposed only after the boundary — and did propose
    // (5 members, >100 rounds: rank 0 lands on everyone eventually).
    let rounds = proposed_rounds(&cluster, 4);
    assert!(!rounds.is_empty(), "joined member must propose in epoch 1");
    assert!(
        rounds.iter().all(|r| *r >= Round::new(25)),
        "non-member must not propose before joining: {rounds:?}"
    );
}

#[test]
fn leave_at_boundary_demotes_member_to_observer() {
    let schedule = EpochSchedule::new(vec![
        EpochSpec::new(Round::GENESIS, vec![0, 1, 2, 3, 4]),
        EpochSpec::new(Round::new(25), vec![0, 1, 2, 3]),
    ]);
    let mut cluster = icc0_cluster(ClusterBuilder::new(5).seed(42).with_epochs(schedule));
    cluster.run_for(SimDuration::from_secs(4));
    cluster.assert_safety();
    assert!(cluster.min_committed_round() > 60);

    // The departed node proposed before the boundary, never after.
    let rounds = proposed_rounds(&cluster, 4);
    assert!(
        !rounds.is_empty(),
        "node 4 was a member of epoch 0 and must have proposed"
    );
    assert!(
        rounds.iter().all(|r| *r < Round::new(25)),
        "departed member must not propose in epoch 1: {rounds:?}"
    );

    // ...but it still observes: certified artifacts keep reaching it,
    // so its committed chain keeps growing past the boundary.
    assert!(
        cluster.committed_round(4) > 60,
        "observer must keep committing (got {})",
        cluster.committed_round(4)
    );
}

#[test]
fn replace_at_boundary_swaps_members() {
    let schedule = EpochSchedule::new(vec![
        EpochSpec::new(Round::GENESIS, vec![0, 1, 2, 3]),
        EpochSpec::new(Round::new(25), vec![0, 1, 2, 4]),
    ]);
    let mut cluster = icc0_cluster(ClusterBuilder::new(5).seed(43).with_epochs(schedule));
    cluster.run_for(SimDuration::from_secs(4));
    cluster.assert_safety();
    assert!(cluster.min_committed_round() > 60);

    let old = proposed_rounds(&cluster, 3);
    let new = proposed_rounds(&cluster, 4);
    assert!(old.iter().all(|r| *r < Round::new(25)));
    assert!(!new.is_empty() && new.iter().all(|r| *r >= Round::new(25)));
}

#[test]
fn noop_reshare_preserves_progress() {
    // Same member set on both sides of the boundary: pure key rotation.
    let schedule = EpochSchedule::new(vec![
        EpochSpec::new(Round::GENESIS, vec![0, 1, 2, 3]),
        EpochSpec::new(Round::new(20), vec![0, 1, 2, 3]),
    ]);
    let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(44).with_epochs(schedule));
    cluster.run_for(SimDuration::from_secs(3));
    cluster.assert_safety();
    assert!(cluster.min_committed_round() > 50);
    for node in 0..4 {
        assert_eq!(cluster.epochs_entered(node), vec![(Round::new(20), 1)]);
    }
}

#[test]
fn multi_boundary_schedule_rotates_through_members() {
    // Three boundaries walking the member set around the universe.
    let schedule = EpochSchedule::new(vec![
        EpochSpec::new(Round::GENESIS, vec![0, 1, 2, 3]),
        EpochSpec::new(Round::new(20), vec![0, 1, 2, 4]),
        EpochSpec::new(Round::new(40), vec![0, 1, 3, 4]),
        EpochSpec::new(Round::new(60), vec![0, 1, 2, 3, 4]),
    ]);
    let mut cluster = icc0_cluster(ClusterBuilder::new(5).seed(45).with_epochs(schedule));
    cluster.run_for(SimDuration::from_secs(5));
    cluster.assert_safety();
    assert!(
        cluster.min_committed_round() > 90,
        "cluster must survive all three reshares (got {})",
        cluster.min_committed_round()
    );
    assert_eq!(
        cluster.epochs_entered(0),
        vec![
            (Round::new(20), 1),
            (Round::new(40), 2),
            (Round::new(60), 3)
        ]
    );
    // Locally-finalized boundary crossings show up in the recovery
    // counters of every node that crossed them.
    assert!(cluster.recovery_stats(0).epoch_transitions >= 3);
}

// ---------------------------------------------------------------------
// Adversarial matrix.
// ---------------------------------------------------------------------

/// Forged reshare dealings must fail the binding check one by one and
/// poison any aggregate that includes them.
#[test]
fn forged_reshare_dealings_rejected_and_counted() {
    let mut rng = StdRng::seed_from_u64(9);
    let old = Dealer::deal(2, 4, &mut rng);
    let old_public = old.public();

    let honest: Vec<ReshareDealing> = old
        .signers()
        .iter()
        .map(|s| ReshareDealing::deal(s, 2, 4, &mut rng))
        .collect();
    assert!(honest.iter().all(|d| d.verify_binding(&old_public, 2)));

    // An unrelated instance with the same shape: its signers are not
    // registered parties of `old`, and its key material is alien.
    let alien = Dealer::deal(2, 4, &mut rng);

    let mut forged = Vec::new();
    // (a) Dealer index outside the old registry.
    let mut d = honest[0].clone();
    d.dealer = 17;
    forged.push(d);
    // (b) Registered index, alien secret: dealt by a signer of a
    // different instance (a made-up share).
    forged.push(ReshareDealing::deal(&alien.signer(1), 2, 4, &mut rng));
    // (c) Claimed public share that is not the registered one.
    let mut d = honest[2].clone();
    d.dealer_public = alien.public().global_key();
    forged.push(d);
    // (d) Tampered sub-share commitments: polynomial no longer passes
    // through the claimed share at zero.
    let mut d = honest[3].clone();
    d.share_publics[0] = PublicKey::from_value(d.share_publics[0].value() ^ 1);
    forged.push(d);

    let rejected = forged
        .iter()
        .filter(|d| !d.verify_binding(&old_public, 2))
        .count();
    assert_eq!(rejected, forged.len(), "every forgery must be rejected");

    // Any aggregate containing a forgery errors; the honest set works
    // and reproduces the old group key. (Aggregation truncates to the
    // lowest `old.threshold()` dealer indices, so pick dealers 0 and 2:
    // the forged dealer-2 dealing is guaranteed into the combined set.)
    let poisoned = vec![honest[0].clone(), forged[2].clone()];
    match reshare_aggregate(&old_public, 2, &poisoned) {
        Err(CryptoError::InvalidShare { .. }) => {}
        other => panic!("poisoned aggregate must fail InvalidShare, got {other:?}"),
    }
    let new = reshare_aggregate(&old_public, 2, &honest).expect("honest reshare");
    assert_eq!(
        new.public().global_key(),
        old_public.global_key(),
        "reshare must preserve the group key"
    );
}

/// A share produced with old-epoch key material must not verify under
/// the new epoch's commitments, even at a position both epochs use.
#[test]
fn old_epoch_shares_refused_in_new_epoch() {
    let schedule = EpochSchedule::new(vec![
        EpochSpec::new(Round::GENESIS, vec![0, 1, 2, 3]),
        EpochSpec::new(Round::new(10), vec![0, 1, 2, 4]),
    ]);
    let keys = generate_keys_with_schedule(SubnetConfig::new(5), 7, &schedule);
    let setup = &keys[0].setup;
    let msg = b"round-11-beacon-input";

    // Node 1 is a member of both epochs (position 1 in both). Its
    // epoch-0 share key is dead after the reshare: the new epoch's
    // commitment at position 1 is a fresh sub-share combination.
    let old_signer = keys[1].beacon_signer_for(Round::new(5)).unwrap();
    let new_epoch = &setup.epochs[1];
    let stale = old_signer.sign_share(msg);
    assert!(
        setup.epochs[0].beacon.verify_share(msg, &stale),
        "sanity: the share is valid in its own epoch"
    );
    assert!(
        !new_epoch.beacon.verify_share(msg, &stale),
        "old-epoch share must be refused in the new epoch"
    );

    // The genuine new-epoch share at the same position verifies.
    let fresh = keys[1]
        .beacon_signer_for(Round::new(10))
        .unwrap()
        .sign_share(msg);
    assert!(new_epoch.beacon.verify_share(msg, &fresh));

    // The departed node has no new-epoch signing handle at all.
    assert!(keys[3].beacon_signer_for(Round::new(10)).is_none());
    assert!(!keys[3].is_member_at(Round::new(10)));
}

/// Cross-epoch catch-up: the certificate chain must be complete and
/// every link must verify under the *outgoing* epoch's signer set; a
/// forged or missing link rejects the package wholesale.
#[test]
fn cross_epoch_catch_up_verifies_certificate_chain() {
    let schedule = EpochSchedule::new(vec![
        EpochSpec::new(Round::GENESIS, vec![0, 1, 2, 3]),
        EpochSpec::new(Round::new(15), vec![0, 1, 2, 4]),
        EpochSpec::new(Round::new(30), vec![0, 1, 3, 4]),
    ]);
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(5)
            .seed(46)
            .with_epochs(schedule.clone()),
    );
    cluster.run_for(SimDuration::from_secs(3));
    cluster.assert_safety();
    assert!(cluster.min_committed_round() > 40);

    // A package spanning genesis → current tip crosses both boundaries.
    let pkg = cluster
        .sim
        .node(0)
        .core()
        .build_catch_up_package(Round::GENESIS)
        .expect("server has a finalized chain");
    assert!(pkg.round() > Round::new(30));
    assert_eq!(
        pkg.transitions.iter().map(|t| t.epoch).collect::<Vec<_>>(),
        vec![1, 2],
        "one ascending link per crossed boundary"
    );
    for t in &pkg.transitions {
        let outgoing = &schedule.epochs()[t.epoch as usize - 1];
        let next = &schedule.epochs()[t.epoch as usize];
        assert!(
            t.round() >= outgoing.start_round && t.round() < next.start_round,
            "handoff block of epoch {} must lie in the outgoing epoch",
            t.epoch
        );
    }

    // A fresh replica of the same subnet, parked at genesis (epoch 0).
    let fresh = || {
        let keys = generate_keys_with_schedule(SubnetConfig::new(5), 46, &schedule)
            .into_iter()
            .nth(1)
            .unwrap();
        let mut core = ConsensusCore::new(
            keys,
            StaticDelays::new(ms(30), SimDuration::ZERO),
            Behavior::Honest,
        );
        core.start(SimTime::ZERO);
        core
    };
    let now = cluster.now();

    // Missing link: drop the epoch-1 transition.
    let mut core = fresh();
    let mut bad = pkg.clone();
    bad.transitions.remove(0);
    assert_eq!(
        core.apply_catch_up(&bad, now).unwrap_err(),
        CatchUpError::MissingTransition
    );

    // Forged link: a signature from the wrong domain.
    let mut bad = pkg.clone();
    bad.transitions[0].finalization.sig = bad.transitions[0].notarization.sig.clone();
    assert_eq!(
        core.apply_catch_up(&bad, now).unwrap_err(),
        CatchUpError::BadTransition
    );

    // Forged link: relabeled epoch number (chain out of order).
    let mut bad = pkg.clone();
    bad.transitions[0].epoch = 2;
    assert!(core.apply_catch_up(&bad, now).is_err());

    // Nothing installed by the rejected packages.
    assert_eq!(core.committed_round(), Round::GENESIS);
    assert_eq!(core.recovery_stats().catch_up_applied, 0);
    assert_eq!(core.recovery_stats().cross_epoch_catch_ups, 0);

    // The honest package fast-forwards the replica across both
    // boundaries in one certified hop.
    core.apply_catch_up(&pkg, now)
        .expect("honest package verifies");
    assert_eq!(core.committed_round(), pkg.round());
    let stats = core.recovery_stats();
    assert_eq!(stats.catch_up_applied, 1);
    assert_eq!(stats.cross_epoch_catch_ups, 1);
    assert_eq!(stats.epoch_transitions, 2, "both links newly archived");

    // The caught-up replica can now serve the chain onward itself.
    let relay = core
        .build_catch_up_package(Round::GENESIS)
        .expect("caught-up replica holds the transition chain");
    assert_eq!(relay.transitions, pkg.transitions);
    let mut other = fresh();
    other
        .apply_catch_up(&relay, now)
        .expect("relayed package verifies");
}

// ---------------------------------------------------------------------
// Property: every valid schedule preserves safety and liveness.
// ---------------------------------------------------------------------

/// Random valid membership schedules over a 5-node universe: member
/// sets of size ≥ 3, boundaries 12–20 rounds apart.
/// Decodes a drawn `(masks, gaps)` pair into a valid schedule: each
/// epoch's member set is a 5-bit mask, padded up to ≥ 3 members with the
/// lowest absent indices; boundaries are 12–20 rounds apart.
fn schedule_from_draw(masks: &[u32], gaps: &[u64]) -> EpochSchedule {
    let mut specs = Vec::new();
    let mut start = 0u64;
    for (i, mask) in masks.iter().enumerate() {
        let mut members: Vec<u32> = (0..5).filter(|i| mask & (1 << i) != 0).collect();
        let mut next = 0;
        while members.len() < 3 {
            if !members.contains(&next) {
                members.push(next);
            }
            next += 1;
        }
        specs.push(EpochSpec::new(Round::new(start), members));
        start += gaps[i.min(gaps.len() - 1)];
    }
    EpochSchedule::new(specs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any valid membership schedule preserves agreement: honest nodes
    /// never commit conflicting blocks, across any number of reshares,
    /// and the cluster keeps finalizing past the last boundary.
    #[test]
    fn any_valid_schedule_preserves_safety(
        masks in proptest::collection::vec(0u32..32, 2..5usize),
        gaps in proptest::collection::vec(12u64..21, 3usize),
        seed in 0u64..500,
    ) {
        let schedule = schedule_from_draw(&masks, &gaps);
        let last_boundary = schedule.epochs().last().unwrap().start_round;
        let mut cluster = icc0_cluster(ClusterBuilder::new(5)
            .seed(seed)
            .with_epochs(schedule)
        );
        cluster.run_for(SimDuration::from_secs(3));
        cluster.assert_safety();
        prop_assert!(
            cluster.min_committed_round() > last_boundary.get() + 10,
            "cluster stalled: committed {} with last boundary {}",
            cluster.min_committed_round(),
            last_boundary
        );
    }
}
