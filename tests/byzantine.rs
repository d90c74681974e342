//! Byzantine-fault tests: the protocol holds its guarantees with up to
//! `t` corrupt parties of every implemented behavior profile.

use icc_core::cluster::{Cluster, ClusterBuilder};
use icc_core::events::NodeEvent;
use icc_core::Behavior;
use icc_gossip::{icc0_cluster, GossipNode};
use icc_sim::delay::UniformDelay;
use icc_tests::assert_chains_consistent;
use icc_types::{Rank, SimDuration};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn cluster_with(n: usize, f: usize, behavior: Behavior, seed: u64) -> Cluster<GossipNode> {
    icc0_cluster(
        ClusterBuilder::new(n)
            .seed(seed)
            .network(UniformDelay::new(ms(2), ms(15)))
            .protocol_delays(ms(50), SimDuration::ZERO)
            .behaviors(Behavior::first_f(n, f, behavior)),
    )
}

#[test]
fn crash_t_of_7_still_commits() {
    let mut cluster = cluster_with(7, 2, Behavior::Crash, 1);
    cluster.run_for(SimDuration::from_secs(4));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 20, "committed {}", chain.len());
}

#[test]
fn crash_t_of_13_still_commits() {
    let mut cluster = cluster_with(13, 4, Behavior::Crash, 2);
    cluster.run_for(SimDuration::from_secs(4));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 10, "committed {}", chain.len());
}

#[test]
fn crashed_leaders_never_produce_committed_blocks() {
    let mut cluster = cluster_with(7, 2, Behavior::Crash, 3);
    cluster.run_for(SimDuration::from_secs(4));
    for block in cluster.committed_chain(2) {
        assert!(
            block.proposer().as_usize() >= 2,
            "a crashed node's block was committed"
        );
    }
}

#[test]
fn equivocators_get_disqualified_not_forked() {
    let mut cluster = cluster_with(7, 2, Behavior::Equivocate, 4);
    cluster.run_for(SimDuration::from_secs(4));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 20);
    // Rounds led by an equivocator end with a higher-rank block or one
    // of the equivocating pair — but never two committed blocks (that
    // is what assert_chains_consistent establishes pairwise).
}

#[test]
fn withhold_finalization_below_quorum_is_harmless() {
    // Finalization needs n − t shares; with f ≤ t withholders the
    // remaining n − f ≥ n − t honest parties still reach the quorum.
    let mut cluster = cluster_with(7, 2, Behavior::WithholdFinalization, 5);
    cluster.run_for(SimDuration::from_secs(3));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 30, "commits must continue: {}", chain.len());
}

#[test]
fn withhold_shares_slows_but_does_not_stop_progress() {
    let mut cluster = cluster_with(7, 2, Behavior::WithholdShares, 6);
    cluster.run_for(SimDuration::from_secs(3));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 20, "commits: {}", chain.len());
}

#[test]
fn empty_proposals_commit_but_carry_nothing() {
    let mut cluster = cluster_with(7, 2, Behavior::EmptyProposals, 7);
    cluster.run_for(SimDuration::from_secs(3));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 50);
    for block in &chain {
        if block.proposer().as_usize() < 2 {
            assert!(
                block.block().payload().is_empty(),
                "lazy node proposed a non-empty block?"
            );
        }
    }
}

#[test]
fn mixed_byzantine_cocktail() {
    let mut behaviors = vec![Behavior::Honest; 10];
    behaviors[0] = Behavior::Crash;
    behaviors[1] = Behavior::Equivocate;
    behaviors[2] = Behavior::WithholdFinalization;
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(10)
            .seed(8)
            .network(UniformDelay::new(ms(2), ms(15)))
            .protocol_delays(ms(50), SimDuration::ZERO)
            .behaviors(behaviors),
    );
    cluster.run_for(SimDuration::from_secs(4));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 20, "commits: {}", chain.len());
}

#[test]
fn honest_rounds_still_leader_won_with_corrupt_minority() {
    // In rounds whose leader is honest, the leader's block wins even
    // with corrupt parties around (they cannot outvote the quorum).
    let mut cluster = cluster_with(7, 2, Behavior::Crash, 9);
    cluster.run_for(SimDuration::from_secs(3));
    let observer = cluster.honest_nodes()[0];
    let mut honest_led = 0;
    for o in cluster.events_of(observer).collect::<Vec<_>>() {
        if let NodeEvent::RoundFinished { notarized_rank, .. } = o.output {
            if notarized_rank == Rank::LEADER {
                honest_led += 1;
            }
        }
    }
    assert!(honest_led > 20, "leader-won rounds: {honest_led}");
}

// ---------------------------------------------------------------------
// Re-gossip economics: an equivocator replaying artifacts cannot make
// an honest pool re-do signature verification (the two-tier pipeline's
// acceptance criterion, observable via the pool counters).
// ---------------------------------------------------------------------

mod regossip {
    use icc_core::artifacts;
    use icc_core::keys::generate_keys;
    use icc_core::pool::Pool;
    use icc_types::block::{Block, Payload};
    use icc_types::messages::{BlockRef, ConsensusMessage};
    use icc_types::{NodeIndex, Round, SubnetConfig};
    use std::sync::Arc;

    /// The stream an equivocator would capture off the wire in round 1:
    /// two equivocating proposals, everyone's shares on both forks, and
    /// the round-1 beacon shares.
    fn captured_stream() -> (Vec<ConsensusMessage>, Arc<icc_core::keys::PublicSetup>) {
        let keys = generate_keys(SubnetConfig::new(4), 77);
        let setup = keys[0].setup.clone();
        let mut stream = Vec::new();
        for tag in [1u8, 2] {
            // Two different round-1 blocks by the same proposer.
            let block = Block::new(
                Round::new(1),
                NodeIndex::new(1),
                setup.genesis.hash(),
                Payload::from_commands(vec![icc_types::Command::new(vec![tag])]),
            )
            .into_hashed();
            let r = BlockRef::of_hashed(&block);
            stream.push(ConsensusMessage::Proposal(artifacts::proposal(
                &keys[1], block, None,
            )));
            for k in &keys {
                stream.push(ConsensusMessage::NotarizationShare(
                    artifacts::notarization_share(k, r),
                ));
                stream.push(ConsensusMessage::FinalizationShare(
                    artifacts::finalization_share(k, r),
                ));
            }
        }
        for k in &keys {
            stream.push(ConsensusMessage::BeaconShare(artifacts::beacon_share(
                k,
                Round::new(1),
                &setup.genesis_beacon,
            )));
        }
        (stream, setup)
    }

    #[test]
    fn replayed_artifacts_never_reverify() {
        let (stream, setup) = captured_stream();
        let mut pool = Pool::new(setup);
        for msg in &stream {
            pool.insert(msg);
        }
        pool.try_compute_beacon(Round::new(1));
        let baseline = pool.stats();
        assert!(baseline.verify_calls > 0);

        // The equivocator re-gossips the whole captured stream, over
        // and over, with combine attempts in between.
        const REPLAYS: u64 = 10;
        for _ in 0..REPLAYS {
            for msg in &stream {
                pool.insert(msg);
            }
            pool.try_compute_beacon(Round::new(2));
        }
        let after = pool.stats();
        assert_eq!(
            after.verify_calls, baseline.verify_calls,
            "replay caused re-verification"
        );
        // Every replayed artifact must be dropped without touching
        // crypto — either as an exact duplicate of a pooled artifact,
        // or (for shares the quorum early-stop discarded unverified,
        // which are in no pool section to be duplicates *of*) as
        // redundant-after-quorum again.
        let dup_delta = after.duplicates_dropped - baseline.duplicates_dropped;
        let skip_delta = after.shares_skipped_after_quorum - baseline.shares_skipped_after_quorum;
        assert_eq!(
            dup_delta + skip_delta,
            REPLAYS * stream.len() as u64,
            "every replayed artifact must be cheaply dropped"
        );
        assert!(dup_delta > 0, "duplicate detection must still fire");
        assert!(
            after.verify_cache_hits >= baseline.verify_cache_hits,
            "cache hits must not regress"
        );
    }

    #[test]
    fn beacon_combine_attempts_hit_cache_not_crypto() {
        let (stream, setup) = captured_stream();
        let mut pool = Pool::new(setup);
        // Hold only one beacon share: below the t+1 = 2 threshold, so
        // every combine attempt re-examines it.
        for msg in &stream {
            if matches!(msg, ConsensusMessage::BeaconShare(_)) {
                pool.insert(msg);
                break;
            }
        }
        assert!(pool.try_compute_beacon(Round::new(1)).is_none());
        let baseline = pool.stats();
        for _ in 0..5 {
            assert!(pool.try_compute_beacon(Round::new(1)).is_none());
        }
        let after = pool.stats();
        assert_eq!(
            after.verify_calls, baseline.verify_calls,
            "no re-verification"
        );
        assert_eq!(
            after.verify_cache_hits,
            baseline.verify_cache_hits + 5,
            "each attempt reuses the cached verification"
        );
    }

    /// End-to-end: a full equivocating cluster accumulates duplicate
    /// drops (each party hears every artifact n − 1 extra times under
    /// full broadcast + echoes) while verification work stays bounded
    /// by the number of *distinct* artifacts.
    #[test]
    fn equivocating_cluster_verification_economics() {
        use icc_core::cluster::ClusterBuilder;
        use icc_core::Behavior;
        use icc_gossip::icc0_cluster;
        use icc_sim::delay::UniformDelay;
        use icc_types::SimDuration;

        let mut cluster = icc0_cluster(
            ClusterBuilder::new(4)
                .seed(21)
                .network(UniformDelay::new(
                    SimDuration::from_millis(2),
                    SimDuration::from_millis(15),
                ))
                .protocol_delays(SimDuration::from_millis(50), SimDuration::ZERO)
                .behaviors(Behavior::first_f(4, 1, Behavior::Equivocate)),
        );
        cluster.run_for(SimDuration::from_secs(3));
        cluster.assert_safety();
        let pool = cluster.metrics_summary().pool;
        assert!(pool.verify_calls > 0);
        assert!(
            pool.duplicates_dropped > 0,
            "echoed artifacts must be deduplicated"
        );
        assert!(
            pool.verify_cache_hits > 0,
            "combine attempts must reuse cached verifications"
        );
        // The economic claim: the pipeline absorbed more duplicate work
        // than it performed crypto work only when gossip amplification
        // exceeds 1; at minimum the skipped work is material.
        assert!(
            pool.duplicates_dropped + pool.verify_cache_hits > pool.verify_calls / 2,
            "skipped work (dups {} + hits {}) not material vs verifies {}",
            pool.duplicates_dropped,
            pool.verify_cache_hits,
            pool.verify_calls
        );
    }
}
