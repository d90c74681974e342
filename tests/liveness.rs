//! Liveness (Properties P1 and P3): the tree grows every round; under
//! partial synchrony with an honest leader the leader's block finalizes
//! in its own round; intermittent synchrony maintains throughput.

use icc_core::cluster::ClusterBuilder;
use icc_core::events::NodeEvent;
use icc_gossip::icc0_cluster;
use icc_sim::policy::AsyncWindow;
use icc_tests::assert_chains_consistent;
use icc_types::{Rank, SimDuration, SimTime};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

#[test]
fn p3_honest_synchronous_rounds_commit_leader_blocks() {
    // All honest, synchronous, delays satisfying 2δ + Δprop(0) ≤ Δntry(1):
    // every round's notarized block must be the leader's (rank 0), and
    // every round commits.
    let mut cluster = icc0_cluster(ClusterBuilder::new(7).seed(1));
    cluster.run_for(SimDuration::from_secs(2));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 50);
    for (round, _, rank) in cluster.round_stats(0) {
        assert_eq!(rank, Rank::LEADER, "non-leader block notarized in {round}");
    }
    // Consecutive rounds, no gaps: block k's parent is block k-1.
    for w in chain.windows(2) {
        assert_eq!(w[1].parent(), w[0].hash());
        assert_eq!(w[1].round().get(), w[0].round().get() + 1);
    }
}

#[test]
fn p1_tree_grows_even_while_commits_stall() {
    // An asynchronous window stalls finalization, but rounds must keep
    // finishing once messages flow again — and a block exists for every
    // round in between (the committed chain has no round gaps).
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(4)
            .seed(2)
            .protocol_delays(ms(60), SimDuration::ZERO)
            .policy(AsyncWindow {
                from: SimTime::ZERO + ms(200),
                until: SimTime::ZERO + ms(1200),
            }),
    );
    cluster.run_for(SimDuration::from_secs(3));
    let chain = assert_chains_consistent(&cluster);
    for w in chain.windows(2) {
        assert_eq!(
            w[1].round().get(),
            w[0].round().get() + 1,
            "round gap in the committed chain"
        );
    }
    assert!(chain.len() > 30);
}

#[test]
fn commits_catch_up_after_intermittent_synchrony() {
    // "Even if the network is only intermittently synchronous, the
    // system will maintain a constant throughput": two async windows,
    // then compare the total committed rounds with elapsed time.
    let mut builder = ClusterBuilder::new(4)
        .seed(3)
        .protocol_delays(ms(60), SimDuration::ZERO);
    for i in 0..2u64 {
        builder = builder.policy(AsyncWindow {
            from: SimTime::ZERO + ms(300 + i * 1000),
            until: SimTime::ZERO + ms(800 + i * 1000),
        });
    }
    let mut cluster = icc0_cluster(builder);
    cluster.run_for(SimDuration::from_secs(3));
    let committed = cluster.min_committed_round();
    // 3 s at 20 ms/round = 150 rounds if fully synchronous; with 1 s of
    // asynchrony total, expect on the order of 100 — far from stalled.
    assert!(committed > 80, "committed only {committed} rounds");
}

#[test]
fn every_honest_party_enters_every_round() {
    let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(4));
    cluster.run_for(SimDuration::from_secs(1));
    for node in 0..4 {
        let entered: Vec<u64> = cluster
            .events_of(node)
            .filter_map(|o| match o.output {
                NodeEvent::EnteredRound { round, .. } => Some(round.get()),
                _ => None,
            })
            .collect();
        assert!(entered.len() > 40);
        for (i, r) in entered.iter().enumerate() {
            assert_eq!(*r, i as u64 + 1, "node {node} skipped a round");
        }
    }
}

#[test]
fn degenerate_single_node_subnet_commits_alone() {
    // n = 1 ⇒ t = 0, every quorum is 1: the lone party is always the
    // leader and immediately satisfies every quorum itself. Without a
    // governor it could run unboundedly fast (the paper's reason for
    // ε: "setting it to a non-zero value will keep the protocol from
    // running 'too fast'"), so pace rounds at ε = 1 ms.
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(1)
            .seed(9)
            .protocol_delays(ms(10), ms(1)),
    );
    cluster.run_for(SimDuration::from_millis(100));
    let committed = cluster.min_committed_round();
    assert!((80..=101).contains(&committed), "≈1 round/ms: {committed}");
    cluster.assert_safety();
}

#[test]
fn two_node_subnet_requires_both() {
    // n = 2 ⇒ t = 0: both signatures are needed for every quorum.
    let mut cluster = icc0_cluster(ClusterBuilder::new(2).seed(9));
    cluster.run_for(SimDuration::from_secs(1));
    cluster.assert_safety();
    assert!(cluster.min_committed_round() > 10);
}

#[test]
fn commit_latency_is_3_delta_in_steady_state() {
    let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(5));
    cluster.run_for(SimDuration::from_secs(2));
    // Latency from the proposer's own `Proposed` event to each commit
    // must be exactly 3δ = 30 ms in the synchronous steady state.
    let mut proposed_at = std::collections::HashMap::new();
    for node in 0..cluster.n() {
        for o in cluster.events_of(node) {
            if let NodeEvent::Proposed { hash, .. } = o.output {
                proposed_at.entry(hash).or_insert(o.at.as_micros());
            }
        }
    }
    let mut checked = 0;
    for o in cluster.events_of(0).collect::<Vec<_>>() {
        if let NodeEvent::Committed { block } = &o.output {
            if block.round().get() <= 1 {
                continue;
            }
            let p = proposed_at[&block.hash()];
            let latency = o.at.as_micros() - p;
            assert_eq!(
                latency,
                30_000,
                "round {}: latency {latency}µs ≠ 3δ",
                block.round()
            );
            checked += 1;
        }
    }
    assert!(checked > 50);
}

#[test]
fn round_durations_match_2delta_envelope() {
    // Fixed 10ms network, honest leaders: rounds should finish in
    // ~2δ = 20ms (plus self-delivery epsilon).
    let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(3));
    cluster.run_for(SimDuration::from_secs(2));
    let stats = cluster.round_stats(0);
    assert!(stats.len() > 50);
    // Skip round 1 (startup) and average the rest.
    let avg_us: u64 = stats[1..]
        .iter()
        .map(|(_, d, _)| d.as_micros())
        .sum::<u64>()
        / (stats.len() as u64 - 1);
    assert!(
        (18_000..26_000).contains(&avg_us),
        "average round duration {avg_us}µs not ≈ 2δ = 20ms"
    );
}
