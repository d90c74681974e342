//! Protocol ICC2: erasure-coded dissemination must preserve all
//! guarantees at `O(S)` bits per party and the paper's `3δ`/`4δ`
//! timing.

use icc_core::cluster::ClusterBuilder;
use icc_core::Behavior;
use icc_core::BlockPolicy;
use icc_erasure::{icc2_cluster, Icc2Config};
use icc_gossip::icc0_cluster;
use icc_sim::delay::FixedDelay;
use icc_tests::{assert_chains_consistent, committed_commands};
use icc_types::{SimDuration, SimTime};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn builder(n: usize, seed: u64) -> ClusterBuilder {
    ClusterBuilder::new(n)
        .seed(seed)
        .network(FixedDelay::new(ms(10)))
        .protocol_delays(ms(90), SimDuration::ZERO)
}

#[test]
fn commits_with_rbc_dissemination() {
    let mut cluster = icc2_cluster(
        builder(7, 1),
        Icc2Config {
            inline_threshold: 0,
        },
    );
    cluster.run_for(SimDuration::from_secs(3));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 20, "committed {}", chain.len());
}

#[test]
fn round_time_is_3_delta_latency_4_delta() {
    let mut cluster = icc2_cluster(
        builder(4, 2),
        Icc2Config {
            inline_threshold: 0,
        },
    );
    cluster.run_for(SimDuration::from_secs(2));
    assert_chains_consistent(&cluster);
    let stats = cluster.round_stats(0);
    let durations: Vec<u64> = stats
        .iter()
        .filter(|(r, _, _)| r.get() > 1)
        .map(|(_, d, _)| d.as_micros())
        .collect();
    let mean = durations.iter().sum::<u64>() / durations.len() as u64;
    assert!(
        (29_000..32_000).contains(&mean),
        "ICC2 round time {mean}µs ≉ 3δ = 30ms"
    );
}

#[test]
fn large_commands_commit_through_rbc() {
    let b = builder(7, 3).block_policy(BlockPolicy {
        max_commands: 100,
        max_bytes: 1 << 20,
        purge_depth: None,
    });
    let mut cluster = icc2_cluster(b, Icc2Config::default());
    cluster.inject_commands(SimTime::ZERO, ms(500), 15, 65536);
    cluster.run_for(SimDuration::from_secs(4));
    assert_chains_consistent(&cluster);
    assert_eq!(committed_commands(&cluster, 0).len(), 15);
    let sent = &cluster.sim.metrics().per_node()[0].sent_by_kind;
    assert!(
        sent.contains_key("rbc-fragment"),
        "kinds: {:?}",
        sent.keys()
    );
}

#[test]
fn per_party_traffic_beats_full_broadcast() {
    let policy = BlockPolicy {
        max_commands: 100,
        max_bytes: 512 << 10,
        purge_depth: None,
    };
    let mut icc0 = icc0_cluster(builder(13, 4).block_policy(policy));
    icc0.inject_commands(SimTime::ZERO, ms(500), 30, 65536);
    icc0.run_for(SimDuration::from_secs(3));
    let mean0 = icc0.sim.metrics().mean_node_bytes();

    let mut icc2c = icc2_cluster(builder(13, 4).block_policy(policy), Icc2Config::default());
    icc2c.inject_commands(SimTime::ZERO, ms(500), 30, 65536);
    icc2c.run_for(SimDuration::from_secs(3));
    let mean2 = icc2c.sim.metrics().mean_node_bytes();

    assert!(
        mean2 * 2.0 < mean0,
        "RBC should cut mean traffic at least 2x: icc0={mean0} icc2={mean2}"
    );
}

#[test]
fn crash_faults_tolerated_with_rbc() {
    let b = builder(7, 5).behaviors(Behavior::first_f(7, 2, Behavior::Crash));
    let mut cluster = icc2_cluster(
        b,
        Icc2Config {
            inline_threshold: 0,
        },
    );
    cluster.run_for(SimDuration::from_secs(4));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 10, "committed {}", chain.len());
}

#[test]
fn equivocating_dispersals_are_contained() {
    let b = builder(7, 6).behaviors(Behavior::first_f(7, 2, Behavior::Equivocate));
    let mut cluster = icc2_cluster(
        b,
        Icc2Config {
            inline_threshold: 0,
        },
    );
    cluster.run_for(SimDuration::from_secs(4));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 10, "committed {}", chain.len());
}
