//! Catching up: parties that missed rounds (partition, slow links)
//! recover from their peers' pooled artifacts — and the limits of the
//! purge optimization when they cannot.

use icc_core::cluster::ClusterBuilder;
use icc_core::BlockPolicy;
use icc_gossip::icc0_cluster;
use icc_sim::policy::Partition;
use icc_tests::assert_chains_consistent;
use icc_types::{NodeIndex, SimDuration, SimTime};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

#[test]
fn isolated_node_catches_up_completely() {
    // Node 6 is cut off for 2 s while the other six keep committing;
    // after healing it must reach the same committed round.
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(7)
            .seed(1)
            .protocol_delays(ms(60), SimDuration::ZERO)
            .policy(Partition {
                from: at(500),
                until: at(2500),
                group_a: vec![NodeIndex::new(6)],
            }),
    );
    cluster.run_until(at(2400));
    let majority = cluster.committed_round(0);
    let isolated = cluster.committed_round(6);
    assert!(
        majority > isolated + 30,
        "majority must run ahead: {majority} vs {isolated}"
    );
    // Heal and allow catch-up.
    cluster.run_until(at(4000));
    assert_chains_consistent(&cluster);
    let caught_up = cluster.committed_round(6);
    let majority_now = cluster.committed_round(0);
    assert!(
        majority_now - caught_up <= 2,
        "isolated node must catch up: {caught_up} vs {majority_now}"
    );
}

#[test]
fn catch_up_works_within_purge_window() {
    // With purging enabled but a window larger than the outage, peers
    // still hold everything the returning node needs.
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(4)
            .seed(2)
            .protocol_delays(ms(60), SimDuration::ZERO)
            .block_policy(BlockPolicy {
                max_commands: 100,
                max_bytes: 1 << 20,
                purge_depth: Some(200),
            })
            .policy(Partition {
                from: at(300),
                until: at(1300),
                group_a: vec![NodeIndex::new(3)],
            }),
    );
    cluster.run_until(at(3000));
    assert_chains_consistent(&cluster);
    let behind = cluster.committed_round(3);
    let ahead = cluster.committed_round(0);
    assert!(
        ahead - behind <= 2,
        "within-window catch-up: {behind} vs {ahead}"
    );
}

#[test]
fn eventual_delivery_makes_deep_purging_safe() {
    // A subtlety of the paper's network model: every broadcast message
    // is *eventually delivered* (§1), so a partitioned node's missing
    // artifacts are owed to it by the network itself — peers purging
    // their pools (§3.1 optimization) cannot strand it. Even with a
    // purge window (5 rounds) far smaller than the outage (~33 rounds),
    // the returning node catches up fully from in-flight deliveries.
    // (A deployment whose transport actually *drops* messages would need
    // state sync here, as PBFT's checkpointing provides; that transport
    // assumption is outside the paper's model.)
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(4)
            .seed(3)
            .protocol_delays(ms(60), SimDuration::ZERO)
            .block_policy(BlockPolicy {
                max_commands: 100,
                max_bytes: 1 << 20,
                purge_depth: Some(5),
            })
            .policy(Partition {
                from: at(300),
                until: at(2300),
                group_a: vec![NodeIndex::new(3)],
            }),
    );
    cluster.run_until(at(4000));
    assert_chains_consistent(&cluster);
    let behind = cluster.committed_round(3);
    let ahead = cluster.committed_round(0);
    assert!(
        ahead - behind <= 2,
        "eventual delivery must close the gap: {behind} vs {ahead}"
    );
}
