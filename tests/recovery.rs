//! Crash–recovery acceptance: a replica taken down mid-run by the fault
//! plan restarts from its checkpoint + WAL, detects from round-tagged
//! adverts that it fell behind, fetches a *certified* catch-up package
//! from a peer, and contributes again — all without replaying the
//! missed rounds artifact-by-artifact, and without trusting the serving
//! peer (forged packages are rejected and the requester rotates).

use icc_core::cluster::ClusterBuilder;
use icc_core::{BlockPolicy, NodeEvent};
use icc_gossip::{Overlay, Recipe};
use icc_sim::delay::FixedDelay;
use icc_sim::FaultPlan;
use icc_types::{NodeIndex, SimDuration, SimTime};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

fn builder(n: usize, seed: u64) -> ClusterBuilder {
    ClusterBuilder::new(n)
        .seed(seed)
        .network(FixedDelay::new(ms(10)))
        .protocol_delays(ms(60), SimDuration::ZERO)
        .checkpoint_interval(8)
}

/// The ISSUE's acceptance scenario: n = 4, one replica crashed for ≥ 20
/// rounds, restarts, catches up via certified packages, and rejoins.
#[test]
fn restart_catches_up_via_certified_packages() {
    let plan = FaultPlan::new().crash_between(NodeIndex::new(3), at(1000), at(4000));
    let mut cluster = Recipe::shipped(4).cluster(builder(4, 21).fault_plan(plan));
    cluster.run_for(SimDuration::from_secs(10));

    // The replica restarted once and caught up via certified packages;
    // no honest package was rejected.
    let rec = cluster.recovery_stats(3);
    assert_eq!(rec.restarts, 1, "{rec:?}");
    assert!(rec.catch_up_applied >= 1, "{rec:?}");
    assert_eq!(rec.catch_up_rejected, 0, "{rec:?}");
    assert!(rec.catch_up_bytes > 0, "{rec:?}");
    assert!(rec.wal_appends > 0, "{rec:?}");
    assert!(rec.checkpoints >= 1, "{rec:?}");
    // Down for 3 s at ~60 ms+ per round: it skipped well over 20 rounds,
    // and the catch-up jumped over them rather than replaying them.
    assert!(rec.rounds_behind_total >= 20, "{rec:?}");

    // The jump is observable in the event trace.
    let caught_up: Vec<(u64, u64)> = cluster
        .events_of(3)
        .filter_map(|o| match o.output {
            NodeEvent::CaughtUp {
                from_round,
                to_round,
            } => Some((from_round.get(), to_round.get())),
            _ => None,
        })
        .collect();
    assert!(!caught_up.is_empty(), "no CaughtUp event on node 3");

    // Zero full-artifact replay: the restored node verified *less* than
    // an always-up peer (certificates instead of every share), not more.
    let v3 = cluster.pool_stats(3).verify_calls;
    let v0 = cluster.pool_stats(0).verify_calls;
    assert!(v3 < v0, "restored node re-verified history: {v3} vs {v0}");

    // It rejoined: committed frontier within a few rounds of the peers.
    let r3 = cluster.committed_round(3);
    let r0 = cluster.committed_round(0);
    assert!(r0.abs_diff(r3) <= 3, "node 3 still behind: {r3} vs {r0}");
    assert!(r0 > 50, "mesh barely progressed: {r0}");
    cluster.assert_safety();

    // The counters surface through the cluster summary.
    let summary = cluster.metrics_summary();
    assert_eq!(summary.recovery.restarts, 1);
    assert!(summary.recovery.catch_up_applied >= 1);
    assert!(summary.recovery.checkpoints >= 4, "{:?}", summary.recovery);
}

/// A Byzantine peer serves forged catch-up packages. The restored
/// replica rejects them (certificate verification fails), rotates to
/// another advertiser, and catches up from an honest peer.
#[test]
fn forged_catch_up_rejected_then_honest_peer_serves() {
    let recipe = Recipe::shipped(4);
    let plan = FaultPlan::new().crash_between(NodeIndex::new(3), at(1000), at(4000));
    // Nodes 1 and 2 forge the finalization signature in every package
    // they serve; node 0 is honest. (The forgers are honest in every
    // *other* respect, so safety and liveness are untouched.)
    let mut cluster = builder(4, 22).fault_plan(plan).build_with(move |core| {
        let forger = [1, 2].contains(&core.index().as_usize());
        let node = recipe.node(core);
        if forger {
            node.with_forged_catch_up()
        } else {
            node
        }
    });
    cluster.run_for(SimDuration::from_secs(10));

    let rec = cluster.recovery_stats(3);
    assert_eq!(rec.restarts, 1, "{rec:?}");
    assert!(
        rec.catch_up_rejected >= 1,
        "forged packages never offered: {rec:?}"
    );
    assert!(
        rec.catch_up_applied >= 1,
        "honest peer never reached: {rec:?}"
    );
    // The forged packages were rejected *by verification*, visibly.
    assert!(cluster.pool_stats(3).rejected >= 1);

    // Despite the Byzantine servers, the replica rejoined.
    let r3 = cluster.committed_round(3);
    let r0 = cluster.committed_round(0);
    assert!(r0.abs_diff(r3) <= 3, "node 3 still behind: {r3} vs {r0}");
    cluster.assert_safety();
}

/// Rolling restarts: every node except one goes down and comes back at
/// staggered times. The mesh keeps quorum throughout (one node down at
/// a time), everyone who restarted catches up, and all chains agree.
#[test]
fn rolling_restarts_preserve_agreement() {
    let recipe = Recipe::shipped(7).with_overlay(Overlay::random_regular(7, 4, 23));
    let mut plan = FaultPlan::new();
    for i in 0..6u32 {
        let down = 1000 + 1500 * u64::from(i);
        plan = plan.crash_between(NodeIndex::new(i), at(down), at(down + 1200));
    }
    let b = builder(7, 23).fault_plan(plan).block_policy(BlockPolicy {
        max_commands: 100,
        max_bytes: 1 << 20,
        purge_depth: None,
    });
    let mut cluster = recipe.cluster(b);
    cluster.inject_commands(SimTime::ZERO, ms(500), 20, 512);
    cluster.run_for(SimDuration::from_secs(14));

    for i in 0..6 {
        let rec = cluster.recovery_stats(i);
        assert_eq!(rec.restarts, 1, "node {i}: {rec:?}");
    }
    let total: u64 = (0..6)
        .map(|i| cluster.recovery_stats(i).catch_up_applied)
        .sum();
    assert!(total >= 3, "few catch-ups across the rolling wave: {total}");
    let r0 = cluster.committed_round(6);
    for i in 0..6 {
        let ri = cluster.committed_round(i);
        assert!(r0.abs_diff(ri) <= 3, "node {i} behind: {ri} vs {r0}");
    }
    cluster.assert_safety();
}
