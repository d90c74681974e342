//! The adaptive-`Δbnd` variant end-to-end (paper §1: adjusting to an
//! unknown communication-delay bound).

use icc_core::cluster::ClusterBuilder;
use icc_gossip::icc0_cluster;
use icc_sim::delay::FixedDelay;
use icc_tests::assert_chains_consistent;
use icc_types::SimDuration;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

#[test]
fn misconfigured_static_bound_stalls_commits() {
    // True δ = 50 ms, static Δbnd = 2 ms: rounds proceed (P1) but the
    // support rule sprays across ranks and finalization quorums rarely
    // form.
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(7)
            .seed(1)
            .network(FixedDelay::new(ms(50)))
            .protocol_delays(ms(2), SimDuration::ZERO),
    );
    cluster.run_for(SimDuration::from_secs(10));
    assert_chains_consistent(&cluster); // safety unaffected
    let entered = cluster.sim.node(0).core().current_round().get();
    let committed = cluster.min_committed_round();
    assert!(entered > 30, "tree must keep growing: {entered}");
    assert!(
        committed * 4 < entered,
        "a badly wrong bound should commit rarely: {committed}/{entered}"
    );
}

#[test]
fn adaptive_bound_recovers_liveness() {
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(7)
            .seed(1)
            .network(FixedDelay::new(ms(50)))
            .adaptive_delays(ms(2), ms(2), SimDuration::from_secs(2), SimDuration::ZERO),
    );
    cluster.run_for(SimDuration::from_secs(10));
    assert_chains_consistent(&cluster);
    let entered = cluster.sim.node(0).core().current_round().get();
    let committed = cluster.min_committed_round();
    assert!(
        committed * 10 > entered * 9,
        "adaptive must commit nearly every round: {committed}/{entered}"
    );
    // The learned bound must be at least the actual delay.
    let bound = cluster.sim.node(0).core().delta_bound();
    assert!(bound >= ms(30), "converged bound {bound} too small");
}

#[test]
fn adaptive_does_not_overshoot_on_a_fast_network() {
    // δ = 5 ms with a generous initial guess: the shrink side should
    // pull Δbnd down over time without ever losing liveness.
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(4)
            .seed(2)
            .network(FixedDelay::new(ms(5)))
            .adaptive_delays(ms(500), ms(5), SimDuration::from_secs(2), SimDuration::ZERO),
    );
    cluster.run_for(SimDuration::from_secs(20));
    assert_chains_consistent(&cluster);
    let bound = cluster.sim.node(0).core().delta_bound();
    assert!(
        bound < ms(500),
        "bound should decay from the inflated start: {bound}"
    );
    let committed = cluster.min_committed_round();
    assert!(
        committed > 500,
        "fast network must commit fast: {committed}"
    );
}
