//! Flight-recorder and critical-path integration tests: the telemetry
//! layer observed end-to-end through real cluster runs.
//!
//! Three scripted scenarios pin down the analyzer's semantics:
//!
//! 1. A healthy cluster produces a complete, exportable trace — every
//!    consensus phase appears and the Chrome-trace instant count equals
//!    the flight-recorder event count (the invariant `scenario
//!    --trace-out` asserts at export time).
//! 2. A rank-0 proposer behind slow outbound links makes *proposal*
//!    the dominant wait on its leader rounds.
//! 3. Withholding + delaying the beacon shares one node needs makes
//!    *beacon* its dominant wait, while the rest of the cluster runs
//!    at full speed.

use icc_core::cluster::ClusterBuilder;
use icc_core::Behavior;
use icc_gossip::icc0_cluster;
use icc_sim::policy::SlowLinks;
use icc_telemetry::{chrome_trace, round_timelines, Phase, SpanEvent, SpanKind};
use icc_types::{NodeIndex, SimDuration};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// One node's slice of the cluster-wide flight events, still in time
/// order ([`round_timelines`] is a per-node analysis).
fn node_events(events: &[SpanEvent], node: u32) -> Vec<SpanEvent> {
    events.iter().copied().filter(|e| e.node == node).collect()
}

#[test]
fn healthy_cluster_trace_is_complete_and_exportable() {
    let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(7));
    cluster.run_for(SimDuration::from_secs(2));
    cluster.assert_safety();

    let events = cluster.flight_events();
    assert!(!events.is_empty(), "a 2 s run must record flight events");

    // Every core consensus phase shows up in a healthy run.
    for want in [
        "round_start",
        "beacon_share_quorum",
        "proposed",
        "proposal_seen",
        "notarized",
        "finalized",
    ] {
        assert!(
            events.iter().any(|e| e.kind.label() == want),
            "missing phase {want:?} in flight events"
        );
    }

    // Events are globally time-ordered and stamped with real sim time.
    assert!(
        events.windows(2).all(|w| w[0].at_us <= w[1].at_us),
        "flight events must be sorted by timestamp"
    );

    // The Chrome-trace exporter emits exactly one instant ("ph":"i")
    // per flight event — the invariant the scenario binary asserts.
    let trace = chrome_trace(&events);
    let instants = trace.matches("\"ph\":\"i\"").count();
    assert_eq!(
        instants,
        events.len(),
        "trace instants must match flight-recorder events"
    );

    // Per-node timelines reconstruct: node 0 has one timeline per
    // round it both started and notarized, with monotone rounds.
    let tl = round_timelines(&node_events(&events, 0));
    assert!(
        tl.len() > 10,
        "expected many analyzed rounds, got {}",
        tl.len()
    );
    assert!(
        tl.windows(2).all(|w| w[0].round < w[1].round),
        "timelines must be in strictly increasing round order"
    );
    // Every completed round yields a verdict.
    assert!(
        tl.iter().all(|t| t.verdict().is_some()),
        "every analyzed round must have a dominant phase"
    );
}

#[test]
fn slow_leader_links_make_proposal_the_critical_path() {
    // Node 3's outbound links to everyone else carry +100 ms (δ =
    // 10 ms, Δbnd = 30 ms). On rounds where node 3 is the rank-0
    // leader, the others wait well past Δprop for its proposal, then
    // notarize a higher-rank block — so node 0's dominant wait on
    // those rounds must be the proposal phase.
    let slow = NodeIndex::new(3);
    let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(11).policy(SlowLinks {
        links: (0..3).map(|to| (slow, NodeIndex::new(to))).collect(),
        extra: ms(100),
    }));
    cluster.run_for(SimDuration::from_secs(4));
    cluster.assert_safety();

    let events = cluster.flight_events();
    let n0 = node_events(&events, 0);

    // Rounds where node 3 led, read off node 0's RoundStart events
    // (skip round 1: genesis-adjacent timing is irregular).
    let led_by_slow: Vec<u64> = n0
        .iter()
        .filter_map(|e| match e.kind {
            SpanKind::RoundStart { leader, .. } if leader == 3 && e.round > 1 => Some(e.round),
            _ => None,
        })
        .collect();
    assert!(
        led_by_slow.len() >= 5,
        "seed must give node 3 several leader rounds, got {}",
        led_by_slow.len()
    );

    let timelines = round_timelines(&n0);
    let mut proposal_verdicts = 0usize;
    let mut checked = 0usize;
    for tl in timelines.iter().filter(|t| led_by_slow.contains(&t.round)) {
        checked += 1;
        if tl.verdict() == Some(Phase::Proposal) {
            proposal_verdicts += 1;
            // The wait must reflect the slow link: at least ~Δprop(1).
            let wait = tl
                .waits()
                .iter()
                .find(|(p, _)| *p == Phase::Proposal)
                .map(|(_, w)| *w)
                .unwrap();
            assert!(
                wait >= 40_000,
                "round {}: proposal wait {wait} µs too short for a 100 ms slow link",
                tl.round
            );
        }
    }
    assert!(checked >= 5, "analyzed only {checked} slow-leader rounds");
    assert!(
        proposal_verdicts * 10 >= checked * 8,
        "proposal must dominate slow-leader rounds: {proposal_verdicts}/{checked}"
    );

    // The cluster roll-up sees proposal waits too.
    let summary = cluster.critical_path();
    assert!(
        summary.count(Phase::Proposal) as usize >= proposal_verdicts,
        "roll-up must include node 0's proposal verdicts"
    );
}

#[test]
fn starved_beacon_shares_make_beacon_the_critical_path() {
    // Beacon recovery needs t + 1 = 2 shares. Node 3 withholds all
    // shares; nodes 1 and 2's messages to node 0 carry +80 ms. Node 0
    // thus holds its own share immediately but gets the second share
    // (and hence the next round's beacon) late every round — while
    // proposals and notarizations still reach it promptly once the
    // round opens. Beacon must dominate node 0's verdicts.
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(4)
            .seed(3)
            .behaviors(vec![
                Behavior::Honest,
                Behavior::Honest,
                Behavior::Honest,
                Behavior::WithholdShares,
            ])
            .policy(SlowLinks {
                links: vec![
                    (NodeIndex::new(1), NodeIndex::new(0)),
                    (NodeIndex::new(2), NodeIndex::new(0)),
                ],
                extra: ms(80),
            }),
    );
    cluster.run_for(SimDuration::from_secs(4));
    cluster.assert_safety();

    let events = cluster.flight_events();
    let timelines = round_timelines(&node_events(&events, 0));
    let analyzed: Vec<_> = timelines.iter().filter(|t| t.round > 1).collect();
    assert!(
        analyzed.len() >= 10,
        "expected many analyzed rounds on node 0, got {}",
        analyzed.len()
    );
    let beacon = analyzed
        .iter()
        .filter(|t| t.verdict() == Some(Phase::Beacon))
        .count();
    assert!(
        beacon * 2 > analyzed.len(),
        "beacon must dominate node 0's rounds: {beacon}/{}",
        analyzed.len()
    );

    // The unimpaired majority keeps committing at full pace despite
    // node 0's starvation (deadlock-freeness, P1).
    assert!(
        cluster.committed_round(1) > 40,
        "majority must make normal progress"
    );
}
