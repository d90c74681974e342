//! Anomaly-detector integration tests (ISSUE 10): the rolling watcher
//! that powers the live admin plane's `/status` anomaly feed, observed
//! end-to-end through scripted fault-injection runs.
//!
//! Three scripted scenarios pin the detector's semantics on real
//! cluster span streams — the same streams `scenario` scans for its
//! report and each replica's embedded detector watches live:
//!
//! 1. A **flapping peer** (two crash/restart cycles inside the flap
//!    window) is flagged by the offline scan, naming the peer and the
//!    transition count.
//! 2. A **lost quorum** (two of four nodes down, f = 1) stalls the
//!    open round; the per-node detectors embedded in the consensus
//!    cores flag it *live* — during the run, via the gossip sweep
//!    tick, with no post-hoc analysis — and mirror the anomaly into
//!    the flight-recorder span ring.
//! 3. A node starved by `SlowLinks` falls behind over and over and
//!    rejoins by certified catch-up each time: a **catch-up storm**,
//!    flagged live by that node's own detector.

use icc_core::cluster::ClusterBuilder;
use icc_gossip::{icc0_cluster, GossipConfig, Recipe};
use icc_sim::delay::FixedDelay;
use icc_sim::policy::SlowLinks;
use icc_sim::FaultPlan;
use icc_telemetry::{anomaly, AnomalyConfig, AnomalyKind, SpanKind};
use icc_types::{NodeIndex, SimDuration, SimTime};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(millis: u64) -> SimTime {
    SimTime::ZERO + ms(millis)
}

fn builder(n: usize, seed: u64) -> ClusterBuilder {
    ClusterBuilder::new(n)
        .seed(seed)
        .network(FixedDelay::new(ms(10)))
        .protocol_delays(ms(60), SimDuration::ZERO)
}

#[test]
fn flapping_peer_is_flagged_by_the_scan() {
    // Node 3 crashes and restarts three times inside the default 10 s
    // flap window. The engine records each lifecycle edge as a
    // NodeDown/NodeUp span, which is exactly what the detector folds
    // into per-peer transition counts — the first edge only sets the
    // baseline, leaving four counted transitions (the flap threshold).
    let plan = FaultPlan::new()
        .crash_between(NodeIndex::new(3), at(1000), at(1500))
        .crash_between(NodeIndex::new(3), at(2000), at(2500))
        .crash_between(NodeIndex::new(3), at(3000), at(3500));
    let mut cluster = icc0_cluster(builder(4, 5).fault_plan(plan));
    cluster.run_for(SimDuration::from_secs(5));
    cluster.assert_safety();

    let anomalies = anomaly::scan(&cluster.flight_events(), &AnomalyConfig::default());
    let flap = anomalies
        .iter()
        .find_map(|a| match a.kind {
            AnomalyKind::PeerFlap {
                peer, transitions, ..
            } => Some((peer, transitions)),
            _ => None,
        })
        .expect("two crash/restart cycles must be flagged as a peer flap");
    assert_eq!(flap.0, 3, "the flagged peer must be the flapping node");
    assert!(
        flap.1 >= 4,
        "four lifecycle transitions expected, saw {}",
        flap.1
    );
}

#[test]
fn lost_quorum_round_stall_is_flagged_live() {
    // Four nodes tolerate f = 1; crashing two kills the notarization
    // quorum, so the round open at t = 2 s stays open until the
    // restart at 4 s — two full seconds against a ~100 ms median. The
    // gossip sweep keeps ticking the survivors' detectors through the
    // silence, so the stall is flagged *during* the outage and
    // mirrored into the span ring, not reconstructed afterwards.
    let plan = FaultPlan::new()
        .crash_between(NodeIndex::new(2), at(2000), at(4000))
        .crash_between(NodeIndex::new(3), at(2000), at(4000));
    let mut cluster = Recipe::shipped(4)
        .with_config(GossipConfig::inline_small_blocks())
        .cluster(builder(4, 7).fault_plan(plan).checkpoint_interval(8));
    cluster.run_for(SimDuration::from_secs(7));
    cluster.assert_safety();

    // Live path: a survivor's embedded detector flagged the stall and
    // retained the event for `/status`.
    let survivor = cluster.sim.node(0).core().telemetry();
    let counts = survivor.anomalies.counts();
    assert!(
        counts.round_stalls >= 1,
        "survivor 0 never flagged the lost-quorum stall: {counts:?}"
    );
    let stall = survivor
        .recent_anomalies()
        .into_iter()
        .find_map(|a| match a.kind {
            AnomalyKind::RoundStall {
                round,
                waited_us,
                median_us,
            } => Some((round, waited_us, median_us)),
            _ => None,
        })
        .expect("a RoundStall event must be retained for /status");
    assert!(
        stall.1 > 4 * stall.2,
        "flagged wait {} µs must exceed stall_factor × median {} µs",
        stall.1,
        stall.2
    );

    // Mirror path: the same anomaly landed in the flight-recorder
    // ring as a span, where traces and the offline scan can see it.
    let events = cluster.flight_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, SpanKind::Anomaly { .. }) && e.kind.label() == "round_stall"),
        "the stall must be mirrored into the span ring"
    );

    // Progress resumed after the restart (the stall was transient).
    assert!(
        cluster.min_committed_round() > 20,
        "cluster never recovered after the outage"
    );
}

#[test]
fn starved_node_flags_a_catch_up_storm_live() {
    // Every link *into* node 0 carries +1.5 s: it perpetually lags
    // ~25 rounds behind the frontier it hears about, so the gossip
    // layer repeatedly pulls certified catch-up packages for it. Three
    // of those inside the 5 s window is the storm the detector exists
    // to name — one catch-up is healthy recovery, a steady diet of
    // them is a sick replica.
    let slow = SlowLinks {
        links: (1..4)
            .map(|from| (NodeIndex::new(from), NodeIndex::new(0)))
            .collect(),
        extra: ms(1500),
    };
    // The shipped recipe sends every proposal by advert/request: round-
    // tagged adverts are the behind-detection signal catch-up rides on.
    let mut cluster = Recipe::shipped(4).cluster(builder(4, 11).policy(slow));
    cluster.run_for(SimDuration::from_secs(10));
    cluster.assert_safety();

    let starved = cluster.sim.node(0).core().telemetry();
    let counts = starved.anomalies.counts();
    assert!(
        counts.catch_up_storms >= 1,
        "node 0's repeated catch-ups never flagged a storm: {counts:?}"
    );
    // The fast majority keeps a healthy cadence — their detectors
    // must not storm.
    for i in 1..4 {
        let c = cluster.sim.node(i).core().telemetry().anomalies.counts();
        assert_eq!(
            c.catch_up_storms, 0,
            "healthy node {i} falsely flagged a catch-up storm: {c:?}"
        );
    }
}
