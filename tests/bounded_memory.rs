//! A replica's memory is a function of the rounds in flight, not of its
//! uptime — and forgetting below the finalized tip strands nobody: a
//! peer a few rounds behind still finds every body it asks for, one
//! that fell behind by more than anybody remembers is served a
//! certified package, whose beacon segment reaches back to wherever it
//! stopped. What such a package jumps over is never proposed again:
//! a command commits once, whoever held it across the jump.

use icc_core::cluster::{Cluster, ClusterBuilder};
use icc_core::pool::BEACON_DEPTH;
use icc_core::{NodeEvent, CATCH_UP_THRESHOLD, PURGE_DEPTH};
use icc_gossip::{GossipNode, Recipe};
use icc_sim::delay::FixedDelay;
use icc_sim::policy::Partition;
use icc_sim::FaultPlan;
use icc_types::codec::Encode;
use icc_types::{Command, NodeIndex, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;
use std::ops::RangeInclusive;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

/// The deployed shape (`replica`, the repo benchmark): the shipped
/// recipe, every proposal by advert / request, default `BlockPolicy` —
/// rounds of 4δ = 40 ms on a complete overlay.
fn cluster(
    n: usize,
    seed: u64,
    b: impl FnOnce(ClusterBuilder) -> ClusterBuilder,
) -> Cluster<GossipNode> {
    let builder = ClusterBuilder::new(n)
        .seed(seed)
        .network(FixedDelay::new(ms(10)))
        .protocol_delays(ms(60), SimDuration::ZERO);
    Recipe::shipped(n).cluster(b(builder))
}

/// Three purge depths' worth of rounds, in milliseconds, at the ≈ 70 ms
/// a round takes while one of four replicas is unreachable (its turns
/// as leader time out).
const OUTAGE_MS: u64 = 3 * PURGE_DEPTH * 75;

/// The lowest purge floor among the nodes `0..n`.
fn min_floor(cluster: &Cluster<GossipNode>, n: usize) -> u64 {
    let floors = (0..n).map(|i| cluster.sim.node(i).core().pool().floor().get());
    floors.min().unwrap()
}

/// A replica down for 3 × `PURGE_DEPTH` rounds comes back to peers that
/// have all purged past the round it stopped in. Nobody can serve it a
/// body from back then, but everybody still holds the beacon chain from
/// there on, so the first peer it asks builds it a package. (With beacon
/// values purged at body depth every server stays silent, and the
/// replica never rejoins.)
#[test]
fn long_outage_rejoins_through_a_package_from_peers_that_purged_past_it() {
    let plan = FaultPlan::new().crash_between(NodeIndex::new(3), at(1000), at(1000 + OUTAGE_MS));
    let mut cluster = cluster(4, 31, |b| b.fault_plan(plan));
    cluster.run_until(at(1000 + OUTAGE_MS));
    let stopped_at = cluster.sim.node(3).core().store().frontier().get();
    assert!(stopped_at > 10, "it had made progress: {stopped_at}");
    assert!(
        min_floor(&cluster, 3) > stopped_at + 2 * PURGE_DEPTH,
        "every peer purged well past round {stopped_at}: {}",
        min_floor(&cluster, 3)
    );

    cluster.run_for(SimDuration::from_secs(2));
    let rec = cluster.recovery_stats(3);
    assert!(rec.catch_up_applied >= 1, "{rec:?}");
    assert_eq!(rec.catch_up_rejected, 0, "{rec:?}");
    assert!(rec.rounds_behind_total >= 3 * PURGE_DEPTH - 10, "{rec:?}");
    let (r0, r3) = (cluster.committed_round(0), cluster.committed_round(3));
    assert!(r0.abs_diff(r3) <= 3, "node 3 still behind: {r3} vs {r0}");
    // And it is a full member again: what it commits now it commits
    // block by block.
    let before = cluster.committed_chain(3).len();
    cluster.run_for(SimDuration::from_secs(1));
    assert!(cluster.committed_chain(3).len() > before + 15);
    assert_eq!(
        cluster.recovery_stats(3).catch_up_applied,
        rec.catch_up_applied
    );
    cluster.assert_safety();
}

/// Five rounds behind, and `CATCH_UP_THRESHOLD − 1` — the most a
/// replica can lag and still not be entitled to a package — are both
/// above every peer's floor: the bodies are fetched by `Request`, one by
/// one, and every round is committed — nothing is jumped over.
#[test]
fn a_replica_five_rounds_behind_still_fetches_bodies_by_request() {
    fetches_bodies_by_request(200, 4..=6);
    fetches_bodies_by_request(CUT_MS, CATCH_UP_THRESHOLD - 1..=CATCH_UP_THRESHOLD - 1);
}

/// How long replica 3 of `fetches_bodies_by_request`'s cluster must be
/// cut off to fall `CATCH_UP_THRESHOLD − 1` rounds behind.
const CUT_MS: u64 = 380;

/// Cuts replica 3 off from 1 s for `cut_ms`, checks that it is `behind`
/// rounds behind peers that purge, and that it then catches up body by
/// body.
fn fetches_bodies_by_request(cut_ms: u64, behind: RangeInclusive<u64>) {
    let cut = Partition {
        from: at(1000),
        until: at(1000 + cut_ms),
        group_a: vec![NodeIndex::new(3)],
    };
    let mut cluster = cluster(4, 32, |b| b.policy(cut));
    cluster.run_until(at(990 + cut_ms));
    let lag = cluster.committed_round(0) - cluster.committed_round(3);
    assert!(behind.contains(&lag), "{lag} rounds behind");
    assert!(min_floor(&cluster, 3) > 0, "the peers have purged");
    let requests = |c: &Cluster<GossipNode>| {
        let sent = &c.sim.metrics().per_node()[3].sent_by_kind;
        sent.get("request").map_or(0, |(msgs, _)| *msgs)
    };
    let requested_before = requests(&cluster);

    cluster.run_until(at(1800 + cut_ms));
    assert!(requests(&cluster) >= requested_before + lag);
    assert_eq!(cluster.recovery_stats(3).catch_up_applied, 0);
    let rounds: Vec<u64> = cluster
        .committed_chain(3)
        .iter()
        .map(|b| b.round().get())
        .collect();
    let expected: Vec<u64> = (1..=rounds.len() as u64).collect();
    assert_eq!(rounds, expected, "a round was jumped over");
    assert!(cluster.committed_round(0) - cluster.committed_round(3) <= 2);
    let gossip = cluster.metrics_summary().gossip;
    assert_eq!(gossip.stale_dropped, 0, "{gossip}");
    cluster.assert_safety();
}

/// A replica cut off for 3 × `PURGE_DEPTH` rounds receives, when the cut
/// heals, every advert it missed, and asks for every body: most of those
/// requests go to peers that have purged the body and stay unanswered.
/// They do not keep the retry sweep busy for ever: the same adverts show
/// the replica how far behind it is, a package moves its committed round
/// past them, and the next sweep drops them.
#[test]
fn a_request_for_a_purged_body_meets_silence_and_ends_in_catch_up() {
    let heal = 1000 + OUTAGE_MS;
    let cut = Partition {
        from: at(1000),
        until: at(heal),
        group_a: vec![NodeIndex::new(3)],
    };
    let mut cluster = cluster(4, 33, |b| b.policy(cut));
    cluster.run_until(at(heal));
    let stuck = cluster.committed_round(3);
    let floor = min_floor(&cluster, 3);
    assert!(
        floor > stuck + 2 * PURGE_DEPTH,
        "floor {floor}, node 3 at {stuck}"
    );
    // 100 ms on, five round trips: every body still held has been
    // delivered; what is outstanding was purged at every peer.
    cluster.run_until(at(heal + 100));
    let outstanding = cluster.sim.node(3).pending_requests() as u64;
    assert!(
        outstanding >= 2 * PURGE_DEPTH,
        "{outstanding} requests outstanding"
    );

    cluster.run_for(SimDuration::from_secs(2));
    assert_eq!(cluster.sim.node(3).pending_requests(), 0);
    let rec = cluster.recovery_stats(3);
    assert!(
        rec.catch_up_applied >= 1 && rec.catch_up_rejected == 0,
        "{rec:?}"
    );
    let (r0, r3) = (cluster.committed_round(0), cluster.committed_round(3));
    assert!(r0.abs_diff(r3) <= 3, "node 3 still behind: {r3} vs {r0}");
    // What the healed cut delivered late was dropped at the peers' door.
    assert!(cluster.metrics_summary().gossip.stale_dropped > 0);
    cluster.assert_safety();
}

/// The bound itself: every collection a replica holds per round — pool
/// blocks, share buckets and beacon shares, the core's two broadcast
/// sets, the store's log mirror and dedup sets, the gossip layer's push
/// and advert dedup — is as large after 2 000 rounds as after 400, give
/// or take the rounds in flight. Beacon values are the one long tail:
/// one per round up to `BEACON_DEPTH`. (An unoptimised build runs the
/// large subnet for 200 and 600 rounds; CI runs this file in release.)
fn assert_footprint_is_flat(n: usize, seed: u64) {
    let mut cluster = cluster(n, seed, |b| b);
    let round_ms = if n > 32 { 80 } else { 40 };
    let lengths = if cfg!(debug_assertions) && n > 32 {
        (200, 600)
    } else {
        (400, 2_000)
    };
    let mut at_rounds = |rounds: u64| {
        while cluster.min_committed_round() < rounds {
            cluster.run_for(ms(
                round_ms * (rounds - cluster.min_committed_round()).max(5)
            ));
        }
        cluster.sim.node(0).footprint()
    };
    let (short, long) = (at_rounds(lengths.0), at_rounds(lengths.1));
    for ((name, short), (_, long)) in short.iter().zip(&long) {
        if *name == "pool_beacons" {
            assert!(*short > lengths.0 && *long > lengths.1 && *long <= BEACON_DEPTH + lengths.1);
            continue;
        }
        // A round holds at most ≈ 4n entries of any one collection (the
        // push ids: n shares of each of three kinds, and aggregates).
        // Two instants differ by the rounds in flight, never by the
        // rounds in between; and `PURGE_DEPTH` + in flight are held.
        let per_round = 4 * n as u64;
        assert!(
            long.abs_diff(*short) <= 2 * per_round && *long <= (PURGE_DEPTH + 8) * per_round,
            "n = {n}: {name} held {short} after {} rounds, {long} after {}",
            lengths.0,
            lengths.1
        );
    }
    let names: Vec<&str> = long.iter().map(|(name, _)| *name).collect();
    for expected in [
        "pool_blocks",
        "pool_share_buckets",
        "gossip_dedup_ids",
        "store_logged_blocks",
    ] {
        assert!(names.contains(&expected), "{names:?}");
    }
    // The defence is silent when nobody lags.
    let gossip = cluster.metrics_summary().gossip;
    assert_eq!(gossip.stale_dropped, 0, "{gossip}");
    let committed = |e: &NodeEvent| matches!(e, NodeEvent::Committed { .. });
    let blocks = cluster
        .events_of(0)
        .filter(|o| committed(&o.output))
        .count();
    assert!(blocks as u64 >= lengths.1);
}

#[test]
fn footprint_is_flat_over_a_long_run_n4() {
    assert_footprint_is_flat(4, 34);
}

#[test]
fn footprint_is_flat_over_a_long_run_n40() {
    assert_footprint_is_flat(40, 35);
}

/// A checkpoint is the tip block and its certificates, not the history:
/// with commands flowing, its encoded length after 2 000 rounds is its
/// length after 400, give or take what one block carries.
#[test]
fn checkpoint_size_is_flat_over_a_long_run() {
    let mut cluster = cluster(4, 38, |b| b);
    // Two 64-byte commands a 40 ms round, until past round 2 000.
    cluster.inject_commands(at(0), ms(90_000), 4_500, 64);
    let mut at_rounds = |rounds: u64| {
        while cluster.min_committed_round() < rounds {
            cluster.run_for(ms(40 * (rounds - cluster.min_committed_round()).max(5)));
        }
        let store = cluster.sim.node(0).core().store();
        let cp = store.checkpoint().expect("checkpoints are taken");
        let sizes = (cp.encoded_len(), cp.proposal.encoded_len());
        (sizes, store.history().len())
    };
    let ((short, block_short), history_short) = at_rounds(400);
    let ((long, block_long), history_long) = at_rounds(2_000);
    assert!(
        history_long > history_short + 2_000,
        "commands flowed: {history_short} committed by round 400, {history_long} by 2 000"
    );
    assert!(
        short.abs_diff(long) <= block_short.max(block_long),
        "a checkpoint of {short} B after 400 rounds, {long} B after 2 000"
    );
}

/// How many times each command appears in `node`'s committed chain.
fn commit_counts(cluster: &Cluster<GossipNode>, node: usize) -> HashMap<Vec<u8>, usize> {
    let mut counts = HashMap::new();
    for block in cluster.committed_chain(node) {
        for cmd in block.block().payload().commands() {
            *counts.entry(cmd.bytes().to_vec()).or_insert(0) += 1;
        }
    }
    counts
}

/// A 64-byte command tagged `i`.
fn command(i: u64) -> Command {
    let mut bytes = format!("command {i}").into_bytes();
    bytes.resize(64, b'.');
    Command::new(bytes)
}

/// Exactly once across a catch-up. Replica 3 is cut off for
/// 3 × `PURGE_DEPTH` rounds while 20 commands given to all four replicas
/// commit, and comes back through a package over rounds whose blocks
/// nobody holds any more — with the 20 still in its pool. Proposing them
/// would commit each a second time at replicas 0–2. Ten more, given to
/// replica 3 alone while it was cut off, it cannot tell from those: it
/// sends them to the leaders, which commit each once.
#[test]
fn commands_committed_in_a_skipped_gap_are_not_proposed_again() {
    let heal = 1000 + OUTAGE_MS;
    let cut = Partition {
        from: at(1000),
        until: at(heal),
        group_a: vec![NodeIndex::new(3)],
    };
    let mut cluster = cluster(4, 36, |b| b.policy(cut));
    cluster.inject_commands(at(1000), ms(500), 20, 64);
    for i in 0..10 {
        let to = NodeIndex::new(3);
        cluster
            .sim
            .schedule_external(at(1600 + 10 * i), to, command(i));
    }
    cluster.run_until(at(heal + 3000));
    let rec = cluster.recovery_stats(3);
    assert!(rec.rounds_behind_total > 2 * PURGE_DEPTH, "{rec:?}");
    for node in 0..4 {
        let counts = commit_counts(&cluster, node);
        let twice = counts.values().filter(|&&c| c > 1).count();
        assert_eq!(twice, 0, "node {node} committed {twice} commands twice");
        // Replica 3 jumped over the 20.
        assert_eq!(counts.len(), if node == 3 { 10 } else { 30 }, "node {node}");
    }
    let (r0, r3) = (cluster.committed_round(0), cluster.committed_round(3));
    assert!(r0.abs_diff(r3) <= 3, "node 3 still behind: {r3} vs {r0}");
    cluster.assert_safety();
}

/// The same hole, reached through forwarding. Commands given to replica
/// 0 alone go to each round's leader. Replica 3 is cut off as it enters
/// a round it leads, holding the batch sent for that round; the round
/// goes to another proposer, replica 0 sends the commands to later
/// leaders, and they commit while replica 3 is away. It comes back
/// through a package over rounds nobody holds the blocks of, and drops
/// the batch instead of proposing it.
#[test]
fn forwarded_commands_held_across_a_skipped_gap_are_dropped() {
    let seed = 37;
    // A command for replica 0 every 10 ms from 0.5 s to 2.5 s.
    let give = |cluster: &mut Cluster<GossipNode>| {
        for i in 0..200 {
            let to = NodeIndex::new(0);
            cluster
                .sim
                .schedule_external(at(500 + 10 * i), to, command(i));
        }
    };
    // A first run finds the first round replica 3 leads after 1 s; the
    // second is the same run until the cut, which starts as 3 enters it.
    let mut probe = cluster(4, seed, |b| b);
    give(&mut probe);
    probe.run_until(at(1500));
    let start = probe.events_of(3).find_map(|o| match &o.output {
        NodeEvent::EnteredRound { leader, .. } if leader.get() == 3 && o.at >= at(1000) => {
            Some(o.at)
        }
        _ => None,
    });
    let start = start.expect("replica 3 leads a round between 1 s and 1.5 s");
    let heal = start + ms(OUTAGE_MS);
    let cut = Partition {
        from: start,
        until: heal,
        group_a: vec![NodeIndex::new(3)],
    };
    let mut cluster = cluster(4, seed, |b| b.policy(cut));
    give(&mut cluster);
    cluster.run_until(heal + ms(3000));
    let counts = commit_counts(&cluster, 0);
    assert_eq!(counts.len(), 200);
    let twice = counts.values().filter(|&&c| c > 1).count();
    assert_eq!(twice, 0, "{twice} commands committed twice");
    let ingress = cluster.sim.node(3).core().ingress_stats();
    assert!(ingress.dropped_at_gap > 0, "{ingress}");
    let (r0, r3) = (cluster.committed_round(0), cluster.committed_round(3));
    assert!(r0.abs_diff(r3) <= 3, "node 3 still behind: {r3} vs {r0}");
    cluster.assert_safety();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whoever a command is given to, and whoever is cut off for however
    /// long, no chain holds it twice.
    #[test]
    fn prop_no_command_is_in_two_blocks_of_a_chain(
        seed in 0u64..1_000,
        cut_node in 0u32..4,
        cut_ms in 0u64..3_000,
        spread in 1u64..16,
    ) {
        let cut = Partition {
            from: at(800),
            until: at(800 + cut_ms),
            group_a: vec![NodeIndex::new(cut_node)],
        };
        let mut cluster = cluster(4, seed, |b| b.policy(cut));
        for i in 0..60u64 {
            // Command i goes to the replicas of a non-empty mask.
            let mask = (spread * (i + 1)) % 15 + 1;
            for node in (0..4u32).filter(|node| mask >> node & 1 == 1) {
                let to = NodeIndex::new(node);
                cluster.sim.schedule_external(at(500 + 20 * i), to, command(i));
            }
        }
        cluster.run_until(at(800 + cut_ms + 2_500));
        for node in 0..4 {
            let counts = commit_counts(&cluster, node);
            let twice = counts.values().filter(|&&c| c > 1).count();
            prop_assert_eq!(twice, 0, "node {} committed {} commands twice", node, twice);
        }
        cluster.assert_safety();
    }
}
