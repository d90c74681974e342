//! The atomic-broadcast contract end-to-end: identical total order of
//! commands at every honest party, exactly-once commitment, and the
//! strong liveness notion (§1: a command input to sufficiently many
//! parties appears in everyone's output "not too much later").

use icc_core::cluster::ClusterBuilder;
use icc_core::events::NodeEvent;
use icc_core::replica::{KvStore, Replica};
use icc_core::{Behavior, BlockPolicy};
use icc_gossip::icc0_cluster;
use icc_sim::delay::UniformDelay;
use icc_sim::policy::SlowNodes;
use icc_sim::FaultPlan;
use icc_tests::{assert_chains_consistent, committed_commands};
use icc_types::{NodeIndex, SimDuration, SimTime};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

#[test]
fn identical_command_order_across_nodes() {
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(4)
            .seed(1)
            .network(UniformDelay::new(ms(1), ms(20)))
            .protocol_delays(ms(60), SimDuration::ZERO),
    );
    cluster.inject_commands(SimTime::ZERO, SimDuration::from_secs(1), 40, 64);
    cluster.run_for(SimDuration::from_secs(3));
    assert_chains_consistent(&cluster);
    let reference = committed_commands(&cluster, 0);
    assert_eq!(reference.len(), 40, "all commands committed");
    for node in 1..4 {
        let other = committed_commands(&cluster, node);
        let common = reference.len().min(other.len());
        assert_eq!(
            reference[..common],
            other[..common],
            "order differs at node {node}"
        );
    }
}

#[test]
fn exactly_once_despite_submission_to_all_nodes() {
    // Every command is submitted to every node; the chain-walk dedup in
    // getPayload must keep each committed exactly once.
    let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(2));
    cluster.inject_commands(SimTime::ZERO, ms(400), 25, 32);
    cluster.run_for(SimDuration::from_secs(2));
    let cmds = committed_commands(&cluster, 0);
    let unique: std::collections::HashSet<_> = cmds.iter().collect();
    assert_eq!(cmds.len(), unique.len(), "duplicate commands committed");
    assert_eq!(cmds.len(), 25);
}

#[test]
fn commands_commit_promptly_under_load() {
    let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(3));
    cluster.inject_commands(SimTime::ZERO, SimDuration::from_secs(2), 200, 128);
    cluster.run_for(SimDuration::from_secs(3));
    let latencies = cluster.command_latencies(0);
    assert_eq!(latencies.len(), 200);
    let max = latencies.iter().max().unwrap();
    // δ = 10 ms ⇒ worst case ≈ next proposal (≤ 1 round) + 3δ commit
    // path, far below 200 ms.
    assert!(max.as_micros() < 200_000, "max command latency {max}");
}

#[test]
fn replicas_converge_from_committed_stream() {
    let mut behaviors = vec![Behavior::Honest; 7];
    behaviors[6] = Behavior::Equivocate;
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(7)
            .seed(4)
            .network(UniformDelay::new(ms(1), ms(12)))
            .protocol_delays(ms(40), SimDuration::ZERO)
            .behaviors(behaviors),
    );
    for i in 0..30 {
        let at = SimTime::ZERO + ms(30 * i);
        let cmd = KvStore::set_command(&format!("k{}", i % 7), &format!("v{i}"));
        for node in 0..7 {
            cluster
                .sim
                .schedule_external(at, icc_types::NodeIndex::new(node), cmd.clone());
        }
    }
    cluster.run_for(SimDuration::from_secs(3));
    assert_chains_consistent(&cluster);
    let digests: Vec<_> = cluster
        .honest_nodes()
        .into_iter()
        .map(|node| {
            let mut replica = Replica::new(KvStore::new());
            for o in cluster.events_of(node) {
                replica.on_event(&o.output);
            }
            replica.state_digest()
        })
        .collect();
    for d in &digests[1..] {
        assert_eq!(*d, digests[0], "replica state diverged");
    }
}

#[test]
fn committed_chain_is_a_real_hash_chain() {
    let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(5));
    cluster.run_for(SimDuration::from_secs(1));
    let chain = cluster.committed_chain(0);
    assert!(chain.len() > 30);
    let genesis = cluster.sim.node(0).core().setup().genesis.hash();
    assert_eq!(chain[0].parent(), genesis);
    for w in chain.windows(2) {
        assert_eq!(w[1].parent(), w[0].hash(), "hash chain broken");
    }
}

#[test]
fn ledger_conservation_across_byzantine_cluster() {
    // Token conservation: under an equivocating minority and interleaved
    // mint/transfer traffic (including deterministic overdraft
    // rejections), every honest replica's ledger satisfies
    // total_supply == total_minted and all digests agree.
    use icc_core::replica::{Ledger, Replica};
    let mut behaviors = vec![icc_core::Behavior::Honest; 7];
    behaviors[0] = icc_core::Behavior::Equivocate;
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(7)
            .seed(17)
            .network(UniformDelay::new(ms(1), ms(12)))
            .protocol_delays(ms(40), SimDuration::ZERO)
            .behaviors(behaviors),
    );
    let accounts = ["a", "b", "c"];
    for i in 0..60u64 {
        let at = SimTime::ZERO + ms(20 * i);
        let cmd = if i % 3 == 0 {
            Ledger::mint_command(accounts[(i / 3) as usize % 3], 10 + i)
        } else {
            // Includes guaranteed-overdraft transfers early on.
            Ledger::transfer_command(
                accounts[i as usize % 3],
                accounts[(i + 1) as usize % 3],
                5 + i * 2,
            )
        };
        for node in 0..7 {
            cluster
                .sim
                .schedule_external(at, icc_types::NodeIndex::new(node), cmd.clone());
        }
    }
    cluster.run_for(SimDuration::from_secs(4));
    assert_chains_consistent(&cluster);
    let mut digests = Vec::new();
    for node in cluster.honest_nodes() {
        let mut replica = Replica::new(Ledger::new());
        for o in cluster.events_of(node) {
            replica.on_event(&o.output);
        }
        let ledger = replica.machine();
        assert_eq!(
            ledger.total_supply(),
            ledger.total_minted(),
            "conservation violated at node {node}"
        );
        assert!(ledger.total_minted() > 0, "mints committed");
        assert!(
            ledger.rejected() > 0,
            "overdrafts were deterministically rejected"
        );
        digests.push(replica.state_digest());
    }
    for d in &digests[1..] {
        assert_eq!(*d, digests[0], "ledger state diverged");
    }
}

/// ICC0 pinned across a change of node. Ten configurations — honest
/// n = 4 on three seeds, n = 13 with jitter and commands, n = 40, two
/// equivocators of 7, two finalization-withholders of 7, three crashed
/// of 10, a crash-restart at n = 4, and 64 KiB commands over a slow
/// node — each reduced to one hash over every node's commits
/// `(round, block hash, commit µs)` and `RoundFinished`
/// `(round, duration µs, rank)`, plus the cluster's `verify_calls`.
///
/// Recorded at 0d5267c, when ICC0 was a node of its own (`IccNode`,
/// plain broadcast with a free self-copy). The gossip node on a full
/// mesh with nothing advertised is the same protocol and reproduces
/// every value: what differs is only what the wire carries (n − 1
/// copies, the 2-byte push envelope), never when or what anybody
/// decides. The restarted replica stays at round 33 for good: ICC0
/// advertises nothing, so nothing tells it it is behind, and nobody
/// sends a finished round again (ROADMAP item 1(ii)).
///
/// Re-recorded in two steps when commands started going to the next
/// leader. (1) Beacon `k + 1` is combined in round `k`, as soon as
/// `t + 1` shares are held, instead of on entering `k + 1`: every trace
/// hash and round stayed, and `verify_calls` fell 15–28 % (shares that
/// arrive after the combine are never checked) — 3 079 → 2 291 at n = 4,
/// 37 815 → 28 801, 180 869 → 130 429, 10 299 → 8 015, 16 354 → 12 831,
/// 5 829 → 4 926, 2 916 → 2 493, 1 567 → 1 249. (2) Forwarding: only
/// rows that inject commands can move, and three did — the jittered
/// ones, where each forwarded batch draws a delay from the seeded
/// network and so shifts every later draw (every node already holds
/// every command there): n = 13 110 / 5c5c52d87f0e62df / 28 801 → 111 /
/// b7120ae3287f7a49 / 29 193, two equivocators 99 / 53e3e1a09f7163ec /
/// 8 015 → 87 / 98d1027136aa64a5 / 7 125 (one seed's schedule: over 48
/// seeds the summed lowest committed round moved by under 1 %), two
/// withholders 168 / f6de63b5e8baa3ef / 12 831 → 164 / 5da4441967ca389a
/// / 12 456. The crash-restart row injects commands under a fixed delay
/// and the 64 KiB row's are above the forwarding cutoff: both stayed.
///
/// Re-recorded when a command sent to a round's rank-0 party started
/// going to its rank-1 party too. The same three rows moved, for the
/// same reason — one more seeded delay draw per send: n = 13 111 /
/// b7120ae3287f7a49 / 29 193 → 110 / bf108fe9779617be / 28 684, two
/// equivocators 87 / 98d1027136aa64a5 / 7 125 → 100 / 054a9c3950aeb3c6
/// / 8 059, two withholders 164 / 5da4441967ca389a / 12 456 → 168 /
/// a6d949a6db144545 / 12 718. Every other row stayed.
///
/// Re-recorded when command digests became BLAKE2b-256: a block id
/// commits to its commands through those digests, so every row that
/// injects commands has new block hashes in its trace, and those four
/// moved on hash alone — n = 13 bf108fe9779617be → 3c19898c1b9d5b7b, two
/// withholders a6d949a6db144545 → a061b17c60ced67a, crash-restart
/// d2ed8ff879340627 → 281722d5b69b3468, 64 KiB 046b52613ad061b1 →
/// a437a0d15d66bb85. The two equivocators row also moved in what it
/// decides, 100 / 054a9c3950aeb3c6 / 8 059 → 99 / 013f8a88b8b9f66a /
/// 8 080: same-rank candidates are picked by id ("Deterministic pick"
/// in `consensus.rs`), so the id order decides which of an
/// equivocator's two blocks a party supports first. The rows without
/// commands carry only empty blocks and stayed.
///
/// Re-recorded when a restarted replica began to pull what its open
/// rounds lack. Before, the crash-restart row's replica 1 came back at
/// 725 ms to a pool emptied by the crash, and nobody re-sent what its
/// open round had carried: it never committed again, and the row's
/// lowest committed round was its 33. Now it pulls on restore and
/// follows the cluster: 33 / 281722d5b69b3468 / 2 493 → 148 /
/// 77a7fd3f4210139c / 3 230 (the verification calls are its own, for
/// 115 more rounds). Every other row stayed: no replica of theirs ever
/// holds a round open for four Δbnd, so none pulls.
#[test]
fn icc0_runs_match_recorded_reference() {
    let jitter = |b: ClusterBuilder| {
        b.network(UniformDelay::new(ms(1), ms(20)))
            .protocol_delays(ms(60), SimDuration::ZERO)
    };
    let large = BlockPolicy {
        max_commands: 1000,
        max_bytes: 1 << 20,
        purge_depth: None,
    };
    let at = |v| SimTime::ZERO + ms(v);
    let restart = FaultPlan::new().crash_between(NodeIndex::new(1), at(700), at(725));
    let slow = SlowNodes {
        nodes: vec![NodeIndex::new(2)],
        extra: ms(25),
    };
    // (configuration, builder, commands (count, bytes) over the first
    // second, simulated seconds)
    let cases = [
        (
            "honest n=4 seed 1",
            ClusterBuilder::new(4).seed(1),
            (0, 0),
            2,
        ),
        (
            "honest n=4 seed 2",
            ClusterBuilder::new(4).seed(2),
            (0, 0),
            2,
        ),
        (
            "honest n=4 seed 3",
            ClusterBuilder::new(4).seed(3),
            (0, 0),
            2,
        ),
        (
            "n=13 jitter + commands",
            jitter(ClusterBuilder::new(13).seed(4)),
            (100, 64),
            2,
        ),
        ("n=40", ClusterBuilder::new(40).seed(5), (0, 0), 1),
        (
            "2 equivocators of 7",
            jitter(ClusterBuilder::new(7).seed(6)).behaviors(Behavior::first_f(
                7,
                2,
                Behavior::Equivocate,
            )),
            (30, 64),
            3,
        ),
        (
            "2 withhold finalization of 7",
            jitter(ClusterBuilder::new(7).seed(7)).behaviors(Behavior::first_f(
                7,
                2,
                Behavior::WithholdFinalization,
            )),
            (30, 64),
            3,
        ),
        (
            "3 crashed of 10",
            ClusterBuilder::new(10)
                .seed(8)
                .behaviors(Behavior::first_f(10, 3, Behavior::Crash)),
            (0, 0),
            2,
        ),
        (
            "crash-restart n=4",
            ClusterBuilder::new(4).seed(9).fault_plan(restart),
            (40, 64),
            3,
        ),
        (
            "64 KiB commands, slow node",
            ClusterBuilder::new(4)
                .seed(10)
                .protocol_delays(ms(120), SimDuration::ZERO)
                .block_policy(large)
                .policy(slow),
            (12, 64 << 10),
            2,
        ),
    ];
    let mut measured = Vec::new();
    for (name, builder, (count, bytes), secs) in cases {
        let mut cluster = icc0_cluster(builder);
        if count > 0 {
            cluster.inject_commands(SimTime::ZERO, SimDuration::from_secs(1), count, bytes);
        }
        cluster.run_for(SimDuration::from_secs(secs));
        cluster.assert_safety();
        let mut trace = Vec::new();
        for node in 0..cluster.n() {
            for o in cluster.events_of(node) {
                let (a, b, c) = match &o.output {
                    NodeEvent::Committed { block } => {
                        trace.extend_from_slice(block.hash().as_bytes());
                        (block.round().get(), o.at.as_micros(), u64::MAX)
                    }
                    NodeEvent::RoundFinished {
                        round,
                        duration,
                        notarized_rank,
                    } => (
                        round.get(),
                        duration.as_micros(),
                        u64::from(notarized_rank.get()),
                    ),
                    _ => continue,
                };
                for v in [node as u64, a, b, c] {
                    trace.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        let digest = icc_crypto::hash_parts("icc0-reference", &[&trace]);
        let head = u64::from_le_bytes(digest.as_bytes()[..8].try_into().unwrap());
        let verify_calls = cluster.metrics_summary().pool.verify_calls;
        let committed = cluster.min_committed_round();
        measured.push((name, committed, format!("{head:016x}"), verify_calls));
    }
    let expected = [
        ("honest n=4 seed 1", 99, "27f453923ce8b09b", 2291),
        ("honest n=4 seed 2", 99, "d5d7b55bdfc840a7", 2291),
        ("honest n=4 seed 3", 99, "c2f791c3544390f2", 2291),
        ("n=13 jitter + commands", 110, "3c19898c1b9d5b7b", 28684),
        ("n=40", 49, "6c32f5fadfc3c2a7", 130429),
        ("2 equivocators of 7", 99, "013f8a88b8b9f66a", 8080),
        (
            "2 withhold finalization of 7",
            168,
            "a061b17c60ced67a",
            12718,
        ),
        ("3 crashed of 10", 44, "c48f1a3bc98b0313", 4926),
        ("crash-restart n=4", 148, "77a7fd3f4210139c", 3230),
        ("64 KiB commands, slow node", 53, "a437a0d15d66bb85", 1249),
    ];
    assert_eq!(
        measured
            .iter()
            .map(|(n, r, h, v)| (*n, *r, h.as_str(), *v))
            .collect::<Vec<_>>(),
        expected,
        "configuration / lowest committed round / trace hash / verify_calls"
    );
}
