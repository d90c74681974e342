//! Client commands ride the block of the round they arrive in. With a
//! governor ε the rank-0 leader proposes at `t0 + ε` (`Δprop(0) = ε`),
//! and a command given to any replica while that window is open goes to
//! the round's own leader, not to the next round's (`icc-core::ingress`).
//!
//! n = 4 on ICC0, δ = 10 ms on every link, ε = 50 ms, Δbnd = 60 ms: a
//! round is ε + 2δ = 70 ms, and the leader's window closes 20 ms before
//! its end.
//!
//! A command also survives a faulty leader: it goes to the round's
//! rank-1 party too, which proposes it at `Δprop(1) = 2·Δbnd` when rank
//! 0 is crashed or disqualified. Those cases run with ε = 0 and one
//! faulty party of the four.

use icc_core::byzantine::Behavior;
use icc_core::cluster::{Cluster, ClusterBuilder};
use icc_core::events::NodeEvent;
use icc_gossip::{icc0_cluster, GossipNode};
use icc_sim::delay::FixedDelay;
use icc_types::{Command, NodeIndex, Round, SimDuration, SimTime};

const SEED: u64 = 32;
const EPSILON_MS: u64 = 50;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

fn cluster() -> Cluster<GossipNode> {
    icc0_cluster(
        ClusterBuilder::new(4)
            .seed(SEED)
            .network(FixedDelay::new(ms(10)))
            .protocol_delays(ms(60), ms(EPSILON_MS)),
    )
}

fn command(tag: &str) -> Command {
    let mut bytes = format!("ingress {tag}").into_bytes();
    bytes.resize(64, b'.');
    Command::new(bytes)
}

/// A round as one replica saw it: its number, when the replica entered
/// it, and its leader. Found in a run without commands, which the same
/// seed replays up to the first command given.
struct RoundSeen {
    round: Round,
    entered: SimTime,
    leader: NodeIndex,
}

/// The first round `node` enters after 500 ms whose leader is (or is
/// not, per `leads`) `node` itself.
fn first_round(node: usize, leads: bool) -> RoundSeen {
    let mut probe = cluster();
    probe.run_until(at(1500));
    let me = NodeIndex::new(node as u32);
    let seen = probe.events_of(node).find_map(|o| match &o.output {
        NodeEvent::EnteredRound { round, leader, .. }
            if o.at >= at(500) && (*leader == me) == leads =>
        {
            Some(RoundSeen {
                round: *round,
                entered: o.at,
                leader: *leader,
            })
        }
        _ => None,
    });
    seen.expect("a round of that kind between 0.5 s and 1.5 s")
}

/// The rounds of the blocks that commit `cmd` at `node`.
fn rounds_committing(cluster: &Cluster<GossipNode>, node: usize, cmd: &Command) -> Vec<Round> {
    let chain = cluster.committed_chain(node);
    let holding = chain.iter().filter(|b| {
        let commands = b.block().payload().commands();
        commands.iter().any(|c| c == cmd)
    });
    holding.map(|b| b.round()).collect()
}

/// Given to a replica that does not lead the round, 10 ms into it, a
/// command goes to the round's leader before it proposes and commits in
/// that round's block — once, at every replica.
#[test]
fn a_command_given_during_the_window_commits_in_its_own_round() {
    let k = first_round(1, false);
    let mut cluster = cluster();
    let cmd = command("early");
    let given = k.entered + ms(10);
    cluster
        .sim
        .schedule_external(given, NodeIndex::new(1), cmd.clone());
    cluster.run_until(given + ms(1000));
    for node in 0..4 {
        let rounds = rounds_committing(&cluster, node, &cmd);
        assert_eq!(rounds, [k.round], "node {node}, leader {}", k.leader);
    }
    let stats = cluster.sim.node(1).core().ingress_stats();
    assert_eq!((stats.forwarded, stats.sent_to_current), (1, 1), "{stats}");
    cluster.assert_safety();
}

/// Given after the round's leader has proposed, a command goes to the
/// next round's leader and commits in round k + 1 — not in k + 2.
#[test]
fn a_command_given_after_the_proposal_commits_in_the_next_round() {
    let k = first_round(1, false);
    let mut probe = cluster();
    probe.run_until(k.entered + ms(200));
    let leader = k.leader.get() as usize;
    let proposed = probe.events_of(leader).find_map(|o| match &o.output {
        NodeEvent::Proposed { round, .. } if *round == k.round => Some(o.at),
        _ => None,
    });
    let proposed = proposed.expect("the leader proposed in round k");
    let mut cluster = cluster();
    let cmd = command("late");
    let given = proposed + ms(1);
    cluster
        .sim
        .schedule_external(given, NodeIndex::new(1), cmd.clone());
    cluster.run_until(given + ms(1000));
    for node in 0..4 {
        let rounds = rounds_committing(&cluster, node, &cmd);
        assert_eq!(rounds, [k.round.next()], "node {node}");
    }
    cluster.assert_safety();
}

/// The leader's own client's command is not sent anywhere: it waits in
/// the leader's pool, which proposes at `t0 + ε` with it in the block.
#[test]
fn a_leaders_own_command_is_proposed_at_the_end_of_its_window() {
    let k = first_round(2, true);
    let mut cluster = cluster();
    let cmd = command("own");
    let given = k.entered + ms(10);
    cluster
        .sim
        .schedule_external(given, NodeIndex::new(2), cmd.clone());
    cluster.run_until(given + ms(1000));
    let proposed = cluster.events_of(2).find_map(|o| match &o.output {
        NodeEvent::Proposed { round, .. } if *round == k.round => Some(o.at),
        _ => None,
    });
    assert_eq!(proposed, Some(k.entered + ms(EPSILON_MS)));
    for node in 0..4 {
        assert_eq!(rounds_committing(&cluster, node, &cmd), [k.round]);
    }
    let stats = cluster.sim.node(2).core().ingress_stats();
    assert_eq!((stats.forwarded, stats.sent_to_current), (0, 0), "{stats}");
    cluster.assert_safety();
}

/// The faulty party of the faulty-leader cases.
const FAULTY: usize = 3;

fn faulty_cluster(behavior: Behavior) -> Cluster<GossipNode> {
    let mut behaviors = vec![Behavior::Honest; 4];
    behaviors[FAULTY] = behavior;
    icc0_cluster(
        ClusterBuilder::new(4)
            .seed(SEED)
            .network(FixedDelay::new(ms(10)))
            .protocol_delays(ms(60), SimDuration::ZERO)
            .behaviors(behaviors),
    )
}

/// The rank-1 party of `round`: the replica that entered it with rank 1.
fn rank_one(cluster: &Cluster<GossipNode>, round: Round) -> Option<usize> {
    (0..4).find(|&node| {
        cluster.events_of(node).any(|o| {
            matches!(o.output, NodeEvent::EnteredRound { round: r, my_rank: Some(rank), .. }
                if r == round && rank.get() == 1)
        })
    })
}

/// When `node` entered `round`.
fn entered(cluster: &Cluster<GossipNode>, node: usize, round: Round) -> Option<SimTime> {
    cluster.events_of(node).find_map(|o| match o.output {
        NodeEvent::EnteredRound { round: r, .. } if r == round => Some(o.at),
        _ => None,
    })
}

/// A command given, in round k − 1 and after beacon k is known, to an
/// honest replica that is neither rank 0 nor rank 1 of round k, where
/// rank 0 is the faulty party: it goes to both, and the rank-1 party
/// proposes it in round k. It commits there, in rank 1's block, once at
/// every honest replica — not two rounds on, after a retry.
fn a_command_survives_a_faulty_leader(behavior: Behavior) {
    let mut probe = faulty_cluster(behavior);
    probe.run_until(at(3000));
    // The first round after 500 ms that the faulty party leads and that
    // ends on rank 1's block: an equivocator's two blocks can both miss
    // a quorum, or one of them can gather it (with its own share).
    let faulty = NodeIndex::new(FAULTY as u32);
    let led_by_faulty = |round: Round| {
        probe.events_of(0).any(|o| {
            matches!(o.output, NodeEvent::EnteredRound { round: r, leader, .. }
                if r == round && leader == faulty)
        })
    };
    let found = probe.events_of(0).find_map(|o| match o.output {
        NodeEvent::RoundFinished {
            round,
            notarized_rank,
            ..
        } if o.at >= at(500) && notarized_rank.get() == 1 && led_by_faulty(round) => {
            let backup = rank_one(&probe, round)?;
            let sender = (0..4).find(|&i| i != FAULTY && i != backup)?;
            let before = round.prev()?;
            Some((round, backup, sender, entered(&probe, sender, before)?))
        }
        _ => None,
    });
    let (k, backup, sender, k_minus_1) = found.expect("a round lost by the faulty leader");
    // Beacon k is combined from t + 1 = 2 shares, sent when beacon k − 1
    // was: within δ of entering round k − 1, which lasts 2δ at least.
    let given = k_minus_1 + ms(15);
    assert!(entered(&probe, sender, k).is_some_and(|t| t > given));

    let mut cluster = faulty_cluster(behavior);
    let cmd = command("faulty leader");
    cluster
        .sim
        .schedule_external(given, NodeIndex::new(sender as u32), cmd.clone());
    cluster.run_until(given + ms(2000));
    for node in cluster.honest_nodes() {
        let rounds = rounds_committing(&cluster, node, &cmd);
        assert_eq!(rounds, [k], "node {node}, sender {sender}, rank 1 {backup}");
        let chain = cluster.committed_chain(node);
        let block = chain.iter().find(|b| b.round() == k).expect("block k");
        assert_eq!(block.block().proposer(), NodeIndex::new(backup as u32));
    }
    let stats = cluster.sim.node(sender).core().ingress_stats();
    assert_eq!((stats.forwarded, stats.sent_to_backup), (1, 1), "{stats}");
    cluster.assert_safety();
}

#[test]
fn a_command_survives_a_crashed_leader() {
    a_command_survives_a_faulty_leader(Behavior::Crash);
}

#[test]
fn a_command_survives_an_equivocating_leader() {
    a_command_survives_a_faulty_leader(Behavior::Equivocate);
}
