//! Client commands ride the block of the round they arrive in. With a
//! governor ε the rank-0 leader proposes at `t0 + ε` (`Δprop(0) = ε`),
//! and a command given to any replica while that window is open goes to
//! the round's own leader, not to the next round's (`icc-core::ingress`).
//!
//! n = 4 on ICC0, δ = 10 ms on every link, ε = 50 ms, Δbnd = 60 ms: a
//! round is ε + 2δ = 70 ms, and the leader's window closes 20 ms before
//! its end.

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
