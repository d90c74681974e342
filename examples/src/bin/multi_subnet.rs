//! Two intercommunicating subnets — the paper's framing of the Internet
//! Computer (§1): "a dynamic collection of intercommunicating replicated
//! state machines: commands for atomic broadcast on one replicated
//! state machine are either derived from messages received from other
//! replicated state machines, or from external clients."
//!
//! Subnet A (4 nodes) receives client commands; whenever A *commits* a
//! command, a relay (modeling the IC's cross-subnet message streams)
//! forwards it — with a network delay — as an input command to subnet B
//! (7 nodes), which orders and commits it in turn. Both subnets run
//! concurrently in lock-step time slices.
//!
//! ```text
//! cargo run --release -p icc-examples --bin multi_subnet
//! ```

use icc_core::cluster::ClusterBuilder;
use icc_core::events::NodeEvent;
use icc_gossip::icc0_cluster;
use icc_types::{Command, NodeIndex, SimDuration, SimTime};
use std::collections::HashSet;

fn main() {
    let mut subnet_a = icc0_cluster(ClusterBuilder::new(4).seed(1));
    let mut subnet_b = icc0_cluster(ClusterBuilder::new(7).seed(2));
    let xnet_delay = SimDuration::from_millis(25);

    // Clients submit to subnet A over the first half second.
    for i in 0..10u64 {
        let at = SimTime::ZERO + SimDuration::from_millis(50 * i);
        let cmd = Command::new(format!("xnet-msg #{i}").into_bytes());
        for node in 0..subnet_a.n() {
            subnet_a
                .sim
                .schedule_external(at, NodeIndex::new(node as u32), cmd.clone());
        }
    }

    // Lock-step co-simulation: advance both subnets 50 ms at a time and
    // relay subnet A's newly committed commands into subnet B.
    let mut relayed: HashSet<Vec<u8>> = HashSet::new();
    let mut a_commit_times = Vec::new();
    for slice in 1..=40u64 {
        let t = SimTime::ZERO + SimDuration::from_millis(50 * slice);
        subnet_a.run_until(t);
        subnet_b.run_until(t);
        // Observer: node 0 of subnet A decides what has committed.
        let committed: Vec<(SimTime, Command)> = subnet_a
            .events_of(0)
            .filter_map(|o| match &o.output {
                NodeEvent::Committed { block } => Some((o.at, block.clone())),
                _ => None,
            })
            .flat_map(|(at, block)| {
                block
                    .block()
                    .payload()
                    .commands()
                    .iter()
                    .map(move |c| (at, c.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (at, cmd) in committed {
            if relayed.insert(cmd.bytes().to_vec()) {
                a_commit_times.push((cmd.bytes().to_vec(), at));
                let deliver_at = at + xnet_delay;
                for node in 0..subnet_b.n() {
                    subnet_b.sim.schedule_external(
                        deliver_at,
                        NodeIndex::new(node as u32),
                        cmd.clone(),
                    );
                }
            }
        }
    }

    subnet_a.assert_safety();
    subnet_b.assert_safety();

    // Where did each cross-subnet message end up?
    let b_chain = subnet_b.committed_chain(0);
    let mut b_commits = Vec::new();
    for o in subnet_b.events_of(0) {
        if let NodeEvent::Committed { block } = &o.output {
            for c in block.block().payload().commands() {
                b_commits.push((c.bytes().to_vec(), o.at));
            }
        }
    }
    println!("cross-subnet pipeline (A commits -> relay 25ms -> B commits):");
    let mut delivered = 0;
    for (bytes, a_time) in &a_commit_times {
        if let Some((_, b_time)) = b_commits.iter().find(|(b, _)| b == bytes) {
            delivered += 1;
            println!(
                "  {:<14} committed on A at {a_time}, on B at {b_time} (end-to-end {})",
                String::from_utf8_lossy(bytes),
                b_time.saturating_since(*a_time)
            );
        }
    }
    assert_eq!(delivered, 10, "every cross-subnet message must arrive");
    println!(
        "\nsubnet A committed {} rounds, subnet B {} rounds ({} blocks carrying xnet messages);",
        subnet_a.min_committed_round(),
        subnet_b.min_committed_round(),
        b_chain
            .iter()
            .filter(|b| !b.block().payload().is_empty())
            .count()
    );
    println!(
        "each subnet ran its own independent ICC instance — consensus never crossed the boundary."
    );
}
