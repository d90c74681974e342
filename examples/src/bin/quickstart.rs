//! Quickstart: run a 4-party ICC0 cluster, submit a few commands, and
//! watch them come out of atomic broadcast in the same order everywhere.
//!
//! ```text
//! cargo run --release -p icc-examples --bin quickstart
//! ```

use icc_core::cluster::ClusterBuilder;
use icc_core::events::NodeEvent;
use icc_gossip::icc0_cluster;
use icc_types::{SimDuration, SimTime};

fn main() {
    // A 4-party subnet (tolerates t = 1 Byzantine fault) on a simulated
    // network with a fixed 10 ms one-way delay. ICC0 is the gossip node
    // on a full mesh: every artifact goes once to every other party.
    let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(7));

    // Submit five client commands over the first 100 ms.
    for (i, cmd) in [
        "pay alice 5",
        "pay bob 3",
        "mint 100",
        "burn 4",
        "pay carol 9",
    ]
    .iter()
    .enumerate()
    {
        let at = SimTime::ZERO + SimDuration::from_millis(20 * i as u64);
        for node in 0..cluster.n() {
            cluster.sim.schedule_external(
                at,
                icc_types::NodeIndex::new(node as u32),
                icc_types::Command::new(cmd.as_bytes().to_vec()),
            );
        }
    }

    // Run one simulated second.
    cluster.run_for(SimDuration::from_secs(1));

    // Every honest party committed the same chain — verify and print
    // node 0's view of it.
    cluster.assert_safety();
    println!("node 0 committed chain:");
    for o in cluster.events_of(0) {
        if let NodeEvent::Committed { block } = &o.output {
            let cmds: Vec<String> = block
                .block()
                .payload()
                .commands()
                .iter()
                .map(|c| String::from_utf8_lossy(c.bytes()).into_owned())
                .collect();
            println!(
                "  [{}] round {:>3} proposed by {}  {:?}",
                o.at,
                block.round().get(),
                block.proposer(),
                cmds
            );
        }
    }
    println!(
        "\ncommitted {} rounds in 1 simulated second (≈ every 2δ = 20 ms); \
         all {} parties agree.",
        cluster.min_committed_round(),
        cluster.n()
    );
}
