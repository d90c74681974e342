//! Network chaos: partitions and asynchronous windows.
//!
//! Demonstrates the paper's two headline guarantees under hostile
//! network conditions:
//!
//! * **safety in asynchrony** — during a partition or an adversarial
//!   scheduling window, honest parties never commit conflicting chains;
//! * **liveness under partial synchrony** — "even if the network is
//!   only intermittently synchronous, the system will maintain a
//!   constant throughput": as soon as the network heals, the backlog of
//!   rounds commits in a burst.
//!
//! ```text
//! cargo run --release -p icc-examples --bin network_chaos
//! ```

use icc_core::cluster::ClusterBuilder;
use icc_gossip::icc0_cluster;
use icc_sim::policy::{AsyncWindow, Partition};
use icc_types::{NodeIndex, SimDuration, SimTime};

fn at(secs_tenths: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(100 * secs_tenths)
}

fn main() {
    let n = 7;
    // Timeline: 0–2 s healthy; 2–4 s partition 2|5; 4–6 s healthy;
    // 6–8 s fully asynchronous; 8–10 s healthy.
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(n)
            .seed(23)
            .protocol_delays(SimDuration::from_millis(60), SimDuration::ZERO)
            .policy(Partition {
                from: at(20),
                until: at(40),
                group_a: vec![NodeIndex::new(0), NodeIndex::new(1)],
            })
            .policy(AsyncWindow {
                from: at(60),
                until: at(80),
            }),
    );

    println!("phase                 | window  | committed rounds (min over nodes)");
    println!("----------------------+---------+----------------------------------");
    let mut last = 0u64;
    for (label, until) in [
        ("healthy", 20u64),
        ("partition {P0,P1}|rest", 40),
        ("healed", 60),
        ("fully asynchronous", 80),
        ("healed again", 100),
    ] {
        cluster.run_until(at(until));
        cluster.assert_safety(); // safety holds *during* chaos, not just after
        let committed = cluster.min_committed_round();
        println!(
            "{label:<22}| {:>4.1} s  | {committed:>5}  (+{} this phase)",
            until as f64 / 10.0,
            committed - last
        );
        last = committed;
    }

    println!(
        "\nnote: the minority side of a partition cannot commit (only {} of n−t = {} \
         quorum parties reachable), and full asynchrony stalls commits entirely —\n\
         but nothing ever forks, and healing recovers the full backlog: every round\n\
         that passed during chaos still gets exactly one committed block (P1).",
        2,
        n - (n / 3)
    );
}
