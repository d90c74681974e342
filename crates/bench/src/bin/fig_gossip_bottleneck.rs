//! **E8 — the leader bottleneck and the gossip sub-layer** (paper §1,
//! §1.1, following the methodology of MirBFT \[35\]: the measure that
//! matters is not total bits but the *maximum bits transmitted by any
//! one party*).
//!
//! Claims under test: "a well-designed gossip sub-layer can
//! significantly reduce the communication bottleneck at the leader"
//! (and ICC1 is designed to integrate with one).
//!
//! Setup: n = 40, 1 MiB blocks, honest leaders. We compare ICC0 (every
//! party broadcasts/echoes the whole block) against ICC1 over overlays
//! of decreasing degree, reporting the bottleneck (max per-party bytes
//! per round) and the mean.

use icc_bench::{fmt_f, print_table};
use icc_core::cluster::{Cluster, ClusterBuilder, CoreAccess};
use icc_core::events::NodeEvent;
use icc_core::BlockPolicy;
use icc_gossip::{icc0_cluster, GossipConfig, Overlay, Recipe};
use icc_sim::delay::FixedDelay;
use icc_sim::Node;
use icc_types::{Command, SimDuration, SimTime};

const BLOCK: usize = 1 << 20;

fn builder(n: usize) -> ClusterBuilder {
    ClusterBuilder::new(n)
        .seed(8)
        .network(FixedDelay::new(SimDuration::from_millis(20)))
        .protocol_delays(SimDuration::from_millis(60), SimDuration::from_millis(100))
        .block_policy(BlockPolicy {
            max_commands: 100_000,
            max_bytes: BLOCK,
            ..BlockPolicy::default()
        })
}

fn measure<N>(cluster: &mut Cluster<N>, secs: u64) -> (f64, f64, u64)
where
    N: Node<External = Command, Output = NodeEvent> + CoreAccess,
{
    let total = (200 * BLOCK).div_ceil(65536);
    cluster.inject_commands(SimTime::ZERO, SimDuration::from_millis(100), total, 65536);
    cluster.run_for(SimDuration::from_secs(2));
    let r0 = cluster.min_committed_round();
    cluster.sim.reset_metrics();
    cluster.run_for(SimDuration::from_secs(secs));
    let rounds = (cluster.min_committed_round() - r0).max(1);
    cluster.assert_safety();
    let m = cluster.sim.metrics();
    (
        m.mean_node_bytes() / rounds as f64,
        m.max_node_bytes() as f64 / rounds as f64,
        rounds,
    )
}

fn main() {
    let n = 40;
    let mut rows = Vec::new();

    let mut icc0 = icc0_cluster(builder(n));
    let (mean, max, rounds) = measure(&mut icc0, 10);
    rows.push(vec![
        "ICC0 (full broadcast)".into(),
        fmt_f(mean / BLOCK as f64, 1),
        fmt_f(max / BLOCK as f64, 1),
        format!("{rounds}"),
    ]);
    eprintln!("done ICC0");

    for &degree in &[12usize, 6, 4] {
        let mut icc1 = Recipe::shipped(n)
            .with_overlay(Overlay::random_regular(n, degree, 5))
            .with_config(GossipConfig::inline_small_blocks())
            .cluster(builder(n));
        let (mean, max, rounds) = measure(&mut icc1, 10);
        rows.push(vec![
            format!("ICC1 gossip, degree {degree}"),
            fmt_f(mean / BLOCK as f64, 1),
            fmt_f(max / BLOCK as f64, 1),
            format!("{rounds}"),
        ]);
        eprintln!("done degree={degree}");
    }

    print_table(
        "E8: leader/bottleneck egress with 1 MiB blocks (n=40), per round, normalized by S",
        &[
            "dissemination",
            "mean bytes/S",
            "max (bottleneck) bytes/S",
            "rounds measured",
        ],
        &rows,
    );
    println!(
        "expected shape: ICC0's bottleneck ≈ n·S (every supporter echoes the block);\n\
         gossip cuts the bottleneck to ≈ degree·S while the mean stays ≈ S —\n\
         the [35]-style bottleneck argument for ICC1."
    );
}
