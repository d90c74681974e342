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

use crate::{Mode, Report, Table};
use icc_bench::{fmt_f, rounds_over_window, ClusterNode};
use icc_core::cluster::{Cluster, ClusterBuilder};
use icc_core::BlockPolicy;
use icc_gossip::{icc0_cluster, GossipConfig, Overlay, Recipe};
use icc_sim::delay::FixedDelay;
use icc_types::{SimDuration, SimTime};

const BLOCK: usize = 1 << 20;
const N: usize = 40;

fn builder() -> ClusterBuilder {
    ClusterBuilder::new(N)
        .seed(8)
        .network(FixedDelay::new(SimDuration::from_millis(20)))
        .protocol_delays(SimDuration::from_millis(60), SimDuration::from_millis(100))
        .block_policy(BlockPolicy {
            max_commands: 100_000,
            max_bytes: BLOCK,
            ..BlockPolicy::default()
        })
}

/// One row: mean and bottleneck bytes per round over S, and the rounds
/// measured.
fn row<T: ClusterNode>(label: String, mut cluster: Cluster<T>) -> Vec<String> {
    let total = (200 * BLOCK).div_ceil(65536);
    cluster.inject_commands(SimTime::ZERO, SimDuration::from_millis(100), total, 65536);
    let rounds = rounds_over_window(
        &mut cluster,
        SimDuration::from_secs(2),
        SimDuration::from_secs(10),
    )
    .max(1);
    cluster.assert_safety();
    let m = cluster.sim.metrics();
    eprintln!("done {label}");
    vec![
        label,
        fmt_f(m.mean_node_bytes() / rounds as f64 / BLOCK as f64, 1),
        fmt_f(m.max_node_bytes() as f64 / rounds as f64 / BLOCK as f64, 1),
        format!("{rounds}"),
    ]
}

pub fn run(_: Mode) -> Report {
    let mut rows = vec![row("ICC0 (full broadcast)".into(), icc0_cluster(builder()))];
    for &degree in &[12usize, 6, 4] {
        let icc1 = Recipe::shipped(N)
            .with_overlay(Overlay::random_regular(N, degree, 5))
            .with_config(GossipConfig::inline_small_blocks())
            .cluster(builder());
        rows.push(row(format!("ICC1 gossip, degree {degree}"), icc1));
    }
    let headers = "dissemination | mean bytes/S | max (bottleneck) bytes/S | rounds measured";
    Report::new(
        vec![Table::new(
            "E8: leader/bottleneck egress with 1 MiB blocks (n=40), per round, normalized by S",
            headers,
            rows,
        )],
        "expected shape: ICC0's bottleneck ≈ n·S (every supporter echoes the block);\n\
         gossip cuts the bottleneck to ≈ degree·S while the mean stays ≈ S —\n\
         the [35]-style bottleneck argument for ICC1.",
    )
}
