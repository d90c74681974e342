//! **E7 — per-party communication vs block size: ICC0 broadcast vs
//! ICC2 erasure-coded RBC** (paper §1).
//!
//! Claims under test: "Assuming blocks have size S, and that
//! S = Ω(n log n λ) … the total number of bits transmitted by each
//! party in each round of ICC2 is O(S) with overwhelming probability";
//! whereas ICC0's full-block broadcast-and-echo costs Θ(n·S) per
//! echoing party.
//!
//! We saturate blocks at size S with synthetic client commands and
//! measure mean and max per-party bytes **per round** for growing S at
//! n = 13 and 40. The interesting column is `bytes / S`: flat ≈ 3–4 for
//! ICC2 (`n/(t+1)` plus small artifacts), growing like n for ICC0.

use crate::{Mode, Report, Table};
use icc_bench::{fmt_f, rounds_over_window, ClusterNode};
use icc_core::cluster::{Cluster, ClusterBuilder};
use icc_core::BlockPolicy;
use icc_erasure::{icc2_cluster, Icc2Config};
use icc_gossip::icc0_cluster;
use icc_sim::delay::FixedDelay;
use icc_types::{SimDuration, SimTime};

fn builder(n: usize, block_bytes: usize) -> ClusterBuilder {
    ClusterBuilder::new(n)
        .seed(1)
        .network(FixedDelay::new(SimDuration::from_millis(20)))
        .protocol_delays(SimDuration::from_millis(60), SimDuration::from_millis(50))
        .block_policy(BlockPolicy {
            max_commands: 100_000,
            max_bytes: block_bytes,
            ..BlockPolicy::default()
        })
}

/// Mean and max per-node bytes per round, normalized by the block size.
fn measure<N: ClusterNode>(mut cluster: Cluster<N>, block_bytes: usize, secs: u64) -> (f64, f64) {
    // Pre-load enough commands that every block is full: ~200 block
    // payloads' worth, in commands of at most a quarter block (so small
    // blocks still fill; Bytes-backed commands are cheap to clone).
    let cmd_size = 65536.min(block_bytes / 4).max(1024);
    let total = (200 * block_bytes).div_ceil(cmd_size);
    cluster.inject_commands(
        SimTime::ZERO,
        SimDuration::from_millis(100),
        total,
        cmd_size,
    );
    let rounds = rounds_over_window(
        &mut cluster,
        SimDuration::from_secs(1),
        SimDuration::from_secs(secs),
    )
    .max(1);
    cluster.assert_safety();
    let m = cluster.sim.metrics();
    let s = block_bytes as f64;
    (
        m.mean_node_bytes() / rounds as f64 / s,
        m.max_node_bytes() as f64 / rounds as f64 / s,
    )
}

pub fn run(_: Mode) -> Report {
    let mut rows = Vec::new();
    for &n in &[13usize, 40] {
        for &kb in &[32usize, 128, 512, 2048] {
            let s = kb * 1024;
            // The 2 MiB cells pay real Reed-Solomon CPU per simulated
            // block; a shorter window keeps the harness snappy without
            // changing the per-round averages.
            let secs = if kb >= 2048 { 3 } else { 6 };
            let (mean0, max0) = measure(icc0_cluster(builder(n, s)), s, secs);
            let icc2 = icc2_cluster(builder(n, s), Icc2Config::default());
            let (mean2, max2) = measure(icc2, s, secs);
            rows.push(vec![
                format!("{n}"),
                format!("{kb} KiB"),
                fmt_f(mean0, 1),
                fmt_f(max0, 1),
                fmt_f(mean2, 1),
                fmt_f(max2, 1),
            ]);
            eprintln!("done n={n} S={kb}KiB");
        }
    }
    let headers = "n | S | ICC0 mean/S | ICC0 max/S | ICC2 mean/S | ICC2 max/S";
    Report::new(
        vec![Table::new(
            "E7: per-party bytes per round, normalized by block size S",
            headers,
            rows,
        )],
        "expected shape: ICC0 grows with n (every supporter echoes the full block);\n\
         ICC2 stays flat at ~n/(t+1)+1 ≈ 4 regardless of n — the O(S)-per-party claim.",
    )
}
