//! **E3 — reciprocal throughput and commit latency in units of δ**
//! (paper §1).
//!
//! Claims under test: "In a steady state … Protocols ICC0 and ICC1 will
//! finish a round once every 2δ units of time … The latency … is 3δ.
//! For Protocol ICC2, the reciprocal throughput is 3δ and the latency
//! is 4δ."
//!
//! Setup: fixed one-way delay δ, honest leaders, ε = 0 (fully
//! responsive). Round time is taken from `RoundFinished` events; commit
//! latency is the time from the proposer's `Proposed` event to each
//! node's `Committed` event for that block.
//!
//! A second table reads the telemetry layer's finalization-latency
//! histogram (round entry → commit, merged across nodes) and reports
//! p50/p90/p99 in units of δ — the distribution behind the means.

use icc_bench::{fmt_f, print_table, run_trials};
use icc_core::cluster::{Cluster, ClusterBuilder, CoreAccess};
use icc_core::events::NodeEvent;
use icc_erasure::{icc2_cluster, Icc2Config};
use icc_gossip::{gossip_cluster, icc0_cluster, GossipConfig, Overlay};
use icc_sim::delay::FixedDelay;
use icc_sim::Node;
use icc_types::{Command, SimDuration};
use std::collections::HashMap;

fn builder(n: usize, delta_ms: u64) -> ClusterBuilder {
    ClusterBuilder::new(n)
        .seed(3)
        .network(FixedDelay::new(SimDuration::from_millis(delta_ms)))
        .protocol_delays(SimDuration::from_millis(delta_ms * 3), SimDuration::ZERO)
}

/// Returns (mean round duration µs, mean commit latency µs, merged
/// finalization-latency histogram in µs).
fn measure<N>(cluster: &mut Cluster<N>, secs: u64) -> (f64, f64, icc_telemetry::Histogram)
where
    N: Node<External = Command, Output = NodeEvent> + CoreAccess,
{
    cluster.run_for(SimDuration::from_secs(secs));
    cluster.assert_safety();
    // Round durations, skipping the startup round.
    let stats = cluster.round_stats(0);
    let durations: Vec<u64> = stats
        .iter()
        .filter(|(r, _, _)| r.get() > 1)
        .map(|(_, d, _)| d.as_micros())
        .collect();
    let mean_round = durations.iter().sum::<u64>() as f64 / durations.len().max(1) as f64;
    // Proposal times by block hash (across all proposers).
    let mut proposed_at: HashMap<icc_crypto::Hash256, u64> = HashMap::new();
    for node in 0..cluster.n() {
        for o in cluster.events_of(node) {
            if let NodeEvent::Proposed { hash, .. } = o.output {
                proposed_at.entry(hash).or_insert(o.at.as_micros());
            }
        }
    }
    let mut latencies = Vec::new();
    for node in 0..cluster.n() {
        for o in cluster.events_of(node) {
            if let NodeEvent::Committed { block } = &o.output {
                if block.round().get() <= 1 {
                    continue;
                }
                if let Some(&p) = proposed_at.get(&block.hash()) {
                    latencies.push(o.at.as_micros().saturating_sub(p));
                }
            }
        }
    }
    let mean_latency = latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64;
    let fin = cluster.core_metrics().finalization_latency_us;
    (mean_round, mean_latency, fin)
}

fn main() {
    let n = 7;
    // Each δ is one self-contained cell (three protocol variants, each
    // on its own seeded cluster): `run_trials` fans the δ sweep across
    // cores with output identical to the serial loop.
    let deltas = [10u64, 20, 50];
    let both = run_trials(&deltas, |_, &delta_ms| {
        let delta = (delta_ms * 1000) as f64;

        let mut icc0 = icc0_cluster(builder(n, delta_ms));
        let (r0, l0, f0) = measure(&mut icc0, 5);

        let overlay = Overlay::full_mesh(n);
        let mut icc1 = gossip_cluster(builder(n, delta_ms), overlay, GossipConfig::default());
        let (r1, l1, f1) = measure(&mut icc1, 5);

        let mut icc2c = icc2_cluster(
            builder(n, delta_ms),
            Icc2Config {
                inline_threshold: 0,
            },
        );
        let (r2, l2, f2) = measure(&mut icc2c, 5);

        eprintln!("done delta={delta_ms}ms");
        let means = vec![
            format!("{delta_ms}ms"),
            fmt_f(r0 / delta, 2),
            fmt_f(l0 / delta, 2),
            fmt_f(r1 / delta, 2),
            fmt_f(l1 / delta, 2),
            fmt_f(r2 / delta, 2),
            fmt_f(l2 / delta, 2),
        ];
        let mut percentiles = vec![format!("{delta_ms}ms")];
        for h in [&f0, &f1, &f2] {
            percentiles.push(fmt_f(h.p50() as f64 / delta, 2));
            percentiles.push(fmt_f(h.p90() as f64 / delta, 2));
            percentiles.push(fmt_f(h.p99() as f64 / delta, 2));
        }
        (means, percentiles)
    });
    let (rows, pct_rows): (Vec<_>, Vec<_>) = both.into_iter().unzip();
    print_table(
        "E3: round time and commit latency in units of delta (n=7, honest, eps=0)",
        &[
            "delta",
            "ICC0 round/d",
            "ICC0 lat/d",
            "ICC1 round/d",
            "ICC1 lat/d",
            "ICC2 round/d",
            "ICC2 lat/d",
        ],
        &rows,
    );
    println!(
        "paper: ICC0/ICC1 -> 2.00 / 3.00; ICC2 -> 3.00 / 4.00 (ICC1 over a full-mesh\n\
         overlay matches ICC0; a multi-hop overlay adds hops to both)."
    );
    println!();
    print_table(
        "E3b: finalization latency percentiles in units of delta (telemetry histogram,\n\
         round entry -> commit; log2 buckets give <= 2x quantile resolution)",
        &[
            "delta", "ICC0 p50", "ICC0 p90", "ICC0 p99", "ICC1 p50", "ICC1 p90", "ICC1 p99",
            "ICC2 p50", "ICC2 p90", "ICC2 p99",
        ],
        &pct_rows,
    );
}
