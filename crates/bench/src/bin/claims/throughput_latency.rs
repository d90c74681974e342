//! **E3 — reciprocal throughput and commit latency in units of δ**
//! (paper §1).
//!
//! Claims under test: "In a steady state … Protocols ICC0 and ICC1 will
//! finish a round once every 2δ units of time … The latency … is 3δ.
//! For Protocol ICC2, the reciprocal throughput is 3δ and the latency
//! is 4δ."
//!
//! Setup: fixed one-way delay δ, honest leaders, ε = 0 (fully
//! responsive). ICC1 pushes blocks up to 4 KiB inline; "ICC1 shipped"
//! is `Recipe::shipped`, every block by advert → request → deliver.
//! Round time is taken from `RoundFinished` events; commit latency is
//! the time from the proposer's `Proposed` event to each node's
//! `Committed` event for that block.
//!
//! A second table reads the telemetry layer's finalization-latency
//! histogram (round entry → commit, merged across nodes) and reports
//! p50/p90/p99 in units of δ — the distribution behind the means.

use crate::{Mode, Report, Table};
use icc_bench::{fmt_f, mean_round_us, proposed_at, run_trials, synchronous, ClusterNode};
use icc_core::cluster::{Cluster, ClusterBuilder};
use icc_core::events::NodeEvent;
use icc_erasure::{icc2_cluster, Icc2Config};
use icc_gossip::{icc0_cluster, GossipConfig, Recipe};
use icc_types::SimDuration;

fn builder(n: usize, delta_ms: u64) -> ClusterBuilder {
    synchronous(n, 3, delta_ms, delta_ms * 3)
}

/// Returns (mean round duration µs, mean commit latency µs, merged
/// finalization-latency histogram in µs).
fn measure<N: ClusterNode>(mut cluster: Cluster<N>) -> (f64, f64, icc_telemetry::Histogram) {
    cluster.run_for(SimDuration::from_secs(5));
    cluster.assert_safety();
    let proposed_at = proposed_at(&cluster);
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
    (mean_round_us(&cluster, 0), mean_latency, fin)
}

pub fn run(_: Mode) -> Report {
    let n = 7;
    // Each δ is one self-contained cell (four protocol variants, each
    // on its own seeded cluster): `run_trials` fans the δ sweep across
    // cores with output identical to the serial loop.
    let deltas = [10u64, 20, 50];
    let both = run_trials(&deltas, |_, &delta_ms| {
        let delta = (delta_ms * 1000) as f64;
        let (r0, l0, f0) = measure(icc0_cluster(builder(n, delta_ms)));
        let (r1, l1, f1) = measure(
            Recipe::shipped(n)
                .with_config(GossipConfig::inline_small_blocks())
                .cluster(builder(n, delta_ms)),
        );
        let (rs, ls, _) = measure(Recipe::shipped(n).cluster(builder(n, delta_ms)));
        let icc2 = Icc2Config {
            inline_threshold: 0,
        };
        let (r2, l2, f2) = measure(icc2_cluster(builder(n, delta_ms), icc2));
        eprintln!("done delta={delta_ms}ms");
        let means = vec![
            format!("{delta_ms}ms"),
            fmt_f(r0 / delta, 2),
            fmt_f(l0 / delta, 2),
            fmt_f(r1 / delta, 2),
            fmt_f(l1 / delta, 2),
            fmt_f(rs / delta, 2),
            fmt_f(ls / delta, 2),
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
    let means = Table::new(
        "E3: round time and commit latency in units of delta (n=7, honest, eps=0)",
        "delta | ICC0 round/d | ICC0 lat/d | ICC1 round/d | ICC1 lat/d | ICC1 shipped round/d \
         | ICC1 shipped lat/d | ICC2 round/d | ICC2 lat/d",
        rows,
    )
    .note(
        "paper: ICC0/ICC1 -> 2.00 / 3.00; ICC2 -> 3.00 / 4.00 (ICC1 over a full-mesh\n\
         overlay matches ICC0; a multi-hop overlay adds hops to both). ICC1 shipped\n\
         sends every block by advert -> request -> deliver: two more hops per round.\n",
    );
    let percentiles = Table::new(
        "E3b: finalization latency percentiles in units of delta (telemetry histogram,\n\
         round entry -> commit; log2 buckets give <= 2x quantile resolution)",
        "delta | ICC0 p50 | ICC0 p90 | ICC0 p99 | ICC1 p50 | ICC1 p90 | ICC1 p99 | ICC2 p50 \
         | ICC2 p90 | ICC2 p99",
        pct_rows,
    );
    Report::new(vec![means, percentiles], "")
}
