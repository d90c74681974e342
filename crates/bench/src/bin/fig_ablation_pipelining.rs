//! **Ablation — beacon-share pipelining** (design choice called out in
//! `DESIGN.md` §5).
//!
//! Figure 1 broadcasts a party's share of the round-(k+1) beacon the
//! moment beacon k is computed: "a bit of 'pipelining' logic used to
//! minimize the latency" (§3.5). This harness removes exactly that line
//! and measures what it buys: without pipelining, entering a round
//! first requires a beacon-share exchange (+1δ), so the round time goes
//! from 2δ to 3δ — a 50% throughput hit for one line of protocol.

use icc_bench::{fmt_f, print_table};
use icc_core::cluster::ClusterBuilder;
use icc_gossip::icc0_cluster;
use icc_sim::delay::FixedDelay;
use icc_types::SimDuration;

fn round_time_us(n: usize, delta_ms: u64, pipelining: bool) -> f64 {
    let mut builder = ClusterBuilder::new(n)
        .seed(17)
        .network(FixedDelay::new(SimDuration::from_millis(delta_ms)))
        .protocol_delays(SimDuration::from_millis(delta_ms * 3), SimDuration::ZERO);
    if !pipelining {
        builder = builder.without_beacon_pipelining();
    }
    let mut cluster = icc0_cluster(builder);
    // Effective round time = elapsed time per committed round. (The
    // `RoundFinished` duration starts at beacon computation, so the
    // ablated share-exchange δ lands *before* it — whole-run pacing is
    // the honest metric.)
    cluster.run_for(SimDuration::from_secs(1));
    let r0 = cluster.min_committed_round();
    cluster.run_for(SimDuration::from_secs(5));
    cluster.assert_safety();
    let rounds = cluster.min_committed_round() - r0;
    5_000_000.0 / rounds.max(1) as f64
}

fn main() {
    let mut rows = Vec::new();
    for &delta_ms in &[10u64, 20, 50] {
        let delta = (delta_ms * 1000) as f64;
        let with = round_time_us(7, delta_ms, true);
        let without = round_time_us(7, delta_ms, false);
        rows.push(vec![
            format!("{delta_ms}ms"),
            fmt_f(with / delta, 2),
            fmt_f(without / delta, 2),
            fmt_f(without / with, 2),
        ]);
        eprintln!("done delta={delta_ms}");
    }
    print_table(
        "Ablation: beacon-share pipelining (n=7, honest, eps=0)",
        &[
            "delta",
            "round/delta (pipelined)",
            "round/delta (ablated)",
            "slowdown",
        ],
        &rows,
    );
    println!(
        "expected shape: pipelined rounds take 2*delta; removing the one-line\n\
         pipelining adds a beacon exchange to the critical path -> 3*delta (1.5x)."
    );
}
