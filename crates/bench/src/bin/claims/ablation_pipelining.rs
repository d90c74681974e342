//! **E12 — ablation: beacon-share pipelining** (design choice called
//! out in `DESIGN.md` §5).
//!
//! Figure 1 broadcasts a party's share of the round-(k+1) beacon the
//! moment beacon k is computed: "a bit of 'pipelining' logic used to
//! minimize the latency" (§3.5). This entry removes exactly that line
//! and measures what it buys: without pipelining, entering a round
//! first requires a beacon-share exchange (+1δ), so the round time goes
//! from 2δ to 3δ — a 50% throughput hit for one line of protocol.

use crate::{Mode, Report, Table};
use icc_bench::{fmt_f, rounds_over_window, synchronous};
use icc_gossip::icc0_cluster;
use icc_types::SimDuration;

fn round_time_us(n: usize, delta_ms: u64, pipelining: bool) -> f64 {
    let mut builder = synchronous(n, 17, delta_ms, delta_ms * 3);
    if !pipelining {
        builder = builder.without_beacon_pipelining();
    }
    let mut cluster = icc0_cluster(builder);
    // Effective round time = elapsed time per committed round. (The
    // `RoundFinished` duration starts at beacon computation, so the
    // ablated share-exchange δ lands *before* it — whole-run pacing is
    // the honest metric.)
    let rounds = rounds_over_window(
        &mut cluster,
        SimDuration::from_secs(1),
        SimDuration::from_secs(5),
    );
    cluster.assert_safety();
    5_000_000.0 / rounds.max(1) as f64
}

pub fn run(_: Mode) -> Report {
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
    let headers = "delta | round/delta (pipelined) | round/delta (ablated) | slowdown";
    Report::new(
        vec![Table::new(
            "Ablation: beacon-share pipelining (n=7, honest, eps=0)",
            headers,
            rows,
        )],
        "expected shape: pipelined rounds take 2*delta; removing the one-line\n\
         pipelining adds a beacon exchange to the critical path -> 3*delta (1.5x).",
    )
}
