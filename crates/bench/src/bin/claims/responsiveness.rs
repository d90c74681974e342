//! **E5 — optimistic responsiveness** (paper §1, §1.1).
//!
//! Claims under test: "the ICC protocols enjoy … optimistic
//! responsiveness, meaning that the protocol will run as fast as the
//! network will allow in those rounds where the leader is honest"; by
//! contrast, "in Tendermint, every round takes time O(Δbnd), even when
//! the leader is honest."
//!
//! Setup: both protocols configured for a conservative delay bound
//! `Δbnd = 1 s` (as one must in practice to guarantee liveness), while
//! the *actual* network delay δ sweeps from 5 ms to 100 ms. ICC's round
//! time should track 2δ; the fixed-pace baseline stays pinned at its
//! Δbnd-derived interval.

use crate::{Mode, Report, Table};
use icc_baselines::TendermintNode;
use icc_bench::{fmt_f, mean_round_us, synchronous};
use icc_gossip::icc0_cluster;
use icc_sim::delay::FixedDelay;
use icc_sim::SimulationBuilder;
use icc_types::SimDuration;

fn icc_round_time_ms(n: usize, delta_ms: u64) -> f64 {
    // Conservative liveness bound, as deployed systems must choose.
    let mut cluster = icc0_cluster(synchronous(n, 5, delta_ms, 1000));
    cluster.run_for(SimDuration::from_secs(20));
    cluster.assert_safety();
    mean_round_us(&cluster, 0) / 1000.0
}

fn tendermint_round_time_ms(n: usize, delta_ms: u64) -> f64 {
    // A deployed Tendermint must pace rounds at O(Δbnd): 1 s here.
    let interval = SimDuration::from_secs(1);
    let nodes = (0..n)
        .map(|_| TendermintNode::new(n, interval, 1024))
        .collect();
    let mut sim = SimulationBuilder::new(9)
        .delay(FixedDelay::new(SimDuration::from_millis(delta_ms)))
        .build(nodes);
    sim.run_for(SimDuration::from_secs(30));
    let committed = sim.nodes()[0].committed_rounds();
    30_000.0 / committed.max(1) as f64
}

pub fn run(_: Mode) -> Report {
    let n = 7;
    let mut rows = Vec::new();
    for &delta_ms in &[5u64, 10, 20, 50, 100] {
        let icc = icc_round_time_ms(n, delta_ms);
        let tm = tendermint_round_time_ms(n, delta_ms);
        rows.push(vec![
            format!("{delta_ms}"),
            fmt_f(icc, 1),
            fmt_f(icc / delta_ms as f64, 2),
            fmt_f(tm, 1),
        ]);
        eprintln!("done delta={delta_ms}ms");
    }
    let headers = "delta (ms) | ICC round (ms) | ICC round/delta | fixed-pace round (ms)";
    Report::new(
        vec![Table::new(
            "E5: round time vs actual network delay (both configured with delta_bnd = 1s)",
            headers,
            rows,
        )],
        "expected shape: ICC tracks ~2x the actual delay (optimistic responsiveness);\n\
         the Tendermint-style baseline is pinned at its 1000 ms pacing regardless of delta.",
    )
}
