//! **E10 — adapting to an unknown delay bound** (paper §1).
//!
//! Claims under test: "the ICC protocols can be modified to adaptively
//! adjust to an unknown communication-delay bound. However, some care
//! must be taken in this."
//!
//! Setup: the true one-way delay is δ = 80 ms, but the protocol is
//! configured with a badly wrong initial guess `Δbnd = 5 ms`. With
//! *static* delays, `Δntry(1) = 10 ms ≪ 2δ`, so parties start
//! supporting higher-rank blocks long before the leader's proposal
//! arrives; rounds still complete (P1 holds) but parties support mixed
//! blocks, `N ⊄ {B}` suppresses finalization shares, and commits crawl.
//! With the *adaptive* policy, slow/leaderless rounds double `Δbnd`
//! until the liveness condition `2δ + Δprop(0) ≤ Δntry(1)` holds and
//! finalization resumes.

use crate::{Mode, Report, Table};
use icc_bench::fmt_f;
use icc_core::cluster::ClusterBuilder;
use icc_gossip::icc0_cluster;
use icc_sim::delay::FixedDelay;
use icc_types::SimDuration;

const TRUE_DELTA_MS: u64 = 80;

/// One row: a 30 s run of seven ICC0 parties under `delays`.
fn row(policy: &str, delays: impl FnOnce(ClusterBuilder) -> ClusterBuilder) -> Vec<String> {
    let builder = ClusterBuilder::new(7)
        .seed(12)
        .network(FixedDelay::new(SimDuration::from_millis(TRUE_DELTA_MS)));
    let mut cluster = icc0_cluster(delays(builder));
    cluster.run_for(SimDuration::from_secs(30));
    cluster.assert_safety();
    let core = cluster.sim.node(0).core();
    let entered = core.current_round().get();
    let final_bound = core.delta_bound().as_micros() / 1000;
    let committed = cluster.min_committed_round();
    vec![
        policy.into(),
        format!("{committed}"),
        format!("{entered}"),
        fmt_f(committed as f64 / entered.max(1) as f64, 2),
        format!("{final_bound}"),
    ]
}

pub fn run(_: Mode) -> Report {
    let ms = SimDuration::from_millis;
    let rows = vec![
        row("static 5ms (wrong)", |b| {
            b.protocol_delays(ms(5), SimDuration::ZERO)
        }),
        // Correctly configured: the reference.
        row("static 240ms (right)", |b| {
            b.protocol_delays(ms(240), SimDuration::ZERO)
        }),
        // Adaptive from the same wrong guess.
        row("adaptive from 5ms", |b| {
            b.adaptive_delays(ms(5), ms(5), SimDuration::from_secs(2), SimDuration::ZERO)
        }),
    ];
    let headers = "policy | committed rounds | rounds entered | commit ratio \
                  | final delta_bnd (ms)";
    Report::new(
        vec![Table::new(
            "E10: unknown delay bound (true delta = 80ms, 30s run, n=7)",
            headers,
            rows,
        )],
        "expected shape: the wrong static bound keeps the tree growing (P1) but\n\
         commits at a low ratio; the adaptive policy converges to delta_bnd >= 2*delta\n\
         within a few rounds and restores a commit ratio near the well-configured run.",
    )
}
