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

use icc_bench::{fmt_f, print_table};
use icc_core::cluster::ClusterBuilder;
use icc_gossip::icc0_cluster;
use icc_sim::delay::FixedDelay;
use icc_types::SimDuration;

const TRUE_DELTA_MS: u64 = 80;

fn main() {
    let n = 7;
    let network = FixedDelay::new(SimDuration::from_millis(TRUE_DELTA_MS));
    let mut rows = Vec::new();

    // Static, misconfigured.
    let mut bad = icc0_cluster(
        ClusterBuilder::new(n)
            .seed(12)
            .network(network)
            .protocol_delays(SimDuration::from_millis(5), SimDuration::ZERO),
    );
    bad.run_for(SimDuration::from_secs(30));
    bad.assert_safety();
    let bad_rounds = bad.sim.node(0).core().current_round().get();
    rows.push(vec![
        "static 5ms (wrong)".into(),
        format!("{}", bad.min_committed_round()),
        format!("{bad_rounds}"),
        fmt_f(
            bad.min_committed_round() as f64 / bad_rounds.max(1) as f64,
            2,
        ),
        "5".into(),
    ]);

    // Static, correctly configured (reference).
    let mut good = icc0_cluster(
        ClusterBuilder::new(n)
            .seed(12)
            .network(network)
            .protocol_delays(SimDuration::from_millis(240), SimDuration::ZERO),
    );
    good.run_for(SimDuration::from_secs(30));
    good.assert_safety();
    let good_rounds = good.sim.node(0).core().current_round().get();
    rows.push(vec![
        "static 240ms (right)".into(),
        format!("{}", good.min_committed_round()),
        format!("{good_rounds}"),
        fmt_f(
            good.min_committed_round() as f64 / good_rounds.max(1) as f64,
            2,
        ),
        "240".into(),
    ]);

    // Adaptive from the same wrong guess.
    let mut adaptive = icc0_cluster(
        ClusterBuilder::new(n)
            .seed(12)
            .network(network)
            .adaptive_delays(
                SimDuration::from_millis(5),
                SimDuration::from_millis(5),
                SimDuration::from_secs(2),
                SimDuration::ZERO,
            ),
    );
    adaptive.run_for(SimDuration::from_secs(30));
    adaptive.assert_safety();
    let ad_rounds = adaptive.sim.node(0).core().current_round().get();
    let final_bound = adaptive.sim.node(0).core().delta_bound();
    rows.push(vec![
        "adaptive from 5ms".into(),
        format!("{}", adaptive.min_committed_round()),
        format!("{ad_rounds}"),
        fmt_f(
            adaptive.min_committed_round() as f64 / ad_rounds.max(1) as f64,
            2,
        ),
        format!("{}", final_bound.as_micros() / 1000),
    ]);

    print_table(
        "E10: unknown delay bound (true delta = 80ms, 30s run, n=7)",
        &[
            "policy",
            "committed rounds",
            "rounds entered",
            "commit ratio",
            "final delta_bnd (ms)",
        ],
        &rows,
    );
    println!(
        "expected shape: the wrong static bound keeps the tree growing (P1) but\n\
         commits at a low ratio; the adaptive policy converges to delta_bnd >= 2*delta\n\
         within a few rounds and restores a commit ratio near the well-configured run."
    );
}
