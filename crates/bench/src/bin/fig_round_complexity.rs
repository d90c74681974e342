//! **E4 — round complexity under a static adversary** (paper §1).
//!
//! Claims under test: "For a static adversary, this complexity is O(1)
//! for the ICC protocols in expectation and O(log n) with high
//! probability" — i.e. the number of consecutive rounds whose leader is
//! corrupt (so the leader's block may not finalize immediately) is
//! geometric with mean < 1/2, because the beacon makes each round's
//! leader corrupt with probability < 1/3 independent of the adversary's
//! static choice of corruptions.
//!
//! We run with the maximum `t` crashed parties and record, per round,
//! the rank of the block that got notarized. A round is "leader-won"
//! when that rank is 0. We report the leader-won fraction (expect
//! ≈ (n−t)/n), the mean and max streak of non-leader rounds, and the
//! fit against the geometric prediction.

use icc_bench::{fmt_f, print_table};
use icc_core::cluster::ClusterBuilder;
use icc_core::Behavior;
use icc_gossip::icc0_cluster;
use icc_sim::delay::FixedDelay;
use icc_types::SimDuration;

fn main() {
    let mut rows = Vec::new();
    for &n in &[7usize, 13, 31] {
        let t = n.div_ceil(3) - 1;
        let mut cluster = icc0_cluster(
            ClusterBuilder::new(n)
                .seed(21)
                .network(FixedDelay::new(SimDuration::from_millis(10)))
                .protocol_delays(SimDuration::from_millis(30), SimDuration::ZERO)
                .behaviors(Behavior::first_f(n, t, Behavior::Crash)),
        );
        cluster.run_for(SimDuration::from_secs(60));
        cluster.assert_safety();
        let observer = cluster.honest_nodes()[0];
        let stats = cluster.round_stats(observer);
        let rounds = stats.len();
        let leader_won = stats.iter().filter(|(_, _, r)| r.is_leader()).count();
        // Streaks of consecutive non-leader rounds.
        let mut streaks = Vec::new();
        let mut cur = 0u64;
        for (_, _, r) in &stats {
            if r.is_leader() {
                if cur > 0 {
                    streaks.push(cur);
                }
                cur = 0;
            } else {
                cur += 1;
            }
        }
        if cur > 0 {
            streaks.push(cur);
        }
        let mean_streak = streaks.iter().sum::<u64>() as f64 / streaks.len().max(1) as f64;
        let max_streak = streaks.iter().copied().max().unwrap_or(0);
        let p_corrupt = t as f64 / n as f64;
        rows.push(vec![
            format!("{n}"),
            format!("{t}"),
            format!("{rounds}"),
            fmt_f(leader_won as f64 / rounds as f64, 3),
            fmt_f(1.0 - p_corrupt, 3),
            fmt_f(mean_streak, 2),
            fmt_f(1.0 / (1.0 - p_corrupt), 2),
            format!("{max_streak}"),
            fmt_f((rounds as f64).ln() / (1.0 / p_corrupt).ln(), 1),
        ]);
        eprintln!("done n={n}");
    }
    print_table(
        "E4: leader statistics with t crashed parties (static adversary)",
        &[
            "n",
            "t",
            "rounds",
            "leader-won frac",
            "expect (n-t)/n",
            "mean bad-streak",
            "expect 1/(1-p)",
            "max streak",
            "log_1/p(rounds)",
        ],
        &rows,
    );
    println!(
        "expected shape: leader-won fraction ≈ (n−t)/n > 2/3; streaks of corrupt-leader\n\
         rounds geometric (O(1) mean), max streak ≈ log_{{1/p}}(#rounds) (O(log n) whp)."
    );
}
