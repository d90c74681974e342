//! **E9b — weak adaptive adversary: leader predictability** (paper §1.1).
//!
//! Claim: "When considering a weak adaptive adversary, which requires
//! more than one round to corrupt nodes, then the adversary cannot
//! compromise the ICC leader of the next round fast enough. In
//! contrast, if HotStuff uses a fixed leader rotation setup, it is
//! susceptible to such a weak adaptive adversary causing O(n) leader
//! changes."
//!
//! HotStuff's round-robin schedule is public forever, so a weak
//! adaptive adversary spends its `t` corruptions on the *next* `t`
//! leaders — one long outage of `t` consecutive timeout views per
//! rotation. Against ICC the same budget buys `t` random parties: the
//! beacon (revealed at most one round ahead — too late for a slow
//! adversary) makes corrupt-leader rounds a geometric trickle, never a
//! wall. Both systems run with the same `t` corruptions and the same
//! timeout; we compare the *longest commit outage*.

use crate::hotstuff_comparison::{hotstuff_commits, run_icc0};
use crate::{Mode, Report, Table};
use icc_bench::fmt_f;
use icc_core::events::NodeEvent;
use icc_types::SimTime;

const TIMEOUT_MS: u64 = 400;
const SECS: u64 = 60;

/// Gap statistics over commit timestamps: (max gap ms, mean gap ms).
fn gap_stats(mut times: Vec<SimTime>) -> (f64, f64) {
    times.sort();
    let gaps: Vec<u64> = times
        .windows(2)
        .map(|w| w[1].as_micros() - w[0].as_micros())
        .collect();
    let max = gaps.iter().copied().max().unwrap_or(0) as f64 / 1000.0;
    let mean = gaps.iter().sum::<u64>() as f64 / gaps.len().max(1) as f64 / 1000.0;
    (max, mean)
}

fn icc(n: usize, crashed: usize) -> (f64, f64) {
    let cluster = run_icc0(n, crashed, TIMEOUT_MS, 31, SECS);
    let observer = cluster.honest_nodes()[0];
    let times: Vec<SimTime> = cluster
        .events_of(observer)
        .filter(|o| matches!(o.output, NodeEvent::Committed { .. }))
        .map(|o| o.at)
        .collect();
    gap_stats(times)
}

/// The weak adaptive adversary corrupts the next `crashed` leaders of
/// the public round-robin schedule; with leaders cycling 0,1,2,…, that
/// is exactly nodes 0..crashed — consecutive in the rotation.
fn hotstuff(n: usize, crashed: usize) -> (f64, f64) {
    let commits = hotstuff_commits(n, crashed, false, TIMEOUT_MS, 32, SECS);
    gap_stats(commits.into_iter().map(|(_, at)| at).collect())
}

pub fn run(_: Mode) -> Report {
    let n = 13;
    let mut rows = Vec::new();
    for crashed in [1usize, 2, 4] {
        let (icc_max, icc_mean) = icc(n, crashed);
        let (hs_max, hs_mean) = hotstuff(n, crashed);
        rows.push(vec![
            format!("{crashed} (static prefix)"),
            fmt_f(icc_max, 0),
            fmt_f(icc_mean, 1),
            fmt_f(hs_max, 0),
            fmt_f(hs_mean, 1),
        ]);
        eprintln!("done crashed={crashed}");
    }

    // The mobile case is where the paper's claim bites: corruption takes
    // more than one round to land, but HotStuff's schedule is public
    // forever, so the adversary always reaches the next leader in time:
    // every replica is leader-suppressed. Against ICC the beacon reveals
    // round k+1's leader only while round k runs — by the time a slow
    // corruption lands, the leadership has passed, so the adversary does
    // no better than the static case above.
    let hs_mobile = hotstuff_commits(n, 0, true, TIMEOUT_MS, 33, SECS).len();
    let (icc_max4, _) = icc(n, 4);
    let headers = "corrupted leaders | ICC max gap (ms) | ICC mean gap (ms) \
                  | HotStuff max gap (ms) | HotStuff mean gap (ms)";
    let table = Table::new(
        "Static corruption: longest commit outage (n=13, delta=20ms, timeout/delta_bnd=400ms, 60s)",
        headers,
        rows,
    )
    .note(format!(
        "== Mobile just-in-time adversary (corruption latency > 1 round) ==\n\
         HotStuff (public rotation): every view's leader pre-corrupted -> {hs_mobile} commits in {SECS}s\n\
         ICC (beacon revealed 1 round ahead): corruption always lands late -> behaves as the\n\
         static rows above (t=4: worst outage {icc_max4:.0} ms, steady progress).\n"
    ));
    Report::new(
        vec![table],
        "shape: under *static* corruption with equal timeout parameters the two are\n\
         comparable (ICC's rank-staggered waits can even exceed HotStuff's per-view\n\
         timeout when several corrupt nodes draw low ranks); the separation the paper\n\
         claims appears against the *mobile* weak-adaptive adversary, where HotStuff's\n\
         predictable rotation loses every view (O(n) leader changes per commit) and\n\
         ICC's unpredictable, late-revealed leaders are unaffected.",
    )
}
