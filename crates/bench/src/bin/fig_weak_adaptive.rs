//! **Weak adaptive adversary: leader predictability** (paper §1.1).
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

use icc_baselines::{HotStuffNode, HsEvent};
use icc_bench::{fmt_f, print_table};
use icc_core::cluster::ClusterBuilder;
use icc_core::events::NodeEvent;
use icc_core::Behavior;
use icc_gossip::icc0_cluster;
use icc_sim::delay::FixedDelay;
use icc_sim::SimulationBuilder;
use icc_types::{SimDuration, SimTime};

const DELTA_MS: u64 = 20;
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

fn run_icc(n: usize, crashed: usize) -> (f64, f64) {
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(n)
            .seed(31)
            .network(FixedDelay::new(SimDuration::from_millis(DELTA_MS)))
            .protocol_delays(SimDuration::from_millis(TIMEOUT_MS), SimDuration::ZERO)
            .behaviors(Behavior::first_f(n, crashed, Behavior::Crash)),
    );
    cluster.run_for(SimDuration::from_secs(SECS));
    cluster.assert_safety();
    let observer = cluster.honest_nodes()[0];
    let times: Vec<SimTime> = cluster
        .events_of(observer)
        .filter(|o| matches!(o.output, NodeEvent::Committed { .. }))
        .map(|o| o.at)
        .collect();
    gap_stats(times)
}

fn run_hotstuff(n: usize, crashed: usize) -> (f64, f64) {
    // The weak adaptive adversary corrupts the next `crashed` leaders of
    // the public round-robin schedule; with leaders cycling 0,1,2,…,
    // that is exactly nodes 0..crashed — consecutive in the rotation.
    let nodes = (0..n)
        .map(|i| {
            let node = HotStuffNode::new(n, SimDuration::from_millis(TIMEOUT_MS), 1024);
            if i < crashed {
                node.crashed()
            } else {
                node
            }
        })
        .collect();
    let mut sim = SimulationBuilder::new(32)
        .delay(FixedDelay::new(SimDuration::from_millis(DELTA_MS)))
        .build(nodes);
    sim.run_for(SimDuration::from_secs(SECS));
    let times: Vec<SimTime> = sim
        .outputs()
        .iter()
        .filter(|o| o.node.as_usize() == crashed)
        .filter(|o| matches!(o.output, HsEvent::Committed { .. }))
        .map(|o| o.at)
        .collect();
    gap_stats(times)
}

/// HotStuff against the *mobile* just-in-time adversary: the public
/// round-robin schedule lets it corrupt every upcoming leader in time,
/// so every node is leader-suppressed. Returns commits in the run.
fn run_hotstuff_mobile(n: usize) -> usize {
    let nodes = (0..n)
        .map(|_| {
            HotStuffNode::new(n, SimDuration::from_millis(TIMEOUT_MS), 1024).suppressed_leader()
        })
        .collect();
    let mut sim = SimulationBuilder::new(33)
        .delay(FixedDelay::new(SimDuration::from_millis(DELTA_MS)))
        .build(nodes);
    sim.run_for(SimDuration::from_secs(SECS));
    sim.outputs()
        .iter()
        .filter(|o| matches!(o.output, HsEvent::Committed { .. }))
        .count()
}

fn main() {
    let n = 13;
    let mut rows = Vec::new();
    for crashed in [1usize, 2, 4] {
        let (icc_max, icc_mean) = run_icc(n, crashed);
        let (hs_max, hs_mean) = run_hotstuff(n, crashed);
        rows.push(vec![
            format!("{crashed} (static prefix)"),
            fmt_f(icc_max, 0),
            fmt_f(icc_mean, 1),
            fmt_f(hs_max, 0),
            fmt_f(hs_mean, 1),
        ]);
        eprintln!("done crashed={crashed}");
    }
    print_table(
        "Static corruption: longest commit outage (n=13, delta=20ms, timeout/delta_bnd=400ms, 60s)",
        &[
            "corrupted leaders",
            "ICC max gap (ms)",
            "ICC mean gap (ms)",
            "HotStuff max gap (ms)",
            "HotStuff mean gap (ms)",
        ],
        &rows,
    );

    // The mobile case is where the paper's claim bites: corruption takes
    // more than one round to land, but HotStuff's schedule is public
    // forever, so the adversary always reaches the next leader in time.
    // Against ICC the beacon reveals round k+1's leader only while round
    // k runs — by the time a slow corruption lands, the leadership has
    // passed, so the adversary does no better than the static case above.
    let hs_mobile = run_hotstuff_mobile(n);
    let (icc_max4, _) = run_icc(n, 4);
    println!("== Mobile just-in-time adversary (corruption latency > 1 round) ==");
    println!("HotStuff (public rotation): every view's leader pre-corrupted -> {hs_mobile} commits in {SECS}s");
    println!("ICC (beacon revealed 1 round ahead): corruption always lands late -> behaves as the");
    println!("static rows above (t=4: worst outage {icc_max4:.0} ms, steady progress).");
    println!();
    println!(
        "shape: under *static* corruption with equal timeout parameters the two are\n\
         comparable (ICC's rank-staggered waits can even exceed HotStuff's per-view\n\
         timeout when several corrupt nodes draw low ranks); the separation the paper\n\
         claims appears against the *mobile* weak-adaptive adversary, where HotStuff's\n\
         predictable rotation loses every view (O(n) leader changes per commit) and\n\
         ICC's unpredictable, late-revealed leaders are unaffected."
    );
}
