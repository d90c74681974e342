//! **E9 — comparison with chained HotStuff** (paper §1.1).
//!
//! Claims under test: HotStuff matches ICC's `2δ` reciprocal throughput
//! but "the latency … of HotStuff increases from 3δ to 6δ"; and under
//! faulty leaders HotStuff "still relies on … a pacemaker" — a crashed
//! leader stalls its whole view until a timeout, while ICC lets
//! higher-rank proposers fill the round within `O(Δbnd)` and the chain
//! keeps growing.
//!
//! Both protocols run on the identical simulator with δ = 20 ms and the
//! same conservative timeout/Δbnd of 500 ms.

use icc_baselines::{HotStuffNode, HsEvent};
use icc_bench::{fmt_f, print_table};
use icc_core::cluster::ClusterBuilder;
use icc_core::events::NodeEvent;
use icc_core::Behavior;
use icc_gossip::icc0_cluster;
use icc_sim::delay::FixedDelay;
use icc_sim::SimulationBuilder;
use icc_types::{SimDuration, SimTime};
use std::collections::HashMap;

const DELTA_MS: u64 = 20;
const TIMEOUT_MS: u64 = 500;
const SECS: u64 = 30;

/// (commits/s, mean commit latency ms)
fn run_icc(n: usize, crashed: usize) -> (f64, f64) {
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(n)
            .seed(4)
            .network(FixedDelay::new(SimDuration::from_millis(DELTA_MS)))
            .protocol_delays(SimDuration::from_millis(TIMEOUT_MS), SimDuration::ZERO)
            .behaviors(Behavior::first_f(n, crashed, Behavior::Crash)),
    );
    cluster.run_for(SimDuration::from_secs(SECS));
    cluster.assert_safety();
    let observer = cluster.honest_nodes()[0];
    let commits = cluster.committed_chain(observer).len();
    // Latency: proposer's Proposed time -> observer's Committed time.
    let mut proposed_at: HashMap<icc_crypto::Hash256, u64> = HashMap::new();
    for node in 0..cluster.n() {
        for o in cluster.events_of(node) {
            if let NodeEvent::Proposed { hash, .. } = o.output {
                proposed_at.entry(hash).or_insert(o.at.as_micros());
            }
        }
    }
    let mut lats = Vec::new();
    for o in cluster.events_of(observer) {
        if let NodeEvent::Committed { block } = &o.output {
            if let Some(&p) = proposed_at.get(&block.hash()) {
                lats.push(o.at.as_micros().saturating_sub(p));
            }
        }
    }
    let mean_lat = lats.iter().sum::<u64>() as f64 / lats.len().max(1) as f64 / 1000.0;
    (commits as f64 / SECS as f64, mean_lat)
}

/// (commits/s, mean commit latency ms) for HotStuff. Latency is view
/// proposal time (view start, known analytically on the happy path via
/// event timing) to commit event; measured via block-views.
fn run_hotstuff(n: usize, crashed: usize) -> (f64, f64) {
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
    let mut sim = SimulationBuilder::new(6)
        .delay(FixedDelay::new(SimDuration::from_millis(DELTA_MS)))
        .build(nodes);
    sim.run_for(SimDuration::from_secs(SECS));
    // First proposal broadcast time per view is not directly evented;
    // approximate per-block latency by commit_time − first time *any*
    // replica reported the block's view via an earlier commit chain:
    // instead use the conservative observable: inter-commit timing plus
    // the 3-view pipeline depth.
    let observer = (crashed..n).next().expect("an honest replica");
    let commits: Vec<(u64, SimTime)> = sim
        .outputs()
        .iter()
        .filter(|o| o.node.as_usize() == observer)
        .filter_map(|o| match o.output {
            HsEvent::Committed { view, .. } => Some((view, o.at)),
            _ => None,
        })
        .collect();
    // Happy-path view v starts ≈ (v−1)·2δ after genesis; under faults
    // this underestimates stalls, so measure latency only on the
    // crash-free configuration (reported as '-' otherwise).
    let mean_lat = if crashed == 0 {
        let lats: Vec<u64> = commits
            .iter()
            .map(|(v, at)| at.as_micros().saturating_sub((v - 1) * 2 * DELTA_MS * 1000))
            .collect();
        lats.iter().sum::<u64>() as f64 / lats.len().max(1) as f64 / 1000.0
    } else {
        f64::NAN
    };
    (commits.len() as f64 / SECS as f64, mean_lat)
}

fn main() {
    let n = 13;
    let mut rows = Vec::new();
    for crashed in [0usize, 1, 4] {
        let (icc_tps, icc_lat) = run_icc(n, crashed);
        let (hs_tps, hs_lat) = run_hotstuff(n, crashed);
        rows.push(vec![
            format!("{crashed}"),
            fmt_f(icc_tps, 1),
            fmt_f(icc_lat, 1),
            fmt_f(hs_tps, 1),
            if hs_lat.is_nan() {
                "-".into()
            } else {
                fmt_f(hs_lat, 1)
            },
        ]);
        eprintln!("done crashed={crashed}");
    }
    print_table(
        "E9: ICC0 vs chained HotStuff (n=13, delta=20ms, timeout/delta_bnd=500ms)",
        &[
            "crashed",
            "ICC blocks/s",
            "ICC latency (ms)",
            "HS blocks/s",
            "HS latency (ms)",
        ],
        &rows,
    );
    println!(
        "expected shape: both sustain ~2δ rounds fault-free, but ICC commits at 3δ\n\
         while chained HotStuff needs the two follow-up views (≈5δ in this variant;\n\
         6δ with an explicit vote-aggregation hop). Under crashes both pay O(timeout)\n\
         waits, but every ICC round still yields a (higher-rank) block, whereas a\n\
         HotStuff view whose leader crashed produces no block at all."
    );
}
