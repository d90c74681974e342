//! **E6 — robust consensus / graceful degradation** (paper §1,
//! "Robust consensus" discussion, citing Clement et al. \[15\]).
//!
//! Claims under test: "in any round where the leader is corrupt (which
//! itself happens with probability less than 1/3), each ICC protocol
//! will effectively allow other parties to step in and propose blocks
//! for that round and to move the protocol forward to the next round in
//! a timely fashion. The only performance degradation … is that instead
//! of finishing the round in time O(δ), the round will finish … in time
//! O(Δbnd)"; and "at least one block is added to the block-tree in
//! every round … the overall throughput remains fairly steady."
//!
//! We sweep the number of corrupt parties from 0 to the maximum `t`
//! for three corruption styles and report committed blocks/s, mean
//! round duration, and the useful-payload rate (empty-block leaders
//! produce blocks that carry nothing — the degradation the paper
//! explicitly accepts).

use crate::{Mode, Report, Table};
use icc_bench::{fmt_f, mean_round_us, run_trials, synchronous};
use icc_core::Behavior;
use icc_gossip::icc0_cluster;
use icc_types::{SimDuration, SimTime};

/// One cell's row: blocks/s, mean round ms, committed commands/s, mean
/// command latency ms.
fn run_cell(n: usize, f: usize, behavior: Behavior, secs: u64) -> [f64; 4] {
    let behaviors = Behavior::first_f(n, f, behavior);
    let mut cluster = icc0_cluster(synchronous(n, 33, 10, 100).behaviors(behaviors));
    // Continuous light client load so "useful payload" is measurable.
    cluster.inject_commands(
        SimTime::ZERO,
        SimDuration::from_secs(secs),
        (secs * 50) as usize,
        256,
    );
    cluster.run_for(SimDuration::from_secs(secs));
    cluster.assert_safety();
    let observer = cluster.honest_nodes()[0];
    let committed = cluster.committed_chain(observer);
    let cmds: usize = committed.iter().map(|b| b.block().payload().len()).sum();
    let lats = cluster.command_latencies(observer);
    let mean_lat =
        lats.iter().map(|d| d.as_micros()).sum::<u64>() as f64 / lats.len().max(1) as f64 / 1000.0;
    [
        committed.len() as f64 / secs as f64,
        mean_round_us(&cluster, observer) / 1000.0,
        cmds as f64 / secs as f64,
        mean_lat,
    ]
}

pub fn run(_: Mode) -> Report {
    let n = 13;
    let t = 4;
    // One seeded, self-contained cell per (f, behavior): `run_trials`
    // fans the sweep across cores, merged back in sweep order.
    let cells: Vec<(usize, Behavior)> = (0..=t)
        .flat_map(|f| {
            [
                Behavior::Crash,
                Behavior::Equivocate,
                Behavior::EmptyProposals,
            ]
            .into_iter()
            .map(move |b| (f, b))
        })
        .collect();
    let rows = run_trials(&cells, |_, &(f, behavior)| {
        let o = run_cell(n, f, behavior, 20);
        eprintln!("done f={f} behavior={behavior:?}");
        let mut row = vec![format!("{f}"), format!("{behavior:?}")];
        row.extend(o.iter().map(|&v| fmt_f(v, 1)));
        row
    });
    let headers = "corrupt f | behavior | blocks/s | mean round (ms) | committed cmds/s \
                  | cmd latency (ms)";
    Report::new(
        vec![Table::new(
            "E6: robustness under Byzantine behavior (n=13, delta=10ms, delta_bnd=100ms, 50 cmds/s offered)",
            headers,
            rows,
        )],
        "expected shape: blocks/s never collapses to zero (P1: the tree grows every\n\
         round); round time degrades from ~2*delta toward O(delta_bnd) as corrupt leaders\n\
         appear; EmptyProposals keeps block rate but lowers useful commands/s;\n\
         equivocators cost echoes but rank disqualification contains them.",
    )
}
