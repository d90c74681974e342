//! **E1 — Table 1**: average block rate and sent traffic per node.
//!
//! Paper setup (§5): subnets of 13 and 40 nodes spread over data
//! centers with inter-DC ping RTTs of 6–110 ms, measured over a 5-minute
//! window in three scenarios: (a) no user load, (b) 100 state-changing
//! requests/s of 1 KB each, (c) the same load with one third of the
//! nodes refusing to participate.
//!
//! Reproduction notes (see `EXPERIMENTS.md`):
//!
//! * the protocol parametrization (`ε`, `Δbnd`) is set per subnet size
//!   to match the Internet Computer's production pacing ("the current
//!   parametrization leads to 1.1 blocks/s on small subnets and about
//!   0.4 blocks/s on large subnets") — these are *inputs* taken from
//!   the paper, the *outputs* under load and failures are measured;
//! * the paper's traffic numbers include non-consensus overhead (client
//!   I/O, key resharing, logs, metrics); ours meter consensus traffic
//!   only, so absolute Mb/s are lower — the shape (small-vs-large
//!   ratio, load overhead, failure-scenario changes) is the claim under
//!   test.
//!
//! Windows: the paper's 5 minutes; 60 s with `--quick`; 10 s with
//! `--smoke`, a CI test of the parallel harness itself.

use crate::{Mode, Report, Table};
use icc_bench::{fmt_f, measure_window, run_trials, trial_threads};
use icc_core::cluster::ClusterBuilder;
use icc_core::{Behavior, BlockPolicy};
use icc_gossip::{GossipConfig, Overlay, Recipe};
use icc_sim::delay::InterDcDelay;
use icc_types::{SimDuration, SimTime};

struct Scenario {
    label: &'static str,
    load: bool,
    failures: bool,
    paper_small: (f64, f64),
    paper_large: (f64, f64),
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        label: "without load",
        load: false,
        failures: false,
        paper_small: (1.09, 1.64),
        paper_large: (0.41, 4.63),
    },
    Scenario {
        label: "with load",
        load: true,
        failures: false,
        paper_small: (1.10, 4.72),
        paper_large: (0.41, 7.32),
    },
    Scenario {
        label: "load+failures",
        load: true,
        failures: true,
        paper_small: (0.45, 4.39),
        paper_large: (0.16, 5.06),
    },
];

fn run_cell(
    n: usize,
    scenario: &Scenario,
    warmup: SimDuration,
    window: SimDuration,
) -> (f64, f64, [f64; 3]) {
    // Production-pacing parametrization per subnet size (paper §5).
    let (epsilon, delta_bnd) = if n <= 20 {
        (
            SimDuration::from_millis(850),
            SimDuration::from_millis(2500),
        )
    } else {
        (SimDuration::from_millis(2350), SimDuration::from_secs(4))
    };
    let f = if scenario.failures { n / 3 } else { 0 };
    let behaviors = Behavior::first_f(n, f, Behavior::Crash);
    let builder = ClusterBuilder::new(n)
        .seed(42 + n as u64)
        .network(InterDcDelay::internet_like(n, 7))
        .loss(0.001, SimDuration::from_millis(200))
        .protocol_delays(delta_bnd, epsilon)
        .behaviors(behaviors)
        .block_policy(BlockPolicy {
            max_commands: 2000,
            max_bytes: 4 << 20,
            ..BlockPolicy::default()
        });
    let mut cluster = Recipe::shipped(n)
        .with_overlay(Overlay::random_regular(n, 6, 99))
        .with_config(GossipConfig::inline_small_blocks())
        .cluster(builder);
    if scenario.load {
        // 100 requests/s × 1 KB over the entire run.
        let total_secs = (warmup + window).as_micros() / 1_000_000;
        cluster.inject_commands(
            SimTime::ZERO,
            warmup + window,
            (100 * total_secs) as usize,
            1024,
        );
    }
    let m = measure_window(&mut cluster, warmup, window);
    cluster.assert_safety();
    // Finalization-latency percentiles (round entry -> commit) from the
    // telemetry histogram, merged across nodes, in milliseconds. Covers
    // the whole run (warmup included) — the histogram is cumulative.
    let fin = cluster.core_metrics().finalization_latency_us;
    let pct = [
        fin.p50() as f64 / 1000.0,
        fin.p90() as f64 / 1000.0,
        fin.p99() as f64 / 1000.0,
    ];
    (m.blocks_per_sec, m.mbit_per_sec_per_node, pct)
}

pub fn run(mode: Mode) -> Report {
    let warmup = SimDuration::from_secs(if mode == Mode::Smoke { 5 } else { 20 });
    let window = SimDuration::from_secs(match mode {
        Mode::Smoke => 10,
        Mode::Quick => 60,
        Mode::Full => 300,
    });

    // One cell per (subnet size, scenario); each builds its own seeded
    // cluster, so cells are independent and `run_trials` can fan them
    // across cores with byte-identical output to the serial loop.
    let cells: Vec<(usize, &Scenario)> = [13usize, 40]
        .iter()
        .flat_map(|&n| SCENARIOS.iter().map(move |s| (n, s)))
        .collect();
    eprintln!(
        "table1: {} cells on {} threads",
        cells.len(),
        trial_threads().min(cells.len())
    );
    let rows = run_trials(&cells, |_, &(n, s)| {
        let (paper_rate, paper_mbps) = if n == 13 {
            s.paper_small
        } else {
            s.paper_large
        };
        let (rate, mbps, pct) = run_cell(n, s, warmup, window);
        eprintln!("done: n={n} scenario={}", s.label);
        vec![
            format!("{n}"),
            s.label.to_string(),
            fmt_f(rate, 2),
            fmt_f(paper_rate, 2),
            fmt_f(mbps, 2),
            fmt_f(paper_mbps, 2),
            fmt_f(pct[0], 1),
            fmt_f(pct[1], 1),
            fmt_f(pct[2], 1),
        ]
    });
    let title = format!(
        "Table 1: average block rate and sent traffic per node (ICC1/gossip, {}s window)",
        window.as_micros() / 1_000_000
    );
    let headers = "nodes | scenario | blocks/s | paper blocks/s | Mb/s per node | paper Mb/s \
                  | lat p50 ms | lat p90 ms | lat p99 ms";
    Report::new(
        vec![Table::new(title, headers, rows)],
        "note: measured traffic covers consensus artifacts only; the deployed IC's\n\
         numbers include client I/O, key resharing, logs and metrics (see EXPERIMENTS.md).\n\
         lat p50/p90/p99: finalization latency (round entry -> commit) from the\n\
         telemetry histograms; no paper counterpart is published for these.",
    )
}
