//! Shared harness utilities for the `claims` runner.
//!
//! Each table and figure of the paper's evaluation is one entry of the
//! `claims` binary (`src/bin/claims/`), keyed by its `EXPERIMENTS.md`
//! number (see `DESIGN.md` §2 for the index). Run them with, e.g.:
//!
//! ```text
//! cargo run --release -p icc-bench --bin claims -- E1 E3
//! cargo run --release -p icc-bench --bin claims -- --smoke E14 E15
//! cargo run --release -p icc-bench --bin claims -- --list
//! ```
//!
//! This library holds the pieces the entries share: plain-text table
//! rendering, measurement helpers over a [`Cluster`], and the parallel
//! trial fan-out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use icc_core::cluster::{Cluster, ClusterBuilder, CoreAccess};
use icc_core::events::NodeEvent;
use icc_crypto::Hash256;
use icc_sim::delay::FixedDelay;
use icc_sim::Node;
use icc_types::{Command, SimDuration};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Renders an aligned plain-text table.
///
/// # Example
///
/// ```
/// let s = icc_bench::render_table(
///     "demo",
///     &["a", "b"],
///     &[vec!["1".into(), "2".into()]],
/// );
/// assert!(s.contains("demo"));
/// assert!(s.contains("1"));
/// ```
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let hdr: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    out.push_str(&hdr.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(hdr.join("  ").len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// A node a [`Cluster`] can drive: ICC0/ICC1's `GossipNode` and ICC2's
/// `Icc2Node`.
pub trait ClusterNode: Node<External = Command, Output = NodeEvent> + CoreAccess {}

impl<N: Node<External = Command, Output = NodeEvent> + CoreAccess> ClusterNode for N {}

/// `n` parties on a fixed one-way delay of `delta_ms`, with a static
/// `Δbnd` of `delta_bnd_ms` and no governor (ε = 0): the synchronous
/// network most experiments run on.
pub fn synchronous(n: usize, seed: u64, delta_ms: u64, delta_bnd_ms: u64) -> ClusterBuilder {
    ClusterBuilder::new(n)
        .seed(seed)
        .network(FixedDelay::new(SimDuration::from_millis(delta_ms)))
        .protocol_delays(SimDuration::from_millis(delta_bnd_ms), SimDuration::ZERO)
}

/// Measurements of one cluster run over a window.
#[derive(Debug, Clone, Copy)]
pub struct WindowMeasurement {
    /// Committed blocks per second (minimum over honest nodes).
    pub blocks_per_sec: f64,
    /// Mean egress per honest node, in megabits per second.
    pub mbit_per_sec_per_node: f64,
    /// Maximum egress of any single node (the bottleneck), Mb/s.
    pub max_mbit_per_sec: f64,
    /// Mean messages sent per honest node per second.
    pub msgs_per_sec_per_node: f64,
}

/// Runs `cluster` for `warmup`, resets the traffic counters, runs
/// `window`, and returns the rounds every honest node committed in it.
pub fn rounds_over_window<N: ClusterNode>(
    cluster: &mut Cluster<N>,
    warmup: SimDuration,
    window: SimDuration,
) -> u64 {
    cluster.run_for(warmup);
    let start_round = cluster.min_committed_round();
    cluster.sim.reset_metrics();
    cluster.run_for(window);
    cluster.min_committed_round() - start_round
}

/// Runs `cluster` for `warmup`, resets counters, runs the measurement
/// `window`, and extracts rates.
pub fn measure_window<N: ClusterNode>(
    cluster: &mut Cluster<N>,
    warmup: SimDuration,
    window: SimDuration,
) -> WindowMeasurement {
    let rounds = rounds_over_window(cluster, warmup, window);
    let honest = cluster.honest_nodes();
    let secs = window.as_secs_f64();
    let metrics = cluster.sim.metrics();
    let per_node = metrics.per_node();
    let honest_bytes: Vec<u64> = honest.iter().map(|&i| per_node[i].sent_bytes).collect();
    let honest_msgs: Vec<u64> = honest.iter().map(|&i| per_node[i].sent_messages).collect();
    let mean_bytes = honest_bytes.iter().sum::<u64>() as f64 / honest.len() as f64;
    let mean_msgs = honest_msgs.iter().sum::<u64>() as f64 / honest.len() as f64;
    WindowMeasurement {
        blocks_per_sec: rounds as f64 / secs,
        mbit_per_sec_per_node: mean_bytes * 8.0 / 1e6 / secs,
        max_mbit_per_sec: metrics.max_node_bytes() as f64 * 8.0 / 1e6 / secs,
        msgs_per_sec_per_node: mean_msgs / secs,
    }
}

/// Mean round duration at `node`, in µs, from its `RoundFinished`
/// events, skipping the start-up round.
pub fn mean_round_us<N: ClusterNode>(cluster: &Cluster<N>, node: usize) -> f64 {
    let durations: Vec<u64> = cluster
        .round_stats(node)
        .iter()
        .filter(|(r, _, _)| r.get() > 1)
        .map(|(_, d, _)| d.as_micros())
        .collect();
    durations.iter().sum::<u64>() as f64 / durations.len().max(1) as f64
}

/// When each block was first proposed (µs), by block hash, across all
/// proposers.
pub fn proposed_at<N: ClusterNode>(cluster: &Cluster<N>) -> HashMap<Hash256, u64> {
    let mut at = HashMap::new();
    for node in 0..cluster.n() {
        for o in cluster.events_of(node) {
            if let NodeEvent::Proposed { hash, .. } = o.output {
                at.entry(hash).or_insert(o.at.as_micros());
            }
        }
    }
    at
}

/// Formats a float with the given precision.
pub fn fmt_f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// How many worker threads [`run_trials`] uses.
///
/// `ICC_BENCH_THREADS` overrides (`1` forces the serial path — handy
/// for A/B timing and for the determinism test); otherwise the host's
/// available parallelism.
pub fn trial_threads() -> usize {
    if let Ok(v) = std::env::var("ICC_BENCH_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fans independent experiment cells out across worker threads and
/// merges results **in input order**.
///
/// Each cell is evaluated by `f(index, &cell)`. The contract that makes
/// the parallel and serial paths byte-identical:
///
/// * `f` must be **self-contained deterministic**: every cell seeds its
///   own RNG (e.g. `seed(42 + n)`) and builds its own cluster — no
///   shared mutable state, no global RNG draws;
/// * results are written into a slot indexed by the cell's position and
///   read back in that order, so thread scheduling cannot reorder them.
///
/// Work is distributed by an atomic cursor (dynamic load balancing:
/// long cells don't convoy short ones behind a fixed partition). With
/// one thread — or one cell — this degenerates to a plain serial loop.
///
/// Progress: `f` may print per-cell lines; they can interleave across
/// threads but the returned table never does.
pub fn run_trials<C, R, F>(cells: &[C], f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    run_trials_with_threads(trial_threads(), cells, f)
}

/// [`run_trials`] with an explicit worker count (the determinism test
/// pins serial vs parallel against each other through this).
pub fn run_trials_with_threads<C, R, F>(threads: usize, cells: &[C], f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    let threads = threads.max(1).min(cells.len().max(1));
    if threads <= 1 {
        return cells.iter().enumerate().map(|(i, c)| f(i, c)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let result = f(i, &cells[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    })
    .expect("trial worker panicked");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            "t",
            &["col", "x"],
            &[
                vec!["1".into(), "2.5".into()],
                vec!["1000".into(), "3".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].contains("col"));
        assert!(lines[3].ends_with("2.5"));
    }

    #[test]
    fn run_trials_preserves_input_order() {
        let cells: Vec<u64> = (0..37).collect();
        // Uneven per-cell work so threads finish out of order.
        let out = run_trials_with_threads(4, &cells, |i, &c| {
            std::thread::sleep(std::time::Duration::from_micros((c % 7) * 50));
            (i, c * c)
        });
        let expected: Vec<(usize, u64)> = cells.iter().map(|&c| (c as usize, c * c)).collect();
        assert_eq!(out, expected);
    }

    /// The acceptance gate for the parallel harness: fanning real
    /// cluster runs across threads must produce **byte-identical**
    /// results to the serial loop, because every cell seeds its own
    /// RNG and the merge is position-indexed.
    #[test]
    fn run_trials_parallel_matches_serial_byte_identical() {
        let cells: Vec<(usize, u64)> = vec![(4, 7), (5, 11), (4, 13), (7, 17)];
        let run_cell = |_i: usize, &(n, seed): &(usize, u64)| -> String {
            let mut cluster =
                icc_gossip::icc0_cluster(icc_core::cluster::ClusterBuilder::new(n).seed(seed));
            let m = measure_window(
                &mut cluster,
                SimDuration::from_millis(200),
                SimDuration::from_millis(800),
            );
            // Full-precision formatting: any cross-thread divergence
            // (shared RNG draw, reordered merge) shows up here.
            format!(
                "{n}/{seed}: {:.17e} {:.17e} {:.17e} {:.17e}",
                m.blocks_per_sec,
                m.mbit_per_sec_per_node,
                m.max_mbit_per_sec,
                m.msgs_per_sec_per_node
            )
        };
        let serial = run_trials_with_threads(1, &cells, run_cell);
        let parallel = run_trials_with_threads(4, &cells, run_cell);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn measure_window_rates() {
        let mut cluster =
            icc_gossip::icc0_cluster(icc_core::cluster::ClusterBuilder::new(4).seed(5));
        let m = measure_window(
            &mut cluster,
            SimDuration::from_millis(500),
            SimDuration::from_secs(2),
        );
        // 10ms fixed delay, ε = 0: ≈ 50 rounds/s.
        assert!(m.blocks_per_sec > 20.0, "{}", m.blocks_per_sec);
        assert!(m.mbit_per_sec_per_node > 0.0);
        assert!(m.max_mbit_per_sec >= m.mbit_per_sec_per_node * 0.99);
        assert!(m.msgs_per_sec_per_node > 0.0);
    }
}
