//! **E17 — scalability sweep**: how the deployment-relevant metrics
//! move with subnet size, pushed far past the Internet Computer's
//! deployed 13–40 node subnets (§5) to n = 64…1000 (64…250 with
//! `--smoke`).
//!
//! Every cell runs the scale-out configuration
//! ([`icc_gossip::Recipe::routed`]): a bounded-degree overlay
//! (degree `⌈log₂ n⌉ + 2`, clamped to `[6, 16]`), signature shares
//! *unicast* to a rotating per-round aggregator set instead of
//! broadcast, and only the compact certificates (notarizations,
//! finalizations, combined beacon values) flooded — relayed once by a
//! node that holds none for the block yet, and not sent again when its
//! own core broadcasts the same bytes.
//! Expected shapes: round rate flat (the critical path is still 2δ
//! plus a few overlay hops, independent of n); **per-node traffic
//! ~flat in n** — each node sends O(1) shares per round plus
//! O(degree) relays, where the old full-fan-out regime grew linearly
//! (everyone broadcasting shares to everyone); peak memory per node
//! sublinear (bounded advert/peer maps, bitset signer tracking).
//!
//! A counting global allocator meters the whole-process memory ceiling
//! of each cell (peak live bytes and allocation count over build + run)
//! — the cells run serially so the attribution is exact. Those two
//! columns do not repeat to the digit: three `--smoke` runs read
//! 549 124–549 128 allocations and 14 843 898–14 875 770 B peak at
//! n = 64. Every other column does. The entry asserts sublinear traffic
//! (`traffic_ratio < n_ratio / 2`), per-cell floors and ceilings, and
//! the n = 250 traffic and memory ceilings; results go to
//! `BENCH_scale.json`.

use crate::{json_arr, json_obj, Mode, Report, Table};
use icc_bench::{fmt_f, measure_window, synchronous};
use icc_gossip::Recipe;
use icc_types::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-wrapping allocator that meters live bytes, the
/// high-water mark, and the allocation count. Lives in the binary (not
/// `icc_bench`) because the library forbids unsafe code.
struct CountingAllocator;

static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: u64) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    let cur = CURRENT_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(cur, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            note_alloc(new_size as u64);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Resets the high-water mark to the current live size; returns the
/// (baseline_live, baseline_allocs) pair the cell's deltas subtract.
fn reset_memory_mark() -> (u64, u64) {
    let live = CURRENT_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    (live, ALLOC_CALLS.load(Ordering::Relaxed))
}

/// Runs one cell and asserts its floors and ceilings; returns its
/// table cells, its JSON and its per-node traffic in Mb/s.
fn run_cell(n: usize, warmup: SimDuration, window: SimDuration) -> (Vec<String>, String, f64) {
    let (mem_baseline, alloc_baseline) = reset_memory_mark();
    let recipe = Recipe::routed(n);
    let mut cluster = recipe.clone().cluster(synchronous(n, 13, 10, 100));
    let m = measure_window(&mut cluster, warmup, window);
    cluster.assert_safety();
    let summary = cluster.metrics_summary();
    // Sample the ceiling before the cluster drops: the cell's peak is
    // the high-water mark above what was live when the cell started.
    let peak_mem_bytes = PEAK_BYTES
        .load(Ordering::Relaxed)
        .saturating_sub(mem_baseline);
    let alloc_calls = ALLOC_CALLS.load(Ordering::Relaxed) - alloc_baseline;
    let (degree, diameter) = (recipe.overlay().max_degree(), recipe.overlay().diameter());
    let g = summary.gossip;
    let skipped = summary.pool.shares_skipped_after_quorum;
    let relay_hops = if g.relayed_first_seen == 0 {
        0.0
    } else {
        g.relay_hops_total as f64 / g.relayed_first_seen as f64
    };
    let peak_mib = peak_mem_bytes as f64 / (1 << 20) as f64;
    eprintln!(
        "done n={n}: {:.1} blocks/s, {:.3} Mb/s per node, peak {peak_mib:.1} MiB",
        m.blocks_per_sec, m.mbit_per_sec_per_node,
    );
    assert!(
        m.blocks_per_sec > 5.0,
        "n = {n}: {} blocks/s",
        m.blocks_per_sec
    );
    assert!(
        peak_mem_bytes > 0 && alloc_calls > 0,
        "n = {n}: allocator saw nothing"
    );
    assert!(g.shares_routed > 0, "n = {n}: no share routed");
    assert!(skipped > 0, "n = {n}: no share skipped at quorum");
    assert!(degree <= 18, "n = {n}: degree {degree}");
    assert!(
        relay_hops < (diameter + 1) as f64,
        "n = {n}: {relay_hops} relay hops over diameter {diameter}"
    );
    if n == 250 {
        // One aggregate per block and kind past each node, and none
        // sent twice: 1.98 Mb/s per node at n = 250 before the relay
        // rules, 1.14 after.
        let mbit = m.mbit_per_sec_per_node;
        assert!(mbit < 1.4, "n = 250: {mbit} Mb/s per node");
        // Memory follows the rounds kept: 0.35 MiB per node at n = 250
        // while 64 rounds were kept, 0.22 with 20 (2 × the catch-up
        // threshold). The ceiling leaves 27 % slack over 0.22.
        assert!(peak_mib / 250.0 < 0.28, "n = 250: {peak_mib:.1} MiB");
    }
    let row = vec![
        format!("{n}"),
        format!("{degree}"),
        format!("{diameter}"),
        fmt_f(m.blocks_per_sec, 1),
        fmt_f(m.mbit_per_sec_per_node, 3),
        fmt_f(m.max_mbit_per_sec, 3),
        fmt_f(m.msgs_per_sec_per_node, 0),
        fmt_f(peak_mib, 1),
        fmt_f(alloc_calls as f64 / 1e6, 1),
        format!("{}", g.shares_routed),
        format!("{skipped}"),
        fmt_f(relay_hops, 2),
    ];
    let json = json_obj(&[
        ("n", n.to_string()),
        ("degree", degree.to_string()),
        ("diameter", diameter.to_string()),
        ("blocks_per_sec", format!("{:.3}", m.blocks_per_sec)),
        ("mbit_per_node", format!("{:.4}", m.mbit_per_sec_per_node)),
        ("bottleneck_mbit", format!("{:.4}", m.max_mbit_per_sec)),
        ("msgs_per_node", format!("{:.1}", m.msgs_per_sec_per_node)),
        ("peak_mem_bytes", peak_mem_bytes.to_string()),
        ("alloc_calls", alloc_calls.to_string()),
        ("shares_routed", g.shares_routed.to_string()),
        ("shares_skipped_after_quorum", skipped.to_string()),
        ("mean_relay_hops", format!("{relay_hops:.3}")),
        ("aggregator_rounds", g.aggregator_rounds.to_string()),
    ]);
    (row, json, m.mbit_per_sec_per_node)
}

pub fn run(mode: Mode) -> Report {
    // The full sweep's n = 1000 cell is the acceptance criterion; the
    // smoke sweep stops at 250 so CI stays fast but still spans a 4×
    // range for the sublinearity check.
    let sizes: &[usize] = if mode == Mode::Smoke {
        &[64, 128, 250]
    } else {
        &[64, 128, 250, 500, 1000]
    };
    let warmup = SimDuration::from_secs(1);
    let window = SimDuration::from_secs(3);

    // Serial, NOT `run_trials`: the counting allocator is process-wide,
    // so concurrent cells would charge each other's allocations.
    let (mut rows, mut cells, mut mbits) = (Vec::new(), Vec::new(), Vec::new());
    for &n in sizes {
        let (row, json, mbit) = run_cell(n, warmup, window);
        rows.push(row);
        cells.push(json);
        mbits.push(mbit);
    }

    // The tentpole claim: per-node traffic must not scale with n. The
    // measured ratio is ~1.1 at n = 64 → 250; full fan-out would read
    // the n ratio itself.
    let n_ratio = sizes[sizes.len() - 1] as f64 / sizes[0] as f64;
    let traffic_ratio = mbits[mbits.len() - 1] / mbits[0];
    assert!(
        traffic_ratio < n_ratio / 2.0,
        "per-node traffic grew with n: n x{n_ratio:.1} but traffic x{traffic_ratio:.1}"
    );
    let headers = "n | deg | diam | blocks/s | Mb/s per node | bottleneck Mb/s | msgs/s per node \
                   | peak MiB | Mallocs | shares routed | skip@quorum | relay hops";
    let mut report = Report::new(
        vec![Table::new(
            "Scalability: routed overlay, delta=10ms, empty blocks, 3s window",
            headers,
            rows,
        )],
        "expected shape: blocks/s roughly flat (critical path 2delta + O(log n) overlay\n\
         hops); per-node traffic ~flat in n (shares go to 3 aggregators, certificates\n\
         relay over a degree-bounded overlay) where full fan-out grew linearly; peak\n\
         memory sublinear in n per node (bitset signer sets, bounded advert maps).",
    );
    report.artifact = Some((
        "scale",
        vec![
            ("mode", "\"routed-overlay\"".into()),
            ("warmup_secs", warmup.as_secs_f64().to_string()),
            ("window_secs", window.as_secs_f64().to_string()),
            ("n_ratio", format!("{n_ratio:.3}")),
            ("traffic_ratio", format!("{traffic_ratio:.3}")),
            ("sublinear_traffic", (traffic_ratio < n_ratio).to_string()),
            ("cells", json_arr(&cells)),
        ],
    ));
    report
}
