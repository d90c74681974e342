//! **Scalability sweep** — how the deployment-relevant metrics move
//! with subnet size, pushed far past the Internet Computer's deployed
//! 13–40 node subnets (§5) to n = 64…1000.
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
//! — the cells run serially so the attribution is exact. Results go to
//! stdout as a table and to `BENCH_scale.json` for CI (`scale-smoke`
//! validates the shape on a reduced sweep; `--smoke` selects it).

use icc_bench::{fmt_f, measure_window, print_table};
use icc_core::cluster::ClusterBuilder;
use icc_gossip::Recipe;
use icc_sim::delay::FixedDelay;
use icc_types::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-wrapping allocator that meters live bytes, the
/// high-water mark, and the allocation count. Lives in this binary
/// (not `icc_bench`) because the library forbids unsafe code; the
/// experiment binaries are the only place that needs a global
/// allocator hook.
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

struct CellResult {
    n: usize,
    degree: usize,
    diameter: usize,
    blocks_per_sec: f64,
    mbit_per_node: f64,
    bottleneck_mbit: f64,
    msgs_per_node: f64,
    peak_mem_bytes: u64,
    alloc_calls: u64,
    shares_routed: u64,
    shares_skipped_after_quorum: u64,
    mean_relay_hops: f64,
    aggregator_rounds: u64,
}

fn run_cell(n: usize, warmup: SimDuration, window: SimDuration) -> CellResult {
    let (mem_baseline, alloc_baseline) = reset_memory_mark();
    let recipe = Recipe::routed(n);
    let mut cluster = recipe.clone().cluster(
        ClusterBuilder::new(n)
            .seed(13)
            .network(FixedDelay::new(SimDuration::from_millis(10)))
            .protocol_delays(SimDuration::from_millis(100), SimDuration::ZERO),
    );
    let m = measure_window(&mut cluster, warmup, window);
    cluster.assert_safety();
    let summary = cluster.metrics_summary();
    // Sample the ceiling before the cluster drops: the cell's peak is
    // the high-water mark above what was live when the cell started.
    let peak_mem_bytes = PEAK_BYTES
        .load(Ordering::Relaxed)
        .saturating_sub(mem_baseline);
    let alloc_calls = ALLOC_CALLS.load(Ordering::Relaxed) - alloc_baseline;
    let overlay = recipe.overlay();
    let g = summary.gossip;
    let mean_relay_hops = if g.relayed_first_seen == 0 {
        0.0
    } else {
        g.relay_hops_total as f64 / g.relayed_first_seen as f64
    };
    CellResult {
        n,
        degree: overlay.max_degree(),
        diameter: overlay.diameter(),
        blocks_per_sec: m.blocks_per_sec,
        mbit_per_node: m.mbit_per_sec_per_node,
        bottleneck_mbit: m.max_mbit_per_sec,
        msgs_per_node: m.msgs_per_sec_per_node,
        peak_mem_bytes,
        alloc_calls,
        shares_routed: g.shares_routed,
        shares_skipped_after_quorum: summary.pool.shares_skipped_after_quorum,
        mean_relay_hops,
        aggregator_rounds: g.aggregator_rounds,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The full sweep's n = 1000 cell is the acceptance criterion; the
    // smoke sweep stops at 250 so CI stays fast but still spans a 4×
    // range for the sublinearity check.
    let sizes: &[usize] = if smoke {
        &[64, 128, 250]
    } else {
        &[64, 128, 250, 500, 1000]
    };
    let warmup = SimDuration::from_secs(1);
    let window = SimDuration::from_secs(3);

    // Serial, NOT `run_trials`: the counting allocator is process-wide,
    // so concurrent cells would charge each other's allocations.
    let mut cells: Vec<CellResult> = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let cell = run_cell(n, warmup, window);
        eprintln!(
            "done n={n}: {:.1} blocks/s, {:.3} Mb/s per node, peak {:.1} MiB",
            cell.blocks_per_sec,
            cell.mbit_per_node,
            cell.peak_mem_bytes as f64 / (1 << 20) as f64
        );
        cells.push(cell);
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.n),
                format!("{}", c.degree),
                format!("{}", c.diameter),
                fmt_f(c.blocks_per_sec, 1),
                fmt_f(c.mbit_per_node, 3),
                fmt_f(c.bottleneck_mbit, 3),
                fmt_f(c.msgs_per_node, 0),
                fmt_f(c.peak_mem_bytes as f64 / (1 << 20) as f64, 1),
                fmt_f(c.alloc_calls as f64 / 1e6, 1),
                format!("{}", c.shares_routed),
                format!("{}", c.shares_skipped_after_quorum),
                fmt_f(c.mean_relay_hops, 2),
            ]
        })
        .collect();
    print_table(
        "Scalability: routed overlay, delta=10ms, empty blocks, 3s window",
        &[
            "n",
            "deg",
            "diam",
            "blocks/s",
            "Mb/s per node",
            "bottleneck Mb/s",
            "msgs/s per node",
            "peak MiB",
            "Mallocs",
            "shares routed",
            "skip@quorum",
            "relay hops",
        ],
        &rows,
    );

    // The tentpole claim, asserted here and re-checked by CI from the
    // JSON: per-node traffic must grow strictly sublinearly in n.
    let first = &cells[0];
    let last = &cells[cells.len() - 1];
    let n_ratio = last.n as f64 / first.n as f64;
    let traffic_ratio = last.mbit_per_node / first.mbit_per_node;
    assert!(
        traffic_ratio < n_ratio,
        "per-node traffic grew superlinearly: n x{n_ratio:.1} but traffic x{traffic_ratio:.1}"
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"scale\",\n  \"smoke\": {smoke},\n  \"mode\": \"routed-overlay\",\n"
    ));
    json.push_str(&format!(
        "  \"warmup_secs\": {}, \"window_secs\": {},\n",
        warmup.as_secs_f64(),
        window.as_secs_f64()
    ));
    json.push_str(&format!(
        "  \"n_ratio\": {n_ratio:.3}, \"traffic_ratio\": {traffic_ratio:.3}, \"sublinear_traffic\": {},\n",
        traffic_ratio < n_ratio
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"degree\": {}, \"diameter\": {}, \"blocks_per_sec\": {:.3}, \
             \"mbit_per_node\": {:.4}, \"bottleneck_mbit\": {:.4}, \"msgs_per_node\": {:.1}, \
             \"peak_mem_bytes\": {}, \"alloc_calls\": {}, \"shares_routed\": {}, \
             \"shares_skipped_after_quorum\": {}, \"mean_relay_hops\": {:.3}, \
             \"aggregator_rounds\": {}}}{}\n",
            c.n,
            c.degree,
            c.diameter,
            c.blocks_per_sec,
            c.mbit_per_node,
            c.bottleneck_mbit,
            c.msgs_per_node,
            c.peak_mem_bytes,
            c.alloc_calls,
            c.shares_routed,
            c.shares_skipped_after_quorum,
            c.mean_relay_hops,
            c.aggregator_rounds,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json");
    std::fs::write(&out, &json).expect("write BENCH_scale.json");
    eprintln!("wrote {}", out.display());

    println!(
        "expected shape: blocks/s roughly flat (critical path 2delta + O(log n) overlay\n\
         hops); per-node traffic ~flat in n (shares go to 3 aggregators, certificates\n\
         relay over a degree-bounded overlay) where full fan-out grew linearly; peak\n\
         memory sublinear in n per node (bitset signer sets, bounded advert maps)."
    );
}
