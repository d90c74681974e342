//! **E15 — durability cost**: what a sync costs per record, measured
//! against a real filesystem with the production record format (a
//! CRC-framed, round-prefixed [`WalEntry`] encoding).
//!
//! Two rows, one record shape:
//!
//! * `per-commit` — one record per sync ([`Wal::append`]), the slowest
//!   way to use the log;
//! * `per-round` — four records per sync, the shape of the replica's
//!   persist-then-send barrier: the step that ends a round syncs that
//!   round's beacon, block, finalization and committed digests at once
//!   (DESIGN.md §5f). Its segments hold whole rounds, so rotation's own
//!   sync is the round's and the row counts one sync per round.
//!
//! For each the harness writes N records and measures *commit latency*:
//! the time from a record's write to the sync that made it durable. A
//! final section times cold recovery of the per-commit log.
//!
//! Expected shape: per-commit pays one fsync per record (p50 latency =
//! one `fdatasync`, throughput fsync-bound); per-round pays a quarter
//! of those, so its throughput is up to 4× higher and its latency the
//! round's writes plus one sync. Results land in `BENCH_durability.json`.
//!
//! ```text
//! cargo run --release -p icc-bench --bin fig_durability [-- --smoke]
//! ```

use icc_bench::{fmt_f, print_table};
use icc_core::storage::WalEntry;
use icc_crypto::sig::Signature;
use icc_crypto::Hash256;
use icc_types::block::{Block, Payload};
use icc_types::codec::encode_to_vec;
use icc_types::frame::HEADER_LEN;
use icc_types::messages::{BlockProposal, BlockRef, Notarization};
use icc_types::{NodeIndex, Round};
use icc_wal::{Wal, WalOptions};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A representative log record: a notarized block proposal with a small
/// command payload, exactly what the hot path appends every round.
fn representative_payload() -> Vec<u8> {
    let block = Block::new(
        Round::new(42),
        NodeIndex::new(1),
        Hash256([7u8; 32]),
        Payload::synthetic(3, 64, Round::new(42)),
    );
    let entry = WalEntry::Notarized {
        proposal: BlockProposal {
            block: block.clone().into_hashed(),
            authenticator: Signature::from_value(42),
            parent_notarization: None,
        },
        notarization: Some(Notarization {
            block_ref: BlockRef::of(&block),
            sig: icc_crypto::multisig::MultiSig {
                signature: Signature::from_value(7),
                signers: vec![0, 1, 2].into(),
            },
        }),
    };
    encode_to_vec(&entry)
}

fn dir_for(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("icc_fig_durability_{}_{tag}", std::process::id()))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = dir_for(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Records a replica's barrier syncs at once: one round's beacon,
/// block, finalization and committed digests.
const RECORDS_PER_ROUND: usize = 4;

struct RowResult {
    name: &'static str,
    elapsed: Duration,
    fsyncs: u64,
    bytes: u64,
    segments: u64,
    /// Per-record commit latencies (write → covering fsync), µs.
    latencies_us: Vec<u64>,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Writes `n` records, syncing after every `per_sync` of them, and
/// times each record to the sync that made it durable.
fn run_row(
    name: &'static str,
    per_sync: usize,
    opts: WalOptions,
    n: usize,
    payload: &[u8],
    keep_dir: bool,
) -> RowResult {
    let dir = scratch(name);
    let (mut wal, recovered) = Wal::open(&dir, opts).expect("open wal");
    assert!(recovered.is_empty());

    let mut pending = Vec::with_capacity(per_sync);
    let mut latencies_us = Vec::with_capacity(n);
    let started = Instant::now();
    for i in 0..n {
        pending.push(Instant::now());
        let round = (i / per_sync) as u64 + 1;
        if pending.len() < per_sync {
            wal.append_with(round, |buf| buf.extend_from_slice(payload))
                .expect("write");
            continue;
        }
        // The last record of a sync: `append` writes and syncs it.
        wal.append(round, payload).expect("append");
        let now = Instant::now();
        for t in pending.drain(..) {
            latencies_us.push(now.duration_since(t).as_micros() as u64);
        }
    }
    let elapsed = started.elapsed();
    let c = wal.counters();
    assert_eq!(c.records_appended, n as u64);
    assert_eq!(latencies_us.len(), n);
    drop(wal);
    if !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    latencies_us.sort_unstable();
    RowResult {
        name,
        elapsed,
        fsyncs: c.fsyncs,
        bytes: c.bytes_appended,
        segments: c.segments_created,
        latencies_us,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 2_000 } else { 20_000 };
    let payload = representative_payload();

    // Whole rounds to a segment, about as large as the default one.
    let round_bytes = (RECORDS_PER_ROUND * (HEADER_LEN + 8 + payload.len())) as u64;
    let default = WalOptions::default();
    let whole_rounds = WalOptions {
        segment_max_bytes: default.segment_max_bytes / round_bytes * round_bytes,
        ..default
    };
    // Keep the per-commit dir around to time cold recovery below.
    let results = [
        run_row("per-commit", 1, default, n, &payload, true),
        run_row(
            "per-round",
            RECORDS_PER_ROUND,
            whole_rounds,
            n,
            &payload,
            false,
        ),
    ];

    assert_eq!(results[0].fsyncs, n as u64, "per-commit: one fsync each");
    assert_eq!(
        results[1].fsyncs,
        (n / RECORDS_PER_ROUND) as u64,
        "per-round: one fsync per round"
    );

    // Cold recovery of the per-commit log: every record read back,
    // CRC-checked, zero corruption.
    let dir = dir_for("per-commit");
    let t0 = Instant::now();
    let (wal, recovered) = Wal::open(&dir, WalOptions::default()).expect("reopen");
    let recovery_elapsed = t0.elapsed();
    assert_eq!(recovered.len(), n, "cold recovery lost records");
    assert_eq!(wal.counters().corrupt_records(), 0);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let l = &r.latencies_us;
            vec![
                r.name.to_string(),
                fmt_f(n as f64 / r.elapsed.as_secs_f64(), 0),
                format!("{}", r.fsyncs),
                format!("{}", percentile(l, 0.50)),
                format!("{}", percentile(l, 0.90)),
                format!("{}", percentile(l, 0.99)),
                format!("{}", l.last().copied().unwrap_or(0)),
                fmt_f(r.bytes as f64 / 1024.0 / 1024.0, 1),
                format!("{}", r.segments),
            ]
        })
        .collect();
    let title = if smoke {
        "E15 (smoke): WAL sync cost (real filesystem)"
    } else {
        "E15: WAL sync cost (real filesystem)"
    };
    print_table(
        title,
        &[
            "row",
            "records/s",
            "fsyncs",
            "commit p50 (us)",
            "p90 (us)",
            "p99 (us)",
            "max (us)",
            "MiB",
            "segments",
        ],
        &rows,
    );
    println!(
        "recovery: {n} records re-read, CRC-checked and round-parsed in {:.1} ms \
         ({:.0} records/s), 0 corrupt",
        recovery_elapsed.as_secs_f64() * 1e3,
        n as f64 / recovery_elapsed.as_secs_f64(),
    );
    println!(
        "expected shape: per-commit = one fdatasync per record (latency ~ device\n\
         sync cost, throughput its reciprocal); per-round = one fdatasync per four\n\
         records, the replica's barrier (throughput up to 4x, latency one sync)."
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"durability\",\n  \"smoke\": {smoke},\n  \"records\": {n},\n  \"payload_bytes\": {},\n",
        payload.len()
    ));
    json.push_str("  \"rows\": [\n");
    for (i, r) in results.iter().enumerate() {
        let l = &r.latencies_us;
        json.push_str(&format!(
            "    {{\"row\": \"{}\", \"elapsed_ms\": {:.3}, \"records_per_s\": {:.0}, \
             \"fsyncs\": {}, \"bytes_appended\": {}, \"segments_created\": {}, \
             \"latency_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}}}{}\n",
            r.name,
            r.elapsed.as_secs_f64() * 1e3,
            n as f64 / r.elapsed.as_secs_f64(),
            r.fsyncs,
            r.bytes,
            r.segments,
            percentile(l, 0.50),
            percentile(l, 0.90),
            percentile(l, 0.99),
            l.last().copied().unwrap_or(0),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"recovery\": {{\"records\": {n}, \"elapsed_ms\": {:.3}, \"records_per_s\": {:.0}}}\n",
        recovery_elapsed.as_secs_f64() * 1e3,
        n as f64 / recovery_elapsed.as_secs_f64(),
    ));
    json.push_str("}\n");
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_durability.json");
    std::fs::write(&out, &json).expect("write BENCH_durability.json");
    eprintln!("wrote {}", out.display());
}
