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
//! For each the entry writes N records (2 000 with `--smoke`, else
//! 20 000) and measures *commit latency*: the time from a record's
//! write to the sync that made it durable. A final section times cold
//! recovery of the per-commit log.
//!
//! Expected shape: per-commit pays one fsync per record (p50 latency =
//! one `fdatasync`, throughput fsync-bound); per-round pays a quarter
//! of those, so its throughput is up to 4× higher and its latency the
//! round's writes plus one sync. The entry asserts the sync counts,
//! `0 < p50 ≤ p99 ≤ max` per row and a lossless recovery; results land
//! in `BENCH_durability.json`.

use crate::{json_arr, json_obj, Mode, Report, Table};
use icc_bench::fmt_f;
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
use std::time::Instant;

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
    std::env::temp_dir().join(format!("icc_claims_e15_{}_{tag}", std::process::id()))
}

/// Records a replica's barrier syncs at once: one round's beacon,
/// block, finalization and committed digests.
const RECORDS_PER_ROUND: usize = 4;

/// Writes `n` records, syncing after every `per_sync` of them, times
/// each record to the sync that made it durable, and returns the row's
/// table cells and JSON. The log stays on disk for the caller.
fn run_row(
    name: &str,
    per_sync: usize,
    opts: WalOptions,
    n: usize,
    payload: &[u8],
) -> (Vec<String>, String) {
    let dir = dir_for(name);
    let _ = std::fs::remove_dir_all(&dir);
    let (mut wal, recovered) = Wal::open(&dir, opts).expect("open wal");
    assert!(recovered.is_empty());

    let mut pending = Vec::with_capacity(per_sync);
    let mut latencies = Vec::with_capacity(n);
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
            latencies.push(now.duration_since(t).as_micros() as u64);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let c = wal.counters();
    assert_eq!(c.records_appended, n as u64);
    assert_eq!(
        c.fsyncs * per_sync as u64,
        n as u64,
        "{name}: one fsync per sync"
    );
    assert_eq!(latencies.len(), n);
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((n as f64 - 1.0) * p).round() as usize];
    let (p50, p90, p99, max) = (pct(0.50), pct(0.90), pct(0.99), latencies[n - 1]);
    assert!(
        0 < p50 && p50 <= p99 && p99 <= max,
        "{name}: p50 {p50}, p99 {p99}, max {max}"
    );
    let rate = n as f64 / elapsed;
    let row = vec![
        name.to_string(),
        fmt_f(rate, 0),
        format!("{}", c.fsyncs),
        format!("{p50}"),
        format!("{p90}"),
        format!("{p99}"),
        format!("{max}"),
        fmt_f(c.bytes_appended as f64 / 1024.0 / 1024.0, 1),
        format!("{}", c.segments_created),
    ];
    let latency = json_obj(&[
        ("p50", p50.to_string()),
        ("p90", p90.to_string()),
        ("p99", p99.to_string()),
        ("max", max.to_string()),
    ]);
    let json = json_obj(&[
        ("row", format!("\"{name}\"")),
        ("elapsed_ms", format!("{:.3}", elapsed * 1e3)),
        ("records_per_s", format!("{rate:.0}")),
        ("fsyncs", c.fsyncs.to_string()),
        ("bytes_appended", c.bytes_appended.to_string()),
        ("segments_created", c.segments_created.to_string()),
        ("latency_us", latency),
    ]);
    (row, json)
}

pub fn run(mode: Mode) -> Report {
    let smoke = mode == Mode::Smoke;
    let n = if smoke { 2_000 } else { 20_000 };
    let payload = representative_payload();

    // Whole rounds to a segment, about as large as the default one.
    let round_bytes = (RECORDS_PER_ROUND * (HEADER_LEN + 8 + payload.len())) as u64;
    let default = WalOptions::default();
    let whole_rounds = WalOptions {
        segment_max_bytes: default.segment_max_bytes / round_bytes * round_bytes,
        ..default
    };
    let (rows, json_rows): (Vec<_>, Vec<_>) = [
        run_row("per-commit", 1, default, n, &payload),
        run_row("per-round", RECORDS_PER_ROUND, whole_rounds, n, &payload),
    ]
    .into_iter()
    .unzip();
    let _ = std::fs::remove_dir_all(dir_for("per-round"));

    // Cold recovery of the per-commit log: every record read back,
    // CRC-checked, zero corruption.
    let dir = dir_for("per-commit");
    let t0 = Instant::now();
    let (wal, recovered) = Wal::open(&dir, WalOptions::default()).expect("reopen");
    let recovery_secs = t0.elapsed().as_secs_f64();
    assert_eq!(recovered.len(), n, "cold recovery lost records");
    assert_eq!(wal.counters().corrupt_records(), 0);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);

    let title = format!(
        "E15{}: WAL sync cost (real filesystem)",
        if smoke { " (smoke)" } else { "" }
    );
    let headers =
        "row | records/s | fsyncs | commit p50 (us) | p90 (us) | p99 (us) | max (us) | MiB \
                   | segments";
    let table = Table::new(title, headers, rows).note(format!(
        "recovery: {n} records re-read, CRC-checked and round-parsed in {:.1} ms \
         ({:.0} records/s), 0 corrupt",
        recovery_secs * 1e3,
        n as f64 / recovery_secs,
    ));
    let mut report = Report::new(
        vec![table],
        "expected shape: per-commit = one fdatasync per record (latency ~ device\n\
         sync cost, throughput its reciprocal); per-round = one fdatasync per four\n\
         records, the replica's barrier (throughput up to 4x, latency one sync).",
    );
    let recovery = json_obj(&[
        ("records", n.to_string()),
        ("elapsed_ms", format!("{:.3}", recovery_secs * 1e3)),
        ("records_per_s", format!("{:.0}", n as f64 / recovery_secs)),
    ]);
    report.artifact = Some((
        "durability",
        vec![
            ("records", n.to_string()),
            ("payload_bytes", payload.len().to_string()),
            ("rows", json_arr(&json_rows)),
            ("recovery", recovery),
        ],
    ));
    report
}
