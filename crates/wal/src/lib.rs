//! Crash-consistent durable storage for a consensus replica.
//!
//! The paper's fault model (§1) has replicas that "simply crash" and
//! later come back. Coming back *cheaply* — without re-verifying a
//! single signature and without a full network re-sync — requires that
//! the replica's certified state survive the crash on disk, and that
//! the on-disk form tolerate exactly the damage a crash can inflict: a
//! torn final write, a page the kernel never flushed, a segment a dying
//! disk corrupted. This crate is that substrate, std-only and free of
//! any external storage engine:
//!
//! * [`Wal`] — an append-only **segmented write-ahead log**. Every
//!   record is framed with the same CRC'd length-prefix format TCP
//!   streams use ([`icc_types::frame`]): magic, length (guarded before
//!   any allocation), CRC-32, payload. Appends go to an active segment
//!   that rotates at a size threshold; sealed segments are deleted
//!   wholesale once a checkpoint covers them (compaction at checkpoint
//!   boundaries). Durability is governed by a configurable
//!   [`FsyncPolicy`]: per-commit, group commit with a batching window,
//!   or periodic.
//! * [`save_checkpoint`] / [`load_checkpoint`] — **atomic checkpoint
//!   files**: write-temp, fsync, rename, fsync-dir. A crash at any
//!   point leaves either the old checkpoint or the new one, never a
//!   hybrid; a payload the loader would refuse is refused on write.
//! * [`SharedFs`] — one [`SegmentFs`] behind a cloneable handle, so the
//!   logs of one data directory (a replica's journal and its dedup log)
//!   write through the same filesystem.
//! * [`fault`] — a **disk-fault injection harness**: a write layer that
//!   models the page cache (bytes reach the file only at fsync) so
//!   crashes produce partial fsyncs, torn tails, and bit-flipped
//!   records on demand, plus post-hoc injectors that corrupt segment
//!   and checkpoint files directly.
//!
//! The recovery invariant, pinned by the fault-matrix tests: whatever a
//! crash or injected fault did to the tail of the log, [`Wal::open`]
//! recovers exactly a **prefix** of the appended records — it truncates
//! the damaged tail, discards any segments past the damage, never
//! panics, and accounts for every discarded byte in
//! [`StorageCounters`].

mod checkpoint;
pub mod fault;
mod wal;

pub use checkpoint::{load_checkpoint, save_checkpoint, CHECKPOINT_FILE};
pub use wal::{
    FsyncPolicy, OsFs, RecoveredRecord, SegmentFile, SegmentFs, SharedFs, Wal, WalOptions,
    SEGMENT_SUFFIX,
};

/// Telemetry account of everything the storage layer did — and, after a
/// recovery, everything it had to throw away. The recovery-side fields
/// are how the crash-consistency tests (and the `net_cluster` REPORT
/// line) check that injected damage was detected, quarantined, and
/// rolled back to the last valid prefix rather than silently read.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageCounters {
    /// Records appended to the log.
    pub records_appended: u64,
    /// Bytes appended (frame headers included).
    pub bytes_appended: u64,
    /// `fsync` calls actually issued (group/periodic policies issue
    /// fewer than one per record — that is their point).
    pub fsyncs: u64,
    /// Wall-clock microseconds spent inside those fsyncs, summed —
    /// `fsync_total_us / fsyncs` is the mean latency the admin plane's
    /// spike detector samples against.
    pub fsync_total_us: u64,
    /// Slowest single fsync observed, in microseconds.
    pub fsync_max_us: u64,
    /// Segment files created.
    pub segments_created: u64,
    /// Segment files deleted by checkpoint compaction.
    pub segments_removed: u64,
    /// Checkpoints written (temp + fsync + rename).
    pub checkpoints_written: u64,
    /// Payload bytes of written checkpoints (the checkpoint file alone).
    pub checkpoint_bytes: u64,
    /// Records appended to the dedup log: one per checkpoint that
    /// compacted committed-command digests out of the journal. The dedup
    /// log syncs once per record, so this is also its sync count; those
    /// syncs are not in `fsyncs`.
    pub dedup_records: u64,
    /// Bytes appended to the dedup log (frame headers included).
    pub dedup_bytes: u64,
    /// Records recovered intact by [`Wal::open`].
    pub recovered_records: u64,
    /// Bytes of recovered records (frame headers included).
    pub recovered_bytes: u64,
    /// Recoveries that found an incomplete frame at a segment tail (a
    /// torn or partially-fsynced final write) and truncated it away.
    pub torn_tail_truncations: u64,
    /// Records rejected because their CRC-32 did not match (bit rot,
    /// injected bit flips).
    pub crc_corruptions: u64,
    /// Frame boundaries that did not hold the frame magic (overwritten
    /// or shifted data).
    pub bad_magic_records: u64,
    /// Frame headers declaring a length beyond the configured maximum.
    pub oversized_records: u64,
    /// Frames whose payload was too short to carry the record header.
    pub malformed_records: u64,
    /// Whole segments discarded because an *earlier* segment was
    /// corrupt (prefix semantics: nothing after the damage survives).
    pub segments_dropped: u64,
    /// Total bytes discarded by recovery (truncated tails, corrupt
    /// records, dropped segments).
    pub discarded_bytes: u64,
    /// Checkpoint files rejected at load (bad frame, bad CRC).
    pub checkpoint_corruptions: u64,
    /// Recovered records whose payload failed to decode at the layer
    /// above (bumped by the storage backend, carried here so one
    /// struct tells the whole recovery story).
    pub decode_failures: u64,
    /// Write, sync and checkpoint errors met. The first one stops the
    /// replica at its next persist-then-send barrier (fail-stop).
    pub io_errors: u64,
}

impl StorageCounters {
    /// Field-wise sum of `other` into `self` (cluster aggregation).
    /// `fsync_max_us` is the one non-additive field: the merged value
    /// is the max, not the sum.
    pub fn merge(&mut self, other: &StorageCounters) {
        let max_us = self.fsync_max_us.max(other.fsync_max_us);
        for ((_, a), (_, b)) in self.fields_mut().into_iter().zip(other.fields()) {
            *a = a.wrapping_add(b);
        }
        self.fsync_max_us = max_us;
    }

    /// `(name, value)` pairs in declaration order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let mut c = *self;
        c.fields_mut().into_iter().map(|(n, v)| (n, *v)).collect()
    }

    /// Total records recovery refused to trust (every corruption class).
    pub fn corrupt_records(&self) -> u64 {
        self.crc_corruptions
            + self.bad_magic_records
            + self.oversized_records
            + self.malformed_records
    }

    /// Renders as a JSON object fragment (stable key order), for
    /// embedding in replica reports.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.fields().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push('}');
        out
    }

    fn fields_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
        vec![
            ("records_appended", &mut self.records_appended),
            ("bytes_appended", &mut self.bytes_appended),
            ("fsyncs", &mut self.fsyncs),
            ("fsync_total_us", &mut self.fsync_total_us),
            ("fsync_max_us", &mut self.fsync_max_us),
            ("segments_created", &mut self.segments_created),
            ("segments_removed", &mut self.segments_removed),
            ("checkpoints_written", &mut self.checkpoints_written),
            ("checkpoint_bytes", &mut self.checkpoint_bytes),
            ("dedup_records", &mut self.dedup_records),
            ("dedup_bytes", &mut self.dedup_bytes),
            ("recovered_records", &mut self.recovered_records),
            ("recovered_bytes", &mut self.recovered_bytes),
            ("torn_tail_truncations", &mut self.torn_tail_truncations),
            ("crc_corruptions", &mut self.crc_corruptions),
            ("bad_magic_records", &mut self.bad_magic_records),
            ("oversized_records", &mut self.oversized_records),
            ("malformed_records", &mut self.malformed_records),
            ("segments_dropped", &mut self.segments_dropped),
            ("discarded_bytes", &mut self.discarded_bytes),
            ("checkpoint_corruptions", &mut self.checkpoint_corruptions),
            ("decode_failures", &mut self.decode_failures),
            ("io_errors", &mut self.io_errors),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_and_json() {
        let mut a = StorageCounters {
            records_appended: 2,
            fsyncs: 1,
            ..StorageCounters::default()
        };
        let b = StorageCounters {
            records_appended: 3,
            discarded_bytes: 7,
            ..StorageCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.records_appended, 5);
        assert_eq!(a.discarded_bytes, 7);
        let json = a.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"records_appended\":5"));
        assert!(json.contains("\"discarded_bytes\":7"));
        assert_eq!(a.fields().len(), 23);
    }

    #[test]
    fn merge_takes_max_of_fsync_max() {
        let mut a = StorageCounters {
            fsync_total_us: 100,
            fsync_max_us: 40,
            ..StorageCounters::default()
        };
        let b = StorageCounters {
            fsync_total_us: 50,
            fsync_max_us: 90,
            ..StorageCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.fsync_total_us, 150, "totals add");
        assert_eq!(a.fsync_max_us, 90, "max is max, not sum");
    }
}
