//! The append-only segmented log.
//!
//! On disk a WAL directory holds numbered segment files
//! (`wal-0000000000.seg`, `wal-0000000001.seg`, …). Each segment is a
//! concatenation of frames in the [`icc_types::frame`] format; each
//! frame's payload starts with the record's **round** as a little-endian
//! `u64`, followed by the caller's opaque bytes. Carrying the round in
//! the storage layer (redundantly with whatever the payload encodes)
//! lets the log compact — delete whole segments whose every record is
//! at or below a checkpointed round — without understanding payloads.
//!
//! A freshly opened log never appends to an existing segment: recovery
//! scans and (if needed) truncates the old files, then the first append
//! starts a new segment with the next id. That keeps the invariant that
//! only the *tail* of the newest segment can ever be torn by a crash.

// Nothing a damaged file holds may panic recovery.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

use crate::StorageCounters;
use icc_types::frame::{self, HEADER_LEN, MAGIC};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Segment file suffix (`wal-<id>.seg`).
pub const SEGMENT_SUFFIX: &str = ".seg";
const SEGMENT_PREFIX: &str = "wal-";

/// Inert: every sync makes every record written so far durable, so
/// a replica's promise is on disk before it is sent (DESIGN.md §5f).
/// The one variant stays only because the benchmark's `wal_options()`
/// names it; `WalOptions::fsync` is read by nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` at every [`Wal::sync`] that finds records pending.
    PerCommit,
}

/// Tuning for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Inert (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_max_bytes: u64,
    /// Reject records (and, on recovery, headers declaring) more than
    /// this many payload bytes — same role as the frame layer's
    /// allocation guard on the network path.
    pub max_record_len: u32,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: FsyncPolicy::PerCommit,
            segment_max_bytes: 1 << 20,
            max_record_len: frame::DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// One record handed back by [`Wal::open`], in append order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredRecord {
    /// Round tag the record was appended under.
    pub round: u64,
    /// The caller's payload bytes (round prefix stripped).
    pub payload: Vec<u8>,
}

/// Minimal file surface the log needs — [`Write`] plus a durability
/// barrier. `std::fs::File` is the real thing; the fault harness
/// substitutes a page-cache model whose crashes tear and drop writes.
pub trait SegmentFile: Write + Send {
    /// Flushes buffered bytes and makes them durable (`fsync`).
    fn sync(&mut self) -> io::Result<()>;
}

impl SegmentFile for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// Factory for segment files, so tests can interpose the fault layer.
pub trait SegmentFs: Send {
    /// Creates (truncating) the segment file at `path`.
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn SegmentFile>>;
}

/// The real filesystem.
#[derive(Debug, Default)]
pub struct OsFs;

impl SegmentFs for OsFs {
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn SegmentFile>> {
        Ok(Box::new(File::create(path)?))
    }
}

/// One [`SegmentFs`] behind a cloneable handle: every log of a data
/// directory creates its files through the same filesystem, so a fault
/// model or a cost model sees all of them.
#[derive(Clone)]
pub struct SharedFs(Arc<Mutex<Box<dyn SegmentFs>>>);

impl SharedFs {
    /// Shares `fs`.
    pub fn new(fs: Box<dyn SegmentFs>) -> SharedFs {
        SharedFs(Arc::new(Mutex::new(fs)))
    }
}

impl std::fmt::Debug for SharedFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFs").finish_non_exhaustive()
    }
}

impl SegmentFs for SharedFs {
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn SegmentFile>> {
        let mut fs = self
            .0
            .lock()
            .map_err(|_| io::Error::other("segment filesystem poisoned by a panic"))?;
        fs.create(path)
    }
}

/// A sealed (rotated or recovered) segment: kept only for compaction
/// bookkeeping.
#[derive(Debug)]
struct Sealed {
    path: PathBuf,
    /// Highest round of any record in the segment; `None` for an empty
    /// segment (deletable by any checkpoint).
    max_round: Option<u64>,
}

/// Append-only segmented write-ahead log. See the [module](self) docs
/// for the on-disk format and [`Wal::open`] for recovery semantics.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    fs: Box<dyn SegmentFs>,
    active: Option<Box<dyn SegmentFile>>,
    active_path: PathBuf,
    active_len: u64,
    active_max_round: Option<u64>,
    next_id: u64,
    sealed: Vec<Sealed>,
    pending_records: usize,
    scratch: Vec<u8>,
    counters: StorageCounters,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("opts", &self.opts)
            .field("active_len", &self.active_len)
            .field("next_id", &self.next_id)
            .field("sealed", &self.sealed.len())
            .field("pending_records", &self.pending_records)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens (creating the directory if needed) the log at `dir` on the
    /// real filesystem and recovers every intact record.
    pub fn open(dir: &Path, opts: WalOptions) -> io::Result<(Wal, Vec<RecoveredRecord>)> {
        Wal::open_with_fs(dir, opts, Box::new(OsFs))
    }

    /// [`Wal::open`] with a caller-supplied filesystem (fault harness).
    ///
    /// Recovery scans segments in id order and enforces the **prefix
    /// invariant**: the first damaged byte ends the recovered log. An
    /// incomplete frame at a segment tail is a torn write — truncated
    /// away, counted, and recovery continues *only if* no later segment
    /// exists (a torn tail mid-log means everything after it is of
    /// unknown provenance). Corrupt records (bad CRC, bad magic,
    /// oversized or malformed headers) likewise end the log: the
    /// segment is truncated to the last valid record and all later
    /// segments are deleted. Recovery never panics on file contents.
    pub fn open_with_fs(
        dir: &Path,
        opts: WalOptions,
        fs_impl: Box<dyn SegmentFs>,
    ) -> io::Result<(Wal, Vec<RecoveredRecord>)> {
        fs::create_dir_all(dir)?;
        let mut counters = StorageCounters::default();
        let mut ids = segment_ids(dir)?;
        ids.sort_unstable();

        let mut records = Vec::new();
        let mut sealed = Vec::new();
        let mut damaged = false;
        for (pos, &id) in ids.iter().enumerate() {
            let path = segment_path(dir, id);
            if damaged {
                // Everything after the first damage is untrusted: drop
                // the whole segment and account for its bytes.
                let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                counters.segments_dropped += 1;
                counters.discarded_bytes += len;
                fs::remove_file(&path)?;
                continue;
            }
            let scan = scan_segment(&path, opts.max_record_len, &mut counters)?;
            let file_len = fs::metadata(&path)?.len();
            if scan.valid_len < file_len {
                damaged = true;
                counters.discarded_bytes += file_len - scan.valid_len;
                truncate_file(&path, scan.valid_len)?;
                if pos + 1 == ids.len() && scan.kind == Some(DamageKind::TornTail) {
                    // A torn tail on the *newest* segment is the
                    // expected crash signature, not evidence that
                    // later data is suspect (there is none).
                    damaged = false;
                }
            }
            if scan.valid_len == 0 {
                // Nothing valid in it; no reason to keep the file.
                fs::remove_file(&path)?;
            } else {
                sealed.push(Sealed {
                    path,
                    max_round: scan.max_round,
                });
            }
            records.extend(scan.records);
        }

        counters.recovered_records = records.len() as u64;
        counters.recovered_bytes = records
            .iter()
            .map(|r| (HEADER_LEN + 8 + r.payload.len()) as u64)
            .sum();

        let wal = Wal {
            dir: dir.to_path_buf(),
            opts,
            fs: fs_impl,
            active: None,
            active_path: PathBuf::new(),
            active_len: 0,
            active_max_round: None,
            next_id: ids.last().map_or(0, |id| id + 1),
            sealed,
            pending_records: 0,
            scratch: Vec::new(),
            counters,
        };
        Ok((wal, records))
    }

    /// Appends one record of already-encoded bytes and syncs it: durable
    /// when the call returns.
    pub fn append(&mut self, round: u64, payload: &[u8]) -> io::Result<()> {
        self.append_with(round, |buf| buf.extend_from_slice(payload))?;
        self.sync()
    }

    /// Writes one record; it is durable at the next [`sync`](Wal::sync).
    /// `fill` appends the payload straight into the record's frame
    /// (after the round prefix), so an entry is encoded, checksummed and
    /// written without an intermediate copy.
    pub fn append_with(&mut self, round: u64, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.scratch.clear();
        let len = frame::frame(&mut self.scratch, |buf| {
            buf.extend_from_slice(&round.to_le_bytes());
            fill(buf);
        });
        let max = self.opts.max_record_len;
        if len as u64 > max as u64 {
            let why = format!("record of {len} bytes exceeds max_record_len {max}");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
        let file = match self.active.take() {
            Some(file) => file,
            None => self.start_segment()?,
        };
        self.active.insert(file).write_all(&self.scratch)?;
        self.active_len += self.scratch.len() as u64;
        self.active_max_round = Some(self.active_max_round.map_or(round, |r| r.max(round)));
        self.counters.records_appended += 1;
        self.counters.bytes_appended += self.scratch.len() as u64;
        self.pending_records += 1;

        if self.active_len >= self.opts.segment_max_bytes {
            // Rotation seals the segment through sync(), so every
            // pending record is durable at return.
            self.rotate()?;
        }
        Ok(())
    }

    /// Deletes every sealed segment whose records are all at or below
    /// `round` — called after a checkpoint covering `round` is durable.
    /// The active segment is never compacted (it is still being
    /// written); it falls out at its own rotation.
    pub fn compact_below(&mut self, round: u64) -> io::Result<()> {
        let mut kept = Vec::with_capacity(self.sealed.len());
        for seg in self.sealed.drain(..) {
            if seg.max_round.is_none_or(|r| r <= round) {
                fs::remove_file(&seg.path)?;
                self.counters.segments_removed += 1;
            } else {
                kept.push(seg);
            }
        }
        self.sealed = kept;
        Ok(())
    }

    /// Snapshot of the storage telemetry.
    pub fn counters(&self) -> StorageCounters {
        self.counters
    }

    /// Mutable telemetry access, for layers above to account their own
    /// recovery outcomes (e.g. payload decode failures) in one place.
    pub fn counters_mut(&mut self) -> &mut StorageCounters {
        &mut self.counters
    }

    /// Records appended but not yet known durable.
    pub fn pending_records(&self) -> usize {
        self.pending_records
    }

    /// Segment files currently on disk (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + usize::from(self.active.is_some())
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Creates the next segment; the caller makes it the active one.
    fn start_segment(&mut self) -> io::Result<Box<dyn SegmentFile>> {
        let path = segment_path(&self.dir, self.next_id);
        let file = self.fs.create(&path)?;
        self.next_id += 1;
        self.active_path = path;
        self.active_len = 0;
        self.active_max_round = None;
        self.counters.segments_created += 1;
        Ok(file)
    }

    fn rotate(&mut self) -> io::Result<()> {
        // Seal only fully-durable segments: sync first so a sealed
        // segment can never carry a torn tail (recovery relies on torn
        // tails appearing only in the newest segment).
        self.sync()?;
        self.active = None;
        self.sealed.push(Sealed {
            path: std::mem::take(&mut self.active_path),
            max_round: self.active_max_round.take(),
        });
        self.active_len = 0;
        Ok(())
    }

    /// Makes every record written so far durable: one `fsync` if any
    /// is pending, none otherwise.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(file) = self.active.as_mut() {
            if self.pending_records > 0 {
                let started = Instant::now();
                file.flush()?;
                file.sync()?;
                let us = started.elapsed().as_micros() as u64;
                self.counters.fsyncs += 1;
                self.counters.fsync_total_us += us;
                self.counters.fsync_max_us = self.counters.fsync_max_us.max(us);
            }
        }
        self.pending_records = 0;
        Ok(())
    }
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{id:010}{SEGMENT_SUFFIX}"))
}

fn segment_ids(dir: &Path) -> io::Result<Vec<u64>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
        {
            if let Ok(id) = stem.parse::<u64>() {
                ids.push(id);
            }
        }
    }
    Ok(ids)
}

fn truncate_file(path: &Path, len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DamageKind {
    /// Incomplete frame at the tail (crash signature).
    TornTail,
    /// A structurally broken record (CRC, magic, length, payload).
    Corrupt,
}

struct SegmentScan {
    records: Vec<RecoveredRecord>,
    /// Byte offset of the last frame that validated end-to-end.
    valid_len: u64,
    max_round: Option<u64>,
    kind: Option<DamageKind>,
}

/// Walks one segment frame by frame, stopping (not erroring) at the
/// first byte that does not validate. File contents never panic; only
/// real I/O errors propagate.
fn scan_segment(
    path: &Path,
    max_record_len: u32,
    counters: &mut StorageCounters,
) -> io::Result<SegmentScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;

    let mut scan = SegmentScan {
        records: Vec::new(),
        valid_len: 0,
        max_round: None,
        kind: None,
    };
    let mut off = 0usize;
    while let Some(avail) = bytes.get(off..).filter(|rest| !rest.is_empty()) {
        if avail.len() < HEADER_LEN {
            scan.kind = Some(DamageKind::TornTail);
            counters.torn_tail_truncations += 1;
            break;
        }
        if le_u32(avail, 0) != MAGIC {
            scan.kind = Some(DamageKind::Corrupt);
            counters.bad_magic_records += 1;
            break;
        }
        let len = le_u32(avail, 4);
        if len > max_record_len {
            scan.kind = Some(DamageKind::Corrupt);
            counters.oversized_records += 1;
            break;
        }
        let declared_crc = le_u32(avail, 8);
        let total = HEADER_LEN + len as usize;
        let Some(payload) = avail.get(HEADER_LEN..total) else {
            scan.kind = Some(DamageKind::TornTail);
            counters.torn_tail_truncations += 1;
            break;
        };
        if frame::crc32(payload) != declared_crc {
            scan.kind = Some(DamageKind::Corrupt);
            counters.crc_corruptions += 1;
            break;
        }
        let Some((round, body)) = payload.split_first_chunk::<8>() else {
            scan.kind = Some(DamageKind::Corrupt);
            counters.malformed_records += 1;
            break;
        };
        let round = u64::from_le_bytes(*round);
        scan.records.push(RecoveredRecord {
            round,
            payload: body.to_vec(),
        });
        scan.max_round = Some(scan.max_round.map_or(round, |r| r.max(round)));
        off += total;
        scan.valid_len = off as u64;
    }
    Ok(scan)
}

/// The little-endian `u32` at `at` in `bytes` (0 past the end).
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    let word = bytes.get(at..).and_then(<[u8]>::first_chunk);
    word.map_or(0, |w| u32::from_le_bytes(*w))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icc-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(i: u64) -> Vec<u8> {
        format!("record-{i}-{}", "x".repeat(32)).into_bytes()
    }

    #[test]
    fn append_recover_roundtrip() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
            assert!(recovered.is_empty());
            for i in 0..20 {
                wal.append(i, &payload(i)).unwrap();
                assert_eq!(wal.pending_records(), 0, "an append is synced");
            }
            assert_eq!(wal.counters().records_appended, 20);
            assert_eq!(wal.counters().fsyncs, 20);
        }
        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 20);
        for (i, rec) in recovered.iter().enumerate() {
            assert_eq!(rec.round, i as u64);
            assert_eq!(rec.payload, payload(i as u64));
        }
        assert_eq!(wal.counters().recovered_records, 20);
        assert_eq!(wal.counters().corrupt_records(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_compaction() {
        let dir = tmp_dir("rotate");
        let opts = WalOptions {
            segment_max_bytes: 256,
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open(&dir, opts).unwrap();
        for i in 0..40 {
            wal.append(i, &payload(i)).unwrap();
        }
        assert!(
            wal.counters().segments_created >= 4,
            "small segments must rotate: {:?}",
            wal.counters()
        );
        let before = segment_ids(&dir).unwrap().len();
        wal.compact_below(30).unwrap();
        let after = segment_ids(&dir).unwrap().len();
        assert!(after < before, "compaction must delete covered segments");
        assert!(wal.counters().segments_removed > 0);
        drop(wal);

        // Surviving records are exactly a suffix (plus nothing lost
        // above the bar).
        let (_, recovered) = Wal::open(&dir, opts).unwrap();
        let rounds: Vec<u64> = recovered.iter().map(|r| r.round).collect();
        let min = *rounds.first().unwrap();
        assert!(min <= 31, "nothing above the bar may be lost: {rounds:?}");
        let expected: Vec<u64> = (min..40).collect();
        assert_eq!(rounds, expected, "survivors must be a contiguous suffix");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writing and syncing are separate: writing never syncs, and a
    /// step's worth of records costs one sync — none if nothing is
    /// pending.
    #[test]
    fn append_with_then_sync_costs_one_fsync_per_step() {
        let fill = |i: u64| move |buf: &mut Vec<u8>| buf.extend_from_slice(&payload(i));
        let dir = tmp_dir("sync");
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        // Step one: three records, one sync.
        for i in 0..3 {
            wal.append_with(i, fill(i)).unwrap();
        }
        assert_eq!(wal.counters().fsyncs, 0, "writing never syncs");
        assert_eq!(wal.pending_records(), 3);
        wal.sync().unwrap();
        assert_eq!(wal.counters().fsyncs, 1);
        assert_eq!(wal.pending_records(), 0);
        // Step two: one more record, one more sync.
        wal.append_with(3, fill(3)).unwrap();
        assert_eq!(wal.counters().fsyncs, 1, "writing never syncs");
        wal.sync().unwrap();
        assert_eq!(wal.counters().fsyncs, 2);
        // A sync with nothing pending is free.
        wal.sync().unwrap();
        assert_eq!(wal.counters().fsyncs, 2);
        assert_eq!(wal.pending_records(), 0);
        drop(wal);
        let (_, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_append_rejected() {
        let dir = tmp_dir("oversize");
        let opts = WalOptions {
            max_record_len: 64,
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open(&dir, opts).unwrap();
        assert!(wal.append(1, &[0u8; 100]).is_err());
        assert!(wal.append(1, &[0u8; 40]).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncated_to_valid_prefix() {
        let dir = tmp_dir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            for i in 0..5 {
                wal.append(i, &payload(i)).unwrap();
            }
        }
        // Tear the tail: append half a frame's worth of a real record.
        let seg = segment_path(&dir, 0);
        let mut inner = 99u64.to_le_bytes().to_vec();
        inner.extend_from_slice(&payload(99));
        let framed = frame::encode_frame(&inner);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&framed[..framed.len() / 2]).unwrap();
        drop(f);

        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 5, "valid prefix survives");
        let c = wal.counters();
        assert_eq!(c.torn_tail_truncations, 1);
        assert!(c.discarded_bytes > 0);
        drop(wal);
        // And the truncation is sticky: a third open sees a clean file.
        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 5);
        assert_eq!(wal.counters().torn_tail_truncations, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_drops_later_segments() {
        let dir = tmp_dir("midlog");
        let opts = WalOptions {
            segment_max_bytes: 256,
            ..WalOptions::default()
        };
        {
            let (mut wal, _) = Wal::open(&dir, opts).unwrap();
            for i in 0..40 {
                wal.append(i, &payload(i)).unwrap();
            }
            assert!(wal.segment_count() >= 3);
        }
        // Flip one bit in the FIRST segment's second record.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let record_len = HEADER_LEN + 8 + payload(0).len();
        let hit = record_len + HEADER_LEN + 8 + 2;
        bytes[hit] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        let (wal, recovered) = Wal::open(&dir, opts).unwrap();
        // Only records before the corruption survive; every later
        // segment is gone.
        assert_eq!(recovered.len(), 1, "prefix ends at the flipped bit");
        assert_eq!(recovered[0].round, 0);
        let c = wal.counters();
        assert_eq!(c.crc_corruptions, 1);
        assert!(c.segments_dropped >= 2, "{c:?}");
        assert!(c.discarded_bytes > 0);
        assert_eq!(segment_ids(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_and_oversized_headers_rejected() {
        let dir = tmp_dir("garbage");
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            for i in 0..3 {
                wal.append(i, &payload(i)).unwrap();
            }
        }
        let seg = segment_path(&dir, 0);
        // Garbage that can't be a frame header.
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(b"NOT A FRAME AT ALL").unwrap();
        drop(f);
        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(wal.counters().bad_magic_records, 1);
        drop(wal);

        // A header declaring an absurd length: guard trips, no
        // allocation of the declared size.
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&MAGIC.to_le_bytes()).unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        drop(f);
        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(wal.counters().oversized_records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_payload_is_malformed() {
        let dir = tmp_dir("malformed");
        fs::create_dir_all(&dir).unwrap();
        // A valid frame whose payload is too short to carry the round.
        fs::write(segment_path(&dir, 0), frame::encode_frame(b"tiny")).unwrap();
        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(wal.counters().malformed_records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_open_never_appends_to_old_segments() {
        let dir = tmp_dir("freshseg");
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            wal.append(1, &payload(1)).unwrap();
        }
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            wal.append(2, &payload(2)).unwrap();
        }
        let ids = {
            let mut ids = segment_ids(&dir).unwrap();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids, vec![0, 1], "each incarnation gets its own segment");
        let (_, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
