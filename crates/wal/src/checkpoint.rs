//! Atomic checkpoint files.
//!
//! A checkpoint replaces the log prefix it covers, so it must never be
//! observable half-written: recovery finding a hybrid of old and new
//! checkpoint would violate the prefix invariant in the worst possible
//! place (the oldest state). The classic POSIX recipe provides the
//! atomicity: write the full payload to `checkpoint.tmp`, `fsync` it,
//! `rename` over `checkpoint.bin` (atomic within a filesystem), then
//! `fsync` the *directory* so the rename itself survives power loss. A
//! crash at any step leaves either the previous checkpoint or the new
//! one — the stale `.tmp`, if any, is swept on the next load.
//!
//! The payload is wrapped in one [`icc_types::frame`] frame, so a
//! checkpoint damaged on the media (rather than by a crash) is caught
//! by the same CRC the WAL and the wire use, and treated as absent —
//! the WAL prefix still recovers, just from further back. A payload the
//! loader would refuse for its size is refused on write, before anything
//! is written: by the time a load found it oversized, compaction would
//! have deleted the log it replaced.

// Nothing a damaged file holds may panic recovery.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

use crate::StorageCounters;
use icc_types::frame::{self, FrameBuffer};
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

/// File name of the current checkpoint inside a data directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// Atomically replaces the checkpoint at `dir` with the payload `fill`
/// appends (encoded straight into the checkpoint's frame).
///
/// # Errors
///
/// A payload over `max_len` bytes — one [`load_checkpoint`] with the
/// same `max_len` would refuse — is refused with
/// [`io::ErrorKind::InvalidInput`] before anything is written, so the
/// checkpoint already on disk stays the current one. Otherwise the I/O
/// errors of writing, syncing and renaming.
pub fn save_checkpoint(
    dir: &Path,
    max_len: u32,
    fill: impl FnOnce(&mut Vec<u8>),
    counters: &mut StorageCounters,
) -> io::Result<()> {
    let mut framed = Vec::new();
    let payload_len = frame::frame(&mut framed, fill);
    if payload_len as u64 > u64::from(max_len) {
        let why = format!("checkpoint of {payload_len} bytes exceeds max_record_len {max_len}");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
    }
    fs::create_dir_all(dir)?;
    let tmp = dir.join(CHECKPOINT_TMP);
    let mut file = File::create(&tmp)?;
    file.write_all(&framed)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    sync_dir(dir)?;
    counters.checkpoints_written += 1;
    counters.checkpoint_bytes += payload_len as u64;
    Ok(())
}

/// Loads the checkpoint payload at `dir`, if a valid one exists.
///
/// Missing file → `Ok(None)`. A file that fails the frame check (torn,
/// bit-flipped, truncated, trailing garbage) is **counted and treated
/// as absent**, never an error: losing a checkpoint degrades recovery
/// to an older prefix, it must not brick the replica. A leftover
/// `checkpoint.tmp` from a crashed save is deleted.
pub fn load_checkpoint(
    dir: &Path,
    max_len: u32,
    counters: &mut StorageCounters,
) -> io::Result<Option<Vec<u8>>> {
    let tmp = dir.join(CHECKPOINT_TMP);
    if tmp.exists() {
        fs::remove_file(&tmp)?;
    }
    let path = dir.join(CHECKPOINT_FILE);
    let mut file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;

    let mut fb = FrameBuffer::with_max_len(max_len);
    fb.extend(&bytes);
    match fb.next_frame() {
        Ok(Some(payload)) if fb.pending() == 0 => Ok(Some(payload)),
        _ => {
            counters.checkpoint_corruptions += 1;
            counters.discarded_bytes += bytes.len() as u64;
            Ok(None)
        }
    }
}

/// `fsync` on the directory so a just-renamed entry is durable. On
/// non-Unix platforms directory handles can't be synced; the rename is
/// still atomic, only its durability window is weaker.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icc-wal-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn save(dir: &Path, payload: &[u8], c: &mut StorageCounters) {
        save_checkpoint(dir, 1 << 20, |buf| buf.extend_from_slice(payload), c).unwrap();
    }

    #[test]
    fn save_load_roundtrip_and_replace() {
        let dir = tmp_dir("roundtrip");
        let mut c = StorageCounters::default();
        assert_eq!(load_checkpoint(&dir, 1 << 20, &mut c).unwrap(), None);
        save(&dir, b"state v1", &mut c);
        assert_eq!(
            load_checkpoint(&dir, 1 << 20, &mut c).unwrap().as_deref(),
            Some(&b"state v1"[..])
        );
        save(&dir, b"state v2 (bigger)", &mut c);
        assert_eq!(
            load_checkpoint(&dir, 1 << 20, &mut c).unwrap().as_deref(),
            Some(&b"state v2 (bigger)"[..])
        );
        assert_eq!(c.checkpoints_written, 2);
        assert_eq!(c.checkpoint_corruptions, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The write side refuses what the read side would: a checkpoint
    /// over `max_len` is an error, nothing of it is written, and the one
    /// before it is still the one that loads.
    #[test]
    fn oversized_checkpoint_refused_and_previous_kept() {
        let dir = tmp_dir("oversize");
        let mut c = StorageCounters::default();
        save_checkpoint(&dir, 64, |buf| buf.extend_from_slice(b"fits"), &mut c).unwrap();
        let err =
            save_checkpoint(&dir, 64, |buf| buf.extend_from_slice(&[7; 65]), &mut c).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!dir.join(CHECKPOINT_TMP).exists());
        assert_eq!(
            load_checkpoint(&dir, 64, &mut c).unwrap().as_deref(),
            Some(&b"fits"[..])
        );
        assert_eq!((c.checkpoints_written, c.checkpoint_corruptions), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_treated_as_absent() {
        let dir = tmp_dir("corrupt");
        let mut c = StorageCounters::default();
        save(&dir, b"good state", &mut c);
        let path = dir.join(CHECKPOINT_FILE);

        // Bit flip.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(load_checkpoint(&dir, 1 << 20, &mut c).unwrap(), None);
        assert_eq!(c.checkpoint_corruptions, 1);

        // Truncation (torn write without the atomic rename).
        save(&dir, b"good state", &mut c);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(load_checkpoint(&dir, 1 << 20, &mut c).unwrap(), None);

        // Trailing garbage after a valid frame.
        save(&dir, b"good state", &mut c);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"junk");
        fs::write(&path, &bytes).unwrap();
        assert_eq!(load_checkpoint(&dir, 1 << 20, &mut c).unwrap(), None);
        assert_eq!(c.checkpoint_corruptions, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_swept_and_ignored() {
        let dir = tmp_dir("staletmp");
        let mut c = StorageCounters::default();
        save(&dir, b"committed", &mut c);
        // A crash mid-save leaves a tmp file; it must not shadow the
        // committed checkpoint.
        fs::write(dir.join(CHECKPOINT_TMP), b"half written ...").unwrap();
        assert_eq!(
            load_checkpoint(&dir, 1 << 20, &mut c).unwrap().as_deref(),
            Some(&b"committed"[..])
        );
        assert!(!dir.join(CHECKPOINT_TMP).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
