//! Disk-fault injection.
//!
//! Two complementary ways to hurt a log:
//!
//! * [`FaultFs`] — a [`SegmentFs`](crate::SegmentFs) that models the
//!   **page cache**: bytes written to a segment live in memory until
//!   `fsync`, exactly like an OS crash boundary. [`FaultHandle::crash`]
//!   then "pulls the power" with a chosen [`DiskFault`]: lose the whole
//!   unsynced tail (a partial fsync), persist only a prefix of it (a
//!   torn write), or persist it with a bit flipped (a write that hit
//!   the platter wrong). [`FaultHandle::lie_about_syncs`] makes a
//!   write cache that acknowledges an `fsync` and keeps the bytes, so a
//!   crash can also take back synced records. This exercises the
//!   *crash* half of the fault model with byte-level precision.
//! * Post-hoc injectors ([`truncate_tail`], [`flip_bit`],
//!   [`append_garbage`], [`append_oversized_header`],
//!   [`corrupt_checkpoint`]) — mutate the files of a closed log
//!   directly, modelling the *media* half: bit rot, a misdirected
//!   write, a filesystem that lost a tail at rest.
//!
//! Both halves feed the same requirement on recovery: roll back to the
//! last valid prefix, count what was discarded, never panic.

use crate::wal::{SegmentFile, SegmentFs, SEGMENT_SUFFIX};
use crate::CHECKPOINT_FILE;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// What the simulated power loss does to the unsynced tail of the
/// active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Partial fsync: every byte not yet synced vanishes.
    LoseUnsynced,
    /// Torn write: only the first `keep` bytes of the unsynced tail
    /// reach the file.
    TornTail {
        /// Bytes of the unsynced tail that survive.
        keep: usize,
    },
    /// The unsynced tail lands in full, but with one bit flipped at
    /// `offset` (into the unsynced region, clamped to its length).
    BitFlipTail {
        /// Byte offset of the flipped bit within the unsynced tail.
        offset: usize,
    },
}

#[derive(Debug, Default)]
struct FileState {
    file: Option<File>,
    unsynced: Vec<u8>,
    crashed: bool,
}

/// One segment as seen through the page-cache model.
#[derive(Debug)]
pub struct FaultyFile {
    path: PathBuf,
    state: Arc<Mutex<FileState>>,
    errors: Arc<InjectedErrors>,
    hook: Arc<Mutex<SyncHook>>,
}

/// A test's callback at every sync: the file's path and its unsynced
/// bytes.
type OnSync = Box<dyn FnMut(&Path, &[u8]) + Send>;

/// What [`FaultHandle::on_sync`] installed.
#[derive(Default)]
struct SyncHook(Option<OnSync>);

impl std::fmt::Debug for SyncHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SyncHook").field(&self.0.is_some()).finish()
    }
}

/// Faults a live disk starts showing before any crash.
#[derive(Debug, Default)]
struct InjectedErrors {
    write: AtomicBool,
    sync: AtomicBool,
    /// `sync` reports success and moves nothing to the file.
    lying_sync: AtomicBool,
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.errors.write.load(Ordering::Relaxed) {
            return Err(io::Error::other("injected write error"));
        }
        let mut st = self.state.lock().expect("fault state");
        if st.crashed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "disk crashed"));
        }
        st.unsynced.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SegmentFile for FaultyFile {
    fn sync(&mut self) -> io::Result<()> {
        if self.errors.sync.load(Ordering::Relaxed) {
            return Err(io::Error::other("injected sync error"));
        }
        let mut st = self.state.lock().expect("fault state");
        if st.crashed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "disk crashed"));
        }
        if self.errors.lying_sync.load(Ordering::Relaxed) {
            return Ok(());
        }
        let pending = std::mem::take(&mut st.unsynced);
        if let Some(hook) = self.hook.lock().expect("sync hook").0.as_mut() {
            hook(&self.path, &pending);
        }
        let file = st.file.as_mut().expect("backing file");
        file.write_all(&pending)?;
        file.sync_data()
    }
}

/// Shared control over every file a [`FaultFs`] has handed out.
#[derive(Debug, Clone, Default)]
pub struct FaultHandle {
    files: Arc<Mutex<Vec<Arc<Mutex<FileState>>>>>,
    errors: Arc<InjectedErrors>,
    hook: Arc<Mutex<SyncHook>>,
}

impl FaultHandle {
    /// From now on `hook` runs at every `sync` of any file, just before
    /// the synced bytes reach it, with the file's path and those bytes:
    /// a test's view of the disk at each durability point — to copy the
    /// data directory as a power cut right there would leave it, say.
    pub fn on_sync(&self, hook: impl FnMut(&Path, &[u8]) + Send + 'static) {
        self.hook.lock().expect("sync hook").0 = Some(Box::new(hook));
    }

    /// From now on every write to any segment fails (`EIO` on a disk
    /// that is still there).
    pub fn fail_writes(&self) {
        self.errors.write.store(true, Ordering::Relaxed);
    }

    /// From now on every `fsync` of any segment fails; writes still
    /// land in the page cache.
    pub fn fail_syncs(&self) {
        self.errors.sync.store(true, Ordering::Relaxed);
    }

    /// From now on every `fsync` of any segment reports success but
    /// leaves the bytes in the page cache — a write cache that lies
    /// about durability — so the next [`crash`](Self::crash) can take
    /// back records a sync acknowledged.
    pub fn lie_about_syncs(&self) {
        self.errors.lying_sync.store(true, Ordering::Relaxed);
    }

    /// Simulates power loss: applies `fault` to the most recently
    /// created segment's unsynced tail and poisons every file (further
    /// writes fail like a dead disk). Returns the number of unsynced
    /// bytes the fault had to play with.
    pub fn crash(&self, fault: DiskFault) -> io::Result<usize> {
        let files = self.files.lock().expect("fault files");
        let mut tail_len = 0;
        for (i, state) in files.iter().enumerate() {
            let mut st = state.lock().expect("fault state");
            let unsynced = std::mem::take(&mut st.unsynced);
            st.crashed = true;
            // Older files' unsynced bytes are simply lost; the fault
            // shape applies to the newest (the active segment).
            if i + 1 < files.len() {
                continue;
            }
            tail_len = unsynced.len();
            let survives: Vec<u8> = match fault {
                DiskFault::LoseUnsynced => Vec::new(),
                DiskFault::TornTail { keep } => unsynced[..keep.min(unsynced.len())].to_vec(),
                DiskFault::BitFlipTail { offset } => {
                    let mut bytes = unsynced;
                    if !bytes.is_empty() {
                        let at = offset.min(bytes.len() - 1);
                        bytes[at] ^= 0x10;
                    }
                    bytes
                }
            };
            if !survives.is_empty() {
                let file = st.file.as_mut().expect("backing file");
                file.write_all(&survives)?;
                file.sync_data()?;
            }
        }
        Ok(tail_len)
    }

    /// Total bytes currently buffered (written but not synced) across
    /// all files.
    pub fn unsynced_bytes(&self) -> usize {
        self.files
            .lock()
            .expect("fault files")
            .iter()
            .map(|s| s.lock().expect("fault state").unsynced.len())
            .sum()
    }
}

/// A [`SegmentFs`] whose files buffer writes until fsync. Create one,
/// keep its [`FaultHandle`], and pass it to
/// [`Wal::open_with_fs`](crate::Wal::open_with_fs).
#[derive(Debug, Default)]
pub struct FaultFs {
    handle: FaultHandle,
}

impl FaultFs {
    /// A fresh page-cache model plus the handle that crashes it.
    pub fn new() -> (FaultFs, FaultHandle) {
        let fs = FaultFs::default();
        let handle = fs.handle.clone();
        (fs, handle)
    }
}

impl SegmentFs for FaultFs {
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn SegmentFile>> {
        let state = Arc::new(Mutex::new(FileState {
            file: Some(File::create(path)?),
            unsynced: Vec::new(),
            crashed: false,
        }));
        self.handle
            .files
            .lock()
            .expect("fault files")
            .push(state.clone());
        Ok(Box::new(FaultyFile {
            path: path.to_path_buf(),
            state,
            errors: Arc::clone(&self.handle.errors),
            hook: Arc::clone(&self.handle.hook),
        }))
    }
}

/// The highest-numbered non-empty segment in `dir`, if any — the one a
/// crash would have been writing.
pub fn last_segment(dir: &Path) -> io::Result<Option<PathBuf>> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
        else {
            continue;
        };
        let Ok(id) = stem.parse::<u64>() else {
            continue;
        };
        if entry.metadata()?.len() == 0 {
            continue;
        }
        if best.as_ref().is_none_or(|(b, _)| id > *b) {
            best = Some((id, entry.path()));
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// Chops `bytes` off the end of the last segment (mid-record
/// truncation when `bytes` lands inside a frame). Returns the new
/// length.
pub fn truncate_tail(dir: &Path, bytes: u64) -> io::Result<u64> {
    let Some(path) = last_segment(dir)? else {
        return Ok(0);
    };
    let len = fs::metadata(&path)?.len();
    let new_len = len.saturating_sub(bytes);
    let f = OpenOptions::new().write(true).open(&path)?;
    f.set_len(new_len)?;
    f.sync_all()?;
    Ok(new_len)
}

/// Flips one bit `offset_from_end` bytes before the end of the last
/// segment (bit rot in a record body or header).
pub fn flip_bit(dir: &Path, offset_from_end: u64) -> io::Result<()> {
    let Some(path) = last_segment(dir)? else {
        return Ok(());
    };
    let mut bytes = fs::read(&path)?;
    if bytes.is_empty() {
        return Ok(());
    }
    let at = bytes.len().saturating_sub(1 + offset_from_end as usize);
    bytes[at] ^= 0x08;
    fs::write(&path, &bytes)
}

/// Appends raw garbage to the last segment (a misdirected write).
pub fn append_garbage(dir: &Path, garbage: &[u8]) -> io::Result<()> {
    let Some(path) = last_segment(dir)? else {
        return Ok(());
    };
    let mut f = OpenOptions::new().append(true).open(&path)?;
    f.write_all(garbage)
}

/// Appends a frame header declaring an absurd payload length to the
/// last segment — recovery's allocation guard must trip on the header
/// alone.
pub fn append_oversized_header(dir: &Path) -> io::Result<()> {
    let mut header = Vec::with_capacity(12);
    header.extend_from_slice(&icc_types::frame::MAGIC.to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    append_garbage(dir, &header)
}

/// Flips a bit in the checkpoint file, if one exists. Returns whether
/// there was a checkpoint to corrupt.
pub fn corrupt_checkpoint(dir: &Path) -> io::Result<bool> {
    let path = dir.join(CHECKPOINT_FILE);
    let mut bytes = match fs::read(&path) {
        Ok(b) if !b.is_empty() => b,
        Ok(_) => return Ok(false),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(&path, &bytes)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Wal, WalOptions};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icc-wal-fault-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(i: u64) -> Vec<u8> {
        format!("fault-record-{i}-{}", "y".repeat(24)).into_bytes()
    }

    /// Appends `synced` records, each synced, then writes `unsynced` more
    /// without a sync, then crashes.
    fn write_and_crash(dir: &Path, synced: u64, unsynced: u64, fault: DiskFault) {
        let (fs_impl, handle) = FaultFs::new();
        let opts = WalOptions::default();
        let (mut wal, recovered) = Wal::open_with_fs(dir, opts, Box::new(fs_impl)).unwrap();
        assert!(recovered.is_empty());
        for i in 0..synced {
            wal.append(i, &payload(i)).unwrap();
        }
        for i in synced..synced + unsynced {
            wal.append_with(i, |buf| buf.extend_from_slice(&payload(i)))
                .unwrap();
        }
        assert!(handle.unsynced_bytes() > 0 || unsynced == 0);
        handle.crash(fault).unwrap();
        // The wal object is now useless (poisoned disk); drop it like
        // the process dying.
        drop(wal);
    }

    #[test]
    fn partial_fsync_loses_only_unsynced_tail() {
        let dir = tmp_dir("partial");
        write_and_crash(&dir, 6, 4, DiskFault::LoseUnsynced);
        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 6, "synced prefix intact, tail gone");
        assert_eq!(recovered.last().unwrap().round, 5);
        assert_eq!(wal.counters().corrupt_records(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_synced_plus_complete_frames() {
        let dir = tmp_dir("torn");
        // Keep 1.5 records' worth of the unsynced tail: one complete
        // frame survives, the half frame is truncated away.
        let record_len = icc_types::frame::HEADER_LEN + 8 + payload(6).len();
        write_and_crash(
            &dir,
            6,
            4,
            DiskFault::TornTail {
                keep: record_len + record_len / 2,
            },
        );
        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 7, "6 synced + 1 complete torn-tail");
        assert_eq!(recovered.last().unwrap().round, 6);
        let c = wal.counters();
        assert_eq!(c.torn_tail_truncations, 1);
        assert!(c.discarded_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_tail_rolls_back_to_synced_prefix() {
        let dir = tmp_dir("flip");
        // Flip a bit in the first unsynced record's payload.
        write_and_crash(&dir, 6, 4, DiskFault::BitFlipTail { offset: 20 });
        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 6, "flipped record and after discarded");
        let c = wal.counters();
        assert_eq!(c.crc_corruptions, 1);
        assert!(c.discarded_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_with_nothing_synced_recovers_empty() {
        let dir = tmp_dir("empty");
        write_and_crash(&dir, 0, 5, DiskFault::LoseUnsynced);
        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(wal.counters().corrupt_records(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn post_hoc_injectors_cover_media_faults() {
        let dir = tmp_dir("media");
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            for i in 0..8 {
                wal.append(i, &payload(i)).unwrap();
            }
        }
        // Mid-record truncation.
        truncate_tail(&dir, 10).unwrap();
        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 7);
        assert_eq!(wal.counters().torn_tail_truncations, 1);
        drop(wal);
        // Oversized header appended after the valid prefix.
        append_oversized_header(&dir).unwrap();
        let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.len(), 7);
        assert_eq!(wal.counters().oversized_records, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
