//! Durable replica state: periodic checkpoints plus a write-ahead log.
//!
//! The paper's fault model includes parties that "simply crash" and may
//! come back (§1). A restarting replica must not forget what it helped
//! finalize — doing so would not violate safety (certificates protect
//! that) but would force a full re-sync and lose its input queue dedup.
//! [`DurableStore`] is the replica's "disk": it survives
//! [`ConsensusCore::crash`](crate::ConsensusCore::crash) while every
//! other field of the core is volatile.
//!
//! Where the bytes actually live is a [`StorageBackend`] decision:
//!
//! * [`MemBackend`] (the default) keeps nothing beyond the in-memory
//!   mirror below — the simulator's choice, byte-identical executions
//!   and no filesystem in the loop;
//! * [`FileBackend`] persists every append to an `icc-wal` segmented
//!   write-ahead log and every checkpoint to an atomic checkpoint file,
//!   syncing the log at the barrier below — the `replica --data-dir`
//!   choice. A fresh process pointed at the same directory recovers the
//!   store (and therefore the replica) from disk.
//!
//! Contents, whichever backend:
//!
//! * a [`Checkpoint`] — the latest finalized block at the time it was
//!   taken, with its notarization + finalization certificates and the
//!   beacon value of its round (the base the restored beacon chain and
//!   any later catch-up verification chains from);
//! * a [`WalEntry`] log of everything certified since the checkpoint:
//!   per-round beacon values, notarized blocks (body + certificate),
//!   finalizations, and committed command digests;
//! * the **history**: the digests of every command committed at or
//!   below the checkpoint, in the order the log held them. The set of
//!   commands committed up to a round is a function of the committed
//!   chain up to it, so the history only grows at its end: a checkpoint
//!   appends the digests of the rounds it covers and rewrites nothing.
//!
//! # Persist-then-send: what waits for the disk
//!
//! Appending a record only *writes* it. Whether anything has to wait
//! for the disk is decided once per consensus step, at the barrier
//! [`DurableStore::commit`] that [`ConsensusCore`](crate::ConsensusCore)
//! runs just before a public entry point hands out its
//! [`Step`](crate::Step).
//!
//! Every record is a **certified artifact** — a beacon value, a block
//! with its notarization, a finalization, the digests a finalized block
//! committed, an epoch transition. Every honest peer holds the same
//! artifact, so a crash before its sync costs a re-fetch, never a
//! property; appending one never forces a sync.
//!
//! What a peer cannot give back is this replica's own **promise**: that
//! it is done with round `k`. A finalization share for `B` says it
//! notarization-shared nothing but `B` in round `k` and never will
//! (P2's proof, §3, "N ⊆ {B}"), and its votes in round `k + 1` are cast
//! by a replica that will not go back either. The promise is not a
//! record of its own but a position in the journal: a step that ends a
//! round ([`DurableStore::promise`]) syncs at the barrier, `Notarized(k)`
//! included, and every artifact written since the last sync rides with
//! it. Restore resumes after the highest journalled notarization — past
//! every round the replica has promised to be done with, and at the
//! latest in the one round it may have released votes of, where it
//! withholds its finalization share because its `N` died with the
//! process. One sync a round instead of one per record, and no record
//! of the votes themselves.
//!
//! A write or sync that fails is reported at the barrier, which then
//! releases nothing of the step and halts the core (fail-stop): a
//! replica that cannot say where it stands stops signing.
//!
//! Restore (see [`ConsensusCore::restore`](crate::ConsensusCore::restore))
//! installs the checkpoint as a certified root and replays the log
//! through the pool's *trusted* path: every artifact in the store was
//! verified (or produced) by this replica before it was appended, so
//! replay performs **zero** signature verifications — the property the
//! `checkpoint_restore` proptests pin down and the `net_cluster`
//! restart assertion enforces end-to-end over a real `--data-dir`.
//!
//! Taking a checkpoint compacts the log: entries at or below the
//! checkpoint round are dropped (on disk: whole covered segments are
//! deleted), the digests of their `Committed` records appended to the
//! history first. The checkpoint stores its round's beacon value explicitly
//! because a finalization can commit round `k` while the replica is
//! still *in* round `k` — compaction could otherwise drop the
//! `Beacon(k)` entry the restored chain needs.

// Disk bytes are read here: nothing on disk may panic it.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

use crate::recovery::EpochTransition;
use icc_crypto::beacon::BeaconValue;
use icc_crypto::Hash256;
use icc_types::codec::{
    decode_from_slice, decode_seq, encode_seq, CodecError, Decode, Encode, Reader,
};
use icc_types::messages::{BlockProposal, Finalization, Notarization};
use icc_types::Round;
pub use icc_wal::StorageCounters;
use icc_wal::{OsFs, RecoveredRecord, SharedFs, Wal, WalOptions};
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One append-only log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// The computed beacon value of a round.
    Beacon(Round, BeaconValue),
    /// A block body (with authenticator) and, when known, its
    /// notarization certificate.
    Notarized {
        /// The block and its authenticator (`parent_notarization` is
        /// `None`; the parent's certificate has its own entry).
        proposal: BlockProposal,
        /// The `n − t` notarization, when it was known at append time.
        notarization: Option<Notarization>,
    },
    /// A finalization certificate.
    Finalization(Finalization),
    /// Command digests committed by a block (restores input dedup).
    Committed {
        /// The committed block's round.
        round: Round,
        /// Digests of the commands the block committed.
        digests: Vec<Hash256>,
    },
    /// An archived epoch-transition certificate (the handoff
    /// finalization of the outgoing epoch). Restoring it lets the
    /// replica serve cross-epoch catch-up packages without
    /// re-finalizing the boundary; like everything else in the log it
    /// replays trusted. Checkpoints carry the full transition chain
    /// themselves (see [`Checkpoint::transitions`]), so compaction may
    /// drop these entries.
    EpochTransition(EpochTransition),
}

impl WalEntry {
    /// The round the entry pertains to (drives compaction).
    pub fn round(&self) -> Round {
        match self {
            WalEntry::Beacon(r, _) => *r,
            WalEntry::Notarized { proposal, .. } => proposal.block.round(),
            WalEntry::Finalization(f) => f.block_ref.round,
            WalEntry::Committed { round, .. } => *round,
            WalEntry::EpochTransition(t) => t.round(),
        }
    }
}

impl Encode for WalEntry {
    /// On-disk record payload: a variant tag then the artifact's
    /// canonical wire encoding (the same codec artifacts use on the
    /// network, so there is exactly one byte format per artifact).
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalEntry::Beacon(r, v) => {
                buf.push(0);
                r.encode(buf);
                v.encode(buf);
            }
            WalEntry::Notarized {
                proposal,
                notarization,
            } => {
                buf.push(1);
                proposal.encode(buf);
                notarization.encode(buf);
            }
            WalEntry::Finalization(f) => {
                buf.push(2);
                f.encode(buf);
            }
            WalEntry::Committed { round, digests } => {
                buf.push(3);
                round.encode(buf);
                encode_seq(digests, buf);
            }
            WalEntry::EpochTransition(t) => {
                buf.push(4);
                t.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            WalEntry::Beacon(r, v) => Encode::encoded_len(r) + v.encoded_len(),
            WalEntry::Notarized {
                proposal,
                notarization,
            } => proposal.encoded_len() + notarization.encoded_len(),
            WalEntry::Finalization(f) => Encode::encoded_len(f),
            WalEntry::Committed { round, digests } => {
                Encode::encoded_len(round) + 8 + digests.len() * 32
            }
            WalEntry::EpochTransition(t) => Encode::encoded_len(t),
        }
    }
}

impl Decode for WalEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(WalEntry::Beacon(Round::decode(r)?, BeaconValue::decode(r)?)),
            1 => Ok(WalEntry::Notarized {
                proposal: BlockProposal::decode(r)?,
                notarization: Option::<Notarization>::decode(r)?,
            }),
            2 => Ok(WalEntry::Finalization(Finalization::decode(r)?)),
            3 => Ok(WalEntry::Committed {
                round: Round::decode(r)?,
                digests: decode_seq(r)?,
            }),
            4 => Ok(WalEntry::EpochTransition(EpochTransition::decode(r)?)),
            tag => Err(CodecError::InvalidTag {
                tag,
                ty: "WalEntry",
            }),
        }
    }
}

/// A certified snapshot: the latest finalized block when the checkpoint
/// was taken, everything needed to install it as a trusted root.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The finalized block with its authenticator.
    pub proposal: BlockProposal,
    /// Its notarization certificate.
    pub notarization: Notarization,
    /// Its finalization certificate.
    pub finalization: Finalization,
    /// The beacon value of the checkpoint round — the chaining base for
    /// restored and caught-up beacon segments.
    pub beacon: BeaconValue,
    /// The full cross-epoch certificate chain archived so far (one
    /// entry per activated epoch boundary, ascending). Carried by the
    /// checkpoint itself so log compaction can drop the
    /// [`WalEntry::EpochTransition`] records without the replica losing
    /// its ability to serve cross-epoch catch-up packages.
    pub transitions: Vec<EpochTransition>,
}

impl Checkpoint {
    /// The checkpointed round.
    pub fn round(&self) -> Round {
        self.proposal.block.round()
    }
}

impl Encode for Checkpoint {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.proposal.encode(buf);
        self.notarization.encode(buf);
        self.finalization.encode(buf);
        self.beacon.encode(buf);
        (self.transitions.len() as u64).encode(buf);
        for t in &self.transitions {
            t.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        self.proposal.encoded_len()
            + Encode::encoded_len(&self.notarization)
            + Encode::encoded_len(&self.finalization)
            + self.beacon.encoded_len()
            + 8
            + self
                .transitions
                .iter()
                .map(Encode::encoded_len)
                .sum::<usize>()
    }
}

impl Decode for Checkpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let proposal = BlockProposal::decode(r)?;
        let notarization = Notarization::decode(r)?;
        let finalization = Finalization::decode(r)?;
        let beacon = BeaconValue::decode(r)?;
        let tcount = u64::decode(r)?;
        if tcount > icc_types::codec::MAX_LEN {
            return Err(CodecError::LengthOverflow { len: tcount });
        }
        let mut transitions = Vec::with_capacity((tcount as usize).min(1024));
        for _ in 0..tcount {
            transitions.push(EpochTransition::decode(r)?);
        }
        Ok(Checkpoint {
            proposal,
            notarization,
            finalization,
            beacon,
            transitions,
        })
    }
}

/// Where durable state actually lives. [`DurableStore`] keeps an
/// in-memory mirror (the thing `restore` replays) and forwards every
/// mutation here; the backend's only obligations are to persist what it
/// is given and to hand back whatever survived on [`load`].
///
/// `persist_*` only write and return nothing: a protocol clause that
/// appends a record has no use for the error. The backend counts it in
/// [`StorageCounters::io_errors`] and keeps it for the step's barrier,
/// [`commit`](StorageBackend::commit), where the core stops (fail-stop)
/// instead of signing on without a journal.
///
/// [`load`]: StorageBackend::load
pub trait StorageBackend: Send {
    /// Returns everything that survived in this backend, once, at
    /// attach time: the checkpoint and the log, the history first, as
    /// `Committed` entries at or below the checkpoint round. Later calls
    /// may return empty.
    fn load(&mut self) -> (Option<Checkpoint>, Vec<WalEntry>);

    /// Writes one appended log entry; syncs nothing.
    fn persist_entry(&mut self, entry: &WalEntry);

    /// Persists a checkpoint (atomically) and compacts the persisted
    /// log up to the checkpoint round.
    fn persist_checkpoint(&mut self, cp: &Checkpoint);

    /// Forces everything appended so far durable (graceful shutdown).
    ///
    /// # Errors
    ///
    /// The first `persist_*` error not yet reported, if there is one
    /// (nothing is synced then); otherwise the sync's own error.
    fn flush(&mut self) -> io::Result<()>;

    /// The persist-then-send barrier, called once per consensus step,
    /// and the one place a storage error surfaces while the replica
    /// runs. With `sync`, the step made a promise: everything appended
    /// so far is durable when the call returns. A backend that wraps
    /// another must forward this call; the default flushes when `sync`
    /// is set.
    ///
    /// # Errors
    ///
    /// As [`flush`](StorageBackend::flush), whether or not `sync` is
    /// set.
    fn commit(&mut self, sync: bool) -> io::Result<()> {
        if sync {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Storage telemetry snapshot.
    fn counters(&self) -> StorageCounters;
}

/// The in-memory backend: persists nothing, loads nothing. With it the
/// [`DurableStore`] mirror *is* the store — exactly the pre-backend
/// behavior, keeping simulated executions deterministic and
/// filesystem-free.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemBackend;

impl StorageBackend for MemBackend {
    fn load(&mut self) -> (Option<Checkpoint>, Vec<WalEntry>) {
        (None, Vec::new())
    }
    fn persist_entry(&mut self, _entry: &WalEntry) {}
    fn persist_checkpoint(&mut self, _cp: &Checkpoint) {}
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn counters(&self) -> StorageCounters {
        StorageCounters::default()
    }
}

/// The dedup log's directory inside a data directory.
const DEDUP_DIR: &str = "dedup";

/// The file backend: a data directory of three parts (DESIGN.md §5f).
/// The journal is an [`icc_wal::Wal`] in `dir`, one record per entry,
/// keyed by the entry's round for segment compaction. The checkpoint is
/// an atomic `checkpoint.bin` beside it. The dedup log, the history on
/// disk, is a second [`icc_wal::Wal`] in `dir/dedup` over the same
/// segment filesystem: one record per checkpoint, the digests of the
/// journal's `Committed` records that checkpoint compacts away, in
/// journal order, under the checkpoint round. It is never compacted.
///
/// A checkpoint appends its dedup record, syncs the dedup log, writes
/// and renames `checkpoint.bin`, and then compacts the journal, each
/// step only once the one before it is durable. A power cut before the
/// rename leaves the old checkpoint and the whole journal, whose
/// `Committed` records the torn dedup record (cut by prefix recovery)
/// or the whole one (repeating them) was copying; one after it finds
/// the digests the journal no longer offers in the dedup log.
pub struct FileBackend {
    dir: PathBuf,
    wal: Wal,
    /// The dedup log.
    dedup: Wal,
    /// `(round, digest)` of each journal `Committed` record not yet in
    /// the dedup log, in journal order.
    uncompacted: Vec<(u64, Hash256)>,
    max_record_len: u32,
    /// What recovery found, handed out once via [`StorageBackend::load`].
    recovered: Option<(Option<Checkpoint>, Vec<WalEntry>)>,
    /// The first `persist_*` error no barrier has reported yet.
    failed: Option<io::Error>,
}

impl fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileBackend")
            .field("dir", &self.dir)
            .field("wal", &self.wal)
            .field("dedup", &self.dedup)
            .finish_non_exhaustive()
    }
}

impl FileBackend {
    /// Opens (or creates) the data directory and recovers whatever
    /// state survives in it.
    ///
    /// # Errors
    ///
    /// Real I/O errors only (directory not creatable, files not
    /// readable). *Damaged contents are not errors*: torn tails are
    /// truncated, corrupt records/checkpoints discarded and counted —
    /// the recovered state is the last valid prefix.
    pub fn open(dir: &Path, opts: WalOptions) -> io::Result<FileBackend> {
        FileBackend::open_with_fs(dir, opts, Box::new(OsFs))
    }

    /// [`FileBackend::open`] over a caller-supplied segment filesystem
    /// (the disk-fault injection harness).
    ///
    /// # Errors
    ///
    /// Same as [`FileBackend::open`].
    pub fn open_with_fs(
        dir: &Path,
        opts: WalOptions,
        fs: Box<dyn icc_wal::SegmentFs>,
    ) -> io::Result<FileBackend> {
        let fs = SharedFs::new(fs);
        let journal = Wal::open_with_fs(dir, opts, Box::new(fs.clone()))?;
        let dedup = Wal::open_with_fs(&dir.join(DEDUP_DIR), opts, Box::new(fs))?;
        Ok(FileBackend::finish_open(dir, opts, journal, dedup))
    }

    fn finish_open(
        dir: &Path,
        opts: WalOptions,
        (mut wal, records): (Wal, Vec<RecoveredRecord>),
        (mut dedup, history): (Wal, Vec<RecoveredRecord>),
    ) -> FileBackend {
        let checkpoint =
            match icc_wal::load_checkpoint(dir, opts.max_record_len, wal.counters_mut()) {
                Ok(Some(bytes)) => match decode_from_slice::<Checkpoint>(&bytes) {
                    Ok(cp) => Some(cp),
                    Err(_) => {
                        wal.counters_mut().decode_failures += 1;
                        None
                    }
                },
                Ok(None) => None,
                Err(_) => {
                    wal.counters_mut().io_errors += 1;
                    None
                }
            };
        // The history first, as the `Committed` entries it was taken
        // from, under the round of the checkpoint that wrote it.
        let mut entries = Vec::with_capacity(history.len() + records.len());
        for (i, rec) in history.iter().enumerate() {
            let Some(digests) = digests_of(&rec.payload) else {
                discard(dedup.counters_mut(), history.get(i..).unwrap_or_default());
                break;
            };
            let round = Round::new(rec.round);
            entries.push(WalEntry::Committed { round, digests });
        }
        // A crash can land between checkpoint write and WAL compaction:
        // records the checkpoint already covers are simply skipped (the
        // dedup record of their digests was synced before the rename).
        let bar = checkpoint.as_ref().map(|cp| cp.round().get());
        let mut uncompacted = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            if bar.is_some_and(|b| rec.round <= b) {
                continue;
            }
            let Ok(entry) = decode_from_slice::<WalEntry>(&rec.payload) else {
                discard(wal.counters_mut(), records.get(i..).unwrap_or_default());
                break;
            };
            if let WalEntry::Committed { round, digests } = &entry {
                uncompacted.extend(digests.iter().map(|d| (round.get(), *d)));
            }
            entries.push(entry);
        }
        FileBackend {
            dir: dir.to_path_buf(),
            wal,
            dedup,
            uncompacted,
            max_record_len: opts.max_record_len,
            recovered: Some((checkpoint, entries)),
            failed: None,
        }
    }

    /// The steps of a checkpoint, each only once the one before it is
    /// durable (type docs): a failure anywhere leaves the previous
    /// checkpoint current and the journal whole.
    fn checkpoint(&mut self, cp: &Checkpoint) -> io::Result<()> {
        let round = cp.round().get();
        let uncompacted = &self.uncompacted;
        if uncompacted.iter().any(|(r, _)| *r <= round) {
            self.dedup.append_with(round, |buf| {
                for (_, d) in uncompacted.iter().filter(|(r, _)| *r <= round) {
                    buf.extend_from_slice(&d.0);
                }
            })?;
            self.dedup.sync()?;
        }
        let max = self.max_record_len;
        icc_wal::save_checkpoint(
            &self.dir,
            max,
            |buf| cp.encode(buf),
            self.wal.counters_mut(),
        )?;
        self.wal.compact_below(round)?;
        self.uncompacted.retain(|(r, _)| *r > round);
        Ok(())
    }

    /// Counts a persistence error and keeps the first for the barrier.
    fn fail(&mut self, e: io::Error) {
        self.wal.counters_mut().io_errors += 1;
        self.failed.get_or_insert(e);
    }

    /// The data directory this backend persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl StorageBackend for FileBackend {
    fn load(&mut self) -> (Option<Checkpoint>, Vec<WalEntry>) {
        self.recovered.take().unwrap_or_default()
    }

    fn persist_entry(&mut self, entry: &WalEntry) {
        // An entry over `max_record_len` is refused by the log itself.
        let round = entry.round().get();
        if let Err(e) = self.wal.append_with(round, |buf| entry.encode(buf)) {
            self.fail(e);
        } else if let WalEntry::Committed { round, digests } = entry {
            let round = round.get();
            self.uncompacted.extend(digests.iter().map(|d| (round, *d)));
        }
    }

    fn persist_checkpoint(&mut self, cp: &Checkpoint) {
        if let Err(e) = self.checkpoint(cp) {
            self.fail(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.commit(true)
    }

    /// Reports the kept `persist_*` error; otherwise, with `sync`, syncs.
    fn commit(&mut self, sync: bool) -> io::Result<()> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        if !sync {
            return Ok(());
        }
        self.wal
            .sync()
            .inspect_err(|_| self.wal.counters_mut().io_errors += 1)
    }

    fn counters(&self) -> StorageCounters {
        // The dedup log's appends have two counters of their own, and
        // whatever its recovery met counts with the journal's. Its syncs
        // stay out of `fsyncs`, which counts the persist-then-send
        // barrier: the dedup log syncs once per record, so
        // `dedup_records` is its sync count.
        let mut dedup = self.dedup.counters();
        dedup.dedup_records = std::mem::take(&mut dedup.records_appended);
        dedup.dedup_bytes = std::mem::take(&mut dedup.bytes_appended);
        dedup.fsyncs = 0;
        dedup.fsync_total_us = 0;
        dedup.fsync_max_us = 0;
        let mut c = self.wal.counters();
        c.merge(&dedup);
        c
    }
}

/// Whole 32-byte digests, as a dedup record holds them, or `None`.
fn digests_of(payload: &[u8]) -> Option<Vec<Hash256>> {
    let chunks = payload.chunks_exact(32);
    if !chunks.remainder().is_empty() {
        return None;
    }
    chunks.map(|c| c.try_into().ok().map(Hash256)).collect()
}

/// Prefix invariant at the payload layer: a record that framed
/// correctly but does not decode ends the trusted log, and it and every
/// record after it count as discarded.
fn discard(counters: &mut StorageCounters, rest: &[RecoveredRecord]) {
    counters.decode_failures += 1;
    let bytes = rest.iter().map(|r| r.payload.len() as u64 + 8);
    counters.discarded_bytes += bytes.sum::<u64>();
}

/// The replica's durable state: at most one checkpoint plus the log of
/// certified artifacts since it, mirrored in memory (for replay) and
/// forwarded to a [`StorageBackend`] (for persistence).
pub struct DurableStore {
    checkpoint: Option<Checkpoint>,
    /// The digests of every command committed at or below the
    /// checkpoint, oldest first (module docs).
    history: Vec<Hash256>,
    wal: Vec<WalEntry>,
    /// Highest round whose beacon has been logged (dedup).
    beacon_upto: Round,
    /// `(round, block hash, notarization present)` triples already
    /// logged above the checkpoint.
    logged_blocks: BTreeSet<(Round, Hash256, bool)>,
    /// Blocks above the checkpoint whose finalization is already logged.
    logged_finalizations: BTreeSet<(Round, Hash256)>,
    /// Epoch indices whose transition certificate is already logged.
    logged_transitions: HashSet<u64>,
    wal_appends: u64,
    checkpoints_taken: u64,
    /// Entries (plus one per checkpoint) recovered from the backend at
    /// attach time.
    recovered_entries: u64,
    /// Whether the step in progress made a promise.
    promised: bool,
    backend: Box<dyn StorageBackend>,
}

impl fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableStore")
            .field(
                "checkpoint_round",
                &self.checkpoint.as_ref().map(Checkpoint::round),
            )
            .field("wal_len", &self.wal.len())
            .field("wal_appends", &self.wal_appends)
            .field("checkpoints_taken", &self.checkpoints_taken)
            .field("recovered_entries", &self.recovered_entries)
            .finish_non_exhaustive()
    }
}

impl Default for DurableStore {
    fn default() -> Self {
        DurableStore::new()
    }
}

impl DurableStore {
    /// An empty in-memory store (fresh simulated replica).
    pub fn new() -> DurableStore {
        DurableStore::with_backend(Box::new(MemBackend))
    }

    /// A store over `backend`: whatever the backend recovered becomes
    /// the initial mirror (checkpoint, log, and the dedup sets derived
    /// from them), so a restore right after attach replays it.
    pub fn with_backend(mut backend: Box<dyn StorageBackend>) -> DurableStore {
        let (checkpoint, entries) = backend.load();
        let bar = checkpoint.as_ref().map(Checkpoint::round);
        let mut store = DurableStore {
            checkpoint: None,
            history: Vec::new(),
            wal: Vec::new(),
            beacon_upto: Round::GENESIS,
            logged_blocks: BTreeSet::new(),
            logged_finalizations: BTreeSet::new(),
            logged_transitions: HashSet::new(),
            wal_appends: 0,
            checkpoints_taken: 0,
            recovered_entries: 0,
            promised: false,
            backend,
        };
        if let Some(cp) = checkpoint {
            store.beacon_upto = cp.round();
            store
                .logged_transitions
                .extend(cp.transitions.iter().map(|t| t.epoch));
            store.checkpoint = Some(cp);
            store.recovered_entries += 1;
        }
        for entry in entries {
            match &entry {
                WalEntry::Beacon(r, _) => store.beacon_upto = store.beacon_upto.max(*r),
                WalEntry::Notarized {
                    proposal,
                    notarization,
                } => {
                    let block = &proposal.block;
                    let key = (block.round(), block.hash(), notarization.is_some());
                    store.logged_blocks.insert(key);
                }
                WalEntry::Finalization(f) => {
                    let key = (f.block_ref.round, f.block_ref.hash);
                    store.logged_finalizations.insert(key);
                }
                WalEntry::Committed { round, digests } if bar.is_some_and(|b| *round <= b) => {
                    store.history.extend_from_slice(digests);
                    store.recovered_entries += 1;
                    continue;
                }
                WalEntry::Committed { .. } => {}
                WalEntry::EpochTransition(t) => {
                    store.logged_transitions.insert(t.epoch);
                }
            }
            store.wal.push(entry);
            store.recovered_entries += 1;
        }
        store
    }

    /// A store persisted to `dir` through a [`FileBackend`].
    ///
    /// # Errors
    ///
    /// Real I/O errors from opening the directory; damaged contents
    /// recover to the last valid prefix instead of erroring.
    pub fn file(dir: &Path, opts: WalOptions) -> io::Result<DurableStore> {
        Ok(DurableStore::with_backend(Box::new(FileBackend::open(
            dir, opts,
        )?)))
    }

    /// Writes one record through the backend and mirrors it in memory.
    fn append(&mut self, entry: WalEntry) {
        self.backend.persist_entry(&entry);
        self.wal.push(entry);
        self.wal_appends += 1;
    }

    /// Logs a round's beacon value (at most once per round).
    pub fn append_beacon(&mut self, round: Round, value: BeaconValue) {
        if round > self.beacon_upto {
            self.beacon_upto = round;
            self.append(WalEntry::Beacon(round, value));
        }
    }

    /// Whether the checkpoint already vouches for `round`: what it
    /// covers is never logged again.
    fn covered(&self, round: Round) -> bool {
        self.checkpoint
            .as_ref()
            .is_some_and(|cp| round <= cp.round())
    }

    /// Logs a block body and (optionally) its notarization. Re-appending
    /// the same `(block, has-notarization)` shape is a no-op, so a block
    /// first logged bare can later be upgraded with its certificate.
    pub fn append_block(&mut self, proposal: BlockProposal, notarization: Option<Notarization>) {
        let block = &proposal.block;
        let key = (block.round(), block.hash(), notarization.is_some());
        if !self.covered(key.0) && self.logged_blocks.insert(key) {
            self.append(WalEntry::Notarized {
                proposal,
                notarization,
            });
        }
    }

    /// Logs a finalization certificate (at most once per block).
    pub fn append_finalization(&mut self, f: Finalization) {
        let key = (f.block_ref.round, f.block_ref.hash);
        if !self.covered(key.0) && self.logged_finalizations.insert(key) {
            self.append(WalEntry::Finalization(f));
        }
    }

    /// Logs an epoch-transition certificate (at most once per epoch).
    pub fn append_epoch_transition(&mut self, t: EpochTransition) {
        if self.logged_transitions.insert(t.epoch) {
            self.append(WalEntry::EpochTransition(t));
        }
    }

    /// Logs the command digests a block committed.
    pub fn append_committed(&mut self, round: Round, digests: Vec<Hash256>) {
        if !digests.is_empty() {
            self.append(WalEntry::Committed { round, digests });
        }
    }

    /// Marks the step in progress as one that makes a promise — it ends
    /// a round, or puts this replica in one by another way (module
    /// docs): its barrier ([`commit`](Self::commit)) waits for the disk.
    pub fn promise(&mut self) {
        self.promised = true;
    }

    /// The persist-then-send barrier, run once where a consensus step
    /// leaves the core: if the step made a promise, everything appended
    /// so far is synced; any other step waits for nothing.
    ///
    /// # Errors
    ///
    /// A write or sync failed since the last barrier. The caller must
    /// release nothing of the step.
    pub fn commit(&mut self) -> io::Result<()> {
        let sync = std::mem::take(&mut self.promised);
        self.backend.commit(sync)
    }

    /// Installs a checkpoint and compacts the log: entries at or below
    /// the checkpoint round are dropped (the checkpoint carries the
    /// beacon base itself; the digests of `Committed` entries go to the
    /// history), and with them the memory of having logged them. The
    /// backend persists the checkpoint atomically and compacts its own
    /// log to match.
    pub fn install_checkpoint(&mut self, cp: Checkpoint) {
        let bar = cp.round();
        let history = &mut self.history;
        self.wal.retain(|e| match e {
            WalEntry::Committed { round, digests } if *round <= bar => {
                history.extend_from_slice(digests);
                false
            }
            e => e.round() > bar,
        });
        let above = bar.next();
        self.logged_blocks = self.logged_blocks.split_off(&(above, Hash256::ZERO, false));
        self.logged_finalizations = self.logged_finalizations.split_off(&(above, Hash256::ZERO));
        self.backend.persist_checkpoint(&cp);
        self.checkpoint = Some(cp);
        self.checkpoints_taken += 1;
    }

    /// The installed checkpoint, if any.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoint.as_ref()
    }

    /// The digests of every command committed at or below the
    /// checkpoint, oldest first.
    pub fn history(&self) -> &[Hash256] {
        &self.history
    }

    /// The log entries since the checkpoint, in append order.
    pub fn wal(&self) -> &[WalEntry] {
        &self.wal
    }

    /// What the store holds in memory (diagnostics): the log mirror and
    /// the two dedup sets, all bounded by the rounds since the
    /// checkpoint.
    pub fn footprint(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("store_wal_entries", self.wal.len() as u64),
            ("store_logged_blocks", self.logged_blocks.len() as u64),
            (
                "store_logged_finalizations",
                self.logged_finalizations.len() as u64,
            ),
        ]
    }

    /// Lifetime count of log appends by this incarnation (recovered
    /// entries not included; see
    /// [`recovered_entries`](Self::recovered_entries)).
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends
    }

    /// Lifetime count of checkpoints taken.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }

    /// Checkpoint + entries recovered from the backend at attach time.
    pub fn recovered_entries(&self) -> u64 {
        self.recovered_entries
    }

    /// The store's round frontier: the highest round any durable record
    /// covers (checkpoint or log). `Round::GENESIS` when empty.
    pub fn frontier(&self) -> Round {
        let cp = self
            .checkpoint
            .as_ref()
            .map_or(Round::GENESIS, Checkpoint::round);
        self.wal.iter().map(WalEntry::round).fold(cp, Round::max)
    }

    /// Whether nothing durable has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.checkpoint.is_none() && self.wal.is_empty()
    }

    /// Forces everything appended so far durable (graceful shutdown).
    ///
    /// # Errors
    ///
    /// The backend's I/O error, if a write since the last flush or the
    /// flush itself failed.
    pub fn flush(&mut self) -> io::Result<()> {
        self.backend.flush()
    }

    /// The backend's storage telemetry (all zeros for [`MemBackend`]).
    pub fn storage_counters(&self) -> StorageCounters {
        self.backend.counters()
    }
}
