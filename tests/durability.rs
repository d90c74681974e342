//! On-disk durability acceptance: the `WalEntry` codec roundtrips
//! through the exact on-disk record format, every injected disk fault
//! recovers to the last valid prefix without panicking, and a
//! file-backed cluster power-cycled K times restores each node from its
//! own WAL — monotone frontier, **zero** signature re-verifications.

use icc_core::cluster::ClusterBuilder;
use icc_core::storage::{Checkpoint, DurableStore, FileBackend, WalEntry};
use icc_crypto::beacon::BeaconValue;
use icc_crypto::multisig::MultiSig;
use icc_crypto::sig::Signature;
use icc_crypto::Hash256;
use icc_gossip::{GossipConfig, GossipNode, Overlay};
use icc_sim::delay::FixedDelay;
use icc_types::block::{Block, Payload};
use icc_types::codec::{decode_from_slice, encode_to_vec, Encode};
use icc_types::frame::{encode_frame, frame, FrameBuffer, HEADER_LEN};
use icc_types::messages::{BlockProposal, BlockRef, Finalization, Notarization};
use icc_types::{NodeIndex, Round, SimDuration};
use icc_wal::fault::{self, DiskFault, FaultFs};
use icc_wal::{FsyncPolicy, Wal, WalOptions};
use proptest::prelude::*;
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique, pre-cleaned scratch directory per call (tests in this
/// binary run in parallel threads of one process).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "icc_durability_{}_{}_{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn per_commit() -> WalOptions {
    WalOptions {
        fsync: FsyncPolicy::PerCommit,
        ..WalOptions::default()
    }
}

// ---- synthetic artifact fixtures (structural, not verified: the codec
// and the storage layer never check signatures) ----

fn block(round: u64, cmds: usize, size: usize) -> Block {
    Block::new(
        Round::new(round),
        NodeIndex::new((round % 4) as u32),
        Hash256([round as u8; 32]),
        Payload::synthetic(cmds, size, Round::new(round)),
    )
}

fn proposal(round: u64, cmds: usize, size: usize) -> BlockProposal {
    BlockProposal {
        block: block(round, cmds, size).into_hashed(),
        authenticator: Signature::from_value(round ^ 0xa5),
        parent_notarization: None,
    }
}

fn multisig(seed: u64, signers: &[u32]) -> MultiSig {
    MultiSig {
        signature: Signature::from_value(seed),
        signers: signers.to_vec().into(),
    }
}

fn notarization(round: u64, cmds: usize, size: usize) -> Notarization {
    Notarization {
        block_ref: BlockRef::of(&block(round, cmds, size)),
        sig: multisig(round.wrapping_mul(31), &[0, 1, 2]),
    }
}

fn finalization(round: u64, cmds: usize, size: usize) -> Finalization {
    Finalization {
        block_ref: BlockRef::of(&block(round, cmds, size)),
        sig: multisig(round.wrapping_mul(37), &[1, 2, 3]),
    }
}

fn entry(round: u64, variant: u8, cmds: usize, size: usize) -> WalEntry {
    match variant % 5 {
        0 => WalEntry::Beacon(
            Round::new(round),
            BeaconValue::Signature(Signature::from_value(round)),
        ),
        1 => WalEntry::Notarized {
            proposal: proposal(round, cmds, size),
            notarization: Some(notarization(round, cmds, size)),
        },
        2 => WalEntry::Notarized {
            proposal: proposal(round, cmds, size),
            notarization: None,
        },
        3 => WalEntry::Finalization(finalization(round, cmds, size)),
        _ => WalEntry::Committed {
            round: Round::new(round),
            digests: (0..cmds as u64).map(|i| Hash256([i as u8; 32])).collect(),
        },
    }
}

fn checkpoint(round: u64) -> Checkpoint {
    Checkpoint {
        proposal: proposal(round, 2, 24),
        notarization: notarization(round, 2, 24),
        finalization: finalization(round, 2, 24),
        beacon: BeaconValue::Signature(Signature::from_value(round ^ 0xbea)),
        committed: vec![Hash256([7u8; 32]), Hash256([9u8; 32])],
        transitions: Vec::new(),
    }
}

/// Fills `store` with a plausible consensus history over `rounds`.
fn populate(store: &mut DurableStore, rounds: std::ops::RangeInclusive<u64>) {
    for r in rounds {
        store.append_beacon(
            Round::new(r),
            BeaconValue::Signature(Signature::from_value(r)),
        );
        store.append_block(proposal(r, 2, 24), Some(notarization(r, 2, 24)));
        store.append_finalization(finalization(r, 2, 24));
        store.append_committed(Round::new(r), vec![Hash256([r as u8; 32])]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `WalEntry` ↔ on-disk record: the codec roundtrips, and so does
    /// the full record format (8-byte LE round prefix + entry bytes,
    /// CRC-framed) that `icc-wal` actually writes.
    #[test]
    fn prop_wal_entry_roundtrips_through_record_format(
        round in 1u64..1_000_000,
        variant in 0u8..5,
        cmds in 0usize..6,
        size in 1usize..64,
    ) {
        let e = entry(round, variant, cmds, size);
        // Codec layer: one canonical byte form, length exact.
        let bytes = encode_to_vec(&e);
        prop_assert_eq!(bytes.len(), e.encoded_len());
        let back: WalEntry = decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(&back, &e);

        // Record layer: the exact on-disk framing `icc-wal` uses.
        let mut record = e.round().get().to_le_bytes().to_vec();
        record.extend_from_slice(&bytes);
        let wire = encode_frame(&record);
        // …which the in-place writer (`Wal::append_with`) reproduces
        // byte for byte without the intermediate `bytes`/`record`.
        let mut in_place = Vec::new();
        frame(&mut in_place, |buf| {
            buf.extend_from_slice(&e.round().get().to_le_bytes());
            e.encode(buf);
        });
        prop_assert_eq!(&in_place, &wire);
        let mut buf = FrameBuffer::new();
        buf.extend(&wire);
        let payload = buf.next_frame().unwrap().expect("one whole frame");
        let round_back = u64::from_le_bytes(payload[..8].try_into().unwrap());
        prop_assert_eq!(round_back, e.round().get());
        let disk: WalEntry = decode_from_slice(&payload[8..]).unwrap();
        prop_assert_eq!(disk, e);
    }

    /// The same roundtrip through a real file: append (encoding in
    /// place, as `FileBackend` does), reopen, compare.
    #[test]
    fn prop_wal_entry_survives_real_disk(
        round in 1u64..1_000_000,
        variant in 0u8..5,
        cmds in 0usize..4,
        size in 1usize..48,
    ) {
        let dir = scratch("disk_roundtrip");
        let e = entry(round, variant, cmds, size);
        {
            let (mut wal, recovered) = Wal::open(&dir, per_commit()).unwrap();
            prop_assert!(recovered.is_empty());
            wal.append_with(e.round().get(), |buf| e.encode(buf)).unwrap();
        }
        let (_, recovered) = Wal::open(&dir, per_commit()).unwrap();
        prop_assert_eq!(recovered.len(), 1);
        prop_assert_eq!(recovered[0].round, e.round().get());
        let back: WalEntry = decode_from_slice(&recovered[0].payload).unwrap();
        prop_assert_eq!(back, e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoint codec roundtrip (the atomic-file payload).
    #[test]
    fn prop_checkpoint_roundtrips(round in 1u64..1_000_000) {
        let cp = checkpoint(round);
        let bytes = encode_to_vec(&cp);
        prop_assert_eq!(bytes.len(), cp.encoded_len());
        let back: Checkpoint = decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(back, cp);
    }
}

/// Every post-hoc disk fault recovers to the last valid prefix — no
/// panic, the damage counted in the right `StorageCounters` field, and
/// the store usable (appendable, re-recoverable) afterwards.
#[test]
fn fault_matrix_recovers_to_valid_prefix() {
    type Inject = fn(&std::path::Path);
    type CounterOf = fn(&icc_wal::StorageCounters) -> u64;
    let faults: [(&str, Inject, CounterOf); 5] = [
        (
            "torn_tail_small",
            |d| {
                fault::truncate_tail(d, 3).unwrap();
            },
            |c| c.torn_tail_truncations,
        ),
        (
            "torn_tail_mid_record",
            |d| {
                fault::truncate_tail(d, 25).unwrap();
            },
            |c| c.torn_tail_truncations,
        ),
        (
            "bit_flip",
            |d| {
                fault::flip_bit(d, 40).unwrap();
            },
            |c| c.crc_corruptions,
        ),
        (
            "garbage_tail",
            |d| {
                fault::append_garbage(d, b"\xde\xad\xbe\xef not a frame").unwrap();
            },
            |c| c.corrupt_records() + c.torn_tail_truncations,
        ),
        (
            "oversized_header",
            |d| {
                fault::append_oversized_header(d).unwrap();
            },
            |c| c.oversized_records,
        ),
    ];

    for (name, inject, counted) in faults {
        let dir = scratch(name);
        {
            let mut store = DurableStore::file(&dir, per_commit()).unwrap();
            populate(&mut store, 1..=12);
            assert_eq!(store.frontier().get(), 12, "{name}");
        }
        inject(&dir);

        // Recovery: no panic, a valid prefix, the fault visible in
        // telemetry.
        let mut store = DurableStore::file(&dir, per_commit()).unwrap();
        let counters = store.storage_counters();
        assert!(
            counted(&counters) >= 1,
            "{name}: fault not counted: {counters:?}"
        );
        assert!(store.frontier().get() <= 12, "{name}");
        assert!(
            store.recovered_entries() >= 1,
            "{name}: lost the whole log: {counters:?}"
        );
        let recovered = store.recovered_entries();

        // The store keeps working: new appends land after the prefix
        // and survive another restart.
        store.append_beacon(
            Round::new(100),
            BeaconValue::Signature(Signature::from_value(100)),
        );
        drop(store);
        let store = DurableStore::file(&dir, per_commit()).unwrap();
        assert_eq!(store.frontier().get(), 100, "{name}");
        assert_eq!(store.recovered_entries(), recovered + 1, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A corrupted checkpoint file is discarded (counted, not fatal); the
/// replica falls back to whatever the WAL still holds.
#[test]
fn corrupt_checkpoint_falls_back_to_wal() {
    let dir = scratch("corrupt_checkpoint");
    {
        let mut store = DurableStore::file(&dir, per_commit()).unwrap();
        populate(&mut store, 1..=10);
        store.install_checkpoint(checkpoint(6));
        assert_eq!(store.checkpoint().unwrap().round().get(), 6);
    }
    assert!(fault::corrupt_checkpoint(&dir).unwrap());

    let store = DurableStore::file(&dir, per_commit()).unwrap();
    let counters = store.storage_counters();
    assert_eq!(counters.checkpoint_corruptions, 1, "{counters:?}");
    assert!(store.checkpoint().is_none());
    // Compaction removed *whole sealed segments* below the checkpoint;
    // with one live segment everything is still in the WAL, so the
    // post-checkpoint rounds (7..=10) are certainly recovered.
    assert_eq!(store.frontier().get(), 10);
    assert!(store.recovered_entries() >= 4 * 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The page-cache fault model: writes that were never fsynced can be
/// lost, torn, or bit-flipped at crash time. Whatever the fault, the
/// synced prefix survives byte-for-byte.
#[test]
fn unsynced_tail_faults_keep_synced_prefix() {
    for fault in [
        DiskFault::LoseUnsynced,
        DiskFault::TornTail { keep: 13 },
        DiskFault::BitFlipTail { offset: 5 },
    ] {
        let dir = scratch("page_cache");
        let (fs, handle) = FaultFs::new();
        // A window/batch large enough that nothing syncs on its own:
        // only the explicit `flush` below makes bytes durable.
        let lazy = WalOptions {
            fsync: FsyncPolicy::Group {
                max_pending: usize::MAX,
                window: std::time::Duration::from_secs(3600),
            },
            ..WalOptions::default()
        };
        let backend = FileBackend::open_with_fs(&dir, lazy, Box::new(fs)).unwrap();
        let mut store = DurableStore::with_backend(Box::new(backend));
        populate(&mut store, 1..=8);
        store.flush().unwrap(); // rounds 1..=8 now durable
        populate(&mut store, 9..=16); // rounds 9..=16 in the page cache
        assert!(handle.unsynced_bytes() > 0);
        handle.crash(fault).unwrap();
        drop(store); // poisoned file: further writes are moot

        let store = DurableStore::file(&dir, per_commit()).unwrap();
        let frontier = store.frontier().get();
        assert!(
            (8..=16).contains(&frontier),
            "{fault:?}: synced prefix lost (frontier {frontier})"
        );
        // The synced prefix is complete: all four entry kinds of rounds
        // 1..=8 plus however much of the tail survived.
        assert!(
            store.recovered_entries() >= 8 * 4,
            "{fault:?}: only {} entries recovered",
            store.recovered_entries()
        );
        if fault == DiskFault::LoseUnsynced {
            assert_eq!(frontier, 8, "exactly the synced prefix");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Restart loop: a 4-node file-backed gossip cluster is power-cycled
/// K times (every node torn down and rebuilt from its `--data-dir`
/// equivalent). Each incarnation must recover at least its predecessor's
/// frontier — monotone, with zero restore re-verifications — and the
/// cluster must keep committing and agreeing.
#[test]
fn restart_loop_recovers_monotone_frontier_with_zero_reverification() {
    const N: usize = 4;
    const K: usize = 3;
    let dirs: Vec<PathBuf> = (0..N)
        .map(|i| scratch(&format!("restart_loop_{i}")))
        .collect();
    let mut prev_frontier = [0u64; N];
    let mut prev_committed = [0u64; N];

    for incarnation in 0..K {
        let overlay = Arc::new(Overlay::full_mesh(N));
        let cfg = GossipConfig {
            inline_threshold: 0,
            ..GossipConfig::default()
        };
        let idx = Cell::new(0usize);
        let dirs_ref = dirs.clone();
        let mut cluster = ClusterBuilder::new(N)
            .seed(77)
            .network(FixedDelay::new(SimDuration::from_millis(10)))
            .protocol_delays(SimDuration::from_millis(60), SimDuration::ZERO)
            .checkpoint_interval(8)
            .build_with(move |core| {
                let i = idx.get();
                idx.set(i + 1);
                let store = DurableStore::file(&dirs_ref[i], per_commit()).expect("open data dir");
                GossipNode::new(core.with_store(store), Arc::clone(&overlay), cfg)
            });
        cluster.run_for(SimDuration::from_secs(3));

        for i in 0..N {
            let core = cluster.sim.node(i).core();
            let rec = core.recovery_stats();
            assert_eq!(
                rec.restore_verifications, 0,
                "incarnation {incarnation}, node {i}: restore re-verified signatures"
            );
            if incarnation > 0 {
                assert_eq!(
                    rec.restarts, 1,
                    "incarnation {incarnation}, node {i}: no restore happened"
                );
                assert!(
                    core.last_recovered_round() >= prev_frontier[i],
                    "incarnation {incarnation}, node {i}: frontier went backwards \
                     (recovered {} < previous {})",
                    core.last_recovered_round(),
                    prev_frontier[i]
                );
            }
            let committed = cluster.committed_round(i);
            assert!(
                committed > prev_committed[i],
                "incarnation {incarnation}, node {i}: no progress past round {committed}"
            );
            prev_committed[i] = committed;
            let frontier = core.store().frontier().get();
            assert!(
                frontier >= prev_frontier[i],
                "incarnation {incarnation}, node {i}: durable frontier shrank"
            );
            prev_frontier[i] = frontier;
        }
        cluster.assert_safety();
    }
    // Three incarnations of ~25 rounds each actually accumulated.
    assert!(
        prev_frontier.iter().all(|&f| f > 40),
        "cluster barely progressed across restarts: {prev_frontier:?}"
    );
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Crash *during a reshare window*: the whole cluster is torn down
/// after the epoch boundary activated but **before the next
/// checkpoint**, so the `EpochTransition` handoff certificate exists
/// only as a WAL entry. Every node must recover into the correct epoch
/// purely from trusted replay — zero signature re-verifications — and
/// still be able to serve the cross-epoch certificate chain afterwards.
#[test]
fn crash_during_reshare_recovers_into_correct_epoch() {
    use icc_core::epoch::{EpochSchedule, EpochSpec};
    const N: usize = 5;
    const BOUNDARY: u64 = 20;
    let schedule = EpochSchedule::new(vec![
        EpochSpec::new(Round::GENESIS, vec![0, 1, 2, 3]),
        EpochSpec::new(Round::new(BOUNDARY), vec![0, 1, 2, 4]),
    ]);
    let dirs: Vec<PathBuf> = (0..N)
        .map(|i| scratch(&format!("reshare_crash_{i}")))
        .collect();

    let build = |dirs: &[PathBuf], schedule: &EpochSchedule| {
        let overlay = Arc::new(Overlay::full_mesh(N));
        let cfg = GossipConfig {
            inline_threshold: 0,
            ..GossipConfig::default()
        };
        let idx = Cell::new(0usize);
        let dirs_ref = dirs.to_vec();
        ClusterBuilder::new(N)
            .seed(31)
            .network(FixedDelay::new(SimDuration::from_millis(10)))
            .protocol_delays(SimDuration::from_millis(60), SimDuration::ZERO)
            // A cadence so sparse the first checkpoint would land far
            // past the boundary: the transition cert stays WAL-only.
            .checkpoint_interval(64)
            .with_epochs(schedule.clone())
            .build_with(move |core| {
                let i = idx.get();
                idx.set(i + 1);
                let store = DurableStore::file(&dirs_ref[i], per_commit()).expect("open data dir");
                GossipNode::new(core.with_store(store), Arc::clone(&overlay), cfg)
            })
    };

    // Incarnation 1: cross the boundary, then power off mid-window.
    let mut committed_before = [0u64; N];
    {
        let mut cluster = build(&dirs, &schedule);
        cluster.run_for(SimDuration::from_millis(1200));
        for (i, before) in committed_before.iter_mut().enumerate() {
            *before = cluster.committed_round(i);
            assert!(
                (BOUNDARY + 2..64).contains(before),
                "node {i} must crash inside the reshare-to-checkpoint window \
                 (committed {before})"
            );
            let cp = cluster.sim.node(i).core().store().checkpoint();
            assert!(
                cp.is_none(),
                "node {i}: a checkpoint landed before the crash; the test \
                 would not exercise WAL-only transition recovery"
            );
        }
        cluster.assert_safety();
    }

    // Incarnation 2: recover from disk alone.
    let mut cluster = build(&dirs, &schedule);
    for i in 0..N {
        let core = cluster.sim.node(i).core();
        let rec = core.recovery_stats();
        assert_eq!(rec.restarts, 1, "node {i} must have restored");
        assert_eq!(
            rec.restore_verifications, 0,
            "node {i}: restore re-verified signatures"
        );
        assert!(
            core.last_recovered_round() >= BOUNDARY,
            "node {i} recovered only to round {}",
            core.last_recovered_round()
        );
    }
    // The restored replicas resumed in epoch 1 and still serve the
    // certified handoff chain: the transition cert was replayed from
    // the WAL (no checkpoint ever carried it).
    let pkg = cluster
        .sim
        .node(0)
        .core()
        .build_catch_up_package(Round::GENESIS)
        .expect("restored replica holds a finalized chain");
    assert_eq!(
        pkg.transitions.iter().map(|t| t.epoch).collect::<Vec<_>>(),
        vec![1],
        "the epoch-1 handoff certificate must survive the crash"
    );

    // And the cluster keeps finalizing in the new epoch.
    cluster.run_for(SimDuration::from_secs(2));
    cluster.assert_safety();
    for (i, before) in committed_before.iter().enumerate() {
        assert!(
            cluster.committed_round(i) > before + 10,
            "node {i} stalled after the reshare crash"
        );
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Group and periodic fsync policies batch their syncs but still
/// recover everything after a clean flush (the clean-shutdown contract
/// `replica` relies on for SIGTERM).
#[test]
fn lazy_fsync_policies_recover_after_flush() {
    for policy in [
        FsyncPolicy::Group {
            max_pending: 16,
            window: std::time::Duration::from_millis(50),
        },
        FsyncPolicy::Periodic {
            interval: std::time::Duration::from_millis(50),
        },
    ] {
        let dir = scratch("lazy_fsync");
        let opts = WalOptions {
            fsync: policy,
            ..WalOptions::default()
        };
        {
            let mut store = DurableStore::file(&dir, opts).unwrap();
            populate(&mut store, 1..=20);
            store.flush().unwrap();
        }
        let store = DurableStore::file(&dir, per_commit()).unwrap();
        assert_eq!(store.frontier().get(), 20, "{policy:?}");
        assert_eq!(store.recovered_entries(), 20 * 4, "{policy:?}");
        let counters = store.storage_counters();
        assert_eq!(counters.corrupt_records(), 0, "{policy:?}: {counters:?}");
        assert_eq!(counters.torn_tail_truncations, 0, "{policy:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A record too small to even hold its round prefix is malformed, ends
/// the trusted prefix, and is counted — never panics.
#[test]
fn short_record_ends_prefix() {
    let dir = scratch("short_record");
    {
        let (mut wal, _) = Wal::open(&dir, per_commit()).unwrap();
        wal.append(1, b"fine").unwrap();
    }
    // A validly framed record whose payload is shorter than the 8-byte
    // round prefix.
    let seg = fault::last_segment(&dir).unwrap().unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&encode_frame(b"abc"));
    std::fs::write(&seg, &bytes).unwrap();

    let (wal, recovered) = Wal::open(&dir, per_commit()).unwrap();
    assert_eq!(recovered.len(), 1);
    assert_eq!(wal.counters().malformed_records, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `HEADER_LEN` is part of the on-disk format contract this suite pins:
/// a record costs exactly `HEADER_LEN + 8 + payload` bytes.
#[test]
fn record_overhead_is_header_plus_round() {
    let dir = scratch("overhead");
    let payload = vec![0xabu8; 100];
    {
        let (mut wal, _) = Wal::open(&dir, per_commit()).unwrap();
        wal.append(5, &payload).unwrap();
        assert_eq!(
            wal.counters().bytes_appended,
            (HEADER_LEN + 8 + payload.len()) as u64
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
