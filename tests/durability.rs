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
use icc_gossip::Recipe;
use icc_sim::delay::FixedDelay;
use icc_types::block::{Block, Payload};
use icc_types::codec::{decode_from_slice, encode_to_vec, Encode};
use icc_types::frame::{encode_frame, frame, FrameBuffer, HEADER_LEN};
use icc_types::messages::{BlockProposal, BlockRef, Finalization, Notarization};
use icc_types::{NodeIndex, Round, SimDuration};
use icc_wal::fault::{self, DiskFault, FaultFs};
use icc_wal::{Wal, WalOptions};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
            let (mut wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
            prop_assert!(recovered.is_empty());
            wal.append_with(e.round().get(), |buf| e.encode(buf)).unwrap();
        }
        let (_, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
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

/// Every post-hoc disk fault — in the journal or in the dedup log —
/// recovers to the last valid prefix: no panic, the damage counted in
/// the right `StorageCounters` field, and the store usable (appendable,
/// re-recoverable) afterwards.
#[test]
fn fault_matrix_recovers_to_valid_prefix() {
    type Inject = fn(&std::path::Path);
    type CounterOf = fn(&icc_wal::StorageCounters) -> u64;
    let faults: [(&str, Inject, CounterOf); 7] = [
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
        (
            "dedup_torn_tail",
            |d| {
                fault::truncate_tail(&d.join("dedup"), 25).unwrap();
            },
            |c| c.torn_tail_truncations,
        ),
        (
            "dedup_bit_flip",
            |d| {
                fault::flip_bit(&d.join("dedup"), 40).unwrap();
            },
            |c| c.crc_corruptions,
        ),
    ];

    for (name, inject, counted) in faults {
        let dir = scratch(name);
        {
            // Two checkpoints: two dedup records, of rounds 1–2 and 3–4.
            let mut store = DurableStore::file(&dir, WalOptions::default()).unwrap();
            populate(&mut store, 1..=4);
            store.install_checkpoint(checkpoint(2));
            store.install_checkpoint(checkpoint(4));
            populate(&mut store, 5..=12);
            assert_eq!(store.frontier().get(), 12, "{name}");
        }
        inject(&dir);

        // Recovery: no panic, a valid prefix, the fault visible in
        // telemetry.
        let mut store = DurableStore::file(&dir, WalOptions::default()).unwrap();
        let counters = store.storage_counters();
        assert!(
            counted(&counters) >= 1,
            "{name}: fault not counted: {counters:?}"
        );
        assert!(store.frontier().get() <= 12, "{name}");
        // The journal above the checkpoint (rounds 5–12, four entries a
        // round) is a prefix of the one written: a journal fault cuts
        // its tail, never all of it, and a dedup fault leaves it whole.
        // The history is a prefix too: the dedup faults hit its second
        // record.
        let journal = store.wal().len();
        let history: Vec<u8> = store.history().iter().map(|d| d.0[0]).collect();
        if name.starts_with("dedup") {
            assert_eq!(journal, 8 * 4, "{name}: {counters:?}");
            assert_eq!(history, [1, 2], "{name}");
        } else {
            assert!(
                (1..=8 * 4).contains(&journal),
                "{name}: {journal} journal entries: {counters:?}"
            );
            assert_eq!(history, [1, 2, 3, 4], "{name}");
        }
        let recovered = store.recovered_entries();

        // The store keeps working: new appends land after the prefix
        // and survive another restart.
        store.append_beacon(
            Round::new(100),
            BeaconValue::Signature(Signature::from_value(100)),
        );
        drop(store);
        let store = DurableStore::file(&dir, WalOptions::default()).unwrap();
        assert_eq!(store.frontier().get(), 100, "{name}");
        assert_eq!(store.recovered_entries(), recovered + 1, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The dedup log is never compacted, so its oldest record stays on the
/// media for the replica's lifetime, and prefix recovery treats it as
/// the journal's: a bit flipped in the first record of a multi-segment
/// dedup log ends the trusted history right there. The damaged segment
/// is cut to nothing, every later one is deleted and counted, and the
/// history comes back empty: the
/// journal was compacted, so nothing on disk remembers the commands
/// committed up to the checkpoint any more, and a replica restored from
/// this directory would take them again (DESIGN.md §5f).
#[test]
fn a_bit_flip_in_the_first_dedup_record_loses_the_history_after_it() {
    let dir = scratch("dedup_first_record");
    // Small enough that every record, journal or dedup, rotates into a
    // segment of its own.
    let opts = WalOptions {
        segment_max_bytes: 64,
        ..WalOptions::default()
    };
    {
        let mut store = DurableStore::file(&dir, opts).unwrap();
        for cp in [2, 4, 6] {
            populate(&mut store, cp - 1..=cp);
            store.install_checkpoint(checkpoint(cp));
        }
        populate(&mut store, 7..=8);
        assert_eq!(store.history().len(), 6);
    }
    let dedup = dir.join("dedup");
    let segments = || {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dedup)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        paths.sort();
        paths
    };
    let written = segments();
    assert_eq!(written.len(), 3, "one dedup record a segment");
    let mut bytes = std::fs::read(&written[0]).unwrap();
    bytes[HEADER_LEN + 8] ^= 0x08;
    std::fs::write(&written[0], &bytes).unwrap();

    let store = DurableStore::file(&dir, opts).unwrap();
    let counters = store.storage_counters();
    assert_eq!(counters.crc_corruptions, 1, "{counters:?}");
    assert_eq!(counters.segments_dropped, 2, "{counters:?}");
    assert!(segments().is_empty(), "the dedup log is gone from the disk");
    assert!(store.history().is_empty(), "{:?}", store.history());
    // The checkpoint and the journal above it are untouched; neither
    // holds a digest of rounds 1–6.
    assert_eq!(store.checkpoint().map(|cp| cp.round().get()), Some(6));
    assert_eq!(store.wal().len(), 2 * 4);
    assert!(store.wal().iter().all(|e| e.round().get() > 6));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted checkpoint file is discarded (counted, not fatal); the
/// replica falls back to whatever the WAL still holds.
#[test]
fn corrupt_checkpoint_falls_back_to_wal() {
    let dir = scratch("corrupt_checkpoint");
    {
        let mut store = DurableStore::file(&dir, WalOptions::default()).unwrap();
        populate(&mut store, 1..=10);
        store.install_checkpoint(checkpoint(6));
        assert_eq!(store.checkpoint().unwrap().round().get(), 6);
    }
    assert!(fault::corrupt_checkpoint(&dir).unwrap());

    let store = DurableStore::file(&dir, WalOptions::default()).unwrap();
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
        // Appends only write: nothing reaches the disk until the
        // explicit `flush` below.
        let backend = FileBackend::open_with_fs(&dir, WalOptions::default(), Box::new(fs)).unwrap();
        let mut store = DurableStore::with_backend(Box::new(backend));
        populate(&mut store, 1..=8);
        store.flush().unwrap(); // rounds 1..=8 now durable
        populate(&mut store, 9..=16); // rounds 9..=16 in the page cache
        assert!(handle.unsynced_bytes() > 0);
        handle.crash(fault).unwrap();
        drop(store); // poisoned file: further writes are moot

        let store = DurableStore::file(&dir, WalOptions::default()).unwrap();
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
        let recipe = Recipe::shipped(N);
        let dirs_ref = dirs.clone();
        let mut cluster = ClusterBuilder::new(N)
            .seed(77)
            .network(FixedDelay::new(SimDuration::from_millis(10)))
            .protocol_delays(SimDuration::from_millis(60), SimDuration::ZERO)
            .checkpoint_interval(8)
            .build_with(move |core| {
                let dir = &dirs_ref[core.index().as_usize()];
                let store = DurableStore::file(dir, WalOptions::default()).expect("open data dir");
                recipe.node(core.with_store(store))
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
        let recipe = Recipe::shipped(N);
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
                let dir = &dirs_ref[core.index().as_usize()];
                let store = DurableStore::file(dir, WalOptions::default()).expect("open data dir");
                recipe.node(core.with_store(store))
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

/// A record too small to even hold its round prefix is malformed, ends
/// the trusted prefix, and is counted — never panics.
#[test]
fn short_record_ends_prefix() {
    let dir = scratch("short_record");
    {
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(1, b"fine").unwrap();
    }
    // A validly framed record whose payload is shorter than the 8-byte
    // round prefix.
    let seg = fault::last_segment(&dir).unwrap().unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&encode_frame(b"abc"));
    std::fs::write(&seg, &bytes).unwrap();

    let (wal, recovered) = Wal::open(&dir, WalOptions::default()).unwrap();
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
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(5, &payload).unwrap();
        assert_eq!(
            wal.counters().bytes_appended,
            (HEADER_LEN + 8 + payload.len()) as u64
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- persist-then-send: real `ConsensusCore`s (n = 4, t = 1) over
// file-backed stores, driven by hand (`icc_tests::hand`) so that a test
// decides between which two deliveries the power goes ----

mod rig {
    use super::*;
    pub use icc_core::artifacts;
    use icc_core::byzantine::Behavior;
    pub use icc_core::consensus::{ConsensusCore, Step};
    use icc_core::delays::StaticDelays;
    use icc_core::keys::generate_keys;
    pub use icc_core::keys::NodeKeys;
    use icc_core::NodeEvent;
    pub use icc_crypto::beacon::RankPermutation;
    pub use icc_tests::hand::Net;
    pub use icc_types::block::HashedBlock;
    pub use icc_types::messages::ConsensusMessage;
    pub use icc_types::{Command, SimTime, SubnetConfig};
    pub use icc_wal::fault::FaultHandle;
    use icc_wal::SegmentFs;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::path::Path;
    use std::rc::Rc;

    pub const N: usize = 4;
    /// `Δbnd`: a rank-1 block may be supported from `2·Δbnd` on.
    pub const DELTA_BND_MS: u64 = 100;

    pub fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// The subnet's key material (dealt deterministically from a seed).
    pub fn all_keys() -> Vec<NodeKeys> {
        generate_keys(SubnetConfig::new(N), 0xA3)
    }

    /// Replica `index` over `store`, `ε = 0`, no checkpoint within a
    /// test's reach (the journal alone is what restores).
    pub fn core_over(index: usize, store: DurableStore) -> ConsensusCore {
        ConsensusCore::new(
            all_keys().swap_remove(index),
            StaticDelays::new(SimDuration::from_millis(DELTA_BND_MS), SimDuration::ZERO),
            Behavior::Honest,
        )
        .with_store(store)
        .with_checkpoint_interval(1 << 20)
    }

    pub fn store_on(dir: &Path, opts: WalOptions, fs: Box<dyn SegmentFs>) -> DurableStore {
        DurableStore::with_backend(Box::new(FileBackend::open_with_fs(dir, opts, fs).unwrap()))
    }

    /// Replica `index` on the data directory `dir` through the
    /// page-cache model, plus the handle that pulls the power on it.
    pub fn core_on(index: usize, dir: &Path) -> (ConsensusCore, FaultHandle) {
        let (fs, disk) = FaultFs::new();
        let store = store_on(dir, WalOptions::default(), Box::new(fs));
        (core_over(index, store), disk)
    }

    /// The commands each committed round carried, collected from every
    /// replica's `Committed` events.
    pub type CommittedCommands = Rc<RefCell<BTreeMap<Round, Vec<Command>>>>;

    pub fn collect_commits(net: &mut Net) -> CommittedCommands {
        let commits = CommittedCommands::default();
        let sink = Rc::clone(&commits);
        net.observer = Box::new(move |_, step| {
            for event in &step.events {
                if let NodeEvent::Committed { block } = event {
                    let commands = block.block().payload().commands().to_vec();
                    sink.borrow_mut().insert(block.round(), commands);
                }
            }
        });
        commits
    }

    /// Steps the cluster, feeding a fresh command to a replica every
    /// few deliveries, until `done`.
    pub fn run_with_load(net: &mut Net, mut done: impl FnMut(&Net) -> bool) {
        let mut deliveries = 0u64;
        net.run_until(
            200_000,
            |net| done(net),
            |net| {
                deliveries += 1;
                if deliveries.is_multiple_of(8) {
                    let cmd = Command::new(format!("cmd-{deliveries}").into_bytes());
                    let now = net.now;
                    net.cores[(deliveries / 8) as usize % N].on_command(now, cmd);
                }
            },
        );
    }

    /// How many messages replica `i` has released.
    pub fn released_by(net: &Net, i: usize) -> usize {
        net.released
            .iter()
            .filter(|(from, _, _)| *from == i)
            .count()
    }

    /// The round-1 rank order: the round-1 beacon is the unique
    /// threshold signature over the genesis beacon, so any two shares
    /// give it.
    pub fn round_one_ranks(keys: &[NodeKeys]) -> RankPermutation {
        let setup = &keys[0].setup;
        let msg = icc_crypto::beacon::beacon_sign_message(1, &setup.genesis_beacon);
        let shares = keys.iter().take(2).map(|k| k.beacon().sign_share(&msg));
        let value = setup
            .beacon
            .combine(&msg, shares)
            .expect("two valid shares");
        RankPermutation::derive_members(&BeaconValue::Signature(value), &[0, 1, 2, 3])
    }

    /// Starts `core` and feeds it the other parties' round-1 beacon
    /// shares, so that it enters round 1.
    pub fn enter_round_one(core: &mut ConsensusCore, keys: &[NodeKeys]) {
        core.start(at(0));
        let genesis_beacon = keys[0].setup.genesis_beacon;
        let me = core.index();
        for k in keys.iter().filter(|k| k.index != me) {
            let share = artifacts::beacon_share(k, Round::new(1), &genesis_beacon);
            core.on_message(at(1), &ConsensusMessage::BeaconShare(share));
        }
        assert_eq!(core.current_round(), Round::new(1));
    }

    /// A round-1 block of `proposer` carrying one command `tag`.
    pub fn block_of(proposer: &NodeKeys, tag: &str) -> HashedBlock {
        Block::new(
            Round::new(1),
            proposer.index,
            proposer.setup.genesis.hash(),
            Payload::from_commands(vec![Command::new(tag.as_bytes().to_vec())]),
        )
        .into_hashed()
    }

    pub fn proposal_of(proposer: &NodeKeys, block: &HashedBlock) -> ConsensusMessage {
        ConsensusMessage::Proposal(artifacts::proposal(proposer, block.clone(), None))
    }

    /// The `n − t` notarization of `block` by `signers`.
    pub fn notarization_by(signers: &[&NodeKeys], block: &HashedBlock) -> ConsensusMessage {
        let block_ref = BlockRef::of_hashed(block);
        let shares = signers
            .iter()
            .map(|k| artifacts::notarization_share(k, block_ref).share);
        let sig = signers[0]
            .setup
            .notary
            .combine(&block_ref.sign_bytes(), shares)
            .expect("n - t valid shares");
        ConsensusMessage::Notarization(Notarization { block_ref, sig })
    }

    /// How many `(notarization, finalization)` shares for `block` the
    /// steps broadcast.
    pub fn shares_for(steps: &[Step], block: &HashedBlock) -> (usize, usize) {
        let (mut notarization, mut finalization) = (0, 0);
        for msg in steps.iter().flat_map(|s| &s.broadcasts) {
            match msg {
                ConsensusMessage::NotarizationShare(s) if s.block_ref.hash == block.hash() => {
                    notarization += 1;
                }
                ConsensusMessage::FinalizationShare(s) if s.block_ref.hash == block.hash() => {
                    finalization += 1;
                }
                _ => {}
            }
        }
        (notarization, finalization)
    }
}

/// P2's proof (§3, "N ⊆ {B}") needs an honest replica that
/// finalization-shares `B′` never to have notarization-shared another
/// block of that round. Replica A supports `B` (rank 1) in round 1, its
/// machine loses power before the round ends, and it restarts *inside*
/// round 1. Shown the leader's conflicting `B′` and a notarization for
/// it, A may support `B′` too — but it must not finalization-share it:
/// its `N` of round 1 died with the process, so in the round it resumed
/// in it finalization-shares nothing.
#[test]
fn restarted_replica_withholds_its_finalization_share_in_the_resumed_round() {
    use rig::*;
    let keys = all_keys();
    let ranks = round_one_ranks(&keys);
    let leader = &keys[ranks.party_at_rank(0) as usize];
    let second = &keys[ranks.party_at_rank(1) as usize];
    let third = &keys[ranks.party_at_rank(2) as usize];
    let a = ranks.party_at_rank(3) as usize;
    let dir = scratch("amnesia");

    // First incarnation: enter round 1, support the rank-1 block B once
    // Δntry(1) has passed with no leader block in sight.
    let b = block_of(second, "B");
    let (mut core, disk) = core_on(a, &dir);
    enter_round_one(&mut core, &keys);
    let voted = core.on_message(at(2 * DELTA_BND_MS + 1), &proposal_of(second, &b));
    assert_eq!(
        shares_for(std::slice::from_ref(&voted), &b),
        (1, 0),
        "A supports the rank-1 block: {voted:?}"
    );
    // Power loss before the round ends: whatever was not synced is gone.
    disk.crash(DiskFault::LoseUnsynced).unwrap();
    drop(core);

    // Second incarnation, same data directory: the round-1 beacon was
    // journalled (and synced: a restart inside round 1 must not look
    // like a first boot), no round-1 notarization was, so A resumes in
    // round 1.
    let (mut core, _disk) = core_on(a, &dir);
    let mut steps = vec![core.start(at(300))];
    assert_eq!(core.recovery_stats().restarts, 1);
    assert_eq!(core.recovery_stats().restore_verifications, 0);
    assert_eq!(
        core.current_round(),
        Round::new(1),
        "restored inside round 1"
    );

    // The leader's block B′ arrives late, then its notarization by the
    // other three parties.
    let b_prime = block_of(leader, "B'");
    assert_ne!(b.hash(), b_prime.hash());
    steps.push(core.on_message(at(301), &proposal_of(leader, &b_prime)));
    steps.push(core.on_message(
        at(302),
        &notarization_by(&[leader, second, third], &b_prime),
    ));
    assert!(core.current_round() > Round::new(1), "B′ ends round 1");
    assert_eq!(
        shares_for(&steps, &b_prime).1,
        0,
        "A notarization-shared B in round 1 before the crash: a finalization \
         share for B′ contradicts it"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The other half of the same promise: a replica that has
/// finalization-shared `B` is done with the round and supports nothing
/// else in it — also after a power cut. A supports the rank-1 block `B`,
/// sees it notarized and finalization-shares it; the step that carried
/// the share waited for the journal to hold `Notarized(1)`. The power
/// goes right after the share has left. Restarted, A is past round 1,
/// and the leader's late block `B′` — which a replica still inside
/// round 1 would now support, rank 0 before rank 1 — gets nothing from
/// it.
#[test]
fn a_power_cut_after_the_finalization_share_restores_past_the_round() {
    use rig::*;
    let keys = all_keys();
    let ranks = round_one_ranks(&keys);
    let leader = &keys[ranks.party_at_rank(0) as usize];
    let second = &keys[ranks.party_at_rank(1) as usize];
    let third = &keys[ranks.party_at_rank(2) as usize];
    let a = ranks.party_at_rank(3) as usize;
    let dir = scratch("after_share");

    let b = block_of(second, "B");
    let (mut core, disk) = core_on(a, &dir);
    enter_round_one(&mut core, &keys);
    let voted = core.on_message(at(2 * DELTA_BND_MS + 1), &proposal_of(second, &b));
    let syncs_before = core.storage_counters().fsyncs;
    let ended = core.on_message(
        at(2 * DELTA_BND_MS + 2),
        &notarization_by(&[second, third, &keys[a]], &b),
    );
    assert_eq!(
        shares_for(&[voted, ended], &b),
        (1, 1),
        "A supports B, then finalization-shares it"
    );
    assert_eq!(
        core.storage_counters().fsyncs,
        syncs_before + 1,
        "one sync for the step that ended the round"
    );
    assert_eq!(disk.unsynced_bytes(), 0, "nothing of it is left to lose");
    disk.crash(DiskFault::LoseUnsynced).unwrap();
    drop(core);

    let (mut core, _disk) = core_on(a, &dir);
    let mut steps = vec![core.start(at(300))];
    assert_eq!(core.recovery_stats().restore_verifications, 0);
    assert!(
        core.current_round() > Round::new(1),
        "the finalization share left, so round 1 is over for A"
    );
    let b_prime = block_of(leader, "B'");
    steps.push(core.on_message(at(301), &proposal_of(leader, &b_prime)));
    steps.push(core.on_wakeup(at(301 + 4 * DELTA_BND_MS)));
    assert_eq!(
        shares_for(&steps, &b_prime),
        (0, 0),
        "A finalization-shared B in round 1: a notarization share for B′ \
         contradicts it"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the barrier test's shared log holds, in the order it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Logged {
    /// Replica wrote one record with this `WalEntry` tag.
    Write(usize, u8),
    /// Replica's segment was synced.
    Sync(usize),
    /// Replica released a step that ended a round or carried a
    /// finalization share.
    RoundEnd(usize),
}

type SharedLog = Arc<std::sync::Mutex<Vec<Logged>>>;

/// A segment filesystem that writes real files and logs every `write`
/// and `sync` of replica `me`.
struct LoggedFs {
    me: usize,
    log: SharedLog,
}

struct LoggedFile {
    me: usize,
    log: SharedLog,
    file: std::fs::File,
}

impl icc_wal::SegmentFs for LoggedFs {
    fn create(&mut self, path: &std::path::Path) -> std::io::Result<Box<dyn icc_wal::SegmentFile>> {
        Ok(Box::new(LoggedFile {
            me: self.me,
            log: Arc::clone(&self.log),
            file: std::fs::File::create(path)?,
        }))
    }
}

impl std::io::Write for LoggedFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // The log writes one whole record per call: frame header, the
        // round, then the entry's tag.
        let tag = buf[HEADER_LEN + 8];
        self.log.lock().unwrap().push(Logged::Write(self.me, tag));
        self.file.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl icc_wal::SegmentFile for LoggedFile {
    fn sync(&mut self) -> std::io::Result<()> {
        self.log.lock().unwrap().push(Logged::Sync(self.me));
        Ok(())
    }
}

/// The barrier, seen from outside: one log shared by every replica's
/// segment files and by the transport. Over 100 rounds no step that
/// ends a round — the step a finalization share leaves in, and the one
/// before the next round's votes — is released while anything the
/// replica wrote is unsynced, `Notarized(k)` included; and that costs
/// one sync a round, not one per record.
#[test]
fn no_round_ends_before_the_sync_covering_it() {
    use icc_core::NodeEvent;
    use rig::*;
    const NOTARIZED_TAG: u8 = 1;
    const ROUNDS: u64 = 100;
    let log = SharedLog::default();
    let dirs: Vec<PathBuf> = (0..N).map(|i| scratch(&format!("barrier_{i}"))).collect();
    let cores = (0..N)
        .map(|i| {
            let fs = LoggedFs {
                me: i,
                log: Arc::clone(&log),
            };
            core_over(i, store_on(&dirs[i], WalOptions::default(), Box::new(fs)))
        })
        .collect();
    let mut net = Net::new(cores, 1);
    let transport_log = Arc::clone(&log);
    net.observer = Box::new(move |i, step| {
        let ended = step
            .events
            .iter()
            .any(|e| matches!(e, NodeEvent::RoundFinished { .. }));
        let shared = step
            .broadcasts
            .iter()
            .any(|m| matches!(m, ConsensusMessage::FinalizationShare(_)));
        if ended || shared {
            transport_log.lock().unwrap().push(Logged::RoundEnd(i));
        }
    });
    net.start();
    run_with_load(&mut net, |net| net.committed(&[0, 1, 2, 3]) >= ROUNDS);

    let log = log.lock().unwrap();
    let mut unsynced = [0u32; N];
    let (mut round_ends, mut notarized, mut syncs, mut writes) = (0u64, 0u64, 0u64, 0u64);
    for event in log.iter() {
        match *event {
            Logged::Write(i, tag) => {
                writes += 1;
                notarized += u64::from(tag == NOTARIZED_TAG);
                unsynced[i] += 1;
            }
            Logged::Sync(i) => {
                syncs += 1;
                unsynced[i] = 0;
            }
            Logged::RoundEnd(i) => {
                round_ends += 1;
                assert_eq!(
                    unsynced[i], 0,
                    "replica {i} released the end of a round ahead of its journal"
                );
            }
        }
    }
    let replica_rounds: u64 = net.cores.iter().map(|c| c.current_round().get() - 1).sum();
    assert!(
        round_ends >= replica_rounds && notarized >= replica_rounds,
        "{round_ends} round ends, {notarized} blocks in {replica_rounds} replica-rounds"
    );
    let per_round = syncs as f64 / replica_rounds as f64;
    assert!(
        per_round <= 1.2,
        "{syncs} syncs in {replica_rounds} replica-rounds ({per_round:.2} each)"
    );
    assert!(
        writes as f64 / replica_rounds as f64 > 3.5,
        "a round still journals its beacon, block, finalization and digests"
    );
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Fail-stop: from the first write or sync the disk refuses, the
/// replica releases nothing — not the step that hit the error, nothing
/// after it — and reports itself halted; the other three carry on.
#[test]
fn a_failing_disk_releases_nothing_and_halts_the_core() {
    use rig::*;
    type Inject = fn(&FaultHandle);
    let faults: [(&str, Inject); 2] = [
        ("write", |disk| disk.fail_writes()),
        ("sync", |disk| disk.fail_syncs()),
    ];
    for (name, inject) in faults {
        let dir = scratch(&format!("fail_stop_{name}"));
        let (victim, disk) = core_on(0, &dir);
        let mut cores = vec![victim];
        cores.extend((1..N).map(|i| core_over(i, DurableStore::new())));
        let mut net = Net::new(cores, 2);
        net.start();
        run_with_load(&mut net, |net| net.committed(&[0, 1, 2, 3]) >= 10);
        assert!(net.cores[0].halted().is_none());

        inject(&disk);
        let mut released_when_hit = None;
        run_with_load(&mut net, |net| {
            let hit = net.cores[0].storage_counters().io_errors > 0;
            match released_when_hit {
                // The step that met the error is over: nothing of it
                // was released, and the core says why it stopped.
                None if hit => {
                    assert!(net.cores[0].halted().is_some(), "{name}: not halted");
                    released_when_hit = Some(released_by(net, 0));
                }
                Some(before) => assert_eq!(
                    released_by(net, 0),
                    before,
                    "{name}: a halted replica released a message"
                ),
                None => {}
            }
            net.committed(&[1, 2, 3]) >= 30
        });
        let why = net.cores[0].halted().expect("halted").to_string();
        assert!(why.contains(name), "{name}: halted with {why:?}");
        // It stopped where it stood; the other three did not need it.
        assert!(net.cores[0].committed_round().get() < 30);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `Finalization(k)` is in the journal only behind every `Committed`
/// up to `k`. Restore takes `kmax` from the one and the input dedup set
/// from the others, so a journal cut between them the other way round
/// would bring back a replica that counts a block as committed and may
/// propose its commands again. Cut the unsynced tail of a replica at
/// every record boundary of its last rounds: whatever `kmax` the
/// restored replica reports, it refuses every command committed up to
/// it.
#[test]
fn torn_tail_at_any_record_boundary_keeps_dedup_under_kmax() {
    use rig::*;
    // One run of the scenario: replica 0 journals rounds 1..=6 durably,
    // then, its disk's write cache acknowledging syncs it does not do,
    // two more rounds into the page cache only; the power cut keeps
    // `keep` bytes of that tail. Returns the tail's record boundaries
    // and the restored replica's `kmax`.
    let scenario = |keep: usize| -> (Vec<usize>, u64) {
        let dir = scratch("torn_boundary");
        let (victim, disk) = core_on(0, &dir);
        let mut cores = vec![victim];
        cores.extend((1..N).map(|i| core_over(i, DurableStore::new())));
        let mut net = Net::new(cores, 3);
        let commits = collect_commits(&mut net);
        net.start();
        run_with_load(&mut net, |net| net.cores[0].committed_round().get() >= 6);
        net.cores[0].flush_store().unwrap();
        let segment = fault::last_segment(&dir).unwrap().expect("a segment");
        let synced = std::fs::metadata(&segment).unwrap().len() as usize;
        disk.lie_about_syncs();
        run_with_load(&mut net, |net| net.cores[0].committed_round().get() >= 8);
        disk.crash(DiskFault::TornTail { keep }).unwrap();

        // Where the records of the surviving tail end.
        let mut tail = FrameBuffer::new();
        tail.extend(&std::fs::read(&segment).unwrap()[synced..]);
        let mut boundaries = vec![0];
        while let Ok(Some(record)) = tail.next_frame() {
            boundaries.push(boundaries.last().unwrap() + HEADER_LEN + record.len());
        }

        let mut core = core_over(0, DurableStore::file(&dir, WalOptions::default()).unwrap());
        core.start(SimTime::ZERO);
        assert_eq!(core.recovery_stats().restore_verifications, 0);
        let kmax = core.committed_round();
        let mut refused = 0;
        for (round, commands) in commits.borrow().iter() {
            if *round <= kmax {
                for cmd in commands {
                    core.on_command(SimTime::ZERO, cmd.clone());
                    refused += 1;
                }
            }
        }
        assert!(refused > 0, "the committed rounds carried commands");
        assert_eq!(
            core.pending_commands(),
            0,
            "keep {keep}: restored with kmax {kmax} but would take a command \
             committed at or below it again"
        );
        let _ = std::fs::remove_dir_all(&dir);
        (boundaries, kmax.get())
    };

    let (boundaries, kmax_whole) = scenario(usize::MAX);
    assert!(
        boundaries.len() >= 8,
        "two rounds of records: {boundaries:?}"
    );
    assert!(kmax_whole >= 8);
    let mut kmaxes = Vec::new();
    for &keep in &boundaries {
        kmaxes.push(scenario(keep).1);
    }
    // The cuts did land on both sides of a finalization.
    assert!(kmaxes.first() < kmaxes.last(), "{kmaxes:?}");
    assert!(kmaxes.windows(2).all(|w| w[0] <= w[1]), "{kmaxes:?}");
}

/// Copies the data directory `from` — its files and the dedup log's
/// directory — to `to`, as a power cut would leave it: what a `FaultFs`
/// holds unsynced is not in the files.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), dst).unwrap();
        }
    }
}

/// Where the power goes while a replica takes a checkpoint (DESIGN.md
/// §5f).
#[derive(Debug, Clone, Copy)]
enum CheckpointCut {
    /// The dedup record written, `keep` of its bytes on the platter.
    DedupTorn { keep: usize },
    /// The dedup record synced, `checkpoint.bin` not yet renamed.
    BeforeRename,
    /// `checkpoint.bin` renamed, the journal not yet compacted (with one
    /// journal segment, compaction deletes nothing).
    BeforeCompaction,
}

/// Replica 0 of a loaded n = 4 cluster checkpoints every two rounds on
/// the page-cache model, and the power goes at `cut` of the second
/// checkpoint that writes a dedup record: the data directory is copied
/// as it would be left. The replica restored from the copy refuses
/// every command committed at or below its `kmax`. Returns the round of
/// the cut checkpoint and of the checkpoint restored from.
fn cut_a_checkpoint(cut: CheckpointCut) -> (u64, u64) {
    use rig::*;
    let dir = scratch("checkpoint_cut");
    let image = scratch("checkpoint_cut_image");
    let (fs, disk) = FaultFs::new();
    let victim = core_over(0, store_on(&dir, WalOptions::default(), Box::new(fs)));
    let victim = victim.with_checkpoint_interval(2);
    let taken = Arc::new(AtomicBool::new(false));
    let cut_round = Arc::new(AtomicU64::new(0));
    let (dedup_dir, live, out) = (dir.join("dedup"), dir.clone(), image.clone());
    let (done, at_round) = (Arc::clone(&taken), Arc::clone(&cut_round));
    let mut dedup_syncs = 0;
    disk.on_sync(move |path, unsynced| {
        if done.load(Ordering::SeqCst) {
            return;
        }
        if at_round.load(Ordering::SeqCst) > 0 {
            // The first sync after the cut record's: past the rename.
            copy_dir(&live, &out);
            done.store(true, Ordering::SeqCst);
            return;
        }
        if !path.starts_with(&dedup_dir) {
            return;
        }
        dedup_syncs += 1;
        if dedup_syncs < 2 {
            return;
        }
        // The record: a frame header, the round, the digests.
        let round = unsynced[HEADER_LEN..HEADER_LEN + 8].try_into().unwrap();
        at_round.store(u64::from_le_bytes(round), Ordering::SeqCst);
        let keep = match cut {
            CheckpointCut::DedupTorn { keep } => keep.min(unsynced.len()),
            CheckpointCut::BeforeRename => unsynced.len(),
            CheckpointCut::BeforeCompaction => return,
        };
        copy_dir(&live, &out);
        let record = out.join("dedup").join(path.file_name().unwrap());
        let mut record = std::fs::OpenOptions::new()
            .append(true)
            .open(record)
            .unwrap();
        std::io::Write::write_all(&mut record, &unsynced[..keep]).unwrap();
        done.store(true, Ordering::SeqCst);
    });
    let mut cores = vec![victim];
    cores.extend((1..N).map(|i| core_over(i, DurableStore::new())));
    let mut net = Net::new(cores, 5);
    let commits = collect_commits(&mut net);
    net.start();
    run_with_load(&mut net, |_| taken.load(Ordering::SeqCst));
    let cut_round = cut_round.load(Ordering::SeqCst);

    let (_, journal) = Wal::open(&image, WalOptions::default()).unwrap();
    if let CheckpointCut::BeforeCompaction = cut {
        assert!(
            journal.iter().any(|r| r.round <= cut_round),
            "the journal still holds what the checkpoint covers"
        );
    }
    let mut core = core_over(
        0,
        DurableStore::file(&image, WalOptions::default()).unwrap(),
    );
    core.start(SimTime::ZERO);
    assert_eq!(core.recovery_stats().restore_verifications, 0);
    let checkpoint = core
        .store()
        .checkpoint()
        .expect("an older checkpoint at least");
    let restored_from = checkpoint.round().get();
    let kmax = core.committed_round();
    let mut refused = 0;
    for (round, commands) in commits.borrow().iter() {
        if *round <= kmax {
            for cmd in commands {
                core.on_command(SimTime::ZERO, cmd.clone());
                refused += 1;
            }
        }
    }
    assert!(
        refused > 0,
        "{cut:?}: the committed rounds carried commands"
    );
    assert_eq!(
        core.pending_commands(),
        0,
        "{cut:?}: restored with kmax {kmax} but would take a command committed \
         at or below it again"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&image);
    (cut_round, restored_from)
}

/// A power cut before the dedup record is synced, whatever of it
/// reached the platter: the old checkpoint stays current (the rename
/// waits for the sync), and the journal it did not let compaction touch
/// still holds the digests the record was copying.
#[test]
fn a_power_cut_before_the_dedup_record_is_synced_keeps_dedup_under_kmax() {
    for keep in [0, 30, 70] {
        let (cut, restored_from) = cut_a_checkpoint(CheckpointCut::DedupTorn { keep });
        assert!(
            restored_from < cut,
            "keep {keep}: the old checkpoint is current"
        );
    }
}

/// A power cut after the dedup record is synced and before the rename:
/// the old checkpoint, the whole journal, and a record that repeats
/// journal records — the union is the same set.
#[test]
fn a_power_cut_before_the_checkpoint_rename_keeps_dedup_under_kmax() {
    let (cut, restored_from) = cut_a_checkpoint(CheckpointCut::BeforeRename);
    assert!(restored_from < cut, "the old checkpoint is current");
}

/// A power cut after the rename and before compaction: the new
/// checkpoint makes restore skip the journal records it covers, and the
/// dedup record synced before the rename holds their digests — the
/// checkpoint round's own included.
#[test]
fn a_power_cut_before_compaction_keeps_dedup_under_kmax() {
    let (cut, restored_from) = cut_a_checkpoint(CheckpointCut::BeforeCompaction);
    assert_eq!(restored_from, cut, "the new checkpoint is current");
}

/// Three checkpoints on, with journal segments small enough that
/// compaction deletes what they cover, a restart still refuses the
/// commands committed up to the first: only the dedup log holds them.
#[test]
fn a_restart_after_three_checkpoints_refuses_what_the_first_covered() {
    use rig::*;
    let dir = scratch("three_checkpoints");
    let opts = WalOptions {
        segment_max_bytes: 2048,
        ..WalOptions::default()
    };
    let (fs, disk) = FaultFs::new();
    let victim = core_over(0, store_on(&dir, opts, Box::new(fs))).with_checkpoint_interval(2);
    let mut cores = vec![victim];
    cores.extend((1..N).map(|i| core_over(i, DurableStore::new())));
    let mut net = Net::new(cores, 6);
    let commits = collect_commits(&mut net);
    net.start();
    run_with_load(&mut net, |net| {
        net.cores[0].storage_counters().dedup_records >= 3
    });
    let counters = net.cores[0].storage_counters();
    assert!(counters.segments_removed > 0, "{counters:?}");
    disk.crash(DiskFault::LoseUnsynced).unwrap();

    let (_, history) = Wal::open(&dir.join("dedup"), opts).unwrap();
    let first = history.first().expect("three dedup records").round;
    let mut core = core_over(0, DurableStore::file(&dir, opts).unwrap());
    core.start(SimTime::ZERO);
    assert_eq!(core.recovery_stats().restore_verifications, 0);
    let kmax = core.committed_round();
    assert!(kmax.get() > first, "kmax {kmax}, first checkpoint {first}");
    let mut before_first = 0;
    for (round, commands) in commits.borrow().iter() {
        if *round <= kmax {
            for cmd in commands {
                core.on_command(SimTime::ZERO, cmd.clone());
                before_first += usize::from(round.get() <= first);
            }
        }
    }
    assert!(before_first > 0, "the first checkpoint covered commands");
    assert_eq!(core.pending_commands(), 0, "restored with kmax {kmax}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Withholding a finalization share costs one round's explicit
/// finalization, not progress: the whole cluster loses power inside a
/// round — every replica has notarization-shared the leader's block,
/// nobody holds its notarization yet, everything in flight is gone —
/// and comes back inside it. All four vote again (the restarted leader
/// proposes the very block again with an empty input queue; under load
/// its re-proposal differs, an equivocation the protocol absorbs), the
/// round is notarized with nobody finalization-sharing it, and the next
/// round's finalization commits it.
#[test]
fn whole_cluster_power_cut_inside_a_round_still_makes_progress() {
    use rig::*;
    for loaded in [false, true] {
        let dirs: Vec<PathBuf> = (0..N).map(|i| scratch(&format!("blackout_{i}"))).collect();
        let (cores, disks): (Vec<_>, Vec<_>) = (0..N).map(|i| core_on(i, &dirs[i])).unzip();
        let mut net = Net::new(cores, 4);
        net.start();
        let idle = |net: &mut Net, done: &mut dyn FnMut(&Net) -> bool| {
            net.run_until(200_000, |net| done(net), |_| {})
        };
        if loaded {
            run_with_load(&mut net, |net| net.committed(&[0, 1, 2, 3]) >= 5);
        } else {
            idle(&mut net, &mut |net| net.committed(&[0, 1, 2, 3]) >= 5);
        }
        // Stop between two deliveries: all four have voted in the open
        // round, no notarization of it exists.
        let voters_in = |net: &Net, round: Round| {
            let mut voters: Vec<usize> = net
                .released
                .iter()
                .filter(|(_, _, m)| {
                    matches!(m, ConsensusMessage::NotarizationShare(s) if s.block_ref.round == round)
                })
                .map(|(from, _, _)| *from)
                .collect();
            voters.sort_unstable();
            voters.dedup();
            voters.len()
        };
        let mut open = Round::GENESIS;
        idle(&mut net, &mut |net| {
            open = net.cores.iter().map(|c| c.current_round()).max().unwrap();
            voters_in(net, open) == N
        });
        assert!(
            net.cores
                .iter()
                .all(|c| c.pool().notarized_block(open).is_none()),
            "round {open} must still be open everywhere"
        );

        for disk in &disks {
            disk.crash(DiskFault::LoseUnsynced).unwrap();
        }
        net.drop_in_flight();
        net.released.clear();
        for (i, dir) in dirs.iter().enumerate() {
            let (core, _disk) = core_on(i, dir);
            net.restart(i, Some(core));
            let core = &net.cores[i];
            assert_eq!(
                core.current_round(),
                open,
                "replica {i} resumes inside the round"
            );
            assert_eq!(core.recovery_stats().restore_verifications, 0);
        }
        idle(&mut net, &mut |net| {
            net.committed(&[0, 1, 2, 3]) >= open.get() + 5
        });
        let shared_in_open = net.released.iter().any(
            |(_, _, m)| matches!(m, ConsensusMessage::FinalizationShare(s) if s.block_ref.round == open),
        );
        assert!(
            !shared_in_open,
            "round {open}: votes forgotten, shares withheld"
        );
        for d in &dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
