//! Decoder robustness: arbitrary bytes must never panic the codec, and
//! every decodable value must re-encode canonically (decode ∘ encode =
//! id, encode ∘ decode = id on valid input). The same contract holds
//! one layer down for the TCP frame format: a malicious or corrupted
//! byte stream may only ever produce a typed `FrameError`, never a
//! panic or an attacker-sized allocation — and one layer *sideways* for
//! the on-disk WAL segments, which reuse the same frame format: a torn,
//! truncated, or corrupted segment file recovers to its last valid
//! record prefix, never a panic.

use icc_types::codec::{decode_from_slice, encode_to_vec};
use icc_types::frame::{encode_frame, FrameBuffer, FrameError, HEADER_LEN, MAGIC};
use icc_types::messages::ConsensusMessage;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes: decoding may fail, but must never panic, and on
    /// success must re-encode to a canonical form that decodes to the
    /// same value.
    #[test]
    fn prop_decode_arbitrary_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        if let Ok(msg) = decode_from_slice::<ConsensusMessage>(&data) {
            let reencoded = encode_to_vec(&msg);
            let twice: ConsensusMessage = decode_from_slice(&reencoded).unwrap();
            prop_assert_eq!(msg, twice);
        }
    }

    /// Truncation at any point must produce an error, not a panic or a
    /// silently wrong value.
    #[test]
    fn prop_truncated_valid_message_errors(cut_frac in 0.0f64..1.0) {
        use icc_core::artifacts;
        use icc_core::keys::generate_keys;
        use icc_types::block::{Block, Payload};
        use icc_types::{NodeIndex, Round, SubnetConfig};

        let keys = generate_keys(SubnetConfig::new(4), 1);
        let block = Block::new(
            Round::new(1),
            NodeIndex::new(1),
            keys[0].setup.genesis.hash(),
            Payload::synthetic(3, 40, Round::new(1)),
        )
        .into_hashed();
        let msg = ConsensusMessage::Proposal(artifacts::proposal(&keys[1], block, None));
        let bytes = encode_to_vec(&msg);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_from_slice::<ConsensusMessage>(&bytes[..cut]).is_err());
        }
    }

    /// A command batch round-trips canonically, and every truncation of
    /// it is an error.
    #[test]
    fn prop_command_batch_roundtrips_and_truncations_error(
        lens in proptest::collection::vec(0usize..1200, 0..12),
        round in 0u64..1_000_000,
        cut_frac in 0.0f64..1.0,
    ) {
        use icc_types::{Command, Round};

        let commands = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| Command::new(vec![i as u8; len]))
            .collect();
        let msg = ConsensusMessage::Commands { round: Round::new(round), commands };
        let bytes = encode_to_vec(&msg);
        prop_assert_eq!(bytes.len(), msg.wire_bytes());
        let back: ConsensusMessage = decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(encode_to_vec(&back), bytes.clone());
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_from_slice::<ConsensusMessage>(&bytes[..cut]).is_err());
        }
    }

    /// A command batch claiming more commands than its bytes can hold is
    /// refused from the count alone: each command takes at least its
    /// 8-byte length prefix, so nothing is read or allocated for it.
    #[test]
    fn prop_command_batch_oversized_count_refused(claimed in 1u64..u64::MAX, held in 0usize..4) {
        use icc_types::codec::CodecError;

        let count = claimed.max(held as u64 + 1);
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        for _ in 0..held {
            bytes.extend_from_slice(&0u64.to_le_bytes()); // an empty command
        }
        prop_assert_eq!(
            decode_from_slice::<ConsensusMessage>(&bytes),
            Err(CodecError::LengthOverflow { len: count })
        );
    }

    /// A pull's summary round-trips, every truncation of it is an
    /// error, and a count above `MAX_HELD` is refused from the count
    /// alone, however few entries follow — never a panic or a
    /// count-sized allocation.
    #[test]
    fn prop_pull_summary_roundtrips_truncations_and_over_cap_counts_error(
        held in 0usize..=icc_gossip::node::MAX_HELD,
        over in 1u64..u64::MAX / 2,
        cut_frac in 0.0f64..1.0,
    ) {
        use icc_gossip::node::{Have, MAX_HELD};
        use icc_gossip::GossipMessage;
        use icc_types::codec::CodecError;
        use icc_types::Round;

        let have = Have {
            floor: Round::new(7),
            tip: Round::new(9),
            from: Round::new(8),
            held: (0..held)
                .map(|i| (Round::new(8 + i as u64 % 2), icc_crypto::Hash256([i as u8; 32]), (i % 4) as u8))
                .collect(),
        };
        let msg = GossipMessage::CatchUpRequest { have };
        let bytes = encode_to_vec(&msg);
        prop_assert_eq!(decode_from_slice::<GossipMessage>(&bytes), Ok(msg));
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(decode_from_slice::<GossipMessage>(&bytes[..cut]).is_err());

        let count = MAX_HELD as u64 + over;
        let mut forged = bytes[..1 + 24].to_vec();
        forged.extend_from_slice(&count.to_le_bytes());
        forged.extend_from_slice(&bytes[1 + 32..]);
        prop_assert_eq!(
            decode_from_slice::<GossipMessage>(&forged),
            Err(CodecError::LengthOverflow { len: count })
        );
        // An unknown certificate bit is refused too.
        if held > 0 {
            let mut flags = bytes.clone();
            flags[1 + 32 + 40] = 4;
            prop_assert!(decode_from_slice::<GossipMessage>(&flags).is_err());
        }
    }

    /// Single-byte corruption must never panic; it may still decode
    /// (e.g. a flipped payload byte) but must not produce the original.
    #[test]
    fn prop_bitflip_never_panics(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        use icc_core::artifacts;
        use icc_core::keys::generate_keys;
        use icc_types::block::{Block, Payload};
        use icc_types::{NodeIndex, Round, SubnetConfig};

        let keys = generate_keys(SubnetConfig::new(4), 2);
        let block = Block::new(
            Round::new(2),
            NodeIndex::new(0),
            icc_crypto::Hash256::ZERO,
            Payload::synthetic(2, 16, Round::new(2)),
        )
        .into_hashed();
        let msg = ConsensusMessage::Proposal(artifacts::proposal(&keys[0], block, None));
        let mut bytes = encode_to_vec(&msg);
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        let _ = decode_from_slice::<ConsensusMessage>(&bytes); // must not panic
    }

    /// A framed payload reassembles exactly, no matter how the stream
    /// is sliced into reads.
    #[test]
    fn prop_frame_roundtrips_through_arbitrary_chunking(
        payload in proptest::collection::vec(any::<u8>(), 0..1024),
        chunk in 1usize..64,
    ) {
        let wire = encode_frame(&payload);
        let mut buf = FrameBuffer::new();
        let mut got = None;
        for piece in wire.chunks(chunk) {
            buf.extend(piece);
            if let Some(frame) = buf.next_frame().unwrap() {
                prop_assert!(got.is_none(), "one frame in, one frame out");
                got = Some(frame);
            }
        }
        prop_assert_eq!(got.as_deref(), Some(&payload[..]));
        prop_assert_eq!(buf.next_frame().unwrap(), None);
    }

    /// Truncating a valid frame anywhere leaves the buffer waiting for
    /// more bytes — never a panic, never a partial frame surfaced.
    #[test]
    fn prop_truncated_frame_yields_nothing(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        cut_frac in 0.0f64..1.0,
    ) {
        let wire = encode_frame(&payload);
        let cut = ((wire.len() as f64) * cut_frac) as usize % wire.len();
        let mut buf = FrameBuffer::new();
        buf.extend(&wire[..cut]);
        prop_assert_eq!(buf.next_frame().unwrap(), None);
    }

    /// Arbitrary garbage fed to the frame buffer must either park as
    /// incomplete, yield a (coincidentally valid) frame, or produce a
    /// typed error — drained to exhaustion without panicking.
    #[test]
    fn prop_framebuffer_survives_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        chunk in 1usize..128,
    ) {
        let mut buf = FrameBuffer::new();
        'outer: for piece in data.chunks(chunk) {
            buf.extend(piece);
            loop {
                match buf.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => break 'outer, // transport would drop the connection here
                }
            }
        }
    }

    /// A header claiming a payload above the configured cap is rejected
    /// as `TooLarge` from the 12 header bytes alone — before any
    /// payload arrives and before any allocation of the claimed size.
    #[test]
    fn prop_oversized_length_claim_rejected_from_header(excess in 1u32..1_000_000) {
        let max = 4096u32;
        let claimed = max.saturating_add(excess);
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.extend_from_slice(&claimed.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes()); // CRC never reached
        let mut buf = FrameBuffer::with_max_len(max);
        buf.extend(&header);
        prop_assert_eq!(
            buf.next_frame(),
            Err(FrameError::TooLarge { len: claimed, max })
        );
    }

    /// Flipping any bit of a frame must surface a typed error (or, for
    /// in-payload flips caught by the checksum, `Corrupt`) — and when a
    /// frame does survive a flip undetected, it cannot happen at all:
    /// magic, length, and CRC cover every byte.
    #[test]
    fn prop_frame_bitflip_always_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut wire = encode_frame(&payload);
        let pos = ((wire.len() as f64) * pos_frac) as usize % wire.len();
        wire[pos] ^= 1 << bit;
        let mut buf = FrameBuffer::new();
        buf.extend(&wire);
        match buf.next_frame() {
            Err(FrameError::BadMagic { .. }) => prop_assert!(pos < 4),
            // A flipped length bit reads as a longer/shorter frame: the
            // buffer either waits for bytes that never come or trips
            // the size cap or CRC.
            Ok(None) | Err(FrameError::TooLarge { .. }) => prop_assert!((4..8).contains(&pos)),
            Err(FrameError::Corrupt { .. }) => {}
            Ok(Some(frame)) => {
                // Shorter-length reads leave trailing garbage but the
                // CRC of the shortened span almost never matches; if it
                // somehow decoded, it must NOT equal the original.
                prop_assert_ne!(frame, payload);
            }
        }
    }
}

/// Scratch dir + payload helpers for the WAL-segment cases below.
mod wal_cases {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub fn scratch() -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "icc_codec_fuzz_wal_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Torn tail / mid-record truncation: cutting any number of bytes
    /// off a segment recovers exactly the records that still fit whole
    /// — the last valid prefix, computed independently here from the
    /// record geometry.
    #[test]
    fn prop_wal_segment_truncation_recovers_exact_prefix(
        n_records in 1usize..16,
        payload_len in 1usize..96,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = wal_cases::scratch();
        let record_wire = HEADER_LEN + 8 + payload_len;
        {
            let (mut wal, _) = icc_wal::Wal::open(&dir, icc_wal::WalOptions::default()).unwrap();
            for i in 0..n_records {
                wal.append(i as u64 + 1, &vec![i as u8; payload_len]).unwrap();
            }
        }
        let total = (n_records * record_wire) as u64;
        let cut = (((total as f64) * cut_frac) as u64).clamp(1, total);
        icc_wal::fault::truncate_tail(&dir, cut).unwrap();

        let (wal, recovered) = icc_wal::Wal::open(&dir, icc_wal::WalOptions::default()).unwrap();
        let expect = (total - cut) as usize / record_wire;
        prop_assert_eq!(recovered.len(), expect);
        for (i, rec) in recovered.iter().enumerate() {
            prop_assert_eq!(rec.round, i as u64 + 1);
            prop_assert_eq!(&rec.payload, &vec![i as u8; payload_len]);
        }
        // A cut that lands exactly on a record boundary leaves a clean
        // (shorter) file; only a mid-record cut is a *torn* tail.
        if !(total - cut).is_multiple_of(record_wire as u64) {
            prop_assert!(wal.counters().torn_tail_truncations >= 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An oversized length claim in a segment header is rejected from
    /// the 12 header bytes alone — the prefix before it survives, and
    /// no attacker-sized allocation happens.
    #[test]
    fn prop_wal_oversized_header_keeps_prefix(n_records in 1usize..12) {
        let dir = wal_cases::scratch();
        {
            let (mut wal, _) = icc_wal::Wal::open(&dir, icc_wal::WalOptions::default()).unwrap();
            for i in 0..n_records {
                wal.append(i as u64 + 1, &[0x5a; 24]).unwrap();
            }
        }
        icc_wal::fault::append_oversized_header(&dir).unwrap();

        let (wal, recovered) = icc_wal::Wal::open(&dir, icc_wal::WalOptions::default()).unwrap();
        prop_assert_eq!(recovered.len(), n_records);
        prop_assert_eq!(wal.counters().oversized_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bit flip anywhere in a mid-segment record surfaces as a CRC or
    /// magic failure; recovery keeps the records before it and drops the
    /// damaged suffix — never a panic, never a wrong payload.
    #[test]
    fn prop_wal_segment_bitflip_never_panics(
        n_records in 2usize..12,
        payload_len in 1usize..64,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = wal_cases::scratch();
        let record_wire = HEADER_LEN + 8 + payload_len;
        {
            let (mut wal, _) = icc_wal::Wal::open(&dir, icc_wal::WalOptions::default()).unwrap();
            for i in 0..n_records {
                wal.append(i as u64 + 1, &vec![i as u8; payload_len]).unwrap();
            }
        }
        let total = n_records * record_wire;
        let seg = icc_wal::fault::last_segment(&dir).unwrap().unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        let pos = ((total as f64) * pos_frac) as usize % total;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&seg, &bytes).unwrap();

        let (_, recovered) = icc_wal::Wal::open(&dir, icc_wal::WalOptions::default()).unwrap();
        // Whatever survives is a correct prefix: record i's payload is
        // byte-identical, so a flip can only shorten, never falsify.
        prop_assert!(recovered.len() <= n_records);
        for (i, rec) in recovered.iter().enumerate() {
            prop_assert_eq!(rec.round, i as u64 + 1);
            prop_assert_eq!(&rec.payload, &vec![i as u8; payload_len]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupted_artifacts_rejected_by_pool_not_crashing_it() {
    // End-to-end: feed a pool slightly-corrupted (but decodable)
    // messages; the pool must reject them via signature checks.
    use icc_core::artifacts;
    use icc_core::keys::generate_keys;
    use icc_core::pool::Pool;
    use icc_types::block::{Block, Payload};
    use icc_types::{NodeIndex, Round, SubnetConfig};
    use std::sync::Arc;

    let keys = generate_keys(SubnetConfig::new(4), 3);
    let mut pool = Pool::new(Arc::clone(&keys[0].setup));
    let block = Block::new(
        Round::new(1),
        NodeIndex::new(1),
        keys[0].setup.genesis.hash(),
        Payload::synthetic(2, 32, Round::new(1)),
    )
    .into_hashed();
    let good = ConsensusMessage::Proposal(artifacts::proposal(&keys[1], block, None));
    let bytes = encode_to_vec(&good);
    let mut accepted = 0;
    for pos in (0..bytes.len()).step_by(7) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xFF;
        if let Ok(msg) = decode_from_slice::<ConsensusMessage>(&corrupt) {
            if pool.insert(&msg) {
                accepted += 1;
            }
        }
    }
    // Any mutation must break either the authenticator (header bytes)
    // or the block hash the authenticator covers (payload bytes).
    assert_eq!(accepted, 0, "corrupted artifact accepted");
    assert!(pool.stats().rejected > 0);
}
