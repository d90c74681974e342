//! Length-prefixed, CRC-checked wire frames for stream transports.
//!
//! The [`codec`](crate::codec) module gives every artifact a canonical
//! byte encoding; this module gives those bytes a *framing* so they can
//! travel over a byte stream (TCP) and be cut back into messages on the
//! far side. Each frame is:
//!
//! ```text
//! ┌──────────┬──────────┬──────────┬─────────────────┐
//! │ magic u32│ len  u32 │ crc32 u32│ payload (len B) │
//! └──────────┴──────────┴──────────┴─────────────────┘
//! ```
//!
//! all little-endian. `magic` detects stream desynchronisation (a
//! half-written frame after a crash, a peer speaking another protocol);
//! `crc32` (IEEE 802.3 polynomial) detects corruption the kernel's
//! checksum missed or a buggy peer introduced; `len` is the payload
//! length and is validated against a **maximum frame length before any
//! allocation happens** — the guard that stops a malicious peer from
//! OOMing a replica with a declared 4 GiB frame. Oversized frames are
//! rejected with the typed [`FrameError::TooLarge`], and the per-field
//! length caps inside the payload codec ([`codec::MAX_LEN`]) back this
//! up once the payload is being decoded.
//!
//! [`frame`] is the one writer: it reserves the header in the output
//! buffer, lets the caller encode the payload straight into it, then
//! patches length and CRC — each payload byte is written once and
//! checksummed once ([`encode_frame`] is the same call for bytes that
//! already exist). [`crc32`] is slice-by-8.
//!
//! [`FrameBuffer`] is the incremental decoder: feed it whatever byte
//! slices the socket produces — one byte at a time, half a header, three
//! frames at once — and pull complete payloads out. It never trusts the
//! declared length until the guard has passed, and it never copies more
//! than once.
//!
//! [`codec::MAX_LEN`]: crate::codec::MAX_LEN

use std::error::Error;
use std::fmt;

/// Frame magic: `b"ICC1"` read as a little-endian `u32`. A receiver
/// finding anything else at a frame boundary is not looking at a frame
/// boundary.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ICC1");

/// Bytes of frame header: magic + length + CRC.
pub const HEADER_LEN: usize = 12;

/// Default cap on a single frame's payload (16 MiB) — generous for any
/// artifact this workspace produces (a block proposal is bounded by
/// `BlockPolicy::max_bytes`, default 1 MiB) while bounding what a
/// malformed length prefix can make a replica allocate. Kept below the
/// payload codec's own per-field cap ([`crate::codec::MAX_LEN`], 64 MiB)
/// so the frame guard always trips first.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 << 20;

/// Why a frame was rejected. All variants are protocol-fatal for the
/// connection that produced them: after any of these the stream offset
/// can no longer be trusted and the connection should be dropped (the
/// peer will reconnect and resynchronise at a fresh frame boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The four bytes at the expected frame boundary were not [`MAGIC`].
    BadMagic {
        /// The bytes actually found, as a little-endian `u32`.
        got: u32,
    },
    /// The declared payload length exceeds the configured maximum.
    /// Raised *before* any buffer is sized to the declared length.
    TooLarge {
        /// The declared payload length.
        len: u32,
        /// The configured maximum.
        max: u32,
    },
    /// The payload arrived complete but its CRC-32 does not match.
    Corrupt {
        /// CRC declared in the header.
        declared: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { got } => {
                write!(f, "bad frame magic {got:#010x} (expected {MAGIC:#010x})")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "declared frame length {len} exceeds maximum {max}")
            }
            FrameError::Corrupt { declared, computed } => {
                write!(
                    f,
                    "frame CRC mismatch: declared {declared:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl Error for FrameError {}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) lookup
/// table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slice-by-8 tables: `CRC_TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, so eight input bytes fold into the state
/// with eight independent lookups instead of eight dependent ones.
/// `CRC_TABLES[0]` is [`CRC_TABLE`].
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [CRC_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data` — the checksum carried in every frame header.
///
/// Slice-by-8: eight bytes per step through [`CRC_TABLES`], the tail
/// bytewise. Every net frame, WAL record and checkpoint passes through
/// here on both the write and the read side.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends one frame to `out`, building the payload **in place**: the
/// 12-byte header is reserved, `fill` appends the payload straight into
/// `out` (typically an [`Encode::encode`](crate::codec::Encode::encode)
/// call), then length and CRC are patched into the header. The payload
/// is written once and checksummed once; there is no intermediate
/// buffer. `fill` must only append. Returns the payload length.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes (no artifact in this
/// workspace comes within three orders of magnitude of that).
pub fn frame(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&[0u8; HEADER_LEN - 4]);
    let body = out.len();
    fill(out);
    let len = u32::try_from(out.len() - body).expect("frame payload exceeds u32::MAX");
    let crc = crc32(&out[body..]);
    out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
    out[start + 8..body].copy_from_slice(&crc.to_le_bytes());
    len as usize
}

/// Frames an already-encoded `payload` into a fresh buffer: header +
/// payload in one allocation.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    frame(&mut out, |buf| buf.extend_from_slice(payload));
    out
}

/// Incremental frame decoder over a byte stream.
///
/// Feed arbitrary chunks with [`extend`](FrameBuffer::extend); pull
/// complete payloads with [`next_frame`](FrameBuffer::next_frame). Any
/// error is sticky for the stream (the caller should drop the
/// connection), but the buffer itself stays usable for a fresh stream
/// after [`reset`](FrameBuffer::reset).
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames; compacted
    /// away once it outgrows half the buffer.
    consumed: usize,
    max_len: u32,
}

impl Default for FrameBuffer {
    fn default() -> Self {
        FrameBuffer::new()
    }
}

impl FrameBuffer {
    /// A decoder with the [`DEFAULT_MAX_FRAME_LEN`] guard.
    pub fn new() -> FrameBuffer {
        FrameBuffer::with_max_len(DEFAULT_MAX_FRAME_LEN)
    }

    /// A decoder rejecting frames whose declared payload exceeds
    /// `max_len` bytes.
    pub fn with_max_len(max_len: u32) -> FrameBuffer {
        FrameBuffer {
            buf: Vec::new(),
            consumed: 0,
            max_len,
        }
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: move the unconsumed tail to the front when the
        // dead prefix dominates, so long-lived connections don't grow
        // the buffer without bound.
        if self.consumed > 0 && self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Discards all buffered bytes (for reusing the allocation on a new
    /// connection).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.consumed = 0;
    }

    /// Extracts the next complete frame's payload, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed — short reads are
    /// normal, not errors.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadMagic`] on a broken frame boundary,
    /// [`FrameError::TooLarge`] when the declared length exceeds the
    /// configured maximum (checked before any allocation),
    /// [`FrameError::Corrupt`] on a CRC mismatch.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = &self.buf[self.consumed..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let word = |at: usize| u32::from_le_bytes(avail[at..at + 4].try_into().expect("4 bytes"));
        let magic = word(0);
        if magic != MAGIC {
            return Err(FrameError::BadMagic { got: magic });
        }
        let len = word(4);
        if len > self.max_len {
            return Err(FrameError::TooLarge {
                len,
                max: self.max_len,
            });
        }
        let declared = word(8);
        let total = HEADER_LEN + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = &avail[HEADER_LEN..total];
        let computed = crc32(payload);
        if computed != declared {
            return Err(FrameError::Corrupt { declared, computed });
        }
        let out = payload.to_vec();
        self.consumed += total;
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table, byte-at-a-time CRC-32 the slice-by-8 kernel
    /// replaced; kept here as the differential reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_at_every_short_length() {
        // Every length through eight full strides: each remainder
        // length (0..8) behind 0..8 sliced chunks.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_crc32_matches_bytewise(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }

    #[test]
    fn in_place_frames_append_and_report_payload_len() {
        let mut out = b"prefix".to_vec();
        let len = frame(&mut out, |buf| buf.extend_from_slice(b"payload"));
        assert_eq!(len, 7);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &encode_frame(b"payload")[..]);
    }

    #[test]
    fn frame_roundtrip() {
        for payload in [&b""[..], b"x", b"hello frames", &[0xAAu8; 4096][..]] {
            let framed = encode_frame(payload);
            assert_eq!(framed.len(), HEADER_LEN + payload.len());
            let mut fb = FrameBuffer::new();
            fb.extend(&framed);
            assert_eq!(fb.next_frame().unwrap().as_deref(), Some(payload));
            assert_eq!(fb.next_frame().unwrap(), None);
            assert_eq!(fb.pending(), 0);
        }
    }

    #[test]
    fn partial_reads_byte_by_byte() {
        let framed = encode_frame(b"short reads are normal");
        let mut fb = FrameBuffer::new();
        for (i, b) in framed.iter().enumerate() {
            fb.extend(std::slice::from_ref(b));
            let got = fb.next_frame().unwrap();
            if i + 1 < framed.len() {
                assert_eq!(got, None, "frame complete too early at byte {i}");
            } else {
                assert_eq!(got.as_deref(), Some(&b"short reads are normal"[..]));
            }
        }
    }

    #[test]
    fn multiple_frames_in_one_read() {
        let mut stream = Vec::new();
        for payload in [&b"one"[..], b"two", b"three"] {
            frame(&mut stream, |buf| buf.extend_from_slice(payload));
        }
        let mut fb = FrameBuffer::new();
        fb.extend(&stream);
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"two"[..]));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"three"[..]));
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected_before_payload_arrives() {
        // Header declaring a 1 GiB payload: the guard must trip from the
        // header alone — no waiting for (or allocating) the payload.
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.extend_from_slice(&(1u32 << 30).to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        let mut fb = FrameBuffer::new();
        fb.extend(&header);
        assert_eq!(
            fb.next_frame(),
            Err(FrameError::TooLarge {
                len: 1 << 30,
                max: DEFAULT_MAX_FRAME_LEN
            })
        );
    }

    #[test]
    fn custom_max_len_enforced() {
        let framed = encode_frame(&[7u8; 100]);
        let mut fb = FrameBuffer::with_max_len(64);
        fb.extend(&framed);
        assert_eq!(
            fb.next_frame(),
            Err(FrameError::TooLarge { len: 100, max: 64 })
        );
        // At the boundary it passes.
        let mut fb = FrameBuffer::with_max_len(100);
        fb.extend(&framed);
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&[7u8; 100][..]));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut framed = encode_frame(b"ok");
        framed[0] ^= 0xFF;
        let mut fb = FrameBuffer::new();
        fb.extend(&framed);
        assert!(matches!(fb.next_frame(), Err(FrameError::BadMagic { .. })));
    }

    #[test]
    fn corrupt_payload_rejected() {
        let mut framed = encode_frame(b"payload bytes");
        let last = framed.len() - 1;
        framed[last] ^= 0x01;
        let mut fb = FrameBuffer::new();
        fb.extend(&framed);
        assert!(matches!(fb.next_frame(), Err(FrameError::Corrupt { .. })));
    }

    #[test]
    fn compaction_keeps_long_streams_bounded() {
        let framed = encode_frame(&[1u8; 1000]);
        let mut fb = FrameBuffer::new();
        for _ in 0..100 {
            fb.extend(&framed);
            assert!(fb.next_frame().unwrap().is_some());
            assert_eq!(fb.pending(), 0);
        }
        // The internal buffer never holds more than ~2 frames' worth.
        assert!(fb.buf.len() <= 3 * framed.len(), "buffer grew unbounded");
    }

    #[test]
    fn reset_recovers_from_mid_frame_garbage() {
        let mut fb = FrameBuffer::new();
        fb.extend(b"garbage that is not a frame header!!");
        assert!(fb.next_frame().is_err());
        fb.reset();
        fb.extend(&encode_frame(b"clean"));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"clean"[..]));
    }
}
