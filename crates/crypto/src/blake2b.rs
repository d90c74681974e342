//! BLAKE2b-256 implemented from scratch per RFC 7693: unkeyed, 32-byte
//! digest.
//!
//! The protocol needs only a collision-resistant `H` over a block's
//! contents (paper §2.1, §3.1). Command bytes are the one place the
//! workspace hashes data in bulk — every replica makes one pass over
//! every command (`Command::digest` in `icc-types`, the dedup key and
//! the command's leaf in the block id) — and portable BLAKE2b, built on
//! 64-bit additions, rotations and XORs, runs that pass about three
//! times faster than portable SHA-256 (`cmd_digest_16k` in
//! `BENCH_hotpath.json`). Everything else (the block id over its
//! command leaves, signatures, the beacon, state digests) stays on
//! [`sha256`].
//!
//! [`hash_parts`] frames its input exactly as [`sha256::hash_parts`]
//! does, so the injectivity argument carries over unchanged. The
//! module hashes bytes a peer sent and so has no panicking path.
//!
//! [`sha256`]: crate::sha256
//! [`sha256::hash_parts`]: crate::sha256::hash_parts

#![cfg_attr(not(test), deny(clippy::expect_used, clippy::unwrap_used))]

use crate::sha256::Hash256;
use std::fmt;

/// Bytes per compression block.
const BLOCK: usize = 128;

/// The initialisation vector: SHA-512's, as RFC 7693 §2.6 specifies.
const IV: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

/// Message-word schedule, one row per round (rounds 10 and 11 reuse
/// rows 0 and 1), RFC 7693 §2.7.
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

/// Streaming BLAKE2b-256 hasher.
///
/// # Example
///
/// ```
/// use icc_crypto::blake2b::{blake2b, Blake2b};
/// let mut h = Blake2b::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), blake2b(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Blake2b {
    h: [u64; 8],
    buf: [u8; BLOCK],
    buf_len: usize,
    /// Bytes compressed so far (RFC 7693's counter `t`).
    counter: u128,
}

impl fmt::Debug for Blake2b {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Blake2b")
            .field("bytes_absorbed", &(self.counter + self.buf_len as u128))
            .finish()
    }
}

impl Default for Blake2b {
    fn default() -> Self {
        Self::new()
    }
}

impl Blake2b {
    /// Creates an unkeyed hasher with a 32-byte digest.
    pub fn new() -> Self {
        let mut h = IV;
        // Parameter block word 0: digest length 32, key length 0,
        // fanout 1, depth 1.
        h[0] ^= 0x0101_0000 ^ 32;
        Blake2b {
            h,
            buf: [0u8; BLOCK],
            buf_len: 0,
            counter: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    ///
    /// The last block of the message must be compressed with the final
    /// flag set, so a block is compressed only once more input follows
    /// it: a message ending on a block boundary keeps its last full
    /// block in the buffer for [`finalize`](Self::finalize).
    pub fn update(&mut self, data: impl AsRef<[u8]>) {
        let mut data = data.as_ref();
        if self.buf_len > 0 {
            let take = (BLOCK - self.buf_len).min(data.len());
            let (head, rest) = data.split_at(take);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(head);
            self.buf_len += take;
            data = rest;
            // A full buffer may hold the message's last block: only
            // more input may compress it as non-final.
            if data.is_empty() {
                return;
            }
            self.counter += BLOCK as u128;
            compress(&mut self.h, &self.buf, self.counter, false);
            self.buf_len = 0;
        }
        // Whole blocks straight from the input, all but a final one.
        while data.len() > BLOCK {
            let Some((block, rest)) = data.split_first_chunk::<BLOCK>() else {
                break;
            };
            self.counter += BLOCK as u128;
            compress(&mut self.h, block, self.counter, false);
            data = rest;
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Hash256 {
        self.counter += self.buf_len as u128;
        self.buf[self.buf_len..].fill(0);
        compress(&mut self.h, &self.buf, self.counter, true);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(8).zip(self.h) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        Hash256(out)
    }
}

/// The mixing function `G` (RFC 7693 §3.1).
#[inline(always)]
fn g(v: &mut [u64; 16], a: usize, b: usize, c: usize, d: usize, x: u64, y: u64) {
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(x);
    v[d] = (v[d] ^ v[a]).rotate_right(32);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(24);
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(y);
    v[d] = (v[d] ^ v[a]).rotate_right(16);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(63);
}

/// One round: four column steps, then four diagonal steps.
#[inline(always)]
fn round(v: &mut [u64; 16], m: &[u64; 16], s: &[usize; 16]) {
    g(v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
    g(v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
    g(v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
    g(v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
    g(v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
    g(v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
    g(v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
    g(v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
}

/// The compression function `F` (RFC 7693 §3.2) over one block, with
/// `t` the number of message bytes hashed through the end of this block.
fn compress(h: &mut [u64; 8], block: &[u8; BLOCK], t: u128, last: bool) {
    let mut m = [0u64; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(8)) {
        let mut le = [0u8; 8];
        le.copy_from_slice(bytes);
        *word = u64::from_le_bytes(le);
    }
    let mut v = [0u64; 16];
    v[..8].copy_from_slice(h);
    v[8..].copy_from_slice(&IV);
    v[12] ^= t as u64;
    v[13] ^= (t >> 64) as u64;
    if last {
        v[14] = !v[14];
    }
    // Unrolled so every schedule index is a constant.
    round(&mut v, &m, &SIGMA[0]);
    round(&mut v, &m, &SIGMA[1]);
    round(&mut v, &m, &SIGMA[2]);
    round(&mut v, &m, &SIGMA[3]);
    round(&mut v, &m, &SIGMA[4]);
    round(&mut v, &m, &SIGMA[5]);
    round(&mut v, &m, &SIGMA[6]);
    round(&mut v, &m, &SIGMA[7]);
    round(&mut v, &m, &SIGMA[8]);
    round(&mut v, &m, &SIGMA[9]);
    round(&mut v, &m, &SIGMA[0]);
    round(&mut v, &m, &SIGMA[1]);
    for (i, word) in h.iter_mut().enumerate() {
        *word ^= v[i] ^ v[i + 8];
    }
}

/// One-shot BLAKE2b-256 of `data`.
///
/// # Example
///
/// ```
/// let empty = icc_crypto::blake2b::blake2b(b"");
/// assert_eq!(
///     empty.to_string(),
///     "0e5751c026e543b2e8ab2eb06099daa1d1e5df47778f7787faab45cdf12fe3a8"
/// );
/// ```
pub fn blake2b(data: impl AsRef<[u8]>) -> Hash256 {
    let mut h = Blake2b::new();
    h.update(data);
    h.finalize()
}

/// Hashes a sequence of length-prefixed parts under a domain-separation
/// tag — the framing of [`sha256::hash_parts`](crate::sha256::hash_parts)
/// (a 4-byte domain length, the domain, then an 8-byte length before
/// each part), with BLAKE2b-256 as the compression.
pub fn hash_parts(domain: &str, parts: &[&[u8]]) -> Hash256 {
    let mut h = Blake2b::new();
    h.update((domain.len() as u32).to_le_bytes());
    h.update(domain.as_bytes());
    for p in parts {
        h.update((p.len() as u64).to_le_bytes());
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Vectors generated offline with Python's
    // `hashlib.blake2b(data, digest_size=32).hexdigest()`.

    /// `i % 251` for `i` in `0..len`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn hex(h: Hash256) -> String {
        h.to_string()
    }

    #[test]
    fn vector_empty() {
        assert_eq!(
            hex(blake2b(b"")),
            "0e5751c026e543b2e8ab2eb06099daa1d1e5df47778f7787faab45cdf12fe3a8"
        );
    }

    #[test]
    fn vector_abc() {
        assert_eq!(
            hex(blake2b(b"abc")),
            "bddd813c634239723171ef3fee98579b94964e3bb1cb3e427262c8c068d52319"
        );
    }

    #[test]
    fn vector_1000_byte_pattern() {
        assert_eq!(
            hex(blake2b(pattern(1000))),
            "b372d0608f720c8c3dd41e9c8eecb10143b41abe520b616607e754bf79c08331"
        );
    }

    #[test]
    fn vectors_on_and_just_past_block_boundaries() {
        // 128 and 256 bytes end on a block boundary: the last full
        // block is the one compressed with the final flag. 129 bytes
        // spill one byte into a second, zero-padded block.
        for (len, want) in [
            (
                128,
                "c3582f71ebb2be66fa5dd750f80baae97554f3b015663c8be377cfcb2488c1d1",
            ),
            (
                256,
                "582f782226018ec33076bd8d1c42413530ac7e1126260ffc0f306ba3befc3f24",
            ),
            (
                129,
                "f7f3c46ba2564ff4c4c162da1f5b605f9f1c4aa6a20652a9f9a337c1a2f5b9c9",
            ),
        ] {
            assert_eq!(hex(blake2b(pattern(len))), want, "len {len}");
            // A trailing empty update must leave the last block final.
            let mut h = Blake2b::new();
            h.update(pattern(len));
            h.update([]);
            assert_eq!(hex(h.finalize()), want, "len {len}, empty tail");
        }
    }

    #[test]
    fn vector_16k_command() {
        assert_eq!(
            hex(blake2b(pattern(16 * 1024))),
            "96bf38f5a0d5df76b3de7ee5b137eb7af5a1d86b5b1b0eab2f91d18b76f035e8"
        );
    }

    #[test]
    fn vector_million_a() {
        assert_eq!(
            hex(blake2b(vec![b'a'; 1_000_000])),
            "0741850f36cba4259628355d1073e24ddb9ca0e1bfac36fd39ae5dc2101e23a4"
        );
    }

    #[test]
    fn hash_parts_frames_like_sha256_hash_parts() {
        // u32 domain length ‖ "cmd" ‖ u64 part length ‖ "abc".
        assert_eq!(
            hex(hash_parts("cmd", &[b"abc"])),
            "988cafdd8d8689b63688e524c8686c83ab159e0af67f724c46ddd8cff73efceb"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let want = blake2b(&data);
        for split in 0..=data.len() {
            let mut h = Blake2b::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    proptest! {
        #[test]
        fn prop_streaming_matches_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..1200),
            cuts in proptest::collection::vec(0usize..1200, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Blake2b::new();
            let mut at = 0;
            for cut in cuts {
                h.update(&data[at..cut]);
                at = cut;
            }
            h.update(&data[at..]);
            prop_assert_eq!(h.finalize(), blake2b(&data));
        }
    }

    #[test]
    fn hash_parts_is_injective_on_part_boundaries() {
        // ("ab","c") must differ from ("a","bc") and from ("abc",).
        let a = hash_parts("t", &[b"ab", b"c"]);
        let b = hash_parts("t", &[b"a", b"bc"]);
        let c = hash_parts("t", &[b"abc"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn hash_parts_domain_separates() {
        assert_ne!(hash_parts("x", &[b"m"]), hash_parts("y", &[b"m"]));
    }
}
