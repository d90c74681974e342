//! A compact, deterministic wire codec.
//!
//! Two things depend on this module being exact:
//!
//! 1. **Hashing** — command digests, block ids and gossip dedup ids are
//!    hashes of canonically encoded fields, so encoding must be
//!    deterministic and injective;
//! 2. **Traffic metering** — the simulator charges each transmitted
//!    artifact its encoded length, which is how the Table-1 traffic
//!    numbers are reproduced. Signatures and signature shares occupy the
//!    wire size of their BLS12-381 counterparts (48 bytes), as announced
//!    in the substitution table of `DESIGN.md`.
//!
//! The format is little-endian, length-prefixed, and self-delimiting per
//! field; there is no schema evolution machinery (not needed here).

// Decoding reads bytes from peers: no input may panic it.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

use icc_crypto::multisig::{MultiSig, MultiSigShare};
use icc_crypto::sig::Signature;
use icc_crypto::threshold::ThresholdSigShare;
use icc_crypto::Hash256;
use std::error::Error;
use std::fmt;

/// Wire size of a signature or signature share: the size of a BLS12-381
/// G1 point, so simulated traffic matches a BLS deployment.
pub const SIG_WIRE_BYTES: usize = 48;

/// Errors from decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// Bytes needed to continue decoding.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    InvalidTag {
        /// The offending tag.
        tag: u8,
        /// The type being decoded.
        ty: &'static str,
    },
    /// Decoding finished with input left over.
    TrailingBytes {
        /// Number of undecoded bytes.
        count: usize,
    },
    /// A length prefix exceeded the sanity limit.
    LengthOverflow {
        /// The claimed length.
        len: u64,
    },
    /// The fixed zero padding of a signature was non-zero.
    BadPadding,
    /// The bytes decode to a value whose canonical encoding differs
    /// (an unreduced field element, stray or trailing-zero bitmap bits).
    /// Rejected so that an artifact has exactly one wire form: ids
    /// hashed over received bytes equal ids hashed over re-encoded ones.
    NonCanonical {
        /// The type being decoded.
        ty: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::InvalidTag { tag, ty } => write!(f, "invalid tag {tag} for {ty}"),
            CodecError::TrailingBytes { count } => write!(f, "{count} trailing bytes after decode"),
            CodecError::LengthOverflow { len } => write!(f, "length prefix {len} exceeds limit"),
            CodecError::BadPadding => write!(f, "non-zero signature padding"),
            CodecError::NonCanonical { ty } => write!(f, "non-canonical encoding of {ty}"),
        }
    }
}

impl Error for CodecError {}

/// Sanity cap on any single length prefix (64 MiB) to bound allocation
/// from corrupt input. The stream-transport frame guard
/// ([`crate::frame::DEFAULT_MAX_FRAME_LEN`]) sits *below* this cap, so
/// a hostile peer is rejected at the framing layer before any
/// payload-sized allocation can happen here.
pub const MAX_LEN: u64 = 64 << 20;

/// A cursor over input bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// The bytes not yet consumed.
    fn rest(&self) -> &'a [u8] {
        self.data.get(self.pos..).unwrap_or_default()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest().len()
    }

    /// Decodes a `T` and returns it with the input bytes it was decoded
    /// from — its exact wire form.
    ///
    /// # Errors
    ///
    /// Whatever `T::decode` returns.
    pub fn decode_spanned<T: Decode>(&mut self) -> Result<(T, &'a [u8]), CodecError> {
        let rest = self.rest();
        let value = T::decode(self)?;
        let span = rest.get(..rest.len() - self.remaining());
        Ok((value, span.unwrap_or_default()))
    }

    /// Takes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let rest = self.rest();
        let out = rest.get(..n).ok_or(CodecError::UnexpectedEof {
            needed: n,
            remaining: rest.len(),
        })?;
        self.pos += n;
        Ok(out)
    }

    /// Takes exactly `N` bytes, as an array.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than `N` bytes remain.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let rest = self.rest();
        let (out, _) = rest
            .split_first_chunk::<N>()
            .ok_or(CodecError::UnexpectedEof {
                needed: N,
                remaining: rest.len(),
            })?;
        self.pos += N;
        Ok(*out)
    }
}

/// A value with a canonical byte encoding.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// The length of the canonical encoding in bytes.
    ///
    /// The default computes it by encoding; implementors on hot paths
    /// override it with a direct computation.
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// A value decodable from its canonical encoding.
pub trait Decode: Sized {
    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value to a fresh byte vector in exactly **one allocation**:
/// the buffer is pre-sized from [`Encode::encoded_len`], so `encode`
/// never reallocates (debug builds assert the two agree).
#[inline]
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let len = value.encoded_len();
    let mut buf = Vec::with_capacity(len);
    value.encode(&mut buf);
    debug_assert_eq!(
        buf.len(),
        len,
        "encoded_len disagrees with encode: the one-alloc guarantee is broken"
    );
    buf
}

/// Decodes exactly one value from `data`, rejecting trailing bytes.
///
/// # Errors
///
/// Any [`CodecError`], including [`CodecError::TrailingBytes`] if `data`
/// is longer than one encoded value.
pub fn decode_from_slice<T: Decode>(data: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(data);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            count: r.remaining(),
        });
    }
    Ok(v)
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64);

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { tag, ty: "bool" }),
        }
    }
}

impl Encode for [u8] {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        8 + self.len()
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_slice().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + self.len()
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u64::decode(r)?;
        if len > MAX_LEN {
            return Err(CodecError::LengthOverflow { len });
        }
        Ok(r.take(len as usize)?.to_vec())
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::InvalidTag { tag, ty: "Option" }),
        }
    }
}

/// Generic sequence encoding: u64 count then elements. (Specialized
/// `Vec<u8>` above uses a raw byte run instead.)
pub fn encode_seq<T: Encode>(items: &[T], buf: &mut Vec<u8>) {
    (items.len() as u64).encode(buf);
    for item in items {
        item.encode(buf);
    }
}

/// Generic sequence decoding; see [`encode_seq`].
///
/// # Errors
///
/// Any [`CodecError`] from element decoding, or
/// [`CodecError::LengthOverflow`] on an absurd count.
pub fn decode_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
    let len = u64::decode(r)?;
    if len > MAX_LEN {
        return Err(CodecError::LengthOverflow { len });
    }
    let mut out = Vec::with_capacity((len as usize).min(1024));
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

impl Encode for Hash256 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decode for Hash256 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Hash256(r.take_array()?))
    }
}

impl Encode for Signature {
    /// 8-byte value + 40 bytes of zero padding = 48 wire bytes, matching
    /// a BLS12-381 G1 signature.
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.value().to_le_bytes());
        buf.extend_from_slice(&[0u8; SIG_WIRE_BYTES - 8]);
    }
    fn encoded_len(&self) -> usize {
        SIG_WIRE_BYTES
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(r)?;
        let pad = r.take(SIG_WIRE_BYTES - 8)?;
        if pad.iter().any(|&b| b != 0) {
            return Err(CodecError::BadPadding);
        }
        if v >= icc_crypto::field::P {
            return Err(CodecError::NonCanonical { ty: "Signature" });
        }
        Ok(Signature::from_value(v))
    }
}

impl Encode for MultiSigShare {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.signer.encode(buf);
        self.signature.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        4 + SIG_WIRE_BYTES
    }
}

impl Decode for MultiSigShare {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MultiSigShare {
            signer: u32::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

impl Encode for ThresholdSigShare {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.signer.encode(buf);
        self.signature.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        4 + SIG_WIRE_BYTES
    }
}

impl Decode for ThresholdSigShare {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ThresholdSigShare {
            signer: u32::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

impl Encode for MultiSig {
    /// Aggregate signature (48 bytes) + signatory bitmap (u16 bit count,
    /// then ⌈bits/8⌉ bytes) — the compact form BLS multi-signatures use.
    fn encode(&self, buf: &mut Vec<u8>) {
        self.signature.encode(buf);
        let bits = self.signers.iter().map(|&s| s + 1).max().unwrap_or(0) as usize;
        assert!(
            bits <= u16::MAX as usize,
            "multi-signature signer index exceeds the u16 bitmap bound"
        );
        (bits as u16).encode(buf);
        let mut bitmap = vec![0u8; bits.div_ceil(8)];
        for &s in self.signers.iter() {
            if let Some(byte) = bitmap.get_mut(s as usize / 8) {
                *byte |= 1 << (s % 8);
            }
        }
        buf.extend_from_slice(&bitmap);
    }
    fn encoded_len(&self) -> usize {
        let bits = self.signers.iter().map(|&s| s + 1).max().unwrap_or(0) as usize;
        SIG_WIRE_BYTES + 2 + bits.div_ceil(8)
    }
}

impl Decode for MultiSig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let signature = Signature::decode(r)?;
        let bits = u16::decode(r)? as usize;
        let bitmap = r.take(bits.div_ceil(8))?;
        // Canonical form: `bits` is the highest signer + 1, so the last
        // byte shifted down to that signer's bit is exactly 1 — the bit
        // is set and nothing sits above it.
        if let Some(last) = bitmap.last() {
            if last >> ((bits - 1) % 8) != 1 {
                return Err(CodecError::NonCanonical { ty: "MultiSig" });
            }
        }
        let signers: Vec<u32> = (0..bits)
            .filter(|i| {
                bitmap
                    .get(i / 8)
                    .is_some_and(|byte| byte >> (i % 8) & 1 == 1)
            })
            .map(|i| i as u32)
            .collect();
        Ok(MultiSig {
            signature,
            signers: signers.into(),
        })
    }
}

impl Encode for icc_crypto::beacon::BeaconValue {
    /// Tag byte (0 = genesis seed, 1 = threshold signature) + value.
    fn encode(&self, buf: &mut Vec<u8>) {
        use icc_crypto::beacon::BeaconValue;
        match self {
            BeaconValue::Genesis(h) => {
                buf.push(0);
                h.encode(buf);
            }
            BeaconValue::Signature(sig) => {
                buf.push(1);
                sig.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        use icc_crypto::beacon::BeaconValue;
        1 + match self {
            BeaconValue::Genesis(_) => 32,
            BeaconValue::Signature(_) => SIG_WIRE_BYTES,
        }
    }
}

impl Decode for icc_crypto::beacon::BeaconValue {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use icc_crypto::beacon::BeaconValue;
        match u8::decode(r)? {
            0 => Ok(BeaconValue::Genesis(Hash256::decode(r)?)),
            1 => Ok(BeaconValue::Signature(Signature::decode(r)?)),
            tag => Err(CodecError::InvalidTag {
                tag,
                ty: "BeaconValue",
            }),
        }
    }
}

impl Encode for crate::ids::NodeIndex {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.get().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for crate::ids::NodeIndex {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(crate::ids::NodeIndex::new(u32::decode(r)?))
    }
}

impl Encode for crate::ids::Round {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.get().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for crate::ids::Round {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(crate::ids::Round::new(u64::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len mismatch");
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEADBEEFu32);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
    }

    #[test]
    fn id_roundtrips() {
        roundtrip(crate::ids::NodeIndex::new(12));
        roundtrip(crate::ids::Round::new(1 << 40));
        roundtrip(Hash256([7u8; 32]));
    }

    #[test]
    fn signature_wire_size_is_48() {
        let sig = Signature::from_value(12345);
        assert_eq!(encode_to_vec(&sig).len(), 48);
        roundtrip(sig);
    }

    #[test]
    fn signature_bad_padding_rejected() {
        let mut bytes = encode_to_vec(&Signature::from_value(1));
        bytes[47] = 1;
        assert_eq!(
            decode_from_slice::<Signature>(&bytes),
            Err(CodecError::BadPadding)
        );
    }

    #[test]
    fn multisig_bitmap_roundtrip() {
        let ms = MultiSig {
            signature: Signature::from_value(9),
            signers: vec![0, 3, 9, 38].into(),
        };
        roundtrip(ms.clone());
        // 48 sig + 2 count + ceil(39/8)=5 bitmap bytes
        assert_eq!(ms.encoded_len(), 55);
    }

    #[test]
    fn non_canonical_encodings_rejected() {
        // An unreduced signature value.
        let mut bytes = encode_to_vec(&Signature::from_value(1));
        bytes[..8].copy_from_slice(&(icc_crypto::field::P + 1).to_le_bytes());
        assert_eq!(
            decode_from_slice::<Signature>(&bytes),
            Err(CodecError::NonCanonical { ty: "Signature" })
        );
        // Signers {0, 3}: canonical is 4 bits, bitmap 0b1001.
        let ms = MultiSig {
            signature: Signature::from_value(9),
            signers: vec![0, 3].into(),
        };
        let canonical = encode_to_vec(&ms);
        assert_eq!(decode_from_slice::<MultiSig>(&canonical).unwrap(), ms);
        // Same signers, a stray bit above the declared count.
        let mut stray = canonical.clone();
        stray[50] |= 0b1000_0000;
        // Same signers, declared count padded with a zero top bit.
        let mut padded = canonical.clone();
        padded[48..50].copy_from_slice(&5u16.to_le_bytes());
        for bytes in [stray, padded] {
            assert_eq!(
                decode_from_slice::<MultiSig>(&bytes),
                Err(CodecError::NonCanonical { ty: "MultiSig" })
            );
        }
    }

    #[test]
    fn multisig_empty_signers() {
        roundtrip(MultiSig {
            signature: Signature::from_value(0),
            signers: vec![].into(),
        });
    }

    #[test]
    fn beacon_value_roundtrip() {
        use icc_crypto::beacon::BeaconValue;
        roundtrip(BeaconValue::Genesis(Hash256([3u8; 32])));
        roundtrip(BeaconValue::Signature(Signature::from_value(42)));
        assert!(matches!(
            decode_from_slice::<BeaconValue>(&[7]),
            Err(CodecError::InvalidTag {
                ty: "BeaconValue",
                ..
            })
        ));
    }

    #[test]
    fn shares_roundtrip() {
        roundtrip(MultiSigShare {
            signer: 5,
            signature: Signature::from_value(77),
        });
        roundtrip(ThresholdSigShare {
            signer: 6,
            signature: Signature::from_value(88),
        });
    }

    #[test]
    fn eof_reports_counts() {
        let err = decode_from_slice::<u64>(&[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            CodecError::UnexpectedEof {
                needed: 8,
                remaining: 3
            }
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0);
        assert_eq!(
            decode_from_slice::<u32>(&bytes),
            Err(CodecError::TrailingBytes { count: 1 })
        );
    }

    #[test]
    fn bad_bool_tag_rejected() {
        assert_eq!(
            decode_from_slice::<bool>(&[9]),
            Err(CodecError::InvalidTag { tag: 9, ty: "bool" })
        );
    }

    #[test]
    fn length_overflow_rejected() {
        let mut bytes = Vec::new();
        (u64::MAX).encode(&mut bytes);
        assert!(matches!(
            decode_from_slice::<Vec<u8>>(&bytes),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn seq_helpers_roundtrip() {
        let items = vec![1u32, 5, 9];
        let mut buf = Vec::new();
        encode_seq(&items, &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_seq::<u32>(&mut r).unwrap(), items);
        assert_eq!(r.remaining(), 0);
    }

    proptest! {
        #[test]
        fn prop_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            roundtrip(data);
        }

        #[test]
        fn prop_multisig_roundtrip(signers in proptest::collection::btree_set(0u32..512, 0..40), v in any::<u64>()) {
            let signers: Vec<u32> = signers.into_iter().collect();
            roundtrip(MultiSig { signature: Signature::from_value(v % icc_crypto::field::P), signers: signers.into() });
        }
    }
}
