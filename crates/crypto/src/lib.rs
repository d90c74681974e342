//! Cryptographic substrate for the Internet Computer Consensus (ICC)
//! reproduction.
//!
//! The ICC protocols (Camenisch et al., PODC 2022, §2) rely on four
//! cryptographic components:
//!
//! 1. a collision-resistant hash function `H` — implemented here as
//!    [SHA-256](sha256()) from scratch (FIPS 180-4), with
//!    [BLAKE2b-256](blake2b) (RFC 7693) for the one bulk pass, over
//!    command bytes;
//! 2. a digital signature scheme `S_auth` used to authenticate block
//!    proposals — [`sig`];
//! 3. two instances of a `(t, n−t, n)`-threshold *multi*-signature scheme
//!    (`S_notary`, `S_final`) used for notarization and finalization
//!    quorums — [`multisig`] (the paper's "approach (ii)", BLS
//!    multi-signatures);
//! 4. one instance of a `(t, t+1, n)`-threshold *unique* signature scheme
//!    (`S_beacon`) used to implement the random beacon — [`threshold`]
//!    (the paper's "approach (iii)", Shamir-shared BLS), driving
//!    [`beacon`].
//!
//! # Security model — read this first
//!
//! The signature schemes in this crate are **simulation-grade and NOT
//! cryptographically secure**. They replace BLS over BLS12-381 with a
//! *linear* scheme over the prime field GF(2^61 − 1):
//!
//! ```text
//! sk = x,   pk = x·g,   sig(m) = x·h(m)      (all arithmetic mod p)
//! ```
//!
//! where `h(m)` maps a message into the field via SHA-256. Anyone can
//! recover `x = pk / g`, so forgery is trivial *for a real attacker*. This
//! is an intentional, documented substitution (see `DESIGN.md` §4): the
//! protocol analysis treats unforgeability as an axiom, and the simulated
//! Byzantine adversary in this repository attacks the *protocol* (by
//! equivocating, withholding, delaying), never the cryptography. What the
//! substitution *preserves* is every structural property the protocol
//! logic depends on:
//!
//! * threshold combining: any `h` valid shares yield the (unique) group
//!   signature, fewer yield nothing;
//! * aggregation: multi-signatures are sums and identify their signatories;
//! * uniqueness + determinism of the beacon scheme, so the random beacon
//!   is a well-defined sequence;
//! * realistic *wire sizes* are applied at the codec layer so traffic
//!   measurements match a BLS deployment (48-byte signatures and shares).
//!
//! # Example
//!
//! ```
//! use icc_crypto::threshold::Dealer;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), icc_crypto::CryptoError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // (t, t+1, n) scheme with n = 4, t = 1: 2 shares reconstruct.
//! let dealt = Dealer::deal(2, 4, &mut rng);
//! let msg = b"round-1 beacon";
//! let s0 = dealt.signer(0).sign_share(msg);
//! let s2 = dealt.signer(2).sign_share(msg);
//! let sig = dealt.public().combine(msg, [s0, s2])?;
//! assert!(dealt.public().verify(msg, &sig));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod beacon;
pub mod blake2b;
pub mod dkg;
pub mod field;
pub mod hashrng;
pub mod multisig;
pub mod sha256;
pub mod shamir;
pub mod sig;
pub mod threshold;

pub use field::Fp;
pub use sha256::{hash_parts, sha256, Hash256, Sha256};

use std::error::Error;
use std::fmt;

/// Errors produced by the cryptographic schemes in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A signature share failed verification against its public key share.
    InvalidShare {
        /// Index of the party whose share was invalid.
        signer: u32,
    },
    /// The same signer contributed more than one share to a combine call.
    DuplicateShare {
        /// Index of the duplicated signer.
        signer: u32,
    },
    /// Not enough shares were supplied to reach the reconstruction threshold.
    InsufficientShares {
        /// Shares required by the scheme.
        needed: usize,
        /// Shares actually supplied.
        got: usize,
    },
    /// A share referenced a party index outside `0..n`.
    UnknownSigner {
        /// The out-of-range index.
        signer: u32,
        /// The number of parties in the scheme.
        n: usize,
    },
    /// A combined signature failed verification.
    VerificationFailed,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::InvalidShare { signer } => {
                write!(f, "invalid signature share from party {signer}")
            }
            CryptoError::DuplicateShare { signer } => {
                write!(f, "duplicate signature share from party {signer}")
            }
            CryptoError::InsufficientShares { needed, got } => {
                write!(
                    f,
                    "insufficient signature shares: needed {needed}, got {got}"
                )
            }
            CryptoError::UnknownSigner { signer, n } => {
                write!(
                    f,
                    "share from unknown party {signer} (scheme has {n} parties)"
                )
            }
            CryptoError::VerificationFailed => write!(f, "signature verification failed"),
        }
    }
}

impl Error for CryptoError {}
