//! The simulation-grade *linear* signature scheme underlying `S_auth`,
//! `S_notary`, `S_final` and `S_beacon`.
//!
//! See the crate-level security note: this scheme is **not secure** and
//! exists to give the protocol exactly the structural properties of BLS
//! signatures with none of the pairing machinery:
//!
//! ```text
//! sk = x ∈ GF(p),  pk = x·g,  sig(m) = x·h(m)
//! verify(pk, m, σ): σ·g == pk·h(m)        (both sides equal x·g·h(m))
//! ```
//!
//! Linearity gives BLS-style aggregation (sum of signatures verifies
//! against sum of public keys — [`crate::multisig`]) and threshold
//! signing via Lagrange combination of shares ([`crate::threshold`]).
//! Signatures are deterministic and *unique* per `(pk, m)`, which the
//! random beacon requires (§2.3).

use crate::field::{random_fp, Fp};
use crate::sha256::hash_parts;
use rand::Rng;
use std::fmt;

/// The fixed public generator of the scheme.
pub const GENERATOR: Fp = Fp::ONE; // g = 1 keeps pk = x; any nonzero g works.

/// Maps a message into the field, domain-separated by `domain`.
pub fn hash_to_field(domain: &str, msg: &[u8]) -> Fp {
    Fp::from_u64_nonzero(hash_parts(domain, &[msg]).prefix_u64())
}

/// The field point a `(domain, message)` pair hashes to, computed **once**
/// and then reused across any number of share verifications.
///
/// [`hash_to_field`] runs a full SHA-256 compression per call — by far the
/// dominant cost of a signature verification in this scheme. Quorum checks
/// verify `k` shares on the *same* message; the naive path recomputes the
/// hash `k` times. Computing a `MessageDigest` up front and calling the
/// `*_digest` verification entry points performs the hash exactly once.
///
/// # Example
///
/// ```
/// use icc_crypto::sig::{MessageDigest, SecretKey};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let sk = SecretKey::generate(&mut rng);
/// let sig = sk.sign("auth", b"block");
/// let d = MessageDigest::compute("auth", b"block"); // one hash…
/// assert!(sk.public_key().verify_digest(d, &sig)); // …reused here
/// assert!(sk.public_key().verify_digest(d, &sig)); // …and here, hash-free
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageDigest(pub(crate) Fp);

impl MessageDigest {
    /// Hashes `(domain, msg)` into the field. This is the only place the
    /// digest-once path pays for SHA-256.
    #[inline]
    pub fn compute(domain: &str, msg: &[u8]) -> MessageDigest {
        MessageDigest(hash_to_field(domain, msg))
    }

    /// The underlying field point `h(m)`.
    #[inline]
    pub fn point(self) -> Fp {
        self.0
    }
}

/// A secret signing key (a field element).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(pub(crate) Fp);

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material, even simulation-grade.
        write!(f, "SecretKey(…)")
    }
}

/// A public verification key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub(crate) Fp);

/// A signature: a single field element, serialized as 48 bytes on the
/// wire (the size of a BLS12-381 G1 point) by the codec layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub(crate) Fp);

impl Signature {
    /// Raw field value — used by the beacon to derive randomness and by
    /// the codec for serialization.
    pub fn value(&self) -> u64 {
        self.0.value()
    }

    /// Rebuilds a signature from its raw field value (codec use).
    pub fn from_value(v: u64) -> Signature {
        Signature(Fp::new(v))
    }
}

impl SecretKey {
    /// Generates a fresh random key.
    pub fn generate(rng: &mut impl Rng) -> SecretKey {
        SecretKey(random_fp(rng))
    }

    /// Builds a key from a raw field element (used by threshold dealers).
    pub fn from_fp(x: Fp) -> SecretKey {
        SecretKey(x)
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(self.0 * GENERATOR)
    }

    /// Signs `msg` under the given domain tag. Deterministic.
    pub fn sign(&self, domain: &str, msg: &[u8]) -> Signature {
        self.sign_digest(MessageDigest::compute(domain, msg))
    }

    /// Signs a pre-computed message digest (hash-free).
    #[inline]
    pub fn sign_digest(&self, digest: MessageDigest) -> Signature {
        Signature(self.0 * digest.0)
    }
}

impl PublicKey {
    /// Verifies `sig` on `msg` under the domain tag.
    ///
    /// # Example
    ///
    /// ```
    /// use icc_crypto::sig::SecretKey;
    /// use rand::SeedableRng;
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// let sk = SecretKey::generate(&mut rng);
    /// let sig = sk.sign("auth", b"block");
    /// assert!(sk.public_key().verify("auth", b"block", &sig));
    /// assert!(!sk.public_key().verify("auth", b"other", &sig));
    /// ```
    pub fn verify(&self, domain: &str, msg: &[u8], sig: &Signature) -> bool {
        self.verify_digest(MessageDigest::compute(domain, msg), sig)
    }

    /// Verifies `sig` against a pre-computed message digest (hash-free).
    #[inline]
    pub fn verify_digest(&self, digest: MessageDigest, sig: &Signature) -> bool {
        sig.0 * GENERATOR == self.0 * digest.0
    }

    /// Raw field value (codec use).
    pub fn value(&self) -> u64 {
        self.0.value()
    }

    /// Rebuilds a public key from its raw field value (codec use).
    pub fn from_value(v: u64) -> PublicKey {
        PublicKey(Fp::new(v))
    }
}

/// A key pair for one party.
#[derive(Debug, Clone, Copy)]
pub struct Keypair {
    /// The secret half.
    pub secret: SecretKey,
    /// The public half.
    pub public: PublicKey,
}

impl Keypair {
    /// Generates a fresh key pair.
    pub fn generate(rng: &mut impl Rng) -> Keypair {
        let secret = SecretKey::generate(rng);
        Keypair {
            public: secret.public_key(),
            secret,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn kp(seed: u64) -> Keypair {
        Keypair::generate(&mut rand::rngs::StdRng::seed_from_u64(seed))
    }

    #[test]
    fn sign_verify_roundtrip() {
        let k = kp(1);
        let sig = k.secret.sign("d", b"hello");
        assert!(k.public.verify("d", b"hello", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let k = kp(2);
        let sig = k.secret.sign("d", b"hello");
        assert!(!k.public.verify("d", b"goodbye", &sig));
    }

    #[test]
    fn wrong_domain_rejected() {
        let k = kp(3);
        let sig = k.secret.sign("notarize", b"m");
        assert!(!k.public.verify("finalize", b"m", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let (a, b) = (kp(4), kp(5));
        let sig = a.secret.sign("d", b"m");
        assert!(!b.public.verify("d", b"m", &sig));
    }

    #[test]
    fn signatures_are_deterministic_and_unique() {
        let k = kp(6);
        assert_eq!(k.secret.sign("d", b"m"), k.secret.sign("d", b"m"));
    }

    #[test]
    fn signature_value_roundtrip() {
        let k = kp(7);
        let sig = k.secret.sign("d", b"m");
        assert_eq!(Signature::from_value(sig.value()), sig);
        assert_eq!(PublicKey::from_value(k.public.value()), k.public);
    }

    #[test]
    fn secret_key_debug_redacts() {
        assert_eq!(format!("{:?}", kp(8).secret), "SecretKey(…)");
    }

    proptest! {
        #[test]
        fn prop_roundtrip(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..64)) {
            let k = kp(seed);
            let sig = k.secret.sign("p", &msg);
            prop_assert!(k.public.verify("p", &msg, &sig));
        }

        #[test]
        fn prop_linearity(s1 in any::<u64>(), s2 in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 1..32)) {
            // (x1 + x2)·h(m) == x1·h(m) + x2·h(m): the property multisig relies on.
            let a = kp(s1); let b = kp(s2);
            let sum_sk = SecretKey::from_fp(a.secret.0 + b.secret.0);
            let agg = Signature(a.secret.sign("p", &msg).0 + b.secret.sign("p", &msg).0);
            prop_assert_eq!(sum_sk.sign("p", &msg), agg);
        }
    }
}
