//! `(t, h, n)`-threshold **unique** signatures — the paper's "approach
//! (iii)" (§2.3): a single signing key Shamir-shared among the parties.
//!
//! Used for `S_beacon` with `h = t + 1`. The crucial properties (all
//! preserved by the linear simulation scheme, see the crate-level note):
//!
//! * any `t + 1` valid shares combine — via Lagrange interpolation at
//!   zero — into *the* group signature;
//! * the signature is **unique and deterministic**: every combination of
//!   every share subset yields the same value, so the random beacon
//!   `R_k = Sign(R_{k−1})` is a well-defined sequence;
//! * `t` corrupt parties alone cannot construct it (in the real BLS
//!   instantiation; here by convention of the simulated adversary).
//!
//! Keys are produced by a trusted [`Dealer`], which the paper explicitly
//! allows ("must either be set up by a trusted party or a secure
//! distributed key generation protocol", §3.1).

use crate::field::{random_fp, Fp};
use crate::shamir::{self, LagrangeCache, Share};
use crate::sig::{MessageDigest, PublicKey, SecretKey, Signature};
use crate::CryptoError;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// Capacity of the per-instance Lagrange coefficient LRU. Signer sets
/// churn slowly round-to-round, so a small cache captures nearly all
/// repeats without unbounded growth.
const LAGRANGE_CACHE_CAP: usize = 32;

/// A signature share produced by one party's key share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThresholdSigShare {
    /// 0-based index of the contributing party.
    pub signer: u32,
    /// The share value `x_i · h(m)`.
    pub signature: Signature,
}

/// Public material of a threshold instance: the global public key, the
/// per-party public key shares, and the reconstruction threshold.
#[derive(Clone)]
pub struct ThresholdPublic {
    domain: String,
    threshold: usize,
    global: PublicKey,
    share_publics: Vec<PublicKey>,
    /// Signer-set-keyed LRU for Lagrange coefficients; shared across
    /// clones so every replica of the setup feeds one cache.
    lagrange: Arc<LagrangeCache>,
}

impl fmt::Debug for ThresholdPublic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThresholdPublic")
            .field("domain", &self.domain)
            .field("threshold", &self.threshold)
            .field("parties", &self.share_publics.len())
            .finish()
    }
}

/// One party's signing handle: its secret key share plus a reference to
/// the public material.
#[derive(Debug, Clone)]
pub struct ThresholdSigner {
    index: u32,
    secret: SecretKey,
    public: Arc<ThresholdPublic>,
}

/// The result of dealing a `(t, h, n)` threshold instance.
#[derive(Debug, Clone)]
pub struct Dealt {
    public: Arc<ThresholdPublic>,
    signers: Vec<ThresholdSigner>,
}

/// Trusted dealer for threshold keys.
#[derive(Debug)]
pub struct Dealer;

impl Dealer {
    /// Deals a threshold instance where any `threshold` of `n` parties
    /// can sign, under the default domain `"threshold"`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero or exceeds `n`.
    pub fn deal(threshold: usize, n: usize, rng: &mut impl Rng) -> Dealt {
        Self::deal_with_domain("threshold", threshold, n, rng)
    }

    /// Deals a threshold instance with an explicit domain-separation tag
    /// (e.g. `"beacon"`).
    pub fn deal_with_domain(
        domain: impl Into<String>,
        threshold: usize,
        n: usize,
        rng: &mut impl Rng,
    ) -> Dealt {
        let domain = domain.into();
        let master = random_fp(rng);
        let shares = shamir::split(master, threshold, n, rng);
        let share_publics = shares
            .iter()
            .map(|s| SecretKey::from_fp(s.value).public_key())
            .collect();
        let public = Arc::new(ThresholdPublic {
            domain,
            threshold,
            global: SecretKey::from_fp(master).public_key(),
            share_publics,
            lagrange: Arc::new(LagrangeCache::new(LAGRANGE_CACHE_CAP)),
        });
        let signers = shares
            .into_iter()
            .map(|Share { index, value }| ThresholdSigner {
                index,
                secret: SecretKey::from_fp(value),
                public: Arc::clone(&public),
            })
            .collect();
        Dealt { public, signers }
    }
}

impl Dealt {
    /// Assembles a dealt instance from externally produced material —
    /// the constructor used by [`crate::dkg::reshare_aggregate`], which
    /// re-shares an existing instance instead of sampling a fresh one.
    pub fn from_parts(public: Arc<ThresholdPublic>, signers: Vec<ThresholdSigner>) -> Dealt {
        Dealt { public, signers }
    }

    /// The shared public material.
    pub fn public(&self) -> Arc<ThresholdPublic> {
        Arc::clone(&self.public)
    }

    /// Party `i`'s signing handle.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn signer(&self, i: usize) -> ThresholdSigner {
        self.signers[i].clone()
    }

    /// All signing handles, in party order.
    pub fn signers(&self) -> &[ThresholdSigner] {
        &self.signers
    }

    /// All signing handles, in party order, by value.
    pub fn into_signers(self) -> Vec<ThresholdSigner> {
        self.signers
    }
}

impl ThresholdSigner {
    /// Assembles a signing handle from externally produced key material
    /// (DKG / resharing output).
    pub fn from_parts(index: u32, secret: SecretKey, public: Arc<ThresholdPublic>) -> Self {
        ThresholdSigner {
            index,
            secret,
            public,
        }
    }

    /// This signer's secret key share — the input to a resharing
    /// dealing, where the party re-shares its *existing* share rather
    /// than a fresh secret. Crate-internal: secrecy of shares is a
    /// convention of the simulation scheme, but the public API still
    /// never leaks them.
    pub(crate) fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// This signer's party index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Produces this party's signature share on `msg`.
    pub fn sign_share(&self, msg: &[u8]) -> ThresholdSigShare {
        ThresholdSigShare {
            signer: self.index,
            signature: self.secret.sign(&self.public.domain, msg),
        }
    }

    /// The shared public material.
    pub fn public(&self) -> &ThresholdPublic {
        &self.public
    }
}

impl ThresholdPublic {
    /// Assembles public material from externally produced parts (DKG /
    /// resharing output). The Lagrange cache starts empty.
    pub fn from_parts(
        domain: impl Into<String>,
        threshold: usize,
        global: PublicKey,
        share_publics: Vec<PublicKey>,
    ) -> Self {
        assert!(
            threshold >= 1 && threshold <= share_publics.len(),
            "threshold {threshold} out of range for {} parties",
            share_publics.len()
        );
        ThresholdPublic {
            domain: domain.into(),
            threshold,
            global,
            share_publics,
            lagrange: Arc::new(LagrangeCache::new(LAGRANGE_CACHE_CAP)),
        }
    }

    /// The domain-separation tag this instance signs under.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// Party `i`'s public key share, if `i` is in range.
    pub fn share_public(&self, i: usize) -> Option<PublicKey> {
        self.share_publics.get(i).copied()
    }

    /// The reconstruction threshold `h`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of parties `n`.
    pub fn parties(&self) -> usize {
        self.share_publics.len()
    }

    /// The global public key the combined signature verifies under.
    pub fn global_key(&self) -> PublicKey {
        self.global
    }

    /// Hashes `msg` into the field under this scheme's domain — computed
    /// **once** and reusable across every share verification on `msg`
    /// (see [`MessageDigest`]).
    #[inline]
    pub fn digest(&self, msg: &[u8]) -> MessageDigest {
        MessageDigest::compute(&self.domain, msg)
    }

    /// Verifies an individual share against the signer's public key share.
    pub fn verify_share(&self, msg: &[u8], share: &ThresholdSigShare) -> bool {
        self.verify_share_digest(self.digest(msg), share)
    }

    /// Hash-free variant of [`verify_share`](Self::verify_share) against a
    /// pre-computed digest.
    #[inline]
    pub fn verify_share_digest(&self, digest: MessageDigest, share: &ThresholdSigShare) -> bool {
        match self.share_publics.get(share.signer as usize) {
            Some(pk) => pk.verify_digest(digest, &share.signature),
            None => false,
        }
    }

    /// Cache statistics of the Lagrange LRU: `(hits, misses)`.
    pub fn lagrange_cache_stats(&self) -> (u64, u64) {
        (self.lagrange.hits(), self.lagrange.misses())
    }

    /// Combines at least `h` distinct valid shares into the unique group
    /// signature via Lagrange interpolation at zero.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::multisig::MultiSigScheme::combine`]: duplicate,
    /// unknown, invalid, or insufficient shares are rejected; the
    /// combined value is verified before being returned
    /// ([`CryptoError::VerificationFailed`] should be unreachable for
    /// honest inputs and exists as a defense-in-depth check).
    pub fn combine(
        &self,
        msg: &[u8],
        shares: impl IntoIterator<Item = ThresholdSigShare>,
    ) -> Result<Signature, CryptoError> {
        // Digest-once: one hash for share checks *and* the final verify.
        let digest = self.digest(msg);
        let mut seen: Vec<ThresholdSigShare> = Vec::new();
        for share in shares {
            if share.signer as usize >= self.share_publics.len() {
                return Err(CryptoError::UnknownSigner {
                    signer: share.signer,
                    n: self.share_publics.len(),
                });
            }
            if seen.iter().any(|s| s.signer == share.signer) {
                return Err(CryptoError::DuplicateShare {
                    signer: share.signer,
                });
            }
            if !self.verify_share_digest(digest, &share) {
                return Err(CryptoError::InvalidShare {
                    signer: share.signer,
                });
            }
            seen.push(share);
        }
        if seen.len() < self.threshold {
            return Err(CryptoError::InsufficientShares {
                needed: self.threshold,
                got: seen.len(),
            });
        }
        // Interpolate using exactly `threshold` shares: the signature is
        // unique, so which subset we use is immaterial.
        seen.truncate(self.threshold);
        let indices: Vec<u32> = seen.iter().map(|s| s.signer).collect();
        let lambdas = self
            .lagrange
            .coefficients(&indices)
            .expect("duplicates were rejected above");
        let combined: Fp = seen
            .iter()
            .zip(lambdas.iter())
            .map(|(s, &l)| Fp::new(s.signature.value()) * l)
            .sum();
        let sig = Signature::from_value(combined.value());
        if !self.global.verify_digest(digest, &sig) {
            return Err(CryptoError::VerificationFailed);
        }
        Ok(sig)
    }

    /// Verifies a combined signature under the global public key.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        self.global.verify(&self.domain, msg, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn deal(h: usize, n: usize) -> Dealt {
        Dealer::deal(h, n, &mut rand::rngs::StdRng::seed_from_u64(7))
    }

    #[test]
    fn combine_exact_threshold() {
        let d = deal(3, 7);
        let msg = b"beacon round 1";
        let shares: Vec<_> = [1usize, 4, 6]
            .iter()
            .map(|&i| d.signer(i).sign_share(msg))
            .collect();
        let sig = d.public().combine(msg, shares).unwrap();
        assert!(d.public().verify(msg, &sig));
    }

    #[test]
    fn signature_is_unique_across_subsets() {
        let d = deal(3, 7);
        let msg = b"unique";
        let all: Vec<_> = (0..7).map(|i| d.signer(i).sign_share(msg)).collect();
        let s1 = d.public().combine(msg, all[0..3].to_vec()).unwrap();
        let s2 = d.public().combine(msg, all[4..7].to_vec()).unwrap();
        let s3 = d
            .public()
            .combine(msg, vec![all[0], all[3], all[6]])
            .unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1, s3);
    }

    #[test]
    fn extra_shares_ignored_deterministically() {
        let d = deal(2, 5);
        let msg = b"m";
        let all: Vec<_> = (0..5).map(|i| d.signer(i).sign_share(msg)).collect();
        let with_extra = d.public().combine(msg, all.clone()).unwrap();
        let exact = d.public().combine(msg, all[0..2].to_vec()).unwrap();
        assert_eq!(with_extra, exact);
    }

    #[test]
    fn insufficient_shares_rejected() {
        let d = deal(4, 6);
        let msg = b"m";
        let shares: Vec<_> = (0..3).map(|i| d.signer(i).sign_share(msg)).collect();
        assert_eq!(
            d.public().combine(msg, shares).unwrap_err(),
            CryptoError::InsufficientShares { needed: 4, got: 3 }
        );
    }

    #[test]
    fn invalid_share_rejected() {
        let d = deal(2, 4);
        let good = d.signer(0).sign_share(b"m");
        let bad = ThresholdSigShare {
            signer: 1,
            signature: d.signer(2).sign_share(b"m").signature,
        };
        assert_eq!(
            d.public().combine(b"m", vec![good, bad]).unwrap_err(),
            CryptoError::InvalidShare { signer: 1 }
        );
    }

    #[test]
    fn duplicate_share_rejected() {
        let d = deal(2, 4);
        let s = d.signer(0).sign_share(b"m");
        assert_eq!(
            d.public().combine(b"m", vec![s, s]).unwrap_err(),
            CryptoError::DuplicateShare { signer: 0 }
        );
    }

    #[test]
    fn unknown_signer_rejected() {
        let d = deal(2, 4);
        let mut s = d.signer(0).sign_share(b"m");
        s.signer = 77;
        assert_eq!(
            d.public().combine(b"m", vec![s]).unwrap_err(),
            CryptoError::UnknownSigner { signer: 77, n: 4 }
        );
    }

    #[test]
    fn share_verification() {
        let d = deal(2, 4);
        let s = d.signer(3).sign_share(b"m");
        assert!(d.public().verify_share(b"m", &s));
        assert!(!d.public().verify_share(b"other", &s));
    }

    #[test]
    fn beacon_threshold_parameters() {
        // (t, t+1, n) with n = 10, t = 3: any 4 shares suffice.
        let d = deal(4, 10);
        let msg = b"R_0";
        let shares: Vec<_> = [9usize, 2, 5, 7]
            .iter()
            .map(|&i| d.signer(i).sign_share(msg))
            .collect();
        assert!(d.public().combine(msg, shares).is_ok());
    }

    #[test]
    fn repeated_combines_hit_lagrange_cache() {
        let d = deal(3, 7);
        let p = d.public();
        for round in 0u64..5 {
            let msg = round.to_le_bytes();
            let shares: Vec<_> = [0usize, 2, 4]
                .iter()
                .map(|&i| d.signer(i).sign_share(&msg))
                .collect();
            let sig = p.combine(&msg, shares).unwrap();
            assert!(p.verify(&msg, &sig));
        }
        let (hits, misses) = p.lagrange_cache_stats();
        assert_eq!(misses, 1, "same signer set should be computed once");
        assert_eq!(hits, 4);
    }

    #[test]
    fn domain_separation_between_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Dealer::deal_with_domain("beacon", 2, 3, &mut rng);
        let b = Dealer::deal_with_domain("notary", 2, 3, &mut rng);
        let sa = a.signer(0).sign_share(b"m");
        // A share from instance A never verifies in instance B (different
        // keys *and* different domain).
        assert!(!b.public().verify_share(b"m", &sa));
    }
}
