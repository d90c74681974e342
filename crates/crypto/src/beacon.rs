//! The random beacon (paper §2.3) and the per-round rank permutation it
//! induces (§3.3).
//!
//! The beacon is a sequence `R_0, R_1, R_2, …`: `R_0` is a fixed public
//! seed; for `k ≥ 1`, `R_k` is the `(t, t+1, n)`-threshold *unique*
//! signature on (the encoding of) `R_{k−1}`. Unless an honest party
//! contributes a share, `R_k` is unpredictable; once `t + 1` parties
//! contribute, everyone can compute it. The hash of `R_k` seeds a
//! deterministic Fisher–Yates shuffle producing the round-`k` permutation
//! `π` that assigns each party a rank; the rank-0 party is the round's
//! leader.

use crate::hashrng::HashRng;
use crate::sha256::{hash_parts, Hash256};
use crate::sig::Signature;

/// A value in the beacon sequence: the genesis seed or a combined
/// threshold signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeaconValue {
    /// `R_0`, a fixed value known to all parties.
    Genesis(Hash256),
    /// `R_k` for `k ≥ 1`: the threshold signature on `R_{k−1}`.
    Signature(Signature),
}

impl BeaconValue {
    /// Canonical digest of this beacon value, used both as the message
    /// signed to produce the *next* beacon value and as the permutation
    /// seed for the current round.
    pub fn digest(&self) -> Hash256 {
        match self {
            BeaconValue::Genesis(h) => hash_parts("beacon-genesis", &[h.as_bytes()]),
            BeaconValue::Signature(sig) => {
                hash_parts("beacon-value", &[&sig.value().to_le_bytes()])
            }
        }
    }
}

/// The message that parties threshold-sign to produce the round-`round`
/// beacon value from its predecessor.
///
/// Including the round number alongside `R_{k−1}` is standard hardening
/// against accidental cross-round replay; it does not change the paper's
/// structure (`R_k = Sign(R_{k−1})`).
pub fn beacon_sign_message(round: u64, prev: &BeaconValue) -> Vec<u8> {
    let mut msg = Vec::with_capacity(40);
    msg.extend_from_slice(&round.to_le_bytes());
    msg.extend_from_slice(prev.digest().as_bytes());
    msg
}

/// The rank permutation for one round, derived from the beacon value.
///
/// Ranks run `0..n`; the party of rank 0 is the **leader** (§3.3).
///
/// # Example
///
/// ```
/// use icc_crypto::beacon::{BeaconValue, RankPermutation};
/// use icc_crypto::sha256;
/// let beacon = BeaconValue::Genesis(sha256(b"seed"));
/// let perm = RankPermutation::derive(&beacon, 7);
/// assert_eq!(perm.rank_of(perm.leader()), 0);
/// assert_eq!(perm.party_at_rank(0), perm.leader());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPermutation {
    /// `party_at[r]` = index of the party with rank `r`.
    party_at: Vec<u32>,
    /// `rank_of[p]` = rank of party `p`.
    rank_of: Vec<u32>,
}

impl RankPermutation {
    /// Derives the round permutation from a beacon value for `n` parties.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn derive(beacon: &BeaconValue, n: usize) -> RankPermutation {
        assert!(n > 0, "permutation requires at least one party");
        let members: Vec<u32> = (0..n as u32).collect();
        Self::derive_members(beacon, &members)
    }

    /// Derives the round permutation over an explicit **member subset**
    /// of the node universe — the epoch-aware variant. Ranks run
    /// `0..members.len()` and are assigned only to members; a departed
    /// party has no rank (see [`try_rank_of`](Self::try_rank_of)).
    ///
    /// For the full universe (`members == [0, 1, …, n−1]`) this is
    /// byte-identical to [`derive`](Self::derive): same shuffle, same
    /// seed consumption — a reshare that changes no membership changes
    /// no leader schedule.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn derive_members(beacon: &BeaconValue, members: &[u32]) -> RankPermutation {
        assert!(
            !members.is_empty(),
            "permutation requires at least one party"
        );
        let mut party_at: Vec<u32> = members.to_vec();
        let mut rng = HashRng::from_hash(beacon.digest());
        rng.shuffle(&mut party_at);
        let universe = 1 + *members.iter().max().expect("non-empty") as usize;
        let mut rank_of = vec![u32::MAX; universe];
        for (rank, &party) in party_at.iter().enumerate() {
            rank_of[party as usize] = rank as u32;
        }
        RankPermutation { party_at, rank_of }
    }

    /// Number of parties.
    pub fn len(&self) -> usize {
        self.party_at.len()
    }

    /// Whether the permutation is over zero parties (never true for a
    /// derived permutation).
    pub fn is_empty(&self) -> bool {
        self.party_at.is_empty()
    }

    /// The rank assigned to `party`.
    ///
    /// # Panics
    ///
    /// Panics if `party` is out of range or not a member of this
    /// permutation's party set.
    pub fn rank_of(&self, party: u32) -> u32 {
        self.try_rank_of(party)
            .unwrap_or_else(|| panic!("party {party} has no rank in this permutation"))
    }

    /// The rank assigned to `party`, or `None` if `party` is not in
    /// this permutation's member set — the epoch-aware query: a
    /// non-member cannot lead, propose, or be ranked.
    pub fn try_rank_of(&self, party: u32) -> Option<u32> {
        match self.rank_of.get(party as usize) {
            Some(&r) if r != u32::MAX => Some(r),
            _ => None,
        }
    }

    /// The party holding `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn party_at_rank(&self, rank: u32) -> u32 {
        self.party_at[rank as usize]
    }

    /// The party holding `rank`, or `None` if the permutation has no
    /// such rank.
    pub fn try_party_at_rank(&self, rank: u32) -> Option<u32> {
        self.party_at.get(rank as usize).copied()
    }

    /// The round leader: the party of rank 0.
    pub fn leader(&self) -> u32 {
        self.party_at[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;
    use crate::threshold::Dealer;
    use rand::SeedableRng;

    #[test]
    fn permutation_is_deterministic() {
        let b = BeaconValue::Genesis(sha256(b"seed"));
        assert_eq!(
            RankPermutation::derive(&b, 13),
            RankPermutation::derive(&b, 13)
        );
    }

    #[test]
    fn permutation_is_bijective() {
        let b = BeaconValue::Genesis(sha256(b"x"));
        let p = RankPermutation::derive(&b, 40);
        for party in 0..40u32 {
            assert_eq!(p.party_at_rank(p.rank_of(party)), party);
        }
        for rank in 0..40u32 {
            assert_eq!(p.rank_of(p.party_at_rank(rank)), rank);
        }
    }

    #[test]
    fn different_beacons_give_different_permutations() {
        let p1 = RankPermutation::derive(&BeaconValue::Genesis(sha256(b"a")), 20);
        let p2 = RankPermutation::derive(&BeaconValue::Genesis(sha256(b"b")), 20);
        assert_ne!(p1, p2);
    }

    #[test]
    fn single_party_permutation() {
        let p = RankPermutation::derive(&BeaconValue::Genesis(sha256(b"a")), 1);
        assert_eq!(p.leader(), 0);
        assert_eq!(p.len(), 1);
        assert_eq!(
            (p.try_party_at_rank(0), p.try_party_at_rank(1)),
            (Some(0), None)
        );
    }

    #[test]
    fn beacon_chain_is_deterministic_and_round_dependent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let d = Dealer::deal_with_domain("beacon", 2, 4, &mut rng);
        let r0 = BeaconValue::Genesis(sha256(b"genesis"));

        let msg1 = beacon_sign_message(1, &r0);
        let shares: Vec<_> = (0..2).map(|i| d.signer(i).sign_share(&msg1)).collect();
        let sig1 = d.public().combine(&msg1, shares.clone()).unwrap();
        // Any other share subset yields the identical beacon value.
        let alt: Vec<_> = (2..4).map(|i| d.signer(i).sign_share(&msg1)).collect();
        assert_eq!(sig1, d.public().combine(&msg1, alt).unwrap());

        let r1 = BeaconValue::Signature(sig1);
        assert_ne!(r0.digest(), r1.digest());
        // Message for round 2 differs from round 1 even if chained again.
        assert_ne!(beacon_sign_message(2, &r1), beacon_sign_message(1, &r1));
    }

    #[test]
    fn leader_is_roughly_uniform_over_rounds() {
        // Chain digests to simulate many rounds; each party should lead
        // about 1/n of the time.
        let n = 10usize;
        let rounds = 5000;
        let mut counts = vec![0u32; n];
        let mut seed = sha256(b"start");
        for _ in 0..rounds {
            let b = BeaconValue::Genesis(seed);
            counts[RankPermutation::derive(&b, n).leader() as usize] += 1;
            seed = sha256(seed.as_bytes());
        }
        let expect = rounds as f64 / n as f64;
        for &c in &counts {
            assert!(
                (c as f64) > expect * 0.7 && (c as f64) < expect * 1.3,
                "leader count {c} far from expectation {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_panics() {
        RankPermutation::derive(&BeaconValue::Genesis(sha256(b"a")), 0);
    }

    #[test]
    fn full_membership_permutation_matches_derive() {
        let b = BeaconValue::Genesis(sha256(b"epoch"));
        let members: Vec<u32> = (0..9).collect();
        assert_eq!(
            RankPermutation::derive(&b, 9),
            RankPermutation::derive_members(&b, &members),
            "identity membership must not perturb the leader schedule"
        );
    }

    #[test]
    fn member_subset_permutation_ranks_only_members() {
        let b = BeaconValue::Genesis(sha256(b"epoch"));
        let members = vec![0u32, 2, 3, 6];
        let p = RankPermutation::derive_members(&b, &members);
        assert_eq!(p.len(), 4);
        let mut ranked: Vec<u32> = (0..4).map(|r| p.party_at_rank(r)).collect();
        ranked.sort_unstable();
        assert_eq!(ranked, members);
        assert!(members.contains(&p.leader()));
        for party in [1u32, 4, 5, 7, 99] {
            assert_eq!(
                p.try_rank_of(party),
                None,
                "non-member {party} must have no rank"
            );
        }
        for &m in &members {
            assert_eq!(p.party_at_rank(p.try_rank_of(m).unwrap()), m);
        }
    }
}
