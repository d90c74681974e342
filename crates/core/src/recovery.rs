//! Certified catch-up: the package a lagging replica fetches to
//! fast-forward, and the recovery observability counters.
//!
//! A replica that restarts (or heals from a long partition) can be many
//! rounds behind. Re-flooding every historical artifact would be both
//! expensive and — under the gossip layer's advert dedup — impossible:
//! peers only advertise *live* artifacts. Instead the replica fetches a
//! [`CatchUpPackage`]: the sender's latest finalized block plus the
//! *certificates* (notarization + finalization) proving it, and the
//! random-beacon chain segment the requester is missing.
//!
//! Safety does not rest on trusting the sender. Every certificate is
//! verified against the subnet's public keys before anything is
//! installed (see `Pool::verify_and_install_catch_up`): the
//! finalization proves `n − t` parties finalized the block (P2 then
//! pins the whole prefix), the notarization lets honest children
//! validate against it, the authenticator pins the proposer, and each
//! beacon value is the unique threshold signature over its predecessor
//! — a forged or truncated package from a Byzantine peer is rejected
//! wholesale and the requester retries elsewhere.

//!
//! With dynamic membership the package also certifies *across epoch
//! boundaries*: a requester that slept through one or more reshares
//! receives one [`EpochTransition`] per crossed boundary — a
//! finalization from the *outgoing* epoch, verified under that epoch's
//! signer set — forming a certificate chain from the requester's last
//! known epoch to the epoch of the packaged block. A forged link (bad
//! signature, wrong signer set, out-of-epoch round) or a missing link
//! rejects the whole package.

// Peer catch-up packages are read here: nothing a peer sends may
// panic it.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

use icc_crypto::beacon::BeaconValue;
use icc_types::codec::{CodecError, Decode, Encode, Reader};
use icc_types::messages::{BlockProposal, Finalization, Notarization};
use icc_types::Round;
use std::fmt;

/// One link of the cross-epoch certificate chain: a certified block of
/// the epoch *before* `epoch`, vouching for the handoff into `epoch`.
///
/// Both certificates reference the same block — the highest finalized
/// round of the outgoing epoch — and are verified under the *outgoing*
/// epoch's member set and quorum (the keys the requester can already
/// trust), which is what lets a replica walk forward through reshares
/// it slept through.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTransition {
    /// The epoch being entered (the certificates are from `epoch − 1`).
    pub epoch: u64,
    /// Notarization of the handoff block.
    pub notarization: Notarization,
    /// Finalization of the handoff block — the actual handoff
    /// certificate.
    pub finalization: Finalization,
}

impl EpochTransition {
    /// The round of the certified handoff block.
    pub fn round(&self) -> Round {
        self.finalization.block_ref.round
    }

    /// Simulator-metered wire size (8-byte epoch + both certificates).
    pub fn encoded_len(&self) -> usize {
        8 + self.notarization.encoded_len() + self.finalization.encoded_len()
    }
}

impl Encode for EpochTransition {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.notarization.encode(buf);
        self.finalization.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        8 + Encode::encoded_len(&self.notarization) + Encode::encoded_len(&self.finalization)
    }
}

impl Decode for EpochTransition {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EpochTransition {
            epoch: u64::decode(r)?,
            notarization: Notarization::decode(r)?,
            finalization: Finalization::decode(r)?,
        })
    }
}

/// A certified fast-forward package: the serving replica's latest
/// finalized block, the certificates proving it, and the beacon chain
/// segment `(have_round, latest]` the requester is missing.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchUpPackage {
    /// The latest finalized block with its authenticator
    /// (`parent_notarization` is not needed — the finalization certifies
    /// the whole prefix — and is left `None`).
    pub proposal: BlockProposal,
    /// The `n − t` notarization of that block (children validate
    /// against it).
    pub notarization: Notarization,
    /// The `n − t` finalization of that block — the actual certificate
    /// of catch-up safety.
    pub finalization: Finalization,
    /// Consecutive beacon values starting at the requester's
    /// `have_round + 1`, extending at least one round past the
    /// finalized block (needed to enter the next round).
    pub beacons: Vec<(Round, BeaconValue)>,
    /// The cross-epoch certificate chain: one entry per epoch boundary
    /// between the requester's `have_round` and the packaged block, in
    /// ascending epoch order. Empty when no boundary is crossed.
    pub transitions: Vec<EpochTransition>,
}

impl CatchUpPackage {
    /// The round of the packaged finalized block.
    pub fn round(&self) -> Round {
        self.proposal.block.round()
    }

    /// Approximate wire size in bytes (metered as catch-up traffic).
    ///
    /// This is the *simulator metering* size: beacon entries are charged
    /// 17 bytes (8-byte round + tag + 8-byte signature value), matching
    /// what a compact deployment encoding would cost. The byte-exact
    /// transport encoding (the [`Encode`] impl below, used by `icc-net`)
    /// carries full 48-byte signature wire forms, so its length differs;
    /// metering stays on this method so historical traffic numbers are
    /// not perturbed.
    pub fn encoded_len(&self) -> usize {
        // Each beacon entry: 8-byte round + tag + 8-byte signature value.
        self.proposal.encoded_len()
            + self.notarization.encoded_len()
            + self.finalization.encoded_len()
            + self.beacons.len() * 17
            + self
                .transitions
                .iter()
                .map(EpochTransition::encoded_len)
                .sum::<usize>()
    }
}

impl Encode for CatchUpPackage {
    /// Canonical transport encoding: proposal, notarization,
    /// finalization, then the beacon segment as a counted sequence of
    /// `(round, value)` pairs.
    fn encode(&self, buf: &mut Vec<u8>) {
        self.proposal.encode(buf);
        self.notarization.encode(buf);
        self.finalization.encode(buf);
        (self.beacons.len() as u64).encode(buf);
        for (round, value) in &self.beacons {
            round.encode(buf);
            value.encode(buf);
        }
        (self.transitions.len() as u64).encode(buf);
        for t in &self.transitions {
            t.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        let beacons: usize = self
            .beacons
            .iter()
            .map(|(r, v)| Encode::encoded_len(r) + Encode::encoded_len(v))
            .sum();
        let transitions: usize = self.transitions.iter().map(Encode::encoded_len).sum();
        self.proposal.encoded_len()
            + Encode::encoded_len(&self.notarization)
            + Encode::encoded_len(&self.finalization)
            + 8
            + beacons
            + 8
            + transitions
    }
}

impl Decode for CatchUpPackage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let proposal = BlockProposal::decode(r)?;
        let notarization = Notarization::decode(r)?;
        let finalization = Finalization::decode(r)?;
        let count = u64::decode(r)?;
        if count > icc_types::codec::MAX_LEN {
            return Err(CodecError::LengthOverflow { len: count });
        }
        let mut beacons = Vec::with_capacity((count as usize).min(1024));
        for _ in 0..count {
            beacons.push((Round::decode(r)?, BeaconValue::decode(r)?));
        }
        let tcount = u64::decode(r)?;
        if tcount > icc_types::codec::MAX_LEN {
            return Err(CodecError::LengthOverflow { len: tcount });
        }
        let mut transitions = Vec::with_capacity((tcount as usize).min(1024));
        for _ in 0..tcount {
            transitions.push(EpochTransition::decode(r)?);
        }
        Ok(CatchUpPackage {
            proposal,
            notarization,
            finalization,
            beacons,
            transitions,
        })
    }
}

/// Why a catch-up package was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatchUpError {
    /// The package's round is not ahead of this replica's `kmax`.
    Stale,
    /// The certificates do not all reference the packaged block.
    Mismatched,
    /// The proposer's authenticator failed verification.
    BadAuthenticator,
    /// The notarization aggregate failed verification.
    BadNotarization,
    /// The finalization aggregate failed verification.
    BadFinalization,
    /// The beacon segment is non-consecutive, unanchored, or contains a
    /// value that fails threshold verification.
    BadBeacon,
    /// The beacon segment stops before the round after the finalized
    /// block, so the requester could not enter the next round.
    Truncated,
    /// An epoch-transition certificate failed verification: mismatched
    /// references, a round outside the outgoing epoch, out-of-order
    /// links, or a signature that does not verify under the outgoing
    /// epoch's signer set.
    BadTransition,
    /// The package crosses one or more epoch boundaries but is missing
    /// the transition certificate for at least one of them.
    MissingTransition,
    /// Nothing is wrong with the package: this replica's store failed
    /// and it no longer takes part (fail-stop).
    Halted,
}

impl fmt::Display for CatchUpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CatchUpError::Stale => "package not ahead of local kmax",
            CatchUpError::Mismatched => "certificates reference different blocks",
            CatchUpError::BadAuthenticator => "authenticator failed verification",
            CatchUpError::BadNotarization => "notarization failed verification",
            CatchUpError::BadFinalization => "finalization failed verification",
            CatchUpError::BadBeacon => "beacon segment invalid",
            CatchUpError::Truncated => "beacon segment truncated",
            CatchUpError::BadTransition => "epoch transition certificate invalid",
            CatchUpError::MissingTransition => "epoch transition certificate missing",
            CatchUpError::Halted => "replica halted, its store failed",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CatchUpError {}

icc_telemetry::counter_set! {
    /// Per-replica recovery counters, surfaced through
    /// [`ConsensusCore::recovery_stats`](crate::ConsensusCore::recovery_stats)
    /// and merged over a cluster by
    /// [`Cluster::metrics_summary`](crate::cluster::Cluster::metrics_summary).
    ///
    /// Generated by [`icc_telemetry::counter_set!`], so `merge` can
    /// never drift from the field list.
    pub struct RecoveryStats {
        /// Times this replica restarted from durable state.
        pub restarts: u64,
        /// Sum over catch-ups of how many rounds behind `kmax` was.
        pub rounds_behind_total: u64,
        /// Catch-up packages verified and applied.
        pub catch_up_applied: u64,
        /// Catch-up packages rejected (forged, truncated, or stale).
        pub catch_up_rejected: u64,
        /// Bytes of catch-up packages received (applied or rejected).
        pub catch_up_bytes: u64,
        /// Microseconds from detecting lag to applying a package,
        /// summed over catch-ups (divide by `catch_up_applied` for the
        /// mean).
        pub catch_up_latency_us: u64,
        /// Entries appended to the write-ahead log.
        pub wal_appends: u64,
        /// Checkpoints taken.
        pub checkpoints: u64,
        /// Signature verifications performed while replaying durable
        /// state on restore. The whole point of the trusted replay path
        /// is that this stays **zero** — the durability tests and the
        /// `net_cluster` restart assertion enforce it.
        pub restore_verifications: u64,
        /// Catch-up packages applied whose certificate chain crossed at
        /// least one epoch boundary (each chain link verified under the
        /// outgoing epoch's signer set).
        pub cross_epoch_catch_ups: u64,
        /// Epoch boundaries this replica activated (locally finalized
        /// its way across, or crossed via a certified catch-up).
        pub epoch_transitions: u64,
    }
}

impl RecoveryStats {
    /// Mean milliseconds from first catch-up request to a package
    /// being applied, per applied catch-up; 0.0 when no catch-up was
    /// applied.
    pub fn mean_catch_up_latency_ms(&self) -> f64 {
        if self.catch_up_applied == 0 {
            0.0
        } else {
            self.catch_up_latency_us as f64 / 1000.0 / self.catch_up_applied as f64
        }
    }
}

impl fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} restarts ({} rounds behind), {} catch-ups applied, {} rejected, \
             {} catch-up bytes, {:.1} ms mean catch-up latency, {} WAL appends, \
             {} checkpoints, {} restore verifications, {} cross-epoch catch-ups, \
             {} epoch transitions",
            self.restarts,
            self.rounds_behind_total,
            self.catch_up_applied,
            self.catch_up_rejected,
            self.catch_up_bytes,
            self.mean_catch_up_latency_ms(),
            self.wal_appends,
            self.checkpoints,
            self.restore_verifications,
            self.cross_epoch_catch_ups,
            self.epoch_transitions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_latency_displayed_as_mean_per_catch_up() {
        let rec = RecoveryStats {
            catch_up_applied: 4,
            catch_up_latency_us: 8_000, // 8 ms summed over 4 catch-ups
            ..RecoveryStats::default()
        };
        assert!((rec.mean_catch_up_latency_ms() - 2.0).abs() < 1e-9);
        let text = rec.to_string();
        assert!(text.contains("2.0 ms mean catch-up latency"), "{text}");

        // Div-by-zero guard: latency recorded but nothing applied.
        let none = RecoveryStats {
            catch_up_latency_us: 500,
            ..RecoveryStats::default()
        };
        assert_eq!(none.mean_catch_up_latency_ms(), 0.0);
        assert!(none.to_string().contains("0.0 ms mean"), "{none}");
    }
}
