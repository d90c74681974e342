//! The consensus artifacts exchanged by the ICC protocols (paper §3.4).
//!
//! Every message a party broadcasts is one of:
//!
//! * a [`BlockProposal`] — a block, its *authenticator* (an `S_auth`
//!   signature by the proposer on `(authenticator, k, α, H(B))`), and
//!   the notarization of the block's parent (so receivers can validate
//!   immediately);
//! * a [`NotarizationShare`] / [`Notarization`] — an `S_notary`
//!   signature share / aggregate on `(notarization, k, α, H(B))`;
//! * a [`FinalizationShare`] / [`Finalization`] — the `S_final`
//!   analogues on `(finalization, k, α, H(B))`;
//! * a [`BeaconShare`] — an `S_beacon` threshold share on the round's
//!   beacon message.
//!
//! One kind is not an artifact of the protocol: [`ConsensusMessage::Commands`]
//! carries client commands from the party that received them to the
//! leader of a round, which proposes them (§1: inputs reach any party).
//! It is sent to that one party and is neither signed nor relayed.
//!
//! The triple `(k, α, H(B))` that all block signatures cover is
//! [`BlockRef`]. The `sign bytes` helpers produce the exact byte strings
//! handed to the signature schemes (domain separation between the
//! artifact kinds is done by the schemes' domain tags).

use crate::block::{Block, Command, HashedBlock};
use crate::codec::{encode_seq, CodecError, Decode, Encode, Reader};
use crate::ids::{NodeIndex, Round};
use icc_crypto::multisig::{MultiSig, MultiSigShare};
use icc_crypto::sig::Signature;
use icc_crypto::threshold::ThresholdSigShare;
use icc_crypto::Hash256;
use std::fmt;

/// The signature schemes' domain tags, fixed per artifact kind.
pub mod domains {
    /// `S_auth` — block authenticators.
    pub const AUTH: &str = "icc-auth";
    /// `S_notary` — notarization shares and aggregates.
    pub const NOTARY: &str = "icc-notary";
    /// `S_final` — finalization shares and aggregates.
    pub const FINAL: &str = "icc-final";
    /// `S_beacon` — random-beacon shares.
    pub const BEACON: &str = "icc-beacon";
}

/// The triple `(k, α, H(B))` identifying a proposed block; the content
/// covered by authenticators, notarizations and finalizations. Ordered
/// by round first, so that an ordered map of references can be cut at a
/// round.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// The block's round.
    pub round: Round,
    /// The proposing party.
    pub proposer: NodeIndex,
    /// The block hash `H(B)`.
    pub hash: Hash256,
}

impl BlockRef {
    /// The reference for a concrete block.
    pub fn of(block: &Block) -> BlockRef {
        BlockRef {
            round: block.round(),
            proposer: block.proposer(),
            hash: block.hash(),
        }
    }

    /// The reference for a hashed block, reusing the cached digest.
    pub fn of_hashed(block: &HashedBlock) -> BlockRef {
        BlockRef {
            round: block.round(),
            proposer: block.proposer(),
            hash: block.hash(),
        }
    }

    /// The canonical byte string signed by all schemes over this
    /// reference (each scheme adds its own domain tag).
    pub fn sign_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(44);
        self.round.encode(&mut buf);
        self.proposer.encode(&mut buf);
        self.hash.encode(&mut buf);
        buf
    }
}

impl fmt::Debug for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{} {:?}", self.proposer, self.round, self.hash)
    }
}

impl Encode for BlockRef {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.round.encode(buf);
        self.proposer.encode(buf);
        self.hash.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + 4 + 32
    }
}

impl Decode for BlockRef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BlockRef {
            round: Round::decode(r)?,
            proposer: NodeIndex::decode(r)?,
            hash: Hash256::decode(r)?,
        })
    }
}

/// A proposed block with its authenticator and (except in round 1) the
/// notarization of its parent.
#[derive(Clone, PartialEq, Eq)]
pub struct BlockProposal {
    /// The proposed block (payload shared via `Arc`, so clones are cheap).
    pub block: HashedBlock,
    /// `S_auth` signature by the proposer on the block's [`BlockRef`].
    pub authenticator: Signature,
    /// Notarization of the parent; `None` when the parent is `root`.
    pub parent_notarization: Option<Notarization>,
}

impl fmt::Debug for BlockProposal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Proposal({:?})", self.block)
    }
}

/// A share of a notarization: one party's `S_notary` signature share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NotarizationShare {
    /// The block being notarized.
    pub block_ref: BlockRef,
    /// The contributing party's share.
    pub share: MultiSigShare,
}

/// An aggregated notarization: proof that `n − t` parties signed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notarization {
    /// The notarized block.
    pub block_ref: BlockRef,
    /// The aggregate `S_notary` multi-signature.
    pub sig: MultiSig,
}

/// A share of a finalization: one party's `S_final` signature share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FinalizationShare {
    /// The block being finalized.
    pub block_ref: BlockRef,
    /// The contributing party's share.
    pub share: MultiSigShare,
}

/// An aggregated finalization: proof that `n − t` parties finalized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finalization {
    /// The finalized block.
    pub block_ref: BlockRef,
    /// The aggregate `S_final` multi-signature.
    pub sig: MultiSig,
}

/// One party's threshold share of the round-`round` beacon value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BeaconShare {
    /// The round whose beacon this share contributes to.
    pub round: Round,
    /// The threshold signature share on the beacon message.
    pub share: ThresholdSigShare,
}

/// The *combined* beacon value for a round.
///
/// Because the beacon scheme produces **unique** threshold signatures
/// (§2.3), the value is self-certifying: any party can check it against
/// the group public key and the previous beacon, with no signer set
/// attached. Broadcasting the 40-ish-byte value lets a party enter a
/// round after one verification instead of collecting `t + 1` separate
/// shares — the share floods can then be routed to a handful of
/// aggregators rather than everyone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Beacon {
    /// The round this beacon value opens.
    pub round: Round,
    /// The combined `S_beacon` threshold signature (or genesis seed).
    pub value: icc_crypto::beacon::BeaconValue,
}

/// Every message kind an ICC0/ICC1 party broadcasts.
#[derive(Debug, Clone, PartialEq)]
pub enum ConsensusMessage {
    /// A block proposal (or an echo of one).
    Proposal(BlockProposal),
    /// A notarization share.
    NotarizationShare(NotarizationShare),
    /// An aggregated notarization.
    Notarization(Notarization),
    /// A finalization share.
    FinalizationShare(FinalizationShare),
    /// An aggregated finalization.
    Finalization(Finalization),
    /// A beacon share.
    BeaconShare(BeaconShare),
    /// A combined beacon value (self-certifying; see [`Beacon`]).
    Beacon(Beacon),
    /// Client commands for the leader of `round` to propose, sent to
    /// that leader alone by the party the client gave them to.
    Commands {
        /// The round whose rank-0 party the commands are meant for.
        round: Round,
        /// The commands, in the order the sender received them.
        commands: Vec<Command>,
    },
}

impl ConsensusMessage {
    /// A short label for metrics and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            ConsensusMessage::Proposal(_) => "proposal",
            ConsensusMessage::NotarizationShare(_) => "notarization-share",
            ConsensusMessage::Notarization(_) => "notarization",
            ConsensusMessage::FinalizationShare(_) => "finalization-share",
            ConsensusMessage::Finalization(_) => "finalization",
            ConsensusMessage::BeaconShare(_) => "beacon-share",
            ConsensusMessage::Beacon(_) => "beacon",
            ConsensusMessage::Commands { .. } => "commands",
        }
    }

    /// The round this message pertains to.
    pub fn round(&self) -> Round {
        match self {
            ConsensusMessage::Proposal(p) => p.block.round(),
            ConsensusMessage::NotarizationShare(s) => s.block_ref.round,
            ConsensusMessage::Notarization(n) => n.block_ref.round,
            ConsensusMessage::FinalizationShare(s) => s.block_ref.round,
            ConsensusMessage::Finalization(n) => n.block_ref.round,
            ConsensusMessage::BeaconShare(b) => b.round,
            ConsensusMessage::Beacon(b) => b.round,
            ConsensusMessage::Commands { round, .. } => *round,
        }
    }

    /// Encoded size on the wire — what the network simulator charges.
    pub fn wire_bytes(&self) -> usize {
        self.encoded_len()
    }
}

impl Encode for BlockProposal {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.block.block().encode(buf);
        self.authenticator.encode(buf);
        self.parent_notarization.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        // `HashedBlock` caches its encoded length, so sizing a proposal
        // never re-walks the command payload.
        self.block.encoded_len()
            + self.authenticator.encoded_len()
            + self.parent_notarization.encoded_len()
    }
}

impl Decode for BlockProposal {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BlockProposal {
            block: Block::decode(r)?.into_hashed(),
            authenticator: Signature::decode(r)?,
            parent_notarization: Option::<Notarization>::decode(r)?,
        })
    }
}

macro_rules! impl_ref_plus {
    ($ty:ident, $field:ident, $fty:ty) => {
        impl Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.block_ref.encode(buf);
                self.$field.encode(buf);
            }
            fn encoded_len(&self) -> usize {
                self.block_ref.encoded_len() + self.$field.encoded_len()
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($ty {
                    block_ref: BlockRef::decode(r)?,
                    $field: <$fty>::decode(r)?,
                })
            }
        }
    };
}

impl_ref_plus!(NotarizationShare, share, MultiSigShare);
impl_ref_plus!(Notarization, sig, MultiSig);
impl_ref_plus!(FinalizationShare, share, MultiSigShare);
impl_ref_plus!(Finalization, sig, MultiSig);

impl Encode for BeaconShare {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.round.encode(buf);
        self.share.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + self.share.encoded_len()
    }
}

impl Decode for BeaconShare {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BeaconShare {
            round: Round::decode(r)?,
            share: ThresholdSigShare::decode(r)?,
        })
    }
}

impl Encode for Beacon {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.round.encode(buf);
        self.value.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + self.value.encoded_len()
    }
}

impl Decode for Beacon {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Beacon {
            round: Round::decode(r)?,
            value: icc_crypto::beacon::BeaconValue::decode(r)?,
        })
    }
}

impl Encode for ConsensusMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ConsensusMessage::Proposal(m) => {
                buf.push(0);
                m.encode(buf);
            }
            ConsensusMessage::NotarizationShare(m) => {
                buf.push(1);
                m.encode(buf);
            }
            ConsensusMessage::Notarization(m) => {
                buf.push(2);
                m.encode(buf);
            }
            ConsensusMessage::FinalizationShare(m) => {
                buf.push(3);
                m.encode(buf);
            }
            ConsensusMessage::Finalization(m) => {
                buf.push(4);
                m.encode(buf);
            }
            ConsensusMessage::BeaconShare(m) => {
                buf.push(5);
                m.encode(buf);
            }
            ConsensusMessage::Beacon(m) => {
                buf.push(6);
                m.encode(buf);
            }
            ConsensusMessage::Commands { round, commands } => {
                buf.push(7);
                round.encode(buf);
                encode_seq(commands, buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            ConsensusMessage::Proposal(m) => m.encoded_len(),
            ConsensusMessage::NotarizationShare(m) => m.encoded_len(),
            ConsensusMessage::Notarization(m) => m.encoded_len(),
            ConsensusMessage::FinalizationShare(m) => m.encoded_len(),
            ConsensusMessage::Finalization(m) => m.encoded_len(),
            ConsensusMessage::BeaconShare(m) => m.encoded_len(),
            ConsensusMessage::Beacon(m) => m.encoded_len(),
            ConsensusMessage::Commands { commands, .. } => {
                8 + 8 + commands.iter().map(Encode::encoded_len).sum::<usize>()
            }
        }
    }
}

/// Decodes the command list of a [`ConsensusMessage::Commands`]: a
/// `u64` count, then each command length-prefixed. Every command takes
/// at least its 8-byte prefix, so a count above an eighth of the bytes
/// left is refused before anything is read, and the list grows with
/// what is actually decoded — never from the claimed count.
fn decode_commands(r: &mut Reader<'_>) -> Result<Vec<Command>, CodecError> {
    let count = u64::decode(r)?;
    if count > (r.remaining() / 8) as u64 {
        return Err(CodecError::LengthOverflow { len: count });
    }
    let mut commands = Vec::new();
    for _ in 0..count {
        commands.push(Command::decode(r)?);
    }
    Ok(commands)
}

impl Decode for ConsensusMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(ConsensusMessage::Proposal(BlockProposal::decode(r)?)),
            1 => Ok(ConsensusMessage::NotarizationShare(
                NotarizationShare::decode(r)?,
            )),
            2 => Ok(ConsensusMessage::Notarization(Notarization::decode(r)?)),
            3 => Ok(ConsensusMessage::FinalizationShare(
                FinalizationShare::decode(r)?,
            )),
            4 => Ok(ConsensusMessage::Finalization(Finalization::decode(r)?)),
            5 => Ok(ConsensusMessage::BeaconShare(BeaconShare::decode(r)?)),
            6 => Ok(ConsensusMessage::Beacon(Beacon::decode(r)?)),
            7 => Ok(ConsensusMessage::Commands {
                round: Round::decode(r)?,
                commands: decode_commands(r)?,
            }),
            tag => Err(CodecError::InvalidTag {
                tag,
                ty: "ConsensusMessage",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Payload;
    use crate::codec::{decode_from_slice, encode_to_vec};

    fn block() -> Block {
        Block::new(
            Round::new(2),
            NodeIndex::new(1),
            Hash256([3u8; 32]),
            Payload::synthetic(2, 16, Round::new(2)),
        )
    }

    fn block_ref() -> BlockRef {
        BlockRef::of(&block())
    }

    fn multisig() -> MultiSig {
        MultiSig {
            signature: Signature::from_value(42),
            signers: vec![0, 1, 2].into(),
        }
    }

    fn roundtrip_msg(m: ConsensusMessage) {
        let bytes = encode_to_vec(&m);
        assert_eq!(bytes.len(), m.encoded_len());
        assert_eq!(bytes.len(), m.wire_bytes());
        let back: ConsensusMessage = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        roundtrip_msg(ConsensusMessage::Proposal(BlockProposal {
            block: block().into_hashed(),
            authenticator: Signature::from_value(7),
            parent_notarization: Some(Notarization {
                block_ref: block_ref(),
                sig: multisig(),
            }),
        }));
        roundtrip_msg(ConsensusMessage::NotarizationShare(NotarizationShare {
            block_ref: block_ref(),
            share: MultiSigShare {
                signer: 3,
                signature: Signature::from_value(1),
            },
        }));
        roundtrip_msg(ConsensusMessage::Notarization(Notarization {
            block_ref: block_ref(),
            sig: multisig(),
        }));
        roundtrip_msg(ConsensusMessage::FinalizationShare(FinalizationShare {
            block_ref: block_ref(),
            share: MultiSigShare {
                signer: 4,
                signature: Signature::from_value(2),
            },
        }));
        roundtrip_msg(ConsensusMessage::Finalization(Finalization {
            block_ref: block_ref(),
            sig: multisig(),
        }));
        roundtrip_msg(ConsensusMessage::BeaconShare(BeaconShare {
            round: Round::new(2),
            share: ThresholdSigShare {
                signer: 5,
                signature: Signature::from_value(3),
            },
        }));
        roundtrip_msg(ConsensusMessage::Beacon(Beacon {
            round: Round::new(3),
            value: icc_crypto::beacon::BeaconValue::Signature(Signature::from_value(11)),
        }));
        roundtrip_msg(ConsensusMessage::Beacon(Beacon {
            round: Round::new(1),
            value: icc_crypto::beacon::BeaconValue::Genesis(Hash256([9u8; 32])),
        }));
        for commands in [
            vec![],
            vec![Command::new(vec![]), Command::new(vec![5; 64])],
        ] {
            roundtrip_msg(ConsensusMessage::Commands {
                round: Round::new(4),
                commands,
            });
        }
    }

    #[test]
    fn proposal_without_parent_notarization_roundtrips() {
        roundtrip_msg(ConsensusMessage::Proposal(BlockProposal {
            block: block().into_hashed(),
            authenticator: Signature::from_value(7),
            parent_notarization: None,
        }));
    }

    #[test]
    fn invalid_tag_rejected() {
        assert!(matches!(
            decode_from_slice::<ConsensusMessage>(&[99]),
            Err(CodecError::InvalidTag { tag: 99, .. })
        ));
    }

    #[test]
    fn kinds_and_rounds() {
        let m = ConsensusMessage::BeaconShare(BeaconShare {
            round: Round::new(9),
            share: ThresholdSigShare {
                signer: 0,
                signature: Signature::from_value(0),
            },
        });
        assert_eq!(m.kind(), "beacon-share");
        assert_eq!(m.round(), Round::new(9));
    }

    #[test]
    fn sign_bytes_distinguish_blocks() {
        let a = block_ref();
        let mut b = a;
        b.hash = Hash256([4u8; 32]);
        assert_ne!(a.sign_bytes(), b.sign_bytes());
        let mut c = a;
        c.proposer = NodeIndex::new(9);
        assert_ne!(a.sign_bytes(), c.sign_bytes());
    }

    #[test]
    fn share_message_is_small_block_message_is_large() {
        // §1: "Signatures and signature shares are typically very small
        // (a few dozen bytes) while blocks may be very large."
        let share = ConsensusMessage::NotarizationShare(NotarizationShare {
            block_ref: block_ref(),
            share: MultiSigShare {
                signer: 0,
                signature: Signature::from_value(1),
            },
        });
        assert!(share.wire_bytes() < 120, "{}", share.wire_bytes());
        let big = ConsensusMessage::Proposal(BlockProposal {
            block: Block::new(
                Round::new(1),
                NodeIndex::new(0),
                Hash256::ZERO,
                Payload::synthetic(100, 1024, Round::new(1)),
            )
            .into_hashed(),
            authenticator: Signature::from_value(7),
            parent_notarization: None,
        });
        assert!(big.wire_bytes() > 100_000);
    }
}
