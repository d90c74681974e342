//! Blocks, payloads and commands (paper §3.4).
//!
//! A non-genesis block is the tuple `(block, k, α, phash, payload)`: its
//! round number (= depth in the block tree), the proposing party, the
//! hash of its parent, and an application-specific payload. The special
//! round-0 block `root` is represented as an ordinary [`Block`] produced
//! by [`Block::genesis`]; the protocol special-cases its validity.
//!
//! A block's id commits to its payload through the command digests
//! (see [`Block::hash`]), so a replica hashes each command's bytes once
//! — for exactly-once dedup — and the block id reuses that digest;
//! [`HashedBlock`] caches the id. That one pass over the bytes is
//! BLAKE2b-256 ([`icc_crypto::blake2b`]), which runs about three times
//! faster than SHA-256 in portable code; the id over the header and the
//! 32-byte leaves, like every other protocol hash, stays SHA-256.

use crate::codec::{decode_seq, encode_seq, CodecError, Decode, Encode, Reader};
use crate::ids::{NodeIndex, Round};
use icc_crypto::{blake2b, hash_parts, Hash256};
use std::fmt;
use std::sync::Arc;

/// One application command (the unit of atomic broadcast input).
///
/// Backed by [`bytes::Bytes`], so cloning a command — which happens per
/// broadcast destination in the simulator — is a reference-count bump,
/// not a copy. The command digest (used for deduplication) is computed
/// once and shared by all clones.
#[derive(Clone)]
pub struct Command {
    bytes: bytes::Bytes,
    digest: Arc<std::sync::OnceLock<Hash256>>,
}

impl Command {
    /// Wraps raw command bytes.
    pub fn new(bytes: Vec<u8>) -> Command {
        Command {
            bytes: bytes::Bytes::from(bytes),
            digest: Arc::new(std::sync::OnceLock::new()),
        }
    }

    /// The command bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the command carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The command's identity digest, `blake2b::hash_parts("cmd",
    /// bytes)` — BLAKE2b-256 under the same length framing as
    /// [`hash_parts`]: the exactly-once dedup key and this command's
    /// leaf in the block id ([`Block::hash`]). Computed lazily once and
    /// shared across clones — the only hash pass a replica makes over
    /// the bytes.
    pub fn digest(&self) -> Hash256 {
        *self
            .digest
            .get_or_init(|| blake2b::hash_parts("cmd", &[&self.bytes]))
    }
}

impl PartialEq for Command {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Command {}

impl std::hash::Hash for Command {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl fmt::Debug for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Command({} bytes)", self.bytes.len())
    }
}

impl From<Vec<u8>> for Command {
    fn from(bytes: Vec<u8>) -> Self {
        Command::new(bytes)
    }
}

impl Encode for Command {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.bytes.as_ref().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + self.bytes.len()
    }
}

impl Decode for Command {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Command::new(Vec::<u8>::decode(r)?))
    }
}

/// A block payload: an ordered sequence of commands.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Payload {
    commands: Vec<Command>,
}

impl Payload {
    /// The empty payload.
    pub fn empty() -> Payload {
        Payload::default()
    }

    /// A payload carrying the given commands, in order.
    pub fn from_commands(commands: Vec<Command>) -> Payload {
        Payload { commands }
    }

    /// A payload of `count` synthetic commands of `size` bytes each —
    /// the workload generator for benchmarks (e.g. Table 1's
    /// 100 × 1 KB requests per second).
    pub fn synthetic(count: usize, size: usize, round: Round) -> Payload {
        let commands = (0..count)
            .map(|i| {
                let mut bytes = vec![0u8; size];
                // Tag each command so payload bytes differ across rounds.
                let tag = hash_parts(
                    "synthetic-cmd",
                    &[&round.get().to_le_bytes(), &(i as u64).to_le_bytes()],
                );
                let n = size.min(32);
                bytes[..n].copy_from_slice(&tag.as_bytes()[..n]);
                Command::new(bytes)
            })
            .collect();
        Payload { commands }
    }

    /// The commands in order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether the payload has no commands.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Total command bytes (excluding framing).
    pub fn total_bytes(&self) -> usize {
        self.commands.iter().map(Command::len).sum()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Payload({} cmds, {} B)",
            self.commands.len(),
            self.total_bytes()
        )
    }
}

impl Encode for Payload {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_seq(&self.commands, buf);
    }
    fn encoded_len(&self) -> usize {
        8 + self.commands.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl Decode for Payload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Payload {
            commands: decode_seq(r)?,
        })
    }
}

/// A block in the block tree: `(block, k, α, phash, payload)` (§3.4).
#[derive(Clone, PartialEq, Eq)]
pub struct Block {
    round: Round,
    proposer: NodeIndex,
    parent: Hash256,
    payload: Payload,
}

impl Block {
    /// Constructs a round-`round` block by `proposer` extending the block
    /// whose hash is `parent`.
    pub fn new(round: Round, proposer: NodeIndex, parent: Hash256, payload: Payload) -> Block {
        Block {
            round,
            proposer,
            parent,
            payload,
        }
    }

    /// The special round-0 `root` block, identical for all parties.
    pub fn genesis() -> Block {
        Block {
            round: Round::GENESIS,
            proposer: NodeIndex::new(0),
            parent: Hash256::ZERO,
            payload: Payload::empty(),
        }
    }

    /// The block's round (= depth in the tree).
    pub fn round(&self) -> Round {
        self.round
    }

    /// The proposing party.
    pub fn proposer(&self) -> NodeIndex {
        self.proposer
    }

    /// Hash of the parent block.
    pub fn parent(&self) -> Hash256 {
        self.parent
    }

    /// The payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// The block id `H(B)`: the header fields and the **payload root**,
    ///
    /// ```text
    /// hash_parts("block", [round ‖ proposer ‖ parent, d₁ ‖ … ‖ dₙ])
    /// ```
    ///
    /// with `dᵢ =` [`Command::digest`] of the `i`-th command (a
    /// BLAKE2b-256 leaf) and the outer hash SHA-256. The length-framed
    /// second part fixes `n`, each `dᵢ` is itself length-framed over
    /// one command's bytes, so order, boundaries and every payload byte
    /// are bound. The payload bytes are hashed only through the cached
    /// command digests: the pass made for dedup is the one the id uses.
    /// The id is protocol state (parent links, certificates): changing
    /// this definition — its leaf hash included — needs a
    /// `PROTO_VERSION` bump in `icc-net`.
    pub fn hash(&self) -> Hash256 {
        const HEAD: usize = 8 + 4 + 32;
        let mut pre = Vec::with_capacity(HEAD + 32 * self.payload.commands.len());
        self.round.encode(&mut pre);
        self.proposer.encode(&mut pre);
        self.parent.encode(&mut pre);
        for c in &self.payload.commands {
            pre.extend_from_slice(c.digest().as_bytes());
        }
        let (head, root) = pre.split_at(HEAD);
        hash_parts("block", &[head, root])
    }

    /// Wraps the block with its cached hash and cached encoded length.
    pub fn into_hashed(self) -> HashedBlock {
        let hash = self.hash();
        let encoded_len = self.encoded_len();
        HashedBlock {
            block: Arc::new(self),
            hash,
            encoded_len,
        }
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Block({} by {} parent {:?} {:?})",
            self.round, self.proposer, self.parent, self.payload
        )
    }
}

impl Encode for Block {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.round.encode(buf);
        self.proposer.encode(buf);
        self.parent.encode(buf);
        self.payload.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + 4 + 32 + self.payload.encoded_len()
    }
}

impl Decode for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Block {
            round: Round::decode(r)?,
            proposer: NodeIndex::decode(r)?,
            parent: Hash256::decode(r)?,
            payload: Payload::decode(r)?,
        })
    }
}

/// A block together with its cached hash; cheap to clone and compare.
///
/// Cloning bumps one `Arc` refcount — the block body (and its command
/// payloads) is never copied. The encoded length is computed once at
/// construction so wire-size accounting never re-walks the payload.
#[derive(Clone)]
pub struct HashedBlock {
    block: Arc<Block>,
    hash: Hash256,
    encoded_len: usize,
}

impl HashedBlock {
    /// The underlying block.
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// The cached block hash.
    pub fn hash(&self) -> Hash256 {
        self.hash
    }

    /// The cached encoded length of the underlying block (O(1)).
    pub fn encoded_len(&self) -> usize {
        self.encoded_len
    }

    /// Convenience: the block's round.
    pub fn round(&self) -> Round {
        self.block.round()
    }

    /// Convenience: the proposing party.
    pub fn proposer(&self) -> NodeIndex {
        self.block.proposer()
    }

    /// Convenience: the parent hash.
    pub fn parent(&self) -> Hash256 {
        self.block.parent()
    }
}

impl PartialEq for HashedBlock {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
    }
}

impl Eq for HashedBlock {}

impl std::hash::Hash for HashedBlock {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.hash.0.hash(state);
    }
}

impl fmt::Debug for HashedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HashedBlock({:?} = {:?})", self.hash, self.block)
    }
}

impl From<Block> for HashedBlock {
    fn from(block: Block) -> Self {
        block.into_hashed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_vec};

    fn sample_block() -> Block {
        Block::new(
            Round::new(3),
            NodeIndex::new(1),
            Hash256([9u8; 32]),
            Payload::from_commands(vec![Command::new(vec![1, 2, 3]), Command::new(vec![])]),
        )
    }

    fn with_commands(base: &Block, commands: &[&[u8]]) -> Block {
        Block::new(
            base.round(),
            base.proposer(),
            base.parent(),
            Payload::from_commands(commands.iter().map(|c| Command::new(c.to_vec())).collect()),
        )
    }

    #[test]
    fn block_roundtrip() {
        let b = sample_block();
        let back: Block = decode_from_slice(&encode_to_vec(&b)).unwrap();
        assert_eq!(back, b);
        assert_eq!(encode_to_vec(&b).len(), b.encoded_len());
    }

    #[test]
    fn hash_changes_with_every_field() {
        let base = sample_block();
        let h = base.hash();
        let variants = [
            Block::new(
                Round::new(4),
                base.proposer(),
                base.parent(),
                base.payload().clone(),
            ),
            Block::new(
                base.round(),
                NodeIndex::new(2),
                base.parent(),
                base.payload().clone(),
            ),
            Block::new(
                base.round(),
                base.proposer(),
                Hash256([8u8; 32]),
                base.payload().clone(),
            ),
            Block::new(
                base.round(),
                base.proposer(),
                base.parent(),
                Payload::empty(),
            ),
            // One flipped payload byte.
            with_commands(&base, &[&[1, 2, 2], &[]]),
            // Swapped command order.
            with_commands(&base, &[&[], &[1, 2, 3]]),
        ];
        for v in variants {
            assert_ne!(v.hash(), h);
        }
        // Moved command boundaries: same concatenated bytes.
        assert_ne!(
            with_commands(&base, &[b"ab", b"c"]).hash(),
            with_commands(&base, &[b"a", b"bc"]).hash()
        );
    }

    #[test]
    fn hashed_block_caches_and_compares_by_hash() {
        let hb = sample_block().into_hashed();
        assert_eq!(hb.hash(), hb.block().hash());
        let same = sample_block().into_hashed();
        assert_eq!(hb, same);
    }

    #[test]
    fn hash_is_header_plus_payload_root() {
        // Pin the id's definition: a SHA-256 `hash_parts` over the
        // header and the BLAKE2b-256 `hash_parts` command leaves.
        for block in [
            Block::genesis(),
            sample_block(),
            Block::new(
                Round::new(77),
                NodeIndex::new(12),
                Hash256([3u8; 32]),
                Payload::synthetic(100, 1024, Round::new(77)),
            ),
        ] {
            let mut head = block.round().get().to_le_bytes().to_vec();
            head.extend_from_slice(&block.proposer().get().to_le_bytes());
            head.extend_from_slice(block.parent().as_bytes());
            let root: Vec<u8> = block
                .payload()
                .commands()
                .iter()
                .flat_map(|c| blake2b::hash_parts("cmd", &[c.bytes()]).0)
                .collect();
            assert_eq!(block.hash(), hash_parts("block", &[&head, &root]));
        }
    }

    #[test]
    fn decoded_proposal_has_every_command_digest_ready() {
        // Decoding derives the block id, which derives every command
        // digest: the commit path (dedup, WAL `Committed` record) finds
        // them cached and does no further hash work over the payload.
        use crate::messages::BlockProposal;
        let proposal = BlockProposal {
            block: Block::new(
                Round::new(4),
                NodeIndex::new(2),
                Hash256([5u8; 32]),
                Payload::synthetic(6, 512, Round::new(4)),
            )
            .into_hashed(),
            authenticator: icc_crypto::sig::Signature::from_value(7),
            parent_notarization: None,
        };
        let back: BlockProposal = decode_from_slice(&encode_to_vec(&proposal)).unwrap();
        assert_eq!(back.block.hash(), proposal.block.hash());
        for c in back.block.block().payload().commands() {
            assert!(c.digest.get().is_some(), "digest not initialised by decode");
        }
    }

    #[test]
    fn genesis_is_stable() {
        assert_eq!(Block::genesis().hash(), Block::genesis().hash());
        assert_eq!(Block::genesis().round(), Round::GENESIS);
        assert!(Block::genesis().payload().is_empty());
    }

    #[test]
    fn synthetic_payload_dimensions() {
        let p = Payload::synthetic(100, 1024, Round::new(5));
        assert_eq!(p.len(), 100);
        assert_eq!(p.total_bytes(), 102_400);
        // Commands differ across rounds.
        let q = Payload::synthetic(100, 1024, Round::new(6));
        assert_ne!(p.commands()[0], q.commands()[0]);
        // And across indices within a round.
        assert_ne!(p.commands()[0], p.commands()[1]);
    }

    #[test]
    fn synthetic_payload_small_commands() {
        let p = Payload::synthetic(3, 8, Round::new(1));
        assert_eq!(p.total_bytes(), 24);
    }

    #[test]
    fn payload_encoded_len_matches() {
        let p = Payload::synthetic(5, 100, Round::new(2));
        assert_eq!(encode_to_vec(&p).len(), p.encoded_len());
    }

    #[test]
    fn debug_formats_are_compact() {
        let b = sample_block();
        let s = format!("{b:?}");
        assert!(s.contains("r3"), "{s}");
        assert!(s.len() < 120, "{s}");
    }
}
