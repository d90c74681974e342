//! Protocol ICC2: the ICC consensus core with erasure-coded block
//! dissemination.
//!
//! Identical consensus logic to ICC0/ICC1; block proposals travel
//! through the [`Rbc`](crate::rbc) reliable-broadcast subprotocol
//! instead of being broadcast whole. Small artifacts (shares,
//! notarizations, finalizations) are broadcast directly, as in ICC0 —
//! they are never the bottleneck (§1).
//!
//! When the consensus core *echoes* a proposal (Fig. 1 clause (c)), the
//! echo is translated into re-broadcasting this party's own fragment:
//! the RBC's totality already guarantees every honest party can
//! reconstruct, at `O(S)` bits per party instead of the `O(n·S)` a full
//! echo would cost.

use crate::rbc::{Fragment, Rbc};
use icc_core::cluster::CoreAccess;
use icc_core::consensus::{ConsensusCore, Step};
use icc_core::events::NodeEvent;
use icc_crypto::Hash256;
use icc_sim::{Context, Node, WireMessage};
use icc_types::codec::{decode_from_slice, encode_to_vec};
use icc_types::messages::ConsensusMessage;
use icc_types::{Command, NodeIndex, SimTime};
use std::collections::{BTreeSet, HashMap, HashSet};

/// ICC2 tuning.
#[derive(Debug, Clone, Copy)]
pub struct Icc2Config {
    /// Proposals up to this size are broadcast whole; larger ones go
    /// through the erasure-coded RBC. Default 4 KiB.
    pub inline_threshold: usize,
}

impl Default for Icc2Config {
    fn default() -> Self {
        Icc2Config {
            inline_threshold: 4 << 10,
        }
    }
}

/// Messages exchanged by ICC2 parties.
#[derive(Debug, Clone, PartialEq)]
pub enum Icc2Message {
    /// A small artifact, broadcast whole.
    Small(ConsensusMessage),
    /// An RBC fragment (dispersal unicast or echo broadcast).
    Fragment(Fragment),
}

impl WireMessage for Icc2Message {
    fn wire_bytes(&self) -> usize {
        match self {
            Icc2Message::Small(m) => 1 + m.wire_bytes(),
            Icc2Message::Fragment(f) => 1 + f.wire_bytes(),
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            Icc2Message::Small(m) => m.kind(),
            Icc2Message::Fragment(_) => "rbc-fragment",
        }
    }
}

/// Timer tag for consensus-core wake-ups.
const TAG_CORE: u64 = 0;

/// An ICC2 party.
#[derive(Debug)]
pub struct Icc2Node {
    core: ConsensusCore,
    rbc: Rbc,
    config: Icc2Config,
    /// Block hash → RBC root, for translating consensus echoes.
    root_of_block: HashMap<Hash256, Hash256>,
    /// Roots whose own-fragment we already re-broadcast as an echo.
    re_echoed: HashSet<Hash256>,
    core_wakeups: BTreeSet<u64>,
}

impl Icc2Node {
    /// Wraps a consensus core with erasure-coded dissemination.
    pub fn new(core: ConsensusCore, config: Icc2Config) -> Icc2Node {
        let n = core.setup().config.n();
        let t = core.setup().config.t();
        let me = core.index().get();
        Icc2Node {
            core,
            rbc: Rbc::new(me, n, t),
            config,
            root_of_block: HashMap::new(),
            re_echoed: HashSet::new(),
            core_wakeups: BTreeSet::new(),
        }
    }

    /// The wrapped consensus core.
    pub fn core(&self) -> &ConsensusCore {
        &self.core
    }

    fn disseminate(
        &mut self,
        ctx: &mut Context<'_, Icc2Message, NodeEvent>,
        msg: ConsensusMessage,
    ) {
        match &msg {
            ConsensusMessage::Proposal(p) if msg.wire_bytes() > self.config.inline_threshold => {
                let block_hash = p.block.hash();
                if let Some(root) = self.root_of_block.get(&block_hash) {
                    // The core is echoing a block that arrived via RBC:
                    // re-broadcast our fragment once instead of the body.
                    if self.re_echoed.insert(*root) {
                        if let Some(mine) = self.rbc.my_fragment(root).cloned() {
                            ctx.broadcast(Icc2Message::Fragment(mine));
                        }
                    }
                    return;
                }
                // We are the proposer: disperse.
                let payload = encode_to_vec(&msg);
                let fragments = self.rbc.disperse(&payload);
                let root = fragments[0].root;
                self.root_of_block.insert(block_hash, root);
                self.re_echoed.insert(root); // sender's dispersal is its echo
                for frag in fragments {
                    let to = NodeIndex::new(frag.index);
                    if to != ctx.me() {
                        ctx.send(to, Icc2Message::Fragment(frag));
                    }
                }
            }
            _ => ctx.broadcast(Icc2Message::Small(msg)),
        }
    }

    fn apply_step(&mut self, ctx: &mut Context<'_, Icc2Message, NodeEvent>, step: Step) {
        for msg in step.broadcasts {
            self.disseminate(ctx, msg);
        }
        for (to, msg) in step.sends {
            // Targeted sends (commands for a leader, corrupt behaviors)
            // bypass the RBC.
            ctx.send(to, Icc2Message::Small(msg));
        }
        for event in step.events {
            ctx.output(event);
        }
        if let Some(at) = step.next_wakeup {
            if self.core_wakeups.insert(at.as_micros()) {
                ctx.set_timer(at.saturating_since(ctx.now()), TAG_CORE);
            }
        }
    }

    fn on_delivered(
        &mut self,
        ctx: &mut Context<'_, Icc2Message, NodeEvent>,
        root: Hash256,
        payload: Vec<u8>,
        now: SimTime,
    ) {
        // A dispersal that does not decode to a proposal is junk from a
        // corrupt sender; drop it.
        if let Ok(msg @ ConsensusMessage::Proposal(_)) =
            decode_from_slice::<ConsensusMessage>(&payload)
        {
            if let ConsensusMessage::Proposal(p) = &msg {
                self.root_of_block.insert(p.block.hash(), root);
            }
            let step = self.core.on_message(now, &msg);
            self.apply_step(ctx, step);
        }
    }
}

impl Node for Icc2Node {
    type Msg = Icc2Message;
    type External = Command;
    type Output = NodeEvent;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        let step = self.core.start(ctx.now());
        self.apply_step(ctx, step);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        _from: NodeIndex,
        msg: Self::Msg,
    ) {
        match msg {
            Icc2Message::Small(inner) => {
                let step = self.core.on_message(ctx.now(), &inner);
                self.apply_step(ctx, step);
            }
            Icc2Message::Fragment(frag) => {
                let root = frag.root;
                let out = self.rbc.on_fragment(frag);
                if let Some(echo) = out.echo {
                    ctx.broadcast(Icc2Message::Fragment(echo));
                }
                if let Some(payload) = out.delivered {
                    self.on_delivered(ctx, root, payload, ctx.now());
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, _tag: u64) {
        let fired: Vec<u64> = self
            .core_wakeups
            .range(..=ctx.now().as_micros())
            .copied()
            .collect();
        for f in fired {
            self.core_wakeups.remove(&f);
        }
        let step = self.core.on_wakeup(ctx.now());
        self.apply_step(ctx, step);
    }

    fn on_external(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        input: Self::External,
    ) {
        let step = self.core.on_command(ctx.now(), input);
        self.apply_step(ctx, step);
    }
}

impl CoreAccess for Icc2Node {
    fn core(&self) -> &ConsensusCore {
        Icc2Node::core(self)
    }
}
