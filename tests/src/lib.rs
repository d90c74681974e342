//! Shared helpers for the workspace integration tests.

#![forbid(unsafe_code)]

use icc_core::cluster::{Cluster, CoreAccess};
use icc_core::events::NodeEvent;
use icc_sim::Node;
use icc_types::block::HashedBlock;
use icc_types::Command;

/// Asserts the atomic-broadcast contract across every pair of honest
/// nodes: committed chains are prefix-ordered (safety), and returns the
/// shortest honest chain (for liveness assertions).
pub fn assert_chains_consistent<N>(cluster: &Cluster<N>) -> Vec<HashedBlock>
where
    N: Node<External = Command, Output = NodeEvent> + CoreAccess,
{
    cluster.assert_safety();
    cluster
        .honest_nodes()
        .into_iter()
        .map(|i| cluster.committed_chain(i))
        .min_by_key(Vec::len)
        .unwrap_or_default()
}

/// Extracts the committed command byte-sequences of one node, in order.
pub fn committed_commands<N>(cluster: &Cluster<N>, node: usize) -> Vec<Vec<u8>>
where
    N: Node<External = Command, Output = NodeEvent> + CoreAccess,
{
    cluster
        .committed_chain(node)
        .iter()
        .flat_map(|b| {
            b.block()
                .payload()
                .commands()
                .iter()
                .map(|c| c.bytes().to_vec())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// What a [`Tap`] calls with each delivered message: the node's context,
/// the sender, the message and the node. It returns whether the node
/// gets the message.
pub type Hook = Box<
    dyn FnMut(
        &mut GossipCtx<'_>,
        icc_types::NodeIndex,
        &icc_gossip::GossipMessage,
        &icc_gossip::GossipNode,
    ) -> bool,
>;

type GossipCtx<'a> = icc_sim::Context<'a, icc_gossip::GossipMessage, NodeEvent>;

/// A gossip node with a hook that sees every message it is delivered,
/// before the node does: it may send more through the same context, and
/// keep the message from the node.
pub struct Tap {
    /// The tapped node.
    pub node: icc_gossip::GossipNode,
    /// Called with every delivered message.
    pub hook: Hook,
}

impl Node for Tap {
    type Msg = icc_gossip::GossipMessage;
    type External = Command;
    type Output = NodeEvent;

    fn on_start(&mut self, ctx: &mut GossipCtx<'_>) {
        self.node.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut GossipCtx<'_>, from: icc_types::NodeIndex, msg: Self::Msg) {
        if (self.hook)(ctx, from, &msg, &self.node) {
            self.node.on_message(ctx, from, msg);
        }
    }
    fn on_timer(&mut self, ctx: &mut GossipCtx<'_>, tag: u64) {
        self.node.on_timer(ctx, tag);
    }
    fn on_external(&mut self, ctx: &mut GossipCtx<'_>, input: Command) {
        self.node.on_external(ctx, input);
    }
    fn on_crash(&mut self) {
        self.node.on_crash();
    }
    fn on_restart(&mut self, ctx: &mut GossipCtx<'_>) {
        self.node.on_restart(ctx);
    }
    fn on_peer_departed(&mut self, ctx: &mut GossipCtx<'_>, peer: icc_types::NodeIndex) {
        self.node.on_peer_departed(ctx, peer);
    }
}

impl CoreAccess for Tap {
    fn core(&self) -> &icc_core::consensus::ConsensusCore {
        self.node.core()
    }
    fn gossip_counters(&self) -> Option<icc_sim::GossipCounters> {
        Some(self.node.gossip_counters())
    }
    fn footprint(&self) -> Vec<(&'static str, u64)> {
        self.node.footprint()
    }
}

pub mod hand {
    //! A cluster of bare [`ConsensusCore`]s driven by hand: one FIFO
    //! queue of messages, a virtual clock, and a harness that decides
    //! *when* a replica dies — between two deliveries, which no timed
    //! fault plan can aim at. The transport is reliable and
    //! re-transmits: a replica that restarts is sent again everything
    //! its peers released for the rounds it still has open, in a
    //! shuffled order (a process loses its pool with its memory; here it
    //! does not also lose the network's). That keeps a cluster with a
    //! restarting member live, so that what a test of it asserts is
    //! about what the restarted replica *signs*.

    use icc_core::consensus::{ConsensusCore, Step};
    use icc_core::events::NodeEvent;
    use icc_crypto::Hash256;
    use icc_types::messages::ConsensusMessage;
    use icc_types::{Round, SimDuration, SimTime};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, VecDeque};

    /// Sees every step a replica releases: `(replica, step)`.
    pub type Observer = Box<dyn FnMut(usize, &Step)>;

    /// What a released [`Step`] put on the wire: `(from, to, message)`,
    /// `to` being `None` for a broadcast.
    pub type Released = (usize, Option<usize>, ConsensusMessage);

    /// The hand-driven cluster.
    pub struct Net {
        /// The replicas, by index.
        pub cores: Vec<ConsensusCore>,
        /// The virtual clock: 100 µs per delivery, or a jump to the
        /// next timer when nothing is in flight.
        pub now: SimTime,
        /// Every message any replica released, in release order.
        pub released: Vec<Released>,
        /// The one finalized block per round, over all replicas: a
        /// second hash for a round fails the run on the spot (P2).
        pub finalized: BTreeMap<Round, Hash256>,
        /// Called with every step a replica releases, before its
        /// messages are queued.
        pub observer: Observer,
        inbox: VecDeque<(usize, ConsensusMessage)>,
        wake: Vec<Option<SimTime>>,
        rng: StdRng,
    }

    impl Net {
        /// A cluster of `cores`, not yet started.
        pub fn new(cores: Vec<ConsensusCore>, seed: u64) -> Net {
            Net {
                wake: vec![None; cores.len()],
                cores,
                now: SimTime::ZERO,
                released: Vec::new(),
                finalized: BTreeMap::new(),
                observer: Box::new(|_, _| {}),
                inbox: VecDeque::new(),
                rng: StdRng::seed_from_u64(seed),
            }
        }

        /// Starts every replica.
        pub fn start(&mut self) {
            for i in 0..self.cores.len() {
                let step = self.cores[i].start(self.now);
                self.absorb(i, step);
            }
        }

        /// Takes what replica `i` released: its messages go into the
        /// queue, its commits are checked against every other replica's.
        pub fn absorb(&mut self, i: usize, step: Step) {
            (self.observer)(i, &step);
            for event in &step.events {
                if let NodeEvent::Committed { block } = event {
                    let held = *self.finalized.entry(block.round()).or_insert(block.hash());
                    assert_eq!(
                        held,
                        block.hash(),
                        "P2 VIOLATED: replica {i} committed a second block in {}",
                        block.round()
                    );
                }
            }
            for msg in step.broadcasts {
                for to in (0..self.cores.len()).filter(|to| *to != i) {
                    self.inbox.push_back((to, msg.clone()));
                }
                self.released.push((i, None, msg));
            }
            for (to, msg) in step.sends {
                self.inbox.push_back((to.as_usize(), msg.clone()));
                self.released.push((i, Some(to.as_usize()), msg));
            }
            if step.next_wakeup.is_some() {
                self.wake[i] = step.next_wakeup;
            }
        }

        /// Delivers the next message, or — with nothing in flight —
        /// fires the earliest timer. `false` when the cluster is idle
        /// for good.
        pub fn step(&mut self) -> bool {
            if let Some((to, msg)) = self.inbox.pop_front() {
                self.now += SimDuration::from_micros(100);
                let step = self.cores[to].on_message(self.now, &msg);
                self.absorb(to, step);
                return true;
            }
            let due = (0..self.cores.len())
                .filter_map(|i| self.wake[i].map(|at| (at, i)))
                .min();
            let Some((at, i)) = due else {
                return false;
            };
            self.now = self.now.max(at);
            self.wake[i] = None;
            let step = self.cores[i].on_wakeup(self.now);
            self.absorb(i, step);
            true
        }

        /// Steps until `done` says so, calling `between` after every
        /// step; panics if the cluster goes idle first or `limit` steps
        /// pass.
        pub fn run_until(
            &mut self,
            limit: usize,
            mut done: impl FnMut(&Net) -> bool,
            mut between: impl FnMut(&mut Net),
        ) {
            for _ in 0..limit {
                if done(self) {
                    return;
                }
                assert!(self.step(), "the cluster went idle at {}", self.now);
                between(self);
            }
            panic!("not done after {limit} steps, at {}", self.now);
        }

        /// Loses every message still in flight (a power cut takes the
        /// send queues with it).
        pub fn drop_in_flight(&mut self) {
            self.inbox.clear();
        }

        /// The lowest committed round over `nodes`.
        pub fn committed(&self, nodes: &[usize]) -> u64 {
            nodes
                .iter()
                .map(|&i| self.cores[i].committed_round().get())
                .min()
                .unwrap_or(0)
        }

        /// Kills replica `i` where it stands and brings it back: in
        /// place (`crash` + `restore`, the store surviving) when `fresh`
        /// is `None`, or as the new process `fresh` started over the old
        /// one's data directory. Its timers die with it; what was in
        /// flight to it still arrives, and its peers' messages for the
        /// rounds it has open are sent again, shuffled.
        pub fn restart(&mut self, i: usize, fresh: Option<ConsensusCore>) {
            self.wake[i] = None;
            let step = match fresh {
                Some(core) => {
                    self.cores[i] = core;
                    self.cores[i].start(self.now)
                }
                None => {
                    self.cores[i].crash();
                    self.cores[i].restore(self.now)
                }
            };
            self.absorb(i, step);
            let open = self.cores[i].committed_round();
            let mut again: Vec<ConsensusMessage> = self
                .released
                .iter()
                .filter(|(from, to, msg)| {
                    *from != i && to.is_none_or(|to| to == i) && msg.round() > open
                })
                .map(|(_, _, msg)| msg.clone())
                .collect();
            again.shuffle(&mut self.rng);
            self.inbox.extend(again.into_iter().map(|msg| (i, msg)));
        }
    }
}
