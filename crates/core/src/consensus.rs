//! Protocol ICC0: the Tree-Building Subprotocol (Fig. 1) and the
//! Finalization Subprotocol (Fig. 2), as a sans-IO state machine.
//!
//! [`ConsensusCore`] owns a party's pool and per-round state and is
//! driven by four entry points — [`start`](ConsensusCore::start),
//! [`on_message`](ConsensusCore::on_message),
//! [`on_wakeup`](ConsensusCore::on_wakeup) (timers) and
//! [`on_command`](ConsensusCore::on_command) (client input). Each entry
//! point returns a [`Step`]: messages to broadcast, observable events,
//! and the next time the party wants to be woken. The transport is
//! external: the gossip layer (`icc-gossip`) wraps the core for ICC0 — on
//! a full mesh with nothing advertised — and for ICC1, the erasure-coded
//! layer (`icc-erasure`) for ICC2.
//!
//! **Persist-then-send.** A `Step` leaves the core through one barrier
//! (`release`): what the step appended to the [`DurableStore`] is
//! committed first — a step that ended a round waits for the disk, any
//! other does not (`storage` module docs) — and only then are its
//! messages and events handed out. A replica that restarts therefore
//! resumes in a round it has released no vote of yet, or in the one
//! round it may have voted in and no longer knows how: there it
//! withholds its finalization share. If the store cannot persist,
//! nothing of the step is released and the core halts: no further
//! shares, proposals or beacon shares ([`ConsensusCore::halted`]).
//!
//! The mapping to Figure 1 is direct:
//!
//! * *"wait for t + 1 shares of the round-k random beacon"* — the
//!   beacon phase in `progress`, which also pipelines this party's share
//!   for round `k + 1` the moment beacon `k` is computed, and combines
//!   beacon `k + 1` as soon as `t + 1` of its shares are held
//!   (`look_ahead`: round `k + 1`'s leader is then known a round early;
//!   client commands go to it and its rank-1 backup, or to round `k`'s
//!   own two while its leader has not proposed — the `ingress` module);
//! * clause **(a)** (finish the round) — `try_finish_round`;
//! * clause **(b)** (propose after `Δprop(rank_me)`) — `try_propose`;
//! * clause **(c)** (echo / notarization-share / disqualify after
//!   `Δntry(r)`) — `try_support`;
//! * Figure 2 — `run_finalization` (tracks `kmax`, combines and
//!   broadcasts finalizations, outputs committed payloads).

// Nothing a peer sends may panic the consensus core.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

use crate::artifacts;
use crate::byzantine::Behavior;
use crate::delays::Delays;
use crate::events::NodeEvent;
use crate::ingress::{CommandPool, IngressStats, FORWARD_MAX_BYTES};
use crate::keys::{NodeKeys, PublicSetup};
use crate::pool::Pool;
use crate::recovery::{CatchUpError, CatchUpPackage, EpochTransition, RecoveryStats};
use crate::storage::{Checkpoint, DurableStore, WalEntry};
use crate::telemetry::NodeTelemetry;
use icc_crypto::beacon::RankPermutation;
use icc_crypto::{hash_parts, Hash256};
use icc_telemetry::{SpanEvent, SpanKind};
use icc_types::block::{Block, HashedBlock, Payload};
use icc_types::messages::{Beacon, BlockRef, ConsensusMessage};
use icc_types::{Command, NodeIndex, Rank, Round, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// How many rounds behind the highest round a peer advertises a replica
/// must be before it asks for a certified catch-up package instead of
/// fetching the missing rounds' bodies one by one.
pub const CATCH_UP_THRESHOLD: u64 = 10;

/// How many rounds below the committed tip a replica keeps blocks,
/// certificates and shares by default. A body is requested only from a
/// peer that advertised it, and a requester not yet entitled to a
/// package heard that advert less than [`CATCH_UP_THRESHOLD`] rounds
/// above its own tip; the second threshold is slack for the advertiser
/// committing further before the request lands. Past that the requester
/// is entitled to a package and asks for no body (DESIGN.md §5k).
pub const PURGE_DEPTH: u64 = 2 * CATCH_UP_THRESHOLD;
const _: () = assert!(PURGE_DEPTH > CATCH_UP_THRESHOLD);

/// Limits on self-built block payloads, and how much history the
/// replica keeps.
#[derive(Debug, Clone, Copy)]
pub struct BlockPolicy {
    /// Maximum commands per proposed block (and per forwarded batch;
    /// peer-forwarded commands are held up to
    /// [`PEER_BLOCKS`](crate::ingress::PEER_BLOCKS) times this).
    pub max_commands: usize,
    /// Maximum total command bytes per proposed block (likewise).
    pub max_bytes: usize,
    /// On every commit the pool is purged below `kmax − purge_depth`
    /// ([`Pool::purge_below`]; beacon values stay
    /// [`BEACON_DEPTH`](crate::pool::BEACON_DEPTH) rounds longer) and
    /// every layer above forgets what it knew about those rounds, so a
    /// replica's memory follows the rounds in flight, not its uptime.
    /// Default [`PURGE_DEPTH`]. `None` never purges — the paper's
    /// literal pool (§3.1), for experiments that say so.
    pub purge_depth: Option<u64>,
}

impl Default for BlockPolicy {
    fn default() -> Self {
        BlockPolicy {
            max_commands: 1000,
            max_bytes: 4 << 20,
            purge_depth: Some(PURGE_DEPTH),
        }
    }
}

/// The result of driving the core one step.
#[derive(Debug, Default)]
pub struct Step {
    /// Messages to disseminate to all parties.
    pub broadcasts: Vec<ConsensusMessage>,
    /// Messages for one party each: client commands sent to the rank-0
    /// and rank-1 parties of the current or the next round
    /// ([`ConsensusMessage::Commands`]) — every protocol artifact an
    /// honest party sends is broadcast (§3.1) — and a corrupt behavior's
    /// split equivocation, which sends different blocks to different
    /// parties.
    pub sends: Vec<(NodeIndex, ConsensusMessage)>,
    /// Observable events (commits, round markers).
    pub events: Vec<NodeEvent>,
    /// The next instant the core wants `on_wakeup` called, if any.
    pub next_wakeup: Option<SimTime>,
}

/// Per-round volatile state (Fig. 1 loop variables).
#[derive(Debug)]
struct RoundState {
    t0: SimTime,
    perm: RankPermutation,
    /// This party's rank in the round's permutation; `None` when it is
    /// not a member of the round's epoch (it then observes — tracks the
    /// round, echoes blocks — but never proposes or signs).
    my_rank: Option<Rank>,
    /// `N`: the ranks this party broadcast a notarization share for,
    /// with the block it supported (at most one per rank).
    n_set: HashMap<u32, Hash256>,
    /// `D`: disqualified ranks (caught equivocating).
    d_set: HashSet<u32>,
    proposed: bool,
    done: bool,
    /// Blocks already echoed (each block echoed at most once; at most
    /// two per rank reach this set by the `N`/`D` guards).
    echoed: HashSet<Hash256>,
    /// Whether the flight recorder has logged the first valid proposal
    /// of this round (telemetry, not protocol state).
    proposal_seen: bool,
    /// Whether the forwarding pass to this round's own leader has run.
    forwarded: bool,
}

impl RoundState {
    fn new(t0: SimTime, perm: RankPermutation, my_rank: Option<Rank>) -> RoundState {
        RoundState {
            t0,
            perm,
            my_rank,
            n_set: HashMap::new(),
            d_set: HashSet::new(),
            proposed: false,
            done: false,
            echoed: HashSet::new(),
            proposal_seen: false,
            forwarded: false,
        }
    }
}

/// A party running Protocol ICC0.
pub struct ConsensusCore {
    keys: NodeKeys,
    delays: Box<dyn Delays + Send>,
    behavior: Behavior,
    policy: BlockPolicy,
    pool: Pool,
    round: Round,
    rstate: Option<RoundState>,
    /// The next round's rank permutation, derived once, as soon as its
    /// beacon is known (`look_ahead`); entering that round takes it.
    next_perm: Option<(Round, RankPermutation)>,
    /// Highest round our beacon share has been broadcast for.
    beacon_share_sent_upto: Round,
    /// Fig. 2's `kmax`: last committed round.
    kmax: Round,
    /// Aggregates already broadcast, by block: round first, so that
    /// they are forgotten at the pool's floor.
    notarizations_broadcast: BTreeSet<(Round, Hash256)>,
    finalizations_broadcast: BTreeSet<(Round, Hash256)>,
    /// Archived epoch-transition certificates by epoch index: the
    /// handoff finalization of each boundary the finalized chain has
    /// crossed. Volatile (rebuilt from the store on restore); the
    /// source this replica serves cross-epoch catch-up packages from.
    transition_certs: BTreeMap<u64, EpochTransition>,
    /// Client commands not yet committed — this replica's clients' and
    /// those peers forwarded to it — by digest, in arrival order.
    commands: CommandPool,
    committed_cmds: HashSet<Hash256>,
    started: bool,
    /// The round [`restore`](Self::restore) resumed in: the one round
    /// this party may have notarization-shared in without remembering
    /// what (its `N` died with the process), so it finalization-shares
    /// nothing there.
    resumed_in: Option<Round>,
    /// Why the core stopped, once the store failed to persist a step.
    /// Survives `crash()` like the store it describes.
    halted: Option<String>,
    /// The replica's "disk": checkpoint + WAL surviving `crash()`.
    store: DurableStore,
    /// Frontier round of the store at the last restore (0 when the
    /// replica never restored). Diagnostics for the durability tests
    /// and the `replica` REPORT line, not protocol state.
    last_recovered_round: u64,
    /// Recovery observability counters (restarts, catch-ups, …).
    recovery: RecoveryStats,
    /// Protocol metrics + flight recorder. Observability, not replica
    /// state: survives `crash()`/`restore()` like an external monitor.
    telemetry: NodeTelemetry,
    /// When each still-uncommitted round was entered (keyed by round
    /// number), feeding the finalization-latency histogram.
    entered_at: HashMap<u64, SimTime>,
    /// Take a checkpoint every this many committed rounds.
    checkpoint_interval: u64,
    /// Ablation switch: when set, the beacon share for round `k + 1` is
    /// only broadcast on *entering* round `k + 1` instead of the moment
    /// beacon `k` is computed. Costs one extra δ per round (see the
    /// `claims E12` ablation).
    disable_beacon_pipelining: bool,
    /// Scale-out switch: when set, a party that combines the round
    /// beacon also broadcasts the *combined value* (self-certifying —
    /// threshold signatures are unique, so one group-key verification
    /// replaces `t + 1` share verifications at every receiver). Used by
    /// the aggregator-routed gossip mode, where shares travel to a few
    /// aggregators instead of flooding.
    broadcast_beacon_values: bool,
    /// Highest round whose combined beacon value this party broadcast.
    beacon_value_sent_upto: Round,
}

impl fmt::Debug for ConsensusCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ConsensusCore({} round {} kmax {})",
            self.keys.index, self.round, self.kmax
        )
    }
}

fn command_hash(cmd: &Command) -> Hash256 {
    cmd.digest()
}

/// Puts a batch of client commands for `round` in `step`, once for each
/// party of `to`.
fn send_batch(step: &mut Step, round: Round, to: &[NodeIndex], commands: Vec<Command>) {
    for &party in to {
        let commands = commands.clone();
        step.sends
            .push((party, ConsensusMessage::Commands { round, commands }));
    }
}

impl ConsensusCore {
    /// Creates a party from its key material, delay policy and behavior
    /// profile.
    pub fn new(keys: NodeKeys, delays: impl Delays + Send + 'static, behavior: Behavior) -> Self {
        let pool = Pool::new(Arc::clone(&keys.setup));
        let mut telemetry = NodeTelemetry::default();
        telemetry.anomalies.set_node(keys.index.get());
        ConsensusCore {
            keys,
            delays: Box::new(delays),
            behavior,
            policy: BlockPolicy::default(),
            pool,
            round: Round::new(1),
            rstate: None,
            next_perm: None,
            beacon_share_sent_upto: Round::GENESIS,
            kmax: Round::GENESIS,
            notarizations_broadcast: BTreeSet::new(),
            finalizations_broadcast: BTreeSet::new(),
            transition_certs: BTreeMap::new(),
            commands: CommandPool::default(),
            committed_cmds: HashSet::new(),
            started: false,
            resumed_in: None,
            halted: None,
            store: DurableStore::new(),
            last_recovered_round: 0,
            recovery: RecoveryStats::default(),
            telemetry,
            entered_at: HashMap::new(),
            checkpoint_interval: 8,
            disable_beacon_pipelining: false,
            broadcast_beacon_values: false,
            beacon_value_sent_upto: Round::GENESIS,
        }
    }

    /// Disables the beacon-share pipelining of Fig. 1 (ablation).
    pub fn without_beacon_pipelining(mut self) -> Self {
        self.disable_beacon_pipelining = true;
        self
    }

    /// Broadcasts combined beacon *values* in addition to shares, so
    /// receivers can verify one group signature instead of `t + 1`
    /// shares. Required by the aggregator-routed gossip mode.
    pub fn with_beacon_value_broadcast(mut self) -> Self {
        self.broadcast_beacon_values = true;
        self
    }

    /// Overrides the block payload limits.
    pub fn with_block_policy(mut self, policy: BlockPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the replica's durable store — the hook that makes a
    /// core *file-backed*: attach a store over
    /// [`FileBackend`](crate::storage::FileBackend) and everything the
    /// replica certifies is persisted as it happens. Call before
    /// [`start`](Self::start); a non-empty store (a data directory that
    /// survived a crash) makes `start` restore from it instead of
    /// booting fresh.
    pub fn with_store(mut self, store: DurableStore) -> Self {
        self.store = store;
        self
    }

    /// Overrides how many committed rounds elapse between checkpoints
    /// (default 8). Checkpoints compact the WAL; a huge interval means
    /// longer restores, a tiny one more checkpoint work.
    pub fn with_checkpoint_interval(mut self, rounds: u64) -> Self {
        self.checkpoint_interval = rounds.max(1);
        self
    }

    /// This party's index.
    pub fn index(&self) -> icc_types::NodeIndex {
        self.keys.index
    }

    /// This party's behavior profile.
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// The shared public setup.
    pub fn setup(&self) -> &Arc<PublicSetup> {
        &self.keys.setup
    }

    /// The round the tree-building subprotocol is currently in.
    pub fn current_round(&self) -> Round {
        self.round
    }

    /// The last committed round (Fig. 2's `kmax`).
    pub fn committed_round(&self) -> Round {
        self.kmax
    }

    /// The epoch index the current round falls in (admin `/status`).
    pub fn current_epoch(&self) -> u64 {
        self.keys.setup.epoch_index_of(self.round) as u64
    }

    /// The highest finalized round in the pool — the finalized
    /// frontier the admin `/status` endpoint reports.
    pub fn finalized_frontier(&self) -> Round {
        self.pool.latest_finalized_round()
    }

    /// Read access to the artifact pool (tests, experiments).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Number of client commands held but not yet committed (this
    /// replica's clients' and those forwarded to it).
    pub fn pending_commands(&self) -> usize {
        self.commands.len()
    }

    /// The ingress counters: commands forwarded to leaders, batches
    /// received, refused and dropped.
    pub fn ingress_stats(&self) -> IngressStats {
        self.commands.stats()
    }

    /// The current `Δbnd` of the delay policy (diagnostics).
    pub fn delta_bound(&self) -> icc_types::SimDuration {
        self.delays.delta_bound()
    }

    /// Initializes the party: broadcasts its share of the round-1 beacon
    /// (the line before the main loop in Fig. 1) and runs the protocol
    /// as far as it can go.
    pub fn start(&mut self, now: SimTime) -> Step {
        let mut step = Step::default();
        if self.started || !self.running() {
            return step;
        }
        // A fresh *process* over a surviving data directory: the store
        // already holds certified state, so booting is a restore, not a
        // cold start (a cold start would stall waiting for round-1
        // beacon shares no peer will re-send).
        if !self.store.is_empty() {
            return self.restore(now);
        }
        self.started = true;
        if self.behavior.shares_beacon() && self.keys.beacon_signer_for(Round::new(1)).is_some() {
            let share =
                artifacts::beacon_share(&self.keys, Round::new(1), &self.keys.setup.genesis_beacon);
            self.emit(ConsensusMessage::BeaconShare(share), &mut step);
            self.beacon_share_sent_upto = Round::new(1);
        }
        self.progress(now, &mut step);
        self.release(step)
    }

    /// Handles a consensus message from any party (including echoes of
    /// this party's own artifacts).
    pub fn on_message(&mut self, now: SimTime, msg: &ConsensusMessage) -> Step {
        let mut step = Step::default();
        if !self.running() || !self.started {
            return step;
        }
        if let ConsensusMessage::Commands { round, commands } = msg {
            // Client input for a leader: held, proposed when it leads.
            let proposed = self.rstate.as_ref().is_some_and(|rs| rs.proposed);
            let (current, committed) = (self.round, &self.committed_cmds);
            self.commands
                .receive(*round, current, proposed, commands, committed, &self.policy);
            return step;
        }
        // Run the clauses even for duplicate artifacts: the message may
        // have raced a timer whose wakeup already fired.
        self.pool.insert(msg);
        self.progress(now, &mut step);
        self.release(step)
    }

    /// Handles a timer wake-up.
    pub fn on_wakeup(&mut self, now: SimTime) -> Step {
        let mut step = Step::default();
        if !self.running() || !self.started {
            return step;
        }
        self.progress(now, &mut step);
        self.release(step)
    }

    /// Accepts a client command given at `now` (§1: inputs arrive
    /// incrementally over time). A small command leaves in the returned
    /// step for the leader that proposes soonest and that round's
    /// rank-1 party: the current round's while its window `Δprop(0)` is
    /// open, else the next round's if its beacon is known; otherwise it
    /// goes with the forwarding pass of the round (the `ingress`
    /// module).
    pub fn on_command(&mut self, now: SimTime, cmd: Command) -> Step {
        let mut step = Step::default();
        let (h, small) = (command_hash(&cmd), cmd.len() <= FORWARD_MAX_BYTES);
        if self.committed_cmds.contains(&h) || !self.commands.submit(cmd, h) {
            return step;
        }
        let target = self.current_target(now).or_else(|| self.next_target());
        let Some((target, to)) = target.filter(|_| small && self.running()) else {
            return step;
        };
        let in_chain = self.notarized_chain_commands().contains(&h);
        let current = self.round;
        let sent = self
            .commands
            .send_new(&h, target, current, to.len(), in_chain);
        if let Some(cmd) = sent {
            send_batch(&mut step, target, &to, vec![cmd]);
        }
        step
    }

    /// The round in progress while its leader has not proposed — `now`
    /// is inside its window `Δprop(0)`, the governor ε — with the
    /// parties a batch for it goes to.
    fn current_target(&self, now: SimTime) -> Option<(Round, Vec<NodeIndex>)> {
        let rs = self.rstate.as_ref().filter(|rs| !rs.done)?;
        let open = now < rs.t0 + self.delays.prop(Rank::LEADER);
        open.then(|| (self.round, self.recipients(&rs.perm)))
    }

    /// The round after the current one, once its beacon is known, with
    /// the parties a batch for it goes to.
    fn next_target(&self) -> Option<(Round, Vec<NodeIndex>)> {
        let (round, perm) = self.next_perm.as_ref()?;
        (*round == self.round.next()).then(|| (*round, self.recipients(perm)))
    }

    /// Who this replica's client commands for the round ranked by `perm`
    /// go to: its rank-0 party and, standing in for it if it fails
    /// (§3.4), its rank-1 party — never this replica, and nobody when
    /// this replica leads the round.
    fn recipients(&self, perm: &RankPermutation) -> Vec<NodeIndex> {
        let me = self.keys.index.get();
        if perm.leader() == me {
            return Vec::new();
        }
        let backup = perm.try_party_at_rank(1).filter(|&p| p != me);
        let parties = std::iter::once(perm.leader()).chain(backup);
        parties.map(NodeIndex::new).collect()
    }

    // ------------------------------------------------------------------
    // Crash recovery
    // ------------------------------------------------------------------

    /// Simulates a process crash: every volatile field is dropped (the
    /// pool, round state, input queue, dedup sets). Only the
    /// [`DurableStore`] — the replica's "disk" — and the recovery
    /// counters survive. [`restore`](Self::restore) brings the replica
    /// back.
    pub fn crash(&mut self) {
        self.pool = Pool::new(Arc::clone(&self.keys.setup));
        self.round = Round::new(1);
        self.rstate = None;
        self.next_perm = None;
        self.beacon_share_sent_upto = Round::GENESIS;
        self.beacon_value_sent_upto = Round::GENESIS;
        self.kmax = Round::GENESIS;
        self.notarizations_broadcast.clear();
        self.finalizations_broadcast.clear();
        self.transition_certs.clear();
        self.commands.clear();
        self.committed_cmds.clear();
        self.started = false;
        self.resumed_in = None;
        // `telemetry` deliberately survives: it is observability, not
        // replica state — the flight recorder should show the outage.
        self.entered_at.clear();
    }

    /// Restarts the replica from its durable state: installs the
    /// checkpoint as a certified root, replays the WAL through the
    /// pool's *trusted* path (zero signature verifications — everything
    /// in the store was verified before it was appended), and resumes
    /// at the round after the highest restored notarization. Every step
    /// that ended a round was synced before it was released, so this
    /// party has released no vote of any later round; in the resumed
    /// round itself it may have notarization-shared blocks it no longer
    /// knows of, and withholds its finalization share (`N ⊆ {B}` cannot
    /// be checked). A replica that fell far behind while down still needs
    /// the catch-up protocol (gossip layer) to rejoin; plain ICC0
    /// restore alone leaves it waiting for beacon shares of a long-past
    /// round.
    pub fn restore(&mut self, now: SimTime) -> Step {
        let mut step = Step::default();
        if !self.running() {
            return step;
        }
        self.crash(); // fresh volatile state even on a cold call
        self.started = true;
        self.recovery.restarts += 1;
        if let Some(cp) = self.store.checkpoint().cloned() {
            self.pool.install_checkpoint(&cp);
            for t in &cp.transitions {
                self.transition_certs.insert(t.epoch, t.clone());
            }
            self.kmax = cp.round();
        }
        self.committed_cmds
            .extend(self.store.history().iter().copied());
        let entries: Vec<WalEntry> = self.store.wal().to_vec();
        for entry in entries {
            match entry {
                WalEntry::Beacon(r, v) => {
                    self.pool.install_beacon_trusted(r, v);
                }
                WalEntry::Notarized {
                    proposal,
                    notarization,
                } => {
                    self.pool
                        .insert_owned(&ConsensusMessage::Proposal(proposal));
                    if let Some(n) = notarization {
                        self.pool.insert_owned(&ConsensusMessage::Notarization(n));
                    }
                }
                WalEntry::Finalization(f) => {
                    self.pool.insert_owned(&ConsensusMessage::Finalization(f));
                }
                WalEntry::Committed { digests, .. } => {
                    self.committed_cmds.extend(digests);
                }
                WalEntry::EpochTransition(t) => {
                    self.transition_certs.insert(t.epoch, t);
                }
            }
        }
        self.kmax = self.kmax.max(self.pool.latest_finalized_round());
        let resume = self
            .kmax
            .next()
            .max(self.pool.highest_notarized_round().next());
        self.round = resume;
        self.resumed_in = Some(resume);
        // Whether the journal's committed set has a catch-up's hole is
        // not recorded: refuse forwarded batches as `apply_catch_up`
        // would have, counted from here (`ingress` module).
        self.commands.refuse_after(resume);
        // What put the resume point here may have been read back from
        // the page cache of a process that died before its sync.
        self.store.promise();
        // Do not re-broadcast beacon shares for rounds the restored
        // chain already covers; receivers would dedup them anyway.
        self.beacon_share_sent_upto = self.pool.latest_beacon_round();
        self.beacon_value_sent_upto = self.pool.latest_beacon_round();
        // The pool was rebuilt from scratch above, so its verification
        // counter at this point *is* the number of signature checks the
        // replay cost — the zero the durability tests pin down.
        self.recovery.restore_verifications += self.pool.stats().verify_calls;
        self.last_recovered_round = self.store.frontier().get();
        self.progress(now, &mut step);
        self.release(step)
    }

    /// The store frontier the last [`restore`](Self::restore) brought
    /// back (0 if never restored).
    pub fn last_recovered_round(&self) -> u64 {
        self.last_recovered_round
    }

    /// The round up to which this replica can actually *operate*: the
    /// lower of its committed tip (`kmax`) and its beacon-chain
    /// frontier. The two can diverge after a restart — flooded
    /// finalizations keep `kmax` current while the beacon of the round
    /// the replica resumed in is gone for good (peers broadcast each
    /// beacon share exactly once). A catch-up request must report this
    /// horizon, not `kmax`, so the serving peer's beacon segment chains
    /// from a value the requester actually holds.
    pub fn catch_up_horizon(&self) -> Round {
        Round::new(self.kmax.get().min(self.pool.latest_beacon_round().get()))
    }

    /// Verifies and applies a certified catch-up package fetched from a
    /// peer (gossip layer). On success the replica fast-forwards: the
    /// package block becomes the new committed tip (`kmax`), its beacon
    /// segment lets the replica enter the next round, and the package
    /// is journaled so a re-crash recovers past it. Intermediate blocks
    /// between the old and new `kmax` are *not* emitted as `Committed`
    /// events — the finalization certificate pins them, and state sync
    /// jumps over them (see `DESIGN.md` §5b); per-round safety across
    /// the cluster is unaffected.
    ///
    /// A package whose block this replica has already committed can
    /// still be useful: its beacon segment un-sticks a replica whose
    /// round is parked behind a beacon it can no longer obtain (see
    /// [`catch_up_horizon`](Self::catch_up_horizon)). Only a package
    /// that advances *neither* frontier is `Stale`.
    ///
    /// # Errors
    ///
    /// Returns the [`CatchUpError`] if the package is stale, forged or
    /// truncated; nothing is installed in that case.
    pub fn apply_catch_up(
        &mut self,
        pkg: &CatchUpPackage,
        now: SimTime,
    ) -> Result<Step, CatchUpError> {
        if !self.running() {
            return Err(CatchUpError::Halted);
        }
        let pkg_round = pkg.round();
        let advances_chain = pkg_round > self.kmax;
        let advances_beacons = self.pool.beacon(self.round).is_none()
            && pkg.beacons.last().map(|(r, _)| *r) > Some(self.pool.latest_beacon_round());
        if !advances_chain && !advances_beacons {
            return Err(CatchUpError::Stale);
        }
        // Epoch window this replica is about to cross, anchored *before*
        // the install moves the finalized frontier.
        let local_epoch = self
            .keys
            .setup
            .epoch_index_of(self.pool.latest_finalized_round());
        let target_epoch = self.keys.setup.epoch_index_of(pkg_round);
        let crossed = self.pool.verify_and_install_catch_up(pkg)?;
        let mut step = Step::default();
        // Journal the package: a re-crash restores past this point. The
        // finalization goes last (below), as in `run_finalization`.
        for &(r, v) in &pkg.beacons {
            self.store.append_beacon(r, v);
        }
        self.store
            .append_block(pkg.proposal.clone(), Some(pkg.notarization.clone()));
        if crossed > 0 {
            // Archive the verified chain links (only those covering the
            // boundaries actually crossed — anything outside
            // `(local_epoch, target_epoch]` was not verified above).
            self.recovery.cross_epoch_catch_ups += 1;
            for t in &pkg.transitions {
                let e = t.epoch as usize;
                if e > local_epoch
                    && e <= target_epoch
                    && !self.transition_certs.contains_key(&t.epoch)
                {
                    self.store.append_epoch_transition(t.clone());
                    self.transition_certs.insert(t.epoch, t.clone());
                    self.recovery.epoch_transitions += 1;
                    let tr = t.round();
                    let te = t.epoch;
                    self.record_span(now, tr, SpanKind::EpochTransition { epoch: te });
                }
            }
        }
        step.events.push(NodeEvent::CaughtUp {
            from_round: self.kmax,
            to_round: pkg_round,
        });
        let from_round = self.kmax.get();
        self.record_span(now, pkg_round, SpanKind::CatchUpApplied { from_round });
        self.telemetry.metrics.catch_ups_applied.inc();
        if advances_chain {
            // The commands of the rounds jumped over are committed too:
            // read them off the blocks if the pool holds the chain.
            // Otherwise the dedup set has a hole there, and the command
            // pool must not be able to fill it a second time.
            let skipped = self.pool.chain_back_to(&pkg.proposal.block, self.kmax);
            if skipped.is_none() {
                self.commands.gap(pkg_round);
            }
            for b in skipped.unwrap_or_default() {
                if b.round() < pkg_round {
                    self.record_committed(&b);
                }
            }
            let n_digests = self.record_committed(&pkg.proposal.block);
            self.recovery.rounds_behind_total += pkg_round.get() - self.kmax.get();
            step.events.push(NodeEvent::Committed {
                block: pkg.proposal.block.clone(),
            });
            self.record_span(now, pkg_round, SpanKind::Finalized);
            self.telemetry.metrics.blocks_committed.inc();
            self.telemetry.metrics.commands_committed.add(n_digests);
            self.kmax = pkg_round;
            self.entered_at.retain(|r, _| *r > pkg_round.get());
        }
        self.store.append_finalization(pkg.finalization.clone());
        self.recovery.catch_up_applied += 1;
        self.finalizations_broadcast
            .insert((pkg_round, pkg.proposal.block.hash()));
        self.purge();
        if self.round <= pkg_round {
            // Rounds left behind without their end: as in
            // `try_finish_round`, the journal says so before this party
            // votes in the round it jumps to.
            self.store.promise();
            self.round = pkg_round.next();
            self.rstate = None;
        }
        self.maybe_checkpoint();
        self.progress(now, &mut step);
        Ok(self.release(step))
    }

    /// Builds a catch-up package for a peer that reports knowing the
    /// beacon chain up to `have_round`. Returns `None` when this
    /// replica cannot help: it has nothing finalized past `have_round`,
    /// its beacon chain no longer reaches back to `have_round + 1`
    /// (purged), or the package would cross an epoch boundary whose
    /// transition certificate this replica has not archived — the
    /// requester then rotates to another peer.
    pub fn build_catch_up_package(&self, have_round: Round) -> Option<CatchUpPackage> {
        let tip = self.pool.latest_finalized_block()?;
        let round = tip.round();
        if round <= have_round {
            return None;
        }
        let tip = self.pool.certified_block(&tip.hash())?;
        let beacons = self.pool.beacons_from(have_round.next());
        // The segment must chain from the requester's tip and cover
        // entering `round + 1`.
        let mut expected = have_round.next();
        for (r, _) in &beacons {
            if *r != expected {
                return None;
            }
            expected = expected.next();
        }
        if beacons.last().map(|(r, _)| *r) < Some(round.next()) {
            return None;
        }
        // Cross-epoch certificate chain: one archived link per boundary
        // between the requester's epoch and the packaged block's.
        let from_epoch = self.keys.setup.epoch_index_of(have_round);
        let to_epoch = self.keys.setup.epoch_index_of(round);
        let mut transitions = Vec::with_capacity(to_epoch - from_epoch);
        for e in (from_epoch + 1)..=to_epoch {
            transitions.push(self.transition_certs.get(&(e as u64))?.clone());
        }
        Some(CatchUpPackage {
            proposal: tip.proposal,
            notarization: tip.notarization?.clone(),
            finalization: tip.finalization?.clone(),
            beacons,
            transitions,
        })
    }

    /// Recovery counters: core-owned (restarts, catch-ups) composed
    /// with store-owned (WAL appends, checkpoints).
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut s = self.recovery;
        s.wal_appends = self.store.wal_appends();
        s.checkpoints = self.store.checkpoints_taken();
        s
    }

    /// Mutable access for the dissemination layer's counters
    /// (rejected packages, catch-up bytes and latency).
    pub fn recovery_stats_mut(&mut self) -> &mut RecoveryStats {
        &mut self.recovery
    }

    /// This replica's telemetry: protocol metrics plus the flight
    /// recorder of phase events.
    pub fn telemetry(&self) -> &NodeTelemetry {
        &self.telemetry
    }

    /// Mutable telemetry access for the dissemination layer (gossip
    /// retries, catch-up requests) — same pattern as
    /// [`recovery_stats_mut`](Self::recovery_stats_mut).
    pub fn telemetry_mut(&mut self) -> &mut NodeTelemetry {
        &mut self.telemetry
    }

    /// Records one flight-recorder event stamped with sim time. Goes
    /// through the [`NodeTelemetry::record`] funnel, so every span also
    /// feeds the live anomaly detector.
    fn record_span(&mut self, now: SimTime, round: Round, kind: SpanKind) {
        self.telemetry.record(SpanEvent {
            at_us: now.as_micros(),
            node: self.keys.index.get(),
            round: round.get(),
            kind,
        });
    }

    /// The replica's durable store (tests, diagnostics).
    pub fn store(&self) -> &DurableStore {
        &self.store
    }

    /// Forces the store's backend durable (graceful shutdown). No-op
    /// for the in-memory backend.
    ///
    /// # Errors
    ///
    /// The backend's I/O error, if flushing failed.
    pub fn flush_store(&mut self) -> std::io::Result<()> {
        self.store.flush()
    }

    /// Why this replica stopped taking part, if it did: the store
    /// failed to persist a step (fail-stop). A halted core answers every
    /// entry point with an empty [`Step`].
    pub fn halted(&self) -> Option<&str> {
        self.halted.as_deref()
    }

    /// Whether this party runs the protocol at all: its behavior
    /// participates and its store has not failed.
    fn running(&self) -> bool {
        self.behavior.participates() && self.halted.is_none()
    }

    /// The persist-then-send barrier every public entry point returns
    /// through: commits what the step appended to the store, then hands
    /// the step out. If the store failed, nothing of the step leaves —
    /// broadcasts, sends and `Committed` events alike — and the core
    /// halts.
    fn release(&mut self, step: Step) -> Step {
        match self.store.commit() {
            Ok(()) => step,
            Err(e) => {
                self.halted = Some(e.to_string());
                Step::default()
            }
        }
    }

    /// The store backend's telemetry (all zeros for the in-memory
    /// backend).
    pub fn storage_counters(&self) -> crate::storage::StorageCounters {
        self.store.storage_counters()
    }

    /// Broadcasts `msg` and inserts it into the local pool immediately
    /// (a party's own messages reach its own pool, §3.1). Own artifacts
    /// take the trusted path: they were signed locally a moment ago, so
    /// the pool classifies them without verifying a signature.
    fn emit(&mut self, msg: ConsensusMessage, step: &mut Step) {
        self.pool.insert_owned(&msg);
        step.broadcasts.push(msg);
    }

    /// Runs every enabled protocol clause to quiescence.
    fn progress(&mut self, now: SimTime, step: &mut Step) {
        self.run_finalization(now, step);
        let mut iterations = 0u32;
        loop {
            iterations += 1;
            if iterations >= 50_000 {
                // Degenerate configurations (e.g. a single-party subnet
                // with ε = 0) can make unbounded progress in zero time;
                // yield to the runtime and continue on the next wakeup
                // instead of spinning here.
                step.next_wakeup = Some(now);
                return;
            }
            // Phase: compute the round beacon and enter the round.
            if self.rstate.is_none() {
                if !self.enter_round(now, step) {
                    break; // waiting for beacon shares
                }
                continue;
            }
            // Advance past a finished round.
            if self.rstate.as_ref().is_some_and(|rs| rs.done) {
                self.round = self.round.next();
                self.rstate = None;
                continue;
            }
            // Clause (a): finish the round on a notarized block.
            if self.try_finish_round(now, step) {
                self.run_finalization(now, step);
                continue;
            }
            // Clause (b): propose after Δprop(rank_me).
            if self.try_propose(now, step) {
                continue;
            }
            // Clause (c): support (echo + share / disqualify).
            if self.try_support(now, step) {
                continue;
            }
            break;
        }
        self.forward_to_current(now, step);
        self.look_ahead(step);
        self.run_finalization(now, step);
        step.next_wakeup = self.next_wakeup(now);
    }

    /// Fig. 1 preamble: wait for `t + 1` beacon shares, compute the
    /// beacon, derive ranks, and pipeline the next round's share.
    fn enter_round(&mut self, now: SimTime, step: &mut Step) -> bool {
        // Ablated pipelining: contribute our share for the *current*
        // round's beacon only now (adding a share-exchange δ per round).
        if self.disable_beacon_pipelining
            && self.beacon_share_sent_upto < self.round
            && self.behavior.shares_beacon()
            && self.keys.beacon_signer_for(self.round).is_some()
        {
            if let Some(prev) = self.round.prev().and_then(|p| self.pool.beacon(p)).copied() {
                self.beacon_share_sent_upto = self.round;
                let share = artifacts::beacon_share(&self.keys, self.round, &prev);
                self.emit(ConsensusMessage::BeaconShare(share), step);
            }
        }
        if self.pool.beacon(self.round).is_none() {
            self.pool.try_compute_beacon(self.round);
        }
        let Some(beacon) = self.pool.beacon(self.round).copied() else {
            return false;
        };
        // WAL: the beacon chain must survive a crash — restored rounds
        // re-derive their permutations from it, and catch-up segments
        // chain from its tip.
        self.store.append_beacon(self.round, beacon);
        if self.round == Round::new(1) {
            // No earlier round's end vouches for this one: the step
            // waits for the beacon record, so that a restart inside
            // round 1 finds a journal and not what looks like a first
            // boot.
            self.store.promise();
        }
        // Aggregator-routed mode: flood the combined value (unique, so
        // self-certifying) once per round. Nodes that never saw `t + 1`
        // shares verify one group signature and move on.
        if self.broadcast_beacon_values
            && self.beacon_value_sent_upto < self.round
            && self.behavior.shares_beacon()
        {
            self.beacon_value_sent_upto = self.round;
            step.broadcasts.push(ConsensusMessage::Beacon(Beacon {
                round: self.round,
                value: beacon,
            }));
        }
        // Ranks are drawn over the *round's epoch members* only: a
        // departed (or not-yet-joined) party observes the round without
        // a rank, so it can never lead, propose, or sign.
        let (perm, my_rank, epoch_index, at_boundary) = {
            let epoch = self.keys.setup.epoch_of(self.round);
            let perm = match self.next_perm.take() {
                Some((round, perm)) if round == self.round => perm,
                _ => RankPermutation::derive_members(&beacon, &epoch.members),
            };
            let my_rank = perm.try_rank_of(self.keys.index.get()).map(Rank::new);
            let at_boundary = epoch.index > 0 && epoch.start_round == self.round;
            (perm, my_rank, epoch.index, at_boundary)
        };
        let leader = perm.leader();
        step.events.push(NodeEvent::EnteredRound {
            round: self.round,
            my_rank,
            leader: icc_types::NodeIndex::new(leader),
        });
        let round = self.round;
        self.record_span(now, round, SpanKind::BeaconShareQuorum);
        self.record_span(
            now,
            round,
            SpanKind::RoundStart {
                rank: my_rank.map_or(u32::MAX, Rank::get),
                leader,
            },
        );
        if at_boundary {
            // The membership/reshare schedule activates here: from this
            // round on, the new epoch's signer set governs.
            self.record_span(now, round, SpanKind::EpochTransition { epoch: epoch_index });
            step.events.push(NodeEvent::EpochEntered {
                round,
                epoch: epoch_index,
            });
        }
        self.telemetry.metrics.rounds_entered.inc();
        self.entered_at.insert(round.get(), now);
        self.rstate = Some(RoundState::new(now, perm, my_rank));

        // Pipelining: broadcast our share of the *next* round's beacon.
        let next = self.round.next();
        if !self.disable_beacon_pipelining
            && self.beacon_share_sent_upto < next
            && self.behavior.shares_beacon()
            && self.keys.beacon_signer_for(next).is_some()
        {
            self.beacon_share_sent_upto = next;
            let share = artifacts::beacon_share(&self.keys, next, &beacon);
            self.emit(ConsensusMessage::BeaconShare(share), step);
        }
        true
    }

    /// Clause (a): a notarized round-k block (or a completable share
    /// set) ends the round.
    fn try_finish_round(&mut self, now: SimTime, step: &mut Step) -> bool {
        let notarization = if let Some((_, n)) = self.pool.notarized_block(self.round) {
            n.clone()
        } else if let Some(n) = self.pool.completable_notarization(self.round) {
            // Combined from shares this party already validated: trusted.
            self.pool
                .insert_owned(&ConsensusMessage::Notarization(n.clone()));
            n
        } else {
            return false;
        };
        let block_ref = notarization.block_ref;
        // WAL: the round's notarized block (body + certificate) is what
        // replay rebuilds the validated chain from.
        if let Some(b) = self.pool.certified_block(&block_ref.hash) {
            self.store
                .append_block(b.proposal, Some(notarization.clone()));
        }
        // This party is done with the round: no further notarization
        // share of it, which is what a finalization share promises and
        // what its votes in the next round take for granted. The step
        // waits for the journal to say so — a restart then resumes past
        // this round.
        self.store.promise();
        if self
            .notarizations_broadcast
            .insert((block_ref.round, block_ref.hash))
        {
            self.emit(ConsensusMessage::Notarization(notarization), step);
        }
        let round = self.round;
        let resumed_here = self.resumed_in == Some(round);
        // `progress` runs the clauses only in a round.
        let Some(rs) = self.rstate.as_mut() else {
            return false;
        };
        rs.done = true;
        let duration = now.saturating_since(rs.t0);
        let notarized_rank = Rank::new(rs.perm.rank_of(block_ref.proposer.get()));
        // "if N ⊆ {B} then broadcast a finalization share for B" — in
        // the round a restart resumed in, `N` is what this incarnation
        // shared; what the last one did is not known.
        let n_subset = rs.n_set.values().all(|h| *h == block_ref.hash) && !resumed_here;
        let i_am_member = rs.my_rank.is_some();
        self.record_span(
            now,
            round,
            SpanKind::Notarized {
                rank: notarized_rank.get(),
            },
        );
        self.telemetry
            .metrics
            .round_duration_us
            .observe(duration.as_micros());
        step.events.push(NodeEvent::RoundFinished {
            round: self.round,
            duration,
            notarized_rank,
        });
        self.delays
            .observe_round(duration, notarized_rank.is_leader());
        if n_subset && i_am_member && self.behavior.shares_finalization() {
            let fs = artifacts::finalization_share(&self.keys, block_ref);
            self.emit(ConsensusMessage::FinalizationShare(fs), step);
        }
        true
    }

    /// Clause (b): propose a block once `Δprop(rank_me)` has elapsed.
    fn try_propose(&mut self, now: SimTime, step: &mut Step) -> bool {
        let Some(rs) = self.rstate.as_mut() else {
            return false;
        };
        // A non-member of the round's epoch has no rank: it never
        // proposes.
        let Some(my_rank) = rs.my_rank else {
            return false;
        };
        if rs.proposed || now < rs.t0 + self.delays.prop(my_rank) {
            return false;
        }
        rs.proposed = true;

        // Choose a notarized round-(k−1) block to extend.
        let (parent, parent_notarization) = if self.round == Round::new(1) {
            (self.keys.setup.genesis.clone(), None)
        } else {
            let notarized = self.round.prev().and_then(|p| self.pool.notarized_block(p));
            let Some((b, n)) = notarized else {
                // Unreachable for honest flow: the previous round only
                // ends with a notarized block in the pool.
                return false;
            };
            (b.clone(), Some(n.clone()))
        };

        let round = self.round;
        self.record_span(now, round, SpanKind::Proposed);
        self.telemetry.metrics.blocks_proposed.inc();
        if self.behavior.equivocates() {
            self.propose_equivocating(parent, parent_notarization, step);
            return true;
        }
        let payload = if self.behavior.proposes_empty() {
            Payload::empty()
        } else {
            self.build_payload(&parent)
        };
        let block = Block::new(self.round, self.keys.index, parent.hash(), payload).into_hashed();
        step.events.push(NodeEvent::Proposed {
            round: self.round,
            hash: block.hash(),
        });
        let proposal = artifacts::proposal(&self.keys, block, parent_notarization.clone());
        self.emit(ConsensusMessage::Proposal(proposal), step);

        true
    }

    /// The equivocating variant of clause (b): build two conflicting
    /// blocks and send each to half of the parties, maximizing the
    /// split (the attack the disqualification set `D` defends against).
    fn propose_equivocating(
        &mut self,
        parent: HashedBlock,
        parent_notarization: Option<icc_types::messages::Notarization>,
        step: &mut Step,
    ) {
        let mk_block = |tag: u8, round: Round, me: icc_types::NodeIndex, parent: &HashedBlock| {
            let marker = Command::new(
                hash_parts("equivocation", &[&round.get().to_le_bytes(), &[tag]])
                    .as_bytes()
                    .to_vec(),
            );
            Block::new(
                round,
                me,
                parent.hash(),
                Payload::from_commands(vec![marker]),
            )
            .into_hashed()
        };
        let b1 = mk_block(1, self.round, self.keys.index, &parent);
        let b2 = mk_block(2, self.round, self.keys.index, &parent);
        step.events.push(NodeEvent::Proposed {
            round: self.round,
            hash: b1.hash(),
        });
        let p1 = ConsensusMessage::Proposal(artifacts::proposal(
            &self.keys,
            b1,
            parent_notarization.clone(),
        ));
        let p2 =
            ConsensusMessage::Proposal(artifacts::proposal(&self.keys, b2, parent_notarization));
        self.pool.insert_owned(&p1);
        self.pool.insert_owned(&p2);
        let n = self.keys.setup.config.n();
        for i in 0..n as u32 {
            let to = icc_types::NodeIndex::new(i);
            let msg = if i % 2 == 0 { p1.clone() } else { p2.clone() };
            if to != self.keys.index {
                step.sends.push((to, msg));
            }
        }
    }

    /// Clause (c): support the best eligible block — echo it, then
    /// either broadcast a notarization share or disqualify its rank.
    fn try_support(&mut self, now: SimTime, step: &mut Step) -> bool {
        let (candidate, first_seen_rank) = {
            let Some(rs) = self.rstate.as_ref() else {
                return false;
            };
            // Valid blocks of this round, ranked, rank not disqualified.
            let mut ranked: Vec<(u32, HashedBlock)> = self
                .pool
                .valid_blocks(self.round)
                .into_iter()
                .map(|b| (rs.perm.rank_of(b.proposer().get()), b.clone()))
                .filter(|(r, _)| !rs.d_set.contains(r))
                .collect();
            // Guard (iv): only blocks of the *minimum* eligible rank may
            // be supported; any lower-ranked valid block blocks higher
            // ranks regardless of timers.
            let Some(&(min_rank, _)) = ranked.iter().min_by_key(|(r, _)| *r) else {
                return false;
            };
            // Flight recorder: note the first moment a valid proposal
            // for this round is visible — even if its `Δntry` timer has
            // not yet expired (the critical-path analyzer separates
            // "waiting for a proposal" from "waiting for the timer").
            let first_seen = if rs.proposal_seen {
                None
            } else {
                Some(min_rank)
            };
            ranked.retain(|(r, b)| {
                *r == min_rank
                    && rs.n_set.get(r) != Some(&b.hash())
                    && now >= rs.t0 + self.delays.ntry(Rank::new(*r))
            });
            // Deterministic pick among same-rank candidates.
            ranked.sort_by_key(|(_, b)| b.hash());
            (ranked.into_iter().next(), first_seen)
        };
        if let Some(rank) = first_seen_rank {
            if let Some(rs) = self.rstate.as_mut() {
                rs.proposal_seen = true;
            }
            let round = self.round;
            self.record_span(now, round, SpanKind::ProposalSeen { rank });
        }
        let Some((rank, block)) = candidate else {
            return false;
        };
        let block_ref = BlockRef::of_hashed(&block);

        // Echo (re-broadcast) other parties' blocks so every honest
        // party gets a chance to see them and disqualify equivocators.
        let Some(rs) = self.rstate.as_mut() else {
            return false;
        };
        let should_echo = Some(rank) != rs.my_rank.map(Rank::get) && rs.echoed.insert(block.hash());
        let already_shared_this_rank = rs.n_set.contains_key(&rank);
        let i_am_member = rs.my_rank.is_some();
        if already_shared_this_rank {
            rs.d_set.insert(rank);
        } else {
            rs.n_set.insert(rank, block.hash());
        }
        if should_echo {
            // A valid block has its authenticator and a notarized parent.
            if let Some(proposal) = self.pool.proposal_of(&block.hash()) {
                step.broadcasts.push(ConsensusMessage::Proposal(proposal));
            }
        }
        if !already_shared_this_rank && i_am_member && self.behavior.shares_notarization() {
            let share = artifacts::notarization_share(&self.keys, block_ref);
            self.emit(ConsensusMessage::NotarizationShare(share), step);
        }
        true
    }

    /// Fig. 2: combine/broadcast finalizations and output committed
    /// payloads, advancing `kmax`.
    fn run_finalization(&mut self, now: SimTime, step: &mut Step) {
        loop {
            // Case (ii): a completable share set.
            if let Some(f) = self.pool.completable_finalization(self.kmax) {
                // Combined from shares this party already validated.
                self.pool
                    .insert_owned(&ConsensusMessage::Finalization(f.clone()));
                let id = (f.block_ref.round, f.block_ref.hash);
                if self.finalizations_broadcast.insert(id) {
                    step.broadcasts.push(ConsensusMessage::Finalization(f));
                }
                continue;
            }
            // Case (i): a finalized block with round > kmax.
            let tip = self.pool.finalized_above(self.kmax);
            let Some(tip) = tip.and_then(|b| self.pool.certified_block(&b.hash())) else {
                break;
            };
            let Some(finalization) = tip.finalization.cloned() else {
                break;
            };
            let block = tip.proposal.block;
            if self
                .finalizations_broadcast
                .insert((block.round(), block.hash()))
            {
                step.broadcasts
                    .push(ConsensusMessage::Finalization(finalization.clone()));
            }
            // WAL: the finalized chain bodies (the finalized branch is
            // what replay must rebuild; the branch logged in
            // `try_finish_round` may differ) and their committed
            // digests, then the certificate — last, so that a journal
            // cut anywhere holds `Finalization(k)` only with every
            // `Committed` up to `k`: restore takes `kmax` from the one
            // and the input dedup set from the others.
            // A finalized block has a complete chain in the pool.
            let Some(chain) = self.pool.chain_back_to(&block, self.kmax) else {
                break;
            };
            for b in chain {
                if let Some(held) = self.pool.certified_block(&b.hash()) {
                    self.store
                        .append_block(held.proposal, held.notarization.cloned());
                }
                let n_digests = self.record_committed(&b);
                let committed_round = b.round();
                self.record_span(now, committed_round, SpanKind::Finalized);
                self.telemetry.metrics.blocks_committed.inc();
                self.telemetry.metrics.commands_committed.add(n_digests);
                if let Some(t0) = self.entered_at.remove(&committed_round.get()) {
                    self.telemetry
                        .metrics
                        .finalization_latency_us
                        .observe(now.saturating_since(t0).as_micros());
                }
                step.events.push(NodeEvent::Committed { block: b });
            }
            self.store.append_finalization(finalization);
            self.kmax = block.round();
            // Rounds at or below the committed tip will never produce a
            // fresh latency sample (their entries were consumed above,
            // or the round was skipped over by a certificate).
            self.entered_at.retain(|r, _| *r > self.kmax.get());
            self.maybe_archive_transitions();
            self.maybe_checkpoint();
            self.purge();
        }
    }

    /// Records the commands of the committed `block`: in the dedup set,
    /// out of the command pool, in the journal. Returns how many.
    fn record_committed(&mut self, block: &HashedBlock) -> u64 {
        let commands = block.block().payload().commands();
        let digests: Vec<Hash256> = commands.iter().map(command_hash).collect();
        for d in &digests {
            self.committed_cmds.insert(*d);
            self.commands.remove(d);
        }
        let n = digests.len() as u64;
        self.store.append_committed(block.round(), digests);
        n
    }

    /// Forgets what lies more than the policy's purge depth below the
    /// committed tip: the pool first, then this layer's own per-block
    /// memory at the floor the pool reports.
    fn purge(&mut self) {
        let Some(depth) = self.policy.purge_depth else {
            return;
        };
        self.pool
            .purge_below(Round::new(self.kmax.get().saturating_sub(depth)));
        let floor = (self.pool.floor(), Hash256::ZERO);
        self.notarizations_broadcast = self.notarizations_broadcast.split_off(&floor);
        self.finalizations_broadcast = self.finalizations_broadcast.split_off(&floor);
    }

    /// What this replica holds per layer — the pool's collections, the
    /// two broadcast sets, the commands not yet committed and the
    /// durable store's dedup sets — for the admin plane and the
    /// bounded-memory tests. Every entry is bounded by the rounds
    /// between the floor and the tip, the commands by what clients
    /// submit plus the peer-command bound.
    pub fn footprint(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.pool.footprint();
        let notarizations = self.notarizations_broadcast.len() as u64;
        let finalizations = self.finalizations_broadcast.len() as u64;
        out.push(("core_notarizations_broadcast", notarizations));
        out.push(("core_finalizations_broadcast", finalizations));
        out.push(("core_pending_commands", self.commands.len() as u64));
        out.extend(self.store.footprint());
        out
    }

    /// Archives the handoff certificate of every epoch boundary the
    /// finalized chain has crossed: the highest finalized block of the
    /// *outgoing* epoch, with its notarization + finalization. Retried
    /// on every commit until the certificate pair is pooled, so a
    /// boundary crossed while a certificate raced ahead is picked up
    /// later. These archives are what
    /// [`build_catch_up_package`](Self::build_catch_up_package) chains
    /// into cross-epoch packages.
    fn maybe_archive_transitions(&mut self) {
        let setup = Arc::clone(&self.keys.setup);
        for e in 1..setup.epoch_count() as u64 {
            let (Some(info), Some(outgoing)) = (setup.epoch(e), setup.epoch(e - 1)) else {
                break;
            };
            if info.start_round > self.kmax {
                break;
            }
            if self.transition_certs.contains_key(&e) {
                continue;
            }
            let out_start = outgoing.start_round;
            let Some(block) = self.pool.finalized_below(info.start_round) else {
                continue;
            };
            // The handoff block must belong to the outgoing epoch.
            if block.round() < out_start {
                continue;
            }
            let held = self.pool.certified_block(&block.hash());
            let Some((notarization, finalization)) =
                held.and_then(|b| b.notarization.zip(b.finalization))
            else {
                continue;
            };
            let t = EpochTransition {
                epoch: e,
                notarization: notarization.clone(),
                finalization: finalization.clone(),
            };
            self.store.append_epoch_transition(t.clone());
            self.transition_certs.insert(e, t);
            self.recovery.epoch_transitions += 1;
        }
    }

    /// Takes a checkpoint (and compacts the WAL) once enough rounds
    /// have committed since the last one. Skipped — and retried at the
    /// next commit — if any certificate for the latest finalized block
    /// is not yet pooled (e.g. a finalization that raced ahead of the
    /// notarization). Runs after `record_committed` has journalled the
    /// digests of every block up to the tip, so the checkpoint moves
    /// them all to the store's history.
    fn maybe_checkpoint(&mut self) {
        let base = self
            .store
            .checkpoint()
            .map_or(Round::GENESIS, Checkpoint::round);
        if self.kmax.get().saturating_sub(base.get()) < self.checkpoint_interval {
            return;
        }
        let tip = self.pool.latest_finalized_block();
        let Some(tip) = tip.and_then(|b| self.pool.certified_block(&b.hash())) else {
            return;
        };
        let (Some(notarization), Some(finalization), Some(beacon)) = (
            tip.notarization.cloned(),
            tip.finalization.cloned(),
            self.pool.beacon(tip.proposal.block.round()).copied(),
        ) else {
            return;
        };
        self.store.install_checkpoint(Checkpoint {
            proposal: tip.proposal,
            notarization,
            finalization,
            beacon,
            transitions: self.transition_certs.values().cloned().collect(),
        });
    }

    /// `getPayload(Bp)` (§3.5): pending commands not already in the
    /// chain ending at `parent`, within the block policy limits.
    fn build_payload(&self, parent: &HashedBlock) -> Payload {
        let excluded = self.chain_commands(parent);
        let mut commands = Vec::new();
        let mut bytes = 0usize;
        for (cmd, h) in self.commands.proposable() {
            if commands.len() >= self.policy.max_commands
                || bytes + cmd.len() > self.policy.max_bytes
            {
                break;
            }
            if self.committed_cmds.contains(h) || excluded.contains(h) {
                continue;
            }
            bytes += cmd.len();
            commands.push(cmd.clone());
        }
        Payload::from_commands(commands)
    }

    /// The digests of the commands in the chain ending at `tip`, above
    /// the committed tip: what is in it, the committed set is not yet.
    fn chain_commands(&self, tip: &HashedBlock) -> HashSet<Hash256> {
        let chain = self.pool.chain_back_to(tip, self.kmax).unwrap_or_default();
        let commands = chain.iter().flat_map(|b| b.block().payload().commands());
        commands.map(command_hash).collect()
    }

    /// [`chain_commands`](Self::chain_commands) of a notarized block of
    /// the previous round: a command in it is not sent to a leader (the
    /// exactly-once argument, DESIGN.md §5l).
    fn notarized_chain_commands(&self) -> HashSet<Hash256> {
        let tip = self.round.prev().and_then(|p| self.pool.notarized_block(p));
        tip.map_or_else(HashSet::new, |(tip, _)| self.chain_commands(tip))
    }

    /// The forwarding pass to the round's own leader, once, on entering
    /// the round while that leader's window is open: sends the client
    /// commands held, never sent or sent for a round that ended without
    /// them (`ingress` module). With `ε = 0` the window is never open.
    fn forward_to_current(&mut self, now: SimTime, step: &mut Step) {
        let Some((round, to)) = self.current_target(now) else {
            return;
        };
        let Some(rs) = self.rstate.as_mut().filter(|rs| !rs.forwarded) else {
            return;
        };
        rs.forwarded = true;
        self.send_due(round, &to, step);
    }

    /// Runs once the round after this one has a known beacon — combining
    /// it here as soon as `t + 1` shares are held, instead of on entering
    /// that round — and derives its rank permutation, once; then sends
    /// this replica's client commands that are due to its leader
    /// (`ingress` module).
    fn look_ahead(&mut self, step: &mut Step) {
        let next = self.round.next();
        if self.rstate.is_none() || self.next_perm.as_ref().is_some_and(|(r, _)| *r == next) {
            return;
        }
        if self.pool.beacon(next).is_none() {
            // Only at the threshold: below it no combine can succeed,
            // and each attempt re-examines the shares already checked.
            let need = self.keys.setup.epoch_of(next).beacon_threshold();
            if self.pool.beacon_share_count(next) < need {
                return;
            }
            self.pool.try_compute_beacon(next);
        }
        let Some(beacon) = self.pool.beacon(next).copied() else {
            return;
        };
        let members = &self.keys.setup.epoch_of(next).members;
        let perm = RankPermutation::derive_members(&beacon, members);
        let to = self.recipients(&perm);
        self.next_perm = Some((next, perm));
        self.send_due(next, &to, step);
    }

    /// Sends the parties `to` of `target` — the current round or the
    /// next — the client commands due to them (`CommandPool::due_for`).
    fn send_due(&mut self, target: Round, to: &[NodeIndex], step: &mut Step) {
        if self.commands.len() == 0 {
            return;
        }
        let in_chain = self.notarized_chain_commands();
        let (current, policy) = (self.round, &self.policy);
        let commands = self
            .commands
            .due_for(target, current, to.len(), &in_chain, policy);
        if !commands.is_empty() {
            send_batch(step, target, to, commands);
        }
    }

    /// The earliest future instant any time-gated clause could fire.
    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        let rs = self.rstate.as_ref()?;
        if rs.done {
            return None;
        }
        let mut wake: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            if t > now {
                wake = Some(wake.map_or(t, |w: SimTime| w.min(t)));
            }
        };
        if let (false, Some(my_rank)) = (rs.proposed, rs.my_rank) {
            consider(rs.t0 + self.delays.prop(my_rank));
        }
        for b in self.pool.valid_blocks(self.round) {
            let r = rs.perm.rank_of(b.proposer().get());
            if rs.d_set.contains(&r) || rs.n_set.get(&r) == Some(&b.hash()) {
                continue;
            }
            consider(rs.t0 + self.delays.ntry(Rank::new(r)));
        }
        wake
    }
}
