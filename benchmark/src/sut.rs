//! The adapter to the system under test — **the only file of the
//! benchmark that names a workspace crate**. Every call into `icc-*`
//! lives here and is listed in `benchmark/README.md` ("API surface"):
//! a refactor that keeps these entry points keeps the benchmark; one
//! that changes them changes this file in a benchmark-only PR.
//!
//! The rest of the harness sees plain data: [`Cmd`] (opaque command),
//! [`Event`] (a node output, translated), [`Counters`] (name → value)
//! and [`ReplicaReport`].
//!
//! The traced run (`--trace 1`) measures each layer from outside, with
//! wrappers defined here round the seams the workspace exposes:
//! [`TracedNode`] (the `Node` trait, round `GossipNode`),
//! [`TracedTransport`] (the `Transport` trait, round `TcpTransport`),
//! [`TracedBackend`] (the `StorageBackend` trait, round `FileBackend`),
//! [`ModelFs`] (the `SegmentFs`/`SegmentFile` traits) and [`Machine`]
//! (the `StateMachine` trait). With `--trace 0` none of the first three
//! exists: the workspace types run bare.

use crate::trace::{TraceData, Tracer};
use icc_core::byzantine::Behavior;
use icc_core::cluster::{Cluster, ClusterBuilder, CoreAccess};
use icc_core::consensus::ConsensusCore;
use icc_core::delays::StaticDelays;
use icc_core::events::NodeEvent;
use icc_core::keys::{generate_keys, NodeKeys};
use icc_core::replica::{KvStore, Ledger, Replica, StateMachine};
use icc_core::storage::{Checkpoint, DurableStore, FileBackend, StorageBackend, WalEntry};
use icc_crypto::beacon::beacon_sign_message;
use icc_crypto::{sha256, Hash256};
use icc_gossip::{subnet_overlay_seed, GossipConfig, GossipMessage, GossipNode, Overlay};
use icc_net::{ClusterSpec, NetCounters, NetHandle, NetOptions, TcpTransport};
use icc_sim::delay::UniformDelay;
use icc_sim::engine::OutputRecord;
use icc_sim::policy::SlowLinks;
use icc_sim::runtime::drive;
use icc_sim::{Context, FaultPlan, Node, RecvError, Transport, TransportEvent};
use icc_types::codec::{decode_from_slice, encode_to_vec};
use icc_types::frame::encode_frame;
use icc_types::messages::{domains, BlockRef};
use icc_types::{Command, NodeIndex, SimDuration, SimTime, SubnetConfig};
use icc_wal::{FsyncPolicy, SegmentFile, SegmentFs, WalOptions};
use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::{self, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Plain data handed to the rest of the harness
// ---------------------------------------------------------------------

/// A client command, opaque outside this file.
pub type Cmd = Command;

/// A node output, translated out of the workspace's `NodeEvent`.
#[derive(Debug, Clone)]
pub enum Ev {
    /// The node computed the beacon and entered `round`.
    Entered { round: u64 },
    /// The node finished `round` on a notarized block.
    Finished { leader_won: bool },
    /// A block joined the node's committed chain. `ids` are the
    /// generator's command ids found in the payload (foreign commands,
    /// e.g. an equivocator's markers, carry none).
    Committed {
        round: u64,
        hash: [u8; 32],
        ids: Vec<u64>,
    },
    /// The node applied a certified catch-up package: its committed tip
    /// jumped from round `from` to round `to`. The rounds strictly
    /// between are never emitted as `Committed` (state sync covers
    /// them); the package block of `to` follows as a `Committed`.
    CaughtUp { from: u64, to: u64 },
}

/// One translated output, stamped by the runtime that emitted it
/// (microseconds since the cluster's start: wall clock on TCP, the
/// simulated clock in the simulator).
#[derive(Debug, Clone)]
pub struct Event {
    pub at_us: u64,
    pub node: u32,
    pub ev: Ev,
}

/// Counter snapshot of the layers behind one replica, read through the
/// workspace's public accessors (`PoolStats`, `GossipCounters`,
/// `StorageCounters`, `RecoveryStats`, `CoreMetrics`).
#[derive(Debug, Clone, Default)]
pub struct Counters(pub BTreeMap<String, u64>);

impl Counters {
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.get(k))))
                .collect(),
        )
    }

    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    fn put(&mut self, prefix: &str, fields: Vec<(&'static str, u64)>) {
        for (name, v) in fields {
            self.0.insert(format!("{prefix}.{name}"), v);
        }
    }
}

/// Totals of a replica's token ledger, for the conservation check.
#[derive(Debug, Clone, Copy)]
pub struct LedgerTotals {
    pub supply: u64,
    pub minted: u64,
}

/// What one replica leaves behind when its run ends.
pub struct ReplicaReport {
    pub index: u32,
    pub state_digest: [u8; 32],
    pub ledger: Option<LedgerTotals>,
    pub applied_cmds: u64,
    pub committed_round: u64,
    /// Layer counters when the replica stopped.
    pub counters: Counters,
    /// Traced run only: layer counters when the measured window opened
    /// and closed, as seen by the first handler after each edge.
    pub window: Option<(Counters, Counters)>,
    pub trace: Option<TraceData>,
}

/// Which replicated state machine follows the committed commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    Ledger,
    Kv,
}

/// How a node deviates from the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    Crash,
    Equivocate,
    WithholdFinalization,
}

impl Fault {
    fn behavior(self) -> Behavior {
        match self {
            Fault::Crash => Behavior::Crash,
            Fault::Equivocate => Behavior::Equivocate,
            Fault::WithholdFinalization => Behavior::WithholdFinalization,
        }
    }
}

// ---------------------------------------------------------------------
// Commands: built with the workspace's public constructors
// ---------------------------------------------------------------------

/// Byte offset of the 16-hex-digit command id in a ledger transfer.
pub const LEDGER_ID_OFFSET: usize = 24;
/// Byte offset of the 16-hex-digit command id in a KV set.
pub const KV_ID_OFFSET: usize = 9;

/// `mint <account> <amount>` for funded account number `account`.
pub fn ledger_mint(account: u64, amount: u64) -> Cmd {
    Ledger::mint_command(&funded_account(account), amount)
}

fn funded_account(account: u64) -> String {
    format!("f{account:016x}")
}

/// A 64-byte `xfer` of one token from a funded account to a fresh
/// account named after the command id (so every command is unique and
/// none can overdraw).
pub fn ledger_transfer(from_account: u64, id: u64) -> Cmd {
    let to = format!("t{id:016x}{:022}", 0);
    let cmd = Ledger::transfer_command(&funded_account(from_account), &to, 1);
    debug_assert_eq!(cmd.len(), 64);
    cmd
}

/// `set k<slot> <value>`: the value starts with the command id and is
/// filled to `value_len` ASCII bytes from `fill`.
pub fn kv_set(slot: u64, id: u64, value_len: usize, mut fill: impl FnMut() -> u64) -> Cmd {
    let mut value = format!("{id:016x}");
    while value.len() < value_len {
        // 8 lowercase letters per draw.
        let mut x = fill();
        for _ in 0..8 {
            value.push((b'a' + (x % 26) as u8) as char);
            x /= 26;
        }
    }
    value.truncate(value_len);
    KvStore::set_command(&format!("k{:03}", slot % 1000), &value)
}

/// The generator's id of a command, if it carries one at `offset`.
fn command_id(cmd: &Command, offset: usize) -> Option<u64> {
    let hex = cmd.bytes().get(offset..offset + 16)?;
    u64::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
}

fn translate(rec: &OutputRecord<NodeEvent>, id_offset: usize) -> Option<Event> {
    let ev = match &rec.output {
        NodeEvent::EnteredRound { round, .. } => Ev::Entered { round: round.get() },
        NodeEvent::RoundFinished { notarized_rank, .. } => Ev::Finished {
            leader_won: notarized_rank.is_leader(),
        },
        NodeEvent::Committed { block } => Ev::Committed {
            round: block.round().get(),
            hash: block.hash().0,
            ids: block
                .block()
                .payload()
                .commands()
                .iter()
                .filter_map(|c| command_id(c, id_offset))
                .collect(),
        },
        // Catch-up counts are read from `RecoveryStats`; the event tells
        // the checker which rounds the node skipped.
        NodeEvent::CaughtUp {
            from_round,
            to_round,
        } => Ev::CaughtUp {
            from: from_round.get(),
            to: to_round.get(),
        },
        NodeEvent::EpochEntered { .. } | NodeEvent::Proposed { .. } => return None,
    };
    Some(Event {
        at_us: rec.at.as_micros(),
        node: rec.node.get(),
        ev,
    })
}

// ---------------------------------------------------------------------
// The state machine seam
// ---------------------------------------------------------------------

enum MachineState {
    Ledger(Ledger),
    Kv(KvStore),
}

/// The replicated state machine, with an optional span round `apply`.
pub struct Machine {
    state: MachineState,
    tracer: Option<Tracer>,
}

impl Machine {
    fn new(kind: MachineKind, tracer: Option<Tracer>) -> Machine {
        Machine {
            state: match kind {
                MachineKind::Ledger => MachineState::Ledger(Ledger::new()),
                MachineKind::Kv => MachineState::Kv(KvStore::new()),
            },
            tracer,
        }
    }

    fn ledger_totals(&self) -> Option<LedgerTotals> {
        match &self.state {
            MachineState::Ledger(l) => Some(LedgerTotals {
                supply: l.total_supply(),
                minted: l.total_minted(),
            }),
            MachineState::Kv(_) => None,
        }
    }
}

impl StateMachine for Machine {
    fn apply(&mut self, command: &Command) {
        if let Some(t) = &self.tracer {
            t.enter("replica.apply");
        }
        match &mut self.state {
            MachineState::Ledger(l) => l.apply(command),
            MachineState::Kv(k) => k.apply(command),
        }
        if let Some(t) = &self.tracer {
            t.exit();
        }
    }

    fn state_digest(&self) -> Hash256 {
        match &self.state {
            MachineState::Ledger(l) => l.state_digest(),
            MachineState::Kv(k) => k.state_digest(),
        }
    }
}

// ---------------------------------------------------------------------
// The storage seams: SegmentFs model and StorageBackend wrapper
// ---------------------------------------------------------------------

/// The benchmark-owned segment filesystem. Writes go to a real file in
/// the run's data directory; `sync` does **not** call the kernel but
/// sleeps a stated `sync_cost` — the disk analogue of an injected
/// network delay. A real fsync on this box costs 20 µs on tmpfs and
/// 600 µs on the virtual disk, neither of which says anything about a
/// deployment's device.
pub struct ModelFs {
    pub sync_cost: Duration,
    pub tracer: Option<Tracer>,
}

struct ModelFile {
    file: std::fs::File,
    sync_cost: Duration,
    tracer: Option<Tracer>,
}

impl SegmentFs for ModelFs {
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn SegmentFile>> {
        Ok(Box::new(ModelFile {
            file: std::fs::File::create(path)?,
            sync_cost: self.sync_cost,
            tracer: self.tracer.clone(),
        }))
    }
}

impl Write for ModelFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(t) = &self.tracer {
            t.enter("wal.write");
            t.count("wal.bytes", buf.len() as u64);
        }
        let r = self.file.write(buf);
        if let Some(t) = &self.tracer {
            t.exit();
        }
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl SegmentFile for ModelFile {
    fn sync(&mut self) -> io::Result<()> {
        if let Some(t) = &self.tracer {
            t.enter("wal.sync");
        }
        std::thread::sleep(self.sync_cost);
        if let Some(t) = &self.tracer {
            t.exit();
        }
        Ok(())
    }
}

/// Spans round the `StorageBackend` calls of a `FileBackend`.
struct TracedBackend {
    inner: FileBackend,
    tracer: Tracer,
}

impl StorageBackend for TracedBackend {
    fn load(&mut self) -> (Option<Checkpoint>, Vec<WalEntry>) {
        self.inner.load()
    }

    fn persist_entry(&mut self, entry: &WalEntry) {
        self.tracer.enter("storage.persist");
        self.inner.persist_entry(entry);
        self.tracer.exit();
    }

    fn persist_checkpoint(&mut self, cp: &Checkpoint) {
        self.tracer.enter("storage.checkpoint");
        self.inner.persist_checkpoint(cp);
        self.tracer.exit();
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn counters(&self) -> icc_wal::StorageCounters {
        self.inner.counters()
    }
}

fn wal_options() -> WalOptions {
    WalOptions {
        fsync: FsyncPolicy::PerCommit,
        ..WalOptions::default()
    }
}

fn file_store(dir: &Path, sync_cost: Duration, tracer: Option<Tracer>) -> io::Result<DurableStore> {
    let fs = Box::new(ModelFs {
        sync_cost,
        tracer: tracer.clone(),
    });
    let backend = FileBackend::open_with_fs(dir, wal_options(), fs)?;
    Ok(match tracer {
        Some(tracer) => DurableStore::with_backend(Box::new(TracedBackend {
            inner: backend,
            tracer,
        })),
        None => DurableStore::with_backend(Box::new(backend)),
    })
}

// ---------------------------------------------------------------------
// The Node seam
// ---------------------------------------------------------------------

/// Messages sampled from the run for the codec micro-probes, by kind
/// (the `msg.*` names the handler counts use), so that probe costs can
/// be weighted by the run's real traffic mix.
#[derive(Default)]
pub struct Captured {
    by_kind: BTreeMap<&'static str, Vec<GossipMessage>>,
}

const CAPTURE_PER_KIND: usize = 48;

/// State the traced wrappers of one run share.
#[derive(Default)]
pub struct TraceShared {
    captured: Mutex<Captured>,
    /// `(requester, block id)` pairs already asked for: a repeat is a
    /// gossip retry.
    requested: Mutex<HashSet<(u32, [u8; 32])>>,
}

/// Spans round the four `Node` handlers of a `GossipNode`, counters at
/// the same boundary, and layer-counter snapshots at the window edges.
pub struct TracedNode {
    inner: GossipNode,
    tracer: Tracer,
    shared: Arc<TraceShared>,
    window_was_open: bool,
    at_open: Option<Counters>,
    at_close: Option<Counters>,
}

fn layer_counters(node: &GossipNode) -> Counters {
    let core = node.core();
    let mut c = Counters::default();
    c.put("pool", core.pool().stats().fields());
    c.put("gossip", node.gossip_counters().fields());
    c.put("storage", core.storage_counters().fields());
    c.put("recovery", core.recovery_stats().fields());
    let m = &core.telemetry().metrics;
    c.put(
        "core",
        vec![
            ("rounds_entered", m.rounds_entered.get()),
            ("blocks_proposed", m.blocks_proposed.get()),
            ("blocks_committed", m.blocks_committed.get()),
            ("commands_committed", m.commands_committed.get()),
            ("committed_round", core.committed_round().get()),
        ],
    );
    c
}

impl TracedNode {
    fn new(inner: GossipNode, tracer: Tracer, shared: Arc<TraceShared>) -> TracedNode {
        TracedNode {
            inner,
            tracer,
            shared,
            window_was_open: false,
            at_open: None,
            at_close: None,
        }
    }

    /// Runs before every handler: snapshots the layer counters at the
    /// window edges and tags the coming spans with the current round.
    fn before(&mut self) {
        let open = self.tracer.is_open();
        if open != self.window_was_open {
            self.window_was_open = open;
            let snap = layer_counters(&self.inner);
            if open {
                self.at_open = Some(snap);
            } else {
                self.at_close = Some(snap);
            }
        }
        self.tracer
            .set_round(self.inner.core().current_round().get());
    }

    fn observe_message(&mut self, from: NodeIndex, msg: &GossipMessage) {
        if !self.tracer.is_open() {
            return;
        }
        let kind: &'static str = match msg {
            GossipMessage::Push { .. } => "msg.push",
            GossipMessage::Advert { .. } => "msg.advert",
            GossipMessage::Request { id } => {
                let mut seen = self.shared.requested.lock().expect("requested set");
                if !seen.insert((from.get(), id.0)) {
                    self.tracer.count("msg.request_retry", 1);
                }
                "msg.request"
            }
            GossipMessage::Deliver { .. } => "msg.deliver",
            GossipMessage::CatchUpRequest { .. } => "msg.catch_up_request",
            GossipMessage::CatchUpResponse { .. } => "msg.catch_up_response",
        };
        self.tracer.count(kind, 1);
        let mut cap = self.shared.captured.lock().expect("capture buffer");
        let sample = cap.by_kind.entry(kind).or_default();
        if sample.len() < CAPTURE_PER_KIND {
            sample.push(msg.clone());
        }
    }

    fn window(&self) -> Option<(Counters, Counters)> {
        let open = self.at_open.clone()?;
        let close = self
            .at_close
            .clone()
            .unwrap_or_else(|| layer_counters(&self.inner));
        Some((open, close))
    }
}

impl Node for TracedNode {
    type Msg = GossipMessage;
    type External = Command;
    type Output = NodeEvent;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.before();
        self.tracer.enter("node.on_start");
        self.inner.on_start(ctx);
        self.tracer.exit();
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        from: NodeIndex,
        msg: Self::Msg,
    ) {
        self.before();
        self.observe_message(from, &msg);
        self.tracer.enter("node.on_message");
        self.inner.on_message(ctx, from, msg);
        self.tracer.exit();
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, tag: u64) {
        self.before();
        self.tracer.count("rt.timer_fire", 1);
        self.tracer.enter("node.on_timer");
        self.inner.on_timer(ctx, tag);
        self.tracer.exit();
    }

    fn on_external(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, input: Command) {
        self.before();
        self.tracer.enter("node.on_external");
        self.inner.on_external(ctx, input);
        self.tracer.exit();
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.before();
        self.tracer.enter("node.on_restart");
        self.inner.on_restart(ctx);
        self.tracer.exit();
    }

    fn on_peer_departed(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        peer: NodeIndex,
    ) {
        self.inner.on_peer_departed(ctx, peer);
    }
}

impl CoreAccess for TracedNode {
    fn core(&self) -> &ConsensusCore {
        self.inner.core()
    }

    fn gossip_counters(&self) -> Option<icc_sim::GossipCounters> {
        Some(self.inner.gossip_counters())
    }
}

// ---------------------------------------------------------------------
// The Transport seam
// ---------------------------------------------------------------------

/// Spans round `send`/`broadcast`, and the wait and wake-up lateness of
/// `recv`, of a `TcpTransport`.
struct TracedTransport {
    inner: TcpTransport<GossipMessage, Command>,
    tracer: Tracer,
}

impl Transport for TracedTransport {
    type Msg = GossipMessage;
    type External = Command;

    fn me(&self) -> NodeIndex {
        self.inner.me()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send(&mut self, to: NodeIndex, msg: GossipMessage) {
        self.tracer.enter("net.send");
        self.inner.send(to, msg);
        self.tracer.exit();
    }

    fn broadcast(&mut self, msg: GossipMessage) {
        self.tracer.enter("net.broadcast");
        self.inner.broadcast(msg);
        self.tracer.exit();
    }

    fn recv(
        &mut self,
        timeout: Duration,
    ) -> Result<TransportEvent<GossipMessage, Command>, RecvError> {
        let asked = Instant::now();
        let r = self.inner.recv(timeout);
        let waited = asked.elapsed();
        self.tracer
            .observe("rt.recv_wait", waited.as_nanos() as u64);
        match &r {
            Ok(_) => self.tracer.count("rt.event", 1),
            // A timed-out wait is the driver sleeping until its next
            // timer: how far past the requested deadline it woke is the
            // runtime's wake-up lateness.
            Err(RecvError::Timeout) => self.tracer.observe(
                "rt.wakeup_late",
                waited.saturating_sub(timeout).as_nanos() as u64,
            ),
            Err(RecvError::Closed) => {}
        }
        r
    }

    fn snapshot_alive(&self, alive: &mut [bool]) -> bool {
        self.inner.snapshot_alive(alive)
    }
}

// ---------------------------------------------------------------------
// Building nodes exactly as `examples/src/bin/replica.rs` does
// ---------------------------------------------------------------------

/// Protocol parameters of a cluster.
#[derive(Debug, Clone, Copy)]
pub struct Protocol {
    pub n: usize,
    pub key_seed: u64,
    pub delta_bnd_ms: u64,
    pub epsilon_ms: u64,
}

fn gossip_config() -> GossipConfig {
    // As in `replica.rs`: every proposal goes advert → request → push,
    // because round-tagged adverts are the behind-detection signal.
    GossipConfig {
        inline_threshold: 0,
        ..GossipConfig::default()
    }
}

fn overlay(n: usize) -> Arc<Overlay> {
    Arc::new(Overlay::for_subnet(n, subnet_overlay_seed(n)))
}

fn consensus_core(keys: NodeKeys, p: &Protocol) -> ConsensusCore {
    ConsensusCore::new(
        keys,
        StaticDelays::new(
            SimDuration::from_millis(p.delta_bnd_ms),
            SimDuration::from_millis(p.epsilon_ms),
        ),
        Behavior::Honest,
    )
}

/// Handle for the load generator: inject commands, stop the driver.
#[derive(Clone)]
pub struct ReplicaHandle(NetHandle<GossipMessage, Command>);

impl ReplicaHandle {
    pub fn submit(&self, cmd: Cmd) -> bool {
        self.0.inject(cmd)
    }

    pub fn stop(&self) {
        self.0.stop();
    }
}

/// Live view of one replica's `NetCounters`.
#[derive(Clone)]
pub struct NetProbe(Arc<NetCounters>);

impl NetProbe {
    /// Payload bytes this replica has put on the wire (read at every
    /// reference commit, so without building a `Counters` map).
    pub fn bytes_sent(&self) -> u64 {
        self.0.snapshot().bytes_sent
    }

    pub fn snapshot(&self) -> Counters {
        let mut c = Counters::default();
        c.put("net", self.0.snapshot().fields());
        c
    }
}

/// What `--trace 1` hands to the builders.
#[derive(Clone)]
pub struct TraceCtx {
    pub tracers: Vec<Tracer>,
    pub shared: Arc<TraceShared>,
}

/// One TCP replica, built and bound but not yet running.
pub struct TcpReplica {
    index: u32,
    node: GossipNode,
    transport: TcpTransport<GossipMessage, Command>,
    machine: Machine,
    trace: Option<(Tracer, Arc<TraceShared>)>,
    pub handle: ReplicaHandle,
    pub net: NetProbe,
}

/// Binds `p.n` loopback listeners on port 0 and builds one replica on
/// each: `GossipNode` over `ConsensusCore`, `Overlay::for_subnet`,
/// `inline_threshold: 0`, default `BlockPolicy`, a `DurableStore` on a
/// `FileBackend` under `data_root/r<i>` with `FsyncPolicy::PerCommit`
/// and the [`ModelFs`] sync cost.
pub fn build_tcp_cluster(
    p: &Protocol,
    data_root: &Path,
    sync_cost: Duration,
    machine: MachineKind,
    trace: Option<&TraceCtx>,
) -> io::Result<Vec<TcpReplica>> {
    let listeners: Vec<TcpListener> = (0..p.n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    let addrs = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<io::Result<Vec<_>>>()?;
    let spec = ClusterSpec::from_addrs(addrs).map_err(io::Error::other)?;
    let overlay = overlay(p.n);
    let all_keys = generate_keys(SubnetConfig::new(p.n), p.key_seed);
    let mut replicas = Vec::with_capacity(p.n);
    for (i, (keys, listener)) in all_keys.into_iter().zip(listeners).enumerate() {
        let tracer = trace.map(|t| t.tracers[i].clone());
        let store = file_store(&replica_dir(data_root, i), sync_cost, tracer.clone())?;
        let core = consensus_core(keys, p).with_store(store);
        let node = GossipNode::new(core, Arc::clone(&overlay), gossip_config());
        let transport: TcpTransport<GossipMessage, Command> = TcpTransport::with_listener(
            listener,
            &spec,
            NodeIndex::new(i as u32),
            NetOptions::default(),
        );
        replicas.push(TcpReplica {
            index: i as u32,
            handle: ReplicaHandle(transport.handle()),
            net: NetProbe(transport.counters_handle()),
            machine: Machine::new(machine, tracer.clone()),
            trace: tracer.map(|t| (t, Arc::clone(&trace.expect("tracer implies ctx").shared))),
            node,
            transport,
        });
    }
    Ok(replicas)
}

pub fn replica_dir(data_root: &Path, index: usize) -> PathBuf {
    data_root.join(format!("r{index}"))
}

impl TcpReplica {
    /// Runs the replica on the calling thread with the workspace's own
    /// wall-clock driver (`icc_sim::runtime::drive`) until its handle is
    /// told to stop. Committed commands are applied to the state machine
    /// here, on the replica's thread, as a real replica would; every
    /// translated output goes to `sink`.
    pub fn run(
        self,
        start: Instant,
        id_offset: usize,
        mut sink: impl FnMut(Event),
    ) -> ReplicaReport {
        let index = self.index;
        let mut replica = Replica::new(self.machine);
        let mut emit = |rec: OutputRecord<NodeEvent>| {
            replica.on_event(&rec.output);
            if let Some(ev) = translate(&rec, id_offset) {
                sink(ev);
            }
        };
        let (mut node, window, tracer) = match self.trace {
            None => (
                drive(self.node, self.transport, start, &mut emit),
                None,
                None,
            ),
            Some((tracer, shared)) => {
                let traced = drive(
                    TracedNode::new(self.node, tracer.clone(), shared),
                    TracedTransport {
                        inner: self.transport,
                        tracer: tracer.clone(),
                    },
                    start,
                    &mut emit,
                );
                let window = traced.window();
                (traced.inner, window, Some(tracer))
            }
        };
        // As `replica.rs` does on shutdown; PerCommit leaves nothing
        // pending, so this is a no-op kept for fidelity.
        let _ = node.core_mut().flush_store();
        ReplicaReport {
            index,
            state_digest: replica.state_digest().0,
            ledger: replica.machine().ledger_totals(),
            applied_cmds: replica.applied_commands(),
            committed_round: node.core().committed_round().get(),
            counters: layer_counters(&node),
            window,
            trace: tracer.map(|t| t.take()),
        }
    }
}

/// Reopens a replica's data directory the way a restarted process
/// would: `FileBackend::open` scans and decodes the WAL and checkpoint,
/// `ConsensusCore::start` on the non-empty store replays it through the
/// trusted path. Returns `(open_ms, restore_ms, records recovered,
/// signature verifications during replay)`.
pub fn time_restore(p: &Protocol, dir: &Path, index: usize) -> io::Result<(f64, f64, u64, u64)> {
    let keys = generate_keys(SubnetConfig::new(p.n), p.key_seed)
        .into_iter()
        .nth(index)
        .expect("replica index within n");
    let t0 = Instant::now();
    let backend = FileBackend::open(dir, wal_options())?;
    let recovered = backend.counters().recovered_records;
    let store = DurableStore::with_backend(Box::new(backend));
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let mut core = consensus_core(keys, p).with_store(store);
    black_box(core.start(SimTime::ZERO));
    let restore_ms = t1.elapsed().as_secs_f64() * 1e3;
    Ok((
        open_ms,
        restore_ms,
        recovered,
        core.recovery_stats().restore_verifications,
    ))
}

// ---------------------------------------------------------------------
// The simulator path: `ClusterBuilder::build_with` on one thread
// ---------------------------------------------------------------------

/// A simulated cluster's configuration.
pub struct SimSpec {
    pub protocol: Protocol,
    /// One-way delay drawn uniformly from this range per message (µs).
    pub delta_us: (u64, u64),
    /// Per-node deviation; missing nodes are honest.
    pub faults: Vec<(u32, Fault)>,
    /// Honest-otherwise nodes that serve forged catch-up packages.
    pub forgers: Vec<u32>,
    /// `(node, down_us, up_us)` crash–restart windows.
    pub outages: Vec<(u32, u64, u64)>,
    /// Directed links with `slow_extra_us` added one-way delay.
    pub slow_links: Vec<(u32, u32)>,
    pub slow_extra_us: u64,
    pub machine: MachineKind,
    pub id_offset: usize,
}

enum SimInner {
    Plain(Cluster<GossipNode>),
    Traced(Cluster<TracedNode>),
}

macro_rules! with_cluster {
    ($inner:expr, $c:ident => $body:expr) => {
        match $inner {
            SimInner::Plain($c) => $body,
            SimInner::Traced($c) => $body,
        }
    };
}

/// A simulated cluster plus the state machines that follow its commits.
pub struct SimCluster {
    inner: SimInner,
    replicas: Vec<Replica<Machine>>,
    id_offset: usize,
    tracers: Option<Vec<Tracer>>,
}

fn at(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

impl SimCluster {
    pub fn build(spec: &SimSpec, trace: Option<&TraceCtx>) -> SimCluster {
        let p = &spec.protocol;
        let mut behaviors = vec![Behavior::Honest; p.n];
        for &(node, fault) in &spec.faults {
            behaviors[node as usize] = fault.behavior();
        }
        let mut plan = FaultPlan::new();
        for &(node, down, up) in &spec.outages {
            plan = plan.crash_between(NodeIndex::new(node), at(down), at(up));
        }
        let mut builder = ClusterBuilder::new(p.n)
            .seed(p.key_seed)
            .network(UniformDelay::new(
                SimDuration::from_micros(spec.delta_us.0),
                SimDuration::from_micros(spec.delta_us.1),
            ))
            .protocol_delays(
                SimDuration::from_millis(p.delta_bnd_ms),
                SimDuration::from_millis(p.epsilon_ms),
            )
            .behaviors(behaviors)
            .fault_plan(plan);
        if !spec.slow_links.is_empty() {
            builder = builder.policy(SlowLinks {
                links: spec
                    .slow_links
                    .iter()
                    .map(|&(a, b)| (NodeIndex::new(a), NodeIndex::new(b)))
                    .collect(),
                extra: SimDuration::from_micros(spec.slow_extra_us),
            });
        }
        let overlay = overlay(p.n);
        let forgers = spec.forgers.clone();
        // `build_with` calls the closure once per node, in index order.
        let next = Cell::new(0u32);
        let make = move |core: ConsensusCore| {
            let i = next.get();
            next.set(i + 1);
            let node = GossipNode::new(core, Arc::clone(&overlay), gossip_config());
            if forgers.contains(&i) {
                node.with_forged_catch_up()
            } else {
                node
            }
        };
        let inner = match trace {
            None => SimInner::Plain(builder.build_with(make)),
            Some(ctx) => {
                let ctx = ctx.clone();
                let idx = Cell::new(0usize);
                SimInner::Traced(builder.build_with(move |core| {
                    let i = idx.get();
                    idx.set(i + 1);
                    TracedNode::new(make(core), ctx.tracers[i].clone(), Arc::clone(&ctx.shared))
                }))
            }
        };
        let tracers = trace.map(|t| t.tracers.clone());
        SimCluster {
            inner,
            replicas: (0..p.n)
                .map(|i| {
                    let tracer = tracers.as_ref().map(|t| t[i].clone());
                    Replica::new(Machine::new(spec.machine, tracer))
                })
                .collect(),
            id_offset: spec.id_offset,
            tracers,
        }
    }

    /// Schedules `cmd` as an external input of `node` at `at_us`.
    pub fn submit(&mut self, at_us: u64, node: u32, cmd: Cmd) {
        with_cluster!(&mut self.inner, c => c.sim.schedule_external(at(at_us), NodeIndex::new(node), cmd));
    }

    /// Processes every event up to and including simulated `at_us`.
    pub fn run_until(&mut self, at_us: u64) {
        with_cluster!(&mut self.inner, c => c.run_until(at(at_us)));
    }

    /// Takes the outputs emitted since the last call, applies commits
    /// to the per-node state machines, and returns them translated.
    pub fn drain_events(&mut self) -> Vec<Event> {
        let outputs = with_cluster!(&mut self.inner, c => c.sim.take_outputs());
        let mut events = Vec::with_capacity(outputs.len());
        for rec in &outputs {
            self.replicas[rec.node.as_usize()].on_event(&rec.output);
            events.extend(translate(rec, self.id_offset));
        }
        events
    }

    /// Bytes put on the (simulated) wire by all nodes so far.
    pub fn wire_bytes(&self) -> u64 {
        with_cluster!(&self.inner, c => c.sim.metrics().total_bytes())
    }

    /// Engine events processed so far.
    pub fn engine_events(&self) -> u64 {
        with_cluster!(&self.inner, c => c.sim.events_processed())
    }

    /// Ends the run: one report per node.
    pub fn finish(self) -> Vec<ReplicaReport> {
        let n = self.replicas.len();
        let mut reports = Vec::with_capacity(n);
        for (i, replica) in self.replicas.iter().enumerate() {
            let (counters, window, committed_round) = match &self.inner {
                SimInner::Plain(c) => {
                    let node = c.sim.node(i);
                    (
                        layer_counters(node),
                        None,
                        node.core().committed_round().get(),
                    )
                }
                SimInner::Traced(c) => {
                    let node = c.sim.node(i);
                    (
                        layer_counters(&node.inner),
                        node.window(),
                        node.inner.core().committed_round().get(),
                    )
                }
            };
            reports.push(ReplicaReport {
                index: i as u32,
                state_digest: replica.state_digest().0,
                ledger: replica.machine().ledger_totals(),
                applied_cmds: replica.applied_commands(),
                committed_round,
                counters,
                window,
                trace: self.tracers.as_ref().map(|t| t[i].take()),
            });
        }
        reports
    }
}

// ---------------------------------------------------------------------
// Micro-probes: the public icc-types and icc-crypto functions, timed
// ---------------------------------------------------------------------

/// Codec, framing and block-hash cost on messages captured from the run.
#[derive(Debug, Default, Clone, Copy)]
pub struct TypesProbe {
    pub encode_ns_per_msg: f64,
    pub decode_ns_per_msg: f64,
    pub encode_mb_s: f64,
    pub frame_crc_mb_s: f64,
    pub block_hash_mb_s: f64,
}

/// Signature cost on the run's key material (`n` of the workload).
#[derive(Debug, Default, Clone, Copy)]
pub struct CryptoProbe {
    pub sign_ns: f64,
    pub verify_ns: f64,
    pub share_verify_ns: f64,
    pub batch_verify_ns_per_share: f64,
    pub threshold_combine_ns: f64,
    pub multisig_aggregate_ns: f64,
    pub sha256_mb_s: f64,
}

/// Repeats `f` until `budget` has passed (at least 3 times) and returns
/// the median seconds per call.
fn time_median(budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (started.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(samples).expect("at least three samples")
}

const PROBE_BUDGET: Duration = Duration::from_millis(40);

/// Times the codec on the captured sample. `weight` gives how many
/// messages of a kind the run handled: the per-message figures are the
/// mean over the run's real traffic mix, not over the sample (which
/// holds as many 130 KB block deliveries as 100-byte shares).
pub fn probe_types(shared: &TraceShared, weight: impl Fn(&str) -> f64) -> TypesProbe {
    let cap = shared.captured.lock().expect("capture buffer");
    let (mut msgs, mut bytes, mut encode_s, mut decode_s, mut frame_s) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (kind, sample) in &cap.by_kind {
        let encoded: Vec<Vec<u8>> = sample.iter().map(encode_to_vec).collect();
        // How many messages of the run each sampled message stands for.
        let w = weight(kind) / sample.len() as f64;
        msgs += w * sample.len() as f64;
        bytes += w * encoded.iter().map(Vec::len).sum::<usize>() as f64;
        encode_s += w * time_median(PROBE_BUDGET, || {
            for m in sample {
                black_box(encode_to_vec(black_box(m)));
            }
        });
        decode_s += w * time_median(PROBE_BUDGET, || {
            for b in &encoded {
                black_box(decode_from_slice::<GossipMessage>(black_box(b)).expect("own encoding"));
            }
        });
        frame_s += w * time_median(PROBE_BUDGET, || {
            for b in &encoded {
                black_box(encode_frame(black_box(b)));
            }
        });
    }
    if msgs == 0.0 {
        return TypesProbe::default();
    }
    // Block hashing on the largest captured proposal body.
    let block = cap
        .by_kind
        .values()
        .flatten()
        .filter_map(|m| match m {
            GossipMessage::Deliver { proposal, .. } => Some(proposal.block.clone()),
            _ => None,
        })
        .max_by_key(|b| b.encoded_len());
    let block_hash_mb_s = block.map_or(0.0, |b| {
        let s = time_median(PROBE_BUDGET, || {
            black_box(black_box(b.block()).hash());
        });
        b.encoded_len() as f64 / 1e6 / s
    });
    TypesProbe {
        encode_ns_per_msg: encode_s * 1e9 / msgs,
        decode_ns_per_msg: decode_s * 1e9 / msgs,
        encode_mb_s: bytes / 1e6 / encode_s,
        frame_crc_mb_s: bytes / 1e6 / frame_s,
        block_hash_mb_s,
    }
}

pub fn probe_crypto(p: &Protocol) -> CryptoProbe {
    let keys = generate_keys(SubnetConfig::new(p.n), p.key_seed);
    let setup = Arc::clone(&keys[0].setup);
    let block_ref = BlockRef::of_hashed(&setup.genesis);
    let msg = block_ref.sign_bytes();
    let quorum = setup.config.notarization_threshold();
    let shares: Vec<_> = keys
        .iter()
        .take(quorum)
        .map(|k| setup.notary.sign_share(&k.notary, k.index.get(), &msg))
        .collect();
    let auth_sig = keys[0].auth.sign(domains::AUTH, &msg);
    let beacon_msg = beacon_sign_message(1, &setup.genesis_beacon);
    let beacon_shares: Vec<_> = keys
        .iter()
        .take(setup.config.beacon_threshold())
        .map(|k| k.beacon().sign_share(&beacon_msg))
        .collect();
    let buf = vec![0x5au8; 64 << 10];

    // Single operations take well under a microsecond with the
    // workspace's simulation-grade signatures: time batches of 64.
    const REPS: usize = 64;
    let per = |f: &mut dyn FnMut()| {
        time_median(PROBE_BUDGET, || {
            for _ in 0..REPS {
                f();
            }
        }) * 1e9
            / REPS as f64
    };
    CryptoProbe {
        sign_ns: per(&mut || {
            black_box(setup.notary.sign_share(&keys[0].notary, 0, black_box(&msg)));
        }),
        verify_ns: per(&mut || {
            black_box(setup.auth_keys[0].verify(domains::AUTH, black_box(&msg), &auth_sig));
        }),
        share_verify_ns: per(&mut || {
            black_box(setup.notary.verify_share(black_box(&msg), &shares[0]));
        }),
        batch_verify_ns_per_share: per(&mut || {
            black_box(setup.notary.verify_batch(black_box(&msg), &shares));
        }) / shares.len() as f64,
        threshold_combine_ns: per(&mut || {
            black_box(
                setup
                    .beacon
                    .combine(black_box(&beacon_msg), beacon_shares.iter().cloned())
                    .expect("valid shares combine"),
            );
        }),
        multisig_aggregate_ns: per(&mut || {
            black_box(
                setup
                    .notary
                    .combine(black_box(&msg), shares.iter().cloned())
                    .expect("valid shares combine"),
            );
        }),
        sha256_mb_s: {
            let s = time_median(PROBE_BUDGET, || {
                black_box(sha256(black_box(&buf)));
            });
            buf.len() as f64 / 1e6 / s
        },
    }
}
