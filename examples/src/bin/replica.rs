//! A consensus **replica as an OS process**: one ICC1 node (gossip +
//! consensus core) driven by the shared wall-clock loop over a real TCP
//! mesh. Start `n` of these against the same peer-config file and they
//! form a cluster on your machine — kernel sockets, frame CRCs,
//! reconnects and all — running byte-for-byte the same `GossipNode`
//! the discrete-event simulator tests.
//!
//! ```text
//! cargo run --release -p icc-examples --bin replica -- \
//!     --config cluster.txt --me 0 --secs 10
//! ```
//!
//! where `cluster.txt` lists every peer, one `<index> <host:port>` per
//! line (see `icc_net::ClusterSpec`). All replicas must be given the
//! same `--seed`: the threshold keys are dealt deterministically from
//! it, so the config file plus the seed *are* the cluster identity.
//!
//! Stdout is machine-readable, one record per line:
//!
//! * `READY <addr>` — listener bound, mesh dialing.
//! * `COMMIT <round> <hash>` — a block joined this replica's chain
//!   (the launcher cross-checks these across processes for safety).
//! * `REPORT {json}` — final counters on shutdown.
//!
//! Exit codes: 0 after a clean run, 2 on a usage error, and 3 when the
//! store failed to persist a consensus step and the replica stopped
//! signing (fail-stop: `"halted"` in the REPORT line, `storage_halted`
//! on `/health`) — distinct from a crash, which leaves no code at all.
//!
//! `--trace-out` writes this replica's flight-recorder spans as a
//! Chrome trace; `--metrics-out` writes a Prometheus snapshot. Both are
//! flushed and fsync'd before exit — including on SIGTERM, which this
//! binary catches for a graceful shutdown (SIGKILL stays the
//! hard-crash path the durability machinery exists for).
//!
//! `--admin-port` starts the **live observability plane**: a one-thread
//! HTTP/1.0 admin server (`ADMIN <addr>` on stdout) serving
//!
//! * `/metrics` — the same Prometheus render `--metrics-out` writes at
//!   exit, refreshed every publish tick while the replica runs;
//! * `/health` — 200/503 readiness from round-progress rate, peer
//!   connectivity, WAL I/O errors, and the fail-stop halt;
//! * `/status` — JSON: rounds, epoch, finalized frontier, the per-peer
//!   link table (queue depth, backoff, last-frame age), recent
//!   anomalies;
//! * `/trace` — the flight-recorder ring as clock-anchored Chrome
//!   trace JSON (what `net_cluster --stitched-trace` merges).
//!
//! The publisher is a driver-loop timer, so endpoint handlers never
//! touch consensus state — they serve the latest published snapshot
//! from a mutex, and a scrape can never block a round.
//!
//! `--data-dir` makes the replica durable: everything it certifies is
//! persisted to a segmented write-ahead log + checkpoint file in that
//! directory (fsync policy per `--fsync`), and a restarted process
//! pointed at the same directory recovers its own state from disk —
//! with zero signature re-verifications — before catching up over the
//! network on whatever it missed while down.

use icc_core::byzantine::Behavior;
use icc_core::consensus::ConsensusCore;
use icc_core::delays::StaticDelays;
use icc_core::epoch::EpochSchedule;
use icc_core::events::NodeEvent;
use icc_core::keys::{generate_keys, generate_keys_with_schedule};
use icc_core::storage::DurableStore;
use icc_core::storage::StorageCounters;
use icc_gossip::{GossipConfig, GossipMessage, GossipNode, Overlay};
use icc_net::{
    ClusterSpec, LinkGauges, NetCounters, NetCountersSnapshot, NetOptions, TcpTransport,
};
use icc_sim::runtime::drive;
use icc_sim::{Context, Node};
use icc_telemetry::{
    chrome_trace_tagged, evaluate_health, AdminBuilder, AdminResponse, HealthInputs,
    PeerLinkStatus, PromSnapshot, StatusReport,
};
use icc_types::{Command, NodeIndex, SimDuration, SubnetConfig};
use icc_wal::{FsyncPolicy, WalOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

struct Opts {
    config: String,
    me: u32,
    secs: u64,
    seed: u64,
    delta_bnd_ms: u64,
    epsilon_ms: u64,
    cmd_rate: u64,
    cmd_size: usize,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    epochs: Option<String>,
    admin_port: Option<u16>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: replica --config PATH --me N [--secs S] [--seed U64]\n\
         \t[--delta-bnd-ms MS] [--epsilon-ms MS] [--cmd-rate PER_S] [--cmd-size BYTES]\n\
         \t[--data-dir PATH] [--fsync per-commit|group:MAX:WINDOW_MS|periodic:MS]\n\
         \t[--trace-out PATH] [--metrics-out PATH] [--epochs SPEC] [--admin-port PORT]\n\
         \twhere SPEC is 'round:members;round:members', e.g. '0:0,1,2,3;30:0,1,2,4'"
    );
    std::process::exit(2);
}

/// Exit code of a replica whose store failed to persist a step.
const EXIT_HALTED: i32 = 3;

/// Set by the SIGTERM handler; watched by the shutdown machinery so a
/// graceful termination stops the driver, flushes the store, and writes
/// every export instead of dying mid-line.
static TERMINATED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    // Raw libc `signal` (std links libc already; no crate needed): the
    // handler only sets an atomic flag, which is async-signal-safe.
    const SIGTERM: i32 = 15;
    extern "C" fn on_sigterm(_sig: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Writes `bytes` to `path` with an explicit fsync — telemetry exports
/// survive even if the host loses power right after shutdown.
fn write_durable(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

fn parse() -> Opts {
    let mut opts = Opts {
        config: String::new(),
        me: u32::MAX,
        secs: 10,
        seed: 0,
        // Pace rounds at roughly 10/s: localhost latency is ~µs, so an
        // unpaced cluster would spin rounds faster than the launcher
        // can meaningfully observe (and a restarted replica could never
        // fall a satisfying number of rounds behind).
        delta_bnd_ms: 300,
        epsilon_ms: 50,
        cmd_rate: 50,
        cmd_size: 64,
        data_dir: None,
        fsync: FsyncPolicy::PerCommit,
        trace_out: None,
        metrics_out: None,
        epochs: None,
        admin_port: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} requires a value")))
                .clone()
        };
        match flag.as_str() {
            "--config" => opts.config = val("--config"),
            "--me" => opts.me = val("--me").parse().unwrap_or_else(|_| usage("bad --me")),
            "--secs" => {
                opts.secs = val("--secs")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --secs"))
            }
            "--seed" => {
                opts.seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--delta-bnd-ms" => {
                opts.delta_bnd_ms = val("--delta-bnd-ms")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --delta-bnd-ms"))
            }
            "--epsilon-ms" => {
                opts.epsilon_ms = val("--epsilon-ms")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --epsilon-ms"))
            }
            "--cmd-rate" => {
                opts.cmd_rate = val("--cmd-rate")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --cmd-rate"))
            }
            "--cmd-size" => {
                opts.cmd_size = val("--cmd-size")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --cmd-size"))
            }
            "--data-dir" => opts.data_dir = Some(val("--data-dir")),
            "--fsync" => {
                opts.fsync = FsyncPolicy::parse(&val("--fsync"))
                    .unwrap_or_else(|e| usage(&format!("--fsync: {e}")))
            }
            "--trace-out" => opts.trace_out = Some(val("--trace-out")),
            "--metrics-out" => opts.metrics_out = Some(val("--metrics-out")),
            "--epochs" => opts.epochs = Some(val("--epochs")),
            "--admin-port" => {
                opts.admin_port = Some(
                    val("--admin-port")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --admin-port")),
                )
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if opts.config.is_empty() {
        usage("--config is required");
    }
    if opts.me == u32::MAX {
        usage("--me is required");
    }
    opts
}

/// Timer tag reserved for the admin publisher. The gossip layer owns
/// the small tags (core round timers, sweep, catch-up, liveness) and
/// treats unknown tags as a bug, so the wrapper *intercepts* this one —
/// it is never delegated.
const ADMIN_TAG: u64 = u64::MAX;

/// Wall-clock microseconds since the UNIX epoch — the clock anchor
/// that lets `net_cluster` align per-process trace timelines.
fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// The snapshot the admin endpoints serve. Swapped wholesale by the
/// publisher tick; handlers only ever clone strings out of the mutex,
/// so a scrape can never block (or observe a half-written) round.
struct Published {
    metrics: String,
    status: String,
    health: String,
    healthy: bool,
    trace: String,
}

impl Default for Published {
    fn default() -> Self {
        // Pre-first-tick scrapes get a valid, optimistic skeleton.
        Published {
            metrics: String::new(),
            status: "{}".to_string(),
            health: "{\"healthy\":true,\"reasons\":[]}".to_string(),
            healthy: true,
            trace: "{\"traceEvents\":[]}".to_string(),
        }
    }
}

/// One Prometheus render of everything the replica knows, shared by
/// the live `/metrics` endpoint and the exit-time `--metrics-out`
/// export so the two can never disagree on names or coverage. All
/// counter-set families go through `fields()` — a counter added to any
/// set shows up here without touching this function.
fn render_metrics(
    node: &GossipNode,
    net: &NetCountersSnapshot,
    links: &[icc_net::PeerLinkSnapshot],
) -> String {
    let (core, gossip) = (node.core(), node.gossip_counters());
    let m = &core.telemetry().metrics;
    let mut snap = PromSnapshot::new();
    snap.counter(
        "icc_replica_blocks_committed_total",
        "Blocks committed by this replica.",
        m.blocks_committed.get(),
    );
    snap.counter(
        "icc_replica_commands_committed_total",
        "Client commands committed by this replica.",
        m.commands_committed.get(),
    );
    snap.counter(
        "icc_replica_rounds_entered_total",
        "Rounds this replica entered.",
        m.rounds_entered.get(),
    );
    snap.counter(
        "icc_replica_catch_ups_applied_total",
        "Certified catch-up packages this replica applied.",
        m.catch_ups_applied.get(),
    );
    snap.gauge(
        "icc_replica_current_round",
        "Round the replica is currently working on.",
        core.current_round().get() as i64,
    );
    snap.gauge(
        "icc_replica_committed_round",
        "Highest committed (finalized-prefix) round.",
        core.committed_round().get() as i64,
    );
    snap.gauge(
        "icc_replica_finalized_frontier",
        "Highest explicitly finalized round in the pool.",
        core.finalized_frontier().get() as i64,
    );
    snap.gauge(
        "icc_replica_epoch",
        "Active epoch index.",
        core.current_epoch() as i64,
    );
    // Memory: entries held per collection (`icc_pool_blocks`,
    // `icc_gossip_dedup_ids`, …), each bounded by the rounds in flight.
    for (name, held) in node.footprint() {
        snap.gauge(
            &format!("icc_{name}"),
            "Entries held in this in-memory collection.",
            held as i64,
        );
    }
    snap.histogram(
        "icc_replica_round_duration_us",
        "Round entry to notarized finish, microseconds.",
        &m.round_duration_us,
    );
    snap.histogram(
        "icc_replica_finalization_latency_us",
        "Round entry to commit of that round's block, microseconds.",
        &m.finalization_latency_us,
    );
    // Counter-set families: the field list IS the export, so the
    // render cannot drift when a counter is added (the REPORT line's
    // JSON iterates the same fields()).
    snap.counter_series(
        "icc_replica_net",
        "TCP mesh transport counters (icc-net NetCounters).",
        "field",
        &net.fields(),
    );
    snap.counter_series(
        "icc_replica_pool",
        "Artifact pool counters (verification economy).",
        "field",
        &core.pool().stats().fields(),
    );
    snap.counter_series(
        "icc_replica_gossip",
        "Dissemination counters (relay fan-out, dedup, hop depths).",
        "field",
        &gossip.fields(),
    );
    snap.counter_series(
        "icc_replica_storage",
        "WAL + checkpoint storage counters.",
        "field",
        &core.storage_counters().fields(),
    );
    snap.counter_series(
        "icc_replica_anomalies",
        "Anomaly detector emissions by class.",
        "class",
        &core.telemetry().anomalies.counts().fields(),
    );
    snap.counter_series(
        "icc_replica_recovery",
        "Crash-recovery counters (restarts, catch-up traffic).",
        "field",
        &core.recovery_stats().fields(),
    );
    snap.counter_series(
        "icc_replica_ingress",
        "Client commands sent to next leaders, received, refused, dropped.",
        "field",
        &core.ingress_stats().fields(),
    );
    // Per-peer link gauges.
    let peer_labels: Vec<String> = links.iter().map(|l| l.peer.to_string()).collect();
    let series = |f: &dyn Fn(&icc_net::PeerLinkSnapshot) -> i64| -> Vec<(&str, i64)> {
        peer_labels
            .iter()
            .zip(links)
            .map(|(s, l)| (s.as_str(), f(l)))
            .collect()
    };
    snap.gauge_series(
        "icc_replica_link_connected",
        "Outbound link established (1) or down (0), per peer.",
        "peer",
        &series(&|l| i64::from(l.connected)),
    );
    snap.gauge_series(
        "icc_replica_link_queue_depth",
        "Frames waiting in the bounded send queue, per peer.",
        "peer",
        &series(&|l| l.queue_depth as i64),
    );
    snap.gauge_series(
        "icc_replica_link_backoff_ms",
        "Current reconnect backoff in ms (0 while connected), per peer.",
        "peer",
        &series(&|l| l.backoff_ms as i64),
    );
    snap.gauge_series(
        "icc_replica_link_reconnects",
        "Completed reconnections, per peer.",
        "peer",
        &series(&|l| l.reconnects as i64),
    );
    snap.gauge_series(
        "icc_replica_link_last_frame_age_us",
        "Age of the last valid inbound frame in us (-1 = never), per peer.",
        "peer",
        &series(&|l| {
            if l.last_frame_age_us == u64::MAX {
                -1
            } else {
                l.last_frame_age_us as i64
            }
        }),
    );
    snap.render()
}

/// The driven node with the observability plane attached: delegates
/// every event to the inner [`GossipNode`] and, on its own timer tag,
/// publishes a fresh metrics/status/health/trace snapshot for the
/// admin endpoints — plus feeds the anomaly detector the things only
/// the driver loop can see (peer liveness transitions, fsync latency
/// deltas, wall-clock ticks for silent stalls).
struct ObservedNode {
    inner: GossipNode,
    /// False without `--admin-port`: the publisher timer is never
    /// armed and the wrapper is pure delegation.
    active: bool,
    publish: Arc<Mutex<Published>>,
    links: Arc<LinkGauges>,
    net: Arc<NetCounters>,
    /// Publish cadence (also the anomaly tick granularity).
    period: SimDuration,
    /// UNIX µs at driver start — the cross-process clock anchor.
    clock_anchor_us: u64,
    /// `/health` thresholds.
    stall_after_us: u64,
    min_peers_up: u64,
    /// Round-progress tracking for `/health`.
    last_progress_us: u64,
    prev_committed: u64,
    /// Previous storage snapshot, for fsync latency deltas.
    prev_storage: StorageCounters,
}

impl ObservedNode {
    #[allow(clippy::too_many_arguments)]
    fn new(
        inner: GossipNode,
        active: bool,
        publish: Arc<Mutex<Published>>,
        links: Arc<LinkGauges>,
        net: Arc<NetCounters>,
        clock_anchor_us: u64,
        stall_after_us: u64,
        min_peers_up: u64,
    ) -> Self {
        ObservedNode {
            inner,
            active,
            publish,
            links,
            net,
            period: SimDuration::from_millis(250),
            clock_anchor_us,
            stall_after_us,
            min_peers_up,
            last_progress_us: 0,
            prev_committed: 0,
            prev_storage: StorageCounters::default(),
        }
    }

    fn core(&self) -> &ConsensusCore {
        self.inner.core()
    }

    fn core_mut(&mut self) -> &mut ConsensusCore {
        self.inner.core_mut()
    }

    /// One publish tick: feed the detector, re-evaluate health, render
    /// every endpoint body, swap the published snapshot.
    fn publish_tick(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>) {
        let now_us = ctx.now().as_micros();
        let me = ctx.me().get();
        let n = ctx.n();

        // Peer liveness transitions → flap detector (via the funnel,
        // so flaps also land in the span ring).
        for p in 0..n as u32 {
            if p != me {
                let up = ctx.peer_up(NodeIndex::new(p));
                self.inner
                    .core_mut()
                    .telemetry_mut()
                    .observe_peer(p, up, now_us);
            }
        }
        // Fsync latency delta → spike detector (mean over the tick's
        // fsyncs; individual latencies are not retained by the WAL).
        let storage = self.inner.core().storage_counters();
        let dn = storage.fsyncs.saturating_sub(self.prev_storage.fsyncs);
        let dus = storage
            .fsync_total_us
            .saturating_sub(self.prev_storage.fsync_total_us);
        if let Some(mean_us) = dus.checked_div(dn) {
            self.inner
                .core_mut()
                .telemetry_mut()
                .observe_fsync(now_us, mean_us);
        }
        self.prev_storage = storage;
        // Clock tick → silent-stall detector.
        self.inner.core_mut().telemetry_mut().tick(now_us);

        // Round-progress tracking for /health.
        let committed = self.inner.core().committed_round().get();
        if committed > self.prev_committed {
            self.prev_committed = committed;
            self.last_progress_us = now_us;
        }

        let core = self.inner.core();
        let net = self.net.snapshot();
        let links = self.links.snapshot();
        let peers_up = links.iter().filter(|l| l.connected).count() as u64;
        let metrics = render_metrics(&self.inner, &net, &links);
        let status = StatusReport {
            node: me,
            now_us,
            clock_anchor_us: self.clock_anchor_us,
            current_round: core.current_round().get(),
            committed_round: committed,
            finalized_frontier: core.finalized_frontier().get(),
            epoch: core.current_epoch(),
            halted: core.halted().map(str::to_string),
            footprint: self.inner.footprint(),
            peers: links
                .iter()
                .map(|l| PeerLinkStatus {
                    peer: l.peer as u32,
                    connected: l.connected,
                    queue_depth: l.queue_depth,
                    queue_capacity: l.queue_capacity,
                    backoff_ms: l.backoff_ms,
                    last_frame_age_us: l.last_frame_age_us,
                    reconnects: l.reconnects,
                })
                .collect(),
            anomalies: core.telemetry().recent_anomalies(),
        }
        .to_json();
        let inputs = HealthInputs {
            now_us,
            last_progress_us: self.last_progress_us,
            committed_round: committed,
            peers_up,
            peers_total: links.len() as u64,
            wal_io_errors: storage.io_errors,
            storage_halted: core.halted().is_some(),
            stall_after_us: self.stall_after_us,
            min_peers_up: self.min_peers_up,
        };
        let verdict = evaluate_health(&inputs);
        let trace = chrome_trace_tagged(
            &core.telemetry().recorder.events(),
            me,
            self.clock_anchor_us,
        );
        let mut slot = self.publish.lock().expect("publish lock");
        *slot = Published {
            metrics,
            status,
            health: verdict.to_json(&inputs),
            healthy: verdict.healthy,
            trace,
        };
    }
}

impl Node for ObservedNode {
    type Msg = GossipMessage;
    type External = Command;
    type Output = icc_core::events::NodeEvent;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.inner.on_start(ctx);
        if self.active {
            self.last_progress_us = ctx.now().as_micros();
            self.publish_tick(ctx);
            ctx.set_timer(self.period, ADMIN_TAG);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        from: NodeIndex,
        msg: Self::Msg,
    ) {
        self.inner.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, tag: u64) {
        if tag == ADMIN_TAG {
            self.publish_tick(ctx);
            ctx.set_timer(self.period, ADMIN_TAG);
        } else {
            self.inner.on_timer(ctx, tag);
        }
    }

    fn on_external(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, input: Command) {
        self.inner.on_external(ctx, input);
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.inner.on_restart(ctx);
    }

    fn on_peer_departed(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        peer: NodeIndex,
    ) {
        self.inner.on_peer_departed(ctx, peer);
    }
}

fn main() {
    let opts = parse();
    let spec = ClusterSpec::load(Path::new(&opts.config))
        .unwrap_or_else(|e| usage(&format!("--config {}: {e}", opts.config)));
    let n = spec.n();
    if opts.me as usize >= n {
        usage(&format!("--me {} out of range for n={n}", opts.me));
    }
    if n < 3 {
        usage("a gossip cluster needs at least 3 nodes");
    }
    let me = NodeIndex::new(opts.me);

    // Every replica deals the same deterministic key set from the
    // shared seed and keeps only its own share — no key files needed
    // for a local cluster. `--epochs` layers a membership schedule on
    // top: the config file then lists the *universe* (every party that
    // is ever a member), and all replicas must agree on the spec string
    // exactly — it determines the reshared per-epoch beacon keys.
    let all_keys = match &opts.epochs {
        Some(spec_str) => {
            let schedule =
                EpochSchedule::parse(spec_str).unwrap_or_else(|e| usage(&format!("--epochs: {e}")));
            if schedule.universe() > n {
                usage(&format!(
                    "--epochs mentions node {} but --config lists only {n} peers",
                    schedule.universe() - 1
                ));
            }
            generate_keys_with_schedule(SubnetConfig::new(n), opts.seed, &schedule)
        }
        None => generate_keys(SubnetConfig::new(n), opts.seed),
    };
    let keys = all_keys
        .into_iter()
        .nth(opts.me as usize)
        .expect("own key share");
    let mut core = ConsensusCore::new(
        keys,
        StaticDelays::new(
            SimDuration::from_millis(opts.delta_bnd_ms),
            SimDuration::from_millis(opts.epsilon_ms),
        ),
        Behavior::Honest,
    );
    // `--data-dir`: persist everything certified to a WAL + checkpoint
    // store in that directory. If the directory already holds state (a
    // previous incarnation's disk), `start` restores from it — zero
    // signature re-verifications — before the network catch-up covers
    // the outage gap.
    if let Some(dir) = &opts.data_dir {
        let wal_opts = WalOptions {
            fsync: opts.fsync,
            ..WalOptions::default()
        };
        let store = DurableStore::file(Path::new(dir), wal_opts)
            .unwrap_or_else(|e| usage(&format!("--data-dir {dir}: {e}")));
        if !store.is_empty() {
            eprintln!(
                "replica {}: recovered {} durable entries (frontier round {})",
                opts.me,
                store.recovered_entries(),
                store.frontier().get()
            );
        }
        core = core.with_store(store);
    }
    // `inline_threshold: 0` forces every proposal through the
    // advert/request path. Adverts are round-tagged, and those tags are
    // the *only* behind-detection signal the gossip layer has — a
    // restarted replica discovers it must fetch a certified catch-up
    // package precisely because adverts for far-future rounds arrive.
    let config = GossipConfig {
        inline_threshold: 0,
        ..GossipConfig::default()
    };
    // Same topology at every replica: `for_subnet` is deterministic in
    // (n, seed), and the shared seed is already the cluster identity.
    let node = GossipNode::new(
        core,
        Arc::new(Overlay::for_subnet(n, icc_gossip::subnet_overlay_seed(n))),
        config,
    );

    let transport: TcpTransport<_, _> = TcpTransport::bind(&spec, me, NetOptions::default())
        .unwrap_or_else(|e| usage(&format!("bind {}: {e}", spec.addr(me))));
    let handle = transport.handle();
    let counters = transport.counters_handle();
    let link_gauges = transport.links_handle();
    install_sigterm_handler();
    println!("READY {}", transport.local_addr());
    let _ = std::io::stdout().flush();

    // The admin plane: handlers only clone pre-rendered strings out of
    // the published snapshot — they never touch consensus state, so a
    // scrape can never block a round.
    let publish = Arc::new(Mutex::new(Published::default()));
    let mut admin = match opts.admin_port {
        Some(port) => {
            let metrics = Arc::clone(&publish);
            let status = Arc::clone(&publish);
            let health = Arc::clone(&publish);
            let trace = Arc::clone(&publish);
            let server = AdminBuilder::new()
                .route("/metrics", move || {
                    AdminResponse::text(metrics.lock().expect("publish lock").metrics.clone())
                })
                .route("/status", move || {
                    AdminResponse::json(status.lock().expect("publish lock").status.clone())
                })
                .route("/health", move || {
                    let slot = health.lock().expect("publish lock");
                    let code = if slot.healthy { 200 } else { 503 };
                    AdminResponse::json_status(code, slot.health.clone())
                })
                .route("/trace", move || {
                    AdminResponse::json(trace.lock().expect("publish lock").trace.clone())
                })
                .serve(&format!("127.0.0.1:{port}"))
                .unwrap_or_else(|e| usage(&format!("--admin-port {port}: {e}")));
            println!("ADMIN {}", server.local_addr());
            let _ = std::io::stdout().flush();
            Some(server)
        }
        None => None,
    };
    // Publish only when a listener is up: no --admin-port means no
    // admin timer and no render work.
    let admin_active = admin.is_some();

    // Client-load injector: a background thread feeding commands into
    // the driver's inbox at --cmd-rate, tagged so payloads are unique
    // per replica and per tick. A real deployment would accept these
    // over a client port; a thread keeps the example self-contained.
    let injector = {
        let handle = handle.clone();
        let deadline = Instant::now() + Duration::from_secs(opts.secs);
        let (rate, size, me) = (opts.cmd_rate, opts.cmd_size.max(16), opts.me);
        std::thread::spawn(move || {
            let mut tick: u64 = 0;
            let period = Duration::from_nanos(1_000_000_000 / rate.max(1));
            while Instant::now() < deadline && !TERMINATED.load(Ordering::SeqCst) {
                let mut payload = format!("r{me}t{tick}").into_bytes();
                payload.resize(size, b'.');
                if !handle.inject(Command::new(payload)) {
                    break;
                }
                tick += 1;
                std::thread::sleep(period);
            }
        })
    };
    // Shutdown watcher: ask the driver to stop once the run is over —
    // or as soon as SIGTERM lands, whichever comes first. Sleeping in
    // short slices keeps SIGTERM-to-shutdown latency ~50ms.
    let stopper = {
        let handle = handle.clone();
        let deadline = Instant::now() + Duration::from_secs(opts.secs);
        std::thread::spawn(move || {
            while Instant::now() < deadline && !TERMINATED.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
            }
            handle.stop();
        })
    };

    // The same driver loop the channel backend uses — only the
    // transport differs. `/health` calls the replica stalled after ten
    // round paces without commit progress (floor 2s for fast-paced
    // configs), and isolated below the notarization quorum minus self.
    let stall_after_us = (10 * opts.delta_bnd_ms * 1000).max(2_000_000);
    let f = (n - 1) / 3;
    let min_peers_up = (n - f - 1) as u64;
    // The wall clock and the driver's monotonic start are sampled
    // back-to-back: the anchor maps this process's trace timestamps
    // onto the cluster-shared UNIX timeline for stitching.
    let clock_anchor_us = unix_micros();
    let start = Instant::now();
    let node = ObservedNode::new(
        node,
        admin_active,
        Arc::clone(&publish),
        link_gauges,
        Arc::clone(&counters),
        clock_anchor_us,
        stall_after_us,
        min_peers_up,
    );
    let mut blocks: u64 = 0;
    let mut commands: u64 = 0;
    let mut node = drive(node, transport, start, |rec| {
        if let NodeEvent::Committed { block } = &rec.output {
            blocks += 1;
            commands += block.block().payload().len() as u64;
            println!("COMMIT {} {}", block.round().get(), block.hash());
            let _ = std::io::stdout().flush();
        }
    });
    injector.join().expect("injector thread");
    stopper.join().expect("stopper thread");

    // Drain any buffered WAL tail (group/periodic fsync policies) so a
    // clean shutdown leaves the data dir byte-complete on disk.
    if let Err(e) = node.core_mut().flush_store() {
        eprintln!("replica {}: store flush failed: {e}", opts.me);
    }

    let core = node.core();
    let rec = core.recovery_stats();
    let net = counters.snapshot();
    let storage = core.storage_counters();
    let ingress = core.ingress_stats().fields().into_iter();
    let ingress: Vec<String> = ingress.map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!(
        "REPORT {{\"me\":{},\"n\":{n},\"halted\":{},\"committed_round\":{},\"blocks\":{blocks},\
         \"commands\":{commands},\"catch_up_applied\":{},\"catch_up_rejected\":{},\
         \"wal_appends\":{},\"restarts\":{},\"recovered_round\":{},\
         \"restore_verifications\":{},\"cross_epoch_catch_ups\":{},\
         \"epoch_transitions\":{},\"storage\":{},\"net\":{},\"ingress\":{{{}}}}}",
        opts.me,
        core.halted().is_some(),
        core.committed_round().get(),
        rec.catch_up_applied,
        rec.catch_up_rejected,
        rec.wal_appends,
        rec.restarts,
        core.last_recovered_round(),
        rec.restore_verifications,
        rec.cross_epoch_catch_ups,
        rec.epoch_transitions,
        storage.to_json(),
        net.to_json(),
        ingress.join(","),
    );
    let _ = std::io::stdout().flush();

    if let Some(path) = &opts.trace_out {
        let events = core.telemetry().recorder.events();
        let trace = icc_telemetry::chrome_trace(&events);
        // Same invariant the simulator scenario asserts: one "ph":"i"
        // instant per recorded flight-recorder event.
        let instants = trace.matches("\"ph\":\"i\"").count();
        assert_eq!(
            instants,
            events.len(),
            "trace instants must match flight-recorder events"
        );
        write_durable(path, trace.as_bytes())
            .unwrap_or_else(|e| usage(&format!("--trace-out {path}: {e}")));
        eprintln!(
            "replica {}: trace written to {path} ({instants} events)",
            opts.me
        );
    }
    if let Some(path) = &opts.metrics_out {
        // The exact render `/metrics` serves live — same names, same
        // coverage, one code path.
        let text = render_metrics(&node.inner, &net, &node.links.snapshot());
        write_durable(path, text.as_bytes())
            .unwrap_or_else(|e| usage(&format!("--metrics-out {path}: {e}")));
        eprintln!("replica {}: metrics written to {path}", opts.me);
    }
    if let Some(server) = admin.as_mut() {
        server.stop();
    }
    if let Some(why) = node.core().halted() {
        eprintln!("replica {}: halted, store failed: {why}", opts.me);
        std::process::exit(EXIT_HALTED);
    }
}
