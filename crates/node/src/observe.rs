//! The observability plane: one Prometheus render shared by `/metrics`
//! and `--metrics-out`, and the [`ObservedNode`] wrapper whose publish
//! tick refreshes what the admin endpoints serve.

use icc_core::events::NodeEvent;
use icc_core::storage::StorageCounters;
use icc_gossip::{GossipMessage, GossipNode};
use icc_net::{LinkGauges, NetCounters, NetCountersSnapshot, PeerLinkSnapshot};
use icc_sim::{Context, Node};
use icc_telemetry::{
    chrome_trace_tagged, evaluate_health, AdminBuilder, AdminResponse, AdminServer, HealthInputs,
    PeerLinkStatus, PromSnapshot, StatusReport,
};
use icc_types::{Command, NodeIndex, SimDuration};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Timer tag reserved for the admin publisher. The gossip layer owns
/// the small tags (core round timers, sweep, catch-up, liveness) and
/// treats unknown tags as a bug, so the wrapper *intercepts* this one —
/// it is never delegated.
const ADMIN_TAG: u64 = u64::MAX;

/// Publish cadence (also the anomaly tick granularity).
const PUBLISH_PERIOD: SimDuration = SimDuration::from_millis(250);

/// The snapshot the admin endpoints serve. Swapped wholesale by the
/// publisher tick; handlers only ever clone strings out of the mutex,
/// so a scrape can never block (or observe a half-written) round.
pub(crate) struct Published {
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

/// The published snapshot, even if a handler panicked holding it: every
/// write swaps the whole value, so a poisoned lock still holds a whole
/// snapshot.
fn read(slot: &Mutex<Published>) -> MutexGuard<'_, Published> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Starts the one-thread admin server on `127.0.0.1:port`, serving
/// `/metrics`, `/status`, `/health` and `/trace` out of `publish`.
pub(crate) fn serve_admin(
    publish: &Arc<Mutex<Published>>,
    port: u16,
) -> std::io::Result<AdminServer> {
    let [metrics, status, health, trace] = [0; 4].map(|_| Arc::clone(publish));
    AdminBuilder::new()
        .route("/metrics", move || {
            AdminResponse::text(read(&metrics).metrics.clone())
        })
        .route("/status", move || {
            AdminResponse::json(read(&status).status.clone())
        })
        .route("/health", move || {
            let slot = read(&health);
            let code = if slot.healthy { 200 } else { 503 };
            AdminResponse::json_status(code, slot.health.clone())
        })
        .route("/trace", move || {
            AdminResponse::json(read(&trace).trace.clone())
        })
        .serve(&format!("127.0.0.1:{port}"))
}

/// One Prometheus render of everything the replica knows, shared by
/// the live `/metrics` endpoint and the exit-time `--metrics-out`
/// export so the two can never disagree on names or coverage. All
/// counter-set families go through `fields()` — a counter added to any
/// set shows up here without touching this function.
pub(crate) fn render_metrics(
    node: &GossipNode,
    net: &NetCountersSnapshot,
    links: &[PeerLinkSnapshot],
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
    // render cannot drift when a counter is added (the REPORT line
    // iterates the same fields()).
    let families = [
        (
            "icc_replica_net",
            "TCP mesh transport counters (icc-net NetCounters).",
            "field",
            net.fields(),
        ),
        (
            "icc_replica_pool",
            "Artifact pool counters (verification economy).",
            "field",
            core.pool().stats().fields(),
        ),
        (
            "icc_replica_gossip",
            "Dissemination counters (relay fan-out, dedup, hop depths).",
            "field",
            gossip.fields(),
        ),
        (
            "icc_replica_storage",
            "WAL + checkpoint storage counters.",
            "field",
            core.storage_counters().fields(),
        ),
        (
            "icc_replica_anomalies",
            "Anomaly detector emissions by class.",
            "class",
            core.telemetry().anomalies.counts().fields(),
        ),
        (
            "icc_replica_recovery",
            "Crash-recovery counters (restarts, catch-up traffic).",
            "field",
            core.recovery_stats().fields(),
        ),
        (
            "icc_replica_ingress",
            "Client commands sent to next leaders, received, refused, dropped.",
            "field",
            core.ingress_stats().fields(),
        ),
    ];
    for (name, help, label, fields) in &families {
        snap.counter_series(name, help, label, fields);
    }
    // Per-peer link gauges.
    let peer_labels: Vec<String> = links.iter().map(|l| l.peer.to_string()).collect();
    type LinkGauge = (&'static str, &'static str, fn(&PeerLinkSnapshot) -> i64);
    let link_gauges: [LinkGauge; 5] = [
        (
            "icc_replica_link_connected",
            "Outbound link established (1) or down (0), per peer.",
            |l| i64::from(l.connected),
        ),
        (
            "icc_replica_link_queue_depth",
            "Frames waiting in the bounded send queue, per peer.",
            |l| l.queue_depth as i64,
        ),
        (
            "icc_replica_link_backoff_ms",
            "Current reconnect backoff in ms (0 while connected), per peer.",
            |l| l.backoff_ms as i64,
        ),
        (
            "icc_replica_link_reconnects",
            "Completed reconnections, per peer.",
            |l| l.reconnects as i64,
        ),
        (
            "icc_replica_link_last_frame_age_us",
            "Age of the last valid inbound frame in us (-1 = never), per peer.",
            |l| match l.last_frame_age_us {
                u64::MAX => -1,
                age => age as i64,
            },
        ),
    ];
    for (name, help, value) in link_gauges {
        let series: Vec<(&str, i64)> = peer_labels
            .iter()
            .zip(links)
            .map(|(s, l)| (s.as_str(), value(l)))
            .collect();
        snap.gauge_series(name, help, "peer", &series);
    }
    snap.render()
}

/// The driven node with the observability plane attached: delegates
/// every event to the inner [`GossipNode`] and, on its own timer tag,
/// publishes a fresh metrics/status/health/trace snapshot for the
/// admin endpoints — plus feeds the anomaly detector the things only
/// the `drive` loop can see (peer liveness transitions, fsync latency
/// deltas, wall-clock ticks for silent stalls).
pub(crate) struct ObservedNode {
    pub(crate) inner: GossipNode,
    /// `None` without an admin port: the publisher timer is never
    /// armed and the wrapper is pure delegation.
    pub(crate) publish: Option<Arc<Mutex<Published>>>,
    pub(crate) links: Arc<LinkGauges>,
    pub(crate) net: Arc<NetCounters>,
    /// UNIX µs when `drive` started — the cross-process clock anchor.
    pub(crate) clock_anchor_us: u64,
    /// The last `/health` inputs: its thresholds, and when the
    /// committed round last advanced.
    pub(crate) health: HealthInputs,
    /// Previous storage snapshot, for fsync latency deltas.
    pub(crate) prev_storage: StorageCounters,
}

impl ObservedNode {
    /// One publish tick: feed the detector, re-evaluate health, render
    /// every endpoint body, swap the published snapshot.
    fn publish_tick(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>) {
        let Some(publish) = &self.publish else {
            return;
        };
        let now_us = ctx.now().as_micros();
        let me = ctx.me().get();
        let telemetry = self.inner.core_mut().telemetry_mut();

        // Peer liveness transitions → flap detector (via the funnel,
        // so flaps also land in the span ring).
        for p in (0..ctx.n() as u32).filter(|&p| p != me) {
            telemetry.observe_peer(p, ctx.peer_up(NodeIndex::new(p)), now_us);
        }
        // Fsync latency delta → spike detector (mean over the tick's
        // fsyncs; individual latencies are not retained by the WAL).
        let storage = self.inner.core().storage_counters();
        let dn = storage.fsyncs.saturating_sub(self.prev_storage.fsyncs);
        let dus = storage
            .fsync_total_us
            .saturating_sub(self.prev_storage.fsync_total_us);
        let telemetry = self.inner.core_mut().telemetry_mut();
        if let Some(mean_us) = dus.checked_div(dn) {
            telemetry.observe_fsync(now_us, mean_us);
        }
        self.prev_storage = storage;
        // Clock tick → silent-stall detector.
        telemetry.tick(now_us);

        let core = self.inner.core();
        let links = self.links.snapshot();
        let committed = core.committed_round().get();
        // `/health`: progress is a committed round above last tick's.
        let h = &mut self.health;
        if committed > h.committed_round {
            h.last_progress_us = now_us;
        }
        h.now_us = now_us;
        h.committed_round = committed;
        h.peers_up = links.iter().filter(|l| l.connected).count() as u64;
        h.peers_total = links.len() as u64;
        h.wal_io_errors = storage.io_errors;
        h.storage_halted = core.halted().is_some();
        let metrics = render_metrics(&self.inner, &self.net.snapshot(), &links);
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
        let verdict = evaluate_health(&self.health);
        let trace = chrome_trace_tagged(
            &core.telemetry().recorder.events(),
            me,
            self.clock_anchor_us,
        );
        *read(publish) = Published {
            metrics,
            status,
            health: verdict.to_json(&self.health),
            healthy: verdict.healthy,
            trace,
        };
    }
}

/// The wall-clock `drive` loop never crashes, restarts or departs a node, so
/// those hooks keep their defaults.
impl Node for ObservedNode {
    type Msg = GossipMessage;
    type External = Command;
    type Output = NodeEvent;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.inner.on_start(ctx);
        if self.publish.is_some() {
            self.health.last_progress_us = ctx.now().as_micros();
            self.publish_tick(ctx);
            ctx.set_timer(PUBLISH_PERIOD, ADMIN_TAG);
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
            ctx.set_timer(PUBLISH_PERIOD, ADMIN_TAG);
        } else {
            self.inner.on_timer(ctx, tag);
        }
    }

    fn on_external(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, input: Command) {
        self.inner.on_external(ctx, input);
    }
}
