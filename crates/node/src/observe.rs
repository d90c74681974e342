//! The observability plane: the replica's counter families and their
//! one Prometheus render (`/metrics`, both `--metrics-out`s, the
//! `REPORT` line's families), and the [`ObservedNode`] wrapper whose
//! publish tick refreshes what the admin endpoints serve.

use icc_core::cluster::CoreAccess;
use icc_core::events::NodeEvent;
use icc_core::storage::StorageCounters;
use icc_gossip::{GossipMessage, GossipNode};
use icc_net::{LinkGauges, NetCounters, NetCountersSnapshot};
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

/// One counter family of a replica's export: `/metrics` serves it as
/// `icc_replica_<key>{<label>="<counter>"}`, the `REPORT` line as
/// `"<key>":{"<counter>":<value>,…}`.
#[derive(Debug)]
pub struct Family {
    /// The `REPORT` key, and the `/metrics` name after `icc_replica_`.
    pub key: &'static str,
    /// The label the family's counters go under.
    pub label: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// `(counter, value)`, in its counter set's `fields()` order.
    pub fields: Vec<(&'static str, u64)>,
}

/// Every counter family a replica can export, in export order: key,
/// label, help.
pub(crate) const FAMILIES: [(&str, &str, &str); 7] = [
    ("net", "field", "TCP mesh transport counters."),
    ("pool", "field", "Artifact pool counters."),
    ("gossip", "field", "Dissemination counters."),
    ("storage", "field", "WAL and checkpoint counters."),
    ("anomalies", "class", "Anomalies detected, by class."),
    ("recovery", "field", "Crash-recovery counters."),
    ("ingress", "field", "Client command ingress counters."),
];

/// The per-peer link gauges: name after `icc_replica_link_`, help.
const LINK_GAUGES: [(&str, &str); 5] = [
    ("connected", "Outbound link up (1) or down (0)."),
    ("queue_depth", "Frames waiting in the send queue."),
    ("backoff_ms", "Reconnect backoff, 0 while connected."),
    ("reconnects", "Completed reconnections."),
    ("last_frame_age_us", "Last inbound frame's age, -1: never."),
];

/// The counter families of `node`, read now: each counter set's
/// `fields()` is the family, so a counter added to a set shows up in
/// `/metrics` and `REPORT` without touching either. `net` is the TCP
/// mesh's, absent in the simulator; `gossip` is absent under ICC2,
/// whose node keeps none.
pub fn families<N: CoreAccess>(node: &N, net: Option<&NetCountersSnapshot>) -> Vec<Family> {
    let core = node.core();
    let fields = [
        net.map(NetCountersSnapshot::fields),
        Some(core.pool().stats().fields()),
        node.gossip_counters().map(|g| g.fields()),
        Some(core.storage_counters().fields()),
        Some(core.telemetry().anomalies.counts().fields()),
        Some(core.recovery_stats().fields()),
        Some(core.ingress_stats().fields()),
    ];
    let known = FAMILIES.iter().zip(fields);
    known
        .filter_map(|(&(key, label, help), fields)| {
            Some(Family {
                key,
                label,
                help,
                fields: fields?,
            })
        })
        .collect()
}

/// The one Prometheus render of a replica: its consensus counters,
/// gauges, footprint and latency histograms, then `families`, then one
/// gauge family per link field when `links` is not empty. The live
/// `/metrics`, `replica --metrics-out` and `scenario --metrics-out`
/// all write it, so a simulated node and a process export one name set.
pub fn render_metrics<N: CoreAccess>(
    node: &N,
    families: &[Family],
    links: &[PeerLinkStatus],
) -> String {
    let core = node.core();
    let m = &core.telemetry().metrics;
    let mut snap = PromSnapshot::new();
    let counters = [
        ("rounds_entered", m.rounds_entered.get()),
        ("blocks_proposed", m.blocks_proposed.get()),
        ("blocks_committed", m.blocks_committed.get()),
        ("commands_committed", m.commands_committed.get()),
        ("catch_ups_applied", m.catch_ups_applied.get()),
    ];
    for (name, value) in counters {
        let help = format!("{} by this replica.", name.replace('_', " "));
        snap.counter(&format!("icc_replica_{name}_total"), &help, value);
    }
    let gauges = [
        ("current_round", core.current_round().get()),
        ("committed_round", core.committed_round().get()),
        ("finalized_frontier", core.finalized_frontier().get()),
        ("epoch", core.current_epoch()),
    ];
    for (name, value) in gauges {
        let help = format!("This replica's {}.", name.replace('_', " "));
        snap.gauge(&format!("icc_replica_{name}"), &help, value as i64);
    }
    // Memory: entries held per collection (`icc_pool_blocks`,
    // `icc_gossip_dedup_ids`, …), each bounded by the rounds in flight.
    for (name, held) in node.footprint() {
        let help = "Entries held in this in-memory collection.";
        snap.gauge(&format!("icc_{name}"), help, held as i64);
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
    for f in families {
        let name = format!("icc_replica_{}", f.key);
        snap.counter_series(&name, f.help, f.label, &f.fields);
    }
    // Per-peer link gauges, one family per `LINK_GAUGES` row.
    let rows: Vec<(String, [i64; 5])> = links
        .iter()
        .map(|l| {
            let age = l.last_frame_age_us.try_into().unwrap_or(-1);
            let values = [l.queue_depth, l.backoff_ms, l.reconnects].map(|v| v as i64);
            let [depth, backoff, reconnects] = values;
            let row = [i64::from(l.connected), depth, backoff, reconnects, age];
            (l.peer.to_string(), row)
        })
        .collect();
    for (i, (name, help)) in LINK_GAUGES.iter().enumerate().filter(|_| !links.is_empty()) {
        let series: Vec<(&str, i64)> = rows.iter().map(|(p, row)| (p.as_str(), row[i])).collect();
        snap.gauge_series(&format!("icc_replica_link_{name}"), help, "peer", &series);
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
            peers: links,
            anomalies: core.telemetry().recent_anomalies(),
        }
        .to_json();
        let verdict = evaluate_health(&self.health);
        *read(publish) = Published {
            metrics: self.metrics(),
            status,
            health: verdict.to_json(&self.health),
            healthy: verdict.healthy,
            trace: self.trace(),
        };
    }

    /// The `/metrics` body, which `--metrics-out` writes at exit.
    pub(crate) fn metrics(&self) -> String {
        let net = self.net.snapshot();
        let families = families(&self.inner, Some(&net));
        render_metrics(&self.inner, &families, &self.links.snapshot())
    }

    /// The `/trace` body, which `--trace-out` writes at exit: the
    /// flight-recorder ring, clock-anchored so that exit files stitch
    /// like live ones.
    pub(crate) fn trace(&self) -> String {
        let core = self.inner.core();
        let events = core.telemetry().recorder.events();
        chrome_trace_tagged(&events, core.index().get(), self.clock_anchor_us)
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
