//! The four workloads, and what turns a finished run into the verdict
//! and the metric lists.

use crate::measure::{EndToEnd, Recorder};
use crate::os;
use crate::simw::{self, SimWorkload};
use crate::stats::{quantile, LogHist};
use crate::sut::{self, Counters, Fault, Protocol, ReplicaReport, TraceShared};
use crate::tcp::{self, Load, Payload, TcpWorkload};
use crate::trace::{self, Merged};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// What the load generator did inside the window.
pub struct LoadStats {
    pub offered: u64,
    pub generator_cpu_ns: u64,
    /// Submit time minus due time of every command offered.
    pub late_us: Vec<f64>,
}

/// Process-level samples of one measured window.
pub struct WindowSample {
    /// Process CPU time spent inside the window.
    pub cpu_ns: u64,
    pub wall_s: f64,
    pub rss_start_kb: u64,
    pub rss_end_kb: u64,
    pub rss_mark_kb: Option<u64>,
    pub rss_mark_cmds: u64,
    pub load: LoadStats,
    /// TCP only: `NetCounters` summed over replicas at the window's
    /// open and close.
    pub net: Option<(Counters, Counters)>,
}

pub struct SimExtras {
    pub engine_events: u64,
    pub cpu_ns: u64,
    /// Mean injected one-way delay, µs.
    pub delta_us: f64,
    pub restarting: Vec<u32>,
    pub forgers: Vec<u32>,
}

/// Everything a run produced.
pub struct RunOutcome {
    pub rec: Recorder,
    pub reports: Vec<ReplicaReport>,
    pub window: WindowSample,
    pub setup_s: f64,
    pub protocol: Option<Protocol>,
    pub sim: Option<SimExtras>,
    /// `(open_ms, restore_ms, records, verifications)` of reopening
    /// replica 0's data directory.
    pub restore: Option<(f64, f64, u64, u64)>,
    pub loopback_rtt_us: Option<f64>,
    pub trace_shared: Option<Arc<TraceShared>>,
    pub reference_cpu_ms_per_round: Option<f64>,
    /// TCP only: `NetCounters` summed over replicas when they stopped.
    pub net_final: Option<Counters>,
}

impl RunOutcome {
    pub fn new(rec: Recorder, reports: Vec<ReplicaReport>, window: WindowSample) -> RunOutcome {
        RunOutcome {
            rec,
            reports,
            window,
            setup_s: 0.0,
            protocol: None,
            sim: None,
            restore: None,
            loopback_rtt_us: None,
            trace_shared: None,
            reference_cpu_ms_per_round: None,
            net_final: None,
        }
    }
}

enum Kind {
    Tcp(TcpWorkload),
    Sim(SimWorkload),
}

fn workload(name: &str) -> Option<Kind> {
    Some(match name {
        // Rounds are ε-bound, so the box mostly idles: latency is
        // wake-ups, gossip hops, timers and fsync count × 250 µs.
        "tcp4_paced" => Kind::Tcp(TcpWorkload {
            delta_bnd_ms: 100,
            epsilon_ms: 10,
            load: Load::Open { rate_per_s: 400 },
            payload: Payload::Ledger,
            warmup_cmds: 240,
            rss_mark_cmds_per_s: 200.0,
        }),
        // CPU- and byte-bound: encode, frame/CRC, block hash, per-peer
        // copies, WAL and checkpoint bytes.
        "tcp4_bulk" => Kind::Tcp(TcpWorkload {
            delta_bnd_ms: 100,
            epsilon_ms: 0,
            load: Load::Closed { outstanding: 32 },
            payload: Payload::Kv {
                value_len: 16 << 10,
            },
            warmup_cmds: 800,
            rss_mark_cmds_per_s: 250.0,
        }),
        // No sockets, no disk: share verification, quorum early-stop,
        // dedup and relay at n = 40 on the bounded-degree overlay.
        "sim40_quorum" => Kind::Sim(SimWorkload {
            n: 40,
            delta_us: (9_000, 11_000),
            delta_bnd_ms: 30,
            rate_per_s: 200,
            submit_to_all: true,
            sim_s_per_s: 0.6,
            warmup_sim_s: 1.0,
            drain_sim_s: 5.0,
            faults: Vec::new(),
            forgers: Vec::new(),
            restarting: Vec::new(),
            outage_s: 0.0,
            outage_every_s: 0.0,
            slow_links: Vec::new(),
            slow_extra_us: 0,
            latency_limit_s: 20.0,
            rss_mark_cmds_per_s: 60.0,
        }),
        // The same pool, gossip and storage code used the other way
        // round: rejects, retries, restore, catch-up.
        "sim13_faults" => Kind::Sim(SimWorkload {
            n: 13,
            delta_us: (9_000, 11_000),
            delta_bnd_ms: 30,
            rate_per_s: 100,
            submit_to_all: false,
            sim_s_per_s: 6.0,
            warmup_sim_s: 10.0,
            drain_sim_s: 20.0,
            faults: vec![
                (12, Fault::Crash),
                (11, Fault::Equivocate),
                (10, Fault::WithholdFinalization),
            ],
            forgers: vec![5, 6, 7, 8, 10, 11],
            restarting: vec![9],
            outage_s: 3.0,
            outage_every_s: 12.0,
            slow_links: vec![(0, 1), (2, 3), (4, 9)],
            slow_extra_us: 30_000,
            latency_limit_s: 20.0,
            rss_mark_cmds_per_s: 300.0,
        }),
        _ => return None,
    })
}

/// A finished run, ready to print.
pub struct Finished {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub problems: Vec<String>,
    /// Regime figures worth a line on stderr.
    pub notes: Vec<String>,
}

/// Runs `name` once and evaluates it.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    tmp: &Path,
    out_dir: &Path,
) -> Result<Finished, String> {
    let kind = workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let outcome = match &kind {
        Kind::Tcp(w) => tcp::run(w, seed, seconds, traced, tmp).map_err(|e| e.to_string())?,
        Kind::Sim(w) => simw::run(w, seed, seconds, traced),
    };
    // The window's length on the cluster's own clock.
    let window_s = match &kind {
        Kind::Tcp(_) => seconds,
        Kind::Sim(w) => w.sim_s_per_s * seconds,
    };
    finish(name, seed, outcome, window_s, traced, out_dir)
}

fn finish(
    name: &str,
    seed: u64,
    mut o: RunOutcome,
    window_s: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<Finished, String> {
    let mut problems = o.rec.check_chains();
    let (attempted, failed, uncommitted) = o.rec.attempted_failed();
    if uncommitted > 0 {
        problems.push(format!(
            "{uncommitted} of {attempted} commands not committed at every honest replica by the drain deadline"
        ));
    }
    let e2e = o.rec.end_to_end();
    let checked = checked_reports(&o);

    // State machines: supply conserved, digests and applied counts equal.
    for r in &checked {
        if let Some(l) = r.ledger {
            if l.supply != l.minted {
                problems.push(format!(
                    "replica {}: ledger supply {} != minted {}",
                    r.index, l.supply, l.minted
                ));
            }
        }
    }
    // A replica that fell `catch_up_threshold` rounds behind applied a
    // certified package and skipped the rounds in between: the protocol
    // working as designed, and the commands of those rounds count as
    // delivered to it. The workspace's `Replica` has no state sync, so
    // its state machine is left out of the comparison.
    let synced = o.rec.state_synced();
    let compared: Vec<_> = checked
        .iter()
        .filter(|r| !synced.iter().any(|(node, _)| *node == r.index))
        .collect();
    if compared.len() < 2 {
        problems.push(format!(
            "only {} replicas never state-synced: no two final states to compare",
            compared.len()
        ));
    }
    if let Some(first) = compared.first() {
        for r in &compared[1..] {
            if r.state_digest != first.state_digest || r.applied_cmds != first.applied_cmds {
                problems.push(format!(
                    "replicas {} and {} differ in final state ({} vs {} commands applied)",
                    first.index, r.index, first.applied_cmds, r.applied_cmds
                ));
            }
        }
    }
    let Some(rss_mark_kb) = o.window.rss_mark_kb else {
        return Err(format!(
            "the run never completed {} measured commands (the rss mark); it completed {}",
            o.window.rss_mark_cmds,
            o.rec.measured_done()
        ));
    };
    if let Some(sim) = &o.sim {
        let frontier = checked.iter().map(|r| r.committed_round).max().unwrap_or(0);
        for &node in &sim.restarting {
            let r = &o.reports[node as usize];
            if r.counters.get("recovery.catch_up_applied") == 0 {
                problems.push(format!("restarted node {node} applied no catch-up package"));
            }
            // Which peer a restarted node asks first depends on whose
            // advert arrives first. With 6 of its 11 live peers
            // forging, eight catch-ups without one rejection happen by
            // chance once in 600 runs; otherwise forged packages are
            // being accepted. (Shorter runs have too few catch-ups to
            // tell.)
            if !sim.forgers.is_empty()
                && r.counters.get("recovery.catch_up_applied") >= 8
                && r.counters.get("recovery.catch_up_rejected") == 0
            {
                problems.push(format!(
                    "restarted node {node} rejected no forged catch-up package in {} catch-ups",
                    r.counters.get("recovery.catch_up_applied")
                ));
            }
            if frontier.saturating_sub(r.committed_round) > 20 {
                problems.push(format!(
                    "restarted node {node} did not catch up: round {} vs {frontier}",
                    r.committed_round
                ));
            }
        }
    }

    let cpu_window_ns = o.window.cpu_ns;
    let cpu_utilisation = cpu_window_ns as f64 / 1e9 / (o.window.wall_s * os::nproc() as f64);
    let mut notes = vec![format!(
        "{name} seed {seed}: {} rounds, {} commands, cpu utilisation {:.2}, wall {:.1} s",
        e2e.rounds, attempted, cpu_utilisation, o.window.wall_s
    )];
    for (node, rounds) in &synced {
        notes.push(format!(
            "replica {node} state-synced over {rounds} rounds (final state not compared)"
        ));
    }

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if !traced {
        let values = [
            o.setup_s,
            e2e.cmd_throughput,
            e2e.latency_p50_ms,
            e2e.latency_p90_ms,
            e2e.round_p50_ms,
            e2e.wire_kb_per_round,
            rss_mark_kb as f64 / 1024.0,
        ];
        for ((def, _), v) in crate::metrics::END_TO_END.iter().zip(values) {
            metrics.push((def.name.to_string(), v, def.unit));
        }
    } else {
        let layer = per_layer(&o, &e2e, window_s, cpu_utilisation);
        for def in crate::metrics::PER_LAYER {
            let v = layer
                .get(def.name)
                .copied()
                .ok_or_else(|| format!("per-layer metric `{}` was not computed", def.name))?;
            metrics.push((def.name.to_string(), v, def.unit));
        }
        let data: Vec<_> = o
            .reports
            .iter_mut()
            .filter_map(|r| r.trace.take())
            .collect();
        std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
        let path = out_dir.join(format!("trace-{name}-{seed}.json"));
        let spans = trace::write_chrome_trace(&path, &data).map_err(|e| e.to_string())?;
        notes.push(format!("{spans} spans written to {}", path.display()));
    }
    Ok(Finished {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        notes,
    })
}

/// Reports of the replicas that are honest and never crash.
fn checked_reports(o: &RunOutcome) -> Vec<&ReplicaReport> {
    o.reports
        .iter()
        .filter(|r| o.rec.is_checked(r.index))
        .collect()
}

fn hist_of(m: &Merged, names: &[&str]) -> LogHist {
    let mut h = LogHist::default();
    for n in names {
        h.merge(&m.agg(n).hist);
    }
    h
}

/// The per-layer numbers of a traced run.
fn per_layer(
    o: &RunOutcome,
    e2e: &EndToEnd,
    window_s: f64,
    cpu_utilisation: f64,
) -> BTreeMap<&'static str, f64> {
    let is_tcp = o.sim.is_none();
    let cpu_window_ns = o.window.cpu_ns;
    let checked = checked_reports(o);
    // Layer counters over the window, summed over the checked replicas.
    let mut wc = Counters::default();
    for r in &checked {
        if let Some((open, close)) = &r.window {
            wc.add(&close.since(open));
        }
    }
    // Whole-run recovery counters over every node (the restarting node
    // is not a checked one).
    let mut all = Counters::default();
    for r in &o.reports {
        all.add(&r.counters);
    }
    let merged = Merged::from(checked.iter().filter_map(|r| r.trace.as_ref()));
    let replicas = checked.len() as f64;
    // Replica-rounds: the unit of every "per round" figure below.
    let rr = (wc.get("core.committed_round") as f64).max(1.0);
    let per_rr = |v: f64| v / rr;
    let cnt = |name: &str| wc.get(name) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let types = o
        .trace_shared
        .as_ref()
        .map(|s| sut::probe_types(s, |kind| merged.count(kind) as f64))
        .unwrap_or_default();
    let crypto = o
        .protocol
        .as_ref()
        .map(sut::probe_crypto)
        .unwrap_or_default();

    let delta_ms = match (&o.sim, o.loopback_rtt_us) {
        (Some(s), _) => s.delta_us / 1e3,
        (None, Some(rtt)) => rtt / 2.0 / 1e3,
        (None, None) => 0.0,
    };
    let handler_names = [
        "node.on_start",
        "node.on_message",
        "node.on_timer",
        "node.on_external",
        "node.on_restart",
    ];
    let handlers: u64 = handler_names.iter().map(|n| merged.agg(n).count).sum();
    let handler_total_ns: u64 = handler_names.iter().map(|n| merged.agg(n).total_ns).sum();
    let handler_self_ns: u64 = handler_names.iter().map(|n| merged.agg(n).self_ns).sum();
    let handler_hist = hist_of(&merged, &handler_names);
    // What a busy share is a share of: each replica thread's wall time
    // on TCP, the single thread's CPU time in the simulator.
    let busy_base_ns = if is_tcp {
        o.window.wall_s * 1e9 * replicas
    } else {
        cpu_window_ns as f64
    };

    let pushes = merged.count("msg.push") as f64;
    let send_ns = merged.agg("net.send").total_ns + merged.agg("net.broadcast").total_ns;
    let persist = merged.agg("storage.persist");
    let sync = merged.agg("wal.sync");
    let apply = merged.agg("replica.apply");
    // Messages a replica encodes per round: every frame on TCP; in the
    // simulator only the artifacts it originates (its three shares and
    // the occasional proposal), since messages travel as objects there.
    let encoded_per_rr = if is_tcp {
        per_rr(all_window(o, "net.frames_sent"))
    } else {
        4.0
    };

    let accepted = cnt("pool.batched_shares")
        + (cnt("pool.verify_calls") - cnt("pool.batch_verifies"))
        + cnt("pool.verify_cache_hits");
    let wasted = cnt("pool.duplicates_dropped")
        + cnt("pool.shares_skipped_after_quorum")
        + cnt("pool.rejected");

    // The per-round budget table: probe cost × boundary count.
    let cpu_ns_per_rr = cpu_window_ns as f64 / rr;
    let net_bytes_per_rr = per_rr(all_window(o, "net.bytes_sent"));
    // Each replica hashes each block body once; a body crosses the wire
    // to the other n − 1 replicas and dominates the bytes when it matters.
    let peers = o.protocol.as_ref().map_or(1.0, |p| (p.n - 1) as f64);
    let block_bytes_per_rr = e2e.wire_kb_per_round * 1e3 / peers;
    let explained_ns = crypto.share_verify_ns
        * per_rr(cnt("pool.verify_calls") - cnt("pool.batch_verifies"))
        + crypto.batch_verify_ns_per_share * per_rr(cnt("pool.batched_shares"))
        + crypto.sign_ns * 3.0
        + crypto.threshold_combine_ns
        + crypto.multisig_aggregate_ns * 2.0
        + types.encode_ns_per_msg * encoded_per_rr
        + if is_tcp {
            types.decode_ns_per_msg * per_rr(all_window(o, "net.frames_recv"))
                + 2.0 * ratio(net_bytes_per_rr, types.frame_crc_mb_s) * 1e3
        } else {
            0.0
        }
        + ratio(block_bytes_per_rr, types.block_hash_mb_s) * 1e3
        + per_rr(persist.total_ns.saturating_sub(sync.total_ns) as f64)
        + per_rr(apply.total_ns as f64);

    let (open_ms, restore_ms, records, verifications) = o.restore.unwrap_or((0.0, 0.0, 0, 0));
    let recovery_applied = all.get("recovery.catch_up_applied") as f64;
    let mut late = o.window.load.late_us.clone();
    let offered = o.window.load.offered as f64;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("types.encode_ns_per_msg", types.encode_ns_per_msg);
    m.insert("types.decode_ns_per_msg", types.decode_ns_per_msg);
    m.insert("types.encode_mb_s", types.encode_mb_s);
    m.insert("types.frame_crc_mb_s", types.frame_crc_mb_s);
    m.insert("types.block_hash_mb_s", types.block_hash_mb_s);
    m.insert("crypto.sign_ns", crypto.sign_ns);
    m.insert("crypto.verify_ns", crypto.verify_ns);
    m.insert("crypto.share_verify_ns", crypto.share_verify_ns);
    m.insert(
        "crypto.batch_verify_ns_per_share",
        crypto.batch_verify_ns_per_share,
    );
    m.insert("crypto.threshold_combine_ns", crypto.threshold_combine_ns);
    m.insert("crypto.multisig_aggregate_ns", crypto.multisig_aggregate_ns);
    m.insert("crypto.sha256_mb_s", crypto.sha256_mb_s);
    m.insert(
        "pool.verify_calls_per_round",
        per_rr(cnt("pool.verify_calls")),
    );
    m.insert(
        "pool.cache_hit_ratio",
        ratio(
            cnt("pool.verify_cache_hits"),
            cnt("pool.verify_cache_hits") + cnt("pool.verify_calls"),
        ),
    );
    m.insert(
        "pool.duplicates_per_round",
        per_rr(cnt("pool.duplicates_dropped")),
    );
    m.insert(
        "pool.skipped_after_quorum_per_round",
        per_rr(cnt("pool.shares_skipped_after_quorum")),
    );
    m.insert(
        "pool.batched_shares_per_round",
        per_rr(cnt("pool.batched_shares")),
    );
    m.insert("pool.rejected_per_round", per_rr(cnt("pool.rejected")));
    m.insert("pool.useful_ratio", ratio(accepted, accepted + wasted));
    m.insert(
        "consensus.round_over_delta",
        ratio(e2e.round_p50_ms, delta_ms),
    );
    m.insert(
        "consensus.finalize_over_delta",
        ratio(
            quantile(
                &mut o
                    .rec
                    .finalize_us
                    .iter()
                    .map(|&v| v as f64 / 1e3)
                    .collect::<Vec<_>>(),
                0.5,
            )
            .unwrap_or(0.0),
            delta_ms,
        ),
    );
    m.insert(
        "consensus.leader_won_ratio",
        ratio(o.rec.rounds_leader_won as f64, o.rec.rounds_finished as f64),
    );
    m.insert(
        "consensus.cmds_per_block",
        ratio(o.rec.cmds_in_blocks as f64, o.rec.blocks_committed as f64),
    );
    m.insert("consensus.max_commit_gap_ms", o.rec.max_commit_gap_ms());
    m.insert("consensus.rounds_per_s", e2e.rounds as f64 / window_s);
    m.insert("node.handlers_per_round", per_rr(handlers as f64));
    m.insert("node.handler_us_p50", handler_hist.quantile(0.5) / 1e3);
    m.insert("node.handler_us_p99", handler_hist.quantile(0.99) / 1e3);
    m.insert(
        "node.handler_self_us_per_round",
        per_rr(handler_self_ns as f64) / 1e3,
    );
    m.insert(
        "node.busy_share",
        ratio(handler_total_ns as f64, busy_base_ns),
    );
    m.insert(
        "gossip.adverts_per_round",
        per_rr(merged.count("msg.advert") as f64),
    );
    m.insert(
        "gossip.requests_per_round",
        per_rr(merged.count("msg.request") as f64),
    );
    m.insert("gossip.pushes_per_round", per_rr(pushes));
    m.insert(
        "gossip.pushes_relayed_per_round",
        per_rr(cnt("gossip.pushes_relayed")),
    );
    m.insert(
        "gossip.dedup_ratio",
        ratio(cnt("gossip.pushes_deduped"), pushes),
    );
    m.insert(
        "gossip.mean_relay_hops",
        ratio(
            cnt("gossip.relay_hops_total"),
            cnt("gossip.relayed_first_seen"),
        ),
    );
    m.insert(
        "gossip.retries_per_round",
        per_rr(merged.count("msg.request_retry") as f64),
    );
    m.insert(
        "net.frames_per_round",
        per_rr(all_window(o, "net.frames_sent")),
    );
    m.insert(
        "net.bytes_per_cmd",
        ratio(
            all_window(o, "net.bytes_sent"),
            // Blocks are counted at the reference replica only.
            o.rec.cmds_in_blocks as f64,
        ),
    );
    m.insert("net.send_us_per_round", per_rr(send_ns as f64) / 1e3);
    m.insert("net.send_queue_drops", net_total(o, "net.send_queue_drops"));
    m.insert("net.reconnects", net_total(o, "net.reconnects"));
    m.insert("net.decode_errors", net_total(o, "net.decode_errors"));
    m.insert("net.loopback_rtt_us_p50", o.loopback_rtt_us.unwrap_or(0.0));
    let wakeups = merged.agg("rt.wakeup_late").hist;
    m.insert("runtime.wakeup_us_p50", wakeups.quantile(0.5) / 1e3);
    m.insert("runtime.wakeup_us_p99", wakeups.quantile(0.99) / 1e3);
    m.insert(
        "runtime.timer_fires_per_round",
        per_rr(merged.count("rt.timer_fire") as f64),
    );
    m.insert(
        "runtime.events_per_round",
        per_rr(if is_tcp {
            merged.count("rt.event") as f64
        } else {
            handlers as f64
        }),
    );
    m.insert(
        "runtime.idle_share",
        if is_tcp {
            ratio(merged.agg("rt.recv_wait").total_ns as f64, busy_base_ns)
        } else {
            0.0
        },
    );
    m.insert(
        "engine.events_per_cpu_s",
        o.sim.as_ref().map_or(0.0, |s| {
            ratio(s.engine_events as f64, s.cpu_ns as f64 / 1e9)
        }),
    );
    m.insert(
        "storage.appends_per_round",
        per_rr(cnt("recovery.wal_appends")),
    );
    m.insert(
        "storage.persist_us_per_round",
        per_rr(persist.total_ns as f64) / 1e3,
    );
    m.insert(
        "storage.checkpoint_us_p50",
        merged.agg("storage.checkpoint").hist.quantile(0.5) / 1e3,
    );
    m.insert(
        "storage.checkpoint_bytes_per_round",
        per_rr(cnt("storage.checkpoint_bytes")),
    );
    m.insert("storage.restore_ms", open_ms + restore_ms);
    m.insert("wal.fsyncs_per_round", per_rr(cnt("storage.fsyncs")));
    m.insert("wal.bytes_per_round", per_rr(cnt("storage.bytes_appended")));
    m.insert(
        "wal.append_us_p50",
        merged.agg("wal.write").hist.quantile(0.5) / 1e3,
    );
    m.insert(
        "wal.fsync_model_us",
        ratio(sync.total_ns as f64, sync.count as f64) / 1e3,
    );
    m.insert(
        "wal.replay_records_per_s",
        ratio(records as f64, open_ms / 1e3),
    );
    m.insert(
        "replica.apply_ns_per_cmd",
        ratio(apply.total_ns as f64, apply.count as f64),
    );
    m.insert("replica.applied_cmds", apply.count as f64);
    m.insert("recovery.catch_ups_applied", recovery_applied);
    m.insert(
        "recovery.catch_ups_rejected",
        all.get("recovery.catch_up_rejected") as f64,
    );
    m.insert(
        "recovery.catch_up_ms_mean",
        ratio(
            all.get("recovery.catch_up_latency_us") as f64 / 1e3,
            recovery_applied,
        ),
    );
    m.insert(
        "recovery.rounds_behind_mean",
        ratio(
            all.get("recovery.rounds_behind_total") as f64,
            recovery_applied,
        ),
    );
    m.insert(
        "recovery.restore_verifications",
        all.get("recovery.restore_verifications") as f64 + verifications as f64,
    );
    m.insert(
        "mem.rss_growth_kb_per_round",
        ratio(
            o.window.rss_end_kb as f64 - o.window.rss_start_kb as f64,
            e2e.rounds as f64,
        ),
    );
    m.insert("load.offered_cmd_s", offered / window_s);
    m.insert("load.late_us_p99", quantile(&mut late, 0.99).unwrap_or(0.0));
    m.insert(
        "load.cpu_us_per_cmd",
        ratio(o.window.load.generator_cpu_ns as f64 / 1e3, offered),
    );
    m.insert("load.cpu_ms_per_round", e2e.cpu_ms_per_round);
    m.insert("load.cpu_utilisation", cpu_utilisation);
    m.insert("e2e.cmd_latency_p99_ms", e2e.latency_p99_ms);
    m.insert(
        "trace.overhead_ratio",
        o.reference_cpu_ms_per_round
            .map_or(0.0, |r| ratio(e2e.cpu_ms_per_round, r) - 1.0),
    );
    m.insert("trace.round_coverage", ratio(explained_ns, cpu_ns_per_rr));
    m
}

/// Sum over replicas of a `NetCounters` field's growth over the window
/// (TCP only; the simulator has no such counters).
fn all_window(o: &RunOutcome, name: &str) -> f64 {
    o.window.net.as_ref().map_or(0.0, |(open, close)| {
        close.get(name).saturating_sub(open.get(name)) as f64
    })
}

/// Whole-run total of a `NetCounters` field over all replicas.
fn net_total(o: &RunOutcome, name: &str) -> f64 {
    o.net_final.as_ref().map_or(0.0, |c| c.get(name) as f64)
}
