//! The metric registry: every name the harness emits, with its unit and
//! direction. `BENCHMARK.json` lists the same names; the self-test
//! (`--smoke`) fails if the two ever differ in either direction.

/// A metric definition.
#[derive(Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics with their regression bounds. Every workload
/// reports all of them (`--trace 0`).
///
/// The bounds are set by `tcp4_bulk`, the one workload whose clock
/// metrics (and, through queue backlogs, its memory) are CPU-bound by
/// design: on the shared 2-core box identical CPU work drifts by a
/// tenth between runs minutes apart and its IQR over ten runs reaches
/// 9–15 % of the median, so a bound below about twice that would reject
/// the benchmark against itself. `cpu_ms_per_round` swings by up to 2×
/// and is therefore a per-layer metric (`load.cpu_ms_per_round`), as the
/// issue's A/A rule prescribes.
pub const END_TO_END: &[(Def, f64)] = &[
    (lo("setup_s", "s"), 0.25),
    (hi("cmd_throughput", "cmd/s"), 0.25),
    (lo("cmd_latency_p50_ms", "ms"), 0.20),
    (lo("cmd_latency_p90_ms", "ms"), 0.25),
    (lo("round_p50_ms", "ms"), 0.20),
    (lo("wire_kb_per_round", "KB"), 0.10),
    (lo("rss_mb", "MB"), 0.25),
];

/// Per-layer metrics (`--trace 1`), grouped by layer = crate/module.
pub const PER_LAYER: &[Def] = &[
    // icc-types: codec, framing, block hashing (micro-probes on messages
    // captured from the same run).
    lo("types.encode_ns_per_msg", "ns"),
    lo("types.decode_ns_per_msg", "ns"),
    hi("types.encode_mb_s", "MB/s"),
    hi("types.frame_crc_mb_s", "MB/s"),
    hi("types.block_hash_mb_s", "MB/s"),
    // icc-crypto (micro-probes on the run's key material).
    lo("crypto.sign_ns", "ns"),
    lo("crypto.verify_ns", "ns"),
    lo("crypto.share_verify_ns", "ns"),
    lo("crypto.batch_verify_ns_per_share", "ns"),
    lo("crypto.threshold_combine_ns", "ns"),
    lo("crypto.multisig_aggregate_ns", "ns"),
    hi("crypto.sha256_mb_s", "MB/s"),
    // icc-core pool (PoolStats deltas over the window, per replica-round).
    lo("pool.verify_calls_per_round", "count"),
    hi("pool.cache_hit_ratio", "ratio"),
    lo("pool.duplicates_per_round", "count"),
    hi("pool.skipped_after_quorum_per_round", "count"),
    hi("pool.batched_shares_per_round", "count"),
    lo("pool.rejected_per_round", "count"),
    hi("pool.useful_ratio", "ratio"),
    // icc-core consensus.
    lo("consensus.round_over_delta", "ratio"),
    lo("consensus.finalize_over_delta", "ratio"),
    hi("consensus.leader_won_ratio", "ratio"),
    hi("consensus.cmds_per_block", "count"),
    lo("consensus.max_commit_gap_ms", "ms"),
    hi("consensus.rounds_per_s", "1/s"),
    // The Node seam: gossip + pool + consensus compute per handler.
    lo("node.handlers_per_round", "count"),
    lo("node.handler_us_p50", "us"),
    lo("node.handler_us_p99", "us"),
    lo("node.handler_self_us_per_round", "us"),
    lo("node.busy_share", "ratio"),
    // icc-gossip.
    lo("gossip.adverts_per_round", "count"),
    lo("gossip.requests_per_round", "count"),
    lo("gossip.pushes_per_round", "count"),
    lo("gossip.pushes_relayed_per_round", "count"),
    lo("gossip.dedup_ratio", "ratio"),
    lo("gossip.mean_relay_hops", "count"),
    lo("gossip.retries_per_round", "count"),
    // icc-net.
    lo("net.frames_per_round", "count"),
    lo("net.bytes_per_cmd", "B"),
    lo("net.send_us_per_round", "us"),
    lo("net.send_queue_drops", "count"),
    lo("net.reconnects", "count"),
    lo("net.decode_errors", "count"),
    lo("net.loopback_rtt_us_p50", "us"),
    // icc-sim runtime (wall-clock driver) and engine (simulator).
    lo("runtime.wakeup_us_p50", "us"),
    lo("runtime.wakeup_us_p99", "us"),
    lo("runtime.timer_fires_per_round", "count"),
    lo("runtime.events_per_round", "count"),
    hi("runtime.idle_share", "ratio"),
    hi("engine.events_per_cpu_s", "1/s"),
    // icc-core storage + icc-wal.
    lo("storage.appends_per_round", "count"),
    lo("storage.persist_us_per_round", "us"),
    lo("storage.checkpoint_us_p50", "us"),
    lo("storage.checkpoint_bytes_per_round", "B"),
    lo("storage.restore_ms", "ms"),
    lo("wal.fsyncs_per_round", "count"),
    lo("wal.bytes_per_round", "B"),
    lo("wal.append_us_p50", "us"),
    lo("wal.fsync_model_us", "us"),
    hi("wal.replay_records_per_s", "1/s"),
    // icc-core replica (state machine).
    lo("replica.apply_ns_per_cmd", "ns"),
    hi("replica.applied_cmds", "count"),
    // icc-core recovery.
    hi("recovery.catch_ups_applied", "count"),
    lo("recovery.catch_ups_rejected", "count"),
    lo("recovery.catch_up_ms_mean", "ms"),
    lo("recovery.rounds_behind_mean", "count"),
    lo("recovery.restore_verifications", "count"),
    // Process memory.
    lo("mem.rss_growth_kb_per_round", "KB"),
    // Load generator, report-only end-to-end tail, and the tracer itself.
    hi("load.offered_cmd_s", "cmd/s"),
    lo("load.late_us_p99", "us"),
    lo("load.cpu_us_per_cmd", "us"),
    lo("load.cpu_ms_per_round", "ms"),
    lo("load.cpu_utilisation", "ratio"),
    lo("e2e.cmd_latency_p99_ms", "ms"),
    lo("trace.overhead_ratio", "ratio"),
    hi("trace.round_coverage", "ratio"),
];

/// The four workloads, in the order `--smoke` and `--aa` run them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "tcp4_paced",
        "4 replicas on loopback TCP + WAL, rounds paced by eps=10ms, open loop 400 cmd/s x 64 B: latency is hops, timers and fsyncs, not the CPU queue",
    ),
    (
        "tcp4_bulk",
        "same cluster, eps=0, closed loop of 32 x 16 KiB commands: CPU- and byte-bound, throughput is the number (encode, CRC, hash, copies, WAL bytes)",
    ),
    (
        "sim40_quorum",
        "40 simulated replicas on a bounded-degree overlay, delta 9-11 ms: share verification, quorum early-stop, dedup and relay; latency on the simulated clock",
    ),
    (
        "sim13_faults",
        "13 simulated replicas with crash, equivocation, withheld finalization, crash-restart catch-up, a forged catch-up server and slow links: the fault path",
    ),
];
