//! A scenario runner CLI: compose a cluster from command-line flags and
//! print what happened — the "kick the tires" entry point for anyone
//! adopting the library.
//!
//! ```text
//! cargo run --release -p icc-examples --bin scenario -- \
//!     --nodes 13 --protocol icc1 --delta-ms 25 --secs 10 \
//!     --crash 2 --equivocate 1 --load 50x256
//! ```
//!
//! Flags (all optional):
//!
//! * `--nodes <n>`            parties (default 7)
//! * `--protocol <p>`         `icc0` | `icc1` | `icc2` (default icc0)
//! * `--delta-ms <ms>`        one-way network delay (default 20)
//! * `--delta-bnd-ms <ms>`    protocol Δbnd (default 3× delta)
//! * `--epsilon-ms <ms>`      governor ε (default 0)
//! * `--secs <s>`             simulated seconds (default 10)
//! * `--seed <u64>`           RNG seed (default 0)
//! * `--crash <f>`            crash the first f nodes
//! * `--equivocate <f>`       make the next f nodes equivocate
//! * `--churn <f>`            crash + restart the *last* f nodes mid-run,
//!   one at a time (icc0/icc1; exercises checkpoint/WAL restore and, under
//!   icc1, the certified catch-up protocol)
//! * `--load <rate>x<bytes>`  client commands per second × size
//! * `--interdc`              inter-datacenter delay model instead of fixed
//! * `--trace-out <path>`     write a Chrome trace-event JSON of the run's
//!   flight-recorder events (open in Perfetto or `chrome://tracing`)
//! * `--metrics-out <path>`   write what the first honest node's `/metrics`
//!   would serve (`icc_node::render_metrics`), plus its traffic by kind

use icc_core::cluster::{Cluster, ClusterBuilder, CoreAccess};
use icc_core::events::NodeEvent;
use icc_core::Behavior;
use icc_erasure::{icc2_cluster, Icc2Config};
use icc_gossip::{icc0_cluster, GossipConfig, Overlay, Recipe};
use icc_node::Family;
use icc_sim::delay::{FixedDelay, InterDcDelay};
use icc_sim::{FaultPlan, Node};
use icc_types::{Command, NodeIndex, SimDuration, SimTime};
use std::str::FromStr;

#[derive(Debug, Default)]
struct Opts {
    nodes: usize,
    protocol: String,
    delta_ms: u64,
    delta_bnd_ms: Option<u64>,
    epsilon_ms: u64,
    secs: u64,
    seed: u64,
    crash: usize,
    equivocate: usize,
    churn: usize,
    load: Option<(usize, usize)>,
    interdc: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: scenario [--nodes N] [--protocol icc0|icc1|icc1-routed|icc2] [--delta-ms MS]\n\
         \t[--delta-bnd-ms MS] [--epsilon-ms MS] [--secs S] [--seed U64]\n\
         \t[--crash F] [--equivocate F] [--churn F] [--load RATExBYTES] [--interdc]\n\
         \t[--trace-out PATH] [--metrics-out PATH]"
    );
    std::process::exit(2);
}

fn parse() -> Opts {
    let mut opts = Opts {
        nodes: 7,
        protocol: "icc0".into(),
        delta_ms: 20,
        secs: 10,
        ..Opts::default()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} requires a value")))
        };
        fn num<T: FromStr>(flag: &str, v: &str) -> T {
            v.parse().unwrap_or_else(|_| usage(&format!("bad {flag}")))
        }
        match flag.as_str() {
            "--nodes" => opts.nodes = num(flag, &val()),
            "--protocol" => opts.protocol = val(),
            "--delta-ms" => opts.delta_ms = num(flag, &val()),
            "--delta-bnd-ms" => opts.delta_bnd_ms = Some(num(flag, &val())),
            "--epsilon-ms" => opts.epsilon_ms = num(flag, &val()),
            "--secs" => opts.secs = num(flag, &val()),
            "--seed" => opts.seed = num(flag, &val()),
            "--crash" => opts.crash = num(flag, &val()),
            "--equivocate" => opts.equivocate = num(flag, &val()),
            "--churn" => opts.churn = num(flag, &val()),
            "--load" => {
                let v = val();
                let (rate, size) = v
                    .split_once('x')
                    .unwrap_or_else(|| usage("--load expects RATExBYTES, e.g. 100x1024"));
                opts.load = Some((num("--load rate", rate), num("--load size", size)));
            }
            "--interdc" => opts.interdc = true,
            "--trace-out" => opts.trace_out = Some(val()),
            "--metrics-out" => opts.metrics_out = Some(val()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !matches!(
        opts.protocol.as_str(),
        "icc0" | "icc1" | "icc1-routed" | "icc2"
    ) {
        usage("--protocol must be icc0, icc1, icc1-routed or icc2");
    }
    if opts.nodes == 0 {
        usage("--nodes must be at least 1");
    }
    if opts.protocol.starts_with("icc1") && opts.nodes < 3 {
        usage("--protocol icc1 needs at least 3 nodes for a gossip overlay");
    }
    let t = opts.nodes.div_ceil(3) - 1;
    // Churned nodes go down one at a time, so they cost the fault
    // budget at most one node beyond the permanently corrupt ones.
    let concurrent = opts.crash + opts.equivocate + usize::from(opts.churn > 0);
    if concurrent > t {
        usage(&format!(
            "{concurrent} concurrently faulty of n={} exceeds the fault bound t={t}",
            opts.nodes
        ));
    }
    if opts.crash + opts.equivocate + opts.churn > opts.nodes {
        usage("--crash + --equivocate + --churn exceeds --nodes");
    }
    if opts.churn > 0 && opts.protocol == "icc2" {
        usage("--churn needs a recovery path; the icc2 erasure layer has none yet");
    }
    if opts.churn > 0 && opts.secs < 5 {
        usage("--churn needs --secs of at least 5 (warmup + staggered outages + heal)");
    }
    opts
}

/// One-at-a-time outages for the last `churn` nodes, packed into
/// `[1 s, secs − 2 s)` so the run ends with everyone healed.
fn churn_plan(opts: &Opts) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if opts.churn == 0 {
        return plan;
    }
    let span_ms = opts.secs * 1000 - 3000;
    let slot = span_ms / opts.churn as u64;
    for i in 0..opts.churn {
        let node = NodeIndex::new((opts.nodes - 1 - i) as u32);
        let down = SimTime::ZERO + SimDuration::from_millis(1000 + slot * i as u64);
        plan = plan.crash_between(node, down, down + SimDuration::from_millis(slot * 3 / 5));
    }
    plan
}

fn report<N>(mut cluster: Cluster<N>, opts: &Opts)
where
    N: Node<External = Command, Output = NodeEvent> + CoreAccess,
{
    if let Some((rate, size)) = opts.load {
        cluster.inject_commands(
            SimTime::ZERO,
            SimDuration::from_secs(opts.secs),
            rate * opts.secs as usize,
            size,
        );
    }
    cluster.run_for(SimDuration::from_secs(opts.secs));
    cluster.assert_safety();

    let observer = cluster.honest_nodes()[0];
    let committed = cluster.committed_chain(observer);
    let cmds: usize = committed.iter().map(|b| b.block().payload().len()).sum();
    let stats = cluster.round_stats(observer);
    let mean_round_us = stats
        .iter()
        .filter(|(r, _, _)| r.get() > 1)
        .map(|(_, d, _)| d.as_micros())
        .sum::<u64>() as f64
        / stats.len().max(1) as f64;
    let leader_won = stats.iter().filter(|(_, _, r)| r.is_leader()).count();
    let m = cluster.sim.metrics();
    let lats = cluster.command_latencies(observer);
    let mean_lat =
        lats.iter().map(|d| d.as_micros()).sum::<u64>() as f64 / lats.len().max(1) as f64 / 1000.0;

    println!("scenario: {opts:?}");
    println!("─────────────────────────────────────────────");
    println!("committed blocks        {}", committed.len());
    println!(
        "blocks per second       {:.2}",
        committed.len() as f64 / opts.secs as f64
    );
    println!("mean round duration     {:.1} ms", mean_round_us / 1000.0);
    println!(
        "leader-won rounds       {leader_won}/{} ({:.0}%)",
        stats.len(),
        100.0 * leader_won as f64 / stats.len().max(1) as f64
    );
    println!("committed commands      {cmds}");
    if !lats.is_empty() {
        println!("mean command latency    {mean_lat:.1} ms");
    }
    println!(
        "mean egress per node    {:.3} Mb/s",
        m.mean_node_bytes() * 8.0 / 1e6 / opts.secs as f64
    );
    println!(
        "bottleneck egress       {:.3} Mb/s",
        m.max_node_bytes() as f64 * 8.0 / 1e6 / opts.secs as f64
    );
    let summary = cluster.metrics_summary();
    let pool = summary.pool;
    println!("pool verifications      {}", pool.verify_calls);
    println!("pool cache hits         {}", pool.verify_cache_hits);
    println!("pool duplicates dropped {}", pool.duplicates_dropped);
    println!("pool rejected           {}", pool.rejected);
    println!(
        "pool skipped at quorum  {}",
        pool.shares_skipped_after_quorum
    );
    // Gossip/overlay counters are all zero under icc2, whose
    // erasure-coded node keeps none — skip the line then.
    if summary.gossip != icc_sim::GossipCounters::default() {
        println!("gossip                  {}", summary.gossip);
    }
    println!("ingress                 {}", summary.ingress);
    let rec = summary.recovery;
    println!("restarts                {}", rec.restarts);
    println!(
        "catch-ups applied       {} ({} rejected, {:.1} KiB)",
        rec.catch_up_applied,
        rec.catch_up_rejected,
        rec.catch_up_bytes as f64 / 1024.0
    );
    println!("rounds state-synced     {}", rec.rounds_behind_total);
    println!(
        "durable state           {} WAL appends, {} checkpoints",
        rec.wal_appends, rec.checkpoints
    );
    // Exact finalization-latency percentiles over every committed block
    // (not the telemetry histogram's bucket edges), the critical-path
    // verdict roll-up, and the optional trace/metrics exports.
    let [p50, p90, p99, max] = cluster.finalization_latency_ms([0.50, 0.90, 0.99, 1.0]);
    if max > 0.0 {
        println!(
            "finalization latency    p50 {p50:.1} ms  p90 {p90:.1} ms  p99 {p99:.1} ms  max {max:.1} ms"
        );
    }
    let cp = cluster.critical_path();
    if cp.rounds > 0 {
        println!("{cp}");
    }
    let events = cluster.flight_events();
    // Anomaly roll-up: re-run the same rolling detector the live admin
    // plane uses, offline over the merged span stream, and put what it
    // flags in the report (and the metrics export below).
    let anomalies = icc_telemetry::anomaly::scan(&events);
    let anomaly_counts = icc_telemetry::anomaly::count(&anomalies);
    if !anomalies.is_empty() {
        println!(
            "anomalies               {} round stalls, {} peer flaps, {} fsync spikes, \
             {} catch-up storms",
            anomaly_counts.round_stalls,
            anomaly_counts.peer_flaps,
            anomaly_counts.fsync_spikes,
            anomaly_counts.catch_up_storms
        );
    }
    if let Some(path) = &opts.trace_out {
        let trace = icc_telemetry::chrome_trace(&events);
        // One "ph":"i" instant per recorded flight-recorder event, no
        // more, no fewer, and the phase spans derived from them.
        let instants = trace.matches("\"ph\":\"i\"").count();
        assert_eq!(instants, events.len(), "trace instants != recorded events");
        assert!(instants > 0, "the trace holds no instant");
        assert!(
            trace.contains("\"ph\":\"X\""),
            "the trace holds no phase span"
        );
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\","));
        std::fs::write(path, &trace).unwrap_or_else(|e| usage(&format!("--trace-out {path}: {e}")));
        println!("trace written           {path} ({instants} events)");
    }
    if let Some(path) = &opts.metrics_out {
        // What the observer's `/metrics` would serve, plus its traffic
        // by artifact kind as the engine meters it.
        let node = cluster.sim.node(observer);
        let sent = &m.per_node()[observer].sent_by_kind;
        let by_kind = |pick: fn(&(u64, u64)) -> u64| sent.iter().map(move |(k, v)| (*k, pick(v)));
        let mut families = icc_node::families(node, None);
        families.extend([
            Family {
                key: "sent_messages",
                label: "kind",
                help: "Messages sent, by artifact kind (a broadcast counts n).",
                fields: by_kind(|v| v.0).collect(),
            },
            Family {
                key: "sent_bytes",
                label: "kind",
                help: "Wire bytes sent, by artifact kind.",
                fields: by_kind(|v| v.1).collect(),
            },
        ]);
        let text = icc_node::render_metrics(node, &families, &[]);
        for needle in [
            "icc_replica_blocks_committed_total ",
            "icc_replica_finalization_latency_us_bucket{",
            "icc_replica_pool{field=",
            "icc_replica_sent_bytes{kind=",
        ] {
            assert!(text.contains(needle), "--metrics-out lacks {needle}");
        }
        std::fs::write(path, text).unwrap_or_else(|e| usage(&format!("--metrics-out {path}: {e}")));
        println!("metrics written         {path}");
    }
    println!("safety                  OK (all honest chains agree on every round)");
}

fn main() {
    let opts = parse();
    let mut behaviors = vec![Behavior::Honest; opts.nodes];
    for b in behaviors.iter_mut().take(opts.crash) {
        *b = Behavior::Crash;
    }
    for b in behaviors.iter_mut().skip(opts.crash).take(opts.equivocate) {
        *b = Behavior::Equivocate;
    }
    let delta_bnd = SimDuration::from_millis(opts.delta_bnd_ms.unwrap_or(opts.delta_ms * 3));
    let mut builder = ClusterBuilder::new(opts.nodes)
        .seed(opts.seed)
        .protocol_delays(delta_bnd, SimDuration::from_millis(opts.epsilon_ms))
        .behaviors(behaviors);
    if opts.churn > 0 {
        builder = builder.fault_plan(churn_plan(&opts)).checkpoint_interval(8);
    }
    builder = if opts.interdc {
        builder.network(InterDcDelay::internet_like(opts.nodes, opts.seed))
    } else {
        builder.network(FixedDelay::new(SimDuration::from_millis(opts.delta_ms)))
    };
    // `network` resets Δbnd to 3× the model bound; restore the request.
    builder = builder.protocol_delays(delta_bnd, SimDuration::from_millis(opts.epsilon_ms));

    match opts.protocol.as_str() {
        "icc0" => report(icc0_cluster(builder), &opts),
        "icc1" => {
            let overlay =
                Overlay::random_regular(opts.nodes, 6.min(opts.nodes - 1).max(2), opts.seed);
            let recipe = Recipe::shipped(opts.nodes).with_overlay(overlay);
            // Without churn nobody needs the adverts catch-up runs on.
            let recipe = if opts.churn > 0 {
                recipe
            } else {
                recipe.with_config(GossipConfig::inline_small_blocks())
            };
            report(recipe.cluster(builder), &opts)
        }
        // The scale-out configuration: bounded-degree overlay with
        // aggregator-routed shares (what `claims E17` sweeps to n=1000).
        "icc1-routed" => report(Recipe::routed(opts.nodes).cluster(builder), &opts),
        "icc2" => report(icc2_cluster(builder, Icc2Config::default()), &opts),
        _ => unreachable!("validated in parse()"),
    }
}
