//! Launches an N-**process** consensus cluster on localhost TCP,
//! SIGKILLs one replica a third of the way in, restarts it at two
//! thirds, and checks that the cluster stayed safe and live and that
//! the restarted replica caught back up — the networked analogue of
//! the simulator's churn scenarios, with real sockets and real process
//! death.
//!
//! ```text
//! cargo run --release -p icc-examples --bin net_cluster -- \
//!     [--nodes N] [--secs S] [--seed U64] [--no-churn] [--replace-node]
//!     [--trace-out PATH] [--admin] [--scrape-out PATH] [--stitched-trace PATH]
//! ```
//!
//! `--admin` gives every replica an admin endpoint and scrapes
//! `/metrics`, `/health` and `/status` from each **mid-run**;
//! `--scrape-out` saves replica 0's `/metrics` body. `--stitched-trace`
//! (implies `--admin`) pulls every `/trace` ring near the end and merges
//! them, clocks aligned, into one Perfetto timeline.
//!
//! `--replace-node` runs **reconfiguration** instead of churn: N members
//! of an (N+1)-party universe under an `--epochs` schedule whose
//! boundary swaps the last member for the spare. The spare is spawned
//! as a *fresh process* a third in and the replaced member killed at
//! two thirds.
//!
//! Each replica is the `replica` binary beside this one, spawned through
//! `icc_node::Instance`; its stdout is read back through
//! `icc_node::parse_commit` and `icc_node::RunReport::parse`. Every
//! check is an `assert!`:
//!
//! * **safety** — per round, every `COMMIT` line of every process
//!   incarnation names the same block hash;
//! * **liveness** — every replica's final committed round ≥ `--secs`;
//! * **transport and disk** — every `REPORT` shows frames sent and
//!   received, no decode or frame error, records appended, no storage
//!   I/O error, no signature re-verified on restore and no halt; the
//!   `--trace-out` trace holds events and the `/trace` clock anchor;
//! * **observability** (`--admin`) — every live `/metrics` shows
//!   [`METRICS_NEEDLES`]; the `--stitched-trace` timeline spans two or
//!   more replicas with round flows between them;
//! * **recovery** (churn) — the restarted replica applied a certified
//!   catch-up package, a survivor redialed it, and it recovered its
//!   pre-crash state from its own WAL with **zero** signature
//!   re-verifications;
//! * **reconfiguration** (replace) — the joiner's catch-up package
//!   certified across the boundary, and every survivor activated the
//!   epoch transition.

use icc_node::{parse_commit, Instance, RunReport};
use icc_telemetry::{extract_trace_anchor, http_get, stitch_chrome_traces};
use std::collections::{BTreeSet, HashMap};
use std::net::TcpListener;
use std::process::Command;
use std::str::FromStr;
use std::time::{Duration, Instant};

#[derive(Default)]
struct Opts {
    nodes: usize,
    secs: u64,
    seed: u64,
    churn: bool,
    replace: bool,
    trace_out: Option<String>,
    /// `--epochs` spec passed to every replica (replace mode only).
    epochs: Option<String>,
    /// Start every replica with an admin endpoint and scrape it mid-run.
    admin: bool,
    /// Save replica 0's mid-run `/metrics` body here.
    scrape_out: Option<String>,
    /// Merge every replica's `/trace` into one Perfetto timeline here.
    stitched_trace: Option<String>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: net_cluster [--nodes N] [--secs S] [--seed U64] [--no-churn]\n\
         \t[--replace-node] [--trace-out PATH]\n\
         \t[--admin] [--scrape-out PATH] [--stitched-trace PATH]"
    );
    std::process::exit(2);
}

fn parse() -> Opts {
    let mut opts = Opts {
        nodes: 4,
        secs: 12,
        seed: 7,
        churn: true,
        ..Opts::default()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        fn num<T: FromStr>(flag: &str, v: String) -> T {
            v.parse().unwrap_or_else(|_| usage(&format!("bad {flag}")))
        }
        match flag.as_str() {
            "--nodes" => opts.nodes = num(flag, val()),
            "--secs" => opts.secs = num(flag, val()),
            "--seed" => opts.seed = num(flag, val()),
            "--no-churn" => opts.churn = false,
            "--replace-node" => (opts.replace, opts.churn) = (true, false),
            "--trace-out" => opts.trace_out = Some(val()),
            "--admin" => opts.admin = true,
            "--scrape-out" => opts.scrape_out = Some(val()),
            "--stitched-trace" => opts.stitched_trace = Some(val()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    // Scrape and stitch outputs need the endpoints they read from.
    opts.admin |= opts.scrape_out.is_some() || opts.stitched_trace.is_some();
    let (churn, replace) = (opts.churn, opts.replace);
    let need = |ok: bool, why: &str| {
        if !ok {
            usage(why)
        }
    };
    need(opts.nodes >= 3, "--nodes must be at least 3");
    need(
        opts.nodes >= 4 || !(churn || replace),
        "churn and --replace-node need 4 nodes",
    );
    need(
        opts.secs >= 6 || !churn,
        "churn needs --secs 6 (kill at 1/3, restart at 2/3)",
    );
    need(
        opts.secs >= 9 || !replace,
        "--replace-node needs --secs 9 (join at 1/3, retire at 2/3)",
    );
    opts
}

/// What every live `/metrics` scrape must show: consensus gauges,
/// counter families, the per-peer link table and the footprint gauges.
const METRICS_NEEDLES: [&str; 11] = [
    "icc_replica_committed_round ",
    "icc_replica_current_round ",
    "icc_replica_blocks_committed_total ",
    "icc_replica_net{field=",
    "icc_replica_gossip{field=",
    "icc_replica_storage{field=",
    "icc_replica_anomalies{class=",
    "icc_replica_link_connected{peer=",
    "icc_replica_link_queue_depth{peer=",
    "icc_pool_blocks ",
    "icc_gossip_dedup_ids ",
];

/// Epoch boundary round for `--replace-node`. Low enough that it has
/// certainly passed by the time the joiner spawns (a third into the
/// run), so the joiner's catch-up package must certify *across* it.
const REPLACE_BOUNDARY: u64 = 10;

fn main() {
    let mut opts = parse();
    let n = opts.nodes;
    // Replace mode runs an (n+1)-party universe: the spare (index n)
    // joins at the boundary, the last original member (n-1) leaves.
    // Churn mode kills and restarts the last replica.
    let universe = if opts.replace { n + 1 } else { n };
    let (joiner, retiree, victim) = (n, n - 1, n - 1);
    if opts.replace {
        let list = |m: Vec<usize>| m.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        let (initial, next) = (
            list((0..n).collect()),
            list((0..n - 1).chain([joiner]).collect()),
        );
        opts.epochs = Some(format!("0:{initial};{REPLACE_BOUNDARY}:{next}"));
    }

    // Reserve one free port per universe slot by binding :0 listeners,
    // then release them for the replicas. (A tiny race with other local
    // processes, but fine for a localhost bench.)
    let listeners: Vec<TcpListener> = (0..universe)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    let mut spec = String::new();
    for (i, l) in listeners.iter().enumerate() {
        spec.push_str(&format!("{i} {}\n", l.local_addr().expect("bound")));
    }
    drop(listeners);
    let tmp = |what: &str| {
        std::env::temp_dir().join(format!("icc_net_cluster{what}_{}", std::process::id()))
    };
    let config = tmp("").with_extension("txt");
    std::fs::write(&config, &spec).expect("write cluster config");
    // Per-replica durable state. The victim's directory survives its
    // SIGKILL — that surviving WAL is what the recovery assertion is
    // about.
    let data_root = tmp("_data");
    std::fs::create_dir_all(&data_root).expect("create data root");

    // The replica binary sits next to this launcher in target/.
    let bin = std::env::current_exe()
        .expect("current exe")
        .with_file_name(format!("replica{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        usage(&format!(
            "{} not found — build it first (cargo build --release -p icc-examples --bin replica)",
            bin.display()
        ));
    }

    println!(
        "launching {n} replica processes for {}s (seed {}, churn {}, replace {})…",
        opts.secs, opts.seed, opts.churn, opts.replace
    );
    let started = Instant::now();
    let sleep_until = |offset: Duration| {
        std::thread::sleep((started + offset).saturating_duration_since(Instant::now()));
    };
    let log = |what: String| println!("{what} at t={:?}", started.elapsed());
    // Replica `me`, until the run's deadline (a late spawn gets at
    // least 2 s).
    let spawn = |me: usize| {
        let secs = match started.elapsed().as_secs() {
            0 => opts.secs,
            t => opts.secs.saturating_sub(t).max(2),
        };
        let mut cmd = Command::new(&bin);
        cmd.arg("--config").arg(&config);
        // Same directory across incarnations: the restarted victim must
        // find (and recover from) its own pre-crash WAL.
        cmd.arg("--data-dir")
            .arg(data_root.join(format!("replica-{me}")));
        for (flag, value) in [("--me", me as u64), ("--secs", secs), ("--seed", opts.seed)] {
            cmd.arg(flag).arg(value.to_string());
        }
        if let Some(epochs) = &opts.epochs {
            cmd.arg("--epochs").arg(epochs);
        }
        if opts.admin {
            // Port 0: the OS picks, the replica announces the bound
            // address on its ADMIN stdout line.
            cmd.arg("--admin-port").arg("0");
        }
        if let (0, Some(trace)) = (me, &opts.trace_out) {
            cmd.arg("--trace-out").arg(trace);
        }
        let inst = Instance::spawn(me, cmd);
        log(format!("started replica {me}"));
        inst.unwrap_or_else(|e| usage(&format!("spawning {}: {e}", bin.display())))
    };
    let mut running: Vec<Instance> = (0..n).map(spawn).collect();
    // `(me, stdout lines)` per finished process incarnation.
    let mut finished: Vec<(usize, Vec<String>)> = Vec::new();
    let mut kill = |running: &mut Vec<Instance>, me: usize| {
        let pos = running.iter().position(|i| i.me == me);
        let inst = running.remove(pos.expect("replica is running"));
        finished.push(inst.finish(true));
        log(format!("killed replica {me}"));
    };

    // Orchestration runs on absolute offsets from the start so the
    // churn/replace phases and the admin scrapes interleave
    // deterministically: fault injection at 1/3, mid-run scrape at
    // 1/2, recovery injection at 2/3, trace collection 2s before the
    // deadline.
    let third = Duration::from_secs(opts.secs / 3);
    sleep_until(third);
    if opts.replace {
        // The spare, as a brand-new process: the boundary has long
        // passed, so it must join via a certified cross-epoch catch-up
        // package.
        running.push(spawn(joiner));
    }
    if opts.churn {
        // The ~secs/3 outage at ICC1's localhost round rate puts the
        // victim far more than `icc_core::PURGE_DEPTH` (2 ×
        // `CATCH_UP_THRESHOLD` = 20) rounds behind: its peers no longer
        // hold the bodies it missed, so rejoining MUST go through a
        // certified catch-up package.
        kill(&mut running, victim);
    }

    // Mid-run scrape: every *running* replica must serve a live
    // Prometheus render, report healthy and show its link table while
    // consensus is actually making progress around it — observability
    // at exit only would be a much weaker claim.
    let mut scrape_body: Option<String> = None;
    if opts.admin {
        sleep_until(Duration::from_secs(opts.secs / 2));
        for inst in &running {
            let (me, addr) = (inst.me, inst.wait_admin(Duration::from_secs(5)));
            let addr = addr.unwrap_or_else(|| usage(&format!("replica {me} announced no admin")));
            for (path, needles) in [
                ("/metrics", &METRICS_NEEDLES[..]),
                ("/health", &["\"healthy\":true"]),
                ("/status", &["\"peers\":["]),
            ] {
                let (code, body) = http_get(&addr, path, Duration::from_secs(5))
                    .unwrap_or_else(|e| usage(&format!("scrape {addr}{path}: {e}")));
                assert_eq!(code, 200, "replica {me} {path} returned {code}: {body}");
                for needle in needles {
                    assert!(body.contains(needle), "replica {me} {path} lacks {needle}");
                }
                if (me, path) == (0, "/metrics") {
                    scrape_body = Some(body);
                }
            }
        }
        let live = running.len();
        log(format!(
            "mid-run scrape OK: {live} replicas served all three endpoints"
        ));
    }
    if let Some(path) = &opts.scrape_out {
        std::fs::write(path, scrape_body.as_deref().unwrap_or(""))
            .unwrap_or_else(|e| usage(&format!("--scrape-out {path}: {e}")));
        println!("wrote {path}");
    }

    sleep_until(2 * third);
    if opts.replace {
        // The retiree spends its post-boundary life as an observer —
        // killing it must not dent liveness.
        kill(&mut running, retiree);
    }
    if opts.churn {
        // Stop when the others do: its budget is the remaining time.
        running.push(spawn(victim));
    }

    // Trace collection shortly before the deadline (the admin server
    // dies with its process, so this is the last safe moment). A
    // replica racing its own shutdown may refuse — stitch whatever
    // answered.
    if let Some(path) = &opts.stitched_trace {
        sleep_until(Duration::from_secs(opts.secs.saturating_sub(2)));
        let addrs = running
            .iter()
            .filter_map(|i| i.wait_admin(Duration::from_secs(2)));
        let bodies: Vec<String> = addrs
            .filter_map(|addr| http_get(&addr, "/trace", Duration::from_secs(5)).ok())
            .filter_map(|(code, body)| (code == 200).then_some(body))
            .collect();
        let stitched = stitch_chrome_traces(&bodies);
        // Clocks aligned to one base, more than one replica on the
        // timeline, and rounds flowing between them.
        let pids: BTreeSet<&str> = stitched
            .split("\"pid\":")
            .skip(1)
            .filter_map(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .collect();
        let flows = ["\"ph\":\"s\"", "\"ph\":\"f\""].map(|ph| stitched.matches(ph).count());
        assert!(stitched.contains("\"stitchedBaseUs\":"), "no stitch base");
        assert!(pids.len() >= 2, "stitched replicas {pids:?}");
        assert!(flows[0] > 0 && flows[1] > 0, "no cross-node round flow");
        std::fs::write(path, &stitched)
            .unwrap_or_else(|e| usage(&format!("--stitched-trace {path}: {e}")));
        println!(
            "wrote {path} ({} traces stitched, {} replicas, {} flows)",
            bodies.len(),
            pids.len(),
            flows[0]
        );
    }

    // Every process still running at the deadline exits on its own and
    // must leave a whole REPORT line; only killed ones may not.
    let clean_exits = running.len();
    finished.extend(running.into_iter().map(|inst| inst.finish(false)));
    let _ = std::fs::remove_file(&config);
    let _ = std::fs::remove_dir_all(&data_root);

    // --- Safety: one hash per round, across every process incarnation.
    // A SIGKILL can tear a final line; `parse_commit` and
    // `RunReport::parse` refuse what is not whole.
    let mut by_round: HashMap<u64, String> = HashMap::new();
    let mut final_round: HashMap<usize, u64> = HashMap::new();
    let mut reports: Vec<RunReport> = Vec::new();
    let lines = finished
        .iter()
        .flat_map(|(me, out)| out.iter().map(move |l| (*me, l)));
    for (me, line) in lines {
        if let Some((round, hash)) = parse_commit(line) {
            let last = final_round.entry(me).or_insert(0);
            *last = round.max(*last);
            let seen = by_round.entry(round).or_insert_with(|| hash.to_string());
            assert_eq!(seen, hash, "SAFETY VIOLATION: replica {me}, round {round}");
        } else if let Some(report) = RunReport::parse(line) {
            assert_eq!(report.me, me as u64, "replica {me}'s REPORT names another");
            reports.push(report);
        }
    }
    assert!(!by_round.is_empty(), "no rounds committed at all");
    assert_eq!(
        reports.len(),
        clean_exits,
        "a replica exited without a REPORT"
    );

    // --- Liveness: everyone's chain kept growing despite the churn.
    // The conservative floor is ~1 round/s; localhost actually runs
    // orders of magnitude faster.
    let floor = opts.secs;
    for me in 0..universe {
        let last = final_round.get(&me).copied().unwrap_or(0);
        assert!(last >= floor, "LIVENESS: replica {me} stalled at {last}");
    }

    // --- Transport and disk: every reporting process moved frames both
    // ways, none undecodable or mis-framed, and persisted without error.
    for r in &reports {
        // (family, counter, whether it must be positive or zero)
        let expect = [
            ("net", "frames_sent", true),
            ("net", "frames_recv", true),
            ("net", "decode_errors", false),
            ("net", "frame_errors", false),
            ("storage", "records_appended", true),
            ("storage", "io_errors", false),
            ("recovery", "restore_verifications", false),
        ];
        for (family, field, positive) in expect {
            let value = r.get(family, field);
            let ok = value.is_some_and(|v| (v > 0) == positive);
            assert!(ok, "replica {} reported {field} {value:?}", r.me);
        }
        assert!(!r.halted, "replica {} halted: its store failed", r.me);
    }
    if let Some(path) = &opts.trace_out {
        let trace = std::fs::read_to_string(path).unwrap_or_default();
        let events = trace.matches("\"ph\":\"i\"").count();
        assert!(events > 0, "--trace-out {path} holds no event");
        // The `/trace` body: it carries the anchor the stitcher aligns on.
        let anchor = extract_trace_anchor(&trace);
        assert!(anchor.is_some(), "--trace-out {path} has no clock anchor");
    }
    let reconnects: u64 = reports
        .iter()
        .filter_map(|r| r.get("net", "reconnects"))
        .sum();
    println!(
        "done in {:?}: {} distinct rounds, per-round safety OK; liveness OK (every replica ≥ \
         round {floor}); {} reports clean (frames both ways, no decode/frame/I/O error); \
         reconnects {reconnects}",
        started.elapsed(),
        by_round.len(),
        reports.len()
    );

    // The SIGKILLed or retired incarnation never reports, so `stat` of
    // the victim is the restarted incarnation's number.
    let stat = |who: usize, family: &str, field: &str| -> u64 {
        let of = reports.iter().filter(|r| r.me == who as u64);
        of.filter_map(|r| r.get(family, field)).max().unwrap_or(0)
    };
    if opts.churn {
        let catch_ups = stat(victim, "recovery", "catch_up_applied");
        let round = reports.iter().filter(|r| r.me == victim as u64);
        let round = round.map(|r| r.recovered_round).max().unwrap_or(0);
        let records = stat(victim, "storage", "recovered_records");
        let verifications = stat(victim, "recovery", "restore_verifications");
        assert!(catch_ups >= 1, "victim applied no catch-up package");
        assert!(reconnects >= 1, "no replica redialed the victim");
        assert!(round >= 1, "victim recovered nothing from its WAL");
        assert!(records >= 1, "victim read no WAL records back");
        assert_eq!(verifications, 0, "WAL restore re-verified signatures");
        println!(
            "durability OK: victim {victim} applied {catch_ups} catch-up package(s), recovered \
             to round {round} from {records} WAL records with {verifications} re-verifications"
        );
    }
    if opts.replace {
        // The retiree was killed and never reported; every other
        // original member must have crossed the boundary live.
        let cross_epoch = stat(joiner, "recovery", "cross_epoch_catch_ups");
        let transitions = (0..n - 1).map(|me| stat(me, "recovery", "epoch_transitions"));
        let transitions = transitions.min().unwrap_or(0);
        let joined = stat(joiner, "recovery", "catch_up_applied");
        assert!(joined >= 1, "joiner applied no catch-up package");
        assert!(
            cross_epoch >= 1,
            "the joiner's catch-up crossed no boundary"
        );
        assert!(transitions >= 1, "a survivor missed the epoch transition");
        println!(
            "reconfiguration OK: joiner {joiner} joined via {cross_epoch} cross-epoch catch-up \
             package(s), every survivor activated >= {transitions} epoch transition(s), \
             retiree {retiree} removed"
        );
    }
}
