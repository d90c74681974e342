//! Launches an N-**process** consensus cluster on localhost TCP,
//! SIGKILLs one replica mid-run, restarts it, and checks that the
//! cluster stayed safe and live and that the restarted replica caught
//! back up via a certified catch-up package — the networked analogue of
//! the simulator's churn scenarios, with real kernel sockets and real
//! process death.
//!
//! ```text
//! cargo run --release -p icc-examples --bin net_cluster -- \
//!     [--nodes N] [--secs S] [--seed U64] [--no-churn] [--replace-node]
//!     [--bench-out PATH] [--trace-out PATH]
//!     [--admin] [--scrape-out PATH] [--stitched-trace PATH]
//! ```
//!
//! `--admin` starts every replica with a live admin endpoint
//! (`--admin-port 0`; the launcher learns each address from the
//! replica's `ADMIN` stdout line) and scrapes `/metrics` + `/health`
//! from every running process **mid-run** — the cluster must serve
//! observability while consensus is actually running, not just at
//! exit. `--scrape-out` saves replica 0's mid-run `/metrics` body.
//! `--stitched-trace PATH` (implies `--admin`) scrapes every replica's
//! `/trace` ring near the end of the run, aligns the per-process
//! clocks via the `clockAnchorUs` stamped in each body, rewrites pids,
//! and merges everything into one Perfetto-loadable timeline with
//! cross-node round flows.
//!
//! `--replace-node` runs the **reconfiguration** scenario instead of
//! churn: the cluster starts with N members out of an (N+1)-party
//! universe under an `--epochs` schedule whose boundary swaps the last
//! original member for the spare. A third of the way through, the
//! spare is spawned as a *fresh process* — it joins, certified
//! cross-epoch catch-up package first, and co-signs from the boundary
//! on; at two thirds the replaced member is retired (killed). Asserted:
//! the joiner applied a catch-up package whose certificate chain
//! crossed the boundary, and every survivor activated the epoch
//! transition.
//!
//! Each replica is the `replica` binary (spawned from this
//! executable's directory) joined via a generated peer-config file on
//! consecutive free ports. Assertions:
//!
//! * **safety** — for every round, all `COMMIT` lines across all
//!   processes (including both incarnations of the churned one) name
//!   the same block hash;
//! * **liveness** — every replica's final committed round reaches a
//!   floor despite the churn;
//! * **recovery** — the restarted replica's `REPORT` shows at least
//!   one certified catch-up package applied, and surviving replicas
//!   redialed it (`reconnects` > 0);
//! * **durability** — every replica runs with `--data-dir`, and the
//!   restarted replica's `REPORT` proves it recovered its pre-crash
//!   state from its own WAL (`recovered_round ≥ 1`, storage
//!   `recovered_records > 0`) with **zero** signature re-verifications
//!   (`restore_verifications == 0`) — the catch-up package only covers
//!   the rounds it missed *while dead*.
//!
//! Results land in `BENCH_net.json` (override with `--bench-out`).

use icc_telemetry::{http_get, stitch_chrome_traces};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct Opts {
    nodes: usize,
    secs: u64,
    seed: u64,
    churn: bool,
    replace: bool,
    bench_out: String,
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
         \t[--replace-node] [--bench-out PATH] [--trace-out PATH]\n\
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
        replace: false,
        bench_out: "BENCH_net.json".into(),
        trace_out: None,
        epochs: None,
        admin: false,
        scrape_out: None,
        stitched_trace: None,
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
            "--nodes" => {
                opts.nodes = val("--nodes")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --nodes"))
            }
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
            "--no-churn" => opts.churn = false,
            "--replace-node" => {
                opts.replace = true;
                opts.churn = false;
            }
            "--bench-out" => opts.bench_out = val("--bench-out"),
            "--trace-out" => opts.trace_out = Some(val("--trace-out")),
            "--admin" => opts.admin = true,
            "--scrape-out" => opts.scrape_out = Some(val("--scrape-out")),
            "--stitched-trace" => opts.stitched_trace = Some(val("--stitched-trace")),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    // Scrape and stitch outputs need the endpoints they read from.
    if opts.scrape_out.is_some() || opts.stitched_trace.is_some() {
        opts.admin = true;
    }
    if opts.nodes < 4 && opts.churn {
        usage("churn needs at least 4 nodes (3 survivors keep quorum)");
    }
    if opts.nodes < 3 {
        usage("--nodes must be at least 3");
    }
    if opts.secs < 6 && opts.churn {
        usage("churn needs at least --secs 6 (kill at 1/3, restart at 2/3)");
    }
    if opts.replace {
        if opts.nodes < 4 {
            usage("--replace-node needs at least 4 initial members");
        }
        if opts.secs < 9 {
            usage("--replace-node needs at least --secs 9 (join at 1/3, retire at 2/3)");
        }
    }
    opts
}

/// One spawned replica process plus the thread draining its stdout.
struct Instance {
    /// Which replica (`--me`) this process ran as.
    me: usize,
    child: Child,
    lines: Arc<Mutex<Vec<String>>>,
    reader: Option<JoinHandle<()>>,
}

impl Instance {
    fn spawn(
        bin: &PathBuf,
        config: &PathBuf,
        data_root: &Path,
        me: usize,
        secs: u64,
        opts: &Opts,
    ) -> Instance {
        let mut cmd = Command::new(bin);
        cmd.arg("--config")
            .arg(config)
            .arg("--me")
            .arg(me.to_string())
            .arg("--secs")
            .arg(secs.to_string())
            .arg("--seed")
            .arg(opts.seed.to_string())
            // Same directory across incarnations: the restarted victim
            // must find (and recover from) its own pre-crash WAL.
            .arg("--data-dir")
            .arg(data_root.join(format!("replica-{me}")))
            .stdout(Stdio::piped());
        if let Some(epochs) = &opts.epochs {
            cmd.arg("--epochs").arg(epochs);
        }
        if opts.admin {
            // Port 0: the OS picks, the replica resolves and announces
            // the bound address on its ADMIN stdout line.
            cmd.arg("--admin-port").arg("0");
        }
        if me == 0 {
            if let Some(trace) = &opts.trace_out {
                cmd.arg("--trace-out").arg(trace);
            }
        }
        let mut child = cmd
            .spawn()
            .unwrap_or_else(|e| usage(&format!("spawning {}: {e}", bin.display())));
        let stdout = child.stdout.take().expect("piped stdout");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                sink.lock().expect("stdout sink").push(line);
            }
        });
        Instance {
            me,
            child,
            lines,
            reader: Some(reader),
        }
    }

    /// Polls the captured stdout for the replica's `ADMIN <addr>` line.
    /// `None` after the timeout.
    fn wait_admin(&self, timeout: Duration) -> Option<String> {
        let deadline = Instant::now() + timeout;
        loop {
            let found = self
                .lines
                .lock()
                .expect("stdout sink")
                .iter()
                .find_map(|l| l.strip_prefix("ADMIN ").map(str::to_string));
            if found.is_some() || Instant::now() >= deadline {
                return found;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Waits for exit (or kills on `kill=true`), joins the reader, and
    /// returns the captured stdout lines.
    fn finish(mut self, kill: bool) -> (usize, Vec<String>) {
        if kill {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            r.join().expect("stdout reader");
        }
        let lines = std::mem::take(&mut *self.lines.lock().expect("stdout sink"));
        (self.me, lines)
    }
}

/// Pulls `"key":<u64>` out of a REPORT line (the launcher wrote the
/// replica, so this narrow parse is safe).
fn report_u64(report: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let Some(at) = report.find(&pat) else {
        return 0;
    };
    report[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// Epoch boundary round for `--replace-node`. Low enough that it has
/// certainly passed by the time the joiner spawns (a third into the
/// run), so the joiner's catch-up package must certify *across* it.
const REPLACE_BOUNDARY: u64 = 10;

fn main() {
    let mut opts = parse();
    let n = opts.nodes;
    // Replace mode runs an (n+1)-party universe: the spare (index n)
    // joins at the boundary, the last original member (n-1) leaves.
    let universe = if opts.replace { n + 1 } else { n };
    let joiner = n;
    let retiree = n - 1;
    if opts.replace {
        let initial: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        let next: Vec<String> = (0..n - 1)
            .chain(std::iter::once(joiner))
            .map(|i| i.to_string())
            .collect();
        opts.epochs = Some(format!(
            "0:{};{REPLACE_BOUNDARY}:{}",
            initial.join(","),
            next.join(",")
        ));
    }
    let opts = opts;

    // Reserve one free port per universe slot by binding :0 listeners,
    // then release them for the replicas. (A tiny race with other local
    // processes, but fine for a localhost bench.)
    let listeners: Vec<TcpListener> = (0..universe)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound").to_string())
        .collect();
    drop(listeners);

    let config = std::env::temp_dir().join(format!("icc_net_cluster_{}.txt", std::process::id()));
    let mut spec = String::new();
    for (i, a) in addrs.iter().enumerate() {
        spec.push_str(&format!("{i} {a}\n"));
    }
    std::fs::write(&config, &spec).expect("write cluster config");
    // Per-replica durable state. The victim's directory survives its
    // SIGKILL — that surviving WAL is what the recovery assertion is
    // about.
    let data_root =
        std::env::temp_dir().join(format!("icc_net_cluster_data_{}", std::process::id()));
    std::fs::create_dir_all(&data_root).expect("create data root");

    // The replica binary sits next to this launcher in target/.
    let bin = std::env::current_exe()
        .expect("current exe")
        .with_file_name(if cfg!(windows) {
            "replica.exe"
        } else {
            "replica"
        });
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
    let mut running: Vec<Instance> = (0..n)
        .map(|me| Instance::spawn(&bin, &config, &data_root, me, opts.secs, &opts))
        .collect();
    // (me, lines) per finished process incarnation, in finish order.
    let mut finished: Vec<(usize, Vec<String>)> = Vec::new();

    // Orchestration runs on absolute offsets from `started` so the
    // churn/replace phases and the admin scrapes interleave
    // deterministically: fault injection at 1/3, mid-run scrape at
    // 1/2, recovery injection at 2/3, trace collection 2s before the
    // deadline.
    let sleep_until = |offset: Duration| {
        let target = started + offset;
        let now = Instant::now();
        if now < target {
            std::thread::sleep(target - now);
        }
    };
    let third = Duration::from_secs(opts.secs / 3);

    // Replace phase 1: spawn the spare as a brand-new process a third
    // in (the boundary has long passed, so it must join via a
    // certified cross-epoch catch-up package).
    if opts.replace {
        sleep_until(third);
        let remaining = opts.secs.saturating_sub(started.elapsed().as_secs()).max(2);
        running.push(Instance::spawn(
            &bin, &config, &data_root, joiner, remaining, &opts,
        ));
        println!("spawned joiner {joiner} at t={:?}", started.elapsed());
    }

    // Churn phase 1: SIGKILL the last replica a third of the way
    // through. The ~secs/3 outage at ICC1's localhost round rate puts
    // it far more than `icc_core::PURGE_DEPTH` (2 × `CATCH_UP_THRESHOLD`
    // = 20) rounds behind: its peers no longer hold the bodies it
    // missed, so rejoining MUST go through a certified catch-up package.
    let victim = n - 1;
    if opts.churn {
        sleep_until(third);
        let pos = running
            .iter()
            .position(|i| i.me == victim)
            .expect("victim running");
        let inst = running.remove(pos);
        finished.push(inst.finish(true));
        println!("killed replica {victim} at t={:?}", started.elapsed());
    }

    // Mid-run scrape: every *running* replica must serve a live
    // Prometheus render and report healthy while consensus is actually
    // making progress around it — observability at exit only would be
    // a much weaker claim.
    let mut scrape_body: Option<String> = None;
    if opts.admin {
        sleep_until(Duration::from_secs(opts.secs / 2));
        for inst in &running {
            let addr = inst.wait_admin(Duration::from_secs(5)).unwrap_or_else(|| {
                usage(&format!(
                    "replica {} never announced an admin endpoint",
                    inst.me
                ))
            });
            let (code, body) = http_get(&addr, "/metrics", Duration::from_secs(5))
                .unwrap_or_else(|e| usage(&format!("scrape {addr}/metrics: {e}")));
            assert_eq!(code, 200, "replica {} /metrics returned {code}", inst.me);
            assert!(
                body.contains("icc_replica_committed_round"),
                "replica {} /metrics is missing the consensus gauges",
                inst.me
            );
            let (hcode, hbody) = http_get(&addr, "/health", Duration::from_secs(5))
                .unwrap_or_else(|e| usage(&format!("scrape {addr}/health: {e}")));
            assert_eq!(
                hcode, 200,
                "replica {} reported unhealthy mid-run: {hbody}",
                inst.me
            );
            let (scode, sbody) = http_get(&addr, "/status", Duration::from_secs(5))
                .unwrap_or_else(|e| usage(&format!("scrape {addr}/status: {e}")));
            assert_eq!(scode, 200, "replica {} /status returned {scode}", inst.me);
            assert!(
                sbody.contains("\"peers\":["),
                "replica {} /status is missing the link table",
                inst.me
            );
            if inst.me == 0 {
                scrape_body = Some(body);
            }
        }
        println!(
            "mid-run scrape OK: {} replicas served /metrics, /health, /status at t={:?}",
            running.len(),
            started.elapsed()
        );
    }
    if let Some(path) = &opts.scrape_out {
        std::fs::write(path, scrape_body.as_deref().unwrap_or(""))
            .unwrap_or_else(|e| usage(&format!("--scrape-out {path}: {e}")));
        println!("wrote {path}");
    }

    // Replace phase 2: retire the replaced member at two thirds. The
    // retiree spends its post-boundary life as an observer — killing
    // it must not dent liveness.
    if opts.replace {
        sleep_until(2 * third);
        let pos = running
            .iter()
            .position(|i| i.me == retiree)
            .expect("retiree running");
        let inst = running.remove(pos);
        finished.push(inst.finish(true));
        println!("retired replica {retiree} at t={:?}", started.elapsed());
    }

    // Churn phase 2: restart the victim at two thirds. Stop when the
    // others do: its budget is the remaining time.
    if opts.churn {
        sleep_until(2 * third);
        let remaining = opts.secs.saturating_sub(started.elapsed().as_secs()).max(2);
        running.push(Instance::spawn(
            &bin, &config, &data_root, victim, remaining, &opts,
        ));
        println!("restarted replica {victim} at t={:?}", started.elapsed());
    }

    // Trace collection: scrape every replica's flight-recorder ring
    // shortly before the deadline (the admin server dies with its
    // process, so this is the last safe moment), then align clocks via
    // the per-body `clockAnchorUs` and merge into one timeline.
    if let Some(path) = &opts.stitched_trace {
        sleep_until(Duration::from_secs(opts.secs.saturating_sub(2)));
        let mut bodies = Vec::new();
        for inst in &running {
            let Some(addr) = inst.wait_admin(Duration::from_secs(2)) else {
                continue;
            };
            // A replica racing its own shutdown may refuse — stitch
            // whatever answered.
            if let Ok((200, body)) = http_get(&addr, "/trace", Duration::from_secs(5)) {
                bodies.push(body);
            }
        }
        assert!(
            !bodies.is_empty(),
            "no replica served /trace before shutdown"
        );
        let stitched = stitch_chrome_traces(&bodies);
        std::fs::write(path, &stitched)
            .unwrap_or_else(|e| usage(&format!("--stitched-trace {path}: {e}")));
        println!(
            "wrote {path} ({} per-replica traces stitched)",
            bodies.len()
        );
    }

    for inst in running {
        finished.push(inst.finish(false));
    }
    let _ = std::fs::remove_file(&config);

    // --- Safety: one hash per round, across every process incarnation.
    let mut by_round: HashMap<u64, String> = HashMap::new();
    let mut commits_total = 0u64;
    let mut final_round: HashMap<usize, u64> = HashMap::new();
    let mut reports: Vec<(usize, String)> = Vec::new();
    for (me, lines) in &finished {
        for line in lines {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("COMMIT") => {
                    let (Some(round), Some(hash), None) =
                        (parts.next(), parts.next(), parts.next())
                    else {
                        continue; // torn final line of a killed process
                    };
                    let Ok(round) = round.parse::<u64>() else {
                        continue;
                    };
                    // A SIGKILL can tear a line mid-hash; only full
                    // 32-byte digests enter the safety check.
                    if hash.len() != 64 {
                        continue;
                    }
                    commits_total += 1;
                    let e = final_round.entry(*me).or_insert(0);
                    *e = (*e).max(round);
                    match by_round.get(&round) {
                        None => {
                            by_round.insert(round, hash.to_string());
                        }
                        Some(seen) => assert_eq!(
                            seen, hash,
                            "SAFETY VIOLATION: replica {me} committed a different block in round {round}"
                        ),
                    }
                }
                Some("REPORT") => {
                    reports.push((*me, line["REPORT ".len()..].to_string()));
                }
                _ => {}
            }
        }
    }
    let rounds_checked = by_round.len() as u64;
    assert!(rounds_checked > 0, "no rounds committed at all");

    // --- Liveness: everyone's chain kept growing despite the churn.
    // The conservative floor is ~1 round/s; localhost actually runs
    // orders of magnitude faster.
    let floor = opts.secs;
    for me in 0..universe {
        let last = final_round.get(&me).copied().unwrap_or(0);
        assert!(
            last >= floor,
            "LIVENESS: replica {me} stalled at round {last} (floor {floor})"
        );
    }

    // --- Recovery: the restarted replica used certified catch-up, and
    // the survivors' writers redialed it.
    let catch_ups: u64 = reports
        .iter()
        .filter(|(me, _)| *me == victim)
        .map(|(_, r)| report_u64(r, "catch_up_applied"))
        .sum();
    let reconnects: u64 = reports
        .iter()
        .map(|(_, r)| report_u64(r, "reconnects"))
        .sum();
    // --- Durability: the restarted victim (the only incarnation that
    // lives long enough to print a REPORT) must have restored its
    // pre-crash state from its own WAL — without re-verifying a single
    // signature. The SIGKILLed incarnation never reported, so these
    // aggregates are exactly the restarted one's numbers.
    let victim_reports: Vec<&String> = reports
        .iter()
        .filter(|(me, _)| *me == victim)
        .map(|(_, r)| r)
        .collect();
    let recovered_round: u64 = victim_reports
        .iter()
        .map(|r| report_u64(r, "recovered_round"))
        .max()
        .unwrap_or(0);
    let recovered_records: u64 = victim_reports
        .iter()
        .map(|r| report_u64(r, "recovered_records"))
        .sum();
    let restore_verifications: u64 = victim_reports
        .iter()
        .map(|r| report_u64(r, "restore_verifications"))
        .sum();
    if opts.churn {
        assert!(
            catch_ups >= 1,
            "restarted replica {victim} rejoined without a certified catch-up package"
        );
        assert!(
            reconnects >= 1,
            "no replica reported a completed reconnection"
        );
        assert!(
            recovered_round >= 1,
            "restarted replica {victim} recovered nothing from its WAL \
             (recovered_round {recovered_round})"
        );
        assert!(
            recovered_records >= 1,
            "restarted replica {victim} read no records back from disk"
        );
        assert_eq!(
            restore_verifications, 0,
            "restarted replica {victim} re-verified signatures during WAL restore \
             — trusted replay is broken"
        );
    }

    // --- Reconfiguration: the joiner came in through a certified
    // catch-up package whose certificate chain crossed the epoch
    // boundary, and every survivor activated the transition.
    let mut joiner_cross_epoch = 0u64;
    let mut epoch_transitions_min = 0u64;
    if opts.replace {
        let stat = |who: usize, key: &str| -> u64 {
            reports
                .iter()
                .filter(|(me, _)| *me == who)
                .map(|(_, r)| report_u64(r, key))
                .max()
                .unwrap_or(0)
        };
        joiner_cross_epoch = stat(joiner, "cross_epoch_catch_ups");
        assert!(
            stat(joiner, "catch_up_applied") >= 1,
            "joiner {joiner} rejoined without a certified catch-up package"
        );
        assert!(
            joiner_cross_epoch >= 1,
            "joiner {joiner}'s catch-up package did not cross the epoch boundary"
        );
        // The retiree was killed and never reported; every other
        // original member must have crossed the boundary live.
        epoch_transitions_min = (0..n - 1)
            .map(|me| stat(me, "epoch_transitions"))
            .min()
            .unwrap_or(0);
        assert!(
            epoch_transitions_min >= 1,
            "a surviving replica never activated the epoch transition"
        );
    }

    let elapsed = started.elapsed();
    println!(
        "done in {elapsed:?}: {commits_total} COMMIT lines, {rounds_checked} distinct rounds, \
         per-round safety OK"
    );
    println!(
        "liveness OK (every replica ≥ round {floor}); catch-ups applied {catch_ups}, \
         reconnects {reconnects}"
    );
    if opts.churn {
        println!(
            "durability OK: victim recovered to round {recovered_round} from \
             {recovered_records} WAL records with {restore_verifications} re-verifications"
        );
    }
    if opts.replace {
        println!(
            "reconfiguration OK: joiner {joiner} joined via {joiner_cross_epoch} cross-epoch \
             catch-up package(s), every survivor activated >= {epoch_transitions_min} \
             epoch transition(s), retiree {retiree} removed"
        );
    }

    // --- BENCH_net.json: the REPORT lines are already JSON objects.
    reports.sort_by_key(|(me, _)| *me);
    let replica_objs: Vec<String> = reports.into_iter().map(|(_, r)| r).collect();
    let bench = format!(
        "{{\"bench\":\"net_cluster\",\"nodes\":{n},\"secs\":{},\"seed\":{},\"churn\":{},\
         \"replace\":{},\"joiner_cross_epoch\":{joiner_cross_epoch},\
         \"epoch_transitions_min\":{epoch_transitions_min},\
         \"elapsed_ms\":{},\"commits_total\":{commits_total},\"rounds_checked\":{rounds_checked},\
         \"min_final_round\":{},\"catch_up_applied\":{catch_ups},\"reconnects\":{reconnects},\
         \"recovered_round\":{recovered_round},\"recovered_records\":{recovered_records},\
         \"restore_verifications\":{restore_verifications},\"replicas\":[{}]}}\n",
        opts.secs,
        opts.seed,
        opts.churn,
        opts.replace,
        elapsed.as_millis(),
        (0..universe)
            .map(|me| final_round.get(&me).copied().unwrap_or(0))
            .min()
            .unwrap_or(0),
        replica_objs.join(","),
    );
    std::fs::write(&opts.bench_out, bench)
        .unwrap_or_else(|e| usage(&format!("--bench-out {}: {e}", opts.bench_out)));
    println!("wrote {}", opts.bench_out);
    let _ = std::fs::remove_dir_all(&data_root);
}
