//! One consensus **replica** as a library: an ICC1 node (gossip +
//! consensus core) built the way every replica is built, driven by the
//! shared wall-clock loop over a real TCP mesh. The `replica` binary is
//! this crate plus flags, a SIGTERM handler and exit codes;
//! `net_cluster` spawns it through [`Instance`] and reads its stdout
//! back through [`parse_commit`] and [`RunReport::parse`].
//!
//! [`Replica::build`] deals the same deterministic key set from the
//! shared seed at every replica (optionally under an `--epochs`
//! schedule) and keeps only its own share, so the peer file plus the
//! seed *are* the cluster identity. The gossip node around the core is
//! `icc_gossip::Recipe::shipped(n)`'s, as in every simulated cluster
//! built from that recipe. With a data directory the core
//! persists everything it certifies, every vote on disk before it is
//! sent, and a restart from the same directory recovers its own state
//! with zero signature re-verifications before catching up over the
//! network on what it missed while down.
//!
//! [`Replica::run`] writes one record per line: `READY <addr>` (mesh
//! dialing), `ADMIN <addr>` (admin plane up), `COMMIT <round> <hash>`
//! per block joining the chain, and `REPORT {json}` ([`RunReport`]) on
//! a clean stop. The admin plane serves `/metrics` (the render
//! `--metrics-out` writes at exit), `/health` (200/503: round progress,
//! peer quorum, WAL I/O errors, fail-stop halt), `/status` (rounds,
//! epoch, link table, recent anomalies) and `/trace` (the
//! flight-recorder ring, clock-anchored for `net_cluster
//! --stitched-trace`) out of a snapshot a timer in the `drive` loop publishes
//! every 250 ms, so a scrape never blocks a round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// It parses lines another process wrote: nothing it reads may panic it.
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::unwrap_used))]

mod launch;
mod observe;
mod report;

pub use launch::Instance;
pub use observe::{families, render_metrics, Family};
pub use report::{parse_commit, Counters, RunReport};

use icc_core::byzantine::Behavior;
use icc_core::consensus::ConsensusCore;
use icc_core::delays::StaticDelays;
use icc_core::epoch::EpochSchedule;
use icc_core::events::NodeEvent;
use icc_core::keys::{generate_keys, generate_keys_with_schedule};
use icc_core::storage::{DurableStore, StorageCounters};
use icc_gossip::{GossipMessage, GossipNode, Recipe};
use icc_net::TcpTransport;
use icc_sim::runtime::drive;
use icc_telemetry::HealthInputs;
use icc_types::{Command, SimDuration, SubnetConfig};
use icc_wal::WalOptions;
use observe::{serve_admin, ObservedNode, Published};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// What one replica is told: every `replica` flag but `--config`.
#[derive(Debug, Clone)]
pub struct Settings {
    /// This replica's index in the peer file.
    pub me: u32,
    /// Run length in seconds.
    pub secs: u64,
    /// Key-dealing seed, the same at every replica.
    pub seed: u64,
    /// `Δbnd` of the static delay functions, ms.
    pub delta_bnd_ms: u64,
    /// `ε` of the static delay functions, ms.
    pub epsilon_ms: u64,
    /// Commands injected per second.
    pub cmd_rate: u64,
    /// Bytes per injected command (at least 16).
    pub cmd_size: usize,
    /// Durable store directory; volatile without one.
    pub data_dir: Option<PathBuf>,
    /// Chrome trace of the flight recorder, written at exit.
    pub trace_out: Option<PathBuf>,
    /// Prometheus snapshot, written at exit.
    pub metrics_out: Option<PathBuf>,
    /// Membership schedule, `round:members;round:members`.
    pub epochs: Option<String>,
    /// Admin plane on `127.0.0.1:<port>` (0: the OS picks).
    pub admin_port: Option<u16>,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            me: 0,
            secs: 10,
            seed: 0,
            // Pace rounds at roughly 10/s: localhost latency is ~µs, so
            // an unpaced cluster would spin rounds faster than the
            // launcher can meaningfully observe (and a restarted replica
            // could never fall a satisfying number of rounds behind).
            delta_bnd_ms: 300,
            epsilon_ms: 50,
            cmd_rate: 50,
            cmd_size: 64,
            data_dir: None,
            trace_out: None,
            metrics_out: None,
            epochs: None,
            admin_port: None,
        }
    }
}

/// A built replica, ready to [`run`](Replica::run) over a transport.
pub struct Replica {
    node: GossipNode,
    settings: Settings,
    n: usize,
}

impl Replica {
    /// Builds replica `settings.me` of an `n`-party cluster: keys, core,
    /// store and gossip node. `Err` names the setting at fault.
    pub fn build(n: usize, settings: Settings) -> Result<Replica, String> {
        let me = settings.me;
        if me as usize >= n {
            return Err(format!("--me {me} out of range for n={n}"));
        }
        if n < 3 {
            return Err("a gossip cluster needs at least 3 nodes".into());
        }
        // With `--epochs` the peer file lists the *universe* (every
        // party that is ever a member), and all replicas must agree on
        // the spec string exactly — it determines the reshared
        // per-epoch beacon keys.
        let all_keys = match &settings.epochs {
            Some(spec) => {
                let schedule = EpochSchedule::parse(spec).map_err(|e| format!("--epochs: {e}"))?;
                if schedule.universe() > n {
                    return Err(format!(
                        "--epochs mentions node {} but --config lists only {n} peers",
                        schedule.universe() - 1
                    ));
                }
                generate_keys_with_schedule(SubnetConfig::new(n), settings.seed, &schedule)
            }
            None => generate_keys(SubnetConfig::new(n), settings.seed),
        };
        let keys = all_keys
            .into_iter()
            .nth(me as usize)
            .ok_or_else(|| format!("no key share for --me {me}"))?;
        let mut core = ConsensusCore::new(
            keys,
            StaticDelays::new(
                SimDuration::from_millis(settings.delta_bnd_ms),
                SimDuration::from_millis(settings.epsilon_ms),
            ),
            Behavior::Honest,
        );
        // A directory that already holds a previous incarnation's disk
        // is restored from in `start`, before the network catch-up
        // covers the outage gap.
        if let Some(dir) = &settings.data_dir {
            let store = DurableStore::file(dir, WalOptions::default())
                .map_err(|e| format!("--data-dir {}: {e}", dir.display()))?;
            if !store.is_empty() {
                eprintln!(
                    "replica {me}: recovered {} durable entries (frontier round {})",
                    store.recovered_entries(),
                    store.frontier().get()
                );
            }
            core = core.with_store(store);
        }
        let node = Recipe::shipped(n).node(core);
        Ok(Replica { node, settings, n })
    }

    /// Runs for `settings.secs` or until `stop` is set, writing the
    /// stdout records to `out`; then syncs the store, writes the
    /// `REPORT` line and the `--trace-out`/`--metrics-out` files, and
    /// returns the report. `Err` names the setting at fault.
    pub fn run(
        self,
        transport: TcpTransport<GossipMessage, Command>,
        stop: &AtomicBool,
        out: &mut impl Write,
    ) -> Result<RunReport, String> {
        let (node, s, n) = (self.node, self.settings, self.n);
        let handle = transport.handle();
        let net = transport.counters_handle();
        let mut emit = |line: std::fmt::Arguments<'_>| {
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        };
        emit(format_args!("READY {}", transport.local_addr()));
        let publish = Arc::new(Mutex::new(Published::default()));
        let admin = s.admin_port.map(|port| {
            serve_admin(&publish, port).map_err(|e| format!("--admin-port {port}: {e}"))
        });
        let admin = admin.transpose()?;
        if let Some(server) = &admin {
            emit(format_args!("ADMIN {}", server.local_addr()));
        }

        let deadline = Instant::now() + Duration::from_secs(s.secs);
        let running = || Instant::now() < deadline && !stop.load(Ordering::SeqCst);
        let (mut blocks, mut commands) = (0u64, 0u64);
        // The wall clock and the run's monotonic start are sampled
        // back-to-back: the anchor maps this process's trace timestamps
        // onto the cluster-shared UNIX timeline.
        let clock_anchor_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        let start = Instant::now();
        let observed = ObservedNode {
            inner: node,
            publish: s.admin_port.map(|_| publish),
            links: transport.links_handle(),
            net: Arc::clone(&net),
            clock_anchor_us,
            // `/health` calls the replica stalled after ten round paces
            // without commit progress (floor 2s for fast-paced
            // configs), and isolated below the notarization quorum
            // minus self.
            health: HealthInputs {
                stall_after_us: (10 * s.delta_bnd_ms * 1000).max(2_000_000),
                min_peers_up: (n - (n - 1) / 3 - 1) as u64,
                now_us: 0,
                last_progress_us: 0,
                committed_round: 0,
                peers_up: 0,
                peers_total: 0,
                wal_io_errors: 0,
                storage_halted: false,
            },
            prev_storage: StorageCounters::default(),
        };
        let mut node = std::thread::scope(|scope| {
            // Client load at --cmd-rate, tagged so payloads are unique
            // per replica and per tick. A deployment would accept these
            // over a client port; a thread keeps the replica
            // self-contained.
            let injector = handle.clone();
            scope.spawn(move || {
                let period = Duration::from_nanos(1_000_000_000 / s.cmd_rate.max(1));
                let mut tick: u64 = 0;
                while running() {
                    let mut payload = format!("r{}t{tick}", s.me).into_bytes();
                    payload.resize(s.cmd_size.max(16), b'.');
                    if !injector.inject(Command::new(payload)) {
                        break;
                    }
                    tick += 1;
                    std::thread::sleep(period);
                }
            });
            // Stop `drive` when the run is over or `stop` is set;
            // short sleeps keep stop-to-shutdown latency ~50ms.
            scope.spawn(move || {
                while running() {
                    std::thread::sleep(Duration::from_millis(50));
                }
                handle.stop();
            });
            drive(observed, transport, start, |rec| {
                if let NodeEvent::Committed { block } = &rec.output {
                    blocks += 1;
                    commands += block.block().payload().len() as u64;
                    let (round, hash) = (block.round().get(), block.hash());
                    emit(format_args!("COMMIT {round} {hash}"));
                }
            })
        });

        // Sync what steps that made no promise wrote since the last
        // barrier (certified artifacts), so a clean shutdown leaves the
        // data dir byte-complete on disk.
        if let Err(e) = node.inner.core_mut().flush_store() {
            eprintln!("replica {}: store flush failed: {e}", s.me);
        }
        let core = node.inner.core();
        let report = RunReport {
            me: u64::from(s.me),
            n: n as u64,
            committed_round: core.committed_round().get(),
            blocks,
            commands,
            recovered_round: core.last_recovered_round(),
            halted: core.halted().is_some(),
            families: families(&node.inner, Some(&net.snapshot()))
                .into_iter()
                .map(|f| (f.key.into(), f.fields.into()))
                .collect(),
        };
        emit(format_args!("{}", report.to_line()));

        // Both exports are what `/trace` and `/metrics` serve live, and
        // are fsync'd, their names included, before exit.
        let trace = || {
            let trace = node.trace();
            // One "ph":"i" instant per recorded flight-recorder event.
            let events = core.telemetry().recorder.events().len();
            assert_eq!(trace.matches("\"ph\":\"i\"").count(), events);
            trace
        };
        let metrics = || node.metrics();
        let exports: [(_, _, &dyn Fn() -> String); 2] = [
            ("--trace-out", &s.trace_out, &trace),
            ("--metrics-out", &s.metrics_out, &metrics),
        ];
        for (flag, path, render) in exports {
            let Some(path) = path else { continue };
            write_durable(path, render().as_bytes())
                .map_err(|e| format!("{flag} {}: {e}", path.display()))?;
            eprintln!("replica {}: {flag} written to {}", s.me, path.display());
        }
        if let Some(why) = core.halted() {
            eprintln!("replica {}: halted, store failed: {why}", s.me);
        }
        Ok(report)
    }
}

/// Writes `bytes` to `path` and fsyncs the file and its directory —
/// telemetry exports, a newly created file's name included, survive
/// even if the host loses power right after shutdown.
fn write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    icc_wal::sync_dir(dir.unwrap_or(Path::new(".")))
}
