//! The two real-socket workloads: four replicas on loopback TCP with a
//! WAL, each driven by the workspace's wall-clock driver on its own
//! thread, and one load-generator thread (the caller's).

use crate::measure::{Recorder, Sample};
use crate::os;
use crate::stats::{SplitMix64, SLICES};
use crate::sut::{
    self, Cmd, Counters, Event, MachineKind, NetProbe, Protocol, ReplicaHandle, ReplicaReport,
};
use crate::trace::Tracer;
use crate::workload::{LoadStats, RunOutcome, WindowSample};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How commands are offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// On a fixed schedule, whatever the system does; latency runs from
    /// the due time.
    Open { rate_per_s: u64 },
    /// A fixed number outstanding; the next is submitted when one
    /// commits at the replica that received it.
    Closed { outstanding: usize },
}

#[derive(Debug, Clone, Copy)]
pub enum Payload {
    /// 64-byte ledger transfers.
    Ledger,
    /// KV sets with a value of this many bytes.
    Kv { value_len: usize },
}

pub struct TcpWorkload {
    pub delta_bnd_ms: u64,
    pub epsilon_ms: u64,
    pub load: Load,
    pub payload: Payload,
    /// Commands committed everywhere before the window opens.
    pub warmup_cmds: u64,
    /// `rss_mb` is read when this many measured commands per window
    /// second have committed at the replica that received them: memory
    /// at equal work, however fast the build under test gets there.
    pub rss_mark_cmds_per_s: f64,
}

pub const REPLICAS: usize = 4;
/// The stated cost of one WAL `sync` (see `sut::ModelFs`).
pub const SYNC_COST: Duration = Duration::from_micros(250);
/// A command committed later than this after it was due is a failure.
const LATENCY_LIMIT_US: u64 = 1_000_000;
const DRAIN: Duration = Duration::from_secs(3);
const FUNDED_ACCOUNTS: u64 = 16;

struct Generator {
    payload: Payload,
    rng: SplitMix64,
    /// Round-robin cursor over replicas; the seed picks where it starts.
    cursor: usize,
}

impl Generator {
    fn command(&mut self, id: u64) -> Cmd {
        match self.payload {
            Payload::Ledger => sut::ledger_transfer(self.rng.below(FUNDED_ACCOUNTS), id),
            Payload::Kv { value_len } => {
                let slot = self.rng.below(256);
                let rng = &mut self.rng;
                sut::kv_set(slot, id, value_len, || rng.next_u64())
            }
        }
    }

    fn next_home(&mut self) -> u32 {
        self.cursor = (self.cursor + 1) % REPLICAS;
        self.cursor as u32
    }
}

/// A running cluster with its load generator state.
struct Live {
    start: Instant,
    handles: Vec<ReplicaHandle>,
    nets: Vec<NetProbe>,
    threads: Vec<JoinHandle<ReplicaReport>>,
    rx: Receiver<Event>,
    rec: Recorder,
    gen: Generator,
    in_flight: usize,
    late_us: Vec<f64>,
}

impl Live {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// `NetCounters` summed over the replicas.
    fn net(&self) -> Counters {
        let mut sum = Counters::default();
        for n in &self.nets {
            sum.add(&n.snapshot());
        }
        sum
    }

    /// Payload bytes all replicas have put on the wire.
    fn wire_bytes(&self) -> u64 {
        self.nets.iter().map(NetProbe::bytes_sent).sum()
    }

    fn sample(&self) -> Sample {
        Sample {
            cpu_ns: os::process_cpu_ns(),
            wire_bytes: self.wire_bytes(),
        }
    }

    fn submit(&mut self, due_us: u64, measured: bool) {
        let home = self.gen.next_home();
        let id = self.rec.submitted(home, due_us, measured);
        let cmd = self.gen.command(id);
        self.late_us
            .push(self.now_us().saturating_sub(due_us) as f64);
        assert!(
            self.handles[home as usize].submit(cmd),
            "replica {home} stopped while the generator was running"
        );
        self.in_flight += 1;
    }

    /// Handles events until `deadline_us`, calling `on_complete` once per
    /// command that committed at its home replica.
    fn pump(&mut self, deadline_us: u64, mut on_complete: impl FnMut(&mut Live)) {
        loop {
            let now = self.now_us();
            if now >= deadline_us {
                return;
            }
            match self
                .rx
                .recv_timeout(Duration::from_micros(deadline_us - now))
            {
                Ok(ev) => {
                    let done = self.rec.ingest(&ev).len();
                    if self.rec.wants_mark() {
                        let sample = self.sample();
                        self.rec.mark(sample);
                    }
                    self.in_flight -= done;
                    for _ in 0..done {
                        on_complete(self);
                    }
                }
                Err(RecvTimeoutError::Timeout) => return,
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("every replica thread ended while the generator was running")
                }
            }
        }
    }

    /// Stops the replicas and collects their reports and the final
    /// `NetCounters` sum.
    fn stop(self) -> (Recorder, Vec<ReplicaReport>, Counters) {
        for h in &self.handles {
            h.stop();
        }
        let net = self.net();
        let reports = self
            .threads
            .into_iter()
            .map(|t| t.join().expect("replica thread panicked"))
            .collect();
        (self.rec, reports, net)
    }
}

/// Everything the window-edge flag and the tracers need.
pub struct TraceSetup {
    pub window_open: Arc<AtomicBool>,
    pub ctx: sut::TraceCtx,
}

impl TraceSetup {
    pub fn new(nodes: usize, epoch: Instant) -> TraceSetup {
        let window_open = Arc::new(AtomicBool::new(false));
        TraceSetup {
            ctx: sut::TraceCtx {
                tracers: (0..nodes)
                    .map(|i| Tracer::new(i as u32, nodes, epoch, Arc::clone(&window_open)))
                    .collect(),
                shared: Arc::default(),
            },
            window_open,
        }
    }
}

fn protocol(w: &TcpWorkload, seed: u64) -> Protocol {
    Protocol {
        n: REPLICAS,
        key_seed: seed,
        delta_bnd_ms: w.delta_bnd_ms,
        epsilon_ms: w.epsilon_ms,
    }
}

/// Set-up: key generation, cluster build, mesh connect, and warm-up
/// until `warmup_cmds` generated commands have committed at every
/// replica. Returns the live cluster and how long that took.
fn set_up(
    w: &TcpWorkload,
    seed: u64,
    data_root: &Path,
    trace: Option<&TraceSetup>,
) -> std::io::Result<(Live, f64)> {
    let t0 = Instant::now();
    let machine = match w.payload {
        Payload::Ledger => MachineKind::Ledger,
        Payload::Kv { .. } => MachineKind::Kv,
    };
    let id_offset = match w.payload {
        Payload::Ledger => sut::LEDGER_ID_OFFSET,
        Payload::Kv { .. } => sut::KV_ID_OFFSET,
    };
    let replicas = sut::build_tcp_cluster(
        &protocol(w, seed),
        data_root,
        SYNC_COST,
        machine,
        trace.map(|t| &t.ctx),
    )?;
    let start = Instant::now();
    let (tx, rx) = channel();
    let traced = trace.is_some();
    let mut handles = Vec::new();
    let mut nets = Vec::new();
    let mut threads = Vec::new();
    for replica in replicas {
        handles.push(replica.handle.clone());
        nets.push(replica.net.clone());
        let tx = tx.clone();
        threads.push(
            std::thread::Builder::new()
                .name("replica".into())
                .spawn(move || {
                    replica.run(start, id_offset, move |ev| {
                        // Untraced runs need commits only; the traced
                        // run also reads round entries and finishes.
                        if traced || matches!(ev.ev, sut::Ev::Committed { .. }) {
                            // The generator outlives the replicas; a
                            // closed channel only happens on its panic.
                            let _ = tx.send(ev);
                        }
                    })
                })?,
        );
    }
    let all: Vec<u32> = (0..REPLICAS as u32).collect();
    let mut live = Live {
        start,
        handles,
        nets,
        threads,
        rx,
        rec: Recorder::new(all.clone(), all, LATENCY_LIMIT_US),
        gen: Generator {
            payload: w.payload,
            rng: SplitMix64::new(seed ^ 0x10ad),
            cursor: (seed % REPLICAS as u64) as usize,
        },
        in_flight: 0,
        late_us: Vec::new(),
    };
    if matches!(w.payload, Payload::Ledger) {
        // Every replica gets every mint first in its queue (duplicates
        // are dropped by digest), so no transfer can precede its funds.
        for account in 0..FUNDED_ACCOUNTS {
            let mint = sut::ledger_mint(account, 1 << 40);
            for h in &live.handles {
                h.submit(mint.clone());
            }
        }
    }
    // Warm-up offers the workload's own load shape.
    let deadline = live.now_us() + 20_000_000;
    match w.load {
        Load::Open { rate_per_s } => {
            let period = 1_000_000 / rate_per_s;
            let first = live.now_us();
            for i in 0..w.warmup_cmds {
                let due = first + i * period;
                live.pump(due, |_| {});
                live.submit(due, false);
            }
        }
        Load::Closed { outstanding } => {
            for _ in 0..outstanding.min(w.warmup_cmds as usize) {
                let now = live.now_us();
                live.submit(now, false);
            }
            let total = w.warmup_cmds;
            while live.rec.next_id() < total && live.now_us() < deadline {
                let until = live.now_us() + 50_000;
                live.pump(until, |l| {
                    if l.rec.next_id() < total {
                        let now = l.now_us();
                        l.submit(now, false);
                    }
                });
            }
        }
    }
    while live.rec.outstanding() > 0 && live.now_us() < deadline {
        let until = live.now_us() + 5_000;
        live.pump(until, |_| {});
    }
    if live.rec.outstanding() > 0 {
        return Err(std::io::Error::other(format!(
            "warm-up: {} commands uncommitted after 20 s",
            live.rec.outstanding()
        )));
    }
    live.late_us.clear();
    Ok((live, t0.elapsed().as_secs_f64()))
}

/// The measured window plus drain on a warmed-up cluster.
fn measure(
    live: &mut Live,
    w: &TcpWorkload,
    seconds: f64,
    window_open: Option<&AtomicBool>,
) -> WindowSample {
    let len_us = (seconds * 1e6) as u64;
    let slice_us = len_us / SLICES as u64;
    let rss_mark_cmds = (w.rss_mark_cmds_per_s * seconds) as u64;
    let gen_cpu0 = os::thread_cpu_ns();
    let rss_start_kb = os::rss_kb();
    let mut rss_mark_kb = None;

    if let Some(flag) = window_open {
        flag.store(true, Ordering::Relaxed);
    }
    let start_us = live.now_us();
    let end_us = start_us + len_us;
    live.rec.open_window(start_us, len_us);
    let wall0 = Instant::now();
    let net_open = live.net();
    let cpu_open_ns = os::process_cpu_ns();
    // The window's slice edges only pace this loop; the samples behind
    // the metrics are taken at the reference replica's commits.
    let mut slices_done = 0u64;

    let period = match w.load {
        Load::Open { rate_per_s } => 1_000_000 / rate_per_s,
        Load::Closed { .. } => 0,
    };
    if let Load::Closed { outstanding } = w.load {
        while live.in_flight < outstanding {
            let now = live.now_us();
            live.submit(now, true);
        }
    }
    let mut next_due = start_us;
    while slices_done < SLICES as u64 {
        let next_boundary = start_us + (slices_done + 1) * slice_us;
        let wake = match w.load {
            Load::Open { .. } => next_due.min(next_boundary),
            Load::Closed { .. } => next_boundary,
        };
        live.pump(wake, |l| {
            if matches!(w.load, Load::Closed { .. }) && l.now_us() < end_us {
                let now = l.now_us();
                l.submit(now, true);
            }
        });
        let now = live.now_us();
        if matches!(w.load, Load::Open { .. }) {
            while next_due <= now && next_due < end_us {
                live.submit(next_due, true);
                next_due += period;
            }
        }
        if now >= next_boundary {
            slices_done += 1;
        }
        if rss_mark_kb.is_none() && live.rec.measured_done() >= rss_mark_cmds {
            rss_mark_kb = Some(os::rss_kb());
        }
    }
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_ns = os::process_cpu_ns() - cpu_open_ns;
    let rss_end_kb = os::rss_kb();
    let net_close = live.net();
    if let Some(flag) = window_open {
        flag.store(false, Ordering::Relaxed);
    }
    let gen_cpu_ns = os::thread_cpu_ns() - gen_cpu0;

    // Drain: no new commands; wait for what is outstanding.
    let drain_deadline = live.now_us() + DRAIN.as_micros() as u64;
    while live.rec.outstanding() > 0 && live.now_us() < drain_deadline {
        let until = (live.now_us() + 5_000).min(drain_deadline);
        live.pump(until, |_| {});
    }

    WindowSample {
        cpu_ns,
        wall_s,
        rss_start_kb,
        rss_end_kb,
        rss_mark_kb,
        rss_mark_cmds,
        load: LoadStats {
            offered: live.rec.measured_commands(),
            generator_cpu_ns: gen_cpu_ns,
            late_us: std::mem::take(&mut live.late_us),
        },
        net: Some((net_open, net_close)),
    }
}

/// Median round-trip of a 64-byte ping over a fresh loopback TCP
/// connection: the δ of this "network", measured on the same kind of
/// socket the mesh uses (std only; no workspace code involved).
pub fn loopback_rtt_us() -> std::io::Result<f64> {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = [0u8; 64];
        while s.read_exact(&mut buf).is_ok() {
            s.write_all(&buf)?;
        }
        Ok(())
    });
    let mut s = std::net::TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let mut buf = [7u8; 64];
    let mut samples = Vec::new();
    for _ in 0..300 {
        let t = Instant::now();
        s.write_all(&buf)?;
        s.read_exact(&mut buf)?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(s);
    echo.join().expect("echo thread")?;
    Ok(crate::stats::median(samples).expect("300 samples"))
}

/// One complete run of a TCP workload.
pub fn run(
    w: &TcpWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    tmp: &Path,
) -> std::io::Result<RunOutcome> {
    let epoch = Instant::now();
    let trace = traced.then(|| TraceSetup::new(REPLICAS, epoch));
    let data_root: PathBuf = tmp.join("measured");
    let (mut live, first_setup_s) = set_up(w, seed, &data_root, trace.as_ref())?;
    let window = measure(
        &mut live,
        w,
        seconds,
        trace.as_ref().map(|t| t.window_open.as_ref()),
    );
    let (rec, reports, net_final) = live.stop();

    let mut outcome = RunOutcome::new(rec, reports, window);
    outcome.protocol = Some(protocol(w, seed));
    outcome.net_final = Some(net_final);
    if let Some(t) = &trace {
        // Restore and replay, timed by reopening replica 0's data dir.
        outcome.restore = Some(sut::time_restore(
            &protocol(w, seed),
            &sut::replica_dir(&data_root, 0),
            0,
        )?);
        outcome.loopback_rtt_us = Some(loopback_rtt_us()?);
        outcome.trace_shared = Some(Arc::clone(&t.ctx.shared));
        // The untraced reference: the same workload on a fresh cluster
        // for a quarter of the window; the traced run's CPU per round
        // over this one's is the tracing overhead.
        let ref_root = tmp.join("reference");
        let (mut reference, _) = set_up(w, seed, &ref_root, None)?;
        measure(&mut reference, w, (seconds / 4.0).max(1.0), None);
        let (ref_rec, _, _) = reference.stop();
        outcome.reference_cpu_ms_per_round = Some(ref_rec.end_to_end().cpu_ms_per_round);
    } else {
        // Set-up is one cold phase and cannot be sliced: repeat it on
        // fresh clusters and report the median of three.
        let mut setups = vec![first_setup_s];
        for i in 0..2 {
            let (extra, s) = set_up(w, seed, &tmp.join(format!("setup{i}")), None)?;
            setups.push(s);
            extra.stop();
        }
        outcome.setup_s = crate::stats::median(setups).expect("three set-ups");
    }
    Ok(outcome)
}
