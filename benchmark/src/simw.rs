//! The two simulated workloads: `ClusterBuilder::build_with` clusters on
//! one thread, under the workspace's seeded discrete-event engine.
//! Latency, round time and wire bytes are on the **simulated clock**
//! and repeat to the digit for one seed; CPU time and memory are real.
//!
//! A run simulates a fixed span (`sim_s_per_s × --seconds` of simulated
//! time), not a fixed wall time: the work, and therefore every
//! simulated-clock number, depends on the seed alone. The spans are
//! sized so that a run takes about `--seconds` of wall time on the
//! 2-core box this was written on.

use crate::measure::{Recorder, Sample};
use crate::os;
use crate::stats::{SplitMix64, SLICES};
use crate::sut::{self, Fault, MachineKind, Protocol, SimCluster, SimSpec};
use crate::tcp::TraceSetup;
use crate::workload::{LoadStats, RunOutcome, SimExtras, WindowSample};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub struct SimWorkload {
    pub n: usize,
    pub delta_us: (u64, u64),
    pub delta_bnd_ms: u64,
    pub rate_per_s: u64,
    /// Whether every stable replica receives every command (the ingress
    /// model of `ClusterBuilder::inject_commands`) or only the command's
    /// home replica does. Latency is measured at the home replica
    /// either way.
    pub submit_to_all: bool,
    /// Simulated seconds measured per second of `--seconds`.
    pub sim_s_per_s: f64,
    pub warmup_sim_s: f64,
    /// Simulated seconds allowed for the last commands to commit.
    pub drain_sim_s: f64,
    pub faults: Vec<(u32, Fault)>,
    pub forgers: Vec<u32>,
    /// Nodes that crash for `outage_s` every `outage_every_s` of
    /// simulated time, restart from their store and catch up.
    pub restarting: Vec<u32>,
    pub outage_s: f64,
    pub outage_every_s: f64,
    pub slow_links: Vec<(u32, u32)>,
    pub slow_extra_us: u64,
    /// Simulated-clock latency beyond which a commit is a failure.
    pub latency_limit_s: f64,
    /// `rss_mb` is read when this many measured commands per second of
    /// `--seconds` have committed at their home replica.
    pub rss_mark_cmds_per_s: f64,
}

const FUNDED_ACCOUNTS: u64 = 16;
/// The engine is stepped in spans of this much simulated time; between
/// steps outputs are drained and the RSS mark is checked.
const STEP_US: u64 = 10_000;

fn secs(s: f64) -> u64 {
    (s * 1e6) as u64
}

impl SimWorkload {
    /// Replicas that follow the protocol and never go down: commands go
    /// to them, and they must all commit every command exactly once.
    fn stable(&self) -> Vec<u32> {
        (0..self.n as u32)
            .filter(|i| !self.faults.iter().any(|(f, _)| f == i) && !self.restarting.contains(i))
            .collect()
    }

    fn protocol(&self, seed: u64) -> Protocol {
        Protocol {
            n: self.n,
            key_seed: seed,
            delta_bnd_ms: self.delta_bnd_ms,
            epsilon_ms: 0,
        }
    }

    fn spec(&self, seed: u64, window_start_us: u64, window_len_us: u64) -> SimSpec {
        let mut outages = Vec::new();
        for &node in &self.restarting {
            // One outage in the warm-up, so the window opens on a
            // cluster that has already been through a catch-up, then
            // one every `outage_every_s` of the window (one per slice
            // at the benchmark's run length).
            let warm_down = window_start_us / 4;
            outages.push((node, warm_down, warm_down + secs(self.outage_s)));
            let period = secs(self.outage_every_s);
            let mut down = window_start_us + period / 4;
            while down + secs(self.outage_s) < window_start_us + window_len_us {
                outages.push((node, down, down + secs(self.outage_s)));
                down += period;
            }
        }
        SimSpec {
            protocol: self.protocol(seed),
            delta_us: self.delta_us,
            faults: self.faults.clone(),
            forgers: self.forgers.clone(),
            outages,
            slow_links: self.slow_links.clone(),
            slow_extra_us: self.slow_extra_us,
            machine: MachineKind::Ledger,
            id_offset: sut::LEDGER_ID_OFFSET,
        }
    }
}

struct Live {
    cluster: SimCluster,
    rec: Recorder,
    rng: SplitMix64,
    targets: Vec<u32>,
    submit_to_all: bool,
    cursor: usize,
    now_us: u64,
    next_due_us: u64,
    period_us: u64,
}

impl Live {
    /// Advances the simulation to `until_us`, offering the open-loop
    /// schedule up to `offer_until_us` on the way.
    fn advance(&mut self, until_us: u64, offer_until_us: u64, measured: bool) {
        while self.now_us < until_us {
            let step_end = (self.now_us + STEP_US).min(until_us);
            while self.next_due_us < step_end.min(offer_until_us) {
                self.cursor = (self.cursor + 1) % self.targets.len();
                let home = self.targets[self.cursor];
                let id = self.rec.submitted(home, self.next_due_us, measured);
                let cmd = sut::ledger_transfer(self.rng.below(FUNDED_ACCOUNTS), id);
                if self.submit_to_all {
                    for &t in &self.targets {
                        self.cluster.submit(self.next_due_us, t, cmd.clone());
                    }
                } else {
                    self.cluster.submit(self.next_due_us, home, cmd);
                }
                self.next_due_us += self.period_us;
            }
            self.cluster.run_until(step_end);
            self.now_us = step_end;
            for ev in self.cluster.drain_events() {
                self.rec.ingest(&ev);
            }
            if self.rec.wants_mark() {
                let sample = self.sample();
                self.rec.mark(sample);
            }
        }
    }

    fn sample(&self) -> Sample {
        Sample {
            cpu_ns: os::process_cpu_ns(),
            wire_bytes: self.cluster.wire_bytes(),
        }
    }
}

fn set_up(
    w: &SimWorkload,
    seed: u64,
    window_len_us: u64,
    trace: Option<&TraceSetup>,
) -> (Live, f64) {
    let t0 = Instant::now();
    let warmup_us = secs(w.warmup_sim_s);
    let mut cluster = SimCluster::build(
        &w.spec(seed, warmup_us, window_len_us),
        trace.map(|t| &t.ctx),
    );
    let targets = w.stable();
    for account in 0..FUNDED_ACCOUNTS {
        let mint = sut::ledger_mint(account, 1 << 40);
        for &t in &targets {
            cluster.submit(0, t, mint.clone());
        }
    }
    let mut agreeing = w.restarting.clone();
    agreeing.extend(&targets);
    let mut live = Live {
        cluster,
        rec: Recorder::new(targets.clone(), agreeing, secs(w.latency_limit_s)),
        rng: SplitMix64::new(seed ^ 0x10ad),
        cursor: (seed % targets.len() as u64) as usize,
        targets,
        submit_to_all: w.submit_to_all,
        now_us: 0,
        next_due_us: 1_000,
        period_us: 1_000_000 / w.rate_per_s,
    };
    live.advance(warmup_us, warmup_us, false);
    (live, t0.elapsed().as_secs_f64())
}

fn measure(
    live: &mut Live,
    w: &SimWorkload,
    len_us: u64,
    trace: Option<&TraceSetup>,
) -> WindowSample {
    let start_us = live.now_us;
    let slice_us = len_us / SLICES as u64;
    let rss_mark_cmds = (w.rss_mark_cmds_per_s * len_us as f64 / 1e6 / w.sim_s_per_s) as u64;
    let rss_start_kb = os::rss_kb();
    let mut rss_mark_kb = None;
    if let Some(t) = trace {
        t.window_open.store(true, Ordering::Relaxed);
    }
    live.rec.open_window(start_us, len_us);
    let first_id = live.rec.next_id();
    let wall0 = Instant::now();
    let cpu_open_ns = os::process_cpu_ns();
    let end_us = start_us + len_us;
    for s in 1..=SLICES as u64 {
        let slice_end = if s == SLICES as u64 {
            end_us
        } else {
            start_us + s * slice_us
        };
        while live.now_us < slice_end {
            let until = (live.now_us + STEP_US).min(slice_end);
            live.advance(until, end_us, true);
            if rss_mark_kb.is_none() && live.rec.measured_done() >= rss_mark_cmds {
                rss_mark_kb = Some(os::rss_kb());
            }
        }
    }
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_ns = os::process_cpu_ns() - cpu_open_ns;
    let rss_end_kb = os::rss_kb();
    if let Some(t) = trace {
        t.window_open.store(false, Ordering::Relaxed);
    }
    // Drain on the simulated clock: no new commands.
    let drain_end = end_us + secs(w.drain_sim_s);
    while live.rec.outstanding() > 0 && live.now_us < drain_end {
        let until = (live.now_us + 10 * STEP_US).min(drain_end);
        live.advance(until, 0, false);
    }
    WindowSample {
        cpu_ns,
        wall_s,
        rss_start_kb,
        rss_end_kb,
        rss_mark_kb,
        rss_mark_cmds,
        load: LoadStats {
            offered: live.rec.next_id() - first_id,
            // The schedule is part of the simulation: it is never late
            // and costs no separate thread.
            generator_cpu_ns: 0,
            late_us: Vec::new(),
        },
        net: None,
    }
}

pub fn run(w: &SimWorkload, seed: u64, seconds: f64, traced: bool) -> RunOutcome {
    let epoch = Instant::now();
    let trace = traced.then(|| TraceSetup::new(w.n, epoch));
    let len_us = secs(w.sim_s_per_s * seconds);
    let (mut live, first_setup_s) = set_up(w, seed, len_us, trace.as_ref());
    let cpu0 = os::process_cpu_ns();
    let events0 = live.cluster.engine_events();
    let window = measure(&mut live, w, len_us, trace.as_ref());
    let extras = SimExtras {
        engine_events: live.cluster.engine_events() - events0,
        // Includes the drain, like the event count.
        cpu_ns: os::process_cpu_ns() - cpu0,
        delta_us: (w.delta_us.0 + w.delta_us.1) as f64 / 2.0,
        restarting: w.restarting.clone(),
        forgers: w.forgers.clone(),
    };
    let Live { cluster, rec, .. } = live;
    let reports = cluster.finish();
    let mut outcome = RunOutcome::new(rec, reports, window);
    outcome.protocol = Some(w.protocol(seed));
    outcome.sim = Some(extras);
    if let Some(t) = &trace {
        outcome.trace_shared = Some(Arc::clone(&t.ctx.shared));
        // Untraced reference: the same seed and fault schedule simulate
        // the same events, so over the window's first quarter CPU per
        // round differs by the tracing alone.
        let ref_len = len_us / 4;
        let (mut reference, _) = set_up(w, seed, len_us, None);
        measure(&mut reference, w, ref_len, None);
        outcome.reference_cpu_ms_per_round = Some(reference.rec.end_to_end().cpu_ms_per_round);
    } else {
        // Set-up here is a second of single-threaded CPU work, the
        // noisiest kind on a shared box: median of five.
        let mut setups = vec![first_setup_s];
        for _ in 0..4 {
            setups.push(set_up(w, seed, len_us, None).1);
        }
        outcome.setup_s = crate::stats::median(setups).expect("five set-ups");
    }
    outcome
}
