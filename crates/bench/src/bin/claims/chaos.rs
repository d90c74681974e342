//! **E16 — long-haul chaos under reconfiguration**: the capstone
//! scenario for epochs. One cluster of 8 parties runs for two simulated
//! hours (45 s with `--smoke`) while *everything* happens to it at once:
//!
//! * the membership **reconfigures round-robin** at every epoch boundary
//!   (the schedule alternates which Byzantine party is a member, and a
//!   late epoch removes both — at which point they are departed and
//!   evicted from gossip);
//! * a **Byzantine cocktail** is on the wire the whole time: node 1
//!   equivocates, node 2 withholds finalization shares *and* serves
//!   forged catch-up packages;
//! * two honest nodes **churn** (crash + restart from WAL) on a rolling
//!   schedule, a third gets **partitioned** periodically, and three
//!   directed links are permanently **slow** (+20 ms, still < Δbnd);
//! * node 5 takes scheduled **long outages** that are guaranteed to
//!   span at least one epoch boundary, so its recovery *must* use a
//!   certified catch-up package whose certificate chain crosses epochs.
//!
//! Throughout the run the harness drives the simulation in slices and
//! checks, per slice, the per-round safety invariant (all honest nodes
//! that committed a round committed the same block — across epoch
//! boundaries) and harvests the flight recorder for finalization
//! events. At the end it proves there was **no silent stall**: the
//! longest gap between consecutive cluster-wide finalizations must stay
//! under a bounded number of round budgets, and the critical-path
//! analyzer reports which phase dominated the tail. Results land in
//! `BENCH_chaos.json`.

use crate::{json_obj, Mode, Report, Table};
use icc_bench::synchronous;
use icc_core::epoch::{EpochSchedule, EpochSpec};
use icc_core::Behavior;
use icc_crypto::Hash256;
use icc_gossip::Recipe;
use icc_sim::policy::{DeliveryPolicy, SlowLinks};
use icc_sim::FaultPlan;
use icc_telemetry::SpanKind;
use icc_types::{NodeIndex, Round, SimDuration, SimTime};
use std::collections::BTreeMap;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn secs(v: u64) -> SimDuration {
    SimDuration::from_secs(v)
}

fn at(d: SimDuration) -> SimTime {
    SimTime::ZERO + d
}

/// Universe size. Seven-member epochs have t = 2 (one Byzantine member
/// plus one crashed/partitioned honest member stays within the bound);
/// the late six-member epochs have t = 1 and zero Byzantine members.
const N: usize = 8;
/// The equivocator.
const BYZ_EQUIVOCATE: u32 = 1;
/// Withholds finalization shares and serves forged catch-up packages.
const BYZ_WITHHOLD: u32 = 2;
/// The node taking boundary-spanning outages (cross-epoch catch-up).
const OUTAGE_NODE: u32 = 5;
/// Rolling churn (crash + WAL restart).
const CHURN_NODES: [u32; 2] = [3, 4];
/// Periodically partitioned.
const PARTITION_NODE: u32 = 6;

/// Chaos repeats with this period; each cycle holds two churn windows
/// and one partition window, mutually disjoint.
const CYCLE: SimDuration = SimDuration::from_secs(12);
/// No chaos window may start after `secs - TAIL`: every node must be
/// back up and converged by the end of the run.
const TAIL: SimDuration = SimDuration::from_secs(9);

/// A silent stall is a gap between consecutive cluster-wide
/// finalizations longer than this many round budgets.
const STALL_BOUND_ROUNDS: u64 = 40;
/// One round budget: 2·Δbnd plus dissemination slack (Δbnd = 60 ms).
const ROUND_BUDGET_US: u64 = 150_000;

struct Params {
    smoke: bool,
    run_secs: u64,
    /// Epoch boundary spacing in rounds.
    boundary: u64,
    /// First epoch whose member set excludes both Byzantine parties;
    /// once it activates, nodes 1 and 2 are departed.
    depart_epoch: u64,
    /// Chaos cycles whose churn is replaced by a long node-5 outage.
    outage_every: u64,
    /// Length of a node-5 outage (must span an epoch boundary).
    outage_len: SimDuration,
    /// Schedule must cover rounds up to this (beyond it the last epoch
    /// persists); sized for the fastest plausible round rate.
    max_round: u64,
}

impl Params {
    fn new(smoke: bool) -> Params {
        if smoke {
            // Calibrated to the measured chaotic round rate (~17
            // rounds/s at Δbnd = 60 ms): the depart epoch activates
            // around 65% of the run, outages span >= 1 boundary.
            Params {
                smoke,
                run_secs: 45,
                boundary: 80,
                depart_epoch: 6,
                outage_every: 2,
                outage_len: secs(8),
                max_round: 45 * 30,
            }
        } else {
            Params {
                smoke,
                run_secs: 7200,
                boundary: 300,
                depart_epoch: 240,
                outage_every: 12,
                outage_len: secs(25),
                max_round: 7200 * 30,
            }
        }
    }

    /// The member set of epoch `k`: even epochs exclude the
    /// equivocator's counterpart (node 2), odd epochs exclude node 1,
    /// so exactly one Byzantine party is a member at a time; from
    /// `depart_epoch` on, both are out.
    fn members(&self, k: u64) -> Vec<u32> {
        (0..N as u32)
            .filter(|&i| {
                if k >= self.depart_epoch {
                    i != BYZ_EQUIVOCATE && i != BYZ_WITHHOLD
                } else if k.is_multiple_of(2) {
                    i != BYZ_WITHHOLD
                } else {
                    i != BYZ_EQUIVOCATE
                }
            })
            .collect()
    }

    fn schedule(&self) -> EpochSchedule {
        let epochs = self.max_round / self.boundary;
        EpochSchedule::new(
            (0..=epochs)
                .map(|k| EpochSpec::new(Round::new(k * self.boundary), self.members(k)))
                .collect(),
        )
    }

    /// Node-5 outage windows: every `outage_every`-th cycle swaps its
    /// churn for one long outage starting 1 s into the cycle.
    fn outages(&self) -> Vec<(SimTime, SimTime)> {
        let mut out = Vec::new();
        let mut k = 1;
        while (k + 1) * CYCLE.as_micros() < (secs(self.run_secs) - TAIL).as_micros() {
            let base = at(SimDuration::from_micros(k * CYCLE.as_micros()));
            let down = base + secs(1);
            let up = down + self.outage_len;
            if up + secs(2) < at(secs(self.run_secs) - TAIL) {
                out.push((down, up));
            }
            k += self.outage_every;
        }
        out
    }
}

fn overlaps(from: SimTime, until: SimTime, quiet: &[(SimTime, SimTime)]) -> bool {
    // 1.5 s of margin on both sides: while node 5 is down the cluster
    // already runs at its fault bound, so no other window may touch it.
    let pad = ms(1500);
    quiet
        .iter()
        .any(|&(qf, qu)| from < qu + pad && qf < until + pad)
}

/// Periodically partitions one node: messages crossing the cut during a
/// window are *held* (not dropped) until the window closes, like
/// [`icc_sim::policy::Partition`] but repeating every chaos cycle.
struct PeriodicPartition {
    node: NodeIndex,
    /// Offset of the window within each cycle.
    window_from: SimDuration,
    window_len: SimDuration,
    /// No partitioning at or after this time.
    stop: SimTime,
    /// Cycles suppressed because a node-5 outage overlaps them.
    skip: Vec<u64>,
}

impl DeliveryPolicy for PeriodicPartition {
    fn deliver_at(
        &mut self,
        from: NodeIndex,
        to: NodeIndex,
        sent: SimTime,
        tentative: SimTime,
    ) -> SimTime {
        if (from != self.node && to != self.node) || sent >= self.stop {
            return tentative;
        }
        let since = sent.saturating_since(SimTime::ZERO).as_micros();
        let cycle = since / CYCLE.as_micros();
        if self.skip.contains(&cycle) {
            return tentative;
        }
        let offset = since % CYCLE.as_micros();
        let (wf, wu) = (
            self.window_from.as_micros(),
            (self.window_from + self.window_len).as_micros(),
        );
        if offset >= wf && offset < wu {
            // Heal time for this cycle, plus the residual transit time.
            let heal = at(SimDuration::from_micros(cycle * CYCLE.as_micros() + wu));
            heal + tentative.saturating_since(sent)
        } else {
            tentative
        }
    }
}

/// Incremental run state folded out of the simulator per slice, so the
/// two-hour run never accumulates the full output log in memory.
#[derive(Default)]
struct Tracker {
    /// Canonical committed block per round, across all honest nodes —
    /// the per-round safety invariant, checked on every commit event.
    canonical: BTreeMap<u64, Hash256>,
    /// Highest committed round per node.
    committed: Vec<u64>,
    /// Epoch boundaries node 0 crossed: (boundary round, epoch index).
    epochs_entered: Vec<(u64, u64)>,
    commits: u64,
    /// Earliest cluster-wide finalization time per round (µs), from the
    /// flight recorder.
    first_finalized: BTreeMap<u64, u64>,
    /// High-water mark of flight events already harvested, per node.
    harvested_us: Vec<u64>,
}

impl Tracker {
    fn new(n: usize) -> Tracker {
        Tracker {
            committed: vec![0; n],
            harvested_us: vec![0; n],
            ..Tracker::default()
        }
    }

    fn honest(node: NodeIndex) -> bool {
        node.as_usize() as u32 != BYZ_EQUIVOCATE && node.as_usize() as u32 != BYZ_WITHHOLD
    }

    fn fold_outputs(
        &mut self,
        outputs: Vec<icc_sim::engine::OutputRecord<icc_core::events::NodeEvent>>,
    ) {
        use icc_core::events::NodeEvent;
        for rec in outputs {
            match rec.output {
                NodeEvent::Committed { block } => {
                    let i = rec.node.as_usize();
                    self.committed[i] = self.committed[i].max(block.round().get());
                    if !Tracker::honest(rec.node) {
                        continue;
                    }
                    self.commits += 1;
                    let prev = self
                        .canonical
                        .entry(block.round().get())
                        .or_insert_with(|| block.hash());
                    if *prev != block.hash() {
                        panic!(
                            "SAFETY VIOLATION: node {} committed a conflicting block in round {}",
                            rec.node,
                            block.round()
                        );
                    }
                }
                NodeEvent::EpochEntered { round, epoch } if rec.node.as_usize() == 0 => {
                    self.epochs_entered.push((round.get(), epoch));
                }
                _ => {}
            }
        }
    }

    fn harvest_flight(&mut self, events: &[icc_telemetry::SpanEvent]) {
        for ev in events {
            let node = ev.node as usize;
            if node >= self.harvested_us.len() || ev.at_us < self.harvested_us[node] {
                continue;
            }
            if matches!(ev.kind, SpanKind::Finalized) {
                let t = self.first_finalized.entry(ev.round).or_insert(ev.at_us);
                *t = (*t).min(ev.at_us);
            }
        }
        for ev in events {
            let node = ev.node as usize;
            if node < self.harvested_us.len() {
                self.harvested_us[node] = self.harvested_us[node].max(ev.at_us);
            }
        }
    }

    /// Longest gap (µs) between consecutive cluster-wide finalizations,
    /// and the round at which it ended.
    fn max_stall(&self, end_us: u64) -> (u64, u64) {
        let mut worst = (0u64, 0u64);
        let mut prev: Option<u64> = None;
        for (&round, &t) in &self.first_finalized {
            if let Some(p) = prev {
                let gap = t.saturating_sub(p);
                if gap > worst.0 {
                    worst = (gap, round);
                }
            }
            prev = Some(prev.unwrap_or(t).max(t));
        }
        // The run must not end in an undetected stall either.
        if let Some(p) = prev {
            let gap = end_us.saturating_sub(p);
            if gap > worst.0 {
                worst = (gap, u64::MAX);
            }
        }
        worst
    }
}

pub fn run(mode: Mode) -> Report {
    let p = Params::new(mode == Mode::Smoke);
    let run_end = at(secs(p.run_secs));
    let chaos_end = at(secs(p.run_secs) - TAIL);
    let outages = p.outages();
    assert!(!outages.is_empty(), "no node-5 outage windows scheduled");

    // Rolling churn: node 3 down 1.0–2.5 s and node 4 down 6.0–7.5 s of
    // every cycle, except where a node-5 outage owns the fault budget.
    let mut plan = FaultPlan::new();
    let cycles = p.run_secs * 1_000_000 / CYCLE.as_micros();
    let mut skipped_windows = 0u64;
    for k in 0..cycles {
        let base = at(SimDuration::from_micros(k * CYCLE.as_micros()));
        for (node, off) in [(CHURN_NODES[0], secs(1)), (CHURN_NODES[1], secs(6))] {
            let (down, up) = (base + off, base + off + ms(1500));
            if up >= chaos_end || overlaps(down, up, &outages) {
                skipped_windows += 1;
                continue;
            }
            plan = plan.crash_between(NodeIndex::new(node), down, up);
        }
    }
    for &(down, up) in &outages {
        plan = plan.crash_between(NodeIndex::new(OUTAGE_NODE), down, up);
    }

    // Partition cycles suppressed around node-5 outages.
    let part_skip: Vec<u64> = (0..cycles)
        .filter(|k| {
            let base = at(SimDuration::from_micros(k * CYCLE.as_micros()));
            overlaps(base + secs(9), base + ms(10_500), &outages)
        })
        .collect();

    let mut behaviors = vec![Behavior::Honest; N];
    behaviors[BYZ_EQUIVOCATE as usize] = Behavior::Equivocate;
    behaviors[BYZ_WITHHOLD as usize] = Behavior::WithholdFinalization;

    let recipe = Recipe::shipped(N);
    let mut cluster = synchronous(N, 42, 10, 60)
        .checkpoint_interval(8)
        .max_events(4_000_000_000)
        .with_epochs(p.schedule())
        .behaviors(behaviors)
        .fault_plan(plan)
        .policy(SlowLinks {
            links: vec![
                (NodeIndex::new(7), NodeIndex::new(0)),
                (NodeIndex::new(0), NodeIndex::new(7)),
                (NodeIndex::new(6), NodeIndex::new(3)),
            ],
            extra: ms(20),
        })
        .policy(PeriodicPartition {
            node: NodeIndex::new(PARTITION_NODE),
            window_from: secs(9),
            window_len: ms(1500),
            stop: chaos_end,
            skip: part_skip,
        })
        .build_with(move |core| {
            let forger = core.index() == NodeIndex::new(BYZ_WITHHOLD);
            let node = recipe.node(core);
            if forger {
                node.with_forged_catch_up()
            } else {
                node
            }
        });

    // Drive the run in slices: fold outputs (per-round safety across
    // epochs), harvest the flight recorder before its ring wraps, and
    // fire the departures once the depart epoch has activated.
    let slice = secs(5);
    let depart_round = p.depart_epoch * p.boundary;
    let mut departed_at: Option<SimTime> = None;
    let mut tracker = Tracker::new(N);
    let mut slices = 0u64;
    while cluster.sim.now() < run_end {
        cluster.run_for(slice.min(run_end - cluster.sim.now()));
        slices += 1;
        let outputs = cluster.sim.take_outputs();
        tracker.fold_outputs(outputs);
        tracker.harvest_flight(&cluster.flight_events());
        if departed_at.is_none() {
            let min_honest = (0..N)
                .filter(|&i| Tracker::honest(NodeIndex::new(i as u32)))
                .map(|i| tracker.committed[i])
                .min()
                .unwrap();
            if min_honest > depart_round + 5 {
                // Both Byzantine parties are out of the member set from
                // `depart_epoch` on; retire their processes.
                let now = cluster.sim.now();
                cluster
                    .sim
                    .schedule_depart(now, NodeIndex::new(BYZ_EQUIVOCATE));
                cluster
                    .sim
                    .schedule_depart(now, NodeIndex::new(BYZ_WITHHOLD));
                departed_at = Some(now);
            }
        }
        if slices.is_multiple_of(if p.smoke { 3 } else { 120 }) {
            eprintln!(
                "t={}s committed={} epoch={}",
                cluster.sim.now().as_secs_f64() as u64,
                tracker.committed[0],
                tracker.epochs_entered.last().map(|e| e.1).unwrap_or(0),
            );
        }
    }

    // --- Verdicts -------------------------------------------------
    let rec = cluster.metrics_summary().recovery;
    let cp = cluster.critical_path();
    let end_us = run_end.saturating_since(SimTime::ZERO).as_micros();
    let (stall_us, stall_round) = tracker.max_stall(end_us);
    let stall_rounds = stall_us.div_ceil(ROUND_BUDGET_US);
    let epochs_crossed = tracker.epochs_entered.len() as u64;
    let honest: Vec<usize> = (0..N)
        .filter(|&i| Tracker::honest(NodeIndex::new(i as u32)))
        .collect();
    let committed_honest: Vec<u64> = honest.iter().map(|&i| tracker.committed[i]).collect();
    let min_committed = *committed_honest.iter().min().unwrap();
    let max_committed = *committed_honest.iter().max().unwrap();

    assert!(
        epochs_crossed >= 5,
        "only {epochs_crossed} epoch boundaries crossed"
    );
    assert!(
        rec.cross_epoch_catch_ups >= 1,
        "no catch-up package crossed an epoch boundary: {rec:?}"
    );
    assert!(
        rec.restarts >= outages.len() as u64,
        "expected at least {} restarts, saw {}",
        outages.len(),
        rec.restarts
    );
    assert_eq!(
        rec.restore_verifications, 0,
        "restore re-verified signatures"
    );
    assert!(
        stall_rounds <= STALL_BOUND_ROUNDS,
        "silent stall of {stall_rounds} round budgets ({:.1} ms) ending at round {stall_round}",
        stall_us as f64 / 1e3
    );
    let departed_at = departed_at.expect("depart epoch never activated — recalibrate depart_epoch");
    assert!(
        min_committed > depart_round + 5,
        "honest nodes did not converge past the depart epoch"
    );
    assert!(
        max_committed - min_committed <= 5,
        "final committed gap too wide: {committed_honest:?}"
    );

    // --- Report ---------------------------------------------------
    let title = if p.smoke {
        "E16 (smoke): long-haul chaos under reconfiguration"
    } else {
        "E16: long-haul chaos under reconfiguration (2 sim-hours)"
    };
    let dominant = cp
        .dominant()
        .map(|ph| ph.label().to_string())
        .unwrap_or_else(|| "n/a".into());
    let churn_windows = cycles * 2 - skipped_windows;
    let headers = "sim secs | rounds | epochs | restarts | caught up | cross-epoch | rejected \
                  | stall (rounds) | bound | final gap";
    let row = [
        p.run_secs,
        min_committed,
        epochs_crossed,
        rec.restarts,
        rec.catch_up_applied,
        rec.cross_epoch_catch_ups,
        rec.catch_up_rejected,
        stall_rounds,
        STALL_BOUND_ROUNDS,
        max_committed - min_committed,
    ];
    let note = format!(
        "chaos mix: {churn_windows} churn windows ({skipped_windows} suppressed near outages), \
         {} node-5 outages,\n\
         periodic partitions of node {PARTITION_NODE}, 3 slow links, equivocation + withheld\n\
         finalization + forged catch-up servers; departures fired at t={:.1}s;\n\
         worst stall {:.1} ms ({stall_rounds} round budgets of {} ms, bound {STALL_BOUND_ROUNDS}); \
         critical path: {dominant}",
        outages.len(),
        departed_at.as_secs_f64(),
        stall_us as f64 / 1e3,
        ROUND_BUDGET_US / 1000,
    );
    let table = Table::new(title, headers, vec![row.map(|v| v.to_string()).to_vec()]).note(note);
    let mut report = Report::new(
        vec![table],
        "expected shape: reconfiguration is invisible to throughput (identical group\n\
         beacon key across reshares); every node-5 outage recovers via a certified\n\
         package whose certificate chain crosses >= 1 boundary; forged packages from\n\
         node 2 are rejected and counted; once the depart epoch activates, the two\n\
         Byzantine parties are evicted from gossip and the cluster finishes clean.",
    );
    let ints = |fields: &[(&str, u64)]| {
        let fields: Vec<(&str, String)> = fields.iter().map(|&(k, v)| (k, v.to_string())).collect();
        json_obj(&fields)
    };
    let stall = ints(&[
        ("max_us", stall_us),
        ("max_rounds", stall_rounds),
        ("bound_rounds", STALL_BOUND_ROUNDS),
        ("round_budget_us", ROUND_BUDGET_US),
    ]);
    let recovery = ints(&[
        ("restarts", rec.restarts),
        ("catch_up_applied", rec.catch_up_applied),
        ("catch_up_rejected", rec.catch_up_rejected),
        ("cross_epoch_catch_ups", rec.cross_epoch_catch_ups),
        ("epoch_transitions", rec.epoch_transitions),
        ("restore_verifications", rec.restore_verifications),
        ("checkpoints", rec.checkpoints),
        ("wal_appends", rec.wal_appends),
    ]);
    let chaos = json_obj(&[
        ("churn_windows", churn_windows.to_string()),
        ("suppressed_windows", skipped_windows.to_string()),
        ("outages", outages.len().to_string()),
        ("outage_len_s", p.outage_len.as_secs_f64().to_string()),
    ]);
    report.artifact = Some((
        "chaos",
        vec![
            ("sim_secs", p.run_secs.to_string()),
            ("n", N.to_string()),
            ("epochs_crossed", epochs_crossed.to_string()),
            ("boundary_rounds", p.boundary.to_string()),
            ("depart_epoch", p.depart_epoch.to_string()),
            ("departed_at_s", format!("{:.3}", departed_at.as_secs_f64())),
            ("commits", tracker.commits.to_string()),
            ("min_committed", min_committed.to_string()),
            ("max_committed", max_committed.to_string()),
            // `fold_outputs` panics on the first conflicting commit.
            ("safety_violations", "0".into()),
            ("stall", stall),
            ("recovery", recovery),
            ("chaos", chaos),
            ("critical_path_dominant", format!("\"{dominant}\"")),
        ],
    ));
    report
}
