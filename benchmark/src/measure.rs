//! Turns the stream of node outputs and the load generator's schedule
//! into the end-to-end metrics and the correctness verdict. The same
//! code serves both clocks: timestamps are microseconds since cluster
//! start — wall clock on TCP, the simulated clock in the simulator.

use crate::stats::{median, quantile, slice_of, SLICES};
use crate::sut::{Ev, Event};
use std::collections::{BTreeMap, HashMap};

/// One generated command.
struct CmdRec {
    /// Replica it was submitted to.
    home: u32,
    /// When it was due (open loop) or submitted (closed loop).
    due_us: u64,
    /// Commit time at the home replica.
    home_commit_us: Option<u64>,
    /// How many checked replicas have committed it, and when the last
    /// of them did.
    commits: u32,
    all_commit_us: u64,
    /// Part of the measured window (warm-up commands are checked for
    /// exactly-once delivery but give no latency sample).
    measured: bool,
}

/// Process counters the runner reads each time the reference replica
/// commits a round, so that CPU time and wire bytes are attributed to
/// exactly the rounds they paid for.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub cpu_ns: u64,
    pub wire_bytes: u64,
}

struct Mark {
    at_us: u64,
    round: u64,
    sample: Sample,
}

/// The eight end-to-end numbers, plus the report-only tail.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub cmd_throughput: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub latency_p99_ms: f64,
    pub round_p50_ms: f64,
    pub cpu_ms_per_round: f64,
    pub wire_kb_per_round: f64,
    /// Rounds the reference replica committed inside the window.
    pub rounds: u64,
}

pub struct Recorder {
    /// Replicas that are honest and never crash: their chains must be
    /// complete and equal, and every command must reach all of them.
    checked: Vec<u32>,
    checked_pos: HashMap<u32, usize>,
    /// Replicas whose committed blocks must merely agree per round
    /// (honest ones that restart skip rounds via state sync).
    agreeing: Vec<u32>,
    cmds: Vec<CmdRec>,
    /// Per (command, checked replica) commit count, for exactly-once.
    seen: Vec<u8>,
    chains: HashMap<u32, BTreeMap<u64, [u8; 32]>>,
    /// The generator's ids in each round's block, from the first checked
    /// replica that committed it.
    round_ids: HashMap<u64, Vec<u64>>,
    /// Per checked replica: the `(from, to)` tips of every catch-up that
    /// skipped rounds. The rounds strictly between reached the replica
    /// by state sync, not as `Committed` events.
    synced: BTreeMap<u32, Vec<(u64, u64)>>,
    /// Commit instants per checked replica, in order.
    commit_times: HashMap<u32, Vec<(u64, u64)>>,
    entered: HashMap<u32, HashMap<u64, u64>>,
    /// Round entry → commit, for rounds committed inside the window.
    pub finalize_us: Vec<u64>,
    pub rounds_finished: u64,
    pub rounds_leader_won: u64,
    pub blocks_committed: u64,
    pub cmds_in_blocks: u64,
    window: Option<(u64, u64)>,
    /// Latency limit beyond which a commit is a failure, not a sample.
    latency_limit_us: u64,
    violations: Vec<String>,
    /// Commands that have not yet reached every checked replica.
    outstanding: usize,
    /// Measured commands committed at their home replica so far.
    measured_done: u64,
    marks: Vec<Mark>,
    /// The reference replica's latest commit, until the runner has
    /// attached a sample to it.
    unmarked: Option<(u64, u64)>,
}

impl Recorder {
    pub fn new(checked: Vec<u32>, agreeing: Vec<u32>, latency_limit_us: u64) -> Recorder {
        let checked_pos = checked.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        Recorder {
            checked,
            checked_pos,
            agreeing,
            cmds: Vec::new(),
            seen: Vec::new(),
            chains: HashMap::new(),
            round_ids: HashMap::new(),
            synced: BTreeMap::new(),
            commit_times: HashMap::new(),
            entered: HashMap::new(),
            finalize_us: Vec::new(),
            rounds_finished: 0,
            rounds_leader_won: 0,
            blocks_committed: 0,
            cmds_in_blocks: 0,
            window: None,
            latency_limit_us,
            violations: Vec::new(),
            outstanding: 0,
            measured_done: 0,
            marks: Vec::new(),
            unmarked: None,
        }
    }

    /// Opens the measured window `[start, start + len)`.
    pub fn open_window(&mut self, start_us: u64, len_us: u64) {
        self.window = Some((start_us, len_us));
    }

    fn in_window(&self, at_us: u64) -> bool {
        self.window
            .is_some_and(|(s, l)| at_us >= s && at_us < s + l)
    }

    /// Registers the next command; its id is its index.
    pub fn submitted(&mut self, home: u32, due_us: u64, measured: bool) -> u64 {
        let id = self.cmds.len() as u64;
        self.cmds.push(CmdRec {
            home,
            due_us,
            home_commit_us: None,
            commits: 0,
            all_commit_us: 0,
            measured,
        });
        self.seen.extend(std::iter::repeat_n(0, self.checked.len()));
        self.outstanding += 1;
        id
    }

    pub fn next_id(&self) -> u64 {
        self.cmds.len() as u64
    }

    /// Commands not yet committed at every checked replica.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Measured commands committed at their home replica so far.
    pub fn measured_done(&self) -> u64 {
        self.measured_done
    }

    /// Whether the reference replica has committed since the last
    /// [`mark`](Self::mark); the runner then samples the process.
    pub fn wants_mark(&self) -> bool {
        self.unmarked.is_some()
    }

    pub fn mark(&mut self, sample: Sample) {
        if let Some((at_us, round)) = self.unmarked.take() {
            self.marks.push(Mark {
                at_us,
                round,
                sample,
            });
        }
    }

    /// Ingests one node output. Returns the ids that this event
    /// completed at their home replica (the closed loop's cue).
    pub fn ingest(&mut self, e: &Event) -> Vec<u64> {
        let mut completed = Vec::new();
        match &e.ev {
            Ev::Entered { round } => {
                self.entered
                    .entry(e.node)
                    .or_default()
                    .insert(*round, e.at_us);
            }
            Ev::Finished { leader_won } => {
                if self.in_window(e.at_us) && self.checked_pos.contains_key(&e.node) {
                    self.rounds_finished += 1;
                    self.rounds_leader_won += u64::from(*leader_won);
                }
            }
            Ev::Committed { round, hash, ids } => {
                if self.agreeing.contains(&e.node) || self.checked_pos.contains_key(&e.node) {
                    let chain = self.chains.entry(e.node).or_default();
                    if let Some(prev) = chain.insert(*round, *hash) {
                        if prev != *hash {
                            self.violations.push(format!(
                                "replica {} committed two blocks in round {round}",
                                e.node
                            ));
                        }
                    }
                }
                let Some(&pos) = self.checked_pos.get(&e.node) else {
                    return completed;
                };
                self.commit_times
                    .entry(e.node)
                    .or_default()
                    .push((e.at_us, *round));
                if pos == 0 {
                    self.unmarked = Some((e.at_us, *round));
                }
                if self.in_window(e.at_us) {
                    if let Some(t0) = self.entered.get_mut(&e.node).and_then(|m| m.remove(round)) {
                        self.finalize_us.push(e.at_us.saturating_sub(t0));
                    }
                    if pos == 0 {
                        self.blocks_committed += 1;
                        self.cmds_in_blocks += ids.len() as u64;
                    }
                }
                for &id in ids {
                    if self.deliver(id, e.node, pos, e.at_us) {
                        completed.push(id);
                    }
                }
                // A replica that jumped over this round before any
                // other committed it receives the block now.
                if !self.round_ids.contains_key(round) {
                    for (node, pos) in self.synced_over(*round) {
                        for &id in ids {
                            if self.deliver(id, node, pos, e.at_us) {
                                completed.push(id);
                            }
                        }
                    }
                    self.round_ids.insert(*round, ids.clone());
                }
            }
            Ev::CaughtUp { from, to } => {
                let Some(&pos) = self.checked_pos.get(&e.node) else {
                    return completed;
                };
                if *to <= from + 1 {
                    return completed;
                }
                self.synced.entry(e.node).or_default().push((*from, *to));
                for round in from + 1..*to {
                    for id in self.round_ids.get(&round).cloned().unwrap_or_default() {
                        if self.deliver(id, e.node, pos, e.at_us) {
                            completed.push(id);
                        }
                    }
                }
            }
        }
        completed
    }

    /// Checked replicas (with their position) that state-synced over
    /// `round`.
    fn synced_over(&self, round: u64) -> Vec<(u32, usize)> {
        self.synced
            .iter()
            .filter(|(_, spans)| spans.iter().any(|&(from, to)| from < round && round < to))
            .map(|(&node, _)| (node, self.checked_pos[&node]))
            .collect()
    }

    /// Counts command `id` as having reached checked replica `node`
    /// (position `pos`) at `at_us`, in a committed block or by state
    /// sync. Returns whether that completed it at its home replica.
    fn deliver(&mut self, id: u64, node: u32, pos: usize, at_us: u64) -> bool {
        let Some(cmd) = self.cmds.get_mut(id as usize) else {
            self.violations
                .push(format!("committed unknown command id {id}"));
            return false;
        };
        let slot = &mut self.seen[id as usize * self.checked.len() + pos];
        *slot = slot.saturating_add(1);
        if *slot > 1 {
            self.violations.push(format!(
                "command {id} committed {} times at replica {node}",
                *slot
            ));
            return false;
        }
        cmd.commits += 1;
        cmd.all_commit_us = cmd.all_commit_us.max(at_us);
        if cmd.commits as usize == self.checked.len() {
            self.outstanding -= 1;
        }
        if cmd.home != node {
            return false;
        }
        cmd.home_commit_us = Some(at_us);
        self.measured_done += u64::from(cmd.measured);
        true
    }

    /// Checked replicas that skipped rounds by state sync, each with
    /// the number of rounds skipped.
    pub fn state_synced(&self) -> Vec<(u32, u64)> {
        self.synced
            .keys()
            .map(|&node| (node, self.skipped_rounds(node)))
            .collect()
    }

    fn skipped_rounds(&self, node: u32) -> u64 {
        self.synced
            .get(&node)
            .into_iter()
            .flatten()
            .map(|(from, to)| to - from - 1)
            .sum()
    }

    /// `(attempted, failed, uncommitted)`: a command fails if some
    /// checked replica never committed it (it is then also counted as
    /// uncommitted), or if its home replica committed it later than the
    /// latency limit.
    pub fn attempted_failed(&self) -> (u64, u64, u64) {
        let uncommitted = self
            .cmds
            .iter()
            .filter(|c| c.commits as usize != self.checked.len())
            .count();
        let late = self
            .cmds
            .iter()
            .filter(|c| c.commits as usize == self.checked.len() && c.measured)
            .filter(|c| {
                c.home_commit_us
                    .is_some_and(|t| t.saturating_sub(c.due_us) > self.latency_limit_us)
            })
            .count();
        (
            self.cmds.len() as u64,
            (uncommitted + late) as u64,
            uncommitted as u64,
        )
    }

    pub fn is_checked(&self, node: u32) -> bool {
        self.checked_pos.contains_key(&node)
    }

    /// Safety: per round, every replica that committed a block
    /// committed the same one; a checked replica's chain has no gap
    /// other than the rounds it state-synced over.
    pub fn check_chains(&mut self) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.violations);
        let mut by_round: BTreeMap<u64, ([u8; 32], u32)> = BTreeMap::new();
        for (&node, chain) in &self.chains {
            for (&round, &hash) in chain {
                match by_round.get(&round) {
                    Some(&(h, other)) if h != hash => problems.push(format!(
                        "replicas {other} and {node} disagree at round {round}"
                    )),
                    Some(_) => {}
                    None => {
                        by_round.insert(round, (hash, node));
                    }
                }
            }
        }
        for &node in &self.checked {
            let Some(chain) = self.chains.get(&node) else {
                problems.push(format!("replica {node} committed nothing"));
                continue;
            };
            let first = *chain.keys().next().expect("non-empty chain");
            let last = *chain.keys().next_back().expect("non-empty chain");
            let skipped = self.skipped_rounds(node);
            if first != 1 || chain.len() as u64 + skipped != last {
                problems.push(format!(
                    "replica {node} chain has gaps: {} blocks and {skipped} state-synced rounds for rounds {first}..={last}",
                    chain.len()
                ));
            }
        }
        problems
    }

    /// Longest time any checked replica went without a commit inside
    /// the window, in milliseconds.
    pub fn max_commit_gap_ms(&self) -> f64 {
        let mut worst = 0u64;
        for times in self.commit_times.values() {
            for w in times.windows(2) {
                if self.in_window(w[1].0) {
                    worst = worst.max(w[1].0 - w[0].0);
                }
            }
        }
        worst as f64 / 1e3
    }

    /// Commands the generator offered inside the window.
    pub fn measured_commands(&self) -> u64 {
        self.cmds.iter().filter(|c| c.measured).count() as u64
    }

    /// The end-to-end numbers: each clock metric is the median over the
    /// window's slices of that slice's value.
    pub fn end_to_end(&self) -> EndToEnd {
        let (start, len) = self.window.expect("window was opened");

        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        let mut all_lat = Vec::new();
        // Per slice: the completion instants (a block's commands share
        // one).
        let mut done: Vec<Vec<u64>> = vec![Vec::new(); SLICES];
        for c in self.cmds.iter().filter(|c| c.measured) {
            if let (Some(t), Some(s)) = (c.home_commit_us, slice_of(c.due_us, start, len)) {
                let l = t.saturating_sub(c.due_us);
                if l <= self.latency_limit_us {
                    lat[s].push(l as f64 / 1e3);
                    all_lat.push(l as f64 / 1e3);
                }
            }
        }
        // Throughput counts every command (warm-up stragglers too)
        // whose last checked replica committed it inside the slice.
        for c in &self.cmds {
            if c.commits as usize == self.checked.len() {
                if let Some(s) = slice_of(c.all_commit_us, start, len) {
                    done[s].push(c.all_commit_us);
                }
            }
        }

        let mut gaps: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        for times in self.commit_times.values() {
            for w in times.windows(2) {
                if let Some(s) = slice_of(w[1].0, start, len) {
                    gaps[s].push((w[1].0 - w[0].0) as f64 / 1e3);
                }
            }
        }
        // Per slice: the first and last reference commit inside it. CPU
        // and bytes between the two were spent on the rounds between.
        let mut span: Vec<Option<(&Mark, &Mark)>> = vec![None; SLICES];
        for m in &self.marks {
            if let Some(s) = slice_of(m.at_us, start, len) {
                span[s] = Some((span[s].map_or(m, |(first, _)| first), m));
            }
        }
        let per_round = |s: usize, f: &dyn Fn(&Sample) -> u64| -> Option<f64> {
            let (first, last) = span[s]?;
            let rounds = last.round.checked_sub(first.round).filter(|&r| r > 0)?;
            Some(f(&last.sample).saturating_sub(f(&first.sample)) as f64 / rounds as f64)
        };

        let per_slice = |f: &dyn Fn(usize) -> Option<f64>| -> f64 {
            median((0..SLICES).filter_map(f).collect()).unwrap_or(0.0)
        };
        let reference = self.checked[0];
        let rounds_total = self.commit_times.get(&reference).map_or(0, |t| {
            t.iter().filter(|(at, _)| self.in_window(*at)).count() as u64
        });
        EndToEnd {
            // Commands completed after a slice's first completion
            // instant, per second up to its last: unbiased for commits
            // that arrive a block at a time, and not quantised the way
            // a count over a fixed span is (an open loop would otherwise
            // read exactly its offered rate in every run).
            cmd_throughput: per_slice(&|s| {
                let first = *done[s].iter().min()?;
                let last = *done[s].iter().max()?;
                let after_first = done[s].iter().filter(|&&t| t > first).count();
                (last > first).then(|| after_first as f64 * 1e6 / (last - first) as f64)
            }),
            latency_p50_ms: per_slice(&|s| quantile(&mut lat[s].clone(), 0.5)),
            latency_p90_ms: per_slice(&|s| quantile(&mut lat[s].clone(), 0.9)),
            latency_p99_ms: quantile(&mut all_lat, 0.99).unwrap_or(0.0),
            round_p50_ms: per_slice(&|s| quantile(&mut gaps[s].clone(), 0.5)),
            cpu_ms_per_round: per_slice(&|s| Some(per_round(s, &|b| b.cpu_ns)? / 1e6)),
            wire_kb_per_round: per_slice(&|s| Some(per_round(s, &|b| b.wire_bytes)? / 1e3)),
            rounds: rounds_total,
        }
    }
}
