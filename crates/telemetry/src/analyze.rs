//! **Round critical-path analysis**: fold flight-recorder span events
//! into per-round timelines and name the dominant wait per round.
//!
//! A round, as one node experiences it, is a chain of waits:
//!
//! ```text
//! notarized(r-1) ──beacon──▶ round_start(r) ──proposal──▶
//!   proposal_seen(r) ──notarization──▶ notarized(r) ──finalization──▶
//!   finalized(r)
//! ```
//!
//! * **beacon** — from the previous round closing to entering round
//!   `r` (round entry requires the round-`r` random beacon, so this
//!   gap is beacon-share quorum time);
//! * **proposal** — from round entry to the first valid block
//!   proposal appearing in the validated pool (a delayed rank-0
//!   proposer shows up here);
//! * **notarization** — from first proposal to the round closing with
//!   a notarized block;
//! * **finalization** — from notarization to explicit finalization
//!   (when a finalization event for the round exists);
//! * **catch-up** — rounds reached by installing a certified catch-up
//!   package are attributed wholly to catch-up.
//!
//! The **verdict** for a round is the phase with the largest wait
//! (ties break toward the earlier phase). [`critical_path`] aggregates
//! verdicts across all nodes of a cluster into a
//! [`CriticalPathSummary`].

use crate::recorder::{SpanEvent, SpanKind};
use std::collections::BTreeMap;
use std::fmt;

/// The protocol phase a round spent most of its time waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Waiting for the random-beacon share quorum of the round.
    Beacon,
    /// Waiting for the first valid block proposal.
    Proposal,
    /// Waiting for the notarization quorum.
    Notarization,
    /// Waiting for explicit finalization after notarization.
    Finalization,
    /// The round was reached via a certified catch-up package.
    CatchUp,
}

/// All phases, in chain (and tie-break) order.
pub const PHASES: [Phase; 5] = [
    Phase::Beacon,
    Phase::Proposal,
    Phase::Notarization,
    Phase::Finalization,
    Phase::CatchUp,
];

impl Phase {
    /// Short static label.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Beacon => "beacon",
            Phase::Proposal => "proposal",
            Phase::Notarization => "notarization",
            Phase::Finalization => "finalization",
            Phase::CatchUp => "catch-up",
        }
    }

    fn index(&self) -> usize {
        PHASES.iter().position(|p| p == self).expect("phase listed")
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One node's reconstructed timeline for one round. All timestamps are
/// sim microseconds; absent markers mean the corresponding event was
/// not recorded (round still open, or ring wraparound).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundTimeline {
    /// The round number.
    pub round: u64,
    /// When the previous round closed on this node (its `Notarized`
    /// event), used as the start of the beacon wait.
    pub prev_end_us: Option<u64>,
    /// `RoundStart` time.
    pub start_us: Option<u64>,
    /// This node's rank in the round (from `RoundStart`).
    pub rank: Option<u32>,
    /// `BeaconShareQuorum` time.
    pub beacon_us: Option<u64>,
    /// First `ProposalSeen` time.
    pub proposal_seen_us: Option<u64>,
    /// Lowest proposer rank seen at that moment.
    pub proposal_rank: Option<u32>,
    /// `Notarized` time (the round closing).
    pub notarized_us: Option<u64>,
    /// Rank of the notarized block.
    pub notarized_rank: Option<u32>,
    /// First `Finalized` time for the round.
    pub finalized_us: Option<u64>,
    /// `CatchUpApplied` time, when the round was reached by catch-up.
    pub catch_up_us: Option<u64>,
}

impl RoundTimeline {
    /// Per-phase waits (µs) reconstructible from the recorded markers,
    /// in chain order. Phases whose endpoints were not recorded are
    /// omitted.
    pub fn waits(&self) -> Vec<(Phase, u64)> {
        if let Some(cu) = self.catch_up_us {
            let from = self.prev_end_us.unwrap_or(cu);
            return vec![(Phase::CatchUp, cu.saturating_sub(from))];
        }
        let mut out = Vec::with_capacity(4);
        if let (Some(prev), Some(start)) = (self.prev_end_us, self.start_us) {
            out.push((Phase::Beacon, start.saturating_sub(prev)));
        }
        if let (Some(start), Some(seen)) = (self.start_us, self.proposal_seen_us) {
            out.push((Phase::Proposal, seen.saturating_sub(start)));
        }
        if let Some(notar) = self.notarized_us {
            let from = self.proposal_seen_us.or(self.start_us);
            if let Some(from) = from {
                out.push((Phase::Notarization, notar.saturating_sub(from)));
            }
        }
        if let (Some(notar), Some(fin)) = (self.notarized_us, self.finalized_us) {
            out.push((Phase::Finalization, fin.saturating_sub(notar)));
        }
        out
    }

    /// The dominant wait: the phase with the largest wait, ties
    /// breaking toward the earlier phase in the chain. `None` when no
    /// phase wait is reconstructible.
    pub fn verdict(&self) -> Option<Phase> {
        let waits = self.waits();
        let mut best: Option<(Phase, u64)> = None;
        for (phase, wait) in waits {
            match best {
                Some((_, w)) if wait <= w => {}
                _ => best = Some((phase, wait)),
            }
        }
        best.map(|(p, _)| p)
    }
}

/// Reconstruct per-round timelines from **one node's** span events
/// (in recording order, as returned by a flight recorder). Rounds are
/// returned in increasing round order; lifecycle events (`NodeDown`,
/// `NodeUp`, `CatchUpRequested`) do not open rounds.
pub fn round_timelines(events: &[SpanEvent]) -> Vec<RoundTimeline> {
    let mut rounds: BTreeMap<u64, RoundTimeline> = BTreeMap::new();
    // Latest round-close time seen so far, to seed the next round's
    // beacon wait.
    let mut last_close: Option<(u64, u64)> = None; // (round, at_us)
    fn open(rounds: &mut BTreeMap<u64, RoundTimeline>, r: u64) -> &mut RoundTimeline {
        rounds.entry(r).or_insert_with(|| RoundTimeline {
            round: r,
            ..RoundTimeline::default()
        })
    }
    for ev in events {
        match ev.kind {
            SpanKind::RoundStart { rank, .. } => {
                let prev = last_close.and_then(|(r, at)| (r + 1 == ev.round).then_some(at));
                let tl = open(&mut rounds, ev.round);
                tl.start_us.get_or_insert(ev.at_us);
                tl.rank.get_or_insert(rank);
                if tl.prev_end_us.is_none() {
                    tl.prev_end_us = prev;
                }
            }
            SpanKind::BeaconShareQuorum => {
                open(&mut rounds, ev.round)
                    .beacon_us
                    .get_or_insert(ev.at_us);
            }
            SpanKind::ProposalSeen { rank } => {
                let tl = open(&mut rounds, ev.round);
                if tl.proposal_seen_us.is_none() {
                    tl.proposal_seen_us = Some(ev.at_us);
                    tl.proposal_rank = Some(rank);
                }
            }
            SpanKind::Notarized { rank } => {
                let tl = open(&mut rounds, ev.round);
                if tl.notarized_us.is_none() {
                    tl.notarized_us = Some(ev.at_us);
                    tl.notarized_rank = Some(rank);
                }
                last_close = Some((ev.round, ev.at_us));
            }
            SpanKind::Finalized => {
                open(&mut rounds, ev.round)
                    .finalized_us
                    .get_or_insert(ev.at_us);
            }
            SpanKind::CatchUpApplied { .. } => {
                let prev = last_close.map(|(_, at)| at);
                let tl = open(&mut rounds, ev.round);
                if tl.catch_up_us.is_none() {
                    tl.catch_up_us = Some(ev.at_us);
                    if tl.prev_end_us.is_none() {
                        tl.prev_end_us = prev;
                    }
                }
                last_close = Some((ev.round, ev.at_us));
            }
            SpanKind::Proposed
            | SpanKind::CatchUpRequested
            | SpanKind::NodeDown
            | SpanKind::NodeUp
            | SpanKind::EpochTransition { .. }
            | SpanKind::Anomaly { .. } => {}
        }
    }
    rounds.into_values().collect()
}

/// Cluster-level roll-up of per-round critical-path verdicts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPathSummary {
    /// Number of `(node, round)` timelines with a verdict.
    pub rounds: u64,
    /// Per phase (indexed as in [`PHASES`]): how many timelines had
    /// this verdict, and the summed dominant wait (µs) across them.
    pub by_phase: [(u64, u64); 5],
}

impl CriticalPathSummary {
    /// Fold one timeline into the summary.
    pub fn add(&mut self, tl: &RoundTimeline) {
        if let Some(phase) = tl.verdict() {
            let wait = tl
                .waits()
                .into_iter()
                .find(|(p, _)| *p == phase)
                .map(|(_, w)| w)
                .unwrap_or(0);
            self.rounds += 1;
            let cell = &mut self.by_phase[phase.index()];
            cell.0 += 1;
            cell.1 += wait;
        }
    }

    /// Verdict count for a phase.
    pub fn count(&self, phase: Phase) -> u64 {
        self.by_phase[phase.index()].0
    }

    /// Mean dominant wait (µs) for timelines with this verdict, or
    /// 0.0 when none.
    pub fn mean_wait_us(&self, phase: Phase) -> f64 {
        let (n, sum) = self.by_phase[phase.index()];
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// The most common verdict across all timelines, if any.
    pub fn dominant(&self) -> Option<Phase> {
        PHASES
            .iter()
            .copied()
            .max_by_key(|p| self.count(*p))
            .filter(|p| self.count(*p) > 0)
    }
}

impl fmt::Display for CriticalPathSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rounds == 0 {
            return write!(f, "critical path: no analyzable rounds");
        }
        write!(f, "critical path over {} node-rounds:", self.rounds)?;
        let mut order: Vec<Phase> = PHASES.to_vec();
        order.sort_by_key(|p| std::cmp::Reverse(self.count(*p)));
        for p in order {
            let n = self.count(p);
            if n == 0 {
                continue;
            }
            write!(
                f,
                " {} x{} (mean {:.2} ms)",
                p.label(),
                n,
                self.mean_wait_us(p) / 1000.0
            )?;
        }
        Ok(())
    }
}

/// Analyze a whole cluster's events (any node mix): groups by node,
/// reconstructs each node's timelines, and rolls the verdicts up.
pub fn critical_path(events: &[SpanEvent]) -> CriticalPathSummary {
    let mut by_node: BTreeMap<u32, Vec<SpanEvent>> = BTreeMap::new();
    for ev in events {
        by_node.entry(ev.node).or_default().push(*ev);
    }
    let mut summary = CriticalPathSummary::default();
    for evs in by_node.values() {
        for tl in round_timelines(evs) {
            summary.add(&tl);
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, round: u64, kind: SpanKind) -> SpanEvent {
        SpanEvent {
            at_us,
            node: 0,
            round,
            kind,
        }
    }

    /// A healthy round: every phase short, notarization slightly
    /// dominant.
    fn healthy_round(base: u64, round: u64) -> Vec<SpanEvent> {
        vec![
            ev(base, round, SpanKind::BeaconShareQuorum),
            ev(base + 1, round, SpanKind::RoundStart { rank: 1, leader: 2 }),
            ev(base + 11, round, SpanKind::ProposalSeen { rank: 0 }),
            ev(base + 31, round, SpanKind::Notarized { rank: 0 }),
            ev(base + 41, round, SpanKind::Finalized),
        ]
    }

    #[test]
    fn healthy_round_verdict_is_notarization() {
        let mut evs = healthy_round(100, 1);
        evs.extend(healthy_round(141, 2));
        let tls = round_timelines(&evs);
        assert_eq!(tls.len(), 2);
        // Round 2 has a prev_end (round 1 notarized at 131): beacon
        // wait = 142 - 131 = 11, proposal 10, notarization 20, fin 10.
        let r2 = &tls[1];
        assert_eq!(r2.round, 2);
        assert_eq!(r2.prev_end_us, Some(131));
        assert_eq!(r2.verdict(), Some(Phase::Notarization));
    }

    #[test]
    fn delayed_proposal_dominates() {
        // Round entered at 100, first proposal only at 5_000 (late
        // rank-0 proposer), then fast close.
        let evs = vec![
            ev(90, 4, SpanKind::Notarized { rank: 0 }),
            ev(100, 5, SpanKind::RoundStart { rank: 3, leader: 0 }),
            ev(5_000, 5, SpanKind::ProposalSeen { rank: 0 }),
            ev(5_050, 5, SpanKind::Notarized { rank: 0 }),
            ev(5_060, 5, SpanKind::Finalized),
        ];
        let tls = round_timelines(&evs);
        let r5 = tls.iter().find(|t| t.round == 5).unwrap();
        assert_eq!(r5.verdict(), Some(Phase::Proposal));
    }

    #[test]
    fn late_beacon_dominates() {
        // Previous round closed at 100; round 6 only entered at 9_000
        // (beacon share quorum withheld), then everything fast.
        let evs = vec![
            ev(100, 5, SpanKind::Notarized { rank: 0 }),
            ev(8_990, 6, SpanKind::BeaconShareQuorum),
            ev(9_000, 6, SpanKind::RoundStart { rank: 0, leader: 0 }),
            ev(9_020, 6, SpanKind::ProposalSeen { rank: 0 }),
            ev(9_050, 6, SpanKind::Notarized { rank: 0 }),
        ];
        let tls = round_timelines(&evs);
        let r6 = tls.iter().find(|t| t.round == 6).unwrap();
        assert_eq!(r6.prev_end_us, Some(100));
        assert_eq!(r6.verdict(), Some(Phase::Beacon));
    }

    #[test]
    fn catch_up_round_attributed_to_catch_up() {
        let evs = vec![
            ev(100, 2, SpanKind::Notarized { rank: 0 }),
            ev(50_000, 9, SpanKind::CatchUpApplied { from_round: 2 }),
            // Post-catch-up round proceeds normally.
            ev(50_010, 10, SpanKind::RoundStart { rank: 1, leader: 3 }),
            ev(50_020, 10, SpanKind::ProposalSeen { rank: 0 }),
            ev(50_040, 10, SpanKind::Notarized { rank: 0 }),
        ];
        let tls = round_timelines(&evs);
        let r9 = tls.iter().find(|t| t.round == 9).unwrap();
        assert_eq!(r9.verdict(), Some(Phase::CatchUp));
        assert_eq!(r9.waits(), vec![(Phase::CatchUp, 49_900)]);
        // The next round's beacon wait is measured from the catch-up.
        let r10 = tls.iter().find(|t| t.round == 10).unwrap();
        assert_eq!(r10.prev_end_us, Some(50_000));
    }

    #[test]
    fn tie_breaks_toward_earlier_phase() {
        let tl = RoundTimeline {
            round: 1,
            prev_end_us: Some(0),
            start_us: Some(10),
            proposal_seen_us: Some(20),
            notarized_us: Some(30),
            ..RoundTimeline::default()
        };
        // beacon = proposal = notarization = 10 -> Beacon wins.
        assert_eq!(tl.verdict(), Some(Phase::Beacon));
    }

    #[test]
    fn summary_rolls_up_and_displays() {
        let mut evs = healthy_round(100, 1);
        evs.extend(healthy_round(141, 2));
        evs.push(ev(10_000, 3, SpanKind::RoundStart { rank: 0, leader: 0 }));
        evs.push(ev(10_010, 3, SpanKind::ProposalSeen { rank: 0 }));
        evs.push(ev(10_020, 3, SpanKind::Notarized { rank: 0 }));
        let summary = critical_path(&evs);
        assert_eq!(summary.rounds, 3);
        // Round 3 waited ~9.8ms on the beacon (prev close 181).
        assert_eq!(summary.count(Phase::Beacon), 1);
        assert!(summary.mean_wait_us(Phase::Beacon) > 9_000.0);
        let text = summary.to_string();
        assert!(text.contains("beacon"), "{text}");
        assert!(text.contains("3 node-rounds"), "{text}");
    }

    #[test]
    fn empty_events_yield_empty_summary() {
        let summary = critical_path(&[]);
        assert_eq!(summary.rounds, 0);
        assert_eq!(summary.dominant(), None);
        assert_eq!(summary.to_string(), "critical path: no analyzable rounds");
    }
}
