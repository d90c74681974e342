//! **Stall anomaly detection**: a rolling watcher over flight-recorder
//! span events (ISSUE 10).
//!
//! The [`AnomalyDetector`] consumes the same [`SpanEvent`] stream the
//! flight recorder retains and emits structured [`AnomalyEvent`]s when
//! the stream looks pathological:
//!
//! * **round stall** — the currently open round has been open for more
//!   than [`STALL_FACTOR`]× the rolling median round duration;
//! * **peer flap** — a peer link transitioned up/down at least
//!   [`FLAP_TRANSITIONS`] times within [`FLAP_WINDOW_US`];
//! * **fsync spike** — one fsync took more than [`FSYNC_SPIKE_FACTOR`]×
//!   the rolling median fsync latency;
//! * **catch-up storm** — at least [`CATCH_UP_COUNT`] certified
//!   catch-ups were applied within [`CATCH_UP_WINDOW_US`].
//!
//! Detection is deterministic and clock-agnostic: the caller stamps
//! events with whatever clock it runs under (sim µs or wall µs), so
//! the same detector runs identically inside the deterministic
//! simulator and inside a live `replica` process. Emitted anomalies
//! are mirrored back into the span ring as [`SpanKind::Anomaly`]
//! events (so they show up inline on Perfetto timelines), surfaced on
//! `/status`, and rolled up into [`AnomalyCounts`] for `/metrics`.

use crate::recorder::{AnomalyCode, SpanEvent, SpanKind};
use std::collections::{HashMap, VecDeque};
use std::fmt;

// The thresholds. Windows are in the caller's clock domain (µs).

/// A round is stalled when open longer than this multiple of the
/// rolling median round duration.
const STALL_FACTOR: u64 = 4;
/// Closed-round samples required before stall detection arms.
const MIN_ROUND_SAMPLES: usize = 8;
/// Rolling window of closed-round durations for the median.
const MAX_ROUND_SAMPLES: usize = 256;
/// Up/down transitions within [`FLAP_WINDOW_US`] that count as a
/// flapping peer.
const FLAP_TRANSITIONS: usize = 4;
/// Window for counting peer link transitions.
const FLAP_WINDOW_US: u64 = 10_000_000;
/// An fsync is a spike when slower than this multiple of the rolling
/// median fsync latency.
const FSYNC_SPIKE_FACTOR: u64 = 8;
/// Fsync samples required before spike detection arms.
const MIN_FSYNC_SAMPLES: usize = 16;
/// Rolling window of fsync latencies for the median.
const MAX_FSYNC_SAMPLES: usize = 128;
/// Minimum gap between consecutive fsync-spike emissions (a slow disk
/// burst should read as one anomaly, not hundreds).
const FSYNC_COOLDOWN_US: u64 = 1_000_000;
/// Catch-ups applied within [`CATCH_UP_WINDOW_US`] that count as a
/// storm.
const CATCH_UP_COUNT: usize = 3;
/// Window for counting applied catch-ups.
const CATCH_UP_WINDOW_US: u64 = 5_000_000;
/// Newest anomalies retained for `/status` readout.
const RETAIN: usize = 256;

/// What the detector found, with the evidence that triggered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// A round has been open far longer than the median.
    RoundStall {
        /// The stalled round.
        round: u64,
        /// How long the round has been open (µs).
        waited_us: u64,
        /// The rolling median round duration at detection time (µs).
        median_us: u64,
    },
    /// A peer link flapped up/down repeatedly.
    PeerFlap {
        /// The flapping peer's node index.
        peer: u32,
        /// Transitions observed inside the window.
        transitions: u64,
        /// The window the transitions were counted over (µs).
        window_us: u64,
    },
    /// One fsync took far longer than the rolling median.
    FsyncSpike {
        /// The spiking fsync's latency (µs).
        latency_us: u64,
        /// The rolling median fsync latency at detection time (µs).
        median_us: u64,
    },
    /// Many certified catch-ups were applied in a short window.
    CatchUpStorm {
        /// Catch-ups applied inside the window.
        count: u64,
        /// The window the catch-ups were counted over (µs).
        window_us: u64,
    },
}

impl AnomalyKind {
    /// The compact class tag mirrored into the span ring.
    pub fn code(&self) -> AnomalyCode {
        match self {
            AnomalyKind::RoundStall { .. } => AnomalyCode::RoundStall,
            AnomalyKind::PeerFlap { .. } => AnomalyCode::PeerFlap,
            AnomalyKind::FsyncSpike { .. } => AnomalyCode::FsyncSpike,
            AnomalyKind::CatchUpStorm { .. } => AnomalyCode::CatchUpStorm,
        }
    }

    /// The code-specific magnitude carried on the span event.
    pub fn value(&self) -> u64 {
        match *self {
            AnomalyKind::RoundStall { waited_us, .. } => waited_us,
            AnomalyKind::PeerFlap { transitions, .. } => transitions,
            AnomalyKind::FsyncSpike { latency_us, .. } => latency_us,
            AnomalyKind::CatchUpStorm { count, .. } => count,
        }
    }
}

/// One detected anomaly: when, on which node, and what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnomalyEvent {
    /// Detection time (caller's clock domain, µs).
    pub at_us: u64,
    /// Node the detector runs on.
    pub node: u32,
    /// What was detected.
    pub kind: AnomalyKind,
}

impl AnomalyEvent {
    /// The span-ring mirror of this anomaly.
    pub fn to_span_event(&self) -> SpanEvent {
        let round = match self.kind {
            AnomalyKind::RoundStall { round, .. } => round,
            _ => 0,
        };
        SpanEvent {
            at_us: self.at_us,
            node: self.node,
            round,
            kind: SpanKind::Anomaly {
                code: self.kind.code(),
                value: self.kind.value(),
            },
        }
    }

    /// Hand-rolled JSON object (numbers and static identifiers only).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"at_us\":{},\"node\":{},\"kind\":\"{}\"",
            self.at_us,
            self.node,
            self.kind.code().label()
        );
        match self.kind {
            AnomalyKind::RoundStall {
                round,
                waited_us,
                median_us,
            } => {
                s.push_str(&format!(
                    ",\"round\":{round},\"waited_us\":{waited_us},\"median_us\":{median_us}"
                ));
            }
            AnomalyKind::PeerFlap {
                peer,
                transitions,
                window_us,
            } => {
                s.push_str(&format!(
                    ",\"peer\":{peer},\"transitions\":{transitions},\"window_us\":{window_us}"
                ));
            }
            AnomalyKind::FsyncSpike {
                latency_us,
                median_us,
            } => {
                s.push_str(&format!(
                    ",\"latency_us\":{latency_us},\"median_us\":{median_us}"
                ));
            }
            AnomalyKind::CatchUpStorm { count, window_us } => {
                s.push_str(&format!(",\"count\":{count},\"window_us\":{window_us}"));
            }
        }
        s.push('}');
        s
    }
}

impl fmt::Display for AnomalyEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s node {} ", self.at_us as f64 / 1e6, self.node)?;
        match self.kind {
            AnomalyKind::RoundStall {
                round,
                waited_us,
                median_us,
            } => write!(
                f,
                "round_stall: round {} open {:.1}ms (median {:.1}ms)",
                round,
                waited_us as f64 / 1e3,
                median_us as f64 / 1e3
            ),
            AnomalyKind::PeerFlap {
                peer,
                transitions,
                window_us,
            } => write!(
                f,
                "peer_flap: peer {} flapped {}x in {:.1}s",
                peer,
                transitions,
                window_us as f64 / 1e6
            ),
            AnomalyKind::FsyncSpike {
                latency_us,
                median_us,
            } => write!(
                f,
                "fsync_spike: {:.1}ms (median {:.1}ms)",
                latency_us as f64 / 1e3,
                median_us as f64 / 1e3
            ),
            AnomalyKind::CatchUpStorm { count, window_us } => write!(
                f,
                "catch_up_storm: {} catch-ups in {:.1}s",
                count,
                window_us as f64 / 1e6
            ),
        }
    }
}

crate::counter_set! {
    /// Per-class anomaly totals (exported on `/metrics`).
    pub struct AnomalyCounts {
        /// Rounds flagged as stalled.
        pub round_stalls: u64,
        /// Peer-flap windows flagged.
        pub peer_flaps: u64,
        /// Fsync latency spikes flagged.
        pub fsync_spikes: u64,
        /// Catch-up storms flagged.
        pub catch_up_storms: u64,
    }
}

fn median(window: &VecDeque<u64>) -> u64 {
    let mut v: Vec<u64> = window.iter().copied().collect();
    v.sort_unstable();
    if v.is_empty() {
        0
    } else {
        v[v.len() / 2]
    }
}

/// The rolling watcher. Feed it span events ([`Self::observe`]),
/// peer link transitions ([`Self::observe_peer`]) and fsync
/// latencies ([`Self::observe_fsync`]); poke it with
/// [`Self::tick`] so a *silent* stream (the stalled case!) is
/// still checked. Each call returns how many new anomalies were
/// emitted; drain them with [`Self::drain_new`].
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    node: u32,
    // Round-stall state.
    open_round: Option<(u64, u64)>, // (round, opened_at_us)
    round_window: VecDeque<u64>,
    stall_flagged: Option<u64>,
    // Peer-flap state.
    peer_state: HashMap<u32, bool>,
    peer_transitions: HashMap<u32, VecDeque<u64>>,
    // Fsync state.
    fsync_window: VecDeque<u64>,
    last_fsync_emit_us: Option<u64>,
    // Catch-up storm state.
    catch_ups: VecDeque<u64>,
    // Output.
    new_q: Vec<AnomalyEvent>,
    retained: VecDeque<AnomalyEvent>,
    counts: AnomalyCounts,
}

impl Default for AnomalyDetector {
    /// A node-0 detector; re-stamp with [`Self::set_node`].
    fn default() -> Self {
        Self::new(0)
    }
}

impl AnomalyDetector {
    /// A detector for `node`.
    pub fn new(node: u32) -> Self {
        Self {
            node,
            open_round: None,
            round_window: VecDeque::new(),
            stall_flagged: None,
            peer_state: HashMap::new(),
            peer_transitions: HashMap::new(),
            fsync_window: VecDeque::new(),
            last_fsync_emit_us: None,
            catch_ups: VecDeque::new(),
            new_q: Vec::new(),
            retained: VecDeque::new(),
            counts: AnomalyCounts::default(),
        }
    }

    /// Re-stamps the node index emitted events carry. For owners
    /// (like a replica's telemetry bundle) that are built by
    /// `Default` before the node index is known.
    pub fn set_node(&mut self, node: u32) {
        self.node = node;
    }

    fn emit(&mut self, at_us: u64, kind: AnomalyKind) {
        let ev = AnomalyEvent {
            at_us,
            node: self.node,
            kind,
        };
        match kind {
            AnomalyKind::RoundStall { .. } => self.counts.round_stalls += 1,
            AnomalyKind::PeerFlap { .. } => self.counts.peer_flaps += 1,
            AnomalyKind::FsyncSpike { .. } => self.counts.fsync_spikes += 1,
            AnomalyKind::CatchUpStorm { .. } => self.counts.catch_up_storms += 1,
        }
        self.new_q.push(ev);
        if self.retained.len() >= RETAIN {
            self.retained.pop_front();
        }
        self.retained.push_back(ev);
    }

    fn close_round(&mut self, round: u64, at_us: u64, count_duration: bool) {
        if let Some((open, opened_at)) = self.open_round {
            if round >= open {
                if count_duration && round == open {
                    if self.round_window.len() >= MAX_ROUND_SAMPLES {
                        self.round_window.pop_front();
                    }
                    self.round_window.push_back(at_us.saturating_sub(opened_at));
                }
                self.open_round = None;
            }
        }
    }

    fn check_stall(&mut self, now_us: u64) -> usize {
        let before = self.new_q.len();
        if let Some((round, opened_at)) = self.open_round {
            if self.stall_flagged != Some(round) && self.round_window.len() >= MIN_ROUND_SAMPLES {
                let median_us = median(&self.round_window).max(1);
                let waited_us = now_us.saturating_sub(opened_at);
                if waited_us > STALL_FACTOR.saturating_mul(median_us) {
                    self.stall_flagged = Some(round);
                    self.emit(
                        now_us,
                        AnomalyKind::RoundStall {
                            round,
                            waited_us,
                            median_us,
                        },
                    );
                }
            }
        }
        self.new_q.len() - before
    }

    /// Feed one span event. `NodeDown`/`NodeUp` count as peer
    /// transitions of the event's node; `Anomaly` mirrors are
    /// ignored (no feedback loop). Returns newly emitted
    /// anomalies.
    pub fn observe(&mut self, ev: &SpanEvent) -> usize {
        let before = self.new_q.len();
        match ev.kind {
            SpanKind::RoundStart { .. } => {
                // A new round opening implicitly closes whatever
                // was open (the close event may have been missed on
                // ring wraparound) without polluting the median.
                if let Some((open, _)) = self.open_round {
                    if ev.round > open {
                        self.open_round = None;
                    }
                }
                if self.open_round.is_none() {
                    self.open_round = Some((ev.round, ev.at_us));
                }
            }
            SpanKind::Notarized { .. } => {
                self.close_round(ev.round, ev.at_us, true);
            }
            SpanKind::CatchUpApplied { .. } => {
                // Catch-up jumps are not normal round durations;
                // close without feeding the median, and count
                // toward storms.
                self.close_round(ev.round, ev.at_us, false);
                let horizon = ev.at_us.saturating_sub(CATCH_UP_WINDOW_US);
                while self.catch_ups.front().is_some_and(|&t| t < horizon) {
                    self.catch_ups.pop_front();
                }
                self.catch_ups.push_back(ev.at_us);
                if self.catch_ups.len() >= CATCH_UP_COUNT {
                    let count = self.catch_ups.len() as u64;
                    self.catch_ups.clear();
                    self.emit(
                        ev.at_us,
                        AnomalyKind::CatchUpStorm {
                            count,
                            window_us: CATCH_UP_WINDOW_US,
                        },
                    );
                }
            }
            SpanKind::NodeDown => {
                self.observe_peer(ev.node, false, ev.at_us);
            }
            SpanKind::NodeUp => {
                self.observe_peer(ev.node, true, ev.at_us);
            }
            _ => {}
        }
        self.check_stall(ev.at_us);
        self.new_q.len() - before
    }

    /// Feed one peer link state sample (`up` = connected). Only
    /// actual transitions count; repeated samples of the same
    /// state are free. Returns newly emitted anomalies.
    pub fn observe_peer(&mut self, peer: u32, up: bool, at_us: u64) -> usize {
        let before = self.new_q.len();
        let prev = self.peer_state.insert(peer, up);
        if prev == Some(up) {
            return 0;
        }
        if prev.is_none() {
            // First sample establishes the baseline, it is not a
            // transition.
            return 0;
        }
        let q = self.peer_transitions.entry(peer).or_default();
        let horizon = at_us.saturating_sub(FLAP_WINDOW_US);
        while q.front().is_some_and(|&t| t < horizon) {
            q.pop_front();
        }
        q.push_back(at_us);
        if q.len() >= FLAP_TRANSITIONS {
            let transitions = q.len() as u64;
            q.clear();
            self.emit(
                at_us,
                AnomalyKind::PeerFlap {
                    peer,
                    transitions,
                    window_us: FLAP_WINDOW_US,
                },
            );
        }
        self.new_q.len() - before
    }

    /// Feed one fsync latency sample. Returns newly emitted
    /// anomalies.
    pub fn observe_fsync(&mut self, at_us: u64, latency_us: u64) -> usize {
        let before = self.new_q.len();
        if self.fsync_window.len() >= MIN_FSYNC_SAMPLES {
            let median_us = median(&self.fsync_window).max(1);
            let cooled = self
                .last_fsync_emit_us
                .is_none_or(|t| at_us.saturating_sub(t) >= FSYNC_COOLDOWN_US);
            if cooled && latency_us > FSYNC_SPIKE_FACTOR.saturating_mul(median_us) {
                self.last_fsync_emit_us = Some(at_us);
                self.emit(
                    at_us,
                    AnomalyKind::FsyncSpike {
                        latency_us,
                        median_us,
                    },
                );
            }
        }
        if self.fsync_window.len() >= MAX_FSYNC_SAMPLES {
            self.fsync_window.pop_front();
        }
        self.fsync_window.push_back(latency_us);
        self.new_q.len() - before
    }

    /// Re-check the open round against `now_us` without a new
    /// event — the stalled case produces *no* events, so a
    /// periodic tick is what actually catches it. Returns newly
    /// emitted anomalies.
    pub fn tick(&mut self, now_us: u64) -> usize {
        self.check_stall(now_us)
    }

    /// Take the anomalies emitted since the last drain.
    pub fn drain_new(&mut self) -> Vec<AnomalyEvent> {
        std::mem::take(&mut self.new_q)
    }

    /// The newest retained anomalies, oldest first (at most
    /// [`RETAIN`]).
    pub fn recent(&self) -> Vec<AnomalyEvent> {
        self.retained.iter().copied().collect()
    }

    /// Per-class totals since construction.
    pub fn counts(&self) -> AnomalyCounts {
        self.counts
    }
}

/// Run a detector over a whole cluster's merged span events (offline
/// analysis: scenario reports, integration tests, post-mortems).
/// Events are grouped by node, each node gets its own detector, and the
/// emitted anomalies are merged in time order.
pub fn scan(events: &[SpanEvent]) -> Vec<AnomalyEvent> {
    use std::collections::BTreeMap;
    let mut by_node: BTreeMap<u32, Vec<&SpanEvent>> = BTreeMap::new();
    for ev in events {
        by_node.entry(ev.node).or_default().push(ev);
    }
    let mut out: Vec<AnomalyEvent> = Vec::new();
    for (&node, evs) in &by_node {
        let mut det = AnomalyDetector::new(node);
        for ev in evs {
            det.observe(ev);
        }
        out.extend(det.drain_new());
    }
    out.sort_by_key(|a| a.at_us);
    out
}

/// Roll a set of anomalies up into per-class totals.
pub fn count(anomalies: &[AnomalyEvent]) -> AnomalyCounts {
    let mut c = AnomalyCounts::default();
    for a in anomalies {
        match a.kind {
            AnomalyKind::RoundStall { .. } => c.round_stalls += 1,
            AnomalyKind::PeerFlap { .. } => c.peer_flaps += 1,
            AnomalyKind::FsyncSpike { .. } => c.fsync_spikes += 1,
            AnomalyKind::CatchUpStorm { .. } => c.catch_up_storms += 1,
        }
    }
    c
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

    /// Drive `n` healthy rounds of ~100µs each starting at `t0`.
    fn healthy(det: &mut AnomalyDetector, t0: u64, first_round: u64, n: u64) -> u64 {
        let mut t = t0;
        for r in first_round..first_round + n {
            det.observe(&ev(t, r, SpanKind::RoundStart { rank: 0, leader: 0 }));
            t += 100;
            det.observe(&ev(t, r, SpanKind::Notarized { rank: 0 }));
            t += 10;
        }
        t
    }

    #[test]
    fn stall_flagged_once_via_tick() {
        let mut det = AnomalyDetector::new(0);
        let t = healthy(&mut det, 0, 1, 8);
        det.observe(&ev(t, 9, SpanKind::RoundStart { rank: 0, leader: 0 }));
        // Not yet stalled at 2× median.
        assert_eq!(det.tick(t + 200), 0);
        // Stalled at ~50× median; flagged exactly once.
        assert_eq!(det.tick(t + 5_000), 1);
        assert_eq!(det.tick(t + 9_000), 0);
        let new = det.drain_new();
        assert_eq!(new.len(), 1);
        match new[0].kind {
            AnomalyKind::RoundStall {
                round, waited_us, ..
            } => {
                assert_eq!(round, 9);
                assert!(waited_us >= 5_000);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert_eq!(det.counts().round_stalls, 1);
        // Closing the round and opening the next re-arms detection.
        det.observe(&ev(t + 9_100, 9, SpanKind::Notarized { rank: 0 }));
        det.observe(&ev(
            t + 9_110,
            10,
            SpanKind::RoundStart { rank: 0, leader: 0 },
        ));
        assert_eq!(det.tick(t + 60_000), 1);
    }

    #[test]
    fn stall_not_armed_below_min_samples() {
        let mut det = AnomalyDetector::new(0);
        let t = healthy(&mut det, 0, 1, MIN_ROUND_SAMPLES as u64 - 1);
        det.observe(&ev(t, 8, SpanKind::RoundStart { rank: 0, leader: 0 }));
        assert_eq!(det.tick(t + 1_000_000), 0);
    }

    #[test]
    fn peer_flap_needs_repeated_transitions() {
        let mut det = AnomalyDetector::new(0);
        // Baseline + one down/up cycle: no flap.
        det.observe_peer(2, true, 0);
        det.observe_peer(2, false, 1_000);
        det.observe_peer(2, true, 2_000);
        assert!(det.drain_new().is_empty());
        // Two more transitions inside the window trips it (4 total).
        det.observe_peer(2, false, 3_000);
        assert_eq!(det.observe_peer(2, true, 4_000), 1);
        let new = det.drain_new();
        match new[0].kind {
            AnomalyKind::PeerFlap {
                peer, transitions, ..
            } => {
                assert_eq!(peer, 2);
                assert_eq!(transitions, 4);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // Repeated same-state samples never count.
        for t in 0..10 {
            assert_eq!(det.observe_peer(2, true, 10_000 + t), 0);
        }
    }

    #[test]
    fn node_down_up_span_events_feed_flap() {
        let mut evs = Vec::new();
        for i in 0..3u64 {
            evs.push(ev(i * 1_000, 0, SpanKind::NodeDown));
            evs.push(ev(i * 1_000 + 500, 0, SpanKind::NodeUp));
        }
        let found = scan(&evs);
        assert!(
            found
                .iter()
                .any(|a| matches!(a.kind, AnomalyKind::PeerFlap { .. })),
            "{found:?}"
        );
    }

    #[test]
    fn fsync_spike_with_cooldown() {
        let mut det = AnomalyDetector::new(0);
        for i in 0..16 {
            assert_eq!(det.observe_fsync(i * 1_000, 100), 0);
        }
        assert_eq!(det.observe_fsync(20_000, 5_000), 1); // 50× median
                                                         // Within the cooldown window: suppressed.
        assert_eq!(det.observe_fsync(21_000, 5_000), 0);
        // After the cooldown: fires again.
        assert_eq!(det.observe_fsync(1_500_000, 5_000), 1);
        assert_eq!(det.counts().fsync_spikes, 2);
    }

    #[test]
    fn catch_up_storm() {
        let mut det = AnomalyDetector::new(0);
        det.observe(&ev(0, 5, SpanKind::CatchUpApplied { from_round: 1 }));
        det.observe(&ev(1_000, 9, SpanKind::CatchUpApplied { from_round: 5 }));
        assert!(det.drain_new().is_empty());
        det.observe(&ev(2_000, 12, SpanKind::CatchUpApplied { from_round: 9 }));
        let new = det.drain_new();
        assert_eq!(new.len(), 1);
        assert!(matches!(
            new[0].kind,
            AnomalyKind::CatchUpStorm { count: 3, .. }
        ));
        // Widely spaced catch-ups never storm.
        det.observe(&ev(
            100_000_000,
            20,
            SpanKind::CatchUpApplied { from_round: 12 },
        ));
        det.observe(&ev(
            200_000_000,
            30,
            SpanKind::CatchUpApplied { from_round: 20 },
        ));
        assert!(det.drain_new().is_empty());
    }

    #[test]
    fn json_and_display_render() {
        let a = AnomalyEvent {
            at_us: 1_500_000,
            node: 3,
            kind: AnomalyKind::RoundStall {
                round: 42,
                waited_us: 900_000,
                median_us: 60_000,
            },
        };
        let json = a.to_json();
        assert!(json.contains("\"kind\":\"round_stall\""));
        assert!(json.contains("\"round\":42"));
        assert!(a.to_string().contains("round 42"));
        let span = a.to_span_event();
        assert_eq!(span.round, 42);
        assert_eq!(span.kind.label(), "round_stall");
    }

    #[test]
    fn retained_is_bounded() {
        let mut det = AnomalyDetector::new(0);
        let flaps = RETAIN as u64 + 10;
        for i in 0..=flaps * FLAP_TRANSITIONS as u64 {
            det.observe_peer(7, i % 2 == 0, i * 10);
        }
        assert_eq!(det.recent().len(), RETAIN);
        assert_eq!(det.counts().peer_flaps, flaps);
    }
}
