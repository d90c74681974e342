//! The per-node **flight recorder**: a fixed-capacity ring buffer of
//! structured span events stamped with sim time.
//!
//! Every consensus-relevant transition (round entry, beacon quorum,
//! proposal seen, notarization, finalization, catch-up, gossip retry,
//! crash/restart) is recorded as one [`SpanEvent`]. The ring keeps the
//! *newest* `capacity` events — like an aircraft flight recorder, the
//! interesting part of a long run is the recent past — and counts how
//! many older events were overwritten.

/// Default ring capacity: enough for thousands of rounds per node at
/// ~6 events per round while staying a few hundred KiB.
pub const DEFAULT_CAPACITY: usize = 8192;

/// Compact class tag for an anomaly span event (see
/// [`crate::anomaly`]). The full structured
/// [`crate::anomaly::AnomalyEvent`] is retained by the detector; the
/// span ring carries only this `Copy` code plus one magnitude so
/// anomalies show up inline on the flight-recorder timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyCode {
    /// A round has been open for more than k× the median duration.
    RoundStall,
    /// A peer link flapped up/down repeatedly within a short window.
    PeerFlap,
    /// One fsync took far longer than the rolling median.
    FsyncSpike,
    /// Many certified catch-ups were applied in a short window.
    CatchUpStorm,
}

impl AnomalyCode {
    /// Short static label (Chrome-trace event name, Prometheus-safe).
    pub fn label(&self) -> &'static str {
        match self {
            AnomalyCode::RoundStall => "round_stall",
            AnomalyCode::PeerFlap => "peer_flap",
            AnomalyCode::FsyncSpike => "fsync_spike",
            AnomalyCode::CatchUpStorm => "catch_up_storm",
        }
    }

    /// All codes, in declaration order (for per-kind roll-ups).
    pub const ALL: [AnomalyCode; 4] = [
        AnomalyCode::RoundStall,
        AnomalyCode::PeerFlap,
        AnomalyCode::FsyncSpike,
        AnomalyCode::CatchUpStorm,
    ];
}

/// What happened. Variants mirror the protocol phases the critical-
/// path analyzer folds over (see [`crate::analyze`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The node entered the round: its beacon was available and the
    /// rank permutation is known. `rank` is this node's own rank,
    /// `leader` the rank-0 node index.
    RoundStart {
        /// This node's rank in the round's permutation.
        rank: u32,
        /// Node index of the rank-0 (leader) party.
        leader: u32,
    },
    /// Enough random-beacon shares arrived to compute this round's
    /// beacon value.
    BeaconShareQuorum,
    /// This node broadcast its own block proposal.
    Proposed,
    /// First valid block proposal for the round became visible in the
    /// validated pool; `rank` is the lowest rank seen at that moment.
    ProposalSeen {
        /// Lowest proposer rank among the valid blocks seen.
        rank: u32,
    },
    /// The round closed with a notarized block of the given rank.
    Notarized {
        /// Rank of the notarized block.
        rank: u32,
    },
    /// A block of this round was explicitly finalized (committed).
    Finalized,
    /// The gossip layer pulled: it sent a peer what it holds, asking
    /// for what it missed (a certified catch-up package, if it is far
    /// enough behind).
    CatchUpRequested,
    /// A certified catch-up package was verified and installed,
    /// jumping this node forward from `from_round`.
    CatchUpApplied {
        /// The round the node was in before the jump.
        from_round: u64,
    },
    /// The simulator took the node down (crash fault).
    NodeDown,
    /// The simulator restarted the node.
    NodeUp,
    /// The node crossed an epoch boundary: the membership/reshare
    /// schedule activated `epoch` (either by finalizing its way across
    /// or via a certified cross-epoch catch-up).
    EpochTransition {
        /// Index of the epoch being entered.
        epoch: u64,
    },
    /// The stall anomaly detector flagged something (see
    /// [`crate::anomaly`]). `value` is the code-specific magnitude:
    /// waited µs for a stall, up/down transitions for a flap, latency
    /// µs for an fsync spike, catch-up count for a storm.
    Anomaly {
        /// Which anomaly class fired.
        code: AnomalyCode,
        /// Code-specific magnitude.
        value: u64,
    },
}

impl SpanKind {
    /// Short static label (Chrome-trace event name, Prometheus-safe).
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::RoundStart { .. } => "round_start",
            SpanKind::BeaconShareQuorum => "beacon_share_quorum",
            SpanKind::Proposed => "proposed",
            SpanKind::ProposalSeen { .. } => "proposal_seen",
            SpanKind::Notarized { .. } => "notarized",
            SpanKind::Finalized => "finalized",
            SpanKind::CatchUpRequested => "catch_up_requested",
            SpanKind::CatchUpApplied { .. } => "catch_up_applied",
            SpanKind::NodeDown => "node_down",
            SpanKind::NodeUp => "node_up",
            SpanKind::EpochTransition { .. } => "epoch_transition",
            SpanKind::Anomaly { code, .. } => code.label(),
        }
    }
}

/// One recorded event: *when* (sim microseconds), *who* (node index),
/// *which round*, and *what* ([`SpanKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Simulated time of the event, in microseconds.
    pub at_us: u64,
    /// Index of the node the event happened on.
    pub node: u32,
    /// Consensus round the event belongs to (0 for lifecycle events
    /// recorded outside any round).
    pub round: u64,
    /// What happened.
    pub kind: SpanKind,
}

/// Fixed-capacity ring buffer of [`SpanEvent`]s keeping the
/// newest `capacity` events in arrival order.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<SpanEvent>,
    /// Next slot to overwrite once the buffer is full.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            buf: Vec::with_capacity(cap.min(1024)),
            head: 0,
            cap,
            dropped: 0,
        }
    }

    /// Record one event, overwriting the oldest if full.
    #[inline]
    pub fn record(&mut self, ev: SpanEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything
    /// cleared).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many older events were overwritten by wraparound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forget everything (used on metric resets between bench
    /// warmup and measurement windows).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64) -> SpanEvent {
        SpanEvent {
            at_us,
            node: 0,
            round: at_us / 10,
            kind: SpanKind::Finalized,
        }
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let mut r = FlightRecorder::with_capacity(8);
        for i in 0..5 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let times: Vec<u64> = r.events().iter().map(|e| e.at_us).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraparound_keeps_newest_in_order() {
        let mut r = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let times: Vec<u64> = r.events().iter().map(|e| e.at_us).collect();
        // The newest 4 of 0..10, oldest first.
        assert_eq!(times, vec![6, 7, 8, 9]);
    }

    #[test]
    fn wraparound_is_stable_across_many_laps() {
        let mut r = FlightRecorder::with_capacity(3);
        for i in 0..1000 {
            r.record(ev(i));
        }
        let times: Vec<u64> = r.events().iter().map(|e| e.at_us).collect();
        assert_eq!(times, vec![997, 998, 999]);
        assert_eq!(r.dropped(), 997);
    }

    #[test]
    fn clear_resets_ring_state() {
        let mut r = FlightRecorder::with_capacity(2);
        for i in 0..5 {
            r.record(ev(i));
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        r.record(ev(42));
        assert_eq!(r.events()[0].at_us, 42);
    }
}
