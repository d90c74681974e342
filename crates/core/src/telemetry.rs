//! Per-replica telemetry: protocol-level metrics and the flight
//! recorder of consensus phase events.
//!
//! Every [`ConsensusCore`](crate::ConsensusCore) owns a
//! [`NodeTelemetry`]: a handful of counters/histograms capturing the
//! protocol's hot numbers (rounds entered, blocks committed, round
//! durations, finalization latency) plus a bounded
//! [`FlightRecorder`](icc_telemetry::FlightRecorder) of structured
//! [`SpanEvent`](icc_telemetry::SpanEvent)s — the raw material for the
//! critical-path analyzer and the Chrome-trace exporter in
//! `icc-telemetry`.
//!
//! Its cost on the protocol hot path is what the `telemetry_overhead`
//! cell of the hotpath bench prices.
//!
//! Telemetry is *observability*, not replica state: it survives
//! [`crash`](crate::ConsensusCore::crash) / restore cycles the way an
//! external monitoring agent would, so a trace shows the outage rather
//! than forgetting it.

use icc_telemetry::{AnomalyDetector, AnomalyEvent, Counter, FlightRecorder, Histogram, SpanEvent};

/// Protocol-level metrics for one replica.
#[derive(Debug, Default)]
pub struct CoreMetrics {
    /// Rounds this replica entered (beacon computed, rank derived).
    pub rounds_entered: Counter,
    /// Blocks this replica proposed (equivocating proposals count once).
    pub blocks_proposed: Counter,
    /// Blocks committed (output by Fig. 2, including catch-up tips).
    pub blocks_committed: Counter,
    /// Client commands contained in committed blocks.
    pub commands_committed: Counter,
    /// Certified catch-up packages applied.
    pub catch_ups_applied: Counter,
    /// Round duration: round entry to notarized finish, in µs.
    pub round_duration_us: Histogram,
    /// Finalization latency: round entry to commit of that round's
    /// block, in µs. The headline p50/p90/p99 columns of the experiment
    /// tables read from this histogram.
    pub finalization_latency_us: Histogram,
}

impl CoreMetrics {
    /// Folds another replica's metrics into this one (cluster roll-up).
    pub fn merge(&mut self, other: &CoreMetrics) {
        self.rounds_entered.merge(&other.rounds_entered);
        self.blocks_proposed.merge(&other.blocks_proposed);
        self.blocks_committed.merge(&other.blocks_committed);
        self.commands_committed.merge(&other.commands_committed);
        self.catch_ups_applied.merge(&other.catch_ups_applied);
        self.round_duration_us.merge(&other.round_duration_us);
        self.finalization_latency_us
            .merge(&other.finalization_latency_us);
    }
}

/// A replica's full telemetry bundle: metrics, the flight recorder,
/// and the live anomaly detector watching the span stream.
#[derive(Debug, Default)]
pub struct NodeTelemetry {
    /// Protocol-level counters and latency histograms.
    pub metrics: CoreMetrics,
    /// Bounded ring of structured span events (consensus phases,
    /// catch-ups, gossip retries).
    pub recorder: FlightRecorder,
    /// Rolling stall/flap/storm watcher over the span stream.
    pub anomalies: AnomalyDetector,
}

impl NodeTelemetry {
    /// The one funnel every span goes through: records into the ring
    /// AND feeds the anomaly detector; anomalies the detector emits are
    /// mirrored back into the ring as compact
    /// [`SpanKind::Anomaly`](icc_telemetry::SpanKind) events (which the
    /// detector itself ignores — no feedback loop).
    pub fn record(&mut self, ev: SpanEvent) {
        self.recorder.record(ev);
        if self.anomalies.observe(&ev) > 0 {
            self.mirror_new_anomalies();
        }
    }

    /// Clock tick for silent-stall detection: a stalled round produces
    /// no events, so the driver must poke the detector with the current
    /// time between spans.
    pub fn tick(&mut self, now_us: u64) {
        if self.anomalies.tick(now_us) > 0 {
            self.mirror_new_anomalies();
        }
    }

    /// Feed one peer link-state sample (from transport liveness diffs).
    pub fn observe_peer(&mut self, peer: u32, up: bool, at_us: u64) {
        if self.anomalies.observe_peer(peer, up, at_us) > 0 {
            self.mirror_new_anomalies();
        }
    }

    /// Feed one fsync/flush latency sample (from the WAL layer).
    pub fn observe_fsync(&mut self, at_us: u64, latency_us: u64) {
        if self.anomalies.observe_fsync(at_us, latency_us) > 0 {
            self.mirror_new_anomalies();
        }
    }

    /// The newest retained anomalies, oldest first.
    pub fn recent_anomalies(&self) -> Vec<AnomalyEvent> {
        self.anomalies.recent()
    }

    fn mirror_new_anomalies(&mut self) {
        for a in self.anomalies.drain_new() {
            self.recorder.record(a.to_span_event());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_folds_counters_and_histograms() {
        let mut a = CoreMetrics::default();
        a.rounds_entered.inc();
        a.round_duration_us.observe(1_000);
        let mut b = CoreMetrics::default();
        b.rounds_entered.inc();
        b.rounds_entered.inc();
        b.round_duration_us.observe(3_000);
        a.merge(&b);
        assert_eq!(a.rounds_entered.get(), 3);
        assert_eq!(a.round_duration_us.count(), 2);
        assert_eq!(a.round_duration_us.max(), 3_000);
    }
}
