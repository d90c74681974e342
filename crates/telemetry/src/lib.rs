//! **Flight-recorder telemetry** for the ICC reproduction (ISSUE 5).
//!
//! The paper's evaluation (§6) is about *distributions* — block time,
//! finalization latency, per-node traffic under faults — so the
//! harness needs more than flat counter sums. This crate provides the
//! four observability layers the rest of the workspace wires through:
//!
//! 1. [`metrics`] — counters, gauges, and log2-bucketed histograms
//!    with p50/p90/p99/max readout.
//! 2. [`recorder`] — a per-node **flight recorder**: a fixed-capacity
//!    ring buffer of structured [`recorder::SpanEvent`]s (round
//!    starts, beacon quorums, proposals seen, notarizations,
//!    finalizations, catch-ups, gossip retries, crash/restart)
//!    stamped with sim time.
//! 3. [`analyze`] — folds span events into per-round timelines and
//!    names the dominant wait (*beacon / proposal / notarization /
//!    finalization / catch-up*) per round, plus a cluster-level
//!    critical-path summary.
//! 4. [`export`] — Chrome trace-event JSON (loadable in Perfetto /
//!    `chrome://tracing`), a Prometheus-style text snapshot, and the
//!    cross-node trace stitcher.
//! 5. [`anomaly`] — a rolling watcher over the span stream emitting
//!    structured anomaly events (round stalls, peer flaps, fsync
//!    spikes, catch-up storms) — ISSUE 10.
//! 6. [`serve`] — the per-replica admin plane: a hand-rolled
//!    HTTP/1.0 server (`/metrics`, `/health`, `/status`, `/trace`)
//!    plus the pure health/status renderers behind it — ISSUE 10.
//!
//! The analysis layers are deterministic: no wall clock, no global
//! state. Callers own their recorders and stamp events with whatever
//! clock they run under (the simulator's `SimTime` or a live
//! process's monotonic clock); only [`serve`] spawns a thread.
//!
//! There is one build: every type here is live wherever it is
//! compiled, so what the tests observe is what the benchmark runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod anomaly;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod serve;

pub use analyze::{critical_path, round_timelines, CriticalPathSummary, Phase, RoundTimeline};
pub use anomaly::{AnomalyCounts, AnomalyDetector, AnomalyEvent, AnomalyKind};
pub use export::{
    chrome_trace, chrome_trace_tagged, extract_trace_anchor, stitch_chrome_traces, PromSnapshot,
};
pub use metrics::{Counter, Gauge, Histogram};
pub use recorder::{AnomalyCode, FlightRecorder, SpanEvent, SpanKind};
pub use serve::{
    evaluate_health, http_get, AdminBuilder, AdminResponse, AdminServer, HealthInputs,
    HealthReport, PeerLinkStatus, StatusReport,
};

/// Generate a plain-old-data counter-set struct whose aggregation can
/// never drift from its field list.
///
/// A hand-rolled `merge()` has to name every field a second time, so
/// adding a counter can silently skip aggregation. This macro expands
/// one field list into:
///
/// * the struct itself (`Debug, Default, Clone, Copy, PartialEq, Eq`),
/// * `merge(&mut self, &Self)` summing **every** field,
/// * `fields(&self) -> Vec<(&'static str, u64)>` in declaration order
///   (used by the Prometheus exporter, so exports can't drift either),
/// * `filled(v) -> Self` setting every field to `v` (the
///   compile-coupled test helper: merging two `filled(v)` snapshots
///   must yield `filled(2 * v)`).
///
/// ```
/// icc_telemetry::counter_set! {
///     /// Demo counters.
///     pub struct Demo {
///         /// How many widgets.
///         pub widgets: u64,
///         /// How many gadgets.
///         pub gadgets: u64,
///     }
/// }
/// let mut a = Demo::filled(2);
/// a.merge(&Demo::filled(3));
/// assert_eq!(a, Demo::filled(5));
/// assert_eq!(a.fields(), vec![("widgets", 5), ("gadgets", 5)]);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$smeta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: u64
            ),+ $(,)?
        }
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            $(
                $(#[$fmeta])*
                pub $field: u64,
            )+
        }

        impl $name {
            /// Field-wise sum of `other` into `self`. Generated from
            /// the field list, so a newly added counter is aggregated
            /// by construction.
            pub fn merge(&mut self, other: &Self) {
                $( self.$field = self.$field.wrapping_add(other.$field); )+
            }

            /// `(name, value)` pairs for every field, in declaration
            /// order. Exporters iterate this instead of naming fields.
            pub fn fields(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                ::std::vec![ $( (stringify!($field), self.$field), )+ ]
            }

            /// A snapshot with **every** field set to `v`. Pairing
            /// this with [`Self::merge`] in a test couples aggregation
            /// to the field list at compile time: `filled(v)` merged
            /// into `filled(v)` must equal `filled(2 * v)`.
            pub fn filled(v: u64) -> Self {
                Self { $( $field: v, )+ }
            }
        }
    };
}

#[cfg(test)]
mod macro_tests {
    counter_set! {
        /// Test counter set.
        pub struct Three {
            /// a.
            pub a: u64,
            /// b.
            pub b: u64,
            /// c.
            pub c: u64,
        }
    }

    #[test]
    fn merge_sums_every_field() {
        let mut x = Three::filled(7);
        x.merge(&Three::filled(7));
        assert_eq!(x, Three::filled(14));
    }

    #[test]
    fn fields_in_declaration_order() {
        let x = Three { a: 1, b: 2, c: 3 };
        assert_eq!(x.fields(), vec![("a", 1), ("b", 2), ("c", 3)]);
    }
}
