//! Exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`),
//! a Prometheus-style text snapshot, and the cross-node trace
//! stitcher behind `net_cluster --stitched-trace`.
//!
//! All hand-rolled string builders — the workspace is fully offline
//! and vendors no JSON crate. Span-event output emits only numbers
//! and static identifier strings; the Prometheus builder additionally
//! sanitizes metric/label names and escapes label values so callers
//! may pass arbitrary strings (the text-format compliance suite in
//! `tests/prom_compliance.rs` fuzzes this).

use crate::analyze::{round_timelines, Phase};
use crate::metrics::Histogram;
use crate::recorder::{SpanEvent, SpanKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render span events as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form), loadable in Perfetto or
/// `chrome://tracing`.
///
/// Layout per node (`pid` = node index):
///
/// * `tid 0` — one `"ph": "i"` **instant** per recorded span event
///   (name = the event label, `ts` = sim µs, args carry round/rank/
///   etc.). The number of instants equals `events.len()` exactly —
///   the acceptance invariant tying the trace to the flight recorder.
/// * `tid 1` — `"ph": "X"` **complete spans** for the reconstructed
///   per-round phase waits (beacon/proposal/notarization/
///   finalization/catch-up), so Perfetto shows each round as a bar
///   chain.
/// * `"ph": "M"` metadata names each process `node-N` and its two
///   threads.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&trace_entries(events).join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// [`chrome_trace`] plus top-level `node` and `clockAnchorUs` keys
/// (extra keys are legal in the Chrome trace object form). The anchor
/// is the process's wall-clock UNIX time (µs) at the instant its
/// event clock read zero — `/trace` serves this form so the
/// cross-node stitcher ([`stitch_chrome_traces`]) can align
/// per-process clocks.
pub fn chrome_trace_tagged(events: &[SpanEvent], node: u32, clock_anchor_us: u64) -> String {
    let mut out = format!(
        "{{\"displayTimeUnit\":\"ms\",\"node\":{node},\"clockAnchorUs\":{clock_anchor_us},\
         \"traceEvents\":[\n"
    );
    out.push_str(&trace_entries(events).join(",\n"));
    out.push_str("\n]}\n");
    out
}

fn trace_entries(events: &[SpanEvent]) -> Vec<String> {
    let mut entries: Vec<String> = Vec::with_capacity(events.len() + 16);
    let mut by_node: BTreeMap<u32, Vec<SpanEvent>> = BTreeMap::new();
    for ev in events {
        by_node.entry(ev.node).or_default().push(*ev);
    }
    for &node in by_node.keys() {
        entries.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":0,\
             \"args\":{{\"name\":\"node-{node}\"}}}}"
        ));
        entries.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":0,\
             \"args\":{{\"name\":\"span events\"}}}}"
        ));
        entries.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":1,\
             \"args\":{{\"name\":\"round phases\"}}}}"
        ));
    }
    // One instant per event, in recording order.
    for ev in events {
        let mut args = format!("\"round\":{}", ev.round);
        match ev.kind {
            SpanKind::RoundStart { rank, leader } => {
                let _ = write!(args, ",\"rank\":{rank},\"leader\":{leader}");
            }
            SpanKind::ProposalSeen { rank } | SpanKind::Notarized { rank } => {
                let _ = write!(args, ",\"rank\":{rank}");
            }
            SpanKind::CatchUpApplied { from_round } => {
                let _ = write!(args, ",\"from_round\":{from_round}");
            }
            SpanKind::EpochTransition { epoch } => {
                let _ = write!(args, ",\"epoch\":{epoch}");
            }
            SpanKind::Anomaly { value, .. } => {
                let _ = write!(args, ",\"value\":{value}");
            }
            _ => {}
        }
        entries.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\
             \"tid\":0,\"args\":{{{}}}}}",
            ev.kind.label(),
            ev.at_us,
            ev.node,
            args
        ));
    }
    // Reconstructed phase spans per node.
    for (&node, evs) in &by_node {
        for tl in round_timelines(evs) {
            let spans: [(Phase, Option<u64>, Option<u64>); 5] = [
                (Phase::Beacon, tl.prev_end_us, tl.start_us),
                (Phase::Proposal, tl.start_us, tl.proposal_seen_us),
                (
                    Phase::Notarization,
                    tl.proposal_seen_us.or(tl.start_us),
                    tl.notarized_us,
                ),
                (Phase::Finalization, tl.notarized_us, tl.finalized_us),
                (
                    Phase::CatchUp,
                    tl.prev_end_us.or(tl.catch_up_us),
                    tl.catch_up_us,
                ),
            ];
            for (phase, from, to) in spans {
                if phase == Phase::CatchUp && tl.catch_up_us.is_none() {
                    continue;
                }
                if tl.catch_up_us.is_some() && phase != Phase::CatchUp {
                    continue;
                }
                if let (Some(from), Some(to)) = (from, to) {
                    entries.push(format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                         \"pid\":{},\"tid\":1,\"args\":{{\"round\":{}}}}}",
                        phase.label(),
                        from,
                        to.saturating_sub(from),
                        node,
                        tl.round
                    ));
                }
            }
        }
    }
    entries
}

/// Sanitize a metric name to the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every invalid character becomes `_`,
/// a leading digit gets a `_` prefix, and an empty name becomes `_`.
/// Valid names pass through unchanged.
pub fn sanitize_metric_name(name: &str) -> String {
    if name.is_empty() {
        return "_".to_string();
    }
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Sanitize a label name to `[a-zA-Z_][a-zA-Z0-9_]*` (no colons, and
/// `__`-prefixed names are reserved — a leading `__` is folded to
/// `_`).
pub fn sanitize_label_name(name: &str) -> String {
    if name.is_empty() {
        return "_".to_string();
    }
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    while out.starts_with("__") {
        out.remove(0);
    }
    out
}

/// Escape a label *value* per the text exposition format: backslash,
/// double quote, and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape `# HELP` text: backslash and newline (quotes are legal in
/// help text).
pub fn escape_help(h: &str) -> String {
    let mut out = String::with_capacity(h.len());
    for c in h.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Builder for a Prometheus text-exposition snapshot
/// (`# HELP` / `# TYPE` headers, cumulative `_bucket{le=...}`
/// histogram series). Metric and label names are sanitized and label
/// values escaped, so arbitrary strings (e.g. counter-set field names
/// concatenated by callers) are safe to pass.
#[derive(Debug, Default)]
pub struct PromSnapshot {
    out: String,
}

impl PromSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, kind: &str, help: &str) {
        let help = escape_help(help);
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Append one unlabeled counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        let name = sanitize_metric_name(name);
        self.header(&name, "counter", help);
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Append one unlabeled gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: i64) {
        let name = sanitize_metric_name(name);
        self.header(&name, "gauge", help);
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Append a counter family with one label dimension, e.g.
    /// `sent_bytes{kind="block"} 123`.
    pub fn counter_series(&mut self, name: &str, help: &str, label: &str, series: &[(&str, u64)]) {
        let name = sanitize_metric_name(name);
        let label = sanitize_label_name(label);
        self.header(&name, "counter", help);
        for (value_label, v) in series {
            let value_label = escape_label_value(value_label);
            let _ = writeln!(self.out, "{name}{{{label}=\"{value_label}\"}} {v}");
        }
    }

    /// Append a gauge family with one label dimension, e.g.
    /// `link_queue_depth{peer="2"} 17`.
    pub fn gauge_series(&mut self, name: &str, help: &str, label: &str, series: &[(&str, i64)]) {
        let name = sanitize_metric_name(name);
        let label = sanitize_label_name(label);
        self.header(&name, "gauge", help);
        for (value_label, v) in series {
            let value_label = escape_label_value(value_label);
            let _ = writeln!(self.out, "{name}{{{label}=\"{value_label}\"}} {v}");
        }
    }

    /// Append a log2-bucketed [`Histogram`] as a Prometheus histogram:
    /// cumulative `_bucket{le="..."}` series (only up to the highest
    /// non-empty bucket, plus `+Inf`), `_sum`, and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, h: &Histogram) {
        let name = sanitize_metric_name(name);
        self.header(&name, "histogram", help);
        let buckets = h.cumulative_buckets();
        if buckets.is_empty() {
            let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} 0");
        }
        for (bound, cum) in buckets {
            match bound {
                Some(b) => {
                    let _ = writeln!(self.out, "{name}_bucket{{le=\"{b}\"}} {cum}");
                }
                None => {
                    let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                }
            }
        }
        let _ = writeln!(self.out, "{name}_sum {}", h.sum());
        let _ = writeln!(self.out, "{name}_count {}", h.count());
    }

    /// Finish and return the exposition text.
    pub fn render(self) -> String {
        self.out
    }
}

/// Pull the top-level `clockAnchorUs` key out of a `/trace` body
/// produced by [`chrome_trace_tagged`].
pub fn extract_trace_anchor(body: &str) -> Option<u64> {
    find_key_u64(body, "clockAnchorUs")
}

fn find_key_u64(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = s.find(&pat)? + pat.len();
    let digits: String = s[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Shift the (single) `"ts":<n>` of one trace entry by `delta` µs.
/// Entries without a `ts` (metadata) pass through unchanged.
fn shift_ts(entry: &str, delta: u64) -> String {
    match find_key_u64(entry, "ts") {
        Some(ts) => {
            let old = format!("\"ts\":{ts}");
            let new = format!("\"ts\":{}", ts + delta);
            entry.replacen(&old, &new, 1)
        }
        None => entry.to_string(),
    }
}

/// Stitch per-replica `/trace` bodies into **one** Perfetto timeline.
///
/// Each body is the [`chrome_trace_tagged`] form: per-process event
/// clocks starting at zero plus a wall-clock `clockAnchorUs`. The
/// stitcher aligns clocks by shifting every entry's `ts` by
/// `anchor - min(anchor)` (hello-timestamp offset alignment), keeps
/// the per-node pids (`pid` = node index, already distinct), merges
/// all entries, and synthesizes one Chrome **flow** (`ph:"s"` /
/// `ph:"f"`, `id` = round) per round that at least two nodes
/// participated in — so a cross-node round critical path (beacon on A
/// → proposal on B → notarization quorum) reads as a single flow.
pub fn stitch_chrome_traces(bodies: &[String]) -> String {
    // Per round: earliest and latest instant as (ts, pid), plus the
    // set of participating pids.
    type RoundSpan = BTreeMap<u64, ((u64, u64), (u64, u64), std::collections::BTreeSet<u64>)>;
    let anchors: Vec<u64> = bodies
        .iter()
        .map(|b| extract_trace_anchor(b).unwrap_or(0))
        .collect();
    let base = anchors.iter().copied().min().unwrap_or(0);
    let mut entries: Vec<String> = Vec::new();
    let mut round_span: RoundSpan = BTreeMap::new();
    for (body, &anchor) in bodies.iter().zip(&anchors) {
        let delta = anchor - base;
        let Some(start) = body.find("\"traceEvents\":[\n") else {
            continue;
        };
        let inner = &body[start + "\"traceEvents\":[\n".len()..];
        let inner = match inner.rfind("\n]}") {
            Some(end) => &inner[..end],
            None => inner,
        };
        if inner.trim().is_empty() {
            continue;
        }
        for entry in inner.split(",\n") {
            let shifted = shift_ts(entry, delta);
            if shifted.contains("\"ph\":\"i\"") {
                if let (Some(ts), Some(pid), Some(round)) = (
                    find_key_u64(&shifted, "ts"),
                    find_key_u64(&shifted, "pid"),
                    find_key_u64(&shifted, "round"),
                ) {
                    if round > 0 {
                        let cell = round_span.entry(round).or_insert((
                            (ts, pid),
                            (ts, pid),
                            Default::default(),
                        ));
                        if ts < cell.0 .0 {
                            cell.0 = (ts, pid);
                        }
                        if ts >= cell.1 .0 {
                            cell.1 = (ts, pid);
                        }
                        cell.2.insert(pid);
                    }
                }
            }
            entries.push(shifted);
        }
    }
    // One flow per multi-node round.
    for (&round, &((t0, p0), (t1, p1), ref pids)) in &round_span {
        if pids.len() < 2 {
            continue;
        }
        entries.push(format!(
            "{{\"name\":\"round-{round}\",\"cat\":\"round-flow\",\"ph\":\"s\",\"id\":{round},\
             \"ts\":{t0},\"pid\":{p0},\"tid\":0}}"
        ));
        entries.push(format!(
            "{{\"name\":\"round-{round}\",\"cat\":\"round-flow\",\"ph\":\"f\",\"bp\":\"e\",\
             \"id\":{round},\"ts\":{t1},\"pid\":{p1},\"tid\":0}}"
        ));
    }
    let mut out =
        format!("{{\"displayTimeUnit\":\"ms\",\"stitchedBaseUs\":{base},\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                at_us: 100,
                node: 0,
                round: 1,
                kind: SpanKind::RoundStart { rank: 0, leader: 0 },
            },
            SpanEvent {
                at_us: 120,
                node: 0,
                round: 1,
                kind: SpanKind::ProposalSeen { rank: 0 },
            },
            SpanEvent {
                at_us: 150,
                node: 0,
                round: 1,
                kind: SpanKind::Notarized { rank: 0 },
            },
            SpanEvent {
                at_us: 160,
                node: 1,
                round: 1,
                kind: SpanKind::CatchUpRequested,
            },
        ]
    }

    #[test]
    fn instant_count_matches_event_count() {
        let events = sample_events();
        let json = chrome_trace(&events);
        let instants = json.matches("\"ph\":\"i\"").count();
        assert_eq!(instants, events.len());
    }

    #[test]
    fn trace_has_metadata_and_phase_spans() {
        let json = chrome_trace(&sample_events());
        assert!(json.contains("\"name\":\"node-0\""));
        assert!(json.contains("\"name\":\"node-1\""));
        // Proposal and notarization waits are reconstructible for
        // round 1 on node 0.
        assert!(json.contains("\"name\":\"proposal\",\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"notarization\",\"ph\":\"X\""));
        // Balanced object: starts with '{', ends with '}'.
        assert!(json.trim_start().starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn empty_trace_is_still_an_object() {
        let json = chrome_trace(&[]);
        assert!(json.contains("\"traceEvents\""));
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 0);
    }

    #[test]
    fn prom_counters_and_gauges() {
        let mut snap = PromSnapshot::new();
        snap.counter("icc_rounds_total", "Rounds entered.", 42);
        snap.gauge("icc_pending", "Pending requests.", -1);
        snap.counter_series(
            "icc_sent_bytes",
            "Bytes by kind.",
            "kind",
            &[("block", 100), ("beacon_share", 7)],
        );
        let text = snap.render();
        assert!(text.contains("# TYPE icc_rounds_total counter"));
        assert!(text.contains("icc_rounds_total 42"));
        assert!(text.contains("icc_pending -1"));
        assert!(text.contains("icc_sent_bytes{kind=\"block\"} 100"));
        assert!(text.contains("icc_sent_bytes{kind=\"beacon_share\"} 7"));
    }

    #[test]
    fn prom_histogram_cumulative_buckets() {
        let mut h = Histogram::new();
        for v in [100u64, 100, 900, 5_000] {
            h.observe(v);
        }
        let mut snap = PromSnapshot::new();
        snap.histogram("icc_latency_us", "Latency.", &h);
        let text = snap.render();
        assert!(text.contains("# TYPE icc_latency_us histogram"));
        assert!(text.contains("icc_latency_us_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("icc_latency_us_count 4"));
        assert!(text.contains("icc_latency_us_sum 6100"));
    }

    #[test]
    fn prom_sanitizes_names_and_escapes_labels() {
        let mut snap = PromSnapshot::new();
        snap.counter("9bad name-with.dots", "he\nlp \\ text", 1);
        snap.counter_series("ok_name", "h", "kind-label", &[("va\"lu\\e\n", 2)]);
        let text = snap.render();
        assert!(text.contains("# HELP _9bad_name_with_dots he\\nlp \\\\ text\n"));
        assert!(text.contains("_9bad_name_with_dots 1\n"));
        assert!(text.contains("ok_name{kind_label=\"va\\\"lu\\\\e\\n\"} 2\n"));
        // No raw newline sneaks into a sample line.
        for line in text.lines() {
            assert!(!line.is_empty() || text.ends_with('\n'));
        }
    }

    #[test]
    fn sanitize_is_identity_on_valid_names() {
        for name in ["icc_rounds_total", "a:b_c123", "_private"] {
            assert_eq!(sanitize_metric_name(name), name);
        }
        assert_eq!(sanitize_label_name("kind"), "kind");
        assert_eq!(sanitize_label_name("__reserved"), "_reserved");
    }

    #[test]
    fn tagged_trace_carries_anchor() {
        let json = chrome_trace_tagged(&sample_events(), 3, 1_700_000_000_000_000);
        assert!(json.contains("\"clockAnchorUs\":1700000000000000"));
        assert!(json.contains("\"node\":3"));
        assert_eq!(extract_trace_anchor(&json), Some(1_700_000_000_000_000));
        assert_eq!(json.matches("\"ph\":\"i\"").count(), sample_events().len());
    }

    #[test]
    fn stitch_aligns_clocks_and_synthesizes_round_flows() {
        // Node 0's clock anchor is 1000µs earlier than node 1's:
        // node 1 events must shift forward by 1000.
        let a = vec![
            SpanEvent {
                at_us: 100,
                node: 0,
                round: 7,
                kind: SpanKind::RoundStart { rank: 0, leader: 0 },
            },
            SpanEvent {
                at_us: 150,
                node: 0,
                round: 7,
                kind: SpanKind::Proposed,
            },
        ];
        let b = vec![SpanEvent {
            at_us: 40,
            node: 1,
            round: 7,
            kind: SpanKind::Notarized { rank: 0 },
        }];
        let bodies = vec![
            chrome_trace_tagged(&a, 0, 5_000_000),
            chrome_trace_tagged(&b, 1, 5_001_000),
        ];
        let stitched = stitch_chrome_traces(&bodies);
        // Node 0 entries unshifted, node 1 shifted by 1000.
        assert!(stitched.contains("\"ts\":100,"), "{stitched}");
        assert!(stitched.contains("\"ts\":1040,"), "{stitched}");
        assert!(!stitched.contains("\"ts\":40,"), "{stitched}");
        // Round 7 touched two pids: a flow start and finish exist.
        assert!(stitched.contains("\"name\":\"round-7\""));
        assert!(stitched.contains("\"ph\":\"s\",\"id\":7"));
        assert!(stitched.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":7"));
        // Flow starts on pid 0 (earliest) and finishes on pid 1.
        assert!(stitched.contains("\"ph\":\"s\",\"id\":7,\"ts\":100,\"pid\":0"));
        assert!(stitched.contains("\"id\":7,\"ts\":1040,\"pid\":1"));
        // Still one valid object with no trailing comma.
        assert!(!stitched.contains(",\n]"));
        assert!(stitched.trim_end().ends_with('}'));
    }

    #[test]
    fn stitch_single_node_round_has_no_flow() {
        let a = vec![SpanEvent {
            at_us: 10,
            node: 0,
            round: 3,
            kind: SpanKind::Finalized,
        }];
        let stitched = stitch_chrome_traces(&[chrome_trace_tagged(&a, 0, 0)]);
        assert!(!stitched.contains("round-flow"));
        assert!(stitched.contains("\"ph\":\"i\""));
    }

    #[test]
    fn stitch_tolerates_empty_and_anchorless_bodies() {
        let stitched = stitch_chrome_traces(&[chrome_trace(&[]), String::from("garbage")]);
        assert!(stitched.contains("\"traceEvents\""));
    }

    #[test]
    fn prom_empty_histogram_has_inf_bucket() {
        let mut snap = PromSnapshot::new();
        snap.histogram("icc_empty_us", "Empty.", &Histogram::new());
        let text = snap.render();
        assert!(text.contains("icc_empty_us_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("icc_empty_us_count 0"));
    }
}
