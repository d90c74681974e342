//! The benchmark's own span recorder (`--trace 1`).
//!
//! Each replica (a thread on TCP, a node on the simulator) owns one
//! [`Tracer`]. Wrappers placed round the calls into a layer `enter` and
//! `exit` spans on it; nesting gives each span its parent, and a span's
//! **self time** is its duration minus the part its children cover.
//! Statistics (count, total, self, duration histogram) are kept for
//! every span; the full records of the first `SPAN_CAP` spans of a run
//! stay in memory and are written as Chrome trace JSON when the run
//! ends — a 20-second run produces millions of spans, more than a
//! loadable trace file can hold.

use crate::stats::LogHist;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Full span records kept per run, shared equally among its tracers
/// (about 15 MB of Chrome trace JSON).
const SPAN_CAP: usize = 100_000;

/// One recorded span.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in this tracer's record list) of the enclosing span, or
    /// `u32::MAX` at top level or when the parent was not retained.
    pub parent: u32,
    /// The consensus round the replica was in — the shared identifier
    /// that ties one round's spans together across replicas.
    pub round: u64,
}

/// Streaming statistics of one span name.
#[derive(Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub hist: LogHist,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    record: u32,
}

struct Inner {
    tid: u32,
    /// Full span records this tracer may keep.
    cap: usize,
    round: u64,
    open: Vec<Open>,
    spans: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
    counts: BTreeMap<&'static str, u64>,
}

/// A cheap-to-clone handle on one replica's trace buffer.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Mutex<Inner>>,
    epoch: Instant,
    /// Shared by all tracers of a run: spans are recorded only while
    /// the measured window is open, so warm-up and drain stay out.
    window_open: Arc<AtomicBool>,
}

/// Everything one tracer collected, taken when the run ends.
pub struct TraceData {
    pub tid: u32,
    pub spans: Vec<Span>,
    pub aggs: BTreeMap<&'static str, Agg>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// The tracer of replica `tid`, one of `tracers` in this run.
    pub fn new(tid: u32, tracers: usize, epoch: Instant, window_open: Arc<AtomicBool>) -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(Inner {
                tid,
                cap: SPAN_CAP / tracers.max(1),
                round: 0,
                open: Vec::new(),
                spans: Vec::new(),
                aggs: BTreeMap::new(),
                counts: BTreeMap::new(),
            })),
            epoch,
            window_open,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // The mutex only exists to make the handle `Send`; each tracer
        // is used by one thread at a time, so poisoning means that
        // thread panicked and the run is lost anyway.
        self.inner.lock().expect("tracer owner thread panicked")
    }

    pub fn is_open(&self) -> bool {
        self.window_open.load(Ordering::Relaxed)
    }

    /// Sets the round subsequent spans are tagged with.
    pub fn set_round(&self, round: u64) {
        self.lock().round = round;
    }

    /// Opens a span; every `enter` is paired with one [`exit`](Self::exit).
    pub fn enter(&self, name: &'static str) {
        let recording = self.is_open();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut g = self.lock();
        let mut record = u32::MAX;
        if recording && g.spans.len() < g.cap {
            record = g.spans.len() as u32;
            let parent = g.open.last().map_or(u32::MAX, |o| o.record);
            let round = g.round;
            g.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                round,
            });
        }
        g.open.push(Open {
            // An empty name marks a span opened outside the window: it
            // keeps the stack balanced and is dropped on exit.
            name: if recording { name } else { "" },
            start_ns,
            child_ns: 0,
            record,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&self) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut g = self.lock();
        let open = g.open.pop().expect("exit without enter");
        if open.name.is_empty() {
            return;
        }
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = g.open.last_mut() {
            parent.child_ns += dur;
        }
        if open.record != u32::MAX {
            g.spans[open.record as usize].end_ns = end_ns;
        }
        let agg = g.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.hist.record(dur);
    }

    /// Records a measured duration that is not a nested span (a wait,
    /// a lateness): statistics only.
    pub fn observe(&self, name: &'static str, ns: u64) {
        if !self.is_open() {
            return;
        }
        let mut g = self.lock();
        let agg = g.aggs.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += ns;
        agg.self_ns += ns;
        agg.hist.record(ns);
    }

    /// Adds to a named counter, counted at the boundary where the work
    /// happens.
    pub fn count(&self, name: &'static str, by: u64) {
        if !self.is_open() {
            return;
        }
        *self.lock().counts.entry(name).or_default() += by;
    }

    pub fn take(&self) -> TraceData {
        let mut g = self.lock();
        TraceData {
            tid: g.tid,
            spans: std::mem::take(&mut g.spans),
            aggs: std::mem::take(&mut g.aggs),
            counts: std::mem::take(&mut g.counts),
        }
    }
}

/// All tracers of a run, merged.
#[derive(Default)]
pub struct Merged {
    pub aggs: BTreeMap<&'static str, Agg>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Merged {
    pub fn from<'a>(data: impl Iterator<Item = &'a TraceData>) -> Merged {
        let mut m = Merged::default();
        for d in data {
            for (name, a) in &d.aggs {
                let e = m.aggs.entry(name).or_default();
                e.count += a.count;
                e.total_ns += a.total_ns;
                e.self_ns += a.self_ns;
                e.hist.merge(&a.hist);
            }
            for (name, c) in &d.counts {
                *m.counts.entry(name).or_default() += c;
            }
        }
        m
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).cloned().unwrap_or_default()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Writes the retained spans as Chrome trace JSON (`chrome://tracing`,
/// Perfetto): one complete event (`"ph":"X"`) per span, `tid` = replica,
/// `args` carrying the round and the parent span's index.
pub fn write_chrome_trace(path: &std::path::Path, data: &[TraceData]) -> std::io::Result<usize> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut written = 0usize;
    for d in data {
        for (i, s) in d.spans.iter().enumerate() {
            if written > 0 {
                out.write_all(b",")?;
            }
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"round\":{}}}}}",
                s.name,
                d.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.round
            )?;
            written += 1;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()?;
    Ok(written)
}
