//! Per-peer link gauges for the TCP mesh.
//!
//! [`NetCounters`](crate::NetCounters) aggregates over the whole
//! transport; operators debugging a wedged cluster need the *per-link*
//! picture — which peer's queue is backed up, who is mid-backoff, who
//! went quiet. These gauges are written by the writer/reader threads
//! with relaxed atomics (statistics, not synchronization) and read by
//! the admin plane's `/status` endpoint without taking any lock.

use icc_telemetry::PeerLinkStatus;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Gauges for one directed link (us → peer).
#[derive(Debug)]
pub(crate) struct LinkGauge {
    /// Whether the outbound connection is currently established.
    pub connected: AtomicBool,
    /// Frames sitting in the bounded send queue right now.
    pub queue_depth: AtomicU64,
    /// Current reconnect backoff in milliseconds (0 while connected).
    pub backoff_ms: AtomicU64,
    /// Transport-relative timestamp (µs since gauge creation) of the
    /// last valid inbound frame from this peer; `u64::MAX` = never.
    pub last_frame_us: AtomicU64,
    /// Completed reconnections to this peer.
    pub reconnects: AtomicU64,
}

impl LinkGauge {
    fn new() -> Self {
        Self {
            connected: AtomicBool::new(false),
            queue_depth: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(0),
            last_frame_us: AtomicU64::new(u64::MAX),
            reconnects: AtomicU64::new(0),
        }
    }
}

/// All per-peer link gauges for one transport, plus the clock they are
/// stamped against.
#[derive(Debug)]
pub struct LinkGauges {
    me: usize,
    queue_capacity: u64,
    started: Instant,
    links: Vec<LinkGauge>,
}

impl LinkGauges {
    /// Creates gauges for an `n`-replica mesh as seen from replica
    /// `me`. The self-link exists for index alignment but is skipped by
    /// [`Self::snapshot`].
    pub fn new(me: usize, n: usize, queue_capacity: u64) -> Self {
        Self {
            me,
            queue_capacity,
            started: Instant::now(),
            links: (0..n).map(|_| LinkGauge::new()).collect(),
        }
    }

    /// Microseconds elapsed since gauge creation — the clock
    /// `last_frame_us` stamps are measured against.
    pub fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    pub(crate) fn link(&self, peer: usize) -> &LinkGauge {
        &self.links[peer]
    }

    /// Stamps receipt of a valid frame from `peer`. Out-of-range peers
    /// (a malformed hello already drops the connection, but belt and
    /// braces) are ignored.
    pub(crate) fn frame_seen(&self, peer: usize) {
        if let Some(link) = self.links.get(peer) {
            link.last_frame_us.store(self.now_us(), Ordering::Relaxed);
        }
    }

    /// Copies every peer link (self excluded) in the shape `/status`
    /// and `/metrics` serve, computing frame age against the gauge
    /// clock.
    pub fn snapshot(&self) -> Vec<PeerLinkStatus> {
        let now = self.now_us();
        self.links
            .iter()
            .enumerate()
            .filter(|(peer, _)| *peer != self.me)
            .map(|(peer, link)| {
                let last = link.last_frame_us.load(Ordering::Relaxed);
                PeerLinkStatus {
                    peer: peer as u32,
                    connected: link.connected.load(Ordering::Relaxed),
                    queue_depth: link.queue_depth.load(Ordering::Relaxed),
                    queue_capacity: self.queue_capacity,
                    backoff_ms: link.backoff_ms.load(Ordering::Relaxed),
                    last_frame_age_us: if last == u64::MAX {
                        u64::MAX
                    } else {
                        now.saturating_sub(last)
                    },
                    reconnects: link.reconnects.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_excludes_self_and_computes_age() {
        let g = LinkGauges::new(1, 3, 1024);
        g.link(0).connected.store(true, Ordering::Relaxed);
        g.link(0).queue_depth.store(7, Ordering::Relaxed);
        g.link(2).backoff_ms.store(400, Ordering::Relaxed);
        g.frame_seen(0);
        let snap = g.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].peer, 0);
        assert_eq!(snap[1].peer, 2);
        assert!(snap[0].connected);
        assert_eq!(snap[0].queue_depth, 7);
        assert_eq!(snap[0].queue_capacity, 1024);
        assert!(snap[0].last_frame_age_us < 1_000_000, "fresh frame");
        assert_eq!(snap[1].backoff_ms, 400);
        assert_eq!(snap[1].last_frame_age_us, u64::MAX, "never heard from 2");
    }

    #[test]
    fn frame_seen_ignores_out_of_range_peer() {
        let g = LinkGauges::new(0, 2, 16);
        g.frame_seen(9);
        assert_eq!(g.snapshot().len(), 1);
    }
}
