//! The shared real-time driver: one event loop, pluggable transports.
//!
//! The discrete-event engine ([`crate::engine`]) owns virtual time and
//! drives [`Node`]s directly. What runs on the *wall clock* — the TCP
//! mesh in `icc-net`, and any other backend — goes through the single
//! loop in [`drive`]: deliver events from a [`Transport`], fire due
//! timers from a local heap, and drain the node's queued [`Context`]
//! actions back into the transport. The node cannot tell the backends
//! apart; that is the point.
//!
//! A [`Transport`] is deliberately tiny: an inbox (`recv`) and an outbox
//! (`send`/`broadcast`) of typed messages among `n` statically-indexed
//! peers, plus an optional peer-liveness snapshot. Delivery is
//! best-effort and unordered across peers (in-order per peer in
//! practice over TCP); the protocols are designed for exactly
//! that network model.

use crate::engine::OutputRecord;
use crate::node::{Action, Context, Node};
use icc_types::{NodeIndex, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// An event a transport delivers into the driver loop.
#[derive(Debug)]
pub enum TransportEvent<M, X> {
    /// A protocol message from a peer (or from this node itself — the
    /// broadcast primitive includes self-delivery).
    Msg {
        /// Originating node.
        from: NodeIndex,
        /// The message.
        msg: M,
    },
    /// An external input injected by the harness (client commands).
    External(X),
    /// Orderly shutdown: the driver returns after processing this.
    Stop,
}

/// Why [`Transport::recv`] returned without an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No event arrived within the timeout; the driver uses this to
    /// fire due timers and poll again.
    Timeout,
    /// The event source is gone (every sender dropped, socket layer shut
    /// down). The driver treats this like [`TransportEvent::Stop`].
    Closed,
}

/// A wall-clock message substrate connecting `n` statically-indexed
/// nodes.
///
/// Implemented by `icc_net::TcpTransport` (real kernel sockets) and by
/// scripted test transports; all drive the identical [`drive`] loop.
pub trait Transport {
    /// Message type carried between peers.
    type Msg: Clone;
    /// External-input type injected by the harness.
    type External;

    /// This endpoint's node index.
    fn me(&self) -> NodeIndex;

    /// Total number of nodes in the cluster.
    fn n(&self) -> usize;

    /// Queues `msg` for delivery to `to` (best-effort: a down or
    /// backpressured peer may never receive it).
    fn send(&mut self, to: NodeIndex, msg: Self::Msg);

    /// Delivers `msg` to **all** nodes including this one (the paper's
    /// broadcast primitive: a party's pool holds messages received from
    /// all parties *including itself*). The default loops over
    /// [`send`](Transport::send); transports with a cheaper fan-out
    /// (encode-once, shared buffers) override it.
    fn broadcast(&mut self, msg: Self::Msg) {
        for i in 0..self.n() {
            self.send(NodeIndex::new(i as u32), msg.clone());
        }
    }

    /// Blocks up to `timeout` for the next inbound event.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] when nothing arrived (normal; the driver
    /// polls timers and retries), [`RecvError::Closed`] when no further
    /// event can ever arrive.
    fn recv(
        &mut self,
        timeout: Duration,
    ) -> Result<TransportEvent<Self::Msg, Self::External>, RecvError>;

    /// Fills `alive[i]` with whether peer `i` looks reachable, returning
    /// `true` if this transport tracks liveness at all. The default
    /// tracks nothing, which makes [`Context::peer_up`] report every
    /// peer as up.
    fn snapshot_alive(&self, alive: &mut [bool]) -> bool {
        let _ = alive;
        false
    }
}

/// Runs `node` on `transport` until a [`TransportEvent::Stop`] arrives
/// (or the transport closes), then returns the node for post-mortem
/// inspection. `start` anchors the node-visible clock: handlers see
/// `SimTime` = microseconds elapsed since `start`, so all nodes driven
/// from the same `Instant` share a clock base. Outputs are passed to
/// `emit` as they happen, stamped with that clock.
///
/// This is the whole wall-clock event loop — `icc-net` replicas funnel
/// through here, and the discrete-event
/// engine mirrors the same action semantics in virtual time.
pub fn drive<N, T>(
    mut node: N,
    mut transport: T,
    start: Instant,
    mut emit: impl FnMut(OutputRecord<N::Output>),
) -> N
where
    N: Node,
    T: Transport<Msg = N::Msg, External = N::External>,
{
    let me = transport.me();
    let n = transport.n();
    let mut timers: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();
    let mut actions: Vec<Action<N::Msg, N::Output>> = Vec::new();
    let mut alive_buf = vec![true; n];
    let now_sim = |start: Instant| SimTime::from_micros(start.elapsed().as_micros() as u64);

    // One handler dispatch: build a fresh Context (with a liveness view
    // if the transport has one) and run `f` in it.
    macro_rules! dispatch {
        ($f:expr) => {{
            let tracked = transport.snapshot_alive(&mut alive_buf);
            let mut ctx = Context {
                me,
                n,
                now: now_sim(start),
                alive: if tracked { Some(&alive_buf[..]) } else { None },
                actions: &mut actions,
            };
            #[allow(clippy::redundant_closure_call)]
            $f(&mut node, &mut ctx);
        }};
    }

    dispatch!(|node: &mut N, ctx: &mut Context<'_, N::Msg, N::Output>| node.on_start(ctx));
    loop {
        // Drain actions queued by the previous handler.
        for action in actions.drain(..) {
            match action {
                Action::Broadcast(msg) => transport.broadcast(msg),
                Action::Send(to, msg) => transport.send(to, msg),
                Action::SetTimer { after, tag } => {
                    timers.push(Reverse((
                        Instant::now() + Duration::from_micros(after.as_micros()),
                        tag,
                    )));
                }
                Action::Output(output) => emit(OutputRecord {
                    at: now_sim(start),
                    node: me,
                    output,
                }),
            }
        }
        // Fire due timers before blocking again.
        let now = Instant::now();
        if let Some(Reverse((deadline, tag))) = timers.peek().copied() {
            if deadline <= now {
                timers.pop();
                dispatch!(|node: &mut N, ctx: &mut Context<'_, N::Msg, N::Output>| {
                    node.on_timer(ctx, tag)
                });
                continue;
            }
        }
        // Wait for the next event or the next timer deadline.
        let timeout = timers
            .peek()
            .map(|Reverse((d, _))| d.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(50));
        match transport.recv(timeout) {
            Ok(TransportEvent::Msg { from, msg }) => {
                dispatch!(|node: &mut N, ctx: &mut Context<'_, N::Msg, N::Output>| {
                    node.on_message(ctx, from, msg)
                });
            }
            Ok(TransportEvent::External(input)) => {
                dispatch!(|node: &mut N, ctx: &mut Context<'_, N::Msg, N::Output>| {
                    node.on_external(ctx, input)
                });
            }
            Ok(TransportEvent::Stop) | Err(RecvError::Closed) => break,
            Err(RecvError::Timeout) => {} // loop fires timers
        }
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use icc_types::SimDuration;
    use std::collections::VecDeque;

    /// A scripted single-node transport: pre-loaded events in, sent
    /// messages recorded out. Once the script is exhausted it honours
    /// `timeouts_left` waits (sleeping the requested timeout, so pending
    /// driver timers come due) and then reports `Closed`.
    struct Script {
        events: VecDeque<TransportEvent<u32, u32>>,
        sent: Vec<(NodeIndex, u32)>,
        alive: Option<Vec<bool>>,
        timeouts_left: usize,
    }

    impl Transport for Script {
        type Msg = u32;
        type External = u32;
        fn me(&self) -> NodeIndex {
            NodeIndex::new(0)
        }
        fn n(&self) -> usize {
            3
        }
        fn send(&mut self, to: NodeIndex, msg: u32) {
            self.sent.push((to, msg));
        }
        fn recv(&mut self, timeout: Duration) -> Result<TransportEvent<u32, u32>, RecvError> {
            if let Some(e) = self.events.pop_front() {
                return Ok(e);
            }
            if self.timeouts_left > 0 {
                self.timeouts_left -= 1;
                std::thread::sleep(timeout.min(Duration::from_millis(20)));
                return Err(RecvError::Timeout);
            }
            Err(RecvError::Closed)
        }
        fn snapshot_alive(&self, alive: &mut [bool]) -> bool {
            match &self.alive {
                Some(v) => {
                    alive.copy_from_slice(v);
                    true
                }
                None => false,
            }
        }
    }

    /// Echoes messages as outputs; broadcasts externals; sets a timer at
    /// start and outputs 1000+tag when it fires; records peer 2's
    /// liveness view into outputs as 2000/2001.
    struct Echo;
    impl Node for Echo {
        type Msg = u32;
        type External = u32;
        type Output = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32, u32>) {
            ctx.set_timer(SimDuration::from_millis(1), 7);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32, u32>, _from: NodeIndex, msg: u32) {
            ctx.output(msg);
            ctx.output(if ctx.peer_up(NodeIndex::new(2)) {
                2001
            } else {
                2000
            });
        }
        fn on_external(&mut self, ctx: &mut Context<'_, u32, u32>, input: u32) {
            ctx.broadcast(input);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32, u32>, tag: u64) {
            ctx.output(1000 + tag as u32);
        }
    }

    #[test]
    fn drive_dispatches_all_event_kinds() {
        let mut events = VecDeque::new();
        events.push_back(TransportEvent::Msg {
            from: NodeIndex::new(1),
            msg: 5,
        });
        events.push_back(TransportEvent::External(9));
        let t = Script {
            events,
            sent: Vec::new(),
            alive: None,
            // Enough timeout waits for the 1 ms timer to come due; the
            // exhausted script then closes, ending the drive.
            timeouts_left: 3,
        };
        let mut outputs = Vec::new();
        drive(Echo, t, Instant::now(), |o| outputs.push(o.output));
        // Msg 5 echoed; liveness untracked so peer reads as up; timer fires.
        assert!(outputs.contains(&5));
        assert!(outputs.contains(&2001));
        assert!(outputs.contains(&1007));
    }

    #[test]
    fn drive_default_broadcast_includes_self() {
        let mut events = VecDeque::new();
        events.push_back(TransportEvent::External(42));
        events.push_back(TransportEvent::Stop);
        let t = Script {
            events,
            sent: Vec::new(),
            alive: None,
            timeouts_left: 0,
        };
        // Capture the transport's send log by threading it back out via
        // a scripted drop: run drive and inspect via the returned node is
        // not possible for the transport, so use a wrapper.
        struct Probe(
            Script,
            std::sync::Arc<std::sync::Mutex<Vec<(NodeIndex, u32)>>>,
        );
        impl Transport for Probe {
            type Msg = u32;
            type External = u32;
            fn me(&self) -> NodeIndex {
                self.0.me()
            }
            fn n(&self) -> usize {
                self.0.n()
            }
            fn send(&mut self, to: NodeIndex, msg: u32) {
                self.1.lock().unwrap().push((to, msg));
            }
            fn recv(&mut self, t: Duration) -> Result<TransportEvent<u32, u32>, RecvError> {
                self.0.recv(t)
            }
        }
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        drive(Echo, Probe(t, log.clone()), Instant::now(), |_| {});
        let sent = log.lock().unwrap();
        // Default broadcast fans out to all n = 3 nodes, self included.
        let targets: Vec<u32> = sent.iter().map(|(to, _)| to.get()).collect();
        assert_eq!(targets, vec![0, 1, 2]);
        assert!(sent.iter().all(|&(_, m)| m == 42));
    }

    #[test]
    fn drive_passes_liveness_view_through() {
        let mut events = VecDeque::new();
        events.push_back(TransportEvent::Msg {
            from: NodeIndex::new(1),
            msg: 1,
        });
        events.push_back(TransportEvent::Stop);
        let t = Script {
            events,
            sent: Vec::new(),
            alive: Some(vec![true, true, false]), // peer 2 down
            timeouts_left: 0,
        };
        let mut outputs = Vec::new();
        drive(Echo, t, Instant::now(), |o| outputs.push(o.output));
        assert!(outputs.contains(&2000), "peer 2 should read as down");
    }
}
