//! The TCP mesh transport.
//!
//! Topology: every node runs one [`TcpListener`] (address from the
//! [`ClusterSpec`]) and **dials every other peer**. Connections are
//! directional — a dialed connection carries frames *outbound only*,
//! an accepted connection is *inbound only*. Directionality removes
//! the need for connection tie-breaking between concurrently-dialing
//! peers, and puts reconnection squarely on the dialer: if the link to
//! peer `p` drops, this node's writer thread for `p` redials with
//! capped exponential backoff until `p`'s listener answers.
//!
//! Threads per transport (for an `n`-node cluster):
//!
//! * `n − 1` **writer threads**, one per peer. Each owns a bounded
//!   queue of pre-framed [`Bytes`] and the dial/redial loop for its
//!   peer. The driver enqueues with a non-blocking `try_send`: when a
//!   peer stalls (dead, partitioned, or reading slowly) its queue
//!   fills and further messages to it are **dropped, newest first,
//!   with a counter** — consensus never blocks on a slow peer, which
//!   is exactly the best-effort contract [`Transport`] specifies and
//!   the protocol tolerates (artifacts are re-requested via gossip).
//! * 1 **acceptor thread** plus one short-lived **reader thread** per
//!   inbound connection: split frames with [`FrameBuffer`], decode the
//!   payload, push [`TransportEvent::Msg`] into the shared inbox. Any
//!   framing or decode error drops that connection (the peer's dialer
//!   re-establishes it at a clean frame boundary).
//!
//! The first frame on every dialed connection is a *hello* (protocol
//! version + dialer's node index), which is how the accepting side
//! attributes subsequent frames to a `NodeIndex` without trusting
//! source addresses.

// Nothing a peer sends may panic the node.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

use crate::config::ClusterSpec;
use crate::counters::{NetCounters, NetCountersSnapshot};
use crate::links::LinkGauges;
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use icc_sim::{RecvError, Transport, TransportEvent};
use icc_types::codec::{decode_from_slice, Decode, Encode};
use icc_types::frame::{encode_frame, frame, FrameBuffer, DEFAULT_MAX_FRAME_LEN, HEADER_LEN};
use icc_types::NodeIndex;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wire protocol version carried in the hello frame; bumped on any
/// frame-, codec- or id-layer change (2: payload-root block ids; 3:
/// client commands forwarded to the next leader; 4: command leaves are
/// BLAKE2b-256; 5: a catch-up request carries what the requester holds).
pub const PROTO_VERSION: u32 = 5;

/// Tuning for a [`TcpTransport`].
#[derive(Debug, Clone, Copy)]
pub struct NetOptions {
    /// Per-peer writer queue depth; beyond it sends to that peer drop.
    /// Default 1024.
    pub queue_capacity: usize,
    /// Reject inbound frames declaring a payload larger than this.
    /// Default [`DEFAULT_MAX_FRAME_LEN`].
    pub max_frame_len: u32,
    /// First redial delay after a connection attempt fails. Default
    /// 50 ms.
    pub reconnect_base: Duration,
    /// Redial delay ceiling (the capped exponential backoff). Default
    /// 2 s.
    pub reconnect_cap: Duration,
    /// Poll granularity for blocking I/O waits (read timeouts, queue
    /// waits, backoff sleep slices) — bounds how long shutdown takes.
    /// Default 200 ms.
    pub io_poll: Duration,
    /// Per-attempt dial timeout. Default 500 ms.
    pub connect_timeout: Duration,
    /// Kernel write timeout per frame. A peer that cannot absorb a
    /// frame within this window counts as stalled: the connection is
    /// dropped (losing that frame — the drop-newest policy extended to
    /// the kernel buffer) and the dial loop re-establishes it. Also
    /// bounds how long shutdown can be stuck behind a blocked write.
    /// Default 2 s.
    pub write_timeout: Duration,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            queue_capacity: 1024,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            reconnect_base: Duration::from_millis(50),
            reconnect_cap: Duration::from_secs(2),
            io_poll: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// State shared across a transport's threads.
struct Shared {
    shutdown: AtomicBool,
    counters: Arc<NetCounters>,
    /// `alive[p]`: whether the outbound connection to peer `p` is
    /// currently established (own index always true).
    alive: Vec<AtomicBool>,
    /// Per-peer link gauges (queue depth, backoff, last-frame-seen),
    /// feeding the admin plane's `/status` endpoint.
    links: Arc<LinkGauges>,
    opts: NetOptions,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn set_alive(&self, peer: usize, up: bool) {
        if let Some(a) = self.alive.get(peer) {
            a.store(up, Ordering::Relaxed);
        }
    }
}

/// A handle for feeding a running [`TcpTransport`] from other threads:
/// external inputs (client commands) and the stop signal.
pub struct NetHandle<M, X> {
    inbox: Sender<TransportEvent<M, X>>,
}

impl<M, X> Clone for NetHandle<M, X> {
    fn clone(&self) -> Self {
        NetHandle {
            inbox: self.inbox.clone(),
        }
    }
}

impl<M, X> NetHandle<M, X> {
    /// Injects an external input. Returns `false` once the transport
    /// has stopped.
    pub fn inject(&self, input: X) -> bool {
        self.inbox.send(TransportEvent::External(input)).is_ok()
    }

    /// Asks the driver loop to stop after draining events queued so
    /// far.
    pub fn stop(&self) -> bool {
        self.inbox.send(TransportEvent::Stop).is_ok()
    }
}

/// The real-socket [`Transport`]: frames from [`icc_types::frame`] over
/// kernel TCP streams. See the module docs for the thread model.
pub struct TcpTransport<M, X> {
    me: NodeIndex,
    n: usize,
    inbox: Receiver<TransportEvent<M, X>>,
    inbox_tx: Sender<TransportEvent<M, X>>,
    /// Writer queues, indexed by peer; `None` at `me` (loopback goes
    /// straight to the inbox). Taken (set to `None`) on shutdown so the
    /// writer threads see their queues disconnect.
    writers: Vec<Option<Sender<(Bytes, usize)>>>,
    shared: Arc<Shared>,
    /// Writer + acceptor handles, joined on drop.
    threads: Vec<JoinHandle<()>>,
    /// Reader handles accumulate as connections arrive; joined on drop.
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// The actual listen address (differs from the spec for `:0` binds
    /// in tests); dialed once at shutdown to wake the acceptor.
    local_addr: SocketAddr,
}

impl<M, X> TcpTransport<M, X>
where
    M: Encode + Decode + Send + 'static,
    X: Send + 'static,
{
    /// Binds the listener at `spec.addr(me)` and starts the mesh: dial
    /// loops toward every peer, acceptor for inbound connections.
    /// Returns as soon as the local listener is up — peers connect (and
    /// reconnect) in the background.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure (address in use, privilege).
    pub fn bind(spec: &ClusterSpec, me: NodeIndex, opts: NetOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(spec.addr(me))?;
        Ok(Self::with_listener(listener, spec, me, opts))
    }

    /// Starts the mesh on an already-bound listener. This is the `:0`
    /// entry point for in-process tests: bind ephemeral listeners
    /// first, build the [`ClusterSpec`] from their actual addresses,
    /// then hand each listener over.
    pub fn with_listener(
        listener: TcpListener,
        spec: &ClusterSpec,
        me: NodeIndex,
        opts: NetOptions,
    ) -> Self {
        let n = spec.n();
        // The listener was bound to the spec's address.
        let local_addr = listener.local_addr().unwrap_or_else(|_| spec.addr(me));
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            counters: Arc::new(NetCounters::default()),
            alive: (0..n).map(|_| AtomicBool::new(false)).collect(),
            links: Arc::new(LinkGauges::new(
                me.as_usize(),
                n,
                opts.queue_capacity as u64,
            )),
            opts,
        });
        shared.set_alive(me.as_usize(), true);
        let (inbox_tx, inbox) = unbounded();
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();

        // Outbound: one writer (dial + drain) thread per remote peer.
        let mut writers: Vec<Option<Sender<(Bytes, usize)>>> = Vec::with_capacity(n);
        for p in 0..n {
            if p == me.as_usize() {
                writers.push(None);
                continue;
            }
            let (q_tx, q_rx) = bounded::<(Bytes, usize)>(opts.queue_capacity);
            writers.push(Some(q_tx));
            let addr = spec.addr(NodeIndex::new(p as u32));
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                writer_loop(addr, p, me, q_rx, &shared);
            }));
        }

        // Inbound: acceptor + per-connection readers.
        {
            let shared = Arc::clone(&shared);
            let inbox_tx = inbox_tx.clone();
            let readers = Arc::clone(&readers);
            threads.push(std::thread::spawn(move || {
                acceptor_loop::<M, X>(listener, n, inbox_tx, shared, readers);
            }));
        }

        TcpTransport {
            me,
            n,
            inbox,
            inbox_tx,
            writers,
            shared,
            threads,
            readers,
            local_addr,
        }
    }

    /// A handle for injecting externals / stop from other threads.
    pub fn handle(&self) -> NetHandle<M, X> {
        NetHandle {
            inbox: self.inbox_tx.clone(),
        }
    }

    /// Point-in-time I/O statistics.
    pub fn counters(&self) -> NetCountersSnapshot {
        self.shared.counters.snapshot()
    }

    /// A keepable handle on the live counters, for reading final
    /// statistics after the transport has been consumed by
    /// [`drive`](icc_sim::runtime::drive) (which drops it on return).
    pub fn counters_handle(&self) -> Arc<NetCounters> {
        Arc::clone(&self.shared.counters)
    }

    /// A keepable handle on the live per-peer link gauges, for the
    /// admin plane to snapshot after the transport itself has been
    /// consumed by the driver.
    pub fn links_handle(&self) -> Arc<LinkGauges> {
        Arc::clone(&self.shared.links)
    }

    /// The address this transport's listener is bound to (useful with
    /// a port-0 bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether the outbound connection to `peer` is currently up.
    pub fn peer_connected(&self, peer: NodeIndex) -> bool {
        let alive = self.shared.alive.get(peer.as_usize());
        alive.is_some_and(|a| a.load(Ordering::Relaxed))
    }

    /// Enqueues an already-framed message for `peer`, applying the
    /// drop-newest backpressure policy.
    fn enqueue(&self, peer: usize, framed: Bytes, payload_len: usize) {
        let Some(q) = self.writers.get(peer).and_then(Option::as_ref) else {
            return;
        };
        match q.try_send((framed, payload_len)) {
            Ok(()) => {
                // Vendored crossbeam channels expose no len(): the depth
                // gauge is kept by hand — inc here, dec on dequeue.
                self.shared
                    .links
                    .link(peer)
                    .queue_depth
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) => {
                NetCounters::bump(&self.shared.counters.send_queue_drops, 1);
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }
}

impl<M, X> Transport for TcpTransport<M, X>
where
    M: Encode + Decode + Clone + Send + 'static,
    X: Send + 'static,
{
    type Msg = M;
    type External = X;

    fn me(&self) -> NodeIndex {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn send(&mut self, to: NodeIndex, msg: M) {
        if to == self.me {
            // Loopback skips the sockets (and the counters) entirely.
            let _ = self
                .inbox_tx
                .send(TransportEvent::Msg { from: self.me, msg });
            return;
        }
        let mut framed = Vec::with_capacity(HEADER_LEN + msg.encoded_len());
        let payload_len = frame(&mut framed, |buf| msg.encode(buf));
        self.enqueue(to.as_usize(), Bytes::from(framed), payload_len);
    }

    /// Encode-once fan-out: the message is encoded into its frame a
    /// single time and every peer queue shares that buffer (cloning
    /// [`Bytes`] is a refcount bump); self-delivery bypasses the sockets.
    fn broadcast(&mut self, msg: M) {
        let mut framed = Vec::with_capacity(HEADER_LEN + msg.encoded_len());
        let payload_len = frame(&mut framed, |buf| msg.encode(buf));
        let framed = Bytes::from(framed);
        for p in 0..self.n {
            if p != self.me.as_usize() {
                self.enqueue(p, framed.clone(), payload_len);
            }
        }
        let _ = self
            .inbox_tx
            .send(TransportEvent::Msg { from: self.me, msg });
    }

    fn recv(&mut self, timeout: Duration) -> Result<TransportEvent<M, X>, RecvError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(ev) => Ok(ev),
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
        }
    }

    /// Reports outbound-connection liveness — the failure-detection
    /// signal a TCP deployment gets for free (a dead peer's dial loop
    /// is in backoff, so `alive[p]` is false).
    fn snapshot_alive(&self, alive: &mut [bool]) -> bool {
        for (slot, a) in alive.iter_mut().zip(&self.shared.alive) {
            *slot = a.load(Ordering::Relaxed);
        }
        true
    }
}

impl<M, X> Drop for TcpTransport<M, X> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Disconnect every writer queue (their recv loops exit) …
        for w in self.writers.iter_mut() {
            *w = None;
        }
        // … and wake the acceptor out of its blocking accept with a
        // throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        // A panicked reader leaves the registry a valid list of handles.
        let readers = self.readers.lock();
        let handles = std::mem::take(&mut *readers.unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The hello frame a dialer sends first: protocol version + its index.
fn hello_frame(me: NodeIndex) -> Vec<u8> {
    encode_frame(&[PROTO_VERSION.to_le_bytes(), me.get().to_le_bytes()].concat())
}

/// The protocol version and dialer's index of a hello frame's payload;
/// `None` unless it is exactly those eight bytes.
fn parse_hello(payload: &[u8]) -> Option<(u32, u32)> {
    let (version, index) = payload.split_first_chunk::<4>()?;
    let index: [u8; 4] = index.try_into().ok()?;
    Some((u32::from_le_bytes(*version), u32::from_le_bytes(index)))
}

/// Dial-and-drain loop for one peer: connect (with capped exponential
/// backoff), say hello, then forward queued frames until the connection
/// or the queue dies; repeat until shutdown.
fn writer_loop(
    addr: SocketAddr,
    peer: usize,
    me: NodeIndex,
    queue: Receiver<(Bytes, usize)>,
    shared: &Shared,
) {
    let opts = shared.opts;
    let link = shared.links.link(peer);
    let mut backoff = opts.reconnect_base;
    let mut was_connected = false;
    'outer: while !shared.shutting_down() {
        let stream = match TcpStream::connect_timeout(&addr, opts.connect_timeout) {
            Ok(s) => s,
            Err(_) => {
                link.backoff_ms
                    .store(backoff.as_millis() as u64, Ordering::Relaxed);
                // Sleep the backoff in io_poll slices so shutdown is
                // never stuck behind a long wait.
                let until = Instant::now() + backoff;
                while Instant::now() < until {
                    if shared.shutting_down() {
                        break 'outer;
                    }
                    std::thread::sleep(opts.io_poll.min(Duration::from_millis(20)));
                }
                backoff = (backoff * 2).min(opts.reconnect_cap);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(opts.write_timeout));
        let mut stream = stream;
        if stream.write_all(&hello_frame(me)).is_err() {
            backoff = (backoff * 2).min(opts.reconnect_cap);
            continue;
        }
        if was_connected {
            NetCounters::bump(&shared.counters.reconnects, 1);
            link.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        was_connected = true;
        backoff = opts.reconnect_base;
        link.backoff_ms.store(0, Ordering::Relaxed);
        shared.set_alive(peer, true);
        link.connected.store(true, Ordering::Relaxed);
        // Connected: drain the queue into the socket.
        loop {
            match queue.recv_timeout(opts.io_poll) {
                Ok((framed, payload_len)) => {
                    link.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    if stream.write_all(&framed).is_err() {
                        break; // connection lost; redial
                    }
                    NetCounters::bump(&shared.counters.frames_sent, 1);
                    NetCounters::bump(&shared.counters.bytes_sent, payload_len as u64);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if shared.shutting_down() {
                        shared.set_alive(peer, false);
                        link.connected.store(false, Ordering::Relaxed);
                        break 'outer;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    shared.set_alive(peer, false);
                    link.connected.store(false, Ordering::Relaxed);
                    break 'outer; // transport dropped
                }
            }
        }
        shared.set_alive(peer, false);
        link.connected.store(false, Ordering::Relaxed);
    }
}

/// Accept loop: hand each inbound connection to its own reader thread.
fn acceptor_loop<M, X>(
    listener: TcpListener,
    n: usize,
    inbox: Sender<TransportEvent<M, X>>,
    shared: Arc<Shared>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) where
    M: Decode + Send + 'static,
    X: Send + 'static,
{
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutting_down() {
                    break;
                }
                let inbox = inbox.clone();
                let shared = Arc::clone(&shared);
                let h = std::thread::spawn(move || reader_loop(stream, n, inbox, &shared));
                readers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(h);
            }
            Err(_) => {
                if shared.shutting_down() {
                    break;
                }
            }
        }
    }
}

/// Per-connection reader: hello first, then frames → decoded messages →
/// inbox. Any framing or decode error terminates the connection (the
/// peer redials and resynchronises).
fn reader_loop<M, X>(
    stream: TcpStream,
    n: usize,
    inbox: Sender<TransportEvent<M, X>>,
    shared: &Shared,
) where
    M: Decode,
{
    let opts = shared.opts;
    let _ = stream.set_read_timeout(Some(opts.io_poll));
    let mut stream = stream;
    let mut fb = FrameBuffer::with_max_len(opts.max_frame_len);
    let mut from: Option<NodeIndex> = None;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if shared.shutting_down() {
            return;
        }
        let got = match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(k) => k,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        let Some(got) = chunk.get(..got) else { return };
        fb.extend(got);
        loop {
            let payload = match fb.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break, // need more bytes
                Err(_) => {
                    NetCounters::bump(&shared.counters.frame_errors, 1);
                    return; // stream offset untrusted: drop connection
                }
            };
            match from {
                None => {
                    // First frame must be the hello.
                    let hello = parse_hello(&payload).filter(|&(version, index)| {
                        version == PROTO_VERSION && (index as usize) < n
                    });
                    let Some((_, index)) = hello else {
                        NetCounters::bump(&shared.counters.frame_errors, 1);
                        return;
                    };
                    from = Some(NodeIndex::new(index));
                }
                Some(from) => match decode_from_slice::<M>(&payload) {
                    Ok(msg) => {
                        NetCounters::bump(&shared.counters.frames_recv, 1);
                        NetCounters::bump(&shared.counters.bytes_recv, payload.len() as u64);
                        shared.links.frame_seen(from.as_usize());
                        if inbox.send(TransportEvent::Msg { from, msg }).is_err() {
                            return; // transport dropped
                        }
                    }
                    Err(_) => {
                        NetCounters::bump(&shared.counters.decode_errors, 1);
                        return;
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icc_types::codec::encode_to_vec;

    /// Builds an in-process mesh of `n` transports over ephemeral
    /// ports: bind `:0` listeners first, derive the spec from the
    /// actual addresses, then start each transport on its listener.
    fn mesh(n: usize, opts: NetOptions) -> Vec<TcpTransport<Vec<u8>, ()>> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("ephemeral bind"))
            .collect();
        let spec = ClusterSpec::from_addrs(
            listeners
                .iter()
                .map(|l| l.local_addr().expect("bound"))
                .collect(),
        )
        .expect("non-empty");
        listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| TcpTransport::with_listener(l, &spec, NodeIndex::new(i as u32), opts))
            .collect()
    }

    /// Receive messages until `want` of them arrive (or 5 s elapse).
    fn collect_msgs(t: &mut TcpTransport<Vec<u8>, ()>, want: usize) -> Vec<(NodeIndex, Vec<u8>)> {
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while out.len() < want && Instant::now() < deadline {
            if let Ok(TransportEvent::Msg { from, msg }) = t.recv(Duration::from_millis(100)) {
                out.push((from, msg));
            }
        }
        out
    }

    #[test]
    fn two_node_frame_roundtrip_both_directions() {
        let mut ts = mesh(2, NetOptions::default());
        let mut t1 = ts.pop().unwrap();
        let mut t0 = ts.pop().unwrap();
        t0.send(NodeIndex::new(1), b"zero to one".to_vec());
        t1.send(NodeIndex::new(0), b"one to zero".to_vec());
        let got1 = collect_msgs(&mut t1, 1);
        let got0 = collect_msgs(&mut t0, 1);
        assert_eq!(got1, vec![(NodeIndex::new(0), b"zero to one".to_vec())]);
        assert_eq!(got0, vec![(NodeIndex::new(1), b"one to zero".to_vec())]);
        let c = t0.counters();
        assert_eq!(c.frames_sent, 1);
        // Codec-encoded payload: 8-byte length prefix + 11 bytes.
        assert_eq!(c.bytes_sent, 19);
        assert_eq!(c.frames_recv, 1);
        assert_eq!(c.frame_errors, 0);
    }

    #[test]
    fn broadcast_reaches_all_including_self() {
        let mut ts = mesh(3, NetOptions::default());
        ts[1].broadcast(b"to everyone".to_vec());
        for (i, t) in ts.iter_mut().enumerate() {
            let got = collect_msgs(t, 1);
            assert_eq!(
                got,
                vec![(NodeIndex::new(1), b"to everyone".to_vec())],
                "node {i} missed the broadcast"
            );
        }
    }

    #[test]
    fn messages_survive_in_order_per_peer() {
        let mut ts = mesh(2, NetOptions::default());
        let mut t1 = ts.pop().unwrap();
        let mut t0 = ts.pop().unwrap();
        for i in 0..200u32 {
            t0.send(NodeIndex::new(1), i.to_le_bytes().to_vec());
        }
        let got = collect_msgs(&mut t1, 200);
        assert_eq!(got.len(), 200);
        for (i, (from, msg)) in got.iter().enumerate() {
            assert_eq!(*from, NodeIndex::new(0));
            assert_eq!(msg, &(i as u32).to_le_bytes().to_vec());
        }
    }

    #[test]
    fn peer_restart_triggers_reconnect_with_backoff() {
        // Fix node 1's port up front so its replacement can rebind it.
        let opts = NetOptions {
            reconnect_base: Duration::from_millis(10),
            reconnect_cap: Duration::from_millis(100),
            io_poll: Duration::from_millis(20),
            ..NetOptions::default()
        };
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let spec =
            ClusterSpec::from_addrs(vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()])
                .unwrap();
        let mut t0: TcpTransport<Vec<u8>, ()> =
            TcpTransport::with_listener(l0, &spec, NodeIndex::new(0), opts);
        let mut t1: TcpTransport<Vec<u8>, ()> =
            TcpTransport::with_listener(l1, &spec, NodeIndex::new(1), opts);

        t0.send(NodeIndex::new(1), b"before".to_vec());
        assert_eq!(collect_msgs(&mut t1, 1).len(), 1);

        // Kill node 1. Node 0's writer loses the connection and enters
        // its redial backoff against the (momentarily dead) address.
        let addr1 = spec.addr(NodeIndex::new(1));
        drop(t1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while t0.peer_connected(NodeIndex::new(1)) && Instant::now() < deadline {
            // The writer only notices on its next write: poke it.
            t0.send(NodeIndex::new(1), b"probe".to_vec());
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            !t0.peer_connected(NodeIndex::new(1)),
            "writer never noticed the dead peer"
        );

        // Restart node 1 on the same address; node 0 must redial it.
        let l1b = TcpListener::bind(addr1).expect("rebind restarted peer");
        let mut t1b: TcpTransport<Vec<u8>, ()> =
            TcpTransport::with_listener(l1b, &spec, NodeIndex::new(1), opts);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut delivered = Vec::new();
        while delivered.is_empty() && Instant::now() < deadline {
            t0.send(NodeIndex::new(1), b"after restart".to_vec());
            delivered = collect_msgs_for(&mut t1b, 1, Duration::from_millis(100));
        }
        assert_eq!(
            delivered.first().map(|(_, m)| m.as_slice()),
            Some(&b"after restart"[..])
        );
        assert!(
            t0.counters().reconnects >= 1,
            "reconnect not counted: {:?}",
            t0.counters()
        );
    }

    fn collect_msgs_for(
        t: &mut TcpTransport<Vec<u8>, ()>,
        want: usize,
        total: Duration,
    ) -> Vec<(NodeIndex, Vec<u8>)> {
        let mut out = Vec::new();
        let deadline = Instant::now() + total;
        while out.len() < want && Instant::now() < deadline {
            if let Ok(TransportEvent::Msg { from, msg }) = t.recv(Duration::from_millis(50)) {
                out.push((from, msg));
            }
        }
        out
    }

    #[test]
    fn backpressure_drops_newest_instead_of_blocking() {
        // A "peer" that accepts node 0's dial and then never reads: the
        // kernel buffers fill, node 0's writer blocks in write_all, the
        // 4-slot queue fills, and further sends must drop (never block
        // the caller).
        let opts = NetOptions {
            queue_capacity: 4,
            write_timeout: Duration::from_millis(300),
            ..NetOptions::default()
        };
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let stall = TcpListener::bind("127.0.0.1:0").unwrap();
        let spec =
            ClusterSpec::from_addrs(vec![l0.local_addr().unwrap(), stall.local_addr().unwrap()])
                .unwrap();
        // Keep the accepted socket alive (but unread) for the test's
        // duration.
        let stalled_conn = std::thread::spawn(move || stall.accept().map(|(s, _)| s));
        let mut t0: TcpTransport<Vec<u8>, ()> =
            TcpTransport::with_listener(l0, &spec, NodeIndex::new(0), opts);

        let big = vec![0xABu8; 256 * 1024];
        let started = Instant::now();
        for _ in 0..64 {
            t0.send(NodeIndex::new(1), big.clone());
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "send blocked the driver for {elapsed:?}"
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while t0.counters().send_queue_drops == 0 && Instant::now() < deadline {
            t0.send(NodeIndex::new(1), big.clone());
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            t0.counters().send_queue_drops > 0,
            "stalled reader never produced queue drops: {:?}",
            t0.counters()
        );
        drop(t0);
        drop(stalled_conn.join());
    }

    #[test]
    fn link_gauges_track_connection_and_frames() {
        let mut ts = mesh(2, NetOptions::default());
        let mut t1 = ts.pop().unwrap();
        let mut t0 = ts.pop().unwrap();
        t0.send(NodeIndex::new(1), b"ping".to_vec());
        assert_eq!(collect_msgs(&mut t1, 1).len(), 1);

        // t0's outbound link to 1 is up and its queue has drained.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let links = t0.links_handle().snapshot();
            assert_eq!(links.len(), 1);
            let l = links[0];
            assert_eq!(l.peer, 1);
            assert_eq!(l.queue_capacity, 1024);
            if l.connected && l.queue_depth == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "link never settled: {l:?}");
            std::thread::sleep(Duration::from_millis(10));
        }

        // t1 has heard an inbound frame from 0 recently.
        t1.send(NodeIndex::new(0), b"pong".to_vec());
        assert_eq!(collect_msgs(&mut t0, 1).len(), 1);
        let l = t0.links_handle().snapshot()[0];
        assert!(
            l.last_frame_age_us < 5_000_000,
            "no recent frame from peer 1: {l:?}"
        );
        assert_eq!(l.backoff_ms, 0);
    }

    #[test]
    fn corrupt_and_oversized_frames_drop_connection_not_transport() {
        let mut ts = mesh(2, NetOptions::default());
        let mut t1 = ts.pop().unwrap();
        let t0 = ts.pop().unwrap();
        let addr1 = t1.local_addr;

        // A rogue client speaks a valid hello, then declares an absurd
        // frame length. The reader must drop the connection (counting a
        // frame error), allocating nothing.
        let mut rogue = TcpStream::connect(addr1).unwrap();
        rogue.write_all(&hello_frame(NodeIndex::new(0))).unwrap();
        let mut bogus = Vec::new();
        bogus.extend_from_slice(&icc_types::frame::MAGIC.to_le_bytes());
        bogus.extend_from_slice(&(u32::MAX).to_le_bytes()); // 4 GiB claim
        bogus.extend_from_slice(&0u32.to_le_bytes());
        rogue.write_all(&bogus).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while t1.counters().frame_errors == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(t1.counters().frame_errors, 1);

        // Peers from before the block-id change (hello version 1),
        // before command forwarding (2), before BLAKE2b-256 command
        // leaves (3) and before the pull's summary (4) are refused at the
        // hello: they must not join and fork silently, or drop what they
        // cannot decode.
        for (version, errors) in [(1u32, 2), (2, 3), (3, 4), (4, 5)] {
            let mut old = TcpStream::connect(addr1).unwrap();
            let hello = [version.to_le_bytes(), 0u32.to_le_bytes()].concat();
            old.write_all(&encode_frame(&hello)).unwrap();
            old.write_all(&encode_frame(&encode_to_vec(&b"from old".to_vec())))
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while t1.counters().frame_errors < errors && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert_eq!(t1.counters().frame_errors, errors, "v{version}");
            assert_eq!(
                t1.counters().frames_recv,
                0,
                "v{version} frame was delivered"
            );
        }

        // …and the transport still serves honest peers. Drive t0 in a
        // helper thread so its own mesh stays live.
        let mut t0 = t0;
        t0.send(NodeIndex::new(1), b"still alive".to_vec());
        let got = collect_msgs(&mut t1, 1);
        assert_eq!(got, vec![(NodeIndex::new(0), b"still alive".to_vec())]);
    }
}
