//! **Per-replica admin plane**: a hand-rolled HTTP/1.0 server over
//! `std::net` (one thread, zero deps) plus the pure render/evaluate
//! helpers behind its endpoints (ISSUE 10).
//!
//! The server is a router of closures: each route owns a
//! `Fn() -> AdminResponse` that snapshots whatever shared state the
//! binary publishes (rendered Prometheus text, status JSON, the
//! drained flight-recorder ring). Handlers run on the single accept
//! thread, one request at a time — an admin plane for `curl` and a
//! scraper, not a web server. Each connection gets one total deadline
//! ([`CONNECTION_DEADLINE`]) to send its request and take the reply, so
//! a client trickling bytes cannot hold the thread from the next
//! scrape. Connections are `Connection: close` HTTP/1.0 with an
//! explicit `Content-Length`, which every HTTP client (and Prometheus)
//! understands.
//!
//! The *logic* behind `/health` and `/status` lives in pure functions
//! ([`evaluate_health`], [`StatusReport::to_json`]) so the same code
//! paths are testable deterministically under the simulator's clock —
//! sim-time scrape parity.

// Nothing a client sends may panic the admin thread.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

use crate::anomaly::AnomalyEvent;
use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long one connection may take, from accept to the last byte of
/// the reply, before the server drops it.
pub const CONNECTION_DEADLINE: Duration = Duration::from_secs(2);

/// Request bytes read before the server stops waiting for the blank
/// line that ends the headers.
const MAX_REQUEST: usize = 8192;

/// What a route handler returns: a status code, a content type, and a
/// body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminResponse {
    /// HTTP status code (200, 404, 503, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl AdminResponse {
    /// A `200 OK` plain-text response (Prometheus exposition is
    /// `text/plain`).
    pub fn text(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body,
        }
    }

    /// A JSON response with an explicit status (e.g. `503` for an
    /// unhealthy `/health`).
    pub fn json_status(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// `404 Not Found`.
    pub fn not_found() -> Self {
        Self {
            status: 404,
            content_type: "text/plain; version=0.0.4",
            body: "not found\n".to_string(),
        }
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Status",
        }
    }
}

/// A boxed route handler.
pub type AdminHandler = Box<dyn Fn() -> AdminResponse + Send + Sync + 'static>;

/// Builder: collect routes, then [`AdminBuilder::serve`].
#[derive(Default)]
pub struct AdminBuilder {
    routes: Vec<(String, AdminHandler)>,
}

impl std::fmt::Debug for AdminBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminBuilder")
            .field(
                "routes",
                &self.routes.iter().map(|(p, _)| p).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl AdminBuilder {
    /// An empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a handler for an exact path (e.g. `/metrics`).
    /// Query strings are stripped before matching.
    pub fn route(
        mut self,
        path: &str,
        handler: impl Fn() -> AdminResponse + Send + Sync + 'static,
    ) -> Self {
        self.routes.push((path.to_string(), Box::new(handler)));
        self
    }

    /// Bind `addr` (e.g. `127.0.0.1:0`) and start the single
    /// accept thread. The server stops when the returned handle is
    /// dropped.
    pub fn serve(self, addr: &str) -> io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let routes = self.routes;
        let join = thread::Builder::new()
            .name("icc-admin".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let _ = handle(stream, &routes);
                    }
                }
            })?;
        Ok(AdminServer {
            local,
            shutdown,
            join: Some(join),
        })
    }
}

/// Time left before `deadline`; `TimedOut` once it has passed (a zero
/// socket timeout would mean "block forever").
fn remaining(deadline: Instant) -> io::Result<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
        .ok_or_else(|| io::ErrorKind::TimedOut.into())
}

/// Read until the blank line that ends the headers, EOF, or
/// [`MAX_REQUEST`] bytes, whichever comes first, all before `deadline`.
fn read_request(stream: &mut TcpStream, deadline: Instant) -> io::Result<Vec<u8>> {
    let mut req = Vec::with_capacity(256);
    let mut buf = [0u8; 1024];
    while !req.windows(4).any(|w| w == b"\r\n\r\n") && req.len() <= MAX_REQUEST {
        stream.set_read_timeout(Some(remaining(deadline)?))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(buf.get(..n).unwrap_or_default());
    }
    Ok(req)
}

/// Write all of `bytes` before `deadline`.
fn write_by(stream: &mut TcpStream, mut bytes: &[u8], deadline: Instant) -> io::Result<()> {
    while !bytes.is_empty() {
        stream.set_write_timeout(Some(remaining(deadline)?))?;
        let n = stream.write(bytes)?;
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        bytes = bytes.get(n..).unwrap_or_default();
    }
    Ok(())
}

fn handle(mut stream: TcpStream, routes: &[(String, AdminHandler)]) -> io::Result<()> {
    let deadline = Instant::now() + CONNECTION_DEADLINE;
    let req = read_request(&mut stream, deadline)?;
    let text = String::from_utf8_lossy(&req);
    let first = text.lines().next().unwrap_or("");
    let mut parts = first.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/").split('?').next().unwrap_or("/");
    let resp = if method != "GET" {
        AdminResponse {
            status: 405,
            content_type: "text/plain; version=0.0.4",
            body: "GET only\n".to_string(),
        }
    } else {
        routes
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, h)| h())
            .unwrap_or_else(AdminResponse::not_found)
    };
    let head = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        AdminResponse::reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    write_by(&mut stream, head.as_bytes(), deadline)?;
    write_by(&mut stream, resp.body.as_bytes(), deadline)
}

/// A running admin server; dropping it stops the accept thread.
#[derive(Debug)]
pub struct AdminServer {
    local: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: Option<thread::JoinHandle<()>>,
}

impl AdminServer {
    /// The bound address (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stop the accept thread and wait for it.
    pub fn stop(&mut self) {
        if let Some(join) = self.join.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.local, Duration::from_millis(200));
            let _ = join.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Minimal blocking HTTP/1.0 GET for scraping admin endpoints (used
/// by `net_cluster` and the integration tests). Returns
/// `(status_code, body)`.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    use std::net::ToSocketAddrs as _;
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable addr"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let req = format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let body = text
        .find("\r\n\r\n")
        .and_then(|i| text.get(i + 4..))
        .unwrap_or_default()
        .to_string();
    Ok((status, body))
}

/// Everything `/health` evaluation needs, snapshotted by the caller.
/// All times are in the caller's clock domain (µs), so the same
/// evaluation runs under sim time and wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthInputs {
    /// "Now" in the caller's clock domain.
    pub now_us: u64,
    /// When the committed round last advanced (or process start).
    pub last_progress_us: u64,
    /// Highest committed (finalized-prefix) round.
    pub committed_round: u64,
    /// Peer links currently connected.
    pub peers_up: u64,
    /// Total peer links.
    pub peers_total: u64,
    /// WAL I/O errors observed so far.
    pub wal_io_errors: u64,
    /// The store failed to persist a consensus step and the replica
    /// stopped signing (fail-stop).
    pub storage_halted: bool,
    /// Readiness threshold: no committed-round progress for longer
    /// than this means "stalled".
    pub stall_after_us: u64,
    /// Readiness threshold: fewer live peers than this means
    /// "isolated" (typically the notarization quorum minus self).
    pub min_peers_up: u64,
}

/// The `/health` verdict: `healthy` drives the HTTP status (200 vs
/// 503), `reasons` names every failing check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// True when every readiness check passes.
    pub healthy: bool,
    /// Static names of the failing checks (empty when healthy).
    pub reasons: Vec<&'static str>,
}

/// Pure `/health` evaluation over a [`HealthInputs`] snapshot.
pub fn evaluate_health(h: &HealthInputs) -> HealthReport {
    let mut reasons = Vec::new();
    if h.now_us.saturating_sub(h.last_progress_us) > h.stall_after_us {
        reasons.push("round_progress_stalled");
    }
    if h.peers_total > 0 && h.peers_up < h.min_peers_up {
        reasons.push("insufficient_peers");
    }
    if h.wal_io_errors > 0 {
        reasons.push("wal_io_errors");
    }
    if h.storage_halted {
        reasons.push("storage_halted");
    }
    HealthReport {
        healthy: reasons.is_empty(),
        reasons,
    }
}

impl HealthReport {
    /// The `/health` JSON body (hand-rolled; reasons are static
    /// identifiers, no escaping needed).
    pub fn to_json(&self, h: &HealthInputs) -> String {
        let mut s = format!(
            "{{\"healthy\":{},\"committed_round\":{},\"progress_age_us\":{},\
             \"peers_up\":{},\"peers_total\":{},\"wal_io_errors\":{},\"reasons\":[",
            self.healthy,
            h.committed_round,
            h.now_us.saturating_sub(h.last_progress_us),
            h.peers_up,
            h.peers_total,
            h.wal_io_errors
        );
        for (i, r) in self.reasons.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{r}\"");
        }
        s.push_str("]}");
        s
    }
}

/// Per-peer link state for `/status` (fed by the `icc-net` link
/// gauges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerLinkStatus {
    /// Peer node index.
    pub peer: u32,
    /// Outbound link currently connected.
    pub connected: bool,
    /// Frames queued on the outbound writer channel.
    pub queue_depth: u64,
    /// Capacity of that channel.
    pub queue_capacity: u64,
    /// Current reconnect backoff (ms; 0 when connected).
    pub backoff_ms: u64,
    /// Age of the last frame received *from* this peer (µs);
    /// `u64::MAX` when none was ever received.
    pub last_frame_age_us: u64,
    /// Times the outbound link was (re)established.
    pub reconnects: u64,
}

impl PeerLinkStatus {
    fn to_json(self) -> String {
        format!(
            "{{\"peer\":{},\"connected\":{},\"queue_depth\":{},\"queue_capacity\":{},\
             \"backoff_ms\":{},\"last_frame_age_us\":{},\"reconnects\":{}}}",
            self.peer,
            self.connected,
            self.queue_depth,
            self.queue_capacity,
            self.backoff_ms,
            self.last_frame_age_us,
            self.reconnects
        )
    }
}

/// The `/status` snapshot: consensus position, link table, recent
/// anomalies.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    /// This node's index.
    pub node: u32,
    /// "Now" in the caller's clock domain (µs).
    pub now_us: u64,
    /// Wall-clock anchor (UNIX µs at process start) for cross-node
    /// clock alignment; 0 under sim time.
    pub clock_anchor_us: u64,
    /// The round the node is currently working on.
    pub current_round: u64,
    /// Highest committed (finalized-prefix) round.
    pub committed_round: u64,
    /// Highest explicitly finalized round observed in the pool.
    pub finalized_frontier: u64,
    /// Active epoch index.
    pub epoch: u64,
    /// Why the replica stopped taking part, if its store failed to
    /// persist a step (fail-stop).
    pub halted: Option<String>,
    /// Entries held per in-memory collection, by name (what the
    /// `icc_*` footprint gauges export): bounded by the rounds in
    /// flight, so a value that grows with uptime is a leak.
    pub footprint: Vec<(&'static str, u64)>,
    /// Per-peer link state (empty under the in-process simulator).
    pub peers: Vec<PeerLinkStatus>,
    /// Recent anomaly events (bounded by the detector's retention).
    pub anomalies: Vec<AnomalyEvent>,
}

impl StatusReport {
    /// The `/status` JSON body.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"node\":{},\"now_us\":{},\"clock_anchor_us\":{},\"current_round\":{},\
             \"committed_round\":{},\"finalized_frontier\":{},\"epoch\":{},\"halted\":{},\
             \"footprint\":{{",
            self.node,
            self.now_us,
            self.clock_anchor_us,
            self.current_round,
            self.committed_round,
            self.finalized_frontier,
            self.epoch,
            match &self.halted {
                Some(why) => format!("\"{}\"", crate::export::escape_label_value(why)),
                None => "null".to_string(),
            }
        );
        for (i, (name, held)) in self.footprint.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{name}\":{held}");
        }
        s.push_str("},\"peers\":[");
        for (i, p) in self.peers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&p.to_json());
        }
        s.push_str("],\"anomalies\":[");
        for (i, a) in self.anomalies.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&a.to_json());
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::AnomalyKind;

    fn inputs() -> HealthInputs {
        HealthInputs {
            now_us: 10_000_000,
            last_progress_us: 9_500_000,
            committed_round: 42,
            peers_up: 3,
            peers_total: 3,
            wal_io_errors: 0,
            storage_halted: false,
            stall_after_us: 2_000_000,
            min_peers_up: 2,
        }
    }

    #[test]
    fn health_passes_then_names_every_failure() {
        let ok = evaluate_health(&inputs());
        assert!(ok.healthy);
        assert!(ok.reasons.is_empty());
        let bad = evaluate_health(&HealthInputs {
            last_progress_us: 0,
            peers_up: 0,
            wal_io_errors: 3,
            storage_halted: true,
            ..inputs()
        });
        assert!(!bad.healthy);
        assert_eq!(
            bad.reasons,
            vec![
                "round_progress_stalled",
                "insufficient_peers",
                "wal_io_errors",
                "storage_halted"
            ]
        );
        let json = bad.to_json(&inputs());
        assert!(json.contains("\"healthy\":false"));
        assert!(json.contains("round_progress_stalled"));
    }

    #[test]
    fn health_render_is_deterministic() {
        let h = inputs();
        let a = evaluate_health(&h).to_json(&h);
        let b = evaluate_health(&h).to_json(&h);
        assert_eq!(a, b);
    }

    #[test]
    fn status_json_shape() {
        let report = StatusReport {
            node: 2,
            now_us: 5_000_000,
            clock_anchor_us: 1_700_000_000_000_000,
            current_round: 10,
            committed_round: 8,
            finalized_frontier: 9,
            epoch: 1,
            halted: Some("injected \"sync\" error".to_string()),
            footprint: vec![("pool_blocks", 66), ("gossip_dedup_ids", 1050)],
            peers: vec![PeerLinkStatus {
                peer: 0,
                connected: true,
                queue_depth: 3,
                queue_capacity: 1024,
                backoff_ms: 0,
                last_frame_age_us: 1500,
                reconnects: 1,
            }],
            anomalies: vec![AnomalyEvent {
                at_us: 4_000_000,
                node: 2,
                kind: AnomalyKind::RoundStall {
                    round: 9,
                    waited_us: 800_000,
                    median_us: 50_000,
                },
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"current_round\":10"));
        assert!(json.contains(r#""halted":"injected \"sync\" error""#));
        assert!(json.contains("\"footprint\":{\"pool_blocks\":66,\"gossip_dedup_ids\":1050},"));
        assert!(json.contains("\"peers\":[{\"peer\":0"));
        assert!(json.contains("\"kind\":\"round_stall\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn admin_server_serves_routes_end_to_end() {
        let server = AdminBuilder::new()
            .route("/metrics", || AdminResponse::text("icc_up 1\n".to_string()))
            .route("/health", || {
                AdminResponse::json_status(503, "{\"healthy\":false}".to_string())
            })
            .serve("127.0.0.1:0")
            .expect("bind admin server");
        let addr = server.local_addr().to_string();
        let (code, body) = http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "icc_up 1\n");
        // Query strings are stripped before route matching.
        let (code, _) = http_get(&addr, "/metrics?x=1", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 200);
        let (code, body) = http_get(&addr, "/health", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 503);
        assert!(body.contains("false"));
        let (code, _) = http_get(&addr, "/nope", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 404);
        // Sequential requests keep working (Connection: close per hit).
        for _ in 0..5 {
            let (code, _) = http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap();
            assert_eq!(code, 200);
        }
        drop(server); // must not hang on the blocking accept
    }

    #[test]
    fn slow_client_does_not_block_the_next_scrape() {
        let server = AdminBuilder::new()
            .route("/health", || AdminResponse::json("{}".to_string()))
            .serve("127.0.0.1:0")
            .expect("bind admin server");
        let addr = server.local_addr().to_string();
        // Connected first, so it is accepted first; it never finishes
        // its headers, and each byte lands well inside any per-read
        // timeout.
        let mut slow = TcpStream::connect(&addr).unwrap();
        let trickle = thread::spawn(move || {
            for _ in 0..33 {
                if slow.write_all(b"x").is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(300));
            }
        });
        let (code, _) = http_get(&addr, "/health", Duration::from_secs(5)).unwrap();
        assert_eq!(code, 200);
        trickle.join().unwrap();
    }
}
