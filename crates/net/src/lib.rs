//! Real-socket transport for the ICC reproduction: run the same
//! consensus nodes as independent OS processes over kernel TCP.
//!
//! The protocol cores are sans-IO ([`icc_sim::Node`]) and the wall-clock
//! driver is transport-agnostic ([`icc_sim::runtime::drive`] over the
//! [`Transport`](icc_sim::Transport) trait); this crate supplies the
//! third backend after the discrete-event engine and the in-process
//! channel mesh:
//!
//! * [`config`] — the static peer file (`<index> <host:port>` lines) a
//!   replica process joins a cluster from;
//! * [`mesh`] — [`TcpTransport`]: a dial-everyone TCP mesh with
//!   per-peer writer threads, bounded-queue **drop-newest
//!   backpressure**, and capped-exponential-backoff reconnect, carrying
//!   [`icc_types::frame`] CRC'd frames of [`icc_types::codec`]
//!   payloads;
//! * [`counters`] — real-atomic I/O statistics ([`NetCounters`]) for
//!   the replica's end-of-run report;
//! * [`links`] — per-peer link gauges ([`LinkGauges`]: connection
//!   state, send-queue depth, reconnect backoff, last-frame-seen age)
//!   feeding the admin plane's `/status` endpoint.
//!
//! Std-only by design: the workspace builds offline, so there is no
//! tokio — blocking sockets and OS threads, which for a handful of
//! peers per process is also the simpler model to reason about.
//!
//! # Example (in-process pair over real sockets)
//!
//! ```
//! use icc_net::{ClusterSpec, NetOptions, TcpTransport};
//! use icc_sim::{Transport, TransportEvent};
//! use icc_types::NodeIndex;
//! use std::net::TcpListener;
//! use std::time::Duration;
//!
//! let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
//! let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
//! let spec = ClusterSpec::from_addrs(vec![
//!     l0.local_addr().unwrap(),
//!     l1.local_addr().unwrap(),
//! ])
//! .unwrap();
//! let mut a: TcpTransport<Vec<u8>, ()> =
//!     TcpTransport::with_listener(l0, &spec, NodeIndex::new(0), NetOptions::default());
//! let mut b: TcpTransport<Vec<u8>, ()> =
//!     TcpTransport::with_listener(l1, &spec, NodeIndex::new(1), NetOptions::default());
//! a.send(NodeIndex::new(1), b"over TCP".to_vec());
//! loop {
//!     if let Ok(TransportEvent::Msg { from, msg }) = b.recv(Duration::from_millis(100)) {
//!         assert_eq!((from, msg), (NodeIndex::new(0), b"over TCP".to_vec()));
//!         break;
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod counters;
pub mod links;
pub mod mesh;

pub use config::{ClusterSpec, SpecError};
pub use counters::{NetCounters, NetCountersSnapshot};
pub use links::LinkGauges;
pub use mesh::{NetHandle, NetOptions, TcpTransport, PROTO_VERSION};
