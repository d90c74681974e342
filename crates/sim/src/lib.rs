//! A deterministic discrete-event network simulator.
//!
//! The paper's evaluation ran on the live Internet Computer; this crate
//! is the substitute substrate (see `DESIGN.md` §4): a seeded,
//! deterministic event loop with pluggable network-delay models,
//! partition/asynchrony injection, message loss with retransmission, and
//! per-node traffic metering — everything needed to regenerate Table 1
//! and the analytical experiments.
//!
//! # Architecture
//!
//! Protocol logic implements the sans-IO [`Node`] trait: the engine
//! calls `on_start` / `on_message` / `on_timer` / `on_external`, and the
//! node reacts through its [`Context`] (broadcast, send, timers,
//! outputs). Nodes never see wall-clock time or real sockets, so every
//! execution is a pure function of `(node logic, seed, schedule)` —
//! replayable and explorable by the property tests.
//!
//! * [`node`] — the [`Node`] trait and [`Context`];
//! * [`engine`] — the event loop ([`Simulation`], [`SimulationBuilder`]);
//! * [`delay`] — network delay models, including the inter-datacenter
//!   model matching the paper's reported RTTs (6–110 ms);
//! * [`policy`] — delivery policies layered on the delay model:
//!   partitions, asynchronous windows, targeted delays;
//! * [`fault`] — fault plans: scheduled crashes and restarts driven
//!   through the engine as lifecycle events (messages to a down node are
//!   *dropped*, unlike the delay-only policies);
//! * [`metrics`] — per-node message/byte counters;
//! * [`runtime`] — the wall-clock counterpart: a [`Transport`] trait
//!   (typed inbox/outbox among indexed peers) and one shared [`drive`]
//!   loop that runs any [`Node`] on any transport (`icc-net` provides
//!   the TCP backend).
//!
//! # Example
//!
//! ```
//! use icc_sim::{Node, Context, SimulationBuilder, delay::FixedDelay};
//! use icc_types::{NodeIndex, SimDuration};
//!
//! // A node that gossips a counter once.
//! struct Counter(u32);
//! impl Node for Counter {
//!     type Msg = u32;
//!     type External = ();
//!     type Output = u32;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
//!         if ctx.me() == NodeIndex::new(0) {
//!             ctx.broadcast(7);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>,
//!                   _from: NodeIndex, msg: u32) {
//!         ctx.output(msg);
//!     }
//! }
//!
//! let mut sim = SimulationBuilder::new(42)
//!     .delay(FixedDelay::new(SimDuration::from_millis(10)))
//!     .build((0..4).map(|_| Counter(7)).collect());
//! sim.run_until_idle();
//! assert_eq!(sim.outputs().len(), 4); // everyone (incl. sender) got it
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod node;
pub mod policy;
pub mod runtime;

pub use engine::{Simulation, SimulationBuilder};
pub use fault::{FaultPlan, LifecycleEvent};
pub use metrics::{GossipCounters, Metrics, MetricsSummary, NodeMetrics};
pub use node::{Context, Node, WireMessage};
pub use runtime::{drive, RecvError, Transport, TransportEvent};
