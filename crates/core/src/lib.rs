//! Protocol ICC0 — the Internet Computer Consensus atomic broadcast
//! protocol (Camenisch et al., PODC 2022) — as a sans-IO core, plus the
//! harness pieces the experiments need.
//!
//! # Overview
//!
//! ICC is a blockchain-based, leader-based atomic broadcast protocol for
//! partial synchrony with `t < n/3` Byzantine faults. Each round a
//! random beacon ranks the parties; the rank-0 leader's block is
//! prioritized, but any party's block can be *notarized* (signed by
//! `n − t` parties), guaranteeing the block tree grows every round
//! (deadlock-freeness, P1). A block that is *finalized* (a second
//! `n − t`-quorum attests its signers notarized nothing else that round)
//! uniquely determines the chain up to its round (safety, P2). Under
//! partial synchrony with an honest leader, the leader's block finalizes
//! within `3δ` (liveness, P3).
//!
//! # Crate layout
//!
//! * [`keys`] — trusted setup for the four signature schemes;
//! * [`epoch`] — membership schedules and the per-epoch key registry;
//! * [`delays`] — `Δprop` / `Δntry` delay functions (eq. 2) and the
//!   adaptive-`Δbnd` variant;
//! * [`pool`] — the artifact pool and §3.4 block classification;
//! * [`artifacts`] — signed artifact constructors;
//! * [`consensus`] — the sans-IO protocol state machine (Fig. 1 + 2);
//! * [`ingress`] — client commands: held until committed, sent to the
//!   next round's leader;
//! * [`byzantine`] — corrupt-node behavior profiles;
//! * [`events`] — the observable output trace;
//! * [`storage`] — durable replica state: checkpoints + write-ahead log;
//! * [`recovery`] — certified catch-up packages and recovery counters;
//! * [`telemetry`] — per-replica metrics, the flight recorder of
//!   consensus phase events and the anomaly detector watching them;
//! * [`cluster`] — multi-node simulation harness with safety checks;
//! * [`replica`] — state-machine replication on top of atomic broadcast.
//!
//! The core carries no transport. The node that runs it — in the
//! simulator, over TCP, for ICC0 and ICC1 alike — is `icc-gossip`'s
//! `GossipNode`; ICC0 is that node on a full mesh with nothing
//! advertised, and `icc_gossip::icc0_cluster` builds one (the quickstart
//! is there). ICC2 wraps the same core in `icc-erasure`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod byzantine;
pub mod cluster;
pub mod consensus;
pub mod delays;
pub mod epoch;
pub mod events;
pub mod ingress;
pub mod keys;
pub mod pool;
pub mod recovery;
pub mod replica;
pub mod storage;
pub mod telemetry;

pub use byzantine::Behavior;
pub use cluster::{Cluster, ClusterBuilder};
pub use consensus::{BlockPolicy, ConsensusCore, Step, CATCH_UP_THRESHOLD, PURGE_DEPTH};
pub use epoch::{EpochInfo, EpochSchedule, EpochSpec};
pub use events::NodeEvent;
pub use ingress::IngressStats;
pub use recovery::{CatchUpError, CatchUpPackage, RecoveryStats};
pub use storage::{Checkpoint, DurableStore, WalEntry};
pub use telemetry::{CoreMetrics, NodeTelemetry};
