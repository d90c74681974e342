//! The cluster harness: wires `n` consensus cores, each wrapped in a
//! dissemination layer, into an `icc-sim` simulation, injects client
//! workloads, and extracts the measurements every experiment needs
//! (committed chains, round durations, safety checks).
//!
//! The layer is chosen by what consumes the [`ClusterBuilder`]:
//! `icc_gossip::Recipe::cluster` (ICC1 as shipped, or a named variant
//! such as `Recipe::icc0`: the gossip node on a full mesh with nothing
//! advertised) or `icc_erasure::icc2_cluster` (ICC2), each a
//! [`ClusterBuilder::build_with`] call.

use crate::byzantine::Behavior;
use crate::consensus::{BlockPolicy, ConsensusCore};
use crate::delays::{AdaptiveDelays, StaticDelays};
use crate::epoch::EpochSchedule;
use crate::events::NodeEvent;
use crate::keys::{generate_keys, generate_keys_with_schedule};
use icc_crypto::Hash256;
use icc_sim::delay::{DelayModel, FixedDelay};
use icc_sim::engine::OutputRecord;
use icc_sim::policy::DeliveryPolicy;
use icc_sim::{FaultPlan, Node, Simulation, SimulationBuilder};
use icc_types::block::HashedBlock;
use icc_types::{Command, NodeIndex, Rank, Round, SimDuration, SimTime, SubnetConfig};

/// Access to the wrapped [`ConsensusCore`] — implemented by every
/// dissemination-layer node (the gossip node that runs ICC0 and ICC1,
/// ICC2's erasure node) so the [`Cluster`] helpers work for all of them.
pub trait CoreAccess {
    /// The wrapped consensus core.
    fn core(&self) -> &ConsensusCore;

    /// The dissemination layer's gossip counters, when it keeps any
    /// (the gossip node does; ICC2's erasure node does not).
    fn gossip_counters(&self) -> Option<icc_sim::GossipCounters> {
        None
    }

    /// Entries held per in-memory collection, by name: the core's, and
    /// the dissemination layer's where it keeps any.
    fn footprint(&self) -> Vec<(&'static str, u64)> {
        self.core().footprint()
    }
}

/// What [`Cluster::metrics_summary`] returns: traffic totals and every
/// layer's counters summed over all nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterSummary {
    /// The simulation engine's traffic totals.
    pub traffic: icc_sim::MetricsSummary,
    /// Pool counters summed over all nodes.
    pub pool: crate::pool::PoolStats,
    /// Recovery counters summed over all nodes.
    pub recovery: crate::recovery::RecoveryStats,
    /// Ingress counters summed over all nodes.
    pub ingress: crate::ingress::IngressStats,
    /// Gossip/overlay counters summed over all nodes (all zeros under
    /// ICC2, whose erasure-coded node keeps none).
    pub gossip: icc_sim::GossipCounters,
}

/// Which delay policy the nodes run.
#[derive(Debug, Clone, Copy)]
enum DelayChoice {
    Static {
        delta_bound: SimDuration,
        epsilon: SimDuration,
    },
    Adaptive {
        initial: SimDuration,
        floor: SimDuration,
        cap: SimDuration,
        epsilon: SimDuration,
    },
}

/// Configures a cluster simulation: subnet size, keys, network, faults
/// and protocol delays. A dissemination layer's constructor turns it
/// into a [`Cluster`] through [`build_with`](Self::build_with).
pub struct ClusterBuilder {
    n: usize,
    seed: u64,
    delay_model: Box<dyn DelayModel>,
    policies: Vec<Box<dyn DeliveryPolicy>>,
    loss: Option<(f64, SimDuration)>,
    behaviors: Vec<Behavior>,
    delays: DelayChoice,
    block_policy: BlockPolicy,
    max_events: u64,
    disable_beacon_pipelining: bool,
    fault_plan: FaultPlan,
    checkpoint_interval: Option<u64>,
    epochs: Option<EpochSchedule>,
}

impl ClusterBuilder {
    /// A cluster of `n` honest parties with a fixed 10 ms network and
    /// `Δbnd = 3×` the network bound, `ε = 0`.
    pub fn new(n: usize) -> ClusterBuilder {
        let net = FixedDelay::new(SimDuration::from_millis(10));
        ClusterBuilder {
            n,
            seed: 0,
            delays: DelayChoice::Static {
                delta_bound: net.bound() * 3,
                epsilon: SimDuration::ZERO,
            },
            delay_model: Box::new(net),
            policies: Vec::new(),
            loss: None,
            behaviors: vec![Behavior::Honest; n],
            block_policy: BlockPolicy::default(),
            max_events: 500_000_000,
            disable_beacon_pipelining: false,
            fault_plan: FaultPlan::new(),
            checkpoint_interval: None,
            epochs: None,
        }
    }

    /// Installs a membership [`EpochSchedule`]: the dealer reshares the
    /// beacon key at every boundary and each node participates only in
    /// rounds of epochs it belongs to. `n` is the *universe* size; every
    /// index the schedule mentions must be `< n`. Compose with
    /// [`fault_plan`](Self::fault_plan)'s
    /// [`depart_at`](icc_sim::FaultPlan::depart_at) to take the replaced
    /// node's process down near the boundary.
    pub fn with_epochs(mut self, schedule: EpochSchedule) -> Self {
        self.epochs = Some(schedule);
        self
    }

    /// Ablation: disable Fig. 1's beacon-share pipelining in every node.
    pub fn without_beacon_pipelining(mut self) -> Self {
        self.disable_beacon_pipelining = true;
        self
    }

    /// The configured subnet size.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Sets the RNG seed (keys, network jitter, schedules).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network delay model. Unless
    /// [`protocol_delays`](Self::protocol_delays) is also called, `Δbnd`
    /// defaults to `3×` the model's bound.
    pub fn network(mut self, model: impl DelayModel + 'static) -> Self {
        if let DelayChoice::Static { epsilon, .. } = self.delays {
            self.delays = DelayChoice::Static {
                delta_bound: model.bound() * 3,
                epsilon,
            };
        }
        self.delay_model = Box::new(model);
        self
    }

    /// Sets the protocol's `Δbnd` and governor `ε` explicitly (eq. 2).
    pub fn protocol_delays(mut self, delta_bound: SimDuration, epsilon: SimDuration) -> Self {
        self.delays = DelayChoice::Static {
            delta_bound,
            epsilon,
        };
        self
    }

    /// Uses the adaptive delay policy instead of static `Δbnd`.
    pub fn adaptive_delays(
        mut self,
        initial: SimDuration,
        floor: SimDuration,
        cap: SimDuration,
        epsilon: SimDuration,
    ) -> Self {
        self.delays = DelayChoice::Adaptive {
            initial,
            floor,
            cap,
            epsilon,
        };
        self
    }

    /// Adds a delivery policy (partition, async window, slow nodes).
    pub fn policy(mut self, p: impl DeliveryPolicy + 'static) -> Self {
        self.policies.push(Box::new(p));
        self
    }

    /// Message loss probability with retransmission timeout.
    pub fn loss(mut self, p: f64, rto: SimDuration) -> Self {
        self.loss = Some((p, rto));
        self
    }

    /// Sets per-node behaviors.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `n`.
    pub fn behaviors(mut self, behaviors: Vec<Behavior>) -> Self {
        assert_eq!(behaviors.len(), self.n, "one behavior per node");
        self.behaviors = behaviors;
        self
    }

    /// Sets block payload limits for all nodes.
    pub fn block_policy(mut self, policy: BlockPolicy) -> Self {
        self.block_policy = policy;
        self
    }

    /// Caps simulator events.
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Installs a crash/restart schedule (see [`icc_sim::FaultPlan`]).
    /// Composes with [`behaviors`](Self::behaviors): a node can be
    /// Byzantine while up and still be churned down and up by the plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Overrides every node's checkpoint interval (committed rounds
    /// between checkpoints; default 8).
    pub fn checkpoint_interval(mut self, rounds: u64) -> Self {
        self.checkpoint_interval = Some(rounds);
        self
    }

    /// Constructs a cluster whose dissemination layer is produced by
    /// `wrap` — used by the gossip (ICC0, ICC1) and erasure-coded (ICC2)
    /// layers.
    pub fn build_with<N, F>(self, wrap: F) -> Cluster<N>
    where
        N: Node<External = Command, Output = NodeEvent> + CoreAccess,
        F: Fn(ConsensusCore) -> N,
    {
        let config = SubnetConfig::new(self.n);
        let keys = match &self.epochs {
            Some(schedule) => generate_keys_with_schedule(config, self.seed, schedule),
            None => generate_keys(config, self.seed),
        };
        let nodes: Vec<N> = keys
            .into_iter()
            .zip(&self.behaviors)
            .map(|(k, &behavior)| {
                let core = match self.delays {
                    DelayChoice::Static {
                        delta_bound,
                        epsilon,
                    } => ConsensusCore::new(k, StaticDelays::new(delta_bound, epsilon), behavior),
                    DelayChoice::Adaptive {
                        initial,
                        floor,
                        cap,
                        epsilon,
                    } => ConsensusCore::new(
                        k,
                        AdaptiveDelays::new(initial, floor, cap).with_epsilon(epsilon),
                        behavior,
                    ),
                }
                .with_block_policy(self.block_policy);
                let core = if self.disable_beacon_pipelining {
                    core.without_beacon_pipelining()
                } else {
                    core
                };
                let core = match self.checkpoint_interval {
                    Some(rounds) => core.with_checkpoint_interval(rounds),
                    None => core,
                };
                wrap(core)
            })
            .collect();
        // `Behavior::Crash` is the degenerate fault plan "down from time
        // zero, never restarted": route it through the engine's
        // lifecycle so crashed nodes also stop *receiving* (the core's
        // `participates()` guard is kept as belt and braces).
        let mut plan = self.fault_plan;
        for (i, b) in self.behaviors.iter().enumerate() {
            if !b.participates() {
                plan = plan.crash_at(NodeIndex::new(i as u32), SimTime::ZERO);
            }
        }
        let mut builder = SimulationBuilder::new(self.seed ^ 0x5eed)
            .delay(self.delay_model)
            .max_events(self.max_events)
            .fault_plan(plan);
        if let Some((p, rto)) = self.loss {
            builder = builder.loss(p, rto);
        }
        for policy in self.policies {
            builder = builder.policy(policy);
        }
        Cluster {
            behaviors: self.behaviors,
            sim: builder.build(nodes),
            injected_at: std::collections::HashMap::new(),
        }
    }
}

/// A running ICC cluster with measurement helpers, generic over the
/// dissemination layer.
pub struct Cluster<N: Node + CoreAccess> {
    /// The underlying simulation (exposed for advanced inspection).
    pub sim: Simulation<N>,
    behaviors: Vec<Behavior>,
    /// Injection time of each command (keyed by command digest), for
    /// latency measurements.
    injected_at: std::collections::HashMap<icc_crypto::Hash256, SimTime>,
}

impl<N: Node<External = Command, Output = NodeEvent> + CoreAccess> Cluster<N> {
    /// Runs the cluster for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Runs the cluster until an absolute simulated time.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.sim.n()
    }

    /// Indices of honest nodes.
    pub fn honest_nodes(&self) -> Vec<usize> {
        self.behaviors
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == Behavior::Honest)
            .map(|(i, _)| i)
            .collect()
    }

    /// Injects `count` synthetic client commands of `size` bytes into
    /// every node (modeling ingress of the same request set at all
    /// replicas), spread uniformly over `[start, start + window)`.
    pub fn inject_commands(
        &mut self,
        start: SimTime,
        window: SimDuration,
        count: usize,
        size: usize,
    ) {
        for i in 0..count {
            let at = start + window * i as u64 / count.max(1) as u64;
            let mut bytes = vec![0u8; size];
            let tag = icc_crypto::hash_parts(
                "client-cmd",
                &[&(i as u64).to_le_bytes(), &start.as_micros().to_le_bytes()],
            );
            let m = size.min(32);
            bytes[..m].copy_from_slice(&tag.as_bytes()[..m]);
            // One refcounted Command shared by all copies — cloning a
            // Command is a refcount bump, not a byte copy.
            let cmd = Command::new(bytes);
            self.injected_at.insert(cmd.digest(), at);
            for node in 0..self.n() {
                self.sim
                    .schedule_external(at, NodeIndex::new(node as u32), cmd.clone());
            }
        }
    }

    /// All events emitted by `node`, in order.
    pub fn events_of(&self, node: usize) -> impl Iterator<Item = &OutputRecord<NodeEvent>> {
        self.sim
            .outputs()
            .iter()
            .filter(move |o| o.node.as_usize() == node)
    }

    /// The chain of blocks `node` has committed, in order.
    pub fn committed_chain(&self, node: usize) -> Vec<HashedBlock> {
        self.events_of(node)
            .filter_map(|o| o.output.as_committed().cloned())
            .collect()
    }

    /// Commit timestamps per block hash for `node`.
    pub fn commit_times(&self, node: usize) -> Vec<(Hash256, SimTime)> {
        self.events_of(node)
            .filter_map(|o| o.output.as_committed().map(|b| (b.hash(), o.at)))
            .collect()
    }

    /// Nearest-rank quantiles `qs` (each in `(0, 1]`, `1.0` the maximum)
    /// of the finalization latency in milliseconds: over every block
    /// every node committed, from that node entering the block's round
    /// to its committing the block. Zero without a sample.
    pub fn finalization_latency_ms<const Q: usize>(&self, qs: [f64; Q]) -> [f64; Q] {
        let mut samples = Vec::new();
        for node in 0..self.n() {
            let mut entered = std::collections::HashMap::new();
            for o in self.events_of(node) {
                if let NodeEvent::EnteredRound { round, .. } = &o.output {
                    entered.insert(*round, o.at);
                } else if let Some(block) = o.output.as_committed() {
                    let t0 = entered.remove(&block.round());
                    samples.extend(t0.map(|t0| o.at.saturating_since(t0).as_micros()));
                }
            }
        }
        samples.sort_unstable();
        qs.map(|q| {
            let rank = (q * samples.len() as f64).ceil() as usize;
            let at = samples.get(rank.max(1) - 1);
            at.map_or(0.0, |&us| us as f64 / 1000.0)
        })
    }

    /// The highest round committed by `node`.
    pub fn committed_round(&self, node: usize) -> u64 {
        self.sim.node(node).core().committed_round().get()
    }

    /// The lowest committed round across honest nodes.
    pub fn min_committed_round(&self) -> u64 {
        self.honest_nodes()
            .into_iter()
            .map(|i| self.committed_round(i))
            .min()
            .unwrap_or(0)
    }

    /// Commit latency of every command `node` committed: time from
    /// injection (via [`inject_commands`](Self::inject_commands)) to
    /// the node's commit event.
    pub fn command_latencies(&self, node: usize) -> Vec<SimDuration> {
        let mut out = Vec::new();
        for o in self.events_of(node) {
            if let NodeEvent::Committed { block } = &o.output {
                for cmd in block.block().payload().commands() {
                    if let Some(&t0) = self.injected_at.get(&cmd.digest()) {
                        out.push(o.at.saturating_since(t0));
                    }
                }
            }
        }
        out
    }

    /// `RoundFinished` durations (in rank order of occurrence) for
    /// `node`: `(round, duration, notarized_rank)`.
    pub fn round_stats(&self, node: usize) -> Vec<(Round, SimDuration, Rank)> {
        self.events_of(node)
            .filter_map(|o| match &o.output {
                NodeEvent::RoundFinished {
                    round,
                    duration,
                    notarized_rank,
                } => Some((*round, *duration, *notarized_rank)),
                _ => None,
            })
            .collect()
    }

    /// `(boundary round, epoch index)` of every epoch boundary `node`
    /// crossed, in order.
    pub fn epochs_entered(&self, node: usize) -> Vec<(Round, u64)> {
        self.events_of(node)
            .filter_map(|o| match &o.output {
                NodeEvent::EpochEntered { round, epoch } => Some((*round, *epoch)),
                _ => None,
            })
            .collect()
    }

    /// A snapshot of `node`'s artifact-pool counters.
    pub fn pool_stats(&self, node: usize) -> crate::pool::PoolStats {
        self.sim.node(node).core().pool().stats()
    }

    /// A snapshot of `node`'s crash-recovery counters.
    pub fn recovery_stats(&self, node: usize) -> crate::recovery::RecoveryStats {
        self.sim.node(node).core().recovery_stats()
    }

    /// The aggregate of the run so far: the engine's traffic totals
    /// plus every node's pool, recovery and gossip counters, read from
    /// the nodes now and merged.
    pub fn metrics_summary(&self) -> ClusterSummary {
        let mut summary = ClusterSummary {
            traffic: self.sim.metrics().summary(),
            ..ClusterSummary::default()
        };
        for node in self.sim.nodes() {
            summary.pool.merge(&node.core().pool().stats());
            summary.recovery.merge(&node.core().recovery_stats());
            summary.ingress.merge(&node.core().ingress_stats());
            if let Some(g) = node.gossip_counters() {
                summary.gossip.merge(&g);
            }
        }
        summary
    }

    /// Every flight-recorder event across the cluster: each node's
    /// consensus-phase events merged with the engine's lifecycle events
    /// (crash/restart), in global time order. The raw input of
    /// [`critical_path`](Self::critical_path) and of the Chrome-trace
    /// exporter ([`icc_telemetry::chrome_trace`]).
    pub fn flight_events(&self) -> Vec<icc_telemetry::SpanEvent> {
        let mut out = Vec::new();
        for i in 0..self.n() {
            out.extend(self.sim.node(i).core().telemetry().recorder.events());
        }
        out.extend(self.sim.engine_events());
        out.sort_by_key(|e| e.at_us);
        out
    }

    /// Cluster-wide protocol metrics: every node's
    /// [`CoreMetrics`](crate::telemetry::CoreMetrics) merged. The
    /// `finalization_latency_us` histogram here is what the experiment
    /// tables' p50/p90/p99 columns read.
    pub fn core_metrics(&self) -> crate::telemetry::CoreMetrics {
        let mut merged = crate::telemetry::CoreMetrics::default();
        for i in 0..self.n() {
            merged.merge(&self.sim.node(i).core().telemetry().metrics);
        }
        merged
    }

    /// Runs the critical-path analyzer over the cluster's flight
    /// events: which phase (beacon / proposal / notarization /
    /// finalization / catch-up) dominated each node-round, rolled up.
    pub fn critical_path(&self) -> icc_telemetry::CriticalPathSummary {
        icc_telemetry::critical_path(&self.flight_events())
    }

    /// Checks the atomic-broadcast safety property across all honest
    /// node pairs: for every round, all honest nodes that committed a
    /// block for that round committed the *same* block.
    ///
    /// The comparison is per round rather than positional because a
    /// node that fast-forwards via a certified catch-up package commits
    /// the package block without emitting `Committed` events for the
    /// state-synced rounds in between — its commit *sequence* is a
    /// subsequence of a full node's, but every round it did commit must
    /// still agree.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if an honest node committed two blocks
    /// for one round, or two honest nodes committed conflicting blocks
    /// for the same round — a protocol safety violation.
    pub fn assert_safety(&self) {
        use std::collections::BTreeMap;
        let honest = self.honest_nodes();
        let chains: Vec<(usize, BTreeMap<Round, Hash256>)> = honest
            .iter()
            .map(|&i| {
                let mut by_round = BTreeMap::new();
                for b in self.committed_chain(i) {
                    if let Some(prev) = by_round.insert(b.round(), b.hash()) {
                        assert_eq!(
                            prev,
                            b.hash(),
                            "SAFETY VIOLATION: node {i} committed two blocks in round {}",
                            b.round()
                        );
                    }
                }
                (i, by_round)
            })
            .collect();
        for (ai, a) in &chains {
            for (bi, b) in &chains {
                if ai >= bi {
                    continue;
                }
                for (round, ha) in a {
                    if let Some(hb) = b.get(round) {
                        assert_eq!(
                            ha, hb,
                            "SAFETY VIOLATION: nodes {ai} and {bi} disagree at round {round}"
                        );
                    }
                }
            }
        }
    }
}
