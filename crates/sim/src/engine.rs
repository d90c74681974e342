//! The discrete-event loop.
//!
//! [`Simulation`] owns the nodes, a virtual clock, and a priority queue
//! of pending events (message deliveries, timers, external inputs).
//! Executions are fully determined by the seed, the node logic, and the
//! configured delay model / policies.

use crate::delay::{DelayModel, FixedDelay};
use crate::fault::{FaultPlan, LifecycleEvent};
use crate::metrics::Metrics;
use crate::node::{Action, Context, Node, WireMessage};
use crate::policy::DeliveryPolicy;
use icc_telemetry::{FlightRecorder, SpanEvent, SpanKind};
use icc_types::{NodeIndex, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

enum EventKind<M, X> {
    Deliver {
        to: NodeIndex,
        from: NodeIndex,
        msg: M,
        /// Whether the copy traversed the network (false for the
        /// self-copy of a broadcast) — controls receive metering.
        on_wire: bool,
    },
    Timer {
        node: NodeIndex,
        tag: u64,
    },
    External {
        node: NodeIndex,
        input: X,
    },
    /// A fault-plan lifecycle transition: `up = false` crashes the node
    /// (subsequent events addressed to it are dropped), `up = true`
    /// restarts it (`on_restart` runs).
    Lifecycle {
        node: NodeIndex,
        up: bool,
    },
    /// A fault-plan departure: the node leaves the membership — it goes
    /// down like a crash and every other live node gets an
    /// `on_peer_departed` call (in index order).
    Depart {
        node: NodeIndex,
    },
}

struct QueuedEvent<M, X> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M, X>,
}

impl<M, X> PartialEq for QueuedEvent<M, X> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M, X> Eq for QueuedEvent<M, X> {}
impl<M, X> PartialOrd for QueuedEvent<M, X> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M, X> Ord for QueuedEvent<M, X> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One emitted output, stamped with the emitting node and time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRecord<O> {
    /// When the output was emitted.
    pub at: SimTime,
    /// The emitting node.
    pub node: NodeIndex,
    /// The output value.
    pub output: O,
}

/// Configures and constructs a [`Simulation`].
pub struct SimulationBuilder {
    seed: u64,
    delay: Box<dyn DelayModel>,
    policies: Vec<Box<dyn DeliveryPolicy>>,
    loss_prob: f64,
    rto: SimDuration,
    max_events: u64,
    fault_plan: FaultPlan,
}

impl SimulationBuilder {
    /// Starts a builder with the given RNG seed, a fixed 10 ms delay
    /// model, no loss, and no policies.
    pub fn new(seed: u64) -> SimulationBuilder {
        SimulationBuilder {
            seed,
            delay: Box::new(FixedDelay::new(SimDuration::from_millis(10))),
            policies: Vec::new(),
            loss_prob: 0.0,
            rto: SimDuration::from_millis(200),
            max_events: 500_000_000,
            fault_plan: FaultPlan::new(),
        }
    }

    /// Sets the network delay model.
    pub fn delay(mut self, model: impl DelayModel + 'static) -> Self {
        self.delay = Box::new(model);
        self
    }

    /// Sets the per-message loss probability and the retransmission
    /// timeout. Loss is modeled as extra delay (geometric number of
    /// retransmissions), preserving the paper's eventual-delivery
    /// assumption.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn loss(mut self, p: f64, rto: SimDuration) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability must be in [0, 1)"
        );
        self.loss_prob = p;
        self.rto = rto;
        self
    }

    /// Appends a delivery policy (applied in insertion order).
    pub fn policy(mut self, p: impl DeliveryPolicy + 'static) -> Self {
        self.policies.push(Box::new(p));
        self
    }

    /// Caps the number of events processed (a runaway-loop backstop).
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Installs a [`FaultPlan`] of scheduled crashes and restarts.
    ///
    /// A node scheduled down at time zero starts dead: its `on_start`
    /// never runs and everything addressed to it is dropped until (if
    /// ever) the plan brings it up.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Builds the simulation over the given nodes and runs each node's
    /// `on_start` at time zero.
    pub fn build<N: Node>(self, nodes: Vec<N>) -> Simulation<N> {
        let n = nodes.len();
        let mut sim = Simulation {
            nodes,
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            rng: StdRng::seed_from_u64(self.seed),
            delay: self.delay,
            policies: self.policies,
            loss_prob: self.loss_prob,
            rto: self.rto,
            alive: vec![true; n],
            metrics: Metrics::new(n),
            recorder: FlightRecorder::with_capacity(icc_telemetry::recorder::DEFAULT_CAPACITY),
            outputs: Vec::new(),
            events_processed: 0,
            max_events: self.max_events,
        };
        // Down events at time zero take effect before `on_start`: the
        // node begins the execution dead (the degenerate crash fault).
        // Everything else in the plan becomes a queued lifecycle event.
        for (at, node, ev) in self.fault_plan.into_events() {
            if at == SimTime::ZERO && ev == LifecycleEvent::Down {
                sim.alive[node.as_usize()] = false;
            } else if ev == LifecycleEvent::Depart {
                sim.push(at, EventKind::Depart { node });
            } else {
                sim.push(
                    at,
                    EventKind::Lifecycle {
                        node,
                        up: ev == LifecycleEvent::Up,
                    },
                );
            }
        }
        let mut actions = Vec::new();
        for i in 0..n {
            if !sim.alive[i] {
                continue;
            }
            let me = NodeIndex::new(i as u32);
            let mut ctx = Context {
                me,
                n,
                now: sim.now,
                alive: Some(&sim.alive),
                actions: &mut actions,
            };
            sim.nodes[i].on_start(&mut ctx);
            sim.apply_actions(me, &mut actions);
        }
        sim
    }
}

/// A running simulation of `N` nodes.
pub struct Simulation<N: Node> {
    nodes: Vec<N>,
    now: SimTime,
    queue: BinaryHeap<Reverse<QueuedEvent<N::Msg, N::External>>>,
    seq: u64,
    rng: StdRng,
    delay: Box<dyn DelayModel>,
    policies: Vec<Box<dyn DeliveryPolicy>>,
    loss_prob: f64,
    rto: SimDuration,
    alive: Vec<bool>,
    metrics: Metrics,
    /// Engine-level flight recorder: node lifecycle (crash/restart)
    /// span events, stamped with sim time. Consensus-phase events live
    /// in the nodes' own recorders; harnesses merge both streams.
    recorder: FlightRecorder,
    outputs: Vec<OutputRecord<N::Output>>,
    events_processed: u64,
    max_events: u64,
}

impl<N: Node> Simulation<N> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node's state (for assertions).
    pub fn node(&self, i: usize) -> &N {
        &self.nodes[i]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Accumulated traffic metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Resets traffic metrics (e.g. after a warm-up period, so a
    /// measurement window starts clean). Also clears the engine-level
    /// flight recorder.
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::new(self.nodes.len());
        self.recorder.clear();
    }

    /// Engine-level flight-recorder events (node lifecycle
    /// transitions), oldest first.
    pub fn engine_events(&self) -> Vec<SpanEvent> {
        self.recorder.events()
    }

    /// Outputs emitted so far, in emission order.
    pub fn outputs(&self) -> &[OutputRecord<N::Output>] {
        &self.outputs
    }

    /// Removes and returns all outputs emitted so far.
    pub fn take_outputs(&mut self) -> Vec<OutputRecord<N::Output>> {
        std::mem::take(&mut self.outputs)
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The time of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(e)| e.at)
    }

    /// Schedules an external input for `node` at absolute time `at`
    /// (clamped to the current time if in the past).
    pub fn schedule_external(&mut self, at: SimTime, node: NodeIndex, input: N::External) {
        let at = at.max(self.now);
        self.push(at, EventKind::External { node, input });
    }

    /// Whether `node` is currently up (not crashed by the fault plan).
    pub fn is_alive(&self, node: NodeIndex) -> bool {
        self.alive.get(node.as_usize()).copied().unwrap_or(false)
    }

    /// Schedules a membership departure of `node` at absolute time `at`
    /// (clamped to now), equivalent to
    /// [`FaultPlan::depart_at`](crate::FaultPlan::depart_at).
    pub fn schedule_depart(&mut self, at: SimTime, node: NodeIndex) {
        let at = at.max(self.now);
        self.push(at, EventKind::Depart { node });
    }

    /// Processes the single next event. Returns its time, or `None` if
    /// the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if the configured `max_events` cap is exceeded — that
    /// indicates a protocol livelock or a missing stop condition in the
    /// harness.
    pub fn step(&mut self) -> Option<SimTime> {
        let Reverse(event) = self.queue.pop()?;
        self.events_processed += 1;
        assert!(
            self.events_processed <= self.max_events,
            "simulation exceeded {} events — livelock or missing deadline",
            self.max_events
        );
        debug_assert!(event.at >= self.now, "time went backwards");
        self.now = event.at;
        let mut actions = Vec::new();
        match event.kind {
            EventKind::Deliver {
                to,
                from,
                msg,
                on_wire,
            } => {
                // A crashed process loses traffic addressed to it: the
                // message is neither metered nor handled. (Unlike the
                // partition policies, which only *delay*, a crash really
                // drops — the node must recover the information through
                // a catch-up protocol after restarting.)
                if !self.alive[to.as_usize()] {
                    return Some(self.now);
                }
                if on_wire {
                    self.metrics
                        .node_mut(to.as_usize())
                        .record_recv(msg.wire_bytes());
                }
                let mut ctx = Context {
                    me: to,
                    n: self.nodes.len(),
                    now: self.now,
                    alive: Some(&self.alive),
                    actions: &mut actions,
                };
                self.nodes[to.as_usize()].on_message(&mut ctx, from, msg);
                self.apply_actions(to, &mut actions);
            }
            EventKind::Timer { node, tag } => {
                // Timers die with the process that set them.
                if !self.alive[node.as_usize()] {
                    return Some(self.now);
                }
                let mut ctx = Context {
                    me: node,
                    n: self.nodes.len(),
                    now: self.now,
                    alive: Some(&self.alive),
                    actions: &mut actions,
                };
                self.nodes[node.as_usize()].on_timer(&mut ctx, tag);
                self.apply_actions(node, &mut actions);
            }
            EventKind::External { node, input } => {
                if !self.alive[node.as_usize()] {
                    return Some(self.now);
                }
                let mut ctx = Context {
                    me: node,
                    n: self.nodes.len(),
                    now: self.now,
                    alive: Some(&self.alive),
                    actions: &mut actions,
                };
                self.nodes[node.as_usize()].on_external(&mut ctx, input);
                self.apply_actions(node, &mut actions);
            }
            EventKind::Lifecycle { node, up } => {
                let i = node.as_usize();
                if up {
                    if !self.alive[i] {
                        self.alive[i] = true;
                        self.recorder.record(SpanEvent {
                            at_us: self.now.as_micros(),
                            node: node.get(),
                            round: 0,
                            kind: SpanKind::NodeUp,
                        });
                        let mut ctx = Context {
                            me: node,
                            n: self.nodes.len(),
                            now: self.now,
                            alive: Some(&self.alive),
                            actions: &mut actions,
                        };
                        self.nodes[i].on_restart(&mut ctx);
                        self.apply_actions(node, &mut actions);
                    }
                } else if self.alive[i] {
                    self.alive[i] = false;
                    self.recorder.record(SpanEvent {
                        at_us: self.now.as_micros(),
                        node: node.get(),
                        round: 0,
                        kind: SpanKind::NodeDown,
                    });
                    self.nodes[i].on_crash();
                }
            }
            EventKind::Depart { node } => {
                let i = node.as_usize();
                if self.alive[i] {
                    self.alive[i] = false;
                    self.recorder.record(SpanEvent {
                        at_us: self.now.as_micros(),
                        node: node.get(),
                        round: 0,
                        kind: SpanKind::NodeDown,
                    });
                    self.nodes[i].on_crash();
                }
                // Survivors evict the departed peer, in index order.
                for j in 0..self.nodes.len() {
                    if j == i || !self.alive[j] {
                        continue;
                    }
                    let me = NodeIndex::new(j as u32);
                    let mut ctx = Context {
                        me,
                        n: self.nodes.len(),
                        now: self.now,
                        alive: Some(&self.alive),
                        actions: &mut actions,
                    };
                    self.nodes[j].on_peer_departed(&mut ctx, node);
                    self.apply_actions(me, &mut actions);
                }
            }
        }
        Some(self.now)
    }

    /// Processes events up to and including time `deadline`, then sets
    /// the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs until no events remain. Only terminates for protocols that
    /// quiesce; consensus nodes generally do not — use [`run_until`].
    ///
    /// [`run_until`]: Simulation::run_until
    pub fn run_until_idle(&mut self) {
        while self.step().is_some() {}
    }

    fn push(&mut self, at: SimTime, kind: EventKind<N::Msg, N::External>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent { at, seq, kind }));
    }

    fn delivery_time(&mut self, from: NodeIndex, to: NodeIndex) -> SimTime {
        let base = self.delay.delay(from, to, &mut self.rng);
        let mut extra = SimDuration::ZERO;
        if self.loss_prob > 0.0 {
            while self.rng.gen::<f64>() < self.loss_prob {
                extra += self.rto;
            }
        }
        let mut at = self.now + base + extra;
        for p in &mut self.policies {
            at = p.deliver_at(from, to, self.now, at);
        }
        at
    }

    fn apply_actions(&mut self, me: NodeIndex, actions: &mut Vec<Action<N::Msg, N::Output>>) {
        let n = self.nodes.len();
        for action in actions.drain(..) {
            match action {
                Action::Broadcast(msg) => {
                    self.metrics.node_mut(me.as_usize()).record_send(
                        msg.kind(),
                        n as u64,
                        n as u64 - 1,
                        msg.wire_bytes(),
                    );
                    // Self-copy: immediate, not on the wire.
                    self.push(
                        self.now,
                        EventKind::Deliver {
                            to: me,
                            from: me,
                            msg: msg.clone(),
                            on_wire: false,
                        },
                    );
                    for i in 0..n {
                        let to = NodeIndex::new(i as u32);
                        if to == me {
                            continue;
                        }
                        let at = self.delivery_time(me, to);
                        self.push(
                            at,
                            EventKind::Deliver {
                                to,
                                from: me,
                                msg: msg.clone(),
                                on_wire: true,
                            },
                        );
                    }
                }
                Action::Send(to, msg) => {
                    let on_wire = to != me;
                    self.metrics.node_mut(me.as_usize()).record_send(
                        msg.kind(),
                        1,
                        u64::from(on_wire),
                        msg.wire_bytes(),
                    );
                    let at = if on_wire {
                        self.delivery_time(me, to)
                    } else {
                        self.now
                    };
                    self.push(
                        at,
                        EventKind::Deliver {
                            to,
                            from: me,
                            msg,
                            on_wire,
                        },
                    );
                }
                Action::SetTimer { after, tag } => {
                    self.push(self.now + after, EventKind::Timer { node: me, tag });
                }
                Action::Output(output) => {
                    self.outputs.push(OutputRecord {
                        at: self.now,
                        node: me,
                        output,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::UniformDelay;
    use crate::policy::AsyncWindow;

    /// Echo node: node 0 broadcasts at start; everyone outputs what they
    /// receive; receivers reply once directly to the sender.
    struct Echo {
        replied: bool,
    }

    impl Node for Echo {
        type Msg = Vec<u8>;
        type External = Vec<u8>;
        type Output = (NodeIndex, usize);

        fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
            if ctx.me() == NodeIndex::new(0) {
                ctx.broadcast(vec![0u8; 100]);
            }
        }

        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Self::Msg, Self::Output>,
            from: NodeIndex,
            msg: Self::Msg,
        ) {
            ctx.output((from, msg.len()));
            if !self.replied && from != ctx.me() {
                self.replied = true;
                ctx.send(from, vec![1u8; 10]);
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, tag: u64) {
            ctx.output((ctx.me(), tag as usize));
        }

        fn on_external(
            &mut self,
            ctx: &mut Context<'_, Self::Msg, Self::Output>,
            input: Self::External,
        ) {
            ctx.broadcast(input);
        }
    }

    fn echo_sim(n: usize, seed: u64) -> Simulation<Echo> {
        SimulationBuilder::new(seed)
            .delay(FixedDelay::new(SimDuration::from_millis(10)))
            .build((0..n).map(|_| Echo { replied: false }).collect())
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        let mut sim = echo_sim(4, 1);
        sim.run_until_idle();
        let broadcast_outputs: Vec<_> =
            sim.outputs().iter().filter(|o| o.output.1 == 100).collect();
        assert_eq!(broadcast_outputs.len(), 4);
        // Self-delivery at t=0; remote at t=10ms.
        assert_eq!(broadcast_outputs[0].at, SimTime::ZERO);
        for o in &broadcast_outputs[1..] {
            assert_eq!(o.at, SimTime::ZERO + SimDuration::from_millis(10));
        }
    }

    #[test]
    fn metrics_follow_both_conventions() {
        let mut sim = echo_sim(4, 1);
        sim.run_until_idle();
        let m = &sim.metrics().per_node()[0];
        // Broadcast counts n = 4 messages and (n-1) * 100 = 300 wire
        // bytes; node 0 additionally replies once (10 bytes) to the
        // first reply it receives.
        assert_eq!(m.sent_messages, 5);
        assert_eq!(m.sent_bytes, 310);
        // Three repliers sent 10 bytes each back to node 0.
        assert_eq!(m.recv_bytes, 30);
        // Node 2 replied but was not replied to: 1 msg, 10 bytes sent;
        // only the 100-byte broadcast received.
        let r = &sim.metrics().per_node()[2];
        assert_eq!(r.sent_messages, 1);
        assert_eq!(r.sent_bytes, 10);
        assert_eq!(r.recv_bytes, 100);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = SimulationBuilder::new(seed)
                .delay(UniformDelay::new(
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(50),
                ))
                .build((0..5).map(|_| Echo { replied: false }).collect());
            sim.run_until_idle();
            sim.outputs()
                .iter()
                .map(|o| (o.at, o.node, o.output))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn timers_fire_at_the_right_time() {
        struct TimerNode;
        impl Node for TimerNode {
            type Msg = u32;
            type External = ();
            type Output = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u32, u64>) {
                ctx.set_timer(SimDuration::from_millis(30), 42);
                ctx.set_timer(SimDuration::from_millis(10), 43);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32, u64>, _: NodeIndex, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32, u64>, tag: u64) {
                ctx.output(tag);
            }
        }
        let mut sim = SimulationBuilder::new(0).build(vec![TimerNode]);
        sim.run_until_idle();
        assert_eq!(sim.outputs()[0].output, 43);
        assert_eq!(
            sim.outputs()[0].at,
            SimTime::ZERO + SimDuration::from_millis(10)
        );
        assert_eq!(sim.outputs()[1].output, 42);
        assert_eq!(
            sim.outputs()[1].at,
            SimTime::ZERO + SimDuration::from_millis(30)
        );
    }

    #[test]
    fn external_injection() {
        let mut sim = echo_sim(3, 1);
        sim.schedule_external(
            SimTime::ZERO + SimDuration::from_secs(1),
            NodeIndex::new(2),
            vec![7u8; 55],
        );
        sim.run_until_idle();
        let hits: Vec<_> = sim.outputs().iter().filter(|o| o.output.1 == 55).collect();
        assert_eq!(hits.len(), 3);
        assert!(hits
            .iter()
            .all(|o| o.at >= SimTime::ZERO + SimDuration::from_secs(1)));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = echo_sim(3, 1);
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(5));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(5));
        // Remote deliveries (at 10ms) have not happened yet: only the
        // self-delivery output exists.
        assert_eq!(sim.outputs().len(), 1);
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim.outputs().len() > 1);
    }

    #[test]
    fn async_window_policy_delays_delivery() {
        let mut sim = SimulationBuilder::new(1)
            .delay(FixedDelay::new(SimDuration::from_millis(10)))
            .policy(AsyncWindow {
                from: SimTime::ZERO,
                until: SimTime::ZERO + SimDuration::from_secs(2),
            })
            .build((0..3).map(|_| Echo { replied: false }).collect());
        sim.run_until_idle();
        let remote: Vec<_> = sim
            .outputs()
            .iter()
            .filter(|o| o.output.1 == 100 && o.node != NodeIndex::new(0))
            .collect();
        assert!(remote
            .iter()
            .all(|o| o.at >= SimTime::ZERO + SimDuration::from_secs(2)));
    }

    #[test]
    fn loss_adds_retransmission_delay_but_delivers() {
        let mut sim = SimulationBuilder::new(3)
            .delay(FixedDelay::new(SimDuration::from_millis(10)))
            .loss(0.5, SimDuration::from_millis(100))
            .build((0..2).map(|_| Echo { replied: false }).collect());
        sim.run_until_idle();
        // Both the broadcast and the reply still arrive eventually.
        assert!(sim
            .outputs()
            .iter()
            .any(|o| o.output.1 == 100 && o.node == NodeIndex::new(1)));
        assert!(sim
            .outputs()
            .iter()
            .any(|o| o.output.1 == 10 && o.node == NodeIndex::new(0)));
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn max_events_backstop() {
        // Two nodes ping-pong forever.
        struct PingPong;
        impl Node for PingPong {
            type Msg = u32;
            type External = ();
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, u32, ()>) {
                ctx.broadcast(0);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u32, ()>, _: NodeIndex, m: u32) {
                ctx.broadcast(m + 1);
            }
        }
        let mut sim = SimulationBuilder::new(0)
            .max_events(1000)
            .build(vec![PingPong, PingPong]);
        sim.run_until_idle();
    }

    #[test]
    fn fault_plan_drops_traffic_while_down_and_restarts() {
        use crate::fault::FaultPlan;

        /// Counts deliveries; outputs a marker on restart.
        struct Probe {
            got: u32,
        }
        impl Node for Probe {
            type Msg = u32;
            type External = ();
            type Output = &'static str;
            fn on_message(
                &mut self,
                ctx: &mut Context<'_, u32, &'static str>,
                _: NodeIndex,
                _: u32,
            ) {
                self.got += 1;
                ctx.output("msg");
            }
            fn on_external(&mut self, ctx: &mut Context<'_, u32, &'static str>, _: ()) {
                ctx.broadcast(7);
            }
            fn on_crash(&mut self) {
                self.got = 0; // volatile state is lost
            }
            fn on_restart(&mut self, ctx: &mut Context<'_, u32, &'static str>) {
                ctx.output("restarted");
            }
        }

        let ms = SimDuration::from_millis;
        let plan = FaultPlan::new().crash_between(
            NodeIndex::new(1),
            SimTime::ZERO + ms(50),
            SimTime::ZERO + ms(150),
        );
        let mut sim = SimulationBuilder::new(1)
            .delay(FixedDelay::new(ms(10)))
            .fault_plan(plan)
            .build(vec![Probe { got: 0 }, Probe { got: 0 }]);
        // While node 1 is down, node 0's broadcast at t=100 must not reach it.
        sim.schedule_external(SimTime::ZERO + ms(100), NodeIndex::new(0), ());
        // Messages sent to node 1 while down are dropped, not queued.
        assert!(sim.is_alive(NodeIndex::new(1)));
        sim.run_until(SimTime::ZERO + ms(120));
        assert!(!sim.is_alive(NodeIndex::new(1)));
        assert_eq!(sim.node(1).got, 0);
        assert_eq!(sim.metrics().per_node()[1].recv_messages, 0);
        sim.run_until(SimTime::ZERO + ms(200));
        assert!(sim.is_alive(NodeIndex::new(1)));
        let restarted: Vec<_> = sim
            .outputs()
            .iter()
            .filter(|o| o.output == "restarted")
            .collect();
        assert_eq!(restarted.len(), 1);
        assert_eq!(restarted[0].node, NodeIndex::new(1));
        assert_eq!(restarted[0].at, SimTime::ZERO + ms(150));
        // A broadcast after the restart is delivered again.
        sim.schedule_external(SimTime::ZERO + ms(210), NodeIndex::new(0), ());
        sim.run_until(SimTime::ZERO + ms(300));
        assert_eq!(sim.node(1).got, 1);
    }

    #[test]
    fn down_at_zero_skips_on_start() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::new().crash_at(NodeIndex::new(0), SimTime::ZERO);
        let mut sim = SimulationBuilder::new(1)
            .delay(FixedDelay::new(SimDuration::from_millis(10)))
            .fault_plan(plan)
            .build((0..3).map(|_| Echo { replied: false }).collect());
        assert!(!sim.is_alive(NodeIndex::new(0)));
        sim.run_until_idle();
        // Node 0 (the broadcaster) never started: nothing was sent at all.
        assert_eq!(sim.outputs().len(), 0);
        assert_eq!(sim.metrics().total_bytes(), 0);
    }

    #[test]
    fn lifecycle_transitions_are_flight_recorded() {
        use crate::fault::FaultPlan;
        use icc_telemetry::SpanKind;
        let ms = SimDuration::from_millis;
        let plan = FaultPlan::new().crash_between(
            NodeIndex::new(1),
            SimTime::ZERO + ms(50),
            SimTime::ZERO + ms(150),
        );
        let mut sim = SimulationBuilder::new(1)
            .delay(FixedDelay::new(ms(10)))
            .fault_plan(plan)
            .build((0..2).map(|_| Echo { replied: false }).collect());
        sim.run_until(SimTime::ZERO + ms(200));
        let evs = sim.engine_events();
        let kinds: Vec<(u32, SpanKind, u64)> =
            evs.iter().map(|e| (e.node, e.kind, e.at_us)).collect();
        assert_eq!(
            kinds,
            vec![
                (1, SpanKind::NodeDown, 50_000),
                (1, SpanKind::NodeUp, 150_000),
            ]
        );
    }

    #[test]
    fn reset_metrics_clears_counters() {
        let mut sim = echo_sim(3, 1);
        sim.run_until_idle();
        assert!(sim.metrics().total_bytes() > 0);
        sim.reset_metrics();
        assert_eq!(sim.metrics().total_bytes(), 0);
        assert_eq!(sim.metrics().per_node().len(), 3);
    }
}
