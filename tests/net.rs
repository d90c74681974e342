//! Backend parity: the same `GossipNode` (ICC1 gossip + consensus
//! core) reaches consensus unchanged over the discrete-event simulator
//! and over real kernel TCP sockets — the whole point of the sans-IO
//! split. The simulator is exercised by `icc1_gossip.rs`; these tests
//! cover the wall-clock path, down to four `icc-node` replicas in one
//! process.

#[path = "../crates/telemetry/tests/grammar/mod.rs"]
mod grammar;

use icc_core::byzantine::Behavior;
use icc_core::cluster::{Cluster, ClusterBuilder, CoreAccess};
use icc_core::consensus::ConsensusCore;
use icc_core::delays::StaticDelays;
use icc_core::events::NodeEvent;
use icc_core::keys::generate_keys;
use icc_crypto::Hash256;
use icc_erasure::{icc2_cluster, Icc2Config};
use icc_gossip::{icc0_cluster, GossipConfig, GossipNode, Recipe};
use icc_net::{ClusterSpec, NetOptions, TcpTransport};
use icc_node::{parse_commit, Replica, RunReport, Settings};
use icc_sim::engine::OutputRecord;
use icc_sim::runtime::drive;
use icc_sim::Node;
use icc_types::{Command, NodeIndex, SimDuration, SubnetConfig};
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const N: usize = 4;

fn gossip_nodes(seed: u64) -> Vec<GossipNode> {
    let recipe = Recipe::shipped(N).with_config(GossipConfig::inline_small_blocks());
    generate_keys(SubnetConfig::new(N), seed)
        .into_iter()
        .map(|k| {
            recipe.node(ConsensusCore::new(
                k,
                // Paced well below localhost latency so a
                // 2-wall-second run yields plenty of rounds.
                StaticDelays::new(SimDuration::from_millis(200), SimDuration::from_millis(20)),
                Behavior::Honest,
            ))
        })
        .collect()
}

/// Rebuilds per-node committed chains and asserts agreement on the
/// common prefix; returns the shortest chain length.
fn assert_chains_agree(outputs: &[OutputRecord<NodeEvent>]) -> usize {
    let mut chains: Vec<Vec<Hash256>> = vec![Vec::new(); N];
    for o in outputs {
        if let NodeEvent::Committed { block } = &o.output {
            chains[o.node.as_usize()].push(block.hash());
        }
    }
    let min_len = chains.iter().map(Vec::len).min().unwrap();
    for c in &chains[1..] {
        assert_eq!(&c[..min_len], &chains[0][..min_len], "chains diverged");
    }
    min_len
}

#[test]
fn gossip_cluster_over_tcp_backend() {
    // Bind `:0` listeners first so the spec can name real ports, then
    // hand each listener to its transport (no bind race).
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    let spec = ClusterSpec::from_addrs(
        listeners
            .iter()
            .map(|l| l.local_addr().expect("bound"))
            .collect(),
    )
    .expect("spec");

    let (out_tx, out_rx) = std::sync::mpsc::channel::<OutputRecord<NodeEvent>>();
    let mut handles = Vec::new();
    let mut threads = Vec::new();
    let start = Instant::now();
    for (i, (node, listener)) in gossip_nodes(42).into_iter().zip(listeners).enumerate() {
        let me = NodeIndex::new(i as u32);
        let transport: TcpTransport<_, _> =
            TcpTransport::with_listener(listener, &spec, me, NetOptions::default());
        handles.push(transport.handle());
        let out = out_tx.clone();
        threads.push(std::thread::spawn(move || {
            drive(node, transport, start, |rec| {
                let _ = out.send(rec);
            })
        }));
    }
    drop(out_tx);

    for (i, h) in handles.iter().enumerate() {
        for j in 0..20 {
            assert!(h.inject(Command::new(format!("tcp {i} #{j}").into_bytes())));
        }
    }
    std::thread::sleep(Duration::from_secs(2));
    for h in &handles {
        h.stop();
    }
    let nodes: Vec<GossipNode> = threads
        .into_iter()
        .map(|t| t.join().expect("driver thread"))
        .collect();
    let outputs: Vec<OutputRecord<NodeEvent>> = out_rx.into_iter().collect();

    let blocks = assert_chains_agree(&outputs);
    assert!(blocks > 0, "TCP backend committed no blocks");
    // Every replica's core advanced — liveness under the real sockets.
    for (i, node) in nodes.iter().enumerate() {
        assert!(
            node.core().committed_round().get() > 0,
            "replica {i} never committed over TCP"
        );
    }
}

// ---------------------------------------------------------------------
// The shipped replica recipe: four `icc-node` replicas in one process.
// ---------------------------------------------------------------------

/// A stdout stand-in the test can read while a replica still writes it.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Sink {
    fn lines(&self) -> Vec<String> {
        let bytes = self.0.lock().unwrap();
        String::from_utf8_lossy(&bytes)
            .lines()
            .map(str::to_string)
            .collect()
    }
}

/// `/metrics` of node 0 of a simulated cluster after two seconds,
/// through the render a replica process serves.
fn simulated_metrics<N>(mut cluster: Cluster<N>) -> String
where
    N: Node<External = Command, Output = NodeEvent> + CoreAccess,
{
    cluster.run_for(SimDuration::from_secs(2));
    let node = cluster.sim.node(0);
    icc_node::render_metrics(node, &icc_node::families(node, None), &[])
}

/// A four-node cluster on the shipped recipe.
fn icc1_metrics() -> String {
    simulated_metrics(Recipe::shipped(N).cluster(ClusterBuilder::new(N).seed(43)))
}

/// ICC0 and ICC2 nodes go through the same render as ICC1's: ICC0
/// declares ICC1's families; ICC2, whose node keeps no gossip layer,
/// the same less `icc_replica_gossip` and the gossip footprint gauges.
/// Every render passes the grammar.
#[test]
fn every_protocol_exports_through_the_one_render() {
    let builder = || ClusterBuilder::new(N).seed(43);
    let icc0 = simulated_metrics(icc0_cluster(builder()));
    let icc2 = simulated_metrics(icc2_cluster(builder(), Icc2Config::default()));
    let icc1 = icc1_metrics();
    for text in [&icc0, &icc1, &icc2] {
        grammar::validate(text);
        assert!(text.contains("icc_replica_blocks_committed_total "));
    }
    let mut icc1 = families_less_transport(&icc1);
    assert_eq!(families_less_transport(&icc0), icc1);
    icc1.retain(|n| *n != "icc_replica_gossip" && !n.starts_with("icc_gossip_"));
    assert_eq!(families_less_transport(&icc2), icc1);
}

/// The metric families an exposition declares, less the transport's
/// (`icc_replica_net`, `icc_replica_link_*`), which only a process has.
fn families_less_transport(text: &str) -> BTreeSet<&str> {
    let declared = text.lines().filter_map(|l| l.strip_prefix("# TYPE "));
    let names = declared.filter_map(|l| l.split(' ').next());
    names
        .filter(|n| *n != "icc_replica_net" && !n.starts_with("icc_replica_link_"))
        .collect()
}

/// The replica the `replica` binary runs — keys, core, durable store,
/// overlay, gossip config, admin plane, run loop and REPORT — four times
/// over loopback TCP: the commits agree round by round, each REPORT
/// line parses back to the report `run` returned, and the admin
/// replica serves `/metrics` mid-run. That scrape and a simulated
/// node's render both pass the text-format grammar and declare the same
/// families, the transport's aside.
#[test]
fn icc_node_replicas_agree_over_tcp() {
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    let spec = ClusterSpec::from_addrs(
        listeners
            .iter()
            .map(|l| l.local_addr().expect("bound"))
            .collect(),
    )
    .expect("spec");
    let data = std::env::temp_dir().join(format!("icc_node_replicas_{}", std::process::id()));
    let stop = AtomicBool::new(false);
    let sinks: Vec<Sink> = (0..N).map(|_| Sink::default()).collect();
    let commits = |sink: &Sink| {
        sink.lines()
            .iter()
            .filter(|l| parse_commit(l).is_some())
            .count()
    };

    let reports: Vec<RunReport> = std::thread::scope(|scope| {
        let runs: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let settings = Settings {
                    me: i as u32,
                    // An upper bound: the test stops the run itself.
                    secs: 60,
                    seed: 43,
                    data_dir: Some(data.join(format!("replica-{i}"))),
                    admin_port: (i == 0).then_some(0),
                    ..Settings::default()
                };
                let replica = Replica::build(N, settings).expect("build replica");
                let me = NodeIndex::new(i as u32);
                let transport =
                    TcpTransport::with_listener(listener, &spec, me, NetOptions::default());
                let (stop, mut out) = (&stop, sinks[i].clone());
                scope.spawn(move || replica.run(transport, stop, &mut out).expect("run"))
            })
            .collect();

        // Mid-run: every replica commits, and the admin replica serves
        // its consensus gauges.
        let deadline = Instant::now() + Duration::from_secs(30);
        while sinks.iter().any(|s| commits(s) < 5) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
        }
        let admin = sinks[0]
            .lines()
            .iter()
            .find_map(|l| l.strip_prefix("ADMIN ").map(str::to_string));
        let admin = admin.expect("replica 0 announced its admin endpoint");
        let (code, body) = icc_telemetry::http_get(&admin, "/metrics", Duration::from_secs(5))
            .expect("scrape /metrics");
        stop.store(true, Ordering::SeqCst);
        assert_eq!(code, 200);
        assert!(body.contains("icc_replica_committed_round"), "{body}");
        let simulated = icc1_metrics();
        grammar::validate(&body);
        grammar::validate(&simulated);
        assert_eq!(
            families_less_transport(&body),
            families_less_transport(&simulated)
        );
        runs.into_iter()
            .map(|r| r.join().expect("replica thread"))
            .collect()
    });
    let _ = std::fs::remove_dir_all(&data);

    let mut by_round: HashMap<u64, String> = HashMap::new();
    for (i, (report, sink)) in reports.iter().zip(&sinks).enumerate() {
        let lines = sink.lines();
        assert!(
            lines[0].starts_with("READY "),
            "replica {i}: {:?}",
            lines[0]
        );
        for (round, hash) in lines.iter().filter_map(|l| parse_commit(l)) {
            let seen = by_round.entry(round).or_insert_with(|| hash.to_string());
            assert_eq!(
                seen, hash,
                "replica {i} committed another block in round {round}"
            );
        }
        assert!(
            commits(sink) >= 5,
            "replica {i} committed {} blocks",
            commits(sink)
        );
        // The REPORT line it printed reads back as what `run` returned.
        let printed = lines.iter().find_map(|l| RunReport::parse(l));
        assert_eq!(printed.as_ref(), Some(report), "replica {i}");
        assert_eq!(report.me, i as u64);
        assert!(!report.halted, "replica {i} halted");
        assert!(
            report.blocks >= 5 && report.committed_round >= 5,
            "{report:?}"
        );
        assert!(
            report.get("storage", "records_appended") > Some(0),
            "{report:?}"
        );
        let keys: Vec<&str> = report.families.iter().map(|(k, _)| k.as_str()).collect();
        let all = [
            "net",
            "pool",
            "gossip",
            "storage",
            "anomalies",
            "recovery",
            "ingress",
        ];
        assert_eq!(keys, all, "replica {i}");
    }
}

// ---------------------------------------------------------------------
// Peer lifecycle: eviction of departed members from the gossip layer.
// ---------------------------------------------------------------------

/// Directional throttle for the eviction scenario below: node 0 is cut
/// off in both directions (everything it sends, and everything sent to
/// it, is held until `heal`) — *except* that node 3's messages reach it
/// normally for the first `advert_window`. Node 0 therefore accumulates
/// body requests whose **only** advertiser is node 3.
struct LopsidedCut {
    heal: icc_types::SimTime,
    advert_window: icc_types::SimTime,
}

impl icc_sim::policy::DeliveryPolicy for LopsidedCut {
    fn deliver_at(
        &mut self,
        from: NodeIndex,
        to: NodeIndex,
        sent: icc_types::SimTime,
        tentative: icc_types::SimTime,
    ) -> icc_types::SimTime {
        let zero = NodeIndex::new(0);
        let three = NodeIndex::new(3);
        if from == zero || (to == zero && !(from == three && sent < self.advert_window)) {
            tentative.max(self.heal)
        } else {
            tentative
        }
    }
}

/// A body whose only advertiser *departed the membership* still
/// arrives. Node 0's requests to node 3 are never answered, and nothing
/// waits on them: the pull that ends its outage goes only to peers that
/// are up, and they hold every body node 3 advertised.
#[test]
fn departed_peer_is_evicted_from_retry_state() {
    use icc_sim::delay::FixedDelay;
    use icc_sim::FaultPlan;

    let ms = |v: u64| SimDuration::from_millis(v);
    let at = |v: u64| icc_types::SimTime::ZERO + ms(v);

    // The shipped config sends every proposal advert → request →
    // deliver, so the cut-off node is guaranteed to build up pending
    // requests.
    let mut cluster = Recipe::shipped(N).cluster(
        ClusterBuilder::new(N)
            .seed(5)
            .network(FixedDelay::new(ms(10)))
            .protocol_delays(ms(60), SimDuration::ZERO)
            .policy(LopsidedCut {
                heal: at(3500),
                advert_window: at(500),
            })
            // Node 3 leaves the membership mid-cut, while node 0 still
            // owes it body requests.
            .fault_plan(FaultPlan::new().depart_at(NodeIndex::new(3), at(1500))),
    );

    // Before the departure: node 0 has asked for bodies that only node
    // 3 advertised (its requests out never arrive), and committed none.
    let requests = |c: &icc_core::cluster::Cluster<GossipNode>| {
        let sent = &c.sim.metrics().per_node()[0].sent_by_kind;
        sent.get("request").map_or(0, |(msgs, _)| *msgs)
    };
    cluster.run_until(at(1400));
    assert!(
        requests(&cluster) > 0,
        "scenario must make node 0 ask node 3 for bodies before the depart"
    );
    assert_eq!(
        cluster.committed_round(0),
        0,
        "the cut-off node must not have committed past genesis yet"
    );

    // The cluster heals and node 0 rejoins by pulling from the
    // survivors (exactly the n − t quorum), which resume finalizing.
    cluster.run_until(at(8000));
    cluster.assert_safety();
    assert!(cluster.sim.node(0).gossip_counters().pulls >= 1);
    assert!(
        cluster.committed_round(0) > 10,
        "cut-off node must catch up after the heal (got {})",
        cluster.committed_round(0)
    );
    let frontier = cluster.committed_round(1);
    assert!(
        frontier - cluster.committed_round(0) <= 3,
        "node 0 at {} of {frontier}",
        cluster.committed_round(0)
    );
}
