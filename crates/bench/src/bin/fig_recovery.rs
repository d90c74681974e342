//! **E14 — crash–recovery and certified catch-up** (companion to E6
//! robustness; paper §1 "parties that have simply crashed" and the
//! production IC's catch-up packages).
//!
//! Three churn scenarios over ICC1 (the catch-up protocol lives in the
//! gossip layer), plus an adversarial variant:
//!
//! * **crash-restart** — one replica of n = 4 is down for a multi-second
//!   window, restarts from its checkpoint + WAL, and fast-forwards via a
//!   certified catch-up package instead of replaying the missed rounds;
//! * **churn** — a rolling wave of restarts across n = 7 (one node down
//!   at a time, quorum never lost);
//! * **partition-heal** — a node is partitioned (messages held, not
//!   dropped) and on healing races package-based fast-forward against
//!   flood replay;
//! * **forged-servers** — two Byzantine peers serve packages with forged
//!   finalization certificates; the restarted replica must reject them
//!   (counted) and still catch up from the honest peer.
//!
//! Run with `--smoke` for the short deterministic CI variant (same
//! scenarios, shorter windows, hard assertions only).
//!
//! ```text
//! cargo run --release -p icc-bench --bin fig_recovery [-- --smoke]
//! ```

use icc_bench::{fmt_f, print_table};
use icc_core::cluster::ClusterBuilder;
use icc_gossip::{GossipConfig, GossipNode, Overlay};
use icc_sim::delay::FixedDelay;
use icc_sim::policy::Partition;
use icc_sim::FaultPlan;
use icc_types::{NodeIndex, SimDuration, SimTime};
use std::cell::Cell;
use std::sync::Arc;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

struct Scenario {
    name: &'static str,
    n: usize,
    seed: u64,
    plan: FaultPlan,
    partition: Option<Partition>,
    /// Nodes serving forged catch-up packages.
    forgers: Vec<usize>,
    secs: u64,
    /// Nodes expected to restart (hard-asserted).
    expect_restarts: u64,
    /// Whether at least one forged package must be rejected.
    expect_rejections: bool,
}

fn scenarios(smoke: bool) -> Vec<Scenario> {
    // Smoke halves every window; the qualitative shape is unchanged.
    let s = if smoke { 1 } else { 2 };
    let mut churn_plan = FaultPlan::new();
    for i in 0..3u32 {
        let down = 1000 + 1200 * s * u64::from(i);
        churn_plan = churn_plan.crash_between(NodeIndex::new(i), at(down), at(down + 1000 * s));
    }
    vec![
        Scenario {
            name: "crash-restart",
            n: 4,
            seed: 71,
            plan: FaultPlan::new().crash_between(NodeIndex::new(3), at(1000), at(1000 + 1500 * s)),
            partition: None,
            forgers: vec![],
            secs: 3 + 2 * s,
            expect_restarts: 1,
            expect_rejections: false,
        },
        Scenario {
            name: "churn",
            n: 7,
            seed: 72,
            plan: churn_plan,
            partition: None,
            forgers: vec![],
            secs: 4 + 4 * s,
            expect_restarts: 3,
            expect_rejections: false,
        },
        Scenario {
            name: "partition-heal",
            n: 7,
            seed: 73,
            plan: FaultPlan::new(),
            partition: Some(Partition {
                from: at(1000),
                until: at(1000 + 1500 * s),
                group_a: vec![NodeIndex::new(6)],
            }),
            forgers: vec![],
            secs: 3 + 2 * s,
            expect_restarts: 0,
            expect_rejections: false,
        },
        Scenario {
            name: "forged-servers",
            n: 4,
            seed: 22,
            plan: FaultPlan::new().crash_between(NodeIndex::new(3), at(1000), at(1000 + 1500 * s)),
            partition: None,
            forgers: vec![1, 2],
            secs: 3 + 2 * s,
            expect_restarts: 1,
            expect_rejections: true,
        },
    ]
}

fn run(sc: &Scenario) -> Vec<String> {
    let overlay = Arc::new(Overlay::full_mesh(sc.n));
    // All proposals travel by advert/request so round-tagged adverts —
    // the behind-detector's input — keep flowing.
    let cfg = GossipConfig {
        inline_threshold: 0,
        ..GossipConfig::default()
    };
    let mut builder = ClusterBuilder::new(sc.n)
        .seed(sc.seed)
        .network(FixedDelay::new(ms(10)))
        .protocol_delays(ms(60), SimDuration::ZERO)
        .checkpoint_interval(8)
        .fault_plan(sc.plan.clone());
    if let Some(p) = &sc.partition {
        builder = builder.policy(p.clone());
    }
    let forgers = sc.forgers.clone();
    let idx = Cell::new(0usize);
    let mut cluster = builder.build_with(move |core| {
        let i = idx.get();
        idx.set(i + 1);
        let node = GossipNode::new(core, Arc::clone(&overlay), cfg);
        if forgers.contains(&i) {
            node.with_forged_catch_up()
        } else {
            node
        }
    });
    cluster.run_for(SimDuration::from_secs(sc.secs));
    cluster.assert_safety();

    let rec = cluster.metrics_summary().recovery;
    assert_eq!(rec.restarts, sc.expect_restarts, "{}: {rec:?}", sc.name);
    if sc.expect_restarts > 0 || sc.partition.is_some() {
        assert!(rec.catch_up_applied >= 1, "{}: {rec:?}", sc.name);
    }
    if sc.expect_rejections {
        assert!(rec.catch_up_rejected >= 1, "{}: {rec:?}", sc.name);
    }
    let committed: Vec<u64> = (0..sc.n).map(|i| cluster.committed_round(i)).collect();
    let gap = committed.iter().max().unwrap() - committed.iter().min().unwrap();
    assert!(gap <= 3, "{}: final gap {gap} ({committed:?})", sc.name);

    vec![
        sc.name.into(),
        format!("{}", rec.restarts),
        format!("{}", rec.catch_up_applied),
        format!("{}", rec.catch_up_rejected),
        format!("{}", rec.rounds_behind_total),
        fmt_f(rec.mean_catch_up_latency_ms(), 1),
        fmt_f(rec.catch_up_bytes as f64 / 1024.0, 1),
        format!("{}", rec.checkpoints),
        format!("{}", rec.wal_appends),
        format!("{gap}"),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut rows = Vec::new();
    for sc in scenarios(smoke) {
        rows.push(run(&sc));
        eprintln!("done {}", sc.name);
    }
    let title = if smoke {
        "E14 (smoke): crash-recovery and certified catch-up (delta=10ms, delta_bnd=60ms)"
    } else {
        "E14: crash-recovery and certified catch-up (delta=10ms, delta_bnd=60ms)"
    };
    print_table(
        title,
        &[
            "scenario",
            "restarts",
            "caught up",
            "rejected",
            "rounds behind",
            "catch-up lat (ms)",
            "catch-up KiB",
            "checkpoints",
            "WAL appends",
            "final gap",
        ],
        &rows,
    );
    println!(
        "expected shape: every restarted replica fast-forwards via one or two\n\
         certified packages (rounds behind >> packages applied: state sync jumps,\n\
         it does not replay); forged servers are rejected and the honest peer\n\
         still closes the gap; the final committed-round gap stays <= 3 in every\n\
         scenario; partition-heal may catch up by flood replay alone when the\n\
         release beats the advert round-trip."
    );
}
