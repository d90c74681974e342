//! **E2 — message complexity per round** (paper §1).
//!
//! Claims under test: "In the worst case, the message complexity is
//! O(n³). However, … in any round where the network is synchronous, the
//! expected message complexity is O(n²) — in fact, it is O(n²) with
//! overwhelming probability."
//!
//! We measure messages sent by all parties per finished round (one
//! broadcast = `n − 1` sends: ICC0 is the gossip node on a full mesh,
//! and a party's copy to itself never touches the wire) for growing `n`, in
//! three regimes: all honest + synchronous; `t` crashed; `t`
//! equivocating proposers (the stress case for clause (c)'s echo
//! logic). The normalized column `msgs / n²` should be roughly flat for
//! the synchronous regimes — that is the O(n²) claim.
//!
//! A fourth column runs ICC1 (all honest): `GossipNode` over
//! `Overlay::for_subnet`, every proposal by advert/request/deliver,
//! each send counted once. The gossip sub-layer exists to *reduce* what
//! a party sends, so its `msgs / n²` must not grow with `n` where ICC0's
//! does not: the binary asserts that the value at n = 31 (the largest
//! size in the sweep that runs the complete overlay) is at most 1.5 ×
//! the value at n = 4. (n = 40 runs the bounded-degree overlay, where a
//! share flood costs `n · degree` sends per share — more messages than
//! ICC0, fewer bytes at the bottleneck party: E8, E17.)

use icc_bench::{fmt_f, print_table};
use icc_core::cluster::{Cluster, ClusterBuilder, CoreAccess};
use icc_core::events::NodeEvent;
use icc_core::Behavior;
use icc_gossip::{gossip_cluster, icc0_cluster, subnet_overlay_seed, GossipConfig, Overlay};
use icc_sim::delay::FixedDelay;
use icc_sim::Node;
use icc_types::{Command, SimDuration};

fn builder(n: usize, behaviors: Vec<Behavior>) -> ClusterBuilder {
    ClusterBuilder::new(n)
        .seed(11)
        .network(FixedDelay::new(SimDuration::from_millis(10)))
        .protocol_delays(SimDuration::from_millis(30), SimDuration::ZERO)
        .behaviors(behaviors)
}

fn icc1(n: usize) -> Cluster<icc_gossip::GossipNode> {
    let config = GossipConfig {
        inline_threshold: 0,
        ..GossipConfig::default()
    };
    let overlay = Overlay::for_subnet(n, subnet_overlay_seed(n));
    gossip_cluster(builder(n, vec![Behavior::Honest; n]), overlay, config)
}

fn msgs_per_round<N>(mut cluster: Cluster<N>, secs: u64) -> f64
where
    N: Node<External = Command, Output = NodeEvent> + CoreAccess,
{
    // Warm up one second, then measure.
    cluster.run_for(SimDuration::from_secs(1));
    let r0 = cluster.min_committed_round();
    cluster.sim.reset_metrics();
    cluster.run_for(SimDuration::from_secs(secs));
    let rounds = cluster.min_committed_round() - r0;
    cluster.assert_safety();
    if rounds == 0 {
        return f64::NAN;
    }
    cluster.sim.metrics().total_messages() as f64 / rounds as f64
}

fn main() {
    let mut rows = Vec::new();
    let mut icc1_per_nn = std::collections::BTreeMap::new();
    for &n in &[4usize, 7, 13, 19, 31, 40] {
        let t = n.div_ceil(3) - 1;
        let icc0 = |behaviors, secs| msgs_per_round(icc0_cluster(builder(n, behaviors)), secs);
        let honest = icc0(vec![Behavior::Honest; n], 5);
        let crashed = icc0(Behavior::first_f(n, t, Behavior::Crash), 20);
        let equiv = icc0(Behavior::first_f(n, t, Behavior::Equivocate), 10);
        let gossip = msgs_per_round(icc1(n), 5);
        let nn = (n * n) as f64;
        icc1_per_nn.insert(n, gossip / nn);
        rows.push(vec![
            format!("{n}"),
            fmt_f(honest, 0),
            fmt_f(honest / nn, 2),
            fmt_f(crashed, 0),
            fmt_f(crashed / nn, 2),
            fmt_f(equiv, 0),
            fmt_f(equiv / nn, 2),
            fmt_f(gossip, 0),
            fmt_f(gossip / nn, 2),
        ]);
        eprintln!("done n={n}");
    }
    print_table(
        "E2: messages per round (broadcast counts n - 1), synchronous network",
        &[
            "n",
            "honest",
            "honest/n^2",
            "t crashed",
            "crashed/n^2",
            "t equivocating",
            "equiv/n^2",
            "ICC1 honest",
            "ICC1/n^2",
        ],
        &rows,
    );
    println!(
        "expected shape: msgs/n^2 roughly flat (O(n^2) with overwhelming probability\n\
         in synchronous rounds); equivocation raises the constant, not the exponent;\n\
         ICC1 stays flat up to n = 31 (complete overlay: one hop, no relays)."
    );
    let (small, large) = (icc1_per_nn[&4], icc1_per_nn[&31]);
    assert!(
        large <= 1.5 * small,
        "ICC1 msgs/n^2 grows with n: {small:.2} at n = 4, {large:.2} at n = 31"
    );
}
