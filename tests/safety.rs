//! Safety (Property P2 / the Safety lemma): honest parties never commit
//! conflicting chains — **under any network behavior**, including full
//! asynchrony, partitions and message loss. "Each of the ICC protocols
//! provides safety, even in the asynchronous setting."

use icc_core::cluster::ClusterBuilder;
use icc_gossip::icc0_cluster;
use icc_sim::delay::UniformDelay;
use icc_sim::policy::{AsyncWindow, Partition, SlowNodes};
use icc_tests::assert_chains_consistent;
use icc_types::{NodeIndex, SimDuration, SimTime};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

#[test]
fn safety_under_random_jitter_many_seeds() {
    for seed in 0..8 {
        let mut cluster = icc0_cluster(
            ClusterBuilder::new(4)
                .seed(seed)
                .network(UniformDelay::new(ms(1), ms(40)))
                .protocol_delays(ms(120), SimDuration::ZERO),
        );
        cluster.run_for(SimDuration::from_secs(3));
        let chain = assert_chains_consistent(&cluster);
        assert!(!chain.is_empty(), "seed {seed}: nothing committed");
    }
}

#[test]
fn safety_across_partition_and_heal() {
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(7)
            .seed(3)
            .protocol_delays(ms(60), SimDuration::ZERO)
            .policy(Partition {
                from: at(500),
                until: at(1500),
                group_a: vec![NodeIndex::new(0), NodeIndex::new(1), NodeIndex::new(2)],
            }),
    );
    // Check safety repeatedly *during* the partition, not only at the end.
    for step in 1..=6 {
        cluster.run_until(at(step * 500));
        assert_chains_consistent(&cluster);
    }
    // After healing, everyone catches up past the partition window.
    assert!(
        cluster.min_committed_round() > 50,
        "only {} rounds committed after heal",
        cluster.min_committed_round()
    );
}

#[test]
fn safety_with_minority_partitioned_repeatedly() {
    let mut builder = ClusterBuilder::new(7)
        .seed(9)
        .protocol_delays(ms(60), SimDuration::ZERO);
    // Three successive partitions isolating different minorities.
    for (i, a) in [(0u64, 0u32), (1, 2), (2, 4)] {
        builder = builder.policy(Partition {
            from: at(400 + i * 800),
            until: at(900 + i * 800),
            group_a: vec![NodeIndex::new(a), NodeIndex::new(a + 1)],
        });
    }
    let mut cluster = icc0_cluster(builder);
    cluster.run_for(SimDuration::from_secs(4));
    assert_chains_consistent(&cluster);
}

#[test]
fn safety_during_full_asynchrony_window() {
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(4)
            .seed(5)
            .protocol_delays(ms(60), SimDuration::ZERO)
            .policy(AsyncWindow {
                from: at(300),
                until: at(2000),
            }),
    );
    cluster.run_until(at(1000));
    assert_chains_consistent(&cluster); // mid-asynchrony
    cluster.run_until(at(4000));
    let chain = assert_chains_consistent(&cluster);
    assert!(
        chain.len() > 20,
        "liveness after the window: {}",
        chain.len()
    );
}

#[test]
fn safety_with_lossy_network() {
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(4)
            .seed(6)
            .loss(0.10, ms(50))
            .protocol_delays(ms(150), SimDuration::ZERO),
    );
    cluster.run_for(SimDuration::from_secs(4));
    let chain = assert_chains_consistent(&cluster);
    assert!(!chain.is_empty());
}

#[test]
fn safety_with_slow_links() {
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(7)
            .seed(7)
            .protocol_delays(ms(100), SimDuration::ZERO)
            .policy(SlowNodes {
                nodes: vec![NodeIndex::new(1), NodeIndex::new(3)],
                extra: ms(90),
            }),
    );
    cluster.run_for(SimDuration::from_secs(4));
    let chain = assert_chains_consistent(&cluster);
    assert!(chain.len() > 10);
}

#[test]
fn no_conflicting_finalized_blocks_per_round() {
    // P2 directly: across all nodes, at most one finalized block hash
    // per round.
    let mut cluster = icc0_cluster(
        ClusterBuilder::new(7)
            .seed(8)
            .network(UniformDelay::new(ms(1), ms(30)))
            .protocol_delays(ms(90), SimDuration::ZERO),
    );
    cluster.run_for(SimDuration::from_secs(3));
    let mut by_round = std::collections::HashMap::new();
    for node in 0..cluster.n() {
        for block in cluster.committed_chain(node) {
            let prev = by_round.insert(block.round(), block.hash());
            if let Some(h) = prev {
                assert_eq!(h, block.hash(), "two finalized blocks in {}", block.round());
            }
        }
    }
    assert!(by_round.len() > 30);
}

/// n = 4, t = 1, and both faults the bound has to absorb at once: one
/// Byzantine proposer that equivocates whenever it leads, and one honest
/// replica whose process dies and comes back *inside* rounds, again and
/// again, resuming each time in the round it died in. The transport
/// re-sends the open rounds' messages to it in a shuffled order, so it
/// may meet the equivocator's second block before the one it supported,
/// and support that one too. It does not remember its votes — so in a
/// round it resumed in it finalization-shares nothing; a restarter that
/// went by the `N` of its latest incarnation alone would
/// finalization-share the wrong block and be a second faulty party.
/// Over 200 rounds: P2 at every commit (the harness checks), and the
/// signing rule P2's proof assumes of an honest party — a finalization
/// share for `B` only from a replica that notarization-shared nothing
/// but `B` in that round — over every message the restarter ever
/// released, across all its incarnations.
#[test]
fn safety_with_equivocating_proposer_and_sub_round_restarter() {
    use icc_core::consensus::ConsensusCore;
    use icc_core::delays::StaticDelays;
    use icc_core::keys::generate_keys;
    use icc_core::Behavior;
    use icc_tests::hand::Net;
    use icc_types::messages::ConsensusMessage;
    use icc_types::{Command, SubnetConfig};
    use std::collections::{BTreeMap, BTreeSet};
    const RESTARTER: usize = 0;
    const EQUIVOCATOR: usize = 3;
    const HONEST: [usize; 3] = [0, 1, 2];

    let cores = generate_keys(SubnetConfig::new(4), 24)
        .into_iter()
        .enumerate()
        .map(|(i, keys)| {
            let behavior = if i == EQUIVOCATOR {
                Behavior::Equivocate
            } else {
                Behavior::Honest
            };
            ConsensusCore::new(keys, StaticDelays::new(ms(20), SimDuration::ZERO), behavior)
        })
        .collect();
    let mut net = Net::new(cores, 24);
    net.start();
    let (mut deliveries, mut restarts) = (0u64, 0u64);
    while net.committed(&HONEST) < 200 {
        assert!(net.step(), "idle at round {}", net.committed(&HONEST));
        deliveries += 1;
        if deliveries.is_multiple_of(16) {
            let cmd = Command::new(format!("cmd-{deliveries}").into_bytes());
            let now = net.now;
            net.cores[(deliveries / 16) as usize % 4].on_command(now, cmd);
        }
        // A prime stride walks the point of death through the round,
        // and leaves rounds the restarter lives through whole.
        if deliveries.is_multiple_of(127) {
            net.restart(RESTARTER, None);
            restarts += 1;
        }
        assert!(
            deliveries < 2_000_000,
            "stalled at {}",
            net.committed(&HONEST)
        );
    }
    assert!(restarts >= 100, "only {restarts} restarts in 200 rounds");
    assert_eq!(net.cores[RESTARTER].recovery_stats().restarts, restarts);

    let mut supported: BTreeMap<_, BTreeSet<_>> = BTreeMap::new();
    let mut finalization_shared = Vec::new();
    for (from, _, msg) in &net.released {
        match msg {
            ConsensusMessage::NotarizationShare(s) if *from == RESTARTER => {
                let blocks = supported.entry(s.block_ref.round).or_default();
                blocks.insert(s.block_ref.hash);
            }
            ConsensusMessage::FinalizationShare(s) if *from == RESTARTER => {
                finalization_shared.push(s.block_ref);
            }
            _ => {}
        }
    }
    assert!(finalization_shared.len() >= 40, "the restarter took part");
    for block_ref in finalization_shared {
        let blocks = &supported[&block_ref.round];
        assert!(
            blocks.iter().all(|h| *h == block_ref.hash),
            "the restarter finalization-shared {} in {} after supporting {blocks:?}",
            block_ref.hash,
            block_ref.round
        );
    }
}

/// The same two faults on the product node: `Recipe::shipped(4)`
/// gossip nodes on the simulator, the honest replica 0 taken down for
/// 2 ms every 29 ms (a prime stride against ≈ 15 ms rounds), so that
/// it dies at every point of a round and loses what is sent to it while
/// down. Nobody re-sends anything: on each restart it pulls what its
/// open rounds lack. Over 200 rounds: P2 at every commit, and the
/// signing rule over every share of the restarter's that reached a
/// peer, across all its incarnations.
#[test]
fn safety_with_equivocating_proposer_and_sub_round_restarter_on_gossip_nodes() {
    use icc_core::Behavior;
    use icc_gossip::{GossipMessage, Recipe};
    use icc_sim::FaultPlan;
    use icc_tests::Tap;
    use icc_types::messages::{BlockRef, ConsensusMessage};
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::rc::Rc;
    const RESTARTER: u32 = 0;
    const EQUIVOCATOR: usize = 3;

    let mut plan = FaultPlan::new();
    for k in 1..=400 {
        let down = at(29 * k);
        plan = plan.crash_between(NodeIndex::new(RESTARTER), down, down + ms(2));
    }
    let mut behaviors = vec![Behavior::Honest; 4];
    behaviors[EQUIVOCATOR] = Behavior::Equivocate;
    let builder = ClusterBuilder::new(4)
        .seed(24)
        .network(UniformDelay::new(ms(1), ms(5)))
        .protocol_delays(ms(20), SimDuration::ZERO)
        .behaviors(behaviors)
        .fault_plan(plan);
    // What the restarter signed, as its peers received it: the blocks it
    // notarization-shared per round, and the blocks it finalization-shared.
    type Signed = (
        BTreeMap<icc_types::Round, BTreeSet<icc_crypto::Hash256>>,
        BTreeSet<BlockRef>,
    );
    let signed: Rc<RefCell<Signed>> = Rc::default();
    let recipe = Recipe::shipped(4);
    let mut cluster = ClusterBuilder::build_with(builder, |core| {
        let signed = Rc::clone(&signed);
        Tap {
            node: recipe.node(core),
            hook: Box::new(move |_, _, msg: &GossipMessage, _| {
                let GossipMessage::Push { artifact, .. } = msg else {
                    return true;
                };
                let mut signed = signed.borrow_mut();
                match artifact.msg() {
                    ConsensusMessage::NotarizationShare(s) if s.share.signer == RESTARTER => {
                        let blocks = signed.0.entry(s.block_ref.round).or_default();
                        blocks.insert(s.block_ref.hash);
                    }
                    ConsensusMessage::FinalizationShare(s) if s.share.signer == RESTARTER => {
                        signed.1.insert(s.block_ref);
                    }
                    _ => {}
                }
                true
            }),
        }
    });
    while cluster.min_committed_round() < 200 {
        let stuck = cluster.min_committed_round();
        cluster.run_for(ms(500));
        assert!(cluster.min_committed_round() > stuck, "stalled at {stuck}");
    }
    cluster.assert_safety();
    let restarts = cluster.recovery_stats(RESTARTER as usize).restarts;
    assert!(restarts >= 100, "only {restarts} restarts in 200 rounds");

    let (supported, finalization_shared) = &*signed.borrow();
    assert!(finalization_shared.len() >= 40, "the restarter took part");
    for block_ref in finalization_shared {
        // A round it notarization-shared nothing in (the notarization
        // came first) holds `N = {}` ⊆ {B}.
        let blocks = supported.get(&block_ref.round).cloned().unwrap_or_default();
        assert!(
            blocks.iter().all(|h| *h == block_ref.hash),
            "the restarter finalization-shared {} in {} after supporting {blocks:?}",
            block_ref.hash,
            block_ref.round
        );
    }
}
