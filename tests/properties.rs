//! Property-based tests: randomized schedules, topologies and fault
//! mixes must never violate safety, and liveness must hold whenever the
//! fault bound is respected.

use icc_core::cluster::ClusterBuilder;
use icc_core::epoch::{EpochSchedule, EpochSpec};
use icc_core::Behavior;
use icc_gossip::icc0_cluster;
use icc_sim::delay::UniformDelay;
use icc_sim::policy::AsyncWindow;
use icc_tests::assert_chains_consistent;
use icc_types::{Round, SimDuration, SimTime};
use proptest::prelude::*;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn arb_behavior() -> impl Strategy<Value = Behavior> {
    prop_oneof![
        Just(Behavior::Crash),
        Just(Behavior::Equivocate),
        Just(Behavior::EmptyProposals),
        Just(Behavior::WithholdShares),
        Just(Behavior::WithholdFinalization),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Safety and liveness hold for arbitrary seeds, jitter ranges and
    /// ≤ t corrupt parties of arbitrary profile.
    #[test]
    fn prop_safety_and_liveness_with_faults(
        seed in 0u64..10_000,
        max_delay_ms in 5u64..30,
        n in prop_oneof![Just(4usize), Just(7)],
        behavior in arb_behavior(),
        f_frac in 0u32..=2,
    ) {
        let t = n.div_ceil(3) - 1;
        let f = (t as u32 * f_frac / 2) as usize;
        let mut cluster = icc0_cluster(ClusterBuilder::new(n)
            .seed(seed)
            .network(UniformDelay::new(ms(1), ms(max_delay_ms)))
            .protocol_delays(ms(max_delay_ms * 4), SimDuration::ZERO)
            .behaviors(Behavior::first_f(n, f, behavior))
        );
        cluster.run_for(SimDuration::from_secs(3));
        let chain = assert_chains_consistent(&cluster);
        prop_assert!(chain.len() > 5, "only {} blocks committed", chain.len());
    }

    /// Safety survives an adversarial scheduling window placed anywhere.
    #[test]
    fn prop_safety_through_async_window(
        seed in 0u64..10_000,
        start_ms in 0u64..1000,
        len_ms in 100u64..1500,
    ) {
        let mut cluster = icc0_cluster(ClusterBuilder::new(4)
            .seed(seed)
            .protocol_delays(ms(60), SimDuration::ZERO)
            .policy(AsyncWindow {
                from: SimTime::ZERO + ms(start_ms),
                until: SimTime::ZERO + ms(start_ms + len_ms),
            })
        );
        // Check safety at several points, including inside the window.
        for checkpoint in [start_ms + len_ms / 2, start_ms + len_ms + 500, 4000] {
            cluster.run_until(SimTime::ZERO + ms(checkpoint));
            assert_chains_consistent(&cluster);
        }
        // After the window plus slack, progress must have resumed.
        prop_assert!(cluster.min_committed_round() > 10);
    }

    /// Commands never duplicate and never reorder across nodes,
    /// whatever the injection pattern.
    #[test]
    fn prop_commands_exactly_once_and_ordered(
        seed in 0u64..10_000,
        count in 1usize..30,
        window_ms in 50u64..1000,
    ) {
        let mut cluster = icc0_cluster(ClusterBuilder::new(4).seed(seed));
        cluster.inject_commands(SimTime::ZERO, ms(window_ms), count, 48);
        cluster.run_for(SimDuration::from_secs(3));
        assert_chains_consistent(&cluster);
        let seqs: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|node| icc_tests::committed_commands(&cluster, node))
            .collect();
        for s in &seqs {
            prop_assert_eq!(s.len(), count, "missing commands");
            let unique: std::collections::HashSet<_> = s.iter().collect();
            prop_assert_eq!(unique.len(), s.len(), "duplicates");
        }
        for s in &seqs[1..] {
            prop_assert_eq!(s, &seqs[0], "order differs");
        }
    }

    /// Differential: resharing the beacon key without changing the
    /// member set is *transparent*. A static-membership run and a run
    /// with a schedule of identity reshares — same seed, same workload —
    /// finalize **byte-identical** chains: the reshare preserves the
    /// group key, hence the beacon sequence, hence every rank
    /// permutation, proposer and block.
    #[test]
    fn prop_identity_reshares_are_chain_transparent(
        seed in 0u64..10_000,
        boundary in 8u64..25,
        count in 1usize..16,
    ) {
        let schedule = EpochSchedule::new(vec![
            EpochSpec::new(Round::GENESIS, (0..4).collect()),
            EpochSpec::new(Round::new(boundary), (0..4).collect()),
            EpochSpec::new(Round::new(boundary * 2), (0..4).collect()),
        ]);
        let mut plain = icc0_cluster(ClusterBuilder::new(4).seed(seed));
        let mut reshared = icc0_cluster(ClusterBuilder::new(4)
            .seed(seed)
            .with_epochs(schedule)
        );
        for cluster in [&mut plain, &mut reshared] {
            cluster.inject_commands(SimTime::ZERO, ms(800), count, 48);
            cluster.run_for(SimDuration::from_secs(3));
            cluster.assert_safety();
        }
        // The reshared run crossed both boundaries...
        prop_assert_eq!(
            reshared.epochs_entered(0),
            vec![
                (Round::new(boundary), 1),
                (Round::new(boundary * 2), 2)
            ]
        );
        // ...yet committed the identical chain, block for block. Hash
        // equality is content equality (the hash covers parent link,
        // proposer, rank and full payload bytes).
        let a = plain.committed_chain(0);
        let b = reshared.committed_chain(0);
        prop_assert!(
            a.len().abs_diff(b.len()) <= 1,
            "runs diverged in length: {} vs {}", a.len(), b.len()
        );
        prop_assert!(a.len() as u64 > boundary * 2 + 5, "run too short");
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.hash(), y.hash(), "chains diverge at round {}", x.round());
            prop_assert_eq!(x.round(), y.round());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// The default scale-out overlay stays connected with a small
    /// (logarithmic-ish) diameter and bounded degree for every subnet
    /// size and seed — the property the routed dissemination mode's
    /// traffic analysis rests on.
    #[test]
    fn prop_subnet_overlay_connected_with_log_diameter(
        n in 33usize..400,
        seed in 0u64..1_000,
    ) {
        let o = icc_gossip::Overlay::for_subnet(n, seed);
        // `diameter()` panics on a disconnected graph, so completing at
        // all proves connectivity.
        let d = o.diameter();
        let log2_ceil = (usize::BITS - (n - 1).leading_zeros()) as usize;
        prop_assert!(
            d <= 2 * log2_ceil + 4,
            "diameter {d} too large for n={n} (log2 {log2_ceil})"
        );
        // `random_regular` may exceed the target degree by 2 while
        // honouring symmetry; `for_subnet` targets at most 16.
        prop_assert!(o.max_degree() <= 18, "degree {} at n={n}", o.max_degree());
        // Symmetry: every edge is bidirectional.
        for i in 0..n {
            let me = icc_types::NodeIndex::new(i as u32);
            for j in o.neighbors(me) {
                prop_assert!(o.neighbors(*j).contains(&me));
            }
        }
    }
}
