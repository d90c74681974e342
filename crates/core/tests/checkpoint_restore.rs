//! Crash–recovery round-trip properties of the durable replica state
//! (checkpoint + write-ahead log).
//!
//! A synchronous 4-party mesh drives real `ConsensusCore`s for a random
//! number of steps, then crashes and restores each core in place. The
//! restore must reproduce the §3.4 classification the node held before
//! the crash — same committed round, same latest finalized block, same
//! highest notarized round — **with zero signature re-verification**:
//! every WAL artifact was verified (or produced) before it was logged,
//! so replay goes through the pool's trusted insert path, never the
//! crypto.

use icc_core::byzantine::Behavior;
use icc_core::consensus::ConsensusCore;
use icc_core::delays::StaticDelays;
use icc_core::keys::generate_keys;
use icc_core::recovery::CatchUpError;
use icc_core::NodeEvent;
use icc_types::messages::ConsensusMessage;
use icc_types::{Command, Round, SimDuration, SimTime, SubnetConfig};
use proptest::prelude::*;

const N: usize = 4;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// A lockstep mesh: every broadcast from iteration `i` is delivered to
/// every other party at iteration `i + 1`; wakeups fire each iteration.
struct Mesh {
    cores: Vec<ConsensusCore>,
    queue: Vec<(usize, ConsensusMessage)>,
    now: SimTime,
}

impl Mesh {
    fn new(seed: u64, checkpoint_interval: u64) -> Mesh {
        let keys = generate_keys(SubnetConfig::new(N), seed);
        let mut cores: Vec<ConsensusCore> = keys
            .into_iter()
            .map(|k| {
                ConsensusCore::new(
                    k,
                    StaticDelays::new(ms(10), SimDuration::ZERO),
                    Behavior::Honest,
                )
                .with_checkpoint_interval(checkpoint_interval)
            })
            .collect();
        let mut queue = Vec::new();
        for (i, c) in cores.iter_mut().enumerate() {
            let step = c.start(SimTime::ZERO);
            queue.extend(step.broadcasts.into_iter().map(|m| (i, m)));
        }
        Mesh {
            cores,
            queue,
            now: SimTime::ZERO,
        }
    }

    fn run(&mut self, iterations: u64) {
        for it in 0..iterations {
            self.now += ms(1);
            // The occasional client command keeps payloads non-empty.
            if it % 7 == 0 {
                let tag = self.now.as_micros().to_le_bytes().to_vec();
                for c in self.cores.iter_mut() {
                    c.on_command(self.now, Command::new(tag.clone()));
                }
            }
            let batch = std::mem::take(&mut self.queue);
            for (from, msg) in &batch {
                for (i, c) in self.cores.iter_mut().enumerate() {
                    if i == *from {
                        continue;
                    }
                    let step = c.on_message(self.now, msg);
                    self.queue
                        .extend(step.broadcasts.into_iter().map(|m| (i, m)));
                }
            }
            for (i, c) in self.cores.iter_mut().enumerate() {
                let step = c.on_wakeup(self.now);
                self.queue
                    .extend(step.broadcasts.into_iter().map(|m| (i, m)));
            }
        }
    }

    fn min_committed(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.committed_round().get())
            .min()
            .unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash + restore reproduces the pre-crash classification with
    /// zero signature verifications, for every party, at any point in
    /// the run, for any checkpoint cadence.
    #[test]
    fn snapshot_restore_round_trips_classification(
        seed in 0u64..1000,
        iterations in 30u64..120,
        interval in 1u64..12,
    ) {
        let mut mesh = Mesh::new(seed, interval);
        mesh.run(iterations);
        let now = mesh.now;
        for core in mesh.cores.iter_mut() {
            let kmax = core.committed_round();
            let fin_round = core.pool().latest_finalized_round();
            let fin_block = core.pool().latest_finalized_block().map(|b| b.hash());
            let notz_round = core.pool().highest_notarized_round();

            core.crash();
            let _step = core.restore(now);

            // Zero re-verification: the pool was rebuilt entirely from
            // the trusted WAL path (crash() reset its counters, so any
            // signature check during restore would show here).
            prop_assert_eq!(core.pool().stats().verify_calls, 0);
            // Classification round-trips.
            prop_assert_eq!(core.committed_round(), kmax);
            prop_assert_eq!(core.pool().latest_finalized_round(), fin_round);
            prop_assert_eq!(
                core.pool().latest_finalized_block().map(|b| b.hash()),
                fin_block
            );
            prop_assert_eq!(core.pool().highest_notarized_round(), notz_round);
            // The replica resumes *past* its durable state, never inside
            // it (it must not equivocate in rounds it already acted in).
            prop_assert!(core.current_round() > kmax);
        }
    }
}

/// After a crash + restore the replica resumes from its durable state
/// but may be missing the in-flight round's block bodies (they were
/// never certified, so never WAL'd, and ICC0 does not retransmit). A
/// certified catch-up package from a peer closes exactly that gap: the
/// replica fast-forwards and participates again at full speed.
#[test]
fn restored_replica_rejoins_via_catch_up_package() {
    let mut mesh = Mesh::new(7, 4);
    mesh.run(80);
    let before = mesh.min_committed();
    assert!(before > 5, "mesh must be committing (got {before})");

    let now = mesh.now;
    mesh.cores[2].crash();
    let step = mesh.cores[2].restore(now);
    assert_eq!(mesh.cores[2].recovery_stats().restarts, 1);
    mesh.queue
        .extend(step.broadcasts.into_iter().map(|m| (2, m)));

    // Degraded interlude: the other three (= n − t) keep committing,
    // slower when the stuck party would have been the leader.
    mesh.run(60);
    let mid = mesh.min_committed();
    assert!(
        mid > before,
        "mesh must stay live degraded: {before} -> {mid}"
    );

    // A peer serves a certified catch-up package for the stuck party.
    // The horizon (not the committed round) is what the stuck party
    // must report: flooded finalizations kept its `kmax` current while
    // its beacon chain is parked at the crash round.
    let have = mesh.cores[2].catch_up_horizon();
    assert!(
        have < mesh.cores[2].committed_round(),
        "the restored party's beacon frontier trails its committed tip"
    );
    let pkg = mesh.cores[0]
        .build_catch_up_package(have)
        .expect("peer is ahead and has the beacon segment");
    let step = mesh.cores[2]
        .apply_catch_up(&pkg, mesh.now)
        .expect("honest package verifies");
    assert!(
        step.events
            .iter()
            .any(|e| matches!(e, icc_core::NodeEvent::CaughtUp { .. })),
        "catch-up must be observable in the event trace"
    );
    assert!(mesh.cores[2].committed_round() >= pkg.round());
    assert!(mesh.cores[2].current_round() > pkg.round());
    assert_eq!(mesh.cores[2].recovery_stats().catch_up_applied, 1);
    mesh.queue
        .extend(step.broadcasts.into_iter().map(|m| (2, m)));

    // Back to full speed: all four participate again.
    mesh.run(80);
    let after = mesh.min_committed();
    let detail: Vec<(u64, u64)> = mesh
        .cores
        .iter()
        .map(|c| (c.committed_round().get(), c.current_round().get()))
        .collect();
    assert!(
        after > mid + 20,
        "mesh did not recover full speed: {mid} -> {after} ({detail:?})"
    );
    let r2 = mesh.cores[2].current_round().get();
    let r0 = mesh.cores[0].current_round().get();
    assert!(
        r0.abs_diff(r2) <= 2,
        "restored party must track the frontier ({detail:?})"
    );

    // Agreement: the restored party's latest finalized block is part of
    // an untouched peer's chain (or the peer is simply behind it).
    let restored = mesh.cores[2]
        .pool()
        .latest_finalized_block()
        .unwrap()
        .hash();
    assert!(
        mesh.cores[0].pool().block(&restored).is_some()
            || mesh.cores[0].pool().latest_finalized_round()
                < mesh.cores[2].pool().latest_finalized_round(),
        "restored party finalized a block its peer does not hold"
    );
}

/// Safety of catch-up does not rest on trusting the serving peer: every
/// tampered variant of an otherwise-valid package is rejected wholesale
/// — with the matching [`CatchUpError`], with nothing installed — and
/// the untampered package still verifies afterwards.
#[test]
fn forged_catch_up_packages_rejected_wholesale() {
    let mut mesh = Mesh::new(11, 4);
    mesh.run(60);
    let pkg = mesh.cores[0]
        .build_catch_up_package(Round::GENESIS)
        .expect("server has a finalized chain and an unpurged beacon history");
    assert!(pkg.round() > Round::new(5), "run long enough to finalize");

    // A fresh replica of the same subnet (party 1's keys): it holds only
    // the genesis beacon, so the package must carry everything.
    let keys = generate_keys(SubnetConfig::new(N), 11)
        .into_iter()
        .nth(1)
        .unwrap();
    let mut core = ConsensusCore::new(
        keys,
        StaticDelays::new(ms(10), SimDuration::ZERO),
        Behavior::Honest,
    );
    core.start(SimTime::ZERO);
    let now = mesh.now;

    // Forged finalization: an aggregate from the wrong signing domain.
    let mut bad = pkg.clone();
    bad.finalization.sig = bad.notarization.sig.clone();
    assert_eq!(
        core.apply_catch_up(&bad, now).unwrap_err(),
        CatchUpError::BadFinalization
    );

    // Certificates that do not reference the packaged block.
    let mut bad = pkg.clone();
    bad.finalization.block_ref.round = bad.finalization.block_ref.round.next();
    assert_eq!(
        core.apply_catch_up(&bad, now).unwrap_err(),
        CatchUpError::Mismatched
    );

    // Truncated beacon chain: the requester could never enter the round
    // after the finalized block. (The server's segment runs to the
    // latest beacon it holds, which may be a round past its current
    // one: that beacon is combined as soon as its shares are in.)
    let mut bad = pkg.clone();
    bad.beacons.retain(|(r, _)| *r <= pkg.round());
    assert_eq!(
        core.apply_catch_up(&bad, now).unwrap_err(),
        CatchUpError::Truncated
    );

    // Reordered beacon segment: no longer anchored at a local value.
    let mut bad = pkg.clone();
    bad.beacons.swap(0, 1);
    assert_eq!(
        core.apply_catch_up(&bad, now).unwrap_err(),
        CatchUpError::BadBeacon
    );

    // Nothing was installed by any rejected package.
    assert_eq!(core.committed_round(), Round::GENESIS);
    assert_eq!(core.recovery_stats().catch_up_applied, 0);
    assert!(core.pool().stats().rejected >= 4);

    // The honest package still verifies and fast-forwards the replica.
    let step = core
        .apply_catch_up(&pkg, now)
        .expect("untampered package verifies");
    assert_eq!(core.committed_round(), pkg.round());
    assert!(core.current_round() > pkg.round());
    assert!(step
        .events
        .iter()
        .any(|e| matches!(e, NodeEvent::CaughtUp { .. })));
    assert!(step
        .events
        .iter()
        .any(|e| matches!(e, NodeEvent::Committed { .. })));
    assert_eq!(core.recovery_stats().catch_up_applied, 1);

    // Replaying the same package is stale: both frontiers already moved.
    assert_eq!(
        core.apply_catch_up(&pkg, now).unwrap_err(),
        CatchUpError::Stale
    );
}
