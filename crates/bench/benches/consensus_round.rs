//! Criterion benchmarks of whole consensus rounds: how much *simulator*
//! wall-clock one protocol round costs end-to-end at the paper's subnet
//! sizes, for ICC0, ICC1 (gossip) and ICC2 (erasure RBC), plus a
//! duplicate-heavy artifact-pool insert workload comparing the pool
//! against the eager-verify reference pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use icc_core::artifacts;
use icc_core::cluster::ClusterBuilder;
use icc_core::keys::{generate_keys, NodeKeys, PublicSetup};
use icc_core::pool::{EagerPool, Pool};
use icc_erasure::{icc2_cluster, Icc2Config};
use icc_gossip::{gossip_cluster, icc0_cluster, GossipConfig, Overlay};
use icc_sim::delay::FixedDelay;
use icc_types::block::{Block, Payload};
use icc_types::messages::{BlockRef, ConsensusMessage, Notarization};
use icc_types::{NodeIndex, Round, SimDuration, SubnetConfig};
use std::sync::Arc;

fn builder(n: usize) -> ClusterBuilder {
    ClusterBuilder::new(n)
        .seed(1)
        .network(FixedDelay::new(SimDuration::from_millis(10)))
        .protocol_delays(SimDuration::from_millis(30), SimDuration::ZERO)
}

fn bench_icc0_rounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("rounds_1s_sim");
    for n in [4usize, 13, 40] {
        g.bench_with_input(BenchmarkId::new("icc0", n), &n, |b, &n| {
            b.iter(|| {
                let mut cluster = icc0_cluster(builder(n));
                cluster.run_for(SimDuration::from_secs(1));
                assert!(cluster.min_committed_round() > 10);
                cluster.min_committed_round()
            })
        });
    }
    g.finish();
}

fn bench_icc1_rounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("rounds_1s_sim");
    for n in [13usize, 40] {
        g.bench_with_input(BenchmarkId::new("icc1_gossip", n), &n, |b, &n| {
            b.iter(|| {
                let overlay = Overlay::random_regular(n, 6, 2);
                let mut cluster = gossip_cluster(builder(n), overlay, GossipConfig::default());
                cluster.run_for(SimDuration::from_secs(1));
                assert!(cluster.min_committed_round() > 5);
                cluster.min_committed_round()
            })
        });
    }
    g.finish();
}

fn bench_icc2_rounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("rounds_1s_sim");
    for n in [7usize, 13] {
        g.bench_with_input(BenchmarkId::new("icc2_rbc", n), &n, |b, &n| {
            b.iter(|| {
                let mut cluster = icc2_cluster(
                    builder(n),
                    Icc2Config {
                        inline_threshold: 0,
                    },
                );
                cluster.run_for(SimDuration::from_secs(1));
                assert!(cluster.min_committed_round() > 5);
                cluster.min_committed_round()
            })
        });
    }
    g.finish();
}

// ---------------------------------------------------------------------
// Duplicate-heavy pool inserts: the refactor's performance argument.
// ---------------------------------------------------------------------

/// How many times each distinct artifact appears in the stream —
/// re-gossip pressure from an n=4 flood where every relay forwards.
const DUP_FACTOR: usize = 8;

fn notarization_of(keys: &[NodeKeys], block_ref: BlockRef) -> Notarization {
    let setup = &keys[0].setup;
    let shares = (0..setup.config.notarization_threshold())
        .map(|i| artifacts::notarization_share(&keys[i], block_ref).share);
    Notarization {
        block_ref,
        sig: setup
            .notary
            .combine(&block_ref.sign_bytes(), shares)
            .expect("threshold shares combine"),
    }
}

/// Three rounds of real consensus traffic (proposals, all parties'
/// shares, aggregates) plus a *sub-threshold* set of round-1 beacon
/// shares, each artifact repeated [`DUP_FACTOR`] times round-robin.
/// Sub-threshold beacon shares mean every combine attempt re-examines
/// the held shares — already checked in the pool, through `S_sig.verify`
/// again in the eager reference.
fn duplicate_stream() -> (Arc<PublicSetup>, Vec<ConsensusMessage>) {
    let n = 4usize;
    let keys = generate_keys(SubnetConfig::new(n), 9);
    let setup = keys[0].setup.clone();
    let mut unique = Vec::new();

    let mut parent = setup.genesis.clone();
    let mut parent_notarization: Option<Notarization> = None;
    for round in 1..=3u64 {
        let round = Round::new(round);
        let proposer = round.get() as usize % n;
        let block = Block::new(
            round,
            NodeIndex::new(proposer as u32),
            parent.hash(),
            Payload::empty(),
        )
        .into_hashed();
        let block_ref = BlockRef::of_hashed(&block);
        unique.push(ConsensusMessage::Proposal(artifacts::proposal(
            &keys[proposer],
            block.clone(),
            parent_notarization.clone(),
        )));
        for k in &keys {
            unique.push(ConsensusMessage::NotarizationShare(
                artifacts::notarization_share(k, block_ref),
            ));
            unique.push(ConsensusMessage::FinalizationShare(
                artifacts::finalization_share(k, block_ref),
            ));
        }
        let notarization = notarization_of(&keys, block_ref);
        unique.push(ConsensusMessage::Notarization(notarization.clone()));
        parent = block;
        parent_notarization = Some(notarization);
    }
    // One beacon share short of the threshold: combine keeps failing.
    for k in keys
        .iter()
        .take(setup.config.beacon_threshold().saturating_sub(1))
    {
        unique.push(ConsensusMessage::BeaconShare(artifacts::beacon_share(
            k,
            Round::new(1),
            &setup.genesis_beacon,
        )));
    }

    let mut stream = Vec::with_capacity(unique.len() * DUP_FACTOR);
    for _ in 0..DUP_FACTOR {
        stream.extend(unique.iter().cloned());
    }
    (setup, stream)
}

/// Drives the whole stream through the pool, attempting a beacon
/// combine every 16 inserts (gossip nodes poll like this), and returns
/// `verify_calls`.
fn run_pool(setup: &Arc<PublicSetup>, stream: &[ConsensusMessage]) -> u64 {
    let mut pool = Pool::new(Arc::clone(setup));
    for (i, msg) in stream.iter().enumerate() {
        pool.insert(msg);
        if i % 16 == 0 {
            pool.try_compute_beacon(Round::new(1));
        }
    }
    pool.stats().verify_calls
}

/// Same workload through the seed's eager-verification pool.
fn run_eager(setup: &Arc<PublicSetup>, stream: &[ConsensusMessage]) -> u64 {
    let mut pool = EagerPool::new(Arc::clone(setup));
    for (i, msg) in stream.iter().enumerate() {
        pool.insert(msg);
        if i % 16 == 0 {
            pool.try_compute_beacon(Round::new(1));
        }
    }
    pool.verify_calls()
}

fn bench_pool_duplicate_inserts(c: &mut Criterion) {
    let (setup, stream) = duplicate_stream();

    // Verification economics, printed once alongside the timings: the
    // counts are deterministic, so a single run each is exact.
    let pool = run_pool(&setup, &stream);
    let eager = run_eager(&setup, &stream);
    println!(
        "pool_duplicate_inserts: {} inserts ({} unique x{DUP_FACTOR}) — verify_calls: \
         pool {pool}, eager {eager}",
        stream.len(),
        stream.len() / DUP_FACTOR,
    );
    assert!(
        pool < eager,
        "duplicates must not reach verification: {pool} < {eager}"
    );

    let mut g = c.benchmark_group("pool_duplicate_inserts");
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("pool", |b| b.iter(|| run_pool(&setup, &stream)));
    g.bench_function("eager_reference", |b| b.iter(|| run_eager(&setup, &stream)));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_icc0_rounds, bench_icc1_rounds, bench_icc2_rounds,
        bench_pool_duplicate_inserts
}
criterion_main!(benches);
