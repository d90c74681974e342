//! Criterion benchmarks of whole consensus rounds: how much *simulator*
//! wall-clock one protocol round costs end-to-end at the paper's subnet
//! sizes, for ICC0, ICC1 (gossip) and ICC2 (erasure RBC), plus a
//! duplicate-heavy artifact-pool insert workload. (That the pool
//! verifies less than the seed's eager pool on the same stream is a
//! test: `icc-core`'s `pool_differential.rs`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use icc_core::cluster::ClusterBuilder;
use icc_core::keys::PublicSetup;
use icc_core::pool::Pool;
use icc_erasure::{icc2_cluster, Icc2Config};
use icc_gossip::{gossip_cluster, icc0_cluster, GossipConfig, Overlay};
use icc_sim::delay::FixedDelay;
use icc_types::messages::ConsensusMessage;
use icc_types::{Round, SimDuration};
use std::sync::Arc;

#[path = "../../core/tests/support/duplicate_stream.rs"]
mod duplicate_stream;
use duplicate_stream::duplicate_stream;

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
// Duplicate-heavy pool inserts (the stream is shared with a test).
// ---------------------------------------------------------------------

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

fn bench_pool_duplicate_inserts(c: &mut Criterion) {
    let (setup, stream) = duplicate_stream();

    let mut g = c.benchmark_group("pool_duplicate_inserts");
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("pool", |b| b.iter(|| run_pool(&setup, &stream)));
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
