//! **Hot-path micro-benchmark** — A/B measurements of product code
//! on the hot path, written to `BENCH_hotpath.json` (under `target/`
//! for a `--smoke` run). Each cell times a function the workspace
//! ships against a reference or a bare baseline.
//!
//! 1. `digest_cache` — per-share verification of a 40-node
//!    notarization-share flood with the `(scheme, block)` digest
//!    computed once (`verify_share_digest`) vs re-hashed on every call
//!    (`verify_share`, what the pool calls as each share arrives,
//!    DESIGN.md §5a);
//! 2. `arc_fanout` — fanning a large block proposal out to the 39 other
//!    parties by `HashedBlock` clone (an `Arc` refcount bump) vs a deep
//!    copy of the block body (what a by-value fan-out would pay);
//! 3. `telemetry_overhead` — one round's worth of flood verification
//!    with the telemetry layer's instrumentation (per-share counter
//!    bumps, a histogram sample, a flight-recorder event) vs without;
//! 4. `scrape_under_load` — the same flood while a live admin HTTP
//!    server is being scraped continuously (`/metrics` hammered from a
//!    rival thread) vs with no admin plane at all. The admin handler
//!    only clones a pre-rendered snapshot string — the design bet of
//!    the observability plane is that scrapes never touch the hot
//!    path, and this cell is where that bet is priced;
//! 5. `crc32_16k` — the frame checksum over one 16 KiB command: the
//!    one-table bytewise loop (kept here as the reference) vs the
//!    shipped slice-by-8 [`icc_types::frame::crc32`];
//! 6. `block_id_100k` — the id of a block of 6 × 16 KiB commands on a
//!    replica that also needs the command digests for dedup, digests
//!    cold on both sides: streaming the payload through the block hash
//!    and then hashing each command again (the pre-payload-root scheme,
//!    reference kept here; its re-hash is today's `Command::digest`) vs
//!    the shipped `Block::hash`, whose only pass over the payload *is*
//!    the command digests;
//! 7. `cmd_digest_16k` — that one pass over one 16 KiB command, cold:
//!    the SHA-256 `hash_parts("cmd", ..)` digest (kept here as the
//!    reference) vs the shipped BLAKE2b-256 `Command::digest`.
//!
//! Hand-rolled harness (`harness = false`): `--smoke` shrinks the
//! iteration counts for CI while still emitting the JSON report.
//!
//! ```text
//! cargo bench -p icc-bench --bench hotpath             # full
//! cargo bench -p icc-bench --bench hotpath -- --smoke  # CI smoke
//! ```

use icc_crypto::multisig::{MultiSigScheme, MultiSigShare};
use icc_telemetry::{
    http_get, AdminBuilder, AdminResponse, Counter, FlightRecorder, Histogram, SpanEvent, SpanKind,
};
use icc_types::block::{Block, Command, Payload};
use icc_types::{NodeIndex, Round};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One A/B cell: median ns/iter for baseline and optimised paths.
struct AbResult {
    name: &'static str,
    what: &'static str,
    baseline_ns: f64,
    optimised_ns: f64,
}

impl AbResult {
    fn speedup(&self) -> f64 {
        self.baseline_ns / self.optimised_ns.max(1e-9)
    }
}

/// Median ns per iteration over `reps` timed blocks of `iters` calls.
fn time_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(samples)
}

/// Median ns of `f` over `samples` inputs, each built by `make`
/// outside the clock — so a lazily cached digest starts cold.
fn time_cold<T>(samples: usize, make: impl Fn() -> T, f: impl Fn(&T)) -> f64 {
    median(
        (0..samples)
            .map(|_| {
                let input = make();
                let start = Instant::now();
                f(black_box(&input));
                start.elapsed().as_nanos() as f64
            })
            .collect(),
    )
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

/// The IEEE CRC-32 lookup table (built once, outside the clock).
fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        *slot = crc;
    }
    table
}

/// Reference for cell 5: the one-table, byte-at-a-time CRC-32 (IEEE)
/// that `icc_types::frame::crc32` used before slice-by-8.
fn crc32_bytewise(table: &[u32; 256], data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Reference for cell 6: the pre-payload-root block id — the block's
/// canonical encoding, every payload byte included, streamed through
/// one SHA-256 under the `"block"` domain.
fn streamed_block_hash(block: &Block) -> icc_crypto::Hash256 {
    use icc_types::codec::Encode;
    let mut h = icc_crypto::Sha256::new();
    h.update(5u32.to_le_bytes());
    h.update(b"block");
    h.update((block.encoded_len() as u64).to_le_bytes());
    h.update(block.round().get().to_le_bytes());
    h.update(block.proposer().get().to_le_bytes());
    h.update(block.parent().as_bytes());
    h.update((block.payload().len() as u64).to_le_bytes());
    for c in block.payload().commands() {
        h.update((c.len() as u64).to_le_bytes());
        h.update(c.bytes());
    }
    h.finalize()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // `cargo bench` passes `--bench`; ignore it and any filters.
    let (reps, iters) = if smoke { (5, 50) } else { (15, 500) };

    // A 40-node subnet's notarization-share flood: h = n - t shares
    // over one block reference, the per-round verification hot spot.
    let n = 40usize;
    let t = n.div_ceil(3) - 1;
    let h = n - t;
    let mut rng = StdRng::seed_from_u64(7);
    let (scheme, keys) = MultiSigScheme::generate("icc-notary", h, n, &mut rng);
    let msg = b"a 44-byte block reference to sign and check."; // round ∥ proposer ∥ H(B)
    let shares: Vec<MultiSigShare> = (0..h)
        .map(|i| scheme.sign_share(&keys[i], i as u32, msg))
        .collect();

    let mut results: Vec<AbResult> = Vec::new();

    // 1. Digest cache: k shares, one hash vs k hashes (all per-share).
    let baseline = time_ns(reps, iters, || {
        for s in &shares {
            assert!(black_box(scheme.verify_share(black_box(msg), s)));
        }
    });
    let optimised = time_ns(reps, iters, || {
        let d = scheme.digest(black_box(msg)); // once per flood
        for s in &shares {
            assert!(black_box(scheme.verify_share_digest(d, s)));
        }
    });
    results.push(AbResult {
        name: "digest_cache",
        what: "40-node share flood, per-share checks: digest once vs hash per call",
        baseline_ns: baseline,
        optimised_ns: optimised,
    });

    // 2. Fan-out: a 1000 × 1 KB block to 39 recipients. `HashedBlock`
    // clones bump one refcount; the baseline deep-copies the body.
    let commands: Vec<Command> = (0..1000)
        .map(|i| Command::new(vec![(i % 251) as u8; 1024]))
        .collect();
    let block = Block::new(
        Round::new(3),
        NodeIndex::new(1),
        icc_crypto::Hash256::ZERO,
        Payload::from_commands(commands),
    );
    let hashed = block.clone().into_hashed();
    let fan = n - 1;
    let baseline = time_ns(reps, iters.min(100), || {
        // Deep copy per recipient: fresh command buffers each time.
        for _ in 0..fan {
            let copy = Block::new(
                block.round(),
                block.proposer(),
                block.parent(),
                Payload::from_commands(
                    block
                        .payload()
                        .commands()
                        .iter()
                        .map(|c| Command::new(c.bytes().to_vec()))
                        .collect::<Vec<_>>(),
                ),
            );
            black_box(&copy);
        }
    });
    let optimised = time_ns(reps, iters.min(100), || {
        for _ in 0..fan {
            black_box(hashed.clone());
        }
    });
    results.push(AbResult {
        name: "arc_fanout",
        what: "1 MB proposal to 39 recipients: Arc clone vs deep copy",
        baseline_ns: baseline,
        optimised_ns: optimised,
    });

    // 3. Telemetry overhead: the instrumentation a round actually pays
    // (one counter bump per share, one histogram sample and one
    // flight-recorder event per flood) on top of the flood's real
    // verification work. The expectation is "within noise": a handful
    // of integer ops against h signature checks.
    let mut counter = Counter::new();
    let mut histo = Histogram::new();
    let mut recorder = FlightRecorder::with_capacity(icc_telemetry::recorder::DEFAULT_CAPACITY);
    let mut tick = 0u64;
    let baseline = time_ns(reps, iters, || {
        let d = scheme.digest(black_box(msg));
        for s in &shares {
            assert!(black_box(scheme.verify_share_digest(d, s)));
        }
    });
    let instrumented = time_ns(reps, iters, || {
        let d = scheme.digest(black_box(msg));
        for s in &shares {
            assert!(black_box(scheme.verify_share_digest(d, s)));
            counter.inc();
        }
        tick += 1;
        histo.observe(tick);
        recorder.record(SpanEvent {
            at_us: tick,
            node: 0,
            round: tick,
            kind: SpanKind::Notarized { rank: 0 },
        });
    });
    black_box((counter.get(), histo.count(), recorder.len()));
    let telemetry_overhead_pct = (instrumented - baseline) / baseline.max(1e-9) * 100.0;
    results.push(AbResult {
        name: "telemetry_overhead",
        what: "round's share flood with telemetry instrumentation vs without",
        baseline_ns: baseline,
        optimised_ns: instrumented,
    });

    // 4. Scrape under load: the flood with the admin plane live and a
    // scraper thread hammering /metrics as fast as it can, vs no admin
    // plane. The handler clones a pre-rendered page (the replica swaps
    // whole snapshots under a mutex off the hot path), so the measured
    // delta is pure accept-thread and kernel socket noise.
    let metrics_page: Arc<String> = Arc::new({
        let mut page = String::from(
            "# HELP icc_replica_committed_round Highest committed round.\n\
             # TYPE icc_replica_committed_round gauge\n\
             icc_replica_committed_round 512\n",
        );
        for i in 0..120 {
            page.push_str(&format!("icc_bench_counter{{field=\"f{i}\"}} {i}\n"));
        }
        page
    });
    let quiet = time_ns(reps, iters, || {
        let d = scheme.digest(black_box(msg));
        for s in &shares {
            assert!(black_box(scheme.verify_share_digest(d, s)));
        }
    });
    let page = Arc::clone(&metrics_page);
    let server = AdminBuilder::new()
        .route("/metrics", move || AdminResponse::text((*page).clone()))
        .serve("127.0.0.1:0")
        .expect("bind admin server");
    let stop = Arc::new(AtomicBool::new(false));
    let scrape_count = Arc::new(AtomicU64::new(0));
    let scraper = {
        let addr = server.local_addr().to_string();
        let flag = Arc::clone(&stop);
        let count = Arc::clone(&scrape_count);
        std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                if http_get(&addr, "/metrics", Duration::from_millis(200)).is_ok() {
                    count.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };
    // Don't start the clock until the scraper has landed at least one
    // full GET — otherwise a short smoke run measures nothing but an
    // idle listener.
    while scrape_count.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    let under_scrape = time_ns(reps, iters, || {
        let d = scheme.digest(black_box(msg));
        for s in &shares {
            assert!(black_box(scheme.verify_share_digest(d, s)));
        }
    });
    stop.store(true, Ordering::Relaxed);
    scraper.join().expect("scraper thread");
    let scrapes_served = scrape_count.load(Ordering::Relaxed);
    drop(server);
    let scrape_overhead_pct = (under_scrape - quiet) / quiet.max(1e-9) * 100.0;
    results.push(AbResult {
        name: "scrape_under_load",
        what: "round's share flood with /metrics under continuous scrape vs no admin plane",
        baseline_ns: quiet,
        optimised_ns: under_scrape,
    });

    // 5. CRC-32 over one 16 KiB command's worth of frame payload.
    let buf: Vec<u8> = (0..16 * 1024u32).map(|i| (i * 31 + 7) as u8).collect();
    let table = crc32_table();
    assert_eq!(crc32_bytewise(&table, &buf), icc_types::frame::crc32(&buf));
    let baseline = time_ns(reps, iters, || {
        black_box(crc32_bytewise(&table, black_box(&buf)));
    });
    let optimised = time_ns(reps, iters, || {
        black_box(icc_types::frame::crc32(black_box(&buf)));
    });
    results.push(AbResult {
        name: "crc32_16k",
        what: "CRC-32 of a 16 KiB payload: bytewise table vs slice-by-8",
        baseline_ns: baseline,
        optimised_ns: optimised,
    });

    // 6. Block id + dedup digests for 6 × 16 KiB commands. Fresh
    // `Command`s every iteration (outside the clock) keep the digest
    // cache cold, as it is when a proposal has just been decoded.
    let bulk_block = || {
        let commands = (0..6u8)
            .map(|i| Command::new(vec![i.wrapping_mul(41); 16 * 1024]))
            .collect();
        Block::new(
            Round::new(9),
            NodeIndex::new(2),
            icc_crypto::Hash256([7; 32]),
            Payload::from_commands(commands),
        )
    };
    let bulk_samples = reps * iters.min(100);
    let baseline = time_cold(bulk_samples, bulk_block, |block| {
        black_box(streamed_block_hash(block));
        for c in block.payload().commands() {
            black_box(c.digest());
        }
    });
    let optimised = time_cold(bulk_samples, bulk_block, |block| {
        black_box(block.hash());
        for c in block.payload().commands() {
            black_box(c.digest());
        }
    });
    results.push(AbResult {
        name: "block_id_100k",
        what: "block id + dedup digests, 6 x 16 KiB commands, cold: stream payload then digest vs payload root",
        baseline_ns: baseline,
        optimised_ns: optimised,
    });

    // 7. One command's digest, 16 KiB, on a fresh `Command` per sample
    // (built outside the clock) so the digest cache is cold.
    let cmd_bytes: Vec<u8> = (0..16 * 1024u32).map(|i| (i * 13 + 1) as u8).collect();
    let fresh = || Command::new(cmd_bytes.clone());
    assert_eq!(
        fresh().digest(),
        icc_crypto::blake2b::hash_parts("cmd", &[&cmd_bytes])
    );
    let baseline = time_cold(reps * iters, fresh, |c| {
        black_box(icc_crypto::hash_parts("cmd", &[c.bytes()]));
    });
    let optimised = time_cold(reps * iters, fresh, |c| {
        black_box(c.digest());
    });
    results.push(AbResult {
        name: "cmd_digest_16k",
        what: "command digest of a 16 KiB command, cold: SHA-256 vs BLAKE2b-256",
        baseline_ns: baseline,
        optimised_ns: optimised,
    });

    // Report: aligned table + BENCH_hotpath.json.
    println!(
        "== hotpath micro-benchmark ({}) ==",
        if smoke { "smoke" } else { "full" }
    );
    for r in &results {
        println!(
            "{:>14}: {:>12.0} ns -> {:>12.0} ns  ({:>6.2}x)  {}",
            r.name,
            r.baseline_ns,
            r.optimised_ns,
            r.speedup(),
            r.what
        );
    }
    println!(
        "telemetry: instrumentation overhead {telemetry_overhead_pct:+.2}% of a round's flood"
    );
    println!(
        "admin plane: {scrapes_served} scrapes served, scrape-under-load overhead {scrape_overhead_pct:+.2}%"
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!("  \"n\": {n},\n  \"flood_shares\": {h},\n"));
    json.push_str(&format!(
        "  \"telemetry_overhead_pct\": {telemetry_overhead_pct:.2},\n"
    ));
    json.push_str(&format!(
        "  \"scrapes_served\": {scrapes_served},\n  \"scrape_overhead_pct\": {scrape_overhead_pct:.2},\n",
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_ns\": {:.1}, \"optimised_ns\": {:.1}, \"speedup\": {:.3}, \"what\": \"{}\"}}{}\n",
            r.name,
            r.baseline_ns,
            r.optimised_ns,
            r.speedup(),
            r.what,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    // `cargo bench` sets CWD to the package root; anchor the output at the
    // workspace root (a full run) or under its `target/` (a smoke run, so
    // it never overwrites the committed full-run file).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if smoke { root.join("target") } else { root };
    let out = dir.join("BENCH_hotpath.json");
    std::fs::create_dir_all(&dir).expect("create output dir");
    std::fs::write(&out, &json).expect("write BENCH_hotpath.json");
    eprintln!("wrote {}", out.display());
}
