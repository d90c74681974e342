//! The repo benchmark. `benchmark/run` builds this package offline and
//! executes it:
//!
//! ```text
//! bash benchmark/run --workload W --seed S [--seconds N] [--trace 0|1]
//! bash benchmark/run --smoke            # 3 s per workload + self-test
//! bash benchmark/run --aa K             # two interleaved sets of K runs
//! ```
//!
//! One run drives one workload against the workspace crates in this one
//! process, checks the outputs, prints every metric by name with its
//! unit, and ends with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics`. See `benchmark/README.md`.

mod aa;
mod json;
mod measure;
mod metrics;
mod os;
mod simw;
mod stats;
mod sut;
mod tcp;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Duration;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    manifest: PathBuf,
    smoke: bool,
    aa: Option<usize>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: benchmark/run --workload NAME --seed N [--seconds N] [--trace 0|1]\n\
         \x20      benchmark/run --smoke | --aa K\n\
         workloads: {}",
        metrics::WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse() -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        out: PathBuf::from("benchmark/out"),
        manifest: PathBuf::from("BENCHMARK.json"),
        smoke: false,
        aa: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} requires a value")))
                .clone()
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(val()),
            "--seed" => {
                let v = val();
                // Any integer is a seed; a negative one keeps its bits.
                a.seed = v
                    .parse::<u64>()
                    .or_else(|_| v.parse::<i64>().map(|s| s as u64))
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                a.seconds = val().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(a.seconds >= 1.0 && a.seconds <= 60.0) {
                    usage("--seconds must be within 1..=60");
                }
            }
            "--trace" => {
                a.traced = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out" => a.out = PathBuf::from(val()),
            "--manifest" => a.manifest = PathBuf::from(val()),
            "--smoke" => a.smoke = true,
            "--aa" => a.aa = Some(val().parse().unwrap_or_else(|_| usage("bad --aa"))),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    a
}

/// The run's scratch directory, removed on every exit path this
/// process controls: normal return, error, panic unwinding through
/// `main`, and the watchdog.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How long a run may take before the watchdog ends it. A traced run
/// costs 1.45 × `--seconds` on the box this was written on (window,
/// untraced reference, set-ups, drain), so the issue's "2 × run
/// seconds" would leave a slower box no margin: 3 ×, at least 60 s, and
/// always inside the 180 s any single run is allowed.
fn watchdog_limit(seconds: f64) -> Duration {
    Duration::from_secs_f64((3.0 * seconds).clamp(60.0, 170.0))
}

/// Ends a run that overshoots: exit ≠ 0 and a one-line reason.
fn arm_watchdog(limit: Duration, tmp: PathBuf) {
    std::thread::Builder::new()
        .name("watchdog".into())
        .spawn(move || {
            std::thread::sleep(limit);
            let _ = std::fs::remove_dir_all(&tmp);
            eprintln!(
                "watchdog: run exceeded its {:.0} s limit; aborting",
                limit.as_secs_f64()
            );
            std::process::exit(3);
        })
        .expect("spawn watchdog");
}

/// Runs one workload and prints the result. Returns whether the run
/// was correct and the metric names it emitted.
fn run_one(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<(bool, Vec<String>), String> {
    let tmp = TmpDir(out.join(format!("tmp-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&tmp.0);
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("create {}: {e}", tmp.0.display()))?;
    let fin = workload::run(name, seed, seconds, traced, &tmp.0, out)?;
    for note in &fin.notes {
        eprintln!("{note}");
    }
    for p in &fin.problems {
        eprintln!("INCORRECT: {p}");
    }
    for (metric, value, unit) in &fin.metrics {
        println!("{metric:<40} {value:>16.4} {unit}");
    }
    let body = fin
        .metrics
        .iter()
        .map(|(metric, value, unit)| {
            format!(
                "\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json::num(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        fin.correct, fin.attempted, fin.failed
    );
    Ok((
        fin.correct && fin.failed == 0,
        fin.metrics.into_iter().map(|(n, _, _)| n).collect(),
    ))
}

/// The metrics in `BENCHMARK.json` and in the registry must be the same
/// set, each with the same unit, direction and bound; a run must have
/// emitted exactly the registry's names; the workloads must match too.
fn self_test(
    manifest: &Path,
    emitted_e2e: &[String],
    emitted_layer: &[String],
) -> Result<(), String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("read {}: {e}", manifest.display()))?;
    let doc = json::parse(&text)?;
    // One canonical line per metric, so that the two sides compare as
    // sets of strings.
    let line = |name: &str, unit: &str, better: &str, bound: Option<f64>| {
        format!("{name} [{unit}, {better}, bound {bound:?}]")
    };
    let mut errors = Vec::new();
    let lists: [(&str, Vec<String>, &[String]); 2] = [
        (
            "end_to_end",
            metrics::END_TO_END
                .iter()
                .map(|(d, b)| line(d.name, d.unit, d.better, Some(*b)))
                .collect(),
            emitted_e2e,
        ),
        (
            "per_layer",
            metrics::PER_LAYER
                .iter()
                .map(|d| line(d.name, d.unit, d.better, None))
                .collect(),
            emitted_layer,
        ),
    ];
    for (key, ours, emitted) in lists {
        let text_of = |m: &json::Value, f: &str| {
            m.get(f)
                .and_then(json::Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let theirs: Vec<String> = doc
            .get(key)
            .and_then(json::Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                line(
                    &text_of(m, "name"),
                    &text_of(m, "unit"),
                    &text_of(m, "better"),
                    m.get("bound").and_then(json::Value::as_f64),
                )
            })
            .collect();
        for l in ours.iter().filter(|l| !theirs.contains(l)) {
            errors.push(format!("{key}: harness has `{l}`, BENCHMARK.json does not"));
        }
        for l in theirs.iter().filter(|l| !ours.contains(l)) {
            errors.push(format!("{key}: BENCHMARK.json has `{l}`, harness does not"));
        }
        let registered: Vec<&str> = ours.iter().filter_map(|l| l.split(' ').next()).collect();
        if registered != emitted.iter().map(String::as_str).collect::<Vec<_>>() {
            errors.push(format!(
                "{key}: the run emitted {emitted:?}, registry has {registered:?}"
            ));
        }
    }
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(json::Value::as_arr)
        .map(|a| a.iter().filter_map(|w| w.get("name")?.as_str()).collect())
        .unwrap_or_default();
    let ours: Vec<&str> = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
    if names != ours {
        errors.push(format!("workloads: manifest {names:?} vs harness {ours:?}"));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

/// `--smoke`: every workload for 3 s untraced on one seed and traced on
/// a second seed, then the name self-test and a load of one written
/// Chrome trace.
fn smoke(a: &Args) -> Result<(), String> {
    const SMOKE_SECONDS: f64 = 3.0;
    let mut e2e = Vec::new();
    let mut layer = Vec::new();
    for (name, _) in metrics::WORKLOADS {
        for (seed, traced) in [(a.seed, false), (a.seed + 1, true)] {
            eprintln!("== smoke: {name} seed {seed} trace {}", u8::from(traced));
            let (ok, names) = run_one(name, seed, SMOKE_SECONDS, traced, &a.out)?;
            if !ok {
                return Err(format!(
                    "{name} seed {seed}: run incorrect or with failed commands"
                ));
            }
            if traced {
                layer = names;
                let path = a.out.join(format!("trace-{name}-{seed}.json"));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let events = json::parse(&text)?
                    .get("traceEvents")
                    .and_then(json::Value::as_arr)
                    .map_or(0, <[json::Value]>::len);
                if events == 0 {
                    return Err(format!("{}: no trace events", path.display()));
                }
                eprintln!("trace {} loads: {events} events", path.display());
            } else {
                e2e = names;
            }
        }
    }
    self_test(&a.manifest, &e2e, &layer)?;
    eprintln!("smoke: all workloads correct on two seeds; names match BENCHMARK.json");
    Ok(())
}

fn main() {
    let a = parse();
    let result = if a.smoke {
        arm_watchdog(
            Duration::from_secs(600),
            a.out.join(format!("tmp-{}", std::process::id())),
        );
        smoke(&a)
    } else if let Some(k) = a.aa {
        aa::run(k, a.seconds, &a.out)
    } else {
        let name = a
            .workload
            .clone()
            .unwrap_or_else(|| usage("--workload is required"));
        arm_watchdog(
            watchdog_limit(a.seconds),
            a.out.join(format!("tmp-{}", std::process::id())),
        );
        run_one(&name, a.seed, a.seconds, a.traced, &a.out).map(|_| ())
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
