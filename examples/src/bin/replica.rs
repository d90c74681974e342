//! A consensus **replica as an OS process**: the `icc-node` replica
//! (one ICC1 node — gossip + consensus core — over a real TCP mesh)
//! behind command-line flags. Start `n` of these against the same
//! peer-config file and the same `--seed` (and `--epochs`, if any) and
//! they form a cluster on your machine:
//!
//! ```text
//! cargo run --release -p icc-examples --bin replica -- \
//!     --config cluster.txt --me 0 --secs 10
//! ```
//!
//! where `cluster.txt` lists every peer, one `<index> <host:port>` per
//! line (see `icc_net::ClusterSpec`). The stdout records (`READY`,
//! `ADMIN`, `COMMIT`, `REPORT`), the admin plane and the data directory
//! are documented in the `icc-node` crate.
//!
//! Exit codes: 0 after a clean run, 2 on a usage error, and 3 when the
//! store failed to persist a consensus step and the replica stopped
//! signing (`"halted":true` in the REPORT line) — distinct from a crash,
//! which leaves no code at all. SIGTERM stops the run gracefully, store
//! synced and exports written; SIGKILL stays the hard-crash path the
//! durability machinery exists for.

use icc_net::{ClusterSpec, NetOptions, TcpTransport};
use icc_node::{Replica, Settings};
use icc_types::NodeIndex;
use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: replica --config PATH --me N [--secs S] [--seed U64]\n\
         \t[--delta-bnd-ms MS] [--epsilon-ms MS] [--cmd-rate PER_S] [--cmd-size BYTES]\n\
         \t[--data-dir PATH] [--trace-out PATH] [--metrics-out PATH]\n\
         \t[--epochs SPEC] [--admin-port PORT]\n\
         \twhere SPEC is 'round:members;round:members', e.g. '0:0,1,2,3;30:0,1,2,4'"
    );
    std::process::exit(2);
}

/// Exit code of a replica whose store failed to persist a step.
const EXIT_HALTED: i32 = 3;

/// Set by the SIGTERM handler; the run loop watches it, then stops,
/// syncs the store, and writes every export instead of dying
/// mid-line.
static TERMINATED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    // Raw libc `signal` (std links libc already; no crate needed): the
    // handler only sets an atomic flag, which is async-signal-safe.
    const SIGTERM: i32 = 15;
    extern "C" fn on_sigterm(_sig: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// `(--config, the rest)`.
fn parse() -> (String, Settings) {
    let mut s = Settings::default();
    let (mut config, mut me) = (None, None);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next().cloned() else {
            usage(&format!("{flag} requires a value"))
        };
        fn num<T: FromStr>(flag: &str, v: &str) -> T {
            v.parse().unwrap_or_else(|_| usage(&format!("bad {flag}")))
        }
        match flag.as_str() {
            "--config" => config = Some(val),
            "--me" => me = Some(num(flag, &val)),
            "--secs" => s.secs = num(flag, &val),
            "--seed" => s.seed = num(flag, &val),
            "--delta-bnd-ms" => s.delta_bnd_ms = num(flag, &val),
            "--epsilon-ms" => s.epsilon_ms = num(flag, &val),
            "--cmd-rate" => s.cmd_rate = num(flag, &val),
            "--cmd-size" => s.cmd_size = num(flag, &val),
            "--data-dir" => s.data_dir = Some(val.into()),
            "--trace-out" => s.trace_out = Some(val.into()),
            "--metrics-out" => s.metrics_out = Some(val.into()),
            "--epochs" => s.epochs = Some(val),
            "--admin-port" => s.admin_port = Some(num(flag, &val)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let config = config.unwrap_or_else(|| usage("--config is required"));
    s.me = me.unwrap_or_else(|| usage("--me is required"));
    (config, s)
}

fn main() {
    let (config, settings) = parse();
    let spec = ClusterSpec::load(Path::new(&config))
        .unwrap_or_else(|e| usage(&format!("--config {config}: {e}")));
    let me = NodeIndex::new(settings.me);
    let replica = Replica::build(spec.n(), settings).unwrap_or_else(|e| usage(&e));
    let transport: TcpTransport<_, _> = TcpTransport::bind(&spec, me, NetOptions::default())
        .unwrap_or_else(|e| usage(&format!("bind {}: {e}", spec.addr(me))));
    install_sigterm_handler();
    let report = replica
        .run(transport, &TERMINATED, &mut std::io::stdout())
        .unwrap_or_else(|e| usage(&e));
    if report.halted {
        std::process::exit(EXIT_HALTED);
    }
}
