//! `claims` — regenerates the paper's claims, one entry per experiment
//! of `EXPERIMENTS.md`, keyed by its number.
//!
//! ```text
//! cargo run --release -p icc-bench --bin claims -- [--smoke | --quick] <id>…
//! cargo run --release -p icc-bench --bin claims -- --list
//! ```
//!
//! Entries run one after another. Each returns its tables, its
//! "expected shape" note and, for E15–E17, an artifact; one emitter
//! prints them and writes the artifact as `BENCH_<name>.json`: at the
//! repo root for a full run, under `target/claims/` otherwise, so a
//! smoke run never overwrites a committed full-run file. An entry
//! asserts its own claims, so a run that exits 0 held them all.

mod ablation_pipelining;
mod adaptive_delay;
mod chaos;
mod dissemination;
mod durability;
mod gossip_bottleneck;
mod hotstuff_comparison;
mod msg_complexity;
mod recovery;
mod responsiveness;
mod robustness;
mod round_complexity;
mod scale;
mod table1;
mod throughput_latency;
mod weak_adaptive;

use icc_bench::render_table;
use std::path::PathBuf;

/// How long an entry runs: `--smoke` is CI's short variant, `--quick`
/// (E1 only) a 60 s window instead of the paper's five minutes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Full,
    Quick,
    Smoke,
}

/// One printed table: its column names joined by `" | "`, and the
/// lines printed under it.
pub struct Table {
    title: String,
    headers: &'static str,
    rows: Vec<Vec<String>>,
    note: String,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &'static str, rows: Vec<Vec<String>>) -> Table {
        Table {
            title: title.into(),
            headers,
            rows,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Table {
        self.note = note.into();
        self
    }
}

/// What an entry hands the emitter.
pub struct Report {
    tables: Vec<Table>,
    /// What the paper predicts and how the numbers should read.
    shape: String,
    /// `BENCH_<name>.json`'s name and fields, each value already JSON
    /// (`bench` and `smoke` are added by the emitter).
    pub artifact: Option<(&'static str, Vec<(&'static str, String)>)>,
}

impl Report {
    pub fn new(tables: Vec<Table>, shape: impl Into<String>) -> Report {
        Report {
            tables,
            shape: shape.into(),
            artifact: None,
        }
    }
}

/// A one-line JSON object of `(key, JSON value)` pairs.
pub fn json_obj(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A JSON array of JSON values, one to a line.
pub fn json_arr(items: &[String]) -> String {
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

/// One experiment: its `EXPERIMENTS.md` number, a name for `--list`,
/// and the function that runs it.
struct Entry {
    id: &'static str,
    name: &'static str,
    run: fn(Mode) -> Report,
}

const fn entry(id: &'static str, name: &'static str, run: fn(Mode) -> Report) -> Entry {
    Entry { id, name, run }
}

const ENTRIES: [Entry; 16] = [
    entry("E1", "table1", table1::run),
    entry("E2", "msg_complexity", msg_complexity::run),
    entry("E3", "throughput_latency", throughput_latency::run),
    entry("E4", "round_complexity", round_complexity::run),
    entry("E5", "responsiveness", responsiveness::run),
    entry("E6", "robustness", robustness::run),
    entry("E7", "dissemination", dissemination::run),
    entry("E8", "gossip_bottleneck", gossip_bottleneck::run),
    entry("E9", "hotstuff_comparison", hotstuff_comparison::run),
    entry("E9b", "weak_adaptive", weak_adaptive::run),
    entry("E10", "adaptive_delay", adaptive_delay::run),
    entry("E12", "ablation_pipelining", ablation_pipelining::run),
    entry("E14", "recovery", recovery::run),
    entry("E15", "durability", durability::run),
    entry("E16", "chaos", chaos::run),
    entry("E17", "scale", scale::run),
];

/// What the command line asks for.
enum Command {
    List,
    Run(Mode, Vec<&'static Entry>),
}

fn ids() -> String {
    ENTRIES.iter().map(|e| e.id).collect::<Vec<_>>().join(" ")
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (mut smoke, mut quick, mut list, mut entries) = (false, false, false, Vec::new());
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--quick" => quick = true,
            "--list" => list = true,
            flag if flag.starts_with('-') => {
                return Err(format!(
                    "unknown argument: {flag} (flags: --smoke, --quick, --list)"
                ))
            }
            id => match ENTRIES.iter().find(|e| e.id == id) {
                Some(entry) => entries.push(entry),
                None => return Err(format!("unknown experiment: {id} (ids: {})", ids())),
            },
        }
    }
    if list {
        return Ok(Command::List);
    }
    if entries.is_empty() {
        return Err(format!(
            "usage: claims [--smoke | --quick] <id>… | --list (ids: {})",
            ids()
        ));
    }
    let mode = if smoke {
        Mode::Smoke
    } else if quick {
        Mode::Quick
    } else {
        Mode::Full
    };
    Ok(Command::Run(mode, entries))
}

/// Prints `report` and writes its artifact.
fn emit(report: Report, mode: Mode) {
    for t in &report.tables {
        let headers: Vec<&str> = t.headers.split(" | ").collect();
        println!("{}", render_table(&t.title, &headers, &t.rows));
        if !t.note.is_empty() {
            println!("{}", t.note);
        }
    }
    if !report.shape.is_empty() {
        println!("{}", report.shape);
    }
    let Some((name, fields)) = report.artifact else {
        return;
    };
    let mut json = format!(
        "{{\n  \"bench\": \"{name}\",\n  \"smoke\": {}",
        mode == Mode::Smoke
    );
    for (key, value) in fields {
        json.push_str(&format!(",\n  \"{key}\": {value}"));
    }
    json.push_str("\n}\n");
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if mode == Mode::Full {
        repo
    } else {
        repo.join("target/claims")
    };
    let out = dir.join(format!("BENCH_{name}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&out, json))
        .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    eprintln!("wrote {}", out.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::List) => {
            for e in &ENTRIES {
                println!("{:<4} {}", e.id, e.name);
            }
        }
        Ok(Command::Run(mode, entries)) => {
            for entry in entries {
                eprintln!("claims: {} ({})", entry.id, entry.name);
                emit((entry.run)(mode), mode);
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn ids_are_unique() {
        for e in &ENTRIES {
            assert_eq!(
                ENTRIES.iter().filter(|o| o.id == e.id).count(),
                1,
                "{}",
                e.id
            );
        }
    }

    #[test]
    fn every_experiment_resolves() {
        let ids = "E1 E2 E3 E4 E5 E6 E7 E8 E9 E9b E10 E12 E14 E15 E16 E17";
        assert_eq!(super::ids(), ids);
        for id in ids.split(' ') {
            let Ok(Command::Run(Mode::Smoke, entries)) = parse_args(&["--smoke", id]) else {
                panic!("{id} does not resolve");
            };
            assert_eq!(entries[0].id, id);
        }
        assert!(matches!(
            parse_args(&["E1"]),
            Ok(Command::Run(Mode::Full, _))
        ));
        assert!(matches!(
            parse_args(&["--quick", "E1"]),
            Ok(Command::Run(Mode::Quick, _))
        ));
        assert!(matches!(parse_args(&["--list"]), Ok(Command::List)));
    }

    #[test]
    fn unknown_ids_and_flags_name_the_valid_ones() {
        for (args, names) in [
            (&["E11"][..], &["E11", "E9b", "E17"][..]),
            (&["fig_scale"], &["fig_scale", "E1 E2 E3"]),
            (
                &["--fast", "E1"],
                &["--fast", "--smoke", "--quick", "--list"],
            ),
            (&[], &["E14"]),
        ] {
            let Err(e) = parse_args(args) else {
                panic!("{args:?} parsed")
            };
            assert!(names.iter().all(|n| e.contains(n)), "{e}");
        }
    }
}
