//! `--aa K`: does the benchmark agree with itself? Two interleaved sets
//! of K runs of the same code per workload (A B A B …, every run with
//! another seed, each run a fresh process), then per (workload, metric):
//! both medians, their difference, IQR/median, the bound.
//!
//! Pass rule: the medians differ by at most half the bound. A pair
//! whose IQR/median (over all 2K runs, the spread the acceptance check
//! computes) exceeds its bound is *unresolved*: the measurement, not
//! the bound, needs fixing.

use crate::json;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_over_median, median};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

fn one_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let doc = json::parse(last)?;
    if doc.get("correct") != Some(&json::Value::Bool(true))
        || doc.get("failed").and_then(json::Value::as_f64) != Some(0.0)
    {
        return Err(format!(
            "{workload} seed {seed}: incorrect or failed commands: {last}"
        ));
    }
    let json::Value::Obj(metrics) = doc.get("metrics").ok_or("no metrics")? else {
        return Err("metrics is not an object".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

pub fn run(k: usize, seconds: f64, out: &Path) -> Result<(), String> {
    if k < 2 {
        return Err("--aa needs K >= 2".into());
    }
    println!(
        "| workload | metric | median A | median B | B worse by | IQR/median | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for (workload, _) in WORKLOADS {
        let mut sets: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * k {
            let seed = 1000 + i as u64;
            sets[i % 2].push(one_run(workload, seed, seconds, out)?);
        }
        for (def, bound) in END_TO_END {
            let values = |set: &[BTreeMap<String, f64>]| -> Vec<f64> {
                set.iter()
                    .filter_map(|m| m.get(def.name).copied())
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (
                median(a.clone()).ok_or("empty set")?,
                median(b.clone()).ok_or("empty set")?,
            );
            // Positive when set B reads worse than set A.
            let worse = if def.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let pooled: Vec<f64> = a.iter().chain(&b).copied().collect();
            let spread = iqr_over_median(&pooled).unwrap_or(f64::NAN);
            let verdict = if spread > *bound {
                "UNRESOLVED"
            } else if worse.abs() <= bound / 2.0 {
                "pass"
            } else {
                "FAIL"
            };
            all_pass &= verdict == "pass";
            println!(
                "| {workload} | {} | {ma:.4} | {mb:.4} | {:+.1} % | {:.1} % | {:.0} % | {verdict} |",
                def.name,
                worse * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    if all_pass {
        Ok(())
    } else {
        Err("--aa: at least one (workload, metric) pair failed or is unresolved".into())
    }
}
