//! `repeat <n>`: run every workload `n` times, one process per run, in
//! alternating order, and print each metric's median, quartiles and spread
//! beside its bound — the numbers `BENCHMARK.json`'s bounds come from.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use crate::workloads::WORKLOADS;
use psme_obs::Json;
use std::process::Command;

fn benchmark_json() -> Option<Json> {
    let path = crate::sys::manifest_dir().join("..").join("BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// `run_seconds` of `BENCHMARK.json`, or 20 when it cannot be read.
pub fn default_seconds() -> f64 {
    benchmark_json()
        .and_then(|j| j.get("run_seconds")?.as_f64())
        .unwrap_or(20.0)
}

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
fn bound_of(doc: Option<&Json>, metric: &str) -> Option<f64> {
    doc?.get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}

/// One run in a child process (so its memory readings are that run's alone):
/// the metric values of its result line, in schema order.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{workload} seed {seed} printed nothing: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let doc =
        Json::parse(line).map_err(|e| format!("{workload} seed {seed}: result line: {e:?}"))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed} was not correct: {line}"));
    }
    let schema = if traced { PER_LAYER } else { END_TO_END };
    schema
        .iter()
        .map(|(name, _)| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: no {name}"))
        })
        .collect()
}

/// Run `n` sets of runs with seeds `seed`, `seed + 1`, … and print the
/// summary. Odd sets run the workloads in reverse order, so that no
/// workload always follows the same neighbour.
pub fn repeat(
    n: usize,
    only: Option<&str>,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(), String> {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    if names.is_empty() {
        return Err(format!("unknown workload {only:?}; one of {WORKLOADS:?}"));
    }
    let schema = if traced { PER_LAYER } else { END_TO_END };
    // runs[workload][set][metric]
    let mut runs: Vec<Vec<Vec<f64>>> = vec![Vec::new(); names.len()];
    for set in 0..n {
        let mut order: Vec<usize> = (0..names.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            eprintln!(
                "set {} of {n}: {} seed {}",
                set + 1,
                names[w],
                seed + set as u64
            );
            runs[w].push(child(names[w], seed + set as u64, seconds, traced)?);
        }
    }
    let doc = benchmark_json();
    for (w, name) in names.iter().enumerate() {
        println!(
            "\n{name}: {n} runs of {seconds} s, seeds {seed}..{}",
            seed + n as u64 - 1
        );
        println!(
            "  {:<40} {:>14} {:>14} {:>14} {:>8} {:>7}  unit",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (m, (metric, unit)) in schema.iter().enumerate() {
            let v: Vec<f64> = runs[w].iter().map(|r| r[m]).collect();
            let (q1, q3, sp) = if v.len() >= 2 {
                let (q1, q3) = quartiles(&v);
                (q1, q3, spread(&v))
            } else {
                (v[0], v[0], 0.0)
            };
            let bound = bound_of(doc.as_ref(), metric);
            // The bound is meant to be at least twice the spread (and the
            // driver likes three times).
            let flag = match bound {
                Some(b) if sp > b => "  OVER",
                Some(b) if 2.0 * sp > b => "  over half the bound",
                Some(b) if 3.0 * sp > b => "  over a third of the bound",
                _ => "",
            };
            println!(
                "  {metric:<40} {:>14.4} {q1:>14.4} {q3:>14.4} {:>7.1}% {:>7}  {unit}{flag}",
                median(&v),
                sp * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    Ok(())
}
