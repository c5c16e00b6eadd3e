//! Command line of the repo benchmark.
//!
//! ```text
//! psme-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! psme-benchmark repeat <n> [--seconds <s>] [--trace <0|1>] [--seed <n>] [--workload <name>]
//! ```
//!
//! A run prints a table to standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. A traced run also writes `out/<workload>.trace.json`
//! beside this package's manifest.

use psme_benchmark::{repeat, sys, workloads};
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: repeat::default_seconds(),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn run_one(a: &Args) -> Result<bool, String> {
    let workload = a.workload.as_deref().ok_or("--workload is required")?;
    let out = workloads::run(workload, a.seed, a.seconds, a.trace)?;
    eprint!("{}", out.report.table());
    if let Some(tracer) = &out.tracer {
        let dir = sys::manifest_dir().join("out");
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "  trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
    }
    println!("{}", out.report.json_line());
    Ok(out.report.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("repeat") => {
            let n = args
                .get(1)
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n >= 1);
            match n {
                None => Err("repeat needs a count of at least 1".to_string()),
                Some(n) => parse(&args[2..]).and_then(|a| {
                    repeat::repeat(n, a.workload.as_deref(), a.seed, a.seconds, a.trace)
                        .map(|()| true)
                }),
            }
        }
        _ => parse(&args).and_then(|a| run_one(&a)),
    };
    match result {
        // A run whose outputs were wrong still printed its result line;
        // the line says `"correct": false`.
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("psme-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
