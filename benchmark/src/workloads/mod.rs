//! The four workloads. See the README for why each was chosen.

mod serve;
mod solos;

use crate::instances::TaskSpec;
use crate::metrics::{Report, Values};
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;
use psme_ops::{parse_program, production_text};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "serve_open_short",
    "serve_closed_heavy",
    "solo_learn",
    "solo_parallel",
];

/// A run's report and, for a traced run, the spans to write out.
pub struct RunOutput {
    pub report: Report,
    pub tracer: Option<Tracer>,
}

/// Run one workload. `seed` alone determines its inputs; `seconds` is how
/// long it measures; `traced` selects the per-layer run.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunOutput, String> {
    match workload {
        "serve_open_short" => Ok(serve::serve_open_short(seed, seconds, traced)),
        "serve_closed_heavy" => Ok(serve::serve_closed_heavy(seed, seconds, traced)),
        "solo_learn" => Ok(solos::solo_learn(seed, seconds, traced)),
        "solo_parallel" => Ok(solos::solo_parallel(seed, seconds, traced)),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }
}

/// Failure accounting: every operation is attempted once and either
/// matches the oracle or is counted, with the first few reasons kept.
#[derive(Default)]
struct Failures {
    attempted: u64,
    failed: u64,
    first: Vec<String>,
}

impl Failures {
    fn attempt(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.first.len() < 8 {
                self.first.push(e);
            }
        }
    }

    fn frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn into_report(self, workload: &str, traced: bool, values: Values) -> Report {
        Report {
            workload: workload.to_string(),
            traced,
            attempted: self.attempted.max(1),
            failed: self.failed,
            failures: self.first,
            notes: Vec::new(),
            values,
        }
    }
}

/// Operation latency pooled over a traced run: median, 90th and 95th
/// percentile of `ms`.
fn sojourn_values(ms: Vec<f64>) -> Values {
    let ms = sorted(ms);
    vec![
        ("load.sojourn_p50_ms", percentile(&ms, 0.50)),
        ("load.sojourn_p90_ms", percentile(&ms, 0.90)),
        ("load.sojourn_p95_ms", percentile(&ms, 0.95)),
    ]
}

/// Microseconds `psme_ops::parse_program` takes per production, over the
/// productions of the given tasks printed back to source text.
fn parse_us_per_production<'a>(specs: impl Iterator<Item = &'a TaskSpec>) -> f64 {
    let (mut ns, mut count) = (0u128, 0usize);
    let mut seen: Vec<&TaskSpec> = Vec::new();
    for spec in specs {
        if seen.contains(&spec) {
            continue;
        }
        seen.push(spec);
        let task = spec.build();
        let text: String = task
            .productions
            .iter()
            .map(|p| production_text(p, &task.classes))
            .collect::<Vec<_>>()
            .join("\n");
        let mut classes = task.classes.clone();
        let t0 = Instant::now();
        let parsed = parse_program(&text, &mut classes).expect("printed productions parse back");
        ns += t0.elapsed().as_nanos();
        count += parsed.len();
    }
    ns as f64 / 1e3 / count.max(1) as f64
}
