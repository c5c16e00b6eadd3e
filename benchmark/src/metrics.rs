//! Metric names and units — the one list `BENCHMARK.json`, the README and
//! the output all follow — and the run report.

use crate::stats::median;

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("sessions_per_s", "1/s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics: printed by every workload with `--trace 1`. A layer
/// that is not on a workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.overhead_ms_per_session", "ms"),
    ("net.step_overhead_ms", "ms"),
    ("net.encode_ns_per_frame", "ns"),
    ("net.decode_ns_per_frame", "ns"),
    ("net.bytes_per_session", "B"),
    ("net.frames_per_session", "count"),
    ("tasks.instance_build_us", "us"),
    ("ops.parse_us_per_production", "us"),
    ("serve.overhead_ms_per_session", "ms"),
    ("serve.overhead_frac", "ratio"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p90_us", "us"),
    ("serve.cycle_latency_p50_us", "us"),
    ("serve.cycle_latency_p90_us", "us"),
    ("serve.slices_per_session", "count"),
    ("serve.bus_occupancy", "ratio"),
    ("serve.shed_frac", "ratio"),
    ("soar.step_self_us_per_decision", "us"),
    ("soar.self_share", "ratio"),
    ("soar.firings_per_decision", "count"),
    ("soar.wme_changes_per_decision", "count"),
    ("soar.elaborations_per_decision", "count"),
    ("soar.chunks_per_kdecision", "count"),
    ("soar.rec_decide_share", "ratio"),
    ("soar.rec_match_share", "ratio"),
    ("soar.rec_surgery_share", "ratio"),
    ("soar.rec_chunk_build_share", "ratio"),
    ("rete.match_us_per_decision", "us"),
    ("rete.match_share", "ratio"),
    ("rete.us_per_task", "us"),
    ("rete.tasks_per_decision", "count"),
    ("rete.add_production_us_p50", "us"),
    ("rete.update_tasks_per_chunk", "count"),
    ("rete.nodes_final", "count"),
    ("rete.compile_ms", "ms"),
    ("rete.freeze_ms", "ms"),
    ("core.match_us_per_decision", "us"),
    ("core.speedup_vs_serial", "ratio"),
    ("core.tasks_per_cycle", "count"),
    ("core.queue_spins_per_task", "count"),
    ("core.failed_pops_per_task", "count"),
    ("core.mem_spins_per_task", "count"),
    ("core.line_lock_acquisitions_per_task", "count"),
    ("core.small_cycle_wall_us_p50", "us"),
    ("load.queueing_ms_per_session", "ms"),
    ("load.cpu_ms_per_decision", "ms"),
    ("load.sojourn_p50_ms", "ms"),
    ("load.sojourn_p90_ms", "ms"),
    ("load.sojourn_p95_ms", "ms"),
    ("load.step_rtt_p50_ms", "ms"),
    ("load.late_p95_ms", "ms"),
    ("load.late_max_ms", "ms"),
    ("load.slo_miss_frac", "ratio"),
    ("load.failed_frac", "ratio"),
    ("load.peak_rss_mb", "MiB"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer metrics that are counts made by the program: for a fixed seed
/// they must read exactly the same on every run.
pub const EXACT_COUNTS: &[&str] = &[
    "net.bytes_per_session",
    "net.frames_per_session",
    "serve.slices_per_session",
    "serve.shed_frac",
    "soar.firings_per_decision",
    "soar.wme_changes_per_decision",
    "soar.elaborations_per_decision",
    "soar.chunks_per_kdecision",
    "rete.tasks_per_decision",
    "rete.update_tasks_per_chunk",
    "rete.nodes_final",
    "load.failed_frac",
];

/// A value under its metric name.
pub type Values = Vec<(&'static str, f64)>;

/// What one run of one workload reports.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: String,
    pub traced: bool,
    /// Operations attempted (sessions, or agent runs) and how many failed:
    /// shed, refused, timed out, or different from the oracle.
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the log.
    pub failures: Vec<String>,
    /// Warnings that do not fail the run (an invalid open-loop schedule, a
    /// recorder that disagrees with the wrapper).
    pub notes: Vec<String>,
    pub values: Values,
}

impl Report {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The metric list this report must cover.
    pub fn schema(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The contract's result line: one JSON object, every metric of the
    /// schema with its unit, in schema order.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .schema()
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .value(name)
                    .unwrap_or_else(|| panic!("{name} was not measured"));
                assert!(v.is_finite(), "{name} is not finite");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable table of the same, with failures and notes.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  trace {}  attempted {}  failed {}  failed_frac {:.4}\n",
            self.workload,
            u8::from(self.traced),
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        for &(name, unit) in self.schema() {
            let v = self.value(name).unwrap_or(f64::NAN);
            out.push_str(&format!("  {name:<40} {v:>16.4} {unit}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED {f}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("  NOTE {n}\n"));
        }
        out
    }
}

/// One slot of a workload's round: the same work in every round, and how
/// long each round's repetition of it took.
#[derive(Clone, Debug, Default)]
pub struct Slot {
    /// Operations the slot completes, and their decisions.
    pub ops: u64,
    pub decisions: u64,
    /// Per repetition that completed: wall seconds, and the process CPU
    /// seconds (all threads) spent meanwhile.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
}

/// The fastest of the repetitions; 0 when there is none.
fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// What every untraced run measures, whatever the workload. The values are
/// host wall-clock and CPU readings, reported as taken.
pub struct EndToEnd {
    /// Seconds each set-up took.
    pub setups: Vec<f64>,
    pub slots: Vec<Slot>,
    /// Peak heap in use up to a fixed amount of work (see
    /// [`crate::sys::HeapSampler`] and the workloads).
    pub peak_heap_mib: f64,
}

impl EndToEnd {
    /// A round on the host at its quietest: every slot at the
    /// [`fastest`] of its repetitions, and the fastest set-up. The host
    /// flips between a quiet mode and one a third slower every few seconds;
    /// a mean or a median over a run's rounds follows the share of slow
    /// ones, which drifts over minutes, while nearly every run of 25 s
    /// meets the quiet mode once in each slot.
    pub fn values(&self) -> Values {
        let wall_s: f64 = self.slots.iter().map(|s| fastest(&s.wall_s)).sum();
        // A run in which nothing completed reports rates of 0.
        let per_s = |f: fn(&Slot) -> u64| match wall_s > 0.0 {
            true => self.slots.iter().map(f).sum::<u64>() as f64 / wall_s,
            false => 0.0,
        };
        vec![
            ("setup_s", fastest(&self.setups)),
            ("decisions_per_s", per_s(|s| s.decisions)),
            ("sessions_per_s", per_s(|s| s.ops)),
            ("peak_heap_mb", self.peak_heap_mib),
        ]
    }

    /// The mean round, slow repetitions and all, and the median set-up,
    /// for the log.
    pub fn whole_run_note(&self) -> String {
        let reps = |s: &Slot| s.wall_s.len() as u64;
        let sum = |f: &dyn Fn(&Slot) -> u64| self.slots.iter().map(f).sum::<u64>() as f64;
        let wall_s: f64 = self.slots.iter().flat_map(|s| &s.wall_s).sum();
        format!(
            "{} rounds and {} set-ups; over the whole run: setup_s {:.4}, decisions_per_s {:.4}, sessions_per_s {:.4}, cpu_ms_per_decision {:.4}",
            self.slots.iter().map(reps).max().unwrap_or(0),
            self.setups.len(),
            median(&self.setups),
            sum(&|s| s.decisions * reps(s)) / wall_s,
            sum(&|s| s.ops * reps(s)) / wall_s,
            cpu_ms_per_decision(&self.slots),
        )
    }
}

/// Process CPU milliseconds per decision over every repetition of every
/// slot.
pub fn cpu_ms_per_decision(slots: &[Slot]) -> f64 {
    let cpu_s: f64 = slots.iter().flat_map(|s| &s.cpu_s).sum();
    let decisions: u64 = slots
        .iter()
        .map(|s| s.decisions * s.cpu_s.len() as u64)
        .sum();
    cpu_s * 1e3 / decisions.max(1) as f64
}

/// Fill in 0 for every per-layer metric a workload did not measure: the
/// layer is not on its path.
pub fn complete_per_layer(mut values: Values) -> Values {
    for &(name, _) in PER_LAYER {
        if !values.iter().any(|(n, _)| *n == name) {
            values.push((name, 0.0));
        }
    }
    values
}
