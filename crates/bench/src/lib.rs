//! # psme-bench — harnesses regenerating every table and figure of §5/§6
//!
//! Each table/figure is a `harness = false` bench target (run them all with
//! `cargo bench`, or one with `cargo bench -p psme-bench --bench fig_6_1`).
//! Shared machinery lives here: the benchmark task instances, trace capture
//! through the serial engine, simulator sweeps over 1–13 match processes,
//! and plain-text table rendering. Paper reference values are printed next
//! to the measured ones; EXPERIMENTS.md records both.
//!
//! A target is one of two kinds, named by the first word of its doc
//! comment. A **modeled** target reads no clock: what it prints and the
//! `BENCH_<name>.json` it writes are a function of the source, it
//! `assert!`s its own gates, and `scripts/check.sh` regenerates every
//! committed artifact and compares it byte for byte. A **host** target
//! reads the clock: it prints, asserts only what no clock decides, and
//! writes nothing.

use psme_obs::{Json, TextTable};
use psme_rete::{CycleTrace, Phase, RunTrace, SerialEngine};
use psme_sim::{simulate_cycle, simulate_run, total_seconds, SimConfig, SimScheduler};
use psme_soar::SoarTask;
use psme_tasks::{
    cypress_sub, eight_puzzle, run_serial, scrambled, strips, CypressConfig, RunMode, RunReport,
    StripsConfig, DECISION_BUDGET,
};

/// The process counts the paper sweeps.
pub const WORKER_SWEEP: &[usize] = &[1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 13];

/// The three queue disciplines, by artifact label.
pub const SCHEDULERS: [(&str, SimScheduler); 3] = [
    ("single", SimScheduler::Single),
    ("multi", SimScheduler::Multi),
    ("work-stealing", SimScheduler::WorkStealing),
];

/// The three benchmark task instances (sized so a full bench run stays in
/// seconds; relative magnitudes follow the paper: Cypress ≫ the others).
pub fn paper_tasks() -> Vec<(&'static str, SoarTask)> {
    vec![
        ("eight-puzzle", eight_puzzle(&scrambled(8, 1))),
        (
            "strips",
            strips(&StripsConfig {
                rooms: 12,
                closed_doors: vec![2, 5, 8],
                start: 0,
                target: 6,
                chords: false,
            }),
        ),
        ("cypress-sub", cypress_sub(&CypressConfig { roots: 2 })),
    ]
}

/// Run a task in a mode on the serial engine with trace capture.
pub fn capture(task: &SoarTask, mode: RunMode) -> (RunReport, RunTrace) {
    let (report, engine) = run_serial(task, mode, true);
    (report, engine.trace)
}

/// A captured during-chunking run of the eight-puzzle instance the index
/// benches (`alpha_discrimination`, `memory_probe`) run once per arm: every
/// chunk splices new memories into the network mid-run.
pub struct LearningRun {
    pub engine: SerialEngine,
    pub chunks: Vec<String>,
    pub decisions: u64,
}

/// Run the index benches' instance to its end on `engine`, capturing.
pub fn capture_learning(mut engine: SerialEngine) -> LearningRun {
    engine.capture = true;
    let mut agent = eight_puzzle(&scrambled(4, 11)).agent(engine);
    agent.learning = true;
    agent.run(DECISION_BUDGET);
    let chunks =
        agent.learned_chunks().iter().map(|c| psme_ops::sym_name(c.name).to_string()).collect();
    LearningRun { chunks, decisions: agent.stats.decisions, engine: agent.engine }
}

/// Simulated seconds of an indexed trace against its `base`-named baseline
/// trace across the worker sweep under all three schedulers, as the
/// artifact's `sim_sweep` block. The indexed trace must be no slower at any
/// point; `plot` prints the speedup curves under that caption suffix.
pub fn indexed_vs_baseline(
    base: &str,
    baseline: &[CycleTrace],
    indexed: &[CycleTrace],
    plot: Option<&str>,
) -> Json {
    Json::obj(SCHEDULERS.map(|(label, sched)| {
        let mut points = Vec::new();
        let mut rows = Vec::new();
        for &w in WORKER_SWEEP {
            let cfg = SimConfig::new(w, sched);
            let s_b = total_seconds(&simulate_run(baseline, &cfg));
            let s_i = total_seconds(&simulate_run(indexed, &cfg));
            assert!(
                s_i <= s_b,
                "acceptance: indexed simulated wall {s_i:.4}s exceeds {base} {s_b:.4}s \
                 at {w} workers under {label}"
            );
            let speedup = s_b / s_i.max(1e-12);
            points.push((w, speedup));
            rows.push(Json::obj([
                ("workers".to_string(), Json::from(w as u64)),
                (format!("{base}_s"), Json::float(s_b)),
                ("indexed_s".to_string(), Json::float(s_i)),
                (format!("speedup_vs_{base}"), Json::float(speedup)),
            ]));
        }
        if let Some(suffix) = plot {
            let title = format!("{label} — indexed speedup over {base} vs processes{suffix}");
            print_curve(&title, &points, "x");
        }
        (label, Json::Arr(rows))
    }))
}

/// Per-cycle service seconds of the eight session workloads the serving
/// models tile (eight-puzzle `scrambled(3, seed)`, every fourth one
/// learning, like the isolation gate): each captured trace cycle costed at
/// one match process under `sched` — a served session's own match runs on
/// the worker that holds it.
pub fn session_workloads(sched: SimScheduler) -> Vec<Vec<f64>> {
    let cfg = SimConfig::new(1, sched);
    (0..8)
        .map(|seed| {
            let mode =
                if seed % 4 == 0 { RunMode::DuringChunking } else { RunMode::WithoutChunking };
            let (_, trace) = capture(&eight_puzzle(&scrambled(3, seed)), mode);
            trace.cycles.iter().map(|c| simulate_cycle(c, &cfg).makespan_us * 1e-6).collect()
        })
        .collect()
}

/// Match-phase cycles of a run trace.
pub fn match_cycles(trace: &RunTrace) -> Vec<CycleTrace> {
    trace.phase_cycles(Phase::Match).cloned().collect()
}

/// Update-phase cycles of a run trace.
pub fn update_cycles(trace: &RunTrace) -> Vec<CycleTrace> {
    trace.phase_cycles(Phase::Update).cloned().collect()
}

/// Simulated uniprocessor seconds for a cycle set.
pub fn uniproc_seconds(cycles: &[CycleTrace]) -> f64 {
    total_seconds(&simulate_run(cycles, &SimConfig::new(1, SimScheduler::Multi)))
}

/// Speedups across the worker sweep for a cycle set.
pub fn speedup_sweep(cycles: &[CycleTrace], sched: SimScheduler) -> Vec<(usize, f64)> {
    let uni = total_seconds(&simulate_run(cycles, &SimConfig::new(1, sched)));
    WORKER_SWEEP
        .iter()
        .map(|&w| {
            let t = total_seconds(&simulate_run(cycles, &SimConfig::new(w, sched)));
            (w, uni / t.max(1e-12))
        })
        .collect()
}

/// Queue-lock spins per task across the sweep (Figure 6-3's metric).
pub fn spins_sweep(cycles: &[CycleTrace], sched: SimScheduler) -> Vec<(usize, f64)> {
    WORKER_SWEEP
        .iter()
        .map(|&w| {
            let rs = simulate_run(cycles, &SimConfig::new(w, sched));
            let tasks: u64 = rs.iter().map(|r| r.tasks).sum();
            let spins: u64 = rs.iter().map(|r| r.queue_spins).sum();
            (w, spins as f64 / tasks.max(1) as f64)
        })
        .collect()
}

/// Print a titled plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut t = TextTable::new(headers);
    rows.iter().for_each(|r| t.row(r.clone()));
    print!("\n== {title} ==\n{}", t.render());
}

/// Render an ASCII curve `(x, y)` with a caption.
pub fn print_curve(title: &str, points: &[(usize, f64)], y_label: &str) {
    println!("\n== {title} ==");
    let max = points.iter().map(|&(_, y)| y).fold(1.0f64, f64::max);
    for &(x, y) in points {
        let bar = "#".repeat(((y / max) * 40.0).round() as usize);
        println!("  {x:>3} | {bar} {y:.2} {y_label}");
    }
}

/// Format a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// A `(workers, value)` sweep as a JSON array of objects.
pub fn sweep_json(sweep: &[(usize, f64)], value_key: &str) -> Json {
    Json::arr(sweep.iter().map(|&(w, v)| {
        Json::obj([("workers", Json::from(w as u64)), (value_key, Json::float(v))])
    }))
}

/// Write `BENCH_<name>.json` (under `$PSME_BENCH_DIR` or the current
/// directory) and report where it went. Artifact failures must never sink
/// a bench run, so errors are printed rather than propagated.
pub fn emit_artifact(name: &str, doc: &Json) {
    match psme_obs::write_artifact(name, doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nartifact {name}: write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_serializes_and_parses_back() {
        let doc = Json::obj([
            ("figure", Json::from("6-1")),
            ("speedups", sweep_json(&[(1, 1.0), (13, 7.25)], "speedup")),
        ]);
        let text = doc.pretty();
        let back = Json::parse(&text).expect("exporter output must be well-formed JSON");
        let arr = back.get("speedups").unwrap();
        assert_eq!(arr.at(0).unwrap().get("workers").unwrap().as_u64(), Some(1));
        assert_eq!(arr.at(1).unwrap().get("speedup").unwrap().as_f64(), Some(7.25));
    }
}
