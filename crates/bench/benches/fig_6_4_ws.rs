//! modeled — Figure 6-4 extension: the work-stealing scheduler against the
//! paper's two queue disciplines.
//!
//! For each paper task, speedup curves for the single queue, multiple
//! queues, and work-stealing deques at 1–13 match processes on the NS32032
//! cost model, plus cross-queue takes (steals) at the top of the sweep
//! (`BENCH_fig_6_4_ws.json`). The real deques under work stealing are
//! exercised by `ws_soak` and measured by the repo benchmark's
//! `solo_parallel`.

use psme_bench::*;
use psme_obs::Json;
use psme_sim::{simulate_run, SimConfig, SimScheduler};
use psme_tasks::RunMode;

/// Total simulated cross-queue takes for a cycle set at `workers`.
fn sim_steals(cycles: &[psme_rete::CycleTrace], sched: SimScheduler, workers: usize) -> u64 {
    simulate_run(cycles, &SimConfig::new(workers, sched)).iter().map(|r| r.steals).sum()
}

fn main() {
    println!("Figure 6-4 (extension): all schedulers, without chunking");
    println!("paper baseline: multiple queues reach ≈7-fold; work stealing must not do worse");

    let mut tasks_json: Vec<(String, Json)> = Vec::new();
    for (name, task) in paper_tasks() {
        let (report, trace) = capture(&task, RunMode::WithoutChunking);
        let cycles = match_cycles(&trace);
        println!(
            "\n{name}: decisions={} simulated uniproc {:.1} s ({} tasks)",
            report.stats.decisions,
            uniproc_seconds(&cycles),
            trace.total_tasks()
        );

        let mut sched_json: Vec<(String, Json)> = Vec::new();
        for (label, sched) in SCHEDULERS {
            let sweep = speedup_sweep(&cycles, sched);
            print_curve(&format!("{name} / {label} — speedup vs processes"), &sweep, "x");
            let max = sweep.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
            let top = *WORKER_SWEEP.last().unwrap();
            let steals = sim_steals(&cycles, sched, top);
            println!("  max speedup {max:.2}x; simulated steals at {top} processes: {steals}");
            sched_json.push((
                label.to_string(),
                Json::obj([
                    ("speedups", sweep_json(&sweep, "speedup")),
                    ("max_speedup", Json::float(max)),
                    ("sim_steals_at_13", Json::from(steals)),
                ]),
            ));
        }

        tasks_json.push((
            name.to_string(),
            Json::obj([
                ("decisions", Json::from(report.stats.decisions)),
                ("tasks", Json::from(trace.total_tasks())),
                ("uniproc_seconds", Json::float(uniproc_seconds(&cycles))),
                ("schedulers", Json::Obj(sched_json)),
            ]),
        ));
    }

    emit_artifact(
        "fig_6_4_ws",
        &Json::obj([
            ("figure", Json::from("6-4-ws")),
            (
                "title",
                Json::from("Speedups without chunking: single vs multiple queues vs work stealing"),
            ),
            ("schedulers", Json::arr(SCHEDULERS.iter().map(|&(l, _)| Json::from(l)))),
            ("workers_swept", Json::arr(WORKER_SWEEP.iter().map(|&w| Json::from(w as u64)))),
            ("tasks", Json::Obj(tasks_json)),
        ]),
    );
}
