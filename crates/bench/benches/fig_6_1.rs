//! modeled — Figure 6-1: speedups without chunking, single task queue.

use psme_bench::*;
use psme_obs::Json;
use psme_sim::{profile_run, CostModel, SimScheduler};
use psme_tasks::{run_serial, RunMode};

fn main() {
    println!("Figure 6-1: Speedups without chunking, SINGLE task queue");
    println!("paper: low speedups, max ≈4.2-fold, decreasing beyond ~9 processes;");
    println!("paper uniprocessor times: eight-puzzle 37.7 s, strips 43.7 s, cypress 172.7 s");
    let mut tasks_json: Vec<(String, Json)> = Vec::new();
    for (name, task) in paper_tasks() {
        // Keep the whole engine: the hot-spot profile resolves production
        // names through its network.
        let (report, engine) = run_serial(&task, RunMode::WithoutChunking, true);
        let trace = &engine.trace;
        let cycles = match_cycles(trace);
        println!(
            "\n{name}: decisions={} simulated uniproc {:.1} s ({} tasks)",
            report.stats.decisions,
            uniproc_seconds(&cycles),
            trace.total_tasks()
        );
        let sweep = speedup_sweep(&cycles, SimScheduler::Single);
        print_curve(&format!("{name} — speedup vs match processes"), &sweep, "x");
        let max = sweep.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
        let s13 = sweep.last().unwrap().1;
        println!("  max speedup {max:.2}x; at 13 processes {s13:.2}x");

        // §6-style hot-spot profile: where the simulated time goes, node by
        // node, keyed back to production names.
        let profiler = profile_run(&cycles, &CostModel::default());
        let hot = profiler.report(&engine.net, 10);
        if name == "eight-puzzle" {
            println!("\n{}", hot.to_text());
        }
        tasks_json.push((
            name.to_string(),
            Json::obj([
                ("decisions", Json::from(report.stats.decisions)),
                ("tasks", Json::from(trace.total_tasks())),
                ("uniproc_seconds", Json::float(uniproc_seconds(&cycles))),
                ("speedups", sweep_json(&sweep, "speedup")),
                ("max_speedup", Json::float(max)),
                ("hot_nodes", hot.to_json()),
            ]),
        ));
    }
    emit_artifact(
        "fig_6_1",
        &Json::obj([
            ("figure", Json::from("6-1")),
            ("title", Json::from("Speedups without chunking, single task queue")),
            ("scheduler", Json::from("single")),
            ("workers_swept", Json::arr(WORKER_SWEEP.iter().map(|&w| Json::from(w as u64)))),
            ("tasks", Json::Obj(tasks_json)),
        ]),
    );
}
