//! modeled — Figure 6-3: task-queue contention (spins/task) with increasing processes.

use psme_bench::*;
use psme_obs::Json;
use psme_sim::SimScheduler;
use psme_tasks::RunMode;

fn main() {
    println!("Figure 6-3: Task-queue contention, single queue");
    println!("paper: spins/task rises steeply and at a similar rate in all three tasks");
    let mut tasks_json: Vec<(String, Json)> = Vec::new();
    for (name, task) in paper_tasks() {
        let (_, trace) = capture(&task, RunMode::WithoutChunking);
        let cycles = match_cycles(&trace);
        let sweep = spins_sweep(&cycles, SimScheduler::Single);
        print_curve(&format!("{name} — queue spins per task"), &sweep, "spins/task");
        let multi = spins_sweep(&cycles, SimScheduler::Multi);
        tasks_json.push((
            name.to_string(),
            Json::obj([
                ("single_queue", sweep_json(&sweep, "spins_per_task")),
                ("multi_queue", sweep_json(&multi, "spins_per_task")),
            ]),
        ));
    }
    println!("\nmultiple task queues for comparison (paper: reduced to ≈2–3 spins/task at 13):");
    for (name, per_task) in &tasks_json {
        let at13 = per_task
            .get("multi_queue")
            .and_then(|s| s.as_arr())
            .and_then(|a| a.last())
            .and_then(|o| o.get("spins_per_task"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        println!("  {name}: spins/task at 13 processes = {at13:.2}");
    }
    emit_artifact(
        "fig_6_3",
        &Json::obj([
            ("figure", Json::from("6-3")),
            ("title", Json::from("Task-queue contention: spins per task")),
            ("workers_swept", Json::arr(WORKER_SWEEP.iter().map(|&w| Json::from(w as u64)))),
            ("tasks", Json::Obj(tasks_json)),
        ]),
    );
}
