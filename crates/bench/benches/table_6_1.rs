//! modeled — Table 6-1: task granularity on the PSM.

use psme_bench::*;
use psme_obs::Json;
use psme_sim::{simulate_run, SimConfig, SimScheduler};
use psme_tasks::RunMode;

fn main() {
    println!("Table 6-1: Granularity of the tasks on the PSM");
    println!("paper: uniproc 37.7/43.7/172.7 s; tasks 87,974/99,611/432,390; avg 428/438/400 µs");
    let mut rows = Vec::new();
    let mut tasks_json: Vec<(String, Json)> = Vec::new();
    for (name, task) in paper_tasks() {
        let (_, trace) = capture(&task, RunMode::WithoutChunking);
        let cycles = match_cycles(&trace);
        let rs = simulate_run(&cycles, &SimConfig::new(1, SimScheduler::Multi));
        let tasks: u64 = rs.iter().map(|r| r.tasks).sum();
        let busy: f64 = rs.iter().map(|r| r.busy_us).sum();
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", busy / 1e6),
            format!("{tasks}"),
            format!("{:.0}", busy / tasks.max(1) as f64),
        ]);
        tasks_json.push((
            name.to_string(),
            Json::obj([
                ("uniproc_sim_seconds", Json::float(busy / 1e6)),
                ("total_tasks", Json::from(tasks)),
                ("avg_us_per_task", Json::float(busy / tasks.max(1) as f64)),
            ]),
        ));
    }
    print_table("measured", &["task", "uniproc time (sim s)", "total tasks", "avg µs/task"], &rows);
    emit_artifact(
        "table_6_1",
        &Json::obj([
            ("table", Json::from("6-1")),
            ("title", Json::from("Granularity of the tasks on the PSM")),
            ("tasks", Json::Obj(tasks_json)),
        ]),
    );
}
