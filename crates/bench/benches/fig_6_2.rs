//! modeled — Figure 6-2: hash-bucket contention — distribution of
//! left-token accesses per bucket per cycle, counted by the real engine's
//! instrumentation. One match process: the figure is about the hash, not
//! the schedule, and one process makes the histogram a function of the
//! source.

use psme_bench::*;
use psme_core::{EngineConfig, MetricsLog, Scheduler};
use psme_obs::Json;
use psme_tasks::{run_parallel, RunMode};

fn dist_json(dist: &[(u64, f64)]) -> Json {
    Json::arr(dist.iter().map(|&(k, pct)| {
        Json::obj([("accesses", Json::from(k)), ("percent", Json::float(pct))])
    }))
}

fn main() {
    println!("Figure 6-2: Contention for the hash buckets (left tokens)");
    println!("paper: eight-puzzle/cypress ≈70% of buckets see one left token per cycle;");
    println!("       strips only ≈40%, with a heavier tail");
    let mut tasks_json: Vec<(String, Json)> = Vec::new();
    for (name, task) in paper_tasks() {
        let (_, engine) = run_parallel(
            &task,
            RunMode::WithoutChunking,
            EngineConfig {
                workers: 1,
                scheduler: Scheduler::MultiQueue,
                bucket_histograms: true,
                ..Default::default()
            },
        );
        let log: &MetricsLog = &engine.metrics;
        let dist = log.left_access_distribution();
        println!("\n{name}: accesses/bucket/cycle → % of observations");
        let mut cum = 0.0;
        for (k, pct) in dist.iter().take(8) {
            cum += pct;
            let bar = "#".repeat((pct / 2.0).round() as usize);
            println!("  {k:>3} | {bar} {pct:.1}%");
        }
        let tail: f64 = dist.iter().filter(|(k, _)| *k > 8).map(|(_, p)| p).sum();
        println!("  >8  | {tail:.1}%   (cumulative ≤8: {cum:.1}%)");
        // The paper plots right (wme-keyed) memories too: they hash more
        // uniformly, so the mass should sit closer to 1 access/bucket.
        let right = log.right_access_distribution();
        if let Some((_, p1)) = right.iter().find(|(k, _)| *k == 1) {
            println!("  right memories: {p1:.1}% of observations at 1 access/bucket");
        }
        tasks_json.push((
            name.to_string(),
            Json::obj([
                ("left", dist_json(&dist)),
                ("right", dist_json(&right)),
            ]),
        ));
    }
    emit_artifact(
        "fig_6_2",
        &Json::obj([
            ("figure", Json::from("6-2")),
            ("title", Json::from("Hash-bucket contention: accesses per bucket per cycle")),
            ("tasks", Json::Obj(tasks_json)),
        ]),
    );
}
