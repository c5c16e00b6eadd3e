//! modeled — Figure 6-6: tasks in the system over time within one large cycle.

use psme_bench::*;
use psme_sim::{simulate_cycle, SimConfig, SimScheduler};
use psme_tasks::RunMode;

fn main() {
    println!("Figure 6-6: Eight-puzzle — tasks in system vs time (one large cycle, 11 procs)");
    println!("paper: an early burst (peak ≈140 at t=100) then a long 1–5-task tail (long chain)");
    let (_, task) = paper_tasks().remove(0);
    let (_, trace) = capture(&task, RunMode::WithoutChunking);
    let cycles = match_cycles(&trace);
    let big = cycles.iter().max_by_key(|c| c.len()).expect("has cycles");
    println!("chosen cycle: {} tasks", big.len());
    let mut cfg = SimConfig::new(11, SimScheduler::Multi);
    cfg.timeline = true;
    let r = simulate_cycle(big, &cfg);
    println!("makespan {:.0} µs; timeline (100 µs units, capped at 25 as in the paper):", r.makespan_us);
    let step = (r.timeline.len() / 40).max(1);
    for chunk in r.timeline.chunks(step) {
        let (t, _) = chunk[0];
        let level = chunk.iter().map(|&(_, n)| n).max().unwrap_or(0).min(25);
        println!("  {:>6.0} | {}", t / 100.0, "*".repeat(level as usize));
    }
}
