//! modeled — Figure 6-4: speedups without chunking, multiple task queues.

use psme_bench::*;
use psme_sim::SimScheduler;
use psme_tasks::RunMode;

fn main() {
    println!("Figure 6-4: Speedups without chunking, MULTIPLE task queues");
    println!("paper: parallelism increases in all tasks; max ≈7-fold (Strips, Cypress)");
    for (name, task) in paper_tasks() {
        let (_, trace) = capture(&task, RunMode::WithoutChunking);
        let cycles = match_cycles(&trace);
        let sweep = speedup_sweep(&cycles, SimScheduler::Multi);
        print_curve(&format!("{name} — speedup vs match processes"), &sweep, "x");
        let max = sweep.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
        println!("  max speedup {max:.2}x");
    }
}
