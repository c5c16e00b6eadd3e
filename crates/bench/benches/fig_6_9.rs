//! modeled — Figure 6-9: speedups in the chunk state-update phase (§5.2).

use psme_bench::*;
use psme_sim::SimScheduler;
use psme_tasks::RunMode;

fn main() {
    println!("Figure 6-9: Speedups in the update phase, multiple task queues");
    println!("paper: the highest speedups in the system (≈8–12x; uniproc 16.0/39.9/85.15 s)");
    for (name, task) in paper_tasks() {
        let (report, trace) = capture(&task, RunMode::DuringChunking);
        let cycles = update_cycles(&trace);
        if cycles.is_empty() {
            println!("\n{name}: no chunks built — nothing to update");
            continue;
        }
        println!(
            "\n{name}: {} chunks, update phase simulated uniproc {:.2} s",
            report.stats.chunks_built,
            uniproc_seconds(&cycles)
        );
        let sweep = speedup_sweep(&cycles, SimScheduler::Multi);
        print_curve(&format!("{name} — update-phase speedup"), &sweep, "x");
    }
}
