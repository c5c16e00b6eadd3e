//! modeled — Figure 6-10: speedups after chunking, multiple task queues.

use psme_bench::*;
use psme_sim::SimScheduler;
use psme_tasks::RunMode;

fn main() {
    println!("Figure 6-10: Speedups AFTER chunking, multiple task queues");
    println!("paper: biggest increase in eight-puzzle (≈10x at 13); Cypress run too short");
    println!("paper uniprocessor times: eight-puzzle 111.2 s, strips 30.6 s, cypress 9.5 s");
    for (name, task) in paper_tasks() {
        let (report, trace) = capture(&task, RunMode::AfterChunking);
        let cycles = match_cycles(&trace);
        println!(
            "\n{name}: decisions={} impasses={} simulated uniproc {:.2} s",
            report.stats.decisions, report.stats.impasses,
            uniproc_seconds(&cycles)
        );
        let sweep = speedup_sweep(&cycles, SimScheduler::Multi);
        print_curve(&format!("{name} — after-chunking speedup"), &sweep, "x");
    }
}
