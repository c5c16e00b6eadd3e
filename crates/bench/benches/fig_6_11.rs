//! modeled — Figures 6-11 and 6-12: tasks/cycle histograms, without vs after chunking.

use psme_bench::*;
use psme_tasks::RunMode;

fn histogram(cycles: &[psme_rete::CycleTrace]) -> Vec<(String, f64)> {
    let bins = [(0usize, 100usize), (100, 200), (200, 400), (400, 600), (600, 1000), (1000, usize::MAX)];
    let total = cycles.len().max(1) as f64;
    bins.iter()
        .map(|&(lo, hi)| {
            let n = cycles.iter().filter(|c| c.len() >= lo && c.len() < hi).count();
            let label = if hi == usize::MAX { format!("{lo}+") } else { format!("{lo}–{hi}") };
            (label, 100.0 * n as f64 / total)
        })
        .collect()
}

fn main() {
    println!("Figures 6-11 / 6-12: Eight-puzzle tasks/cycle histograms");
    println!("paper: without chunking ≥60% of cycles < 100 tasks, ≈3% ≥ 1000;");
    println!("       after chunking > 30% of cycles have ≥ 1000 tasks");
    let (_, task) = paper_tasks().remove(0);
    for (label, mode) in
        [("without chunking (Fig 6-11)", RunMode::WithoutChunking), ("after chunking (Fig 6-12)", RunMode::AfterChunking)]
    {
        let (_, trace) = capture(&task, mode);
        let cycles = match_cycles(&trace);
        println!("\n{label}: {} cycles", cycles.len());
        for (bin, pct) in histogram(&cycles) {
            let bar = "#".repeat((pct / 2.0).round() as usize);
            println!("  {bin:>9} | {bar} {pct:.1}%");
        }
        let avg = cycles.iter().map(|c| c.len()).sum::<usize>() as f64 / cycles.len().max(1) as f64;
        println!("  average tasks/cycle: {avg:.0}");
    }
}
