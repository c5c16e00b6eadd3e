//! modeled — §7's adaptive loop, end to end: run a task, diagnose chain-bound cycles
//! from the trace, map the critical-path nodes back to productions, rebuild
//! those productions bilinearly, and re-measure.
//!
//! "The system can look at the last few node activations on the cycles with
//! low parallelism. The system can then make adaptive changes, such as
//! introducing bilinear networks, to increase the speedups."

use psme_bench::*;
use psme_rete::{plan_bilinear, NetworkOrg};
use psme_sim::{diagnose_run, CostModel, SimScheduler};
use psme_tasks::{run_serial_with_orgs, RunMode};

fn main() {
    println!("Adaptive bilinear reorganization (§7 future work, implemented)");
    let (_, task) = paper_tasks().remove(1); // strips: has the long chain
    let cost = CostModel::default();

    // ---- Pass 1: run linear, diagnose. ----
    let (_, engine) = run_serial_with_orgs(&task, RunMode::WithoutChunking, true, &[]);
    let cycles = match_cycles(&engine.trace);
    let diag = diagnose_run(&cycles, &cost);
    let total = diag.small_cycle_us + diag.long_chain_us + diag.parallel_us;
    println!(
        "\nlinear pass: {:.0}% of work in chain-bound cycles, {:.0}% in small cycles",
        100.0 * diag.long_chain_us / total,
        100.0 * diag.small_cycle_us / total
    );

    // Map the suspect nodes back to productions.
    let mut suspect_prods: Vec<psme_ops::Symbol> = Vec::new();
    for (node, hits) in diag.suspects.iter().take(10) {
        for name in &engine.net.node(*node).prod_names {
            if !suspect_prods.contains(name) {
                println!("  suspect production {name} (node {node}, in {hits} chain-bound cycles)");
                suspect_prods.push(*name);
            }
        }
    }

    // ---- Pass 2: rebuild the suspects bilinearly where a plan exists. ----
    let mut orgs = Vec::new();
    for name in &suspect_prods {
        if let Some(p) = task.productions.iter().find(|p| p.name == *name) {
            for k0 in (1..=5).rev() {
                if let Some(groups) = plan_bilinear(p, k0) {
                    if groups.len() >= 3 {
                        println!("  reorganizing {name}: {} groups (prefix {k0})", groups.len());
                        orgs.push((*name, NetworkOrg::Bilinear(groups)));
                        break;
                    }
                }
            }
        }
    }
    let (_, engine2) = run_serial_with_orgs(&task, RunMode::WithoutChunking, true, &orgs);
    let cycles2 = match_cycles(&engine2.trace);
    let diag2 = diagnose_run(&cycles2, &cost);
    let total2 = diag2.small_cycle_us + diag2.long_chain_us + diag2.parallel_us;
    println!(
        "bilinear pass: {:.0}% of work in chain-bound cycles",
        100.0 * diag2.long_chain_us / total2
    );

    // ---- Compare simulated speedups. ----
    for (label, cyc) in [("linear", &cycles), ("adaptive-bilinear", &cycles2)] {
        let sweep = speedup_sweep(cyc, SimScheduler::Multi);
        let at11 = sweep.iter().find(|&&(w, _)| w == 11).map(|&(_, s)| s).unwrap_or(0.0);
        println!("{label:>18}: speedup at 11 processes = {at11:.2}x");
    }
}
