//! modeled — Figure 6-7: the long-chain production (monitor-strips-state).

use psme_bench::*;
use psme_rete::{NetworkOrg, ReteBuild, ReteNetwork};

fn main() {
    println!("Figure 6-7: The long-chain production");
    println!("paper: monitor-strips-state has 43 CEs, producing a 43-deep join chain");
    let (_, task) = paper_tasks().remove(1);
    let monitor = task
        .productions
        .iter()
        .find(|p| p.name == psme_ops::intern("monitor-strips-state"))
        .expect("monitor production");
    println!("\nmonitor-strips-state: {} CEs", monitor.ce_count_flat());
    let mut net = ReteNetwork::new();
    net.add_production(monitor.clone(), NetworkOrg::Linear).unwrap();
    let stats = net.stats();
    println!("linear network: {} join nodes, chain depth {}", stats.join_nodes, stats.max_chain_depth);
    println!("\nfirst CEs of the production (cf. the paper's excerpt):");
    for ce in monitor.ces.iter().take(8) {
        println!("   {ce}");
    }
    println!("   … ({} CEs total)", monitor.ce_count_flat());
}
