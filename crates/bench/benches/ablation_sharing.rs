//! modeled — ablation: two-input node sharing on/off (paper: 20–30% gains from
//! sharing during updates and after-chunking runs; Table 5-2's comparison).

use psme_bench::*;
use psme_rete::{NetworkOrg, ReteBuild, ReteNetwork};
use psme_tasks::RunMode;

fn main() {
    println!("Ablation: node sharing on vs off");
    println!("paper: sharing gains ≈20–30% in update phase and after-chunking runs");
    let mut rows = Vec::new();
    for (name, task) in paper_tasks() {
        let (report, _) = capture(&task, RunMode::DuringChunking);
        for sharing in [true, false] {
            let mut net = ReteNetwork::with_sharing(sharing);
            for p in &task.productions {
                net.add_production(p.clone(), NetworkOrg::Linear).unwrap();
            }
            let base_nodes = net.num_nodes();
            for c in &report.chunks {
                net.add_production(c.clone(), NetworkOrg::Linear).unwrap();
            }
            let stats = net.stats();
            rows.push(vec![
                name.to_string(),
                if sharing { "on".into() } else { "off".into() },
                format!("{base_nodes}"),
                format!("{}", net.num_nodes()),
                format!("{}", stats.shared_two_input),
                format!("{}", stats.join_nodes + stats.neg_nodes),
            ]);
        }
    }
    print_table(
        "network size with and without sharing",
        &["task", "sharing", "nodes (task Ps)", "nodes (+chunks)", "shared 2-input", "total 2-input"],
        &rows,
    );
}
