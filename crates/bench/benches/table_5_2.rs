//! host — Table 5-2: time for compiling chunks at run time, shared vs unshared.

use psme_bench::*;
use psme_rete::{code_size, compile_time_us, CodeSizeModel, NetworkOrg, ReteBuild, ReteNetwork};
use psme_tasks::RunMode;
use std::time::Instant;

fn main() {
    println!("Table 5-2: Time for compiling chunks at run-time");
    println!("paper: chunks 20/26/26; shared 23.7/31.5/56.7 s; unshared 25.5/34.7/60.2 s");
    let mut rows = Vec::new();
    for (name, task) in paper_tasks() {
        let (report, _) = capture(&task, RunMode::DuringChunking);
        let chunks = &report.chunks;
        let model = CodeSizeModel::default();
        let mut sim_us = [0u64; 2]; // [shared, unshared]
        let mut wall_ns = [0u64; 2];
        for (i, sharing) in [true, false].into_iter().enumerate() {
            let mut net = ReteNetwork::with_sharing(sharing);
            for p in &task.productions {
                net.add_production(p.clone(), NetworkOrg::Linear).unwrap();
            }
            for c in chunks {
                let searched = net.num_nodes() as u64;
                let t0 = Instant::now();
                let add = net.add_production(c.clone(), NetworkOrg::Linear).unwrap();
                wall_ns[i] += t0.elapsed().as_nanos() as u64;
                let cs = code_size(&net, add.first_new, &model);
                sim_us[i] += compile_time_us(cs.total_bytes, searched);
            }
        }
        rows.push(vec![
            name.to_string(),
            format!("{}", chunks.len()),
            format!("{:.1}", sim_us[0] as f64 / 1e6),
            format!("{:.1}", sim_us[1] as f64 / 1e6),
            format!("{:.2}", wall_ns[0] as f64 / 1e6),
            format!("{:.2}", wall_ns[1] as f64 / 1e6),
        ]);
    }
    print_table(
        "measured",
        &["task", "chunks", "shared (sim s)", "unshared (sim s)", "shared (host ms)", "unshared (host ms)"],
        &rows,
    );
    println!("\nshape check: shared compile time < unshared compile time (as in the paper).");
}
