//! modeled — Table 5-1: CEs per chunk and generated code size.

use psme_bench::*;
use psme_rete::{code_size, CodeSizeModel, NetworkOrg, ReteBuild, ReteNetwork};
use psme_tasks::RunMode;

fn main() {
    println!("Table 5-1: Number of CEs per chunk / code size per chunk");
    println!("paper: CEs task-Ps 18/13/26, CEs chunks 36/34/51,");
    println!("       bytes/chunk 7,900/8,500/15,500, bytes/2-input 219/250/304");
    let mut rows = Vec::new();
    for (name, task) in paper_tasks() {
        let (report, _) = capture(&task, RunMode::DuringChunking);
        let chunks = &report.chunks;
        let avg_task_ces = task.avg_ces();
        let avg_chunk_ces = if chunks.is_empty() {
            0.0
        } else {
            chunks.iter().map(|c| c.ce_count_flat() as f64).sum::<f64>() / chunks.len() as f64
        };
        // Compile the chunks into the task's network and measure the
        // modeled code generated per chunk.
        let mut net = ReteNetwork::new();
        for p in &task.productions {
            net.add_production(p.clone(), NetworkOrg::Linear).unwrap();
        }
        let model = CodeSizeModel::default();
        let mut total_bytes = 0u64;
        let mut total_two = 0u64;
        let mut two_bytes_sum = 0u64;
        for c in chunks {
            let add = net.add_production(c.clone(), NetworkOrg::Linear).unwrap();
            let cs = code_size(&net, add.first_new, &model);
            total_bytes += cs.total_bytes;
            total_two += cs.new_two_input;
            two_bytes_sum += cs.bytes_per_two_input * cs.new_two_input;
        }
        let n = chunks.len().max(1) as u64;
        rows.push(vec![
            name.to_string(),
            format!("{avg_task_ces:.0}"),
            format!("{avg_chunk_ces:.0}"),
            format!("{}", total_bytes / n),
            format!("{}", two_bytes_sum.checked_div(total_two).unwrap_or(0)),
            format!("{}", chunks.len()),
        ]);
    }
    print_table(
        "measured",
        &["task", "avg CEs (task Ps)", "avg CEs (chunks)", "bytes/chunk", "bytes/2-input", "chunks"],
        &rows,
    );
    println!("\nclosed-coded alternative (paper: ~15–20 bytes per two-input node):");
    let closed = CodeSizeModel::closed();
    println!("  model bytes/2-input base = {}", closed.two_input_base);
}
