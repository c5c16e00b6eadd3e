//! host — ablation: hashed memories vs a single memory line (the paper's §6.1
//! motivation for hashing the token memories — "hashing the contents of the
//! associated memory nodes, instead of storing them in linear lists,
//! reduces the number of comparisons performed during a node-activation").

use psme_bench::*;
use psme_rete::{ReteNetwork, SerialEngine};

fn main() {
    println!("Ablation: hashed token memories (4096 lines) vs one line (linear memories)");
    let mut rows = Vec::new();
    for (name, task) in paper_tasks().into_iter().take(2) {
        for lines in [4096usize, 1] {
            let mut agent_engine = SerialEngine::with_memory(ReteNetwork::new(), lines);
            agent_engine.capture = true;
            let mut agent = task.agent(agent_engine);
            agent.learning = false;
            let t0 = std::time::Instant::now();
            let stop = agent.run(200);
            let wall = t0.elapsed();
            // Opposite-memory entries scanned per two-input activation.
            let mut scanned = 0u64;
            let mut beta = 0u64;
            for c in &agent.engine.trace.cycles {
                for t in &c.tasks {
                    if t.kind != psme_rete::TaskKind::Alpha {
                        scanned += t.work.scanned as u64;
                        beta += 1;
                    }
                }
            }
            rows.push(vec![
                name.to_string(),
                format!("{lines}"),
                format!("{stop:?}"),
                format!("{:.2}", scanned as f64 / beta.max(1) as f64),
                format!("{:.1}", wall.as_secs_f64() * 1e3),
            ]);
        }
    }
    print_table(
        "comparisons per activation",
        &["task", "memory lines", "stop", "scanned/activation", "host wall (ms)"],
        &rows,
    );
    println!("\nshape check: one line ⇒ every activation scans every token (linear memories).");
}
