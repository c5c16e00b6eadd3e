//! modeled — Figure 6-8: the constrained bilinear network — chain-depth reduction and
//! simulated speedup on the long-chain production's update cycle.

use psme_bench::*;
use psme_rete::{plan_bilinear, NetworkOrg, ReteBuild, ReteNetwork, SerialEngine};
use psme_sim::{simulate_cycle, SimConfig, SimScheduler};

fn main() {
    println!("Figure 6-8: The constrained bilinear network");
    println!("paper: reduces monitor-strips-state's chain from 43 to ≈15 CEs");
    let (_, task) = paper_tasks().remove(1);
    let monitor = task
        .productions
        .iter()
        .find(|p| p.name == psme_ops::intern("monitor-strips-state"))
        .expect("monitor production")
        .clone();

    let groups = plan_bilinear(&monitor, 5).expect("bilinear plan");
    println!("\nbilinear plan: {} groups (constraint prefix = 5 CEs)", groups.len());

    let mut lin = ReteNetwork::new();
    lin.add_production(monitor.clone(), NetworkOrg::Linear).unwrap();
    let mut bil = ReteNetwork::new();
    bil.add_production(monitor.clone(), NetworkOrg::Bilinear(groups)).unwrap();
    println!("linear chain depth:   {}", lin.max_chain_depth());
    println!("bilinear chain depth: {}", bil.max_chain_depth());

    // Simulate a state-change cycle: install the strips world and goal
    // context, then trace the arrival of a fresh state's wme set.
    for (label, net) in [("linear", lin), ("bilinear", bil)] {
        let mut eng = SerialEngine::new(net);
        // Static structure first (untraced).
        let mut statics = Vec::new();
        let mut state_wmes = Vec::new();
        for w in &task.init_wmes {
            if w.class == psme_ops::intern("state") {
                state_wmes.push(w.clone());
            } else {
                statics.push(w.clone());
            }
        }
        // Goal-context wmes the monitor needs.
        let mut classes = task.classes.clone();
        let g = |s: &str, classes: &psme_ops::ClassRegistry| psme_ops::parse_wme(s, classes).unwrap();
        statics.push(g("(goal ^id g1 ^problem-space ps-strips)", &mut classes));
        statics.push(g("(goal ^id g1 ^state s0)", &mut classes));
        eng.apply_changes(statics, vec![]);
        eng.capture = true;
        eng.apply_changes(state_wmes, vec![]);
        let trace = &eng.trace.cycles[0];
        let uni = simulate_cycle(trace, &SimConfig::new(1, SimScheduler::Multi));
        let par = simulate_cycle(trace, &SimConfig::new(11, SimScheduler::Multi));
        println!(
            "{label:>9}: {} tasks, uniproc {:.0} µs, 11-proc {:.0} µs, speedup {:.2}x",
            trace.len(),
            uni.makespan_us,
            par.makespan_us,
            uni.makespan_us / par.makespan_us
        );
    }
    println!("\nshape check: bilinear shortens the critical chain and lifts the speedup.");
}
