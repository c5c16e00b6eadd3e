//! # psme-sim — the Encore Multimax simulator
//!
//! The paper's hardware substrate — a 16-processor NS32032 Encore Multimax
//! — simulated as a deterministic discrete-event system (see DESIGN.md §3:
//! this host has 2 vCPUs, so real 13-process wall-clock speedups cannot be
//! measured; the simulator replays the serial engine's task traces under a
//! calibrated cost model instead).
//!
//! * [`cost`] — the NS32032 cost model (≈400 µs average task, Table 6-1);
//! * [`des`] — P virtual match processes, single or per-process task
//!   queues, queue/line locks as single-server resources, idle-process
//!   failed-pop interference, and task-DAG dependencies from the trace.
//!
//! Everything the paper measures falls out: per-cycle makespans → speedups
//! (Figures 6-1/6-4/6-9/6-10), queue-lock spins per task (Figure 6-3),
//! per-cycle speedup vs tasks/cycle (Figure 6-5), and the tasks-in-system
//! timeline inside one cycle (Figure 6-6).

pub mod cost;
pub mod des;
pub mod diagnose;

pub use cost::CostModel;
pub use diagnose::{diagnose_cycle, diagnose_run, Bottleneck, CycleDiagnosis, RunDiagnosis};
pub use des::{
    simulate_cycle, simulate_run, speedup, total_seconds, SimConfig, SimResult, SimScheduler,
};

use psme_obs::NodeProfiler;
use psme_rete::CycleTrace;

/// Per-node simulated-time breakdown: fold a run's traces into a
/// [`NodeProfiler`], attributing each task its [`CostModel`] cost. The
/// result answers the §6 question "where does the simulated machine spend
/// its time" node by node — `profiler.report(&net, k)` then names the
/// hottest nodes' productions.
pub fn profile_run(traces: &[CycleTrace], cost: &CostModel) -> NodeProfiler {
    let mut p = NodeProfiler::new();
    p.ingest_run(traces, |t, children| cost.total_cost(t, children));
    p
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use psme_rete::{Phase, Side, TaskKind, TaskRecord, Work};

    #[test]
    fn per_node_costs_sum_to_per_task_costs() {
        let mk = |id: u32, parent: Option<u32>, node: u32, kind: TaskKind| TaskRecord {
            id,
            parent,
            node,
            kind,
            side: Some(Side::Left),
            delta: 1,
            work: Work {
                scanned: 3,
                emitted: if kind == TaskKind::Prod { 0 } else { 1 },
                line: Some(node % 8),
                ..Work::default()
            },
            wall_ns: 0,
        };
        let trace = CycleTrace {
            cycle: 0,
            phase: Phase::Match,
            tasks: vec![
                mk(0, None, 0, TaskKind::Alpha),
                mk(1, Some(0), 4, TaskKind::Join),
                mk(2, Some(1), 9, TaskKind::Prod),
            ],
        };
        let cost = CostModel::default();
        let p = profile_run(std::slice::from_ref(&trace), &cost);
        // Each task has exactly one child here except the leaf.
        let expected: f64 = cost.total_cost(&trace.tasks[0], 1)
            + cost.total_cost(&trace.tasks[1], 1)
            + cost.total_cost(&trace.tasks[2], 0);
        assert!((p.total_cost_us() - expected).abs() < 1e-9);
        // The same total the simulator charges as busy time.
        let sim = simulate_cycle(&trace, &SimConfig::new(2, SimScheduler::Multi));
        assert!((sim.busy_us - expected).abs() < 1e-9);
        assert_eq!(p.cycles, 1);
        assert_eq!(p.tasks, 3);
    }
}
