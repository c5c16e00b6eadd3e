//! Automatic diagnosis of low speedups — the paper's §7 proposal:
//! "A possible avenue of investigation is to equip the system with
//! diagnostic tools to automatically deduce the causes of the low speedups.
//! For example, to identify long chains, the system can look at the last
//! few node activations on the cycles with low parallelism. The system can
//! then make adaptive changes, such as introducing bilinear networks, to
//! increase the speedups."
//!
//! [`diagnose_cycle`] computes the critical (longest dependent) path of a
//! cycle's task DAG under the cost model, classifies the cycle, and
//! attributes chain dominance to the nodes on the path so the caller can
//! reorganize the offending productions bilinearly.

use crate::cost::CostModel;
use psme_rete::{CycleTrace, NodeId};

/// Why a cycle cannot speed up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bottleneck {
    /// Too few tasks to amortize per-cycle overhead ("small cycles").
    SmallCycle,
    /// A dependent activation chain dominates the cycle ("long chains").
    LongChain,
    /// Work is plentiful and well-shaped; queues/locks are the limit.
    Contention,
}

/// Diagnosis of one cycle.
#[derive(Clone, Debug)]
pub struct CycleDiagnosis {
    /// Total tasks in the cycle.
    pub tasks: usize,
    /// Total compute in the cycle (µs, uncontended).
    pub total_us: f64,
    /// Cost of the critical path (µs).
    pub critical_path_us: f64,
    /// Number of tasks on the critical path.
    pub critical_path_len: usize,
    /// Upper bound on speedup from the DAG shape alone.
    pub max_parallelism: f64,
    /// Classification.
    pub bottleneck: Bottleneck,
    /// Beta nodes on the critical path, deduplicated, busiest first —
    /// the candidates for bilinear reorganization.
    pub chain_nodes: Vec<NodeId>,
}

/// Tasks below this count classify as a small cycle.
pub const SMALL_CYCLE_TASKS: usize = 20;

/// Chain share of total work above which a cycle is chain-bound.
pub const CHAIN_DOMINANCE: f64 = 0.35;

/// Analyze one cycle's task DAG.
pub fn diagnose_cycle(trace: &CycleTrace, cost: &CostModel) -> CycleDiagnosis {
    let n = trace.tasks.len();
    let mut children_count = vec![0usize; n];
    for t in &trace.tasks {
        if let Some(p) = t.parent {
            children_count[p as usize] += 1;
        }
    }
    // Longest path ending at each task (tasks are topologically ordered:
    // parents precede children in the trace).
    let mut total = 0.0f64;
    let mut path_cost = vec![0.0f64; n];
    let mut path_len = vec![0usize; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut best_end = 0usize;
    for (i, t) in trace.tasks.iter().enumerate() {
        let c = cost.total_cost(t, children_count[i]);
        total += c;
        let (base_cost, base_len, from) = match t.parent {
            Some(p) => (path_cost[p as usize], path_len[p as usize], Some(p as usize)),
            None => (0.0, 0, None),
        };
        path_cost[i] = base_cost + c;
        path_len[i] = base_len + 1;
        pred[i] = from;
        if path_cost[i] > path_cost[best_end] {
            best_end = i;
        }
    }
    let critical = if n == 0 { 0.0 } else { path_cost[best_end] };
    let max_parallelism = if critical > 0.0 { total / critical } else { 1.0 };

    // Walk the critical path collecting its beta nodes, weighted by cost.
    let mut node_cost: std::collections::HashMap<NodeId, f64> = Default::default();
    let mut cur = if n == 0 { None } else { Some(best_end) };
    while let Some(i) = cur {
        let t = &trace.tasks[i];
        if t.node != 0 {
            *node_cost.entry(t.node).or_insert(0.0) += cost.total_cost(t, children_count[i]);
        }
        cur = pred[i];
    }
    let mut chain_nodes: Vec<(NodeId, f64)> = node_cost.into_iter().collect();
    chain_nodes.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));

    let bottleneck = if n < SMALL_CYCLE_TASKS {
        Bottleneck::SmallCycle
    } else if critical / total.max(1e-9) > CHAIN_DOMINANCE {
        Bottleneck::LongChain
    } else {
        Bottleneck::Contention
    };
    CycleDiagnosis {
        tasks: n,
        total_us: total,
        critical_path_us: critical,
        critical_path_len: if n == 0 { 0 } else { path_len[best_end] },
        max_parallelism,
        bottleneck,
        chain_nodes: chain_nodes.into_iter().map(|(id, _)| id).collect(),
    }
}

/// Summary over a whole run: how much of the total work sits in each
/// bottleneck class, plus the most chain-implicated nodes.
#[derive(Clone, Debug, Default)]
pub struct RunDiagnosis {
    /// Work (µs) in small cycles.
    pub small_cycle_us: f64,
    /// Work in chain-bound cycles.
    pub long_chain_us: f64,
    /// Work in well-shaped cycles.
    pub parallel_us: f64,
    /// Chain-implicated nodes, most frequent first.
    pub suspects: Vec<(NodeId, u32)>,
}

/// Diagnose every cycle of a run.
pub fn diagnose_run(traces: &[CycleTrace], cost: &CostModel) -> RunDiagnosis {
    let mut out = RunDiagnosis::default();
    let mut counts: std::collections::HashMap<NodeId, u32> = Default::default();
    for t in traces {
        let d = diagnose_cycle(t, cost);
        match d.bottleneck {
            Bottleneck::SmallCycle => out.small_cycle_us += d.total_us,
            Bottleneck::LongChain => {
                out.long_chain_us += d.total_us;
                for n in d.chain_nodes.iter().take(5) {
                    *counts.entry(*n).or_insert(0) += 1;
                }
            }
            Bottleneck::Contention => out.parallel_us += d.total_us,
        }
    }
    let mut suspects: Vec<(NodeId, u32)> = counts.into_iter().collect();
    suspects.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out.suspects = suspects;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psme_rete::{Phase, Side, TaskKind, TaskRecord, Work};

    fn rec(id: u32, parent: Option<u32>, node: NodeId) -> TaskRecord {
        TaskRecord {
            id,
            parent,
            node,
            kind: TaskKind::Join,
            side: Some(Side::Left),
            delta: 1,
            work: Work { scanned: 1, emitted: 1, line: Some(0), ..Work::default() },
            wall_ns: 0,
        }
    }

    fn cycle(tasks: Vec<TaskRecord>) -> CycleTrace {
        CycleTrace { cycle: 0, phase: Phase::Match, tasks }
    }

    #[test]
    fn small_cycles_classified() {
        let t = cycle((0..5).map(|i| rec(i, None, 1)).collect());
        let d = diagnose_cycle(&t, &CostModel::default());
        assert_eq!(d.bottleneck, Bottleneck::SmallCycle);
        assert_eq!(d.tasks, 5);
    }

    #[test]
    fn chains_detected_with_their_nodes() {
        // A 40-task chain through nodes 10..50 plus 10 independent tasks.
        let mut tasks: Vec<TaskRecord> =
            (0..40).map(|i| rec(i, i.checked_sub(1), 10 + i)).collect();
        for i in 40..50 {
            tasks.push(rec(i, None, 1));
        }
        let d = diagnose_cycle(&cycle(tasks), &CostModel::default());
        assert_eq!(d.bottleneck, Bottleneck::LongChain);
        assert_eq!(d.critical_path_len, 40);
        assert!(d.max_parallelism < 2.0, "{}", d.max_parallelism);
        assert!(d.chain_nodes.len() >= 40);
        assert!(d.chain_nodes.iter().all(|&n| (10..50).contains(&n)));
    }

    #[test]
    fn wide_cycles_classified_as_contention_bound() {
        let t = cycle((0..200).map(|i| rec(i, None, 2)).collect());
        let d = diagnose_cycle(&t, &CostModel::default());
        assert_eq!(d.bottleneck, Bottleneck::Contention);
        assert!(d.max_parallelism > 100.0);
    }

    #[test]
    fn run_diagnosis_aggregates() {
        let chain = cycle((0..40).map(|i| rec(i, i.checked_sub(1), 7)).collect());
        let wide = cycle((0..100).map(|i| rec(i, None, 2)).collect());
        let small = cycle((0..3).map(|i| rec(i, None, 3)).collect());
        let d = diagnose_run(&[chain, wide, small], &CostModel::default());
        assert!(d.long_chain_us > 0.0);
        assert!(d.parallel_us > d.small_cycle_us);
        assert_eq!(d.suspects.first().map(|s| s.0), Some(7));
    }
}
