//! Task traces — the raw material for the Encore Multimax simulator.
//!
//! The serial engine deterministically records every task (node activation)
//! it executes: its parent task (the activation that enqueued it), the node,
//! the side, and the task's [`Work`] (opposite-memory entries scanned,
//! children emitted, constant tests run, …). `psme-sim` replays these DAGs
//! on P simulated processors under a calibrated NS32032 cost model to
//! regenerate the paper's speedup figures.

use crate::node::{NodeId, NodeKind, Side};
use crate::work::Work;

/// What kind of work a task performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskKind {
    /// A wme change pushed through the constant-test network.
    Alpha,
    /// An and-node activation.
    Join,
    /// A not-node activation (including conjunctive negations).
    Neg,
    /// A P-node activation (conflict-set update).
    Prod,
}

/// The kind of an activation of a node of this kind (the root, which no
/// activation reaches, counts as a join).
impl From<NodeKind> for TaskKind {
    fn from(kind: NodeKind) -> TaskKind {
        match kind {
            NodeKind::Join | NodeKind::Root => TaskKind::Join,
            NodeKind::Neg => TaskKind::Neg,
            NodeKind::Prod { .. } => TaskKind::Prod,
        }
    }
}

/// One executed task.
#[derive(Clone, Copy, Debug)]
pub struct TaskRecord {
    /// Task id, unique within its cycle (dense from 0).
    pub id: u32,
    /// The task whose processing enqueued this one (`None` for the cycle's
    /// seed tasks, which are available the moment the cycle starts).
    pub parent: Option<u32>,
    /// Destination node (0 for alpha tasks).
    pub node: NodeId,
    /// Work kind.
    pub kind: TaskKind,
    /// Arrival side (`None` for alpha tasks).
    pub side: Option<Side>,
    /// +1 add / −1 delete.
    pub delta: i32,
    /// What the task did.
    pub work: Work,
    /// Measured wall time of the task in nanoseconds (0 when the engine
    /// wasn't capturing timings; u32 caps one task at ~4.3 s, far beyond
    /// any real activation).
    pub wall_ns: u32,
}

impl TaskRecord {
    /// Whether a task of `kind` that did `work` is a null activation in the
    /// paper's sense: a two-input node activation that emitted no children
    /// — memory was updated and scanned, but no new match progress
    /// resulted. Gupta measured these as a dominant overhead; alpha and
    /// P-node tasks are excluded by definition. The one rule the profiler
    /// and the engines' counters apply, with or without a record in hand.
    pub fn is_null(kind: TaskKind, work: &Work) -> bool {
        matches!(kind, TaskKind::Join | TaskKind::Neg) && work.emitted == 0
    }
}

/// Which phase of a run a cycle belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Normal matching (an elaboration cycle / OPS5 recognize cycle).
    Match,
    /// The §5.2 state update after a run-time production addition.
    Update,
}

/// The trace of one cycle.
#[derive(Clone, Debug)]
pub struct CycleTrace {
    /// Cycle ordinal within the run.
    pub cycle: u64,
    /// Match or update phase.
    pub phase: Phase,
    /// Executed tasks in execution order.
    pub tasks: Vec<TaskRecord>,
}

impl CycleTrace {
    /// Number of tasks in the cycle.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the cycle ran no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// A full run's traces.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// Per-cycle traces in order.
    pub cycles: Vec<CycleTrace>,
}

impl RunTrace {
    /// Total tasks across all cycles.
    pub fn total_tasks(&self) -> u64 {
        self.cycles.iter().map(|c| c.tasks.len() as u64).sum()
    }

    /// Cycles in the given phase.
    pub fn phase_cycles(&self, phase: Phase) -> impl Iterator<Item = &CycleTrace> {
        self.cycles.iter().filter(move |c| c.phase == phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, kind: TaskKind) -> TaskRecord {
        TaskRecord { id, parent, node: 1, kind, side: None, delta: 1, work: Work::default(), wall_ns: 0 }
    }

    #[test]
    fn null_activation_is_childless_two_input() {
        let childless = Work::default();
        assert!(TaskRecord::is_null(TaskKind::Join, &childless));
        assert!(!TaskRecord::is_null(TaskKind::Join, &Work { emitted: 1, ..childless }));
        assert!(TaskRecord::is_null(TaskKind::Neg, &childless));
        // Alpha and P-node tasks are never "null activations".
        assert!(!TaskRecord::is_null(TaskKind::Alpha, &childless));
        assert!(!TaskRecord::is_null(TaskKind::Prod, &childless));
    }

    #[test]
    fn counting_helpers() {
        let c = CycleTrace {
            cycle: 0,
            phase: Phase::Match,
            tasks: vec![
                rec(0, None, TaskKind::Alpha),
                rec(1, Some(0), TaskKind::Join),
                rec(2, Some(1), TaskKind::Prod),
            ],
        };
        assert_eq!(c.len(), 3);
        let r = RunTrace { cycles: vec![c.clone(), CycleTrace { cycle: 1, phase: Phase::Update, tasks: vec![] }] };
        assert_eq!(r.total_tasks(), 3);
        assert_eq!(r.phase_cycles(Phase::Update).count(), 1);
        assert!(r.cycles[1].is_empty());
    }
}
