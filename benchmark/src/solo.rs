//! One solo operation — build the instance, construct an agent, install,
//! run — with or without the [`Timed`] wrapper, and the per-layer metrics
//! a set of traced operations yields. Used by the two solo workloads and
//! by the bottom rung of the serve workloads.

use crate::instances::{run_solo, Outcome, Plan, TaskSpec};
use crate::metrics::Values;
use crate::stats::{percentile, sorted};
use crate::timed::{EngineKinds, Timed};
use crate::trace::{span, Kind, Layer, Tracer};
use psme_core::{EngineConfig, MatchEngine, MetricsLog, ParallelEngine, Scheduler};
use psme_obs::{ControlPhase, Counter};
use psme_ops::Production;
use psme_rete::{JournaledSession, ReteNetwork, SerialEngine, Topology};
use psme_soar::{Agent, AgentStats, SoarTask};
use std::sync::Arc;
use std::time::Instant;

/// The engines the benchmark runs agents on.
pub trait Engine: MatchEngine + Sized {
    /// Which span kinds calls into this engine are recorded as.
    const KINDS: EngineKinds;
    /// Whether agents adopt productions already compiled into the engine.
    const ADOPTED: bool;
    /// Whether `AgentStats.update_tasks` reproduces the serial engine's (see
    /// [`Outcome::without_work_counters`]).
    const EXACT_WORK_COUNTERS: bool = true;
    type Source: ?Sized;
    fn make(source: &Self::Source) -> Self;
}

impl Engine for SerialEngine {
    const KINDS: EngineKinds = crate::timed::RETE;
    const ADOPTED: bool = false;
    type Source = ();
    fn make(_: &()) -> SerialEngine {
        SerialEngine::new(ReteNetwork::new())
    }
}

/// The paper's engine as `solo_parallel` configures it: two match
/// processes, one queue each, everything else default.
impl Engine for ParallelEngine {
    const KINDS: EngineKinds = crate::timed::CORE;
    const ADOPTED: bool = false;
    const EXACT_WORK_COUNTERS: bool = false;
    type Source = ();
    fn make(_: &()) -> ParallelEngine {
        let cfg = EngineConfig {
            workers: 2,
            scheduler: Scheduler::MultiQueue,
            ..Default::default()
        };
        ParallelEngine::new(ReteNetwork::new(), cfg)
    }
}

/// What a served session runs on: a session over an app's frozen topology.
impl Engine for JournaledSession {
    const KINDS: EngineKinds = crate::timed::RETE;
    const ADOPTED: bool = true;
    type Source = Arc<Topology>;
    fn make(topo: &Arc<Topology>) -> JournaledSession {
        JournaledSession::fresh(topo.clone(), false)
    }
}

/// What the wrapper and the crates' own counters saw of one traced run.
pub struct Detail {
    pub stats: AgentStats,
    pub match_tasks: u64,
    /// Run-time `add_production` durations (chunks), nanoseconds.
    pub chunk_add_ns: Vec<f64>,
    /// `add_production` time spent before the run (compile, preload).
    pub compile_ns: f64,
    pub nodes_final: usize,
    /// `agent.recorder` totals: decide, match, surgery, chunk build.
    pub rec_ns: [u64; 4],
    /// The parallel engine's cycle log.
    pub metrics: Option<MetricsLog>,
}

pub struct OpResult {
    pub outcome: Outcome,
    pub chunks: Vec<Arc<Production>>,
    /// Instance build to engine drop, and the process CPU seconds spent
    /// meanwhile.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The instance build alone.
    pub build_s: f64,
    pub detail: Option<Detail>,
}

fn finish<M: MatchEngine>(
    task: &SoarTask,
    engine: M,
    adopted: bool,
    preload: &[Arc<Production>],
    plan: Plan,
    detail: impl FnOnce(&Agent<M>) -> Option<Detail>,
) -> (Outcome, Vec<Arc<Production>>, Option<Detail>) {
    let (outcome, agent) = run_solo(task, engine, adopted, preload, plan);
    (outcome, agent.learned_chunks(), detail(&agent))
    // The agent, its engine and (for the parallel engine) its match
    // processes are dropped here, inside the operation.
}

/// Run one operation on engine `E`. With `traced`, the engine is wrapped
/// in [`Timed`] and the result carries a [`Detail`]; the spans go to this
/// thread's tracer.
pub fn run_op<E: Engine>(
    source: &E::Source,
    spec: &TaskSpec,
    plan: Plan,
    preload: &[Arc<Production>],
    traced: bool,
) -> OpResult {
    let (t0, cpu0) = (Instant::now(), crate::sys::cpu_seconds());
    let mut build_s = 0.0;
    let (outcome, chunks, detail) = span(Kind::SoloOp, || {
        let task = &span(Kind::InstanceBuild, || spec.build());
        build_s = t0.elapsed().as_secs_f64();
        if traced {
            let engine = Timed::new(E::make(source), E::KINDS);
            finish(task, engine, E::ADOPTED, preload, plan, |agent| {
                let e = &agent.engine;
                let runtime = agent.stats.chunks_built as usize;
                let split = e.add_production_ns.len().saturating_sub(runtime);
                let rec = |p| agent.recorder.total(p).total_ns;
                Some(Detail {
                    stats: agent.stats,
                    match_tasks: e.match_tasks,
                    chunk_add_ns: e.add_production_ns[split..].to_vec(),
                    compile_ns: e.add_production_ns[..split].iter().sum(),
                    nodes_final: e.num_net_nodes(),
                    rec_ns: [
                        rec(ControlPhase::Decide),
                        rec(ControlPhase::Match),
                        rec(ControlPhase::NetworkSurgery),
                        rec(ControlPhase::ChunkBuild),
                    ],
                    metrics: e.metrics().cloned(),
                })
            })
        } else {
            finish(task, E::make(source), E::ADOPTED, preload, plan, |_| None)
        }
    });
    OpResult {
        outcome,
        chunks,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: crate::sys::cpu_seconds() - cpu0,
        build_s,
        detail,
    }
}

/// Sums over a set of traced operations.
#[derive(Default)]
pub struct SoloAgg {
    ops: u64,
    stats: AgentStats,
    match_tasks: u64,
    chunk_add_ns: Vec<f64>,
    compile_ns: f64,
    nodes: u64,
    rec_ns: [u64; 4],
    // psme-core's cycle log, summed.
    cycles: u64,
    cycle_tasks: u64,
    queue_spins: u64,
    failed_pops: u64,
    mem_spins: u64,
    line_locks: u64,
    small_cycle_ns: Vec<f64>,
}

impl SoloAgg {
    pub fn add(&mut self, d: &Detail) {
        self.ops += 1;
        let (a, b) = (&mut self.stats, &d.stats);
        a.decisions += b.decisions;
        a.elaboration_cycles += b.elaboration_cycles;
        a.chunks_built += b.chunks_built;
        a.firings += b.firings;
        a.wme_adds += b.wme_adds;
        a.wme_removes += b.wme_removes;
        a.update_tasks += b.update_tasks;
        self.match_tasks += d.match_tasks;
        self.chunk_add_ns.extend_from_slice(&d.chunk_add_ns);
        self.compile_ns += d.compile_ns;
        self.nodes += d.nodes_final as u64;
        for (a, b) in self.rec_ns.iter_mut().zip(d.rec_ns) {
            *a += b;
        }
        if let Some(m) = &d.metrics {
            self.cycles += m.cycles.len() as u64;
            self.cycle_tasks += m.total_tasks();
            self.line_locks += m.total_counters().get(Counter::LineLockAcquisitions);
            for c in &m.cycles {
                self.queue_spins += c.queue.push_spins + c.queue.pop_spins;
                self.failed_pops += c.queue.failed_pops;
                self.mem_spins += c.mem_spins;
                // A cycle this small is all barrier: wake the match
                // processes, run a handful of activations, detect
                // quiescence.
                if c.tasks <= 4 {
                    self.small_cycle_ns.push(c.wall_ns as f64);
                }
            }
        }
    }

    pub fn decisions(&self) -> u64 {
        self.stats.decisions
    }

    /// `soar.*` metrics: the Soar layer's own time from the tracer, its
    /// counts from `AgentStats`, and the crate's own recorder as a
    /// cross-check.
    pub fn soar_values(&self, t: &Tracer, notes: &mut Vec<String>) -> Values {
        let d = self.stats.decisions.max(1) as f64;
        let op_ns = t.total(Kind::SoloOp).ns.max(1) as f64;
        let share = |ns: u64| ns as f64 / op_ns;
        let wrapper_match = t.total(Kind::ReteRunChanges).ns + t.total(Kind::CoreRunChanges).ns;
        // The recorder's match spans cover the elaboration cycles' calls to
        // `run_changes`; the wrapper also sees those of the decision phase
        // and of installation, so it may read higher, not lower.
        let gap = (wrapper_match as f64 - self.rec_ns[1] as f64) / wrapper_match.max(1) as f64;
        if gap.abs() > 0.05 {
            notes.push(format!(
                "agent.recorder match total is {:.1}% below the wrapper's run_changes spans",
                gap * 100.0
            ));
        }
        vec![
            (
                "soar.step_self_us_per_decision",
                t.total(Kind::Step).self_ns as f64 / 1e3 / d,
            ),
            ("soar.self_share", share(t.layer_self_ns(Layer::Soar))),
            ("soar.firings_per_decision", self.stats.firings as f64 / d),
            (
                "soar.wme_changes_per_decision",
                (self.stats.wme_adds + self.stats.wme_removes) as f64 / d,
            ),
            (
                "soar.elaborations_per_decision",
                self.stats.elaboration_cycles as f64 / d,
            ),
            (
                "soar.chunks_per_kdecision",
                self.stats.chunks_built as f64 * 1e3 / d,
            ),
            ("soar.rec_decide_share", share(self.rec_ns[0])),
            ("soar.rec_match_share", share(self.rec_ns[1])),
            ("soar.rec_surgery_share", share(self.rec_ns[2])),
            ("soar.rec_chunk_build_share", share(self.rec_ns[3])),
        ]
    }

    /// `rete.*` metrics, from operations run on a `psme-rete` engine.
    pub fn rete_values(&self, t: &Tracer) -> Values {
        let d = self.stats.decisions.max(1) as f64;
        let op_ns = t.total(Kind::SoloOp).ns.max(1) as f64;
        let run = t.total(Kind::ReteRunChanges).ns;
        let matching = run + t.total(Kind::ReteAddWme).ns + t.total(Kind::ReteRemoveWme).ns;
        vec![
            ("rete.match_us_per_decision", matching as f64 / 1e3 / d),
            ("rete.match_share", matching as f64 / op_ns),
            (
                "rete.us_per_task",
                run as f64 / 1e3 / self.match_tasks.max(1) as f64,
            ),
            ("rete.tasks_per_decision", self.match_tasks as f64 / d),
            (
                "rete.add_production_us_p50",
                percentile(&sorted(self.chunk_add_ns.clone()), 0.5) / 1e3,
            ),
            (
                "rete.update_tasks_per_chunk",
                if self.stats.chunks_built == 0 {
                    0.0
                } else {
                    self.stats.update_tasks as f64 / self.stats.chunks_built as f64
                },
            ),
            (
                "rete.nodes_final",
                self.nodes as f64 / self.ops.max(1) as f64,
            ),
            (
                "rete.compile_ms",
                self.compile_ns / 1e6 / self.ops.max(1) as f64,
            ),
        ]
    }

    /// Match time per decision on whichever engine these operations ran.
    pub fn match_us_per_decision(&self, t: &Tracer) -> f64 {
        let ns: u64 = [
            Kind::ReteRunChanges,
            Kind::ReteAddWme,
            Kind::ReteRemoveWme,
            Kind::CoreRunChanges,
            Kind::CoreAddWme,
            Kind::CoreRemoveWme,
        ]
        .iter()
        .map(|&k| t.total(k).ns)
        .sum();
        ns as f64 / 1e3 / self.stats.decisions.max(1) as f64
    }

    /// `core.*` metrics, from operations run on the parallel engine.
    /// `serial_us` is the same inputs' match time per decision on
    /// `SerialEngine`.
    pub fn core_values(&self, t: &Tracer, serial_us: f64) -> Values {
        let tasks = self.cycle_tasks.max(1) as f64;
        let per_decision = self.match_us_per_decision(t);
        vec![
            ("core.match_us_per_decision", per_decision),
            (
                "core.speedup_vs_serial",
                serial_us / per_decision.max(f64::MIN_POSITIVE),
            ),
            (
                "core.tasks_per_cycle",
                self.cycle_tasks as f64 / self.cycles.max(1) as f64,
            ),
            ("core.queue_spins_per_task", self.queue_spins as f64 / tasks),
            ("core.failed_pops_per_task", self.failed_pops as f64 / tasks),
            ("core.mem_spins_per_task", self.mem_spins as f64 / tasks),
            (
                "core.line_lock_acquisitions_per_task",
                self.line_locks as f64 / tasks,
            ),
            (
                "core.small_cycle_wall_us_p50",
                percentile(&sorted(self.small_cycle_ns.clone()), 0.5) / 1e3,
            ),
        ]
    }
}
