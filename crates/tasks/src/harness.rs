//! Run harness: the paper's three run modes (§3) over any engine.
//!
//! * *without chunking* — learning off;
//! * *during chunking* — learning on, chunks added at run time;
//! * *after chunking* — a fresh run on the same input with the previously
//!   learned chunks preloaded.

use psme_core::{EngineConfig, MatchEngine, ParallelEngine};
use psme_ops::Production;
use psme_rete::{ReteNetwork, SerialEngine};
use psme_soar::{Agent, SoarTask};
use psme_rete::NetworkOrg;
use psme_ops::Symbol;
use std::sync::Arc;

/// The three run modes of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunMode {
    /// Chunking turned off.
    WithoutChunking,
    /// Learning while solving.
    DuringChunking,
    /// Re-run on the same input with previously learned chunks.
    AfterChunking,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Why the run stopped.
    pub stop: psme_soar::StopReason,
    /// Agent counters.
    pub stats: psme_soar::AgentStats,
    /// Chunks learned in this run.
    pub chunks: Vec<Arc<Production>>,
    /// `(write …)` output.
    pub output: Vec<String>,
}

/// Decision budget used by the harness.
pub const DECISION_BUDGET: u64 = 400;

fn run_agent<E: MatchEngine>(mut agent: Agent<E>, learning: bool) -> (RunReport, Agent<E>) {
    agent.learning = learning;
    let stop = agent.run(DECISION_BUDGET);
    let report = RunReport {
        stop,
        stats: agent.stats,
        chunks: agent.learned_chunks(),
        output: agent.output.clone(),
    };
    (report, agent)
}

/// Run a task on the serial engine with per-production network
/// organizations (the §7 adaptive-bilinear loop feeds diagnoses back in
/// through `orgs`).
pub fn run_serial_with_orgs(
    task: &SoarTask,
    mode: RunMode,
    capture: bool,
    orgs: &[(Symbol, NetworkOrg)],
) -> (RunReport, SerialEngine) {
    let preload = match mode {
        RunMode::AfterChunking => {
            let (r, _) = run_serial_with_orgs(task, RunMode::DuringChunking, false, orgs);
            r.chunks
        }
        _ => Vec::new(),
    };
    let mut engine = SerialEngine::new(ReteNetwork::new());
    engine.capture = capture;
    let mut agent = Agent::new(engine, task.classes.clone());
    for (name, org) in orgs {
        agent.org_overrides.insert(*name, org.clone());
    }
    task.install(&mut agent);
    for c in preload {
        agent.load_production(c).expect("preloaded chunk");
    }
    let learning = matches!(mode, RunMode::DuringChunking);
    let (report, agent) = run_agent(agent, learning);
    (report, agent.engine)
}

/// Run a task on the serial engine. Returns the report and the engine
/// (whose captured trace, when `capture` is set, feeds the simulator).
pub fn run_serial(task: &SoarTask, mode: RunMode, capture: bool) -> (RunReport, SerialEngine) {
    let preload = match mode {
        RunMode::AfterChunking => {
            let (r, _) = run_serial(task, RunMode::DuringChunking, false);
            r.chunks
        }
        _ => Vec::new(),
    };
    let mut engine = SerialEngine::new(ReteNetwork::new());
    engine.capture = capture;
    let mut agent = task.agent(engine);
    for c in preload {
        agent.load_production(c).expect("preloaded chunk");
    }
    let learning = matches!(mode, RunMode::DuringChunking);
    let (report, agent) = run_agent(agent, learning);
    (report, agent.engine)
}

/// Run a task on the PSM-E parallel engine.
pub fn run_parallel(
    task: &SoarTask,
    mode: RunMode,
    config: EngineConfig,
) -> (RunReport, ParallelEngine) {
    let preload = match mode {
        RunMode::AfterChunking => {
            let (r, _) = run_serial(task, RunMode::DuringChunking, false);
            r.chunks
        }
        _ => Vec::new(),
    };
    let engine = ParallelEngine::new(ReteNetwork::new(), config);
    let mut agent = task.agent(engine);
    for c in preload {
        agent.load_production(c).expect("preloaded chunk");
    }
    let learning = matches!(mode, RunMode::DuringChunking);
    let (report, agent) = run_agent(agent, learning);
    (report, agent.engine)
}
