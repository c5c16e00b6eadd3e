//! End-to-end test of the full Soar loop on a miniature task:
//! proposal → operator tie → selection subgoal → evaluation → best
//! preference (a chunkable result) → chunk compiled at run time → operator
//! applied → halt. Then the after-chunking run shows the learned chunk
//! preventing the impasse, on both the serial and the parallel engine.

use psme_core::{EngineConfig, MatchEngine, ParallelEngine, Scheduler};
use psme_obs::ControlPhase;
use psme_ops::{
    intern, parse_program, parse_wme, ClassRegistry, Instantiation, Production, TimeTag, Wme, WmeId,
};
use psme_rete::{
    AddOutcome, BuildError, CycleOutcome, NetworkOrg, ReteNetwork, SerialEngine, WmeStore,
};
use psme_soar::{declare_arch_classes, Agent, SoarTask, StopReason};
use std::sync::Arc;
use std::time::Duration;

include!("fixtures/fruit_task.rs");

fn run_learning<E: MatchEngine>(engine: E) -> (Agent<E>, StopReason) {
    let task = fruit_task();
    let mut agent = task.agent(engine);
    agent.learning = true;
    let stop = agent.run(50);
    (agent, stop)
}

#[test]
fn during_chunking_run_solves_and_learns() {
    let (agent, stop) = run_learning(SerialEngine::new(ReteNetwork::new()));
    assert_eq!(stop, StopReason::Halted);
    assert_eq!(agent.output, vec!["took 7"], "picked the fuller box");
    assert_eq!(agent.stats.impasses, 1, "exactly one operator tie");
    assert_eq!(agent.stats.chunks_built, 1, "the tie produced one chunk");
    assert!(agent.stats.update_tasks > 0, "chunk state update ran through the matcher");
    assert!(agent.stats.decisions >= 4);

    // The chunk's shape: conditions in the supergoal (acceptable preference,
    // operator structure, box), action = best preference.
    let chunk = &agent.learned_chunks()[0];
    assert!(chunk.ce_count_flat() >= 3, "chunk has {} CEs", chunk.ce_count_flat());
    assert!(chunk
        .actions
        .iter()
        .any(|a| matches!(a, psme_ops::Action::Make { class, .. } if *class == intern("preference"))));
}

#[test]
fn without_chunking_run_still_solves() {
    let task = fruit_task();
    let mut agent = task.agent(SerialEngine::new(ReteNetwork::new()));
    agent.learning = false;
    let stop = agent.run(50);
    assert_eq!(stop, StopReason::Halted);
    assert_eq!(agent.output, vec!["took 7"]);
    assert_eq!(agent.stats.chunks_built, 0);
    assert_eq!(agent.stats.impasses, 1);
}

#[test]
fn after_chunking_run_avoids_the_impasse() {
    let (first, _) = run_learning(SerialEngine::new(ReteNetwork::new()));
    let chunks = first.learned_chunks();
    assert_eq!(chunks.len(), 1);

    // Fresh agent, same task, chunks preloaded.
    let task = fruit_task();
    let mut agent = task.agent(SerialEngine::new(ReteNetwork::new()));
    for c in chunks {
        agent.load_production(c).unwrap();
    }
    agent.learning = true; // nothing new should be learned
    let stop = agent.run(50);
    assert_eq!(stop, StopReason::Halted);
    assert_eq!(agent.output, vec!["took 7"]);
    assert_eq!(agent.stats.impasses, 0, "the chunk preempted the tie");
    assert_eq!(agent.stats.chunks_built, 0);
    assert!(
        agent.stats.decisions < first.stats.decisions,
        "after-chunking run is shorter: {} vs {}",
        agent.stats.decisions,
        first.stats.decisions
    );
}

#[test]
fn parallel_engine_runs_the_same_task() {
    let (serial_agent, s1) = run_learning(SerialEngine::new(ReteNetwork::new()));
    let (par_agent, s2) = run_learning(ParallelEngine::new(
        ReteNetwork::new(),
        EngineConfig { workers: 3, scheduler: Scheduler::MultiQueue, ..Default::default() },
    ));
    assert_eq!(s1, StopReason::Halted);
    assert_eq!(s2, StopReason::Halted);
    assert_eq!(serial_agent.output, par_agent.output);
    assert_eq!(serial_agent.stats.decisions, par_agent.stats.decisions);
    assert_eq!(serial_agent.stats.impasses, par_agent.stats.impasses);
    assert_eq!(serial_agent.stats.chunks_built, par_agent.stats.chunks_built);
}

#[test]
fn garbage_collection_reclaims_subgoal_structure() {
    let (agent, _) = run_learning(SerialEngine::new(ReteNetwork::new()));
    // After the run, no subgoal wmes survive: one goal in the stack, and no
    // eval wmes or subgoal goal-augmentations in WM.
    assert_eq!(agent.stack.len(), 1);
    agent.engine.with_store(|s| {
        for (_, w) in s.iter_alive() {
            assert_ne!(w.class, intern("eval"), "eval wme leaked: {w:?}");
        }
    });
    assert!(agent.stats.wme_removes > 0, "GC actually removed wmes");
}

/// A serial engine whose every match takes at least [`Slow::MATCH`] and is
/// counted, so the agent's phase totals can be checked against known time.
struct Slow {
    inner: SerialEngine,
    matches: u64,
}

impl Slow {
    const MATCH: Duration = Duration::from_millis(4);

    fn slow<R>(&mut self, f: impl FnOnce(&mut SerialEngine) -> R) -> R {
        self.matches += 1;
        std::thread::sleep(Self::MATCH);
        f(&mut self.inner)
    }
}

impl MatchEngine for Slow {
    fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome {
        self.slow(|e| e.apply_changes(adds, removes))
    }
    fn add_wme(&mut self, w: Wme) -> (WmeId, TimeTag) {
        MatchEngine::add_wme(&mut self.inner, w)
    }
    fn remove_wme(&mut self, id: WmeId) -> bool {
        MatchEngine::remove_wme(&mut self.inner, id)
    }
    fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> CycleOutcome {
        self.slow(|e| MatchEngine::run_changes(e, changes))
    }
    fn retire_removed(&mut self, keep: impl FnMut(WmeId) -> bool) -> Vec<WmeId> {
        MatchEngine::retire_removed(&mut self.inner, keep)
    }
    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddOutcome, BuildError> {
        self.inner.add_production(prod, org)
    }
    fn with_store<R>(&self, f: impl FnOnce(&WmeStore) -> R) -> R {
        MatchEngine::with_store(&self.inner, f)
    }
    fn num_net_nodes(&self) -> usize {
        MatchEngine::num_net_nodes(&self.inner)
    }
    fn current_instantiations(&self) -> Vec<Instantiation> {
        self.inner.current_instantiations()
    }
}

/// The agent's recorder times every match it starts — installation,
/// elaboration and decision phase alike — once, as `Match`, and `Decide`
/// encloses none of them.
#[test]
fn recorder_sees_every_match_once_and_decide_none() {
    let slow = Slow { inner: SerialEngine::new(ReteNetwork::new()), matches: 0 };
    let (agent, stop) = run_learning(slow);
    assert_eq!(stop, StopReason::Halted);
    let calls = agent.engine.matches;
    let s_ns = Slow::MATCH.as_nanos() as u64;
    let matched = agent.recorder.total(ControlPhase::Match);
    assert_eq!(matched.count, calls, "one Match span per engine match");
    assert!(matched.total_ns >= s_ns * calls, "Match covers every match: {matched:?}");
    let decisions = agent.stats.decisions;
    let decide = agent.recorder.total(ControlPhase::Decide);
    assert_eq!(decide.count, decisions);
    assert!(
        decide.total_ns < s_ns / 2 * decisions,
        "Decide encloses no match: {decide:?} over {decisions} decisions"
    );
}
