//! A common façade over the serial and parallel engines, so the Soar
//! architecture (and the task suites) can run on either interchangeably.

use crate::engine::ParallelEngine;
use psme_ops::{Instantiation, Production, TimeTag, Wme, WmeId};
use psme_rete::{
    AddOutcome, BuildError, ChainDetector, CycleOutcome, JournaledSession, NetworkOrg, Phase,
    ReorgDecision, ReorgOutcome, ReteBuild, SerialEngine, WmeStore,
};
use std::sync::Arc;

/// Unified match-engine interface.
pub trait MatchEngine {
    /// Add wmes / remove wme ids, then match to quiescence.
    fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome;

    /// Register a wme in the store without matching yet (the Soar layer
    /// batches a whole elaboration cycle's changes before matching).
    fn add_wme(&mut self, w: Wme) -> (WmeId, TimeTag);

    /// Mark a wme dead without matching yet. Returns false if already dead.
    fn remove_wme(&mut self, id: WmeId) -> bool;

    /// Match a batch of pre-registered changes to quiescence.
    fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> CycleOutcome;

    /// Free every removed wme `keep` turns down and return their ids
    /// ([`WmeStore::retire_removed`]). Call only between match cycles, when
    /// no delete token is in flight. The default retires nothing; it
    /// exists only until the benchmark's `Timed` wrapper forwards the call
    /// (ROADMAP), after which the method has no default.
    fn retire_removed(&mut self, _keep: impl FnMut(WmeId) -> bool) -> Vec<WmeId> {
        Vec::new()
    }

    /// Compile a production at run time and update its state (§5.1/§5.2).
    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddOutcome, BuildError>;

    /// Read access to the working-memory store.
    fn with_store<R>(&self, f: impl FnOnce(&WmeStore) -> R) -> R;

    /// Number of beta nodes in the engine's network view (monolithic, or
    /// shared base + session overlay).
    fn num_net_nodes(&self) -> usize;

    /// All current instantiations (quiescent-time helper).
    fn current_instantiations(&self) -> Vec<Instantiation>;

    /// The engine's own control-thread span recorder, when it keeps one
    /// (the parallel engine records match / §5.1 surgery / §5.2 state-update
    /// spans; the serial engine records nothing).
    fn recorder(&self) -> Option<&psme_obs::Recorder> {
        None
    }

    /// The engine's per-cycle metrics log, when it keeps one.
    fn metrics(&self) -> Option<&crate::metrics::MetricsLog> {
        None
    }

    /// Arm or disarm per-node cost profiling for the adaptive-reorg
    /// detector. Default: unsupported, silently off.
    fn set_cost_profiling(&mut self, _on: bool) {}

    /// Feed the accumulated cost window to the chain detector at a
    /// quiescent boundary. Default: no window kept, never a decision.
    fn poll_reorg(&mut self, _det: &mut ChainDetector) -> Option<ReorgDecision> {
        None
    }

    /// Rebuild an existing production under a new organization mid-run
    /// (§5.1 surgery + §5.2 update + atomic swap). Default: unsupported.
    fn reorganize_production(
        &mut self,
        _prod_idx: u32,
        _org: NetworkOrg,
    ) -> Result<ReorgOutcome, BuildError> {
        Err(BuildError("this engine does not support reorganization".into()))
    }
}

impl<N: ReteBuild> MatchEngine for SerialEngine<N> {
    fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome {
        SerialEngine::apply_changes(self, adds, removes)
    }

    fn add_wme(&mut self, w: Wme) -> (WmeId, TimeTag) {
        self.state.store.add(w)
    }

    fn remove_wme(&mut self, id: WmeId) -> bool {
        self.state.store.remove(id).is_some()
    }

    fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> CycleOutcome {
        self.run_cycle(changes, Phase::Match)
    }

    fn retire_removed(&mut self, keep: impl FnMut(WmeId) -> bool) -> Vec<WmeId> {
        self.state.store.retire_removed(keep)
    }

    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddOutcome, BuildError> {
        SerialEngine::add_production(self, prod, org)
    }

    fn with_store<R>(&self, f: impl FnOnce(&WmeStore) -> R) -> R {
        f(&self.state.store)
    }

    fn num_net_nodes(&self) -> usize {
        self.net.num_nodes()
    }

    fn current_instantiations(&self) -> Vec<Instantiation> {
        SerialEngine::current_instantiations(self)
    }

    fn set_cost_profiling(&mut self, on: bool) {
        SerialEngine::set_cost_profiling(self, on)
    }

    fn poll_reorg(&mut self, det: &mut ChainDetector) -> Option<ReorgDecision> {
        SerialEngine::poll_reorg(self, det)
    }

    fn reorganize_production(
        &mut self,
        prod_idx: u32,
        org: NetworkOrg,
    ) -> Result<ReorgOutcome, BuildError> {
        SerialEngine::reorganize_production(self, prod_idx, org)
    }
}

impl MatchEngine for JournaledSession {
    fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome {
        JournaledSession::apply_changes(self, adds, removes)
    }

    fn add_wme(&mut self, w: Wme) -> (WmeId, TimeTag) {
        JournaledSession::add_wme(self, w)
    }

    fn remove_wme(&mut self, id: WmeId) -> bool {
        JournaledSession::remove_wme(self, id)
    }

    fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> CycleOutcome {
        JournaledSession::run_changes(self, changes)
    }

    // No journal op: replay re-creates the removed wmes, and the first
    // retirement after resume frees them again.
    fn retire_removed(&mut self, keep: impl FnMut(WmeId) -> bool) -> Vec<WmeId> {
        self.eng.state.store.retire_removed(keep)
    }

    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddOutcome, BuildError> {
        JournaledSession::add_production(self, prod, org)
    }

    fn with_store<R>(&self, f: impl FnOnce(&WmeStore) -> R) -> R {
        f(&self.eng.state.store)
    }

    fn num_net_nodes(&self) -> usize {
        use psme_rete::ReteView;
        self.eng.net.num_nodes()
    }

    fn current_instantiations(&self) -> Vec<Instantiation> {
        self.eng.current_instantiations()
    }

    fn set_cost_profiling(&mut self, on: bool) {
        self.eng.set_cost_profiling(on)
    }

    fn poll_reorg(&mut self, det: &mut ChainDetector) -> Option<ReorgDecision> {
        self.eng.poll_reorg(det)
    }

    fn reorganize_production(
        &mut self,
        prod_idx: u32,
        org: NetworkOrg,
    ) -> Result<ReorgOutcome, BuildError> {
        JournaledSession::reorganize_production(self, prod_idx, org)
    }
}

impl MatchEngine for ParallelEngine {
    fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome {
        ParallelEngine::apply_changes(self, adds, removes)
    }

    fn add_wme(&mut self, w: Wme) -> (WmeId, TimeTag) {
        self.store_mut(|s| s.add(w))
    }

    fn remove_wme(&mut self, id: WmeId) -> bool {
        self.store_mut(|s| s.remove(id).is_some())
    }

    fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> CycleOutcome {
        ParallelEngine::run_changes(self, changes)
    }

    // The store's write lock: sound only at the cycle barrier, where no
    // match process reads the store.
    fn retire_removed(&mut self, keep: impl FnMut(WmeId) -> bool) -> Vec<WmeId> {
        self.store_mut(|s| s.retire_removed(keep))
    }

    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddOutcome, BuildError> {
        ParallelEngine::add_production(self, prod, org)
    }

    fn with_store<R>(&self, f: impl FnOnce(&WmeStore) -> R) -> R {
        ParallelEngine::with_store(self, f)
    }

    fn num_net_nodes(&self) -> usize {
        ParallelEngine::with_net(self, |n| n.num_nodes())
    }

    fn current_instantiations(&self) -> Vec<Instantiation> {
        ParallelEngine::current_instantiations(self)
    }

    fn recorder(&self) -> Option<&psme_obs::Recorder> {
        Some(&self.recorder)
    }

    fn metrics(&self) -> Option<&crate::metrics::MetricsLog> {
        Some(&self.metrics)
    }

    fn set_cost_profiling(&mut self, on: bool) {
        ParallelEngine::set_cost_profiling(self, on)
    }

    fn poll_reorg(&mut self, det: &mut ChainDetector) -> Option<ReorgDecision> {
        ParallelEngine::poll_reorg(self, det)
    }

    fn reorganize_production(
        &mut self,
        prod_idx: u32,
        org: NetworkOrg,
    ) -> Result<ReorgOutcome, BuildError> {
        ParallelEngine::reorganize_production(self, prod_idx, org)
    }
}
