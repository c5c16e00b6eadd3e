//! The serial reference engine.
//!
//! Deterministic single-threaded driver over the shared node semantics of
//! [`crate::process`]. It is the correctness oracle for the parallel engine
//! (identical conflict sets required), the trace producer for the Multimax
//! simulator, and the uniprocessor baseline of the paper's speedup figures.
//!
//! The engine is generic over its network view: `SerialEngine<ReteNetwork>`
//! (the default) owns a monolithic network, while
//! `SerialEngine<SessionNet>` drives a session's chunk overlay over a
//! shared frozen [`crate::session::Topology`]. Either way the mutable match
//! state (working memory + token memories) lives in a [`MatchState`] owned
//! by the engine — the topology/state split the serving layer multiplexes.

use crate::build::{AddResult, BuildError, ReteBuild};
use crate::memory::MemoryTable;
use crate::network::{NetworkOrg, ReteNetwork};
use crate::node::{NodeId, Side};
use crate::reorg::{ChainDetector, CostWindow, ReorgDecision};
use crate::process::{process_beta_scratch, process_wme_change, Activation, BetaScratch, CsChange};
use crate::state::MatchState;
use crate::token::{Token, WmeStore};
use crate::trace::{CycleTrace, Phase, RunTrace, TaskKind, TaskRecord};
use crate::update::seed_update;
use crate::util::FxHashMap;
use crate::view::ReteView;
use psme_ops::{ConflictSet, Instantiation, Symbol, Wme, WmeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Net conflict-set delta of one cycle.
#[derive(Clone, Debug, Default)]
pub struct CsDelta {
    /// Instantiations that entered the conflict set.
    pub added: Vec<Instantiation>,
    /// Instantiations that left the conflict set, without their time tags
    /// (identity only: see [`Instantiation`]).
    pub removed: Vec<Instantiation>,
}

impl CsDelta {
    /// Fold the delta into a conflict set: retractions first, then each
    /// addition at the specificity `spec` gives its production.
    pub fn fold_into(self, cs: &mut ConflictSet, spec: impl Fn(Symbol) -> usize) {
        for i in self.removed {
            cs.remove(&i);
        }
        for i in self.added {
            let n = spec(i.prod);
            cs.add(i, n);
        }
    }
}

/// Outcome of one match cycle.
#[derive(Clone, Debug, Default)]
pub struct CycleOutcome {
    /// Net conflict-set changes.
    pub cs: CsDelta,
    /// Tasks (node activations, including alpha tasks) executed.
    pub tasks: u64,
}

/// Outcome of a run-time production addition (build + state update).
#[derive(Debug)]
pub struct AddOutcome {
    /// Build result.
    pub add: AddResult,
    /// Tasks executed during the update phase.
    pub update_tasks: u64,
    /// Instantiations of the new production found in current WM.
    pub cs: CsDelta,
}

/// Outcome of a mid-run reorganization (rebuild + state update + commit).
///
/// No conflict-set delta: the update run re-derives exactly the
/// production's existing instantiations at the replacement P node, so the
/// conflict set is unchanged by construction (debug builds assert it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReorgOutcome {
    /// The reorganized production.
    pub prod_idx: u32,
    /// First node of the replacement subnetwork.
    pub first_new: NodeId,
    /// Replacement terminal node.
    pub p_node: NodeId,
    /// Tasks executed during the state-update phase.
    pub update_tasks: u64,
    /// Old-chain nodes retired to the inert pool.
    pub retired: usize,
}

/// Incrementally folded conflict-set delta: a keyed map updated per
/// P-node emission.
///
/// Weights may flicker during a cycle, so the conflict set is updated from
/// the *net* per-token delta at quiescence, which must be −1, 0 or +1.
/// Folding as emissions arrive (instead of buffering a raw change vector
/// and re-keying the whole thing at the barrier) means entries that cancel
/// within a cycle vanish immediately, the barrier sorts only the net
/// nonzero entries, and the raw vector's token clones are never stored.
#[derive(Clone, Debug, Default)]
pub struct CsFold {
    net: FxHashMap<(u32, Token), i32>,
}

impl CsFold {
    /// Fold one P-node emission in. Entries reaching net zero are removed
    /// on the spot.
    #[inline]
    pub fn add(&mut self, c: CsChange) {
        use std::collections::hash_map::Entry;
        match self.net.entry((c.prod, c.token)) {
            Entry::Occupied(mut e) => {
                *e.get_mut() += c.delta;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(e) => {
                if c.delta != 0 {
                    e.insert(c.delta);
                }
            }
        }
    }

    /// Fold a worker's local map in at the cycle barrier.
    pub fn merge(&mut self, other: CsFold) {
        for ((prod, token), delta) in other.net {
            self.add(CsChange { prod, token, delta });
        }
    }

    /// Net nonzero entries currently held.
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// `true` when every emission cancelled out (or none arrived).
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }

    /// Resolve into a sorted [`CsDelta`] at quiescence.
    ///
    /// Ordering is by `(prod, instantiation wme list)` — i.e. wmes in CE
    /// order via `pos_slots`, not in token slot order. A token's slot
    /// layout is an artifact of the production's network organization
    /// (bilinear chains permute CE coverage), so sorting on the
    /// instantiation keeps the delta identical across organizations — the
    /// invariant mid-run reorganization depends on. For linear chains the
    /// two orders coincide.
    pub fn into_delta<N: ReteView + ?Sized>(self, net: &N, store: &WmeStore) -> CsDelta {
        let mut delta = CsDelta::default();
        let mut items: Vec<(u32, Instantiation, i32)> = self
            .net
            .into_iter()
            .map(|((prod, token), d)| {
                // Only an entering instantiation needs its time tags (LEX
                // recency); a retraction is found by its identity.
                let inst = if d > 0 {
                    instantiation_of(net, store, prod, &token)
                } else {
                    identity_of(net, prod, &token)
                };
                (prod, inst, d)
            })
            .collect();
        // Items whose keys tie are identical instantiations, so an unstable
        // sort gives the same delta.
        items.sort_unstable_by(|a, b| (a.0, &a.1.wmes).cmp(&(b.0, &b.1.wmes)));
        for (prod, inst, d) in items {
            match d {
                1 => delta.added.push(inst),
                -1 => delta.removed.push(inst),
                other => {
                    panic!("conflict-set weight {other} for production {prod} — engine bug")
                }
            }
        }
        delta
    }
}

/// Build the [`Instantiation`] for a P-node token.
pub fn instantiation_of<N: ReteView + ?Sized>(
    net: &N,
    store: &WmeStore,
    prod: u32,
    token: &Token,
) -> Instantiation {
    let mut inst = identity_of(net, prod, token);
    inst.tags = inst.wmes.iter().map(|&w| store.tag(w)).collect();
    inst
}

/// The [`Instantiation`] for a P-node token, without time tags.
fn identity_of<N: ReteView + ?Sized>(net: &N, prod: u32, token: &Token) -> Instantiation {
    let info = net.prod_info(prod);
    let wmes = info.pos_slots.iter().map(|&s| token.slot(s)).collect();
    Instantiation { prod: info.production.name, wmes, tags: Vec::new() }
}

/// All current instantiations, read back from the P nodes' stored tokens
/// (a quiescent-time debug/verification helper).
pub fn instantiations_from_memories<N: ReteView + ?Sized>(
    net: &N,
    store: &WmeStore,
    mem: &MemoryTable,
) -> Vec<Instantiation> {
    let mut out = Vec::new();
    for i in 0..net.num_prods() as u32 {
        let info = net.prod_info(i);
        for (t, w) in mem.tokens_of(info.p_node, Side::Left) {
            for _ in 0..w {
                out.push(instantiation_of(net, store, i, &t));
            }
        }
    }
    out.sort_by(|a, b| (a.prod, &a.wmes).cmp(&(b.prod, &b.wmes)));
    out
}

/// Elapsed ns since `t0`, saturated to the [`TaskRecord::wall_ns`] width
/// (`t0` is `None` when the engine isn't capturing).
fn wall_ns_since(t0: Option<std::time::Instant>) -> u32 {
    t0.map(|t| t.elapsed().as_nanos().min(u32::MAX as u128) as u32).unwrap_or(0)
}

/// Deterministic single-threaded match engine.
pub struct SerialEngine<N = ReteNetwork> {
    /// The compiled network (monolithic, or a session's base + overlay).
    pub net: N,
    /// The mutable half: working memory + hashed token memories.
    pub state: MatchState,
    /// When `true`, every cycle's tasks are recorded into [`Self::trace`].
    pub capture: bool,
    /// Captured traces (when `capture` is set).
    pub trace: RunTrace,
    cycle_count: u64,
    total_tasks: u64,
    /// Reusable beta-scan scratch (the serial engine is its own "worker").
    scratch: BetaScratch,
    /// `Some` while armed for the online chain detector: [`Self::run_phase`]
    /// notes every beta task's cost here, [`Self::poll_reorg`] empties it.
    /// Off by default — unarmed sessions pay one branch per task.
    costs: Option<CostWindow>,
}

impl<N> SerialEngine<N> {
    /// New engine over an existing network.
    pub fn new(net: N) -> SerialEngine<N> {
        SerialEngine::with_state(net, MatchState::new())
    }

    /// New engine with an explicit memory-table size (tests use 1 line to
    /// force worst-case collisions).
    pub fn with_memory(net: N, lines: usize) -> SerialEngine<N> {
        SerialEngine::with_state(net, MatchState::with_memory(lines))
    }

    /// New engine adopting an externally owned [`MatchState`] — the serving
    /// layer's constructor (session state outlives engine configuration).
    pub fn with_state(net: N, state: MatchState) -> SerialEngine<N> {
        SerialEngine {
            net,
            state,
            capture: false,
            trace: RunTrace::default(),
            cycle_count: 0,
            total_tasks: 0,
            scratch: BetaScratch::default(),
            costs: None,
        }
    }

    /// Arm or disarm per-node cost accumulation for the chain detector.
    /// Disarming discards the accumulated window.
    pub fn set_cost_profiling(&mut self, on: bool) {
        self.costs = on.then(|| self.costs.take().unwrap_or_default());
    }

    /// Decompose into network + state (e.g. to freeze the network into a
    /// shared topology after compiling a base production set).
    pub fn into_parts(self) -> (N, MatchState) {
        (self.net, self.state)
    }

    /// Total tasks executed so far (match + update phases).
    pub fn total_tasks(&self) -> u64 {
        self.total_tasks
    }

    /// Cycles run so far.
    pub fn cycles(&self) -> u64 {
        self.cycle_count
    }
}

impl<N: ReteView> SerialEngine<N> {
    /// Add wmes / remove wme ids, then run the match to quiescence.
    ///
    /// This is one "cycle" in the sense of the paper's measurements: all
    /// changes are injected before matching starts (the correction for the
    /// Lisp–C pipe bottleneck described in §6 is the native semantics here).
    pub fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome {
        let mut changes: Vec<(WmeId, i32)> = Vec::with_capacity(adds.len() + removes.len());
        for w in adds {
            let (id, _) = self.state.store.add(w);
            changes.push((id, 1));
        }
        for id in removes {
            if self.state.store.remove(id).is_some() {
                changes.push((id, -1));
            }
        }
        self.run_cycle(changes, Phase::Match)
    }

    /// Inject pre-registered wme changes (used by the Soar layer, which
    /// manages the store itself).
    pub fn run_cycle(&mut self, changes: Vec<(WmeId, i32)>, phase: Phase) -> CycleOutcome {
        let (tasks, cs_fold) = self.run_phase(Vec::new(), changes, 0, phase);
        let outcome = CycleOutcome { cs: cs_fold.into_delta(&self.net, &self.state.store), tasks };
        self.cycle_count += 1;
        #[cfg(debug_assertions)]
        crate::process::assert_quiescent(&self.net, &self.state.mem, &self.state.store);
        outcome
    }

    /// One phase of match work, run to quiescence and recorded as one cycle
    /// of the trace: the boundary `seeds`, then every wme change through the
    /// alpha network, then whatever those activate — all filtered to nodes
    /// `>= min_node`. A match cycle has no seeds and filters nothing; the
    /// §5.2 state update (chunk addition, reorganization) seeds the last
    /// shared nodes and re-runs all of WM against the new nodes only.
    /// Returns the task count and the folded conflict-set changes.
    fn run_phase(
        &mut self,
        seeds: Vec<Activation>,
        changes: Vec<(WmeId, i32)>,
        min_node: NodeId,
        phase: Phase,
    ) -> (u64, CsFold) {
        let mut queue: VecDeque<(Activation, Option<u32>)> =
            seeds.into_iter().map(|a| (a, None)).collect();
        let mut changes = changes.into_iter();
        let mut tasks: Vec<TaskRecord> = Vec::new();
        let mut cs_fold = CsFold::default();
        let mut next_task: u32 = 0;
        loop {
            let id = next_task;
            let t0 = self.capture.then(std::time::Instant::now);
            // The alpha tasks first, then the activations, FIFO.
            let task = if let Some((wme, delta)) = changes.next() {
                let (net, store) = (&self.net, &self.state.store);
                let push = &mut |a| queue.push_back((a, Some(id)));
                let work = process_wme_change(net, store, wme, delta, min_node, push);
                (None, 0, TaskKind::Alpha, None, delta, work)
            } else if let Some((act, parent)) = queue.pop_front() {
                let (work, _) = process_beta_scratch(
                    &self.net,
                    &mut self.state.mem, // ours alone: borrowed, not locked
                    &self.state.store,
                    &act,
                    min_node,
                    &mut self.scratch,
                    &mut |a| queue.push_back((a, Some(id))),
                    &mut |c| cs_fold.add(c),
                );
                if let Some(costs) = &mut self.costs {
                    costs.note(act.node, &work);
                }
                let kind = TaskKind::from(self.net.node(act.node).kind);
                (parent, act.node, kind, Some(act.side), act.delta, work)
            } else {
                break;
            };
            next_task += 1;
            if self.capture {
                let (parent, node, kind, side, delta, work) = task;
                let wall_ns = wall_ns_since(t0);
                tasks.push(TaskRecord { id, parent, node, kind, side, delta, work, wall_ns });
            }
        }
        self.total_tasks += next_task as u64;
        if self.capture {
            self.trace.cycles.push(CycleTrace { cycle: self.cycle_count, phase, tasks });
        }
        (next_task as u64, cs_fold)
    }

    /// The §5.2 state update for the nodes `>= first_new`, shared by chunk
    /// addition and reorganization.
    fn run_update(&mut self, first_new: NodeId) -> (u64, CsFold) {
        // Boundary seeds (the specially-executed last shared nodes), then an
        // alpha re-run of all of WM.
        let seeds = seed_update(&self.net, &self.state.mem, first_new);
        let live = self.state.store.iter_alive().map(|(id, _)| (id, 1)).collect();
        self.run_phase(seeds, live, first_new, Phase::Update)
    }

    /// Build the [`Instantiation`] for a P-node token.
    pub fn instantiation_of(&self, prod: u32, token: &Token) -> Instantiation {
        instantiation_of(&self.net, &self.state.store, prod, token)
    }

    /// Current instantiations of every production, read from the P nodes'
    /// stored tokens (test/debug helper; the live conflict set is maintained
    /// incrementally by callers from cycle deltas).
    pub fn current_instantiations(&self) -> Vec<Instantiation> {
        instantiations_from_memories(&self.net, &self.state.store, &self.state.mem)
    }

    /// Feed the accumulated per-node costs to the chain detector and reset
    /// the window (`None` while unarmed). Call at a quiescent boundary.
    pub fn poll_reorg(&mut self, det: &mut ChainDetector) -> Option<ReorgDecision> {
        self.costs.as_mut()?.poll(det, &self.net)
    }
}

impl<N: ReteBuild> SerialEngine<N> {
    /// Compile a production and run the §5.2 state update so it is
    /// "immediately available for use". Returns the new production's
    /// current instantiations.
    pub fn add_production(
        &mut self,
        prod: Arc<psme_ops::Production>,
        org: NetworkOrg,
    ) -> Result<AddOutcome, BuildError> {
        let add = self.net.add_production(prod, org)?;
        let (update_tasks, cs_fold) = self.run_update(add.first_new);
        #[cfg(debug_assertions)]
        crate::process::assert_quiescent(&self.net, &self.state.mem, &self.state.store);
        Ok(AddOutcome { add, update_tasks, cs: cs_fold.into_delta(&self.net, &self.state.store) })
    }

    /// Rebuild an existing production under a new organization at a
    /// quiescent boundary, §5.1-style: compile the new subnetwork beside the
    /// old chain, §5.2-update its memories exactly like a chunk add, then
    /// atomically swap the production over and retire the old chain's
    /// now-unreferenced nodes. On build failure the partial subnetwork is
    /// rolled back and the old chain keeps matching — the error is safe to
    /// ignore.
    ///
    /// Observationally invisible: the new P node ends up storing the same
    /// instantiations the old one did (asserted in debug builds), and no
    /// conflict-set delta is emitted.
    pub fn reorganize_production(
        &mut self,
        prod_idx: u32,
        org: NetworkOrg,
    ) -> Result<ReorgOutcome, BuildError> {
        // Snapshot the old P node's instantiations (old pos_slots are still
        // installed) to pin observational invisibility after the swap.
        #[cfg(debug_assertions)]
        let old_insts: Vec<Instantiation> = {
            let old_p = self.net.prod_info(prod_idx).p_node;
            let mut v: Vec<Instantiation> = self
                .state
                .mem
                .tokens_of(old_p, Side::Left)
                .iter()
                .map(|(t, _)| instantiation_of(&self.net, &self.state.store, prod_idx, t))
                .collect();
            v.sort_by(|a, b| a.wmes.cmp(&b.wmes));
            v
        };
        let rb = self.net.reorg_build(prod_idx, org)?;
        let first_new = rb.first_new;
        let p_node = rb.p_node;
        // The folded changes are only read by the debug check below.
        let (update_tasks, _cs_fold) = self.run_update(first_new);
        // Swap the production over to the new chain, then drop the retired
        // nodes' stored tokens. Order matters: the commit unplugs (or masks)
        // the old chain, so state reads above must already be done.
        let retired = self.net.reorg_commit(rb);
        self.state.mem.purge_nodes(&retired);
        // The update "conflict set" must be exactly the old instantiations,
        // re-derived: nothing appears, nothing vanishes. (into_delta maps
        // tokens through the *new* pos_slots, hence only valid post-commit.)
        #[cfg(debug_assertions)]
        {
            let delta = _cs_fold.into_delta(&self.net, &self.state.store);
            assert!(delta.removed.is_empty(), "reorg update removed {:?}", delta.removed);
            let mut added = delta.added;
            added.sort_by(|a, b| a.wmes.cmp(&b.wmes));
            assert_eq!(added, old_insts, "reorg changed production {prod_idx}'s matches");
        }
        #[cfg(debug_assertions)]
        crate::process::assert_quiescent(&self.net, &self.state.mem, &self.state.store);
        Ok(ReorgOutcome {
            prod_idx,
            first_new,
            p_node,
            update_tasks,
            retired: retired.len(),
        })
    }
}

impl<N: ReteView + std::fmt::Debug> std::fmt::Debug for SerialEngine<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SerialEngine({:?}, {} wmes, {} cycles, {} tasks)",
            self.net,
            self.state.store.live_count(),
            self.cycle_count,
            self.total_tasks
        )
    }
}
