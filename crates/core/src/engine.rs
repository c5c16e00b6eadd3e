//! The parallel match engine: one control thread (the caller) plus N match
//! processes (§2.3, §4).
//!
//! "PSM-E consists of one control process that selects and then fires an
//! instantiation and one or more match processes that actually perform the
//! RETE match. … Each individual match process performs match by picking up
//! a task from one of these queues, processing the task and, if any new
//! tasks are generated, pushing them onto one of the queues. When the task
//! queues becomes empty, one production system cycle ends."
//!
//! Quiescence detection uses an outstanding-task counter: a worker
//! increments it for every child it pushes *before* decrementing it for the
//! task it finished, so the counter reaches zero exactly at quiescence.
//! Workers park between cycles on an epoch condvar; the control thread owns
//! the network/store write locks between cycles (run-time chunk addition,
//! wme changes) and never mutates them while a cycle is in flight.

use crate::metrics::{CycleMetrics, MetricsLog, WorkerStats};
use crate::queue::{QueueStats, Scheduler, Task, TaskQueues};
use parking_lot::{Condvar, Mutex, RwLock};
use psme_obs::{ControlPhase, Counter, Recorder, TraceKind, TraceRing, SESSION_NONE};
use psme_ops::{Instantiation, Production, Wme, WmeId};
use psme_rete::{
    instantiations_from_memories, plan_beta, process_beta_batch, process_wme_change, seed_update,
    AddOutcome, BetaScratch, BuildError, CsFold, CycleOutcome, MemoryTable, NetworkOrg, NodeId,
    NodeKind, Phase, PlannedBeta, ReteNetwork, WmeStore,
};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of the parallel engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of match processes (the paper sweeps 1–13).
    pub workers: usize,
    /// Task-queue organization.
    pub scheduler: Scheduler,
    /// Memory-table lines.
    pub memory_lines: usize,
    /// Collect per-line bucket access histograms each cycle (Figure 6-2).
    pub bucket_histograms: bool,
    /// Line-lock batching: a worker drains up to this many tasks from its
    /// queue per round, groups the beta activations by destination memory
    /// line, and processes each group under a single lock acquisition
    /// (`Counter::LineLockAcquisitions` records the paid acquisitions).
    /// 1 disables batching — one acquisition per activation, the paper's
    /// discipline.
    pub line_batch: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
            scheduler: Scheduler::MultiQueue,
            memory_lines: 4096,
            bucket_histograms: false,
            line_batch: 8,
        }
    }
}

struct Shared {
    net: RwLock<ReteNetwork>,
    store: RwLock<WmeStore>,
    mem: MemoryTable,
    queues: TaskQueues,
    outstanding: AtomicI64,
    min_node: AtomicU32,
    epoch: Mutex<u64>,
    epoch_cv: Condvar,
    done: Mutex<()>,
    done_cv: Condvar,
    workers_active: AtomicI64,
    shutdown: AtomicBool,
    /// Per-emission-folded conflict-set delta: workers fold locally and
    /// merge their maps here at the cycle barrier, so the control thread
    /// sorts only the net nonzero entries instead of re-keying a raw
    /// change vector every cycle.
    cs_fold: Mutex<CsFold>,
    worker_stats: Vec<Mutex<WorkerStats>>,
    line_batch: usize,
    /// Adaptive-reorg cost profiling: when armed, workers accumulate
    /// per-node activation costs locally and merge them here at the cycle
    /// barrier (one lock acquisition per worker per cycle, zero hot-loop
    /// sharing).
    profile_costs: AtomicBool,
    node_costs: Mutex<Vec<u64>>,
}

fn worker_loop(shared: Arc<Shared>, wid: usize) {
    let mut seen_epoch = 0u64;
    // Per-worker reusable beta-scan scratch: survives across tasks and
    // cycles, so the steady state allocates nothing per activation.
    let mut scratch = BetaScratch::default();
    // Per-worker cost vector for the adaptive-reorg detector; merged at the
    // cycle barrier when profiling is armed.
    let mut costs: Vec<u64> = Vec::new();
    loop {
        {
            let mut e = shared.epoch.lock();
            while *e == seen_epoch && !shared.shutdown.load(Ordering::Acquire) {
                shared.epoch_cv.wait(&mut e);
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            seen_epoch = *e;
        }
        shared.workers_active.fetch_add(1, Ordering::AcqRel);
        let profiling = shared.profile_costs.load(Ordering::Relaxed);
        let net = shared.net.read();
        let store = shared.store.read();
        let mut ws = WorkerStats::default();
        let mut local_cs = CsFold::default();
        let mut cs_emitted = 0u64;
        let mut pending: Vec<Task> = Vec::new();
        let mut local: Vec<Task> = Vec::new();
        let mut planned: Vec<PlannedBeta> = Vec::new();
        loop {
            match shared.queues.pop(wid, &mut ws.queue) {
                Some(task) => {
                    pending.clear();
                    // Loaded per round, *after* the pop: the queue lock's
                    // release/acquire pairing guarantees a popped task sees
                    // the `min_node` the control thread stored before
                    // pushing it, even for a worker that woke late and is
                    // still in the previous cycle's work loop.
                    let min_node: NodeId = shared.min_node.load(Ordering::Relaxed);
                    // Drain up to `line_batch` tasks; the popped-but-not-yet
                    // retired tasks keep `outstanding` positive, so no other
                    // worker can observe premature quiescence.
                    local.clear();
                    local.push(task);
                    while local.len() < shared.line_batch {
                        match shared.queues.pop(wid, &mut ws.queue) {
                            Some(t) => local.push(t),
                            None => break,
                        }
                    }
                    let popped = local.len() as i64;
                    ws.tasks += popped as u64;
                    ws.counters.add(Counter::Tasks, popped as u64);
                    let cs_round = cs_emitted;
                    planned.clear();
                    for task in local.drain(..) {
                        match task {
                            Task::Alpha(w, d) => {
                                let before = pending.len();
                                let (alpha, _) =
                                    process_wme_change(&*net, &store, w, d, min_node, &mut |a| {
                                        pending.push(Task::Beta(a))
                                    });
                                ws.counters.add(Counter::AlphaTasks, 1);
                                ws.counters.add(Counter::Scanned, alpha.tests_run as u64);
                                ws.counters
                                    .add(Counter::Emitted, (pending.len() - before) as u64);
                                ws.counters.add(Counter::AlphaProbes, alpha.probes as u64);
                                ws.counters.add(Counter::AlphaCandidates, alpha.candidates as u64);
                                ws.counters
                                    .add(Counter::AlphaTestsSaved, alpha.tests_saved as u64);
                            }
                            Task::Beta(a) => {
                                planned.push(plan_beta(&*net, &shared.mem, &store, a));
                            }
                        }
                    }
                    // Group the betas by destination line (stable sort keeps
                    // pop order within a group) and drain each group under a
                    // single acquisition. Signed counting memories make the
                    // within-round reordering commutative, so the quiescent
                    // state is unchanged.
                    planned.sort_by_key(|p| p.line);
                    let mut i = 0;
                    while i < planned.len() {
                        let mut j = i + 1;
                        while j < planned.len() && planned[j].line == planned[i].line {
                            j += 1;
                        }
                        process_beta_batch(
                            &*net,
                            &shared.mem,
                            &store,
                            &planned[i..j],
                            min_node,
                            &mut scratch,
                            &mut |child| pending.push(Task::Beta(child)),
                            &mut |c| {
                                cs_emitted += 1;
                                local_cs.add(c);
                            },
                            &mut |a, stats| {
                                if profiling {
                                    let node = a.node as usize;
                                    if costs.len() <= node {
                                        costs.resize(node + 1, 0);
                                    }
                                    costs[node] += 1 + stats.scanned as u64 + stats.emitted as u64;
                                }
                                ws.mem_spins += stats.spins;
                                ws.scanned += stats.scanned as u64;
                                ws.counters.add(Counter::BetaTasks, 1);
                                ws.counters.add(Counter::Scanned, stats.scanned as u64);
                                ws.counters.add(Counter::HashRejects, stats.hash_rejects as u64);
                                ws.counters.add(Counter::EntriesSkipped, stats.skipped as u64);
                                ws.counters.add(Counter::Emitted, stats.emitted as u64);
                                ws.counters.add(Counter::MemSpins, stats.spins);
                                ws.counters
                                    .add(Counter::LineLockAcquisitions, stats.acquires as u64);
                                // A childless two-input activation is a null
                                // activation in the paper's accounting.
                                if stats.emitted == 0
                                    && matches!(
                                        net.node(a.node).kind,
                                        NodeKind::Join | NodeKind::Neg
                                    )
                                {
                                    ws.counters.add(Counter::NullActivations, 1);
                                }
                            },
                        );
                        i = j;
                    }
                    ws.counters.add(Counter::CsChanges, cs_emitted - cs_round);
                    // Children first, then retire the round: the counter can
                    // only reach zero at true quiescence. Under
                    // `WorkStealing` the whole brood is published with one
                    // release store; the locked schedulers push
                    // one-at-a-time, exactly as the paper's configurations
                    // do.
                    if !pending.is_empty() {
                        shared.outstanding.fetch_add(pending.len() as i64, Ordering::AcqRel);
                        shared.queues.push_batch(wid, &mut pending, &mut ws.queue);
                    }
                    if shared.outstanding.fetch_sub(popped, Ordering::AcqRel) == popped {
                        let _g = shared.done.lock();
                        shared.done_cv.notify_all();
                    }
                }
                None => {
                    if shared.outstanding.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        drop(store);
        drop(net);
        if !local_cs.is_empty() {
            shared.cs_fold.lock().merge(local_cs);
        }
        if profiling && !costs.is_empty() {
            let mut merged = shared.node_costs.lock();
            if merged.len() < costs.len() {
                merged.resize(costs.len(), 0);
            }
            for (m, c) in merged.iter_mut().zip(&costs) {
                *m += c;
            }
            costs.clear();
        }
        // Mirror the scheduler counters into the observability set so the
        // psme-obs JSON export carries them (zero under the paper
        // schedulers, omitted from JSON).
        ws.counters.add(Counter::Steals, ws.queue.steals);
        ws.counters.add(Counter::StealFails, ws.queue.steal_fails);
        ws.counters.add(Counter::Batches, ws.queue.batches);
        // Merge, never assign: a worker preempted between reading epoch E
        // and joining it can run E+1's tasks inside this pass and then an
        // empty E+1 pass before the control thread harvests — assigning
        // would zero the counts it had just stored.
        {
            let mut slot = shared.worker_stats[wid].lock();
            slot.queue.merge(&ws.queue);
            slot.tasks = slot.tasks.saturating_add(ws.tasks);
            slot.mem_spins = slot.mem_spins.saturating_add(ws.mem_spins);
            slot.scanned = slot.scanned.saturating_add(ws.scanned);
            slot.counters.merge(&ws.counters);
        }
        if shared.workers_active.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = shared.done.lock();
            shared.done_cv.notify_all();
        }
    }
}

/// The PSM-E parallel match engine.
pub struct ParallelEngine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    config: EngineConfig,
    /// Per-cycle metrics log.
    pub metrics: MetricsLog,
    /// Control-thread span recorder (match / §5.1 surgery / §5.2 update
    /// phases; the embedding layer adds its own decide/chunk spans).
    pub recorder: Recorder,
    /// Cycle-phase boundary events (PhaseBegin/PhaseEnd), same taxonomy
    /// as the serve trace — drain into a `TraceLog` to merge engine and
    /// serving timelines.
    pub trace: TraceRing,
    cycle_count: u64,
}

impl ParallelEngine {
    /// Spawn the match processes over a compiled network.
    pub fn new(net: ReteNetwork, config: EngineConfig) -> ParallelEngine {
        let state = psme_rete::MatchState::with_memory(config.memory_lines);
        ParallelEngine::with_state(net, state, config)
    }

    /// Spawn the match processes adopting an externally owned
    /// [`psme_rete::MatchState`] (working memory + token memories), e.g. a
    /// session's state handed over by the serving layer. `config.memory_lines`
    /// is ignored — the adopted state's table is used as-is.
    pub fn with_state(
        net: ReteNetwork,
        state: psme_rete::MatchState,
        config: EngineConfig,
    ) -> ParallelEngine {
        let psme_rete::MatchState { mem, store } = state;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            net: RwLock::new(net),
            store: RwLock::new(store),
            mem,
            queues: TaskQueues::new(config.scheduler, workers),
            outstanding: AtomicI64::new(0),
            min_node: AtomicU32::new(0),
            epoch: Mutex::new(0),
            epoch_cv: Condvar::new(),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            workers_active: AtomicI64::new(0),
            shutdown: AtomicBool::new(false),
            cs_fold: Mutex::new(CsFold::default()),
            worker_stats: (0..workers).map(|_| Mutex::new(WorkerStats::default())).collect(),
            line_batch: config.line_batch.max(1),
            profile_costs: AtomicBool::new(false),
            node_costs: Mutex::new(Vec::new()),
        });
        let handles = (0..workers)
            .map(|wid| {
                let s = shared.clone();
                std::thread::Builder::new()
                    .name(format!("psm-match-{wid}"))
                    .spawn(move || worker_loop(s, wid))
                    .expect("spawn match process")
            })
            .collect();
        let recorder = Recorder::new();
        // The control thread emits phase boundaries; its ring id is one
        // past the last match process's.
        let trace = TraceRing::new(workers as u32, 4096, recorder.origin());
        ParallelEngine {
            shared,
            handles,
            config,
            metrics: MetricsLog::default(),
            recorder,
            trace,
            cycle_count: 0,
        }
    }

    /// Number of match processes.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Run a set of seed tasks to quiescence and harvest metrics + CS delta.
    fn run_tasks(&mut self, seeds: Vec<Task>, min_node: NodeId, phase: Phase) -> CycleOutcome {
        let s = &self.shared;
        s.min_node.store(min_node, Ordering::Relaxed);
        s.outstanding.store(seeds.len() as i64, Ordering::Release);
        let mut seed_stats = QueueStats::default();
        for (i, t) in seeds.into_iter().enumerate() {
            // Round-robin across queues for the paper schedulers; the
            // work-stealing injector for `WorkStealing` (the control thread
            // must never touch a deque's owner end).
            s.queues.push_seed(i, t, &mut seed_stats);
        }
        let cphase = match phase {
            Phase::Match => ControlPhase::Match,
            Phase::Update => ControlPhase::StateUpdate,
        };
        let span = self.recorder.start(cphase);
        self.trace.emit(
            TraceKind::PhaseBegin(cphase),
            SESSION_NONE,
            self.cycle_count,
            self.cycle_count,
            0,
        );
        let start = Instant::now();
        {
            let mut e = s.epoch.lock();
            *e += 1;
            s.epoch_cv.notify_all();
        }
        {
            let mut g = s.done.lock();
            while s.outstanding.load(Ordering::Acquire) != 0
                || s.workers_active.load(Ordering::Acquire) != 0
            {
                s.done_cv.wait(&mut g);
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.recorder.finish_seq(span, self.cycle_count);
        self.trace.emit(
            TraceKind::PhaseEnd(cphase),
            SESSION_NONE,
            self.cycle_count,
            self.cycle_count,
            wall_ns,
        );
        debug_assert!(s.queues.all_empty());

        // Harvest.
        let mut cm = CycleMetrics {
            cycle: self.cycle_count,
            phase: Some(phase),
            wall_ns,
            ..Default::default()
        };
        cm.queue.merge(&seed_stats);
        for w in &s.worker_stats {
            let mut ws = w.lock();
            cm.absorb_worker(&ws);
            ws.reset();
        }
        if self.config.bucket_histograms {
            // Per-cycle histograms (Figure 6-2): the incremental `end_cycle`
            // below zeroed every line written last cycle, so the counts
            // harvested here are this cycle's alone.
            let counts = s.mem.access_counts();
            cm.left_bucket_accesses = counts.iter().map(|&(l, _)| l).collect();
            cm.right_bucket_accesses = counts.iter().map(|&(_, r)| r).collect();
        }
        let fold = std::mem::take(&mut *s.cs_fold.lock());
        let net = s.net.read();
        let store = s.store.read();
        let cs = fold.into_delta(&*net, &store);
        drop(store);
        #[cfg(debug_assertions)]
        psme_rete::assert_quiescent(&*net, &s.mem);
        drop(net);
        // Incremental quiescent housekeeping: compact + counter-reset only
        // the lines this cycle dirtied (after the histogram harvest).
        cm.counters.add(Counter::LinesCompacted, s.mem.end_cycle());
        let tasks = cm.tasks;
        self.metrics.cycles.push(cm);
        self.cycle_count += 1;
        CycleOutcome { cs, tasks }
    }

    /// Add wmes / remove wme ids, then match to quiescence in parallel.
    pub fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome {
        let mut changes = Vec::with_capacity(adds.len() + removes.len());
        {
            let mut store = self.shared.store.write();
            for w in adds {
                let (id, _) = store.add(w);
                changes.push((id, 1));
            }
            for id in removes {
                if store.remove(id).is_some() {
                    changes.push((id, -1));
                }
            }
        }
        self.run_changes(changes)
    }

    /// Match a batch of pre-applied wme changes.
    pub fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> CycleOutcome {
        // Straggler barrier: a worker that woke late for the previous cycle
        // may still hold the store read lock with a stale `min_node`.
        // Acquiring the write lock forces it to finish and park before the
        // new cycle's tasks become visible.
        drop(self.shared.store.write());
        let seeds = changes.into_iter().map(|(w, d)| Task::Alpha(w, d)).collect();
        self.run_tasks(seeds, 0, Phase::Match)
    }

    /// Mutate the working-memory store between cycles (the Soar layer adds
    /// and garbage-collects wmes itself and then calls [`Self::run_changes`]).
    pub fn store_mut<R>(&mut self, f: impl FnOnce(&mut WmeStore) -> R) -> R {
        f(&mut self.shared.store.write())
    }

    /// Compile a production at run time and run the §5.2 state update — in
    /// parallel, which is what Figure 6-9 measures.
    pub fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddOutcome, BuildError> {
        let surgery = self.recorder.start(ControlPhase::NetworkSurgery);
        self.trace.emit(
            TraceKind::PhaseBegin(ControlPhase::NetworkSurgery),
            SESSION_NONE,
            self.cycle_count,
            self.cycle_count,
            0,
        );
        let (add, mut seeds) = {
            let mut net = self.shared.net.write();
            let add = net.add_production(prod, org)?;
            let seeds: Vec<Task> = seed_update(&*net, &self.shared.mem, add.first_new)
                .into_iter()
                .map(Task::Beta)
                .collect();
            (add, seeds)
        };
        let surgery_ns = self.recorder.finish_seq(surgery, self.cycle_count);
        self.trace.emit(
            TraceKind::PhaseEnd(ControlPhase::NetworkSurgery),
            SESSION_NONE,
            self.cycle_count,
            self.cycle_count,
            surgery_ns,
        );
        {
            let store = self.shared.store.read();
            for (id, _) in store.iter_alive() {
                seeds.push(Task::Alpha(id, 1));
            }
        }
        let out = self.run_tasks(seeds, add.first_new, Phase::Update);
        Ok(AddOutcome { add, update_tasks: out.tasks, cs: out.cs })
    }

    /// Arm or disarm per-node cost profiling for the adaptive-reorg
    /// detector. Disarming clears the accumulated window.
    pub fn set_cost_profiling(&mut self, on: bool) {
        self.shared.profile_costs.store(on, Ordering::Relaxed);
        if !on {
            self.shared.node_costs.lock().clear();
        }
    }

    /// Feed the merged per-node cost window to the chain detector and reset
    /// it. Call between cycles (the merge happens at cycle barriers, so the
    /// window is complete and stable here).
    pub fn poll_reorg(
        &mut self,
        det: &mut psme_rete::ChainDetector,
    ) -> Option<psme_rete::ReorgDecision> {
        let mut costs = self.shared.node_costs.lock();
        let net = self.shared.net.read();
        let d = det.observe(&costs, &*net);
        costs.iter_mut().for_each(|c| *c = 0);
        d
    }

    /// Rebuild an existing production under a new organization: §5.1
    /// surgery beside the live chain, a parallel §5.2 state update of the
    /// new subnetwork (same machinery Figure 6-9 measures), then an atomic
    /// swap that retires the old chain. The update's conflict-set delta is
    /// discarded — a reorganization is observationally invisible.
    pub fn reorganize_production(
        &mut self,
        prod_idx: u32,
        org: NetworkOrg,
    ) -> Result<psme_rete::ReorgOutcome, BuildError> {
        let surgery = self.recorder.start(ControlPhase::NetworkSurgery);
        self.trace.emit(
            TraceKind::PhaseBegin(ControlPhase::NetworkSurgery),
            SESSION_NONE,
            self.cycle_count,
            self.cycle_count,
            0,
        );
        self.trace.emit(
            TraceKind::ReorgPlanned,
            SESSION_NONE,
            self.cycle_count,
            self.cycle_count,
            u64::from(prod_idx),
        );
        let built = {
            let mut net = self.shared.net.write();
            match net.reorg_build(prod_idx, org) {
                Ok(rb) => {
                    let seeds: Vec<Task> = seed_update(&*net, &self.shared.mem, rb.first_new)
                        .into_iter()
                        .map(Task::Beta)
                        .collect();
                    Ok((rb, seeds))
                }
                Err(e) => Err(e),
            }
        };
        let (rb, mut seeds) = match built {
            Ok(v) => v,
            Err(e) => {
                // Rolled back inside reorg_build: the live chain is intact.
                let ns = self.recorder.finish_seq(surgery, self.cycle_count);
                self.trace.emit(
                    TraceKind::ReorgRolledBack,
                    SESSION_NONE,
                    self.cycle_count,
                    self.cycle_count,
                    u64::from(prod_idx),
                );
                self.trace.emit(
                    TraceKind::PhaseEnd(ControlPhase::NetworkSurgery),
                    SESSION_NONE,
                    self.cycle_count,
                    self.cycle_count,
                    ns,
                );
                return Err(e);
            }
        };
        let surgery_ns = self.recorder.finish_seq(surgery, self.cycle_count);
        self.trace.emit(
            TraceKind::PhaseEnd(ControlPhase::NetworkSurgery),
            SESSION_NONE,
            self.cycle_count,
            self.cycle_count,
            surgery_ns,
        );
        {
            let store = self.shared.store.read();
            for (id, _) in store.iter_alive() {
                seeds.push(Task::Alpha(id, 1));
            }
        }
        let first_new = rb.first_new;
        let p_node = rb.p_node;
        let out = self.run_tasks(seeds, first_new, Phase::Update);
        let retired = {
            let mut net = self.shared.net.write();
            net.reorg_commit(rb)
        };
        self.shared.mem.purge_nodes(&retired);
        self.trace.emit(
            TraceKind::ReorgCommitted,
            SESSION_NONE,
            self.cycle_count,
            self.cycle_count,
            u64::from(prod_idx),
        );
        if let Some(cm) = self.metrics.cycles.last_mut() {
            cm.counters.add(Counter::Reorganizations, 1);
        }
        Ok(psme_rete::ReorgOutcome {
            prod_idx,
            first_new,
            p_node,
            update_tasks: out.tasks,
            retired: retired.len(),
        })
    }

    /// Run a closure against the working-memory store.
    pub fn with_store<R>(&self, f: impl FnOnce(&WmeStore) -> R) -> R {
        f(&self.shared.store.read())
    }

    /// Run a closure against the network.
    pub fn with_net<R>(&self, f: impl FnOnce(&ReteNetwork) -> R) -> R {
        f(&self.shared.net.read())
    }

    /// All current instantiations (quiescent-time verification helper).
    pub fn current_instantiations(&self) -> Vec<Instantiation> {
        let net = self.shared.net.read();
        let store = self.shared.store.read();
        instantiations_from_memories(&*net, &store, &self.shared.mem)
    }

    /// Metrics for the most recent cycle.
    pub fn last_cycle_metrics(&self) -> Option<&CycleMetrics> {
        self.metrics.cycles.last()
    }
}

impl Drop for ParallelEngine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut e = self.shared.epoch.lock();
            *e += 1;
            self.shared.epoch_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ParallelEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ParallelEngine({} workers, {:?}, {} cycles)",
            self.handles.len(),
            self.shared.queues.scheduler(),
            self.cycle_count
        )
    }
}
