//! The parallel match engine: `workers` match processes, of which process 0
//! is the control thread itself (§2.3, §4).
//!
//! "PSM-E consists of one control process that selects and then fires an
//! instantiation and one or more match processes that actually perform the
//! RETE match. … Each individual match process performs match by picking up
//! a task from one of these queues, processing the task and, if any new
//! tasks are generated, pushing them onto one of the queues. When the task
//! queues becomes empty, one production system cycle ends."
//!
//! A Multimax task is ≈ 220 µs and a queue operation ≈ 42 µs; a host task is
//! ≈ 0.3 µs and waking a thread ≈ 30 µs. So there is **one match loop**
//! ([`Shared::match_loop`]) and the thread that calls
//! [`ParallelEngine::run_changes`] — process 0 — runs it first, on the
//! cycle's seeds; the `workers − 1` *helper* threads run the same function,
//! but only once process 0 has [`WIDE_AT`] tasks waiting and calls them in
//! through the [`Gate`]. Every process pops tasks from a
//! **private deque** and pushes children back on it — no lock, no atomic;
//! only surplus goes through the shared [`TaskQueues`], in batches, and only
//! while some process is *hungry* (has run dry and is looking).
//!
//! Quiescence is still "the counter reads 0": `outstanding` counts
//! *published tasks + processes holding a non-empty private deque*. A
//! process adds what it publishes before pushing it and gives up its own
//! unit only on finding its deque empty, so the counter reaches zero only
//! when no task exists anywhere. The control thread owns the network/store
//! write locks between cycles (run-time chunk addition, wme changes); the
//! gate, which closes only on nobody inside, is why no helper holds a read
//! guard then.

use crate::gate::Gate;
use crate::metrics::{CycleMetrics, MetricsLog, WorkerStats};
use crate::queue::{Scheduler, Task, TaskQueues, TASK_BATCH};
use parking_lot::{Mutex, RwLock};
use psme_obs::{ControlPhase, Recorder};
use psme_ops::{Instantiation, Production, Wme, WmeId};
use psme_rete::{
    instantiations_from_memories, process_beta_scratch, process_wme_change, seed_update,
    Activation, AddOutcome, BetaScratch, BuildError, CostWindow, CsFold, CycleOutcome, MemoryTable,
    NetworkOrg, NodeId, Phase, ReteBuild, ReteNetwork, TaskKind, WmeStore,
};
use std::collections::VecDeque;
use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

/// Configuration of the parallel engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of match processes (the paper sweeps 1–13), *including* the
    /// calling thread: `workers − 1` helper threads are spawned.
    pub workers: usize,
    /// Task-queue organization: how published batches are queued and found.
    pub scheduler: Scheduler,
    /// Memory-table lines.
    pub memory_lines: usize,
    /// Collect per-line bucket access histograms each cycle (Figure 6-2).
    pub bucket_histograms: bool,
}

/// Process 0 calls the helpers into a cycle once it has this many tasks
/// waiting in its private deque. Waking a parked helper takes about as long
/// as process 0 takes over a hundred tasks, so a narrower frontier is gone
/// before anyone arrives to share it; cycles that never get this wide — most
/// cycles — are process 0's alone. EXPERIMENTS.md (Figure 6-5, host leg) has
/// the measurements.
const WIDE_AT: usize = 64;

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
            scheduler: Scheduler::MultiQueue,
            memory_lines: 4096,
            bucket_histograms: false,
        }
    }
}

/// How long a helper spins before giving up — hungry, on the published-work
/// hint, before it yields its core once and then before it leaves the
/// cycle; between cycles, on the call word, before it parks. A few
/// microseconds: a process with surplus answers within a round or not at
/// all.
const HELPER_SPINS: u32 = 512;
/// How long process 0 spins for the helpers before it parks. It cannot
/// leave, and a park costs it a wake-up.
const CONTROL_SPINS: u32 = 1 << 14;
/// The call word's value at shutdown (tickets are small and odd).
const SHUTDOWN: u64 = u64::MAX;

/// What one match process owns; none of it is shared.
#[derive(Default)]
struct Process {
    /// The private tasks: wme changes (alpha tasks), run first as in the
    /// serial engine's cycle, then beta activations, FIFO like its queue.
    /// Two plain deques, not one of [`Task`]: moving a 32-byte activation
    /// out of the enum costs a store-forwarding stall per task — 15 ns of
    /// the 250 a task takes.
    alphas: VecDeque<(WmeId, i32)>,
    betas: VecDeque<Activation>,
    /// Reusable beta-scan scratch: survives across tasks and cycles, so
    /// the steady state allocates nothing per activation.
    scratch: BetaScratch,
    /// Staging for publication.
    surplus: Vec<Task>,
    /// This pass's counters, conflict-set fold (folded per emission, so
    /// the control thread sorts only the net nonzero entries) and, when
    /// profiling is armed, per-node costs.
    stats: WorkerStats,
    cs: CsFold,
    costs: CostWindow,
}

impl Process {
    /// Tasks waiting in the private deques.
    fn waiting(&self) -> usize {
        self.alphas.len() + self.betas.len()
    }
}

struct Shared {
    net: RwLock<ReteNetwork>,
    store: RwLock<WmeStore>,
    mem: MemoryTable,
    queues: TaskQueues,
    /// Published tasks + processes holding non-empty private deques.
    /// `SeqCst`, like the gate: touched only when a process runs dry or
    /// publishes.
    outstanding: AtomicUsize,
    /// A hint of the tasks in `queues`: what a hungry process spins on
    /// instead of locking empty queues. Added after the push — a popper that
    /// saw it earlier would only spin on the publisher's lock — and taken
    /// off after the pop, so it can dip below zero in between and is exact
    /// whenever nobody is in between. `Relaxed` — the queue locks order the
    /// tasks.
    published: AtomicIsize,
    /// Processes looking for work. `Relaxed` — a stale read delays or
    /// wastes one batch.
    hungry: AtomicUsize,
    min_node: AtomicU32,
    gate: Gate,
    /// The ticket of the cycle the helpers are wanted in (or [`SHUTDOWN`]).
    /// Written after the gate opens, so a helper that reads it can enter.
    call: AtomicU64,
    /// Process 0, while it is parked waiting for the helpers.
    control: Mutex<Option<Thread>>,
    /// What the helpers hand process 0 at the gate.
    harvest: Mutex<(WorkerStats, CsFold)>,
    /// Adaptive-reorg cost profiling: when armed, processes accumulate
    /// per-node activation costs locally and merge them here at the end of
    /// their pass (one lock acquisition per process per cycle, zero
    /// hot-loop sharing).
    profile_costs: AtomicBool,
    node_costs: Mutex<CostWindow>,
}

impl Shared {
    /// One match process's pass over one cycle: tasks off the private
    /// deque until it and the shared queues have nothing for this process.
    ///
    /// `helpers` is `Some` for process 0 until it has called them in; the
    /// return value says whether it did. A helper passes `None`: it is
    /// inside a cycle that has been called already.
    fn match_loop(
        &self,
        me: usize,
        p: &mut Process,
        mut helpers: Option<&[JoinHandle<()>]>,
    ) -> bool {
        let net = self.net.read();
        let store = self.store.read();
        // Stored before the cycle began: in program order for process 0,
        // before the gate opened for a helper.
        let min_node: NodeId = self.min_node.load(Ordering::Relaxed);
        let profiling = self.profile_costs.load(Ordering::Relaxed);
        // Does this process hold a unit of `outstanding` for its deques?
        let mut holding = p.waiting() > 0;
        loop {
            let waiting = p.waiting();
            if waiting == 0 {
                if !self.refill(me, p, holding) {
                    break;
                }
                holding = true;
                continue;
            }
            match helpers {
                Some(h) if waiting >= WIDE_AT && !h.is_empty() => {
                    // The frontier is wide: open the gate, wake the helpers.
                    self.call.store(self.gate.open(), Ordering::SeqCst);
                    h.iter().for_each(|h| h.thread().unpark());
                    helpers = None;
                }
                None if waiting > 1 => self.publish(me, p),
                _ => {}
            }
            // One task, by the call the serial engine makes.
            p.stats.tasks += 1;
            if let Some((w, d)) = p.alphas.pop_front() {
                let push = &mut |a| p.betas.push_back(a);
                let work = process_wme_change(&*net, &store, w, d, min_node, push);
                p.stats.counters.book(TaskKind::Alpha, &work);
            } else if let Some(a) = p.betas.pop_front() {
                let (work, spins) = process_beta_scratch(
                    &*net,
                    &self.mem,
                    &store,
                    &a,
                    min_node,
                    &mut p.scratch,
                    &mut |child| p.betas.push_back(child),
                    &mut |c| p.cs.add(c),
                );
                p.stats.mem_spins += spins;
                if profiling {
                    p.costs.note(a.node, &work);
                }
                p.stats.counters.book(TaskKind::from(net.node(a.node).kind), &work);
            }
        }
        if profiling {
            self.node_costs.lock().absorb(&mut p.costs);
        }
        helpers.is_none()
    }

    /// The private deques are empty: give up the unit of `outstanding` this
    /// process was `holding` for them, then look for published work. `true`
    /// with tasks (and a unit) in hand; `false` when the process is done
    /// with the cycle — it is quiescent, or (a helper only) nothing turned
    /// up within two rounds of [`HELPER_SPINS`] with a yield between them.
    ///
    /// A hungry process spins on the `published` hint and locks a queue
    /// only when the hint says something is in it. One that stops looking
    /// has just seen the hint at zero or below, or had a pop come back
    /// empty; its own additions it has seen, so nothing *it* published is
    /// left behind: whatever is still counted belongs to a process that
    /// still holds its unit, and process 0 never stops looking.
    fn refill(&self, me: usize, p: &mut Process, holding: bool) -> bool {
        if holding && self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            if me != 0 {
                self.wake_control();
            }
            return false;
        }
        self.hungry.fetch_add(1, Ordering::Relaxed);
        let mut spins = 0;
        while self.outstanding.load(Ordering::SeqCst) != 0 {
            // Up to a batch per visit, and no pop the hint does not cover.
            let want = TASK_BATCH.min(self.published.load(Ordering::Relaxed).max(0) as usize);
            if want > 0 {
                self.queues.pop_batch(me, want, &mut p.stats.queue, |t| match t {
                    Task::Alpha(w, d) => p.alphas.push_back((w, d)),
                    Task::Beta(a) => p.betas.push_back(a),
                });
            }
            if p.waiting() > 0 {
                // The first task's unit of `outstanding` becomes this
                // process's own; the others' are folded into it.
                self.published.fetch_sub(p.waiting() as isize, Ordering::Relaxed);
                self.outstanding.fetch_sub(p.waiting() - 1, Ordering::SeqCst);
                break;
            }
            spins += 1;
            if me != 0 && spins == HELPER_SPINS {
                // Nobody answered. The wake-up may have put this helper on
                // process 0's own core, ahead of it, and then nobody can:
                // hand the core back once before concluding there is no
                // surplus.
                std::thread::yield_now();
            }
            if me != 0 && spins > 2 * HELPER_SPINS {
                break;
            }
            if me == 0 && spins > CONTROL_SPINS {
                // Process 0 cannot leave; parked, it is still hungry, and
                // a publication wakes it.
                self.park_control(|| {
                    self.outstanding.load(Ordering::SeqCst) == 0
                        || self.published.load(Ordering::Relaxed) > 0
                });
                spins = 0;
            }
            spin_loop();
        }
        self.hungry.fetch_sub(1, Ordering::Relaxed);
        p.waiting() > 0
    }

    /// Donation rule: while some process is hungry and the shared queues
    /// have been emptied, move the older half of the private tasks (at most
    /// a few batches) there. Counted in `outstanding` before it is visible.
    fn publish(&self, me: usize, p: &mut Process) {
        if self.hungry.load(Ordering::Relaxed) == 0 || self.published.load(Ordering::Relaxed) > 0 {
            return;
        }
        let k = (p.waiting() / 2).min(4 * TASK_BATCH);
        let betas = k.min(p.betas.len());
        p.surplus.extend(p.betas.drain(..betas).map(Task::Beta));
        p.surplus.extend(p.alphas.drain(..k - betas).map(|(w, d)| Task::Alpha(w, d)));
        self.outstanding.fetch_add(k, Ordering::SeqCst);
        self.queues.push_batch(me, &mut p.surplus, &mut p.stats.queue);
        self.published.fetch_add(k as isize, Ordering::Relaxed);
        self.wake_control();
    }

    /// Process 0, out of spins, parks until `ready`; whoever changes what
    /// `ready` reads calls [`Self::wake_control`] afterwards. The mutex
    /// orders the two: a waker that finds nobody registered ran before the
    /// registration, so the `ready` that follows it sees the change.
    fn park_control(&self, ready: impl Fn() -> bool) {
        *self.control.lock() = Some(std::thread::current());
        while !ready() {
            std::thread::park();
        }
        *self.control.lock() = None;
    }

    /// After taking `outstanding` to zero, leaving the gate last, or
    /// publishing: process 0 may be parked on exactly that.
    fn wake_control(&self) {
        if let Some(control) = &*self.control.lock() {
            control.unpark();
        }
    }
}

/// A helper match process: parked until called, then the same match loop
/// as process 0, between `enter` and `leave`.
fn helper_loop(shared: Arc<Shared>, me: usize) {
    let mut p = Process::default();
    let mut seen = 0;
    loop {
        let mut spins = 0;
        let ticket = loop {
            match shared.call.load(Ordering::SeqCst) {
                SHUTDOWN => return,
                t if t != seen => break t,
                _ if spins < HELPER_SPINS => {
                    spins += 1;
                    spin_loop();
                }
                _ => std::thread::park(),
            }
        };
        seen = ticket;
        if !shared.gate.enter(ticket) {
            continue; // Woke after the cycle closed.
        }
        shared.match_loop(me, &mut p, None);
        debug_assert_eq!(p.waiting(), 0, "helper {me} leaves a cycle holding tasks");
        {
            // Before leaving: once the gate closes, process 0 harvests.
            let mut h = shared.harvest.lock();
            h.0.merge(&std::mem::take(&mut p.stats));
            h.1.merge(std::mem::take(&mut p.cs));
        }
        if shared.gate.leave() {
            shared.wake_control();
        }
    }
}

/// The PSM-E parallel match engine.
pub struct ParallelEngine {
    shared: Arc<Shared>,
    /// Process 0's private state; the helpers keep theirs on their stacks.
    me: Process,
    handles: Vec<JoinHandle<()>>,
    config: EngineConfig,
    /// Per-cycle metrics log.
    pub metrics: MetricsLog,
    /// Control-thread phase totals (match / §5.1 surgery / §5.2 update;
    /// the embedding layer keeps its own decide/chunk totals).
    pub recorder: Recorder,
    cycle_count: u64,
}

impl ParallelEngine {
    /// Spawn the helper match processes over a compiled network.
    pub fn new(net: ReteNetwork, config: EngineConfig) -> ParallelEngine {
        let state = psme_rete::MatchState::with_memory(config.memory_lines);
        ParallelEngine::with_state(net, state, config)
    }

    /// Spawn the helper match processes adopting an externally owned
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
            outstanding: AtomicUsize::new(0),
            published: AtomicIsize::new(0),
            hungry: AtomicUsize::new(0),
            min_node: AtomicU32::new(0),
            gate: Gate::default(),
            call: AtomicU64::new(0),
            control: Mutex::new(None),
            harvest: Mutex::default(),
            profile_costs: AtomicBool::new(false),
            node_costs: Mutex::default(),
        });
        let handles = (1..workers)
            .map(|me| {
                let s = shared.clone();
                std::thread::Builder::new()
                    .name(format!("psm-match-{me}"))
                    .spawn(move || helper_loop(s, me))
                    .expect("spawn match process")
            })
            .collect();
        ParallelEngine {
            shared,
            me: Process::default(),
            handles,
            config,
            metrics: MetricsLog::default(),
            recorder: Recorder::new(),
            cycle_count: 0,
        }
    }

    /// Number of match processes, the calling thread included.
    pub fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// One cycle, as `SerialEngine::run_phase` defines it: the boundary
    /// `seeds`, every wme change through the alpha network, and whatever
    /// those activate, to quiescence; then harvest metrics + CS delta.
    fn run_tasks(
        &mut self,
        seeds: Vec<Activation>,
        changes: Vec<(WmeId, i32)>,
        min_node: NodeId,
        phase: Phase,
    ) -> CycleOutcome {
        let cphase = match phase {
            Phase::Match => ControlPhase::Match,
            Phase::Update => ControlPhase::StateUpdate,
        };
        let span = self.recorder.start(cphase);
        let start = Instant::now();
        let s = &*self.shared;
        let mut called = false;
        self.me.betas.extend(seeds);
        self.me.alphas.extend(changes);
        if self.me.waiting() > 0 {
            s.min_node.store(min_node, Ordering::Relaxed);
            s.outstanding.store(1, Ordering::SeqCst);
            called = s.match_loop(0, &mut self.me, Some(&self.handles));
        }
        if called {
            // The loop saw the counter at zero; every helper that got in
            // notices and leaves, and the gate closes behind the last.
            let mut spins = 0;
            while !s.gate.try_close() {
                spins += 1;
                if spins > CONTROL_SPINS {
                    s.park_control(|| s.gate.try_close());
                    break;
                }
                spin_loop();
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.recorder.finish(span);
        let s = &*self.shared;
        debug_assert!(self.me.waiting() == 0 && s.queues.all_empty());

        // Harvest: process 0's own pass, plus the helpers' if they came.
        let mut cm = CycleMetrics {
            cycle: self.cycle_count,
            phase: Some(phase),
            wall_ns,
            ..Default::default()
        };
        cm.absorb_worker(&std::mem::take(&mut self.me.stats));
        let mut fold = std::mem::take(&mut self.me.cs);
        if called {
            let (stats, cs) = std::mem::take(&mut *s.harvest.lock());
            cm.absorb_worker(&stats);
            fold.merge(cs);
        }
        if self.config.bucket_histograms {
            // Per-cycle histograms (Figure 6-2): the harvest zeroes what it
            // takes, so the counts are this cycle's alone.
            let counts = s.mem.take_access_counts();
            cm.left_bucket_accesses = counts.iter().map(|&(l, _)| l).collect();
            cm.right_bucket_accesses = counts.iter().map(|&(_, r)| r).collect();
        }
        let net = s.net.read();
        let store = s.store.read();
        let cs = fold.into_delta(&*net, &store);
        #[cfg(debug_assertions)]
        psme_rete::assert_quiescent(&*net, &s.mem, &store);
        drop(store);
        drop(net);
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
        self.run_tasks(Vec::new(), changes, 0, Phase::Match)
    }

    /// The §5.2 state update for the nodes `>= first_new`: the boundary
    /// seeds (the specially-executed last shared nodes), then an alpha
    /// re-run of all of WM — shared by chunk addition and reorganization.
    fn run_update(&mut self, first_new: NodeId) -> CycleOutcome {
        let seeds = seed_update(&*self.shared.net.read(), &self.shared.mem, first_new);
        let live = self.shared.store.read().iter_alive().map(|(id, _)| (id, 1)).collect();
        self.run_tasks(seeds, live, first_new, Phase::Update)
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
        let add = self.shared.net.write().add_production(prod, org)?;
        self.recorder.finish(surgery);
        let out = self.run_update(add.first_new);
        Ok(AddOutcome { add, update_tasks: out.tasks, cs: out.cs })
    }

    /// Arm or disarm per-node cost profiling for the adaptive-reorg
    /// detector. Disarming clears the accumulated window.
    pub fn set_cost_profiling(&mut self, on: bool) {
        self.shared.profile_costs.store(on, Ordering::Relaxed);
        if !on {
            *self.shared.node_costs.lock() = CostWindow::default();
        }
    }

    /// Feed the merged per-node cost window to the chain detector and reset
    /// it. Call between cycles (the merge happens at cycle barriers, so the
    /// window is complete and stable here).
    pub fn poll_reorg(
        &mut self,
        det: &mut psme_rete::ChainDetector,
    ) -> Option<psme_rete::ReorgDecision> {
        self.shared.node_costs.lock().poll(det, &*self.shared.net.read())
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
        let built = self.shared.net.write().reorg_build(prod_idx, org);
        self.recorder.finish(surgery);
        // An error was rolled back inside reorg_build: the live chain is intact.
        let rb = built?;
        let first_new = rb.first_new;
        let p_node = rb.p_node;
        let out = self.run_update(first_new);
        let retired = {
            let mut net = self.shared.net.write();
            net.reorg_commit(rb)
        };
        self.shared.mem.purge_nodes(&retired);
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
        self.shared.call.store(SHUTDOWN, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            h.thread().unpark();
            // A helper's panic is this engine's: surface it, unless this
            // drop is itself part of an unwind.
            if let Err(panic) = h.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

impl std::fmt::Debug for ParallelEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ParallelEngine({} workers, {:?}, {} cycles)",
            self.workers(),
            self.shared.queues.scheduler(),
            self.cycle_count
        )
    }
}
