//! Shared task queues (§2.3, §6.1) plus a modern work-stealing scheduler.
//!
//! PSM-E holds node activations in "one or more shared task queues. Each
//! individual match process performs match by picking up a task from one of
//! these queues, processing the task and, if any new tasks are generated,
//! pushing them onto one of the queues."
//!
//! Three schedulers — the paper's two configurations, reproduced exactly,
//! plus one the 1988 hardware could not express:
//!
//! * [`Scheduler::SingleQueue`] — one central queue whose lock is the
//!   system's contention hot spot (Figures 6-1, 6-3);
//! * [`Scheduler::MultiQueue`] — one queue per match process; a process
//!   pushes/pops its own queue and, when empty, "cycles through the other
//!   processes' task queues, searching for a new task" (Figure 6-4);
//! * [`Scheduler::WorkStealing`] — per-worker Chase–Lev deques
//!   ([`crate::deque`]): the owner pushes and pops its own bottom without
//!   locks, idle workers steal from a randomized victim's top with a single
//!   CAS, and activations move in small batches (batched bottom publication,
//!   batched injector drains, steal bursts) to amortize queue traffic and
//!   cache misses. Tasks from a thread that owns no deque enter through a
//!   spin-locked *injector* queue, since only the owning worker may touch a
//!   deque's bottom.
//!
//! The paper schedulers' locks are instrumented TTAS spin locks so
//! spins-per-access — the paper's contention metric — is measured, not
//! inferred. The work-stealing scheduler instead reports steal/steal-fail/
//! batch counters.
//!
//! **Thread discipline** (matters only for `WorkStealing`): for a given
//! worker index `w`, [`TaskQueues::push`], [`TaskQueues::push_batch`],
//! [`TaskQueues::pop`] and [`TaskQueues::pop_batch`] must not be called
//! from two threads concurrently —
//! the engine guarantees this by construction (worker `w` is one OS
//! thread; worker 0 is whichever thread holds `&mut ParallelEngine`), and
//! single-threaded tests satisfy it trivially.
//! [`TaskQueues::push_seed`] is the entry point of a thread that owns no
//! queue (the serving layer's admission) and is safe concurrently with
//! everything. The match engine queues only what a process *publishes*:
//! a cycle's seeds and most children stay in the processes' private deques
//! ([`crate::engine`]).

use crate::deque::{Steal, WsDeque};
use psme_ops::util::splitmix64;
use psme_ops::WmeId;
use psme_rete::{Activation, SpinLock};
use std::collections::VecDeque;

/// One unit of work for a match process.
#[derive(Clone, Debug)]
pub enum Task {
    /// Push a wme change through the constant-test network.
    Alpha(WmeId, i32),
    /// A beta node activation.
    Beta(Activation),
}

/// Scheduling policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scheduler {
    /// One shared central queue.
    SingleQueue,
    /// Per-process queues with cycling search.
    #[default]
    MultiQueue,
    /// Per-process Chase–Lev deques with randomized stealing and batched
    /// activation transfer.
    WorkStealing,
}

/// Max tasks moved per batched operation (injector drain or steal burst).
/// Small enough to keep work spread across workers, large enough to
/// amortize the per-transfer atomics.
pub const TASK_BATCH: usize = 8;

/// Counters a worker accumulates against the queues.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    /// Spins while acquiring a queue lock to push.
    pub push_spins: u64,
    /// Spins while acquiring a queue lock to pop.
    pub pop_spins: u64,
    /// Successful pops (tasks handed out for execution).
    pub pops: u64,
    /// Pushes (seeds, children, and batch-moved tasks).
    pub pushes: u64,
    /// Lock acquisitions that found an empty queue ("failed pop
    /// operations", §6.1); for `WorkStealing`, pop calls that found no
    /// work anywhere.
    pub failed_pops: u64,
    /// Tasks obtained from another worker's deque (`WorkStealing` only).
    pub steals: u64,
    /// Steal attempts that found the victim empty or lost the top CAS
    /// race (`WorkStealing` only).
    pub steal_fails: u64,
    /// Batched operations that moved ≥ 2 tasks at once: batched bottom
    /// publications, injector drains, steal bursts (`WorkStealing` only).
    pub batches: u64,
}

impl QueueStats {
    /// Merge another worker's counters into this one. Saturates instead of
    /// wrapping: a long run must clamp at `u64::MAX`, not report tiny
    /// wrapped totals (see `metrics::tests::merge_saturates_on_overflow`).
    pub fn merge(&mut self, o: &QueueStats) {
        self.push_spins = self.push_spins.saturating_add(o.push_spins);
        self.pop_spins = self.pop_spins.saturating_add(o.pop_spins);
        self.pops = self.pops.saturating_add(o.pops);
        self.pushes = self.pushes.saturating_add(o.pushes);
        self.failed_pops = self.failed_pops.saturating_add(o.failed_pops);
        self.steals = self.steals.saturating_add(o.steals);
        self.steal_fails = self.steal_fails.saturating_add(o.steal_fails);
        self.batches = self.batches.saturating_add(o.batches);
    }
}

enum Queues<T> {
    /// Spin-locked FIFO queues: 1 (single) or `workers` (multi).
    Locked(Vec<SpinLock<VecDeque<T>>>),
    /// One Chase–Lev deque per worker plus the control-side injector.
    Stealing { injector: SpinLock<VecDeque<T>>, deques: Vec<WsDeque<T>> },
}

/// The task-queue set for one engine.
///
/// Generic over the work item: the match engine schedules [`Task`]s (the
/// default), the serving layer schedules session ids through the same three
/// policies.
pub struct TaskQueues<T = Task> {
    q: Queues<T>,
    scheduler: Scheduler,
}

impl<T> TaskQueues<T> {
    /// Build for `workers` match processes.
    pub fn new(scheduler: Scheduler, workers: usize) -> TaskQueues<T> {
        let workers = workers.max(1);
        let q = match scheduler {
            Scheduler::SingleQueue => Queues::Locked(vec![SpinLock::new(VecDeque::new())]),
            Scheduler::MultiQueue => {
                Queues::Locked((0..workers).map(|_| SpinLock::new(VecDeque::new())).collect())
            }
            Scheduler::WorkStealing => Queues::Stealing {
                injector: SpinLock::new(VecDeque::new()),
                deques: (0..workers).map(|_| WsDeque::new()).collect(),
            },
        };
        TaskQueues { q, scheduler }
    }

    /// The scheduler in use.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// Number of physical worker queues (the work-stealing injector is not
    /// counted).
    pub fn num_queues(&self) -> usize {
        match &self.q {
            Queues::Locked(v) => v.len(),
            Queues::Stealing { deques, .. } => deques.len(),
        }
    }

    #[inline]
    fn home(&self, worker: usize) -> usize {
        worker % self.num_queues()
    }

    /// Seed a task from the control thread. For the locked schedulers this
    /// is exactly a [`Self::push`] as worker `worker` (preserving the
    /// paper configurations' round-robin seeding); for `WorkStealing` the
    /// seed goes to the injector, because the control thread must never
    /// touch a deque's owner end.
    pub fn push_seed(&self, worker: usize, task: T, stats: &mut QueueStats) {
        match &self.q {
            Queues::Locked(_) => self.push(worker, task, stats),
            Queues::Stealing { injector, .. } => {
                let (mut g, spins) = injector.lock();
                stats.push_spins += spins;
                stats.pushes += 1;
                g.push_back(task);
            }
        }
    }

    /// Push a task from `worker` (to its own queue/deque except under
    /// `SingleQueue`).
    pub fn push(&self, worker: usize, task: T, stats: &mut QueueStats) {
        match &self.q {
            Queues::Locked(queues) => {
                let (mut g, spins) = queues[self.home(worker)].lock();
                stats.push_spins += spins;
                stats.pushes += 1;
                g.push_back(task);
            }
            Queues::Stealing { deques, .. } => {
                // SAFETY: worker `worker` is a single thread (module-level
                // thread discipline).
                unsafe { deques[self.home(worker)].push(task) };
                stats.pushes += 1;
            }
        }
    }

    /// Push a batch of tasks from `worker`: under one lock acquisition for
    /// the locked schedulers (the queue ends up as after a push loop, at one
    /// acquisition's spins), and for `WorkStealing` written and published
    /// with a single release store of the deque bottom.
    pub fn push_batch(&self, worker: usize, tasks: &mut Vec<T>, stats: &mut QueueStats) {
        match &self.q {
            Queues::Locked(queues) => {
                if tasks.is_empty() {
                    return;
                }
                let (mut g, spins) = queues[self.home(worker)].lock();
                stats.push_spins += spins;
                stats.pushes += tasks.len() as u64;
                g.extend(tasks.drain(..));
            }
            Queues::Stealing { deques, .. } => {
                let k = tasks.len() as u64;
                if k == 0 {
                    return;
                }
                if k >= 2 {
                    stats.batches += 1;
                }
                stats.pushes += k;
                // SAFETY: thread discipline as in `push`.
                unsafe { deques[self.home(worker)].push_batch(tasks) };
            }
        }
    }

    /// Pop a task for `worker`.
    ///
    /// * Locked schedulers: own queue first, then cycle the others (§6.1).
    /// * `WorkStealing`: own deque bottom, then a batched injector drain,
    ///   then a steal burst from a randomized victim; every task beyond the
    ///   first moved by a batch lands in `worker`'s own deque.
    pub fn pop(&self, worker: usize, stats: &mut QueueStats) -> Option<T> {
        match &self.q {
            Queues::Locked(queues) => {
                let mut task = None;
                self.pop_locked(queues, worker, 1, stats, |t| task = Some(t));
                task
            }
            Queues::Stealing { injector, deques } => {
                let home = self.home(worker);
                // 1. Own deque (lock-free LIFO).
                // SAFETY: thread discipline as in `push`.
                if let Some(t) = unsafe { deques[home].pop() } {
                    stats.pops += 1;
                    return Some(t);
                }
                // 2. Injector: drain a small batch under one lock
                //    acquisition; execute the first, keep the rest local.
                let mut moved: Vec<T> = Vec::new();
                let first = {
                    let (mut g, spins) = injector.lock();
                    stats.pop_spins += spins;
                    let first = g.pop_front();
                    if first.is_some() {
                        while moved.len() + 1 < TASK_BATCH {
                            match g.pop_front() {
                                Some(t) => moved.push(t),
                                None => break,
                            }
                        }
                    }
                    first
                };
                if let Some(t) = first {
                    if !moved.is_empty() {
                        stats.batches += 1;
                        stats.pushes += moved.len() as u64;
                        // SAFETY: thread discipline as in `push`.
                        unsafe { deques[home].push_batch(&mut moved) };
                    }
                    stats.pops += 1;
                    return Some(t);
                }
                // 3. Steal burst from a randomized victim. The mix of the
                //    worker id with its own traffic counters gives a cheap
                //    per-call pseudo-random starting point without shared
                //    RNG state.
                let n = deques.len();
                if n > 1 {
                    let mut seed = (home as u64)
                        ^ stats.pops.rotate_left(17)
                        ^ stats.steal_fails.rotate_left(41);
                    let r = splitmix64(&mut seed) as usize;
                    for i in 0..n - 1 {
                        let victim = {
                            let v = (r + i) % (n - 1);
                            if v >= home {
                                v + 1
                            } else {
                                v
                            }
                        };
                        match deques[victim].steal() {
                            Steal::Success(first) => {
                                stats.steals += 1;
                                debug_assert!(moved.is_empty());
                                while moved.len() + 1 < TASK_BATCH {
                                    match deques[victim].steal() {
                                        Steal::Success(t) => {
                                            stats.steals += 1;
                                            moved.push(t);
                                        }
                                        _ => break,
                                    }
                                }
                                if !moved.is_empty() {
                                    stats.batches += 1;
                                    stats.pushes += moved.len() as u64;
                                    // SAFETY: thread discipline as in `push`.
                                    unsafe { deques[home].push_batch(&mut moved) };
                                }
                                stats.pops += 1;
                                return Some(first);
                            }
                            Steal::Retry | Steal::Empty => stats.steal_fails += 1,
                        }
                    }
                }
                stats.failed_pops += 1;
                None
            }
        }
    }

    /// Pop up to `max` tasks for `worker` into `sink`; returns how many.
    ///
    /// * Locked schedulers: the search of [`Self::pop`], but everything
    ///   comes from the first non-empty queue under that one acquisition —
    ///   a batch costs one lock (and one failed pop per empty queue passed)
    ///   instead of one per task.
    /// * `WorkStealing`: [`Self::pop`] already moves tasks in batches.
    pub fn pop_batch(
        &self,
        worker: usize,
        max: usize,
        stats: &mut QueueStats,
        mut sink: impl FnMut(T),
    ) -> usize {
        match &self.q {
            Queues::Locked(queues) => self.pop_locked(queues, worker, max, stats, sink),
            Queues::Stealing { .. } => {
                let mut k = 0;
                while k < max {
                    match self.pop(worker, stats) {
                        Some(t) => sink(t),
                        None => break,
                    }
                    k += 1;
                }
                k
            }
        }
    }

    /// §6.1's search for the locked schedulers: `worker`'s own queue first,
    /// then cycle through the others; up to `max` tasks come from the first
    /// non-empty queue, under its one acquisition, and each empty queue
    /// passed is one failed pop.
    fn pop_locked(
        &self,
        queues: &[SpinLock<VecDeque<T>>],
        worker: usize,
        max: usize,
        stats: &mut QueueStats,
        sink: impl FnMut(T),
    ) -> usize {
        let n = queues.len();
        let home = self.home(worker);
        for i in 0..n {
            let (mut g, spins) = queues[(home + i) % n].lock();
            stats.pop_spins += spins;
            let k = max.min(g.len());
            if k > 0 {
                stats.pops += k as u64;
                g.drain(..k).for_each(sink);
                return k;
            }
            stats.failed_pops += 1;
        }
        0
    }

    /// Steal one task from this queue set on behalf of a *foreign* worker —
    /// one that owns no queue here (a worker from another shard's pool).
    ///
    /// Safe from any thread: the locked schedulers pop under their spin
    /// locks, and `WorkStealing` uses only the injector lock and the
    /// thief side of the Chase–Lev deques (never an owner end), so the
    /// module-level thread discipline is untouched. Counted as a steal in
    /// `stats` on success, a steal failure per empty source otherwise.
    pub fn steal_foreign(&self, stats: &mut QueueStats) -> Option<T> {
        match &self.q {
            Queues::Locked(queues) => {
                for q in queues {
                    let (mut g, spins) = q.lock();
                    stats.pop_spins += spins;
                    if let Some(t) = g.pop_front() {
                        stats.pops += 1;
                        stats.steals += 1;
                        return Some(t);
                    }
                    stats.steal_fails += 1;
                }
                None
            }
            Queues::Stealing { injector, deques } => {
                {
                    let (mut g, spins) = injector.lock();
                    stats.pop_spins += spins;
                    if let Some(t) = g.pop_front() {
                        stats.pops += 1;
                        stats.steals += 1;
                        return Some(t);
                    }
                }
                stats.steal_fails += 1;
                for d in deques {
                    match d.steal() {
                        Steal::Success(t) => {
                            stats.pops += 1;
                            stats.steals += 1;
                            return Some(t);
                        }
                        Steal::Retry | Steal::Empty => stats.steal_fails += 1,
                    }
                }
                None
            }
        }
    }

    /// Are all queues empty? (Control-side check; racy by nature, callers
    /// rely on the outstanding-task counter for the real barrier.)
    pub fn all_empty(&self) -> bool {
        match &self.q {
            Queues::Locked(queues) => queues.iter().all(|q| {
                let (g, _) = q.lock();
                g.is_empty()
            }),
            Queues::Stealing { injector, deques } => {
                injector.lock().0.is_empty() && deques.iter().all(|d| d.is_empty_hint())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psme_rete::Side;

    fn beta(n: u32) -> Task {
        Task::Beta(Activation {
            node: n,
            side: Side::Left,
            token: psme_rete::Token::empty(),
            delta: 1,
        })
    }

    fn node_of(t: Option<Task>) -> u32 {
        match t {
            Some(Task::Beta(a)) => a.node,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn single_queue_is_fifo() {
        let q = TaskQueues::new(Scheduler::SingleQueue, 4);
        assert_eq!(q.num_queues(), 1);
        let mut s = QueueStats::default();
        q.push(0, beta(1), &mut s);
        q.push(3, beta(2), &mut s);
        assert_eq!(node_of(q.pop(2, &mut s)), 1);
        assert_eq!(node_of(q.pop(1, &mut s)), 2);
        assert!(q.pop(0, &mut s).is_none());
        assert_eq!(s.pops, 2);
        assert_eq!(s.pushes, 2);
        assert!(s.failed_pops >= 1);
    }

    #[test]
    fn multi_queue_prefers_own_then_steals() {
        let q = TaskQueues::new(Scheduler::MultiQueue, 3);
        assert_eq!(q.num_queues(), 3);
        let mut s = QueueStats::default();
        q.push(0, beta(10), &mut s);
        q.push(1, beta(11), &mut s);
        // Worker 1 pops its own first.
        assert_eq!(node_of(q.pop(1, &mut s)), 11);
        // Worker 1's queue now empty: steals worker 0's task.
        assert_eq!(node_of(q.pop(1, &mut s)), 10);
        assert!(q.all_empty());
    }

    #[test]
    fn failed_pops_count_per_queue_scanned() {
        let q: TaskQueues = TaskQueues::new(Scheduler::MultiQueue, 4);
        let mut s = QueueStats::default();
        assert!(q.pop(0, &mut s).is_none());
        assert_eq!(s.failed_pops, 4, "scanned all four empty queues");
    }

    #[test]
    fn work_stealing_own_deque_is_lifo() {
        let q = TaskQueues::new(Scheduler::WorkStealing, 4);
        assert_eq!(q.num_queues(), 4);
        let mut s = QueueStats::default();
        q.push(2, beta(1), &mut s);
        q.push(2, beta(2), &mut s);
        assert_eq!(node_of(q.pop(2, &mut s)), 2, "owner pops the bottom");
        assert_eq!(node_of(q.pop(2, &mut s)), 1);
        assert!(q.pop(2, &mut s).is_none());
        assert_eq!(s.pops, 2);
        assert_eq!(s.pushes, 2);
        assert_eq!(s.failed_pops, 1);
        assert!(q.all_empty());
    }

    #[test]
    fn work_stealing_steals_from_victims_and_counts() {
        let q = TaskQueues::new(Scheduler::WorkStealing, 3);
        let mut s0 = QueueStats::default();
        for i in 0..20 {
            q.push(0, beta(i), &mut s0);
        }
        // Worker 1 has nothing: must steal from worker 0 (FIFO from the
        // top), bringing a burst into its own deque.
        let mut s1 = QueueStats::default();
        assert_eq!(node_of(q.pop(1, &mut s1)), 0, "steals the oldest task");
        assert!(s1.steals >= 1, "steal counted");
        assert!(s1.batches >= 1, "burst moved as a batch");
        // Everything is popped exactly once across both workers.
        let mut seen = vec![0u32; 20];
        seen[0] += 1;
        loop {
            let before = seen.iter().sum::<u32>();
            if let Some(t) = q.pop(1, &mut s1) {
                seen[node_of(Some(t)) as usize] += 1;
            }
            if let Some(t) = q.pop(0, &mut s0) {
                seen[node_of(Some(t)) as usize] += 1;
            }
            if seen.iter().sum::<u32>() == before {
                break;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        assert_eq!(s0.pops + s1.pops, 20);
        assert!(q.all_empty());
    }

    #[test]
    fn work_stealing_seeds_flow_through_injector_in_batches() {
        let q = TaskQueues::new(Scheduler::WorkStealing, 2);
        let mut cs = QueueStats::default();
        for i in 0..TASK_BATCH as u32 + 3 {
            q.push_seed(i as usize, beta(i), &mut cs);
        }
        assert_eq!(cs.pushes, TASK_BATCH as u64 + 3);
        let mut s = QueueStats::default();
        // First pop drains a batch: one executed, TASK_BATCH-1 moved local.
        assert!(q.pop(0, &mut s).is_some());
        assert_eq!(s.batches, 1);
        assert_eq!(s.pushes, TASK_BATCH as u64 - 1);
        let mut n = 1;
        while q.pop(0, &mut s).is_some() {
            n += 1;
        }
        assert_eq!(n, TASK_BATCH + 3);
        assert_eq!(s.pops, n as u64);
        assert!(q.all_empty());
    }

    #[test]
    fn push_batch_publishes_all_tasks() {
        for sched in [Scheduler::SingleQueue, Scheduler::MultiQueue, Scheduler::WorkStealing] {
            let q = TaskQueues::new(sched, 3);
            let mut s = QueueStats::default();
            let mut batch: Vec<Task> = (0..10).map(beta).collect();
            q.push_batch(1, &mut batch, &mut s);
            assert!(batch.is_empty());
            assert_eq!(s.pushes, 10);
            let mut n = 0;
            while q.pop(1, &mut s).is_some() {
                n += 1;
            }
            assert_eq!(n, 10, "{sched:?}");
            if sched == Scheduler::WorkStealing {
                assert_eq!(s.batches, 1, "one batched publication");
            } else {
                assert_eq!(s.batches, 0, "paper schedulers unchanged");
            }
        }
    }

    #[test]
    fn pop_batch_takes_one_queue_under_one_acquisition() {
        let q = TaskQueues::new(Scheduler::MultiQueue, 3);
        let mut s = QueueStats::default();
        let mut batch: Vec<Task> = (0..10).map(beta).collect();
        q.push_batch(1, &mut batch, &mut s);
        // Worker 0: its own queue is empty (one failed pop), worker 1's is
        // next in the cycle and gives up to `max`, in order.
        let mut got = Vec::new();
        let mut s = QueueStats::default();
        assert_eq!(q.pop_batch(0, 4, &mut s, |t| got.push(node_of(Some(t)))), 4);
        assert_eq!(got, [0, 1, 2, 3]);
        assert_eq!((s.pops, s.failed_pops), (4, 1));
        assert_eq!(q.pop_batch(1, 100, &mut s, |_| {}), 6, "never more than the queue holds");
        assert_eq!(q.pop_batch(1, 100, &mut s, |_| {}), 0);
        assert_eq!((s.pops, s.failed_pops), (10, 4), "three empty queues passed");
        // Work stealing: `pop` already batches; `pop_batch` just repeats it.
        let q = TaskQueues::new(Scheduler::WorkStealing, 3);
        let mut batch: Vec<Task> = (0..10).map(beta).collect();
        q.push_batch(1, &mut batch, &mut s);
        let mut n = 0;
        while q.pop_batch(0, 4, &mut s, |_| n += 1) > 0 {}
        assert_eq!(n, 10);
        assert!(q.all_empty());
    }

    #[test]
    fn foreign_steals_drain_every_scheduler_exactly_once() {
        for sched in [Scheduler::SingleQueue, Scheduler::MultiQueue, Scheduler::WorkStealing] {
            let q = TaskQueues::new(sched, 3);
            let mut s = QueueStats::default();
            for i in 0..12 {
                // Mix owner pushes and control-side seeds so both the
                // deques and the injector hold work under `WorkStealing`.
                if i % 2 == 0 {
                    q.push(i as usize % 3, beta(i), &mut s);
                } else {
                    q.push_seed(i as usize, beta(i), &mut s);
                }
            }
            let mut thief = QueueStats::default();
            let mut seen = vec![0u32; 12];
            while let Some(t) = q.steal_foreign(&mut thief) {
                seen[node_of(Some(t)) as usize] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "{sched:?}: {seen:?}");
            assert_eq!(thief.steals, 12, "{sched:?}");
            assert_eq!(thief.pops, 12, "{sched:?}");
            assert!(q.all_empty(), "{sched:?}");
            assert!(q.pop(0, &mut s).is_none(), "{sched:?}");
        }
    }

    #[test]
    fn queue_stats_merge_saturates() {
        let mut a = QueueStats { pushes: u64::MAX - 1, steals: u64::MAX, ..Default::default() };
        let b = QueueStats { pushes: 10, steals: 3, pops: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.pushes, u64::MAX, "saturates, never wraps");
        assert_eq!(a.steals, u64::MAX);
        assert_eq!(a.pops, 7);
    }

    #[test]
    fn concurrent_producers_consumers_preserve_tasks() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        for sched in [Scheduler::MultiQueue, Scheduler::WorkStealing] {
            let q = Arc::new(TaskQueues::new(sched, 4));
            let done = Arc::new(AtomicU64::new(0));
            let popped = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for w in 0..2 {
                let q = q.clone();
                let done = done.clone();
                handles.push(std::thread::spawn(move || {
                    let mut s = QueueStats::default();
                    for i in 0..5_000 {
                        q.push(w, beta(i), &mut s);
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }));
            }
            for w in 2..4 {
                let q = q.clone();
                let done = done.clone();
                let popped = popped.clone();
                handles.push(std::thread::spawn(move || {
                    let mut s = QueueStats::default();
                    loop {
                        if q.pop(w, &mut s).is_some() {
                            popped.fetch_add(1, Ordering::SeqCst);
                        } else if done.load(Ordering::SeqCst) == 2 {
                            // The failed pop above may predate the last
                            // pushes; re-check now that all pushes are
                            // visible. The re-pop must count its task, not
                            // discard it.
                            match q.pop(w, &mut s) {
                                Some(_) => {
                                    popped.fetch_add(1, Ordering::SeqCst);
                                }
                                None => break,
                            }
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(popped.load(Ordering::SeqCst), 10_000, "{sched:?}");
        }
    }
}
