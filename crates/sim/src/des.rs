//! The discrete-event simulator: replay one cycle's task DAG on P virtual
//! Multimax processors.
//!
//! Each traced task becomes runnable when its parent pushes it; a worker
//! executes it as: pop (queue critical section) → memory-line critical
//! section → compute → push children (queue critical sections, which is
//! when the children become available). Locks are single-server resources
//! (`grant = max(now, lock_free)`); waiting is spinning, counted in spins.
//! The single-queue configuration additionally charges the idle-process
//! failed-pop interference the paper identifies at high process counts.

use crate::cost::CostModel;
use psme_rete::{CycleTrace, TaskKind};

/// Queue organization (mirrors `psme_core::Scheduler`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimScheduler {
    /// One central task queue.
    Single,
    /// One queue per process, with cycling search over spin-locked queues.
    Multi,
    /// Per-process Chase–Lev deques: owner pops are lock-free, only steals
    /// serialize (on the victim's top CAS), children are published in one
    /// batch, and idle processes cause no failed-pop lock interference.
    WorkStealing,
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Match processes (the paper sweeps 1–13).
    pub workers: usize,
    /// Queue organization.
    pub scheduler: SimScheduler,
    /// Cost model.
    pub cost: CostModel,
    /// Record the tasks-in-system timeline (Figure 6-6).
    pub timeline: bool,
}

impl SimConfig {
    /// Config with defaults for `workers` processes.
    pub fn new(workers: usize, scheduler: SimScheduler) -> SimConfig {
        SimConfig { workers, scheduler, cost: CostModel::default(), timeline: false }
    }
}

/// Result of simulating one cycle.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Wall-clock of the cycle on the simulated machine (µs).
    pub makespan_us: f64,
    /// Tasks executed.
    pub tasks: u64,
    /// Total busy compute time across processes (µs).
    pub busy_us: f64,
    /// Total time spent waiting on queue locks (µs).
    pub queue_wait_us: f64,
    /// Queue-lock spins (wait / spin cost).
    pub queue_spins: u64,
    /// Total time waiting on memory-line locks (µs).
    pub line_wait_us: f64,
    /// Cross-queue takes: pops served from a queue other than the worker's
    /// own (steals under [`SimScheduler::WorkStealing`], cycling-search
    /// hits under [`SimScheduler::Multi`]).
    pub steals: u64,
    /// `(time_us, tasks_in_system)` samples when timeline recording is on.
    pub timeline: Vec<(f64, u32)>,
}

impl SimResult {
    /// Queue spins per task (Figure 6-3's metric).
    pub fn spins_per_task(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.queue_spins as f64 / self.tasks as f64
        }
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
struct Pending {
    avail: f64,
    seq: u32,
    idx: usize,
}

/// A single-server resource whose busy time is a set of intervals.
///
/// The greedy assignment loop executes a task's pushes at *future*
/// simulated times before other (earlier) tasks are assigned, so a simple
/// "next free time" scalar would wrongly block earlier operations behind
/// later ones. Interval bookkeeping lets an operation at time `t` take the
/// first gap at or after `t` that fits.
#[derive(Default, Debug)]
struct IntervalLock {
    /// Sorted, non-overlapping (start, end) busy intervals.
    intervals: Vec<(f64, f64)>,
}

impl IntervalLock {
    /// Acquire for `dur` at or after `t`; returns the grant time.
    fn acquire(&mut self, t: f64, dur: f64) -> f64 {
        if dur <= 0.0 {
            return t;
        }
        let mut g = t;
        let mut pos = self.intervals.partition_point(|&(_, e)| e <= t);
        while pos < self.intervals.len() {
            let (s, e) = self.intervals[pos];
            if g + dur <= s {
                break;
            }
            g = g.max(e);
            pos += 1;
        }
        // Insert (g, g+dur), coalescing with neighbours when contiguous.
        if pos > 0 && (self.intervals[pos - 1].1 - g).abs() < 1e-9 {
            self.intervals[pos - 1].1 = g + dur;
            // Possibly merge with the following interval.
            if pos < self.intervals.len() && (self.intervals[pos].0 - (g + dur)).abs() < 1e-9 {
                self.intervals[pos - 1].1 = self.intervals[pos].1;
                self.intervals.remove(pos);
            }
        } else if pos < self.intervals.len() && (self.intervals[pos].0 - (g + dur)).abs() < 1e-9 {
            self.intervals[pos].0 = g;
        } else {
            self.intervals.insert(pos, (g, g + dur));
        }
        g
    }
}

/// Simulate one cycle trace.
pub fn simulate_cycle(trace: &CycleTrace, cfg: &SimConfig) -> SimResult {
    let n = trace.tasks.len();
    let mut result = SimResult { tasks: n as u64, ..Default::default() };
    if n == 0 {
        return result;
    }
    let cost = &cfg.cost;
    let workers = cfg.workers.max(1);
    let nqueues = match cfg.scheduler {
        SimScheduler::Single => 1,
        SimScheduler::Multi | SimScheduler::WorkStealing => workers,
    };

    // Children lists (push order = trace order).
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut is_seed = vec![true; n];
    for (i, t) in trace.tasks.iter().enumerate() {
        if let Some(p) = t.parent {
            children[p as usize].push(i);
            is_seed[i] = false;
        }
    }

    // Per-queue FIFO of pending tasks, ordered by (avail, seq).
    let mut queues: Vec<Vec<Pending>> = vec![Vec::new(); nqueues];
    let mut seq: u32 = 0;
    let enqueue = |queues: &mut Vec<Vec<Pending>>, q: usize, avail: f64, idx: usize, seq: &mut u32| {
        let p = Pending { avail, seq: *seq, idx };
        *seq += 1;
        // Insert keeping (avail, seq) order; pushes mostly arrive in
        // increasing avail so this is near-O(1).
        let pos = queues[q]
            .binary_search_by(|x| {
                (x.avail, x.seq).partial_cmp(&(p.avail, p.seq)).expect("no NaN")
            })
            .unwrap_or_else(|e| e);
        queues[q].insert(pos, p);
    };

    // Seeds are available at time 0, distributed round-robin (the control
    // process pushes the cycle's wme changes).
    {
        let mut k = 0usize;
        for (i, &s) in is_seed.iter().enumerate() {
            if s {
                enqueue(&mut queues, k % nqueues, 0.0, i, &mut seq);
                k += 1;
            }
        }
    }

    let mut worker_free = vec![0.0f64; workers];
    let mut queue_locks: Vec<IntervalLock> = (0..nqueues).map(|_| IntervalLock::default()).collect();
    let mut line_locks: std::collections::HashMap<u32, IntervalLock> = Default::default();
    let mut remaining = n;
    let mut spans: Vec<(f64, f64)> = if cfg.timeline { vec![(0.0, 0.0); n] } else { Vec::new() };
    let mut avail_time: Vec<f64> = vec![0.0; n];

    while remaining > 0 {
        // Pick the (worker, task) pair with the earliest possible start.
        // (start, seq, worker, queue) — seq breaks ties FIFO.
        let mut best: Option<(f64, u32, usize, usize)> = None;
        for (w, &t_free) in worker_free.iter().enumerate() {
            // Eligible task: own queue head first, else the earliest head
            // anywhere (stealing / cycling through other queues).
            let home = w % nqueues;
            let cand_q = if !queues[home].is_empty() {
                Some(home)
            } else {
                queues
                    .iter()
                    .enumerate()
                    .filter_map(|(q, queue)| queue.first().map(|p| (p.avail, p.seq, q)))
                    .min_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("no NaN"))
                    .map(|(_, _, q)| q)
            };
            if let Some(q) = cand_q {
                let p = queues[q][0];
                let start = t_free.max(p.avail);
                let better = match best {
                    None => true,
                    Some((bs, bseq, _, _)) => (start, p.seq) < (bs, bseq),
                };
                if better {
                    best = Some((start, p.seq, w, q));
                }
            }
        }
        let (start, _, w, q) = best.expect("tasks remain but none pending — trace DAG broken");
        let p = queues[q].remove(0);
        let t = &trace.tasks[p.idx];
        remaining -= 1;

        let mut now;
        if cfg.scheduler == SimScheduler::WorkStealing {
            if q == w % nqueues {
                // Owner pop: plain bottom decrement, no lock, no
                // interference from idle processes.
                now = start + cost.ws_owner_op;
            } else {
                // Steal: serializes on the victim's top CAS only.
                result.steals += 1;
                let grant = queue_locks[q].acquire(start, cost.ws_steal);
                result.queue_wait_us += grant - start;
                now = grant + cost.ws_steal;
            }
        } else {
            // Pop through the queue lock. Idle processes doing failed pops
            // interfere with real queue operations (§6.1) — but only
            // processes in excess of the currently available tasks are
            // actually spinning on empty queues.
            if q != w % nqueues {
                result.steals += 1;
            }
            let idle = worker_free.iter().filter(|&&f| f <= start).count().saturating_sub(1);
            let available: usize =
                queues.iter().map(|qq| qq.partition_point(|pp| pp.avail <= start)).sum();
            let idle_excess = idle.saturating_sub(available);
            let interference = idle_excess as f64 * cost.failed_pop_interference / nqueues as f64;
            let grant = queue_locks[q].acquire(start, cost.queue_op + interference);
            result.queue_wait_us += grant - start;
            now = grant + cost.queue_op + interference;
        }

        // Memory-line critical section.
        let (locked, after) = cost.body_cost(t);
        if t.kind != TaskKind::Alpha && locked > 0.0 {
            let line = t.work.line.unwrap_or(0);
            let lock = line_locks.entry(line).or_default();
            let lgrant = lock.acquire(now, locked);
            result.line_wait_us += lgrant - now;
            now = lgrant + locked;
        }
        now += after;

        // Push children; each becomes available at its push completion.
        // Under work stealing the whole brood is written and then published
        // with one release store, so every child becomes available at the
        // same instant and no lock is involved.
        if cfg.scheduler == SimScheduler::WorkStealing {
            if !children[p.idx].is_empty() {
                now += cost.ws_batch_publish
                    + cost.ws_owner_op * children[p.idx].len() as f64;
                for &c in &children[p.idx] {
                    avail_time[c] = now;
                    enqueue(&mut queues, w, now, c, &mut seq);
                }
            }
        } else {
            for &c in &children[p.idx] {
                let cq = match cfg.scheduler {
                    SimScheduler::Single => 0,
                    SimScheduler::Multi | SimScheduler::WorkStealing => w,
                };
                let pg = queue_locks[cq].acquire(now, cost.queue_op);
                result.queue_wait_us += pg - now;
                now = pg + cost.queue_op;
                avail_time[c] = now;
                enqueue(&mut queues, cq, now, c, &mut seq);
            }
        }
        // Busy time is the schedule-invariant per-task cost; waits and
        // failed-pop interference are accounted separately.
        result.busy_us += cost.total_cost(t, children[p.idx].len());
        worker_free[w] = now;
        result.makespan_us = result.makespan_us.max(now);
        if cfg.timeline {
            spans[p.idx] = (avail_time[p.idx], now);
        }
    }
    result.queue_spins = (result.queue_wait_us / cost.spin) as u64;

    if cfg.timeline {
        // Tasks-in-system over time (available + running), sampled at
        // 100 µs — the paper's Figure 6-6 time unit.
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(2 * n);
        for &(a, e) in &spans {
            events.push((a, 1));
            events.push((e, -1));
        }
        events.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("no NaN"));
        let mut level = 0i32;
        let mut ei = 0usize;
        let step = 100.0;
        let mut t = 0.0;
        while t <= result.makespan_us + step {
            while ei < events.len() && events[ei].0 <= t {
                level += events[ei].1;
                ei += 1;
            }
            result.timeline.push((t, level.max(0) as u32));
            t += step;
        }
    }
    result
}

/// Simulate a whole run (synchronous cycles: total = sum of makespans).
pub fn simulate_run(traces: &[CycleTrace], cfg: &SimConfig) -> Vec<SimResult> {
    traces.iter().map(|t| simulate_cycle(t, cfg)).collect()
}

/// Total simulated time of a run in seconds.
pub fn total_seconds(results: &[SimResult]) -> f64 {
    results.iter().map(|r| r.makespan_us).sum::<f64>() / 1e6
}

/// Speedup of `par` relative to `uni` (same traces, different configs).
pub fn speedup(uni: &[SimResult], par: &[SimResult]) -> f64 {
    total_seconds(uni) / total_seconds(par).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psme_rete::{CycleTrace, Phase, Side, TaskRecord, Work};

    fn rec(id: u32, parent: Option<u32>, scanned: u32, emitted: u32) -> TaskRecord {
        TaskRecord {
            id,
            parent,
            node: 1,
            kind: TaskKind::Join,
            side: Some(Side::Left),
            delta: 1,
            work: Work { scanned, emitted, line: Some(id % 64), ..Work::default() },
            wall_ns: 0,
        }
    }

    fn flat_trace(n: u32) -> CycleTrace {
        CycleTrace { cycle: 0, phase: Phase::Match, tasks: (0..n).map(|i| rec(i, None, 2, 0)).collect() }
    }

    fn chain_trace(n: u32) -> CycleTrace {
        CycleTrace {
            cycle: 0,
            phase: Phase::Match,
            tasks: (0..n).map(|i| rec(i, i.checked_sub(1), 2, 1)).collect(),
        }
    }

    #[test]
    fn independent_tasks_scale_until_queue_saturates() {
        let t = flat_trace(400);
        let uni = simulate_cycle(&t, &SimConfig::new(1, SimScheduler::Single)).makespan_us;
        let p8 = simulate_cycle(&t, &SimConfig::new(8, SimScheduler::Single)).makespan_us;
        let s8 = uni / p8;
        assert!(s8 > 5.0, "8 workers on independent equal tasks: {s8}");
        let multi = simulate_cycle(&t, &SimConfig::new(8, SimScheduler::Multi)).makespan_us;
        assert!(uni / multi > 6.0, "multi queue: {}", uni / multi);
    }

    #[test]
    fn pure_chain_never_speeds_up() {
        let t = chain_trace(100);
        let uni = simulate_cycle(&t, &SimConfig::new(1, SimScheduler::Multi)).makespan_us;
        let p8 = simulate_cycle(&t, &SimConfig::new(8, SimScheduler::Multi)).makespan_us;
        let s = uni / p8;
        assert!(s < 1.2, "chain cannot parallelize: {s}");
    }

    #[test]
    fn work_stealing_scales_at_least_as_well_as_locked_queues() {
        let t = flat_trace(400);
        let uni = simulate_cycle(&t, &SimConfig::new(1, SimScheduler::WorkStealing)).makespan_us;
        for workers in [4usize, 8, 13] {
            let ws = simulate_cycle(&t, &SimConfig::new(workers, SimScheduler::WorkStealing));
            let single =
                simulate_cycle(&t, &SimConfig::new(workers, SimScheduler::Single)).makespan_us;
            assert!(
                ws.makespan_us <= single,
                "{workers} workers: ws {} vs single {single}",
                ws.makespan_us
            );
            let s = uni / ws.makespan_us;
            assert!(s > 0.8 * workers as f64, "{workers} workers: near-linear, got {s:.2}");
        }
        // A single root fanning out lands every child on one worker's
        // deque: the other workers can only make progress by stealing.
        let fan = CycleTrace {
            cycle: 0,
            phase: Phase::Match,
            tasks: (0..100).map(|i| rec(i, (i > 0).then_some(0), 2, 0)).collect(),
        };
        let ws8 = simulate_cycle(&fan, &SimConfig::new(8, SimScheduler::WorkStealing));
        assert!(ws8.steals > 0, "steals recorded on an imbalanced DAG");
        assert_eq!(
            simulate_cycle(&t, &SimConfig::new(1, SimScheduler::WorkStealing)).steals,
            0,
            "uniprocessor never steals"
        );
    }

    #[test]
    fn deterministic() {
        let t = flat_trace(100);
        let a = simulate_cycle(&t, &SimConfig::new(5, SimScheduler::Multi));
        let b = simulate_cycle(&t, &SimConfig::new(5, SimScheduler::Multi));
        assert_eq!(a.makespan_us, b.makespan_us);
        assert_eq!(a.queue_spins, b.queue_spins);
    }
}
