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
use psme_obs::{ControlPhase, TraceKind, TraceLog, TraceRing, SESSION_NONE};
use psme_rete::{CycleTrace, TaskKind};
use std::time::Instant;

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

/// One executed task's placement on the simulated machine, recorded when
/// the caller wants a trace export.
#[derive(Clone, Copy, Debug)]
struct Placement {
    task: usize,
    worker: usize,
    /// Pop began (task was taken from a queue).
    start_us: f64,
    /// Pop finished (queue wait + queue op); execution proper starts here.
    exec_us: f64,
    /// Task fully done (children pushed).
    end_us: f64,
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
    simulate_cycle_inner(trace, cfg, None)
}

fn simulate_cycle_inner(
    trace: &CycleTrace,
    cfg: &SimConfig,
    mut placements: Option<&mut Vec<Placement>>,
) -> SimResult {
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

        let pop_done = now;
        // Memory-line critical section.
        let (locked, after) = cost.body_cost(t);
        if t.kind != TaskKind::Alpha && locked > 0.0 {
            let line = t.line.unwrap_or(0);
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
        if let Some(sink) = placements.as_deref_mut() {
            sink.push(Placement {
                task: p.idx,
                worker: w,
                start_us: start,
                exec_us: pop_done,
                end_us: now,
            });
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

/// Simulate one cycle and also emit the serving-layer event stream
/// ([`psme_obs::TraceKind`]) stamped with *virtual* nanoseconds: one
/// `SliceStart`/`SliceEnd` pair per executed task on its worker's track
/// (`session` = task id, `cycle_lo` = beta node), so a simulated cycle
/// exports through the identical Chrome-trace path as a captured run.
pub fn simulate_cycle_traced(trace: &CycleTrace, cfg: &SimConfig) -> (SimResult, TraceLog) {
    let mut log = TraceLog::default();
    let result = sim_cycle_into(trace, cfg, 0, 0.0, &mut log);
    log.seal();
    (result, log)
}

/// [`simulate_run`] with a merged event stream across cycles: each cycle's
/// virtual clock is offset by the preceding makespans (synchronous cycles)
/// and bracketed by `PhaseBegin`/`PhaseEnd(Match)` on the control track.
pub fn simulate_run_traced(traces: &[CycleTrace], cfg: &SimConfig) -> (Vec<SimResult>, TraceLog) {
    let mut log = TraceLog::default();
    let mut offset_us = 0.0;
    let mut results = Vec::with_capacity(traces.len());
    for (cycle, t) in traces.iter().enumerate() {
        let r = sim_cycle_into(t, cfg, cycle as u64, offset_us, &mut log);
        offset_us += r.makespan_us;
        results.push(r);
    }
    log.seal();
    (results, log)
}

/// Run one cycle, appending its events (offset by `offset_us`) to `log`.
fn sim_cycle_into(
    trace: &CycleTrace,
    cfg: &SimConfig,
    cycle: u64,
    offset_us: f64,
    log: &mut TraceLog,
) -> SimResult {
    let mut placements = Vec::with_capacity(trace.tasks.len());
    let result = simulate_cycle_inner(trace, cfg, Some(&mut placements));
    let workers = cfg.workers.max(1);
    let ns = |us: f64| ((offset_us + us) * 1e3).round() as u64;
    let origin = Instant::now();
    // Sized to hold every event: two per task, worst case all on one worker.
    let cap = 2 * trace.tasks.len() + 1;
    let mut rings: Vec<TraceRing> =
        (0..workers).map(|w| TraceRing::new(w as u32, cap, origin)).collect();
    let mut ctl = TraceRing::new(workers as u32, 4, origin);
    ctl.emit_at(ns(0.0), TraceKind::PhaseBegin(ControlPhase::Match), SESSION_NONE, cycle, cycle, 0);
    for p in &placements {
        let node = trace.tasks[p.task].node as u64;
        rings[p.worker].emit_at(
            ns(p.start_us),
            TraceKind::SliceStart,
            p.task as u32,
            node,
            node,
            ((p.exec_us - p.start_us) * 1e3).round() as u64,
        );
        rings[p.worker].emit_at(
            ns(p.end_us),
            TraceKind::SliceEnd,
            p.task as u32,
            node,
            node,
            ((p.end_us - p.exec_us) * 1e3).round() as u64,
        );
    }
    ctl.emit_at(
        ns(result.makespan_us),
        TraceKind::PhaseEnd(ControlPhase::Match),
        SESSION_NONE,
        cycle,
        cycle,
        (result.makespan_us * 1e3).round() as u64,
    );
    log.absorb(&mut ctl);
    for ring in &mut rings {
        log.absorb(ring);
    }
    result
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
    use psme_rete::{CycleTrace, Phase, Side, TaskRecord};

    fn rec(id: u32, parent: Option<u32>, scanned: u32, emitted: u32) -> TaskRecord {
        TaskRecord {
            id,
            parent,
            node: 1,
            kind: TaskKind::Join,
            side: Some(Side::Left),
            delta: 1,
            scanned,
            hash_rejects: 0,
            skipped: 0,
            probes: 0,
            emitted,
            line: Some(id % 64),
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

    #[test]
    fn traced_run_matches_untraced_and_emits_every_task() {
        let traces = [flat_trace(40), chain_trace(10)];
        let cfg = SimConfig::new(4, SimScheduler::WorkStealing);
        let plain = simulate_run(&traces, &cfg);
        let (traced, log) = simulate_run_traced(&traces, &cfg);
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.makespan_us, b.makespan_us, "tracing must not perturb the schedule");
        }
        assert!(log.is_sorted());
        assert_eq!(log.dropped, 0);
        let n_tasks: usize = traces.iter().map(|t| t.tasks.len()).sum();
        let starts = log.events.iter().filter(|e| e.kind == TraceKind::SliceStart).count();
        let ends = log.events.iter().filter(|e| e.kind == TraceKind::SliceEnd).count();
        assert_eq!(starts, n_tasks);
        assert_eq!(ends, n_tasks);
        // One Match phase bracket per cycle, on the control track.
        let begins: Vec<_> = log
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::PhaseBegin(ControlPhase::Match))
            .collect();
        assert_eq!(begins.len(), traces.len());
        assert!(begins.iter().all(|e| e.worker == 4 && e.session == SESSION_NONE));
        // Cycle 1's events sit after cycle 0's makespan (virtual offset).
        let c0_end_ns = (plain[0].makespan_us * 1e3).round() as u64;
        let c1_start = begins.iter().find(|e| e.cycle_lo == 1).expect("cycle 1 bracket");
        assert_eq!(c1_start.t_ns, c0_end_ns);
        // Chrome export of the merged simulated run parses.
        let chrome = log.chrome_json().to_string();
        assert!(psme_obs::Json::parse(&chrome).is_ok());
    }
}
