//! host — Figure 6-5: per-cycle speedup as a function of tasks/cycle.
//!
//! Two legs. The **simulated** leg is the paper's figure on the modeled
//! Multimax (eight-puzzle, 11 match processes). The **host** leg is the same
//! question asked of this machine: the repo benchmark's three
//! `solo_parallel` runs on `SerialEngine` and on `ParallelEngine` with one
//! match process (the calling thread alone) and with two (a helper, called
//! into the cycles whose frontier gets wide), per-cycle wall time binned by
//! tasks/cycle (EXPERIMENTS.md, Figure 6-5).

use psme_bench::*;
use psme_core::{EngineConfig, MatchEngine, ParallelEngine, Scheduler};
use psme_ops::{Instantiation, Production, TimeTag, Wme, WmeId};
use psme_rete::{
    AddOutcome, BuildError, CycleOutcome, NetworkOrg, ReteNetwork, SerialEngine, WmeStore,
};
use psme_sim::{simulate_cycle, SimConfig, SimScheduler};
use psme_soar::{SoarTask, StopReason};
use psme_tasks::{cypress_sub, eight_puzzle, scrambled, CypressConfig, RunMode, DECISION_BUDGET};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    simulated_leg();
    host_leg();
}

fn simulated_leg() {
    println!("Figure 6-5: Eight-puzzle — per-cycle speedups vs tasks/cycle (11 processes)");
    println!("paper-shape reproduction (modeled Multimax); the host leg follows");
    println!("paper: small cycles < 2x; some ≈300-task cycles stuck near 3x (long chains)");
    let (_, task) = paper_tasks().remove(0);
    let (_, trace) = capture(&task, RunMode::WithoutChunking);
    let cycles = match_cycles(&trace);
    let c1 = SimConfig::new(1, SimScheduler::Multi);
    let c11 = SimConfig::new(11, SimScheduler::Multi);
    // Bin cycles by task count.
    let bins = [(0, 25), (25, 50), (50, 100), (100, 200), (200, 400), (400, 800), (800, 100000)];
    let mut rows = Vec::new();
    for (lo, hi) in bins {
        let mut speedups = Vec::new();
        for c in cycles.iter().filter(|c| c.len() >= lo && c.len() < hi && !c.is_empty()) {
            let u = simulate_cycle(c, &c1).makespan_us;
            let p = simulate_cycle(c, &c11).makespan_us;
            speedups.push(u / p.max(1e-9));
        }
        if speedups.is_empty() {
            continue;
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        let max = speedups.iter().cloned().fold(0.0f64, f64::max);
        rows.push(vec![
            format!("{lo}–{}", if hi > 10000 { "∞".into() } else { hi.to_string() }),
            format!("{}", speedups.len()),
            f2(avg),
            f2(max),
        ]);
    }
    print_table("measured", &["tasks/cycle", "cycles", "avg speedup", "max speedup"], &rows);
}

/// An engine that times its own match cycles: `(tasks, wall ns)` of every
/// `run_changes` call, the §5.2 update phases left out.
struct Timed<E> {
    inner: E,
    cycles: Vec<(u64, u64)>,
}

impl<E: MatchEngine> MatchEngine for Timed<E> {
    fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome {
        self.inner.apply_changes(adds, removes)
    }
    fn add_wme(&mut self, w: Wme) -> (WmeId, TimeTag) {
        self.inner.add_wme(w)
    }
    fn remove_wme(&mut self, id: WmeId) -> bool {
        self.inner.remove_wme(id)
    }
    fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> CycleOutcome {
        let t0 = Instant::now();
        let out = self.inner.run_changes(changes);
        self.cycles.push((out.tasks, t0.elapsed().as_nanos() as u64));
        out
    }
    fn retire_removed(&mut self, keep: impl FnMut(WmeId) -> bool) -> Vec<WmeId> {
        self.inner.retire_removed(keep)
    }
    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddOutcome, BuildError> {
        self.inner.add_production(prod, org)
    }
    fn with_store<R>(&self, f: impl FnOnce(&WmeStore) -> R) -> R {
        self.inner.with_store(f)
    }
    fn num_net_nodes(&self) -> usize {
        self.inner.num_net_nodes()
    }
    fn current_instantiations(&self) -> Vec<Instantiation> {
        self.inner.current_instantiations()
    }
}

/// One run; the cycle log and why it stopped.
fn timed_run<E: MatchEngine>(
    task: &SoarTask,
    learning: bool,
    engine: E,
) -> (Vec<(u64, u64)>, StopReason) {
    let mut agent = task.agent(Timed { inner: engine, cycles: Vec::new() });
    agent.learning = learning;
    let stop = agent.run(DECISION_BUDGET);
    (agent.engine.cycles, stop)
}

/// `None` is `SerialEngine`, `Some(workers)` a `ParallelEngine` of that many
/// match processes.
type Engine = Option<usize>;

fn engine_run(task: &SoarTask, learning: bool, engine: Engine) -> Vec<(u64, u64)> {
    match engine {
        None => timed_run(task, learning, SerialEngine::new(ReteNetwork::new())).0,
        Some(workers) => {
            let cfg =
                EngineConfig { workers, scheduler: Scheduler::MultiQueue, ..Default::default() };
            timed_run(task, learning, ParallelEngine::new(ReteNetwork::new(), cfg)).0
        }
    }
}

/// Per engine, the cycle logs (wall ns per cycle) of `REPS` repetitions;
/// the engines take turns within a repetition, so a drift of the host falls
/// on all of them.
fn repetitions(task: &SoarTask, learning: bool, engines: &[Engine]) -> Vec<Vec<Vec<u64>>> {
    let mut logs: Vec<Vec<Vec<u64>>> = vec![Vec::new(); engines.len()];
    for _ in 0..REPS {
        for (l, &e) in logs.iter_mut().zip(engines) {
            l.push(engine_run(task, learning, e).into_iter().map(|(_, ns)| ns).collect());
        }
    }
    logs
}

/// The wall time the cycles `idx` took, in the repetition where they took
/// least (the host at its quietest over that set of cycles — not cycle by
/// cycle, which would hand a parallel run its luckiest schedule each time).
fn quietest(reps: &[Vec<u64>], idx: &[usize]) -> f64 {
    reps.iter().map(|log| idx.iter().map(|&i| log[i]).sum::<u64>()).min().unwrap_or(0) as f64
}

const REPS: usize = 5;

fn host_leg() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nFigure 6-5, host leg: per-cycle wall time vs tasks/cycle, 1 and 2 match processes");
    println!(
        "host-measured on {cores} vCPUs; each row at the fastest of {REPS} interleaved repetitions"
    );
    // An eight-puzzle board the greedy agent does not solve within the
    // decision budget, as `solo_parallel` picks them.
    let board = (1u64..)
        .map(|seed| eight_puzzle(&scrambled(12, seed)))
        .find(|t| {
            timed_run(t, false, SerialEngine::new(ReteNetwork::new())).1 != StopReason::Halted
        })
        .expect("an unsolved depth-12 board");
    let runs = [
        ("cypress-6, without chunking", cypress_sub(&CypressConfig { roots: 6 }), false),
        ("cypress-8, during chunking", cypress_sub(&CypressConfig { roots: 8 }), true),
        ("eight-puzzle scrambled(12), to the decision limit", board, false),
    ];
    let bins: [(u64, u64); 7] =
        [(1, 4), (5, 16), (17, 64), (65, 256), (257, 1024), (1025, 4096), (4097, u64::MAX)];
    for (name, task, learning) in &runs {
        // The serial run's task counts bin a cycle for all three engines:
        // cycle i is the same wme changes on each.
        let tasks: Vec<u64> = engine_run(task, *learning, None).iter().map(|&(t, _)| t).collect();
        let logs = repetitions(task, *learning, &[None, Some(1), Some(2)]);
        let same_cycles = logs.iter().flatten().all(|l| l.len() == tasks.len());
        assert!(same_cycles, "{name}: cycle counts differ");
        let all: Vec<usize> = (0..tasks.len()).collect();
        let serial_total = quietest(&logs[0], &all);
        let mut rows = Vec::new();
        let mut row = |label: String, pick: &dyn Fn(u64) -> bool| {
            let idx: Vec<usize> = (0..tasks.len()).filter(|&i| pick(tasks[i])).collect();
            if idx.is_empty() {
                return;
            }
            let n: u64 = idx.iter().map(|&i| tasks[i]).sum();
            let [s, one, two] = [0, 1, 2].map(|e| quietest(&logs[e], &idx));
            rows.push(vec![
                label,
                idx.len().to_string(),
                format!("{:.1}", 100.0 * s / serial_total),
                format!("{:.3}", s / 1e3 / idx.len() as f64),
                format!("{:.0}", s / n as f64),
                format!("{:.0}", one / n as f64),
                format!("{:.0}", two / n as f64),
                f2(s / one),
                f2(s / two),
            ]);
        };
        for (lo, hi) in bins {
            let label = if hi == u64::MAX { format!("{lo}+") } else { format!("{lo}–{hi}") };
            row(label, &|t| (lo..=hi).contains(&t));
        }
        row("all".into(), &|_| true);
        print_table(
            name,
            &[
                "tasks/cycle",
                "cycles",
                "% serial wall",
                "serial us/cycle",
                "serial ns/task",
                "1 proc ns/task",
                "2 procs ns/task",
                "1 proc speedup",
                "2 procs speedup",
            ],
            &rows,
        );
    }
    println!(
        "\n1 proc = the calling thread alone, off its private deque; 2 procs = plus one helper, \
         called into a cycle once the frontier is wide; speedup = serial / engine"
    );
}
