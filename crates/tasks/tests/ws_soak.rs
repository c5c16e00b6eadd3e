//! Work-stealing soak test: a full eight-puzzle run with learning on.
//!
//! This is the tentpole's end-to-end gate. Chunks are built and added to
//! the network *mid-run* (§5.1 surgery + §5.2 state update executed
//! through the work-stealing deques), so every layer of the scheduler —
//! injector seeding, owner pushes, batched child publication, steals
//! during the update phase — is exercised under a real workload. The
//! parallel run must agree with the serial reference bit-for-bit on every
//! agent-visible number.

use psme_core::{EngineConfig, Scheduler};
use psme_ops::sym_name;
use psme_rete::Phase;
use psme_tasks::{eight_puzzle, run_parallel, run_serial, scrambled, RunMode};

fn chunk_names(r: &psme_tasks::RunReport) -> Vec<String> {
    r.chunks.iter().map(|c| sym_name(c.name).to_string()).collect()
}

fn assert_reports_match(ser: &psme_tasks::RunReport, par: &psme_tasks::RunReport, ctx: &str) {
    assert_eq!(par.stop, ser.stop, "{ctx}: stop reason");
    let (s, p) = (&ser.stats, &par.stats);
    assert_eq!(p.decisions, s.decisions, "{ctx}: decisions");
    assert_eq!(p.elaboration_cycles, s.elaboration_cycles, "{ctx}: elaboration cycles");
    assert_eq!(p.impasses, s.impasses, "{ctx}: impasses");
    assert_eq!(p.chunks_built, s.chunks_built, "{ctx}: chunks built");
    assert_eq!(p.firings, s.firings, "{ctx}: firings");
    assert_eq!(p.wme_adds, s.wme_adds, "{ctx}: wme adds");
    assert_eq!(p.wme_removes, s.wme_removes, "{ctx}: wme removes");
    assert_eq!(p.update_tasks, s.update_tasks, "{ctx}: update tasks");
    assert_eq!(chunk_names(par), chunk_names(ser), "{ctx}: chunk names");
    assert_eq!(par.output, ser.output, "{ctx}: (write …) output");
}

#[test]
fn eight_puzzle_learning_run_matches_serial_under_work_stealing() {
    let task = eight_puzzle(&scrambled(4, 11));
    let (ser, _) = run_serial(&task, RunMode::DuringChunking, false);
    assert!(ser.stats.chunks_built > 0, "the soak must actually learn");

    let (par, engine) = run_parallel(
        &task,
        RunMode::DuringChunking,
        EngineConfig { workers: 4, scheduler: Scheduler::WorkStealing, ..Default::default() },
    );
    assert_reports_match(&ser, &par, "during-chunking ws4");

    // The chunk additions' state updates ran on the parallel engine, and its
    // metrics log holds every one of their tasks. (Whether surplus moved
    // between processes in batches depends on which process went hungry
    // when; `scheduler_differential::steal_counters_flow_into_metrics`
    // asserts that over a run built to publish.)
    let totals = engine.metrics.total_counters();
    assert!(par.stats.update_tasks > 0, "mid-run chunk additions did match work");
    let update_tasks: u64 = engine
        .metrics
        .cycles
        .iter()
        .filter(|c| c.phase == Some(Phase::Update))
        .map(|c| c.tasks)
        .sum();
    assert_eq!(update_tasks, par.stats.update_tasks, "the metrics log holds every update task");
    // The alpha discrimination index carried the run: jump-table probes
    // happened and the per-wme cost beat the linear scan's accounting.
    assert!(totals.get(psme_obs::Counter::AlphaProbes) > 0, "index probed: {totals:?}");
    assert!(
        totals.get(psme_obs::Counter::AlphaTestsSaved)
            > totals.get(psme_obs::Counter::AlphaCandidates),
        "indexed discrimination saved work over linear: {totals:?}"
    );
}

/// The learning soak agrees with the serial engine bit-for-bit under every
/// scheduler — the discrimination index (spliced mid-run by each chunk
/// addition) must be invisible to the agent under all three queue
/// organizations.
#[test]
fn eight_puzzle_learning_run_matches_serial_under_all_schedulers() {
    let task = eight_puzzle(&scrambled(4, 11));
    let (ser, _) = run_serial(&task, RunMode::DuringChunking, false);
    assert!(ser.stats.chunks_built > 0, "the soak must actually learn");
    for sched in [Scheduler::SingleQueue, Scheduler::MultiQueue, Scheduler::WorkStealing] {
        let (par, _) = run_parallel(
            &task,
            RunMode::DuringChunking,
            EngineConfig { workers: 4, scheduler: sched, ..Default::default() },
        );
        assert_reports_match(&ser, &par, &format!("during-chunking {sched:?}4"));
    }
}

/// The learned chunks must transfer: a fresh work-stealing run preloaded
/// with them behaves exactly like the serial after-chunking run.
#[test]
fn eight_puzzle_after_chunking_matches_serial_under_work_stealing() {
    let task = eight_puzzle(&scrambled(4, 11));
    let (ser, _) = run_serial(&task, RunMode::AfterChunking, false);
    let (par, _) = run_parallel(
        &task,
        RunMode::AfterChunking,
        EngineConfig { workers: 8, scheduler: Scheduler::WorkStealing, ..Default::default() },
    );
    assert_reports_match(&ser, &par, "after-chunking ws8");
}

/// Worker-count sweep on the learning run: the agent-visible trajectory is
/// scheduler- and parallelism-independent.
#[test]
fn eight_puzzle_learning_is_deterministic_across_ws_worker_counts() {
    let task = eight_puzzle(&scrambled(4, 21));
    let (ser, _) = run_serial(&task, RunMode::DuringChunking, false);
    for workers in [1usize, 2, 4, 8] {
        let (par, _) = run_parallel(
            &task,
            RunMode::DuringChunking,
            EngineConfig { workers, scheduler: Scheduler::WorkStealing, ..Default::default() },
        );
        assert_reports_match(&ser, &par, &format!("during-chunking ws{workers}"));
    }
}

/// Oversubscription regression. When runnable match processes far
/// outnumber cores, a process can be preempted anywhere — between being
/// called for a cycle and joining it, say, waking when that cycle has
/// closed and the next is open. Before PR 17's gate such a worker ran the
/// *next* cycle's tasks inside its late pass and then zeroed its own
/// metrics slot: per-cycle task counts (summed into `update_tasks`)
/// undercounted while every match result stayed right. The three
/// schedulers run concurrently so the box stays oversubscribed throughout.
#[test]
fn oversubscribed_workers_lose_no_task_counts() {
    let workers = 8 * std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for sched in [Scheduler::SingleQueue, Scheduler::MultiQueue, Scheduler::WorkStealing] {
            scope.spawn(move || {
                let task = eight_puzzle(&scrambled(4, 21));
                let (ser, _) = run_serial(&task, RunMode::DuringChunking, false);
                let mut cycles = 0;
                while cycles < 1000 {
                    let config = EngineConfig { workers, scheduler: sched, ..Default::default() };
                    let (par, engine) = run_parallel(&task, RunMode::DuringChunking, config);
                    assert_reports_match(&ser, &par, &format!("{sched:?} x{workers}"));
                    cycles += engine.metrics.cycles.len();
                }
            });
        }
    });
}
