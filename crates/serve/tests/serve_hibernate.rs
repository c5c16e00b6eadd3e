//! Hibernation differential gates for the tiered session store.
//!
//! Serving with tiering on — sessions hibernated out of the table under
//! memory pressure and resumed from snapshots on later dispatches — must
//! be **observationally identical** to serving without tiering and to solo
//! runs: same stop reason, same counters, same chunk names, same
//! `(write …)` output, for every scheduler and worker count, including
//! sessions swapped out *across a mid-run chunk learn*. Tiering may change
//! when work happens, never what it computes.

use psme_core::Scheduler;
use psme_obs::TraceKind;
use psme_serve::{build_topology, serve, ServeConfig, SessionReport, SessionSpec, TierConfig};
use psme_tasks::{eight_puzzle, run_serial, scrambled, RunMode, RunReport};
use std::path::PathBuf;

/// Solo reference run for a spec (same idiom as `serve_isolation`).
fn solo(spec: &SessionSpec) -> RunReport {
    let mode = if spec.learning { RunMode::DuringChunking } else { RunMode::WithoutChunking };
    run_serial(&spec.task, mode, false).0
}

fn spec(seed: u64, moves: usize, learning: bool) -> SessionSpec {
    SessionSpec {
        name: format!("h{seed}-{moves}-{}", if learning { "learn" } else { "fixed" }),
        task: eight_puzzle(&scrambled(moves, seed)),
        learning,
    }
}

fn assert_session_matches_solo(sr: &SessionReport, solo: &RunReport, ctx: &str) {
    assert_eq!(sr.stop, Some(solo.stop), "{ctx}: stop reason");
    let (a, b) = (&sr.stats, &solo.stats);
    assert_eq!(a.decisions, b.decisions, "{ctx}: decisions");
    assert_eq!(a.elaboration_cycles, b.elaboration_cycles, "{ctx}: elaboration cycles");
    assert_eq!(a.impasses, b.impasses, "{ctx}: impasses");
    assert_eq!(a.chunks_built, b.chunks_built, "{ctx}: chunks built");
    assert_eq!(a.firings, b.firings, "{ctx}: firings");
    assert_eq!(a.wme_adds, b.wme_adds, "{ctx}: wme adds");
    assert_eq!(a.wme_removes, b.wme_removes, "{ctx}: wme removes");
    assert_eq!(a.update_tasks, b.update_tasks, "{ctx}: update tasks");
    let solo_chunks: Vec<String> =
        solo.chunks.iter().map(|c| psme_ops::sym_name(c.name).to_string()).collect();
    assert_eq!(sr.chunk_names, solo_chunks, "{ctx}: chunk names");
    assert_eq!(sr.output, solo.output, "{ctx}: (write …) output");
}

/// A batch sized to force swapping: 6 sessions through a 2-seat table,
/// sliced finely so every session is dispatched many times (and therefore
/// hibernated and resumed many times), half of them learning chunks
/// mid-run.
fn pressure_specs() -> Vec<SessionSpec> {
    (0..6).map(|seed| spec(seed + 400, 3, seed % 2 == 0)).collect()
}

fn pressure_config(workers: usize, scheduler: Scheduler) -> ServeConfig {
    ServeConfig {
        workers,
        scheduler,
        table_capacity: 2,
        slice_decisions: 2,
        tier: Some(TierConfig::default()),
        ..Default::default()
    }
}

/// Session ids of every `Hibernated` event, in trace-time order.
fn hibernated_seq(report: &psme_serve::ServeReport) -> Vec<u32> {
    report
        .trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Hibernated))
        .map(|e| e.session)
        .collect()
}

/// The acceptance gate: hibernated/resumed sessions finish bit-for-bit
/// equal to continuously-live serving and to solo runs, under all three
/// schedulers and a worker sweep — including sessions that learned a chunk
/// between a hibernate and a resume.
#[test]
fn hibernated_sessions_match_live_and_solo_under_every_scheduler() {
    let specs = pressure_specs();
    let solos: Vec<RunReport> = specs.iter().map(solo).collect();
    assert!(
        solos.iter().any(|r| r.stats.chunks_built > 0),
        "the gate must include mid-run learning"
    );
    let topo = build_topology(&specs[0].task);

    // Continuously-live reference: same batch, tiering off, table wide
    // enough that nothing ever leaves it.
    let live = serve(
        topo.clone(),
        specs.clone(),
        ServeConfig { workers: 2, table_capacity: 16, ..Default::default() },
    );
    for (sr, solo) in live.sessions.iter().zip(&solos) {
        assert_session_matches_solo(sr, solo, &format!("live/{}", sr.name));
    }

    for sched in [Scheduler::SingleQueue, Scheduler::MultiQueue, Scheduler::WorkStealing] {
        for workers in [1, 3] {
            let report =
                serve(topo.clone(), specs.clone(), pressure_config(workers, sched));
            let tier = report.tier.as_ref().expect("tiered run reports tier counters");
            let ctx = format!("{sched:?}/{workers}w");
            // A lone work-stealing worker pops its own deque LIFO, so it
            // sticks with one session until it retires — at most one live
            // state, never any table pressure. That is the scheduler's
            // locality working as intended, so hibernation is only
            // *guaranteed* in the other five configurations: the locked
            // schedulers rotate FIFO through more sessions than seats, and
            // work stealing with more workers than seats self-hibernates on
            // checkin.
            let sticky = sched == Scheduler::WorkStealing && workers == 1;
            if !sticky {
                assert!(tier.hibernated > 0, "{ctx}: pressure must force hibernation");
                assert!(tier.resumed > 0, "{ctx}: hibernated sessions must resume");
                assert!(tier.snapshot_bytes_total > 0, "{ctx}: snapshots have bytes");
            }
            assert!(tier.peak_hot <= 2 + workers, "{ctx}: hot bound holds (soft under Running)");

            // Fully deterministic configurations (one worker, FIFO): every
            // learning session was swapped out at least twice while its run
            // (which learns chunks mid-way) was in flight — the
            // hibernate/resume pairs straddle the chunk build.
            if workers == 1 && !sticky {
                let hib = hibernated_seq(&report);
                for (i, sp) in specs.iter().enumerate() {
                    if sp.learning {
                        let times = hib.iter().filter(|&&s| s == i as u32).count();
                        assert!(
                            times >= 2,
                            "{ctx}: learning session {i} hibernated only {times}× — \
                             pressure too weak to straddle the chunk learn"
                        );
                    }
                }
            }

            // The differential proper: tiered == live == solo.
            for ((sr, lr), solo) in report.sessions.iter().zip(&live.sessions).zip(&solos) {
                assert_session_matches_solo(sr, solo, &format!("{ctx}/{}", sr.name));
                assert_eq!(sr.stats, lr.stats, "{ctx}/{}: tiered vs continuously-live", sr.name);
                assert_eq!(sr.output, lr.output, "{ctx}/{}: output vs live", sr.name);
                assert_eq!(
                    sr.chunk_names, lr.chunk_names,
                    "{ctx}/{}: chunks vs live",
                    sr.name
                );
            }
        }
    }
}

/// The durable tier: with a tiny warm bound and a disk directory, warm
/// snapshots spill to files and later resumes read them back — still
/// bit-for-bit equal to solo.
#[test]
fn durable_spill_and_disk_resume_preserve_sessions() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve_hibernate_durable");
    std::fs::create_dir_all(&dir).expect("create durable tier dir");
    let specs = pressure_specs();
    let solos: Vec<RunReport> = specs.iter().map(solo).collect();
    let topo = build_topology(&specs[0].task);
    let report = serve(
        topo,
        specs.clone(),
        ServeConfig {
            workers: 2,
            scheduler: Scheduler::SingleQueue,
            table_capacity: 2,
            slice_decisions: 2,
            tier: Some(TierConfig { warm_capacity: 1, durable_dir: Some(dir.clone()) }),
            ..Default::default()
        },
    );
    let tier = report.tier.as_ref().expect("tier counters");
    assert!(tier.spilled > 0, "warm bound of 1 must spill snapshots to disk");
    assert!(tier.durable_resumes > 0, "some resumes must read snapshot files back");
    assert!(
        std::fs::read_dir(&dir).expect("durable dir").next().is_some(),
        "snapshot files were written"
    );
    for (sr, solo) in report.sessions.iter().zip(&solos) {
        assert_session_matches_solo(sr, solo, &format!("durable/{}", sr.name));
    }
}

/// LRU eviction order is deterministic: with one worker and the single
/// queue, the dispatch order is fixed, so the sequence of hibernated (and
/// resumed) session ids is identical across runs.
#[test]
fn lru_eviction_order_is_deterministic_for_fixed_dispatch() {
    let specs = pressure_specs();
    let topo = build_topology(&specs[0].task);
    let run = || {
        serve(topo.clone(), specs.clone(), pressure_config(1, Scheduler::SingleQueue))
    };
    let (a, b) = (run(), run());
    let (ha, hb) = (hibernated_seq(&a), hibernated_seq(&b));
    assert!(!ha.is_empty(), "pressure must force hibernation");
    assert_eq!(ha, hb, "hibernation order must be a pure function of dispatch order");
    let resumed = |r: &psme_serve::ServeReport| -> Vec<u32> {
        r.trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Resumed))
            .map(|e| e.session)
            .collect()
    };
    assert_eq!(resumed(&a), resumed(&b), "resume order likewise");
    assert_eq!(
        a.tier.as_ref().unwrap().hibernated,
        b.tier.as_ref().unwrap().hibernated,
        "counter totals agree"
    );
}

/// Tiering with ample capacity is a no-op: nothing hibernates, and the
/// results are identical to the untied path.
#[test]
fn ample_capacity_never_hibernates() {
    let specs: Vec<SessionSpec> = (0..4).map(|seed| spec(seed + 500, 2, seed == 0)).collect();
    let solos: Vec<RunReport> = specs.iter().map(solo).collect();
    let topo = build_topology(&specs[0].task);
    let report = serve(
        topo,
        specs.clone(),
        ServeConfig {
            workers: 2,
            table_capacity: 16,
            tier: Some(TierConfig::default()),
            ..Default::default()
        },
    );
    let tier = report.tier.as_ref().expect("tier counters");
    assert_eq!(tier.hibernated, 0, "no pressure, no hibernation");
    assert_eq!(tier.resumed, 0);
    for (sr, solo) in report.sessions.iter().zip(&solos) {
        assert_session_matches_solo(sr, solo, &format!("ample/{}", sr.name));
    }
}

/// An over-full tiered batch. Under a tier everything accepted circulates
/// at once (the store bounds residency), so a shard accepts its table slice
/// plus its admission slice and has no waiting room: the session it sheds
/// is the *arrival* that found it full — nobody older is waiting to be
/// displaced. Deterministic per shard, and the survivors equal solo.
#[test]
fn overfull_tiered_batch_sheds_the_arrivals_deterministically() {
    use psme_serve::{ShardConfig, ShardRouter};
    let specs: Vec<SessionSpec> = (0..7).map(|seed| spec(seed + 600, 2, seed == 1)).collect();
    let solos: Vec<RunReport> = specs.iter().map(solo).collect();
    let topo = build_topology(&specs[0].task);
    // Two shards of 1 table seat + 1 admission seat each. Shard 0 is offered
    // 0, 1, 2, 4 and keeps the first two; shard 1 is offered 3, 5, 6 and
    // keeps the first two.
    let run = || {
        serve(
            topo.clone(),
            specs.clone(),
            ServeConfig {
                workers: 1,
                table_capacity: 2,
                admission_depth: 2,
                slice_decisions: 2,
                tier: Some(TierConfig::default()),
                shard: ShardConfig {
                    shards: 2,
                    router: ShardRouter::Explicit(vec![0, 0, 0, 1, 0, 1, 1]),
                    steal: false,
                },
                ..Default::default()
            },
        )
    };
    for report in [run(), run()] {
        let shed: Vec<usize> =
            (0..specs.len()).filter(|&i| report.sessions[i].was_shed()).collect();
        assert_eq!(shed, vec![2, 4, 6], "each shard sheds what arrived after it filled");
        assert_eq!(report.shed, 3);
        assert_eq!(report.shards.iter().map(|s| s.shed).collect::<Vec<_>>(), vec![2, 1]);
        for (sr, solo) in report.sessions.iter().zip(&solos).filter(|(sr, _)| !sr.was_shed()) {
            assert_session_matches_solo(sr, solo, &format!("overfull/{}", sr.name));
        }
    }
}
