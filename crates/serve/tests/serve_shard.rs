//! Cross-shard differential gates.
//!
//! Sharding the serving loop is a dispatch-topology change only: which
//! pool's workers step a session must never change what the session
//! computes. Every test here pins that — a sharded run must produce
//! **bit-for-bit** the per-session results of the single-shard loop and of
//! a solo agent on a monolithic network, including sessions that learn
//! chunks mid-run and sessions that hibernate and resume through a shard's
//! tier store, under all three schedulers, with and without cross-shard
//! stealing.

use proptest::prelude::*;
use psme_core::{QueueStats, Scheduler, TaskQueues};
use psme_obs::TraceKind;
use psme_serve::{
    build_topology, serve, ServeConfig, SessionReport, SessionSpec, ShardConfig, ShardRouter,
    TierConfig,
};
use psme_tasks::{eight_puzzle, run_serial, scrambled, RunMode, RunReport};

fn solo(spec: &SessionSpec) -> RunReport {
    let mode = if spec.learning { RunMode::DuringChunking } else { RunMode::WithoutChunking };
    run_serial(&spec.task, mode, false).0
}

fn spec(seed: u64, moves: usize, learning: bool) -> SessionSpec {
    SessionSpec {
        name: format!("s{seed}-{moves}-{}", if learning { "learn" } else { "fixed" }),
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

/// The tentpole differential: the same batch through 1 shard and through 4
/// shards, under every scheduler, with mid-run chunk learning in the mix —
/// every session bit-for-bit equal to its solo run both times, and the
/// shard partition covering the batch exactly.
#[test]
fn sharded_equals_single_shard_equals_solo_under_every_scheduler() {
    let specs: Vec<SessionSpec> = (0..24).map(|seed| spec(seed, 3, seed % 4 == 0)).collect();
    let solos: Vec<RunReport> = specs.iter().map(solo).collect();
    assert!(solos.iter().any(|r| r.stats.chunks_built > 0), "must include mid-run learning");
    let topo = build_topology(&specs[0].task);
    for sched in [Scheduler::SingleQueue, Scheduler::MultiQueue, Scheduler::WorkStealing] {
        for shards in [1usize, 4] {
            let report = serve(
                topo.clone(),
                specs.clone(),
                ServeConfig {
                    workers: 2,
                    scheduler: sched,
                    table_capacity: 16,
                    admission_depth: 64,
                    shard: ShardConfig { shards, ..Default::default() },
                    ..Default::default()
                },
            );
            assert_eq!(report.shed, 0);
            assert_eq!(report.shards.len(), shards, "one report entry per shard");
            let routed: usize = report.shards.iter().map(|s| s.sessions).sum();
            assert_eq!(routed, specs.len(), "the shard partition covers the batch");
            let done: usize = report.shards.iter().map(|s| s.completed).sum();
            assert_eq!(done, specs.len());
            for (sr, (sp, solo)) in report.sessions.iter().zip(specs.iter().zip(&solos)) {
                assert_eq!(sr.name, sp.name, "report order follows spec order");
                assert_session_matches_solo(sr, solo, &format!("{sched:?}/{shards}sh/{}", sp.name));
            }
        }
    }
}

/// Hibernate/resume through per-shard tier stores: a sharded run under
/// table pressure hibernates sessions out of each shard's slice and
/// resumes them, and every session still matches its solo run.
#[test]
fn sharded_tiered_hibernate_resume_preserves_the_differential() {
    let specs: Vec<SessionSpec> = (0..16).map(|seed| spec(seed + 50, 3, seed % 4 == 0)).collect();
    let solos: Vec<RunReport> = specs.iter().map(solo).collect();
    let topo = build_topology(&specs[0].task);
    let report = serve(
        topo,
        specs.clone(),
        ServeConfig {
            workers: 2,
            // MultiQueue rotates FIFO through more sessions than seats, so
            // hibernation is guaranteed (work stealing's LIFO stickiness
            // can dodge table pressure — see serve_hibernate.rs).
            scheduler: Scheduler::MultiQueue,
            // 4 table seats over 2 shards: 2 hot per shard, ~8 sessions per
            // shard fighting for them — hibernation is forced.
            table_capacity: 4,
            slice_decisions: 2,
            tier: Some(TierConfig::default()),
            shard: ShardConfig { shards: 2, ..Default::default() },
            ..Default::default()
        },
    );
    let tier = report.tier.as_ref().expect("tiered run reports tier counters");
    assert!(tier.hibernated > 0, "pressure must hibernate");
    assert!(tier.resumed > 0, "hibernated sessions must resume");
    for shard in &report.shards {
        let st = shard.tier.as_ref().expect("per-shard tier report");
        // Checked-out (Running) sessions sit outside the eviction reach, so
        // the peak is bounded by the shard's table slice plus every worker
        // that can be stepping one of its sessions (own pool + thieves).
        assert!(
            st.peak_hot <= 2 + 4,
            "shard {} peak_hot {} exceeds slice + workers",
            shard.shard,
            st.peak_hot
        );
    }
    for (sr, solo) in report.sessions.iter().zip(&solos) {
        assert_session_matches_solo(sr, solo, &sr.name.clone());
    }
}

/// Cross-shard stealing: route the whole batch to shard 0 of 2 so shard
/// 1's workers can only contribute by stealing. With stealing on they do
/// (counted and traced); with it off they never touch a session. Results
/// match solo either way.
#[test]
fn cross_shard_stealing_is_counted_traced_and_result_invariant() {
    let specs: Vec<SessionSpec> = (0..8).map(|seed| spec(seed + 90, 3, seed % 4 == 0)).collect();
    let solos: Vec<RunReport> = specs.iter().map(solo).collect();
    let topo = build_topology(&specs[0].task);
    let run = |steal: bool| {
        serve(
            topo.clone(),
            specs.clone(),
            ServeConfig {
                workers: 2,
                scheduler: Scheduler::WorkStealing,
                table_capacity: 8,
                shard: ShardConfig {
                    shards: 2,
                    router: ShardRouter::Explicit(vec![0; 8]),
                    steal,
                },
                ..Default::default()
            },
        )
    };
    let stealing = run(true);
    assert!(
        stealing.cross_shard_steals > 0,
        "an all-on-one-shard batch must trigger cross-shard steals"
    );
    assert_eq!(
        stealing.cross_shard_steals,
        stealing.shards[1].cross_shard_steals,
        "only the idle shard's workers steal"
    );
    let marks = stealing
        .trace
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::CrossShardSteal)
        .count() as u64;
    assert_eq!(marks, stealing.cross_shard_steals, "every steal leaves a trace marker");
    assert!(
        stealing.trace.chrome_json().to_string().contains("shard-1"),
        "sharded export groups tracks per shard"
    );
    for (sr, solo) in stealing.sessions.iter().zip(&solos) {
        assert_session_matches_solo(sr, solo, &format!("steal/{}", sr.name));
    }
    let pinned = run(false);
    assert_eq!(pinned.cross_shard_steals, 0);
    assert_eq!(pinned.shards[1].queue_stats.pops, 0, "no stealing, no work on shard 1");
    for (sr, solo) in pinned.sessions.iter().zip(&solos) {
        assert_session_matches_solo(sr, solo, &format!("pinned/{}", sr.name));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Router determinism: the hash route of a name depends only on the
    /// name and the shard count — not on the spec's position — is stable
    /// across calls, and always lands inside the shard range.
    #[test]
    fn hash_router_is_deterministic_and_in_range(
        name in "[a-z0-9-]{1,24}",
        shards in 1usize..9,
        idx_a in 0usize..1000,
        idx_b in 0usize..1000,
    ) {
        let r = ShardRouter::Hash;
        let a = r.route(idx_a, &name, shards);
        let b = r.route(idx_b, &name, shards);
        prop_assert_eq!(a, b, "position-independent");
        prop_assert_eq!(a, r.route(idx_a, &name, shards), "stable across calls");
        prop_assert!((a as usize) < shards, "in range");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Steal-exactly-once across shards: tasks seeded into several shard
    /// queue instances, drained concurrently by one owner thread per shard
    /// (own pops first, then foreign steals) are each executed exactly
    /// once, under every scheduler.
    #[test]
    fn cross_shard_drain_executes_every_task_exactly_once(
        sched_ix in 0usize..3,
        shards in 2usize..5,
        per_shard in 0usize..40,
    ) {
        let scheduler = [Scheduler::SingleQueue, Scheduler::MultiQueue, Scheduler::WorkStealing]
            [sched_ix];
        let queues: Vec<TaskQueues<u32>> =
            (0..shards).map(|_| TaskQueues::new(scheduler, 1)).collect();
        let mut seed_stats = QueueStats::default();
        for (s, q) in queues.iter().enumerate() {
            for k in 0..per_shard {
                q.push_seed(0, (s * per_shard + k) as u32, &mut seed_stats);
            }
        }
        let seen = std::sync::Mutex::new(Vec::<u32>::new());
        std::thread::scope(|scope| {
            for s in 0..shards {
                let queues = &queues;
                let seen = &seen;
                scope.spawn(move || {
                    let mut qs = QueueStats::default();
                    let mut idle = 0usize;
                    let mut got = Vec::new();
                    // Own queue first, then steal from the other shards;
                    // give up after a quiet sweep of everything.
                    while idle < 3 {
                        if let Some(t) = queues[s].pop(0, &mut qs) {
                            got.push(t);
                            idle = 0;
                            continue;
                        }
                        let mut stole = false;
                        for k in 1..shards {
                            if let Some(t) = queues[(s + k) % shards].steal_foreign(&mut qs) {
                                got.push(t);
                                stole = true;
                                break;
                            }
                        }
                        if stole { idle = 0 } else { idle += 1 }
                    }
                    seen.lock().unwrap().extend(got);
                });
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let want: Vec<u32> = (0..(shards * per_shard) as u32).collect();
        prop_assert_eq!(seen, want, "each task exactly once, none lost, none duplicated");
    }
}
