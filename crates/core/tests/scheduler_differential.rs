//! Cross-scheduler differential suite: the gate for any scheduler change.
//!
//! For a grid of `testgen::random_system` seeds × every [`Scheduler`]
//! variant × {1, 2, 4, 8} workers, the conflict set after **every** cycle
//! must be identical to the serial reference engine's, and the full
//! instantiation set must match the brute-force naive-matcher oracle. A
//! scheduler is free to reorder tasks arbitrarily (the work-stealing owner
//! end is even LIFO); it is never free to change what matches.
//!
//! A scheduler only sees what a process publishes, and process 0 calls the
//! helpers in — the only processes it publishes for — once its frontier is
//! wide. So every stream alternates *wide* batches ([`WIDE`] wme changes
//! and up) with narrow ones that process 0 runs alone.

use psme_core::{EngineConfig, ParallelEngine, Scheduler};
use psme_ops::{Instantiation, Wme, WmeId};
use psme_rete::testgen::{random_system, GenConfig, GeneratedSystem, XorShift};
use psme_rete::{naive, NetworkOrg, ReteBuild, ReteNetwork, SerialEngine};
use std::collections::HashSet;
use std::sync::Arc;

const ALL_SCHEDULERS: [Scheduler; 3] =
    [Scheduler::SingleQueue, Scheduler::MultiQueue, Scheduler::WorkStealing];
const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

fn inst_set(v: Vec<Instantiation>) -> HashSet<Instantiation> {
    v.into_iter().collect()
}

fn build_net(sys: &GeneratedSystem) -> ReteNetwork {
    let mut net = ReteNetwork::new();
    for p in &sys.productions {
        net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
    }
    net
}

/// Wme changes in a wide batch: more tasks waiting at the start of the
/// cycle than the frontier at which the engine calls its helpers in (64).
const WIDE: usize = 72;

/// A wide batch: at least `width` adds, most of working memory removed.
fn wide_batch(
    sys: &GeneratedSystem,
    rng: &mut XorShift,
    alive: &[WmeId],
    width: usize,
) -> (Vec<Wme>, Vec<WmeId>) {
    let adds = (0..width + rng.below(16)).map(|_| sys.random_wme(rng)).collect();
    (adds, alive.iter().copied().filter(|_| rng.chance(60)).collect())
}

/// A narrow one: a handful of adds, perhaps a remove.
fn narrow_batch(
    sys: &GeneratedSystem,
    rng: &mut XorShift,
    alive: &[WmeId],
) -> (Vec<Wme>, Vec<WmeId>) {
    let adds = (0..rng.below(5) + 1).map(|_| sys.random_wme(rng)).collect();
    let pick = !alive.is_empty() && rng.chance(55);
    (adds, if pick { vec![alive[rng.below(alive.len())]] } else { Vec::new() })
}

/// Stream random wme batches, wide and narrow by turns, through a parallel
/// engine and the serial reference, checking the per-cycle CS delta and the
/// oracle after every cycle.
fn stream_test(seed: u64, cfg: EngineConfig, batches: usize) {
    let sys = random_system(seed, GenConfig::default());
    let mut par = ParallelEngine::new(build_net(&sys), cfg);
    let mut ser = SerialEngine::new(build_net(&sys));
    let mut rng = XorShift::new(seed ^ 0x5C4E_D01E);
    for batch in 0..batches {
        let alive: Vec<WmeId> = ser.state.store.iter_alive().map(|(id, _)| id).collect();
        let (adds, removes) = if batch.is_multiple_of(2) {
            wide_batch(&sys, &mut rng, &alive, WIDE)
        } else {
            narrow_batch(&sys, &mut rng, &alive)
        };
        let po = par.apply_changes(adds.clone(), removes.clone());
        let so = ser.apply_changes(adds, removes);
        assert_eq!(
            inst_set(po.cs.added.clone()),
            inst_set(so.cs.added.clone()),
            "added diverged: seed {seed} batch {batch} ({cfg:?})"
        );
        assert_eq!(
            inst_set(po.cs.removed.clone()),
            inst_set(so.cs.removed.clone()),
            "removed diverged: seed {seed} batch {batch} ({cfg:?})"
        );
        let expected = naive::match_all(sys.productions.iter(), &ser.state.store);
        assert_eq!(
            inst_set(par.current_instantiations()),
            expected,
            "oracle diverged: seed {seed} batch {batch} ({cfg:?})"
        );
    }
}

fn grid_for(scheduler: Scheduler, seed_base: u64) {
    for (i, &workers) in WORKER_GRID.iter().enumerate() {
        for s in 0..3u64 {
            stream_test(
                seed_base + 10 * i as u64 + s,
                EngineConfig { workers, scheduler, ..Default::default() },
                4,
            );
        }
    }
}

#[test]
fn single_queue_grid_matches_serial_and_oracle() {
    grid_for(Scheduler::SingleQueue, 1_000);
}

#[test]
fn multi_queue_grid_matches_serial_and_oracle() {
    grid_for(Scheduler::MultiQueue, 2_000);
}

#[test]
fn work_stealing_grid_matches_serial_and_oracle() {
    grid_for(Scheduler::WorkStealing, 3_000);
}

/// Same seeds across all three schedulers: every scheduler must agree with
/// the serial engine, hence (transitively) with each other — checked
/// directly here so a divergence names the scheduler pair.
#[test]
fn schedulers_agree_with_each_other() {
    for seed in [7u64, 42, 4_711] {
        let sys = random_system(seed, GenConfig::default());
        let mut engines: Vec<ParallelEngine> = ALL_SCHEDULERS
            .iter()
            .map(|&scheduler| {
                ParallelEngine::new(
                    build_net(&sys),
                    EngineConfig { workers: 4, scheduler, ..Default::default() },
                )
            })
            .collect();
        let mut rng = XorShift::new(seed ^ 0x00DD_5EED);
        for n_add in [WIDE, 3, WIDE, 3] {
            let adds: Vec<_> = (0..n_add).map(|_| sys.random_wme(&mut rng)).collect();
            let outs: Vec<_> =
                engines.iter_mut().map(|e| e.apply_changes(adds.clone(), vec![])).collect();
            for (sched, o) in ALL_SCHEDULERS.iter().zip(&outs).skip(1) {
                assert_eq!(
                    inst_set(o.cs.added.clone()),
                    inst_set(outs[0].cs.added.clone()),
                    "{sched:?} vs {:?} (seed {seed})",
                    ALL_SCHEDULERS[0]
                );
            }
        }
    }
}

/// Mid-run production addition (§5.1 network surgery + §5.2 parallel state
/// update) under work stealing: the engine compiles new productions while
/// live tokens exist, runs the update phase through the deques, and must
/// land on the same conflict set as the serial engine. A helper still
/// carrying the previous cycle's `min_node` is what the gate must keep out
/// of the update phase.
#[test]
fn work_stealing_runtime_addition_matches_serial() {
    for seed in 300..306 {
        let sys = random_system(seed, GenConfig::default());
        let (first, second) = sys.productions.split_at(sys.productions.len() / 2);

        let mut net_p = ReteNetwork::new();
        let mut net_s = ReteNetwork::new();
        for p in first {
            net_p.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
            net_s.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        let mut par = ParallelEngine::new(
            net_p,
            EngineConfig { workers: 4, scheduler: Scheduler::WorkStealing, ..Default::default() },
        );
        let mut ser = SerialEngine::new(net_s);

        // A working memory wider than the call-in frontier: each update
        // phase below re-runs all of it, so the helpers are called in.
        let mut rng = XorShift::new(seed ^ 0x77);
        for _ in 0..3 {
            let adds: Vec<_> = (0..WIDE / 3 + 1).map(|_| sys.random_wme(&mut rng)).collect();
            par.apply_changes(adds.clone(), vec![]);
            ser.apply_changes(adds, vec![]);
        }
        for p in second {
            let po = par.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
            let so = ser.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
            assert_eq!(
                inst_set(po.cs.added.clone()),
                inst_set(so.cs.added.clone()),
                "update-phase CS diverged at seed {seed}"
            );
        }
        let expected = naive::match_all(sys.productions.iter(), &ser.state.store);
        assert_eq!(inst_set(par.current_instantiations()), expected, "seed {seed}");

        // Further cycles stay consistent after the surgery.
        for _ in 0..3 {
            let adds: Vec<_> = (0..2).map(|_| sys.random_wme(&mut rng)).collect();
            let alive: Vec<WmeId> = ser.state.store.iter_alive().map(|(id, _)| id).collect();
            let removes = vec![alive[rng.below(alive.len())]];
            par.apply_changes(adds.clone(), removes.clone());
            ser.apply_changes(adds, removes);
            let expected = naive::match_all(sys.productions.iter(), &ser.state.store);
            assert_eq!(inst_set(par.current_instantiations()), expected, "seed {seed} post");
        }
    }
}

/// Drive `cycles` cycles several times [`WIDE`] — long enough for a parked
/// helper to wake into — and return the engine's metrics log.
fn wide_run(scheduler: Scheduler, cycles: usize) -> psme_core::MetricsLog {
    let sys = random_system(11, GenConfig::default());
    let cfg = EngineConfig { workers: 2, scheduler, ..Default::default() };
    let mut par = ParallelEngine::new(build_net(&sys), cfg);
    let mut rng = XorShift::new(13);
    for _ in 0..cycles {
        let alive: Vec<WmeId> = par.with_store(|s| s.iter_alive().map(|(id, _)| id).collect());
        let (adds, removes) = wide_batch(&sys, &mut rng, &alive, 2 * WIDE);
        par.apply_changes(adds, removes);
    }
    std::mem::take(&mut par.metrics)
}

/// Queue counters surface through the metrics pipeline: over a run of wide
/// cycles surplus is published and popped under every scheduler, steals and
/// batches stay zero under the paper schedulers, and under work stealing
/// they are live in `CycleMetrics::queue` and in the JSON export.
#[test]
fn steal_counters_flow_into_metrics() {
    const CYCLES: usize = 100;
    let multi = wide_run(Scheduler::MultiQueue, CYCLES);
    let mut pops = 0;
    for m in &multi.cycles {
        assert_eq!(m.queue.steals, 0, "paper scheduler never reports steals");
        assert_eq!(m.queue.batches, 0, "paper scheduler never batches");
        assert_eq!(m.queue.pops, m.queue.pushes, "every published task is popped once");
        pops += m.queue.pops;
    }
    assert!(pops > 0, "surplus went through the queues");

    let ws = wide_run(Scheduler::WorkStealing, CYCLES);
    let (mut batches, mut pops) = (0, 0);
    for m in &ws.cycles {
        assert!(m.queue.pops <= m.tasks, "only published tasks are popped, each once");
        assert!(m.queue.pushes >= m.queue.pops, "publications + burst moves");
        // JSON export carries the fields.
        let j = m.to_json();
        assert_eq!(j.get("steals").and_then(|v| v.as_u64()), Some(m.queue.steals));
        assert_eq!(j.get("batches").and_then(|v| v.as_u64()), Some(m.queue.batches));
        batches += m.queue.batches;
        pops += m.queue.pops;
    }
    assert!(batches >= 1, "surplus was published through the deques in batches");
    assert!(pops >= 1, "and handed out");
}
