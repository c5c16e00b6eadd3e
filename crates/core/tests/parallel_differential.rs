//! Differential testing of the parallel engine: for any workload, worker
//! count, scheduler, and memory-table size, the conflict set after every
//! cycle must equal the serial engine's and the brute-force oracle's.
//!
//! Process 0 calls the helpers into a cycle only once its frontier is wide,
//! so every stream alternates *wide* batches ([`WIDE`] wme changes and up:
//! gate, publication, hungry helpers, late wakers) with narrow ones (a
//! handful: process 0 alone, off its private deque).

use psme_core::{EngineConfig, MatchEngine, ParallelEngine, Scheduler};
use psme_obs::Counter;
use psme_ops::{Instantiation, Wme, WmeId};
use psme_rete::testgen::{random_system, GenConfig, GeneratedSystem, XorShift};
use psme_rete::{naive, NetworkOrg, ReteBuild, ReteNetwork, SerialEngine, TaskKind, Work};
use std::collections::HashSet;
use std::sync::Arc;

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

/// The adds and removes of batch `batch`: even batches are wide (at least
/// [`WIDE`] adds, most of working memory removed), odd ones narrow.
fn next_batch(
    sys: &GeneratedSystem,
    rng: &mut XorShift,
    alive: &[WmeId],
    batch: usize,
) -> (Vec<Wme>, Vec<WmeId>) {
    let wide = batch.is_multiple_of(2);
    let n_add = if wide { WIDE + rng.below(16) } else { rng.below(5) + 1 };
    let adds = (0..n_add).map(|_| sys.random_wme(rng)).collect();
    let removes = if wide {
        alive.iter().copied().filter(|_| rng.chance(60)).collect()
    } else if !alive.is_empty() && rng.chance(55) {
        vec![alive[rng.below(alive.len())]]
    } else {
        Vec::new()
    };
    (adds, removes)
}

fn stream_test(seed: u64, cfg: EngineConfig, batches: usize) {
    let gen_cfg = GenConfig::default();
    let sys = random_system(seed, gen_cfg);
    let mut par = ParallelEngine::new(build_net(&sys), cfg);
    let mut ser = SerialEngine::new(build_net(&sys));
    let mut rng = XorShift::new(seed ^ 0xAB_CDEF);
    for batch in 0..batches {
        let alive: Vec<WmeId> = ser.state.store.iter_alive().map(|(id, _)| id).collect();
        let (adds, removes) = next_batch(&sys, &mut rng, &alive, batch);
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

#[test]
fn multi_queue_matches_serial_and_oracle() {
    for seed in 0..12 {
        stream_test(
            seed,
            EngineConfig { workers: 4, scheduler: Scheduler::MultiQueue, ..Default::default() },
            6,
        );
    }
}

#[test]
fn single_queue_matches_serial_and_oracle() {
    for seed in 20..30 {
        stream_test(
            seed,
            EngineConfig { workers: 4, scheduler: Scheduler::SingleQueue, ..Default::default() },
            6,
        );
    }
}

#[test]
fn one_line_memory_maximum_contention() {
    // Every token in one memory line: the line lock serializes everything
    // but results must be identical.
    for seed in 40..46 {
        stream_test(
            seed,
            EngineConfig {
                workers: 4,
                scheduler: Scheduler::MultiQueue,
                memory_lines: 1,
                ..Default::default()
            },
            5,
        );
    }
}

#[test]
fn memory_lines_sizes_the_engines_own_table() {
    // `ParallelEngine::new` used to build the default 4096-line table
    // whatever `memory_lines` said, so the one-line test above never
    // collided anything. The per-line histograms are as long as the table.
    let sys = random_system(7, GenConfig::default());
    for lines in [1usize, 2, 64] {
        let cfg = EngineConfig { memory_lines: lines, bucket_histograms: true, ..Default::default() };
        let mut par = ParallelEngine::new(build_net(&sys), cfg);
        par.apply_changes(vec![sys.random_wme(&mut XorShift::new(7))], vec![]);
        assert_eq!(par.last_cycle_metrics().unwrap().left_bucket_accesses.len(), lines);
    }
}

#[test]
fn worker_counts_sweep() {
    for &workers in &[1usize, 2, 3, 8, 13] {
        stream_test(
            100 + workers as u64,
            EngineConfig { workers, scheduler: Scheduler::MultiQueue, ..Default::default() },
            4,
        );
    }
}

#[test]
fn parallel_runtime_addition_matches_serial() {
    for seed in 200..210 {
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
            EngineConfig { workers: 3, scheduler: Scheduler::MultiQueue, ..Default::default() },
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
        // The update phase runs through the same match loop.
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

        // Further cycles stay consistent.
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

/// The two engines book a task's work through the same value: over a run
/// with run-time production additions (each §5.2 update re-runs working
/// memory through the alpha network), the parallel engine's alpha counters,
/// booked on whichever process ran each task and merged at the barriers,
/// equal the serial engine's captured alpha rows, summed. What an alpha task
/// does depends only on its wme change, not on the interleaving, so a field
/// one booking path dropped or counted twice shows here.
#[test]
fn alpha_counters_equal_the_serial_engines_alpha_rows() {
    let mut candidates = 0;
    for seed in 300..306 {
        let sys = random_system(seed, GenConfig::default());
        let (first, second) = sys.productions.split_at(sys.productions.len() / 2);
        let net = || {
            let mut net = ReteNetwork::new();
            for p in first {
                net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
            }
            net
        };
        let mut par = ParallelEngine::new(net(), EngineConfig { workers: 3, ..Default::default() });
        let mut ser = SerialEngine::new(net());
        ser.capture = true;
        let mut rng = XorShift::new(seed ^ 0x5EED);
        for batch in 0..6 {
            let alive: Vec<WmeId> = ser.state.store.iter_alive().map(|(id, _)| id).collect();
            let (adds, removes) = next_batch(&sys, &mut rng, &alive, batch);
            par.apply_changes(adds.clone(), removes.clone());
            ser.apply_changes(adds, removes);
            if let Some(p) = second.get(batch) {
                par.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
                ser.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
            }
        }
        let (mut rows, mut sum) = (0, Work::default());
        let tasks = ser.trace.cycles.iter().flat_map(|c| &c.tasks);
        for t in tasks.filter(|t| t.kind == TaskKind::Alpha) {
            rows += 1;
            sum += t.work;
        }
        let totals = par.metrics.total_counters();
        let booked =
            [Counter::AlphaTasks, Counter::AlphaProbes, Counter::AlphaCandidates, Counter::AlphaTestsSaved];
        assert_eq!(
            booked.map(|c| totals.get(c)),
            [rows, sum.probes.into(), sum.candidates.into(), sum.tests_saved.into()],
            "alpha tasks, probes, candidates, tests saved: seed {seed}"
        );
        candidates += sum.candidates;
    }
    assert!(candidates > 0, "the alpha tasks consulted memories");
}

#[test]
fn metrics_are_collected() {
    let sys = random_system(7, GenConfig::default());
    let mut par = ParallelEngine::new(
        build_net(&sys),
        EngineConfig {
            workers: 2,
            scheduler: Scheduler::SingleQueue,
            bucket_histograms: true,
            ..Default::default()
        },
    );
    let mut rng = XorShift::new(9);
    // A narrow cycle: process 0 alone, nobody to publish for.
    let adds: Vec<_> = (0..6).map(|_| sys.random_wme(&mut rng)).collect();
    let out = par.apply_changes(adds, vec![]);
    let m = par.last_cycle_metrics().unwrap();
    assert_eq!(m.tasks, out.tasks);
    assert!(m.tasks >= 6, "at least the alpha tasks run");
    assert!(m.wall_ns > 0);
    assert!(!m.left_bucket_accesses.is_empty());
    assert_eq!((m.queue.pushes, m.queue.pops), (0, 0), "nothing goes through the shared queue");
    // A wide one: the helper is called in, and only what is published for
    // it goes through the shared queue.
    let adds: Vec<_> = (0..WIDE).map(|_| sys.random_wme(&mut rng)).collect();
    let out = par.apply_changes(adds, vec![]);
    let m = par.last_cycle_metrics().unwrap();
    assert_eq!(m.tasks, out.tasks);
    assert!(m.tasks >= WIDE as u64);
    assert_eq!(m.queue.pops, m.queue.pushes, "every published task is popped once");
    assert!(m.queue.pops <= m.tasks);
}

/// Eight match processes per core: on every wide cycle helpers get in
/// before there is surplus, while it is being published, as the cycle
/// drains and after it has closed. The build's debug assertions check at
/// every close that process 0's deque and the shared queues are empty and
/// the memories quiescent, and at every leave that the helper's deque is;
/// a task left anywhere would also show as a diverged conflict set. (The
/// seeds are picked: on some random systems a wide batch's joins blow up to
/// cycles of 10⁵ tasks, minutes in a debug build.)
#[test]
fn oversubscribed_helpers_leave_no_task_behind() {
    let workers = 8 * std::thread::available_parallelism().map_or(1, |n| n.get());
    let schedulers = [Scheduler::SingleQueue, Scheduler::MultiQueue, Scheduler::WorkStealing];
    for (i, scheduler) in schedulers.into_iter().enumerate() {
        for seed in 0..4 {
            let cfg = EngineConfig { workers, scheduler, ..Default::default() };
            stream_test(700 + 10 * i as u64 + seed, cfg, 12);
        }
    }
}

#[test]
fn engine_drops_cleanly_mid_workload() {
    let sys = random_system(3, GenConfig::default());
    let mut par = ParallelEngine::new(
        build_net(&sys),
        EngineConfig { workers: 4, ..Default::default() },
    );
    let mut rng = XorShift::new(1);
    let adds: Vec<_> = (0..5).map(|_| sys.random_wme(&mut rng)).collect();
    par.apply_changes(adds, vec![]);
    drop(par); // must join all workers without hanging
}

#[test]
fn match_engine_trait_is_interchangeable() {
    fn drive<E: MatchEngine>(e: &mut E, sys: &psme_rete::testgen::GeneratedSystem) -> usize {
        let mut rng = XorShift::new(42);
        let adds: Vec<_> = (0..6).map(|_| sys.random_wme(&mut rng)).collect();
        e.apply_changes(adds, vec![]);
        e.with_store(|s| assert_eq!(s.live_count(), 6));
        assert!(e.num_net_nodes() > 1);
        e.current_instantiations().len()
    }
    let sys = random_system(11, GenConfig::default());
    let mut ser = SerialEngine::new(build_net(&sys));
    let mut par = ParallelEngine::new(
        build_net(&sys),
        EngineConfig { workers: 2, ..Default::default() },
    );
    assert_eq!(drive(&mut ser, &sys), drive(&mut par, &sys));
}
