//! Property-based tests for the Multimax simulator: scheduling laws that
//! must hold for any task DAG, worker count and queue organization.

use proptest::prelude::*;
use psme_rete::{CycleTrace, Phase, Side, TaskKind, TaskRecord, Work};
use psme_sim::{simulate_cycle, CostModel, SimConfig, SimScheduler};

/// Build a random but well-formed task DAG: each task's parent precedes it.
fn dag_strategy() -> impl Strategy<Value = CycleTrace> {
    (1usize..120, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = psme_rete::testgen::XorShift::new(seed);
        let mut tasks = Vec::with_capacity(n);
        for i in 0..n {
            let parent = if i == 0 || rng.chance(25) {
                None
            } else {
                Some(rng.below(i) as u32)
            };
            let kind = match rng.below(4) {
                0 => TaskKind::Alpha,
                1 => TaskKind::Neg,
                2 => TaskKind::Prod,
                _ => TaskKind::Join,
            };
            tasks.push(TaskRecord {
                id: i as u32,
                parent,
                node: rng.below(40) as u32 + 1,
                kind,
                side: Some(if rng.chance(50) { Side::Left } else { Side::Right }),
                delta: if rng.chance(80) { 1 } else { -1 },
                work: Work {
                    scanned: rng.below(8) as u32,
                    hash_rejects: if kind == TaskKind::Alpha { 0 } else { rng.below(3) as u32 },
                    skipped: if kind == TaskKind::Alpha { 0 } else { rng.below(5) as u32 },
                    probes: if kind == TaskKind::Alpha { rng.below(3) as u32 } else { 0 },
                    emitted: rng.below(4) as u32,
                    line: Some(rng.below(16) as u32),
                    ..Work::default()
                },
                wall_ns: 0,
            });
        }
        CycleTrace { cycle: 0, phase: Phase::Match, tasks }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Work law: P processors cannot beat total-work / P; and one processor
    /// takes exactly the total work (no contention possible).
    #[test]
    fn work_law_holds(trace in dag_strategy(), workers in 1usize..16) {
        let cfg = SimConfig::new(workers, SimScheduler::Multi);
        let r = simulate_cycle(&trace, &cfg);
        prop_assert!(r.makespan_us + 1e-6 >= r.busy_us / workers as f64,
            "makespan {} < busy {} / {}", r.makespan_us, r.busy_us, workers);
        let uni = simulate_cycle(&trace, &SimConfig::new(1, SimScheduler::Multi));
        prop_assert!((uni.makespan_us - uni.busy_us).abs() < 1e-6 + uni.makespan_us * 1e-9,
            "uniprocessor time {} == busy time {}", uni.makespan_us, uni.busy_us);
    }

    /// Speedup never exceeds the worker count.
    #[test]
    fn speedup_bounded_by_workers(trace in dag_strategy(), workers in 2usize..16,
                                  single in any::<bool>()) {
        let sched = if single { SimScheduler::Single } else { SimScheduler::Multi };
        let uni = simulate_cycle(&trace, &SimConfig::new(1, sched)).makespan_us;
        let par = simulate_cycle(&trace, &SimConfig::new(workers, sched)).makespan_us;
        prop_assert!(uni / par <= workers as f64 + 1e-6, "speedup {} > {}", uni / par, workers);
    }

    /// The simulator is deterministic.
    #[test]
    fn deterministic(trace in dag_strategy(), workers in 1usize..16) {
        let cfg = SimConfig::new(workers, SimScheduler::Single);
        let a = simulate_cycle(&trace, &cfg);
        let b = simulate_cycle(&trace, &cfg);
        prop_assert_eq!(a.makespan_us, b.makespan_us);
        prop_assert_eq!(a.queue_spins, b.queue_spins);
        prop_assert_eq!(a.busy_us, b.busy_us);
    }

    /// Every task is executed exactly once: total busy time equals the sum
    /// of per-task costs regardless of the schedule.
    #[test]
    fn busy_time_is_schedule_invariant(trace in dag_strategy(), w1 in 1usize..16, w2 in 1usize..16) {
        let a = simulate_cycle(&trace, &SimConfig::new(w1, SimScheduler::Multi));
        let b = simulate_cycle(&trace, &SimConfig::new(w2, SimScheduler::Single));
        prop_assert!((a.busy_us - b.busy_us).abs() < 1e-6,
            "busy {} vs {}", a.busy_us, b.busy_us);
        prop_assert_eq!(a.tasks, trace.tasks.len() as u64);
        prop_assert_eq!(b.tasks, trace.tasks.len() as u64);
    }

    /// Cheaper queue operations never make a cycle slower (monotonicity in
    /// the cost model, interference disabled).
    #[test]
    fn queue_cost_monotonicity(trace in dag_strategy(), workers in 1usize..14) {
        let mut cheap = SimConfig::new(workers, SimScheduler::Single);
        cheap.cost = CostModel { queue_op: 5.0, failed_pop_interference: 0.0, ..CostModel::default() };
        let mut costly = cheap;
        costly.cost.queue_op = 60.0;
        let a = simulate_cycle(&trace, &cheap).makespan_us;
        let b = simulate_cycle(&trace, &costly).makespan_us;
        prop_assert!(a <= b + 1e-6, "cheap {} > costly {}", a, b);
    }

    /// The timeline, when recorded, starts and ends at zero tasks in
    /// system and peaks at least once for non-empty traces.
    #[test]
    fn timeline_is_well_formed(trace in dag_strategy()) {
        let mut cfg = SimConfig::new(4, SimScheduler::Multi);
        cfg.timeline = true;
        let r = simulate_cycle(&trace, &cfg);
        prop_assert!(!r.timeline.is_empty());
        prop_assert_eq!(r.timeline.last().unwrap().1, 0, "drains to zero");
        prop_assert!(r.timeline.iter().any(|&(_, n)| n > 0), "has work in flight");
    }
}
