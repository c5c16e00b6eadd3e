//! Property tests for the task queues and engine lifecycle.

use proptest::prelude::*;
use psme_core::{EngineConfig, ParallelEngine, QueueStats, Scheduler, Task, TaskQueues};
use psme_rete::testgen::{random_system, GenConfig, XorShift};
use psme_rete::{Activation, NetworkOrg, ReteBuild, ReteNetwork, Side, Token};

fn beta(n: u32) -> Task {
    Task::Beta(Activation { node: n, side: Side::Left, token: Token::empty(), delta: 1 })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Single-threaded conservation: everything pushed is popped exactly
    /// once, in FIFO order per queue, regardless of the worker doing the
    /// pushing or popping.
    #[test]
    fn queues_conserve_tasks(
        sched in prop::bool::ANY,
        workers in 1usize..8,
        ops in prop::collection::vec((0u8..2, 0usize..8, 0u32..1000), 1..200),
    ) {
        let sched = if sched { Scheduler::SingleQueue } else { Scheduler::MultiQueue };
        let q = TaskQueues::new(sched, workers);
        let mut stats = QueueStats::default();
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for (op, w, n) in ops {
            let w = w % workers;
            if op == 0 {
                q.push(w, beta(n), &mut stats);
                pushed += 1;
            } else if q.pop(w, &mut stats).is_some() {
                popped += 1;
            }
        }
        // Drain the rest.
        while q.pop(0, &mut stats).is_some() {
            popped += 1;
        }
        prop_assert_eq!(pushed, popped);
        prop_assert_eq!(stats.pushes, pushed);
        prop_assert_eq!(stats.pops, popped);
        prop_assert!(q.all_empty());
    }

    /// The parallel engine matches correctly for any (scheduler, workers,
    /// memory-lines) configuration on a small random workload — one cycle
    /// that process 0 runs alone, or one wide enough that it calls the
    /// helpers in — a compact complement to the full differential suite.
    #[test]
    fn engine_config_space(
        seed in 0u64..500,
        workers in 1usize..6,
        single in prop::bool::ANY,
        tiny_memory in prop::bool::ANY,
        wide in prop::bool::ANY,
    ) {
        let sys = random_system(seed, GenConfig { productions: 4, ..GenConfig::default() });
        let mut net = ReteNetwork::new();
        for p in &sys.productions {
            net.add_production(std::sync::Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        let mut eng = ParallelEngine::new(net, EngineConfig {
            workers,
            scheduler: if single { Scheduler::SingleQueue } else { Scheduler::MultiQueue },
            memory_lines: if tiny_memory { 1 } else { 1024 },
            bucket_histograms: false,
        });
        let mut rng = XorShift::new(seed ^ 0xBEEF);
        let n_add = if wide { 96 } else { 6 };
        let adds: Vec<_> = (0..n_add).map(|_| sys.random_wme(&mut rng)).collect();
        eng.apply_changes(adds, vec![]);
        let expected = psme_rete::naive::match_all(
            sys.productions.iter(),
            &eng.with_store(|s| {
                // naive needs the store; clone wmes into a fresh one
                let mut copy = psme_rete::WmeStore::new();
                for (_, w) in s.iter_alive() {
                    copy.add((**w).clone());
                }
                copy
            }),
        );
        prop_assert_eq!(eng.current_instantiations().len(), expected.len());
    }
}
