//! host — Criterion micro-benchmarks: match throughput, run-time production
//! addition (compile + state update), and task-queue operations.

use criterion::{criterion_group, criterion_main, Criterion};
use psme_core::{QueueStats, Scheduler, Task, TaskQueues};
use psme_rete::testgen::{random_system, GenConfig, XorShift};
use psme_rete::{Activation, NetworkOrg, ReteBuild, ReteNetwork, SerialEngine, Side, Token};
use std::sync::Arc;

fn bench_match_throughput(c: &mut Criterion) {
    let sys = random_system(42, GenConfig { productions: 12, ..GenConfig::default() });
    let mut g = c.benchmark_group("match");
    g.sample_size(20);
    g.bench_function("serial_100_wme_changes", |b| {
        b.iter_batched(
            || {
                let mut net = ReteNetwork::new();
                for p in &sys.productions {
                    net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
                }
                let mut rng = XorShift::new(7);
                let wmes: Vec<_> = (0..100).map(|_| sys.random_wme(&mut rng)).collect();
                (SerialEngine::new(net), wmes)
            },
            |(mut eng, wmes)| {
                for w in wmes {
                    eng.apply_changes(vec![w], vec![]);
                }
                eng.total_tasks()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_runtime_addition(c: &mut Criterion) {
    let sys = random_system(43, GenConfig { productions: 10, ..GenConfig::default() });
    let mut g = c.benchmark_group("runtime_add");
    g.sample_size(20);
    g.bench_function("add_production_with_update", |b| {
        b.iter_batched(
            || {
                let mut net = ReteNetwork::new();
                for p in &sys.productions[..9] {
                    net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
                }
                let mut eng = SerialEngine::new(net);
                let mut rng = XorShift::new(9);
                let wmes: Vec<_> = (0..60).map(|_| sys.random_wme(&mut rng)).collect();
                eng.apply_changes(wmes, vec![]);
                (eng, Arc::new(sys.productions[9].clone()))
            },
            |(mut eng, p)| eng.add_production(p, NetworkOrg::Linear).unwrap().update_tasks,
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("queues");
    g.sample_size(30);
    for (label, sched) in [("single", Scheduler::SingleQueue), ("multi", Scheduler::MultiQueue)] {
        g.bench_function(format!("push_pop_1000_{label}"), |b| {
            let q = TaskQueues::new(sched, 4);
            let mut stats = QueueStats::default();
            b.iter(|| {
                for i in 0..1000u32 {
                    q.push(
                        (i % 4) as usize,
                        Task::Beta(Activation {
                            node: i,
                            side: Side::Left,
                            token: Token::empty(),
                            delta: 1,
                        }),
                        &mut stats,
                    );
                }
                let mut n = 0;
                while q.pop(0, &mut stats).is_some() {
                    n += 1;
                }
                n
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_match_throughput, bench_runtime_addition, bench_queues);
criterion_main!(benches);
