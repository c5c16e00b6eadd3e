//! The simulator must reproduce the qualitative shapes of §6 when fed real
//! traces from the serial engine running the paper's tasks.

use psme_rete::{CycleTrace, NetworkOrg, Phase, ReteBuild, ReteNetwork, SerialEngine};
use psme_sim::{simulate_cycle, simulate_run, total_seconds, SimConfig, SimScheduler};
use psme_tasks::{eight_puzzle, run_serial, scrambled, RunMode};
use std::sync::Arc;

fn eight_puzzle_traces() -> Vec<CycleTrace> {
    let task = eight_puzzle(&scrambled(4, 11));
    let (report, engine) = run_serial(&task, RunMode::WithoutChunking, true);
    assert_eq!(report.stop, psme_soar::StopReason::Halted);
    engine.trace.cycles
}

fn run_speedup(traces: &[CycleTrace], workers: usize, sched: SimScheduler) -> f64 {
    let uni = simulate_run(traces, &SimConfig::new(1, sched));
    let par = simulate_run(traces, &SimConfig::new(workers, sched));
    total_seconds(&uni) / total_seconds(&par)
}

#[test]
fn one_worker_speedup_is_unity() {
    let traces = eight_puzzle_traces();
    let s = run_speedup(&traces, 1, SimScheduler::Single);
    assert!((s - 1.0).abs() < 1e-9);
}

#[test]
fn single_queue_saturates_and_dips() {
    // Figure 6-1: "the speedups in all three tasks are fairly low: the
    // maximum speedup is about 4.2 fold. In fact, the speedup decreases
    // with more than 9 match processes."
    let traces = eight_puzzle_traces();
    let s4 = run_speedup(&traces, 4, SimScheduler::Single);
    let s8 = run_speedup(&traces, 8, SimScheduler::Single);
    let s13 = run_speedup(&traces, 13, SimScheduler::Single);
    assert!(s4 > 1.5, "s4 = {s4}");
    assert!(s8 <= 6.0, "single queue caps low: s8 = {s8}");
    assert!(s13 < s8 * 1.05, "dip or saturation at 13: s13 = {s13}, s8 = {s8}");
}

#[test]
fn multi_queue_beats_single_queue() {
    // Figure 6-4: "parallelism has increased in all three tasks".
    let traces = eight_puzzle_traces();
    let single = run_speedup(&traces, 13, SimScheduler::Single);
    let multi = run_speedup(&traces, 13, SimScheduler::Multi);
    assert!(
        multi > single,
        "multi-queue {multi} should beat single-queue {single}"
    );
}

#[test]
fn queue_spins_grow_with_processes_on_single_queue() {
    // Figure 6-3.
    let traces = eight_puzzle_traces();
    let spins = |w: usize| {
        let rs = simulate_run(&traces, &SimConfig::new(w, SimScheduler::Single));
        let tasks: u64 = rs.iter().map(|r| r.tasks).sum();
        let total: u64 = rs.iter().map(|r| r.queue_spins).sum();
        total as f64 / tasks.max(1) as f64
    };
    let s3 = spins(3);
    let s13 = spins(13);
    assert!(s13 > s3 * 2.0, "spins/task grows: {s3} → {s13}");

    // And multiple queues bring it back down ("the number of spins/task has
    // reduced to about 2-3").
    let rs = simulate_run(&traces, &SimConfig::new(13, SimScheduler::Multi));
    let tasks: u64 = rs.iter().map(|r| r.tasks).sum();
    let multi13 = rs.iter().map(|r| r.queue_spins).sum::<u64>() as f64 / tasks as f64;
    assert!(multi13 < s13, "multi {multi13} < single {s13}");
}

#[test]
fn long_chains_limit_speedup() {
    // §6.2: a production with a long dependent chain cannot go faster than
    // its chain. Build a 30-CE chain, trace its single big cycle, and
    // verify the simulated speedup stays far below the processor count,
    // while a wide independent workload scales much better.
    let mut classes = psme_ops::ClassRegistry::new();
    let chain = psme_rete::testgen::long_chain(&mut classes, 30, "deep-chain");
    let mut net = ReteNetwork::new();
    net.add_production(Arc::new(chain), NetworkOrg::Linear).unwrap();
    let mut eng = SerialEngine::new(net);
    // Preload everything but the chain's anchor…
    let mut wmes = psme_rete::testgen::chain_wmes(&classes, 30);
    let anchor = wmes.remove(0);
    eng.apply_changes(wmes, vec![]);
    // …then trace the cycle where the anchor arrives: the whole chain of
    // dependent activations rebuilds sequentially (the paper's Figure 6-6
    // tail: "it cannot get through the long chain any faster").
    eng.capture = true;
    eng.apply_changes(vec![anchor], vec![]);
    let chain_trace = &eng.trace.cycles[0];
    assert!(chain_trace.tasks.len() >= 30);
    let uni = simulate_cycle(chain_trace, &SimConfig::new(1, SimScheduler::Multi));
    let par = simulate_cycle(chain_trace, &SimConfig::new(11, SimScheduler::Multi));
    let chain_speedup = uni.makespan_us / par.makespan_us;
    assert!(chain_speedup < 4.0, "long chain speedup only {chain_speedup}");

    // Wide workload: many independent productions all firing at once.
    let mut classes2 = psme_ops::ClassRegistry::new();
    classes2.declare_str("w", &["k", "v"]);
    let mut net2 = ReteNetwork::new();
    for i in 0..40 {
        let p = psme_ops::parse_production(
            &format!("(p wide-{i} (w ^k {i} ^v <x>) (w ^k {i} ^v <x>) --> (halt))"),
            &mut classes2,
        )
        .unwrap();
        net2.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
    }
    let mut eng2 = SerialEngine::new(net2);
    eng2.capture = true;
    let adds: Vec<_> = (0..40)
        .map(|i| psme_ops::parse_wme(&format!("(w ^k {i} ^v 1)"), &classes2).unwrap())
        .collect();
    eng2.apply_changes(adds, vec![]);
    let wide_trace = &eng2.trace.cycles[0];
    let uni2 = simulate_cycle(wide_trace, &SimConfig::new(1, SimScheduler::Multi));
    let par2 = simulate_cycle(wide_trace, &SimConfig::new(11, SimScheduler::Multi));
    let wide_speedup = uni2.makespan_us / par2.makespan_us;
    assert!(
        wide_speedup > chain_speedup,
        "wide {wide_speedup} > chain {chain_speedup}"
    );
}

#[test]
fn small_cycles_get_low_speedup() {
    // Figure 6-5's left side: cycles with few tasks cannot amortize the
    // per-cycle overhead.
    let traces = eight_puzzle_traces();
    let cfg1 = SimConfig::new(1, SimScheduler::Multi);
    let cfg11 = SimConfig::new(11, SimScheduler::Multi);
    let mut small = Vec::new();
    let mut large = Vec::new();
    for t in &traces {
        if t.tasks.is_empty() {
            continue;
        }
        let s = simulate_cycle(t, &cfg1).makespan_us / simulate_cycle(t, &cfg11).makespan_us;
        if t.tasks.len() < 20 {
            small.push(s);
        } else if t.tasks.len() > 100 {
            large.push(s);
        }
    }
    assert!(!small.is_empty());
    let avg_small = small.iter().sum::<f64>() / small.len() as f64;
    assert!(avg_small < 3.0, "small cycles speedup {avg_small}");
    if !large.is_empty() {
        let avg_large = large.iter().sum::<f64>() / large.len() as f64;
        assert!(avg_large > avg_small, "large {avg_large} > small {avg_small}");
    }
}

#[test]
fn timeline_shows_burst_then_tail() {
    // Figure 6-6's shape: early burst of available tasks, then a long
    // low-parallelism tail for chain-y cycles.
    let traces = eight_puzzle_traces();
    let big = traces.iter().max_by_key(|t| t.tasks.len()).unwrap();
    let mut cfg = SimConfig::new(11, SimScheduler::Multi);
    cfg.timeline = true;
    let r = simulate_cycle(big, &cfg);
    assert!(!r.timeline.is_empty());
    let peak = r.timeline.iter().map(|&(_, n)| n).max().unwrap();
    assert!(peak >= 4, "some burst exists: peak {peak}");
    // The peak occurs in the first half of the cycle.
    let peak_t = r.timeline.iter().find(|&&(_, n)| n == peak).unwrap().0;
    assert!(peak_t < r.makespan_us * 0.75, "peak at {peak_t} of {}", r.makespan_us);
}

#[test]
fn update_phase_parallelizes_well() {
    // Figure 6-9: the update phase shows high speedups — the whole WM is
    // re-matched, providing abundant independent work.
    let task = eight_puzzle(&scrambled(4, 11));
    let (_, engine) = run_serial(&task, RunMode::DuringChunking, true);
    let update_traces: Vec<CycleTrace> = engine
        .trace
        .cycles
        .iter()
        .filter(|c| c.phase == Phase::Update && c.tasks.len() > 30)
        .cloned()
        .collect();
    assert!(!update_traces.is_empty(), "chunk updates were traced");
    let uni = simulate_run(&update_traces, &SimConfig::new(1, SimScheduler::Multi));
    let par = simulate_run(&update_traces, &SimConfig::new(11, SimScheduler::Multi));
    let s = total_seconds(&uni) / total_seconds(&par);
    assert!(s > 3.0, "update-phase speedup {s}");
}
