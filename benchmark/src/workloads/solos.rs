//! The two solo workloads: agents run in this process, no server.
//!
//! Both run whole rounds of a fixed list of operations until `--seconds`
//! has passed. Every round runs the same instances, so a count per
//! decision reads exactly the same however many rounds fit.

use super::{parse_us_per_production, sojourn_values, Failures, RunOutput};
use crate::instances::{oracle, pick_boards, Outcome, Plan, TaskSpec};
use crate::metrics::{complete_per_layer, EndToEnd, Slot, Values};
use crate::solo::{run_op, Engine, OpResult, SoloAgg};
use crate::stats::median;
use crate::sys::{HeapSampler, Stopwatch};
use crate::trace::{self, Kind, Tracer};
use psme_core::ParallelEngine;
use psme_rete::SerialEngine;
use psme_soar::Agent;
use std::time::Instant;

/// One operation of a round.
#[derive(Clone)]
struct Op {
    spec: TaskSpec,
    plan: Plan,
    /// Preload the chunks the previous operation learned (*after
    /// chunking*: a fresh agent on the same input).
    after_previous: bool,
}

/// What a user of a solo agent pays before its first decision: parse the
/// task, construct the engine, compile the productions, create the top
/// goal. Once per distinct task of the round.
fn setup_once<E: Engine<Source = ()>>(ops: &[Op]) -> f64 {
    let t0 = Instant::now();
    let mut seen: Vec<&TaskSpec> = Vec::new();
    for op in ops {
        if !seen.contains(&&op.spec) {
            seen.push(&op.spec);
            let task = op.spec.build();
            let mut agent = Agent::new(E::make(&()), task.classes.clone());
            task.install(&mut agent);
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Run every operation of the round once on engine `E`. With a tracer
/// installed, operation `i` is request `first_request + i`, and `keep`
/// stores its spans for the trace file.
fn round<E: Engine<Source = ()>>(
    ops: &[Op],
    traced: bool,
    first_request: u32,
    keep: bool,
) -> Vec<OpResult> {
    let mut out: Vec<OpResult> = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        trace::with(|t| t.set_request(first_request + i as u32, keep));
        let preload = if op.after_previous {
            out[i - 1].chunks.clone()
        } else {
            Vec::new()
        };
        out.push(run_op::<E>(&(), &op.spec, op.plan, &preload, traced));
    }
    out
}

/// Seconds a round's operations took.
fn busy_s(results: &[OpResult]) -> f64 {
    results.iter().map(|r| r.wall_s).sum()
}

/// Compare a round run on engine `E` with the expected outcomes. The
/// parallel engine's are compared without the work counter it does not
/// reproduce (see [`Outcome::without_work_counters`]).
fn check_round<E: Engine>(
    ops: &[Op],
    results: &[OpResult],
    expected: &[Outcome],
    failures: &mut Failures,
) {
    for ((op, r), want) in ops.iter().zip(results).zip(expected) {
        let got = if !E::EXACT_WORK_COUNTERS {
            r.outcome.clone().without_work_counters()
        } else {
            r.outcome.clone()
        };
        failures.attempt(
            want.check(&got)
                .map_err(|e| format!("{}: {e}", op.spec.label())),
        );
    }
}

/// What a traced run keeps of its untraced rounds, for `load.*`.
#[derive(Default)]
struct Untraced {
    /// Milliseconds each operation took.
    ms: Vec<f64>,
    cpu_s: f64,
    decisions: u64,
}

impl Untraced {
    fn add(&mut self, results: &[OpResult]) {
        self.ms.extend(results.iter().map(|r| r.wall_s * 1e3));
        self.cpu_s += results.iter().map(|r| r.cpu_s).sum::<f64>();
        self.decisions += decisions(results);
    }
}

fn decisions(results: &[OpResult]) -> u64 {
    results.iter().map(|r| r.outcome.stats.decisions).sum()
}

/// The untraced run of a solo workload on engine `E`: whole rounds until
/// the deadline, each after `setups_per_round` timed set-ups. Set-ups sit
/// between the rounds, not before the first, so that `setup_s` is sampled
/// over the same stretch of host time as the rates are. Operation `i` of
/// the round is slot `i`.
fn end_to_end<E: Engine<Source = ()>>(
    workload: &str,
    ops: &[Op],
    expected: &[Outcome],
    seconds: f64,
    heap_rounds: usize,
    setups_per_round: usize,
) -> RunOutput {
    let heap = HeapSampler::start();
    let mut failures = Failures::default();
    let mut setups = Vec::new();
    let mut slots: Vec<Slot> = expected
        .iter()
        .map(|want| Slot {
            ops: 1,
            decisions: want.stats.decisions,
            ..Slot::default()
        })
        .collect();
    let watch = Stopwatch::start();
    let mut rounds = 0;
    while watch.wall_seconds() < seconds {
        setups.extend((0..setups_per_round).map(|_| setup_once::<E>(ops)));
        let results = round::<E>(ops, false, 0, false);
        check_round::<E>(ops, &results, expected, &mut failures);
        for (slot, r) in slots.iter_mut().zip(&results) {
            slot.wall_s.push(r.wall_s);
            slot.cpu_s.push(r.cpu_s);
        }
        // The process-wide symbol table grows with every gensym of every
        // run, so the heap is read after a fixed number of rounds.
        rounds += 1;
        if rounds == heap_rounds {
            heap.freeze();
        }
    }
    let e2e = EndToEnd {
        setups,
        slots,
        peak_heap_mib: heap.finish(),
    };
    let mut report = failures.into_report(workload, false, e2e.values());
    report.notes.push(e2e.whole_run_note());
    RunOutput {
        report,
        tracer: None,
    }
}

/// `solo_learn`: eight eight-puzzle boards (depth 8) that the greedy
/// strategy solves, strips with 24 rooms, cypress with 2 and with 4 roots,
/// each run *during chunking* and then *after chunking* on a fresh agent.
///
/// Boards the strategy does not solve are left out: they run to the
/// 400-decision limit at a cost that differs twofold from board to board,
/// and two of them made `decisions_per_s` swing by a quarter with the
/// seed.
fn learn_ops(seed: u64) -> Vec<Op> {
    let boards = pick_boards(8, Plan::LEARNING, 8, 0, seed);
    let mut specs: Vec<TaskSpec> = boards
        .solved
        .iter()
        .map(|&seed| TaskSpec::Eight { depth: 8, seed })
        .collect();
    specs.push(TaskSpec::Strips { rooms: 24 });
    specs.push(TaskSpec::Cypress { roots: 2 });
    specs.push(TaskSpec::Cypress { roots: 4 });
    specs
        .into_iter()
        .flat_map(|spec| {
            [
                Op {
                    spec: spec.clone(),
                    plan: Plan::LEARNING,
                    after_previous: false,
                },
                Op {
                    spec,
                    plan: Plan::PLAIN,
                    after_previous: true,
                },
            ]
        })
        .collect()
}

/// The per-layer values every traced solo run ends with.
fn common_values(
    tracer: &Tracer,
    ops: &[Op],
    overhead: f64,
    failures: &Failures,
    untraced: Untraced,
) -> Values {
    let build = tracer.total(Kind::InstanceBuild);
    let mut values = sojourn_values(untraced.ms);
    values.extend([
        (
            "load.cpu_ms_per_decision",
            untraced.cpu_s * 1e3 / untraced.decisions.max(1) as f64,
        ),
        (
            "tasks.instance_build_us",
            build.ns as f64 / 1e3 / build.count.max(1) as f64,
        ),
        (
            "ops.parse_us_per_production",
            parse_us_per_production(ops.iter().map(|o| &o.spec)),
        ),
        ("trace.overhead_frac", overhead),
        ("load.failed_frac", failures.frac()),
        ("load.peak_rss_mb", crate::sys::peak_rss_mib()),
    ]);
    values
}

pub fn solo_learn(seed: u64, seconds: f64, traced: bool) -> RunOutput {
    let ops = learn_ops(seed);
    // The measured engine is the oracle's engine; the first round, outside
    // the timed window, is both the warm-up and the expected results.
    let expected: Vec<Outcome> = round::<SerialEngine>(&ops, false, 0, false)
        .into_iter()
        .map(|r| r.outcome)
        .collect();
    if !traced {
        return end_to_end::<SerialEngine>("solo_learn", &ops, &expected, seconds, 10, 1);
    }

    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut agg = SoloAgg::default();
    let mut failures = Failures::default();
    let (mut traced_dps, mut plain_dps) = (Vec::new(), Vec::new());
    let mut untraced = Untraced::default();
    let watch = Stopwatch::start();
    let mut rounds = 0u32;
    while watch.wall_seconds() < seconds || rounds < 2 {
        // Alternate traced and untraced rounds: their ratio is the tracing
        // overhead. The first traced round's spans go to the trace file.
        let with_trace = rounds.is_multiple_of(2);
        let results;
        if with_trace {
            trace::install(tracer);
            results = round::<SerialEngine>(&ops, true, 0, rounds == 0);
            tracer = trace::take().expect("installed above");
        } else {
            results = round::<SerialEngine>(&ops, false, 0, false);
            untraced.add(&results);
        }
        let dps = decisions(&results) as f64 / busy_s(&results);
        check_round::<SerialEngine>(&ops, &results, &expected, &mut failures);
        results
            .iter()
            .filter_map(|r| r.detail.as_ref())
            .for_each(|d| agg.add(d));
        if with_trace {
            &mut traced_dps
        } else {
            &mut plain_dps
        }
        .push(dps);
        rounds += 1;
    }

    let mut notes = Vec::new();
    let mut values: Values = agg.soar_values(&tracer, &mut notes);
    values.extend(agg.rete_values(&tracer));
    let overhead = 1.0 - median(&traced_dps) / median(&plain_dps);
    values.extend(common_values(&tracer, &ops, overhead, &failures, untraced));
    notes.push(tracer.layer_shares());
    let mut report = failures.into_report("solo_learn", true, complete_per_layer(values));
    report.notes = notes;
    RunOutput {
        report,
        tracer: Some(tracer),
    }
}

/// `solo_parallel`: the paper's engine on cycles of ten tasks and of
/// thousands — cypress with 6 roots without chunking, cypress with 8 roots
/// during chunking, and an eight-puzzle board run to the decision limit.
fn parallel_ops(seed: u64) -> Vec<Op> {
    let board = pick_boards(12, Plan::PLAIN, 0, 1, seed).unsolved[0];
    vec![
        Op {
            spec: TaskSpec::Cypress { roots: 6 },
            plan: Plan::PLAIN,
            after_previous: false,
        },
        Op {
            spec: TaskSpec::Cypress { roots: 8 },
            plan: Plan::LEARNING,
            after_previous: false,
        },
        Op {
            spec: TaskSpec::Eight {
                depth: 12,
                seed: board,
            },
            plan: Plan::PLAIN,
            after_previous: false,
        },
    ]
}

pub fn solo_parallel(seed: u64, seconds: f64, traced: bool) -> RunOutput {
    let ops = parallel_ops(seed);
    // Bit-for-bit against the serial engine, the one work counter aside.
    let expected: Vec<Outcome> = ops
        .iter()
        .map(|op| oracle(&op.spec.build(), &[], op.plan).without_work_counters())
        .collect();
    if !traced {
        // One unmeasured round first: spawn-and-join of match processes,
        // page faults of a first run.
        round::<ParallelEngine>(&ops, false, 0, false);
        return end_to_end::<ParallelEngine>("solo_parallel", &ops, &expected, seconds, 3, 4);
    }

    // Three kinds of round in turn: parallel traced, the same inputs on the
    // serial engine traced (for `rete.*` and the speed-up), parallel
    // untraced (for the tracing overhead).
    let origin = Instant::now();
    let (mut par_tracer, mut ser_tracer) = (Tracer::new(origin, 0), Tracer::new(origin, 1));
    let (mut par, mut ser) = (SoloAgg::default(), SoloAgg::default());
    let mut failures = Failures::default();
    let (mut traced_dps, mut plain_dps) = (Vec::new(), Vec::new());
    let mut untraced = Untraced::default();
    let watch = Stopwatch::start();
    let mut rounds = 0u32;
    while watch.wall_seconds() < seconds || rounds < 3 {
        let first = rounds < 3;
        let t0 = Instant::now();
        match rounds % 3 {
            0 => {
                trace::install(par_tracer);
                let results = round::<ParallelEngine>(&ops, true, 0, first);
                traced_dps.push(decisions(&results) as f64 / t0.elapsed().as_secs_f64());
                par_tracer = trace::take().expect("installed above");
                check_round::<ParallelEngine>(&ops, &results, &expected, &mut failures);
                results
                    .iter()
                    .filter_map(|r| r.detail.as_ref())
                    .for_each(|d| par.add(d));
            }
            1 => {
                trace::install(ser_tracer);
                let results = round::<SerialEngine>(&ops, true, ops.len() as u32, first);
                ser_tracer = trace::take().expect("installed above");
                results
                    .iter()
                    .filter_map(|r| r.detail.as_ref())
                    .for_each(|d| ser.add(d));
            }
            _ => {
                let results = round::<ParallelEngine>(&ops, false, 0, false);
                plain_dps.push(decisions(&results) as f64 / t0.elapsed().as_secs_f64());
                untraced.add(&results);
                check_round::<ParallelEngine>(&ops, &results, &expected, &mut failures);
            }
        }
        rounds += 1;
    }

    let mut notes = Vec::new();
    let mut values: Values = par.soar_values(&par_tracer, &mut notes);
    values.extend(ser.rete_values(&ser_tracer));
    values.extend(par.core_values(&par_tracer, ser.match_us_per_decision(&ser_tracer)));
    let overhead = 1.0 - median(&traced_dps) / median(&plain_dps);
    values.extend(common_values(
        &par_tracer,
        &ops,
        overhead,
        &failures,
        untraced,
    ));
    notes.push(format!("parallel rounds, {}", par_tracer.layer_shares()));
    notes.push(format!("serial rounds, {}", ser_tracer.layer_shares()));
    let mut report = failures.into_report("solo_parallel", true, complete_per_layer(values));
    report.notes = notes;
    par_tracer.absorb(ser_tracer);
    RunOutput {
        report,
        tracer: Some(par_tracer),
    }
}
