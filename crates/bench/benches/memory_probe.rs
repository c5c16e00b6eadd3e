//! Beta-memory probe cost: hash-first indexed probing against the
//! reference whole-line scan, on the eight-puzzle learning run.
//!
//! This is the regime the per-node line index exists for: every beta
//! activation locks a line and searches the opposite memory, and on small
//! tables many nodes co-hash onto every line, so the reference scan
//! traverses mostly foreign entries (`skipped`) and structurally compares
//! every same-node candidate. The indexed probe binary-searches the node's
//! run and rejects non-matching candidates on a stored 64-bit key hash
//! before any structural compare. The bench captures the same
//! during-chunking eight-puzzle instance under both modes across a sweep
//! of line counts, checks the trajectories and task DAGs are identical
//! (apart from the cost columns), and reports:
//!
//! * opposite-memory entries examined per beta activation — candidates
//!   plus foreign traversals — (the ≥2× acceptance criterion, judged at
//!   the most collision-heavy line count),
//! * host wall-clock for the serial run (min of 3),
//! * simulated wall-clock for 1–13 match processes under all three
//!   schedulers at every line count — the indexed trace must be no slower
//!   than the reference trace at every point.
//!
//! Artifact: `BENCH_memory_probe.json`.

use psme_bench::*;
use psme_obs::Json;
use psme_rete::{MatchState, MemoryTable, ReteNetwork, RunTrace, SerialEngine, TaskKind, WmeStore};
use psme_sim::{simulate_run, total_seconds, SimConfig, SimScheduler};
use psme_soar::SoarTask;
use psme_tasks::{eight_puzzle, scrambled, DECISION_BUDGET};
use std::time::Instant;

const SCHEDULERS: [(&str, SimScheduler); 3] = [
    ("single", SimScheduler::Single),
    ("multi", SimScheduler::Multi),
    ("work-stealing", SimScheduler::WorkStealing),
];

/// Line counts under test, most collision-heavy first. The acceptance gate
/// is judged at `LINE_SWEEP[0]`; larger tables show how the advantage
/// shrinks as collisions thin out.
const LINE_SWEEP: [usize; 3] = [8, 64, 512];

fn bench_task() -> SoarTask {
    eight_puzzle(&scrambled(4, 11))
}

struct ProbeRun {
    trace: RunTrace,
    chunks: Vec<String>,
    decisions: u64,
    lines_compacted: u64,
}

/// A serial engine over the indexed table, or over the reference
/// whole-line-scan table.
fn engine(lines: usize, use_index: bool) -> SerialEngine {
    let mem = if use_index { MemoryTable::new(lines) } else { MemoryTable::reference(lines) };
    SerialEngine::with_state(ReteNetwork::new(), MatchState { mem, store: WmeStore::new() })
}

/// One captured during-chunking run with the memory index on/off.
fn capture_run(lines: usize, use_index: bool) -> ProbeRun {
    let task = bench_task();
    let mut engine = engine(lines, use_index);
    engine.capture = true;
    let mut agent = task.agent(engine);
    agent.learning = true;
    agent.run(DECISION_BUDGET);
    ProbeRun {
        trace: agent.engine.trace.clone(),
        chunks: agent
            .learned_chunks()
            .iter()
            .map(|c| psme_ops::sym_name(c.name).to_string())
            .collect(),
        decisions: agent.stats.decisions,
        lines_compacted: agent.engine.state.mem.lines_compacted_total(),
    }
}

/// Host wall for the same run, uncaptured, min of `n`.
fn host_wall_ms(lines: usize, use_index: bool, n: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let task = bench_task();
        let mut agent = task.agent(engine(lines, use_index));
        agent.learning = true;
        let t0 = Instant::now();
        agent.run(DECISION_BUDGET);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

#[derive(Default)]
struct BetaTotals {
    acts: u64,
    scanned: u64,
    hash_rejects: u64,
    skipped: u64,
}

impl BetaTotals {
    /// Opposite-memory entries the probe actually walked: same-node
    /// candidates plus foreign co-hashed entries. The indexed probe never
    /// walks foreign entries, so its `skipped` term is structurally zero.
    fn examined_per_act(&self) -> f64 {
        (self.scanned + self.skipped) as f64 / self.acts.max(1) as f64
    }
}

fn beta_totals(trace: &RunTrace) -> BetaTotals {
    let mut t = BetaTotals::default();
    for c in &trace.cycles {
        for r in &c.tasks {
            if matches!(r.kind, TaskKind::Join | TaskKind::Neg) {
                t.acts += 1;
                t.scanned += r.scanned as u64;
                t.hash_rejects += r.hash_rejects as u64;
                t.skipped += r.skipped as u64;
            }
        }
    }
    t
}

/// The two traces must describe the same computation: same DAG, same
/// per-task outcomes — only the probe-cost columns may differ.
fn assert_same_dag(idx: &RunTrace, reference: &RunTrace) {
    assert_eq!(idx.cycles.len(), reference.cycles.len(), "cycle counts diverge");
    for (ci, cr) in idx.cycles.iter().zip(&reference.cycles) {
        assert_eq!(ci.tasks.len(), cr.tasks.len(), "task counts diverge in a cycle");
        for (ti, tr) in ci.tasks.iter().zip(&cr.tasks) {
            let same = ti.id == tr.id
                && ti.parent == tr.parent
                && ti.node == tr.node
                && ti.kind == tr.kind
                && ti.side == tr.side
                && ti.delta == tr.delta
                && ti.scanned == tr.scanned
                && ti.emitted == tr.emitted;
            assert!(same, "task DAGs diverge: {ti:?} vs {tr:?}");
        }
    }
}

fn main() {
    println!("Beta-memory probes: per-node index + hash gate vs whole-line scan");
    println!("eight-puzzle, during chunking, line counts {LINE_SWEEP:?}");

    let mut line_rows = Vec::new();
    let mut sched_json: Vec<(String, Json)> = Vec::new();
    let mut gate_reduction = 0.0;
    for (li, &lines) in LINE_SWEEP.iter().enumerate() {
        let indexed = capture_run(lines, true);
        let reference = capture_run(lines, false);
        assert_eq!(indexed.chunks, reference.chunks, "index changed the learned chunks");
        assert_eq!(indexed.decisions, reference.decisions, "index changed the trajectory");
        assert!(!indexed.chunks.is_empty(), "the run must actually learn");
        assert_same_dag(&indexed.trace, &reference.trace);

        let ti = beta_totals(&indexed.trace);
        let tr = beta_totals(&reference.trace);
        assert_eq!(ti.acts, tr.acts, "same beta activation stream");
        assert_eq!(ti.scanned, tr.scanned, "candidates are mode-independent");
        assert_eq!(ti.skipped, 0, "run bounds never walk foreign entries");
        assert_eq!(tr.hash_rejects, 0, "the reference scan never hash-rejects");
        let per_i = ti.examined_per_act();
        let per_r = tr.examined_per_act();
        let reduction = per_r / per_i.max(1e-9);
        println!(
            "\n{lines} lines: entries examined per activation — reference {per_r:.2}, \
             indexed {per_i:.2} ({reduction:.2}x reduction; {} activations, \
             {} hash rejects, {} chunks)",
            ti.acts,
            ti.hash_rejects,
            indexed.chunks.len()
        );
        if li == 0 {
            gate_reduction = reduction;
            assert!(
                reduction >= 2.0,
                "acceptance: the index must at least halve entries examined per \
                 activation on the collision-heavy table (got {reduction:.2}x)"
            );
        }

        // Simulated 1–13 process sweep under all three schedulers: the
        // indexed trace must be no slower at any point.
        let mut per_sched = Vec::new();
        for (label, sched) in SCHEDULERS {
            let mut rows = Vec::new();
            let mut points = Vec::new();
            for &w in WORKER_SWEEP {
                let cfg = SimConfig::new(w, sched);
                let s_r = total_seconds(&simulate_run(&reference.trace.cycles, &cfg));
                let s_i = total_seconds(&simulate_run(&indexed.trace.cycles, &cfg));
                assert!(
                    s_i <= s_r,
                    "acceptance: indexed simulated wall {s_i:.4}s exceeds reference \
                     {s_r:.4}s at {w} workers under {label} ({lines} lines)"
                );
                points.push((w, s_r / s_i.max(1e-12)));
                rows.push(Json::obj([
                    ("workers", Json::from(w as u64)),
                    ("reference_s", Json::float(s_r)),
                    ("indexed_s", Json::float(s_i)),
                    ("speedup_vs_reference", Json::float(s_r / s_i.max(1e-12))),
                ]));
            }
            if li == 0 {
                print_curve(
                    &format!("{label} — indexed speedup over reference vs processes ({lines} lines)"),
                    &points,
                    "x",
                );
            }
            per_sched.push((label.to_string(), Json::arr(rows)));
        }
        sched_json.push((format!("lines_{lines}"), Json::Obj(per_sched)));

        line_rows.push(Json::obj([
            ("lines", Json::from(lines as u64)),
            ("beta_activations", Json::from(ti.acts)),
            ("examined_per_act_reference", Json::float(per_r)),
            ("examined_per_act_indexed", Json::float(per_i)),
            ("examined_reduction", Json::float(reduction)),
            ("hash_rejects_indexed", Json::from(ti.hash_rejects)),
            ("entries_skipped_reference", Json::from(tr.skipped)),
            ("lines_compacted_indexed", Json::from(indexed.lines_compacted)),
            ("lines_compacted_reference", Json::from(reference.lines_compacted)),
        ]));
    }

    // Host serial wall (min of 3) at the collision-heavy line count: the
    // indexed probe must actually be cheaper where collisions are dense.
    let wall_i = host_wall_ms(LINE_SWEEP[0], true, 3);
    let wall_r = host_wall_ms(LINE_SWEEP[0], false, 3);
    println!(
        "\nhost serial wall, {} lines (min of 3): reference {wall_r:.1} ms, indexed {wall_i:.1} ms",
        LINE_SWEEP[0]
    );

    let doc = Json::obj([
        ("bench", Json::from("memory_probe")),
        ("task", Json::from("eight-puzzle scrambled(4,11), during chunking")),
        ("line_sweep", Json::arr(line_rows)),
        ("examined_reduction_at_gate", Json::float(gate_reduction)),
        (
            "host_wall_ms_serial",
            Json::obj([
                ("lines", Json::from(LINE_SWEEP[0] as u64)),
                ("reference", Json::float(wall_r)),
                ("indexed", Json::float(wall_i)),
            ]),
        ),
        ("sim_sweep", Json::Obj(sched_json)),
    ]);
    emit_artifact("memory_probe", &doc);
}
