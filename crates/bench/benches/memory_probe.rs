//! modeled — beta-memory probe cost: hash-first indexed probing against
//! the reference whole-line scan, on the eight-puzzle learning run.
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
//! * simulated wall-clock for 1–13 match processes under all three
//!   schedulers at every line count — the indexed trace must be no slower
//!   than the reference trace at every point.
//!
//! Artifact: `BENCH_memory_probe.json`.

use psme_bench::*;
use psme_obs::Json;
use psme_rete::{MatchState, MemoryTable, ReteNetwork, RunTrace, SerialEngine, TaskKind, WmeStore};

/// Line counts under test, most collision-heavy first. The acceptance gate
/// is judged at `LINE_SWEEP[0]`; larger tables show how the advantage
/// shrinks as collisions thin out.
const LINE_SWEEP: [usize; 3] = [8, 64, 512];

/// One captured during-chunking run over `mem`.
fn capture_run(mem: MemoryTable) -> LearningRun {
    let state = MatchState { mem, store: WmeStore::new() };
    capture_learning(SerialEngine::with_state(ReteNetwork::new(), state))
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
                t.scanned += r.work.scanned as u64;
                t.hash_rejects += r.work.hash_rejects as u64;
                t.skipped += r.work.skipped as u64;
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
                && ti.work.scanned == tr.work.scanned
                && ti.work.emitted == tr.work.emitted;
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
        let indexed = capture_run(MemoryTable::new(lines));
        let reference = capture_run(MemoryTable::reference(lines));
        assert_eq!(indexed.chunks, reference.chunks, "index changed the learned chunks");
        assert_eq!(indexed.decisions, reference.decisions, "index changed the trajectory");
        assert!(!indexed.chunks.is_empty(), "the run must actually learn");
        let (idx_trace, ref_trace) = (&indexed.engine.trace, &reference.engine.trace);
        assert_same_dag(idx_trace, ref_trace);

        let ti = beta_totals(idx_trace);
        let tr = beta_totals(ref_trace);
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

        // The indexed trace must be no slower at any simulated point.
        let plot = (li == 0).then(|| format!(" ({lines} lines)"));
        let sweep =
            indexed_vs_baseline("reference", &ref_trace.cycles, &idx_trace.cycles, plot.as_deref());
        sched_json.push((format!("lines_{lines}"), sweep));

        line_rows.push(Json::obj([
            ("lines", Json::from(lines as u64)),
            ("beta_activations", Json::from(ti.acts)),
            ("examined_per_act_reference", Json::float(per_r)),
            ("examined_per_act_indexed", Json::float(per_i)),
            ("examined_reduction", Json::float(reduction)),
            ("hash_rejects_indexed", Json::from(ti.hash_rejects)),
            ("entries_skipped_reference", Json::from(tr.skipped)),
        ]));
    }

    let doc = Json::obj([
        ("bench", Json::from("memory_probe")),
        ("task", Json::from("eight-puzzle scrambled(4,11), during chunking")),
        ("line_sweep", Json::arr(line_rows)),
        ("examined_reduction_at_gate", Json::float(gate_reduction)),
        ("sim_sweep", Json::Obj(sched_json)),
    ]);
    emit_artifact("memory_probe", &doc);
}
