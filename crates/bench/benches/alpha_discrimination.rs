//! modeled — alpha-network discrimination: the `(field, value)` jump-table
//! index against the linear per-class scan, on the eight-puzzle learning run.
//!
//! This is the regime the index exists for: every chunk built mid-run
//! splices new alpha memories into the network, so under the linear scan
//! the constant-test cost per wme grows with each chunk — exactly the
//! overhead the paper's §5.1 jumptable avoids. The bench runs the same
//! during-chunking eight-puzzle instance twice on the serial engine (the
//! indexed net / the reference net), checks the agent trajectories are
//! identical, and reports:
//!
//! * constant tests evaluated per wme (the ≥2× acceptance criterion),
//! * simulated wall-clock for 1–13 match processes under all three
//!   schedulers on the NS32032 cost model — the indexed trace must be no
//!   slower than the linear trace at every worker count.
//!
//! Artifact: `BENCH_alpha_discrimination.json`.

use psme_bench::*;
use psme_obs::Json;
use psme_rete::{AlphaNet, ReteNetwork, RunTrace, SerialEngine, TaskKind};

struct AlphaTotals {
    wmes: u64,
    tests: u64,
    probes: u64,
}

fn alpha_totals(trace: &RunTrace) -> AlphaTotals {
    let mut t = AlphaTotals { wmes: 0, tests: 0, probes: 0 };
    for c in &trace.cycles {
        for r in &c.tasks {
            if r.kind == TaskKind::Alpha {
                t.wmes += 1;
                t.tests += r.work.scanned as u64;
                t.probes += r.work.probes as u64;
            }
        }
    }
    t
}

fn main() {
    println!("Alpha discrimination: jump-table index vs linear scan");
    println!("eight-puzzle, during chunking (chunks splice memories mid-run)");

    let indexed = capture_learning(SerialEngine::new(ReteNetwork::new()));
    let mut reference = ReteNetwork::new();
    reference.alpha = AlphaNet::reference();
    let linear = capture_learning(SerialEngine::new(reference));
    assert_eq!(indexed.chunks, linear.chunks, "index changed the learned chunks");
    assert_eq!(indexed.decisions, linear.decisions, "index changed the trajectory");
    assert!(!indexed.chunks.is_empty(), "the run must actually learn");

    let ti = alpha_totals(&indexed.engine.trace);
    let tl = alpha_totals(&linear.engine.trace);
    assert_eq!(ti.wmes, tl.wmes, "same wme-change stream");
    let per_wme_i = ti.tests as f64 / ti.wmes.max(1) as f64;
    let per_wme_l = tl.tests as f64 / tl.wmes.max(1) as f64;
    let reduction = per_wme_l / per_wme_i.max(1e-9);
    println!(
        "\nconstant tests per wme: linear {per_wme_l:.2}, indexed {per_wme_i:.2} \
         ({reduction:.2}x reduction, {} chunks learned, {} wme changes)",
        indexed.chunks.len(),
        ti.wmes
    );
    assert!(
        reduction >= 2.0,
        "acceptance: indexed discrimination must at least halve tests/wme \
         (got {reduction:.2}x)"
    );

    let sim_sweep = indexed_vs_baseline(
        "linear",
        &linear.engine.trace.cycles,
        &indexed.engine.trace.cycles,
        Some(""),
    );

    let doc = Json::obj([
        ("bench", Json::from("alpha_discrimination")),
        ("task", Json::from("eight-puzzle scrambled(4,11), during chunking")),
        ("chunks_built", Json::from(indexed.chunks.len() as u64)),
        ("wme_changes", Json::from(ti.wmes)),
        (
            "linear",
            Json::obj([
                ("tests_run", Json::from(tl.tests)),
                ("tests_per_wme", Json::float(per_wme_l)),
            ]),
        ),
        (
            "indexed",
            Json::obj([
                ("tests_run", Json::from(ti.tests)),
                ("tests_per_wme", Json::float(per_wme_i)),
                ("jump_probes", Json::from(ti.probes)),
            ]),
        ),
        ("tests_per_wme_reduction", Json::float(reduction)),
        ("sim_sweep", sim_sweep),
    ]);
    emit_artifact("alpha_discrimination", &doc);
}
