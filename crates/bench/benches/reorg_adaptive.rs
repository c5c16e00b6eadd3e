//! modeled — online adaptive reorganization: bounded worst-case match
//! (`BENCH_reorg_adaptive.json`).
//!
//! The §7 worst-case cross-product chain (`testgen::adversarial_chain`) at
//! increasing load sizes, three arms: *static linear* (the paper's default
//! organization, Θ(n^(G+1)) total work), *static bilinear* (the oracle that
//! knew the right grouping up front, Θ(n)), and *adaptive* (starts linear,
//! the online [`ChainDetector`] flags the chain mid-run and the engine
//! rebuilds it bilinearly at a quiescent boundary). Work is total beta
//! tasks — the adaptive arm's count *includes* the rebuild's §5.2 update
//! tasks, so the surgery pays for itself inside the measurement.
//!
//! Gates (asserted here): adaptive log-log growth exponent ≤
//! [`MAX_EXPONENT`], linear/adaptive work ratio at the largest size ≥
//! [`MIN_RATIO`]×. What arming the detector costs a task it never fires on
//! is the host target `reorg_armed_idle`.

use psme_bench::*;
use psme_obs::Json;
use psme_rete::testgen::{adversarial_chain, AdversarialConfig};
use psme_rete::{plan_bilinear, ChainDetector, NetworkOrg, ReorgConfig, ReteNetwork, SerialEngine};
use std::sync::Arc;

const GROUPS: usize = 3;
const ROUNDS: &[usize] = &[8, 12, 16, 24, 32];

/// The guarantee: the adaptive engine's fitted growth exponent on the
/// adversarial chain stays well under the static linear arm's (which fits ≈ 2.8 over this sweep).
const MAX_EXPONENT: f64 = 2.3;
/// Static-linear over adaptive total work at the largest size, at least.
const MIN_RATIO: f64 = 5.0;

/// Detector tuning for the sweep: default dominance/EWMA/cooldown, but the
/// window floor scaled to the instance — the 2 000-cost default is sized
/// for full agent decision cycles, while here one engine cycle *is* the
/// window and the smallest sweep point must still trip detection before
/// the cross-product dominates.
fn sweep_cfg() -> ReorgConfig {
    ReorgConfig { min_window_cost: 200, ..ReorgConfig::default() }
}

fn static_run(rounds: usize, org: NetworkOrg) -> u64 {
    let inst = adversarial_chain(AdversarialConfig { groups: GROUPS, rounds });
    let mut e = SerialEngine::new(ReteNetwork::new());
    e.add_production(Arc::new(inst.production), org).unwrap();
    for batch in inst.rounds {
        e.apply_changes(batch, vec![]);
    }
    e.total_tasks()
}

struct AdaptiveRun {
    tasks: u64,
    reorg_round: Option<usize>,
    retired: usize,
    chain_before: usize,
    chain_after: usize,
}

/// Linear start; one detector poll per cycle (the quiescent boundary of
/// this single-production workload); act on the first decision.
fn adaptive_run(rounds: usize) -> AdaptiveRun {
    let inst = adversarial_chain(AdversarialConfig { groups: GROUPS, rounds });
    let mut e = SerialEngine::new(ReteNetwork::new());
    e.add_production(Arc::new(inst.production), NetworkOrg::Linear).unwrap();
    e.set_cost_profiling(true);
    let mut det = ChainDetector::new(sweep_cfg());
    let mut run = AdaptiveRun {
        tasks: 0,
        reorg_round: None,
        retired: 0,
        chain_before: 0,
        chain_after: 0,
    };
    for (r, batch) in inst.rounds.into_iter().enumerate() {
        e.apply_changes(batch, vec![]);
        if let Some(d) = e.poll_reorg(&mut det) {
            let out = e.reorganize_production(d.prod_idx, d.org).expect("detector plan builds");
            run.reorg_round = Some(r);
            run.retired = out.retired;
            run.chain_before = d.chain_before;
            run.chain_after = d.chain_after;
        }
    }
    run.tasks = e.total_tasks();
    run
}

/// Least-squares slope of ln(work) against ln(rounds) — the growth
/// exponent of the arm's total-work curve.
fn fit_exponent(points: &[(usize, u64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(r, w) in points {
        let x = (r as f64).ln();
        let y = (w.max(1) as f64).ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

fn main() {
    println!("Adaptive join reorganization: worst-case growth");

    let oracle_plan = {
        let inst = adversarial_chain(AdversarialConfig { groups: GROUPS, rounds: 2 });
        plan_bilinear(&inst.production, 1).expect("adversarial chain has a bilinear plan")
    };
    println!("\nadversarial cross-product, {GROUPS} groups (total beta tasks):");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>7} {:>8}",
        "rounds", "linear", "bilinear", "adaptive", "reorg@", "retired"
    );
    let mut lin = Vec::new();
    let mut bil = Vec::new();
    let mut ada = Vec::new();
    let mut sweep_rows = Vec::new();
    for &rounds in ROUNDS {
        let l = static_run(rounds, NetworkOrg::Linear);
        let b = static_run(rounds, NetworkOrg::Bilinear(oracle_plan.clone()));
        let a = adaptive_run(rounds);
        println!(
            "{rounds:>7} {l:>12} {b:>12} {:>12} {:>7} {:>8}",
            a.tasks,
            a.reorg_round.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
            a.retired
        );
        lin.push((rounds, l));
        bil.push((rounds, b));
        sweep_rows.push(Json::obj([
            ("rounds", Json::from(rounds as u64)),
            ("linear_tasks", Json::from(l)),
            ("bilinear_tasks", Json::from(b)),
            ("adaptive_tasks", Json::from(a.tasks)),
            (
                "reorg_round",
                a.reorg_round.map(|r| Json::from(r as u64)).unwrap_or(Json::Null),
            ),
            ("retired_nodes", Json::from(a.retired as u64)),
            ("chain_before", Json::from(a.chain_before as u64)),
            ("chain_after", Json::from(a.chain_after as u64)),
        ]));
        ada.push((rounds, a.tasks));
    }
    let exp_lin = fit_exponent(&lin);
    let exp_bil = fit_exponent(&bil);
    let exp_ada = fit_exponent(&ada);
    let ratio = lin.last().unwrap().1 as f64 / ada.last().unwrap().1 as f64;
    println!("\ngrowth exponents (log-log fit over the sweep):");
    println!("  linear   {}  (paper: Θ(n^{}) for {GROUPS} groups)", f2(exp_lin), GROUPS + 1);
    println!("  bilinear {}  (oracle grouping, Θ(n))", f2(exp_bil));
    println!("  adaptive {}  (gate: ≤ {MAX_EXPONENT})", f2(exp_ada));
    println!(
        "  linear/adaptive work at {} rounds: {}× (gate: ≥ {MIN_RATIO}×)",
        ROUNDS.last().unwrap(),
        f2(ratio)
    );
    assert!(
        exp_ada <= MAX_EXPONENT,
        "adaptive growth exponent {exp_ada:.2} exceeds {MAX_EXPONENT} \
         (linear arm fitted {exp_lin:.2})"
    );
    assert!(
        ratio >= MIN_RATIO,
        "linear/adaptive work ratio at the largest size is only {ratio:.1}x (need >= {MIN_RATIO}x)"
    );


    let cfg = sweep_cfg();
    let doc = Json::obj([
        ("figure", Json::from("reorg-adaptive")),
        (
            "title",
            Json::from(
                "Online adaptive join reorganization: bounded worst-case match via mid-run bilinear rebuilds",
            ),
        ),
        (
            "config",
            Json::obj([
                ("groups", Json::from(GROUPS as u64)),
                ("rounds", Json::arr(ROUNDS.iter().map(|&r| Json::from(r as u64)))),
                ("detector_min_window_cost", Json::from(cfg.min_window_cost)),
                ("detector_dominance", Json::float(cfg.dominance)),
                ("detector_cooldown", Json::from(cfg.cooldown)),
            ]),
        ),
        (
            "adversarial",
            Json::obj([
                ("sweep", Json::arr(sweep_rows)),
                (
                    "growth_exponent",
                    Json::obj([
                        ("linear", Json::float(exp_lin)),
                        ("bilinear", Json::float(exp_bil)),
                        ("adaptive", Json::float(exp_ada)),
                    ]),
                ),
                ("linear_over_adaptive_at_largest", Json::float(ratio)),
            ]),
        ),
    ]);
    emit_artifact("reorg_adaptive", &doc);
}
