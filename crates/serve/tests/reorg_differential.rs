//! Adaptive-reorganization differential gates.
//!
//! A mid-run bilinear rebuild is a network-organization change only: it
//! must never change what the engine computes. Every test here pins that —
//! conflict-set deltas, full learning runs, and served sessions must be
//! **bit-for-bit** equal with and without a reorganization in the middle,
//! under all three schedulers, solo and inside a 64-session serve where the
//! rebuild lands in each session's private overlay. The adversarial
//! instances are additionally checked against the naive matcher oracle, so
//! "equal" can never mean "equally wrong".

use psme_core::{EngineConfig, MatchEngine, ParallelEngine, Scheduler};
use psme_ops::{intern, parse_program, parse_wme, ClassRegistry, Instantiation};
use psme_rete::testgen::{adversarial_chain, AdversarialConfig};
use psme_rete::{
    naive, plan_bilinear, NetworkOrg, ReorgConfig, ReteNetwork, ReteView, SerialEngine,
};
use psme_serve::{build_topology, serve, ServeConfig, SessionSpec};
use psme_soar::{declare_arch_classes, Agent, SoarTask, StopReason};
use psme_tasks::{eight_puzzle, scrambled};
use std::sync::Arc;

fn by_wmes(insts: &mut [Instantiation]) {
    insts.sort_by(|a, b| a.wmes.cmp(&b.wmes));
}

/// Engine-level gate on the worst-case workload itself: load an
/// adversarial cross-product instance round by round, rebuild the
/// production bilinearly in the middle of the load, and require every
/// per-round conflict-set delta to equal the never-reorganized engine's —
/// with the final conflict set of *both* engines checked against the naive
/// matcher.
#[test]
fn midrun_reorg_preserves_cs_deltas_and_matches_the_naive_oracle() {
    for groups in [2usize, 3] {
        let cfg = AdversarialConfig { groups, rounds: 10 };
        let inst = adversarial_chain(cfg);
        let plan = plan_bilinear(&inst.production, 1).expect("adversarial plan");
        assert!(plan.len() >= 3, "anchor prefix + one group per item/partner pair");

        let mut never = SerialEngine::new(ReteNetwork::new());
        never
            .add_production(Arc::new(inst.production.clone()), NetworkOrg::Linear)
            .expect("linear build");
        let mut reorged = SerialEngine::new(ReteNetwork::new());
        reorged
            .add_production(Arc::new(inst.production.clone()), NetworkOrg::Linear)
            .expect("linear build");

        for (r, batch) in inst.rounds.iter().enumerate() {
            let a = never.apply_changes(batch.clone(), vec![]);
            let b = reorged.apply_changes(batch.clone(), vec![]);
            assert_eq!(a.cs.added, b.cs.added, "{groups}g round {r}: added");
            assert_eq!(a.cs.removed, b.cs.removed, "{groups}g round {r}: removed");
            if r == 4 {
                let out = reorged
                    .reorganize_production(0, NetworkOrg::Bilinear(plan.clone()))
                    .expect("mid-load rebuild");
                assert!(out.retired > 0, "the old linear chain must retire");
            }
        }

        let mut oracle = naive::match_production(&inst.production, &never.state.store);
        let mut lin = never.current_instantiations();
        let mut bil = reorged.current_instantiations();
        by_wmes(&mut oracle);
        by_wmes(&mut lin);
        by_wmes(&mut bil);
        assert_eq!(lin, oracle, "{groups}g: linear engine vs naive oracle");
        assert_eq!(bil, oracle, "{groups}g: reorganized engine vs naive oracle");
        assert_eq!(oracle.len(), 1, "selection keeps the conflict set at one instantiation");
    }
}

/// A synthetic Soar task whose elaboration phase *generates* the
/// adversarial load: each wave the `pump*tick` production advances a
/// counter and adds one item + one unselected partner per group, feeding
/// the chain-dominant `pump*cross` production (items join only on the
/// shared anchor — a pure cross-product under linear organization) while
/// the `^sel yes` alpha constant keeps its conflict set at exactly one
/// instantiation. Deterministic, and heavy enough that an eagerly
/// configured detector flags `pump*cross` on the first decision.
fn pump_task(groups: usize, waves: i64) -> SoarTask {
    let mut classes = ClassRegistry::new();
    declare_arch_classes(&mut classes);
    classes.declare_str("anchor", &["id"]);
    classes.declare_str("item", &["grp", "anchor", "val"]);
    classes.declare_str("partner", &["grp", "anchor", "val", "sel"]);
    classes.declare_str("counter", &["val"]);
    classes.declare_str("fence", &["max"]);

    let mut makes = String::new();
    for g in 0..groups {
        makes.push_str(&format!(
            "(make item ^grp {g} ^anchor a0 ^val <n>) \
             (make partner ^grp {g} ^anchor a0 ^val <n> ^sel no) "
        ));
    }
    // Add-only (Soar elaboration is monotonic): each new counter value is
    // a fresh instantiation, so refraction advances the chain one wave at
    // a time until the fence stops it.
    let mut src = format!(
        "(p pump*tick (counter ^val <n>) (fence ^max {{ > <n> }})
           --> (bind <m> (compute <n> + 1)) (make counter ^val <m>) {makes})\n"
    );
    let mut ces = String::from("(anchor ^id <a>) ");
    for g in 0..groups {
        ces.push_str(&format!("(item ^grp {g} ^anchor <a> ^val <v{g}>) "));
    }
    for g in 0..groups {
        ces.push_str(&format!("(partner ^grp {g} ^anchor <a> ^val <v{g}> ^sel yes) "));
    }
    src.push_str(&format!("(p pump*cross {ces} --> (write cross))\n"));

    let productions: Vec<Arc<_>> = parse_program(&src, &mut classes)
        .expect("pump task parses")
        .into_iter()
        .map(Arc::new)
        .collect();

    let w = |s: &str, classes: &ClassRegistry| parse_wme(s, classes).unwrap();
    let mut init = vec![
        w("(anchor ^id a0)", &classes),
        w("(counter ^val 0)", &classes),
        w(&format!("(fence ^max {waves})"), &classes),
    ];
    // Exactly one selected item/partner pair per group, at a value the
    // pump never reproduces: the cross production's single instantiation.
    for g in 0..groups {
        init.push(w(&format!("(item ^grp {g} ^anchor a0 ^val 999)"), &classes));
        init.push(w(&format!("(partner ^grp {g} ^anchor a0 ^val 999 ^sel yes)"), &classes));
    }
    SoarTask {
        name: "pump".into(),
        classes,
        productions,
        init_wmes: init,
        identifiers: vec![intern("a0")],
    }
}

const BUDGET: u64 = 60;

fn run_to_stop<E: MatchEngine>(agent: &mut Agent<E>) -> StopReason {
    loop {
        if let Some(r) = agent.step(BUDGET) {
            return r;
        }
    }
}

struct RunOutcome {
    stop: StopReason,
    stats: psme_soar::AgentStats,
    chunks: Vec<String>,
    output: Vec<String>,
    wm: Vec<String>,
    cs: Vec<Instantiation>,
}

/// Run a task on the parallel engine; when `reorg_at` is set, step that
/// many decisions, force-rebuild the named production bilinearly, then run
/// to the stop — the forced rebuild bypasses the detector so invisibility
/// is pinned independently of detection heuristics.
fn parallel_run(
    task: &SoarTask,
    sched: Scheduler,
    reorg_at: Option<(u64, &str)>,
) -> RunOutcome {
    let config = EngineConfig { workers: 2, scheduler: sched, ..Default::default() };
    let engine = ParallelEngine::new(ReteNetwork::new(), config);
    let mut agent = task.agent(engine);
    agent.learning = true;
    let mut stop = None;
    if let Some((after, name)) = reorg_at {
        for _ in 0..after {
            if let Some(r) = agent.step(BUDGET) {
                stop = Some(r);
                break;
            }
        }
        assert!(stop.is_none(), "task must still be running at the rebuild point");
        let target = intern(name);
        let (idx, org) = agent.engine.with_net(|net| {
            let idx = (0..net.num_prods() as u32)
                .find(|&i| net.prod_info(i).production.name == target)
                .expect("target production compiled");
            let plan = plan_bilinear(&net.prod_info(idx).production, 1).expect("bilinear plan");
            (idx, NetworkOrg::Bilinear(plan))
        });
        let out = agent.engine.reorganize_production(idx, org).expect("forced rebuild");
        assert!(out.retired > 0, "forced rebuild must retire the old chain");
    }
    let stop = stop.unwrap_or_else(|| run_to_stop(&mut agent));
    let mut wm: Vec<String> =
        agent.engine.with_store(|s| s.iter_alive().map(|(_, w)| format!("{w:?}")).collect());
    wm.sort();
    let mut cs: Vec<Instantiation> =
        agent.engine.with_net(|net| agent.engine.with_store(|st| naive::match_all(
            (0..net.num_prods() as u32).map(|i| &*net.prod_info(i).production).collect::<Vec<_>>(),
            st,
        )))
        .into_iter()
        .collect();
    by_wmes(&mut cs);
    cs.sort_by(|a, b| a.prod.cmp(&b.prod).then(a.wmes.cmp(&b.wmes)));
    RunOutcome {
        stop,
        stats: agent.stats,
        chunks: agent.learned_chunks().iter().map(|c| format!("{c}")).collect(),
        output: agent.output.clone(),
        wm,
        cs,
    }
}

/// The full-run gate: a forced mid-run rebuild inside a *learning* run —
/// chunks being added before and after the swap — changes nothing
/// observable, under every scheduler, on both the paper task and the
/// adversarial pump. Final working memory and the naive-matcher conflict
/// set over the whole production set (chunks included) are compared on top
/// of the agent counters.
#[test]
fn forced_midrun_reorg_is_invisible_in_learning_runs_under_every_scheduler() {
    let ep = eight_puzzle(&scrambled(3, 1));
    let pump = pump_task(3, 8);
    for sched in [Scheduler::SingleQueue, Scheduler::MultiQueue, Scheduler::WorkStealing] {
        for (task, target) in [(&ep, "ep*monitor-tile-1"), (&pump, "pump*cross")] {
            let base = parallel_run(task, sched, None);
            let reorged = parallel_run(task, sched, Some((3, target)));
            let ctx = format!("{sched:?}/{}", task.name);
            assert_eq!(reorged.stop, base.stop, "{ctx}: stop reason");
            assert_eq!(reorged.stats, base.stats, "{ctx}: agent counters");
            assert_eq!(reorged.chunks, base.chunks, "{ctx}: learned chunks");
            assert_eq!(reorged.output, base.output, "{ctx}: (write …) output");
            assert_eq!(reorged.wm, base.wm, "{ctx}: final working memory");
            assert_eq!(reorged.cs, base.cs, "{ctx}: final conflict set (naive oracle)");
            assert!(base.stats.chunks_built > 0 || task.name == "pump", "{ctx}: learning ran");
        }
    }
}

/// The serving gate: 64 sessions over one shared topology, each with its
/// private overlay, detector armed eagerly enough that every session
/// actually reorganizes mid-run — and every per-session report is
/// bit-for-bit the unarmed serve's, under all three schedulers. The
/// rebuild must land in the session overlay (the shared base is frozen),
/// which is exactly what the per-session `stats.reorganizations` counter
/// witnesses.
#[test]
fn served_sessions_with_adaptive_reorg_match_unarmed_serve_bit_for_bit() {
    let task = pump_task(3, 8);
    let specs: Vec<SessionSpec> = (0..64)
        .map(|i| SessionSpec { name: format!("pump-{i}"), task: task.clone(), learning: true })
        .collect();
    let topo = build_topology(&task);
    let eager = ReorgConfig { min_window_cost: 1, dominance: 0.0, cooldown: 0 };
    for sched in [Scheduler::SingleQueue, Scheduler::MultiQueue, Scheduler::WorkStealing] {
        let cfg = |reorg: Option<ReorgConfig>| ServeConfig {
            workers: 2,
            scheduler: sched,
            table_capacity: 64,
            max_decisions: 16,
            reorg,
            ..Default::default()
        };
        let off = serve(topo.clone(), specs.clone(), cfg(None));
        let on = serve(topo.clone(), specs.clone(), cfg(Some(eager.clone())));
        assert_eq!(off.shed, 0);
        assert_eq!(on.shed, 0);
        let total: u64 = on.sessions.iter().map(|s| s.stats.reorganizations).sum();
        assert!(total >= 64, "every armed session reorganizes mid-run (got {total})");
        for (x, y) in on.sessions.iter().zip(&off.sessions) {
            let ctx = format!("{sched:?}/{}", x.name);
            assert_eq!(x.name, y.name, "{ctx}: report order");
            assert_eq!(x.stop, y.stop, "{ctx}: stop reason");
            let (a, b) = (&x.stats, &y.stats);
            assert_eq!(a.decisions, b.decisions, "{ctx}: decisions");
            assert_eq!(a.elaboration_cycles, b.elaboration_cycles, "{ctx}: elaboration cycles");
            assert_eq!(a.impasses, b.impasses, "{ctx}: impasses");
            assert_eq!(a.chunks_built, b.chunks_built, "{ctx}: chunks built");
            assert_eq!(a.firings, b.firings, "{ctx}: firings");
            assert_eq!(a.wme_adds, b.wme_adds, "{ctx}: wme adds");
            assert_eq!(a.wme_removes, b.wme_removes, "{ctx}: wme removes");
            assert_eq!(x.chunk_names, y.chunk_names, "{ctx}: chunk names");
            assert_eq!(x.output, y.output, "{ctx}: (write …) output");
        }
    }
}
