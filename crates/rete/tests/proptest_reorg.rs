//! Property-based tests for adaptive mid-run reorganization.
//!
//! Three invariants, over randomized workloads and rebuild points:
//! the adversarial workload generator is deterministic; a bilinear rebuild
//! at *any* cycle of *any* random system is observationally invisible
//! (conflict-set deltas and the final naive-oracle conflict set never
//! change); and a rebuild that fails mid-build rolls back to exactly the
//! network it started from — node count, alpha index, and token memories
//! all untouched, with the engine still bit-for-bit equal to a control
//! engine on every later cycle.

use proptest::prelude::*;
use psme_ops::Production;
use psme_rete::testgen::{adversarial_chain, random_system, AdversarialConfig, GenConfig, XorShift};
use psme_rete::{naive, plan_bilinear, NetworkOrg, ReteBuild, ReteNetwork, SerialEngine};
use std::collections::HashSet;
use std::sync::Arc;

fn build_engine(prods: &[Production]) -> SerialEngine {
    let mut net = ReteNetwork::new();
    for p in prods {
        net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
    }
    SerialEngine::new(net)
}

/// Productions eligible for a forced rebuild: all-positive (negated/NCC
/// chain reorganization is deferred — see ROADMAP) with a non-trivial
/// bilinear plan.
fn rebuild_candidates(prods: &[Production]) -> Vec<(u32, Vec<Vec<usize>>)> {
    prods
        .iter()
        .enumerate()
        .filter(|(_, p)| p.ces.iter().all(|c| c.is_pos()))
        .filter_map(|(i, p)| plan_bilinear(p, 1).map(|plan| (i as u32, plan)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Same config in, same instance out — production text, round count,
    /// and every wme of every round.
    #[test]
    fn adversarial_generator_is_deterministic(groups in 2usize..5, rounds in 1usize..12) {
        let cfg = AdversarialConfig { groups, rounds };
        let a = adversarial_chain(cfg);
        let b = adversarial_chain(cfg);
        prop_assert_eq!(format!("{}", a.production), format!("{}", b.production));
        prop_assert_eq!(a.rounds.len(), b.rounds.len());
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            prop_assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        }
        // Shape: one production, 1 + 2·groups positive CEs, and a bilinear
        // plan that splits past the anchor prefix into `groups` groups.
        prop_assert_eq!(a.production.num_pos as usize, 1 + 2 * groups);
        let plan = plan_bilinear(&a.production, 1).expect("plan exists");
        prop_assert_eq!(plan.len(), 1 + groups);
    }

    /// Rebuilding a random eligible production bilinearly after a random
    /// prefix of a random wme script changes no conflict-set delta and
    /// leaves the final conflict set equal to the never-rebuilt engine's
    /// and to the naive oracle's.
    #[test]
    fn reorg_at_a_random_cycle_is_invisible(
        seed in 0u64..10_000,
        script in prop::collection::vec((0u8..4, 0u16..200), 1..20),
        reorg_at in 0usize..20,
        pick in 0usize..8,
    ) {
        let sys = random_system(seed, GenConfig::default());
        let candidates = rebuild_candidates(&sys.productions);
        prop_assume!(!candidates.is_empty());
        let (prod_idx, plan) = candidates[pick % candidates.len()].clone();

        let mut control = build_engine(&sys.productions);
        let mut reorged = build_engine(&sys.productions);
        let mut rng = XorShift::new(seed ^ 0x5eed);
        for (step, (op, _)) in script.iter().enumerate() {
            if step == reorg_at.min(script.len() - 1) {
                reorged
                    .reorganize_production(prod_idx, NetworkOrg::Bilinear(plan.clone()))
                    .expect("plan from plan_bilinear must build");
            }
            let (c, r) = match op {
                0..=2 => {
                    let w = sys.random_wme(&mut rng);
                    (
                        control.apply_changes(vec![w.clone()], vec![]),
                        reorged.apply_changes(vec![w], vec![]),
                    )
                }
                _ => {
                    // Same operation history → same wme ids in both stores.
                    let doomed = control.state.store.iter_alive().map(|(id, _)| id).next();
                    let rm: Vec<_> = doomed.into_iter().collect();
                    (
                        control.apply_changes(vec![], rm.clone()),
                        reorged.apply_changes(vec![], rm),
                    )
                }
            };
            prop_assert_eq!(c.cs.added, r.cs.added, "step {}: added", step);
            prop_assert_eq!(c.cs.removed, r.cs.removed, "step {}: removed", step);
        }
        let oracle: HashSet<_> =
            naive::match_all(sys.productions.iter(), &control.state.store);
        let a: HashSet<_> = control.current_instantiations().into_iter().collect();
        let b: HashSet<_> = reorged.current_instantiations().into_iter().collect();
        prop_assert_eq!(&a, &oracle, "control vs naive oracle");
        prop_assert_eq!(&b, &oracle, "reorganized vs naive oracle");
    }

    /// A rebuild whose compile fails (every CE its own group — the partner
    /// CEs reference variables bound outside their chain) must roll back to
    /// exactly the starting network: same node count, consistent alpha
    /// index, untouched memories — and the engine keeps matching the rest
    /// of the load bit-for-bit like a control engine that never tried.
    #[test]
    fn failed_rebuild_rolls_back_untouched(
        groups in 2usize..4,
        rounds in 2usize..8,
        fail_at in 0usize..8,
    ) {
        let inst = adversarial_chain(AdversarialConfig { groups, rounds });
        let bogus: Vec<Vec<usize>> = (0..1 + 2 * groups).map(|i| vec![i]).collect();

        let mut control = build_engine(std::slice::from_ref(&inst.production));
        let mut tried = build_engine(std::slice::from_ref(&inst.production));
        for (r, batch) in inst.rounds.iter().enumerate() {
            if r == fail_at.min(rounds - 1) {
                let nodes = tried.net.num_nodes();
                let before: HashSet<_> = tried.current_instantiations().into_iter().collect();
                let err = tried.reorganize_production(0, NetworkOrg::Bilinear(bogus.clone()));
                prop_assert!(err.is_err(), "each-CE-alone grouping must fail to compile");
                prop_assert_eq!(tried.net.num_nodes(), nodes, "node count rolled back");
                tried.net.alpha.validate_index().expect("alpha index consistent");
                prop_assert_eq!(tried.net.retired_nodes(), 0, "nothing retired on failure");
                let after: HashSet<_> = tried.current_instantiations().into_iter().collect();
                prop_assert_eq!(before, after, "conflict set untouched by the failed build");
            }
            let c = control.apply_changes(batch.clone(), vec![]);
            let t = tried.apply_changes(batch.clone(), vec![]);
            prop_assert_eq!(c.cs.added, t.cs.added, "round {}: added", r);
            prop_assert_eq!(c.cs.removed, t.cs.removed, "round {}: removed", r);
        }
        let oracle = naive::match_production(&inst.production, &tried.state.store);
        let got: HashSet<_> = tried.current_instantiations().into_iter().collect();
        prop_assert_eq!(got, oracle.into_iter().collect::<HashSet<_>>(), "vs naive oracle");
    }
}
