//! Property-based tests (proptest) over the match engine's core invariants.

use proptest::prelude::*;
use psme_ops::{production_text, parse_production, Instantiation, WmeId};
use psme_rete::testgen::{random_system, GenConfig, XorShift};
use psme_rete::{naive, NetworkOrg, ReteBuild, ReteNetwork, SerialEngine};
use std::collections::HashSet;
use std::sync::Arc;

fn inst_set(v: Vec<Instantiation>) -> HashSet<Instantiation> {
    v.into_iter().collect()
}

fn build_engine(sys: &psme_rete::testgen::GeneratedSystem, lines: usize) -> SerialEngine {
    let mut net = ReteNetwork::new();
    for p in &sys.productions {
        net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
    }
    SerialEngine::with_memory(net, lines)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// The incremental Rete conflict set always equals the from-scratch
    /// brute-force matcher's, whatever the add/remove script.
    #[test]
    fn conflict_set_matches_oracle(seed in 0u64..10_000, script in prop::collection::vec((0u8..4, 0u16..200), 1..25)) {
        let sys = random_system(seed, GenConfig::default());
        let mut eng = build_engine(&sys, 256);
        let mut rng = XorShift::new(seed ^ 0x5eed);
        for (op, pick) in script {
            match op {
                // 0..=2: add one wme (bias toward adds so WM grows)
                0..=2 => {
                    let w = sys.random_wme(&mut rng);
                    eng.apply_changes(vec![w], vec![]);
                }
                _ => {
                    let alive: Vec<WmeId> = eng.state.store.iter_alive().map(|(id, _)| id).collect();
                    if !alive.is_empty() {
                        let id = alive[pick as usize % alive.len()];
                        eng.apply_changes(vec![], vec![id]);
                    }
                }
            }
            let expected = naive::match_all(sys.productions.iter(), &eng.state.store);
            prop_assert_eq!(inst_set(eng.current_instantiations()), expected);
        }
    }

    /// Adding a wme set and then removing it in any order restores the
    /// empty conflict set and quiescent memories.
    #[test]
    fn add_remove_is_an_inverse(seed in 0u64..10_000, n in 1usize..12, order in prop::collection::vec(0usize..64, 12)) {
        let sys = random_system(seed, GenConfig::default());
        let mut eng = build_engine(&sys, 64);
        let mut rng = XorShift::new(seed);
        let adds: Vec<_> = (0..n).map(|_| sys.random_wme(&mut rng)).collect();
        eng.apply_changes(adds, vec![]);
        // Remove in a permuted order, one batch of two at a time.
        let mut alive: Vec<WmeId> = eng.state.store.iter_alive().map(|(id, _)| id).collect();
        let mut k = 0;
        while !alive.is_empty() {
            let i = order[k % order.len()] % alive.len();
            let id = alive.swap_remove(i);
            eng.apply_changes(vec![], vec![id]);
            k += 1;
        }
        prop_assert!(eng.current_instantiations().is_empty());
        // assert_quiescent runs inside apply_changes under debug.
        prop_assert_eq!(eng.state.store.live_count(), 0);
    }

    /// A production added at run time behaves exactly as if it had been
    /// compiled upfront, for any prior WM contents.
    #[test]
    fn runtime_addition_is_transparent(seed in 0u64..10_000, split in 1usize..5, pre in 1usize..10) {
        let sys = random_system(seed, GenConfig::default());
        let split = split.min(sys.productions.len() - 1);
        let mut upfront = build_engine(&sys, 128);
        let mut net = ReteNetwork::new();
        for p in &sys.productions[..split] {
            net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        let mut late = SerialEngine::with_memory(net, 128);

        let mut rng = XorShift::new(seed ^ 0xF00D);
        let adds: Vec<_> = (0..pre).map(|_| sys.random_wme(&mut rng)).collect();
        upfront.apply_changes(adds.clone(), vec![]);
        late.apply_changes(adds, vec![]);
        for p in &sys.productions[split..] {
            late.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        prop_assert_eq!(
            inst_set(upfront.current_instantiations()),
            inst_set(late.current_instantiations())
        );
    }

    /// Printing a generated production and re-parsing it yields the same
    /// structure (printer ↔ parser round trip).
    #[test]
    fn printer_parser_round_trip(seed in 0u64..10_000) {
        let sys = random_system(seed, GenConfig::default());
        for p in &sys.productions {
            let text = production_text(p, &sys.classes);
            let mut classes = sys.classes.clone();
            let reparsed = parse_production(&text, &mut classes);
            prop_assert!(reparsed.is_ok(), "failed to reparse:\n{}\n{:?}", text, reparsed.err());
            let p2 = reparsed.unwrap();
            prop_assert_eq!(&p.ces, &p2.ces, "{}", text);
            prop_assert_eq!(&p.actions, &p2.actions);
            prop_assert_eq!(p.num_pos, p2.num_pos);
        }
    }

    /// Network statistics invariants: sharing never increases node count,
    /// and the chain depth bounds the number of two-input nodes per
    /// production.
    #[test]
    fn sharing_only_shrinks_networks(seed in 0u64..10_000) {
        let sys = random_system(seed, GenConfig::default());
        let mut shared = ReteNetwork::with_sharing(true);
        let mut unshared = ReteNetwork::with_sharing(false);
        for p in &sys.productions {
            shared.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
            unshared.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        prop_assert!(shared.num_nodes() <= unshared.num_nodes());
        prop_assert_eq!(shared.prods.len(), unshared.prods.len());
        prop_assert!(shared.max_chain_depth() <= unshared.max_chain_depth());
    }
}
