//! Differential property tests for the hash-discrimination alpha network:
//! the `(field, value)` jump-table classifier must be observationally
//! identical to the linear scan it replaced — same memories hit, in the
//! same order, with the same `mems_matched` — over random class/test-set
//! grids, random wmes, incremental run-time memory additions, and rolled
//! back production builds.

use proptest::prelude::*;
use psme_rete::alpha::AlphaStats;
use psme_rete::testgen::{alpha_grid, AlphaGridConfig, XorShift};
use psme_rete::{AlphaMemId, AlphaNet, NetworkOrg, ReteBuild, ReteNetwork};
use psme_ops::Wme;

/// Run both classifiers on one wme, checking every agreement invariant.
/// Returns the shared hit list and the two stats.
fn check_one(net: &AlphaNet, w: &Wme) -> (Vec<AlphaMemId>, AlphaStats, AlphaStats) {
    let mut ih = Vec::new();
    let is = net.classify(w, |m| ih.push(m.id));
    let mut lh = Vec::new();
    let ls = net.classify_linear(w, |m| lh.push(m.id));
    assert_eq!(ih, lh, "hit sets/order diverge");
    assert_eq!(is.mems_matched, ls.mems_matched, "mems_matched diverge");
    assert!(is.work.scanned <= ls.work.scanned, "indexed ran more tests than linear");
    assert_eq!(
        is.work.tests_saved,
        ls.work.scanned - is.work.scanned,
        "tests_saved must account exactly for the linear-scan delta"
    );
    assert_eq!(ls.work.probes, 0);
    assert_eq!(ls.work.tests_saved, 0);
    (ih, is, ls)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Static grids: intern a batch of random test sets, then classify a
    /// stream of random wmes through both classifiers.
    #[test]
    fn indexed_equals_linear_on_static_grids(
        seed in 0u64..10_000,
        mems in 1usize..40,
        wmes in 1usize..30,
    ) {
        let grid = alpha_grid(AlphaGridConfig::default());
        let mut rng = XorShift::new(seed);
        let mut net = AlphaNet::new();
        for _ in 0..mems {
            let (class, tests, intra) = grid.random_test_set(&mut rng);
            net.intern(class, tests, intra);
        }
        net.validate_index().unwrap();
        for _ in 0..wmes {
            check_one(&net, &grid.random_wme(&mut rng));
        }
    }

    /// Run-time splice: interleave memory additions with classification —
    /// after every intern the index must still agree with the oracle on
    /// the same wme set (the §5.1 run-time chunk-addition regime).
    #[test]
    fn indexed_equals_linear_across_runtime_additions(
        seed in 0u64..10_000,
        script in prop::collection::vec(0u8..4, 4..30),
    ) {
        let grid = alpha_grid(AlphaGridConfig { classes: 2, arity: 3, domain: 3 });
        let mut rng = XorShift::new(seed ^ 0xA1FA);
        let mut net = AlphaNet::new();
        let probes: Vec<Wme> = (0..8).map(|_| grid.random_wme(&mut rng)).collect();
        for op in script {
            if op < 3 {
                let (class, tests, intra) = grid.random_test_set(&mut rng);
                net.intern(class, tests, intra);
            } else {
                // Re-intern an equal test set: must share, not duplicate.
                let before = net.len();
                let (class, tests, intra) = grid.random_test_set(&mut rng);
                let (_, _) = net.intern(class, tests.clone(), intra.clone());
                let (_, shared) = net.intern(class, tests, intra);
                prop_assert!(shared);
                prop_assert!(net.len() <= before + 1);
            }
            net.validate_index().unwrap();
            for w in &probes {
                check_one(&net, w);
            }
        }
    }

    /// Rolled-back production additions leave the discrimination index
    /// consistent: a failed bilinear build interns alpha memories, rolls
    /// back its beta nodes, and the classifiers must still agree.
    #[test]
    fn index_survives_rolled_back_builds(seed in 0u64..10_000) {
        use psme_ops::{parse_production, parse_wme, ClassRegistry};
        use std::sync::Arc;

        let mut r = ClassRegistry::new();
        r.declare_str("a", &["x", "y"]);
        r.declare_str("b", &["x", "y"]);
        let mut net = ReteNetwork::new();
        let ok = parse_production("(p keep (a ^x 1) --> (halt))", &mut r).unwrap();
        net.add_production(Arc::new(ok), NetworkOrg::Linear).unwrap();

        // A production whose alpha memories are new to the net, built with
        // an invalid bilinear partition: the build fails after interning.
        let mut rng = XorShift::new(seed);
        let (va, vb) = (rng.below(5), rng.below(5));
        let text = format!("(p bad (a ^x {va} ^y <v>) (b ^x {vb} ^y <v>) --> (halt))");
        let p = parse_production(&text, &mut r).unwrap();
        let err = net.add_production(
            Arc::new(p.clone()),
            NetworkOrg::Bilinear(vec![vec![0], vec![1, 1]]),
        );
        prop_assert!(err.is_err());
        net.alpha.validate_index().unwrap();

        // Both classifiers agree on wmes that would hit the orphaned
        // memories, and routing through them emits nothing (no successors).
        for (cls, v) in [("a", va), ("b", vb)] {
            let w = parse_wme(&format!("({cls} ^x {v} ^y 7)"), &r).unwrap();
            check_one(&net.alpha, &w);
        }

        // The same production then compiles fine linearly, reusing the
        // orphaned memories, and the classifiers still agree.
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
        net.alpha.validate_index().unwrap();
        let w = parse_wme(&format!("(a ^x {va} ^y 7)"), &r).unwrap();
        check_one(&net.alpha, &w);
    }

    /// The linear oracle's counters keep their historical meaning: class
    /// test + full chain per memory of the class.
    #[test]
    fn linear_accounting_is_full_chain(seed in 0u64..10_000, mems in 1usize..20) {
        let grid = alpha_grid(AlphaGridConfig::default());
        let mut rng = XorShift::new(seed ^ 0x11EA);
        let mut net = AlphaNet::new();
        for _ in 0..mems {
            let (class, tests, intra) = grid.random_test_set(&mut rng);
            net.intern(class, tests, intra);
        }
        let w = grid.random_wme(&mut rng);
        let ls = net.classify_linear(&w, |_| {});
        let chain: u32 = net
            .mems()
            .iter()
            .filter(|m| m.class == w.class)
            .map(|m| m.test_count() as u32)
            .sum();
        prop_assert_eq!(ls.work.scanned, 1 + chain);
    }
}

/// Deterministic end-to-end agreement: a full random-system serial run with
/// the index on vs off produces identical conflict-set trajectories.
#[test]
fn serial_runs_agree_with_index_on_and_off() {
    use psme_rete::testgen::{random_system, GenConfig};
    use psme_rete::SerialEngine;
    use std::sync::Arc;

    for seed in 0..12u64 {
        let sys = random_system(seed, GenConfig::default());
        let mut engines: Vec<SerialEngine> = (0..2)
            .map(|i| {
                let mut net = ReteNetwork::new();
                if i == 1 {
                    net.alpha = AlphaNet::reference();
                }
                for p in &sys.productions {
                    net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
                }
                SerialEngine::new(net)
            })
            .collect();
        let mut rng = XorShift::new(seed ^ 0xFACE);
        for _ in 0..10 {
            let adds: Vec<Wme> = (0..rng.below(4) + 1).map(|_| sys.random_wme(&mut rng)).collect();
            let outs: Vec<_> =
                engines.iter_mut().map(|e| e.apply_changes(adds.clone(), vec![])).collect();
            assert_eq!(outs[0].cs.added, outs[1].cs.added, "seed {seed}");
            assert_eq!(outs[0].cs.removed, outs[1].cs.removed, "seed {seed}");
            assert_eq!(outs[0].tasks, outs[1].tasks, "task counts must match: seed {seed}");
        }
    }
}
