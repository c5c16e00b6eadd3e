//! Differential testing: the serial Rete engine against the brute-force
//! oracle, across random production systems, random add/remove streams,
//! run-time production addition, worst-case memory collisions, and bilinear
//! network organizations.

use psme_ops::{Instantiation, WmeId};
use psme_rete::testgen::{random_system, GenConfig, XorShift};
use psme_rete::{naive, plan_bilinear, NetworkOrg, ReteBuild, ReteNetwork, SerialEngine};
use std::collections::HashSet;
use std::sync::Arc;

fn inst_set(v: Vec<Instantiation>) -> HashSet<Instantiation> {
    v.into_iter().collect()
}

/// Drive `engines` and the oracle through the same change stream; compare
/// after every batch.
fn run_stream(seed: u64, cfg: GenConfig, batches: usize, engines: &mut [&mut SerialEngine]) {
    let sys = random_system(seed, cfg);
    let mut rng = XorShift::new(seed ^ 0xDEAD_BEEF);
    for batch in 0..batches {
        let n_add = rng.below(4) + 1;
        let adds: Vec<_> = (0..n_add).map(|_| sys.random_wme(&mut rng)).collect();
        let alive: Vec<WmeId> = engines[0].state.store.iter_alive().map(|(id, _)| id).collect();
        let mut removes = Vec::new();
        if !alive.is_empty() && rng.chance(60) {
            removes.push(alive[rng.below(alive.len())]);
            if alive.len() > 3 && rng.chance(40) {
                let second = alive[rng.below(alive.len())];
                if !removes.contains(&second) {
                    removes.push(second);
                }
            }
        }
        for e in engines.iter_mut() {
            e.apply_changes(adds.clone(), removes.clone());
        }
        let expected = naive::match_all(sys.productions.iter(), &engines[0].state.store);
        for (i, e) in engines.iter().enumerate() {
            assert_eq!(
                inst_set(e.current_instantiations()),
                expected,
                "engine {i} diverged from oracle at seed {seed}, batch {batch}"
            );
        }
    }
}

#[test]
fn serial_matches_oracle_across_seeds() {
    for seed in 0..60 {
        let sys = random_system(seed, GenConfig::default());
        let mut net = ReteNetwork::new();
        for p in &sys.productions {
            net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        let mut e = SerialEngine::new(net);
        run_stream(seed, GenConfig::default(), 8, &mut [&mut e]);
    }
}

#[test]
fn one_line_memory_matches_oracle() {
    // All tokens collide into a single line: correctness must be unaffected.
    for seed in 100..120 {
        let sys = random_system(seed, GenConfig::default());
        let mut net = ReteNetwork::new();
        for p in &sys.productions {
            net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        let mut e = SerialEngine::with_memory(net, 1);
        run_stream(seed, GenConfig::default(), 6, &mut [&mut e]);
    }
}

#[test]
fn unshared_network_matches_shared() {
    for seed in 200..220 {
        let sys = random_system(seed, GenConfig::default());
        let mut shared = ReteNetwork::with_sharing(true);
        let mut unshared = ReteNetwork::with_sharing(false);
        for p in &sys.productions {
            shared.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
            unshared.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        let mut es = SerialEngine::new(shared);
        let mut eu = SerialEngine::new(unshared);
        run_stream(seed, GenConfig::default(), 6, &mut [&mut es, &mut eu]);
    }
}

#[test]
fn runtime_addition_matches_upfront() {
    // Engine A has all productions from the start; engine B adds the second
    // half at run time, mid-stream, exercising the §5.2 state update against
    // arbitrary existing WM (including negations and NCCs).
    for seed in 300..340 {
        let sys = random_system(seed, GenConfig::default());
        let (first, second) = sys.productions.split_at(sys.productions.len() / 2);

        let mut net_a = ReteNetwork::new();
        for p in &sys.productions {
            net_a.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        let mut ea = SerialEngine::new(net_a);

        let mut net_b = ReteNetwork::new();
        for p in first {
            net_b.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        let mut eb = SerialEngine::new(net_b);

        // Phase 1: populate some WM.
        let mut rng = XorShift::new(seed ^ 0xFACE);
        for _ in 0..3 {
            let adds: Vec<_> = (0..3).map(|_| sys.random_wme(&mut rng)).collect();
            ea.apply_changes(adds.clone(), vec![]);
            eb.apply_changes(adds, vec![]);
        }
        // Phase 2: add the rest at run time.
        for p in second {
            eb.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        let expected = naive::match_all(sys.productions.iter(), &ea.state.store);
        assert_eq!(inst_set(ea.current_instantiations()), expected, "seed {seed} (A)");
        assert_eq!(inst_set(eb.current_instantiations()), expected, "seed {seed} (B)");

        // Phase 3: more changes, including removes.
        for _ in 0..4 {
            let adds: Vec<_> = (0..2).map(|_| sys.random_wme(&mut rng)).collect();
            let alive: Vec<WmeId> = ea.state.store.iter_alive().map(|(id, _)| id).collect();
            let removes = if alive.is_empty() { vec![] } else { vec![alive[rng.below(alive.len())]] };
            ea.apply_changes(adds.clone(), removes.clone());
            eb.apply_changes(adds, removes);
            let expected = naive::match_all(sys.productions.iter(), &ea.state.store);
            assert_eq!(inst_set(ea.current_instantiations()), expected, "seed {seed} (A, ph3)");
            assert_eq!(inst_set(eb.current_instantiations()), expected, "seed {seed} (B, ph3)");
        }
    }
}

#[test]
fn bilinear_matches_linear_on_random_systems() {
    let mut planned = 0;
    for seed in 400..460 {
        let sys = random_system(seed, GenConfig { max_pos: 4, ..GenConfig::default() });
        let mut lin = ReteNetwork::new();
        let mut bil = ReteNetwork::new();
        for p in &sys.productions {
            lin.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
            let org = match plan_bilinear(p, 1) {
                Some(groups) if groups.len() >= 2 => {
                    planned += 1;
                    NetworkOrg::Bilinear(groups)
                }
                _ => NetworkOrg::Linear,
            };
            bil.add_production(Arc::new(p.clone()), org).unwrap();
        }
        let mut el = SerialEngine::new(lin);
        let mut eb = SerialEngine::new(bil);
        run_stream(seed, GenConfig { max_pos: 4, ..GenConfig::default() }, 5, &mut [&mut el, &mut eb]);
    }
    assert!(planned > 30, "bilinear plans actually exercised: {planned}");
}

#[test]
fn deletes_fully_unwind_state() {
    // Adding a set of wmes and then removing them all must leave an empty
    // conflict set and empty memories.
    for seed in 500..520 {
        let sys = random_system(seed, GenConfig::default());
        let mut net = ReteNetwork::new();
        for p in &sys.productions {
            net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        }
        let mut e = SerialEngine::new(net);
        let mut rng = XorShift::new(seed);
        let adds: Vec<_> = (0..8).map(|_| sys.random_wme(&mut rng)).collect();
        e.apply_changes(adds, vec![]);
        let alive: Vec<WmeId> = e.state.store.iter_alive().map(|(id, _)| id).collect();
        e.apply_changes(vec![], alive);
        assert!(e.current_instantiations().is_empty(), "seed {seed}");
        // Every add met its delete, and an entry whose weight reaches zero
        // is removed on the spot: every line is empty.
        for line in 0..e.state.mem.num_lines() as u32 {
            let (g, _) = e.state.mem.lock(line);
            assert!(g.left.entries().is_empty(), "seed {seed}: line {line} left");
            assert!(g.right.entries().is_empty(), "seed {seed}: line {line} right");
        }
        assert!(e.state.store.live_count() == 0);
    }
}
