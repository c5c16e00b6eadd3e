//! Hand-written scenario tests for the serial Rete engine: incremental
//! add/delete, negation counters, conjunctive negations, runtime production
//! addition with the §5.2 state update, and bilinear network equivalence.

use psme_ops::{parse_production, parse_program, parse_wme, ClassRegistry, Instantiation};
use psme_rete::{plan_bilinear, NetworkOrg, ReteBuild, ReteNetwork, SerialEngine};
use std::collections::HashSet;
use std::sync::Arc;

fn classes() -> ClassRegistry {
    let mut r = ClassRegistry::new();
    r.declare_str("block", &["name", "color", "on"]);
    r.declare_str("hand", &["state", "holds"]);
    r.declare_str("goal", &["id", "ps", "state", "op"]);
    r
}

fn engine(r: &mut ClassRegistry, srcs: &[&str]) -> SerialEngine {
    let mut net = ReteNetwork::new();
    for s in srcs {
        let p = parse_production(s, r).unwrap();
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
    }
    SerialEngine::new(net)
}

fn inst_set(v: &[Instantiation]) -> HashSet<Instantiation> {
    v.iter().cloned().collect()
}

#[test]
fn incremental_add_then_delete_round_trips() {
    let mut r = classes();
    let mut e = engine(
        &mut r,
        &["(p graspable (block ^name <b> ^color blue) -(block ^on <b>) (hand ^state free)
            --> (halt))"],
    );
    let out = e.apply_changes(
        vec![
            parse_wme("(block ^name b1 ^color blue)", &r).unwrap(),
            parse_wme("(hand ^state free)", &r).unwrap(),
        ],
        vec![],
    );
    assert_eq!(out.cs.added.len(), 1);
    assert_eq!(out.cs.removed.len(), 0);
    assert!(out.tasks > 0);

    // Block the negation: instantiation retracts.
    let out2 = e.apply_changes(vec![parse_wme("(block ^name b2 ^on b1)", &r).unwrap()], vec![]);
    assert_eq!(out2.cs.added.len(), 0);
    assert_eq!(out2.cs.removed.len(), 1);

    // Unblock: it returns.
    let blocker = e.state.store.find_alive(&parse_wme("(block ^name b2 ^on b1)", &r).unwrap());
    let out3 = e.apply_changes(vec![], vec![blocker.unwrap()]);
    assert_eq!(out3.cs.added.len(), 1);
}

#[test]
fn mixed_add_remove_in_one_cycle() {
    let mut r = classes();
    let mut e = engine(&mut r, &["(p pair (block ^color <c>) (hand ^holds <c>) --> (halt))"]);
    let o1 = e.apply_changes(
        vec![
            parse_wme("(block ^name b1 ^color red)", &r).unwrap(),
            parse_wme("(hand ^holds red)", &r).unwrap(),
        ],
        vec![],
    );
    assert_eq!(o1.cs.added.len(), 1);
    // Swap the block for a blue one and retarget the hand, in ONE batch.
    let b1 = e.state.store.find_alive(&parse_wme("(block ^name b1 ^color red)", &r).unwrap()).unwrap();
    let h = e.state.store.find_alive(&parse_wme("(hand ^holds red)", &r).unwrap()).unwrap();
    let o2 = e.apply_changes(
        vec![
            parse_wme("(block ^name b2 ^color blue)", &r).unwrap(),
            parse_wme("(hand ^holds blue)", &r).unwrap(),
        ],
        vec![b1, h],
    );
    assert_eq!(o2.cs.added.len(), 1);
    assert_eq!(o2.cs.removed.len(), 1);
    assert_eq!(e.current_instantiations().len(), 1);
}

#[test]
fn negation_counts_multiple_blockers() {
    let mut r = classes();
    let mut e = engine(&mut r, &["(p clear (block ^name <b>) -(block ^on <b>) --> (halt))"]);
    e.apply_changes(vec![parse_wme("(block ^name b1)", &r).unwrap()], vec![]);
    assert_eq!(e.current_instantiations().len(), 1);
    // Two blockers on b1.
    e.apply_changes(
        vec![
            parse_wme("(block ^name x ^on b1)", &r).unwrap(),
            parse_wme("(block ^name y ^on b1)", &r).unwrap(),
        ],
        vec![],
    );
    // b1 is blocked twice; x and y are themselves clear.
    assert_eq!(e.current_instantiations().len(), 2);
    // Remove one blocker: b1 is still blocked by y (the not-counter must not
    // hit zero yet); only y remains clear.
    let x = e.state.store.find_alive(&parse_wme("(block ^name x ^on b1)", &r).unwrap()).unwrap();
    e.apply_changes(vec![], vec![x]);
    assert_eq!(e.current_instantiations().len(), 1);
    // Remove the second blocker: b1 becomes clear again.
    let y = e.state.store.find_alive(&parse_wme("(block ^name y ^on b1)", &r).unwrap()).unwrap();
    e.apply_changes(vec![], vec![y]);
    assert_eq!(e.current_instantiations().len(), 1);
}

#[test]
fn ncc_semantics_match_naive() {
    let mut r = classes();
    let src = "(p safe (hand ^state <h>)
                  -{ (block ^name <b> ^on <h>) (block ^name <b> ^color red) }
                --> (halt))";
    let mut e = engine(&mut r, &[src]);
    let p = parse_production(src, &mut classes()).unwrap();

    e.apply_changes(vec![parse_wme("(hand ^state h1)", &r).unwrap()], vec![]);
    assert_eq!(e.current_instantiations().len(), 1);

    // One conjunct only: still safe.
    e.apply_changes(vec![parse_wme("(block ^name b1 ^on h1)", &r).unwrap()], vec![]);
    assert_eq!(e.current_instantiations().len(), 1);

    // Complete the conjunction: blocked.
    e.apply_changes(vec![parse_wme("(block ^name b1 ^color red)", &r).unwrap()], vec![]);
    assert_eq!(e.current_instantiations().len(), 0);

    // Cross-check against the oracle at this state.
    let naive: HashSet<_> = psme_rete::naive::match_all([&p], &e.state.store).into_iter().collect();
    assert_eq!(naive.len(), 0);

    // Break the conjunction again: unblocked.
    let red = e.state.store.find_alive(&parse_wme("(block ^name b1 ^color red)", &r).unwrap()).unwrap();
    e.apply_changes(vec![], vec![red]);
    assert_eq!(e.current_instantiations().len(), 1);
}

#[test]
fn runtime_addition_equals_upfront_compilation() {
    let mut r = classes();
    let p1 = "(p a (block ^name <b> ^color blue) (hand ^state free) --> (halt))";
    let p2 = "(p b (block ^name <b> ^color blue) -(block ^on <b>) --> (halt))";

    // Engine A: both productions from the start.
    let mut ea = engine(&mut r, &[p1, p2]);
    // Engine B: p1 upfront, p2 added at run time after WM is populated.
    let mut eb = engine(&mut r, &[p1]);

    let wmes = [
        "(block ^name b1 ^color blue)",
        "(block ^name b2 ^color blue ^on b1)",
        "(hand ^state free)",
    ];
    for w in wmes {
        ea.apply_changes(vec![parse_wme(w, &r).unwrap()], vec![]);
        eb.apply_changes(vec![parse_wme(w, &r).unwrap()], vec![]);
    }
    let p2c = parse_production(p2, &mut r).unwrap();
    let out = eb.add_production(Arc::new(p2c), NetworkOrg::Linear).unwrap();
    // The update found b's instantiations in existing WM.
    assert_eq!(out.cs.added.len(), 1, "only b2 is clear");
    assert!(out.update_tasks > 0);
    assert!(out.add.shared_two_input >= 1, "b shares the blue-block join with a");

    assert_eq!(inst_set(&ea.current_instantiations()), inst_set(&eb.current_instantiations()));

    // And the engines stay equivalent on further changes.
    let w = "(block ^name b3 ^color blue)";
    ea.apply_changes(vec![parse_wme(w, &r).unwrap()], vec![]);
    eb.apply_changes(vec![parse_wme(w, &r).unwrap()], vec![]);
    assert_eq!(inst_set(&ea.current_instantiations()), inst_set(&eb.current_instantiations()));
}

#[test]
fn runtime_addition_of_fully_shared_chain() {
    // The chunk shares every two-input node with the old production: the
    // boundary is the last join, and the update must read its outputs from
    // the old P node's stored tokens.
    let mut r = classes();
    let p1 = "(p a (block ^name <b> ^color blue) (hand ^state free) --> (halt))";
    let p2 = "(p a2 (block ^name <b> ^color blue) (hand ^state free) --> (remove 2))";
    let mut e = engine(&mut r, &[p1]);
    e.apply_changes(
        vec![
            parse_wme("(block ^name b1 ^color blue)", &r).unwrap(),
            parse_wme("(hand ^state free)", &r).unwrap(),
        ],
        vec![],
    );
    let p2c = parse_production(p2, &mut r).unwrap();
    let out = e.add_production(Arc::new(p2c), NetworkOrg::Linear).unwrap();
    assert_eq!(out.add.new_two_input, 0, "chain fully shared");
    assert_eq!(out.add.shared_two_input, 2);
    assert_eq!(out.cs.added.len(), 1);
    assert_eq!(e.current_instantiations().len(), 2);
}

#[test]
fn bilinear_network_is_equivalent_to_linear() {
    let mut r = classes();
    let src = "(p mon (goal ^id g1 ^state <s>)
                  (block ^name <s> ^on <o1>) (block ^name <o1> ^color blue)
                  (block ^name <s> ^color <c2>) (hand ^holds <c2>)
                --> (halt))";
    let p = parse_production(src, &mut r).unwrap();
    let groups = plan_bilinear(&p, 1).unwrap();
    assert!(groups.len() >= 3, "expected independent clusters, got {groups:?}");

    let mut lin_net = ReteNetwork::new();
    lin_net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
    let mut bil_net = ReteNetwork::new();
    bil_net.add_production(Arc::new(p.clone()), NetworkOrg::Bilinear(groups)).unwrap();
    let mut lin = SerialEngine::new(lin_net);
    let mut bil = SerialEngine::new(bil_net);

    let wmes = [
        "(goal ^id g1 ^state s1)",
        "(block ^name s1 ^on o1)",
        "(block ^name o1 ^color blue)",
        "(block ^name s1 ^color green)",
        "(hand ^holds green)",
        "(block ^name s1 ^on o2)", // second binding for the first cluster…
        "(block ^name o2 ^color blue)",
    ];
    for w in wmes {
        lin.apply_changes(vec![parse_wme(w, &r).unwrap()], vec![]);
        bil.apply_changes(vec![parse_wme(w, &r).unwrap()], vec![]);
        assert_eq!(
            inst_set(&lin.current_instantiations()),
            inst_set(&bil.current_instantiations()),
            "diverged after {w}"
        );
    }
    assert_eq!(lin.current_instantiations().len(), 2);

    // Deleting the goal kills everything in both.
    let g = lin.state.store.find_alive(&parse_wme("(goal ^id g1 ^state s1)", &r).unwrap()).unwrap();
    lin.apply_changes(vec![], vec![g]);
    let g2 = bil.state.store.find_alive(&parse_wme("(goal ^id g1 ^state s1)", &r).unwrap()).unwrap();
    bil.apply_changes(vec![], vec![g2]);
    assert!(lin.current_instantiations().is_empty());
    assert!(bil.current_instantiations().is_empty());
}

#[test]
fn bilinear_reduces_chain_depth() {
    let mut r = ClassRegistry::new();
    let p = psme_rete::testgen::long_chain(&mut r, 12, "deep");
    // Linear depth 12; bilinear with prefix 1… the chain is fully dependent
    // so bilinear cannot split it (single component).
    let groups = plan_bilinear(&p, 1).unwrap();
    assert_eq!(groups.len(), 2, "fully dependent chain stays one group");

    // A clustered production (the monitor-strips-state shape of Fig. 6-7)
    // splits into groups and gets a much shorter critical chain.
    let mut r2 = classes();
    let star = parse_production(
        "(p star (goal ^id <g>)
            (block ^name <g> ^on <a>) (block ^name <a> ^on <b>) (block ^name <b>)
            (hand ^state <g> ^holds <c>) (block ^name <c> ^on <d>) (block ^name <d>)
            (block ^name <g> ^color <e>) (hand ^holds <e> ^state <f>) (block ^on <f>)
          --> (halt))",
        &mut r2,
    )
    .unwrap();
    let sgroups = plan_bilinear(&star, 1).unwrap();
    assert_eq!(sgroups.len(), 4, "{sgroups:?}");
    let mut net_lin = ReteNetwork::new();
    net_lin.add_production(Arc::new(star.clone()), NetworkOrg::Linear).unwrap();
    let mut net_bil = ReteNetwork::new();
    net_bil.add_production(Arc::new(star), NetworkOrg::Bilinear(sgroups)).unwrap();
    assert!(
        net_bil.max_chain_depth() < net_lin.max_chain_depth(),
        "bilinear {} vs linear {}",
        net_bil.max_chain_depth(),
        net_lin.max_chain_depth()
    );
}

#[test]
fn sharing_reduces_node_count() {
    let mut r = classes();
    let srcs = [
        "(p s1 (block ^color blue) (hand ^state free) --> (halt))",
        "(p s2 (block ^color blue) (hand ^state free) (block ^color red) --> (halt))",
        "(p s3 (block ^color blue) (hand ^state busy) --> (halt))",
    ];
    let mut shared = ReteNetwork::with_sharing(true);
    let mut unshared = ReteNetwork::with_sharing(false);
    for s in srcs {
        let p = parse_production(s, &mut r).unwrap();
        shared.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
        unshared.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
    }
    assert!(shared.num_nodes() < unshared.num_nodes());
    assert!(shared.stats().shared_two_input > 0);
    assert_eq!(unshared.stats().shared_two_input, 0);

    // Both still match identically.
    let mut es = SerialEngine::new(shared);
    let mut eu = SerialEngine::new(unshared);
    for w in ["(block ^color blue)", "(hand ^state free)", "(block ^color red)"] {
        es.apply_changes(vec![parse_wme(w, &r).unwrap()], vec![]);
        eu.apply_changes(vec![parse_wme(w, &r).unwrap()], vec![]);
    }
    assert_eq!(inst_set(&es.current_instantiations()), inst_set(&eu.current_instantiations()));
    assert_eq!(es.current_instantiations().len(), 2);
}

#[test]
fn single_memory_line_still_correct() {
    // Force every token into one line: worst-case collisions must not change
    // semantics, only contention.
    let mut r = classes();
    let p = parse_production(
        "(p x (block ^name <b>) (block ^on <b>) -(hand ^holds <b>) --> (halt))",
        &mut r,
    )
    .unwrap();
    let mut net = ReteNetwork::new();
    net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
    let mut e = SerialEngine::with_memory(net, 1);
    e.apply_changes(
        vec![
            parse_wme("(block ^name b1)", &r).unwrap(),
            parse_wme("(block ^name b2 ^on b1)", &r).unwrap(),
            parse_wme("(block ^name b3 ^on b1)", &r).unwrap(),
        ],
        vec![],
    );
    assert_eq!(e.current_instantiations().len(), 2);
    e.apply_changes(vec![parse_wme("(hand ^holds b1)", &r).unwrap()], vec![]);
    assert_eq!(e.current_instantiations().len(), 0);
}

#[test]
fn trace_capture_records_dependencies() {
    let mut r = classes();
    let mut e = engine(&mut r, &["(p t (block ^color blue) (hand ^state free) --> (halt))"]);
    e.capture = true;
    e.apply_changes(
        vec![
            parse_wme("(block ^color blue)", &r).unwrap(),
            parse_wme("(hand ^state free)", &r).unwrap(),
        ],
        vec![],
    );
    assert_eq!(e.trace.cycles.len(), 1);
    let c = &e.trace.cycles[0];
    assert!(c.len() >= 4, "2 alpha + 2 joins + P node, got {}", c.len());
    // Every non-seed task's parent exists and precedes it.
    for t in &c.tasks {
        if let Some(p) = t.parent {
            assert!(p < t.id);
        }
    }
    // At least one task is a Prod task.
    assert!(c.tasks.iter().any(|t| matches!(t.kind, psme_rete::TaskKind::Prod)));
}

#[test]
fn program_scale_smoke() {
    // A slightly larger program: all parsed productions at once, a few dozen
    // wmes, exercising multiple classes and shared prefixes.
    let mut r = classes();
    let prods = parse_program(
        "(p m1 (goal ^id <g> ^state <s>) (block ^name <s>) --> (halt))
         (p m2 (goal ^id <g> ^state <s>) (block ^name <s> ^color blue) --> (halt))
         (p m3 (goal ^id <g> ^state <s>) -(block ^on <s>) --> (halt))
         (p m4 (block ^name <a> ^on <b>) (block ^name <b> ^on <c>) (block ^name <c>) --> (halt))",
        &mut r,
    )
    .unwrap();
    let mut net = ReteNetwork::new();
    for p in prods.clone() {
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
    }
    let mut e = SerialEngine::new(net);
    let mut adds = vec![parse_wme("(goal ^id g1 ^state s1)", &r).unwrap()];
    for i in 0..10 {
        adds.push(parse_wme(&format!("(block ^name t{i} ^on t{})", i + 1), &r).unwrap());
    }
    adds.push(parse_wme("(block ^name s1 ^color blue)", &r).unwrap());
    e.apply_changes(adds, vec![]);

    let naive: HashSet<_> =
        psme_rete::naive::match_all(prods.iter(), &e.state.store).into_iter().collect();
    assert_eq!(inst_set(&e.current_instantiations()), naive);
    assert!(!naive.is_empty());
}

#[test]
fn relational_join_test_direction() {
    // `^n > <m>` means wme.n > bound(m) — regression test for operand order.
    let mut r = ClassRegistry::new();
    r.declare_str("num", &["n", "tag"]);
    let mut net = ReteNetwork::new();
    let p = parse_production(
        "(p bigger (num ^n <m> ^tag base) (num ^n > <m> ^tag cand) --> (halt))",
        &mut r,
    )
    .unwrap();
    net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
    let mut e = SerialEngine::new(net);
    e.apply_changes(
        vec![
            parse_wme("(num ^n 5 ^tag base)", &r).unwrap(),
            parse_wme("(num ^n 9 ^tag cand)", &r).unwrap(),
            parse_wme("(num ^n 2 ^tag cand)", &r).unwrap(),
        ],
        vec![],
    );
    // Only 9 > 5 matches; 2 > 5 does not.
    assert_eq!(e.current_instantiations().len(), 1);
}

#[test]
fn variables_do_not_match_unset_fields() {
    let mut r = ClassRegistry::new();
    r.declare_str("rec", &["id", "role"]);
    let mut net = ReteNetwork::new();
    let p = parse_production("(p present (rec ^id <i> ^role <r>) --> (halt))", &mut r).unwrap();
    net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
    let mut e = SerialEngine::new(net);
    e.apply_changes(
        vec![
            parse_wme("(rec ^id a ^role operator)", &r).unwrap(),
            parse_wme("(rec ^id b)", &r).unwrap(), // role unset
        ],
        vec![],
    );
    assert_eq!(e.current_instantiations().len(), 1, "unset ^role must not bind <r>");
}
