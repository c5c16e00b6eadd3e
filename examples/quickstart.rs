//! Quickstart: parse OPS5 productions, match incrementally, add a
//! production at run time (the paper's §5 capability), and run the classic
//! recognize-act cycle.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use soar_psme::ops::{parse_production, parse_program, parse_wme, ClassRegistry};
use soar_psme::rete::{NetworkOrg, Ops5Runtime, ReteBuild, ReteNetwork, SerialEngine};
use std::sync::Arc;

fn main() {
    // ---- 1. Declare classes and productions (the paper's Figure 2-1). ----
    let mut classes = ClassRegistry::new();
    let prods = parse_program(
        "(literalize block name color on state)
         (literalize hand state)

         (p blue-block-is-graspable
            (block ^name <b> ^color blue)
           -(block ^on <b>)
            (hand ^state free)
           -->
            (write block <b> is graspable))",
        &mut classes,
    )
    .expect("productions parse");

    // ---- 2. Compile into a Rete network and match incrementally. ----
    let mut net = ReteNetwork::new();
    for p in &prods {
        net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
    }
    let mut engine = SerialEngine::new(net);

    let out = engine.apply_changes(
        vec![
            parse_wme("(block ^name b1 ^color blue)", &classes).unwrap(),
            parse_wme("(hand ^state free)", &classes).unwrap(),
        ],
        vec![],
    );
    println!("after adding two wmes: {} instantiation(s), {} match tasks", out.cs.added.len(), out.tasks);

    // Stack a block on b1: the negated condition retracts the match.
    let out = engine.apply_changes(
        vec![parse_wme("(block ^name b2 ^color red ^on b1)", &classes).unwrap()],
        vec![],
    );
    println!("after stacking b2 on b1: {} retraction(s)", out.cs.removed.len());

    // ---- 3. Add a production AT RUN TIME (the paper's §5.1/§5.2). ----
    let chunk = parse_production(
        "(p red-block-spotted (block ^name <b> ^color red) --> (write red block))",
        &mut classes,
    )
    .unwrap();
    let added = engine.add_production(Arc::new(chunk), NetworkOrg::Linear).unwrap();
    println!(
        "run-time addition: {} update tasks ran, found {} existing instantiation(s), \
         shared {} two-input node(s)",
        added.update_tasks,
        added.cs.added.len(),
        added.add.shared_two_input,
    );

    // ---- 4. The OPS5 recognize-act cycle (match–select–fire with LEX). ----
    let mut classes2 = ClassRegistry::new();
    let countdown = parse_program(
        "(literalize count n)
         (p decrement (count ^n { <x> > 0 }) -->
            (bind <m> (compute <x> - 1))
            (modify 1 ^n <m>))
         (p done (count ^n 0) --> (write liftoff) (halt))",
        &mut classes2,
    )
    .unwrap()
    .into_iter()
    .map(Arc::new)
    .collect();
    let mut rt = Ops5Runtime::new(countdown, classes2.clone()).unwrap();
    rt.make(vec![parse_wme("(count ^n 5)", &classes2).unwrap()]);
    let stop = rt.run(100);
    println!("countdown: fired {} productions, stopped {:?}, output {:?}", rt.fired(), stop, rt.output);
}
