// The "fruit boxes" task, shared by the tests that `include!` this file:
// two boxes with different payoffs; opening the fuller one is better. A run
// proposes two operators, ties, evaluates both in a selection subgoal,
// learns one chunk from the result and halts after writing `took 7`. The
// includer brings `Arc`, `ClassRegistry`, `SoarTask`, `declare_arch_classes`,
// `intern`, `parse_program` and `parse_wme` into scope.

/// The fruit-boxes task: forces exactly one operator tie.
fn fruit_task() -> SoarTask {
    let mut classes = ClassRegistry::new();
    declare_arch_classes(&mut classes);
    let src = "
(literalize box id owner contains)
(literalize op id box)

(p fruit*init-ps
   (goal ^id <g> ^type top)
  -->
   (make preference ^object ps-fruit ^role problem-space ^value acceptable ^goal <g>))

(p fruit*init-state
   (goal ^id <g> ^problem-space ps-fruit)
  -->
   (make preference ^object s0 ^role state ^value acceptable ^goal <g>))

(p fruit*propose
   (goal ^id <g> ^state <s>)
   (box ^id <b> ^owner <s>)
  -->
   (bind <o> (genatom))
   (make op ^id <o> ^box <b>)
   (make preference ^object <o> ^role operator ^value acceptable ^goal <g> ^state <s>))

(p fruit*eval
   (goal ^id <g2> ^impasse tie)
   (goal ^id <g2> ^item <o>)
   (op ^id <o> ^box <b>)
   (box ^id <b> ^contains <n>)
  -->
   (make eval ^goal <g2> ^object <o> ^value <n>))

(p fruit*apply
   (goal ^id <g> ^operator <o>)
   (op ^id <o> ^box <b>)
   (box ^id <b> ^contains <n>)
  -->
   (write took <n>)
   (halt))
";
    let productions =
        parse_program(src, &mut classes).unwrap().into_iter().map(Arc::new).collect();
    let init_wmes = vec![
        parse_wme("(box ^id b1 ^owner s0 ^contains 3)", &classes).unwrap(),
        parse_wme("(box ^id b2 ^owner s0 ^contains 7)", &classes).unwrap(),
    ];
    SoarTask {
        name: "fruit".into(),
        classes,
        productions,
        init_wmes,
        identifiers: vec![intern("ps-fruit"), intern("s0"), intern("b1"), intern("b2")],
    }
}
