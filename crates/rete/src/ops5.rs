//! A complete OPS5 runtime: the match–select–fire recognize-act cycle.
//!
//! "Production systems repeatedly cycle through three phases: match, select
//! and fire. The matcher first updates the CS with all of the current
//! matches for the productions. Conflict resolution selects one of these
//! instantiations, removes it, and then fires it" (§2.1). This is the OPS5
//! half of PSM-E — Soar's fire-everything semantics live in `psme-soar`.

use crate::build::ReteBuild;
use crate::network::NetworkOrg;
use crate::serial::SerialEngine;
use crate::ReteNetwork;
use psme_ops::{
    gensym, ConcreteAction, ConflictSet, Production, Wme, WmeId,
};
use std::sync::Arc;

/// Why an OPS5 run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ops5Stop {
    /// `(halt)` executed.
    Halted,
    /// No instantiation left to fire.
    Quiescent,
    /// The cycle budget ran out.
    CycleLimit,
}

/// An OPS5 production-system runtime over the serial engine.
pub struct Ops5Runtime {
    /// The match engine.
    pub engine: SerialEngine,
    /// The conflict set (LEX strategy).
    pub cs: ConflictSet,
    /// `(write …)` output.
    pub output: Vec<String>,
    /// Class declarations (for RHS `make`).
    pub classes: psme_ops::ClassRegistry,
    prods: std::collections::HashMap<psme_ops::Symbol, Arc<Production>>,
    fired_count: u64,
}

impl Ops5Runtime {
    /// Build a runtime from a production set and its class declarations.
    pub fn new(
        productions: Vec<Arc<Production>>,
        classes: psme_ops::ClassRegistry,
    ) -> Result<Ops5Runtime, crate::BuildError> {
        let mut net = ReteNetwork::new();
        let mut prods = std::collections::HashMap::new();
        for p in &productions {
            net.add_production(p.clone(), NetworkOrg::Linear)?;
            prods.insert(p.name, p.clone());
        }
        Ok(Ops5Runtime {
            engine: SerialEngine::new(net),
            cs: ConflictSet::new(),
            output: Vec::new(),
            classes,
            prods,
            fired_count: 0,
        })
    }

    /// Add wmes to working memory (matching immediately, as the OPS5
    /// top-level `make` does).
    pub fn make(&mut self, wmes: Vec<Wme>) {
        let out = self.engine.apply_changes(wmes, vec![]);
        self.absorb(out.cs);
    }

    fn absorb(&mut self, delta: crate::CsDelta) {
        delta.fold_into(&mut self.cs, |p| self.prods.get(&p).map_or(0, |p| p.test_count));
    }

    /// Productions fired so far.
    pub fn fired(&self) -> u64 {
        self.fired_count
    }

    /// Fire one instantiation chosen by LEX. Returns `false` at quiescence.
    pub fn step(&mut self) -> Result<bool, Ops5Stop> {
        let Some(inst) = self.cs.select_lex() else {
            return Ok(false);
        };
        self.fired_count += 1;
        let prod = self.prods.get(&inst.prod).expect("fired production exists").clone();
        let wme_arcs: Vec<Arc<Wme>> =
            inst.wmes.iter().map(|id| self.engine.state.store.get(*id).clone()).collect();
        let refs: Vec<&Wme> = wme_arcs.iter().map(|a| a.as_ref()).collect();
        let mut bindings = prod.bindings_of(&refs);
        let actions = prod.eval_rhs(&mut bindings, &mut || gensym("g"));

        let mut adds: Vec<Wme> = Vec::new();
        let mut removes: Vec<WmeId> = Vec::new();
        let mut halt = false;
        for act in actions {
            match act {
                ConcreteAction::Make(class, fields) => {
                    if let Some(d) = self.classes.get(class) {
                        adds.push(Wme::with_fields(d, &fields));
                    }
                }
                ConcreteAction::RemoveCe(k) => {
                    removes.push(inst.wmes[k as usize - 1]);
                }
                ConcreteAction::ModifyCe(k, fields) => {
                    let id = inst.wmes[k as usize - 1];
                    let old = self.engine.state.store.get(id).clone();
                    let mut new = (*old).clone();
                    for (f, v) in fields {
                        new.fields[f as usize] = v;
                    }
                    removes.push(id);
                    adds.push(new);
                }
                ConcreteAction::Write(s) => self.output.push(s),
                ConcreteAction::Halt => halt = true,
            }
        }
        removes.sort_unstable();
        removes.dedup();
        let out = self.engine.apply_changes(adds, removes);
        self.absorb(out.cs);
        // The cycle is quiescent and nothing here backtraces: what was
        // removed is gone.
        self.engine.state.store.retire_removed(|_| false);
        if halt {
            Err(Ops5Stop::Halted)
        } else {
            Ok(true)
        }
    }

    /// Run the recognize-act cycle for up to `max_cycles` firings.
    pub fn run(&mut self, max_cycles: u64) -> Ops5Stop {
        for _ in 0..max_cycles {
            match self.step() {
                Ok(true) => {}
                Ok(false) => return Ops5Stop::Quiescent,
                Err(stop) => return stop,
            }
        }
        Ops5Stop::CycleLimit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psme_ops::{parse_program, parse_wme, ClassRegistry};

    /// The classic "counter" OPS5 program: counts down with modify.
    #[test]
    fn countdown_with_modify() {
        let mut classes = ClassRegistry::new();
        let prods = parse_program(
            "(literalize count n)
             (p decrement (count ^n { <x> > 0 }) -->
                (bind <m> (compute <x> - 1))
                (write tick)
                (modify 1 ^n <m>))
             (p done (count ^n 0) --> (write liftoff) (halt))",
            &mut classes,
        )
        .unwrap()
        .into_iter()
        .map(Arc::new)
        .collect();
        let mut rt = Ops5Runtime::new(prods, classes.clone()).unwrap();
        rt.make(vec![parse_wme("(count ^n 3)", &classes).unwrap()]);
        let stop = rt.run(100);
        assert_eq!(stop, Ops5Stop::Halted);
        assert_eq!(rt.output, vec!["tick", "tick", "tick", "liftoff"]);
        assert_eq!(rt.fired(), 4);
    }

    /// LEX recency: the most recently touched data is worked on first.
    #[test]
    fn lex_prefers_recent_wmes() {
        let mut classes = ClassRegistry::new();
        let prods = parse_program(
            "(literalize item name)
             (p consume (item ^name <n>) --> (write <n>) (remove 1))",
            &mut classes,
        )
        .unwrap()
        .into_iter()
        .map(Arc::new)
        .collect();
        let mut rt = Ops5Runtime::new(prods, classes.clone()).unwrap();
        rt.make(vec![
            parse_wme("(item ^name first)", &classes).unwrap(),
            parse_wme("(item ^name second)", &classes).unwrap(),
        ]);
        assert_eq!(rt.run(10), Ops5Stop::Quiescent);
        // LEX pops the most recent wme first.
        assert_eq!(rt.output, vec!["second", "first"]);
    }

    #[test]
    fn refraction_prevents_refiring() {
        let mut classes = ClassRegistry::new();
        let prods = parse_program(
            "(literalize fact f)
             (p note (fact ^f x) --> (write saw))",
            &mut classes,
        )
        .unwrap()
        .into_iter()
        .map(Arc::new)
        .collect();
        let mut rt = Ops5Runtime::new(prods, classes.clone()).unwrap();
        rt.make(vec![parse_wme("(fact ^f x)", &classes).unwrap()]);
        assert_eq!(rt.run(10), Ops5Stop::Quiescent);
        assert_eq!(rt.output, vec!["saw"], "fires once, then refraction holds");
    }

    #[test]
    fn cycle_limit_guards_runaways() {
        let mut classes = ClassRegistry::new();
        let prods = parse_program(
            "(literalize tok v)
             (p spin (tok ^v <x>) --> (modify 1 ^v <x>))",
            &mut classes,
        )
        .unwrap()
        .into_iter()
        .map(Arc::new)
        .collect();
        let mut rt = Ops5Runtime::new(prods, classes.clone()).unwrap();
        rt.make(vec![parse_wme("(tok ^v a)", &classes).unwrap()]);
        assert_eq!(rt.run(25), Ops5Stop::CycleLimit);
    }
}
