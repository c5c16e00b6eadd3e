//! Property tests for LEX conflict resolution and lexer/parser totality.

use proptest::prelude::*;
use psme_ops::{intern, ConflictSet, Instantiation, TimeTag, WmeId};
use std::sync::Arc;

fn owned(insts: Vec<Arc<Instantiation>>) -> Vec<Instantiation> {
    insts.iter().map(|i| Instantiation::clone(i)).collect()
}

/// The conflict set's documented behaviour as a plain list: the entries in
/// insertion order as removals' `swap_remove` permutes it, each with its
/// specificity, its fired flag and whether it is the copy the position
/// index holds (the first copy added while no other copy was indexed).
#[derive(Default)]
struct Model {
    entries: Vec<(Instantiation, usize, bool, bool)>,
}

impl Model {
    fn add(&mut self, inst: &Instantiation, spec: usize) {
        let indexed = !self.entries.iter().any(|e| e.0 == *inst && e.3);
        self.entries.push((inst.clone(), spec, false, indexed));
    }

    /// Removes the indexed copy, else the first copy in list order.
    fn remove(&mut self, inst: &Instantiation) -> bool {
        let at = self
            .entries
            .iter()
            .position(|e| e.0 == *inst && e.3)
            .or_else(|| self.entries.iter().position(|e| e.0 == *inst));
        at.map(|i| self.entries.swap_remove(i)).is_some()
    }

    fn take_unfired(&mut self) -> Vec<Instantiation> {
        let mut out = Vec::new();
        for e in self.entries.iter_mut().filter(|e| !e.2) {
            e.2 = true;
            out.push(e.0.clone());
        }
        out
    }

    /// The first unfired entry with the greatest (recency key, specificity).
    fn select_lex(&mut self) -> Option<Instantiation> {
        let key = |e: &(Instantiation, usize, bool, bool)| (e.0.recency_key(), e.1);
        let mut best: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate().filter(|(_, e)| !e.2) {
            let better = match best {
                None => true,
                Some(b) => key(e) > key(&self.entries[b]),
            };
            if better {
                best = Some(i);
            }
        }
        let chosen = &mut self.entries[best?];
        chosen.2 = true;
        Some(chosen.0.clone())
    }
}

fn inst_strategy() -> impl Strategy<Value = (Instantiation, usize)> {
    (0u8..8, prop::collection::vec(0u64..50, 1..5), 0usize..10).prop_map(|(p, tags, spec)| {
        (
            Instantiation {
                prod: intern(&format!("p{p}")),
                wmes: tags.iter().map(|&t| WmeId(t as u32)).collect(),
                tags: tags.iter().map(|&t| TimeTag(t)).collect(),
            },
            spec,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// select_lex returns the dominant instantiation: no other unfired
    /// instantiation has a lexicographically greater recency key.
    #[test]
    fn lex_selects_the_dominant(insts in prop::collection::vec(inst_strategy(), 1..12)) {
        let mut cs = ConflictSet::new();
        for (i, spec) in &insts {
            cs.add(i.clone(), *spec);
        }
        let chosen = cs.select_lex().expect("non-empty");
        let ckey = chosen.recency_key();
        for (i, _) in &insts {
            prop_assert!(i.recency_key() <= ckey, "{:?} beats chosen {:?}", i, chosen);
        }
    }

    /// Repeated selection enumerates every distinct instantiation exactly
    /// once (refraction), in non-increasing recency order.
    #[test]
    fn lex_enumerates_each_once_in_order(insts in prop::collection::vec(inst_strategy(), 1..12)) {
        let mut cs = ConflictSet::new();
        let mut distinct = std::collections::HashSet::new();
        for (i, spec) in &insts {
            if distinct.insert(i.clone()) {
                cs.add(i.clone(), *spec);
            }
        }
        let mut fired = Vec::new();
        while let Some(i) = cs.select_lex() {
            fired.push(i);
            prop_assert!(fired.len() <= distinct.len() + insts.len(), "terminates");
        }
        // Duplicated additions may fire per copy; distinct ones at least once.
        prop_assert!(fired.len() >= distinct.len());
        for w in fired.windows(2) {
            prop_assert!(w[0].recency_key() >= w[1].recency_key());
        }
    }

    /// take_unfired never returns an instantiation twice.
    #[test]
    fn take_unfired_is_exactly_once(insts in prop::collection::vec(inst_strategy(), 1..12)) {
        let mut cs = ConflictSet::new();
        let mut seen = std::collections::HashSet::new();
        for (i, spec) in &insts {
            if seen.insert(i.clone()) {
                cs.add(i.clone(), *spec);
            }
        }
        let first = cs.take_unfired();
        prop_assert_eq!(first.len(), seen.len());
        prop_assert!(cs.take_unfired().is_empty());
    }

    /// The position index and per-entry fired flag against the structure
    /// they replaced — a `position()` scan with `swap_remove`, and a set of
    /// fired instantiations: after every operation `entries()` (order,
    /// specificity, fired) and every `take_unfired()` result are identical,
    /// so firing order and the hibernate encoding cannot have moved.
    #[test]
    fn indexed_set_equals_scan_and_fired_set(
        insts in prop::collection::vec(inst_strategy(), 1..24),
        script in prop::collection::vec((0u8..4, 0usize..64), 1..80),
    ) {
        let mut cs = ConflictSet::new();
        let mut present: Vec<(Instantiation, usize)> = Vec::new();
        let mut fired: std::collections::HashSet<Instantiation> = Default::default();
        for (op, pick) in script {
            let (inst, spec) = &insts[pick % insts.len()];
            match op {
                0 | 1 => {
                    if !present.iter().any(|(p, _)| p == inst) {
                        cs.add(inst.clone(), *spec);
                        present.push((inst.clone(), *spec));
                    }
                }
                2 => {
                    let at = present.iter().position(|(p, _)| p == inst);
                    prop_assert_eq!(cs.remove(inst), at.is_some());
                    if let Some(i) = at {
                        present.swap_remove(i);
                        fired.remove(inst);
                    }
                }
                _ => {
                    let expect: Vec<Instantiation> = present
                        .iter()
                        .filter(|(p, _)| fired.insert(p.clone()))
                        .map(|(p, _)| p.clone())
                        .collect();
                    prop_assert_eq!(owned(cs.take_unfired()), expect);
                }
            }
            let got: Vec<_> = cs.entries().map(|(i, s, f)| (i.clone(), s, f)).collect();
            let want: Vec<_> =
                present.iter().map(|(i, s)| (i.clone(), *s, fired.contains(i))).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Random interleavings of every operation — adds (duplicates
    /// included), removals of present and absent instantiations (most of
    /// them `swap_remove`s from the middle), `take_unfired` and
    /// `select_lex` — against the list model. What `take_unfired` and
    /// `select_lex` return is the model's, `entries()` (the order a
    /// hibernated conflict set is encoded in) is the model's list after
    /// every step, and a set whose entries have all fired hands back nothing
    /// and stays as it was.
    #[test]
    fn every_operation_matches_the_list_model(
        insts in prop::collection::vec(inst_strategy(), 1..8),
        script in prop::collection::vec((0u8..6, 0usize..64), 1..120),
    ) {
        let mut cs = ConflictSet::new();
        let mut model = Model::default();
        for (op, pick) in script {
            let (inst, spec) = &insts[pick % insts.len()];
            match op {
                0 | 1 => {
                    cs.add(inst.clone(), *spec);
                    model.add(inst, *spec);
                }
                2 | 3 => prop_assert_eq!(cs.remove(inst), model.remove(inst)),
                4 => {
                    let nothing_unfired = model.entries.iter().all(|e| e.2);
                    let taken = owned(cs.take_unfired());
                    prop_assert_eq!(&taken, &model.take_unfired());
                    prop_assert_eq!(taken.is_empty(), nothing_unfired);
                    prop_assert!(cs.take_unfired().is_empty());
                }
                _ => prop_assert_eq!(
                    cs.select_lex().map(|i| Instantiation::clone(&i)),
                    model.select_lex()
                ),
            }
            let got: Vec<_> = cs.entries().map(|(i, s, f)| (i.clone(), s, f)).collect();
            let want: Vec<_> = model.entries.iter().map(|e| (e.0.clone(), e.1, e.2)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(cs.len(), model.entries.len());
        }
    }

    /// An instantiation added twice is two entries, and `remove` takes them
    /// one at a time.
    #[test]
    fn duplicates_are_removed_one_at_a_time((inst, spec) in inst_strategy(), others in prop::collection::vec(inst_strategy(), 0..6)) {
        let mut cs = ConflictSet::new();
        cs.add(inst.clone(), spec);
        for (o, s) in others.iter().filter(|(o, _)| *o != inst) {
            cs.add(o.clone(), *s);
        }
        cs.add(inst.clone(), spec);
        let n = cs.len();
        prop_assert!(cs.remove(&inst));
        prop_assert!(cs.remove(&inst));
        prop_assert!(!cs.remove(&inst));
        prop_assert_eq!(cs.len(), n - 2);
        prop_assert!(cs.iter().all(|i| *i != inst));
    }

    /// The lexer/parser never panic on arbitrary input — they return errors.
    #[test]
    fn parser_is_total(src in "[ -~\\n]{0,200}") {
        let mut reg = psme_ops::ClassRegistry::new();
        let _ = psme_ops::parse_program(&src, &mut reg);
        let _ = psme_ops::parse_wme(&src, &reg);
    }

    /// Any production built from the paper-like grammar fragment parses or
    /// errors cleanly, and successful parses re-print and re-parse.
    #[test]
    fn structured_sources_round_trip(
        class in "[a-z]{1,6}",
        attr in "[a-z]{1,6}",
        val in 0i64..100,
    ) {
        let mut reg = psme_ops::ClassRegistry::new();
        let src = format!(
            "(literalize {class} {attr})
             (p gen ({class} ^{attr} {val}) -({class} ^{attr} <v>) --> (make {class} ^{attr} <v>))"
        );
        // <v> is negation-local and used on the RHS: must be rejected.
        let r = psme_ops::parse_program(&src, &mut reg);
        prop_assert!(r.is_err());
        let src_ok = format!(
            "(p gen2 ({class} ^{attr} <v>) -({class} ^{attr} {val}) --> (make {class} ^{attr} <v>))"
        );
        let p = psme_ops::parse_production(&src_ok, &mut reg).unwrap();
        let text = psme_ops::production_text(&p, &reg);
        let p2 = psme_ops::parse_production(&text, &mut reg).unwrap();
        prop_assert_eq!(p.ces, p2.ces);
    }
}
