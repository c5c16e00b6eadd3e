//! Chunking (§3, §5): "Chunking works by recording the wmes of each
//! instantiation and the wmes created by firing that instantiation. When a
//! wme is created that is accessible from any context, other than the most
//! recent context, chunking builds a new chunk … \[it\] performs a dependency
//! analysis by searching backward through the instantiation records to find
//! the wmes that existed before the result context that were used to
//! generate this result. It then constructs a new production whose LHS is
//! based on these wmes and whose RHS reconstructs the result."

use crate::arch::ArchFields;
use crate::wm::{object_of, Provenance, WmBook};
use psme_ops::{
    intern, Action, ClassRegistry, Cond, CondElem, FieldTest, Pred, Production, RhsBind, RhsExpr,
    RhsTerm, Symbol, Value, VarId, VarTable, WmeId,
};
use psme_rete::util::FxHashSet;
use psme_rete::WmeStore;
use std::collections::HashSet;

/// Builds chunks and deduplicates structurally identical ones.
#[derive(Debug, Default)]
pub struct Chunker {
    pub(crate) counter: u32,
    pub(crate) seen: HashSet<String>,
    /// Chunks built so far (in creation order).
    pub chunks: Vec<std::sync::Arc<Production>>,
}

/// The inputs to one chunk build.
pub struct ChunkRequest<'a> {
    /// The result wmes (created at a level above the firing goal).
    pub results: &'a [WmeId],
    /// Matched wmes of the creating instantiation.
    pub matched: &'a [WmeId],
    /// The production that created the results.
    pub prod: Symbol,
    /// The deepest level the conditions may come from (the result level).
    pub result_level: u32,
}

/// How a grounded negated-condition operand resolves.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum GroundVal {
    /// A constant (or a non-identifier binding value).
    Const(Value),
    /// An identifier bound by the traced instantiation — becomes the
    /// chunk variable of that identifier if some positive condition binds
    /// it, otherwise the whole negation is dropped (ungroundable).
    Ident(Symbol),
    /// A negation-local variable (fresh in the chunk).
    Local(u16),
}

/// A negated CE grounded with a traced instantiation's bindings.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct GroundedNeg {
    class: Symbol,
    tests: Vec<(u16, Pred, GroundVal)>,
}

/// Ground the negated CEs of a traced instantiation (Soar includes the
/// negations of backtraced instantiations in the chunk so the learned rule
/// keeps the discriminations that gated the result — e.g. the "tile is not
/// headed to its desired cell" tests of a neutral move evaluation).
fn ground_negs(
    prod: &Production,
    matched: &[WmeId],
    store: &WmeStore,
    book: &WmBook,
    out: &mut Vec<GroundedNeg>,
) {
    if !prod.ces.iter().any(|ce| matches!(ce, CondElem::Neg(_))) {
        return;
    }
    let arcs: Vec<std::sync::Arc<psme_ops::Wme>> =
        matched.iter().map(|id| store.get(*id).clone()).collect();
    let refs: Vec<&psme_ops::Wme> = arcs.iter().map(|a| a.as_ref()).collect();
    if refs.len() != prod.num_pos as usize {
        return;
    }
    let bindings = prod.bindings_of(&refs);
    for ce in &prod.ces {
        let CondElem::Neg(c) = ce else { continue };
        let mut local_map: std::collections::HashMap<VarId, u16> = Default::default();
        let mut tests = Vec::new();
        let mut ok = true;
        for t in &c.tests {
            match *t {
                FieldTest::Const { field, pred, value } => {
                    tests.push((field, pred, GroundVal::Const(value)))
                }
                FieldTest::Var { field, pred, var } => {
                    match prod.bind_sites[var.0 as usize] {
                        psme_ops::BindSite::Pos { .. } => {
                            let v = bindings[var.0 as usize];
                            match v {
                                Value::Sym(s) if book.is_identifier(s) => {
                                    tests.push((field, pred, GroundVal::Ident(s)))
                                }
                                Value::Nil => ok = false,
                                other => tests.push((field, pred, GroundVal::Const(other))),
                            }
                        }
                        psme_ops::BindSite::NegLocal { .. } => {
                            let next = local_map.len() as u16;
                            let idx = *local_map.entry(var).or_insert(next);
                            tests.push((field, pred, GroundVal::Local(idx)));
                        }
                        psme_ops::BindSite::Rhs => ok = false,
                    }
                }
            }
            if !ok {
                break;
            }
        }
        if ok {
            let gn = GroundedNeg { class: c.class, tests };
            if !out.contains(&gn) {
                out.push(gn);
            }
        }
    }
}

impl Chunker {
    /// Fresh chunker.
    pub fn new() -> Chunker {
        Chunker::default()
    }

    /// Number of chunks built.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// `true` before the first chunk.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Backtrace, variablize and construct a chunk. Returns `None` when an
    /// identical chunk already exists or no supergoal conditions remain.
    pub fn build(
        &mut self,
        req: ChunkRequest<'_>,
        book: &WmBook,
        store: &WmeStore,
        reg: &ClassRegistry,
        f: &ArchFields,
        lookup: &dyn Fn(Symbol) -> Option<std::sync::Arc<Production>>,
    ) -> Option<std::sync::Arc<Production>> {
        // ---- Dependency analysis (backtrace) ----
        let mut visited: FxHashSet<WmeId> = FxHashSet::default();
        let mut conditions: Vec<WmeId> = Vec::new();
        let mut neg_specs: Vec<GroundedNeg> = Vec::new();
        if let Some(p) = lookup(req.prod) {
            ground_negs(&p, req.matched, store, book, &mut neg_specs);
        }
        let mut traced_insts: FxHashSet<WmeId> = FxHashSet::default();
        let mut work: Vec<WmeId> = req.matched.to_vec();
        while let Some(w) = work.pop() {
            if !visited.insert(w) {
                continue;
            }
            if book.level_of(w) <= req.result_level {
                conditions.push(w);
                continue;
            }
            match book.provenance.get(&w) {
                Some(Provenance::Fired { matched, prod }) => {
                    // Ground this instantiation's negations once (keyed by
                    // any one wme it created — instantiations creating
                    // several wmes share the same matched set).
                    if traced_insts.insert(w) {
                        if let Some(p) = lookup(*prod) {
                            ground_negs(&p, matched, store, book, &mut neg_specs);
                        }
                    }
                    work.extend(matched.iter().copied());
                }
                Some(Provenance::Arch { sources }) => work.extend(sources.iter().copied()),
                // Untracked subgoal-internal wme: contributes nothing.
                None => {}
            }
        }
        if conditions.is_empty() {
            return None;
        }
        // Stable order: creation (time-tag) order.
        conditions.sort_by_key(|w| store.tag(*w));
        conditions.dedup();

        // ---- Action closure ----
        // Results that reference subgoal-born objects pull those objects'
        // augmentations into the action set (the chunk must be able to
        // rebuild the whole promoted structure).
        let mut action_wmes: Vec<WmeId> = req.results.to_vec();
        let mut closed: FxHashSet<WmeId> = action_wmes.iter().copied().collect();
        let mut i = 0;
        while i < action_wmes.len() {
            let w = store.get(action_wmes[i]).clone();
            let idf = object_of(&w, reg, f.id_attr).map(|(_, idf)| idf);
            for (fi, v) in w.fields.iter().enumerate() {
                if Some(fi as u16) == idf {
                    continue;
                }
                let Value::Sym(s) = v else { continue };
                if !book.is_identifier(*s) {
                    continue;
                }
                let native = book.obj_native_level.get(s).copied().unwrap_or(0);
                if native > req.result_level {
                    // subgoal-born object: include its augmentations
                    for &(wid, _) in book.augmentations(*s) {
                        if closed.insert(wid) {
                            action_wmes.push(wid);
                        }
                    }
                }
            }
            i += 1;
        }
        action_wmes.sort_by_key(|w| store.tag(*w));
        action_wmes.dedup();

        // ---- Variablization ----
        let mut vars = VarTable::new();
        let mut var_of: std::collections::HashMap<Symbol, VarId> = Default::default();
        let mut cond_ids: FxHashSet<Symbol> = FxHashSet::default();
        let mut ces: Vec<CondElem> = Vec::new();
        for &w in &conditions {
            let wme = store.get(w);
            let mut tests = Vec::new();
            for (fi, v) in wme.fields.iter().enumerate() {
                if v.is_nil() {
                    continue;
                }
                let test = match v {
                    Value::Sym(s) if book.is_identifier(*s) => {
                        cond_ids.insert(*s);
                        let var = *var_of
                            .entry(*s)
                            .or_insert_with(|| vars.var(intern(&format!("v*{s}"))));
                        FieldTest::Var { field: fi as u16, pred: Pred::Eq, var }
                    }
                    _ => FieldTest::Const { field: fi as u16, pred: Pred::Eq, value: *v },
                };
                tests.push(test);
            }
            ces.push(CondElem::Pos(Cond { class: wme.class, tests }));
        }

        // ---- Grounded negations ----
        // A negation survives only if every identifier it references is
        // bound by some positive condition; otherwise it is dropped
        // (conservative: the chunk stays overgeneral rather than wrong-way
        // restrictive — matching Soar's treatment of untraceable negations).
        let mut local_counter = 0u32;
        for gn in &neg_specs {
            // Pass 1: every referenced identifier must be bound by a
            // positive condition (locals are always fine).
            let groundable = gn.tests.iter().all(|(_, _, gv)| match gv {
                GroundVal::Ident(s) => var_of.contains_key(s),
                _ => true,
            });
            if !groundable {
                continue;
            }
            // Pass 2: build the tests (allocating chunk-local variables
            // only for kept negations — unused variables would fail
            // production validation).
            let mut tests = Vec::new();
            let mut local_vars: std::collections::HashMap<u16, VarId> = Default::default();
            for &(field, pred, ref gv) in &gn.tests {
                match gv {
                    GroundVal::Const(v) => tests.push(FieldTest::Const { field, pred, value: *v }),
                    GroundVal::Ident(s) => {
                        tests.push(FieldTest::Var { field, pred, var: var_of[s] })
                    }
                    GroundVal::Local(i) => {
                        let var = *local_vars.entry(*i).or_insert_with(|| {
                            local_counter += 1;
                            vars.var(intern(&format!("nl*{local_counter}")))
                        });
                        tests.push(FieldTest::Var { field, pred, var });
                    }
                }
            }
            ces.push(CondElem::Neg(Cond { class: gn.class, tests }));
        }

        // ---- Actions ----
        let mut binds: Vec<RhsBind> = Vec::new();
        let mut actions: Vec<Action> = Vec::new();
        for &w in &action_wmes {
            let wme = store.get(w);
            let mut fields = Vec::new();
            for (fi, v) in wme.fields.iter().enumerate() {
                if v.is_nil() {
                    continue;
                }
                let term = match v {
                    Value::Sym(s) if book.is_identifier(*s) => {
                        if let Some(var) = var_of.get(s) {
                            RhsTerm::Var(*var)
                        } else {
                            // Identifier absent from every condition: a new
                            // object the chunk must mint afresh.
                            let var = vars.var(intern(&format!("v*{s}")));
                            var_of.insert(*s, var);
                            binds.push(RhsBind { var, expr: RhsExpr::Genatom });
                            RhsTerm::Var(var)
                        }
                    }
                    _ => RhsTerm::Const(*v),
                };
                fields.push((fi as u16, term));
            }
            actions.push(Action::Make { class: wme.class, fields });
        }

        self.counter += 1;
        let name = intern(&format!("chunk-{}", self.counter));
        let prod = Production::new(name, ces, vars.into_names(), binds, actions).ok()?;

        // ---- Structural dedup (canonical rendering with vars renumbered
        // by first occurrence) ----
        let canon = canonical_form(&prod);
        if !self.seen.insert(canon) {
            self.counter -= 1;
            return None;
        }
        let arc = std::sync::Arc::new(prod);
        self.chunks.push(arc.clone());
        Some(arc)
    }
}

/// Render a production with variables numbered by first occurrence, so
/// structurally identical chunks compare equal regardless of gensym names.
fn canonical_form(p: &Production) -> String {
    use std::fmt::Write;
    let mut renumber: std::collections::HashMap<u16, usize> = Default::default();
    let mut next = 0usize;
    let mut num = |v: VarId, renumber: &mut std::collections::HashMap<u16, usize>| -> usize {
        *renumber.entry(v.0).or_insert_with(|| {
            let n = next;
            next += 1;
            n
        })
    };
    let mut s = String::new();
    for ce in &p.ces {
        if !ce.is_pos() {
            s.push('-');
        }
        for c in ce.conds() {
            write!(s, "({}", c.class).unwrap();
            for t in &c.tests {
                match *t {
                    FieldTest::Const { field, pred, value } => {
                        write!(s, " {field}:{pred:?}:{value}").unwrap()
                    }
                    FieldTest::Var { field, pred, var } => {
                        let n = num(var, &mut renumber);
                        write!(s, " {field}:{pred:?}:<{n}>").unwrap()
                    }
                }
            }
            s.push(')');
        }
    }
    s.push('>');
    for a in &p.actions {
        if let Action::Make { class, fields } = a {
            write!(s, "({class}").unwrap();
            for (f, t) in fields {
                match t {
                    RhsTerm::Const(v) => write!(s, " {f}:{v}").unwrap(),
                    RhsTerm::Var(v) => {
                        let n = num(*v, &mut renumber);
                        write!(s, " {f}:<{n}>").unwrap()
                    }
                }
            }
            s.push(')');
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::declare_arch_classes;
    use crate::wm::Provenance;

    fn setup() -> (ClassRegistry, ArchFields, WmeStore, WmBook) {
        let mut reg = ClassRegistry::new();
        reg.declare_str("state", &["id", "object"]);
        reg.declare_str("object", &["id", "kind"]);
        let f = declare_arch_classes(&mut reg);
        (reg, f, WmeStore::new(), WmBook::new())
    }

    fn add(
        store: &mut WmeStore,
        book: &mut WmBook,
        (reg, f): (&ClassRegistry, &ArchFields),
        s: &str,
        level: u32,
        prov: Provenance,
    ) -> WmeId {
        let w = psme_ops::parse_wme(s, reg).unwrap();
        let (id, _) = store.add(w.clone());
        book.note_add(id, w, level, prov, f, reg);
        id
    }

    #[test]
    fn backtrace_collects_supergoal_conditions() {
        let (reg, f, mut store, mut book) = setup();
        for id in ["s1", "o1", "g1"] {
            book.register_identifier(intern(id));
            book.note_new_object(intern(id), 0);
        }
        // Supergoal structure (level 0).
        let w_state = add(&mut store, &mut book, (&reg, &f), "(state ^id s1 ^object o1)", 0, Provenance::Arch { sources: vec![] });
        let w_obj = add(&mut store, &mut book, (&reg, &f), "(object ^id o1 ^kind door)", 0, Provenance::Arch { sources: vec![] });
        // Subgoal intermediate (level 1), derived from both.
        let w_mid = add(
            &mut store,
            &mut book,
            (&reg, &f),
            "(object ^id o1 ^kind seen)",
            1,
            Provenance::Fired { matched: vec![w_state, w_obj], prod: intern("mid-maker") },
        );
        // Result (level 0) created by an instantiation matching the
        // intermediate.
        let w_res = add(
            &mut store,
            &mut book,
            (&reg, &f),
            "(preference ^object o1 ^role operator ^value best ^goal g1)",
            0,
            Provenance::Fired { matched: vec![w_mid], prod: intern("result-maker") },
        );
        let mut ch = Chunker::new();
        let p = ch
            .build(
                ChunkRequest { results: &[w_res], matched: &[w_mid], prod: intern("result-maker"), result_level: 0 },
                &book,
                &store,
                &reg,
                &f,
                &|_| None,
            )
            .unwrap();
        // Conditions: the two supergoal wmes, traced through the subgoal
        // intermediate.
        assert_eq!(p.ces.len(), 2);
        assert_eq!(p.actions.len(), 1);
        // Identifiers became variables.
        assert!(p.var_names.len() >= 2);
        // A second structurally identical chunk is suppressed.
        let again = ch.build(
            ChunkRequest { results: &[w_res], matched: &[w_mid], prod: intern("result-maker"), result_level: 0 },
            &book,
            &store,
            &reg,
            &f,
            &|_| None,
        );
        assert!(again.is_none());
        assert_eq!(ch.len(), 1);
    }

    #[test]
    fn new_objects_get_genatom_binds() {
        let (reg, f, mut store, mut book) = setup();
        book.register_identifier(intern("s9"));
        book.note_new_object(intern("s9"), 0);
        let cond_w = add(&mut store, &mut book, (&reg, &f), "(state ^id s9)", 0, Provenance::Arch { sources: vec![] });
        // The result references a subgoal-born object o-new (level 1).
        book.register_identifier(intern("o-new"));
        book.note_new_object(intern("o-new"), 1);
        let res = add(
            &mut store,
            &mut book,
            (&reg, &f),
            "(state ^id s9 ^object o-new)",
            0,
            Provenance::Fired { matched: vec![cond_w], prod: intern("result-maker") },
        );
        let aug = add(&mut store, &mut book, (&reg, &f), "(object ^id o-new ^kind fresh)", 1, Provenance::Arch { sources: vec![] });
        let _ = aug;
        let mut ch = Chunker::new();
        let p = ch
            .build(
                ChunkRequest { results: &[res], matched: &[cond_w], prod: intern("result-maker"), result_level: 0 },
                &book,
                &store,
                &reg,
                &f,
                &|_| None,
            )
            .unwrap();
        // o-new is not bound by any condition → RHS genatom bind; its
        // augmentation is pulled into the actions.
        assert_eq!(p.rhs_binds.len(), 1);
        assert!(matches!(p.rhs_binds[0].expr, RhsExpr::Genatom));
        assert_eq!(p.actions.len(), 2, "result + closure augmentation");
    }

    #[test]
    fn canonical_form_ignores_gensym_names() {
        let mut reg = ClassRegistry::new();
        reg.declare_str("a", &["id", "x"]);
        let p1 = psme_ops::parse_production("(p c1 (a ^id <q>) --> (make a ^x <q>))", &mut reg).unwrap();
        let p2 = psme_ops::parse_production("(p c2 (a ^id <zz>) --> (make a ^x <zz>))", &mut reg).unwrap();
        assert_eq!(canonical_form(&p1), canonical_form(&p2));
        let p3 = psme_ops::parse_production("(p c3 (a ^id <q>) --> (make a ^x blue))", &mut reg).unwrap();
        assert_ne!(canonical_form(&p1), canonical_form(&p3));
    }
}
