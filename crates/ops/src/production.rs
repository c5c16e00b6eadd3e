//! Productions (condition-action rules) and instantiations.

use crate::action::{Action, RhsBind, RhsExpr, RhsTerm};
use crate::cond::{CondElem, Pred};
use crate::symbol::Symbol;
use crate::value::Value;
use crate::wme::{TimeTag, Wme, WmeId};
use std::collections::HashMap;
use std::fmt;

/// Index into a production's variable table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u16);

/// Where a variable receives its binding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BindSite {
    /// Bound by an `Eq` test in the `pos_idx`-th *positive* CE at `field`.
    Pos {
        /// Positive-CE index (0-based, counting positive CEs only).
        pos_idx: u16,
        /// Field index within that CE's wme.
        field: u16,
    },
    /// Local to a negated CE / NCC (never visible outside that condition
    /// element; `ce` is the index of the defining element in `ces`).
    NegLocal {
        /// Index of the defining condition element.
        ce: u16,
    },
    /// Bound on the RHS by `bind`.
    Rhs,
}

/// A compiled production: named LHS (condition elements) plus RHS.
///
/// Construct through [`Production::new`], which performs the variable
/// analysis OPS5 does at compile time (binding-site determination and
/// use-before-bind checking).
#[derive(Clone, Debug)]
pub struct Production {
    /// Production name.
    pub name: Symbol,
    /// Condition elements in source order.
    pub ces: Vec<CondElem>,
    /// Variable names (`VarId` → name).
    pub var_names: Vec<Symbol>,
    /// Binding site per variable.
    pub bind_sites: Vec<BindSite>,
    /// RHS `bind` forms, evaluated in order before the actions.
    pub rhs_binds: Vec<RhsBind>,
    /// RHS actions.
    pub actions: Vec<Action>,
    /// Number of positive CEs.
    pub num_pos: u16,
    /// Total number of attribute tests across all CEs, one class test per
    /// condition included: the specificity LEX ranks by, counted once here.
    pub test_count: usize,
}

/// A concrete action produced by evaluating a production's RHS against an
/// instantiation's bindings. The engine applies these to working memory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConcreteAction {
    /// Add a wme of `class` with the given `(field, value)` pairs set.
    Make(Symbol, Vec<(u16, Value)>),
    /// Remove the wme bound to the 1-based positive CE.
    RemoveCe(u16),
    /// Modify (remove + re-make) the wme bound to the 1-based positive CE.
    ModifyCe(u16, Vec<(u16, Value)>),
    /// Output line.
    Write(String),
    /// Stop the recognize-act cycle.
    Halt,
}

impl Production {
    /// Build and validate a production.
    ///
    /// Checks performed (mirroring the OPS5 compiler):
    /// - a variable's first occurrence must be an `Eq` test (relational
    ///   predicates cannot bind);
    /// - variables used in negated CEs / NCCs either refer to earlier
    ///   positive bindings or are local to that negation;
    /// - RHS terms only reference bound or RHS-`bind`-defined variables;
    /// - `remove`/`modify` CE indices refer to existing positive CEs;
    /// - the first CE must be positive (OPS5 restriction).
    pub fn new(
        name: Symbol,
        ces: Vec<CondElem>,
        var_names: Vec<Symbol>,
        rhs_binds: Vec<RhsBind>,
        actions: Vec<Action>,
    ) -> Result<Production, String> {
        if ces.is_empty() {
            return Err(format!("{name}: production has no condition elements"));
        }
        if !ces[0].is_pos() {
            return Err(format!("{name}: first condition element must be positive"));
        }
        let nvars = var_names.len();
        let mut bind_sites = vec![None::<BindSite>; nvars];
        let mut num_pos: u16 = 0;
        for (ce_idx, ce) in ces.iter().enumerate() {
            let ce_idx = ce_idx as u16;
            // A variable whose binding site is local to a negation may not be
            // referenced from any other condition element — Rete evaluates
            // negations as self-contained filters, so a cross-element
            // reference would have no well-defined binding.
            let check_local = |sites: &[Option<BindSite>], var: VarId| -> Result<(), String> {
                if let Some(BindSite::NegLocal { ce }) = sites[var.0 as usize] {
                    if ce != ce_idx {
                        return Err(format!(
                            "{name}: variable <{}> is local to a negation and cannot be used elsewhere",
                            var_names[var.0 as usize]
                        ));
                    }
                }
                Ok(())
            };
            match ce {
                CondElem::Pos(c) => {
                    for (field, pred, var) in c.var_tests() {
                        check_local(&bind_sites, var)?;
                        let slot = bind_sites
                            .get_mut(var.0 as usize)
                            .ok_or_else(|| format!("{name}: variable id out of range"))?;
                        if slot.is_none() {
                            if pred != Pred::Eq {
                                return Err(format!(
                                    "{name}: first occurrence of <{}> uses a non-binding predicate",
                                    var_names[var.0 as usize]
                                ));
                            }
                            *slot = Some(BindSite::Pos { pos_idx: num_pos, field });
                        }
                    }
                    num_pos += 1;
                }
                CondElem::Neg(_) | CondElem::Ncc(_) => {
                    for c in ce.conds() {
                        for (_, pred, var) in c.var_tests() {
                            check_local(&bind_sites, var)?;
                            let slot = &mut bind_sites[var.0 as usize];
                            if slot.is_none() {
                                if pred != Pred::Eq {
                                    return Err(format!(
                                        "{name}: first occurrence of <{}> (in a negation) uses a non-binding predicate",
                                        var_names[var.0 as usize]
                                    ));
                                }
                                *slot = Some(BindSite::NegLocal { ce: ce_idx });
                            }
                        }
                    }
                }
            }
        }
        // RHS binds.
        for b in &rhs_binds {
            let slot = &mut bind_sites[b.var.0 as usize];
            match slot {
                None => *slot = Some(BindSite::Rhs),
                Some(BindSite::Pos { .. }) => {
                    return Err(format!(
                        "{name}: RHS bind shadows LHS variable <{}>",
                        var_names[b.var.0 as usize]
                    ))
                }
                Some(BindSite::NegLocal { .. }) => {
                    return Err(format!(
                        "{name}: RHS bind reuses negation-local variable <{}>",
                        var_names[b.var.0 as usize]
                    ))
                }
                Some(BindSite::Rhs) => {
                    return Err(format!(
                        "{name}: variable <{}> bound twice on the RHS",
                        var_names[b.var.0 as usize]
                    ))
                }
            }
        }
        let check_term = |t: &RhsTerm, ctx: &str| -> Result<(), String> {
            if let RhsTerm::Var(v) = t {
                match bind_sites[v.0 as usize] {
                    Some(BindSite::Pos { .. }) | Some(BindSite::Rhs) => Ok(()),
                    _ => Err(format!(
                        "{name}: {ctx} references unbound variable <{}>",
                        var_names[v.0 as usize]
                    )),
                }
            } else {
                Ok(())
            }
        };
        for b in &rhs_binds {
            match &b.expr {
                RhsExpr::Genatom => {}
                RhsExpr::Term(t) => check_term(t, "bind")?,
                RhsExpr::Add(a, c) | RhsExpr::Sub(a, c) => {
                    check_term(a, "bind")?;
                    check_term(c, "bind")?;
                }
            }
        }
        for a in &actions {
            match a {
                Action::Make { fields, .. } => {
                    for (_, t) in fields {
                        check_term(t, "make")?;
                    }
                }
                Action::Modify { ce, fields } => {
                    if *ce == 0 || *ce > num_pos {
                        return Err(format!("{name}: modify references CE {ce} (have {num_pos} positive CEs)"));
                    }
                    for (_, t) in fields {
                        check_term(t, "modify")?;
                    }
                }
                Action::Remove { ce } => {
                    if *ce == 0 || *ce > num_pos {
                        return Err(format!("{name}: remove references CE {ce} (have {num_pos} positive CEs)"));
                    }
                }
                Action::Write(ts) => {
                    for t in ts {
                        check_term(t, "write")?;
                    }
                }
                Action::Halt => {}
            }
        }
        // Any variable never given a site is an internal error of the parser.
        let bind_sites = bind_sites
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.ok_or_else(|| format!("{name}: variable <{}> never occurs", var_names[i])))
            .collect::<Result<Vec<_>, _>>()?;
        let test_count = ces.iter().flat_map(|ce| ce.conds()).map(|c| c.tests.len() + 1).sum();
        Ok(Production { name, ces, var_names, bind_sites, rhs_binds, actions, num_pos, test_count })
    }

    /// Total number of condition elements (counting each NCC as one, as the
    /// paper's CE counts do — Figure 6-7 counts its NCC groups' members, so
    /// see [`Production::ce_count_flat`] for that accounting).
    pub fn ce_count(&self) -> usize {
        self.ces.len()
    }

    /// Number of simple conditions, flattening NCC groups (the accounting
    /// used by Table 5-1 of the paper).
    pub fn ce_count_flat(&self) -> usize {
        self.ces.iter().map(|ce| ce.conds().len()).sum()
    }

    /// Extract the variable bindings from the wmes matched by the positive
    /// CEs (in positive-CE order). Negation-local and RHS variables are Nil.
    pub fn bindings_of(&self, pos_wmes: &[&Wme]) -> Vec<Value> {
        debug_assert_eq!(pos_wmes.len(), self.num_pos as usize);
        self.bind_sites
            .iter()
            .map(|s| match *s {
                BindSite::Pos { pos_idx, field } => pos_wmes[pos_idx as usize].field(field),
                _ => Value::Nil,
            })
            .collect()
    }

    /// Evaluate the RHS against bindings, minting fresh symbols through
    /// `gensym`. Returns the concrete actions in order.
    pub fn eval_rhs(
        &self,
        bindings: &mut [Value],
        gensym: &mut dyn FnMut() -> Symbol,
    ) -> Vec<ConcreteAction> {
        let term = |bindings: &[Value], t: &RhsTerm| -> Value {
            match *t {
                RhsTerm::Const(v) => v,
                RhsTerm::Var(v) => bindings[v.0 as usize],
            }
        };
        for b in &self.rhs_binds {
            let v = match &b.expr {
                RhsExpr::Genatom => Value::Sym(gensym()),
                RhsExpr::Term(t) => term(bindings, t),
                RhsExpr::Add(a, c) => match (term(bindings, a), term(bindings, c)) {
                    (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
                    _ => Value::Nil,
                },
                RhsExpr::Sub(a, c) => match (term(bindings, a), term(bindings, c)) {
                    (Value::Int(x), Value::Int(y)) => Value::Int(x - y),
                    _ => Value::Nil,
                },
            };
            bindings[b.var.0 as usize] = v;
        }
        self.actions
            .iter()
            .map(|a| match a {
                Action::Make { class, fields } => ConcreteAction::Make(
                    *class,
                    fields.iter().map(|(f, t)| (*f, term(bindings, t))).collect(),
                ),
                Action::Remove { ce } => ConcreteAction::RemoveCe(*ce),
                Action::Modify { ce, fields } => ConcreteAction::ModifyCe(
                    *ce,
                    fields.iter().map(|(f, t)| (*f, term(bindings, t))).collect(),
                ),
                Action::Write(ts) => ConcreteAction::Write(
                    ts.iter()
                        .map(|t| term(bindings, t).to_string())
                        .collect::<Vec<_>>()
                        .join(" "),
                ),
                Action::Halt => ConcreteAction::Halt,
            })
            .collect()
    }

    /// Look up a variable id by name (test helper).
    pub fn var_by_name(&self, name: Symbol) -> Option<VarId> {
        self.var_names.iter().position(|&n| n == name).map(|i| VarId(i as u16))
    }
}

impl fmt::Display for Production {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "(p {}", self.name)?;
        for ce in &self.ces {
            writeln!(f, "   {ce}")?;
        }
        write!(f, "  --> {} actions)", self.actions.len())
    }
}

/// A production instantiation: "the list of the matching wmes" (§2.1), one
/// per positive CE, plus their time tags for conflict resolution.
///
/// Its identity is the production and the wmes. A wme's time tag is fixed
/// when it enters working memory, so `tags` adds nothing to it: equality and
/// hashing leave the tags out, and a retraction may carry none.
#[derive(Clone, Debug)]
pub struct Instantiation {
    /// The matched production's name.
    pub prod: Symbol,
    /// Matched wme ids, in positive-CE order.
    pub wmes: Vec<WmeId>,
    /// Time tags of those wmes (parallel to `wmes`).
    pub tags: Vec<TimeTag>,
}

impl PartialEq for Instantiation {
    fn eq(&self, other: &Instantiation) -> bool {
        self.prod == other.prod && self.wmes == other.wmes
    }
}

impl Eq for Instantiation {}

impl std::hash::Hash for Instantiation {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.prod.hash(h);
        self.wmes.hash(h);
    }
}

impl Instantiation {
    /// Recency key for LEX: time tags sorted descending.
    pub fn recency_key(&self) -> Vec<TimeTag> {
        let mut t = self.tags.clone();
        t.sort_unstable_by(|a, b| b.cmp(a));
        t
    }
}

/// An environment mapping variable names to ids while building productions
/// programmatically (used by the parser and by task generators).
#[derive(Default, Debug)]
pub struct VarTable {
    names: Vec<Symbol>,
    index: HashMap<Symbol, VarId>,
}

impl VarTable {
    /// Empty table.
    pub fn new() -> VarTable {
        VarTable::default()
    }

    /// Get-or-create the id for a variable name.
    pub fn var(&mut self, name: Symbol) -> VarId {
        if let Some(&v) = self.index.get(&name) {
            return v;
        }
        let v = VarId(self.names.len() as u16);
        self.names.push(name);
        self.index.insert(name, v);
        v
    }

    /// Finish, returning the name table.
    pub fn into_names(self) -> Vec<Symbol> {
        self.names
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::{Cond, FieldTest};
    use crate::symbol::intern;

    fn cond(class: &str, tests: Vec<FieldTest>) -> Cond {
        Cond { class: intern(class), tests }
    }

    #[test]
    fn binding_site_analysis() {
        // (p t (a ^0 <x>) -(b ^0 <x> ^1 <y>) --> (make c ^0 <x>))
        let mut vt = VarTable::new();
        let x = vt.var(intern("x"));
        let y = vt.var(intern("y"));
        let p = Production::new(
            intern("t"),
            vec![
                CondElem::Pos(cond("a", vec![FieldTest::Var { field: 0, pred: Pred::Eq, var: x }])),
                CondElem::Neg(cond(
                    "b",
                    vec![
                        FieldTest::Var { field: 0, pred: Pred::Eq, var: x },
                        FieldTest::Var { field: 1, pred: Pred::Eq, var: y },
                    ],
                )),
            ],
            vt.into_names(),
            vec![],
            vec![Action::Make { class: intern("c"), fields: vec![(0, RhsTerm::Var(x))] }],
        )
        .unwrap();
        assert_eq!(p.bind_sites[x.0 as usize], BindSite::Pos { pos_idx: 0, field: 0 });
        assert_eq!(p.bind_sites[y.0 as usize], BindSite::NegLocal { ce: 1 });
        assert_eq!(p.num_pos, 1);
    }

    #[test]
    fn rhs_cannot_use_neg_local() {
        let mut vt = VarTable::new();
        let y = vt.var(intern("y"));
        let err = Production::new(
            intern("t"),
            vec![
                CondElem::Pos(cond("a", vec![])),
                CondElem::Neg(cond("b", vec![FieldTest::Var { field: 0, pred: Pred::Eq, var: y }])),
            ],
            vt.into_names(),
            vec![],
            vec![Action::Make { class: intern("c"), fields: vec![(0, RhsTerm::Var(y))] }],
        )
        .unwrap_err();
        assert!(err.contains("unbound"), "{err}");
    }

    #[test]
    fn first_ce_must_be_positive() {
        let err = Production::new(
            intern("t"),
            vec![CondElem::Neg(cond("a", vec![]))],
            vec![],
            vec![],
            vec![],
        )
        .unwrap_err();
        assert!(err.contains("first condition"), "{err}");
    }

    #[test]
    fn nonbinding_first_occurrence_rejected() {
        let mut vt = VarTable::new();
        let x = vt.var(intern("x"));
        let err = Production::new(
            intern("t"),
            vec![CondElem::Pos(cond("a", vec![FieldTest::Var { field: 0, pred: Pred::Gt, var: x }]))],
            vt.into_names(),
            vec![],
            vec![],
        )
        .unwrap_err();
        assert!(err.contains("non-binding"), "{err}");
    }

    #[test]
    fn modify_out_of_range_rejected() {
        let err = Production::new(
            intern("t"),
            vec![CondElem::Pos(cond("a", vec![]))],
            vec![],
            vec![],
            vec![Action::Modify { ce: 2, fields: vec![] }],
        )
        .unwrap_err();
        assert!(err.contains("modify references CE 2"), "{err}");
    }

    #[test]
    fn eval_rhs_binds_and_actions() {
        let mut vt = VarTable::new();
        let x = vt.var(intern("x"));
        let g = vt.var(intern("g"));
        let n = vt.var(intern("n"));
        let p = Production::new(
            intern("t"),
            vec![CondElem::Pos(cond("a", vec![FieldTest::Var { field: 0, pred: Pred::Eq, var: x }]))],
            vt.into_names(),
            vec![
                RhsBind { var: g, expr: RhsExpr::Genatom },
                RhsBind { var: n, expr: RhsExpr::Add(RhsTerm::Var(x), RhsTerm::Const(Value::Int(1))) },
            ],
            vec![Action::Make {
                class: intern("c"),
                fields: vec![(0, RhsTerm::Var(g)), (1, RhsTerm::Var(n))],
            }],
        )
        .unwrap();
        let mut bindings = vec![Value::Int(41), Value::Nil, Value::Nil];
        let fresh = intern("g*test");
        let acts = p.eval_rhs(&mut bindings, &mut || fresh);
        assert_eq!(
            acts,
            vec![ConcreteAction::Make(
                intern("c"),
                vec![(0, Value::Sym(fresh)), (1, Value::Int(42))]
            )]
        );
    }

    #[test]
    fn counts() {
        let mut vt = VarTable::new();
        let x = vt.var(intern("x"));
        let p = Production::new(
            intern("t"),
            vec![
                CondElem::Pos(cond("a", vec![FieldTest::Var { field: 0, pred: Pred::Eq, var: x }])),
                CondElem::Ncc(vec![cond("b", vec![]), cond("c", vec![])]),
            ],
            vt.into_names(),
            vec![],
            vec![],
        )
        .unwrap();
        assert_eq!(p.ce_count(), 2);
        assert_eq!(p.ce_count_flat(), 3);
        assert_eq!(p.test_count, 4); // class tests (3) + var test (1)
    }

    #[test]
    fn recency_key_sorts_descending() {
        let i = Instantiation {
            prod: intern("t"),
            wmes: vec![WmeId(0), WmeId(1)],
            tags: vec![TimeTag(3), TimeTag(9)],
        };
        assert_eq!(i.recency_key(), vec![TimeTag(9), TimeTag(3)]);
    }
}
