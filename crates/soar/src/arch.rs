//! Architecture-defined classes, symbols and preference decoding.
//!
//! Soar-4-era working memory (the paper's §3): every augmentation is its own
//! wme — `(goal ^id g1 ^state s1)` style records with one augmentation
//! attribute set besides `^id`. Preferences are ordinary wmes of class
//! `preference` read by the decision procedure.

use psme_ops::{intern, ClassRegistry, LazySymbol, Symbol, Value, Wme, WmeId};

/// The role names, in [`Role`] order.
static ROLE_NAMES: [LazySymbol; 3] =
    [LazySymbol::new("problem-space"), LazySymbol::new("state"), LazySymbol::new("operator")];

/// The preference-value names, in [`PrefValue`] order.
static PREF_VALUE_NAMES: [LazySymbol; 4] = [
    LazySymbol::new("acceptable"),
    LazySymbol::new("reject"),
    LazySymbol::new("best"),
    LazySymbol::new("indifferent"),
];

psme_rete::codec! {
    /// Context roles, in decision order.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub enum Role {
        /// The problem-space slot.
        ProblemSpace = 0,
        /// The state slot.
        State = 1,
        /// The operator slot.
        Operator = 2,
    }
}

impl Role {
    /// All roles, in the order the decision procedure examines them.
    pub const ALL: [Role; 3] = [Role::ProblemSpace, Role::State, Role::Operator];

    /// The goal-class attribute and preference `^role` symbol.
    pub fn symbol(self) -> Symbol {
        ROLE_NAMES[self as usize].get()
    }

    /// Parse from a symbol.
    pub fn from_symbol(s: Symbol) -> Option<Role> {
        Role::ALL.into_iter().find(|r| r.symbol() == s)
    }
}

/// Preference values supported by the decision procedure (a Soar-4 subset:
/// acceptable, reject, best, indifferent — the tasks in the paper resolve
/// everything else through subgoals and chunks).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrefValue {
    /// Candidate for the slot.
    Acceptable,
    /// Removed from candidacy.
    Reject,
    /// Preferred over all non-best candidates.
    Best,
    /// Equally good as other indifferent candidates (deterministic pick).
    Indifferent,
}

impl PrefValue {
    /// Wme symbol.
    pub fn symbol(self) -> Symbol {
        PREF_VALUE_NAMES[self as usize].get()
    }

    /// Parse from a symbol.
    pub fn from_symbol(s: Symbol) -> Option<PrefValue> {
        [PrefValue::Acceptable, PrefValue::Reject, PrefValue::Best, PrefValue::Indifferent]
            .into_iter()
            .find(|v| v.symbol() == s)
    }
}

/// A decoded preference wme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Preference {
    /// The wme carrying it.
    pub wme: WmeId,
    /// Candidate object.
    pub object: Symbol,
    /// Which slot it concerns.
    pub role: Role,
    /// The preference value.
    pub value: PrefValue,
    /// The goal it applies to.
    pub goal: Symbol,
    /// Optional scope: only valid while this is the goal's current state
    /// (operator proposals are per-state).
    pub state: Option<Symbol>,
}

/// Field indices of the architecture classes (kept in one place so the
/// architecture code never hard-codes numbers), and the interned names the
/// agent tests on every wme — resolved once here, because `intern` takes a
/// global lock. (Role and preference-value names, which decoding a
/// preference compares against, are [`LazySymbol`]s for the same reason.)
#[derive(Clone, Copy, Debug)]
pub struct ArchFields {
    /// `goal` class: id, supergoal, problem-space, state, operator, impasse,
    /// role, item, type.
    pub goal_id: u16,
    pub goal_supergoal: u16,
    pub goal_problem_space: u16,
    pub goal_state: u16,
    pub goal_operator: u16,
    pub goal_impasse: u16,
    pub goal_role: u16,
    pub goal_item: u16,
    pub goal_type: u16,
    /// `preference` class: object, role, value, goal, state.
    pub pref_object: u16,
    pub pref_role: u16,
    pub pref_value: u16,
    pub pref_goal: u16,
    pub pref_state: u16,
    /// The `goal` class name.
    pub goal_cls: Symbol,
    /// The `preference` class name.
    pub pref_cls: Symbol,
    /// The `eval` class name.
    pub eval_cls: Symbol,
    /// The `id` attribute name (object classes carry their identifier there).
    pub id_attr: Symbol,
}

/// The architecture's class declarations, registered into a task's registry.
pub fn declare_arch_classes(reg: &mut ClassRegistry) -> ArchFields {
    reg.declare_str(
        "goal",
        &["id", "supergoal", "problem-space", "state", "operator", "impasse", "role", "item", "type"],
    );
    reg.declare_str("preference", &["object", "role", "value", "goal", "state"]);
    reg.declare_str("eval", &["goal", "object", "value"]);
    let g = reg.get(intern("goal")).unwrap().clone();
    let p = reg.get(intern("preference")).unwrap().clone();
    let f = |d: &psme_ops::ClassDecl, n: &str| d.field_of(intern(n)).unwrap();
    ArchFields {
        goal_id: f(&g, "id"),
        goal_supergoal: f(&g, "supergoal"),
        goal_problem_space: f(&g, "problem-space"),
        goal_state: f(&g, "state"),
        goal_operator: f(&g, "operator"),
        goal_impasse: f(&g, "impasse"),
        goal_role: f(&g, "role"),
        goal_item: f(&g, "item"),
        goal_type: f(&g, "type"),
        pref_object: f(&p, "object"),
        pref_role: f(&p, "role"),
        pref_value: f(&p, "value"),
        pref_goal: f(&p, "goal"),
        pref_state: f(&p, "state"),
        goal_cls: intern("goal"),
        pref_cls: intern("preference"),
        eval_cls: intern("eval"),
        id_attr: intern("id"),
    }
}

/// Decode a `preference` wme (ignores malformed ones).
pub fn decode_preference(id: WmeId, w: &Wme, f: &ArchFields) -> Option<Preference> {
    if w.class != f.pref_cls {
        return None;
    }
    let object = w.field(f.pref_object).as_sym()?;
    let role = Role::from_symbol(w.field(f.pref_role).as_sym()?)?;
    let value = PrefValue::from_symbol(w.field(f.pref_value).as_sym()?)?;
    let goal = w.field(f.pref_goal).as_sym()?;
    let state = w.field(f.pref_state).as_sym();
    Some(Preference { wme: id, object, role, value, goal, state })
}

/// Build a goal-augmentation wme: `(goal ^id <id> ^<attr> <value>)`.
pub fn goal_aug(reg: &ClassRegistry, f: &ArchFields, id: Symbol, attr_field: u16, value: Value) -> Wme {
    let decl = reg.get(f.goal_cls).unwrap();
    Wme::with_fields(decl, &[(f.goal_id, Value::Sym(id)), (attr_field, value)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_round_trip() {
        for r in Role::ALL {
            assert_eq!(Role::from_symbol(r.symbol()), Some(r));
        }
        assert_eq!(Role::from_symbol(intern("bogus")), None);
    }

    #[test]
    fn pref_values_round_trip() {
        for v in [PrefValue::Acceptable, PrefValue::Reject, PrefValue::Best, PrefValue::Indifferent] {
            assert_eq!(PrefValue::from_symbol(v.symbol()), Some(v));
        }
    }

    #[test]
    fn decode_preference_wme() {
        let mut reg = ClassRegistry::new();
        let f = declare_arch_classes(&mut reg);
        let w = psme_ops::parse_wme(
            "(preference ^object o1 ^role operator ^value acceptable ^goal g1 ^state s1)",
            &reg,
        )
        .unwrap();
        let p = decode_preference(WmeId(0), &w, &f).unwrap();
        assert_eq!(p.object, intern("o1"));
        assert_eq!(p.role, Role::Operator);
        assert_eq!(p.value, PrefValue::Acceptable);
        assert_eq!(p.goal, intern("g1"));
        assert_eq!(p.state, Some(intern("s1")));

        // Malformed: missing role.
        let bad = psme_ops::parse_wme("(preference ^object o1 ^goal g1)", &reg).unwrap();
        assert!(decode_preference(WmeId(1), &bad, &f).is_none());
    }

    #[test]
    fn goal_aug_builder() {
        let mut reg = ClassRegistry::new();
        let f = declare_arch_classes(&mut reg);
        let w = goal_aug(&reg, &f, intern("g1"), f.goal_state, Value::sym("s1"));
        assert_eq!(w.field(f.goal_id), Value::sym("g1"));
        assert_eq!(w.field(f.goal_state), Value::sym("s1"));
    }
}
