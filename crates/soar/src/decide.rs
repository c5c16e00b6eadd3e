//! The decision procedure (§3): "If a decision can be reached about the
//! problem space, state or operator (the context element) to be used, then
//! the wmes related to the new context element are added to the system and
//! the older wmes are removed. If a decision cannot be reached, then an
//! impasse results and the system creates a subgoal to solve the impasse."
//!
//! Pure functions over the goal stack and the decoded preferences; the
//! agent performs the wme surgery the returned [`Decision`] prescribes.

use crate::arch::{PrefValue, Preference, Role};
use psme_ops::{sym_name, Symbol};

psme_rete::codec! {
    /// One goal in the context stack.
    #[derive(Clone, Debug)]
    pub struct GoalCtx {
        /// Goal identifier.
        pub id: Symbol,
        /// Depth (0 = top goal).
        pub level: u32,
        /// Current problem-space / state / operator.
        pub slots: [Option<Symbol>; 3],
        /// The impasse this goal was created for (`None` for the top goal).
        pub impasse: Option<ImpasseKey>,
    }
}

impl GoalCtx {
    /// Slot accessor.
    pub fn slot(&self, r: Role) -> Option<Symbol> {
        self.slots[slot_index(r)]
    }

    /// Slot mutator.
    pub fn set_slot(&mut self, r: Role, v: Option<Symbol>) {
        self.slots[slot_index(r)] = v;
    }
}

/// Index of a role in the slot array.
pub fn slot_index(r: Role) -> usize {
    match r {
        Role::ProblemSpace => 0,
        Role::State => 1,
        Role::Operator => 2,
    }
}

psme_rete::codec! {
    /// Impasse identity: the same impasse persisting across decisions keeps its
    /// subgoal; a different one replaces it.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct ImpasseKey {
        /// Slot that could not be decided.
        pub role: Role,
        /// Tie (several candidates) or no-change (none).
        pub kind: ImpasseKind,
        /// Tied candidates (sorted), or the stuck operator for no-change.
        pub items: Vec<Symbol>,
    }
}

psme_rete::codec! {
    /// Impasse flavor.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum ImpasseKind {
        /// Multiple undominated candidates.
        Tie = 0,
        /// No candidate (or no progress at the bottom goal).
        NoChange = 1,
    }
}

impl ImpasseKind {
    /// Wme symbol.
    pub fn symbol(self) -> Symbol {
        match self {
            ImpasseKind::Tie => psme_ops::intern("tie"),
            ImpasseKind::NoChange => psme_ops::intern("no-change"),
        }
    }
}

/// The outcome of scanning the context stack.
#[derive(Clone, PartialEq, Debug)]
pub enum Decision {
    /// Install `winner` (or vacate, when `None`) in `role` of goal
    /// `goal_idx`; everything below that goal is popped.
    Change {
        /// Stack index of the goal whose slot changes.
        goal_idx: usize,
        /// The changed slot.
        role: Role,
        /// New occupant.
        winner: Option<Symbol>,
    },
    /// Create a subgoal below `parent_idx` for `key` (replacing any
    /// existing deeper goals).
    NewImpasse {
        /// Stack index of the impassed goal.
        parent_idx: usize,
        /// The impasse.
        key: ImpasseKey,
    },
    /// Every slot is stable and the bottom goal has no open impasse work:
    /// the run is stuck (the agent halts).
    Stuck,
}

fn deterministic_pick(items: &[Symbol]) -> Symbol {
    *items
        .iter()
        .min_by(|a, b| sym_name(**a).cmp(&sym_name(**b)))
        .expect("non-empty candidate pool")
}

/// What one slot's preferences dictate.
#[derive(Clone, PartialEq, Debug)]
enum SlotOutcome {
    Keep,
    Change(Option<Symbol>),
    Impasse(ImpasseKey),
}

fn decide_slot(goal: &GoalCtx, role: Role, prefs: &[Preference]) -> SlotOutcome {
    let current = goal.slot(role);
    let relevant = |p: &&Preference| {
        p.goal == goal.id
            && p.role == role
            && match p.state {
                // State-scoped preferences (operator proposals) only count
                // while that state is current.
                Some(s) => goal.slot(Role::State) == Some(s),
                None => true,
            }
    };
    let mut acceptable: Vec<Symbol> = Vec::new();
    let mut rejects: Vec<Symbol> = Vec::new();
    let mut bests: Vec<Symbol> = Vec::new();
    let mut indiff: Vec<Symbol> = Vec::new();
    for p in prefs.iter().filter(relevant) {
        match p.value {
            PrefValue::Acceptable => acceptable.push(p.object),
            PrefValue::Reject => rejects.push(p.object),
            PrefValue::Best => bests.push(p.object),
            PrefValue::Indifferent => indiff.push(p.object),
        }
    }
    let mut candidates: Vec<Symbol> =
        acceptable.iter().copied().filter(|o| !rejects.contains(o)).collect();
    candidates.sort_by_key(|c| sym_name(*c));
    candidates.dedup();

    if candidates.is_empty() {
        return match current {
            Some(c) if rejects.contains(&c) => SlotOutcome::Change(None),
            Some(_) => SlotOutcome::Keep,
            None => SlotOutcome::Impasse(ImpasseKey {
                role,
                kind: ImpasseKind::NoChange,
                items: vec![],
            }),
        };
    }
    // The current occupant stays unless rejected or dominated.
    if let Some(c) = current {
        if candidates.contains(&c) && bests.iter().all(|b| rejects.contains(b) || *b == c) {
            return SlotOutcome::Keep;
        }
    }
    let live_bests: Vec<Symbol> =
        candidates.iter().copied().filter(|o| bests.contains(o)).collect();
    let pool = if live_bests.is_empty() { candidates } else { live_bests };
    let winner = if pool.len() == 1 {
        pool[0]
    } else if pool.iter().all(|o| indiff.contains(o)) || pool.len() > 1 && !bests.is_empty() {
        // All-indifferent ties and multiple-best ties resolve
        // deterministically (documented simplification of Soar's random
        // indifferent choice — determinism keeps runs reproducible).
        deterministic_pick(&pool)
    } else {
        return SlotOutcome::Impasse(ImpasseKey { role, kind: ImpasseKind::Tie, items: pool });
    };
    if current == Some(winner) {
        SlotOutcome::Keep
    } else {
        SlotOutcome::Change(Some(winner))
    }
}

/// Scan the context stack from the top goal down and produce the decision.
pub fn decide(stack: &[GoalCtx], prefs: &[Preference]) -> Decision {
    for (gi, goal) in stack.iter().enumerate() {
        for role in Role::ALL {
            match decide_slot(goal, role, prefs) {
                SlotOutcome::Keep => continue,
                SlotOutcome::Change(winner) => {
                    return Decision::Change { goal_idx: gi, role, winner }
                }
                SlotOutcome::Impasse(key) => {
                    // An existing subgoal for the same impasse continues its
                    // work; scanning proceeds into it.
                    if let Some(below) = stack.get(gi + 1) {
                        if below.impasse.as_ref() == Some(&key) {
                            break; // examine the subgoal's own slots next
                        }
                    }
                    return Decision::NewImpasse { parent_idx: gi, key };
                }
            }
        }
    }
    // Every goal is stable. The bottom goal makes no progress: an operator
    // no-change impasse if an operator is selected, else stuck.
    let bottom = stack.last().expect("non-empty goal stack");
    if let Some(op) = bottom.slot(Role::Operator) {
        let key =
            ImpasseKey { role: Role::Operator, kind: ImpasseKind::NoChange, items: vec![op] };
        if bottom.impasse.as_ref() != Some(&key) {
            return Decision::NewImpasse { parent_idx: stack.len() - 1, key };
        }
    }
    Decision::Stuck
}

#[cfg(test)]
mod tests {
    use super::*;
    use psme_ops::intern;
    use psme_ops::WmeId;

    fn goal(id: &str, level: u32) -> GoalCtx {
        GoalCtx { id: intern(id), level, slots: [None, None, None], impasse: None }
    }

    fn pref(goal: &str, role: Role, value: PrefValue, object: &str) -> Preference {
        Preference {
            wme: WmeId(0),
            object: intern(object),
            role,
            value,
            goal: intern(goal),
            state: None,
        }
    }

    #[test]
    fn single_acceptable_wins() {
        let stack = vec![goal("g1", 0)];
        let prefs = vec![pref("g1", Role::ProblemSpace, PrefValue::Acceptable, "ps1")];
        assert_eq!(
            decide(&stack, &prefs),
            Decision::Change { goal_idx: 0, role: Role::ProblemSpace, winner: Some(intern("ps1")) }
        );
    }

    #[test]
    fn reject_removes_candidate() {
        let mut stack = vec![goal("g1", 0)];
        stack[0].set_slot(Role::ProblemSpace, Some(intern("ps1")));
        stack[0].set_slot(Role::State, Some(intern("s1")));
        let prefs = vec![
            pref("g1", Role::State, PrefValue::Acceptable, "s1"),
            pref("g1", Role::State, PrefValue::Acceptable, "s2"),
            pref("g1", Role::State, PrefValue::Reject, "s1"),
        ];
        assert_eq!(
            decide(&stack, &prefs),
            Decision::Change { goal_idx: 0, role: Role::State, winner: Some(intern("s2")) }
        );
    }

    #[test]
    fn tie_impasses() {
        let mut stack = vec![goal("g1", 0)];
        stack[0].set_slot(Role::ProblemSpace, Some(intern("ps1")));
        stack[0].set_slot(Role::State, Some(intern("s1")));
        let prefs = vec![
            pref("g1", Role::Operator, PrefValue::Acceptable, "o1"),
            pref("g1", Role::Operator, PrefValue::Acceptable, "o2"),
        ];
        match decide(&stack, &prefs) {
            Decision::NewImpasse { parent_idx: 0, key } => {
                assert_eq!(key.kind, ImpasseKind::Tie);
                assert_eq!(key.role, Role::Operator);
                assert_eq!(key.items, vec![intern("o1"), intern("o2")]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn best_resolves_tie() {
        let mut stack = vec![goal("g1", 0)];
        stack[0].set_slot(Role::ProblemSpace, Some(intern("ps1")));
        stack[0].set_slot(Role::State, Some(intern("s1")));
        let prefs = vec![
            pref("g1", Role::Operator, PrefValue::Acceptable, "o1"),
            pref("g1", Role::Operator, PrefValue::Acceptable, "o2"),
            pref("g1", Role::Operator, PrefValue::Best, "o2"),
        ];
        assert_eq!(
            decide(&stack, &prefs),
            Decision::Change { goal_idx: 0, role: Role::Operator, winner: Some(intern("o2")) }
        );
    }

    #[test]
    fn existing_subgoal_continues_into_its_slots() {
        let mut stack = vec![goal("g1", 0), goal("g2", 1)];
        stack[0].set_slot(Role::ProblemSpace, Some(intern("ps1")));
        stack[0].set_slot(Role::State, Some(intern("s1")));
        let key = ImpasseKey {
            role: Role::Operator,
            kind: ImpasseKind::Tie,
            items: vec![intern("o1"), intern("o2")],
        };
        stack[1].impasse = Some(key);
        let prefs = vec![
            pref("g1", Role::Operator, PrefValue::Acceptable, "o1"),
            pref("g1", Role::Operator, PrefValue::Acceptable, "o2"),
            // The subgoal has its own problem-space preference.
            pref("g2", Role::ProblemSpace, PrefValue::Acceptable, "selection"),
        ];
        assert_eq!(
            decide(&stack, &prefs),
            Decision::Change { goal_idx: 1, role: Role::ProblemSpace, winner: Some(intern("selection")) }
        );
    }

    #[test]
    fn state_scoped_operator_prefs_expire() {
        let mut stack = vec![goal("g1", 0)];
        stack[0].set_slot(Role::ProblemSpace, Some(intern("ps1")));
        stack[0].set_slot(Role::State, Some(intern("s2")));
        let mut p = pref("g1", Role::Operator, PrefValue::Acceptable, "o-old");
        p.state = Some(intern("s1")); // proposed for the superseded state
        match decide(&stack, &[p]) {
            Decision::NewImpasse { key, .. } => assert_eq!(key.kind, ImpasseKind::NoChange),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bottom_goal_operator_no_change() {
        let mut stack = vec![goal("g1", 0)];
        stack[0].set_slot(Role::ProblemSpace, Some(intern("ps1")));
        stack[0].set_slot(Role::State, Some(intern("s1")));
        stack[0].set_slot(Role::Operator, Some(intern("o1")));
        let prefs = vec![pref("g1", Role::Operator, PrefValue::Acceptable, "o1")];
        match decide(&stack, &prefs) {
            Decision::NewImpasse { parent_idx: 0, key } => {
                assert_eq!(key.kind, ImpasseKind::NoChange);
                assert_eq!(key.items, vec![intern("o1")]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejected_current_with_no_alternative_vacates() {
        let mut stack = vec![goal("g1", 0)];
        stack[0].set_slot(Role::ProblemSpace, Some(intern("ps1")));
        let prefs = vec![pref("g1", Role::ProblemSpace, PrefValue::Reject, "ps1")];
        assert_eq!(
            decide(&stack, &prefs),
            Decision::Change { goal_idx: 0, role: Role::ProblemSpace, winner: None }
        );
    }

    #[test]
    fn indifferent_candidates_resolve_deterministically() {
        let mut stack = vec![goal("g1", 0)];
        stack[0].set_slot(Role::ProblemSpace, Some(intern("ps1")));
        stack[0].set_slot(Role::State, Some(intern("s1")));
        let prefs = vec![
            pref("g1", Role::Operator, PrefValue::Acceptable, "ob"),
            pref("g1", Role::Operator, PrefValue::Acceptable, "oa"),
            pref("g1", Role::Operator, PrefValue::Indifferent, "ob"),
            pref("g1", Role::Operator, PrefValue::Indifferent, "oa"),
        ];
        assert_eq!(
            decide(&stack, &prefs),
            Decision::Change { goal_idx: 0, role: Role::Operator, winner: Some(intern("oa")) }
        );
    }

    #[test]
    fn stuck_when_nothing_progresses() {
        let mut stack = vec![goal("g1", 0)];
        stack[0].set_slot(Role::ProblemSpace, Some(intern("ps1")));
        stack[0].set_slot(Role::State, Some(intern("s1")));
        // No operator candidates and no current operator → no-change impasse
        // first; with that subgoal installed and also stuck, Stuck.
        let key = ImpasseKey { role: Role::Operator, kind: ImpasseKind::NoChange, items: vec![] };
        match decide(&stack, &[]) {
            Decision::NewImpasse { key: k, .. } => assert_eq!(k, key),
            other => panic!("{other:?}"),
        }
        let mut g2 = goal("g2", 1);
        g2.impasse = Some(key);
        g2.set_slot(Role::ProblemSpace, Some(intern("ps-x")));
        g2.set_slot(Role::State, Some(intern("s-x")));
        let stack2 = vec![stack[0].clone(), g2];
        // The subgoal handles the impasse but itself has no operator and no
        // candidates → it impasses no-change in turn (new, deeper impasse).
        match decide(&stack2, &[]) {
            Decision::NewImpasse { parent_idx: 1, key } => {
                assert_eq!(key.kind, ImpasseKind::NoChange)
            }
            other => panic!("{other:?}"),
        }
    }
}
