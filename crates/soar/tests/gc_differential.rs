//! Reachability GC against the rule it replaced.
//!
//! The decision phase reads working memory once (preferences decoded once,
//! object augmentations indexed by identifier) and grows reachability with
//! a worklist. [`reference_gc`] is the earlier body: a full pass over
//! working memory per round, repeated until reachability stops growing,
//! then a sweep that decodes every preference again. At every decision of
//! whole runs of the three paper tasks, the wmes the agent removed must be
//! the reference's removals, element for element; three hand-built states
//! pin cases a run need not reach.

use psme_core::MatchEngine;
use psme_ops::{
    intern, parse_wme, sym_name, ClassRegistry, Instantiation, Production, Symbol, TimeTag, Value,
    Wme, WmeId,
};
use psme_rete::util::{FxHashMap, FxHashSet};
use psme_rete::{AddOutcome, BuildError, CycleOutcome, NetworkOrg, ReteNetwork, SerialEngine, WmeStore};
use psme_soar::arch::decode_preference;
use psme_soar::{Agent, PrefValue, Preference, Provenance, Role, SoarTask};
use psme_tasks::{
    cypress_sub, eight_puzzle, scrambled, strips, CypressConfig, StripsConfig, DECISION_BUDGET,
};
use std::sync::Arc;

/// The earlier GC over `live` (working memory as the decision phase read
/// it, ascending ids) and the agent's current stack. Returns the removals
/// and the number of passes reachability took to stop growing.
fn reference_gc<E: MatchEngine>(agent: &Agent<E>, live: &[WmeId]) -> (Vec<WmeId>, usize) {
    let f = &agent.fields;
    let stack = &agent.stack;
    let stack_ids: FxHashSet<Symbol> = stack.iter().map(|g| g.id).collect();
    let state_of: FxHashMap<Symbol, Option<Symbol>> =
        stack.iter().map(|g| (g.id, g.slot(Role::State))).collect();
    agent.engine.with_store(|store| {
        let alive = || live.iter().map(move |&id| (id, store.get(id).as_ref()));
        // 1. Roots: goal ids, slot values, kept goal-augmentation values.
        let mut reachable: FxHashSet<Symbol> = stack_ids.clone();
        for g in stack {
            for s in g.slots.iter().flatten() {
                reachable.insert(*s);
            }
        }
        let goal_wme_keep = |w: &Wme| -> bool {
            let Some(gid) = w.field(f.goal_id).as_sym() else { return false };
            let Some(g) = stack.iter().find(|g| g.id == gid) else { return false };
            for (role, field) in [
                (Role::ProblemSpace, f.goal_problem_space),
                (Role::State, f.goal_state),
                (Role::Operator, f.goal_operator),
            ] {
                let v = w.field(field);
                if !v.is_nil() && v.as_sym() != g.slot(role) {
                    return false;
                }
            }
            true
        };
        for (_, w) in alive().filter(|(_, w)| w.class == f.goal_cls) {
            if goal_wme_keep(w) {
                for v in w.fields.iter() {
                    if let Value::Sym(s) = v {
                        reachable.insert(*s);
                    }
                }
            }
        }
        // 2. Valid preferences make their objects reachable, unless a valid
        // reject cancels them.
        let prefs: Vec<Preference> =
            alive().filter_map(|(id, w)| decode_preference(id, w, f)).collect();
        let scope_ok = |p: &Preference| -> bool {
            stack_ids.contains(&p.goal)
                && match p.state {
                    Some(s) => state_of.get(&p.goal).copied().flatten() == Some(s),
                    None => true,
                }
        };
        let rejected: FxHashSet<(Symbol, Symbol)> = prefs
            .iter()
            .filter(|p| p.value == PrefValue::Reject && scope_ok(p))
            .map(|p| (p.goal, p.object))
            .collect();
        for p in &prefs {
            if scope_ok(p) && p.value != PrefValue::Reject && !rejected.contains(&(p.goal, p.object))
            {
                reachable.insert(p.object);
            }
        }
        // 3. Fixpoint over object augmentations.
        let mut passes = 0;
        loop {
            passes += 1;
            let mut grew = false;
            for (_, w) in alive() {
                if w.class == f.goal_cls || w.class == f.pref_cls || w.class == f.eval_cls {
                    continue;
                }
                let Some(decl) = agent.classes.get(w.class) else { continue };
                let Some(idf) = decl.field_of(f.id_attr) else { continue };
                let Some(id) = w.field(idf).as_sym() else { continue };
                if !reachable.contains(&id) {
                    continue;
                }
                for (i, v) in w.fields.iter().enumerate() {
                    if i as u16 == idf {
                        continue;
                    }
                    if let Value::Sym(s) = v {
                        if agent.book.is_identifier(*s) && reachable.insert(*s) {
                            grew = true;
                        }
                    }
                }
            }
            if !grew {
                break;
            }
        }
        // 4. Sweep.
        let mut removals = Vec::new();
        for (wid, w) in alive() {
            if agent.book.pinned.contains(&wid) {
                continue;
            }
            let keep = if w.class == f.goal_cls {
                goal_wme_keep(w)
            } else if w.class == f.pref_cls {
                match decode_preference(wid, w, f) {
                    Some(p) => scope_ok(&p) && reachable.contains(&p.object),
                    None => false,
                }
            } else if w.class == f.eval_cls {
                w.field(0).as_sym().map(|g| stack_ids.contains(&g)).unwrap_or(false)
            } else if let Some(decl) = agent.classes.get(w.class) {
                match decl.field_of(f.id_attr) {
                    Some(idf) => match w.field(idf).as_sym() {
                        Some(id) => reachable.contains(&id),
                        None => true,
                    },
                    None => true,
                }
            } else {
                true
            };
            if !keep {
                removals.push(wid);
            }
        }
        (removals, passes)
    })
}

/// A serial engine that keeps the changes of the last match it ran. After
/// a step that decided, those are the decision's: GC's removals in the
/// order GC listed them, then the decision's additions.
struct Recording {
    inner: SerialEngine,
    last: Vec<(WmeId, i32)>,
}

impl MatchEngine for Recording {
    fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome {
        self.inner.apply_changes(adds, removes)
    }
    fn add_wme(&mut self, w: Wme) -> (WmeId, TimeTag) {
        MatchEngine::add_wme(&mut self.inner, w)
    }
    fn remove_wme(&mut self, id: WmeId) -> bool {
        MatchEngine::remove_wme(&mut self.inner, id)
    }
    fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> CycleOutcome {
        self.last.clone_from(&changes);
        MatchEngine::run_changes(&mut self.inner, changes)
    }
    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddOutcome, BuildError> {
        self.inner.add_production(prod, org)
    }
    fn with_store<R>(&self, f: impl FnOnce(&WmeStore) -> R) -> R {
        MatchEngine::with_store(&self.inner, f)
    }
    fn num_net_nodes(&self) -> usize {
        MatchEngine::num_net_nodes(&self.inner)
    }
    fn current_instantiations(&self) -> Vec<Instantiation> {
        self.inner.current_instantiations()
    }
}

/// Run `task` to its stop, checking GC against the reference at every
/// decision. Returns how many wmes GC removed over the run.
fn check_every_decision(task: &SoarTask, learning: bool) -> usize {
    let engine = Recording { inner: SerialEngine::new(ReteNetwork::new()), last: Vec::new() };
    let mut agent = task.agent(engine);
    agent.learning = learning;
    let mut removed_total = 0;
    // A step that returns `None` decided, and its last match was the
    // decision's changes.
    while agent.step(DECISION_BUDGET).is_none() {
        let changes = &agent.engine.last;
        let removed: Vec<WmeId> = changes.iter().filter(|c| c.1 < 0).map(|c| c.0).collect();
        let added: FxHashSet<WmeId> = changes.iter().filter(|c| c.1 > 0).map(|c| c.0).collect();
        // Working memory as GC read it: before the decision's changes.
        let mut live: Vec<WmeId> = agent.engine.with_store(|s| {
            s.iter_alive().map(|(id, _)| id).filter(|id| !added.contains(id)).collect()
        });
        live.extend(&removed);
        live.sort_unstable();
        let (want, _) = reference_gc(&agent, &live);
        assert_eq!(
            removed, want,
            "{} (learning {learning}), decision {}",
            task.name, agent.stats.decisions
        );
        removed_total += removed.len();
    }
    removed_total
}

#[test]
fn eight_puzzle_gc_is_the_reference_at_every_decision() {
    let task = eight_puzzle(&scrambled(6, 11));
    for learning in [false, true] {
        assert!(check_every_decision(&task, learning) > 0, "learning {learning}: GC removed nothing");
    }
}

#[test]
fn strips_gc_is_the_reference_at_every_decision() {
    assert!(check_every_decision(&strips(&StripsConfig::default()), false) > 0);
}

#[test]
fn cypress_gc_is_the_reference_at_every_decision() {
    assert!(check_every_decision(&cypress_sub(&CypressConfig { roots: 2 }), false) > 0);
}

/// An agent with one object class and a top goal whose state slot holds
/// `s1`; working memory holds only the top goal's `^type` augmentation.
fn bare_agent() -> Agent<SerialEngine> {
    let mut classes = ClassRegistry::new();
    classes.declare_str("obj", &["id", "link"]);
    let mut agent = Agent::new(SerialEngine::new(ReteNetwork::new()), classes);
    agent.push_top_goal();
    agent.stack[0].set_slot(Role::State, Some(intern("s1")));
    agent
}

/// Add `text` to working memory at the top level, as a firing would.
fn add(agent: &mut Agent<SerialEngine>, text: &str) -> WmeId {
    let w = parse_wme(text, &agent.classes).expect("wme parses");
    let (id, _) = agent.engine.add_wme(w.clone());
    agent.book.note_add(id, w, 0, Provenance::Arch { sources: vec![] }, false);
    id
}

fn identifiers(agent: &mut Agent<SerialEngine>, names: &[&str]) {
    for name in names {
        agent.register_identifier(intern(name));
    }
}

/// The agent's removals, checked against the reference's; with the
/// reference's pass count.
fn gc_both_ways(agent: &Agent<SerialEngine>) -> (Vec<WmeId>, usize) {
    let live: Vec<WmeId> = agent.engine.with_store(|s| s.iter_alive().map(|(id, _)| id).collect());
    let (want, passes) = reference_gc(agent, &live);
    assert_eq!(agent.gc_removals(), want);
    (want, passes)
}

/// Only identifiers carry reachability on: `n1` is linked from the chain but
/// was never registered as one, so its augmentation goes.
#[test]
fn an_object_chain_needing_many_passes_is_kept_and_what_it_does_not_reach_goes() {
    let mut agent = bare_agent();
    identifiers(&mut agent, &["s1", "o1", "o2", "o3", "o4", "z1", "z2"]);
    // Added deepest link first: each ascending pass of the old fixpoint
    // reaches one more object.
    for text in [
        "(obj ^id o4 ^link n1)",
        "(obj ^id o3 ^link o4)",
        "(obj ^id o2 ^link o3)",
        "(obj ^id o1 ^link o2)",
        "(obj ^id s1 ^link o1)",
    ] {
        add(&mut agent, text);
    }
    let gone = vec![
        add(&mut agent, "(obj ^id z1 ^link z2)"),
        add(&mut agent, "(obj ^id z2 ^link z1)"),
        add(&mut agent, "(obj ^id n1 ^link o1)"),
    ];
    let (removed, passes) = gc_both_ways(&agent);
    assert!(passes >= 3, "the chain took {passes} passes");
    assert_eq!(removed, gone);
}

#[test]
fn a_rejected_candidate_and_its_structure_are_collected() {
    let mut agent = bare_agent();
    identifiers(&mut agent, &["o5", "o6", "o7"]);
    let g = sym_name(agent.stack[0].id);
    let pref = |object: &str, value: &str| {
        format!("(preference ^object {object} ^role operator ^value {value} ^goal {g} ^state s1)")
    };
    add(&mut agent, &pref("o7", "acceptable"));
    add(&mut agent, "(obj ^id o7 ^link o6)");
    let gone = vec![
        add(&mut agent, &pref("o5", "acceptable")),
        add(&mut agent, &pref("o5", "reject")),
        add(&mut agent, "(obj ^id o5 ^link o6)"),
    ];
    assert_eq!(gc_both_ways(&agent).0, gone);
}

#[test]
fn a_preference_scoped_to_a_superseded_state_is_collected() {
    let mut agent = bare_agent();
    identifiers(&mut agent, &["o8", "o9"]);
    let g = sym_name(agent.stack[0].id);
    add(&mut agent, &format!("(preference ^object o9 ^role operator ^value acceptable ^goal {g} ^state s1)"));
    add(&mut agent, "(obj ^id o9 ^link s1)");
    let gone = vec![
        add(&mut agent, &format!("(preference ^object o8 ^role operator ^value acceptable ^goal {g} ^state s0)")),
        add(&mut agent, "(obj ^id o8 ^link o9)"),
    ];
    assert_eq!(gc_both_ways(&agent).0, gone);
}
