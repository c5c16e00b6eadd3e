//! Reachability GC and the working-memory ledger against the rules they
//! replaced.
//!
//! The agent's ledger (`WmBook`) classifies each wme once, when it enters
//! working memory: preferences are decoded then, and object augmentations
//! are indexed by identifier. [`rescan`] is the earlier per-decision read
//! of working memory, one pass over the live store; at every decision of
//! whole runs of the three paper tasks, and after hibernate/resume round
//! trips, the ledger must equal it. GC grows reachability over the ledger
//! with a worklist. [`reference_gc`] is the earlier body: a full pass over
//! working memory per round, repeated until reachability stops growing,
//! then a sweep that decodes every preference again. At every decision, the
//! wmes the agent removed must be the reference's removals, element for
//! element. Hand-built states pin cases a run need not reach.
//!
//! After each decision the agent retires the removed wmes no chunk
//! backtrace can reach. [`assert_history_is_reachable`] checks, at every
//! decision, that what it kept is what a backtrace can follow, and that a
//! retired wme has left the ledger too.

use psme_core::MatchEngine;
use psme_ops::{
    intern, parse_wme, sym_name, ClassRegistry, Instantiation, Production, Symbol, TimeTag, Value,
    Wme, WmeId,
};
use psme_rete::util::{FxHashMap, FxHashSet};
use psme_rete::snapshot::{ByteReader, ByteWriter};
use psme_rete::{
    AddOutcome, BuildError, CycleOutcome, JournaledSession, NetworkOrg, ReteNetwork, SerialEngine,
    session_digest, Topology, WmeStore,
};
use psme_soar::arch::decode_preference;
use psme_soar::wm::{Kind, WmBook};
use psme_soar::{
    decode_shell, encode_shell, Agent, GoalCtx, PrefValue, Preference, Provenance, Role, SoarTask,
};
use psme_tasks::{
    cypress_sub, eight_puzzle, scrambled, strips, CypressConfig, StripsConfig, DECISION_BUDGET,
};
use std::sync::Arc;

/// The earlier GC over `live` (working memory as the decision phase read
/// it, ascending ids, with contents) and the agent's current stack.
/// Returns the removals and the number of passes reachability took to stop
/// growing.
fn reference_gc<E: MatchEngine>(agent: &Agent<E>, live: &[(WmeId, Arc<Wme>)]) -> (Vec<WmeId>, usize) {
    let f = &agent.fields;
    let stack = &agent.stack;
    let stack_ids: FxHashSet<Symbol> = stack.iter().map(|g| g.id).collect();
    let state_of: FxHashMap<Symbol, Option<Symbol>> =
        stack.iter().map(|g| (g.id, g.slot(Role::State))).collect();
    let alive = || live.iter().map(|(id, w)| (*id, w.as_ref()));
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
}

/// The derived half of the ledger rebuilt by one pass over the live store,
/// as the decision phase once read working memory every decision: each wme
/// classified, each preference decoded, and each wme that carries a symbol
/// in `^id` indexed under it (goal wmes included: result promotion and the
/// chunker's closure walked the store for those).
fn rescan<E: MatchEngine>(agent: &Agent<E>) -> WmBook {
    let f = &agent.fields;
    let mut book = WmBook::default();
    agent.engine.with_store(|store| {
        for (id, w) in store.iter_alive() {
            book.alive_index.insert((**w).clone(), id);
            let idf = agent.classes.get(w.class).and_then(|d| d.field_of(f.id_attr));
            let obj = idf.and_then(|idf| Some((w.field(idf).as_sym()?, idf)));
            if let Some((o, idf)) = obj {
                book.objects.entry(o).or_default().push((id, idf));
            }
            let kind = if w.class == f.goal_cls {
                Kind::Goal(obj.map(|o| o.0))
            } else if w.class == f.pref_cls {
                book.prefs.extend(decode_preference(id, w, f));
                Kind::Pref
            } else if w.class == f.eval_cls {
                Kind::Eval(w.field(0).as_sym())
            } else {
                // A wme without a symbol in `^id` is task-static.
                let Some((o, _)) = obj else { continue };
                Kind::Object(o)
            };
            book.live.push((id, kind));
        }
    });
    book
}

/// The agent's ledger equals [`rescan`] of its live store.
fn assert_ledger_is_rescan<E: MatchEngine>(agent: &Agent<E>, ctx: &str) {
    let (got, want) = (&agent.book, rescan(agent));
    assert_eq!(got.live, want.live, "{ctx}: kinds");
    assert_eq!(got.prefs, want.prefs, "{ctx}: preferences");
    assert_eq!(got.objects, want.objects, "{ctx}: object index");
    assert_eq!(got.alive_index, want.alive_index, "{ctx}: structural index");
}

/// A serial engine that keeps the changes of the last match it ran. After
/// a step that decided, those are the decision's: GC's removals in the
/// order GC listed them, then the decision's additions. It also keeps the
/// contents of the wmes that match removed, which the agent retires before
/// the step returns.
struct Recording {
    inner: SerialEngine,
    last: Vec<(WmeId, i32)>,
    removing: Vec<(WmeId, Arc<Wme>)>,
    last_removed: Vec<(WmeId, Arc<Wme>)>,
}

impl MatchEngine for Recording {
    fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome {
        self.inner.apply_changes(adds, removes)
    }
    fn add_wme(&mut self, w: Wme) -> (WmeId, TimeTag) {
        MatchEngine::add_wme(&mut self.inner, w)
    }
    fn remove_wme(&mut self, id: WmeId) -> bool {
        let w = self.inner.state.store.get(id).clone();
        let removed = MatchEngine::remove_wme(&mut self.inner, id);
        if removed {
            self.removing.push((id, w));
        }
        removed
    }
    fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> CycleOutcome {
        self.last.clone_from(&changes);
        self.last_removed = std::mem::take(&mut self.removing);
        MatchEngine::run_changes(&mut self.inner, changes)
    }
    fn retire_removed(&mut self, keep: impl FnMut(WmeId) -> bool) -> Vec<WmeId> {
        MatchEngine::retire_removed(&mut self.inner, keep)
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

/// The removed wmes the store still holds, ascending.
fn retained<E: MatchEngine>(agent: &Agent<E>) -> Vec<WmeId> {
    let mut ids = agent.engine.with_store(|s| s.retained().to_vec());
    ids.sort_unstable();
    ids
}

/// Every provenance edge out of a live or retained wme of level > 0 — the
/// edges a chunk backtrace can follow — ends at a live or retained wme,
/// and no retired wme has a ledger record. Returns how many wmes the store
/// has retired.
fn assert_history_is_reachable<E: MatchEngine>(agent: &Agent<E>, ctx: &str) -> usize {
    let book = &agent.book;
    let retained: FxHashSet<WmeId> = retained(agent).into_iter().collect();
    agent.engine.with_store(|s| {
        let readable = |id: WmeId| s.is_alive(id) || retained.contains(&id);
        for &id in book.wme_level.keys().chain(book.provenance.keys()) {
            assert!(readable(id), "{ctx}: retired {id:?} has a ledger record");
        }
        for (&id, &level) in &book.wme_level {
            let edges = match book.provenance.get(&id) {
                _ if level == 0 => continue,
                Some(Provenance::Fired { matched, .. }) => matched,
                Some(Provenance::Arch { sources }) => sources,
                None => continue,
            };
            for &to in edges {
                assert!(readable(to), "{ctx}: {id:?} at level {level} reaches retired {to:?}");
            }
        }
        s.total_count() - s.live_count() - retained.len()
    })
}

/// Run `task` to its stop, checking GC against the reference at every
/// decision. Returns how many wmes GC removed over the run.
fn check_every_decision(task: &SoarTask, learning: bool) -> usize {
    let engine = Recording {
        inner: SerialEngine::new(ReteNetwork::new()),
        last: Vec::new(),
        removing: Vec::new(),
        last_removed: Vec::new(),
    };
    let mut agent = task.agent(engine);
    agent.learning = learning;
    let (mut removed_total, mut retired) = (0, 0);
    // A step that returns `None` decided, and its last match was the
    // decision's changes.
    while agent.step(DECISION_BUDGET).is_none() {
        let ctx = format!("{} (learning {learning}), decision {}", task.name, agent.stats.decisions);
        assert_ledger_is_rescan(&agent, &ctx);
        retired = assert_history_is_reachable(&agent, &ctx);
        let changes = &agent.engine.last;
        let removed: Vec<WmeId> = changes.iter().filter(|c| c.1 < 0).map(|c| c.0).collect();
        let added: FxHashSet<WmeId> = changes.iter().filter(|c| c.1 > 0).map(|c| c.0).collect();
        // Working memory as GC read it: before the decision's changes.
        let mut live: Vec<(WmeId, Arc<Wme>)> = agent.engine.with_store(|s| {
            s.iter_alive().filter(|(id, _)| !added.contains(id)).map(|(id, w)| (id, w.clone())).collect()
        });
        live.extend(agent.engine.last_removed.iter().cloned());
        live.sort_unstable_by_key(|e| e.0);
        let (want, _) = reference_gc(&agent, &live);
        assert_eq!(removed, want, "{ctx}");
        removed_total += removed.len();
    }
    assert!(retired > 0, "{} (learning {learning}): nothing was retired", task.name);
    removed_total
}

/// Run `task` as a hibernating session: every `every` decisions, encode the
/// shell, resume from the journal and continue with the resumed agent. Its
/// ledger, rebuilt on resume, must equal the hibernated agent's and a
/// rescan of the replayed store. The shell carries level and provenance
/// only for live and retained wmes; replay re-creates every removed one,
/// and the resumed agent retires them again at once, so its store equals
/// the hibernated one and, after every decision, it retains exactly what
/// an uninterrupted twin does. Returns how many round trips ran.
fn check_round_trips(task: &SoarTask, learning: bool, every: u64) -> usize {
    let mut scratch = Agent::new(SerialEngine::new(ReteNetwork::new()), task.classes.clone());
    task.install_productions(&mut scratch);
    let topo = Topology::freeze(scratch.engine.into_parts().0);
    let mut agent = Agent::new(JournaledSession::fresh(topo.clone(), true), task.classes.clone());
    agent.learning = learning;
    task.install_adopted(&mut agent);
    let mut twin = Agent::new(JournaledSession::fresh(topo.clone(), false), task.classes.clone());
    twin.learning = learning;
    task.install_adopted(&mut twin);
    let mut trips = 0;
    while agent.step(DECISION_BUDGET).is_none() {
        assert_eq!(twin.step(DECISION_BUDGET), None, "the twin stops with the session");
        let at = agent.stats.decisions;
        let ctx = format!("{} (learning {learning}), decision {at}", task.name);
        assert_eq!(retained(&agent), retained(&twin), "{ctx}: retained wmes");
        assert_history_is_reachable(&agent, &ctx);
        if !at.is_multiple_of(every) {
            continue;
        }
        let mut w = ByteWriter::new();
        encode_shell(&agent, &mut w);
        let journal = agent.engine.journal().expect("journaled").clone();
        let engine = JournaledSession::resume(topo.clone(), journal).expect("journal replays");
        let mut resumed = Agent::new(engine, task.classes.clone());
        task.adopt_productions(&mut resumed);
        decode_shell(&mut resumed, &mut ByteReader::new(&w.into_inner())).expect("shell decodes");
        let ctx = format!("{} (learning {learning}), resumed at decision {}", task.name, agent.stats.decisions);
        assert_ledger_is_rescan(&resumed, &ctx);
        assert_eq!(retained(&resumed), retained(&twin), "{ctx}: retained wmes");
        assert_eq!(session_digest(&resumed.engine.eng), session_digest(&agent.engine.eng), "{ctx}: store");
        assert_eq!(resumed.book.live, agent.book.live, "{ctx}: kinds");
        assert_eq!(resumed.book.prefs, agent.book.prefs, "{ctx}: preferences");
        assert_eq!(resumed.book.objects, agent.book.objects, "{ctx}: object index");
        let records = |a: &WmBook| {
            let mut ids: Vec<WmeId> = a.wme_level.keys().chain(a.provenance.keys()).copied().collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(records(&resumed.book), records(&twin.book), "{ctx}: ledger records");
        agent = resumed;
        trips += 1;
    }
    trips
}

#[test]
fn eight_puzzle_gc_is_the_reference_at_every_decision() {
    let task = eight_puzzle(&scrambled(6, 11));
    for learning in [false, true] {
        assert!(check_every_decision(&task, learning) > 0, "learning {learning}: GC removed nothing");
    }
}

#[test]
fn the_ledger_survives_hibernate_and_resume() {
    let eight = eight_puzzle(&scrambled(6, 11));
    for learning in [false, true] {
        assert!(check_round_trips(&eight, learning, 150) > 1, "learning {learning}");
    }
    assert!(check_round_trips(&strips(&StripsConfig::default()), false, 2) > 1);
    assert!(check_round_trips(&cypress_sub(&CypressConfig { roots: 2 }), false, 5) > 1);
    // The one run that retains a removed wme across a round trip.
    assert!(check_round_trips(&relay_task(), true, 1) > 1);
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
    add_at(agent, text, 0)
}

/// Add `text` to working memory at goal level `level`.
fn add_at(agent: &mut Agent<SerialEngine>, text: &str, level: u32) -> WmeId {
    let w = parse_wme(text, &agent.classes).expect("wme parses");
    let (id, _) = agent.engine.add_wme(w.clone());
    let prov = Provenance::Arch { sources: vec![] };
    agent.book.note_add(id, w, level, prov, &agent.fields, &agent.classes);
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
    assert_ledger_is_rescan(agent, "hand-built state");
    let live: Vec<(WmeId, Arc<Wme>)> =
        agent.engine.with_store(|s| s.iter_alive().map(|(id, w)| (id, w.clone())).collect());
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

/// A goal wme whose slot value is stale goes, and it must not keep that
/// value's object: the object index lists goal wmes under their goal, which
/// GC reaches, but reachability passes only through goal wmes it keeps.
#[test]
fn a_stale_goal_slot_value_is_not_reached_through_its_goal() {
    let mut agent = bare_agent();
    identifiers(&mut agent, &["s0", "o1"]);
    let g = sym_name(agent.stack[0].id);
    let gone = vec![
        add(&mut agent, &format!("(goal ^id {g} ^state s0)")),
        add(&mut agent, "(obj ^id s0 ^link o1)"),
        add(&mut agent, "(obj ^id o1 ^link s0)"),
    ];
    assert_eq!(gc_both_ways(&agent).0, gone);
}

/// A result that links a deeper goal's id promotes that goal: its goal
/// wmes, found through the object index, move up to the result's level.
#[test]
fn a_result_linking_a_subgoal_promotes_the_subgoal_wmes() {
    let mut agent = bare_agent();
    identifiers(&mut agent, &["s1"]);
    let top = agent.stack[0].id;
    let sub = intern("g-sub");
    agent.book.note_new_object(sub, 1);
    agent.stack.push(GoalCtx { id: sub, level: 1, slots: [None, None, None], impasse: None });
    let goal_wmes = [
        add_at(&mut agent, &format!("(goal ^id g-sub ^supergoal {})", sym_name(top)), 1),
        add_at(&mut agent, "(goal ^id g-sub ^impasse tie)", 1),
    ];
    let link = "(p link (goal ^id <g> ^supergoal <sg>) --> (make obj ^id s1 ^link <g>))";
    let link = psme_ops::parse_production(link, &mut agent.classes).expect("production parses");
    agent.load_production(Arc::new(link)).expect("production loads");
    agent.step(0);
    assert_eq!(agent.stats.firings, 1);
    assert_eq!(agent.book.level_of_obj(sub), 0, "the subgoal is promoted");
    for id in goal_wmes {
        assert_eq!(agent.book.level_of(id), 0, "goal wme {id:?} re-levelled");
    }
    assert_ledger_is_rescan(&agent, "after the result");
}

/// A subgoal that moves from state `a` to state `b` keeps a memo made from
/// `a`'s goal wme, then returns a result matching the memo. The paper tasks
/// never remove a wme that a live subgoal wme was made from; this one
/// does: the decision that selects `b` removes `(goal ^state a)`, the memo
/// still reaches it, and the chunk built from the result backtraces
/// through the memo into it. It must be retained until the subgoal goes.
fn relay_task() -> SoarTask {
    let mut classes = ClassRegistry::new();
    psme_soar::declare_arch_classes(&mut classes);
    let src = "
(literalize box id owner)
(literalize op id box)
(literalize stage id n)
(literalize memo id seen)

(p relay*init-ps (goal ^id <g> ^type top)
  --> (make preference ^object ps-relay ^role problem-space ^value acceptable ^goal <g>))

(p relay*init-state (goal ^id <g> ^problem-space ps-relay)
  --> (make preference ^object s0 ^role state ^value acceptable ^goal <g>))

(p relay*propose (goal ^id <g> ^state <s>) (box ^id <b> ^owner <s>)
  -->
   (bind <o> (genatom))
   (make op ^id <o> ^box <b>)
   (make preference ^object <o> ^role operator ^value acceptable ^goal <g> ^state <s>))

(p relay*sub-ps (goal ^id <g2> ^impasse tie)
  --> (make preference ^object ps-sub ^role problem-space ^value acceptable ^goal <g2>))

(p relay*sub-state (goal ^id <g2> ^problem-space ps-sub)
  -->
   (bind <a> (genatom))
   (make stage ^id <a> ^n 1)
   (make preference ^object <a> ^role state ^value acceptable ^goal <g2>))

(p relay*memo (goal ^id <g2> ^state <a>) (stage ^id <a> ^n 1)
  --> (make memo ^id <g2> ^seen <a>))

(p relay*next (goal ^id <g2> ^state <a>) (stage ^id <a> ^n 1)
  -->
   (bind <b> (genatom))
   (make stage ^id <b> ^n 2)
   (make preference ^object <b> ^role state ^value acceptable ^goal <g2>)
   (make preference ^object <a> ^role state ^value reject ^goal <g2>))

(p relay*result
   (goal ^id <g2> ^state <b>)
   (stage ^id <b> ^n 2)
   (memo ^id <g2> ^seen <a>)
   (goal ^id <g2> ^item <o>)
   (goal ^id <g2> ^supergoal <sg>)
   (preference ^object <o> ^role operator ^value acceptable ^goal <sg> ^state <s>)
  --> (make preference ^object <o> ^role operator ^value indifferent ^goal <sg> ^state <s>))

(p relay*apply (goal ^id <g> ^operator <o>) (op ^id <o> ^box <b>)
  --> (write took <b>) (halt))
";
    let productions = psme_ops::parse_program(src, &mut classes)
        .expect("relay task parses")
        .into_iter()
        .map(Arc::new)
        .collect();
    let init_wmes = vec![
        parse_wme("(box ^id b1 ^owner s0)", &classes).unwrap(),
        parse_wme("(box ^id b2 ^owner s0)", &classes).unwrap(),
    ];
    SoarTask {
        name: "relay".into(),
        classes,
        productions,
        init_wmes,
        identifiers: ["ps-relay", "s0", "b1", "b2", "ps-sub"].map(intern).to_vec(),
    }
}

#[test]
fn a_removed_wme_a_backtrace_can_reach_is_kept_until_none_can() {
    let task = relay_task();
    let mut agent = task.agent(SerialEngine::new(ReteNetwork::new()));
    agent.learning = true;
    let mut kept = Vec::new();
    let stop = loop {
        let stop = agent.step(DECISION_BUDGET);
        let ctx = format!("relay, decision {}", agent.stats.decisions);
        assert_history_is_reachable(&agent, &ctx);
        let retained = retained(&agent);
        if !retained.is_empty() {
            assert_eq!(agent.stack.len(), 2, "{ctx}: retained {retained:?} outside the subgoal");
            kept = retained;
        }
        if let Some(stop) = stop {
            break stop;
        }
    };
    assert_eq!(stop, psme_soar::StopReason::Halted);
    assert!(agent.stats.chunks_built > 0, "the result was chunked");
    assert!(!kept.is_empty(), "the subgoal's old state wme was never retained");
    let level = |id: &WmeId| agent.book.wme_level.get(id).copied();
    assert!(kept.iter().all(|id| level(id).is_none()), "retired with the subgoal");
    assert!(retained(&agent).is_empty(), "nothing reaches the subgoal's history");
}
