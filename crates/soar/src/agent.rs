//! The Soar agent: elaborate–decide loop, parallel firing of the conflict
//! set, impasse-driven subgoaling, reachability garbage collection, and
//! chunk integration through the engine's run-time production addition.

use crate::arch::{ArchFields, PrefValue, Preference, Role};
use crate::chunk::{ChunkRequest, Chunker};
use crate::decide::{decide, Decision, GoalCtx};
use crate::wm::{object_of, Kind, Provenance, WmBook};
use psme_core::MatchEngine;
use psme_obs::{ControlPhase, Recorder};
use psme_ops::{
    intern, sym_name, ClassRegistry, ConcreteAction, ConflictSet, Production, Symbol, Value,
    Wme, WmeId,
};
use psme_rete::util::{FxHashMap, FxHashSet};
use psme_rete::{ChainDetector, CsDelta, NetworkOrg, ReorgConfig};
use std::sync::Arc;

psme_rete::codec! {
    /// Run counters. A hibernated shell and a wire summary carry them as
    /// nine little-endian `u64`s, in declaration order.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct AgentStats {
        /// Decision cycles executed.
        pub decisions: u64,
        /// Elaboration cycles executed.
        pub elaboration_cycles: u64,
        /// Impasses (subgoals created).
        pub impasses: u64,
        /// Chunks built and added at run time.
        pub chunks_built: u64,
        /// Production firings.
        pub firings: u64,
        /// Wmes added / removed over the run.
        pub wme_adds: u64,
        /// Wmes removed by decisions and GC.
        pub wme_removes: u64,
        /// Match tasks spent in chunk state updates (Figure 6-9's phase).
        pub update_tasks: u64,
        /// Adaptive mid-run join reorganizations committed.
        pub reorganizations: u64,
    }
}

/// Why a run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// A production executed `(halt)` — the task reached its goal test.
    Halted,
    /// The decision procedure made no progress.
    Stuck,
    /// The decision budget ran out.
    DecisionLimit,
    /// An elaboration phase failed to quiesce within the cycle budget.
    ElaborationRunaway,
    /// The run was ended from outside the agent — a serving client closed
    /// the session, or the server shut down with the session still open.
    Closed,
}

/// A Soar agent over any match engine.
pub struct Agent<E: MatchEngine> {
    /// The match engine (serial or PSM-E parallel).
    pub engine: E,
    /// Class declarations (task + architecture).
    pub classes: ClassRegistry,
    /// Architecture field indices.
    pub fields: ArchFields,
    /// WM bookkeeping.
    pub book: WmBook,
    /// The context stack (index = level).
    pub stack: Vec<GoalCtx>,
    /// The conflict set.
    pub cs: ConflictSet,
    /// Chunking on/off ("without chunking" vs "during chunking" runs).
    pub learning: bool,
    /// The chunk builder.
    pub chunker: Chunker,
    /// Run counters.
    pub stats: AgentStats,
    /// `(write …)` output lines.
    pub output: Vec<String>,
    pub(crate) prods: FxHashMap<Symbol, Arc<Production>>,
    /// Symbols seen in made wmes whose names carry no `*` (so they are not
    /// gensym'd identifiers). Reading a name takes the interner's lock, so
    /// each symbol's is read once.
    plain: FxHashSet<Symbol>,
    pub(crate) gensym_counter: u64,
    pub(crate) halt_requested: bool,
    /// Network organization used for newly added productions.
    pub org: NetworkOrg,
    /// Per-production organization overrides (the §7 adaptive-bilinear
    /// loop sets these from trace diagnosis).
    pub org_overrides: FxHashMap<Symbol, NetworkOrg>,
    /// Online chain-dominance detector; `Some` arms adaptive mid-run
    /// reorganization (see [`Agent::enable_adaptive_reorg`]).
    pub reorg_detector: Option<ChainDetector>,
    /// Elaboration-cycle budget per phase (runaway guard).
    pub max_elab_cycles: u64,
    /// Control-thread phase totals as seen from the agent loop: match,
    /// conflict resolution, decide, chunk build and network surgery. No two
    /// of these spans overlap. (The parallel engine's own recorder
    /// separately splits §5.1 network surgery from the §5.2 state update.)
    pub recorder: Recorder,
}

impl<E: MatchEngine> Agent<E> {
    /// Create an agent. `classes` must already contain the task classes;
    /// the architecture classes are declared here.
    pub fn new(engine: E, mut classes: ClassRegistry) -> Agent<E> {
        let fields = crate::arch::declare_arch_classes(&mut classes);
        Agent {
            engine,
            classes,
            fields,
            book: WmBook::new(),
            stack: Vec::new(),
            cs: ConflictSet::new(),
            learning: false,
            chunker: Chunker::new(),
            stats: AgentStats::default(),
            output: Vec::new(),
            prods: FxHashMap::default(),
            plain: FxHashSet::default(),
            gensym_counter: 0,
            halt_requested: false,
            org: NetworkOrg::Linear,
            org_overrides: FxHashMap::default(),
            reorg_detector: None,
            max_elab_cycles: 400,
            recorder: Recorder::new(),
        }
    }

    /// Arm adaptive mid-run reorganization: the engine starts accumulating
    /// per-node match costs, and [`Agent::step`] polls the detector at each
    /// quiescent decision boundary, rebuilding flagged linear chains
    /// bilinearly in place.
    pub fn enable_adaptive_reorg(&mut self, cfg: ReorgConfig) {
        self.engine.set_cost_profiling(true);
        self.reorg_detector = Some(ChainDetector::new(cfg));
    }

    /// Poll the chain detector (if armed) and act on its decision. Runs at
    /// the quiescent boundary between the elaboration and decision phases —
    /// exactly where a chunk add would run, so the same §5.2 machinery
    /// applies. A failed rebuild rolls back and the old chain keeps
    /// matching; the decided org override still steers any future rebuild
    /// of the same production (e.g. on session resume).
    fn maybe_reorganize(&mut self) {
        let Some(mut det) = self.reorg_detector.take() else { return };
        if let Some(d) = self.engine.poll_reorg(&mut det) {
            let span = self.recorder.start(ControlPhase::NetworkSurgery);
            match self.engine.reorganize_production(d.prod_idx, d.org.clone()) {
                Ok(out) => {
                    self.stats.reorganizations += 1;
                    self.stats.update_tasks += out.update_tasks;
                    self.org_overrides.insert(d.name, d.org);
                }
                Err(_) => {
                    // Rolled back; keep matching on the old chain.
                }
            }
            self.recorder.finish(span);
        }
        self.reorg_detector = Some(det);
    }

    /// Mint a fresh identifier.
    pub fn gensym(&mut self, prefix: &str) -> Symbol {
        self.gensym_counter += 1;
        intern(&format!("{prefix}*{:04}", self.gensym_counter))
    }

    /// Load a production (task, default, or chunk). Runs the state update
    /// so it is immediately available; its instantiations enter the CS.
    pub fn load_production(&mut self, p: Arc<Production>) -> Result<(), String> {
        for a in &p.actions {
            if matches!(a, psme_ops::Action::Remove { .. } | psme_ops::Action::Modify { .. }) {
                return Err(format!("{}: Soar productions only add wmes", p.name));
            }
        }
        let org = self.org_overrides.get(&p.name).cloned().unwrap_or_else(|| self.org.clone());
        // From the agent's viewpoint the whole run-time addition is one
        // surgery span; the parallel engine's own recorder splits the §5.1
        // compile from the §5.2 state update.
        let span = self.recorder.start(ControlPhase::NetworkSurgery);
        let out = self.engine.add_production(p.clone(), org).map_err(|e| e.to_string())?;
        self.recorder.finish(span);
        self.stats.update_tasks += out.update_tasks;
        self.prods.insert(p.name, p);
        self.merge_cs(out.cs);
        Ok(())
    }

    /// Register a production that is *already compiled* into the engine's
    /// network (a shared-topology base production). Only the agent-side
    /// bookkeeping happens — no network surgery, no state update. With empty
    /// working memory this is observationally identical to
    /// [`Self::load_production`], which compiles against empty memories and
    /// finds zero instantiations.
    pub fn adopt_production(&mut self, p: Arc<Production>) {
        self.prods.insert(p.name, p);
    }

    /// Register a task object identifier (so chunking variablizes it).
    pub fn register_identifier(&mut self, s: Symbol) {
        self.book.register_identifier(s);
        self.book.note_new_object(s, 0);
    }

    /// Install task-static wmes (pinned: never garbage collected) and run
    /// the match once.
    pub fn add_init_wmes(&mut self, wmes: Vec<Wme>) {
        let mut changes = Vec::with_capacity(wmes.len());
        for w in wmes {
            if self.book.alive_index.contains_key(&w) {
                continue;
            }
            let id = self.add_noted(w, 0, Provenance::Arch { sources: vec![] });
            self.book.pinned.insert(id);
            changes.push((id, 1));
        }
        self.match_changes(changes);
    }

    /// Create the top goal; returns its identifier.
    pub fn push_top_goal(&mut self) -> Symbol {
        assert!(self.stack.is_empty(), "top goal already exists");
        let g = self.gensym("g");
        self.book.note_new_object(g, 0);
        self.stack.push(GoalCtx { id: g, level: 0, slots: [None, None, None], impasse: None });
        let w = crate::arch::goal_aug(&self.classes, &self.fields, g, self.fields.goal_type, Value::sym("top"));
        let id = self.add_noted(w, 0, Provenance::Arch { sources: vec![] });
        self.match_changes(vec![(id, 1)]);
        g
    }

    /// Add `w` to working memory and note it in the ledger at `level`: the
    /// agent's one note path.
    fn add_noted(&mut self, w: Wme, level: u32, prov: Provenance) -> WmeId {
        let (id, _) = self.engine.add_wme(w.clone());
        self.book.note_add(id, w, level, prov, &self.fields, &self.classes);
        self.stats.wme_adds += 1;
        id
    }

    /// Match a batch of wme changes and fold the outcome into the conflict
    /// set. Every match the agent starts runs here, so `Match` and
    /// `ConflictResolution` are each timed once, inside no other span.
    fn match_changes(&mut self, changes: Vec<(WmeId, i32)>) {
        let span = self.recorder.start(ControlPhase::Match);
        let out = self.engine.run_changes(changes);
        self.recorder.finish(span);
        let span = self.recorder.start(ControlPhase::ConflictResolution);
        self.merge_cs(out.cs);
        self.recorder.finish(span);
    }

    fn merge_cs(&mut self, delta: CsDelta) {
        delta.fold_into(&mut self.cs, |p| self.prods.get(&p).map_or(0, |p| p.test_count));
    }

    fn goal_level(&self, g: Symbol) -> Option<u32> {
        self.stack.iter().find(|gc| gc.id == g).map(|gc| gc.level)
    }

    /// Compute the goal level a new wme belongs to: its goal's, for an
    /// architecture wme; its object's, for an augmentation (a new object is
    /// born at `firing_level`).
    fn wme_level_for(&mut self, w: &Wme, firing_level: u32) -> u32 {
        let f = &self.fields;
        let goal = if w.class == f.goal_cls {
            w.field(f.goal_id)
        } else if w.class == f.pref_cls {
            w.field(f.pref_goal)
        } else if w.class == f.eval_cls {
            w.field(0)
        } else {
            Value::Nil
        };
        if let Some(g) = goal.as_sym() {
            return self.goal_level(g).unwrap_or(firing_level);
        }
        let Some((obj, _)) = object_of(w, &self.classes, f.id_attr) else { return firing_level };
        if let Some(&l) = self.book.obj_level.get(&obj) {
            return l;
        }
        self.book.note_new_object(obj, firing_level);
        firing_level
    }

    /// Register `s` as an identifier if its name carries the `*` of a
    /// gensym.
    fn note_gensym(&mut self, s: Symbol) {
        if self.book.is_identifier(s) || self.plain.contains(&s) {
            return;
        }
        if sym_name(s).contains('*') {
            self.book.register_identifier(s);
        } else {
            self.plain.insert(s);
        }
    }

    /// Fire every unfired instantiation once; batch the wme changes; match;
    /// integrate any chunks. Returns `false` at quiescence.
    fn elaborate_once(&mut self) -> bool {
        let unfired = self.cs.take_unfired();
        if unfired.is_empty() {
            return false;
        }
        let mut changes: Vec<(WmeId, i32)> = Vec::new();
        let mut pending_chunks: Vec<Arc<Production>> = Vec::new();
        for inst in unfired {
            let Some(prod) = self.prods.get(&inst.prod).cloned() else { continue };
            self.stats.firings += 1;
            let mut bindings = self.engine.with_store(|s| {
                let refs: Vec<&Wme> = inst.wmes.iter().map(|id| s.get(*id).as_ref()).collect();
                prod.bindings_of(&refs)
            });
            let firing_level =
                inst.wmes.iter().map(|id| self.book.level_of(*id)).max().unwrap_or(0);
            let mut counter = self.gensym_counter;
            let actions = prod.eval_rhs(&mut bindings, &mut || {
                counter += 1;
                intern(&format!("x*{counter:04}"))
            });
            self.gensym_counter = counter;

            let mut results: Vec<WmeId> = Vec::new();
            let mut result_level = 0u32;
            for act in actions {
                match act {
                    ConcreteAction::Make(class, fields) => {
                        let Some(decl) = self.classes.get(class) else { continue };
                        let w = Wme::with_fields(decl, &fields);
                        if self.book.alive_index.contains_key(&w) {
                            continue; // WM is a set
                        }
                        // Fresh gensym'd ids become identifiers.
                        for &(_, v) in &fields {
                            if let Value::Sym(s) = v {
                                self.note_gensym(s);
                            }
                        }
                        let level = self.wme_level_for(&w, firing_level);
                        let prov = Provenance::Fired { matched: inst.wmes.clone(), prod: inst.prod };
                        let wid = self.add_noted(w, level, prov);
                        changes.push((wid, 1));
                        // Promote linked deeper objects into this level. (The
                        // new wme itself sits at its object's level, so no
                        // promotion re-levels it.)
                        let book = &mut self.book;
                        self.engine.with_store(|s| {
                            for v in s.get(wid).fields.iter() {
                                if let Value::Sym(sym) = *v {
                                    if book.is_identifier(sym) && book.level_of_obj(sym) > level {
                                        book.promote(sym, level, s);
                                    }
                                }
                            }
                        });
                        if level < firing_level {
                            results.push(wid);
                            result_level = result_level.max(level);
                        }
                    }
                    ConcreteAction::Write(s) => self.output.push(s),
                    ConcreteAction::Halt => self.halt_requested = true,
                    ConcreteAction::RemoveCe(_) | ConcreteAction::ModifyCe(_, _) => {
                        debug_assert!(false, "rejected at load time");
                    }
                }
            }
            if self.learning && !results.is_empty() {
                let span = self.recorder.start(ControlPhase::ChunkBuild);
                let req = ChunkRequest {
                    results: &results,
                    matched: &inst.wmes,
                    prod: inst.prod,
                    result_level,
                };
                let prods = &self.prods;
                let lookup = |name: psme_ops::Symbol| prods.get(&name).cloned();
                let built = self.engine.with_store(|s| {
                    self.chunker.build(req, &self.book, s, &self.classes, &self.fields, &lookup)
                });
                self.recorder.finish(span);
                if let Some(chunk) = built {
                    pending_chunks.push(chunk);
                }
            }
        }
        self.match_changes(changes);
        // "Soar adds chunks only at the end of an elaboration cycle, i.e.,
        // when the match is quiescent" (§5.1).
        for chunk in pending_chunks {
            self.stats.chunks_built += 1;
            self.load_production(chunk).expect("chunks are valid productions");
        }
        self.stats.elaboration_cycles += 1;
        true
    }

    /// Run elaboration cycles to quiescence.
    fn elaboration_phase(&mut self) -> Result<(), StopReason> {
        let mut cycles = 0u64;
        while self.elaborate_once() {
            if self.halt_requested {
                return Ok(());
            }
            cycles += 1;
            if cycles > self.max_elab_cycles {
                return Err(StopReason::ElaborationRunaway);
            }
        }
        Ok(())
    }

    /// The decision phase: apply the decision procedure, perform the wme
    /// surgery and reachability GC. Returns the wme changes to match, or
    /// `None` when stuck.
    fn decision_phase(&mut self) -> Option<Vec<(WmeId, i32)>> {
        let d = decide(&self.stack, &self.book.prefs);
        self.stats.decisions += 1;
        match d {
            Decision::Stuck => None,
            Decision::Change { goal_idx, role, winner } => {
                self.stack.truncate(goal_idx + 1);
                {
                    let g = &mut self.stack[goal_idx];
                    g.set_slot(role, winner);
                    g.impasse = g.impasse.take(); // unchanged for this goal
                    // Later roles are reinitialized on a context change.
                    match role {
                        Role::ProblemSpace => {
                            g.set_slot(Role::State, None);
                            g.set_slot(Role::Operator, None);
                        }
                        Role::State => g.set_slot(Role::Operator, None),
                        Role::Operator => {}
                    }
                }
                let mut adds: Vec<(Wme, u32, Provenance)> = Vec::new();
                if let Some(w) = winner {
                    let g = &self.stack[goal_idx];
                    let field = match role {
                        Role::ProblemSpace => self.fields.goal_problem_space,
                        Role::State => self.fields.goal_state,
                        Role::Operator => self.fields.goal_operator,
                    };
                    let wme = crate::arch::goal_aug(&self.classes, &self.fields, g.id, field, Value::Sym(w));
                    // The slot wme's provenance points at the preferences
                    // that put the winner there, so chunks can trace through
                    // context slots.
                    let sources: Vec<WmeId> = self
                        .book
                        .prefs
                        .iter()
                        .filter(|p| p.goal == g.id && p.role == role && p.object == w)
                        .map(|p| p.wme)
                        .collect();
                    adds.push((wme, g.level, Provenance::Arch { sources }));
                }
                Some(self.install_decision_changes(adds))
            }
            Decision::NewImpasse { parent_idx, key } => {
                self.stack.truncate(parent_idx + 1);
                self.stats.impasses += 1;
                let parent_id = self.stack[parent_idx].id;
                let level = self.stack.len() as u32;
                let g2 = self.gensym("g");
                self.book.note_new_object(g2, level);
                self.stack.push(GoalCtx {
                    id: g2,
                    level,
                    slots: [None, None, None],
                    impasse: Some(key.clone()),
                });
                let (f, reg, prefs) = (&self.fields, &self.classes, &self.book.prefs);
                let mut adds: Vec<(Wme, u32, Provenance)> = vec![
                    (
                        crate::arch::goal_aug(reg, f, g2, f.goal_supergoal, Value::Sym(parent_id)),
                        level,
                        Provenance::Arch { sources: vec![] },
                    ),
                    (
                        crate::arch::goal_aug(reg, f, g2, f.goal_impasse, Value::Sym(key.kind.symbol())),
                        level,
                        Provenance::Arch { sources: vec![] },
                    ),
                    (
                        crate::arch::goal_aug(reg, f, g2, f.goal_role, Value::Sym(key.role.symbol())),
                        level,
                        Provenance::Arch { sources: vec![] },
                    ),
                ];
                for item in &key.items {
                    // An item augmentation is caused by the preferences that
                    // made the item a candidate — the chunker backtraces
                    // through this into the supergoal.
                    let sources: Vec<WmeId> = prefs
                        .iter()
                        .filter(|p| {
                            p.goal == parent_id
                                && p.role == key.role
                                && p.object == *item
                                && matches!(p.value, PrefValue::Acceptable | PrefValue::Best)
                        })
                        .map(|p| p.wme)
                        .collect();
                    adds.push((
                        crate::arch::goal_aug(reg, f, g2, f.goal_item, Value::Sym(*item)),
                        level,
                        Provenance::Arch { sources },
                    ));
                }
                Some(self.install_decision_changes(adds))
            }
        }
    }

    /// Garbage-collect and install decision-phase wmes; returns the
    /// changes for the match that follows.
    fn install_decision_changes(&mut self, adds: Vec<(Wme, u32, Provenance)>) -> Vec<(WmeId, i32)> {
        let mut changes: Vec<(WmeId, i32)> = Vec::new();
        for id in self.collect_garbage() {
            let w = self.engine.with_store(|s| s.get(id).clone());
            if self.engine.remove_wme(id) {
                self.book.note_remove(id, &w);
                self.stats.wme_removes += 1;
                changes.push((id, -1));
            }
        }
        for (w, level, prov) in adds {
            if self.book.alive_index.contains_key(&w) {
                continue;
            }
            let id = self.add_noted(w, level, prov);
            changes.push((id, 1));
        }
        changes
    }

    /// What reachability GC would remove from working memory now, for the
    /// current context stack, in ascending id order: what the decision
    /// phase removes once it has changed the stack.
    pub fn gc_removals(&self) -> Vec<WmeId> {
        self.collect_garbage()
    }

    /// Reachability GC: "the decision module keeps track of which wmes are
    /// accessible from the context stack, and automatically garbage
    /// collects inaccessible wmes" (§3). It reads the ledger: reachability
    /// grows from the roots by a worklist over the object index, so each
    /// object's augmentations are read once, when the object is first
    /// reached, and the sweep walks the ledger's list of removable wmes.
    fn collect_garbage(&self) -> Vec<WmeId> {
        let (f, book) = (&self.fields, &self.book);
        let goal = |id: Symbol| self.stack.iter().find(|g| g.id == id);
        // A preference counts while its goal is on the stack and, if it is
        // scoped to a state, that state is the goal's current one.
        let scope_ok = |p: &Preference| match (goal(p.goal), p.state) {
            (Some(g), Some(s)) => g.slot(Role::State) == Some(s),
            (Some(_), None) => true,
            (None, _) => false,
        };
        self.engine.with_store(|store| {
            // A goal wme survives while its goal is on the stack and each
            // slot augmentation it carries names the slot's current value.
            let goal_wme_keep = |w: &Wme| -> bool {
                let Some(g) = w.field(f.goal_id).as_sym().and_then(goal) else { return false };
                [
                    (Role::ProblemSpace, f.goal_problem_space),
                    (Role::State, f.goal_state),
                    (Role::Operator, f.goal_operator),
                ]
                .into_iter()
                .all(|(role, field)| {
                    let v = w.field(field);
                    v.is_nil() || v.as_sym() == g.slot(role)
                })
            };
            // 1. Roots: goal ids, slot values, every value of a surviving
            // goal wme (supergoal links, impasse items), and the objects of
            // valid preferences that no valid reject cancels.
            let mut work: Vec<Symbol> = Vec::new();
            for g in &self.stack {
                work.push(g.id);
                work.extend(g.slots.iter().flatten());
            }
            for &(id, kind) in &book.live {
                if matches!(kind, Kind::Goal(_)) && goal_wme_keep(store.get(id)) {
                    work.extend(store.get(id).fields.iter().filter_map(|v| v.as_sym()));
                }
            }
            let rejected: FxHashSet<(Symbol, Symbol)> = book
                .prefs
                .iter()
                .filter(|&p| p.value == PrefValue::Reject && scope_ok(p))
                .map(|p| (p.goal, p.object))
                .collect();
            work.extend(
                book.prefs
                    .iter()
                    .filter(|&p| {
                        scope_ok(p)
                            && p.value != PrefValue::Reject
                            && !rejected.contains(&(p.goal, p.object))
                    })
                    .map(|p| p.object),
            );
            // 2. Closure: a reached object's augmentations reach the
            // identifiers they name. Goal wmes are indexed under their goal
            // but reach only through step 1, so a stale slot value does not
            // keep its object.
            let mut reachable: FxHashSet<Symbol> = FxHashSet::default();
            while let Some(s) = work.pop() {
                if !reachable.insert(s) {
                    continue;
                }
                for &(id, idf) in book.augmentations(s) {
                    let w = store.get(id);
                    if w.class == f.goal_cls {
                        continue;
                    }
                    for (i, v) in w.fields.iter().enumerate() {
                        if let Value::Sym(t) = *v {
                            if i as u16 != idf && book.is_identifier(t) && !reachable.contains(&t) {
                                work.push(t);
                            }
                        }
                    }
                }
            }
            // 3. Sweep, in ascending id order.
            let gone = |id: WmeId, kind: Kind| {
                !book.pinned.contains(&id)
                    && !match kind {
                        Kind::Goal(_) => goal_wme_keep(store.get(id)),
                        Kind::Pref => {
                            book.pref(id).is_some_and(|p| scope_ok(p) && reachable.contains(&p.object))
                        }
                        Kind::Eval(g) => g.is_some_and(|g| goal(g).is_some()),
                        Kind::Object(obj) => reachable.contains(&obj),
                    }
            };
            book.live.iter().filter(|&&(id, kind)| gone(id, kind)).map(|&(id, _)| id).collect()
        })
    }

    /// One elaborate–decide step of the [`Self::run`] loop. Returns
    /// `Some(reason)` when the run is over, `None` to continue. The serving
    /// layer interleaves many agents by calling this directly (one decision
    /// cycle per call), so the step must leave the agent resumable.
    pub fn step(&mut self, max_decisions: u64) -> Option<StopReason> {
        assert!(!self.stack.is_empty(), "push_top_goal first");
        if let Err(r) = self.elaboration_phase() {
            return Some(r);
        }
        if self.reorg_detector.is_some() {
            self.maybe_reorganize();
        }
        if self.halt_requested {
            return Some(StopReason::Halted);
        }
        if self.stats.decisions >= max_decisions {
            return Some(StopReason::DecisionLimit);
        }
        // `Decide` closes before the match its changes start.
        let span = self.recorder.start(ControlPhase::Decide);
        let changes = self.decision_phase();
        self.recorder.finish(span);
        let Some(changes) = changes else { return Some(StopReason::Stuck) };
        self.match_changes(changes);
        self.retire_unreachable();
        None
    }

    /// Free the wmes the decision removed, and any removed earlier, that no
    /// chunk backtrace can reach ([`WmBook::backtrace_reach`]): the store's
    /// contents and the ledger's records. Runs after the decision's match,
    /// where no delete token is in flight and no backtrace is running, and
    /// on resume, where replay has re-created what the hibernated agent had
    /// retired.
    pub(crate) fn retire_unreachable(&mut self) {
        let reach = self.engine.with_store(|s| self.book.backtrace_reach(s));
        let retired = self.engine.retire_removed(|id| reach.contains(&id));
        self.book.forget(&retired);
    }

    /// Run the elaborate–decide loop for up to `max_decisions` decisions.
    pub fn run(&mut self, max_decisions: u64) -> StopReason {
        loop {
            if let Some(r) = self.step(max_decisions) {
                return r;
            }
        }
    }

    /// Chunks learned so far (for after-chunking runs).
    pub fn learned_chunks(&self) -> Vec<Arc<Production>> {
        self.chunker.chunks.clone()
    }

    /// Current live wme count.
    pub fn wm_size(&self) -> usize {
        self.engine.with_store(|s| s.live_count())
    }
}

/// Convenience alias used in examples and task code.
pub type Outcome = (StopReason, AgentStats);

impl<E: MatchEngine> std::fmt::Debug for Agent<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Agent(stack={}, decisions={}, chunks={}, wm={})",
            self.stack.len(),
            self.stats.decisions,
            self.stats.chunks_built,
            self.wm_size()
        )
    }
}

// Re-exported for tests needing direct access.
pub use crate::decide::slot_index;
