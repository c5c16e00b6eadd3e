//! Working-memory bookkeeping on top of the match engine's store: goal
//! levels, object levels, provenance records (for chunking's dependency
//! analysis), the structural-duplicate index (Soar WM is a set), and what
//! each live wme is to the decision phase, indexed by object.

use crate::arch::{decode_preference, ArchFields, Preference};
use psme_ops::{ClassRegistry, Symbol, Value, Wme, WmeId};
use psme_rete::util::{FxHashMap, FxHashSet};
use psme_rete::WmeStore;

psme_rete::codec! {
    /// Where a wme came from — the chunker backtraces through these.
    #[derive(Clone, Debug)]
    pub enum Provenance {
        /// Created by the architecture; `sources` are the wmes that caused it
        /// (e.g. a tie-impasse `^item` augmentation is caused by the candidate's
        /// acceptable preference).
        Arch {
            /// Causing wmes (may be empty — such wmes contribute no conditions).
            sources: Vec<WmeId>,
        } = 0,
        /// Created by a production firing; the instantiation's matched wmes.
        Fired {
            /// Matched wme ids of the creating instantiation.
            matched: Vec<WmeId>,
            /// The production that fired (the chunker grounds its negated CEs
            /// into chunk conditions).
            prod: Symbol,
        } = 1,
    }
}

/// The object rule, stated once: a wme whose class declares `id_attr` and
/// holds a symbol there is an augmentation of that object. Returns the
/// object and the field. Goal wmes qualify too; their object is their goal.
pub fn object_of(w: &Wme, reg: &ClassRegistry, id_attr: Symbol) -> Option<(Symbol, u16)> {
    let idf = reg.get(w.class)?.field_of(id_attr)?;
    Some((w.field(idf).as_sym()?, idf))
}

/// What a live wme is to the decision phase, settled once, when the wme
/// enters working memory. A wme with no kind is task-static: it has no
/// object, GC always keeps it, and the ledger does not list it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A goal augmentation, of this goal (its `^id`). It survives while
    /// its goal is on the stack and its slot values are current.
    Goal(Option<Symbol>),
    /// A preference: it survives while its scope holds and its object is
    /// reachable. A malformed one has this kind but no entry in
    /// [`WmBook::prefs`], and never survives.
    Pref,
    /// An `eval` wme of this goal: it survives while its goal is on the
    /// stack.
    Eval(Option<Symbol>),
    /// An augmentation of this object: it survives while the object is
    /// reachable.
    Object(Symbol),
}

impl Kind {
    fn of(w: &Wme, obj: Option<Symbol>, f: &ArchFields) -> Option<Kind> {
        Some(if w.class == f.goal_cls {
            Kind::Goal(obj)
        } else if w.class == f.pref_cls {
            Kind::Pref
        } else if w.class == f.eval_cls {
            Kind::Eval(w.field(0).as_sym())
        } else {
            Kind::Object(obj?)
        })
    }

    /// The object the wme is indexed under in [`WmBook::objects`].
    fn object(self) -> Option<Symbol> {
        match self {
            Kind::Goal(obj) => obj,
            Kind::Object(obj) => Some(obj),
            Kind::Pref | Kind::Eval(_) => None,
        }
    }
}

/// The working-memory ledger. Levels, provenance, identifiers and pins are
/// recorded facts (a hibernated shell carries them); the rest is derived
/// from each live wme once, when it is noted, and rebuilt on resume by
/// noting the replayed store again ([`WmBook::index`]).
#[derive(Debug, Default)]
pub struct WmBook {
    /// Goal level of each live or retained wme (0 = top goal context).
    pub wme_level: FxHashMap<WmeId, u32>,
    /// Current (possibly promoted) level of each object identifier.
    pub obj_level: FxHashMap<Symbol, u32>,
    /// Level at which each object was originally created (promotion does
    /// not rewrite this — the chunker uses it to find subgoal-born objects).
    pub obj_native_level: FxHashMap<Symbol, u32>,
    /// Provenance of each live or retained wme.
    pub provenance: FxHashMap<WmeId, Provenance>,
    /// Symbols that denote object identifiers (variablized by chunking).
    pub identifiers: FxHashSet<Symbol>,
    /// Wmes that must never be garbage collected (task-static structure).
    pub pinned: FxHashSet<WmeId>,
    /// Structural index of live wmes (set semantics).
    pub alive_index: FxHashMap<Wme, WmeId>,
    /// Every live wme that is not task-static, ascending id, with its kind.
    /// (Pinned ones are here too: GC never removes them, but a goal wme
    /// among them roots reachability.)
    pub live: Vec<(WmeId, Kind)>,
    /// Every live task-static wme noted above the top level, ascending id.
    /// It has no object, so promotion never lowers it; with [`Self::live`]
    /// it roots [`Self::backtrace_reach`].
    pub deep_static: Vec<WmeId>,
    /// Every well-formed live preference, ascending wme id: the decision
    /// procedure's input.
    pub prefs: Vec<Preference>,
    /// Live wmes by their object ([`object_of`]), ascending id, each with
    /// its `^id` field. Goal wmes are here under their goal.
    pub objects: FxHashMap<Symbol, Vec<(WmeId, u16)>>,
}

impl WmBook {
    /// Fresh ledger.
    pub fn new() -> WmBook {
        WmBook::default()
    }

    /// Register an identifier symbol (task init objects, gensym'd ids).
    pub fn register_identifier(&mut self, s: Symbol) {
        self.identifiers.insert(s);
    }

    /// Is the symbol a known object identifier?
    pub fn is_identifier(&self, s: Symbol) -> bool {
        self.identifiers.contains(&s)
    }

    /// Record a newly added wme at `level` and index it. Ids only grow, so
    /// the ledger's lists stay in ascending id order by appending.
    pub fn note_add(
        &mut self,
        id: WmeId,
        wme: Wme,
        level: u32,
        prov: Provenance,
        f: &ArchFields,
        reg: &ClassRegistry,
    ) {
        self.wme_level.insert(id, level);
        self.provenance.insert(id, prov);
        self.index(id, wme, f, reg);
    }

    /// The derived half of [`Self::note_add`]: classify a live wme, decode
    /// it if it is a preference, and index it by its object.
    pub fn index(&mut self, id: WmeId, wme: Wme, f: &ArchFields, reg: &ClassRegistry) {
        let obj = object_of(&wme, reg, f.id_attr);
        if let Some(kind) = Kind::of(&wme, obj.map(|o| o.0), f) {
            self.live.push((id, kind));
        } else if self.level_of(id) > 0 {
            self.deep_static.push(id);
        }
        self.prefs.extend(decode_preference(id, &wme, f));
        if let Some((obj, idf)) = obj {
            self.objects.entry(obj).or_default().push((id, idf));
        }
        self.alive_index.insert(wme, id);
    }

    /// Record a removal. Level and provenance stay until the wme retires
    /// ([`Self::forget`]): a later chunk backtrace may still reach it.
    pub fn note_remove(&mut self, id: WmeId, wme: &Wme) {
        if self.alive_index.get(wme) == Some(&id) {
            self.alive_index.remove(wme);
        }
        self.pinned.remove(&id);
        let Ok(at) = self.live.binary_search_by_key(&id, |e| e.0) else {
            if let Ok(at) = self.deep_static.binary_search(&id) {
                self.deep_static.remove(at);
            }
            return;
        };
        let (_, kind) = self.live.remove(at);
        if kind == Kind::Pref {
            if let Ok(at) = self.prefs.binary_search_by_key(&id, |p| p.wme) {
                self.prefs.remove(at);
            }
        }
        if let Some(obj) = kind.object() {
            let augs = self.objects.get_mut(&obj).expect("an indexed object");
            augs.remove(augs.binary_search_by_key(&id, |e| e.0).expect("an indexed wme"));
            if augs.is_empty() {
                self.objects.remove(&obj);
            }
        }
    }

    /// The removed wmes a chunk backtrace can still reach. A backtrace
    /// starts at a firing's matched wmes, which are live, and expands a
    /// wme's provenance only when the wme's level exceeds the result level,
    /// which is never negative; promotion only lowers levels. So a removed
    /// wme can be reached again iff it is reachable from a live wme of
    /// level > 0 through the provenance edges of wmes of level > 0. Every
    /// live wme of level > 0 is a root, so the walk continues only through
    /// removed ones. Costs the listed wmes ([`Self::live`],
    /// [`Self::deep_static`]) and the retained ones, never task-static
    /// working memory or the run's history; nothing when no removed wme
    /// awaits retirement.
    pub fn backtrace_reach(&self, store: &WmeStore) -> FxHashSet<WmeId> {
        let mut reach = FxHashSet::default();
        if store.retained().is_empty() {
            return reach;
        }
        let edges = |w: WmeId| -> &[WmeId] {
            match self.provenance.get(&w) {
                Some(Provenance::Fired { matched, .. }) => matched,
                Some(Provenance::Arch { sources }) => sources,
                None => &[],
            }
        };
        let removed = |w: &&WmeId| !store.is_alive(**w);
        let mut work: Vec<WmeId> = Vec::new();
        for id in self.live.iter().map(|e| e.0).chain(self.deep_static.iter().copied()) {
            if self.level_of(id) > 0 {
                work.extend(edges(id).iter().filter(removed));
            }
        }
        while let Some(w) = work.pop() {
            if reach.insert(w) && self.level_of(w) > 0 {
                work.extend(edges(w).iter().filter(removed));
            }
        }
        reach
    }

    /// Drop the records of retired wmes: nothing can reach them again.
    pub fn forget(&mut self, retired: &[WmeId]) {
        for id in retired {
            self.wme_level.remove(id);
            self.provenance.remove(id);
        }
    }

    /// The decoded preference a live wme carries, if well-formed.
    pub fn pref(&self, id: WmeId) -> Option<&Preference> {
        self.prefs.binary_search_by_key(&id, |p| p.wme).ok().map(|at| &self.prefs[at])
    }

    /// The live wmes of object `obj`, ascending id, each with its `^id`
    /// field.
    pub fn augmentations(&self, obj: Symbol) -> &[(WmeId, u16)] {
        self.objects.get(&obj).map_or(&[], Vec::as_slice)
    }

    /// Goal level of a wme (0 — top context — when untracked).
    pub fn level_of(&self, id: WmeId) -> u32 {
        self.wme_level.get(&id).copied().unwrap_or(0)
    }

    /// Current level of an object (0 when untracked/static).
    pub fn level_of_obj(&self, s: Symbol) -> u32 {
        self.obj_level.get(&s).copied().unwrap_or(0)
    }

    /// Register a fresh object created at `level`.
    pub fn note_new_object(&mut self, s: Symbol, level: u32) {
        self.obj_level.entry(s).or_insert(level);
        self.obj_native_level.entry(s).or_insert(level);
        self.identifiers.insert(s);
    }

    /// Promote `obj` (and, transitively, the objects its augmentations
    /// reference) to `level` if it currently sits deeper. This is Soar's
    /// result promotion: a subgoal object linked into a supergoal structure
    /// becomes part of the supergoal context and must survive the subgoal's
    /// garbage collection.
    pub fn promote(&mut self, obj: Symbol, level: u32, store: &WmeStore) {
        if self.level_of_obj(obj) <= level {
            return;
        }
        self.obj_level.insert(obj, level);
        // Re-level this object's augmentation wmes and recurse into their
        // identifier values.
        let mut to_promote: Vec<Symbol> = Vec::new();
        for &(wid, idf) in self.objects.get(&obj).into_iter().flatten() {
            if let Some(l) = self.wme_level.get_mut(&wid) {
                *l = (*l).min(level);
            }
            for (i, v) in store.get(wid).fields.iter().enumerate() {
                if let Value::Sym(s) = *v {
                    if i as u16 != idf && self.is_identifier(s) && self.level_of_obj(s) > level {
                        to_promote.push(s);
                    }
                }
            }
        }
        for s in to_promote {
            self.promote(s, level, store);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::declare_arch_classes;
    use psme_ops::intern;

    fn reg() -> (ClassRegistry, ArchFields) {
        let mut r = ClassRegistry::new();
        r.declare_str("obj", &["id", "link", "color"]);
        let f = declare_arch_classes(&mut r);
        (r, f)
    }

    fn add(store: &mut WmeStore, b: &mut WmBook, (r, f): &(ClassRegistry, ArchFields), text: &str) -> WmeId {
        let w = psme_ops::parse_wme(text, r).unwrap();
        let (id, _) = store.add(w.clone());
        b.note_add(id, w, 2, Provenance::Arch { sources: vec![] }, f, r);
        id
    }

    #[test]
    fn backtrace_reach_follows_wmes_above_the_top_level() {
        let (r, f) = reg();
        let mut store = WmeStore::new();
        let mut b = WmBook::new();
        let mut note = |text: &str, level: u32, sources: Vec<WmeId>| {
            let w = psme_ops::parse_wme(text, &r).unwrap();
            let (id, _) = store.add(w.clone());
            b.note_add(id, w, level, Provenance::Arch { sources }, &f, &r);
            id
        };
        let [x, y, z, far] = ["(obj ^id o1 ^color red)", "(obj ^color blue)", "(obj ^color red)", "(obj ^id o2)"]
            .map(|t| note(t, 1, vec![]));
        let mid = note("(obj ^id o3)", 0, vec![far]);
        let hop = note("(obj ^id o4)", 1, vec![mid]);
        let deep_object = note("(obj ^id o5)", 1, vec![x]);
        let deep_static = note("(obj ^color green)", 2, vec![y, hop]);
        let top = note("(obj ^id o6)", 0, vec![z]);
        assert_eq!(b.deep_static, [y, z, deep_static], "task-static, above level 0");
        assert!(b.backtrace_reach(&store).is_empty(), "nothing removed, nothing walked");
        for id in [x, y, z, far, mid, hop] {
            let w = store.remove(id).unwrap();
            b.note_remove(id, &w);
        }
        assert_eq!(b.deep_static, [deep_static]);
        let reach = b.backtrace_reach(&store);
        let mut reach: Vec<WmeId> = reach.into_iter().collect();
        reach.sort();
        // `z` hangs off a level-0 root, `far` off a level-0 removed wme.
        assert_eq!(reach, [x, y, mid, hop], "roots {deep_object:?}, {deep_static:?}; not {top:?}");
    }

    #[test]
    fn add_remove_index() {
        let rf = reg();
        let mut store = WmeStore::new();
        let mut b = WmBook::new();
        let id = add(&mut store, &mut b, &rf, "(obj ^id o1 ^color red)");
        let w = store.get(id).as_ref().clone();
        assert_eq!(b.alive_index.get(&w), Some(&id));
        assert_eq!(b.level_of(id), 2);
        assert_eq!(b.live, [(id, Kind::Object(intern("o1")))]);
        assert_eq!(b.augmentations(intern("o1")), [(id, 0)]);
        b.note_remove(id, &w);
        assert!(!b.alive_index.contains_key(&w));
        assert!(b.live.is_empty() && b.objects.is_empty());
        // level survives removal for in-flight references
        assert_eq!(b.level_of(id), 2);
    }

    #[test]
    fn kinds_and_preferences_are_settled_on_entry() {
        let rf = reg();
        let mut store = WmeStore::new();
        let mut b = WmBook::new();
        let fixed = add(&mut store, &mut b, &rf, "(obj ^color red)");
        let goal = add(&mut store, &mut b, &rf, "(goal ^id g1 ^state s1)");
        let pref = "(preference ^object o1 ^role operator ^value acceptable ^goal g1)";
        let pref = add(&mut store, &mut b, &rf, pref);
        let junk = add(&mut store, &mut b, &rf, "(preference ^object o1 ^goal g1)");
        let eval = add(&mut store, &mut b, &rf, "(eval ^goal g1 ^object o1 ^value 3)");
        assert_eq!(
            b.live,
            [(goal, Kind::Goal(Some(intern("g1")))), (pref, Kind::Pref), (junk, Kind::Pref), (eval, Kind::Eval(Some(intern("g1"))))],
            "task-static {fixed:?} is not listed"
        );
        assert_eq!(b.prefs.len(), 1);
        assert_eq!(b.pref(pref).map(|p| p.object), Some(intern("o1")));
        assert!(b.pref(junk).is_none(), "malformed: listed, never decoded");
        assert_eq!(b.augmentations(intern("g1")), [(goal, 0)]);
        b.note_remove(pref, &store.get(pref).as_ref().clone());
        assert!(b.prefs.is_empty());
    }

    #[test]
    fn object_levels_and_identifiers() {
        let mut b = WmBook::new();
        let o = intern("o-77");
        assert_eq!(b.level_of_obj(o), 0);
        assert!(!b.is_identifier(o));
        b.note_new_object(o, 3);
        assert_eq!(b.level_of_obj(o), 3);
        assert!(b.is_identifier(o));
        // note_new_object is idempotent w.r.t. the native level
        b.note_new_object(o, 5);
        assert_eq!(b.obj_native_level[&o], 3);
    }

    #[test]
    fn promotion_is_transitive() {
        let rf = reg();
        let mut store = WmeStore::new();
        let mut b = WmBook::new();
        let (o1, o2) = (intern("p1"), intern("p2"));
        b.note_new_object(o1, 2);
        b.note_new_object(o2, 2);
        // o1 links to o2.
        let id1 = add(&mut store, &mut b, &rf, "(obj ^id p1 ^link p2)");
        let id2 = add(&mut store, &mut b, &rf, "(obj ^id p2 ^color blue)");

        b.promote(o1, 0, &store);
        assert_eq!(b.level_of_obj(o1), 0);
        assert_eq!(b.level_of_obj(o2), 0, "linked object promoted too");
        assert_eq!(b.level_of(id1), 0);
        assert_eq!(b.level_of(id2), 0);
        // native level unchanged (chunker needs the birth level)
        assert_eq!(b.obj_native_level[&o1], 2);
    }
}
