//! Working-memory bookkeeping on top of the match engine's store: goal
//! levels, object levels, provenance records (for chunking's dependency
//! analysis) and the structural-duplicate index (Soar WM is a set).

use psme_ops::{ClassRegistry, Symbol, Value, Wme, WmeId};
use psme_rete::util::{FxHashMap, FxHashSet};
use psme_rete::WmeStore;

/// Where a wme came from — the chunker backtraces through these.
#[derive(Clone, Debug)]
pub enum Provenance {
    /// Created by the architecture; `sources` are the wmes that caused it
    /// (e.g. a tie-impasse `^item` augmentation is caused by the candidate's
    /// acceptable preference).
    Arch {
        /// Causing wmes (may be empty — such wmes contribute no conditions).
        sources: Vec<WmeId>,
    },
    /// Created by a production firing; the instantiation's matched wmes.
    Fired {
        /// Matched wme ids of the creating instantiation.
        matched: Vec<WmeId>,
        /// The production that fired (the chunker grounds its negated CEs
        /// into chunk conditions).
        prod: Symbol,
    },
}

/// The bookkeeping ledger.
#[derive(Debug, Default)]
pub struct WmBook {
    /// Goal level of each live/expired wme (0 = top goal context).
    pub wme_level: FxHashMap<WmeId, u32>,
    /// Current (possibly promoted) level of each object identifier.
    pub obj_level: FxHashMap<Symbol, u32>,
    /// Level at which each object was originally created (promotion does
    /// not rewrite this — the chunker uses it to find subgoal-born objects).
    pub obj_native_level: FxHashMap<Symbol, u32>,
    /// Provenance per wme.
    pub provenance: FxHashMap<WmeId, Provenance>,
    /// Structural index of live wmes (set semantics).
    pub alive_index: FxHashMap<Wme, WmeId>,
    /// Symbols that denote object identifiers (variablized by chunking).
    pub identifiers: FxHashSet<Symbol>,
    /// Wmes that must never be garbage collected (task-static structure).
    pub pinned: FxHashSet<WmeId>,
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

    /// Record a newly added wme (the duplicate index keeps `wme`).
    pub fn note_add(&mut self, id: WmeId, wme: Wme, level: u32, prov: Provenance, pinned: bool) {
        self.wme_level.insert(id, level);
        self.provenance.insert(id, prov);
        self.alive_index.insert(wme, id);
        if pinned {
            self.pinned.insert(id);
        }
    }

    /// Record a removal.
    pub fn note_remove(&mut self, id: WmeId, wme: &Wme) {
        if self.alive_index.get(wme) == Some(&id) {
            self.alive_index.remove(wme);
        }
        self.pinned.remove(&id);
        // Levels and provenance are kept: in-flight references (conflict-set
        // retractions, chunk backtraces within the same phase) may still
        // need them.
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
    /// garbage collection. Objects carry their identifier in the `id_attr`
    /// attribute.
    pub fn promote(
        &mut self,
        obj: Symbol,
        level: u32,
        store: &WmeStore,
        reg: &ClassRegistry,
        id_attr: Symbol,
    ) {
        let cur = self.level_of_obj(obj);
        if cur <= level {
            return;
        }
        self.obj_level.insert(obj, level);
        // Re-level this object's augmentation wmes and recurse into their
        // identifier values.
        let mut to_promote: Vec<Symbol> = Vec::new();
        for (wid, w) in store.iter_alive() {
            let Some(decl) = reg.get(w.class) else { continue };
            let Some(idf) = decl.field_of(id_attr) else { continue };
            if w.field(idf) != Value::Sym(obj) {
                continue;
            }
            if self.level_of(wid) > level {
                self.wme_level.insert(wid, level);
            }
            for (i, v) in w.fields.iter().enumerate() {
                if i as u16 == idf {
                    continue;
                }
                if let Value::Sym(s) = v {
                    if self.is_identifier(*s) && self.level_of_obj(*s) > level {
                        to_promote.push(*s);
                    }
                }
            }
        }
        for s in to_promote {
            self.promote(s, level, store, reg, id_attr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psme_ops::intern;

    fn reg() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        r.declare_str("obj", &["id", "link", "color"]);
        r
    }

    #[test]
    fn add_remove_index() {
        let r = reg();
        let mut store = WmeStore::new();
        let mut b = WmBook::new();
        let w = psme_ops::parse_wme("(obj ^id o1 ^color red)", &r).unwrap();
        let (id, _) = store.add(w.clone());
        b.note_add(id, w.clone(), 2, Provenance::Arch { sources: vec![] }, false);
        assert_eq!(b.alive_index.get(&w), Some(&id));
        assert_eq!(b.level_of(id), 2);
        b.note_remove(id, &w);
        assert!(!b.alive_index.contains_key(&w));
        // level survives removal for in-flight references
        assert_eq!(b.level_of(id), 2);
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
        let r = reg();
        let mut store = WmeStore::new();
        let mut b = WmBook::new();
        let (o1, o2) = (intern("p1"), intern("p2"));
        b.note_new_object(o1, 2);
        b.note_new_object(o2, 2);
        // o1 links to o2.
        let w1 = psme_ops::parse_wme("(obj ^id p1 ^link p2)", &r).unwrap();
        let (id1, _) = store.add(w1.clone());
        b.note_add(id1, w1, 2, Provenance::Arch { sources: vec![] }, false);
        let w2 = psme_ops::parse_wme("(obj ^id p2 ^color blue)", &r).unwrap();
        let (id2, _) = store.add(w2.clone());
        b.note_add(id2, w2, 2, Provenance::Arch { sources: vec![] }, false);

        b.promote(o1, 0, &store, &r, intern("id"));
        assert_eq!(b.level_of_obj(o1), 0);
        assert_eq!(b.level_of_obj(o2), 0, "linked object promoted too");
        assert_eq!(b.level_of(id1), 0);
        assert_eq!(b.level_of(id2), 0);
        // native level unchanged (chunker needs the birth level)
        assert_eq!(b.obj_native_level[&o1], 2);
    }
}
