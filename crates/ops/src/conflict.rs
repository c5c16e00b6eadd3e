//! The conflict set and OPS5 conflict resolution.
//!
//! "OPS5 uses a selection procedure called conflict resolution to choose a
//! single production's instantiation from the CS, which is then fired"
//! (§2.1). Soar instead fires *all* instantiations in parallel (§3); the
//! Soar side therefore only uses [`ConflictSet`] as a set with add/remove
//! deltas, while OPS5 mode uses [`Strategy::Lex`].

use crate::production::Instantiation;
use crate::util::FxHashMap;
use crate::wme::TimeTag;
use std::sync::Arc;

/// Conflict-resolution strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// OPS5 LEX: refractoriness, recency (descending time tags compared
    /// lexicographically), then specificity (number of attribute tests).
    #[default]
    Lex,
    /// Fire-all (Soar's elaboration semantics): `select` is not used.
    FireAll,
}

#[derive(Debug)]
struct Entry {
    inst: Arc<Instantiation>,
    specificity: usize,
    /// Refraction: set when the entry fires, gone with the entry.
    fired: bool,
}

/// The conflict set: the instantiations currently matched.
///
/// Tracks refraction (instantiations already fired are not re-fired even if
/// they re-enter after a remove/add of identical wme ids is *not* possible
/// since wme ids are never reused; refraction is therefore just "fired and
/// still present").
///
/// An operation costs what it changes. An instantiation is one allocation,
/// shared by its entry, its index key and whoever fires it. The count of
/// unfired entries and the position of the first one let
/// [`Self::take_unfired`] skip the fired prefix and stop at the last unfired
/// entry, so a set with nothing unfired answers without looking.
#[derive(Debug, Default)]
pub struct ConflictSet {
    present: Vec<Entry>,
    /// Position in `present` of each instantiation (of its earliest-added
    /// copy, should a caller add one twice). The key is the entry's own
    /// allocation.
    index: FxHashMap<Arc<Instantiation>, usize>,
    /// Entries not yet fired.
    unfired: usize,
    /// Every entry before this position has fired.
    first_unfired: usize,
}

impl ConflictSet {
    /// Empty conflict set.
    pub fn new() -> ConflictSet {
        ConflictSet::default()
    }

    /// Add an instantiation (with its production's test count for
    /// specificity ordering).
    pub fn add(&mut self, inst: Instantiation, specificity: usize) {
        self.restore_entry(inst, specificity, false);
    }

    /// Remove an instantiation (when its support disappears), and its
    /// refraction record with it. Returns `true` if it was present.
    pub fn remove(&mut self, inst: &Instantiation) -> bool {
        // The index misses only the second copy of an instantiation added
        // twice, after the first was removed.
        let found = self.index.remove(inst);
        let Some(i) = found.or_else(|| self.present.iter().position(|e| *e.inst == *inst)) else {
            return false;
        };
        let gone = self.present.swap_remove(i);
        self.unfired -= usize::from(!gone.fired);
        if let Some(moved) = self.present.get(i) {
            if !moved.fired {
                self.first_unfired = self.first_unfired.min(i);
            }
            let last = self.present.len();
            if let Some(at) = self.index.get_mut(&moved.inst).filter(|at| **at == last) {
                *at = i;
            }
        }
        true
    }

    /// All currently present instantiations.
    pub fn iter(&self) -> impl Iterator<Item = &Instantiation> {
        self.present.iter().map(|e| &*e.inst)
    }

    /// Number of instantiations present.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// `true` when no instantiation is present.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Instantiations present and not yet fired (Soar fires all of these in
    /// one elaboration cycle), in insertion order as removals' `swap_remove`
    /// left it. Marks them fired. The walk starts at the first unfired entry
    /// and stops at the last one.
    pub fn take_unfired(&mut self) -> Vec<Arc<Instantiation>> {
        let mut out = Vec::with_capacity(self.unfired);
        for e in self.present.iter_mut().skip(self.first_unfired) {
            if out.len() == self.unfired {
                break;
            }
            if !e.fired {
                e.fired = true;
                out.push(e.inst.clone());
            }
        }
        self.unfired = 0;
        self.first_unfired = self.present.len();
        out
    }

    /// Present entries in insertion order, each with its specificity and
    /// whether it has already fired. Insertion order matters: it is the
    /// order [`Self::take_unfired`] fires in, so a snapshot must preserve
    /// it to keep a restored agent's firing (and gensym) order identical.
    pub fn entries(&self) -> impl Iterator<Item = (&Instantiation, usize, bool)> {
        self.present.iter().map(|e| (&*e.inst, e.specificity, e.fired))
    }

    /// Re-append one entry recorded by [`Self::entries`] (snapshot restore).
    /// Call in recorded order.
    pub fn restore_entry(&mut self, inst: Instantiation, specificity: usize, fired: bool) {
        let inst = Arc::new(inst);
        let at = self.present.len();
        self.index.entry(inst.clone()).or_insert(at);
        if !fired {
            self.unfired += 1;
            self.first_unfired = self.first_unfired.min(at);
        }
        self.present.push(Entry { inst, specificity, fired });
    }

    /// OPS5 LEX selection: choose the dominant unfired instantiation, mark
    /// it fired, and return it. `None` when every instantiation has fired.
    pub fn select_lex(&mut self) -> Option<Arc<Instantiation>> {
        let mut best: Option<(usize, Vec<TimeTag>, usize)> = None;
        for (i, e) in self.present.iter().enumerate() {
            if e.fired {
                continue;
            }
            let key = e.inst.recency_key();
            let better = match &best {
                None => true,
                Some((_, bkey, bspec)) => match key.cmp(bkey) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => e.specificity > *bspec,
                    std::cmp::Ordering::Less => false,
                },
            };
            if better {
                best = Some((i, key, e.specificity));
            }
        }
        let chosen = &mut self.present[best?.0];
        chosen.fired = true;
        self.unfired -= 1;
        Some(chosen.inst.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::intern;
    use crate::wme::WmeId;

    fn inst(prod: &str, tags: &[u64]) -> Instantiation {
        Instantiation {
            prod: intern(prod),
            wmes: tags.iter().map(|&t| WmeId(t as u32)).collect(),
            tags: tags.iter().map(|&t| TimeTag(t)).collect(),
        }
    }

    #[test]
    fn lex_prefers_recency() {
        let mut cs = ConflictSet::new();
        cs.add(inst("old", &[1, 2]), 5);
        cs.add(inst("new", &[1, 9]), 2);
        assert_eq!(cs.select_lex().unwrap().prod, intern("new"));
        // refraction: next selection picks the other one
        assert_eq!(cs.select_lex().unwrap().prod, intern("old"));
        assert!(cs.select_lex().is_none());
    }

    #[test]
    fn lex_ties_break_on_specificity() {
        let mut cs = ConflictSet::new();
        cs.add(inst("loose", &[7]), 1);
        cs.add(inst("tight", &[7]), 9);
        assert_eq!(cs.select_lex().unwrap().prod, intern("tight"));
    }

    #[test]
    fn remove_clears_refraction() {
        let mut cs = ConflictSet::new();
        let i = inst("p", &[3]);
        cs.add(i.clone(), 1);
        assert!(cs.select_lex().is_some());
        assert!(cs.remove(&i));
        assert!(!cs.remove(&i));
        // re-added: fires again (support went away and came back)
        cs.add(i.clone(), 1);
        assert!(cs.select_lex().is_some());
    }

    #[test]
    fn take_unfired_marks_all() {
        let mut cs = ConflictSet::new();
        cs.add(inst("a", &[1]), 1);
        cs.add(inst("b", &[2]), 1);
        assert_eq!(cs.take_unfired().len(), 2);
        assert_eq!(cs.take_unfired().len(), 0);
        cs.add(inst("c", &[3]), 1);
        let third = cs.take_unfired();
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].prod, intern("c"));
    }

    #[test]
    fn recency_key_longer_wins_on_prefix_tie() {
        // LEX compares sorted tag vectors lexicographically; [9,3] > [9].
        let mut cs = ConflictSet::new();
        cs.add(inst("short", &[9]), 1);
        cs.add(inst("long", &[3, 9]), 1);
        assert_eq!(cs.select_lex().unwrap().prod, intern("long"));
    }
}
