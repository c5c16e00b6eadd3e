//! Tokens and the working-memory store.
//!
//! A token carries a *partial instantiation* — "a list of wmes, matching
//! CEs" (§2.2). We represent it as an immutable, `Arc`-shared vector of wme
//! ids; the *meaning* of each slot (which condition it matches) is given by
//! the consuming node's coverage metadata, so the same representation serves
//! linear chains, bilinear group joins and NCC subnetworks.

use psme_ops::{TimeTag, Value, Wme, WmeId};
use std::fmt;
use std::sync::Arc;

/// An immutable partial instantiation: wme ids, one per covered condition.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Token {
    wmes: Arc<[WmeId]>,
}

impl Token {
    /// The empty token (the left input of first-level joins).
    pub fn empty() -> Token {
        Token { wmes: Arc::from([]) }
    }

    /// A one-slot token wrapping a single wme (alpha-network output).
    pub fn unit(w: WmeId) -> Token {
        Token { wmes: Arc::from([w]) }
    }

    /// Build from a slice of wme ids.
    pub fn from_slice(ws: &[WmeId]) -> Token {
        Token { wmes: Arc::from(ws) }
    }

    /// Build directly from an iterator of wme ids. With an exact-size
    /// iterator the `Arc<[_]>` is filled in a single allocation — no
    /// intermediate `Vec` (the hot path of every join activation).
    pub fn collect(ws: impl Iterator<Item = WmeId>) -> Token {
        Token { wmes: ws.collect() }
    }

    /// Wme id at `slot`.
    #[inline]
    pub fn slot(&self, i: u16) -> WmeId {
        self.wmes[i as usize]
    }

    /// All wme ids.
    pub fn wmes(&self) -> &[WmeId] {
        &self.wmes
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.wmes.len()
    }

    /// `true` for the empty token.
    pub fn is_empty(&self) -> bool {
        self.wmes.is_empty()
    }
}

impl fmt::Debug for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T[")?;
        for (i, w) in self.wmes.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", w.0)?;
        }
        write!(f, "]")
    }
}

/// One stored wme with its time tag and liveness.
#[derive(Clone, Debug)]
struct StoredWme {
    wme: Arc<Wme>,
    tag: TimeTag,
    alive: bool,
    /// The wme's one-slot token, built once at add time. Tokens are
    /// immutable, so the alpha fan-out and every subsequent alpha task for
    /// this wme share it by refcount instead of allocating fresh `Arc`s.
    unit: Token,
}

/// The working-memory store: assigns [`WmeId`]s and [`TimeTag`]s, keeps the
/// wme values readable for the matcher (ids are never reused, and removed
/// wmes stay readable because in-flight delete tokens still reference them).
#[derive(Default, Debug)]
pub struct WmeStore {
    wmes: Vec<StoredWme>,
    next_tag: u64,
    /// Ids of the live wmes, ascending (ids are assigned in increasing
    /// order, so adds append): [`Self::iter_alive`] walks these instead of
    /// every slot ever allocated.
    live: Vec<WmeId>,
}

impl WmeStore {
    /// Empty store.
    pub fn new() -> WmeStore {
        WmeStore::default()
    }

    /// Add a wme, assigning the next id and time tag.
    pub fn add(&mut self, wme: Wme) -> (WmeId, TimeTag) {
        self.next_tag += 1;
        let id = WmeId(self.wmes.len() as u32);
        let tag = TimeTag(self.next_tag);
        self.wmes.push(StoredWme { wme: Arc::new(wme), tag, alive: true, unit: Token::unit(id) });
        self.live.push(id);
        (id, tag)
    }

    /// Mark a wme dead. Returns its contents if it was alive.
    pub fn remove(&mut self, id: WmeId) -> Option<Arc<Wme>> {
        let s = self.wmes.get_mut(id.0 as usize)?;
        if !s.alive {
            return None;
        }
        s.alive = false;
        let at = self.live.binary_search(&id).expect("an alive wme is on the live list");
        self.live.remove(at);
        Some(s.wme.clone())
    }

    /// The wme for an id (alive or dead).
    pub fn get(&self, id: WmeId) -> &Arc<Wme> {
        &self.wmes[id.0 as usize].wme
    }

    /// Field value of a wme.
    #[inline]
    pub fn value(&self, id: WmeId, field: u16) -> Value {
        self.wmes[id.0 as usize].wme.field(field)
    }

    /// Time tag of a wme.
    pub fn tag(&self, id: WmeId) -> TimeTag {
        self.wmes[id.0 as usize].tag
    }

    /// The wme's shared one-slot token (cloning is a refcount bump).
    #[inline]
    pub fn unit_token(&self, id: WmeId) -> &Token {
        &self.wmes[id.0 as usize].unit
    }

    /// Is the wme currently in working memory?
    pub fn is_alive(&self, id: WmeId) -> bool {
        self.wmes.get(id.0 as usize).map(|s| s.alive).unwrap_or(false)
    }

    /// Iterate over live wmes, in ascending id order.
    pub fn iter_alive(&self) -> impl Iterator<Item = (WmeId, &Arc<Wme>)> {
        self.live.iter().map(|&id| (id, &self.wmes[id.0 as usize].wme))
    }

    /// Find the first (lowest-id) live wme structurally equal to `w`, by a
    /// scan of the live list. Only tests ask; the Soar layer keeps its own
    /// structural index of live wmes for its `make` dedup.
    pub fn find_alive(&self, w: &Wme) -> Option<WmeId> {
        self.iter_alive().find(|(_, x)| x.as_ref() == w).map(|(id, _)| id)
    }

    /// Number of live wmes.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Total wmes ever added.
    pub fn total_count(&self) -> usize {
        self.wmes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psme_ops::ClassRegistry;

    fn mk(reg: &ClassRegistry, s: &str) -> Wme {
        psme_ops::parse_wme(s, reg).unwrap()
    }

    fn reg() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        r.declare_str("a", &["x", "y"]);
        r
    }

    #[test]
    fn tokens_compare_structurally() {
        let t1 = Token::from_slice(&[WmeId(1), WmeId(2)]);
        let t2 = Token::from_slice(&[WmeId(1), WmeId(2)]);
        let t3 = Token::from_slice(&[WmeId(2), WmeId(1)]);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        assert_eq!(t1.slot(1), WmeId(2));
        assert!(Token::empty().is_empty());
        assert_eq!(Token::unit(WmeId(7)).len(), 1);
    }

    #[test]
    fn store_lifecycle() {
        let r = reg();
        let mut s = WmeStore::new();
        let (id1, tag1) = s.add(mk(&r, "(a ^x 1)"));
        let (id2, tag2) = s.add(mk(&r, "(a ^x 2)"));
        assert!(tag2 > tag1);
        assert_eq!(s.live_count(), 2);
        assert!(s.is_alive(id1));
        assert_eq!(s.value(id2, 0), Value::Int(2));
        let w = s.remove(id1).unwrap();
        assert_eq!(w.field(0), Value::Int(1));
        assert!(!s.is_alive(id1));
        assert_eq!(s.live_count(), 1);
        // dead wmes stay readable
        assert_eq!(s.value(id1, 0), Value::Int(1));
        // double-remove is None
        assert!(s.remove(id1).is_none());
    }

    #[test]
    fn find_alive_matches_structurally() {
        let r = reg();
        let mut s = WmeStore::new();
        let (id, _) = s.add(mk(&r, "(a ^x 1 ^y blue)"));
        assert_eq!(s.find_alive(&mk(&r, "(a ^x 1 ^y blue)")), Some(id));
        assert_eq!(s.find_alive(&mk(&r, "(a ^x 1)")), None);
        s.remove(id);
        assert_eq!(s.find_alive(&mk(&r, "(a ^x 1 ^y blue)")), None);
    }

    #[test]
    fn find_alive_index_survives_removal() {
        // `find_alive` follows the store across add/remove, including
        // duplicates of equal content.
        let r = reg();
        let mut s = WmeStore::new();
        let (id1, _) = s.add(mk(&r, "(a ^x 1 ^y blue)"));
        let (id2, _) = s.add(mk(&r, "(a ^x 1 ^y blue)"));
        let (id3, _) = s.add(mk(&r, "(a ^x 2)"));
        // Duplicates: the lowest live id wins (the old linear scan's answer).
        assert_eq!(s.find_alive(&mk(&r, "(a ^x 1 ^y blue)")), Some(id1));
        s.remove(id1);
        assert_eq!(s.find_alive(&mk(&r, "(a ^x 1 ^y blue)")), Some(id2));
        s.remove(id2);
        assert_eq!(s.find_alive(&mk(&r, "(a ^x 1 ^y blue)")), None);
        assert_eq!(s.find_alive(&mk(&r, "(a ^x 2)")), Some(id3));
        // Re-adding equal content after full removal finds the new id.
        let (id4, _) = s.add(mk(&r, "(a ^x 1 ^y blue)"));
        assert_eq!(s.find_alive(&mk(&r, "(a ^x 1 ^y blue)")), Some(id4));
        // Double-remove must not hide a re-added twin.
        assert!(s.remove(id1).is_none());
        assert_eq!(s.find_alive(&mk(&r, "(a ^x 1 ^y blue)")), Some(id4));
        // Every live wme is findable; every dead one is not.
        for (id, w) in s.iter_alive() {
            assert_eq!(s.find_alive(w), Some(id));
        }
    }

    #[test]
    fn find_alive_agrees_with_linear_scan() {
        // Against the definition: the first live wme of equal content.
        let r = reg();
        let mut s = WmeStore::new();
        let mut all = Vec::new();
        for i in 0..20 {
            let (id, _) = s.add(mk(&r, &format!("(a ^x {} ^y blue)", i % 7)));
            all.push(id);
        }
        for &id in all.iter().step_by(3) {
            s.remove(id);
        }
        for i in 0..8 {
            let probe = mk(&r, &format!("(a ^x {i} ^y blue)"));
            let reference = s.iter_alive().find(|(_, w)| w.as_ref() == &probe).map(|(id, _)| id);
            assert_eq!(s.find_alive(&probe), reference, "probe x={i}");
        }
    }

    #[test]
    fn iter_alive_skips_dead() {
        let r = reg();
        let mut s = WmeStore::new();
        let (id1, _) = s.add(mk(&r, "(a ^x 1)"));
        let (_id2, _) = s.add(mk(&r, "(a ^x 2)"));
        s.remove(id1);
        let alive: Vec<_> = s.iter_alive().map(|(id, _)| id).collect();
        assert_eq!(alive, vec![WmeId(1)]);
    }

    #[test]
    fn iter_alive_is_the_ascending_scan_of_alive_slots() {
        // The live list against the slot-by-slot definition, over an
        // interleaving of adds and removes (middle, first, last, repeated).
        let r = reg();
        let mut s = WmeStore::new();
        let mut rng = crate::testgen::XorShift::new(7);
        for step in 0..300 {
            if rng.below(3) > 0 || s.live_count() == 0 {
                s.add(mk(&r, &format!("(a ^x {step})")));
            } else {
                s.remove(WmeId(rng.below(s.total_count()) as u32));
            }
            let scan: Vec<WmeId> =
                (0..s.total_count() as u32).map(WmeId).filter(|&id| s.is_alive(id)).collect();
            let listed: Vec<WmeId> = s.iter_alive().map(|(id, _)| id).collect();
            assert_eq!(listed, scan, "step {step}");
            assert_eq!(s.live_count(), scan.len());
        }
    }
}
