//! The constant-test (alpha) network.
//!
//! "The top of the network is composed only of [constant test nodes] and
//! forms a network that discriminates wmes based on the constants they
//! contain" (§2.2). An *alpha memory* here is a canonical set of constant
//! tests plus intra-element variable tests; equal test sets are shared
//! between productions. Per the PSM-E design, alpha memories do not store
//! wmes — matching wmes are stored per consuming two-input node in the
//! hashed right memories — so an alpha memory is purely a discrimination
//! point with a successor list.
//!
//! # Hash discrimination (the §5.1 jumptable, generalized)
//!
//! Discrimination is two-level. Level one is the class hash (PSM-E's
//! class-indexing optimization that "reduces constant-test activations by
//! almost half"). Level two is a per-class `(field, value)` **jump table**:
//! every memory with at least one equality constant test is registered
//! under exactly one such test — its *discriminator* — and a wme reaches it
//! only through the hash bucket for `(field, wme.field)`. One probe per
//! indexed field replaces a linear scan over every memory of the class,
//! which is what keeps constant-test cost flat as chunks pile memories onto
//! the network at run time.
//!
//! The remaining tests of each candidate (non-equality predicates, the
//! equality tests beyond the discriminator, and intra-element tests) are
//! *residual* tests. Residuals are interned into a per-class canonical pool
//! so that a test shared by many memories — e.g. the `≠ nil`
//! attribute-present test every variable field compiles to — is evaluated
//! **once per wme**, not once per memory; candidates then read the memoized
//! verdict. Memories with no equality test at all sit on an always-scanned
//! fallthrough list but still share residual evaluations.
//!
//! The index is spliced incrementally by [`AlphaNet::intern`], so run-time
//! chunk addition keeps it consistent without a rebuild, and a rolled-back
//! addition (which leaves its interned memories in place, successor-less)
//! leaves it consistent too — [`AlphaNet::validate_index`] checks the
//! invariants and the differential proptests pin indexed ≡ linear. The old
//! per-class linear scan survives as [`AlphaNet::classify_linear`], the
//! differential oracle and the baseline of the `alpha_discrimination`
//! bench.

use crate::node::{NodeId, Side};
use crate::util::FxHashMap;
use crate::work::Work;
use psme_ops::{Pred, Symbol, Value, Wme};
use std::cell::RefCell;
use std::sync::Arc;

/// Index of an alpha memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AlphaMemId(pub u32);

/// A constant test: `wme.field PRED value`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AlphaTest {
    /// Field index.
    pub field: u16,
    /// Predicate (ordered for canonicalization).
    pub pred: PredOrd,
    /// Constant operand.
    pub value: Value,
}

/// An intra-element variable test: `wme.field_a PRED wme.field_b`
/// (compiled from a variable occurring twice within one CE).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct IntraTest {
    /// Tested field.
    pub field_a: u16,
    /// Predicate.
    pub pred: PredOrd,
    /// Field holding the binding occurrence.
    pub field_b: u16,
}

/// `Pred` wrapper with a total order (for canonical sorting).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PredOrd(pub Pred);

impl PartialOrd for PredOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PredOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0 as u8).cmp(&(other.0 as u8))
    }
}

/// One alpha memory: class + canonical tests + successor edges.
///
/// The test vectors are `Arc`-shared with the intern map's key, so each
/// canonical test set is stored exactly once.
#[derive(Clone, Debug)]
pub struct AlphaMem {
    /// This memory's id.
    pub id: AlphaMemId,
    /// Required wme class.
    pub class: Symbol,
    /// Constant tests (sorted).
    pub tests: Arc<[AlphaTest]>,
    /// Intra-element tests (sorted).
    pub intra: Arc<[IntraTest]>,
    /// Two-input nodes fed by this memory (side is always `Right`).
    pub successors: Vec<(NodeId, Side)>,
}

impl AlphaMem {
    /// Does a wme of the right class pass all tests?
    pub fn passes(&self, w: &Wme) -> bool {
        self.tests.iter().all(|t| t.pred.0.eval(w.field(t.field), t.value))
            && self.intra.iter().all(|t| t.pred.0.eval(w.field(t.field_a), w.field(t.field_b)))
    }

    /// Number of individual tests (for cost accounting).
    pub fn test_count(&self) -> usize {
        self.tests.len() + self.intra.len()
    }
}

type AlphaKey = (Symbol, Arc<[AlphaTest]>, Arc<[IntraTest]>);

/// A residual test — one not consumed by jump-table routing — in the
/// per-class canonical pool.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum ResidualTest {
    Const(AlphaTest),
    Intra(IntraTest),
}

impl ResidualTest {
    #[inline]
    fn eval(self, w: &Wme) -> bool {
        match self {
            ResidualTest::Const(t) => t.pred.0.eval(w.field(t.field), t.value),
            ResidualTest::Intra(t) => t.pred.0.eval(w.field(t.field_a), w.field(t.field_b)),
        }
    }
}

/// How a memory is reached by the indexed classifier.
#[derive(Clone, Debug)]
enum Route {
    /// Via the jump bucket for this equality test.
    Jump { field: u16, value: Value },
    /// On the class's always-scanned fallthrough list.
    Always,
}

/// Per-memory index entry (parallel to `AlphaNet::mems`).
#[derive(Clone, Debug)]
struct MemIndexEntry {
    route: Route,
    /// Ids into the owning class's residual pool.
    residual: Vec<u32>,
}

/// The per-class level-two discrimination structure.
#[derive(Default, Debug)]
struct ClassIndex {
    /// Canonical pool of distinct residual tests.
    pool: Vec<ResidualTest>,
    pool_ids: FxHashMap<ResidualTest, u32>,
    /// Fields with at least one jump bucket, sorted (probe order).
    probe_fields: Vec<u16>,
    /// `(field, value)` → memories discriminated by that equality test.
    jump: FxHashMap<(u16, Value), Vec<AlphaMemId>>,
    /// Memories with no equality constant test.
    always: Vec<AlphaMemId>,
    /// Sum of `test_count` over the class's memories — what the linear scan
    /// would charge per wme (savings accounting).
    linear_tests: u32,
}

impl ClassIndex {
    fn test_id(&mut self, t: ResidualTest) -> u32 {
        if let Some(&id) = self.pool_ids.get(&t) {
            return id;
        }
        let id = self.pool.len() as u32;
        self.pool.push(t);
        self.pool_ids.insert(t, id);
        id
    }
}

/// Reusable per-thread memo for shared residual evaluation: slot `i` caches
/// the verdict of the current class's pool test `i` for the wme being
/// classified. Epoch stamping makes cross-call (and cross-class) reuse free
/// of clearing costs; thread-locality makes concurrent `classify` calls
/// from the match processes safe without touching the shared network.
#[derive(Default)]
struct EvalScratch {
    stamp: Vec<u64>,
    val: Vec<bool>,
    epoch: u64,
}

impl EvalScratch {
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.val.resize(n, false);
        }
        self.epoch += 1;
    }

    /// Memoized evaluation; returns `(freshly_evaluated, verdict)`.
    #[inline]
    fn eval(&mut self, tid: u32, pool: &[ResidualTest], w: &Wme) -> (bool, bool) {
        let i = tid as usize;
        if self.stamp[i] == self.epoch {
            return (false, self.val[i]);
        }
        let v = pool[i].eval(w);
        self.stamp[i] = self.epoch;
        self.val[i] = v;
        (true, v)
    }
}

thread_local! {
    static SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::default());
}

/// The alpha network: all alpha memories, indexed by class and, within each
/// class, by a `(field, value)` jump table over equality constant tests.
#[derive(Debug, Default)]
pub struct AlphaNet {
    mems: Vec<AlphaMem>,
    by_class: FxHashMap<Symbol, Vec<AlphaMemId>>,
    interned: FxHashMap<AlphaKey, AlphaMemId>,
    class_index: FxHashMap<Symbol, ClassIndex>,
    /// Parallel to `mems`.
    entries: Vec<MemIndexEntry>,
    /// Set by [`AlphaNet::reference`]: [`AlphaNet::classify`] takes the
    /// linear scan.
    reference: bool,
}

/// Result of pushing one wme through the discrimination network.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AlphaStats {
    /// The alpha task's work: constant/intra tests evaluated as `scanned`
    /// (jump-table probes count as one hashed test each, like the class
    /// test), `probes`, `candidates` and `tests_saved`.
    pub work: Work,
    /// Alpha memories the wme entered.
    pub mems_matched: u32,
}

impl AlphaNet {
    /// Empty network.
    pub fn new() -> AlphaNet {
        AlphaNet::default()
    }

    /// Empty network that classifies by the linear per-class scan — the
    /// oracle the indexed net is tested and benchmarked against.
    pub fn reference() -> AlphaNet {
        AlphaNet { reference: true, ..AlphaNet::default() }
    }

    /// Empty network of this one's kind (a session overlay classifies the
    /// way its base does).
    pub(crate) fn empty_like(&self) -> AlphaNet {
        AlphaNet { reference: self.reference, ..AlphaNet::default() }
    }

    /// Get-or-create the alpha memory for a canonical test set. Returns the
    /// id and whether it already existed (was shared). A newly created
    /// memory is spliced into the discrimination index immediately, so
    /// run-time additions need no rebuild.
    pub fn intern(
        &mut self,
        class: Symbol,
        mut tests: Vec<AlphaTest>,
        mut intra: Vec<IntraTest>,
    ) -> (AlphaMemId, bool) {
        tests.sort_unstable();
        tests.dedup();
        intra.sort_unstable();
        intra.dedup();
        // The canonical vectors are Arc-shared between the intern map's key
        // and the memory itself: one buffer each, no deep clones.
        let tests: Arc<[AlphaTest]> = tests.into();
        let intra: Arc<[IntraTest]> = intra.into();
        let key = (class, tests.clone(), intra.clone());
        if let Some(&id) = self.interned.get(&key) {
            return (id, true);
        }
        let id = AlphaMemId(self.mems.len() as u32);
        self.mems.push(AlphaMem { id, class, tests, intra, successors: Vec::new() });
        self.by_class.entry(class).or_default().push(id);
        self.interned.insert(key, id);
        self.splice_into_index(id);
        (id, false)
    }

    /// Look up the memory for a canonical test set **without** creating
    /// one. Canonicalizes exactly like [`AlphaNet::intern`], so a session
    /// overlay can probe the frozen base network for a shareable memory
    /// before interning privately.
    pub fn lookup(
        &self,
        class: Symbol,
        tests: &[AlphaTest],
        intra: &[IntraTest],
    ) -> Option<AlphaMemId> {
        let mut tests = tests.to_vec();
        tests.sort_unstable();
        tests.dedup();
        let mut intra = intra.to_vec();
        intra.sort_unstable();
        intra.dedup();
        let key = (class, Arc::from(tests), Arc::from(intra));
        self.interned.get(&key).copied()
    }

    /// Register a new memory in its class's jump table / fallthrough list
    /// and intern its residual tests into the class pool.
    fn splice_into_index(&mut self, id: AlphaMemId) {
        let (class, tests, intra, tcount) = {
            let m = &self.mems[id.0 as usize];
            (m.class, m.tests.clone(), m.intra.clone(), m.test_count() as u32)
        };
        let idx = self.class_index.entry(class).or_default();
        idx.linear_tests = idx.linear_tests.saturating_add(tcount);
        // The discriminator: the first equality constant test in canonical
        // order (deterministic, so indexed and linear classification agree
        // run-to-run).
        let disc = tests.iter().position(|t| t.pred.0 == Pred::Eq);
        let mut residual = Vec::with_capacity(tests.len() + intra.len());
        for (i, t) in tests.iter().enumerate() {
            if Some(i) != disc {
                residual.push(idx.test_id(ResidualTest::Const(*t)));
            }
        }
        for t in intra.iter() {
            residual.push(idx.test_id(ResidualTest::Intra(*t)));
        }
        let route = match disc {
            Some(i) => {
                let t = tests[i];
                idx.jump.entry((t.field, t.value)).or_default().push(id);
                if !idx.probe_fields.contains(&t.field) {
                    idx.probe_fields.push(t.field);
                    idx.probe_fields.sort_unstable();
                }
                Route::Jump { field: t.field, value: t.value }
            }
            None => {
                idx.always.push(id);
                Route::Always
            }
        };
        debug_assert_eq!(self.entries.len(), id.0 as usize);
        self.entries.push(MemIndexEntry { route, residual });
    }

    /// Register a successor two-input node on an alpha memory.
    pub fn add_successor(&mut self, mem: AlphaMemId, node: NodeId) {
        self.mems[mem.0 as usize].successors.push((node, Side::Right));
    }

    /// Access an alpha memory.
    pub fn get(&self, id: AlphaMemId) -> &AlphaMem {
        &self.mems[id.0 as usize]
    }

    /// All memories.
    pub fn mems(&self) -> &[AlphaMem] {
        &self.mems
    }

    /// Network surgery (rolling back a failed build, unplugging retired
    /// nodes): drop every successor edge whose target fails `live`.
    /// Memories stay interned and indexed; one left without successors is
    /// inert, and is reused if the same tests appear again.
    pub(crate) fn retain_successors(&mut self, live: impl Fn(NodeId) -> bool) {
        for m in &mut self.mems {
            m.successors.retain(|&(c, _)| live(c));
        }
    }

    /// Push a wme through the discrimination net, calling `hit` for each
    /// matching alpha memory (in ascending memory-id order, matching the
    /// linear scan). Returns test/match counts for cost models.
    pub fn classify(&self, w: &Wme, hit: impl FnMut(&AlphaMem)) -> AlphaStats {
        if self.reference {
            self.classify_linear(w, hit)
        } else {
            self.classify_indexed(w, hit)
        }
    }

    fn classify_indexed(&self, w: &Wme, mut hit: impl FnMut(&AlphaMem)) -> AlphaStats {
        // The class lookup is the first discrimination: one hashed test.
        let mut stats = AlphaStats::default();
        stats.work.scanned = 1;
        let Some(idx) = self.class_index.get(&w.class) else {
            return stats;
        };
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.begin(idx.pool.len());
            let mut matched: Vec<AlphaMemId> = Vec::new();
            for &id in &idx.always {
                self.consider(idx, w, id, &mut scratch, &mut stats, &mut matched);
            }
            for &f in &idx.probe_fields {
                // One hash probe per indexed field — the jumptable analogue:
                // counted as a single test, like the class lookup.
                stats.work.probes += 1;
                stats.work.scanned += 1;
                if let Some(bucket) = idx.jump.get(&(f, w.field(f))) {
                    for &id in bucket {
                        self.consider(idx, w, id, &mut scratch, &mut stats, &mut matched);
                    }
                }
            }
            // Buckets partition the memories, so `matched` is duplicate-free;
            // sorting restores the linear scan's ascending-id hit order.
            matched.sort_unstable();
            for id in matched {
                stats.mems_matched += 1;
                hit(&self.mems[id.0 as usize]);
            }
        });
        stats.work.tests_saved = (1 + idx.linear_tests).saturating_sub(stats.work.scanned);
        stats
    }

    /// Evaluate one candidate's residual tests through the shared memo.
    #[inline]
    fn consider(
        &self,
        idx: &ClassIndex,
        w: &Wme,
        id: AlphaMemId,
        scratch: &mut EvalScratch,
        stats: &mut AlphaStats,
        matched: &mut Vec<AlphaMemId>,
    ) {
        stats.work.candidates += 1;
        for &tid in &self.entries[id.0 as usize].residual {
            let (fresh, ok) = scratch.eval(tid, &idx.pool, w);
            if fresh {
                stats.work.scanned += 1;
            }
            if !ok {
                return;
            }
        }
        matched.push(id);
    }

    /// The pre-index linear scan: every memory of the class is charged its
    /// full constant-test chain. Kept as the differential oracle for the
    /// indexed classifier and as the `alpha_discrimination` baseline.
    pub fn classify_linear(&self, w: &Wme, mut hit: impl FnMut(&AlphaMem)) -> AlphaStats {
        let mut stats = AlphaStats::default();
        // The class test itself is the first discrimination (hash lookup,
        // counted as one test — PSM-E's class-indexing optimization that
        // "reduces constant-test activations by almost half").
        stats.work.scanned += 1;
        if let Some(ids) = self.by_class.get(&w.class) {
            for &id in ids {
                let m = &self.mems[id.0 as usize];
                stats.work.candidates += 1;
                stats.work.scanned += m.test_count() as u32;
                if m.passes(w) {
                    stats.mems_matched += 1;
                    hit(m);
                }
            }
        }
        stats
    }

    /// Number of alpha memories.
    pub fn len(&self) -> usize {
        self.mems.len()
    }

    /// `true` when no memory exists.
    pub fn is_empty(&self) -> bool {
        self.mems.is_empty()
    }

    /// Check every index invariant; returns a description of the first
    /// violation. Used by the differential proptests and by debug builds
    /// after network surgery (including rollback of failed additions).
    pub fn validate_index(&self) -> Result<(), String> {
        if self.entries.len() != self.mems.len() {
            return Err(format!(
                "index entries {} != memories {}",
                self.entries.len(),
                self.mems.len()
            ));
        }
        let mut per_class_tests: FxHashMap<Symbol, u32> = FxHashMap::default();
        for (m, e) in self.mems.iter().zip(&self.entries) {
            let idx = self
                .class_index
                .get(&m.class)
                .ok_or_else(|| format!("mem {} has no class index", m.id.0))?;
            *per_class_tests.entry(m.class).or_insert(0) += m.test_count() as u32;
            // Route points at a real discriminator and exactly one listing.
            match e.route {
                Route::Jump { field, value } => {
                    let has = m
                        .tests
                        .iter()
                        .any(|t| t.pred.0 == Pred::Eq && t.field == field && t.value == value);
                    if !has {
                        return Err(format!("mem {} routed by a test it lacks", m.id.0));
                    }
                    let bucket = idx
                        .jump
                        .get(&(field, value))
                        .ok_or_else(|| format!("mem {} bucket missing", m.id.0))?;
                    if bucket.iter().filter(|&&i| i == m.id).count() != 1 {
                        return Err(format!("mem {} not listed once in its bucket", m.id.0));
                    }
                    if !idx.probe_fields.contains(&field) {
                        return Err(format!("mem {} field {} not probed", m.id.0, field));
                    }
                    if idx.always.contains(&m.id) {
                        return Err(format!("mem {} both jump-routed and always", m.id.0));
                    }
                }
                Route::Always => {
                    if m.tests.iter().any(|t| t.pred.0 == Pred::Eq) {
                        return Err(format!("mem {} has an unused equality test", m.id.0));
                    }
                    if idx.always.iter().filter(|&&i| i == m.id).count() != 1 {
                        return Err(format!("mem {} not listed once in always", m.id.0));
                    }
                }
            }
            // Residuals are valid pool ids covering tests ∖ discriminator.
            let expect =
                m.test_count() - matches!(e.route, Route::Jump { .. }) as usize;
            if e.residual.len() != expect {
                return Err(format!("mem {} residual count {}", m.id.0, e.residual.len()));
            }
            for &tid in &e.residual {
                if tid as usize >= idx.pool.len() {
                    return Err(format!("mem {} residual id {} out of pool", m.id.0, tid));
                }
            }
        }
        for (class, idx) in &self.class_index {
            let expect = per_class_tests.get(class).copied().unwrap_or(0);
            if idx.linear_tests != expect {
                return Err(format!(
                    "class {class} linear_tests {} != {expect}",
                    idx.linear_tests
                ));
            }
            if idx.pool.len() != idx.pool_ids.len() {
                return Err(format!("class {class} pool/pool_ids diverge"));
            }
        }
        Ok(())
    }

    /// Count of distinct constant-test nodes under maximal sharing (each
    /// distinct `(class, field, pred, value)` is one shared node) — used by
    /// the code-size model.
    pub fn distinct_const_tests(&self) -> usize {
        let mut set = std::collections::HashSet::new();
        for m in &self.mems {
            for t in m.tests.iter() {
                set.insert((m.class, *t));
            }
            for t in m.intra.iter() {
                set.insert((m.class, AlphaTest { field: t.field_a, pred: t.pred, value: Value::Int(t.field_b as i64) }));
            }
        }
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psme_ops::{intern, ClassRegistry};

    fn w(reg: &ClassRegistry, s: &str) -> Wme {
        psme_ops::parse_wme(s, reg).unwrap()
    }

    fn reg() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        r.declare_str("block", &["name", "color", "on"]);
        r.declare_str("hand", &["state"]);
        r
    }

    fn t(field: u16, pred: Pred, value: Value) -> AlphaTest {
        AlphaTest { field, pred: PredOrd(pred), value }
    }

    /// Both classifiers over the same wme, with full agreement checks.
    fn both(a: &AlphaNet, w: &Wme) -> (Vec<AlphaMemId>, AlphaStats, AlphaStats) {
        let mut ih = Vec::new();
        let is = a.classify_indexed(w, |m| ih.push(m.id));
        let mut lh = Vec::new();
        let ls = a.classify_linear(w, |m| lh.push(m.id));
        assert_eq!(ih, lh, "hit sets and order must agree");
        assert_eq!(is.mems_matched, ls.mems_matched);
        assert!(is.work.scanned <= ls.work.scanned, "indexed may never test more");
        assert_eq!(is.work.tests_saved, ls.work.scanned - is.work.scanned);
        a.validate_index().unwrap();
        (ih, is, ls)
    }

    #[test]
    fn intern_shares_equal_test_sets() {
        let mut a = AlphaNet::new();
        let (id1, shared1) = a.intern(
            intern("block"),
            vec![t(1, Pred::Eq, Value::sym("blue")), t(0, Pred::Eq, Value::sym("b1"))],
            vec![],
        );
        // Same tests in different order intern to the same memory.
        let (id2, shared2) = a.intern(
            intern("block"),
            vec![t(0, Pred::Eq, Value::sym("b1")), t(1, Pred::Eq, Value::sym("blue"))],
            vec![],
        );
        assert!(!shared1);
        assert!(shared2);
        assert_eq!(id1, id2);
        assert_eq!(a.len(), 1);
        a.validate_index().unwrap();
    }

    #[test]
    fn classify_filters_by_class_and_tests() {
        let r = reg();
        let mut a = AlphaNet::new();
        let (blue, _) = a.intern(intern("block"), vec![t(1, Pred::Eq, Value::sym("blue"))], vec![]);
        let (anyblock, _) = a.intern(intern("block"), vec![], vec![]);
        let (_hand, _) = a.intern(intern("hand"), vec![], vec![]);

        let mut hits = Vec::new();
        let stats = a.classify(&w(&r, "(block ^name b1 ^color blue)"), |m| hits.push(m.id));
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&blue) && hits.contains(&anyblock));
        assert!(stats.work.scanned >= 2);

        hits.clear();
        a.classify(&w(&r, "(block ^name b2 ^color red)"), |m| hits.push(m.id));
        assert_eq!(hits, vec![anyblock]);

        hits.clear();
        a.classify(&w(&r, "(hand ^state free)"), |m| hits.push(m.id));
        assert_eq!(hits.len(), 1);

        both(&a, &w(&r, "(block ^name b1 ^color blue)"));
        both(&a, &w(&r, "(block ^name b2 ^color red)"));
        both(&a, &w(&r, "(hand ^state free)"));
    }

    #[test]
    fn intra_tests_compare_fields() {
        let r = reg();
        let mut a = AlphaNet::new();
        // (block ^name <x> ^on <x>) — name field equals on field
        let (id, _) = a.intern(
            intern("block"),
            vec![],
            vec![IntraTest { field_a: 2, pred: PredOrd(Pred::Eq), field_b: 0 }],
        );
        let mut hits = Vec::new();
        a.classify(&w(&r, "(block ^name b1 ^on b1)"), |m| hits.push(m.id));
        assert_eq!(hits, vec![id]);
        hits.clear();
        a.classify(&w(&r, "(block ^name b1 ^on b2)"), |m| hits.push(m.id));
        assert!(hits.is_empty());
        both(&a, &w(&r, "(block ^name b1 ^on b1)"));
    }

    #[test]
    fn relational_const_tests() {
        let mut r = ClassRegistry::new();
        r.declare_str("count", &["n"]);
        let mut a = AlphaNet::new();
        let (id, _) = a.intern(intern("count"), vec![t(0, Pred::Gt, Value::Int(5))], vec![]);
        let mut hits = Vec::new();
        a.classify(&w(&r, "(count ^n 9)"), |m| hits.push(m.id));
        assert_eq!(hits, vec![id]);
        hits.clear();
        a.classify(&w(&r, "(count ^n 5)"), |m| hits.push(m.id));
        assert!(hits.is_empty());
        both(&a, &w(&r, "(count ^n 9)"));
    }

    #[test]
    fn successors_accumulate() {
        let mut a = AlphaNet::new();
        let (id, _) = a.intern(intern("block"), vec![], vec![]);
        a.add_successor(id, 3);
        a.add_successor(id, 7);
        assert_eq!(a.get(id).successors, vec![(3, Side::Right), (7, Side::Right)]);
    }

    #[test]
    fn jump_routing_skips_unrelated_memories() {
        let r = reg();
        let mut a = AlphaNet::new();
        // Many memories discriminated on the same field, distinct values:
        // one probe replaces the whole scan.
        for i in 0..20 {
            a.intern(intern("block"), vec![t(0, Pred::Eq, Value::sym(&format!("b{i}")))], vec![]);
        }
        let (_, is, ls) = both(&a, &w(&r, "(block ^name b7)"));
        assert_eq!(is.work.probes, 1);
        assert_eq!(is.work.candidates, 1, "only the b7 memory is consulted");
        assert_eq!(is.work.scanned, 2, "class + one probe");
        assert_eq!(ls.work.scanned, 21, "linear pays every memory's chain");
        assert_eq!(is.work.tests_saved, 19);
    }

    #[test]
    fn shared_residual_tests_run_once_per_wme() {
        let r = reg();
        let mut a = AlphaNet::new();
        // Three memories sharing the ≠nil attribute-present test on `on`,
        // with no equality discriminator: the shared residual is evaluated
        // once, not three times.
        for pred in [Pred::Gt, Pred::Lt, Pred::Ge] {
            a.intern(
                intern("block"),
                vec![t(2, Pred::Ne, Value::Nil), t(1, pred, Value::Int(3))],
                vec![],
            );
        }
        let (_, is, ls) = both(&a, &w(&r, "(block ^color 5 ^on x)"));
        assert_eq!(ls.work.scanned, 7, "1 class + 3×2 chain tests");
        // Indexed: class + ≠nil once + three distinct predicate tests.
        assert_eq!(is.work.scanned, 5);
        assert_eq!(is.work.candidates, 3);
    }

    #[test]
    fn runtime_splice_keeps_index_consistent() {
        let r = reg();
        let mut a = AlphaNet::new();
        a.intern(intern("block"), vec![t(1, Pred::Eq, Value::sym("blue"))], vec![]);
        let wme = w(&r, "(block ^name b1 ^color blue ^on b1)");
        let (h1, _, _) = both(&a, &wme);
        assert_eq!(h1.len(), 1);
        // Splice more memories at "run time" — same bucket, a new bucket on
        // another field, a fallthrough, and an intra memory.
        a.intern(intern("block"), vec![t(1, Pred::Eq, Value::sym("blue")), t(0, Pred::Eq, Value::sym("b1"))], vec![]);
        a.intern(intern("block"), vec![t(0, Pred::Eq, Value::sym("b1"))], vec![]);
        a.intern(intern("block"), vec![t(2, Pred::Ne, Value::Nil)], vec![]);
        a.intern(
            intern("block"),
            vec![],
            vec![IntraTest { field_a: 2, pred: PredOrd(Pred::Eq), field_b: 0 }],
        );
        let (h2, is, _) = both(&a, &wme);
        assert_eq!(h2.len(), 5, "all five memories match");
        assert_eq!(is.work.probes, 2, "fields 0 and 1 are probed");
    }

    #[test]
    fn hit_order_is_ascending_memory_id() {
        let r = reg();
        let mut a = AlphaNet::new();
        // Interleave routes so bucket order ≠ id order without the sort.
        let (m0, _) = a.intern(intern("block"), vec![t(2, Pred::Ne, Value::Nil)], vec![]);
        let (m1, _) = a.intern(intern("block"), vec![t(0, Pred::Eq, Value::sym("b1"))], vec![]);
        let (m2, _) = a.intern(intern("block"), vec![], vec![]);
        let (m3, _) = a.intern(intern("block"), vec![t(1, Pred::Eq, Value::sym("blue"))], vec![]);
        let (hits, _, _) = both(&a, &w(&r, "(block ^name b1 ^color blue ^on b2)"));
        assert_eq!(hits, vec![m0, m1, m2, m3]);
    }

    #[test]
    fn linear_fallback_switch() {
        let r = reg();
        let mut a = AlphaNet::reference();
        a.intern(intern("block"), vec![t(1, Pred::Eq, Value::sym("blue"))], vec![]);
        let stats = a.classify(&w(&r, "(block ^color blue)"), |_| {});
        assert_eq!(stats.work.probes, 0);
        assert_eq!(stats.work.tests_saved, 0);
        assert_eq!(stats.work.scanned, 2);
    }

    #[test]
    fn unknown_class_costs_one_test() {
        let mut r = ClassRegistry::new();
        r.declare_str("ghost", &["x"]);
        let a = AlphaNet::new();
        let stats = a.classify(&w(&r, "(ghost ^x 1)"), |_| unreachable!());
        assert_eq!(stats.work, Work { scanned: 1, ..Work::default() });
        assert_eq!(stats.mems_matched, 0);
    }
}
