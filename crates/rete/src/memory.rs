//! The hashed token memories.
//!
//! Reproduces the PSM-E memory organization (§6.1): "One hash table is used
//! for all the left memory nodes in the network and the other is used for
//! all the right memory nodes. The hash function … takes into account
//! (1) the variable bindings tested for equality at the two-input node, and
//! (2) the unique node-ID of the destination two-input node. … A single
//! lock controls the access to a line, i.e., a pair of corresponding buckets
//! from left and right hash tables."
//!
//! Holding the line lock while inserting one's own token *and* scanning the
//! opposite bucket makes simultaneous left/right arrivals at a node
//! linearizable — no joined pair is missed or double-counted.
//!
//! Entries carry signed *weights* (counting Rete): a delete that overtakes
//! its add simply leaves a −1 entry that the add later annihilates. Between
//! quiescent points every weight is 0 or 1; the transient negatives only
//! exist while a cycle's tasks are in flight. Left entries additionally
//! carry `m`, the number (summed weight) of matching right tokens — the
//! not-node counter of §2.2.
//!
//! ## One entry, one bucket, one probe
//!
//! This module is the only one that knows what a memory entry is and how a
//! bucket is searched. Both memories store the same [`Entry`] (the left
//! ones with the not-counter, the right ones with `()` in its place), a
//! line is a [`Bucket`] of each, and everything an activation does to a
//! line is one of three calls: [`Bucket::upsert`] (insert own token),
//! [`Bucket::probe`] (scan the opposite bucket — the only loop in the crate
//! that looks for key matches) and, at a fresh not-node entry,
//! [`Bucket::set_m`]. `process.rs` says *which* calls an activation makes;
//! how they find their entries is decided here:
//!
//! * **Hash-first probes.** Every entry stores the 64-bit hash of its key,
//!   computed once when the activation arrives. A probe compares hashes
//!   before any structural [`Key`] compare; mismatches are counted as
//!   `hash_rejects` and cost one word compare.
//! * **Per-node grouping.** Each bucket keeps its entries *grouped by
//!   destination node* (ascending node id, insertion order within a node).
//!   A probe binary-searches for its node's run and examines only real
//!   candidates; co-hashed entries of other nodes are never touched.
//! * **Reference table by constructor.** The pre-overhaul search — walk the
//!   whole line, skip foreign entries one by one (`skipped`), compare keys
//!   structurally — survives as the differential oracle (the
//!   `classify_linear` precedent). It is chosen when the table is built
//!   ([`MemoryTable::reference`]), is one branch inside `upsert` and
//!   `probe`, and no code outside this module can tell, or switch, which
//!   kind of table it holds.
//! * **Inline keys.** [`Key`] stores up to [`KEY_INLINE`] elements inline
//!   and only spills longer keys to the heap, so `make_key` on the
//!   activation hot path allocates nothing for typical join keys.
//! * **Padded lines.** Each line is `#[repr(align(64))]` so neighbouring
//!   spinlocks never share a cache line (no false sharing between workers
//!   probing adjacent lines).
//! * **Incremental housekeeping.** The first write to a line in a cycle
//!   appends it to a first-touch list; [`MemoryTable::end_cycle`] compacts
//!   and counter-resets the listed lines and looks at no other.
//! * **Node stripes.** A node's entries are confined to a *stripe* of
//!   [`STRIPE`] consecutive lines starting at `hash(node)`; the key hash
//!   picks the offset within it (still "bindings + node-ID"). Enumerating
//!   or purging a node visits its stripe, not the table.
//! * **P nodes hash on the token.** A P node's memory is never probed by
//!   key — it is only upserted and enumerated — so its entries carry the
//!   hash of the whole token instead of the (empty) key's. A production's
//!   instantiations then spread over the stripe instead of piling into one
//!   line, and the hash-first reject makes their upsert O(1) expected.

use crate::node::{NodeId, Side};
use crate::process::ActStats;
use crate::sync::{SpinGuard, SpinLock};
use crate::token::Token;
use crate::util::fxhash;
use psme_ops::{Value, WmeId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Width of a node's stripe, in lines (the whole table when it is smaller).
pub const STRIPE: usize = 64;

/// One element of a memory key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum KeyElem {
    /// A field value (from an equality variable test).
    V(Value),
    /// A wme id (from an identity constraint).
    W(WmeId),
}

/// Keys up to this many elements are stored inline (no heap allocation on
/// the activation hot path); longer keys spill to a boxed slice.
pub const KEY_INLINE: usize = 4;

const KEY_FILL: KeyElem = KeyElem::W(WmeId(0));

#[derive(Clone, Debug)]
enum KeyRepr {
    /// `len` live elements of `elems`; the rest is padding, never read.
    Inline { len: u8, elems: [KeyElem; KEY_INLINE] },
    /// Spilled storage for keys longer than [`KEY_INLINE`].
    Spill(Box<[KeyElem]>),
}

/// A computed memory key: the equality bindings of a token at a node.
///
/// Equality, hashing and ordering are all over [`Key::elems`]; whether the
/// elements live inline or spilled is invisible.
#[derive(Clone, Debug)]
pub struct Key(KeyRepr);

impl Key {
    /// The empty key (P nodes, nodes with no equality bindings).
    pub fn empty() -> Key {
        Key(KeyRepr::Inline { len: 0, elems: [KEY_FILL; KEY_INLINE] })
    }

    /// Build from an iterator whose exact length is known up front —
    /// inline (allocation-free) when `len <= KEY_INLINE`.
    pub fn build(len: usize, it: impl Iterator<Item = KeyElem>) -> Key {
        if len <= KEY_INLINE {
            let mut elems = [KEY_FILL; KEY_INLINE];
            let mut n = 0usize;
            for e in it {
                elems[n] = e;
                n += 1;
            }
            debug_assert_eq!(n, len, "iterator length mismatch");
            Key(KeyRepr::Inline { len: n as u8, elems })
        } else {
            Key(KeyRepr::Spill(it.collect()))
        }
    }

    /// The key elements.
    #[inline]
    pub fn elems(&self) -> &[KeyElem] {
        match &self.0 {
            KeyRepr::Inline { len, elems } => &elems[..*len as usize],
            KeyRepr::Spill(b) => b,
        }
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Key) -> bool {
        self.elems() == other.elems()
    }
}

impl Eq for Key {}

impl std::hash::Hash for Key {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.elems().hash(state);
    }
}

/// The 64-bit hash of a key — computed once per activation, stored in every
/// entry, and compared before any structural [`Key`] compare.
#[inline]
pub fn key_hash(key: &Key) -> u64 {
    fxhash(key)
}

/// The 64-bit hash of a whole token — what a P node's entries carry in
/// place of a key hash (their key is empty and never probed).
#[inline]
pub fn token_hash(token: &Token) -> u64 {
    fxhash(token)
}

/// One stored token of one node's memory. `M` is what the side keeps beside
/// it: the left memories' not-node counter (`i32`), nothing (`()`) on the
/// right — so a right entry is a word shorter.
#[derive(Clone, Debug)]
pub struct Entry<M> {
    /// Destination node.
    pub node: NodeId,
    /// Hash of `key` — of `token` at a P node (hash-first rejection, and
    /// the offset of the entry's line within the node's stripe).
    pub hash: u64,
    /// Equality-binding key.
    pub key: Key,
    /// The stored token (a unit token for alpha-sourced right inputs).
    pub token: Token,
    /// Signed multiplicity (1 at quiescence).
    pub weight: i32,
    /// Left: summed weight of matching right tokens (§2.2's not-counter).
    pub m: M,
}

/// What [`Bucket::upsert`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Upsert<M> {
    /// The entry's `m` before the call (the default for a fresh entry).
    pub m: M,
    /// Position of the entry the call created; `None` when the token was
    /// already stored. Valid until the bucket is next written.
    pub fresh: Option<usize>,
}

/// One side of a memory line: the entries hashed to it, kept *grouped by
/// destination node* (ascending node id, insertion order within a node).
/// Removals are order-preserving and the vector is private, so grouping is
/// an invariant: a node's entries are one run, found by binary search.
///
/// A bucket of a [`MemoryTable::reference`] table never looks at a stored
/// hash, and its `probe` walks the whole line instead of the node's run —
/// the scan with structural compares that the differential suites use as
/// the oracle.
#[derive(Debug, Default)]
pub struct Bucket<M> {
    entries: Vec<Entry<M>>,
    /// Token accesses this cycle (Figure 6-2 instrumentation).
    accesses: u64,
    reference: bool,
}

impl<M: Copy + Default> Bucket<M> {
    /// The stored entries, grouped by node.
    pub fn entries(&self) -> &[Entry<M>] {
        &self.entries
    }

    /// `node`'s contiguous run of entries: `(start, end)`.
    #[inline]
    pub fn run(&self, node: NodeId) -> (usize, usize) {
        let start = self.entries.partition_point(|e| e.node < node);
        let len = self.entries[start..].partition_point(|e| e.node == node);
        (start, start + len)
    }

    /// One access: add `delta` to the weight of the entry for
    /// `(node, token)`, creating it (at its node run's end) or removing it
    /// at weight zero. Candidates are rejected on hash inequality before
    /// the structural token compare — sound because a node's key is a
    /// function of the token, so equal `(node, token)` implies equal hash.
    pub fn upsert(
        &mut self,
        node: NodeId,
        key: &Key,
        hash: u64,
        token: &Token,
        delta: i32,
    ) -> Upsert<M> {
        self.accesses += 1;
        let (s, e) = self.run(node);
        for i in s..e {
            let en = &mut self.entries[i];
            if (self.reference || en.hash == hash) && en.token == *token {
                let m = en.m;
                en.weight += delta;
                if en.weight == 0 {
                    self.entries.remove(i);
                }
                return Upsert { m, fresh: None };
            }
        }
        let m = M::default();
        self.entries.insert(
            e,
            Entry { node, hash, key: key.clone(), token: token.clone(), weight: delta, m },
        );
        Upsert { m, fresh: Some(e) }
    }

    /// Set the not-counter of the entry [`Self::upsert`] just created.
    pub fn set_m(&mut self, at: usize, m: M) {
        self.entries[at].m = m;
    }

    /// The bucket scan: call `hit` with the token, the weight and the `m`
    /// of every entry of `node` whose key is `key` (`hash` is its hash) —
    /// with `live_only`, of those of nonzero weight. `m` is all a caller can
    /// change. Every same-node entry examined counts as `scanned`, every
    /// one turned away by the one-word hash compare as a `hash_rejects`.
    /// A reference bucket walks the whole line instead of the node's run,
    /// counts the foreign entries it passes as `skipped`, and compares keys
    /// structurally; `scanned` is the same either way.
    #[inline]
    pub fn probe(
        &mut self,
        node: NodeId,
        key: &Key,
        hash: u64,
        live_only: bool,
        stats: &mut ActStats,
        mut hit: impl FnMut(&Token, i32, &mut M),
    ) {
        let reference = self.reference;
        let (s, e) = if reference { (0, self.entries.len()) } else { self.run(node) };
        for en in &mut self.entries[s..e] {
            if en.node != node {
                stats.skipped += 1;
                continue;
            }
            stats.scanned += 1;
            if live_only && en.weight == 0 {
                continue;
            }
            if !reference && en.hash != hash {
                stats.hash_rejects += 1;
                continue;
            }
            if en.key == *key {
                hit(&en.token, en.weight, &mut en.m);
            }
        }
    }

    /// Append `node`'s tokens of positive weight, with their weights.
    fn live_tokens(&self, node: NodeId, out: &mut Vec<(Token, i32)>) {
        let (s, e) = self.run(node);
        let live = self.entries[s..e].iter().filter(|en| en.weight > 0);
        out.extend(live.map(|en| (en.token.clone(), en.weight)));
    }

    /// Drop `node`'s whole run (which keeps the grouping).
    fn purge(&mut self, node: NodeId) {
        let (s, e) = self.run(node);
        self.entries.drain(s..e);
    }

    fn compact(&mut self) {
        self.entries.retain(|e| e.weight != 0);
    }

    fn grouped(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].node <= w[1].node)
    }
}

/// The pair of corresponding left/right buckets guarded by one lock.
#[derive(Default, Debug)]
pub struct LineData {
    /// Left-memory entries hashed to this line.
    pub left: Bucket<i32>,
    /// Right-memory entries hashed to this line.
    pub right: Bucket<()>,
}

/// One memory line: the spin-locked bucket pair plus its dirty flag,
/// padded to a cache line so adjacent locks never false-share.
#[repr(align(64))]
struct Line {
    lock: SpinLock<LineData>,
    /// Already on the first-touch list this cycle? Read and written only
    /// under `lock` (by [`MemoryTable::touch`]) or at quiescence, so relaxed
    /// ordering suffices: the line lock and the cycle barrier provide the
    /// happens-before edges.
    dirty: AtomicBool,
}

impl Line {
    fn new(reference: bool) -> Line {
        let data = LineData {
            left: Bucket { reference, ..Bucket::default() },
            right: Bucket { reference, ..Bucket::default() },
        };
        Line { lock: SpinLock::new(data), dirty: AtomicBool::new(false) }
    }
}

/// The global memory table: `2^k` lines, each a [`SpinLock`]`<`[`LineData`]`>`.
pub struct MemoryTable {
    lines: Box<[Line]>,
    mask: u64,
    /// Stripe width − 1 (`min(STRIPE, lines)` is a power of two).
    stripe_mask: u64,
    /// Lines written since the last [`Self::end_cycle`], in first-touch
    /// order, each exactly once (its `dirty` flag guards the append).
    touched: SpinLock<Vec<u32>>,
    /// Total lines compacted by [`Self::end_cycle`] over the table's life.
    compacted_total: AtomicU64,
}

impl MemoryTable {
    /// Create with `lines` lines (rounded up to a power of two, min 1).
    pub fn new(lines: usize) -> MemoryTable {
        MemoryTable::build(lines, false)
    }

    /// The same table searched the pre-overhaul way — every probe walks its
    /// whole line and compares keys and tokens structurally, never a stored
    /// hash. Same matches, same `scanned`; the differential oracle of
    /// `proptest_memory` and the cost baseline of the `memory_probe` bench.
    pub fn reference(lines: usize) -> MemoryTable {
        MemoryTable::build(lines, true)
    }

    fn build(lines: usize, reference: bool) -> MemoryTable {
        let n = lines.next_power_of_two().max(1);
        MemoryTable {
            lines: (0..n).map(|_| Line::new(reference)).collect(),
            mask: (n - 1) as u64,
            stripe_mask: (n.min(STRIPE) - 1) as u64,
            touched: SpinLock::new(Vec::new()),
            compacted_total: AtomicU64::new(0),
        }
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Line `off` of `node`'s stripe, which starts at `hash(node)` and wraps.
    #[inline]
    fn stripe_line(&self, node: NodeId, off: u64) -> u32 {
        (fxhash(&node).wrapping_add(off) & self.mask) as u32
    }

    /// The lines of `node`'s stripe.
    fn stripe(&self, node: NodeId) -> impl Iterator<Item = &Line> {
        (0..=self.stripe_mask).map(move |off| &self.lines[self.stripe_line(node, off) as usize])
    }

    /// The line index for a node and a precomputed entry hash: the node
    /// picks the stripe, the hash the offset within it. The offset comes
    /// from the hash's *high* bits — Fx ends in a multiply, whose low output
    /// bits depend only on the low input bits.
    #[inline]
    pub fn line_of_hash(&self, node: NodeId, hash: u64) -> u32 {
        self.stripe_line(node, (hash >> (64 - STRIPE.trailing_zeros())) & self.stripe_mask)
    }

    /// Lock a line; returns the guard and the spin count.
    #[inline]
    pub fn lock(&self, line: u32) -> (SpinGuard<'_, LineData>, u64) {
        self.lines[line as usize].lock.lock()
    }

    /// Mark a line written this cycle, appending it to the first-touch
    /// list unless it is already there. The caller holds the line's lock
    /// (activation processing calls this right after acquiring it), so the
    /// flag's check-then-set cannot race; [`Self::end_cycle`] clears it.
    #[inline]
    pub fn touch(&self, line: u32) {
        let dirty = &self.lines[line as usize].dirty;
        if !dirty.load(Ordering::Relaxed) {
            dirty.store(true, Ordering::Relaxed);
            self.touched.lock().0.push(line);
        }
    }

    /// Quiescent housekeeping: for every line written since the last call,
    /// drop zero-weight entries, reset the access counters and clear the
    /// dirty flag. Walks the first-touch list, never the table. Returns the
    /// number of lines compacted.
    pub fn end_cycle(&self) -> u64 {
        // Taken out, not held: `touch` takes the list's lock inside a
        // line's, so holding it across the line locks would invert that.
        let mut touched = std::mem::take(&mut *self.touched.lock().0);
        for &line in touched.iter() {
            let l = &self.lines[line as usize];
            let (mut g, _) = l.lock.lock();
            g.left.compact();
            g.right.compact();
            g.left.accesses = 0;
            g.right.accesses = 0;
            l.dirty.store(false, Ordering::Relaxed);
        }
        let n = touched.len() as u64;
        touched.clear();
        *self.touched.lock().0 = touched; // keeps its capacity
        self.compacted_total.fetch_add(n, Ordering::Relaxed);
        n
    }

    /// Total lines compacted by [`Self::end_cycle`] so far.
    pub fn lines_compacted_total(&self) -> u64 {
        self.compacted_total.load(Ordering::Relaxed)
    }

    /// Harvest `(left_accesses, right_accesses)` per line.
    pub fn access_counts(&self) -> Vec<(u64, u64)> {
        self.lines
            .iter()
            .map(|l| {
                let (g, _) = l.lock.lock();
                (g.left.accesses, g.right.accesses)
            })
            .collect()
    }

    /// The tokens `node` stores on `side` with positive weight, as
    /// `(token, weight)` pairs — no per-unit-of-weight cloning (used by the
    /// state-update seeder, snapshots and tests). Locks the node's stripe
    /// one line at a time; callers run at quiescence, where every weight
    /// is 1.
    pub fn tokens_of(&self, node: NodeId, side: Side) -> Vec<(Token, i32)> {
        let mut out = Vec::new();
        for l in self.stripe(node) {
            let (g, _) = l.lock.lock();
            match side {
                Side::Left => g.left.live_tokens(node, &mut out),
                Side::Right => g.right.live_tokens(node, &mut out),
            }
        }
        out
    }

    /// One bucket's share of [`Self::assert_quiescent`].
    fn check_bucket<M: Copy + Default>(
        &self,
        i: usize,
        side: &str,
        b: &Bucket<M>,
        hashes_token: &impl Fn(NodeId) -> bool,
    ) {
        assert!(b.grouped(), "line {i}: {side} entries not grouped by node");
        for e in &b.entries {
            assert!(
                e.weight == 0 || e.weight == 1,
                "line {i}: {side} entry weight {} for node {} {:?}",
                e.weight,
                e.node,
                e.token
            );
            let (what, want) = match hashes_token(e.node) {
                true => ("token", token_hash(&e.token)),
                false => ("key", key_hash(&e.key)),
            };
            assert_eq!(e.hash, want, "line {i}: stale {what} hash, {side} entry of node {}", e.node);
            let home = self.line_of_hash(e.node, e.hash) as usize;
            assert_eq!(home, i, "{side} entry of node {} misplaced", e.node);
        }
    }

    /// Assert the quiescence invariant: every weight is 0 or 1, every
    /// not-counter is non-negative, every line is grouped by node, every
    /// stored hash is its key's — its token's at the nodes `hashes_token`
    /// names, the P nodes — every entry sits on the line its node and hash
    /// select, and the first-touch list is exactly the set of dirty lines.
    /// Panics otherwise (used by tests and debug assertions at cycle
    /// boundaries).
    pub fn assert_quiescent(&self, hashes_token: impl Fn(NodeId) -> bool) {
        let mut dirty = Vec::new();
        for (i, l) in self.lines.iter().enumerate() {
            if l.dirty.load(Ordering::Relaxed) {
                dirty.push(i as u32);
            }
            let (g, _) = l.lock.lock();
            self.check_bucket(i, "left", &g.left, &hashes_token);
            self.check_bucket(i, "right", &g.right, &hashes_token);
            for e in &g.left.entries {
                assert!(e.m >= 0, "line {i}: negative not-counter {} node {}", e.m, e.node);
            }
        }
        let mut touched = self.touched.lock().0.clone();
        touched.sort_unstable();
        assert_eq!(touched, dirty, "first-touch list differs from the dirty lines");
    }

    /// Drop every entry destined for one of `nodes` — the memory half of
    /// retiring a reorganized production's old chain. Removing a node's
    /// whole run keeps the grouping invariant; callers run at a quiescent
    /// point, so no activation can race the purge.
    pub fn purge_nodes(&self, nodes: &[NodeId]) {
        for &node in nodes {
            for l in self.stripe(node) {
                let (mut g, _) = l.lock.lock();
                g.left.purge(node);
                g.right.purge(node);
            }
        }
    }

    /// Drop zero-weight entries on every line (full-sweep housekeeping;
    /// tests use it, engines use the incremental [`Self::end_cycle`]).
    pub fn compact(&self) {
        for l in self.lines.iter() {
            let (mut g, _) = l.lock.lock();
            g.left.compact();
            g.right.compact();
        }
    }
}

impl std::fmt::Debug for MemoryTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemoryTable({} lines)", self.lines.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[i64]) -> Key {
        Key::build(vals.len(), vals.iter().map(|&v| KeyElem::V(Value::Int(v))))
    }

    /// A raw entry, to be pushed past `upsert` (tests build broken lines).
    fn entry<M: Default>(node: NodeId, k: Key, token: Token, weight: i32) -> Entry<M> {
        Entry { node, hash: key_hash(&k), key: k, token, weight, m: M::default() }
    }

    fn line_of(m: &MemoryTable, node: NodeId, k: &Key) -> u32 {
        m.line_of_hash(node, key_hash(k))
    }

    #[test]
    fn entry_sizes_are_pinned() {
        // What `peak_heap_mb` is made of: the not-counter rides in the left
        // entry only.
        assert_eq!(std::mem::size_of::<Entry<i32>>(), 112, "left entry");
        assert_eq!(std::mem::size_of::<Entry<()>>(), 104, "right entry");
    }

    #[test]
    fn sizes_round_to_power_of_two() {
        assert_eq!(MemoryTable::new(1000).num_lines(), 1024);
        assert_eq!(MemoryTable::new(1).num_lines(), 1);
        assert_eq!(MemoryTable::new(0).num_lines(), 1);
    }

    #[test]
    fn line_of_is_stable_and_keyed() {
        let m = MemoryTable::new(64);
        let k1 = key(&[1, 2]);
        let k2 = key(&[1, 3]);
        assert_eq!(line_of(&m, 5, &k1), line_of(&m, 5, &k1));
        // different node or key generally maps elsewhere (not guaranteed for
        // any single pair, but these specific ones differ)
        let same = (line_of(&m, 5, &k1) == line_of(&m, 6, &k1))
            && (line_of(&m, 5, &k1) == line_of(&m, 5, &k2));
        assert!(!same);
    }

    #[test]
    fn inline_and_spilled_keys_are_interchangeable() {
        // 4 elements stay inline, 5 spill; equality/hash/elems must not care.
        let short = key(&[1, 2, 3, 4]);
        let long = key(&[1, 2, 3, 4, 5]);
        assert!(matches!(short.0, KeyRepr::Inline { .. }));
        assert!(matches!(long.0, KeyRepr::Spill(_)));
        assert_eq!(short.elems().len(), 4);
        assert_eq!(long.elems().len(), 5);
        assert_ne!(short, long);
        let spilled_short = Key(KeyRepr::Spill(short.elems().into()));
        assert_eq!(short, spilled_short);
        assert_eq!(key_hash(&short), key_hash(&spilled_short));
        assert_eq!(fxhash(&short), fxhash(&spilled_short));
        assert!(Key::empty().elems().is_empty());
    }

    #[test]
    fn lines_are_cache_line_padded() {
        assert_eq!(std::mem::align_of::<Line>(), 64, "one line per cache line");
        assert!(std::mem::size_of::<Line>().is_multiple_of(64));
    }

    #[test]
    fn token_enumeration_respects_node_and_weight() {
        let m = MemoryTable::new(4);
        let t1 = Token::unit(WmeId(1));
        let t2 = Token::unit(WmeId(2));
        let k = key(&[]);
        {
            let line = line_of(&m, 7, &k);
            let (mut g, _) = m.lock(line);
            g.left.entries.push(entry(7, k.clone(), t1.clone(), 1));
            g.left.entries.push(entry(7, k.clone(), t2.clone(), 0));
            g.left.entries.push(entry(8, k.clone(), t2.clone(), 1));
        }
        assert_eq!(m.tokens_of(7, Side::Left), vec![(t1, 1)]);
        assert_eq!(m.tokens_of(8, Side::Left), vec![(t2, 1)]);
        assert!(m.tokens_of(7, Side::Right).is_empty());
    }

    #[test]
    fn node_runs_are_found_by_binary_search() {
        let mut d = LineData::default();
        let k = key(&[]);
        for node in [2u32, 2, 5, 9, 9, 9] {
            d.left.entries.push(entry(node, k.clone(), Token::empty(), 1));
        }
        assert!(d.left.grouped());
        assert_eq!(d.left.run(2), (0, 2));
        assert_eq!(d.left.run(5), (2, 3));
        assert_eq!(d.left.run(9), (3, 6));
        assert_eq!(d.left.run(7), (3, 3), "absent node: empty run");
        assert_eq!(d.right.run(2), (0, 0));
    }

    #[test]
    fn compact_drops_zero_weight() {
        let m = MemoryTable::new(1);
        {
            let (mut g, _) = m.lock(0);
            g.right.entries.push(entry(1, key(&[]), Token::empty(), 0));
            g.right.entries.push(entry(1, key(&[]), Token::empty(), 1));
        }
        m.compact();
        let (g, _) = m.lock(0);
        assert_eq!(g.right.entries().len(), 1);
    }

    #[test]
    fn end_cycle_touches_only_dirty_lines() {
        let m = MemoryTable::new(4);
        {
            let (mut g, _) = m.lock(1);
            g.left.entries.push(entry(3, key(&[]), Token::empty(), 0));
            g.left.accesses = 7;
        }
        m.touch(1);
        // Line 2 has state but was never marked dirty: it must be skipped.
        {
            let (mut g, _) = m.lock(2);
            g.right.entries.push(entry(4, key(&[]), Token::empty(), 0));
            g.right.accesses = 3;
        }
        assert_eq!(m.end_cycle(), 1, "only the dirty line is compacted");
        assert_eq!(m.lines_compacted_total(), 1);
        {
            let (g, _) = m.lock(1);
            assert!(g.left.entries().is_empty(), "zero-weight entry dropped");
            assert_eq!(g.left.accesses, 0, "access counter reset");
        }
        {
            let (g, _) = m.lock(2);
            assert_eq!(g.right.entries().len(), 1, "clean line untouched");
            assert_eq!(g.right.accesses, 3);
        }
        // The dirty flag was cleared: a second pass compacts nothing.
        assert_eq!(m.end_cycle(), 0);
        assert_eq!(m.lines_compacted_total(), 1);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn assert_quiescent_catches_bad_weights() {
        let m = MemoryTable::new(1);
        {
            let (mut g, _) = m.lock(0);
            g.left.entries.push(entry(1, key(&[]), Token::empty(), -1));
        }
        m.assert_quiescent(|_| false);
    }

    #[test]
    #[should_panic(expected = "grouped")]
    fn assert_quiescent_catches_ungrouped_lines() {
        let m = MemoryTable::new(1);
        {
            let (mut g, _) = m.lock(0);
            g.left.entries.push(entry(9, key(&[]), Token::empty(), 1));
            g.left.entries.push(entry(3, key(&[]), Token::empty(), 1));
        }
        m.assert_quiescent(|_| false);
    }

    #[test]
    #[should_panic(expected = "stale token hash")]
    fn assert_quiescent_catches_stale_p_node_hash() {
        // Node 1 is a P node: its entry must carry the token's hash, and
        // this one carries the empty key's.
        let m = MemoryTable::new(1);
        {
            let (mut g, _) = m.lock(0);
            g.left.entries.push(entry(1, key(&[]), Token::unit(WmeId(4)), 1));
        }
        m.assert_quiescent(|n| n == 1);
    }

    #[test]
    #[should_panic(expected = "misplaced")]
    fn assert_quiescent_catches_entries_off_their_line() {
        let m = MemoryTable::new(128);
        let k = key(&[7]);
        let line = (line_of(&m, 5, &k) + 1) % 128;
        m.lock(line).0.left.entries.push(entry(5, k, Token::empty(), 1));
        m.assert_quiescent(|_| false);
    }

    #[test]
    #[should_panic(expected = "first-touch list")]
    fn assert_quiescent_catches_a_dirty_line_missing_from_the_list() {
        let m = MemoryTable::new(2);
        m.touch(1);
        m.touched.lock().0.clear();
        m.assert_quiescent(|_| false);
    }

    #[test]
    fn access_counters_reset() {
        // `upsert` is the access; the cycle's end forgets it.
        let m = MemoryTable::new(2);
        let (k, t) = (key(&[]), Token::empty());
        for _ in 0..5 {
            m.lock(0).0.left.upsert(1, &k, key_hash(&k), &t, 1);
        }
        m.lock(0).0.right.upsert(1, &k, key_hash(&k), &t, 1);
        m.touch(0);
        assert_eq!(m.access_counts(), vec![(5, 1), (0, 0)]);
        m.end_cycle();
        assert_eq!(m.access_counts(), vec![(0, 0), (0, 0)]);
    }

    #[test]
    fn upsert_reports_the_prior_counter_and_the_fresh_position() {
        let mut b = Bucket::<i32>::default();
        let k = key(&[3]);
        let (t1, t2) = (Token::unit(WmeId(1)), Token::unit(WmeId(2)));
        b.upsert(9, &k, key_hash(&k), &t1, 1);
        // Node 4 sorts before node 9: its fresh entry goes in at the front.
        assert_eq!(b.upsert(4, &k, key_hash(&k), &t1, 1), Upsert { m: 0, fresh: Some(0) });
        assert_eq!(b.upsert(4, &k, key_hash(&k), &t2, 1), Upsert { m: 0, fresh: Some(1) });
        b.set_m(1, 7);
        assert!(b.grouped());
        // A second arrival of a stored token finds it and says what it held.
        assert_eq!(b.upsert(4, &k, key_hash(&k), &t2, 1), Upsert { m: 7, fresh: None });
        assert_eq!(b.entries()[1].weight, 2);
        // Weight zero removes the entry, order kept.
        assert_eq!(b.upsert(4, &k, key_hash(&k), &t1, -1), Upsert { m: 0, fresh: None });
        let left: Vec<_> = b.entries().iter().map(|e| (e.node, e.token.clone())).collect();
        assert_eq!(left, vec![(4, t2), (9, t1)]);
    }

    #[test]
    fn probe_filters_in_order_and_a_reference_bucket_walks_the_line() {
        // Node 5 holds keys [1] (live), [1] (weight 0) and [2]; node 3 is a
        // co-hashed neighbour. Probing node 5 for key [1]:
        let (k1, k2) = (key(&[1]), key(&[2]));
        for reference in [false, true] {
            let mut b = Bucket::<()> { reference, ..Bucket::default() };
            b.upsert(3, &k1, key_hash(&k1), &Token::unit(WmeId(9)), 1);
            b.upsert(5, &k1, key_hash(&k1), &Token::unit(WmeId(1)), 1);
            b.upsert(5, &k1, key_hash(&k1), &Token::unit(WmeId(2)), 1);
            b.upsert(5, &k2, key_hash(&k2), &Token::unit(WmeId(3)), 1);
            b.entries[2].weight = 0;
            for live_only in [true, false] {
                let mut stats = ActStats::default();
                let mut hits = Vec::new();
                b.probe(5, &k1, key_hash(&k1), live_only, &mut stats, |t, _, _| hits.push(t.clone()));
                let want: &[u32] = if live_only { &[1] } else { &[1, 2] };
                let want: Vec<Token> = want.iter().map(|&w| Token::unit(WmeId(w))).collect();
                assert_eq!(hits, want, "reference {reference}, live_only {live_only}");
                assert_eq!(stats.scanned, 3, "every same-node entry is a candidate");
                // Key [2]'s entry alone is turned away by its hash.
                assert_eq!(stats.hash_rejects, u32::from(!reference));
                assert_eq!(stats.skipped, u32::from(reference), "node 3's entry");
            }
        }
    }
}
