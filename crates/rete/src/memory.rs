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
//! its add simply leaves a −1 entry that the add later annihilates, and an
//! entry whose weight reaches zero is removed on the spot — no stored entry
//! ever has weight zero. At quiescent points every weight is 1; the
//! transient negatives only exist while a cycle's tasks are in flight. Left
//! entries additionally carry `m`, the number (summed weight) of matching
//! right tokens — the not-node counter of §2.2.
//!
//! ## One entry, one bucket, one probe
//!
//! This module is the only one that knows what a memory entry is and how a
//! bucket is searched. Both memories store the same [`Entry`] (the left
//! ones with the not-counter, the right ones with `()` in its place), a
//! line is a [`Bucket`] of each, and everything an activation does to a
//! line is one of three calls, each handed the [`Arrival`] the table made
//! for the activation: [`Bucket::upsert`] (insert own token),
//! [`Bucket::probe`] (scan the opposite bucket — the only loop in the crate
//! that looks for key matches) and, at a fresh not-node entry,
//! [`Bucket::set_m`]. `process.rs` says *which* calls an activation makes;
//! how they find their entries is decided here:
//!
//! * **Hash-first probes.** Every entry stores the 64-bit hash of its key,
//!   computed once when the activation arrives. A probe compares hashes
//!   before any structural key compare; mismatches are counted as
//!   `hash_rejects` and cost one word compare.
//! * **No stored key.** A key is a function of `(node, side, token)` and the
//!   wme store, so an entry keeps the token and the key's hash and nothing
//!   else (40 bytes left, 32 right). On a hash hit the probe *recomputes*
//!   the stored token's key elements through the opposite side's
//!   [`KeyPart`] spec and compares them with the arriving token's — the
//!   structural compare that makes a hash collision harmless, on every hit,
//!   in either kind of table.
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
//! * **One cache line per line.** A line — lock byte, two bucket vectors,
//!   two access counters — is exactly 64 bytes, `#[repr(align(64))]`:
//!   neighbouring spinlocks never share a cache line and an activation
//!   reads one line of header before it reaches an entry.
//! * **Who locks, who borrows.** [`Lines`] is how an activation reaches its
//!   line. Through `&MemoryTable` — a table other match processes may be
//!   in — it takes the line's lock and counts its spins; through
//!   `&mut MemoryTable` — the serial engine, which owns its table — the
//!   borrow already proves nobody else can arrive, and the line is handed
//!   over with no atomic at all. Which one runs is a fact of the caller's
//!   type, not a setting.
//! * **Access counts are take-and-reset.** Reaching a line bumps the
//!   arriving side's counter (Figure 6-2 instrumentation, saturating);
//!   [`MemoryTable::take_access_counts`] returns and zeroes them, so an
//!   engine that harvests every cycle reads per-cycle counts and there is
//!   no end-of-cycle pass over the table.
//! * **Node stripes.** A node's entries are confined to a *stripe* of
//!   [`STRIPE`] consecutive lines starting at `hash(node)`; the key hash
//!   picks the offset within it (still "bindings + node-ID"). Enumerating
//!   or purging a node visits its stripe, not the table.
//! * **P nodes hash on the token.** A P node's memory is never probed by
//!   key — it is only upserted and enumerated — so its entries carry the
//!   hash of the whole token instead of the (empty) key's. A production's
//!   instantiations then spread over the stripe instead of piling into one
//!   line, and the hash-first reject makes their upsert O(1) expected.

use crate::node::{KeyPart, NodeId, Side};
use crate::sync::{SpinGuard, SpinLock};
use crate::token::{Token, WmeStore};
use crate::util::{fxhash, FxHasher};
use crate::work::Work;
use psme_ops::{Value, WmeId};
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

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

impl KeyElem {
    /// What `part` reads from `token`.
    #[inline]
    pub fn of(part: KeyPart, token: &Token, store: &WmeStore) -> KeyElem {
        match part {
            KeyPart::Val { slot, field } => KeyElem::V(store.value(token.slot(slot), field)),
            KeyPart::Id { slot } => KeyElem::W(token.slot(slot)),
        }
    }
}

/// The 64-bit hash of `token`'s key under `spec` — computed once per
/// activation, stored in the entry, and compared before any structural key
/// compare. The elements are streamed into the hasher, never collected; the
/// result is bit for bit `fxhash` of them as a `[KeyElem]` slice.
#[inline]
pub fn key_hash(spec: &[KeyPart], token: &Token, store: &WmeStore) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(spec.len()); // a slice hashes its length first
    for &part in spec {
        KeyElem::of(part, token, store).hash(&mut h);
    }
    h.finish()
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
    /// Hash of the token's key — of the token at a P node (hash-first
    /// rejection, and the offset of the entry's line within the node's
    /// stripe).
    pub hash: u64,
    /// The stored token (a unit token for alpha-sourced right inputs).
    pub token: Token,
    /// Signed multiplicity (1 at quiescence, never 0).
    pub weight: i32,
    /// Left: summed weight of matching right tokens (§2.2's not-counter).
    pub m: M,
}

/// A token arriving at a node input, as its memory line sees it — made by
/// [`MemoryTable::arrival`], which also says what kind of table it is for.
pub struct Arrival<'a> {
    node: NodeId,
    token: &'a Token,
    /// Hash of the token's key (of the token at a P node).
    hash: u64,
    line: u32,
    /// Key spec of the arriving side, and of the opposite one (parallel).
    own: &'a [KeyPart],
    opposite: &'a [KeyPart],
    store: &'a WmeStore,
    reference: bool,
}

impl Arrival<'_> {
    /// The line the destination node and the hash select.
    #[inline]
    pub fn line(&self) -> u32 {
        self.line
    }

    /// Does `stored`, a token of the opposite memory, have the arriving
    /// token's key? Element by element, each read through its side's spec.
    #[inline]
    fn key_matches(&self, stored: &Token) -> bool {
        self.own.iter().zip(self.opposite).all(|(&own, &opp)| {
            KeyElem::of(own, self.token, self.store) == KeyElem::of(opp, stored, self.store)
        })
    }
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
/// On behalf of an [`Arrival`] at a [`MemoryTable::reference`] table a
/// bucket never looks at a stored hash, and its `probe` walks the whole
/// line instead of the node's run — the scan that the differential suites
/// use as the oracle.
#[derive(Debug, Default)]
pub struct Bucket<M> {
    entries: Vec<Entry<M>>,
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

    /// Store the arriving token: add `delta` to the weight of its entry,
    /// creating it (at its node run's end) or removing it at weight zero.
    /// Candidates are rejected on hash inequality before the structural
    /// token compare — sound because a node's key is a function of the
    /// token, so equal `(node, token)` implies equal hash.
    pub fn upsert(&mut self, a: &Arrival, delta: i32) -> Upsert<M> {
        let (s, e) = self.run(a.node);
        for i in s..e {
            let en = &mut self.entries[i];
            if (a.reference || en.hash == a.hash) && en.token == *a.token {
                let m = en.m;
                en.weight += delta;
                if en.weight == 0 {
                    self.entries.remove(i);
                }
                return Upsert { m, fresh: None };
            }
        }
        let m = M::default();
        let (node, hash, token) = (a.node, a.hash, a.token.clone());
        self.entries.insert(e, Entry { node, hash, token, weight: delta, m });
        Upsert { m, fresh: Some(e) }
    }

    /// Set the not-counter of the entry [`Self::upsert`] just created.
    pub fn set_m(&mut self, at: usize, m: M) {
        self.entries[at].m = m;
    }

    /// The bucket scan: call `hit` with the token, the weight and the `m`
    /// of every entry of the arrival's node whose token has the arriving
    /// token's key. `m` is all a caller can change. Every same-node entry
    /// examined counts as `scanned`, every one turned away by the one-word
    /// hash compare as a `hash_rejects`; one that gets past it has its key
    /// recomputed and compared. For a reference table the scan walks the
    /// whole line instead of the node's run, counts the foreign entries it
    /// passes as `skipped`, and goes straight to the key compare; `scanned`
    /// is the same either way.
    #[inline]
    pub fn probe(
        &mut self,
        a: &Arrival,
        work: &mut Work,
        mut hit: impl FnMut(&Token, i32, &mut M),
    ) {
        let (s, e) = if a.reference { (0, self.entries.len()) } else { self.run(a.node) };
        for en in &mut self.entries[s..e] {
            if en.node != a.node {
                work.skipped += 1;
                continue;
            }
            work.scanned += 1;
            if !a.reference && en.hash != a.hash {
                work.hash_rejects += 1;
                continue;
            }
            if a.key_matches(&en.token) {
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
    /// Tokens that arrived on the left and on the right since the last
    /// [`MemoryTable::take_access_counts`] (Figure 6-2 instrumentation).
    accesses: [u32; 2],
}

impl LineData {
    /// Count one token arriving on `side`. Saturating: a table nobody
    /// harvests (the serial engine's) only ever counts up.
    #[inline]
    fn count_access(&mut self, side: Side) {
        let n = &mut self.accesses[side as usize];
        *n = n.saturating_add(1);
    }
}

/// One memory line: the spin-locked bucket pair, one cache line exactly.
#[repr(align(64))]
struct Line(SpinLock<LineData>);

/// How an activation reaches its memory line — by lock where another match
/// process may arrive, by exclusive borrow where the type says none can.
pub trait Lines: Deref<Target = MemoryTable> {
    /// Exclusive access to `line` on behalf of a token arriving on `side`
    /// (counted as one access), and the spins it took to get it.
    fn reach(&mut self, line: u32, side: Side) -> (impl DerefMut<Target = LineData> + '_, u64);
}

/// A shared table: take the line's lock (§6.1).
impl Lines for &MemoryTable {
    #[inline]
    fn reach(&mut self, line: u32, side: Side) -> (impl DerefMut<Target = LineData> + '_, u64) {
        let (mut g, spins) = self.lock(line);
        g.count_access(side);
        (g, spins)
    }
}

/// An owned table: nobody else can be in it, so there is nothing to lock.
impl Lines for &mut MemoryTable {
    #[inline]
    fn reach(&mut self, line: u32, side: Side) -> (impl DerefMut<Target = LineData> + '_, u64) {
        let data = self.lines[line as usize].0.get_mut();
        data.count_access(side);
        (data, 0)
    }
}

/// The global memory table: `2^k` lines, each a [`SpinLock`]`<`[`LineData`]`>`.
pub struct MemoryTable {
    lines: Box<[Line]>,
    mask: u64,
    /// Stripe width − 1 (`min(STRIPE, lines)` is a power of two).
    stripe_mask: u64,
    /// Searched the pre-overhaul way (see [`Self::reference`])?
    reference: bool,
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
            lines: (0..n).map(|_| Line(SpinLock::new(LineData::default()))).collect(),
            mask: (n - 1) as u64,
            stripe_mask: (n.min(STRIPE) - 1) as u64,
            reference,
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

    /// `token` arriving at `node` with entry hash `hash`: where it goes and
    /// what its [`Bucket::upsert`] and [`Bucket::probe`] need. `own` is the
    /// key spec of the side it arrives on, `opposite` the other side's (the
    /// one a probe reads stored candidates through); both empty at a P node.
    #[inline]
    pub fn arrival<'a>(
        &self,
        node: NodeId,
        token: &'a Token,
        hash: u64,
        own: &'a [KeyPart],
        opposite: &'a [KeyPart],
        store: &'a WmeStore,
    ) -> Arrival<'a> {
        let (line, reference) = (self.line_of_hash(node, hash), self.reference);
        Arrival { node, token, hash, line, own, opposite, store, reference }
    }

    /// Lock a line; returns the guard and the spin count.
    #[inline]
    pub fn lock(&self, line: u32) -> (SpinGuard<'_, LineData>, u64) {
        self.lines[line as usize].0.lock()
    }

    /// Harvest `(left_accesses, right_accesses)` per line since the last
    /// harvest, and zero them.
    pub fn take_access_counts(&self) -> Vec<(u64, u64)> {
        self.lines
            .iter()
            .map(|l| {
                let [left, right] = std::mem::take(&mut l.0.lock().0.accesses);
                (left.into(), right.into())
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
            let (g, _) = l.0.lock();
            match side {
                Side::Left => g.left.live_tokens(node, &mut out),
                Side::Right => g.right.live_tokens(node, &mut out),
            }
        }
        out
    }

    /// One bucket's share of [`Self::assert_quiescent`].
    fn check_bucket<'a, M: Copy + Default>(
        &self,
        i: usize,
        side: Side,
        b: &Bucket<M>,
        store: &WmeStore,
        key_spec: &impl Fn(NodeId, Side) -> Option<&'a [KeyPart]>,
    ) {
        assert!(b.grouped(), "line {i}: {side:?} entries not grouped by node");
        for e in &b.entries {
            assert!(
                e.weight == 1,
                "line {i}: {side:?} entry weight {} for node {} {:?}",
                e.weight,
                e.node,
                e.token
            );
            let (what, want) = match key_spec(e.node, side) {
                None => ("token", token_hash(&e.token)),
                Some(spec) => ("key", key_hash(spec, &e.token, store)),
            };
            assert_eq!(e.hash, want, "line {i}: stale {what} hash, {side:?} entry of node {}", e.node);
            let home = self.line_of_hash(e.node, e.hash) as usize;
            assert_eq!(home, i, "{side:?} entry of node {} misplaced", e.node);
        }
    }

    /// Assert the quiescence invariant: every weight is 1, every
    /// not-counter is non-negative, every line is grouped by node, every
    /// stored hash is what its token's key hashes to under the spec
    /// `key_spec` names for the entry's node and side — what the token
    /// itself hashes to where it names none, the P nodes — and every entry
    /// sits on the line its node and hash select. Panics otherwise (used by
    /// tests and debug assertions at cycle boundaries).
    pub fn assert_quiescent<'a>(
        &self,
        store: &WmeStore,
        key_spec: impl Fn(NodeId, Side) -> Option<&'a [KeyPart]>,
    ) {
        for (i, l) in self.lines.iter().enumerate() {
            let (g, _) = l.0.lock();
            self.check_bucket(i, Side::Left, &g.left, store, &key_spec);
            self.check_bucket(i, Side::Right, &g.right, store, &key_spec);
            for e in &g.left.entries {
                assert!(e.m >= 0, "line {i}: negative not-counter {} node {}", e.m, e.node);
            }
        }
    }

    /// Drop every entry destined for one of `nodes` — the memory half of
    /// retiring a reorganized production's old chain. Removing a node's
    /// whole run keeps the grouping invariant; callers run at a quiescent
    /// point, so no activation can race the purge.
    pub fn purge_nodes(&self, nodes: &[NodeId]) {
        for &node in nodes {
            for l in self.stripe(node) {
                let (mut g, _) = l.0.lock();
                g.left.purge(node);
                g.right.purge(node);
            }
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
    use psme_ops::{intern, Wme};

    /// A store with one wme per row, its fields the row's ints; the wme of
    /// row `i` is `WmeId(i)`.
    fn store_of(rows: &[&[i64]]) -> WmeStore {
        let mut store = WmeStore::new();
        for row in rows {
            let fields = row.iter().map(|&v| Value::Int(v)).collect();
            store.add(Wme { class: intern("k"), fields });
        }
        store
    }

    /// The key spec reading fields `0..n` of a unit token's wme.
    fn spec(n: u16) -> Vec<KeyPart> {
        (0..n).map(|field| KeyPart::Val { slot: 0, field }).collect()
    }

    /// A raw entry, to be pushed past `upsert` (tests build broken lines).
    fn entry<M: Default>(node: NodeId, hash: u64, token: Token, weight: i32) -> Entry<M> {
        Entry { node, hash, token, weight, m: M::default() }
    }

    /// `token` arriving at `node` of `m`, both sides keyed by `key`.
    fn arrive<'a>(
        m: &MemoryTable,
        store: &'a WmeStore,
        key: &'a [KeyPart],
        node: NodeId,
        token: &'a Token,
    ) -> Arrival<'a> {
        m.arrival(node, token, key_hash(key, token, store), key, key, store)
    }

    /// `fxhash` of no key elements — the hash of every empty key.
    fn empty_hash() -> u64 {
        key_hash(&[], &Token::empty(), &WmeStore::new())
    }

    #[test]
    fn entry_sizes_are_pinned() {
        // What `peak_heap_mb` is made of: no stored key, and the not-counter
        // rides in the left entry only.
        assert_eq!(std::mem::size_of::<Entry<i32>>(), 40, "left entry");
        assert_eq!(std::mem::size_of::<Entry<()>>(), 32, "right entry");
    }

    #[test]
    fn lines_are_cache_line_padded() {
        assert_eq!(std::mem::align_of::<Line>(), 64, "one line per cache line");
        assert_eq!(std::mem::size_of::<Line>(), 64, "and no more than one");
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
        let store = store_of(&[&[1, 2], &[1, 3]]);
        let line_of = |node, w| {
            m.line_of_hash(node, key_hash(&spec(2), &Token::unit(WmeId(w)), &store))
        };
        assert_eq!(line_of(5, 0), line_of(5, 0));
        // different node or key generally maps elsewhere (not guaranteed for
        // any single pair, but these specific ones differ)
        let same = (line_of(5, 0) == line_of(6, 0)) && (line_of(5, 0) == line_of(5, 1));
        assert!(!same);
    }

    #[test]
    fn streamed_key_hash_is_the_slice_hash() {
        // Placement must not move: streaming a key's elements into Fx gives
        // the hash of the collected `[KeyElem]`, whatever its length or mix.
        let store = store_of(&[&[1, 2, 3, 4, 5], &[7, 7, 7, 7, 7]]);
        let token = Token::from_slice(&[WmeId(1), WmeId(0)]);
        let mut parts = vec![KeyPart::Id { slot: 0 }];
        parts.extend((0..5).map(|field| KeyPart::Val { slot: 1, field }));
        for n in 0..=parts.len() {
            let elems: Vec<KeyElem> =
                parts[..n].iter().map(|&p| KeyElem::of(p, &token, &store)).collect();
            assert_eq!(key_hash(&parts[..n], &token, &store), fxhash(&elems.as_slice()), "{n}");
        }
    }

    #[test]
    fn token_enumeration_respects_node_and_weight() {
        let m = MemoryTable::new(4);
        let t1 = Token::unit(WmeId(1));
        let t2 = Token::unit(WmeId(2));
        let h = empty_hash();
        {
            let (mut g, _) = m.lock(m.line_of_hash(7, h));
            g.left.entries.push(entry(7, h, t1.clone(), 1));
            g.left.entries.push(entry(7, h, t2.clone(), -1));
        }
        m.lock(m.line_of_hash(8, h)).0.left.entries.push(entry(8, h, t2.clone(), 1));
        assert_eq!(m.tokens_of(7, Side::Left), vec![(t1, 1)]);
        assert_eq!(m.tokens_of(8, Side::Left), vec![(t2, 1)]);
        assert!(m.tokens_of(7, Side::Right).is_empty());
    }

    #[test]
    fn node_runs_are_found_by_binary_search() {
        let mut d = LineData::default();
        for node in [2u32, 2, 5, 9, 9, 9] {
            d.left.entries.push(entry(node, 0, Token::empty(), 1));
        }
        assert!(d.left.grouped());
        assert_eq!(d.left.run(2), (0, 2));
        assert_eq!(d.left.run(5), (2, 3));
        assert_eq!(d.left.run(9), (3, 6));
        assert_eq!(d.left.run(7), (3, 3), "absent node: empty run");
        assert_eq!(d.right.run(2), (0, 0));
    }

    /// A 1-line table whose left bucket holds `entries`, checked with every
    /// node but node 1 (a P node) keyed on nothing.
    fn check_line(lines: usize, line: u32, entries: Vec<Entry<i32>>) {
        let m = MemoryTable::new(lines);
        m.lock(line).0.left.entries.extend(entries);
        m.assert_quiescent(&WmeStore::new(), |n, _| (n != 1).then_some(&[][..]));
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn assert_quiescent_catches_bad_weights() {
        check_line(1, 0, vec![entry(2, empty_hash(), Token::empty(), -1)]);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn assert_quiescent_catches_a_zero_weight_entry() {
        // `upsert` removes an entry the moment its weight reaches zero.
        check_line(1, 0, vec![entry(2, empty_hash(), Token::empty(), 0)]);
    }

    #[test]
    #[should_panic(expected = "grouped")]
    fn assert_quiescent_catches_ungrouped_lines() {
        let h = empty_hash();
        check_line(1, 0, vec![entry(9, h, Token::empty(), 1), entry(3, h, Token::empty(), 1)]);
    }

    #[test]
    #[should_panic(expected = "stale token hash")]
    fn assert_quiescent_catches_stale_p_node_hash() {
        // Node 1 is a P node: its entry must carry the token's hash, and
        // this one carries the empty key's.
        check_line(1, 0, vec![entry(1, empty_hash(), Token::unit(WmeId(4)), 1)]);
    }

    #[test]
    #[should_panic(expected = "stale key hash")]
    fn assert_quiescent_catches_a_hash_that_is_not_the_tokens_keys() {
        // The stored hash is recomputed from (node, side, token, store):
        // this one is the hash of row 1's key on row 0's token.
        let store = store_of(&[&[7], &[8]]);
        let m = MemoryTable::new(1);
        let h = key_hash(&spec(1), &Token::unit(WmeId(1)), &store);
        m.lock(0).0.right.entries.push(entry(5, h, Token::unit(WmeId(0)), 1));
        m.assert_quiescent(&store, |_, _| Some(&[KeyPart::Val { slot: 0, field: 0 }]));
    }

    #[test]
    #[should_panic(expected = "misplaced")]
    fn assert_quiescent_catches_entries_off_their_line() {
        let line = (MemoryTable::new(128).line_of_hash(5, empty_hash()) + 1) % 128;
        check_line(128, line, vec![entry(5, empty_hash(), Token::empty(), 1)]);
    }

    #[test]
    fn access_counters_reset() {
        // Reaching a line is the access, by lock or by borrow; the harvest
        // returns the counts and leaves zeros.
        fn reach(mut lines: impl Lines, line: u32, side: Side) {
            drop(lines.reach(line, side));
        }
        let mut m = MemoryTable::new(2);
        for _ in 0..3 {
            reach(&m, 0, Side::Left);
        }
        for _ in 0..2 {
            reach(&mut m, 0, Side::Left);
        }
        reach(&mut m, 0, Side::Right);
        assert_eq!(m.take_access_counts(), vec![(5, 1), (0, 0)]);
        assert_eq!(m.take_access_counts(), vec![(0, 0), (0, 0)]);
        // A table nobody harvests counts up to the top and stays there.
        m.lock(1).0.accesses = [u32::MAX - 1, u32::MAX];
        reach(&mut m, 1, Side::Left);
        reach(&m, 1, Side::Left);
        reach(&m, 1, Side::Right);
        let top = u64::from(u32::MAX);
        assert_eq!(m.take_access_counts(), vec![(0, 0), (top, top)]);
    }

    #[test]
    fn upsert_reports_the_prior_counter_and_the_fresh_position() {
        let mut b = Bucket::<i32>::default();
        let (m, store, key) = (MemoryTable::new(1), store_of(&[&[0], &[3], &[3]]), spec(1));
        let (t1, t2) = (Token::unit(WmeId(1)), Token::unit(WmeId(2)));
        let at = |node, token| arrive(&m, &store, &key, node, token);
        b.upsert(&at(9, &t1), 1);
        // Node 4 sorts before node 9: its fresh entry goes in at the front.
        assert_eq!(b.upsert(&at(4, &t1), 1), Upsert { m: 0, fresh: Some(0) });
        assert_eq!(b.upsert(&at(4, &t2), 1), Upsert { m: 0, fresh: Some(1) });
        b.set_m(1, 7);
        assert!(b.grouped());
        // A second arrival of a stored token finds it and says what it held.
        assert_eq!(b.upsert(&at(4, &t2), 1), Upsert { m: 7, fresh: None });
        assert_eq!(b.entries()[1].weight, 2);
        // Weight zero removes the entry, order kept.
        assert_eq!(b.upsert(&at(4, &t1), -1), Upsert { m: 0, fresh: None });
        let left: Vec<_> = b.entries().iter().map(|e| (e.node, e.token.clone())).collect();
        assert_eq!(left, vec![(4, t2), (9, t1)]);
    }

    #[test]
    fn probe_filters_in_order_and_a_reference_bucket_walks_the_line() {
        // Right wmes 1 and 2 have key [1], wme 3 key [2]; wme 9 sits at node
        // 3, a co-hashed neighbour. A left token on wme 0 (key [1]) probes
        // node 5:
        let mut rows = [&[0i64][..]; 10];
        rows[..4].copy_from_slice(&[&[1], &[1], &[1], &[2]]);
        let (store, key) = (store_of(&rows), spec(1));
        for m in [MemoryTable::new(1), MemoryTable::reference(1)] {
            let mut b = Bucket::<()>::default();
            for (node, w) in [(3, 9), (5, 1), (5, 2), (5, 3)] {
                let t = Token::unit(WmeId(w));
                b.upsert(&arrive(&m, &store, &key, node, &t), 1);
            }
            let left = Token::unit(WmeId(0));
            let a = arrive(&m, &store, &key, 5, &left);
            let mut work = Work::default();
            let mut hits = Vec::new();
            b.probe(&a, &mut work, |t, _, _| hits.push(t.clone()));
            assert_eq!(hits, [1, 2].map(|w| Token::unit(WmeId(w))), "reference {}", m.reference);
            assert_eq!(work.scanned, 3, "every same-node entry is a candidate");
            // Key [2]'s entry alone is turned away by its hash.
            assert_eq!(work.hash_rejects, u32::from(!m.reference));
            assert_eq!(work.skipped, u32::from(m.reference), "node 3's entry");
        }
    }
}
