//! Node-activation processing — the semantics shared by the serial engine
//! and the PSM-E parallel engine.
//!
//! "A node activation consists of the address of the code for a node in the
//! RETE network and an input token for that node" (§2.3). Here an
//! [`Activation`] carries the node id, the arriving side, the token, and a
//! signed *delta* (+1 add / −1 delete — the token's add/delete flag,
//! generalized to weights so that out-of-order parallel delivery is safe;
//! see `memory.rs`).
//!
//! The critical section per two-input activation — insert own token, scan
//! the opposite bucket — runs under the memory-line lock, exactly the
//! locking discipline the paper describes (§6.1) — or, in an engine that
//! owns its table and so has nobody to lock out, with the line exclusively
//! borrowed ([`Lines`]). Child activations are emitted after the line is let
//! go.
//!
//! This module decides *which* memory operations an activation performs —
//! six short `(node kind, side)` arms in `beta_locked`, each an
//! [`upsert`](crate::memory::Bucket::upsert) into the token's own bucket
//! and, at two-input nodes, one [`probe`](crate::memory::Bucket::probe) of
//! the opposite bucket with the arm's consistency tests and its reaction to
//! a match as the callback. What an entry is, how a bucket is searched and
//! what the search costs (`scanned` / `hash_rejects` / `skipped`) belong to
//! `memory.rs`; so does the reference whole-line scan, which a table is
//! built with ([`MemoryTable::reference`]) and which this module cannot see.

use crate::memory::{key_hash, token_hash, Arrival, LineData, Lines, MemoryTable};
use crate::node::{BetaNode, MergeSrc, NodeId, NodeKind, Side, ROOT};
use crate::token::{Token, WmeStore};
use crate::view::ReteView;
use crate::work::Work;
use psme_ops::WmeId;

/// One unit of match work: a token arriving at a node input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Activation {
    /// Destination node.
    pub node: NodeId,
    /// Which input.
    pub side: Side,
    /// The arriving token.
    pub token: Token,
    /// Signed weight: +1 = add, −1 = delete.
    pub delta: i32,
}

/// A conflict-set change emitted by a P node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsChange {
    /// Production index in the network.
    pub prod: u32,
    /// The full token (coverage = the P node's coverage).
    pub token: Token,
    /// Signed weight.
    pub delta: i32,
}

/// Reusable per-worker scratch for [`process_beta_scratch`]: the match /
/// transition buffer survives across activations so the steady state
/// allocates nothing per activation.
#[derive(Default, Debug)]
pub struct BetaScratch {
    matches: Vec<(Token, i32)>,
}

/// Evaluate the non-equality consistency tests between a left token and a
/// right token.
///
/// Operand order: a test `^field PRED <var>` in a CE means
/// `new-wme.field PRED bound-value`, i.e. the *right* (arriving CE) side is
/// the left operand of the predicate.
#[inline]
fn tests_pass(node: &BetaNode, left: &Token, right: &Token, store: &WmeStore) -> bool {
    node.tests.iter().all(|t| {
        let lv = store.value(left.slot(t.left_slot), t.left_field);
        let rv = store.value(right.slot(t.right_slot), t.right_field);
        t.pred.eval(rv, lv)
    })
}

/// Assemble a join's output token (one allocation: the merge spec's exact
/// size lets the token buffer be filled directly).
#[inline]
fn merge_token(node: &BetaNode, left: &Token, right: &Token) -> Token {
    Token::collect(node.merge.iter().map(|m| match *m {
        MergeSrc::L(s) => left.slot(s),
        MergeSrc::R(s) => right.slot(s),
    }))
}

/// Process one beta activation and return its work (convenience wrapper
/// that brings its own scratch and drops the lock spins; hot loops should
/// hold a [`BetaScratch`] and call [`process_beta_scratch`]).
pub fn process_beta<N: ReteView + ?Sized>(
    net: &N,
    mem: impl Lines,
    store: &WmeStore,
    act: &Activation,
    min_node: NodeId,
    emit: &mut dyn FnMut(Activation),
    cs_emit: &mut dyn FnMut(CsChange),
) -> Work {
    let mut scratch = BetaScratch::default();
    process_beta_scratch(net, mem, store, act, min_node, &mut scratch, emit, cs_emit).0
}

/// Deferred after-lock work produced by [`beta_locked`]: what to emit once
/// the line guard is dropped. Match/transition tokens are the scratch
/// buffer's contents.
#[derive(Clone, Copy, Debug)]
enum Post {
    /// Root activation — nothing to do.
    None,
    /// P node: one conflict-set change for the input token.
    Cs { prod: u32 },
    /// Join: merge + fan out the matches (side decides merge order).
    Join,
    /// Neg left: fan the input token out iff it arrived unblocked.
    NegGate { fire: bool },
    /// Neg right: fan out the blocked/unblocked transitions.
    NegTransitions,
}

/// `act` as its memory line will see it — the hash of its key and the
/// destination line, computed before any lock is taken (`None` only for
/// root-kind activations, which touch no memory).
fn plan_parts<'a, N: ReteView + ?Sized>(
    net: &'a N,
    mem: &MemoryTable,
    store: &'a WmeStore,
    act: &'a Activation,
) -> Option<Arrival<'a>> {
    let node = net.node(act.node);
    let (own, opposite, hash) = match node.kind {
        NodeKind::Root => return None,
        // A P node's memory is upserted and enumerated, never probed by
        // key: hashing on the token spreads a production's instantiations
        // over the node's stripe instead of one empty-key line.
        NodeKind::Prod { .. } => (&[][..], &[][..], token_hash(&act.token)),
        NodeKind::Join | NodeKind::Neg => {
            let (own, opposite) = match act.side {
                Side::Left => (&node.left_key[..], &node.right_key[..]),
                Side::Right => (&node.right_key[..], &node.left_key[..]),
            };
            (own, opposite, key_hash(own, &act.token, store))
        }
    };
    Some(mem.arrival(act.node, &act.token, hash, own, opposite, store))
}

/// [`MemoryTable::assert_quiescent`] under the placement rule of
/// `plan_parts`: a two-input node's entries hash their side's key, a P
/// node's the token.
pub fn assert_quiescent<N: ReteView + ?Sized>(net: &N, mem: &MemoryTable, store: &WmeStore) {
    mem.assert_quiescent(store, |n, side| {
        let node = net.node(n);
        match (node.kind, side) {
            (NodeKind::Prod { .. }, _) => None,
            (_, Side::Left) => Some(&node.left_key[..]),
            (_, Side::Right) => Some(&node.right_key[..]),
        }
    });
}

/// The critical section of one beta activation: insert the token into its
/// own bucket, scan the opposite one, and collect match/transition tokens
/// into `matches`. Runs with the line in hand — locked or exclusively
/// borrowed; emission is deferred to [`beta_post`] via the returned [`Post`].
fn beta_locked<N: ReteView + ?Sized>(
    net: &N,
    g: &mut LineData,
    store: &WmeStore,
    act: &Activation,
    arr: &Arrival,
    matches: &mut Vec<(Token, i32)>,
    work: &mut Work,
) -> Post {
    let node = net.node(act.node);
    let (token, delta) = (&act.token, act.delta);
    match (node.kind, act.side) {
        (NodeKind::Root, _) => Post::None,
        (NodeKind::Prod { prod }, _) => {
            // P nodes store their input tokens (so that a later chunk
            // sharing this whole chain can enumerate the parent's outputs)
            // and update the conflict set.
            g.left.upsert(arr, delta);
            Post::Cs { prod }
        }
        (NodeKind::Join, Side::Left) => {
            g.left.upsert(arr, delta);
            g.right.probe(arr, work, |right, w, _| {
                if tests_pass(node, token, right, store) {
                    matches.push((right.clone(), w));
                }
            });
            Post::Join
        }
        (NodeKind::Join, Side::Right) => {
            g.right.upsert(arr, delta);
            if node.parent == ROOT {
                // The root's single output is the weight-1 empty token.
                matches.push((Token::empty(), 1));
                work.scanned += 1;
            } else {
                g.left.probe(arr, work, |left, w, _| {
                    if tests_pass(node, left, token, store) {
                        matches.push((left.clone(), w));
                    }
                });
            }
            Post::Join
        }
        (NodeKind::Neg, Side::Left) => {
            // A fresh entry computes its not-counter from the right bucket.
            let up = g.left.upsert(arr, delta);
            let mut m = up.m;
            if let Some(at) = up.fresh {
                g.right.probe(arr, work, |right, w, _| {
                    if tests_pass(node, token, right, store) {
                        m += w;
                    }
                });
                g.left.set_m(at, m);
            }
            Post::NegGate { fire: m == 0 }
        }
        (NodeKind::Neg, Side::Right) => {
            g.right.upsert(arr, delta);
            // Adjust the not-counters of matching left tokens; collect the
            // blocked/unblocked transitions.
            g.left.probe(arr, work, |left, w, m| {
                if tests_pass(node, left, token, store) {
                    let m_old = *m;
                    *m += delta;
                    if m_old == 0 && *m != 0 {
                        matches.push((left.clone(), -w));
                    } else if m_old != 0 && *m == 0 {
                        matches.push((left.clone(), w));
                    }
                }
            });
            Post::NegTransitions
        }
    }
}

/// The after-lock half of one beta activation: merge and fan out whatever
/// [`beta_locked`] collected. Runs with no lock held.
#[allow(clippy::too_many_arguments)]
fn beta_post<N: ReteView + ?Sized>(
    net: &N,
    act: &Activation,
    post: Post,
    matches: &[(Token, i32)],
    min_node: NodeId,
    work: &mut Work,
    emit: &mut dyn FnMut(Activation),
    cs_emit: &mut dyn FnMut(CsChange),
) {
    match post {
        Post::None => {}
        Post::Cs { prod } => {
            cs_emit(CsChange { prod, token: act.token.clone(), delta: act.delta });
            work.emitted = 1;
        }
        Post::Join => {
            let node = net.node(act.node);
            for (t, w) in matches {
                let out = match act.side {
                    Side::Left => merge_token(node, &act.token, t),
                    Side::Right => merge_token(node, t, &act.token),
                };
                work.emitted += emit_children(net, node, out, act.delta * w, min_node, emit);
            }
        }
        Post::NegGate { fire } => {
            if fire {
                let node = net.node(act.node);
                work.emitted +=
                    emit_children(net, node, act.token.clone(), act.delta, min_node, emit);
            }
        }
        Post::NegTransitions => {
            let node = net.node(act.node);
            for (t, d) in matches {
                if *d != 0 {
                    work.emitted += emit_children(net, node, t.clone(), *d, min_node, emit);
                }
            }
        }
    }
}

/// Process one beta activation, reusing `scratch` across calls. Returns the
/// task's work and the spins it took to reach its line.
///
/// `mem` is the table as the caller holds it, and that decides how the
/// activation's line is reached ([`Lines`]): `&MemoryTable` takes the
/// line's lock, `&mut MemoryTable` — a table nobody else can be in —
/// borrows the line.
///
/// `min_node` filters emissions during the run-time state update (§5.2):
/// child activations targeting nodes below it are dropped. Use 0 for normal
/// matching.
#[allow(clippy::too_many_arguments)]
pub fn process_beta_scratch<N: ReteView + ?Sized>(
    net: &N,
    mut mem: impl Lines,
    store: &WmeStore,
    act: &Activation,
    min_node: NodeId,
    scratch: &mut BetaScratch,
    emit: &mut dyn FnMut(Activation),
    cs_emit: &mut dyn FnMut(CsChange),
) -> (Work, u64) {
    let mut work = Work::default();
    scratch.matches.clear();
    let Some(arr) = plan_parts(net, &mem, store, act) else {
        return (work, 0); // Root: no memory, no emission.
    };
    work.line = Some(arr.line());
    // The side the token arrives on is the bucket it is stored in (a P
    // node's one input is its left).
    let (mut g, spins) = mem.reach(arr.line(), act.side);
    let post = beta_locked(net, &mut g, store, act, &arr, &mut scratch.matches, &mut work);
    drop(g);
    beta_post(net, act, post, &scratch.matches, min_node, &mut work, emit, cs_emit);
    scratch.matches.clear();
    (work, spins)
}

fn emit_children<N: ReteView + ?Sized>(
    net: &N,
    node: &BetaNode,
    token: Token,
    delta: i32,
    min_node: NodeId,
    emit: &mut dyn FnMut(Activation),
) -> u32 {
    if delta == 0 {
        return 0;
    }
    // A node's own edges first, then any overlay splices: together these
    // reproduce the monolithic successor append order (see `session.rs`).
    // `edge_live` masks edges into a session's retired pool (constant true
    // on a monolithic network, which unplugs retired nodes physically).
    let mut live = node
        .out_edges
        .iter()
        .chain(net.extra_out_edges(node.id))
        .copied()
        .filter(|&(child, _)| child >= min_node && net.edge_live(child));
    // The last live child takes the token itself, the others a clone.
    let Some(mut last) = live.next() else {
        return 0;
    };
    let mut n = 1;
    for next in live {
        let (node, side) = std::mem::replace(&mut last, next);
        emit(Activation { node, side, token: token.clone(), delta });
        n += 1;
    }
    let (node, side) = last;
    emit(Activation { node, side, token, delta });
    n
}

/// Push one wme change through the alpha network, emitting right
/// activations on every successor of every matching alpha memory. Returns
/// the task's work: the discrimination counts and the activations emitted.
pub fn process_wme_change<N: ReteView + ?Sized>(
    net: &N,
    store: &WmeStore,
    wme: WmeId,
    delta: i32,
    min_node: NodeId,
    emit: &mut dyn FnMut(Activation),
) -> Work {
    // One unit token shared across the whole fan-out: the store caches it
    // per wme, so every successor (and every later alpha task for this
    // wme) takes a refcount bump instead of a fresh allocation.
    let token = store.unit_token(wme).clone();
    let w = store.get(wme).clone();
    let mut emitted = 0u32;
    let work = net.classify_wme(&w, &mut |child, side| {
        if child >= min_node && net.edge_live(child) {
            emit(Activation { node: child, side, token: token.clone(), delta });
            emitted += 1;
        }
    });
    Work { emitted, ..work }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ReteBuild;
    use crate::memory::MemoryTable;
    use crate::network::{NetworkOrg, ReteNetwork};
    use psme_ops::{parse_production, parse_wme, ClassRegistry, Value};
    use std::sync::Arc;

    fn setup() -> (ClassRegistry, ReteNetwork, MemoryTable, WmeStore) {
        let mut r = ClassRegistry::new();
        r.declare_str("a", &["x", "y"]);
        r.declare_str("b", &["x", "y"]);
        let mut net = ReteNetwork::new();
        let p = parse_production("(p t (a ^x <v>) (b ^x <v>) --> (halt))", &mut r).unwrap();
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
        (r, net, MemoryTable::new(64), WmeStore::new())
    }

    fn drain(
        net: &ReteNetwork,
        mem: &MemoryTable,
        store: &WmeStore,
        seed: Activation,
    ) -> Vec<CsChange> {
        let mut queue = vec![seed];
        let mut cs = Vec::new();
        let mut scratch = BetaScratch::default();
        while let Some(act) = queue.pop() {
            process_beta_scratch(net, mem, store, &act, 0, &mut scratch, &mut |a| queue.push(a), &mut |c| {
                cs.push(c)
            });
        }
        cs
    }

    #[test]
    fn make_key_extracts_values_and_ids() {
        use crate::memory::KeyElem;
        use crate::node::KeyPart;
        let (r, _, _, mut store) = setup();
        let (id, _) = store.add(parse_wme("(a ^x 7 ^y blue)", &r).unwrap());
        let t = Token::unit(id);
        let of = |part| KeyElem::of(part, &t, &store);
        assert_eq!(of(KeyPart::Val { slot: 0, field: 0 }), KeyElem::V(Value::Int(7)));
        assert_eq!(of(KeyPart::Id { slot: 0 }), KeyElem::W(id));
    }

    #[test]
    fn delete_before_add_annihilates() {
        // Counting semantics: a delete overtaking its add leaves a −1 entry
        // that the add cancels; the net conflict-set delta is zero.
        let (r, net, mem, mut store) = setup();
        let (wa, _) = store.add(parse_wme("(a ^x 1)", &r).unwrap());
        let (wb, _) = store.add(parse_wme("(b ^x 1)", &r).unwrap());
        // Add both wmes normally: one instantiation appears.
        let mut cs = Vec::new();
        for (w, d) in [(wa, 1), (wb, 1)] {
            let mut pending = Vec::new();
            process_wme_change(&net, &store, w, d, 0, &mut |a| pending.push(a));
            for a in pending {
                cs.extend(drain(&net, &mem, &store, a));
            }
        }
        let net_weight: i32 = cs.iter().map(|c| c.delta).sum();
        assert_eq!(net_weight, 1);

        // Now process the DELETE of wb before a (simulated) re-add with the
        // same token: the memory transiently holds a −1 right entry.
        let mut del_acts = Vec::new();
        process_wme_change(&net, &store, wb, -1, 0, &mut |a| del_acts.push(a));
        let mut add_acts = Vec::new();
        process_wme_change(&net, &store, wb, 1, 0, &mut |a| add_acts.push(a));
        // Deliver the add FIRST to one node and the delete first to the
        // other order — here simply: delete processed, then add.
        let mut cs2 = Vec::new();
        for a in del_acts.into_iter().chain(add_acts) {
            cs2.extend(drain(&net, &mem, &store, a));
        }
        let net2: i32 = cs2.iter().map(|c| c.delta).sum();
        assert_eq!(net2, 0, "delete+add cancel");
        assert_quiescent(&net, &mem, &store);
    }

    #[test]
    fn min_node_filter_suppresses_old_targets() {
        let (r, net, mem, mut store) = setup();
        let (wa, _) = store.add(parse_wme("(a ^x 1)", &r).unwrap());
        let mut emitted = Vec::new();
        // Filter above every node id: nothing may be emitted.
        process_wme_change(&net, &store, wa, 1, 10_000, &mut |a| emitted.push(a));
        assert!(emitted.is_empty());
        let work = process_wme_change(&net, &store, wa, 1, 0, &mut |_| {});
        assert!(work.scanned > 0);
        assert_eq!(work.emitted, 1, "one successor at the join's right input");
        let _ = mem;
    }

    #[test]
    fn root_children_join_against_implicit_empty_token() {
        let (r, net, mem, mut store) = setup();
        let (wa, _) = store.add(parse_wme("(a ^x 9)", &r).unwrap());
        let mut acts = Vec::new();
        process_wme_change(&net, &store, wa, 1, 0, &mut |a| acts.push(a));
        assert_eq!(acts.len(), 1);
        let mut emitted = Vec::new();
        let work = process_beta(&net, &mem, &store, &acts[0], 0, &mut |a| emitted.push(a), &mut |_| {});
        // The first-level join emits a 1-wme token downstream.
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].token.len(), 1);
        assert_eq!(work.scanned, 1, "the implicit empty token counts as one scan");
    }

    #[test]
    fn indexed_and_reference_probes_agree_and_account_differently() {
        // Two memories over the same 1-line table (every node co-hashed):
        // indexed probes must emit the same matches as the reference
        // whole-line scan, with `skipped` > 0 only in reference mode and
        // `hash_rejects` > 0 only in indexed mode.
        let (r, net, _, mut store) = setup();
        for mode in [true, false] {
            let mem = if mode { MemoryTable::new(1) } else { MemoryTable::reference(1) };
            let mut cs = Vec::new();
            let mut sum = Work::default();
            // Several (a, b) pairs with distinct keys: only the same-key
            // pair joins; different-key right entries are hash-rejectable.
            let mut ids = Vec::new();
            for i in 0..4 {
                ids.push(store.add(parse_wme(&format!("(a ^x {i})"), &r).unwrap()).0);
                ids.push(store.add(parse_wme(&format!("(b ^x {i})"), &r).unwrap()).0);
            }
            for &w in &ids {
                let mut pending = Vec::new();
                process_wme_change(&net, &store, w, 1, 0, &mut |a| pending.push(a));
                let mut queue = pending;
                while let Some(act) = queue.pop() {
                    sum += process_beta(&net, &mem, &store, &act, 0, &mut |a| queue.push(a), &mut |c| {
                        cs.push(c)
                    });
                }
            }
            let net_weight: i32 = cs.iter().map(|c| c.delta).sum();
            assert_eq!(net_weight, 4, "one instantiation per pair (mode {mode})");
            if mode {
                assert!(sum.hash_rejects > 0, "indexed probes hash-reject");
                assert_eq!(sum.skipped, 0, "run bounds never visit other nodes");
            } else {
                assert_eq!(sum.hash_rejects, 0, "reference scan never hash-rejects");
                assert!(sum.skipped > 0, "whole-line scan traverses other nodes");
            }
            assert_quiescent(&net, &mem, &store);
        }
    }
}
