//! Differential properties for the beta-memory overhaul: the indexed
//! probe path (hash-first rejection + per-node line runs) must be
//! observationally identical to the reference whole-line scan it replaced,
//! over arbitrary add/delete interleavings — including deletes overtaking
//! adds, Neg not-counters and NCC subnetworks — plus an exact-accounting
//! fixture for the new `hash_rejects` / `entries_skipped` counters.
//!
//! And properties of where entries live and how they are found: a node's
//! stripe holds everything a whole-table sweep would find, neither keys at a
//! join nor tokens at a P node pile up on a few lines of the stripe, a hash
//! collision is not a match, and a line reached by `&mut` behaves like one
//! reached by its lock.

use proptest::prelude::*;
use psme_rete::testgen::{random_system, GenConfig, XorShift};
use psme_rete::ReteBuild;
use psme_ops::{intern, Value, Wme, WmeId};
use psme_rete::{
    assert_quiescent, key_hash, process_beta, process_wme_change, token_hash, Activation, CsChange,
    KeyPart, MatchState, MemoryTable, NetworkOrg, NodeId, ReteNetwork, SerialEngine, Side,
    TaskKind, Token, WmeStore, Work, STRIPE,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

fn build_net(sys: &psme_rete::testgen::GeneratedSystem) -> ReteNetwork {
    let mut net = ReteNetwork::new();
    for p in &sys.productions {
        net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
    }
    net
}

type NodeTokens = (NodeId, Vec<(Token, i32)>, Vec<(Token, i32)>);

/// Quiescent memory contents per node, order-normalized.
fn snapshot(net: &ReteNetwork, mem: &MemoryTable) -> Vec<NodeTokens> {
    let sort = |mut v: Vec<(Token, i32)>| {
        v.sort_by(|a, b| a.0.wmes().cmp(b.0.wmes()));
        v
    };
    (0..net.num_nodes() as NodeId)
        .map(|n| (n, sort(mem.tokens_of(n, Side::Left)), sort(mem.tokens_of(n, Side::Right))))
        .collect()
}

/// Everything observable about running `seeds` to quiescence through `step`
/// (one `process_beta` call): per-activation work, emissions in order.
fn observe(
    seeds: &[Activation],
    mut step: impl FnMut(&Activation, &mut dyn FnMut(Activation), &mut dyn FnMut(CsChange)) -> Work,
) -> (Vec<Work>, Vec<Activation>, Vec<CsChange>) {
    let (mut works, mut emitted, mut cs) = (Vec::new(), Vec::new(), Vec::new());
    for seed in seeds {
        let mut queue = vec![seed.clone()];
        while let Some(act) = queue.pop() {
            works.push(step(
                &act,
                &mut |a| {
                    emitted.push(a.clone());
                    queue.push(a)
                },
                &mut |c| cs.push(c),
            ));
        }
    }
    (works, emitted, cs)
}

/// Drain a queue of seed activations through one memory, returning the net
/// conflict-set weight per (production, token).
fn drain_all(
    net: &ReteNetwork,
    mem: &MemoryTable,
    store: &WmeStore,
    seeds: &[Activation],
) -> HashMap<(u32, Token), i32> {
    let (_, _, cs) =
        observe(seeds, |act, emit, cs| process_beta(net, mem, store, act, 0, emit, cs));
    let mut folded: HashMap<(u32, Token), i32> = HashMap::new();
    for c in cs {
        *folded.entry((c.prod, c.token)).or_insert(0) += c.delta;
    }
    folded.retain(|_, d| *d != 0);
    folded
}

/// The indexed table, or the reference whole-line-scan table it is checked
/// against.
fn table(indexed: bool, lines: usize) -> MemoryTable {
    if indexed {
        MemoryTable::new(lines)
    } else {
        MemoryTable::reference(lines)
    }
}

/// The key of a hand-stored entry: the int fields of its token's one wme.
fn int_key(fields: u16) -> Vec<KeyPart> {
    (0..fields).map(|field| KeyPart::Val { slot: 0, field }).collect()
}

/// A new wme with the int fields `vals`, as a unit token.
fn int_token(wmes: &mut WmeStore, vals: &[i64]) -> Token {
    let fields = vals.iter().map(|&v| Value::Int(v)).collect();
    Token::unit(wmes.add(Wme { class: intern("k"), fields }).0)
}

/// Store `token` at `node` the way an activation would: keyed by `key` (on
/// either side), on the line the node and the key's hash select.
fn store(
    mem: &MemoryTable,
    wmes: &WmeStore,
    node: NodeId,
    key: &[KeyPart],
    token: &Token,
    right: bool,
) -> u32 {
    let a = mem.arrival(node, token, key_hash(key, token, wmes), key, key, wmes);
    let (mut g, _) = mem.lock(a.line());
    if right {
        g.right.upsert(&a, 1);
    } else {
        g.left.upsert(&a, 1);
    }
    a.line()
}

/// Every stored entry, line by line: `(node, hash, token, weight, m)`.
type Contents = Vec<(Vec<(NodeId, u64, Token, i32, i32)>, Vec<(NodeId, u64, Token, i32)>)>;

fn contents(mem: &MemoryTable) -> Contents {
    (0..mem.num_lines() as u32)
        .map(|line| {
            let (g, _) = mem.lock(line);
            let left = g.left.entries().iter();
            let right = g.right.entries().iter();
            (
                left.map(|e| (e.node, e.hash, e.token.clone(), e.weight, e.m)).collect(),
                right.map(|e| (e.node, e.hash, e.token.clone(), e.weight)).collect(),
            )
        })
        .collect()
}

/// A random system's net, `n` wmes of which the ones from `del_from` on are
/// deleted again, and the add and delete activations of all of them in one
/// shuffled order — so a delete can run before its add.
fn partial_delete_stream(
    seed: u64,
    salt: u64,
    n: usize,
    del_from: usize,
) -> (ReteNetwork, WmeStore, Vec<Activation>) {
    let sys = random_system(seed, GenConfig { neg_pct: 50, ncc_pct: 30, ..GenConfig::default() });
    let net = build_net(&sys);
    let mut store = WmeStore::new();
    let mut rng = XorShift::new(seed ^ salt);
    let mut seeds: Vec<Activation> = Vec::new();
    for i in 0..n {
        let (id, _) = store.add(sys.random_wme(&mut rng));
        process_wme_change(&net, &store, id, 1, 0, &mut |a| seeds.push(a));
        if i >= del_from.min(n - 1) {
            store.remove(id);
            process_wme_change(&net, &store, id, -1, 0, &mut |a| seeds.push(a));
        }
    }
    for i in (1..seeds.len()).rev() {
        seeds.swap(i, rng.below(i + 1));
    }
    (net, store, seeds)
}

/// `node`'s left and right tokens found by sweeping every line of the table.
fn sweep(mem: &MemoryTable, node: NodeId) -> (Vec<Token>, Vec<Token>) {
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for line in 0..mem.num_lines() as u32 {
        let (g, _) = mem.lock(line);
        left.extend(g.left.entries().iter().filter(|e| e.node == node).map(|e| e.token.clone()));
        right.extend(g.right.entries().iter().filter(|e| e.node == node).map(|e| e.token.clone()));
    }
    (left, right)
}

fn sorted(mut v: Vec<Token>) -> Vec<Token> {
    v.sort_by(|a, b| a.wmes().cmp(b.wmes()));
    v
}

/// Longest run any line holds for `node`, over the whole table.
fn max_left_run(mem: &MemoryTable, node: NodeId) -> usize {
    (0..mem.num_lines() as u32)
        .map(|line| {
            let (s, e) = mem.lock(line).0.left.run(node);
            e - s
        })
        .max()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Stripe enumeration against the whole-table sweep it replaced, as
    /// multisets, on tables narrower than, as wide as and wider than a
    /// stripe; and purging some nodes empties exactly those.
    #[test]
    fn stripe_enumeration_equals_whole_table_sweep(
        lines in (0usize..6).prop_map(|i| [1usize, 2, 8, 64, 256, 4096][i]),
        entries in prop::collection::vec((0u32..40, -50i64..50, any::<bool>()), 1..200),
        purge in prop::collection::vec(0u32..40, 0..6),
    ) {
        let (mem, mut wmes, key) = (MemoryTable::new(lines), WmeStore::new(), int_key(1));
        for &(node, k, right) in &entries {
            let token = int_token(&mut wmes, &[k]);
            store(&mem, &wmes, node, &key, &token, right);
        }
        mem.assert_quiescent(&wmes, |_, _| Some(&key));
        let total: usize = (0..40)
            .map(|n| mem.tokens_of(n, Side::Left).len() + mem.tokens_of(n, Side::Right).len())
            .sum();
        prop_assert_eq!(total, entries.len());
        mem.purge_nodes(&purge);
        for node in 0..40 {
            let (left, right) = sweep(&mem, node);
            if purge.contains(&node) {
                prop_assert!(left.is_empty() && right.is_empty(), "node {} survived its purge", node);
            }
            let of = |v: Vec<(Token, i32)>| sorted(v.into_iter().map(|(t, _)| t).collect());
            prop_assert_eq!(of(mem.tokens_of(node, Side::Left)), sorted(left));
            prop_assert_eq!(of(mem.tokens_of(node, Side::Right)), sorted(right));
        }
    }

    /// Engine-level differential: a serial engine probing through the
    /// per-node index behaves bit-for-bit like one running the reference
    /// whole-line scan — same per-cycle conflict-set deltas, same
    /// instantiations, same quiescent memory contents, same candidates
    /// `scanned` task by task — on 2-line tables where every node co-hashes
    /// with others.
    #[test]
    fn indexed_memory_equals_reference_scan(
        seed in 0u64..10_000,
        script in prop::collection::vec((0u8..4, 0u16..200), 1..20),
    ) {
        let sys = random_system(seed, GenConfig::default());
        let mut engines: Vec<SerialEngine> = (0..2)
            .map(|i| {
                let state = MatchState { mem: table(i == 0, 2), store: WmeStore::new() };
                let mut e = SerialEngine::with_state(build_net(&sys), state);
                e.capture = true;
                e
            })
            .collect();
        let mut rng = XorShift::new(seed ^ 0xBEEF);
        for (op, pick) in script {
            let outs: Vec<_> = match op {
                0..=2 => {
                    let w = sys.random_wme(&mut rng);
                    engines.iter_mut().map(|e| e.apply_changes(vec![w.clone()], vec![])).collect()
                }
                _ => {
                    let alive: Vec<_> =
                        engines[0].state.store.iter_alive().map(|(id, _)| id).collect();
                    if alive.is_empty() {
                        continue;
                    }
                    let id = alive[pick as usize % alive.len()];
                    engines.iter_mut().map(|e| e.apply_changes(vec![], vec![id])).collect()
                }
            };
            prop_assert_eq!(&outs[0].cs.added, &outs[1].cs.added, "cycle adds diverge");
            prop_assert_eq!(&outs[0].cs.removed, &outs[1].cs.removed, "cycle removes diverge");
        }
        prop_assert_eq!(
            engines[0].current_instantiations(),
            engines[1].current_instantiations()
        );
        prop_assert_eq!(
            snapshot(&engines[0].net, &engines[0].state.mem),
            snapshot(&engines[1].net, &engines[1].state.mem)
        );
        let scanned = |e: &SerialEngine| -> Vec<u32> {
            let tasks = e.trace.cycles.iter().flat_map(|c| &c.tasks);
            tasks.filter(|t| t.kind != TaskKind::Alpha).map(|t| t.work.scanned).collect()
        };
        prop_assert_eq!(scanned(&engines[0]), scanned(&engines[1]));
        for e in &engines {
            assert_quiescent(&e.net, &e.state.mem, &e.state.store);
        }
    }

    /// Activation-level differential with deletes overtaking adds: both
    /// memory modes process the same shuffled interleaving of add and
    /// delete activations (so a delete can run before its add, leaving
    /// transient −1 entries) on a 1-line table and must agree on the net
    /// conflict set and on the (empty) quiescent memory. Neg not-counters
    /// and NCC subnetworks are exercised via the generator's neg/ncc CEs.
    #[test]
    fn shuffled_delete_overtakes_add(
        seed in 0u64..10_000,
        n in 2usize..8,
    ) {
        let sys = random_system(seed, GenConfig { neg_pct: 60, ncc_pct: 40, ..GenConfig::default() });
        let net = build_net(&sys);
        let mut store = WmeStore::new();
        let mut rng = XorShift::new(seed ^ 0xD00D);
        // Register n wmes; every one gets an add AND a delete seed, so the
        // net effect of the whole stream is zero.
        let mut seeds: Vec<Activation> = Vec::new();
        for _ in 0..n {
            let (id, _) = store.add(sys.random_wme(&mut rng));
            for delta in [1, -1] {
                process_wme_change(&net, &store, id, delta, 0, &mut |a| seeds.push(a));
            }
        }
        // One shuffle, shared by both modes: deletes routinely land first.
        for i in (1..seeds.len()).rev() {
            seeds.swap(i, rng.below(i + 1));
        }
        let mut results = Vec::new();
        for indexed in [true, false] {
            let mem = table(indexed, 1);
            let cs = drain_all(&net, &mem, &store, &seeds);
            assert_quiescent(&net, &mem, &store);
            prop_assert_eq!(snapshot(&net, &mem), snapshot(&net, &MemoryTable::new(1)),
                "add+delete pairs must annihilate (indexed={})", indexed);
            results.push(cs);
        }
        prop_assert_eq!(&results[0], &results[1], "net conflict sets diverge");
        prop_assert!(results[0].is_empty(), "balanced stream nets to zero: {:?}", results[0]);
    }

    /// Same interleaving differential, but unbalanced (only a suffix of the
    /// wmes is deleted): the two modes must agree on the surviving matches
    /// and memory contents, which are generally non-empty.
    #[test]
    fn shuffled_partial_deletes_agree(
        seed in 0u64..10_000,
        n in 2usize..8,
        del_from in 0usize..6,
    ) {
        let (net, store, seeds) = partial_delete_stream(seed, 0xCAFE, n, del_from);
        let mut results = Vec::new();
        for indexed in [true, false] {
            let mem = table(indexed, 1);
            let cs = drain_all(&net, &mem, &store, &seeds);
            assert_quiescent(&net, &mem, &store);
            results.push((cs, snapshot(&net, &mem)));
        }
        prop_assert_eq!(&results[0], &results[1]);
    }

    /// The two ways to reach a line are one behaviour: the same shuffled
    /// add/delete activations through a shared table (`&MemoryTable`, line
    /// locks) and through an owned one (`&mut MemoryTable`, no lock) give
    /// the same work activation by activation, the same
    /// emissions in the same order, and the same buckets entry for entry.
    #[test]
    fn a_borrowed_line_behaves_like_a_locked_one(
        seed in 0u64..10_000,
        n in 2usize..8,
        del_from in 0usize..6,
    ) {
        let (net, store, seeds) = partial_delete_stream(seed, 0xFACE, n, del_from);
        let shared = MemoryTable::new(2);
        let locked = observe(&seeds, |act, emit, cs| process_beta(&net, &shared, &store, act, 0, emit, cs));
        let mut owned = MemoryTable::new(2);
        let borrowed = observe(&seeds, |act, emit, cs| process_beta(&net, &mut owned, &store, act, 0, emit, cs));
        prop_assert_eq!(locked, borrowed);
        prop_assert_eq!(contents(&shared), contents(&owned));
        prop_assert_eq!(shared.take_access_counts(), owned.take_access_counts());
    }
}

/// 4096 distinct keys at one node use its whole stripe evenly: the offset
/// within the stripe must come from hash bits that sequential small keys
/// actually vary (FxHash's low bits do not).
#[test]
fn distinct_keys_fill_the_stripe_evenly() {
    // The i-th wme's fields, and the key read from them (the i-th wme's id
    // is i, so the last shape's keys are the ids 0..4096).
    type Fields = fn(i64) -> Vec<i64>;
    let shapes: [(&str, Fields, Vec<KeyPart>); 4] = [
        ("one int", |i| vec![i], int_key(1)),
        ("int, low bits constant", |i| vec![i << 12], int_key(1)),
        ("int pair", |i| vec![i % 64, i / 64], int_key(2)),
        ("wme id", |_| vec![], vec![KeyPart::Id { slot: 0 }]),
    ];
    for (what, fields, key) in shapes {
        let (mem, mut wmes) = (MemoryTable::new(4096), WmeStore::new());
        let node = 37;
        let mut used = BTreeSet::new();
        for i in 0..4096 {
            let token = int_token(&mut wmes, &fields(i));
            used.insert(store(&mem, &wmes, node, &key, &token, false));
        }
        assert_eq!(used.len(), STRIPE, "{what}: every stripe line is used");
        let max = max_left_run(&mem, node);
        assert!(max <= 2 * 4096 / STRIPE, "{what}: fullest line holds {max}, mean {}", 4096 / STRIPE);
        mem.assert_quiescent(&wmes, |_, _| Some(&key));
    }
}

/// 500 instantiations of one production spread over the P node's stripe
/// instead of sharing its empty key's line.
#[test]
fn p_node_tokens_do_not_share_a_line() {
    let (mem, wmes) = (MemoryTable::new(4096), WmeStore::new());
    let p_node = 91;
    for i in 0..500u32 {
        // Instantiations of one production differ in a slot or two.
        let token = Token::from_slice(&[WmeId(3), WmeId(17), WmeId(40 + i % 25), WmeId(8), WmeId(200 + i)]);
        let a = mem.arrival(p_node, &token, token_hash(&token), &[], &[], &wmes);
        mem.lock(a.line()).0.left.upsert(&a, 1);
    }
    assert_eq!(mem.tokens_of(p_node, Side::Left).len(), 500);
    let max = max_left_run(&mem, p_node);
    assert!(max <= 32, "one line holds {max} of 500 tokens");
}

/// A stored entry whose hash equals the arriving key's is still not a match
/// unless its key is: the probe recomputes the stored token's key and
/// compares it, in either kind of table.
#[test]
fn an_equal_hash_with_a_different_key_does_not_hit() {
    for indexed in [true, false] {
        let (mem, mut wmes, key) = (table(indexed, 1), WmeStore::new(), int_key(1));
        let stored = int_token(&mut wmes, &[1]);
        let (same_key, other_key) = (int_token(&mut wmes, &[1]), int_token(&mut wmes, &[2]));
        store(&mem, &wmes, 5, &key, &stored, true);
        let stored_hash = key_hash(&key, &stored, &wmes);
        assert_ne!(stored_hash, key_hash(&key, &other_key, &wmes));
        // Both arrive carrying the stored entry's hash — one honestly.
        for (arriving, hits) in [(&same_key, 1), (&other_key, 0)] {
            let a = mem.arrival(5, arriving, stored_hash, &key, &key, &wmes);
            let (mut work, mut found) = (Work::default(), 0);
            mem.lock(a.line()).0.right.probe(&a, &mut work, |t, _, _| {
                assert_eq!(t, &stored);
                found += 1;
            });
            assert_eq!(found, hits, "indexed {indexed}");
            assert_eq!((work.scanned, work.hash_rejects), (1, 0), "the hash let it through");
        }
    }
}

/// Exact accounting on a hand-built fixture: one two-join production on a
/// 1-line table, a fixed wme script, and hand-computed counter totals for
/// both memory modes (see the step-by-step derivation in the comments).
#[test]
fn exact_hash_reject_and_skip_accounting() {
    use psme_ops::{parse_production, parse_wme, ClassRegistry};
    let mut r = ClassRegistry::new();
    r.declare_str("a", &["x"]);
    r.declare_str("b", &["x"]);
    let prod = parse_production("(p t (a ^x <v>) (b ^x <v>) --> (halt))", &mut r).unwrap();

    let mut totals = Vec::new();
    for indexed in [true, false] {
        let mut net = ReteNetwork::new();
        net.add_production(Arc::new(prod.clone()), NetworkOrg::Linear).unwrap();
        let state = MatchState { mem: table(indexed, 1), store: WmeStore::new() };
        let mut e = SerialEngine::with_state(net, state);
        e.capture = true;
        // Step 1: a1 → J1 right (scans the implicit root token: scanned 1),
        //         emits [a1] → J2 left (right run empty: scanned 0; the
        //         reference whole-line scan traverses J1's a1 entry:
        //         skipped 1).
        e.apply_changes(vec![parse_wme("(a ^x 1)", &r).unwrap()], vec![]);
        // Step 2: b1 → J2 right (left holds J2:[a1] key=1: scanned 1,
        //         match) → P node (no scan). No other-node left entries yet.
        e.apply_changes(vec![parse_wme("(b ^x 1)", &r).unwrap()], vec![]);
        // Step 3: b2 (^x 2) → J2 right: candidate [a1] key=1 vs key=2 —
        //         scanned 1, hash-rejected when indexed; the reference scan
        //         also traverses the P node's stored token: skipped 1.
        e.apply_changes(vec![parse_wme("(b ^x 2)", &r).unwrap()], vec![]);
        // Step 4: a2 (^x 2) → J1 right (scanned 1), emits [a2] → J2 left:
        //         candidates b1 (hash-rejected when indexed) and b2
        //         (match): scanned 2; reference skips J1's {a1, a2}:
        //         skipped 2 → P node.
        e.apply_changes(vec![parse_wme("(a ^x 2)", &r).unwrap()], vec![]);

        let (mut scanned, mut rejects, mut skipped, mut prods) = (0u32, 0u32, 0u32, 0u32);
        for c in &e.trace.cycles {
            for t in &c.tasks {
                if t.kind == TaskKind::Alpha {
                    continue;
                }
                scanned += t.work.scanned;
                rejects += t.work.hash_rejects;
                skipped += t.work.skipped;
                if t.kind == TaskKind::Prod {
                    prods += 1;
                }
            }
        }
        assert_eq!(prods, 2, "two instantiations fire (indexed={indexed})");
        assert_eq!(scanned, 6, "candidates are mode-independent (indexed={indexed})");
        if indexed {
            assert_eq!(rejects, 2, "b2 vs [a1], then b1 vs [a2]");
            assert_eq!(skipped, 0, "run bounds never visit other nodes");
        } else {
            assert_eq!(rejects, 0, "reference scan never hash-rejects");
            assert_eq!(skipped, 4, "J1's a1 once, P's token once, J1's {{a1,a2}} once");
        }
        totals.push(e.current_instantiations());
    }
    assert_eq!(totals[0], totals[1], "both modes find the same matches");
}
