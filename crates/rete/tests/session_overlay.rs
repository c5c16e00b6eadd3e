//! Overlay-splice differential: a session that learns chunks into its
//! private overlay over a frozen shared base must be indistinguishable —
//! in match results *and* network shape — from a freshly built monolithic
//! network containing the same productions.
//!
//! Three-way comparison per random system and change stream:
//!
//! 1. **session** — `SerialEngine<SessionNet>` over a frozen [`Topology`],
//!    chunks added at run time into the overlay (splices onto the frozen
//!    base recorded as session-local deltas);
//! 2. **incremental monolithic** — `SerialEngine<ReteNetwork>` with the
//!    same base, same run-time additions, mutating the network in place;
//! 3. **fresh monolithic** — a network compiled with base *and* chunks up
//!    front, fed a replay of the full change history.
//!
//! All three must agree with each other and with the brute-force
//! [`naive`] oracle after every batch, and the session's view (base +
//! overlay + splices) must be node-for-node, edge-for-edge identical to
//! the incremental monolithic network.
//!
//! A reorganization leg then rebuilds productions on the first two: both
//! residences must retire the same nodes, the session masking what the
//! monolithic network unplugs, and stay identical over live edges.

use psme_ops::{intern, parse_production, ClassRegistry, Instantiation, Production, Wme, WmeId};
use psme_rete::testgen::{random_system, GenConfig, XorShift};
use psme_rete::{
    naive, plan_bilinear, NetworkOrg, NodeId, ReteBuild, ReteNetwork, ReteView, SerialEngine,
    SessionNet, Topology,
};
use std::collections::HashSet;
use std::sync::Arc;

fn inst_set(v: Vec<Instantiation>) -> HashSet<Instantiation> {
    v.into_iter().collect()
}

/// Compile `prods` (in order) into a fresh monolithic network.
fn monolithic(prods: &[Production], org: &dyn Fn(&Production) -> NetworkOrg) -> ReteNetwork {
    let mut net = ReteNetwork::new();
    for p in prods {
        net.add_production(Arc::new(p.clone()), org(p)).unwrap();
    }
    net
}

/// The session's effective successor list for a node: its own edges (base
/// or overlay) followed by any session-local splices, less the edges to
/// nodes a reorganization masked (the monolithic network unplugs those).
fn session_edges(sess: &SessionNet, id: NodeId) -> Vec<(NodeId, psme_rete::Side)> {
    let edges = sess.node(id).out_edges.iter().chain(sess.extra_out_edges(id));
    edges.copied().filter(|&(c, _)| !sess.is_retired(c)).collect()
}

/// Base + overlay + live splices must equal the monolithic network node
/// for node: same count, same per-node successor order (the monolithic
/// append order), same production count.
fn assert_same_shape(mono: &ReteNetwork, sess: &SessionNet, ctx: &str) {
    assert_eq!(mono.num_nodes(), sess.num_nodes(), "{ctx}: node count");
    assert_eq!(mono.num_prods(), sess.num_prods(), "{ctx}: production count");
    for id in 0..mono.num_nodes() as NodeId {
        let mono_edges = &ReteView::node(mono, id).out_edges;
        assert_eq!(*mono_edges, session_edges(sess, id), "{ctx}: node {id} successor order");
    }
}

/// Drive the three engines and the oracle through one random system.
///
/// The generated productions are split: the first half form the shared
/// base (compiled before freeze), the second half play the role of chunks
/// learned at run time after working memory is already populated.
fn run_differential(seed: u64, org: &dyn Fn(&Production) -> NetworkOrg) {
    let sys = random_system(seed, GenConfig::default());
    let (base, chunks) = sys.productions.split_at(sys.productions.len() / 2);
    if chunks.is_empty() {
        return;
    }

    // Incremental monolithic engine and the frozen-base session engine.
    let mut mono = SerialEngine::new(monolithic(base, org));
    let topo = Topology::freeze(monolithic(base, org));
    let base_nodes = topo.num_nodes();
    let mut sess = SerialEngine::new(SessionNet::new(topo.clone()));
    assert_same_shape(&mono.net, &sess.net, &format!("seed {seed} pre-chunk"));

    let mut rng = XorShift::new(seed ^ 0x5E55_10AD);
    // Full change history, replayed later into the fresh monolithic engine.
    let mut history: Vec<(Vec<Wme>, Vec<WmeId>)> = Vec::new();
    let batch = |mono: &mut SerialEngine, sess: &mut SerialEngine<SessionNet>,
                     rng: &mut XorShift,
                     history: &mut Vec<(Vec<Wme>, Vec<WmeId>)>| {
        let adds: Vec<Wme> = (0..rng.below(3) + 1).map(|_| sys.random_wme(rng)).collect();
        let alive: Vec<WmeId> = mono.state.store.iter_alive().map(|(id, _)| id).collect();
        let mut removes = Vec::new();
        if !alive.is_empty() && rng.chance(50) {
            removes.push(alive[rng.below(alive.len())]);
        }
        mono.apply_changes(adds.clone(), removes.clone());
        sess.apply_changes(adds.clone(), removes.clone());
        history.push((adds, removes));
    };

    // Phase 1: populate working memory with only the base compiled.
    for b in 0..4 {
        batch(&mut mono, &mut sess, &mut rng, &mut history);
        let expected = naive::match_all(base.iter(), &mono.state.store);
        let ctx = format!("seed {seed} phase 1 batch {b}");
        assert_eq!(inst_set(mono.current_instantiations()), expected, "{ctx}: monolithic");
        assert_eq!(inst_set(sess.current_instantiations()), expected, "{ctx}: session");
    }

    // Phase 2: learn the chunks at run time — overlay vs in-place — against
    // the now-populated working memory (§5.2 update on both paths). The
    // AddResult (node ids, production index, sharing counts) must coincide.
    for (ci, c) in chunks.iter().enumerate() {
        let rm = mono.add_production(Arc::new(c.clone()), org(c)).unwrap();
        let rs = sess.add_production(Arc::new(c.clone()), org(c)).unwrap();
        assert_eq!(rm.add, rs.add, "seed {seed} chunk {ci}: AddResult");
        assert!(rm.cs.removed.is_empty() && rs.cs.removed.is_empty());
        assert_eq!(
            inst_set(rm.cs.added.clone()),
            inst_set(rs.cs.added),
            "seed {seed} chunk {ci}: immediate instantiations"
        );
        assert_eq!(
            inst_set(rm.cs.added),
            inst_set(naive::match_production(c, &mono.state.store)),
            "seed {seed} chunk {ci}: oracle on the new production"
        );
    }
    assert_same_shape(&mono.net, &sess.net, &format!("seed {seed} post-chunk"));
    assert_eq!(sess.net.overlay_prods(), chunks.len(), "seed {seed}: chunks in overlay");
    assert_eq!(
        sess.net.overlay_nodes(),
        sess.net.num_nodes() - base_nodes,
        "seed {seed}: overlay holds exactly the growth"
    );
    assert_eq!(topo.num_nodes(), base_nodes, "seed {seed}: frozen base untouched");

    // Phase 3: keep mutating working memory with the chunks live.
    for b in 0..4 {
        batch(&mut mono, &mut sess, &mut rng, &mut history);
        let expected = naive::match_all(sys.productions.iter(), &mono.state.store);
        let ctx = format!("seed {seed} phase 3 batch {b}");
        assert_eq!(inst_set(mono.current_instantiations()), expected, "{ctx}: monolithic");
        assert_eq!(inst_set(sess.current_instantiations()), expected, "{ctx}: session");
    }

    // Fresh monolithic network with base + chunks compiled up front, fed
    // the identical change history (same WME id assignment), must land on
    // the same match state — and the same node count as base + overlay.
    let mut fresh = SerialEngine::new(monolithic(&sys.productions, org));
    for (adds, removes) in history {
        fresh.apply_changes(adds, removes);
    }
    assert_eq!(fresh.net.num_nodes(), sess.net.num_nodes(), "seed {seed}: fresh node count");
    let expected = naive::match_all(sys.productions.iter(), &fresh.state.store);
    assert_eq!(inst_set(fresh.current_instantiations()), expected, "seed {seed}: fresh");
    assert_eq!(inst_set(sess.current_instantiations()), expected, "seed {seed}: session vs fresh");
}

#[test]
fn overlay_chunks_match_monolithic_linear() {
    for seed in 0..40 {
        run_differential(seed, &|_| NetworkOrg::Linear);
    }
}

#[test]
fn overlay_chunks_match_monolithic_bilinear() {
    // Bilinear chunk compilation produces different share points and splice
    // patterns onto the frozen base than the linear chains do.
    for seed in 100..130 {
        run_differential(seed, &|p| match plan_bilinear(p, 1) {
            Some(groups) if groups.len() >= 2 => NetworkOrg::Bilinear(groups),
            _ => NetworkOrg::Linear,
        });
    }
}

#[test]
fn overlay_never_mutates_the_shared_base() {
    // Two sessions over one topology learn *different* chunk sets; each
    // must match its own monolithic twin, and neither sees the other's
    // chunks (the base Arc is shared — any leak through it would cross).
    for seed in 200..220 {
        let sys = random_system(seed, GenConfig::default());
        if sys.productions.len() < 3 {
            continue;
        }
        let (base, rest) = sys.productions.split_at(sys.productions.len() / 3);
        let (chunks_a, chunks_b) = rest.split_at(rest.len() / 2);
        if chunks_a.is_empty() || chunks_b.is_empty() {
            continue;
        }
        let org = |_: &Production| NetworkOrg::Linear;
        let topo = Topology::freeze(monolithic(base, &org));
        let mut sa = SerialEngine::new(SessionNet::new(topo.clone()));
        let mut sb = SerialEngine::new(SessionNet::new(topo.clone()));

        let mut rng = XorShift::new(seed ^ 0xB0B0);
        let mut adds: Vec<Wme> = (0..6).map(|_| sys.random_wme(&mut rng)).collect();
        adds.dedup();
        sa.apply_changes(adds.clone(), vec![]);
        sb.apply_changes(adds.clone(), vec![]);
        for c in chunks_a {
            sa.add_production(Arc::new(c.clone()), NetworkOrg::Linear).unwrap();
        }
        for c in chunks_b {
            sb.add_production(Arc::new(c.clone()), NetworkOrg::Linear).unwrap();
        }
        let more: Vec<Wme> = (0..4).map(|_| sys.random_wme(&mut rng)).collect();
        sa.apply_changes(more.clone(), vec![]);
        sb.apply_changes(more, vec![]);

        let visible_a: Vec<Production> = base.iter().chain(chunks_a).cloned().collect();
        let visible_b: Vec<Production> = base.iter().chain(chunks_b).cloned().collect();
        assert_eq!(
            inst_set(sa.current_instantiations()),
            naive::match_all(visible_a.iter(), &sa.state.store),
            "seed {seed}: session A sees base + its own chunks only"
        );
        assert_eq!(
            inst_set(sb.current_instantiations()),
            naive::match_all(visible_b.iter(), &sb.state.store),
            "seed {seed}: session B sees base + its own chunks only"
        );
        assert_eq!(topo.num_nodes() + sa.net.overlay_nodes(), sa.net.num_nodes());
        assert_eq!(topo.num_nodes() + sb.net.overlay_nodes(), sb.net.num_nodes());
    }
}

/// The organization a reorganization leg rebuilds `p` with: bilinear when
/// it is all-positive and has a plan, else linear.
fn rebuild_org(p: &Production) -> NetworkOrg {
    match plan_bilinear(p, 1) {
        Some(groups) if p.ces.iter().all(|c| c.is_pos()) => NetworkOrg::Bilinear(groups),
        _ => NetworkOrg::Linear,
    }
}

/// Rebuild production `prod_idx` on both residences and demand the same
/// outcome, retired-node count included.
fn reorganize_both(
    mono: &mut SerialEngine,
    sess: &mut SerialEngine<SessionNet>,
    prod_idx: u32,
    p: &Production,
    ctx: &str,
) {
    let rm = mono.reorganize_production(prod_idx, rebuild_org(p));
    let rs = sess.reorganize_production(prod_idx, rebuild_org(p));
    assert_eq!(rm, rs, "{ctx}: reorganizing production {prod_idx}");
}

/// The session retired (masked) exactly the nodes the monolithic network
/// retired (unplugged), and the two agree edge for edge over what is live.
fn assert_same_retirement(mono: &ReteNetwork, sess: &SessionNet, ctx: &str) {
    assert_eq!(mono.retired_nodes(), sess.retired_nodes(), "{ctx}: retired count");
    for id in 0..mono.num_nodes() as NodeId {
        assert_eq!(mono.is_retired(id), sess.is_retired(id), "{ctx}: node {id} retired");
    }
    assert_same_shape(mono, sess, ctx);
}

/// Reorganization leg. Both residences learn the system's second half and
/// a renamed twin of every base production (a chunk whose conditions an
/// existing production already tests), so base nodes carry chunk names.
/// Then every base production, and the twin of the first one with a
/// bilinear plan, are rebuilt on both.
fn run_reorg_differential(seed: u64) {
    let sys = random_system(seed, GenConfig::default());
    let (base, chunks) = sys.productions.split_at(sys.productions.len() / 2);
    if base.is_empty() {
        return;
    }
    let twins: Vec<Production> = base
        .iter()
        .map(|p| Production { name: intern(&format!("{}-twin", p.name)), ..p.clone() })
        .collect();
    let linear = |_: &Production| NetworkOrg::Linear;
    let mut mono = SerialEngine::new(monolithic(base, &linear));
    let mut sess = SerialEngine::new(SessionNet::new(Topology::freeze(monolithic(base, &linear))));
    let mut rng = XorShift::new(seed ^ 0x2E0A_6000);
    let mut feed = |mono: &mut SerialEngine, sess: &mut SerialEngine<SessionNet>, n: usize| {
        let adds: Vec<Wme> = (0..n).map(|_| sys.random_wme(&mut rng)).collect();
        mono.apply_changes(adds.clone(), vec![]);
        sess.apply_changes(adds, vec![]);
    };
    feed(&mut mono, &mut sess, 8);
    for c in chunks.iter().chain(&twins) {
        let rm = mono.add_production(Arc::new(c.clone()), NetworkOrg::Linear).unwrap();
        let rs = sess.add_production(Arc::new(c.clone()), NetworkOrg::Linear).unwrap();
        assert_eq!(rm.add, rs.add, "seed {seed}: chunk AddResult");
    }
    let ctx = format!("seed {seed}");
    for (i, p) in base.iter().enumerate() {
        reorganize_both(&mut mono, &mut sess, i as u32, p, &ctx);
    }
    let t = base.iter().position(|p| rebuild_org(p) != NetworkOrg::Linear).unwrap_or(0);
    let twin_idx = (sys.productions.len() + t) as u32;
    reorganize_both(&mut mono, &mut sess, twin_idx, &twins[t], &ctx);
    assert_same_retirement(&mono.net, &sess.net, &format!("{ctx} post-reorg"));
    feed(&mut mono, &mut sess, 6);
    let expected = naive::match_all(sys.productions.iter().chain(&twins), &mono.state.store);
    assert_eq!(inst_set(mono.current_instantiations()), expected, "{ctx}: monolithic");
    assert_eq!(inst_set(sess.current_instantiations()), expected, "{ctx}: session");
}

#[test]
fn overlay_reorganization_retires_what_monolithic_retires() {
    for seed in 300..340 {
        run_reorg_differential(seed);
    }
}

#[test]
fn overlay_retires_a_base_chain_once_every_sharer_is_rebuilt() {
    // `pp` and `qq` share one linear chain of five joins. Rebuilding `pp`
    // retires only its P node: `qq` still uses the four joins past the
    // bilinear prefix. Rebuilding `qq` then leaves them with no name, so
    // they retire too — in the frozen base of a session as in a monolithic
    // network.
    let mut r = ClassRegistry::new();
    for class in ["a", "b", "c", "d", "e"] {
        r.declare_str(class, &["x", "y"]);
    }
    let lhs = "(a ^x <v>) (b ^x <v> ^y <w>) (c ^x <v> ^y <u>) (d ^x <w>) (e ^x <u>)";
    let prods: Vec<Production> = ["pp", "qq"]
        .iter()
        .map(|name| parse_production(&format!("(p {name} {lhs} --> (halt))"), &mut r).unwrap())
        .collect();
    let linear = |_: &Production| NetworkOrg::Linear;
    let mut mono = SerialEngine::new(monolithic(&prods, &linear));
    let topo = Topology::freeze(monolithic(&prods, &linear));
    let mut sess = SerialEngine::new(SessionNet::new(topo));
    let plan = NetworkOrg::Bilinear(vec![vec![0], vec![1, 3], vec![2, 4]]);
    let mut retired = Vec::new();
    for idx in 0..2 {
        let rm = mono.reorganize_production(idx, plan.clone()).unwrap();
        let rs = sess.reorganize_production(idx, plan.clone()).unwrap();
        assert_eq!(rm, rs, "reorganizing production {idx}");
        retired.push(rs.retired);
    }
    assert_eq!(retired, [1, 4], "P node first, then the four joins past the prefix");
    assert_eq!(sess.net.num_nodes(), 15);
    assert_same_retirement(&mono.net, &sess.net, "pp + qq");
}

#[test]
fn a_failed_build_leaves_no_name_on_the_chain_it_shared() {
    // `bad` shares `pp`'s first three joins (bilinear group 0 and the
    // chain of group 1), then fails: its group `[4]` tests `<u>`, which
    // group `[2]` binds. The shared joins must not keep its name, so
    // rebuilding `pp` retires every old node the new chain does not reuse,
    // in both residences, as if `bad` had never been tried.
    let mut r = ClassRegistry::new();
    for class in ["a", "b", "c", "d", "e"] {
        r.declare_str(class, &["x", "y"]);
    }
    let lhs = "(a ^x <v>) (b ^x <v> ^y <w>) (c ^x <v> ^y <u>) (d ^x <w>) (e ^x <u>)";
    let pp = parse_production(&format!("(p pp {lhs} --> (halt))"), &mut r).unwrap();
    let bad = Arc::new(parse_production(&format!("(p bad {lhs} --> (halt))"), &mut r).unwrap());
    let linear = |_: &Production| NetworkOrg::Linear;
    let mut mono = SerialEngine::new(monolithic(std::slice::from_ref(&pp), &linear));
    let topo = Topology::freeze(monolithic(std::slice::from_ref(&pp), &linear));
    let mut sess = SerialEngine::new(SessionNet::new(topo));
    let failing = NetworkOrg::Bilinear(vec![vec![0, 1], vec![2], vec![4], vec![3]]);
    let err = mono.add_production(bad.clone(), failing.clone()).unwrap_err();
    assert!(err.0.contains("outside this chain"), "{err}");
    assert!(sess.add_production(bad, failing).is_err());
    let plan = NetworkOrg::Bilinear(vec![vec![0], vec![1, 3], vec![2, 4]]);
    let rm = mono.reorganize_production(0, plan.clone()).unwrap();
    let rs = sess.reorganize_production(0, plan).unwrap();
    assert_eq!(rm, rs);
    assert_eq!(rs.retired, 4, "the P node and the joins on c, d and e");
    assert_same_retirement(&mono.net, &sess.net, "pp after a failed bad");
}
