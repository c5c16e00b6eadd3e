//! Shared network topology + per-session chunk overlays.
//!
//! The serving regime (many concurrent Soar sessions over one worker pool)
//! splits the match network into:
//!
//! * [`Topology`] — a **frozen, immutable** compiled base network shared by
//!   every session via `Arc`. Alpha index, beta DAG, intern tables: all
//!   read-only after freeze.
//! * [`SessionNet`] — one per session: the shared base plus a
//!   session-private **overlay region**. Chunks a session learns at run
//!   time are compiled into the overlay exactly as §5.1 would append them
//!   to a monolithic network: node IDs are strictly increasing (overlay
//!   ids start at the base node count), alpha memories the chunk needs are
//!   either found in the frozen base intern table or interned privately
//!   above the base id range, and the successor-list splices a chunk would
//!   have performed on base nodes/memories are recorded as **overlay
//!   deltas** ([`SessionNet::extra_out_edges`], alpha splices) consulted
//!   during propagation instead of mutating the base.
//!
//! Because the overlay replays the monolithic append order exactly — same
//! id assignment, same per-node successor order (base edges first, then
//! splices in chronological order) — a session that learns chunk C over a
//! frozen base B is *node-for-node identical* to a monolithic network built
//! as B then C. That is the invariant the overlay-splice differential test
//! pins, and what makes serve-vs-solo traces bit-for-bit comparable.
//!
//! A session's engine is a [`JournaledSession`]: the serial engine over its
//! [`SessionNet`], recording every mutation into a [`Journal`] when the
//! session may hibernate (the byte format is [`crate::snapshot`]'s).
//!
//! No cross-session interference is possible by construction: the base is
//! behind an immutable `Arc`, and every mutable structure (overlay vectors,
//! splice maps, and the whole [`crate::state::MatchState`]) is owned by one
//! session.

use crate::alpha::{AlphaMemId, AlphaNet, AlphaTest, IntraTest};
use crate::build::ReteBuild;
use crate::network::{NetworkOrg, ProdInfo, ReteNetwork};
use crate::node::{BetaNode, NodeId, NodeKind, NodeSignature, RightSrc, Side};
use crate::serial::SerialEngine;
use crate::snapshot::{Journal, SnapOp, SnapshotError};
use crate::state::MatchState;
use crate::trace::Phase;
use crate::util::FxHashMap;
use crate::view::ReteView;
use crate::work::Work;
use psme_ops::{Production, Symbol, Wme, WmeId};
use std::sync::Arc;

/// An immutable, shareable compiled base network.
///
/// Freezing is a type-level promise: nothing hands out `&mut ReteNetwork`
/// again, so any number of sessions may read it concurrently.
pub struct Topology {
    net: ReteNetwork,
}

impl Topology {
    /// Freeze a compiled network into a shareable topology.
    pub fn freeze(net: ReteNetwork) -> Arc<Topology> {
        Arc::new(Topology { net })
    }

    /// The frozen network.
    #[inline]
    pub fn net(&self) -> &ReteNetwork {
        &self.net
    }

    /// Beta nodes in the base (including the root).
    pub fn num_nodes(&self) -> usize {
        self.net.num_nodes()
    }

    /// Productions compiled into the base.
    pub fn num_prods(&self) -> usize {
        self.net.prods.len()
    }
}

impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Topology({:?})", self.net)
    }
}

/// `true` when bit `i` is set. An empty bitmap (no splice ever recorded —
/// the base-only common case) answers in one bounds check.
#[inline]
fn bit_set(bits: &[u64], i: u32) -> bool {
    match bits.get((i >> 6) as usize) {
        Some(w) => w & (1u64 << (i & 63)) != 0,
        None => false,
    }
}

/// Set bit `i`, lazily allocating the bitmap to cover `cap` ids on first
/// use (sessions that never splice never pay for the words).
#[inline]
fn set_bit(bits: &mut Vec<u64>, cap: u32, i: u32) {
    if bits.is_empty() {
        bits.resize((cap as usize).div_ceil(64).max(1), 0);
    }
    bits[(i >> 6) as usize] |= 1u64 << (i & 63);
}

/// Set bit `i`, growing the bitmap as needed (the retired-node mask spans
/// base *and* overlay ids, and the overlay keeps growing after a reorg).
#[inline]
fn set_bit_grow(bits: &mut Vec<u64>, i: u32) {
    let word = (i >> 6) as usize;
    if bits.len() <= word {
        bits.resize(word + 1, 0);
    }
    bits[word] |= 1u64 << (i & 63);
}

/// A session's view of the network: shared frozen base + private overlay.
pub struct SessionNet {
    topo: Arc<Topology>,
    /// Base node / alpha-memory / production counts at freeze time (the
    /// overlay id offsets; constant because the base is immutable).
    base_nodes: NodeId,
    base_alpha: u32,
    base_prods: u32,
    sharing: bool,
    /// Overlay beta nodes; global id = `base_nodes + index`.
    over_betas: Vec<BetaNode>,
    /// Overlay productions; global index = `base_prods + index`.
    over_prods: Vec<ProdInfo>,
    /// Overlay alpha memories (local ids; global id = `base_alpha + local`).
    over_alpha: AlphaNet,
    /// Successor edges a chunk spliced onto *base* beta nodes.
    beta_splices: FxHashMap<NodeId, Vec<(NodeId, Side)>>,
    /// Successor edges a chunk spliced onto *base* alpha memories.
    alpha_splices: FxHashMap<u32, Vec<(NodeId, Side)>>,
    /// Presence bitmap over base beta nodes: bit set ⇔ `beta_splices` has
    /// an entry. Empty until the first splice, so the overwhelmingly common
    /// "no delta" case — every successor walk of a base-only session, and
    /// the resume path replaying a journal — is one branch on an empty Vec
    /// instead of an `FxHashMap` probe per node.
    beta_splice_bits: Vec<u64>,
    /// Same, over base alpha-memory ids for `alpha_splices`.
    alpha_splice_bits: Vec<u64>,
    /// Signature index over overlay nodes (chunk-to-chunk sharing).
    over_sigs: FxHashMap<NodeSignature, NodeId>,
    /// This session's production names for the *base* nodes whose names it
    /// has edited: the frozen list, plus the names it added, minus the
    /// names it dropped — the list the monolithic node would hold. Copied
    /// from the frozen node on first edit; an absent node has its frozen
    /// names.
    base_names: FxHashMap<NodeId, Vec<Symbol>>,
    /// Retired-node mask over **global** ids (base and overlay): a
    /// reorganization cannot unplug the frozen base's successor lists, so
    /// retired targets are masked out of propagation via
    /// [`ReteView::edge_live`] instead. Empty until the first reorg.
    retired_bits: Vec<u64>,
    /// Number of bits set in `retired_bits`.
    retired_count: usize,
    /// Replacement [`ProdInfo`] for *base* productions this session has
    /// reorganized (overlay productions are swapped in place). Empty in the
    /// common un-reorganized session.
    prod_overrides: FxHashMap<u32, ProdInfo>,
}

impl SessionNet {
    /// A fresh session view over a frozen base, with an empty overlay.
    pub fn new(topo: Arc<Topology>) -> SessionNet {
        let base_nodes = topo.net().num_nodes() as NodeId;
        let base_alpha = topo.net().alpha.len() as u32;
        let base_prods = topo.net().prods.len() as u32;
        let sharing = topo.net().sharing;
        let over_alpha = topo.net().alpha.empty_like();
        SessionNet {
            topo,
            base_nodes,
            base_alpha,
            base_prods,
            sharing,
            over_betas: Vec::new(),
            over_prods: Vec::new(),
            over_alpha,
            beta_splices: FxHashMap::default(),
            alpha_splices: FxHashMap::default(),
            beta_splice_bits: Vec::new(),
            alpha_splice_bits: Vec::new(),
            over_sigs: FxHashMap::default(),
            base_names: FxHashMap::default(),
            retired_bits: Vec::new(),
            retired_count: 0,
            prod_overrides: FxHashMap::default(),
        }
    }

    /// Was `id` masked out by a reorganization in this session?
    #[inline]
    pub fn is_retired(&self, id: NodeId) -> bool {
        bit_set(&self.retired_bits, id)
    }

    /// Nodes this session has retired (masked) via reorganization.
    pub fn retired_nodes(&self) -> usize {
        self.retired_count
    }

    /// The shared base topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Nodes in the session's private overlay region.
    pub fn overlay_nodes(&self) -> usize {
        self.over_betas.len()
    }

    /// Productions (chunks) in the overlay.
    pub fn overlay_prods(&self) -> usize {
        self.over_prods.len()
    }

    /// First overlay node id (== base node count at freeze).
    pub fn base_nodes(&self) -> NodeId {
        self.base_nodes
    }

    /// Total successor edges recorded as splices onto base nodes or base
    /// alpha memories (telemetry: the overlay's footprint on the base).
    pub fn splice_edges(&self) -> usize {
        self.beta_splices.values().map(Vec::len).sum::<usize>()
            + self.alpha_splices.values().map(Vec::len).sum::<usize>()
    }

    /// The names of the productions whose chains use node `id` in this
    /// session (a base node's frozen names, as this session edited them).
    pub fn prod_names_of(&self, id: NodeId) -> &[Symbol] {
        match self.base_names.get(&id) {
            Some(names) => names,
            None => &self.node(id).prod_names,
        }
    }

    /// Invariant check (tests): each presence bit is set iff its splice map
    /// has a (non-empty) entry.
    #[doc(hidden)]
    pub fn splice_bits_consistent(&self) -> bool {
        // A set bit with no map entry would only cost a wasted probe, but
        // the maintenance paths never leave one (rollback recomputes
        // exactly) — so demand exact agreement in both directions.
        (0..self.base_nodes)
            .all(|id| bit_set(&self.beta_splice_bits, id) == self.beta_splices.contains_key(&id))
            && (0..self.base_alpha).all(|id| {
                bit_set(&self.alpha_splice_bits, id) == self.alpha_splices.contains_key(&id)
            })
    }

    /// Wire `child` as a successor of `src`, splicing when `src` is a base
    /// node (the base is immutable) and appending in place when it is an
    /// overlay node.
    fn wire_edge(&mut self, src: NodeId, child: NodeId, side: Side) {
        if src < self.base_nodes {
            set_bit(&mut self.beta_splice_bits, self.base_nodes, src);
            self.beta_splices.entry(src).or_default().push((child, side));
        } else {
            self.over_betas[(src - self.base_nodes) as usize].out_edges.push((child, side));
        }
    }
}

impl ReteView for SessionNet {
    #[inline]
    fn node(&self, id: NodeId) -> &BetaNode {
        if id < self.base_nodes {
            self.topo.net().node(id)
        } else {
            &self.over_betas[(id - self.base_nodes) as usize]
        }
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        self.base_nodes as usize + self.over_betas.len()
    }

    #[inline]
    fn extra_out_edges(&self, id: NodeId) -> &[(NodeId, Side)] {
        if !bit_set(&self.beta_splice_bits, id) {
            return &[];
        }
        self.beta_splices.get(&id).map(|v| &v[..]).unwrap_or(&[])
    }

    #[inline]
    fn prod_info(&self, prod: u32) -> &ProdInfo {
        if prod < self.base_prods {
            if !self.prod_overrides.is_empty() {
                if let Some(info) = self.prod_overrides.get(&prod) {
                    return info;
                }
            }
            &self.topo.net().prods[prod as usize]
        } else {
            &self.over_prods[(prod - self.base_prods) as usize]
        }
    }

    #[inline]
    fn num_prods(&self) -> usize {
        self.base_prods as usize + self.over_prods.len()
    }

    fn classify_wme(&self, w: &Wme, hit: &mut dyn FnMut(NodeId, Side)) -> Work {
        // Base memories are hit in ascending id order; for each, base
        // successors precede the session's splices (chronological), which
        // is exactly the monolithic append order. Overlay memories follow —
        // their global ids all exceed every base id, so the combined hit
        // order stays ascending, matching a monolithic network that
        // compiled base-then-chunks.
        let mut work = self.topo.net().alpha.classify(w, |m| {
            for &(child, side) in &m.successors {
                hit(child, side);
            }
            if bit_set(&self.alpha_splice_bits, m.id.0) {
                if let Some(extra) = self.alpha_splices.get(&m.id.0) {
                    for &(child, side) in extra {
                        hit(child, side);
                    }
                }
            }
        })
        .work;
        if !self.over_alpha.is_empty() {
            work += self.over_alpha.classify(w, |m| {
                for &(child, side) in &m.successors {
                    hit(child, side);
                }
            })
            .work;
        }
        work
    }

    #[inline]
    fn edge_live(&self, id: NodeId) -> bool {
        !bit_set(&self.retired_bits, id)
    }
}

/// The overlay residence: every edit lands in the session's overlay, and
/// the frozen base is never written. A new node's edge from a base node or
/// base alpha memory becomes a splice; a name a base node gains or loses
/// goes to the session's copy of its name list; a retired node is masked
/// ([`ReteView::edge_live`]) instead of unplugged.
impl ReteBuild for SessionNet {
    fn intern_alpha(
        &mut self,
        class: Symbol,
        tests: Vec<AlphaTest>,
        intra: Vec<IntraTest>,
    ) -> AlphaMemId {
        // Prefer a shared base memory (no insertion); fall back to a
        // session-private memory above the base id range.
        if let Some(id) = self.topo.net().alpha.lookup(class, &tests, &intra) {
            return id;
        }
        let (local, _) = self.over_alpha.intern(class, tests, intra);
        AlphaMemId(self.base_alpha + local.0)
    }

    fn find_shared(&self, sig: &NodeSignature) -> Option<NodeId> {
        // The frozen base's sharing index cannot drop entries this session
        // retired, so both lookups filter through the session's mask —
        // sharing into a masked-dead node would build a chain whose
        // activations `edge_live` silently drops.
        self.topo
            .net()
            .find_shared(sig)
            .filter(|&id| !self.is_retired(id))
            .or_else(|| {
                if self.sharing {
                    self.over_sigs.get(sig).copied().filter(|&id| !self.is_retired(id))
                } else {
                    None
                }
            })
    }

    fn push_node(&mut self, mut node: BetaNode) -> NodeId {
        let id = self.base_nodes + self.over_betas.len() as NodeId;
        node.id = id;
        // The root lives in the base, so every overlay node has a parent
        // edge to wire (possibly a splice onto a base node).
        self.wire_edge(node.parent, id, Side::Left);
        match node.right {
            Some(RightSrc::Alpha(a)) if a.0 < self.base_alpha => {
                set_bit(&mut self.alpha_splice_bits, self.base_alpha, a.0);
                self.alpha_splices.entry(a.0).or_default().push((id, Side::Right));
            }
            Some(RightSrc::Alpha(a)) => {
                self.over_alpha.add_successor(AlphaMemId(a.0 - self.base_alpha), id)
            }
            Some(RightSrc::Beta(b)) => self.wire_edge(b, id, Side::Right),
            None => {}
        }
        if self.sharing && !matches!(node.kind, NodeKind::Prod { .. }) {
            self.over_sigs.insert(node.signature(), id);
        }
        self.over_betas.push(node);
        id
    }

    fn prod_names_mut(&mut self, id: NodeId) -> &mut Vec<Symbol> {
        if id >= self.base_nodes {
            return &mut self.over_betas[(id - self.base_nodes) as usize].prod_names;
        }
        let topo = &self.topo;
        self.base_names.entry(id).or_insert_with(|| topo.net().node(id).prod_names.clone())
    }

    fn place_prod(&mut self, idx: u32, info: ProdInfo) {
        if idx < self.base_prods {
            self.prod_overrides.insert(idx, info);
            return;
        }
        match self.over_prods.get_mut((idx - self.base_prods) as usize) {
            Some(slot) => *slot = info,
            None => self.over_prods.push(info),
        }
    }

    fn retire(&mut self, retired: &[NodeId]) {
        for &id in retired {
            set_bit_grow(&mut self.retired_bits, id);
        }
        self.retired_count += retired.len();
        // Keep chunk-to-chunk sharing away from masked nodes.
        self.over_sigs.retain(|_, id| retired.binary_search(id).is_err());
    }

    fn rollback(&mut self, first_new: NodeId) {
        // Only the overlay needs surgery: the base was never touched.
        self.over_betas.truncate((first_new - self.base_nodes) as usize);
        for n in &mut self.over_betas {
            n.out_edges.retain(|&(c, _)| c < first_new);
        }
        let (nodes, mems) = (self.base_nodes, self.base_alpha);
        truncate_splices(&mut self.beta_splices, &mut self.beta_splice_bits, nodes, first_new);
        truncate_splices(&mut self.alpha_splices, &mut self.alpha_splice_bits, mems, first_new);
        self.over_sigs.retain(|_, &mut id| id < first_new);
        self.over_alpha.retain_successors(|c| c < first_new);
        #[cfg(debug_assertions)]
        self.over_alpha.validate_index().expect("overlay alpha index consistent after rollback");
    }
}

/// Drop the splices onto nodes `>= first_new`, and recompute the presence
/// bitmap over `cap` ids from what survives (rollback is rare; exactness
/// beats cleverness here).
fn truncate_splices(
    splices: &mut FxHashMap<u32, Vec<(NodeId, Side)>>,
    bits: &mut Vec<u64>,
    cap: u32,
    first_new: NodeId,
) {
    splices.retain(|_, v| {
        v.retain(|&(c, _)| c < first_new);
        !v.is_empty()
    });
    bits.iter_mut().for_each(|w| *w = 0);
    for &id in splices.keys() {
        set_bit(bits, cap, id);
    }
}

impl std::fmt::Debug for SessionNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SessionNet(base {} nodes / {} prods, overlay {} nodes / {} prods, {} splices)",
            self.base_nodes,
            self.base_prods,
            self.over_betas.len(),
            self.over_prods.len(),
            self.splice_edges()
        )
    }
}

/// A session engine that records its mutations into a [`Journal`].
///
/// This is the serving layer's engine: when journaling is on, hibernation
/// is `journal.encode(...)` and resume is [`JournaledSession::resume`].
/// With journaling off (`journal == None`) it is a zero-cost pass-through
/// over the plain [`SerialEngine`], so a serve run without tiering behaves
/// identically to one that never heard of snapshots.
pub struct JournaledSession {
    /// The wrapped deterministic engine.
    pub eng: SerialEngine<SessionNet>,
    /// The delta log; `None` disables recording.
    pub journal: Option<Journal>,
}

impl JournaledSession {
    /// Fresh session over a frozen topology.
    pub fn fresh(topo: Arc<Topology>, journaled: bool) -> JournaledSession {
        JournaledSession {
            eng: SerialEngine::with_state(SessionNet::new(topo), MatchState::new()),
            journal: journaled.then(Journal::default),
        }
    }

    /// Resume from a decoded journal: replay it against `topo`, keeping the
    /// journal attached so the resumed session can hibernate again later.
    pub fn resume(topo: Arc<Topology>, journal: Journal) -> Result<JournaledSession, SnapshotError> {
        let eng = journal.replay(topo)?;
        Ok(JournaledSession { eng, journal: Some(journal) })
    }

    /// The recorded log, when journaling is on.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    #[inline]
    fn record(&mut self, op: impl FnOnce() -> SnapOp) {
        if let Some(j) = &mut self.journal {
            j.ops.push(op());
        }
    }

    /// Journaled `store.add`.
    pub fn add_wme(&mut self, w: Wme) -> (WmeId, psme_ops::TimeTag) {
        let journaling = self.journal.is_some();
        let wme = journaling.then(|| w.clone());
        let (id, tag) = self.eng.state.store.add(w);
        if let Some(wme) = wme {
            self.record(|| SnapOp::AddWme { wme, id });
        }
        (id, tag)
    }

    /// Journaled `store.remove`. Dead/unknown ids are not recorded (they
    /// did not mutate the store).
    pub fn remove_wme(&mut self, id: WmeId) -> bool {
        let removed = self.eng.state.store.remove(id).is_some();
        if removed {
            self.record(|| SnapOp::RemoveWme { id });
        }
        removed
    }

    /// Journaled `run_cycle(changes, Phase::Match)`.
    pub fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> crate::serial::CycleOutcome {
        if self.journal.is_some() {
            let recorded = changes.clone();
            self.record(|| SnapOp::RunChanges { changes: recorded });
        }
        self.eng.run_cycle(changes, Phase::Match)
    }

    /// Journaled `apply_changes` (registers then matches, like
    /// [`SerialEngine::apply_changes`]).
    pub fn apply_changes(
        &mut self,
        adds: Vec<Wme>,
        removes: Vec<WmeId>,
    ) -> crate::serial::CycleOutcome {
        let mut changes: Vec<(WmeId, i32)> = Vec::with_capacity(adds.len() + removes.len());
        for w in adds {
            let (id, _) = self.add_wme(w);
            changes.push((id, 1));
        }
        for id in removes {
            if self.remove_wme(id) {
                changes.push((id, -1));
            }
        }
        self.run_changes(changes)
    }

    /// Journaled `add_production`. Failed builds are not recorded (the
    /// overlay rolled back; replaying the failure would poison resume).
    pub fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<crate::serial::AddOutcome, crate::build::BuildError> {
        let out = self.eng.add_production(prod.clone(), org.clone())?;
        self.record(|| SnapOp::AddProd { prod, org });
        Ok(out)
    }

    /// Journaled `reorganize_production`. Like failed chunk builds, failed
    /// rebuilds roll back and are not recorded.
    pub fn reorganize_production(
        &mut self,
        prod_idx: u32,
        org: NetworkOrg,
    ) -> Result<crate::serial::ReorgOutcome, crate::build::BuildError> {
        let out = self.eng.reorganize_production(prod_idx, org.clone())?;
        self.record(|| SnapOp::Reorg { prod_idx, org });
        Ok(out)
    }
}

impl std::fmt::Debug for JournaledSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JournaledSession({:?}, {} journaled ops)",
            self.eng,
            self.journal.as_ref().map(|j| j.ops.len()).unwrap_or(0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkOrg;
    use crate::node::ROOT;
    use psme_ops::{parse_production, ClassRegistry};

    fn reg() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        r.declare_str("a", &["x", "y"]);
        r.declare_str("b", &["x", "y"]);
        r
    }

    fn base(r: &mut ClassRegistry) -> Arc<Topology> {
        let mut net = ReteNetwork::new();
        let p = parse_production("(p base (a ^x <v>) (b ^x <v>) --> (halt))", r).unwrap();
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
        Topology::freeze(net)
    }

    #[test]
    fn empty_overlay_mirrors_base() {
        let mut r = reg();
        let topo = base(&mut r);
        let s = SessionNet::new(topo.clone());
        assert_eq!(s.num_nodes(), topo.num_nodes());
        assert_eq!(s.num_prods(), topo.num_prods());
        assert_eq!(s.overlay_nodes(), 0);
        assert_eq!(s.node(ROOT).kind, NodeKind::Root);
    }

    #[test]
    fn overlay_ids_match_monolithic_append() {
        // Building the same chunk into (a) a monolithic copy of the base
        // and (b) a session overlay must assign identical node ids,
        // production indices and alpha-memory ids.
        let mut r = reg();
        let mut mono = ReteNetwork::new();
        let pb = parse_production("(p base (a ^x <v>) (b ^x <v>) --> (halt))", &mut r).unwrap();
        mono.add_production(Arc::new(pb.clone()), NetworkOrg::Linear).unwrap();
        let topo = {
            let mut net = ReteNetwork::new();
            net.add_production(Arc::new(pb), NetworkOrg::Linear).unwrap();
            Topology::freeze(net)
        };
        let mut sess = SessionNet::new(topo);

        let chunk =
            parse_production("(p chunk (a ^x <v>) (b ^x <v>) (a ^y <v>) --> (halt))", &mut r)
                .unwrap();
        let rm = mono.add_production(Arc::new(chunk.clone()), NetworkOrg::Linear).unwrap();
        let rs = sess.add_production(Arc::new(chunk), NetworkOrg::Linear).unwrap();
        assert_eq!(rm, rs, "monolithic and overlay AddResults agree");
        assert_eq!(mono.num_nodes(), sess.num_nodes());
        assert_eq!(mono.alpha.len(), sess.base_alpha as usize + sess.over_alpha.len());
        // The chunk shares the base (a⋈b) prefix: its new nodes hang off a
        // base boundary node, visible as splices.
        assert!(sess.splice_edges() > 0);
        assert!(sess.splice_bits_consistent());
        // Edge chains equal the monolithic successor lists on every node.
        for id in 0..mono.num_nodes() as NodeId {
            let mono_edges = &ReteView::node(&mono, id).out_edges;
            let sess_edges: Vec<_> = sess
                .node(id)
                .out_edges
                .iter()
                .chain(sess.extra_out_edges(id))
                .copied()
                .collect();
            assert_eq!(*mono_edges, sess_edges, "node {id} successor order");
        }
    }

    #[test]
    fn failed_overlay_build_rolls_back() {
        let mut r = reg();
        let topo = base(&mut r);
        let mut sess = SessionNet::new(topo);
        let good =
            parse_production("(p g (a ^x <v>) (b ^x <v>) (b ^y <v>) --> (halt))", &mut r).unwrap();
        sess.add_production(Arc::new(good), NetworkOrg::Linear).unwrap();
        let nodes = sess.num_nodes();
        let splices = sess.splice_edges();
        let bad = parse_production("(p bad (a ^x <v>) (b ^x <v>) --> (halt))", &mut r).unwrap();
        let err = sess
            .add_production(Arc::new(bad), NetworkOrg::Bilinear(vec![vec![0], vec![1, 1]]))
            .unwrap_err();
        assert!(err.0.contains("partition"), "{err}");
        assert_eq!(sess.num_nodes(), nodes, "overlay rollback removed new nodes");
        assert_eq!(sess.splice_edges(), splices);
        assert_eq!(sess.overlay_prods(), 1);
        assert!(sess.splice_bits_consistent(), "rollback recomputes presence bitmaps");
    }

    #[test]
    fn fresh_session_skips_splice_probes_without_allocating() {
        let mut r = reg();
        let topo = base(&mut r);
        let s = SessionNet::new(topo);
        assert!(s.splice_bits_consistent());
        for id in 0..s.num_nodes() as NodeId {
            assert!(s.extra_out_edges(id).is_empty());
        }
    }
}
