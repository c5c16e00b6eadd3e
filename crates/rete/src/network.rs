//! The Rete network: alpha net + beta DAG + production table.

use crate::alpha::{AlphaMemId, AlphaNet, AlphaTest, IntraTest};
use crate::build::ReteBuild;
use crate::node::{BetaNode, NodeId, NodeKind, NodeSignature, RightSrc, Side};
use crate::util::FxHashMap;
use psme_ops::{Production, Symbol};
use std::sync::Arc;

/// Network organization for a production (§6.2 of the paper).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum NetworkOrg {
    /// Classic left-to-right linear join chain.
    #[default]
    Linear,
    /// Constrained bilinear network (Figure 6-8): CEs are partitioned into
    /// groups (given as lists of CE indices into `Production::ces`); group 0
    /// is the constraint prefix, later groups match as independent
    /// sub-chains rooted at group 0's result and are joined pairwise by a
    /// spine of beta-beta joins.
    Bilinear(Vec<Vec<usize>>),
}

/// Per-production bookkeeping.
#[derive(Clone, Debug)]
pub struct ProdInfo {
    /// The source production.
    pub production: Arc<Production>,
    /// Terminal node.
    pub p_node: NodeId,
    /// For each positive CE (in order), the slot of its wme in the P node's
    /// input tokens.
    pub pos_slots: Vec<u16>,
    /// Smallest node id created for this production (all its new nodes form
    /// the contiguous range `first_new..` at the time of addition — the
    /// node-ID property the run-time state update of §5.2 uses).
    pub first_new: NodeId,
    /// Number of two-input nodes newly created.
    pub new_two_input: u32,
    /// Number of two-input nodes shared with earlier productions.
    pub shared_two_input: u32,
    /// Network organization used.
    pub org: NetworkOrg,
}

/// The complete match network.
pub struct ReteNetwork {
    /// Constant-test network.
    pub alpha: AlphaNet,
    /// Beta nodes, indexed by [`NodeId`] (node 0 is the root).
    pub betas: Vec<BetaNode>,
    /// Productions, indexed by the `prod` field of [`NodeKind::Prod`].
    pub prods: Vec<ProdInfo>,
    /// Whether two-input node sharing is enabled (Table 5-2 compares the
    /// shared and unshared compile paths).
    pub sharing: bool,
    pub(crate) sig_index: FxHashMap<NodeSignature, NodeId>,
    /// Inert pool: node ids retired by adaptive reorganizations, sorted.
    /// Retired nodes stay allocated (ids are stable, §5.2 depends on the
    /// monotone-id invariant) but are physically unplugged — no surviving
    /// node or alpha memory points at them, their signatures are out of the
    /// sharing index, and their token memories are purged.
    pub(crate) retired_pool: Vec<NodeId>,
}

impl ReteNetwork {
    /// Empty network with node sharing enabled.
    pub fn new() -> ReteNetwork {
        ReteNetwork::with_sharing(true)
    }

    /// Empty network, choosing whether two-input nodes are shared.
    pub fn with_sharing(sharing: bool) -> ReteNetwork {
        ReteNetwork {
            alpha: AlphaNet::new(),
            betas: vec![BetaNode::default()],
            prods: Vec::new(),
            sharing,
            sig_index: FxHashMap::default(),
            retired_pool: Vec::new(),
        }
    }

    /// Was `id` retired to the inert pool by a reorganization?
    #[inline]
    pub fn is_retired(&self, id: NodeId) -> bool {
        self.retired_pool.binary_search(&id).is_ok()
    }

    /// Nodes currently in the inert retired pool.
    pub fn retired_nodes(&self) -> usize {
        self.retired_pool.len()
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &BetaNode {
        &self.betas[id as usize]
    }

    /// Number of beta nodes (including the root).
    pub fn num_nodes(&self) -> usize {
        self.betas.len()
    }

    /// Drop every successor edge, alpha successor and sharing signature
    /// whose node fails `live`.
    fn unplug(&mut self, live: impl Fn(NodeId) -> bool) {
        for n in &mut self.betas {
            n.out_edges.retain(|&(c, _)| live(c));
        }
        self.alpha.retain_successors(&live);
        self.sig_index.retain(|_, &mut id| live(id));
        #[cfg(debug_assertions)]
        self.alpha.validate_index().expect("alpha index consistent after network surgery");
    }

    /// Find a production's index by name.
    pub fn prod_by_name(&self, name: psme_ops::Symbol) -> Option<u32> {
        self.prods
            .iter()
            .position(|p| p.production.name == name)
            .map(|i| i as u32)
    }

    /// Iterate over the two-input nodes.
    pub fn two_input_nodes(&self) -> impl Iterator<Item = &BetaNode> {
        self.betas.iter().filter(|n| n.is_two_input())
    }

    /// Maximum join-chain depth from the root to any P node — the "long
    /// chain" length the paper's §6.2 analyzes.
    pub fn max_chain_depth(&self) -> usize {
        let mut depth = vec![0usize; self.betas.len()];
        let mut best = 0;
        // Nodes are topologically ordered by construction (parents and right
        // sources precede children).
        for i in 1..self.betas.len() {
            if self.is_retired(i as NodeId) {
                continue;
            }
            let n = &self.betas[i];
            let mut d = depth[n.parent as usize];
            if let Some(RightSrc::Beta(b)) = n.right {
                d = d.max(depth[b as usize]);
            }
            if n.is_two_input() {
                d += 1;
            }
            depth[i] = d;
            best = best.max(d);
        }
        best
    }

    /// Network statistics (for DESIGN/EXPERIMENTS reporting and tests).
    pub fn stats(&self) -> NetStats {
        let mut s = NetStats {
            alpha_mems: self.alpha.len(),
            const_tests: self.alpha.distinct_const_tests(),
            ..NetStats::default()
        };
        for n in &self.betas {
            if self.is_retired(n.id) {
                continue;
            }
            match n.kind {
                NodeKind::Root => {}
                NodeKind::Join => {
                    s.join_nodes += 1;
                    if n.is_shared() {
                        s.shared_two_input += 1;
                    }
                }
                NodeKind::Neg => {
                    s.neg_nodes += 1;
                    if matches!(n.right, Some(RightSrc::Beta(_))) {
                        s.ncc_nodes += 1;
                    }
                    if n.is_shared() {
                        s.shared_two_input += 1;
                    }
                }
                NodeKind::Prod { .. } => s.prod_nodes += 1,
            }
        }
        s.max_chain_depth = self.max_chain_depth();
        s
    }

    /// Graphviz dot rendering of the beta network (debugging aid).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph rete {\n  rankdir=TB;\n");
        for n in &self.betas {
            let label = match n.kind {
                NodeKind::Root => "root".to_string(),
                NodeKind::Join => format!("join {}", n.id),
                NodeKind::Neg => match n.right {
                    Some(RightSrc::Beta(_)) => format!("ncc {}", n.id),
                    _ => format!("not {}", n.id),
                },
                NodeKind::Prod { prod } => {
                    format!("P {}", self.prods[prod as usize].production.name)
                }
            };
            writeln!(s, "  n{} [label=\"{}\"];", n.id, label).unwrap();
            for (c, side) in &n.out_edges {
                let style = if *side == Side::Right { " [style=dashed]" } else { "" };
                writeln!(s, "  n{} -> n{}{};", n.id, c, style).unwrap();
            }
        }
        for m in self.alpha.mems() {
            writeln!(s, "  a{} [shape=box,label=\"α {} {}\"];", m.id.0, m.class, m.id.0).unwrap();
            for (c, _) in &m.successors {
                writeln!(s, "  a{} -> n{} [style=dotted];", m.id.0, c).unwrap();
            }
        }
        s.push_str("}\n");
        s
    }
}

impl Default for ReteNetwork {
    fn default() -> Self {
        ReteNetwork::new()
    }
}

/// The monolithic residence: every edit lands in place, and a retired node
/// is unplugged — no surviving edge, alpha successor or sharing signature
/// reaches it — and kept in the sorted inert pool.
impl ReteBuild for ReteNetwork {
    fn intern_alpha(
        &mut self,
        class: Symbol,
        tests: Vec<AlphaTest>,
        intra: Vec<IntraTest>,
    ) -> AlphaMemId {
        self.alpha.intern(class, tests, intra).0
    }

    fn find_shared(&self, sig: &NodeSignature) -> Option<NodeId> {
        // Retired nodes leave the index at commit; the filter is
        // belt-and-braces against ever sharing into the inert pool.
        if !self.sharing {
            return None;
        }
        self.sig_index.get(sig).copied().filter(|&id| !self.is_retired(id))
    }

    fn push_node(&mut self, mut node: BetaNode) -> NodeId {
        let id = self.betas.len() as NodeId;
        node.id = id;
        self.betas[node.parent as usize].out_edges.push((id, Side::Left));
        match node.right {
            Some(RightSrc::Alpha(a)) => self.alpha.add_successor(a, id),
            Some(RightSrc::Beta(b)) => self.betas[b as usize].out_edges.push((id, Side::Right)),
            None => {}
        }
        if self.sharing && !matches!(node.kind, NodeKind::Prod { .. }) {
            self.sig_index.insert(node.signature(), id);
        }
        self.betas.push(node);
        id
    }

    fn prod_names_mut(&mut self, id: NodeId) -> &mut Vec<Symbol> {
        &mut self.betas[id as usize].prod_names
    }

    fn place_prod(&mut self, idx: u32, info: ProdInfo) {
        match self.prods.get_mut(idx as usize) {
            Some(slot) => *slot = info,
            None => self.prods.push(info),
        }
    }

    fn retire(&mut self, retired: &[NodeId]) {
        // A retired node's own children are always retired too — a live
        // child would put the node on a live production's chain — so
        // their edge lists empty out here as well.
        self.unplug(|c| retired.binary_search(&c).is_err());
        self.retired_pool.extend_from_slice(retired);
        self.retired_pool.sort_unstable();
    }

    fn rollback(&mut self, first_new: NodeId) {
        self.betas.truncate(first_new as usize);
        self.unplug(|c| c < first_new);
    }
}

impl std::fmt::Debug for ReteNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ReteNetwork({} nodes, {} alpha mems, {} prods, sharing={})",
            self.betas.len(),
            self.alpha.len(),
            self.prods.len(),
            self.sharing
        )
    }
}

/// Summary statistics of a network.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NetStats {
    /// Number of alpha memories.
    pub alpha_mems: usize,
    /// Distinct shared constant-test nodes.
    pub const_tests: usize,
    /// And-nodes.
    pub join_nodes: usize,
    /// Not-nodes (including NCC negations).
    pub neg_nodes: usize,
    /// Of those, conjunctive negations (beta-right).
    pub ncc_nodes: usize,
    /// P nodes.
    pub prod_nodes: usize,
    /// Two-input nodes used by more than one production.
    pub shared_two_input: usize,
    /// Longest dependent join chain (§6.2).
    pub max_chain_depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ROOT;
    use psme_ops::{parse_production, ClassRegistry};
    use std::sync::Arc;

    fn reg() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        r.declare_str("a", &["x", "y"]);
        r.declare_str("b", &["x", "y"]);
        r
    }

    #[test]
    fn empty_network_has_only_root() {
        let net = ReteNetwork::new();
        assert_eq!(net.num_nodes(), 1);
        assert_eq!(net.node(ROOT).kind, NodeKind::Root);
        assert_eq!(net.max_chain_depth(), 0);
        let s = net.stats();
        assert_eq!(s.join_nodes + s.neg_nodes + s.prod_nodes, 0);
    }

    #[test]
    fn stats_count_node_kinds() {
        let mut r = reg();
        let mut net = ReteNetwork::new();
        let p = parse_production(
            "(p k (a ^x <v>) -(b ^x <v>) -{ (a ^y <v>) (b ^y <v>) } --> (halt))",
            &mut r,
        )
        .unwrap();
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
        let s = net.stats();
        assert_eq!(s.prod_nodes, 1);
        assert_eq!(s.neg_nodes, 2, "simple negation + NCC negation");
        assert_eq!(s.ncc_nodes, 1, "one beta-right negation");
        assert!(s.join_nodes >= 3, "first CE + 2 subnet joins: {}", s.join_nodes);
        assert!(s.alpha_mems >= 3);
    }

    #[test]
    fn prod_by_name_finds_index() {
        let mut r = reg();
        let mut net = ReteNetwork::new();
        for src in ["(p one (a ^x 1) --> (halt))", "(p two (a ^x 2) --> (halt))"] {
            let p = parse_production(src, &mut r).unwrap();
            net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
        }
        assert_eq!(net.prod_by_name(psme_ops::intern("two")), Some(1));
        assert_eq!(net.prod_by_name(psme_ops::intern("absent")), None);
    }

    #[test]
    fn dot_export_mentions_every_production() {
        let mut r = reg();
        let mut net = ReteNetwork::new();
        let p = parse_production("(p render-me (a ^x <v>) (b ^x <v>) --> (halt))", &mut r).unwrap();
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
        let dot = net.to_dot();
        assert!(dot.contains("digraph rete"));
        assert!(dot.contains("render-me"));
        assert!(dot.contains("style=dotted"), "alpha edges rendered");
    }

    #[test]
    fn chain_depth_counts_two_input_nodes() {
        let mut r = reg();
        let mut net = ReteNetwork::new();
        let p = parse_production(
            "(p chain (a ^x <v1>) (a ^x <v1> ^y <v2>) (a ^x <v2>) --> (halt))",
            &mut r,
        )
        .unwrap();
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
        assert_eq!(net.max_chain_depth(), 3);
    }
}
