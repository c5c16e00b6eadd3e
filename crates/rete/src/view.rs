//! Read and build interfaces over a Rete network.
//!
//! The node-processing semantics ([`crate::process`]), the §5.2 state
//! update ([`crate::update`]) and the serial engine are generic over
//! [`ReteView`] so they run unchanged against either a plain
//! [`ReteNetwork`] or a [`crate::session::SessionNet`] — a shared frozen
//! base topology plus a session-private chunk overlay. The distinction the
//! trait captures is exactly the overlay's: node/production lookup may
//! resolve into an overlay region, and successor traversal must consult
//! overlay *splice deltas* in addition to a node's own edge list (the base
//! is immutable, so a session records the edges a chunk would have spliced
//! into it as out-of-band deltas).

use crate::build::{AddResult, BuildError};
use crate::network::{NetworkOrg, ProdInfo, ReteNetwork};
use crate::node::{BetaNode, NodeId, Side};
use crate::work::Work;
use psme_ops::{Production, Wme};
use std::sync::Arc;

/// Read access to a (possibly overlaid) Rete network.
pub trait ReteView {
    /// Borrow a node (base or overlay).
    fn node(&self, id: NodeId) -> &BetaNode;

    /// Total beta nodes visible, including the root and any overlay.
    fn num_nodes(&self) -> usize;

    /// Successor edges spliced onto `id` by an overlay, in splice order.
    /// Always empty for a monolithic network (splices land directly in
    /// `out_edges` there); propagation iterates `out_edges` then these, so
    /// the combined order equals the monolithic append order.
    fn extra_out_edges(&self, id: NodeId) -> &[(NodeId, Side)];

    /// Per-production bookkeeping for the P node index `prod`.
    fn prod_info(&self, prod: u32) -> &ProdInfo;

    /// Total productions visible (base + overlay).
    fn num_prods(&self) -> usize;

    /// Push one wme through the constant-test network, emitting every
    /// successor edge of every matching alpha memory — including overlay
    /// splices and overlay-private memories, in the same order a monolithic
    /// network would emit them. Returns the discrimination's work.
    fn classify_wme(&self, w: &Wme, hit: &mut dyn FnMut(NodeId, Side)) -> Work;

    /// `false` when `id` was retired by an adaptive reorganization and its
    /// incoming edges must be skipped during propagation. A monolithic
    /// network physically unplugs retired nodes, so the default constant
    /// `true` compiles away; a session overlay cannot mutate frozen base
    /// edge lists and instead masks retired targets through this hook.
    #[inline]
    fn edge_live(&self, _id: NodeId) -> bool {
        true
    }
}

/// Result of [`ReteBuild::reorg_build`]: the freshly compiled replacement
/// subnetwork for a production being reorganized, not yet committed. The
/// caller runs the §5.2 state update over `first_new..` and then either
/// commits (swapping the production over and retiring the old chain) — the
/// old chain is untouched until commit, so a failed build rolls back to the
/// exact pre-reorg network.
#[derive(Clone, Debug)]
pub struct ReorgBuild {
    /// Production being reorganized (index preserved across the rebuild).
    pub prod_idx: u32,
    /// The organization the replacement subnetwork was compiled with.
    pub org: NetworkOrg,
    /// First node id of the replacement subnetwork (§5.2 `min_node`).
    pub first_new: NodeId,
    /// Replacement terminal node.
    pub p_node: NodeId,
    /// Positive-CE slot map of the replacement P node.
    pub pos_slots: Vec<u16>,
    /// Two-input nodes newly created by the rebuild.
    pub new_two_input: u32,
    /// Two-input nodes shared with existing chains (incl. the old prefix).
    pub shared_two_input: u32,
}

/// A network that also supports run-time production addition (§5.1) and
/// mid-run reorganization of an existing production (§7 made online).
pub trait ReteBuild: ReteView {
    /// Compile `prod` into the network (or its overlay region). The caller
    /// runs the §5.2 state update afterwards; on error the network is
    /// rolled back unchanged.
    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddResult, BuildError>;

    /// Recompile production `prod_idx` with a new organization, appending
    /// the replacement subnetwork like a chunk add but **reusing the
    /// production's index**. The old chain stays fully wired (the §5.2
    /// state update needs its boundary memories); nothing observable
    /// changes until [`Self::reorg_commit`]. On error the network is rolled
    /// back unchanged.
    fn reorg_build(&mut self, prod_idx: u32, org: NetworkOrg) -> Result<ReorgBuild, BuildError>;

    /// Commit a reorganization after the state update: swap the
    /// production's bookkeeping to the replacement subnetwork, strip the
    /// production's name from its old chain, and retire every old-chain
    /// node no production references anymore to an inert pool. Returns the
    /// retired node ids (sorted) — the caller purges their token memories.
    /// Infallible by construction.
    fn reorg_commit(&mut self, rb: ReorgBuild) -> Vec<NodeId>;
}

/// Collect the join-chain ancestry of `p_node` (the node itself, its
/// parents and beta right-sources, transitively), excluding the root —
/// exactly the node set a production's compilation touched.
pub(crate) fn chain_ancestors<N: ReteView + ?Sized>(net: &N, p_node: NodeId) -> Vec<NodeId> {
    use crate::node::{RightSrc, ROOT};
    let mut seen = vec![p_node];
    let mut stack = vec![p_node];
    while let Some(id) = stack.pop() {
        let n = net.node(id);
        let mut push = |next: NodeId| {
            if next != ROOT && !seen.contains(&next) {
                seen.push(next);
                stack.push(next);
            }
        };
        push(n.parent);
        if let Some(RightSrc::Beta(b)) = n.right {
            push(b);
        }
    }
    seen.sort_unstable();
    seen
}

impl ReteView for ReteNetwork {
    #[inline]
    fn node(&self, id: NodeId) -> &BetaNode {
        ReteNetwork::node(self, id)
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        ReteNetwork::num_nodes(self)
    }

    #[inline]
    fn extra_out_edges(&self, _id: NodeId) -> &[(NodeId, Side)] {
        &[]
    }

    #[inline]
    fn prod_info(&self, prod: u32) -> &ProdInfo {
        &self.prods[prod as usize]
    }

    #[inline]
    fn num_prods(&self) -> usize {
        self.prods.len()
    }

    fn classify_wme(&self, w: &Wme, hit: &mut dyn FnMut(NodeId, Side)) -> Work {
        self.alpha
            .classify(w, |m| {
                for &(child, side) in &m.successors {
                    hit(child, side);
                }
            })
            .work
    }
}

impl ReteBuild for ReteNetwork {
    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddResult, BuildError> {
        ReteNetwork::add_production(self, prod, org)
    }

    fn reorg_build(&mut self, prod_idx: u32, org: NetworkOrg) -> Result<ReorgBuild, BuildError> {
        ReteNetwork::reorg_build(self, prod_idx, org)
    }

    fn reorg_commit(&mut self, rb: ReorgBuild) -> Vec<NodeId> {
        ReteNetwork::reorg_commit(self, rb)
    }
}
