//! The read interface over a Rete network.
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
//! into it as out-of-band deltas). Editing either network goes through
//! [`crate::build::ReteBuild`].

use crate::network::{ProdInfo, ReteNetwork};
use crate::node::{BetaNode, NodeId, Side};
use crate::work::Work;
use psme_ops::Wme;

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
