//! Beta (two-input) nodes of the Rete network.
//!
//! The paper's network has and-nodes, not-nodes, memory nodes and P nodes
//! (§2.2). As in PSM-E, memory nodes are not separate code — token storage
//! lives in the global hashed memory tables keyed per destination node
//! (§6.1) — so the beta network is a DAG of `Join`, `Neg` and `Prod` nodes.
//!
//! Two generalizations (both used by the paper's own constructs):
//!
//! * a node's right input can come from an *alpha* memory (classic Rete) or
//!   from another *beta* node — beta-right `Neg` nodes implement Soar's
//!   conjunctive negations, and beta-right `Join` nodes are the spine joins
//!   of the constrained bilinear networks of Figure 6-8;
//! * tokens are flat wme vectors whose slot meanings are given by each
//!   node's `coverage` (the flat condition indices it has matched), so the
//!   same token type flows through linear chains, NCC subnetworks and
//!   bilinear group chains.

use crate::alpha::AlphaMemId;
use psme_ops::{Pred, Symbol};

/// Index of a beta node. Ids are assigned in creation order and never
/// reused; a production added at run time always gets ids greater than any
/// existing node — the property the state-update algorithm of §5.2 relies
/// on.
pub type NodeId = u32;

/// The distinguished root. Its single output token is the empty token.
pub const ROOT: NodeId = 0;

/// Which input of a two-input node an activation arrives on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// Token from the parent beta node.
    Left,
    /// Token from the right source (alpha memory or beta subnetwork).
    Right,
}

/// Right-input source of a two-input node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RightSrc {
    /// A constant-test alpha memory (tokens are single wmes).
    Alpha(AlphaMemId),
    /// Another beta node (NCC subnetworks, bilinear spine joins).
    Beta(NodeId),
}

/// Node behaviour.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum NodeKind {
    /// The network root (exactly one, id [`ROOT`]).
    #[default]
    Root,
    /// And-node: joins left tokens with right tokens.
    Join,
    /// Not-node: passes left tokens with zero matching right tokens.
    /// With a beta right source this is a conjunctive negation.
    Neg,
    /// Terminal production node; adds/removes conflict-set instantiations.
    Prod {
        /// Index into the network's production table.
        prod: u32,
    },
}

/// A non-equality variable consistency test evaluated per candidate pair.
/// (Equality tests are folded into the memory hash keys instead.)
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct JoinTest {
    /// Slot in the left token.
    pub left_slot: u16,
    /// Field of that wme.
    pub left_field: u16,
    /// Slot in the right token (0 for alpha-right).
    pub right_slot: u16,
    /// Field of that wme.
    pub right_field: u16,
    /// Predicate (never `Eq`; those become key parts).
    pub pred: Pred,
}

/// One component of a memory hash key. Left and right key specs are
/// parallel: matching tokens produce equal key vectors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum KeyPart {
    /// The value of `token[slot].field`.
    Val {
        /// Token slot.
        slot: u16,
        /// Wme field.
        field: u16,
    },
    /// The wme id at `slot` (identity constraints of bilinear/NCC joins).
    Id {
        /// Token slot.
        slot: u16,
    },
}

/// How to assemble a join's output token from the input pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MergeSrc {
    /// Copy left token slot.
    L(u16),
    /// Copy right token slot.
    R(u16),
}

/// A beta node. The default node is the root: id and parent [`ROOT`], no
/// inputs, tests, keys or edges; the compiler fills in what a node uses.
#[derive(Clone, Debug, Default)]
pub struct BetaNode {
    /// This node's id.
    pub id: NodeId,
    /// Behaviour.
    pub kind: NodeKind,
    /// Left input (parent) node.
    pub parent: NodeId,
    /// Right input source (`None` for `Root`/`Prod`).
    pub right: Option<RightSrc>,
    /// Non-equality consistency tests.
    pub tests: Vec<JoinTest>,
    /// Key spec applied to left tokens.
    pub left_key: Vec<KeyPart>,
    /// Key spec applied to right tokens (parallel to `left_key`).
    pub right_key: Vec<KeyPart>,
    /// Flat condition indices covered by this node's *output* tokens.
    pub coverage: Vec<u16>,
    /// Flat condition indices of right-input tokens.
    pub right_coverage: Vec<u16>,
    /// Output-token assembly plan (Join only).
    pub merge: Vec<MergeSrc>,
    /// Successor edges: `(node, which input of that node)`.
    pub out_edges: Vec<(NodeId, Side)>,
    /// Names of the productions whose compilation touched this node
    /// (length > 1 means the node is shared).
    pub prod_names: Vec<Symbol>,
}

impl BetaNode {
    /// Is this a two-input node (the paper's task-granularity unit)?
    pub fn is_two_input(&self) -> bool {
        matches!(self.kind, NodeKind::Join | NodeKind::Neg)
    }

    /// Is this node shared between several productions?
    pub fn is_shared(&self) -> bool {
        self.prod_names.len() > 1
    }

    /// Structural signature for node sharing: two candidate children of the
    /// same parent with equal signatures compute identical outputs.
    pub fn signature(&self) -> NodeSignature {
        NodeSignature {
            kind: match self.kind {
                NodeKind::Root => 0,
                NodeKind::Join => 1,
                NodeKind::Neg => 2,
                NodeKind::Prod { .. } => 3,
            },
            parent: self.parent,
            right: self.right,
            tests: self.tests.clone(),
            left_key: self.left_key.clone(),
            right_key: self.right_key.clone(),
        }
    }
}

/// Sharing signature (see [`BetaNode::signature`]). `Prod` nodes are never
/// shared, which the build code enforces by always creating them fresh.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NodeSignature {
    kind: u8,
    parent: NodeId,
    right: Option<RightSrc>,
    tests: Vec<JoinTest>,
    left_key: Vec<KeyPart>,
    right_key: Vec<KeyPart>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(kind: NodeKind, tests: Vec<JoinTest>) -> BetaNode {
        BetaNode {
            id: 1,
            kind,
            parent: ROOT,
            right: Some(RightSrc::Alpha(AlphaMemId(0))),
            tests,
            left_key: vec![],
            right_key: vec![],
            coverage: vec![0],
            right_coverage: vec![0],
            merge: vec![MergeSrc::R(0)],
            out_edges: vec![],
            prod_names: vec![],
        }
    }

    #[test]
    fn two_input_classification() {
        assert!(node(NodeKind::Join, vec![]).is_two_input());
        assert!(node(NodeKind::Neg, vec![]).is_two_input());
        assert!(!node(NodeKind::Prod { prod: 0 }, vec![]).is_two_input());
    }

    #[test]
    fn signatures_distinguish_tests() {
        let t = JoinTest { left_slot: 0, left_field: 1, right_slot: 0, right_field: 2, pred: Pred::Ne };
        let a = node(NodeKind::Join, vec![]);
        let b = node(NodeKind::Join, vec![t]);
        let c = node(NodeKind::Join, vec![t]);
        assert_ne!(a.signature(), b.signature());
        assert_eq!(b.signature(), c.signature());
    }

    #[test]
    fn shared_flag_tracks_prod_names() {
        let mut n = node(NodeKind::Join, vec![]);
        assert!(!n.is_shared());
        n.prod_names.push(psme_ops::intern("p1"));
        assert!(!n.is_shared());
        n.prod_names.push(psme_ops::intern("p2"));
        assert!(n.is_shared());
    }
}
