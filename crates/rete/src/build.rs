//! Compiling productions into the network — including at run time.
//!
//! This is the Rust analogue of PSM-E's run-time machine-code generation
//! (§5.1): locating shared nodes through the high-level network description,
//! appending new nodes with strictly increasing ids, and splicing them into
//! their parents' successor lists (our successor vectors play the role of
//! the jumptable). The caller is responsible for running the state update
//! (§5.2, see [`crate::update`]) afterwards so the new nodes' memories are
//! consistent with current working memory.
//!
//! The protocol is written once, in [`ReteBuild`]'s provided methods, for
//! both places a network can live: a monolithic [`crate::ReteNetwork`]
//! edited in place, and a [`crate::session::SessionNet`] overlay above a
//! frozen base. The two implement only the primitives that differ.

use crate::alpha::{AlphaMemId, AlphaTest, IntraTest, PredOrd};
use crate::network::{NetworkOrg, ProdInfo};
use crate::node::{
    BetaNode, JoinTest, KeyPart, MergeSrc, NodeId, NodeKind, NodeSignature, RightSrc, ROOT,
};
use crate::util::FxHashMap;
use crate::view::ReteView;
use psme_ops::{BindSite, Cond, CondElem, FieldTest, Pred, Production, Symbol, VarId};
use std::fmt;
use std::sync::Arc;

/// A network that compiles productions into itself at run time (§5.1) and
/// rebuilds existing ones under a new organization (§7 made online).
///
/// A residence — [`crate::ReteNetwork`] or [`crate::session::SessionNet`]
/// — implements the required methods, the few edits that differ between
/// editing in place and editing an overlay over a frozen base. Adding,
/// rebuilding and committing are the provided methods, written once on top
/// of them, so both residences share nodes, assign ids and retire nodes by
/// the same rules.
pub trait ReteBuild: ReteView {
    /// Get-or-create the alpha memory for a canonical test set.
    fn intern_alpha(
        &mut self,
        class: Symbol,
        tests: Vec<AlphaTest>,
        intra: Vec<IntraTest>,
    ) -> AlphaMemId;

    /// A live (never retired) shareable node with this signature.
    fn find_shared(&self, sig: &NodeSignature) -> Option<NodeId>;

    /// Append `node` under the next id and wire its parent and right-source
    /// edges: in place, or as a splice onto a frozen base node or memory.
    fn push_node(&mut self, node: BetaNode) -> NodeId;

    /// The names of the productions whose chains use node `id`, for
    /// recording or dropping one.
    fn prod_names_mut(&mut self, id: NodeId) -> &mut Vec<Symbol>;

    /// Install `info` as production `idx`; `idx == num_prods()` appends.
    fn place_prod(&mut self, idx: u32, info: ProdInfo);

    /// Take the `retired` nodes (sorted, non-empty) out of propagation and
    /// sharing: unplug them, or mask them where the edges are frozen.
    fn retire(&mut self, retired: &[NodeId]);

    /// Undo a failed build: drop every node `>= first_new` and every edge,
    /// signature and alpha successor pointing at one.
    fn rollback(&mut self, first_new: NodeId);

    /// Compile `prod` into the network (or its overlay region). The caller
    /// runs the §5.2 state update afterwards ([`crate::update::seed_update`]);
    /// on error the network is rolled back unchanged.
    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddResult, BuildError> {
        let prod_idx = self.num_prods() as u32;
        let b = compile(self, &prod, org, prod_idx)?;
        let add = AddResult {
            prod_idx,
            first_new: b.first_new,
            new_two_input: b.new_two_input,
            shared_two_input: b.shared_two_input,
            p_node: b.p_node,
        };
        self.place_prod(prod_idx, b.into_info(prod));
        Ok(add)
    }

    /// Recompile production `prod_idx` with a new organization, appending
    /// the replacement subnetwork like a chunk add but **reusing the
    /// production's index** (the new P node fires into the same
    /// conflict-set slot). The old chain stays fully wired (the §5.2 state
    /// update needs its boundary memories); nothing observable changes
    /// until [`Self::reorg_commit`]. On error the network is rolled back
    /// unchanged.
    fn reorg_build(&mut self, prod_idx: u32, org: NetworkOrg) -> Result<ReorgBuild, BuildError> {
        if prod_idx as usize >= self.num_prods() {
            return Err(BuildError(format!("no production {prod_idx} to reorganize")));
        }
        let prod = self.prod_info(prod_idx).production.clone();
        compile(self, &prod, org, prod_idx)
    }

    /// Commit a reorganization after the state update: swap the
    /// production's bookkeeping to the replacement subnetwork, strip the
    /// production's name from the old-chain nodes the new chain does not
    /// reuse, and retire every node left with no name (ids stay allocated,
    /// so the monotone-id invariant of §5.2 holds). Returns the retired
    /// ids, sorted — the caller purges their token memories. Infallible.
    fn reorg_commit(&mut self, rb: ReorgBuild) -> Vec<NodeId> {
        let old = self.prod_info(rb.prod_idx);
        let (production, old_p) = (old.production.clone(), old.p_node);
        let name = production.name;
        let old_chain = chain_ancestors(self, old_p);
        let new_chain = chain_ancestors(self, rb.p_node);
        self.place_prod(rb.prod_idx, rb.into_info(production));
        // `old_chain` is sorted, so `retired` is too.
        let mut retired: Vec<NodeId> = Vec::new();
        for &id in &old_chain {
            if new_chain.binary_search(&id).is_ok() {
                continue;
            }
            let names = self.prod_names_mut(id);
            names.retain(|&s| s != name);
            if names.is_empty() {
                retired.push(id);
            }
        }
        if !retired.is_empty() {
            self.retire(&retired);
        }
        retired
    }
}

/// A compile error (invalid production or invalid bilinear grouping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError(pub String);

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rete build error: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

/// Outcome of adding one production.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddResult {
    /// Index into [`crate::ReteNetwork::prods`].
    pub prod_idx: u32,
    /// All nodes with id `>= first_new` were created by this addition.
    pub first_new: NodeId,
    /// Newly created two-input nodes.
    pub new_two_input: u32,
    /// Two-input nodes reused from earlier productions.
    pub shared_two_input: u32,
    /// The terminal P node.
    pub p_node: NodeId,
}

/// Result of [`ReteBuild::reorg_build`]: the freshly compiled replacement
/// subnetwork for a production being reorganized, not yet committed. The
/// caller runs the §5.2 state update over `first_new..` and then commits
/// (swapping the production over and retiring the old chain) — the old
/// chain is untouched until commit, so a failed build rolls back to the
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

impl ReorgBuild {
    fn into_info(self, production: Arc<Production>) -> ProdInfo {
        ProdInfo {
            production,
            p_node: self.p_node,
            pos_slots: self.pos_slots,
            first_new: self.first_new,
            new_two_input: self.new_two_input,
            shared_two_input: self.shared_two_input,
            org: self.org,
        }
    }
}

/// Collect the join-chain ancestry of `p_node` (the node itself, its
/// parents and beta right-sources, transitively), excluding the root —
/// exactly the node set a production's compilation touched. Sorted.
fn chain_ancestors<N: ReteView + ?Sized>(net: &N, p_node: NodeId) -> Vec<NodeId> {
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

/// Compile `prod` as production `prod_idx` under `org`, appending its new
/// nodes from id `num_nodes()` on; on error, take its name back off the
/// shared nodes it reached and roll the network back.
fn compile<N: ReteBuild + ?Sized>(
    net: &mut N,
    prod: &Arc<Production>,
    org: NetworkOrg,
    prod_idx: u32,
) -> Result<ReorgBuild, BuildError> {
    let first_new = net.num_nodes() as NodeId;
    let mut builder = Builder::new(net, prod);
    let built = builder.build(&org, prod_idx);
    let named = builder.named;
    match built {
        Ok((p_node, pos_slots, new_two_input, shared_two_input)) => Ok(ReorgBuild {
            prod_idx,
            org,
            first_new,
            p_node,
            pos_slots,
            new_two_input,
            shared_two_input,
        }),
        Err(e) => {
            for id in named {
                net.prod_names_mut(id).retain(|&s| s != prod.name);
            }
            net.rollback(first_new);
            Err(e)
        }
    }
}

struct Builder<'a, T: ReteBuild + ?Sized> {
    net: &'a mut T,
    prod: &'a Production,
    /// pos_idx → flat condition index.
    flat_of_pos: Vec<u16>,
    /// ce index → flat index of its first condition.
    flat_base: Vec<u16>,
    /// In-scope negation-local bindings: var → (flat, field).
    locals: FxHashMap<VarId, (u16, u16)>,
    new_two: u32,
    shared_two: u32,
    /// Existing nodes this build added the production's name to.
    named: Vec<NodeId>,
}

#[derive(Default)]
struct CompiledCond {
    alpha_tests: Vec<AlphaTest>,
    intra: Vec<IntraTest>,
    /// Equality joins: (left_slot, left_field, right_field).
    eqs: Vec<(u16, u16, u16)>,
    tests: Vec<JoinTest>,
}

fn slot_of(cov: &[u16], flat: u16) -> Option<u16> {
    cov.iter().position(|&x| x == flat).map(|i| i as u16)
}

/// Key on the wme ids of slots `0..k` (identity constraints of NCC and
/// bilinear spine joins; the same spec on both sides).
fn id_key(k: u16) -> Vec<KeyPart> {
    (0..k).map(|slot| KeyPart::Id { slot }).collect()
}

impl<'a, T: ReteBuild + ?Sized> Builder<'a, T> {
    fn new(net: &'a mut T, prod: &'a Production) -> Self {
        // Flat condition indexing.
        let mut flat_base = Vec::with_capacity(prod.ces.len());
        let mut flat_of_pos = Vec::new();
        let mut f: u16 = 0;
        for ce in &prod.ces {
            flat_base.push(f);
            if ce.is_pos() {
                flat_of_pos.push(f);
            }
            f += ce.conds().len() as u16;
        }
        Builder {
            net,
            prod,
            flat_of_pos,
            flat_base,
            locals: FxHashMap::default(),
            new_two: 0,
            shared_two: 0,
            named: Vec::new(),
        }
    }

    fn err<R>(&self, msg: impl Into<String>) -> Result<R, BuildError> {
        Err(BuildError(format!("{}: {}", self.prod.name, msg.into())))
    }

    fn compile_cond(&mut self, c: &Cond, f: u16, cov: &[u16]) -> Result<CompiledCond, BuildError> {
        let mut out = CompiledCond::default();
        let mut bound_here: Vec<VarId> = Vec::new();
        for t in &c.tests {
            let (field, pred, var) = match *t {
                FieldTest::Const { field, pred, value } => {
                    out.alpha_tests.push(AlphaTest { field, pred: PredOrd(pred), value });
                    continue;
                }
                FieldTest::Var { field, pred, var } => (field, pred, var),
            };
            // A variable test means "the attribute is present": an unset
            // (Nil) field never matches a variable. Compiled as a constant
            // ≠nil test so it is shared in the alpha network.
            out.alpha_tests.push(AlphaTest {
                field,
                pred: PredOrd(Pred::Ne),
                value: psme_ops::Value::Nil,
            });
            // Where the variable is bound: (flat condition, field), and how
            // to say it when that condition is outside this chain.
            let (bind_flat, bf, (what, escapes)) = match self.prod.bind_sites[var.0 as usize] {
                BindSite::Pos { pos_idx, field: bf } => {
                    let sf = self.flat_of_pos[pos_idx as usize];
                    if sf == f && bf == field && pred == Pred::Eq && !bound_here.contains(&var) {
                        bound_here.push(var); // the binding occurrence itself
                        continue;
                    }
                    let outside = "is bound in a condition outside this chain \
                                   (invalid bilinear grouping?)";
                    (sf, bf, ("variable", outside))
                }
                BindSite::NegLocal { .. } => match self.locals.get(&var).copied() {
                    None => {
                        debug_assert_eq!(pred, Pred::Eq, "ops validates binding preds");
                        self.locals.insert(var, (f, field));
                        continue;
                    }
                    Some((lf, bf)) => (lf, bf, ("negation-local variable", "escapes its chain")),
                },
                BindSite::Rhs => {
                    return self.err(format!(
                        "RHS-bound variable <{}> used in the LHS",
                        self.prod.var_names[var.0 as usize]
                    ))
                }
            };
            if bind_flat == f {
                out.intra.push(IntraTest { field_a: field, pred: PredOrd(pred), field_b: bf });
                continue;
            }
            let Some(ls) = slot_of(cov, bind_flat) else {
                let name = &self.prod.var_names[var.0 as usize];
                return self.err(format!("{what} <{name}> {escapes}"));
            };
            if pred == Pred::Eq {
                out.eqs.push((ls, bf, field));
            } else {
                out.tests.push(JoinTest {
                    left_slot: ls,
                    left_field: bf,
                    right_slot: 0,
                    right_field: field,
                    pred,
                });
            }
        }
        out.eqs.sort_unstable();
        out.tests.sort_unstable();
        Ok(out)
    }

    /// The alpha-right node of `kind` that tests condition `c` (flat index
    /// `f`) against tokens of `(cur, cov)`: the condition compiled, its
    /// alpha memory interned, its equality joins turned into hash keys.
    fn cond_node(
        &mut self,
        kind: NodeKind,
        c: &Cond,
        f: u16,
        cur: NodeId,
        cov: &[u16],
    ) -> Result<BetaNode, BuildError> {
        let cc = self.compile_cond(c, f, cov)?;
        let alpha = self.net.intern_alpha(c.class, cc.alpha_tests, cc.intra);
        let left_key = cc.eqs.iter().map(|&(slot, field, _)| KeyPart::Val { slot, field });
        let right_key = cc.eqs.iter().map(|&(_, _, field)| KeyPart::Val { slot: 0, field });
        Ok(BetaNode {
            kind,
            parent: cur,
            right: Some(RightSrc::Alpha(alpha)),
            tests: cc.tests,
            left_key: left_key.collect(),
            right_key: right_key.collect(),
            coverage: cov.to_vec(),
            right_coverage: vec![f],
            ..BetaNode::default()
        })
    }

    /// Find-or-create a node; returns its id.
    fn make_node(&mut self, mut node: BetaNode) -> NodeId {
        let name = self.prod.name;
        if let Some(id) = self.net.find_shared(&node.signature()) {
            let names = self.net.prod_names_mut(id);
            if !names.contains(&name) {
                names.push(name);
                self.named.push(id);
            }
            let shared = self.net.node(id);
            // Structural sanity: equal signatures imply equal token shapes.
            // (The *labels* in `coverage` may differ between the sharing
            // productions — e.g. a chunk whose shared prefix sits at other
            // flat CE indices — but slots are interpreted positionally per
            // production, so only the widths must agree.)
            debug_assert_eq!(shared.coverage.len(), node.coverage.len());
            debug_assert_eq!(shared.right_coverage.len(), node.right_coverage.len());
            if shared.is_two_input() {
                self.shared_two += 1;
            }
            return id;
        }
        if node.is_two_input() {
            self.new_two += 1;
        }
        node.prod_names = vec![name];
        self.net.push_node(node)
    }

    /// Build a positive condition as a Join node on `(cur, cov)`.
    fn build_pos(
        &mut self,
        c: &Cond,
        f: u16,
        cur: NodeId,
        cov: &[u16],
    ) -> Result<(NodeId, Vec<u16>), BuildError> {
        let mut node = self.cond_node(NodeKind::Join, c, f, cur, cov)?;
        node.coverage.push(f);
        node.merge = (0..cov.len() as u16).map(MergeSrc::L).chain([MergeSrc::R(0)]).collect();
        let coverage = node.coverage.clone();
        Ok((self.make_node(node), coverage))
    }

    /// Build a negated condition as a Neg node (coverage unchanged).
    fn build_neg(&mut self, c: &Cond, f: u16, cur: NodeId, cov: &[u16]) -> Result<NodeId, BuildError> {
        let saved_locals = self.locals.clone();
        let node = self.cond_node(NodeKind::Neg, c, f, cur, cov)?;
        self.locals = saved_locals; // CE-local bindings go out of scope
        Ok(self.make_node(node))
    }

    /// Build a conjunctive negation: subnetwork joins + a beta-right Neg.
    fn build_ncc(
        &mut self,
        conds: &[Cond],
        flat_start: u16,
        cur: NodeId,
        cov: &[u16],
    ) -> Result<NodeId, BuildError> {
        let saved_locals = self.locals.clone();
        let mut scur = cur;
        let mut scov = cov.to_vec();
        for (j, c) in conds.iter().enumerate() {
            let (n, c2) = self.build_pos(c, flat_start + j as u16, scur, &scov)?;
            scur = n;
            scov = c2;
        }
        self.locals = saved_locals; // group-local bindings go out of scope
        let key = id_key(cov.len() as u16);
        Ok(self.make_node(BetaNode {
            kind: NodeKind::Neg,
            parent: cur,
            right: Some(RightSrc::Beta(scur)),
            left_key: key.clone(),
            right_key: key,
            coverage: cov.to_vec(),
            right_coverage: scov,
            ..BetaNode::default()
        }))
    }

    /// Build a chain of condition elements onto `(cur, cov)`.
    fn build_chain(
        &mut self,
        ces: &[(usize, &CondElem)],
        mut cur: NodeId,
        mut cov: Vec<u16>,
    ) -> Result<(NodeId, Vec<u16>), BuildError> {
        for &(ce_idx, ce) in ces {
            let f = self.flat_base[ce_idx];
            match ce {
                CondElem::Pos(c) => {
                    let (n, c2) = self.build_pos(c, f, cur, &cov)?;
                    cur = n;
                    cov = c2;
                }
                CondElem::Neg(c) => {
                    if cur == ROOT {
                        return self.err("a negated condition cannot start a chain");
                    }
                    cur = self.build_neg(c, f, cur, &cov)?;
                }
                CondElem::Ncc(cs) => {
                    if cur == ROOT {
                        return self.err("a conjunctive negation cannot start a chain");
                    }
                    cur = self.build_ncc(cs, f, cur, &cov)?;
                }
            }
        }
        Ok((cur, cov))
    }

    /// Compile the production as `prod_idx`, appending nodes and returning
    /// `(p_node, pos_slots, new_two_input, shared_two_input)`. On error the
    /// target is left with partially appended nodes — the caller rolls back.
    fn build(
        &mut self,
        org: &NetworkOrg,
        prod_idx: u32,
    ) -> Result<(NodeId, Vec<u16>, u32, u32), BuildError> {
        let prod = self.prod;
        let (cur, cov) = match org {
            NetworkOrg::Linear => {
                let ces: Vec<(usize, &CondElem)> = prod.ces.iter().enumerate().collect();
                self.build_chain(&ces, ROOT, Vec::new())?
            }
            NetworkOrg::Bilinear(groups) => {
                // Validate: groups partition 0..ces.len(), group 0 nonempty
                // and starting with a positive CE.
                let mut seen = vec![false; prod.ces.len()];
                for g in groups {
                    for &i in g {
                        if i >= prod.ces.len() || seen[i] {
                            return self.err("bilinear groups must partition the CE list");
                        }
                        seen[i] = true;
                    }
                }
                if !seen.iter().all(|&s| s) || groups.is_empty() || groups[0].is_empty() {
                    return self.err("bilinear groups must partition the CE list");
                }
                if !prod.ces[groups[0][0]].is_pos() {
                    return self.err("bilinear group 0 must start with a positive CE");
                }
                let g0: Vec<(usize, &CondElem)> =
                    groups[0].iter().map(|&i| (i, &prod.ces[i])).collect();
                let (bottom0, cov0) = self.build_chain(&g0, ROOT, Vec::new())?;
                let k0 = cov0.len() as u16;
                let mut cur = bottom0;
                let mut cov = cov0.clone();
                for g in &groups[1..] {
                    if g.is_empty() {
                        return self.err("empty bilinear group");
                    }
                    let gc: Vec<(usize, &CondElem)> =
                        g.iter().map(|&i| (i, &prod.ces[i])).collect();
                    self.locals.clear();
                    let (bg, covg) = self.build_chain(&gc, bottom0, cov0.clone())?;
                    // Spine join: identity constraints on the shared group-0
                    // prefix (positions 0..k0 on both sides).
                    let mut merge: Vec<MergeSrc> =
                        (0..cov.len() as u16).map(MergeSrc::L).collect();
                    merge.extend((k0..covg.len() as u16).map(MergeSrc::R));
                    cov.extend_from_slice(&covg[k0 as usize..]);
                    let key = id_key(k0);
                    cur = self.make_node(BetaNode {
                        kind: NodeKind::Join,
                        parent: cur,
                        right: Some(RightSrc::Beta(bg)),
                        left_key: key.clone(),
                        right_key: key,
                        coverage: cov.clone(),
                        right_coverage: covg,
                        merge,
                        ..BetaNode::default()
                    });
                }
                (cur, cov)
            }
        };

        // Terminal production node (never shared).
        let mut pos_slots = Vec::with_capacity(prod.num_pos as usize);
        for &flat in &self.flat_of_pos {
            match slot_of(&cov, flat) {
                Some(s) => pos_slots.push(s),
                None => return self.err("internal: positive CE missing from final coverage"),
            }
        }
        let p_node = self.net.push_node(BetaNode {
            kind: NodeKind::Prod { prod: prod_idx },
            parent: cur,
            coverage: cov,
            prod_names: vec![prod.name],
            ..BetaNode::default()
        });
        Ok((p_node, pos_slots, self.new_two, self.shared_two))
    }
}

#[cfg(test)]
mod tests {
    use super::ReteBuild;
    use crate::network::{NetworkOrg, ReteNetwork};
    use psme_ops::{parse_production, ClassRegistry};
    use std::sync::Arc;

    fn reg() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        r.declare_str("a", &["x", "y"]);
        r.declare_str("b", &["x", "y"]);
        r
    }

    #[test]
    fn invalid_bilinear_groups_roll_back_cleanly() {
        let mut r = reg();
        let mut net = ReteNetwork::new();
        let ok = parse_production("(p keep (a ^x 1) --> (halt))", &mut r).unwrap();
        net.add_production(Arc::new(ok), NetworkOrg::Linear).unwrap();
        let nodes_before = net.num_nodes();
        let sigs_before = net.sig_index.len();

        let p = parse_production("(p bad (a ^x <v>) (b ^x <v>) --> (halt))", &mut r).unwrap();
        // Not a partition: CE 1 appears twice.
        let err = net
            .add_production(Arc::new(p.clone()), NetworkOrg::Bilinear(vec![vec![0], vec![1, 1]]))
            .unwrap_err();
        assert!(err.0.contains("partition"), "{err}");
        assert_eq!(net.num_nodes(), nodes_before, "rollback removed new nodes");
        assert_eq!(net.sig_index.len(), sigs_before);
        assert_eq!(net.prods.len(), 1);
        // Alpha successor lists contain no dangling node ids.
        for m in net.alpha.mems() {
            for &(c, _) in &m.successors {
                assert!((c as usize) < net.num_nodes());
            }
        }
        // The same production still compiles fine linearly afterwards.
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
    }

    #[test]
    fn cross_chain_variable_dependency_rejected() {
        let mut r = reg();
        let mut net = ReteNetwork::new();
        // <v> is bound in CE1 (group 1) and used in CE2 (group 2):
        // invalid grouping, caught at compile time.
        let p = parse_production(
            "(p dep (a ^x 1) (a ^y <v>) (b ^x <v>) --> (halt))",
            &mut r,
        )
        .unwrap();
        let err = net
            .add_production(
                Arc::new(p),
                NetworkOrg::Bilinear(vec![vec![0], vec![1], vec![2]]),
            )
            .unwrap_err();
        assert!(err.0.contains("bilinear"), "{err}");
    }

    #[test]
    fn group_zero_must_start_positive() {
        let mut r = reg();
        let mut net = ReteNetwork::new();
        let p = parse_production("(p neg2 (a ^x 1) -(b ^x 1) --> (halt))", &mut r).unwrap();
        let err = net
            .add_production(Arc::new(p), NetworkOrg::Bilinear(vec![vec![1], vec![0]]))
            .unwrap_err();
        assert!(err.0.contains("positive"), "{err}");
    }

    #[test]
    fn identical_productions_share_everything_but_p_nodes() {
        let mut r = reg();
        let mut net = ReteNetwork::new();
        let p1 = parse_production("(p same1 (a ^x <v>) (b ^x <v>) --> (halt))", &mut r).unwrap();
        let p2 = parse_production("(p same2 (a ^x <v>) (b ^x <v>) --> (halt))", &mut r).unwrap();
        let r1 = net.add_production(Arc::new(p1), NetworkOrg::Linear).unwrap();
        let r2 = net.add_production(Arc::new(p2), NetworkOrg::Linear).unwrap();
        assert_eq!(r1.shared_two_input, 0);
        assert_eq!(r2.shared_two_input, 2, "both joins shared");
        assert_eq!(r2.new_two_input, 0);
        assert_ne!(r1.p_node, r2.p_node, "P nodes never shared");
    }

    #[test]
    fn new_node_ids_strictly_increase() {
        // §5.2's key property: "a newly added node is always assigned an ID
        // greater than any other existing node in the network".
        let mut r = reg();
        let mut net = ReteNetwork::new();
        let mut last_max = 0;
        for i in 0..5 {
            let p = parse_production(
                &format!("(p p{i} (a ^x {i}) (b ^y {i}) --> (halt))"),
                &mut r,
            )
            .unwrap();
            let res = net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
            assert!(res.first_new as usize >= last_max);
            last_max = net.num_nodes();
        }
    }
}
