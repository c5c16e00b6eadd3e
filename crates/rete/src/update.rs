//! Run-time update of state for newly added productions (§5.2).
//!
//! "The empty memories must be updated with PIs representing the partial
//! matches of the WM contents to the new production … The updating must be
//! confined to only the new nodes. … All nodes in the network have
//! incrementally assigned unique ID numbers and a newly added node is always
//! assigned an ID greater than any other existing node … the task queues are
//! changed to ignore tasks with IDs less than the first new node \[and\] the
//! last shared node must be specially executed in order to pass down all of
//! the PIs that it has stored as state."
//!
//! Our rendition: [`seed_update`] produces the seed activations —
//! re-emissions of every *boundary* (last-shared) node's stored tokens into
//! its new children, plus right activations obtained by re-running all of
//! working memory through the alpha network with the `min_node` filter set
//! to the first new node. Any engine (serial or parallel — the update phase
//! parallelizes, Figure 6-9) then drains those seeds with the same filter.

use crate::memory::MemoryTable;
use crate::node::{NodeId, RightSrc, Side, ROOT};
use crate::process::Activation;
use crate::token::Token;
use crate::view::ReteView;

/// Enumerate the output tokens (with stored weights — all 1 at the
/// quiescent point this runs at) an *old* node currently stores, by reading
/// the memory of one of its old consumers (every old non-root node has at
/// least one, because chains terminate in P nodes which store their inputs).
///
/// On an overlay view the consumer may be reached through a splice edge
/// (base node → overlay child), so both edge lists are consulted.
fn outputs_of_old_node<N: ReteView + ?Sized>(
    net: &N,
    mem: &MemoryTable,
    node: NodeId,
    first_new: NodeId,
) -> Vec<(Token, i32)> {
    if node == ROOT {
        return vec![(Token::empty(), 1)];
    }
    let n = net.node(node);
    for &(child, side) in n.out_edges.iter().chain(net.extra_out_edges(node)) {
        // A consumer masked into a session's retired pool has a purged
        // memory — reading it would seed nothing. Skip to a live one.
        if child < first_new && net.edge_live(child) {
            return mem.tokens_of(child, side);
        }
    }
    panic!(
        "old node {node} has no old consumer — network invariant violated \
         (every pre-existing node is on some pre-existing production's chain)"
    );
}

/// Build the seed activations for updating all nodes `>= first_new`.
///
/// The caller must be at a quiescent point (no cycle in flight) and must
/// afterwards process the seeds **and** one alpha re-run of all live wmes
/// with `min_node = first_new` — `run_update` of either engine does both.
///
/// The re-run routes through whatever classifier the network is configured
/// with: when the discrimination index is on, each live wme probes the
/// spliced jump table (which already contains the new production's alpha
/// memories) instead of scanning the class linearly; the `min_node` filter
/// then confines emission to the new nodes either way.
pub fn seed_update<N: ReteView + ?Sized>(
    net: &N,
    mem: &MemoryTable,
    first_new: NodeId,
) -> Vec<Activation> {
    let mut seeds = Vec::new();
    for id in first_new..net.num_nodes() as NodeId {
        let n = net.node(id);
        // Left seeds: the last shared node "specially executed" to pass its
        // stored PIs into its new child. (New parents feed their new
        // children during the update run itself; the root's single empty
        // token is implicit in right-activation processing.)
        if n.parent < first_new && n.parent != ROOT {
            for (t, w) in outputs_of_old_node(net, mem, n.parent, first_new) {
                seeds.push(Activation { node: id, side: Side::Left, token: t, delta: w });
            }
        }
        // Right seeds from an old beta source (a chunk sharing part of an
        // NCC subnetwork or bilinear group chain).
        if let Some(RightSrc::Beta(b)) = n.right {
            if b < first_new {
                for (t, w) in outputs_of_old_node(net, mem, b, first_new) {
                    seeds.push(Activation { node: id, side: Side::Right, token: t, delta: w });
                }
            }
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ReteBuild;
    use crate::alpha::AlphaNet;
    use crate::network::{NetworkOrg, ReteNetwork};
    use crate::process::process_wme_change;
    use crate::serial::SerialEngine;
    use psme_ops::{parse_production, parse_wme, ClassRegistry};
    use std::sync::Arc;

    /// The whole update frontier as an engine's `run_update` produces it:
    /// the boundary seeds, then the alpha re-run of every live wme.
    fn update_seeds(e: &SerialEngine, first_new: NodeId) -> Vec<Activation> {
        let mut seeds = seed_update(&e.net, &e.state.mem, first_new);
        for (id, _) in e.state.store.iter_alive() {
            process_wme_change(&e.net, &e.state.store, id, 1, first_new, &mut |a| seeds.push(a));
        }
        seeds
    }

    fn reg() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        r.declare_str("a", &["x", "y"]);
        r.declare_str("b", &["x", "y"]);
        r
    }

    #[test]
    fn boundary_seeds_come_from_shared_parent_memory() {
        let mut r = reg();
        let mut e = SerialEngine::new(ReteNetwork::new());
        let p1 = parse_production("(p base (a ^x <v>) (b ^x <v>) --> (halt))", &mut r).unwrap();
        e.add_production(Arc::new(p1), NetworkOrg::Linear).unwrap();
        // Three (a,b) pairs in WM.
        for i in 0..3 {
            e.apply_changes(
                vec![
                    parse_wme(&format!("(a ^x {i})"), &r).unwrap(),
                    parse_wme(&format!("(b ^x {i})"), &r).unwrap(),
                ],
                vec![],
            );
        }
        // Extend the shared chain: the boundary is the (a⋈b) join, whose 3
        // stored tokens must seed the new node's left input.
        let p2 =
            parse_production("(p ext (a ^x <v>) (b ^x <v>) (a ^y <v>) --> (halt))", &mut r).unwrap();
        let first_new = e.net.num_nodes() as NodeId;
        let res = e.net.add_production(Arc::new(p2), NetworkOrg::Linear).unwrap();
        assert_eq!(res.first_new, first_new);
        let seeds = seed_update(&e.net, &e.state.mem, first_new);
        let left_seeds: Vec<_> = seeds.iter().filter(|a| a.side == Side::Left).collect();
        assert_eq!(left_seeds.len(), 3, "one per stored boundary token");
        assert!(left_seeds.iter().all(|a| a.node >= first_new));
        assert!(left_seeds.iter().all(|a| a.token.len() == 2));
    }

    #[test]
    fn first_level_nodes_get_no_left_seeds() {
        let mut r = reg();
        let mut e = SerialEngine::new(ReteNetwork::new());
        let p1 = parse_production("(p base (a ^x 1) --> (halt))", &mut r).unwrap();
        e.add_production(Arc::new(p1), NetworkOrg::Linear).unwrap();
        e.apply_changes(vec![parse_wme("(a ^x 2)", &r).unwrap()], vec![]);
        // A production with a fresh first CE: its first-level join's left
        // input is the implicit root token, so only alpha re-runs seed it.
        let p2 = parse_production("(p fresh (b ^x 2) --> (halt))", &mut r).unwrap();
        let first_new = e.net.num_nodes() as NodeId;
        e.net.add_production(Arc::new(p2), NetworkOrg::Linear).unwrap();
        let seeds = seed_update(&e.net, &e.state.mem, first_new);
        assert!(seeds.iter().all(|a| a.side != Side::Left), "{seeds:?}");
    }

    #[test]
    fn alpha_rerun_agrees_with_linear_oracle() {
        // The §5.2 re-run of working memory must produce identical seeds
        // whether it routes through the spliced jump table or the linear
        // scan — on a wm populated *before* the production was added.
        let mut r = reg();
        let mut engines: Vec<SerialEngine> = (0..2)
            .map(|i| {
                let mut net = ReteNetwork::new();
                if i == 1 {
                    net.alpha = AlphaNet::reference();
                }
                SerialEngine::new(net)
            })
            .collect();
        let p1 = parse_production("(p base (a ^x <v>) (b ^x <v>) --> (halt))", &mut r).unwrap();
        let p2 = parse_production("(p ext (a ^x <v>) (b ^y <v>) --> (halt))", &mut r).unwrap();
        let mut all_seeds = Vec::new();
        for e in &mut engines {
            e.add_production(Arc::new(p1.clone()), NetworkOrg::Linear).unwrap();
            for i in 0..3 {
                e.apply_changes(
                    vec![
                        parse_wme(&format!("(a ^x {i} ^y {i})"), &r).unwrap(),
                        parse_wme(&format!("(b ^x {i} ^y {i})"), &r).unwrap(),
                    ],
                    vec![],
                );
            }
            let first_new = e.net.num_nodes() as NodeId;
            e.net.add_production(Arc::new(p2.clone()), NetworkOrg::Linear).unwrap();
            e.net.alpha.validate_index().unwrap();
            all_seeds.push(update_seeds(e, first_new));
        }
        assert!(!all_seeds[0].is_empty(), "the update must have work to do");
        assert_eq!(all_seeds[0], all_seeds[1], "indexed vs linear update seeds");
    }

    #[test]
    fn update_seeds_bundles_alpha_rerun() {
        let mut r = reg();
        let mut e = SerialEngine::new(ReteNetwork::new());
        let p1 = parse_production("(p base (a ^x <v>) --> (halt))", &mut r).unwrap();
        e.add_production(Arc::new(p1), NetworkOrg::Linear).unwrap();
        e.apply_changes(
            vec![parse_wme("(a ^x 1)", &r).unwrap(), parse_wme("(b ^x 1)", &r).unwrap()],
            vec![],
        );
        let p2 = parse_production("(p nb (b ^x <v>) --> (halt))", &mut r).unwrap();
        let first_new = e.net.num_nodes() as NodeId;
        e.net.add_production(Arc::new(p2), NetworkOrg::Linear).unwrap();
        let seeds = update_seeds(&e, first_new);
        // The (b ^x 1) wme reaches the new node's right input; the (a …)
        // wme is filtered out (its successors are all old).
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].side, Side::Right);
        assert!(seeds[0].node >= first_new);
    }
}
