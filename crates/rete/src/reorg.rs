//! Online detection of chain-dominant productions (§7 made incremental).
//!
//! The simulator's `diagnose_run` finds long-chain bottlenecks offline by
//! computing critical paths over full task traces — far too expensive for
//! the hot loop. Here engines keep a [`CostWindow`] — per-node activation
//! costs, one add per beta task, as a side effect of normal matching — and
//! at each quiescent decision boundary [`CostWindow::poll`] hands it to the
//! [`ChainDetector`], which folds it into per-production EWMA cost shares.
//! A production whose *linear* chain holds a dominant share of recent match
//! work — the same 0.35 dominance constant `diagnose_cycle` classifies
//! `LongChain` with — gets a [`ReorgDecision`]: the bilinear grouping
//! ([`crate::bilinear::plan_bilinear`]) that most shortens its dependent
//! chain. The engine then performs the actual surgery at the barrier via
//! `reorganize_production`.
//!
//! Detection is heuristic and must therefore be *observationally
//! invisible*: a decision only ever changes the network organization, never
//! the match semantics, and the differential suites pin bit-for-bit
//! equality of conflict sets and learning runs with the detector on or off.

use crate::bilinear::{plan_bilinear, plan_chain_length};
use crate::network::NetworkOrg;
use crate::node::NodeId;
use crate::util::FxHashMap;
use crate::view::ReteView;
use crate::work::Work;
use psme_ops::Symbol;

/// EWMA smoothing factor for per-production cost shares (weight of the
/// newest window).
const EWMA_ALPHA: f64 = 0.4;
/// Largest constraint-prefix length tried when planning the bilinear
/// grouping (k0 = 1..=MAX_K0).
const MAX_K0: usize = 4;
/// Only productions with at least this many positive CEs are candidates —
/// short chains cannot blow up super-quadratically.
const MIN_CES: usize = 4;

/// Tuning knobs for the online chain detector.
#[derive(Clone, Debug, PartialEq)]
pub struct ReorgConfig {
    /// Ignore observation windows with less total match work than this
    /// (cost units ≈ activations + entries scanned + emissions). Mirrors
    /// `diagnose_cycle`'s small-cycle guard: tiny cycles prove nothing.
    pub min_window_cost: u64,
    /// EWMA cost share above which a linear production is chain-dominant.
    /// Calibrated to the simulator's `CHAIN_DOMINANCE` (0.35): a chain
    /// holding over a third of recent match work caps parallelism under 3×.
    pub dominance: f64,
    /// Quiescent polls to skip after firing a decision — lets the rebuilt
    /// network's costs settle before judging the next candidate.
    pub cooldown: u64,
}

impl Default for ReorgConfig {
    fn default() -> ReorgConfig {
        ReorgConfig { min_window_cost: 2_000, dominance: 0.35, cooldown: 8 }
    }
}

/// A reorganization the detector recommends.
#[derive(Clone, Debug, PartialEq)]
pub struct ReorgDecision {
    /// Production to rebuild (index is preserved across the rebuild).
    pub prod_idx: u32,
    /// Its name (for traces and per-agent org overrides).
    pub name: Symbol,
    /// The bilinear grouping to rebuild with.
    pub org: NetworkOrg,
    /// Dependent chain length before / after (positive CE counts).
    pub chain_before: usize,
    pub chain_after: usize,
    /// The production's EWMA share of match cost when flagged.
    pub share: f64,
}

/// The beta work done at each node since the last poll — what an engine
/// armed for adaptive reorganization accumulates as it matches, and the
/// detector's only input. Dense costs plus the list of nodes that have one,
/// in first-touch order, so noting a task is an indexed add and a poll
/// visits and resets only the nodes that were active, not the network.
#[derive(Clone, Debug, Default)]
pub struct CostWindow {
    /// Cost per node id; nonzero exactly at the `touched` nodes.
    costs: Vec<u64>,
    touched: Vec<NodeId>,
}

impl CostWindow {
    fn add(&mut self, node: NodeId, cost: u64) {
        let i = node as usize;
        if self.costs.len() <= i {
            self.costs.resize(i + 1, 0);
        }
        if self.costs[i] == 0 {
            self.touched.push(node);
        }
        self.costs[i] += cost;
    }

    /// Book one processed beta activation at `node`: the task itself, the
    /// entries it scanned and the children it emitted — the unit the
    /// simulator prices.
    #[inline]
    pub fn note(&mut self, node: NodeId, w: &Work) {
        self.add(node, 1 + w.scanned as u64 + w.emitted as u64);
    }

    /// Move everything `other` holds into this window, leaving it empty (a
    /// match process handing its cycle's share to the engine's window).
    pub fn absorb(&mut self, other: &mut CostWindow) {
        for node in other.touched.drain(..) {
            let cost = std::mem::take(&mut other.costs[node as usize]);
            self.add(node, cost);
        }
    }

    /// Feed the window to the detector and start the next one. Call at a
    /// quiescent boundary.
    pub fn poll<N: ReteView + ?Sized>(
        &mut self,
        det: &mut ChainDetector,
        net: &N,
    ) -> Option<ReorgDecision> {
        let window = self.touched.iter().map(|&n| (n, self.costs[n as usize]));
        let d = det.fold(window, net);
        for node in self.touched.drain(..) {
            self.costs[node as usize] = 0;
        }
        d
    }
}

/// Incremental chain-dominance detector. One per agent; an engine feeds it
/// its [`CostWindow`] at quiescent boundaries.
#[derive(Clone, Debug)]
pub struct ChainDetector {
    cfg: ReorgConfig,
    /// Per-production EWMA share of window match cost.
    share: FxHashMap<u32, f64>,
    cooldown_left: u64,
    /// Decisions issued so far.
    pub decisions: u64,
    /// Cached name → production-index map, rebuilt only when the
    /// production count changes (it only grows — chunk adds — and a
    /// reorganization preserves its production's index). Rebuilding this
    /// every poll is what would make an armed-but-idle detector cost
    /// O(productions) per decision.
    idx_of: FxHashMap<Symbol, u32>,
    idx_prods: usize,
}

impl ChainDetector {
    /// New detector with the given tuning.
    pub fn new(cfg: ReorgConfig) -> ChainDetector {
        ChainDetector {
            cfg,
            share: FxHashMap::default(),
            cooldown_left: 0,
            decisions: 0,
            idx_of: FxHashMap::default(),
            idx_prods: usize::MAX,
        }
    }

    /// Fold one observation window — the nodes activated since the last
    /// call, as `(node id, cost)` pairs — and return a reorganization
    /// decision if some linear production's chain now dominates.
    ///
    /// Cost attribution: each node's cost is split evenly across the
    /// productions whose chains it serves (`prod_names` — the same
    /// bookkeeping node sharing maintains), so shared prefixes do not
    /// double-count.
    fn fold<N: ReteView + ?Sized>(
        &mut self,
        window_costs: impl Iterator<Item = (NodeId, u64)> + Clone,
        net: &N,
    ) -> Option<ReorgDecision> {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return None;
        }
        let total: u64 = window_costs.clone().map(|(_, c)| c).sum();
        if total < self.cfg.min_window_cost {
            return None;
        }
        // name → production index, for prod_names attribution.
        if self.idx_prods != net.num_prods() {
            self.idx_of.clear();
            for p in 0..net.num_prods() as u32 {
                self.idx_of.insert(net.prod_info(p).production.name, p);
            }
            self.idx_prods = net.num_prods();
        }
        let idx_of = &self.idx_of;
        let mut window: FxHashMap<u32, f64> = FxHashMap::default();
        for (id, c) in window_costs {
            let names = net.node(id).prod_names.as_slice();
            if names.is_empty() {
                continue;
            }
            let each = c as f64 / names.len() as f64;
            for name in names {
                if let Some(&p) = idx_of.get(name) {
                    *window.entry(p).or_insert(0.0) += each;
                }
            }
        }
        // EWMA fold: productions absent from this window decay toward 0.
        let a = EWMA_ALPHA;
        for s in self.share.values_mut() {
            *s *= 1.0 - a;
        }
        for (p, c) in window {
            *self.share.entry(p).or_insert(0.0) += a * (c / total as f64);
        }
        // Flag the dominant linear candidate, if any.
        let mut best: Option<(u32, f64)> = None;
        for (&p, &s) in &self.share {
            if s > self.cfg.dominance && best.map(|(_, bs)| s > bs).unwrap_or(true) {
                best = Some((p, s));
            }
        }
        let (prod_idx, share) = best?;
        let info = net.prod_info(prod_idx);
        if info.org != NetworkOrg::Linear {
            return None;
        }
        let prod = &info.production;
        // Negated / NCC chains are deferred (see ROADMAP): reorganize only
        // all-positive chains of useful length.
        if !prod.ces.iter().all(|ce| ce.is_pos()) || prod.ces.len() < MIN_CES {
            // Never a candidate: stop re-evaluating it every window.
            self.share.remove(&prod_idx);
            return None;
        }
        let chain_before = prod.ces.len();
        let mut plan: Option<(Vec<Vec<usize>>, usize)> = None;
        for k0 in 1..=MAX_K0.min(chain_before.saturating_sub(1)) {
            if let Some(groups) = plan_bilinear(prod, k0) {
                // A two-group "bilinear" is the linear chain plus spine
                // overhead; demand a real split.
                if groups.len() < 3 {
                    continue;
                }
                let len = plan_chain_length(&groups);
                if plan.as_ref().map(|&(_, best)| len < best).unwrap_or(true) {
                    plan = Some((groups, len));
                }
            }
        }
        let (groups, chain_after) = plan?;
        if chain_after >= chain_before {
            self.share.remove(&prod_idx);
            return None;
        }
        self.share.remove(&prod_idx);
        self.cooldown_left = self.cfg.cooldown;
        self.decisions += 1;
        Some(ReorgDecision {
            prod_idx,
            name: prod.name,
            org: NetworkOrg::Bilinear(groups),
            chain_before,
            chain_after,
            share,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ReteNetwork;
    use crate::serial::SerialEngine;
    use psme_ops::{parse_production, parse_wme, ClassRegistry};
    use std::sync::Arc;

    fn reg() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        r.declare_str("anchor", &["id"]);
        r.declare_str("item", &["grp", "anchor", "val"]);
        r.declare_str("partner", &["grp", "anchor", "val"]);
        r
    }

    fn chain_prod(r: &mut ClassRegistry) -> Arc<psme_ops::Production> {
        Arc::new(
            parse_production(
                "(p cross (anchor ^id <a>)
                          (item ^grp 1 ^anchor <a> ^val <v1>)
                          (item ^grp 2 ^anchor <a> ^val <v2>)
                          (partner ^grp 1 ^anchor <a> ^val <v1>)
                          (partner ^grp 2 ^anchor <a> ^val <v2>)
                   --> (halt))",
                r,
            )
            .unwrap(),
        )
    }

    #[test]
    fn dominant_linear_chain_is_flagged_with_a_shorter_plan() {
        let mut r = reg();
        let mut e = SerialEngine::new(ReteNetwork::new());
        e.add_production(chain_prod(&mut r), NetworkOrg::Linear).unwrap();
        e.set_cost_profiling(true);
        for i in 0..24 {
            e.apply_changes(
                vec![
                    parse_wme(&format!("(item ^grp 1 ^anchor a ^val {i})"), &r).unwrap(),
                    parse_wme(&format!("(item ^grp 2 ^anchor a ^val {i})"), &r).unwrap(),
                    parse_wme(&format!("(partner ^grp 1 ^anchor a ^val {i})"), &r).unwrap(),
                    parse_wme(&format!("(partner ^grp 2 ^anchor a ^val {i})"), &r).unwrap(),
                ],
                vec![],
            );
        }
        e.apply_changes(vec![parse_wme("(anchor ^id a)", &r).unwrap()], vec![]);
        let mut det = ChainDetector::new(ReorgConfig {
            min_window_cost: 100,
            ..ReorgConfig::default()
        });
        let d = e.poll_reorg(&mut det).expect("cross-product chain must be flagged");
        assert_eq!(d.prod_idx, 0);
        assert!(d.chain_after < d.chain_before, "{d:?}");
        assert!(matches!(d.org, NetworkOrg::Bilinear(_)));
        assert!(d.share > 0.35);
        // Cooldown: the very next window stays quiet.
        assert!(e.poll_reorg(&mut det).is_none());
    }

    #[test]
    fn acting_on_a_decision_is_observationally_invisible() {
        let mut r = reg();
        let mut e = SerialEngine::new(ReteNetwork::new());
        e.add_production(chain_prod(&mut r), NetworkOrg::Linear).unwrap();
        e.set_cost_profiling(true);
        for i in 0..12 {
            e.apply_changes(
                vec![
                    parse_wme(&format!("(item ^grp 1 ^anchor a ^val {i})"), &r).unwrap(),
                    parse_wme(&format!("(item ^grp 2 ^anchor a ^val {i})"), &r).unwrap(),
                    parse_wme(&format!("(partner ^grp 1 ^anchor a ^val {i})"), &r).unwrap(),
                    parse_wme(&format!("(partner ^grp 2 ^anchor a ^val {i})"), &r).unwrap(),
                ],
                vec![],
            );
        }
        e.apply_changes(vec![parse_wme("(anchor ^id a)", &r).unwrap()], vec![]);
        let mut det =
            ChainDetector::new(ReorgConfig { min_window_cost: 100, ..ReorgConfig::default() });
        let d = e.poll_reorg(&mut det).unwrap();
        let sort = |mut v: Vec<psme_ops::Instantiation>| {
            v.sort_by(|a, b| (a.prod, &a.wmes).cmp(&(b.prod, &b.wmes)));
            v
        };
        let before = sort(e.current_instantiations());
        let nodes_before = e.net.num_nodes();
        let out = e.reorganize_production(d.prod_idx, d.org.clone()).unwrap();
        assert!(out.retired > 0, "old chain interior must retire");
        assert_eq!(e.net.prod_info(0).org, d.org);
        assert_eq!(sort(e.current_instantiations()), before);
        // Matching continues correctly on the rebuilt network.
        let cs = e
            .apply_changes(
                vec![
                    parse_wme("(item ^grp 1 ^anchor a ^val fresh)", &r).unwrap(),
                    parse_wme("(partner ^grp 1 ^anchor a ^val fresh)", &r).unwrap(),
                ],
                vec![],
            )
            .cs;
        // New g1 pair crosses all 12 g2 pairs; nothing retracts.
        assert_eq!(cs.added.len(), 12);
        assert!(cs.removed.is_empty());
        // Retired nodes are unplugged, not leaked into traversals.
        assert!(e.net.num_nodes() > nodes_before);
        assert_eq!(e.net.retired_nodes(), out.retired);
    }

    #[test]
    fn quiet_windows_and_short_chains_stay_unflagged() {
        let mut r = reg();
        let mut e = SerialEngine::new(ReteNetwork::new());
        let short =
            parse_production("(p short (anchor ^id <a>) (item ^anchor <a>) --> (halt))", &mut r)
                .unwrap();
        e.add_production(Arc::new(short), NetworkOrg::Linear).unwrap();
        e.set_cost_profiling(true);
        let mut det = ChainDetector::new(ReorgConfig::default());
        // No work at all: below min_window_cost.
        assert!(e.poll_reorg(&mut det).is_none());
        // Work on a 2-CE chain: dominant but too short to reorganize.
        for i in 0..50 {
            e.apply_changes(
                vec![parse_wme(&format!("(item ^anchor a ^val {i})"), &r).unwrap()],
                vec![],
            );
        }
        let mut eager =
            ChainDetector::new(ReorgConfig { min_window_cost: 1, ..ReorgConfig::default() });
        assert!(e.poll_reorg(&mut eager).is_none());
    }
}
