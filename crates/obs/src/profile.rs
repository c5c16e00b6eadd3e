//! The per-node hot-spot profiler — §6 of the paper as a reusable tool.
//!
//! Gupta's measurements (which §6 follows) are all *per node*: how many
//! activations each two-input node sees, how many are null, how many
//! opposite-memory entries it scans, and where the simulated time goes.
//! [`NodeProfiler`] folds [`TaskRecord`] streams into exactly that, and
//! [`HotSpotReport`] keys the result back to production names through the
//! network's `prod_names` bookkeeping, so "node 117 is hot" becomes
//! "the eval-operator join chain is hot".

use crate::json::Json;
use crate::report::TextTable;
use psme_rete::{CycleTrace, NodeId, NodeKind, ReteNetwork, RightSrc, TaskKind, TaskRecord, Work};
use std::collections::HashMap;

/// Accumulated measurements for one node (or for the alpha network as a
/// whole, under node 0).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeProfile {
    /// Node id (0 aggregates all alpha tasks).
    pub node: NodeId,
    /// Activations processed at this node.
    pub activations: u64,
    /// Activations that emitted no children (null activations — pure
    /// overhead in the paper's accounting).
    pub nulls: u64,
    /// The activations' work, summed (saturating; `line` unused).
    pub work: Work,
    /// Attributed simulated cost in µs (whatever cost function the caller
    /// supplied — zero if none was).
    pub cost_us: f64,
}

impl NodeProfile {
    /// Null activations as a share of activations.
    pub fn null_ratio(&self) -> f64 {
        if self.activations == 0 {
            0.0
        } else {
            self.nulls as f64 / self.activations as f64
        }
    }
}

/// Streaming per-node profiler over task traces.
#[derive(Clone, Debug, Default)]
pub struct NodeProfiler {
    nodes: HashMap<NodeId, NodeProfile>,
    /// Cycles ingested.
    pub cycles: u64,
    /// Tasks ingested.
    pub tasks: u64,
}

impl NodeProfiler {
    /// Empty profiler.
    pub fn new() -> NodeProfiler {
        NodeProfiler::default()
    }

    /// Fold one cycle in without cost attribution.
    pub fn ingest(&mut self, trace: &CycleTrace) {
        self.ingest_costed(trace, |_, _| 0.0);
    }

    /// Fold one cycle in, attributing `cost(task, n_children)` µs to each
    /// task's destination node.
    pub fn ingest_costed(&mut self, trace: &CycleTrace, cost: impl Fn(&TaskRecord, usize) -> f64) {
        let mut children = vec![0usize; trace.tasks.len()];
        for t in &trace.tasks {
            if let Some(p) = t.parent {
                if let Some(c) = children.get_mut(p as usize) {
                    *c += 1;
                }
            }
        }
        for (i, t) in trace.tasks.iter().enumerate() {
            let key = if t.kind == TaskKind::Alpha { 0 } else { t.node };
            let p = self.nodes.entry(key).or_insert(NodeProfile { node: key, ..Default::default() });
            p.activations += 1;
            if TaskRecord::is_null(t.kind, &t.work) {
                p.nulls += 1;
            }
            p.work += t.work;
            p.cost_us += cost(t, children[i]);
            self.tasks += 1;
        }
        self.cycles += 1;
    }

    /// Fold many cycles in with cost attribution.
    pub fn ingest_run(
        &mut self,
        traces: &[CycleTrace],
        cost: impl Fn(&TaskRecord, usize) -> f64,
    ) {
        for t in traces {
            self.ingest_costed(t, &cost);
        }
    }

    /// Profile for one node.
    pub fn node(&self, id: NodeId) -> Option<&NodeProfile> {
        self.nodes.get(&id)
    }

    /// All profiles, hottest first (by attributed cost, then activations,
    /// then node id for determinism).
    pub fn ranked(&self) -> Vec<NodeProfile> {
        let mut v: Vec<NodeProfile> = self.nodes.values().copied().collect();
        v.sort_by(|a, b| {
            b.cost_us
                .partial_cmp(&a.cost_us)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.activations.cmp(&a.activations))
                .then(a.node.cmp(&b.node))
        });
        v
    }

    /// Total attributed cost across all nodes (µs).
    pub fn total_cost_us(&self) -> f64 {
        self.nodes.values().map(|p| p.cost_us).sum()
    }

    /// Build the top-`k` hot-node report, resolving production names
    /// through `net`.
    pub fn report(&self, net: &ReteNetwork, k: usize) -> HotSpotReport {
        let total_cost = self.total_cost_us();
        let total_act = self.tasks;
        let rows = self
            .ranked()
            .into_iter()
            .take(k)
            .map(|p| {
                let (kind, prods) = describe_node(net, p.node);
                let share = if total_cost > 0.0 {
                    p.cost_us / total_cost
                } else if total_act > 0 {
                    p.activations as f64 / total_act as f64
                } else {
                    0.0
                };
                HotRow { profile: p, kind, prods, share }
            })
            .collect();
        HotSpotReport { rows, total_cost_us: total_cost, total_tasks: total_act, cycles: self.cycles }
    }
}

/// `(kind label, owning production names)` for a node id.
fn describe_node(net: &ReteNetwork, id: NodeId) -> (String, Vec<String>) {
    if id == 0 {
        return ("alpha".to_string(), vec![]);
    }
    let Some(node) = net.betas.get(id as usize) else {
        return ("?".to_string(), vec![]);
    };
    let kind = match node.kind {
        NodeKind::Root => "root".to_string(),
        NodeKind::Join => "join".to_string(),
        NodeKind::Neg => match node.right {
            Some(RightSrc::Beta(_)) => "ncc".to_string(),
            _ => "not".to_string(),
        },
        NodeKind::Prod { .. } => "P".to_string(),
    };
    let mut prods: Vec<String> = match node.kind {
        NodeKind::Prod { prod } => net
            .prods
            .get(prod as usize)
            .map(|p| vec![psme_ops::sym_name(p.production.name).to_string()])
            .unwrap_or_default(),
        _ => node.prod_names.iter().map(|&s| psme_ops::sym_name(s).to_string()).collect(),
    };
    prods.dedup();
    (kind, prods)
}

/// One row of the hot-node table.
#[derive(Clone, Debug)]
pub struct HotRow {
    /// The measurements.
    pub profile: NodeProfile,
    /// Node kind label (`join`, `not`, `ncc`, `P`, `alpha`).
    pub kind: String,
    /// Productions this node belongs to (shared nodes list several).
    pub prods: Vec<String>,
    /// Share of total attributed cost (falls back to activation share when
    /// no cost function was supplied).
    pub share: f64,
}

/// The §6-style top-K hot-node table.
#[derive(Clone, Debug)]
pub struct HotSpotReport {
    /// Rows, hottest first.
    pub rows: Vec<HotRow>,
    /// Total attributed cost across *all* nodes (µs), not just the top K.
    pub total_cost_us: f64,
    /// Total tasks profiled.
    pub total_tasks: u64,
    /// Cycles profiled.
    pub cycles: u64,
}

impl HotSpotReport {
    /// Render as a plain-text table.
    pub fn to_text(&self) -> String {
        let mut t = TextTable::new(&[
            "node", "kind", "acts", "null%", "scanned", "emitted", "cost µs", "share%", "productions",
        ]);
        for r in &self.rows {
            let p = &r.profile;
            let prods = if r.prods.is_empty() { "-".to_string() } else { r.prods.join(",") };
            t.row(vec![
                p.node.to_string(),
                r.kind.clone(),
                p.activations.to_string(),
                format!("{:.1}", 100.0 * p.null_ratio()),
                p.work.scanned.to_string(),
                p.work.emitted.to_string(),
                format!("{:.1}", p.cost_us),
                format!("{:.1}", 100.0 * r.share),
                prods,
            ]);
        }
        format!(
            "hot nodes ({} tasks over {} cycles, {:.1} µs total attributed cost)\n{}",
            self.total_tasks,
            self.cycles,
            self.total_cost_us,
            t.render()
        )
    }

    /// As a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("total_tasks", Json::from(self.total_tasks)),
            ("cycles", Json::from(self.cycles)),
            ("total_cost_us", Json::float(self.total_cost_us)),
            (
                "nodes",
                Json::arr(self.rows.iter().map(|r| {
                    let p = &r.profile;
                    Json::obj([
                        ("node", Json::from(p.node)),
                        ("kind", Json::from(r.kind.as_str())),
                        ("productions", Json::arr(r.prods.iter().map(|s| Json::from(s.as_str())))),
                        ("activations", Json::from(p.activations)),
                        ("nulls", Json::from(p.nulls)),
                        ("null_ratio", Json::float(p.null_ratio())),
                        ("scanned", Json::from(p.work.scanned)),
                        ("emitted", Json::from(p.work.emitted)),
                        ("cost_us", Json::float(p.cost_us)),
                        ("share", Json::float(r.share)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psme_rete::ReteBuild;
    use psme_rete::{Phase, Side};

    fn rec(id: u32, node: NodeId, kind: TaskKind, scanned: u32, emitted: u32) -> TaskRecord {
        TaskRecord {
            id,
            parent: None,
            node,
            kind,
            side: Some(Side::Left),
            delta: 1,
            work: Work { scanned, emitted, line: Some(0), ..Work::default() },
            wall_ns: 100,
        }
    }

    fn trace(tasks: Vec<TaskRecord>) -> CycleTrace {
        CycleTrace { cycle: 0, phase: Phase::Match, tasks }
    }

    #[test]
    fn profiles_group_by_node_and_count_nulls() {
        let mut p = NodeProfiler::new();
        p.ingest_costed(
            &trace(vec![
                rec(0, 0, TaskKind::Alpha, 4, 1),
                rec(1, 7, TaskKind::Join, 3, 0), // null
                rec(2, 7, TaskKind::Join, 2, 2),
                rec(3, 9, TaskKind::Prod, 0, 0),
            ]),
            |t, _| t.work.scanned as f64,
        );
        let n7 = p.node(7).unwrap();
        assert_eq!(n7.activations, 2);
        assert_eq!(n7.nulls, 1);
        assert_eq!(n7.work.scanned, 5);
        assert!((n7.null_ratio() - 0.5).abs() < 1e-12);
        assert!((n7.cost_us - 5.0).abs() < 1e-12);
        // Alpha tasks pool under node 0; P-node tasks are not null.
        assert_eq!(p.node(0).unwrap().activations, 1);
        assert_eq!(p.node(9).unwrap().nulls, 0);
        assert_eq!(p.tasks, 4);
        // Ranked by cost: node 7 (5 µs) > node 0 (4 µs) > node 9 (0).
        let ranked = p.ranked();
        assert_eq!(ranked[0].node, 7);
        assert_eq!(ranked[1].node, 0);
    }

    #[test]
    fn report_resolves_production_names() {
        use psme_ops::{parse_production, ClassRegistry};
        use psme_rete::NetworkOrg;
        use std::sync::Arc;
        let mut reg = ClassRegistry::new();
        reg.declare_str("a", &["x", "y"]);
        let mut net = ReteNetwork::new();
        let prod =
            parse_production("(p hot-prod (a ^x <v>) (a ^y <v>) --> (halt))", &mut reg).unwrap();
        net.add_production(Arc::new(prod), NetworkOrg::Linear).unwrap();
        // Find a join node of the production.
        let join = net.two_input_nodes().next().unwrap().id;
        let mut p = NodeProfiler::new();
        p.ingest_costed(&trace(vec![rec(0, join, TaskKind::Join, 1, 1)]), |_, _| 1.0);
        let rep = p.report(&net, 5);
        assert_eq!(rep.rows.len(), 1);
        assert!(rep.rows[0].prods.iter().any(|n| n == "hot-prod"), "{:?}", rep.rows[0].prods);
        let text = rep.to_text();
        assert!(text.contains("hot-prod"));
        let json = rep.to_json();
        assert_eq!(
            json.get("nodes").unwrap().at(0).unwrap().get("productions").unwrap().at(0).unwrap().as_str(),
            Some("hot-prod")
        );
    }

    #[test]
    fn share_falls_back_to_activations_without_cost() {
        let mut p = NodeProfiler::new();
        p.ingest(&trace(vec![
            rec(0, 1, TaskKind::Join, 0, 1),
            rec(1, 1, TaskKind::Join, 0, 1),
            rec(2, 2, TaskKind::Join, 0, 1),
            rec(3, 2, TaskKind::Join, 0, 0),
        ]));
        let net = ReteNetwork::new();
        let rep = p.report(&net, 10);
        let total: f64 = rep.rows.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to 1: {total}");
    }
}
