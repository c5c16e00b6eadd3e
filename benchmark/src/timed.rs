//! `Timed<E>`: a match engine that records a span around every call the
//! Soar layer makes into it.
//!
//! `Agent<E>` is generic over [`MatchEngine`], so wrapping the engine is
//! how the benchmark sees the soar/rete (or soar/core) boundary without
//! editing either crate: an `Agent::step` span minus the engine-call spans
//! inside it is the Soar layer's own time.

use crate::trace::{span, span_ns, Kind};
use psme_core::{MatchEngine, MetricsLog};
use psme_ops::{Instantiation, Production, TimeTag, Wme, WmeId};
use psme_rete::{
    AddOutcome, BuildError, ChainDetector, CycleOutcome, NetworkOrg, ReorgDecision, ReorgOutcome,
    WmeStore,
};
use std::sync::Arc;

/// The engine-call span kinds of one layer.
#[derive(Clone, Copy)]
pub struct EngineKinds {
    run_changes: Kind,
    add_wme: Kind,
    remove_wme: Kind,
    add_production: Kind,
}

/// Calls into `psme-rete`'s serial engine (and its journaled session).
pub const RETE: EngineKinds = EngineKinds {
    run_changes: Kind::ReteRunChanges,
    add_wme: Kind::ReteAddWme,
    remove_wme: Kind::ReteRemoveWme,
    add_production: Kind::ReteAddProduction,
};

/// Calls into `psme-core`'s parallel engine.
pub const CORE: EngineKinds = EngineKinds {
    run_changes: Kind::CoreRunChanges,
    add_wme: Kind::CoreAddWme,
    remove_wme: Kind::CoreRemoveWme,
    add_production: Kind::CoreAddProduction,
};

/// See the module docs.
pub struct Timed<E> {
    pub inner: E,
    kinds: EngineKinds,
    /// Tasks the engine reported for match cycles.
    pub match_tasks: u64,
    /// Tasks it reported for the state updates of production additions.
    pub update_tasks: u64,
    /// Duration of each `add_production` call in call order, nanoseconds.
    pub add_production_ns: Vec<f64>,
}

impl<E> Timed<E> {
    pub fn new(inner: E, kinds: EngineKinds) -> Timed<E> {
        Timed {
            inner,
            kinds,
            match_tasks: 0,
            update_tasks: 0,
            add_production_ns: Vec::new(),
        }
    }
}

impl<E: MatchEngine> MatchEngine for Timed<E> {
    fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome {
        let out = span(self.kinds.run_changes, || {
            self.inner.apply_changes(adds, removes)
        });
        self.match_tasks += out.tasks;
        out
    }

    fn add_wme(&mut self, w: Wme) -> (WmeId, TimeTag) {
        span(self.kinds.add_wme, || self.inner.add_wme(w))
    }

    fn remove_wme(&mut self, id: WmeId) -> bool {
        span(self.kinds.remove_wme, || self.inner.remove_wme(id))
    }

    fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> CycleOutcome {
        let out = span(self.kinds.run_changes, || self.inner.run_changes(changes));
        self.match_tasks += out.tasks;
        out
    }

    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddOutcome, BuildError> {
        let (out, ns) = span_ns(self.kinds.add_production, || {
            self.inner.add_production(prod, org)
        });
        self.add_production_ns.push(ns as f64);
        if let Ok(o) = &out {
            self.update_tasks += o.update_tasks;
        }
        out
    }

    // The closure is the Soar layer reading working memory: its time
    // belongs to the caller's span, so no span here.
    fn with_store<R>(&self, f: impl FnOnce(&WmeStore) -> R) -> R {
        self.inner.with_store(f)
    }

    fn num_net_nodes(&self) -> usize {
        self.inner.num_net_nodes()
    }

    fn current_instantiations(&self) -> Vec<Instantiation> {
        self.inner.current_instantiations()
    }

    fn recorder(&self) -> Option<&psme_obs::Recorder> {
        self.inner.recorder()
    }

    fn metrics(&self) -> Option<&MetricsLog> {
        self.inner.metrics()
    }

    fn set_cost_profiling(&mut self, on: bool) {
        self.inner.set_cost_profiling(on)
    }

    fn poll_reorg(&mut self, det: &mut ChainDetector) -> Option<ReorgDecision> {
        self.inner.poll_reorg(det)
    }

    fn reorganize_production(
        &mut self,
        prod_idx: u32,
        org: NetworkOrg,
    ) -> Result<ReorgOutcome, BuildError> {
        self.inner.reorganize_production(prod_idx, org)
    }
}
