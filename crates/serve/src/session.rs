//! Session construction over a shared topology, and per-session reports.

use psme_obs::{Json, Quantiles};
use psme_rete::snapshot::{ByteReader, ByteWriter, Journal};
use psme_rete::{
    open_frame, seal_frame, JournaledSession, ReorgConfig, ReteNetwork, SerialEngine,
    SnapshotError, Topology,
};
use psme_soar::{Agent, AgentStats, SoarTask, StopReason};
use std::sync::Arc;

/// Magic of a full session snapshot: the engine's op journal followed by
/// the agent's architecture shell and serving telemetry, one frame, one
/// checksum ([`psme_rete::seal_frame`] layout).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PSNS";
/// Session-snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One session to admit: a task instance (same production set as the shared
/// topology, its own initial working memory) plus a learning flag.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Session name (unique per serve call; used in reports).
    pub name: String,
    /// The task instance. Its productions must be the ones the shared
    /// topology was compiled from ([`build_topology`] on a task with the
    /// same production set, in the same order).
    pub task: SoarTask,
    /// Learn chunks during the run (into this session's private overlay).
    pub learning: bool,
}

/// Compile a task's base network (default + task productions, canonical
/// order) and freeze it into a shared topology.
///
/// The scratch agent compiles against empty working memory, so every
/// load finds zero instantiations and leaves the discarded scratch state
/// empty — sessions adopting this topology start bit-identical to a solo
/// agent that compiled the same productions itself.
pub fn build_topology(task: &SoarTask) -> Arc<Topology> {
    let engine: SerialEngine = SerialEngine::new(ReteNetwork::new());
    let mut agent = Agent::new(engine, task.classes.clone());
    task.install_productions(&mut agent);
    let scratch: SerialEngine = SerialEngine::new(ReteNetwork::new());
    let (net, state) = std::mem::replace(&mut agent.engine, scratch).into_parts();
    debug_assert_eq!(state.store.live_count(), 0, "base compile must not touch WM");
    Topology::freeze(net)
}

/// Per-session serving telemetry.
#[derive(Clone, Debug, Default)]
pub struct SessionTelemetry {
    /// Latency of each decision cycle (`Agent::step`), nanoseconds.
    pub cycle_latency: Quantiles,
    /// Wait between being queued and being picked up by a worker,
    /// nanoseconds (one sample per dispatch slice).
    pub queue_wait: Quantiles,
    /// Dispatch slices this session consumed.
    pub slices: u64,
    /// Beta nodes in this session's private overlay at completion.
    pub overlay_nodes: usize,
    /// Productions (chunks) in this session's private overlay.
    pub overlay_prods: usize,
}

/// Everything one served session produced.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Session name from its [`SessionSpec`].
    pub name: String,
    /// `None` if the session was shed by admission backpressure before
    /// ever running.
    pub stop: Option<StopReason>,
    /// Agent counters (zeroed for shed sessions).
    pub stats: AgentStats,
    /// Names of chunks learned in this session's overlay.
    pub chunk_names: Vec<String>,
    /// `(write …)` output.
    pub output: Vec<String>,
    /// Serving telemetry.
    pub telemetry: SessionTelemetry,
}

impl SessionReport {
    /// Shed-marker report.
    pub(crate) fn shed(name: String) -> SessionReport {
        SessionReport {
            name,
            stop: None,
            stats: AgentStats::default(),
            chunk_names: Vec::new(),
            output: Vec::new(),
            telemetry: SessionTelemetry::default(),
        }
    }

    /// Was this session shed by admission backpressure?
    pub fn was_shed(&self) -> bool {
        self.stop.is_none()
    }

    /// Serialize for artifacts.
    pub fn to_json(&self) -> Json {
        let t = &self.telemetry;
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            (
                "stop",
                match self.stop {
                    Some(s) => Json::from(format!("{s:?}")),
                    None => Json::from("Shed"),
                },
            ),
            ("decisions", Json::from(self.stats.decisions)),
            ("chunks_built", Json::from(self.stats.chunks_built)),
            ("cycle_latency_ns", t.cycle_latency.to_json()),
            ("queue_wait_ns", t.queue_wait.to_json()),
            ("slices", Json::from(t.slices)),
            ("overlay_nodes", Json::from(t.overlay_nodes as u64)),
            ("overlay_prods", Json::from(t.overlay_prods as u64)),
        ])
    }
}

/// A live session in the table: an agent over its private overlay network
/// and match state, plus raw telemetry samples.
///
/// The engine is a [`JournaledSession`]; in a tiered store the journal
/// records every engine mutation so the session can hibernate to bytes and
/// resume by replay. Non-tiered serving builds with the journal disabled —
/// recording off is a branch per mutation, nothing is stored.
pub(crate) struct Session {
    pub(crate) name: String,
    pub(crate) agent: Agent<JournaledSession>,
    pub(crate) cycle_ns: Vec<f64>,
    pub(crate) wait_ns: Vec<f64>,
    pub(crate) slices: u64,
    /// Remaining client-granted decision credit (open serving). `None`
    /// (batch serving) runs unbounded; `Some(0)` parks the session until
    /// the client's next `step` grant. Not persisted: streamed sessions
    /// are untiered, so credit never reaches a snapshot.
    pub(crate) credit: Option<u64>,
}

impl Session {
    /// Build and install a session over the shared topology. Productions
    /// are adopted (already compiled into the base), initial wmes and the
    /// top goal materialize in this session's own [`psme_rete::MatchState`].
    /// `journaled` enables the op journal (required to hibernate later).
    /// `reorg` arms the adaptive chain detector over this session's private
    /// overlay — reorganizations land in the overlay, never the shared base.
    /// Boxed: the session moves between slices as one pointer.
    pub(crate) fn build(
        spec: &SessionSpec,
        topo: &Arc<Topology>,
        journaled: bool,
        reorg: Option<&ReorgConfig>,
    ) -> Box<Session> {
        let engine = JournaledSession::fresh(topo.clone(), journaled);
        let mut agent = Agent::new(engine, spec.task.classes.clone());
        spec.task.install_adopted(&mut agent);
        agent.learning = spec.learning;
        if let Some(cfg) = reorg {
            agent.enable_adaptive_reorg(cfg.clone());
        }
        Box::new(Session {
            name: spec.name.clone(),
            agent,
            cycle_ns: Vec::new(),
            wait_ns: Vec::new(),
            slices: 0,
            credit: None,
        })
    }

    /// Hibernate to a versioned, checksummed snapshot: the engine's op
    /// journal, the agent's architecture shell, and the serving telemetry
    /// accumulated so far, sealed into one frame.
    pub(crate) fn hibernate(self) -> Vec<u8> {
        let journal = self
            .agent
            .engine
            .journal()
            .expect("only journaled sessions hibernate");
        let mut w = ByteWriter::new();
        journal.encode_payload(&self.agent.classes, &mut w);
        psme_soar::encode_shell(&self.agent, &mut w);
        w.u64(self.cycle_ns.len() as u64);
        for &v in &self.cycle_ns {
            w.f64(v);
        }
        w.u64(self.wait_ns.len() as u64);
        for &v in &self.wait_ns {
            w.f64(v);
        }
        w.u64(self.slices);
        seal_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, w.into_inner())
    }

    /// Resume a hibernated session: open and verify the frame, replay the
    /// op journal against the frozen topology, re-adopt the spec's
    /// productions (canonical order, bookkeeping only), then restore the
    /// architecture shell over the replayed engine. Every failure is a
    /// typed [`SnapshotError`] — a corrupted snapshot never panics and
    /// never yields a silently wrong session.
    /// `reorg` re-arms the chain detector with a fresh cost window — the
    /// detector's EWMA state is deliberately not persisted (it is a
    /// heuristic over recent load, stale after hibernation), but committed
    /// reorganizations themselves replay from the op journal.
    pub(crate) fn resume(
        spec: &SessionSpec,
        topo: &Arc<Topology>,
        bytes: &[u8],
        reorg: Option<&ReorgConfig>,
    ) -> Result<Box<Session>, SnapshotError> {
        let payload = open_frame(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let mut r = ByteReader::new(payload);
        let mut reg = spec.task.classes.clone();
        let journal = Journal::decode_payload(&mut r, &mut reg)?;
        let engine = JournaledSession::resume(topo.clone(), journal)?;
        let mut agent = Agent::new(engine, spec.task.classes.clone());
        spec.task.adopt_productions(&mut agent);
        psme_soar::decode_shell(&mut agent, &mut r)?;
        let mut cycle_ns = Vec::new();
        for _ in 0..r.count()? {
            cycle_ns.push(r.f64()?);
        }
        let mut wait_ns = Vec::new();
        for _ in 0..r.count()? {
            wait_ns.push(r.f64()?);
        }
        let slices = r.u64()?;
        r.expect_done()?;
        if let Some(cfg) = reorg {
            agent.enable_adaptive_reorg(cfg.clone());
        }
        let name = spec.name.clone();
        Ok(Box::new(Session { name, agent, cycle_ns, wait_ns, slices, credit: None }))
    }

    /// Finish: fold samples into a report.
    pub(crate) fn into_report(self, stop: StopReason) -> SessionReport {
        let net = &self.agent.engine.eng.net;
        let telemetry = SessionTelemetry {
            cycle_latency: Quantiles::from_samples(&self.cycle_ns),
            queue_wait: Quantiles::from_samples(&self.wait_ns),
            slices: self.slices,
            overlay_nodes: net.overlay_nodes(),
            overlay_prods: net.overlay_prods(),
        };
        SessionReport {
            name: self.name,
            stop: Some(stop),
            stats: self.agent.stats,
            chunk_names: self
                .agent
                .learned_chunks()
                .iter()
                .map(|c| psme_ops::sym_name(c.name).to_string())
                .collect(),
            output: self.agent.output.clone(),
            telemetry,
        }
    }
}
