//! The serving loop: admission, session table, worker pools, dispatch.
//!
//! Batch serving ([`serve`]): all sessions arrive up front (a batch-arrival
//! open system degenerates to this on a closed benchmark). Admission is
//! two-stage:
//!
//! 1. the **session table** holds at most `table_capacity` live sessions
//!    (each owns a `MatchState` and an overlay, so the table bounds memory);
//! 2. arrivals beyond that wait in a **bounded admission queue** of depth
//!    `admission_depth`; on overflow the *oldest* waiting entry is shed
//!    (shed-oldest keeps the freshest work under overload, and the shed
//!    set is deterministic — reported, never silently dropped).
//!
//! Dispatch: live sessions circulate as ids through a
//! [`psme_core::TaskQueues`] instance — the same three scheduler policies
//! as the match engine's task queues (§2.3/§6.1), here scheduling whole
//! decision-cycle slices instead of node activations. A worker pops a
//! session, runs up to `slice_decisions` decision cycles, and either
//! re-enqueues it (round-robin) or retires it and admits the next waiting
//! session. A session halting (`(halt)` on the RHS) retires **only that
//! session**— the loop drains the rest.
//!
//! The same worker pools also serve **open arrivals**
//! ([`crate::OpenServe`]): sessions submitted while the loop runs, each
//! optionally holding a client-granted *decision credit* — a session that
//! exhausts its credit parks in its table slot until the client grants
//! more (the wire protocol's `step` request). Batch serving is the
//! degenerate case: every session auto-runs with unbounded credit and
//! admissions close before the workers start.
//!
//! ## Sharding
//!
//! One `TaskQueues` instance is a single dispatch bus: every push and pop
//! crosses the same injector/spin locks, and past a knee (measured in the
//! serving DES) adding workers just adds contention. [`ShardConfig`]
//! splits serving into `shards` worker pools. Each shard owns a partition
//! of the sessions (routed by a [`ShardRouter`] — a stable hash of the
//! session name by default), its own `TaskQueues`, its own slice of the
//! admission/table budget, and — when tiering is on — its own
//! [`SessionStore`]. A session's match state therefore stays **affine** to
//! one pool's workers for its whole run. When a pool's queues run dry its
//! workers may steal a slice from another shard's queues (cross-shard
//! work-stealing, counted separately as `cross_shard_steals`); the stolen
//! session is checked out of and re-enqueued to its *home* shard, so
//! affinity is restored the moment the home pool catches up. `shards: 1`
//! (the default) is exactly the old single-bus loop.

use crate::session::{Session, SessionReport, SessionSpec};
use crate::store::{Checkout, SessionStore, TierConfig, TierReport};
use psme_core::{QueueStats, Scheduler, TaskQueues};
use psme_obs::{
    FlightRecorder, Json, Quantiles, Reservoir, TraceConfig, TraceKind, TraceLog, TraceRing,
};
use psme_rete::{ReorgConfig, Topology};
use psme_soar::StopReason;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// How sessions map to shards.
#[derive(Clone, Debug)]
pub enum ShardRouter {
    /// FNV-1a hash of the session *name*, mod the shard count — stable
    /// across runs, platforms, and spec order, so a session's home shard
    /// is reproducible (the cross-shard differential tests rely on it).
    Hash,
    /// `map[i]` is spec `i`'s shard (taken mod the shard count); must
    /// cover every spec. For tests that need a crafted partition.
    Explicit(Vec<u32>),
}

impl ShardRouter {
    /// Home shard for spec `idx` named `name` among `shards` pools.
    pub fn route(&self, idx: usize, name: &str, shards: usize) -> u32 {
        let shards = shards.max(1) as u64;
        match self {
            ShardRouter::Hash => {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &b in name.as_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                (h % shards) as u32
            }
            ShardRouter::Explicit(map) => (u64::from(map[idx]) % shards) as u32,
        }
    }
}

/// Sharded-serving knobs (defaults reproduce the unsharded loop).
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Worker pools. Total worker threads = `shards × workers`; the
    /// table/admission budgets split ceil-wise across pools. 1 = the
    /// single-bus loop, bit-for-bit.
    pub shards: usize,
    /// Session → shard routing.
    pub router: ShardRouter,
    /// Let a worker whose own pool ran dry steal a slice from another
    /// shard's queues (the slice still checks out of and re-enqueues to
    /// its home shard, so affinity is preserved).
    pub steal: bool,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig { shards: 1, router: ShardRouter::Hash, steal: true }
    }
}

/// A structurally invalid [`ServeConfig`], rejected before any thread
/// spawns or any seat count is derived.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `shard.shards == 0`: there is no zero-pool serving loop.
    ZeroShards,
    /// `workers == 0`: a shard with no workers can never drain.
    ZeroWorkers,
    /// `table_capacity < shards`: the ceil-split would hand every shard a
    /// seat the global budget doesn't have (`div_ceil` rounds *up*), so
    /// the table bound would silently inflate to `shards` seats.
    TableSmallerThanShards {
        /// Configured global table capacity.
        table_capacity: usize,
        /// Configured shard count.
        shards: usize,
    },
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::ZeroShards => {
                write!(f, "serve config: shard.shards must be >= 1 (got 0)")
            }
            ServeConfigError::ZeroWorkers => {
                write!(f, "serve config: workers per shard must be >= 1 (got 0)")
            }
            ServeConfigError::TableSmallerThanShards { table_capacity, shards } => write!(
                f,
                "serve config: table_capacity ({table_capacity}) must be >= shards ({shards}); \
                 the ceil-split would give each shard a whole seat and inflate the table bound"
            ),
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Serving-loop configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads **per shard**.
    pub workers: usize,
    /// Dispatch policy for each shard's session queue.
    pub scheduler: Scheduler,
    /// Max live sessions in the table (split ceil-wise across shards).
    pub table_capacity: usize,
    /// Max sessions waiting for a table slot (split ceil-wise across
    /// shards); overflow sheds the oldest.
    pub admission_depth: usize,
    /// Per-session decision budget (the harness's budget by default).
    pub max_decisions: u64,
    /// Decision cycles per dispatch slice.
    pub slice_decisions: u64,
    /// Event tracing / flight recorder (always-on by default; the
    /// `trace_overhead` bench gates the cost).
    pub trace: TraceConfig,
    /// Tiered session persistence. `None` (the default) serves exactly as
    /// before: sessions live in the table for their whole run. `Some`
    /// journals every session and lets each shard's store hibernate the
    /// LRU session out of the table under memory pressure (the shard's
    /// slice of `table_capacity` becomes the hot bound); hibernated
    /// sessions resume transparently on their next dispatch.
    pub tier: Option<TierConfig>,
    /// Worker-pool sharding (default: one shard = the classic loop).
    pub shard: ShardConfig,
    /// Adaptive join reorganization. `None` (the default) serves exactly
    /// as before. `Some` arms every session's chain detector with this
    /// config: chain-dominant productions are rebuilt bilinearly mid-run,
    /// into the session's private overlay — the shared base topology is
    /// never mutated. Committed reorganizations surface as
    /// `TraceKind::ReorgCommitted` events and in each session's
    /// `stats.reorganizations`.
    pub reorg: Option<ReorgConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 1,
            scheduler: Scheduler::default(),
            table_capacity: 64,
            admission_depth: 256,
            max_decisions: 400,
            slice_decisions: 8,
            trace: TraceConfig::default(),
            tier: None,
            shard: ShardConfig::default(),
            reorg: None,
        }
    }
}

impl ServeConfig {
    /// Check the structural invariants every serving entry point relies
    /// on. [`serve`] and [`crate::OpenServe::start`] call this and panic
    /// with the error's message on violation — better a loud rejection at
    /// construction than `div_ceil` quietly inflating per-shard seat
    /// counts.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.shard.shards == 0 {
            return Err(ServeConfigError::ZeroShards);
        }
        if self.workers == 0 {
            return Err(ServeConfigError::ZeroWorkers);
        }
        if self.table_capacity < self.shard.shards {
            return Err(ServeConfigError::TableSmallerThanShards {
                table_capacity: self.table_capacity,
                shards: self.shard.shards,
            });
        }
        Ok(())
    }
}

/// Per-shard slice of a [`ServeReport`].
#[derive(Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u32,
    /// Specs routed to this shard.
    pub sessions: usize,
    /// Of those, completed (not shed).
    pub completed: usize,
    /// Shed by this shard's admission queue.
    pub shed: usize,
    /// Queue stats merged over this shard's workers (their steal counters
    /// include cross-shard steals they performed).
    pub queue_stats: QueueStats,
    /// Fraction of this shard's dispatch-bus traffic that moved a session
    /// (`pops / (pops + failed_pops)`): 1.0 means every bus acquisition
    /// dispatched work, values near 0 mean the pool mostly spun on an
    /// empty bus.
    pub bus_occupancy: f64,
    /// Decision-cycle latency over sessions homed on this shard (ns).
    pub cycle_latency: Quantiles,
    /// Slices this shard's workers stole from *other* shards' queues.
    pub cross_shard_steals: u64,
    /// This shard's tier-store report (tiered runs only).
    pub tier: Option<TierReport>,
}

impl ShardReport {
    /// Serialize for artifacts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("shard", Json::from(u64::from(self.shard))),
            ("sessions", Json::from(self.sessions as u64)),
            ("completed", Json::from(self.completed as u64)),
            ("shed", Json::from(self.shed as u64)),
            ("cross_shard_steals", Json::from(self.cross_shard_steals)),
            ("bus_occupancy", Json::float(self.bus_occupancy)),
            ("cycle_latency_ns", self.cycle_latency.to_json()),
            (
                "queues",
                Json::obj([
                    ("pops", Json::from(self.queue_stats.pops)),
                    ("pushes", Json::from(self.queue_stats.pushes)),
                    ("failed_pops", Json::from(self.queue_stats.failed_pops)),
                    ("steals", Json::from(self.queue_stats.steals)),
                    ("steal_fails", Json::from(self.queue_stats.steal_fails)),
                ]),
            ),
            (
                "tier",
                match &self.tier {
                    Some(t) => t.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Outcome of one [`serve`] call.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-session reports, in spec order (shed sessions included, marked).
    pub sessions: Vec<SessionReport>,
    /// Sessions shed by admission backpressure.
    pub shed: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Completed sessions per second.
    pub sessions_per_sec: f64,
    /// Decision-cycle latency pooled over all completed sessions (ns).
    /// Aggregated by *merging* the per-shard reservoirs at a common
    /// stride, so no shard's samples are over-weighted.
    pub aggregate_cycle_latency: Quantiles,
    /// Queue stats merged over all workers of all shards.
    pub queue_stats: QueueStats,
    /// Per-shard breakdown (one entry even when unsharded).
    pub shards: Vec<ShardReport>,
    /// Total cross-shard steals (0 when unsharded or stealing is off).
    pub cross_shard_steals: u64,
    /// Echo of the config used (workers **per shard**).
    pub workers: usize,
    /// Echo of the config used.
    pub scheduler: Scheduler,
    /// The merged, sealed event trace (empty when tracing is disabled).
    /// `trace.to_json()` is the compact artifact, `trace.chrome_json()`
    /// the Perfetto-loadable export; sharded runs group worker tracks one
    /// process per shard.
    pub trace: TraceLog,
    /// Anomaly detector state after scanning the sealed trace: dumps for
    /// every shed/halt/tail-latency trigger.
    pub flight: FlightRecorder,
    /// Tier-store counters summed across shards, resume-latency quantiles
    /// pooled (`None` when serving ran without tiering). `peak_hot` is the
    /// sum of per-shard peaks — each shard enforces its own slice of the
    /// table bound independently.
    pub tier: Option<TierReport>,
}

impl ServeReport {
    /// Mean dispatch-bus occupancy over the run's shards.
    pub fn mean_bus_occupancy(&self) -> f64 {
        if self.shards.is_empty() {
            return 0.0;
        }
        self.shards.iter().map(|s| s.bus_occupancy).sum::<f64>() / self.shards.len() as f64
    }

    /// Serialize for artifacts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workers", Json::from(self.workers as u64)),
            ("scheduler", Json::from(format!("{:?}", self.scheduler))),
            ("shed", Json::from(self.shed as u64)),
            ("wall_seconds", Json::float(self.wall_seconds)),
            ("sessions_per_sec", Json::float(self.sessions_per_sec)),
            ("cycle_latency_ns", self.aggregate_cycle_latency.to_json()),
            ("cross_shard_steals", Json::from(self.cross_shard_steals)),
            ("mean_bus_occupancy", Json::float(self.mean_bus_occupancy())),
            ("shards", Json::arr(self.shards.iter().map(|s| s.to_json()))),
            (
                "trace",
                Json::obj([
                    ("events", Json::from(self.trace.events.len() as u64)),
                    ("dropped", Json::from(self.trace.dropped)),
                    ("flight_triggers", Json::from(self.flight.triggers)),
                    ("flight_dumps", Json::from(self.flight.dumps.len() as u64)),
                ]),
            ),
            (
                "tier",
                match &self.tier {
                    Some(t) => t.to_json(),
                    None => Json::Null,
                },
            ),
            ("sessions", Json::arr(self.sessions.iter().map(|s| s.to_json()))),
        ])
    }
}

/// Streamed-serving notifications ([`crate::OpenServe`]): the network
/// front-end routes these back to the owning client connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeEvent {
    /// A credited session consumed its grant and parked in its table slot;
    /// `decisions` is its total decision count so far (the wire `step`
    /// acknowledgement carries it).
    Parked {
        /// Session id.
        id: u32,
        /// Decisions executed so far.
        decisions: u64,
    },
    /// A session retired; its report can be fetched with
    /// [`crate::OpenServe::report`].
    Retired {
        /// Session id.
        id: u32,
    },
    /// Admission backpressure displaced this previously accepted session.
    Shed {
        /// Session id.
        id: u32,
    },
}

/// One worker pool: the queues, admission backlog, store tier, and
/// telemetry pools for its partition of the sessions.
pub(crate) struct ShardState {
    /// Session ids in flight on this shard, tagged with enqueue instants.
    pub(crate) queues: TaskQueues<(u32, Instant)>,
    /// This shard's admission backlog (untiered runs only).
    pub(crate) pending: Mutex<VecDeque<usize>>,
    /// Sessions currently holding one of this shard's table seats
    /// (untiered runs; tiered runs bound residency in the store instead).
    pub(crate) live: AtomicUsize,
    /// Sessions shed by this shard's admission queue.
    pub(crate) shed: AtomicUsize,
    /// Queue stats merged from this shard's workers at exit.
    pub(crate) stats: Mutex<QueueStats>,
    /// Cycle-latency reservoir for sessions homed here.
    pub(crate) cycle_pool: Mutex<Reservoir>,
    /// This shard's slice of the tier store (tiered runs only).
    pub(crate) store: Option<SessionStore>,
    /// Slices this shard's workers stole from other shards.
    pub(crate) cross_steals: AtomicU64,
}

/// Per-session table slot. The queue hands out exclusive ownership of an
/// id, so the *session* is never contended; the mutex makes the handoff
/// `Sync` and serializes the streamed-serving control fields (step
/// credit, learning toggles, close requests) against the worker touching
/// the same session.
#[derive(Default)]
pub(crate) struct Slot {
    /// The session, while live but not being stepped.
    pub(crate) sess: Option<Session>,
    /// Streamed sessions only: out of credit, waiting for the client's
    /// next `step` grant (not in any queue).
    pub(crate) parked: bool,
    /// Step credit granted while the session was in flight or pending;
    /// drained into the session at its next dispatch or park attempt.
    pub(crate) credit_due: u64,
    /// Learning toggle requested over the wire; applied at next dispatch.
    pub(crate) learn_due: Option<bool>,
    /// Client asked to close; the next dispatch (or park attempt) retires
    /// the session with [`StopReason::Closed`].
    pub(crate) closing: bool,
    /// Initial credit for sessions admitted later from the pending queue
    /// (`None` = auto-run, the batch default).
    pub(crate) grant: Option<u64>,
}

pub(crate) struct Inner {
    pub(crate) topo: Arc<Topology>,
    /// Spec `i`, set before id `i` ever circulates (all up front in batch
    /// serving, at submit time in open serving).
    pub(crate) specs: Vec<OnceLock<SessionSpec>>,
    pub(crate) cfg: ServeConfig,
    /// Spec index → home shard (fixed at admission by the router;
    /// `u32::MAX` until the id is submitted).
    pub(crate) home: Vec<AtomicU32>,
    pub(crate) shards: Vec<ShardState>,
    /// One slot per spec; see [`Slot`].
    pub(crate) slots: Vec<Mutex<Slot>>,
    pub(crate) reports: Mutex<Vec<Option<SessionReport>>>,
    /// Sessions admitted or waiting, not yet retired (all shards).
    pub(crate) remaining: AtomicI64,
    /// No further submissions will arrive; workers exit once `remaining`
    /// hits zero. Batch serving closes before the workers start.
    pub(crate) closed: AtomicBool,
    /// Ids handed out so far (== spec count in batch serving).
    pub(crate) submitted: AtomicUsize,
    /// Shared origin every trace ring stamps against.
    pub(crate) origin: Instant,
    /// Workers drain their rings here at loop exit (the join barrier).
    pub(crate) trace_sink: Mutex<TraceLog>,
    /// Control-side ring: batch staging, open-serving admission, and
    /// forced closes emit through this.
    pub(crate) ctl_ring: Mutex<TraceRing>,
    /// Queue stats for control-side seeds/pushes.
    pub(crate) seed_stats: Mutex<QueueStats>,
    /// Streamed-serving notifications (open serving only).
    pub(crate) events: Option<Sender<ServeEvent>>,
}

impl Inner {
    pub(crate) fn spec(&self, idx: usize) -> &SessionSpec {
        self.specs[idx].get().expect("spec set before its id circulates")
    }

    pub(crate) fn home_of(&self, idx: usize) -> usize {
        let h = self.home[idx].load(Ordering::Relaxed);
        debug_assert_ne!(h, u32::MAX, "home routed before the id circulates");
        h as usize
    }

    /// Per-shard slice of the table budget.
    pub(crate) fn cap_s(&self) -> usize {
        self.cfg.table_capacity.div_ceil(self.shards.len())
    }

    /// Per-shard slice of the admission-queue budget.
    pub(crate) fn depth_s(&self) -> usize {
        self.cfg.admission_depth.div_ceil(self.shards.len())
    }

    pub(crate) fn event(&self, ev: ServeEvent) {
        if let Some(tx) = &self.events {
            // A dropped receiver means the front-end stopped listening;
            // serving itself never depends on delivery.
            let _ = tx.send(ev);
        }
    }
}

/// Run one dispatch slice on a checked-out session. Emits the
/// `SliceStart`/`SliceEnd` pair and returns the stop reason if the session
/// finished inside this slice. Credited sessions run at most their
/// remaining credit.
fn run_slice(
    inner: &Inner,
    ring: &mut TraceRing,
    sess: &mut Session,
    idx: usize,
    wait_ns: f64,
) -> Option<StopReason> {
    sess.wait_ns.push(wait_ns);
    sess.slices += 1;
    let budget = match sess.credit {
        Some(c) => c.min(inner.cfg.slice_decisions.max(1)),
        None => inner.cfg.slice_decisions.max(1),
    };
    let cyc0 = sess.agent.stats.decisions;
    let reorg0 = sess.agent.stats.reorganizations;
    ring.emit(TraceKind::SliceStart, idx as u32, cyc0, cyc0, wait_ns as u64);
    let slice_start = Instant::now();
    let mut stop = None;
    for _ in 0..budget {
        let t0 = Instant::now();
        let r = sess.agent.step(inner.cfg.max_decisions);
        sess.cycle_ns.push(t0.elapsed().as_nanos() as f64);
        if let Some(c) = sess.credit.as_mut() {
            *c -= 1;
        }
        if let Some(r) = r {
            stop = Some(r);
            break;
        }
    }
    let cyc1 = sess.agent.stats.decisions;
    let exec_ns = slice_start.elapsed().as_nanos() as u64;
    // Reorganizations committed inside this slice (arg = count, not ns:
    // the per-reorg production index lives in the agent's own trace; here
    // the session id is the useful coordinate).
    let reorgs = sess.agent.stats.reorganizations - reorg0;
    if reorgs > 0 {
        ring.emit(TraceKind::ReorgCommitted, idx as u32, cyc0, cyc1, reorgs);
    }
    ring.emit(TraceKind::SliceEnd, idx as u32, cyc0, cyc1, exec_ns);
    stop
}

/// Retire a finished session: emit lifecycle events, fold telemetry into
/// its home shard's pools, and file its report.
pub(crate) fn finish_session(
    inner: &Inner,
    ring: &mut TraceRing,
    sess: Session,
    idx: usize,
    home: usize,
    reason: StopReason,
) {
    let cyc = sess.agent.stats.decisions;
    if reason == StopReason::Halted {
        ring.emit(TraceKind::Halted, idx as u32, cyc, cyc, 0);
    }
    ring.emit(TraceKind::Retired, idx as u32, cyc, cyc, 0);
    if inner.cfg.trace.session_phases && ring.enabled() {
        // Fold the session's control-phase spans into the trace, rebased
        // onto the run origin.
        for s in sess.agent.recorder.rebased_spans(inner.origin) {
            ring.emit_at(s.start_ns, TraceKind::PhaseBegin(s.phase), idx as u32, s.seq, s.seq, 0);
            ring.emit_at(
                s.start_ns.saturating_add(s.dur_ns),
                TraceKind::PhaseEnd(s.phase),
                idx as u32,
                s.seq,
                s.seq,
                s.dur_ns,
            );
        }
    }
    inner.shards[home].cycle_pool.lock().expect("pool lock").extend(&sess.cycle_ns);
    inner.reports.lock().expect("reports lock")[idx] = Some(sess.into_report(reason));
    inner.remaining.fetch_sub(1, Ordering::AcqRel);
    inner.event(ServeEvent::Retired { id: idx as u32 });
}

/// Put a session id back in circulation on its home shard. A worker in the
/// home pool pushes to its own queue end; a cross-shard thief must use the
/// any-thread seed entry point (the owner ends of a foreign pool's queues
/// belong to that pool's threads).
fn enqueue(inner: &Inner, qs: &mut QueueStats, home: usize, local: Option<usize>, idx: usize) {
    let item = (idx as u32, Instant::now());
    match local {
        Some(w) => inner.shards[home].queues.push(w, item, qs),
        None => inner.shards[home].queues.push_seed(idx % inner.cfg.workers, item, qs),
    }
}

/// Admit waiting sessions while `home` has free table seats (untiered
/// runs). Seats are reserved with a CAS so concurrent retire paths and
/// open-serving submissions never over-admit; a reserved seat with an
/// empty backlog is released again.
pub(crate) fn admit_pending(
    inner: &Inner,
    ring: &mut TraceRing,
    qs: &mut QueueStats,
    home: usize,
    local: Option<usize>,
) {
    let st = &inner.shards[home];
    let cap_s = inner.cap_s();
    loop {
        let cur = st.live.load(Ordering::Acquire);
        if cur >= cap_s {
            return;
        }
        if st
            .live
            .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            continue;
        }
        let next = st.pending.lock().expect("pending lock").pop_front();
        let Some(n) = next else {
            st.live.fetch_sub(1, Ordering::AcqRel);
            return;
        };
        let mut s = Session::build(inner.spec(n), &inner.topo, false, inner.cfg.reorg.as_ref());
        {
            let slot = inner.slots[n].lock().expect("slot lock");
            s.credit = slot.grant.map(|g| g.saturating_add(slot.credit_due));
        }
        let mut slot = inner.slots[n].lock().expect("slot lock");
        slot.credit_due = 0;
        slot.sess = Some(s);
        drop(slot);
        ring.emit(TraceKind::Admitted, n as u32, 0, 0, 0);
        enqueue(inner, qs, home, local, n);
        ring.emit(TraceKind::Enqueued, n as u32, 0, 0, 0);
    }
}

/// Execute one dispatch on session `idx`, whose home shard is `home`.
/// `local` is `Some(wid)` when the executing worker belongs to the home
/// pool (the affine fast path), `None` when it is a cross-shard thief.
fn step_session(
    inner: &Inner,
    ring: &mut TraceRing,
    qs: &mut QueueStats,
    home: usize,
    local: Option<usize>,
    idx: usize,
    enqueued: Instant,
) {
    let wait_ns = enqueued.elapsed().as_nanos() as f64;
    match &inner.shards[home].store {
        None => {
            let (mut sess, closing) = {
                let mut slot = inner.slots[idx].lock().expect("slot lock");
                let mut sess = slot.sess.take().expect("queued session is in its slot");
                if slot.credit_due > 0 {
                    let due = std::mem::take(&mut slot.credit_due);
                    *sess.credit.get_or_insert(0) += due;
                }
                if let Some(enable) = slot.learn_due.take() {
                    sess.agent.learning = enable;
                }
                (sess, std::mem::take(&mut slot.closing))
            };
            // A close that raced in retires the session instead of running it.
            let mut stop = if closing {
                Some(StopReason::Closed)
            } else {
                run_slice(inner, ring, &mut sess, idx, wait_ns)
            };
            let cyc = sess.agent.stats.decisions;
            if stop.is_none() && sess.credit == Some(0) {
                // Out of client credit: park in the slot (not in any queue)
                // unless a grant or close raced in. A shut-down loop
                // (`closed`) will never grant more credit, so parking would
                // stall forever — close.
                let mut slot = inner.slots[idx].lock().expect("slot lock");
                if slot.closing || inner.closed.load(Ordering::Acquire) {
                    slot.closing = false;
                    stop = Some(StopReason::Closed);
                } else if slot.credit_due > 0 {
                    let due = std::mem::take(&mut slot.credit_due);
                    *sess.credit.get_or_insert(0) += due;
                } else {
                    slot.parked = true;
                    slot.sess = Some(sess);
                    drop(slot);
                    inner.event(ServeEvent::Parked { id: idx as u32, decisions: cyc });
                    return;
                }
            }
            match stop {
                None => {
                    inner.slots[idx].lock().expect("slot lock").sess = Some(sess);
                    enqueue(inner, qs, home, local, idx);
                    ring.emit(TraceKind::Reenqueued, idx as u32, cyc, cyc, 0);
                }
                Some(reason) => {
                    finish_session(inner, ring, sess, idx, home, reason);
                    // The table seat it held goes to the home shard's
                    // oldest waiting session, if any.
                    inner.shards[home].live.fetch_sub(1, Ordering::AcqRel);
                    admit_pending(inner, ring, qs, home, local);
                }
            }
        }
        // Tiered: the home shard's store materializes the session lazily
        // (`Start`), hands back a live one (`Live`), or returns snapshot
        // bytes to verify and replay (`Resume`) — hibernating its LRU
        // resident whenever the shard's table slice is over capacity.
        Some(store) => {
            let (checkout, evicted) = store.checkout(idx);
            for &(victim, bytes) in &evicted.hibernated {
                ring.emit(TraceKind::Hibernated, victim, 0, 0, bytes as u64);
            }
            let mut sess = match checkout {
                Checkout::Live(s) => *s,
                Checkout::Start => {
                    let s =
                        Session::build(inner.spec(idx), &inner.topo, true, inner.cfg.reorg.as_ref());
                    ring.emit(TraceKind::Admitted, idx as u32, 0, 0, 0);
                    s
                }
                Checkout::Resume(bytes, _tier) => {
                    // Verify + replay outside the store lock; the slot is
                    // marked Running, so the id is exclusively ours.
                    let t0 = Instant::now();
                    let s = Session::resume(
                        inner.spec(idx),
                        &inner.topo,
                        &bytes,
                        inner.cfg.reorg.as_ref(),
                    )
                    .expect("snapshot encoded by this run must resume");
                    let ns = t0.elapsed().as_nanos() as f64;
                    store.note_resume_ns(ns);
                    let cyc = s.agent.stats.decisions;
                    ring.emit(TraceKind::Resumed, idx as u32, cyc, cyc, ns as u64);
                    s
                }
            };
            match run_slice(inner, ring, &mut sess, idx, wait_ns) {
                None => {
                    let cyc = sess.agent.stats.decisions;
                    let evicted = store.checkin(idx, sess);
                    for &(victim, bytes) in &evicted.hibernated {
                        ring.emit(TraceKind::Hibernated, victim, 0, 0, bytes as u64);
                    }
                    enqueue(inner, qs, home, local, idx);
                    ring.emit(TraceKind::Reenqueued, idx as u32, cyc, cyc, 0);
                }
                Some(reason) => {
                    store.retire(idx);
                    finish_session(inner, ring, sess, idx, home, reason);
                }
            }
        }
    }
}

/// Try to steal one queued slice from any other shard, round-robin from
/// this shard's right neighbor. Uses only the thief-safe queue entry
/// points, so it is sound from any thread.
fn steal_from_others(
    inner: &Inner,
    shard: usize,
    qs: &mut QueueStats,
) -> Option<(u32, Instant)> {
    let n = inner.shards.len();
    for k in 1..n {
        let victim = (shard + k) % n;
        if let Some(item) = inner.shards[victim].queues.steal_foreign(qs) {
            return Some(item);
        }
    }
    None
}

/// Consecutive empty dispatch attempts before an idle worker starts
/// sleeping instead of spinning — keeps open-serving pools from burning a
/// core while the wire is quiet, without adding latency under load.
const IDLE_SPINS: u32 = 64;

pub(crate) fn worker_loop(inner: &Inner, shard: usize, wid: usize) {
    let gwid = (shard * inner.cfg.workers + wid) as u32;
    let mut qs = QueueStats::default();
    // Thread-local event ring: emitting is a branch + array write, merged
    // into the run log only once, when this worker exits.
    let mut ring = TraceRing::from_config(gwid, &inner.cfg.trace, inner.origin);
    let nshards = inner.shards.len();
    let mut idle: u32 = 0;
    loop {
        // Own pool first — session affinity keeps state hot here.
        if let Some((idx, enq)) = inner.shards[shard].queues.pop(wid, &mut qs) {
            idle = 0;
            debug_assert_eq!(
                inner.home_of(idx as usize), shard,
                "a shard's queues only circulate its own sessions"
            );
            step_session(inner, &mut ring, &mut qs, shard, Some(wid), idx as usize, enq);
            continue;
        }
        // Own pool dry: steal a slice from another shard (if enabled).
        if inner.cfg.shard.steal && nshards > 1 {
            if let Some((idx, enq)) = steal_from_others(inner, shard, &mut qs) {
                idle = 0;
                let home = inner.home_of(idx as usize);
                inner.shards[shard].cross_steals.fetch_add(1, Ordering::Relaxed);
                ring.emit(TraceKind::CrossShardSteal, idx, 0, 0, home as u64);
                step_session(inner, &mut ring, &mut qs, home, None, idx as usize, enq);
                continue;
            }
        }
        if inner.remaining.load(Ordering::Acquire) <= 0 && inner.closed.load(Ordering::Acquire) {
            break;
        }
        idle = idle.saturating_add(1);
        if idle > IDLE_SPINS {
            std::thread::sleep(std::time::Duration::from_micros(50));
        } else {
            std::thread::yield_now();
        }
    }
    inner.shards[shard].stats.lock().expect("stats lock").merge(&qs);
    inner.trace_sink.lock().expect("trace lock").absorb(&mut ring);
}

/// Build the shard states for a run.
pub(crate) fn build_shards(cfg: &ServeConfig, n_specs: usize) -> Vec<ShardState> {
    let nshards = cfg.shard.shards;
    let cap_s = cfg.table_capacity.div_ceil(nshards);
    (0..nshards)
        .map(|_| ShardState {
            queues: TaskQueues::new(cfg.scheduler, cfg.workers),
            pending: Mutex::new(VecDeque::new()),
            live: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            stats: Mutex::new(QueueStats::default()),
            cycle_pool: Mutex::new(Reservoir::default()),
            store: cfg.tier.as_ref().map(|t| SessionStore::new(n_specs, cap_s, t)),
            cross_steals: AtomicU64::new(0),
        })
        .collect()
}

/// Fold the run's state into a [`ServeReport`]: merge the control ring,
/// seal the trace, scan the flight recorder, and aggregate the per-shard
/// telemetry (queue stats sum, latency reservoirs *merge* at a common
/// stride, tier counters sum with resume samples pooled).
pub(crate) fn finalize(inner: Inner, wall_seconds: f64) -> ServeReport {
    let Inner {
        reports,
        shards,
        cfg,
        trace_sink,
        home,
        submitted,
        ctl_ring,
        seed_stats,
        ..
    } = inner;
    let n = submitted.into_inner();
    let nshards = shards.len();
    let workers = cfg.workers;
    let mut agg_stats = QueueStats::default();
    agg_stats.merge(&seed_stats.into_inner().expect("seed stats lock"));
    // Merge the control ring behind the join barrier, seal into one causal
    // timeline, tag worker → shard for the Perfetto export, and run the
    // anomaly detector over it.
    let mut trace = trace_sink.into_inner().expect("trace lock");
    let mut ctl = ctl_ring.into_inner().expect("ctl ring lock");
    trace.absorb(&mut ctl);
    if nshards > 1 {
        for s in 0..nshards {
            for w in 0..workers {
                trace.set_shard((s * workers + w) as u32, s as u32);
            }
        }
    }
    trace.seal();
    let mut flight = FlightRecorder::new(cfg.trace.flight);
    flight.scan(&trace.events);

    let sessions: Vec<SessionReport> = reports
        .into_inner()
        .expect("reports lock")
        .into_iter()
        .take(n)
        .map(|r| r.expect("every submitted session retired or shed"))
        .collect();
    let members: Vec<Vec<usize>> = {
        let mut m: Vec<Vec<usize>> = vec![Vec::new(); nshards];
        for (i, h) in home.iter().take(n).enumerate() {
            m[h.load(Ordering::Relaxed) as usize].push(i);
        }
        m
    };
    let mut shard_completed: Vec<usize> = vec![0; nshards];
    for (i, r) in sessions.iter().enumerate() {
        if !r.was_shed() {
            shard_completed[home[i].load(Ordering::Relaxed) as usize] += 1;
        }
    }
    let completed: usize = shard_completed.iter().sum();

    let mut agg_pool = Reservoir::default();
    let mut shard_reports: Vec<ShardReport> = Vec::with_capacity(nshards);
    let mut agg_tier: Option<TierReport> = None;
    let mut resume_samples: Vec<f64> = Vec::new();
    for (s, st) in shards.into_iter().enumerate() {
        let qstats = st.stats.into_inner().expect("stats lock");
        agg_stats.merge(&qstats);
        let pool = st.cycle_pool.into_inner().expect("pool lock");
        agg_pool.merge(&pool);
        let tier = st.store.as_ref().map(|store| {
            resume_samples.extend(store.resume_samples());
            let r = store.report();
            let a = agg_tier.get_or_insert_with(TierReport::default);
            a.hibernated += r.hibernated;
            a.resumed += r.resumed;
            a.warm_resumes += r.warm_resumes;
            a.durable_resumes += r.durable_resumes;
            a.spilled += r.spilled;
            a.peak_hot += r.peak_hot;
            a.snapshot_bytes_total += r.snapshot_bytes_total;
            r
        });
        let bus_traffic = qstats.pops + qstats.failed_pops;
        shard_reports.push(ShardReport {
            shard: s as u32,
            sessions: members[s].len(),
            completed: shard_completed[s],
            shed: st.shed.into_inner(),
            bus_occupancy: if bus_traffic > 0 {
                qstats.pops as f64 / bus_traffic as f64
            } else {
                0.0
            },
            queue_stats: qstats,
            cycle_latency: pool.quantiles(),
            cross_shard_steals: st.cross_steals.into_inner(),
            tier,
        });
    }
    if let Some(a) = agg_tier.as_mut() {
        a.resume_latency = Quantiles::from_samples(&resume_samples);
    }
    let cross_shard_steals = shard_reports.iter().map(|s| s.cross_shard_steals).sum();

    ServeReport {
        shed: sessions.iter().filter(|s| s.was_shed()).count(),
        sessions,
        wall_seconds,
        sessions_per_sec: if wall_seconds > 0.0 { completed as f64 / wall_seconds } else { 0.0 },
        aggregate_cycle_latency: agg_pool.quantiles(),
        queue_stats: agg_stats,
        shards: shard_reports,
        cross_shard_steals,
        workers,
        scheduler: cfg.scheduler,
        trace,
        flight,
        tier: agg_tier,
    }
}

/// Serve a batch of sessions over a shared topology.
///
/// Panics if the config fails [`ServeConfig::validate`], if two specs
/// share a name (reports would be ambiguous), or if an explicit shard map
/// doesn't cover every spec.
pub fn serve(topo: Arc<Topology>, specs: Vec<SessionSpec>, cfg: ServeConfig) -> ServeReport {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    {
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate session names");
    }
    let workers = cfg.workers;
    let nshards = cfg.shard.shards;
    let n = specs.len();
    if let ShardRouter::Explicit(map) = &cfg.shard.router {
        assert_eq!(map.len(), n, "explicit shard map must cover every spec");
    }

    // Route every spec to its home shard; the partition is fixed for the
    // whole run (session affinity).
    let home: Vec<u32> =
        specs.iter().enumerate().map(|(i, s)| cfg.shard.router.route(i, &s.name, nshards)).collect();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); nshards];
    for (i, &h) in home.iter().enumerate() {
        members[h as usize].push(i);
    }

    // Stage each shard's batch arrival against its slice of the budgets:
    // first `cap_s` members go live, the next `depth_s` queue for
    // admission, and overflow sheds the oldest waiting entries.
    let cap_s = cfg.table_capacity.div_ceil(nshards);
    let depth_s = cfg.admission_depth.div_ceil(nshards);
    let tiered = cfg.tier.is_some();
    let mut reports: Vec<Option<SessionReport>> = (0..n).map(|_| None).collect();
    let mut live: Vec<Vec<usize>> = Vec::with_capacity(nshards);
    let mut waiting: Vec<Vec<usize>> = Vec::with_capacity(nshards);
    let mut shed_ids: Vec<usize> = Vec::new();
    let mut shard_shed: Vec<usize> = vec![0; nshards];
    for (s, m) in members.iter().enumerate() {
        let l = cap_s.min(m.len());
        let overflow = &m[l..];
        let shed_count = overflow.len().saturating_sub(depth_s);
        for &i in &overflow[..shed_count] {
            reports[i] = Some(SessionReport::shed(specs[i].name.clone()));
        }
        shard_shed[s] = shed_count;
        shed_ids.extend_from_slice(&overflow[..shed_count]);
        live.push(m[..l].to_vec());
        waiting.push(overflow[shed_count..].to_vec());
    }
    let accepted: i64 = (0..nshards).map(|s| (live[s].len() + waiting[s].len()) as i64).sum();

    let shards = build_shards(&cfg, n);
    for (s, st) in shards.iter().enumerate() {
        st.shed.store(shard_shed[s], Ordering::Relaxed);
        st.live.store(live[s].len(), Ordering::Relaxed);
        if !tiered {
            // Tiered serving enqueues every accepted id up front instead
            // of staging admissions through the pending queue.
            *st.pending.lock().expect("pending lock") = waiting[s].iter().copied().collect();
        }
    }

    let origin = Instant::now();
    let inner = Inner {
        home: home.into_iter().map(AtomicU32::new).collect(),
        shards,
        slots: (0..n).map(|_| Mutex::new(Slot::default())).collect(),
        reports: Mutex::new(reports),
        remaining: AtomicI64::new(accepted),
        closed: AtomicBool::new(true),
        submitted: AtomicUsize::new(n),
        origin,
        trace_sink: Mutex::new(TraceLog::with_cap(cfg.trace.merged_cap)),
        // The control thread's ring (admission staging); its worker id is
        // one past the last worker's.
        ctl_ring: Mutex::new(TraceRing::from_config(
            (nshards * workers) as u32,
            &cfg.trace,
            origin,
        )),
        seed_stats: Mutex::new(QueueStats::default()),
        events: None,
        topo,
        specs: specs.into_iter().map(OnceLock::from).collect(),
        cfg,
    };

    {
        let mut ctl_ring = inner.ctl_ring.lock().expect("ctl ring lock");
        for &i in &shed_ids {
            ctl_ring.emit(TraceKind::Shed, i as u32, 0, 0, 0);
        }
    }

    let t0 = Instant::now();
    {
        let mut ctl_ring = inner.ctl_ring.lock().expect("ctl ring lock");
        let mut seed_stats = inner.seed_stats.lock().expect("seed stats lock");
        for s in 0..nshards {
            if tiered {
                // Every accepted session circulates as an id from the
                // start; the shard's store materializes at most `cap_s` at
                // a time.
                for (k, i) in live[s].iter().chain(waiting[s].iter()).copied().enumerate() {
                    inner.shards[s].queues.push_seed(
                        k % workers,
                        (i as u32, Instant::now()),
                        &mut seed_stats,
                    );
                    ctl_ring.emit(TraceKind::Enqueued, i as u32, 0, 0, 0);
                }
            } else {
                for (k, i) in live[s].iter().copied().enumerate() {
                    let sess =
                        Session::build(inner.spec(i), &inner.topo, false, inner.cfg.reorg.as_ref());
                    inner.slots[i].lock().expect("slot lock").sess = Some(sess);
                    ctl_ring.emit(TraceKind::Admitted, i as u32, 0, 0, 0);
                    inner.shards[s].queues.push_seed(
                        k % workers,
                        (i as u32, Instant::now()),
                        &mut seed_stats,
                    );
                    ctl_ring.emit(TraceKind::Enqueued, i as u32, 0, 0, 0);
                }
            }
        }
    }
    std::thread::scope(|scope| {
        for s in 0..nshards {
            for wid in 0..workers {
                let inner = &inner;
                std::thread::Builder::new()
                    .name(format!("psm-serve-{s}-{wid}"))
                    .spawn_scoped(scope, move || worker_loop(inner, s, wid))
                    .expect("spawn serve worker");
            }
        }
    });
    let wall_seconds = t0.elapsed().as_secs_f64();
    finalize(inner, wall_seconds)
}
