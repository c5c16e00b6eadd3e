//! The serving loop: admission, session table, worker pools, dispatch.
//!
//! There is **one loop**. A session gets into it through [`admit`], through
//! a slice of it in `step_session`, and out of it in `finish_session`;
//! [`crate::OpenServe`] is that loop with its front door open while the
//! workers run, and batch [`serve`] is the *closed arrival process* over the
//! same loop — every spec admitted in order before the first worker starts,
//! then the door shut — not a sibling implementation.
//!
//! Admission is two-stage, per shard:
//!
//! 1. a shard has **seats**: the sessions it lets circulate at once. A
//!    circulating session owns a `MatchState` and an overlay, so untiered
//!    the seats are the shard's slice of `table_capacity` — the table bounds
//!    memory;
//! 2. arrivals beyond that wait in a **bounded waiting room**, the shard's
//!    slice of `admission_depth`; on overflow the *oldest* waiting session
//!    is shed (shed-oldest keeps the freshest work under overload, and the
//!    shed set is deterministic — reported, never silently dropped).
//!
//! Under a [`TierConfig`] the shard's [`SessionStore`] bounds residency
//! instead (it hibernates the LRU session whenever more than the table slice
//! are live), so every accepted session circulates from the start: the seats
//! are the table slice *plus* the admission slice and there is no waiting
//! room. Nobody waits, so the session an over-full tiered shard sheds is the
//! arrival itself, not an older one.
//!
//! Dispatch: seated sessions circulate as ids through a
//! [`psme_core::TaskQueues`] instance — the same three scheduler policies
//! as the match engine's task queues (§2.3/§6.1), here scheduling whole
//! decision-cycle slices instead of node activations. A worker pops an id,
//! *claims* the session from where it lives between slices (its table slot,
//! or the shard's store, which may have to build or resume it), runs up to
//! `slice_decisions` decision cycles, and either *releases* it back there
//! and re-enqueues the id (round-robin) or retires it and seats the next
//! waiting session. Claim and release are the only steps that ask whether
//! the shard has a store; what runs between them is the same for both. A
//! session halting (`(halt)` on the RHS) retires **only that session** —
//! the loop drains the rest.
//!
//! A session may hold a client-granted *decision credit*
//! ([`crate::OpenServe::submit`]): one that exhausts it parks — stays where
//! it lives, out of every queue — until the client grants more (the wire
//! protocol's `step` request). [`serve`] grants none: every session of a
//! batch auto-runs to its natural stop.
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
//! (the default) is the single-bus loop.

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
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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
            ShardRouter::Hash => (psme_rete::fnv1a64(name.as_bytes()) % shards) as u32,
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
    /// `trace_overhead` bench prints its cost against a budget).
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
            ("tier", self.tier.as_ref().map_or(Json::Null, TierReport::to_json)),
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
            ("tier", self.tier.as_ref().map_or(Json::Null, TierReport::to_json)),
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
struct ShardState {
    /// Session ids in flight on this shard, tagged with enqueue instants.
    queues: TaskQueues<(u32, Instant)>,
    /// Sessions waiting for one of this shard's seats, oldest first (a
    /// tiered shard has no waiting room, so this is empty between
    /// admissions).
    pending: Mutex<VecDeque<usize>>,
    /// Sessions currently holding one of this shard's seats
    /// ([`Inner::seats`]).
    live: AtomicUsize,
    /// Sessions shed by this shard's admission queue.
    shed: AtomicUsize,
    /// Queue stats merged from this shard's workers at exit.
    stats: Mutex<QueueStats>,
    /// Cycle-latency reservoir for sessions homed here.
    cycle_pool: Mutex<Reservoir>,
    /// This shard's slice of the tier store (tiered runs only).
    store: Option<SessionStore>,
    /// Slices this shard's workers stole from other shards.
    cross_steals: AtomicU64,
}

/// What an id holds, by where it is in its life. Every payload is boxed,
/// so a slot is a few words whatever the session weighs.
#[derive(Default)]
pub(crate) enum Held {
    /// Not submitted yet; or, untiered, a worker has the session in hand.
    #[default]
    Nothing,
    /// Submitted and not yet built. Untiered, until admission seats and
    /// builds it; tiered, until it retires, because a resume rebuilds the
    /// session from its task.
    Spec(Box<SessionSpec>),
    /// Untiered, between slices. The box moves through claim, slice and
    /// release unopened.
    Session(Box<Session>),
    /// Retired or shed: all a finished id keeps.
    Report(Box<SessionReport>),
}

/// The one record per session id. The queue hands out exclusive ownership
/// of an id, so the *session* is never contended; the mutex makes the
/// handoff `Sync` and serializes the control fields (step credit, learning
/// toggles, close requests) and the report against the worker touching the
/// same session.
#[derive(Default)]
pub(crate) struct Slot {
    pub(crate) held: Held,
    /// Step credit not yet given to the session: the initial grant until
    /// its first dispatch, then what `step` granted since its last one.
    /// Drained into a metered session at its next dispatch or park attempt.
    pub(crate) credit_due: u64,
    /// Submitted with a grant: the session counts credit. `false` runs it
    /// to its natural stop (the batch default).
    metered: bool,
    /// Out of credit, waiting for the client's next `step` grant (not in
    /// any queue).
    pub(crate) parked: bool,
    /// Learning toggle requested over the wire; applied at next dispatch.
    pub(crate) learn_due: Option<bool>,
    /// Client asked to close; the next dispatch (or park attempt) retires
    /// the session with [`StopReason::Closed`].
    pub(crate) closing: bool,
}

pub(crate) struct Inner {
    topo: Arc<Topology>,
    cfg: ServeConfig,
    /// Id → home shard (fixed at admission by the router; `u32::MAX` until
    /// the id is submitted). Beside the slots, not in them: workers read it
    /// without the slot lock.
    home: Vec<AtomicU32>,
    shards: Vec<ShardState>,
    /// One record per id; see [`Slot`].
    pub(crate) slots: Vec<Mutex<Slot>>,
    /// Sessions admitted or waiting, not yet retired (all shards).
    pub(crate) remaining: AtomicI64,
    /// No further submissions will arrive; workers exit once `remaining`
    /// hits zero, and a session that runs out of credit retires instead of
    /// parking.
    pub(crate) closed: AtomicBool,
    /// Ids handed out so far.
    pub(crate) submitted: AtomicUsize,
    /// Shared origin every trace ring stamps against.
    origin: Instant,
    /// Workers drain their rings here at loop exit (the join barrier).
    trace_sink: Mutex<TraceLog>,
    /// Control-side ring: admission, grants to parked sessions and forced
    /// closes emit through this.
    pub(crate) ctl_ring: Mutex<TraceRing>,
    /// Queue stats for control-side seeds/pushes.
    pub(crate) seed_stats: Mutex<QueueStats>,
    /// Streamed-serving notifications ([`crate::OpenServe`] listens; batch
    /// [`serve`] does not).
    events: Option<Sender<ServeEvent>>,
}

impl Inner {
    /// The loop before its first worker: `max_sessions` empty slots, nothing
    /// admitted. Panics if the config fails [`ServeConfig::validate`] or an
    /// explicit shard map cannot cover `max_sessions` ids.
    pub(crate) fn new(
        topo: Arc<Topology>,
        cfg: ServeConfig,
        max_sessions: usize,
        events: Option<Sender<ServeEvent>>,
    ) -> Inner {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        if let ShardRouter::Explicit(map) = &cfg.shard.router {
            assert!(
                map.len() >= max_sessions,
                "explicit shard map must cover every session id ({} < {max_sessions})",
                map.len()
            );
        }
        let nshards = cfg.shard.shards;
        let cap_s = cfg.table_capacity.div_ceil(nshards);
        let origin = Instant::now();
        Inner {
            topo,
            home: (0..max_sessions).map(|_| AtomicU32::new(u32::MAX)).collect(),
            shards: (0..nshards)
                .map(|_| ShardState {
                    queues: TaskQueues::new(cfg.scheduler, cfg.workers),
                    pending: Mutex::new(VecDeque::new()),
                    live: AtomicUsize::new(0),
                    shed: AtomicUsize::new(0),
                    stats: Mutex::new(QueueStats::default()),
                    cycle_pool: Mutex::new(Reservoir::default()),
                    store: cfg.tier.as_ref().map(|t| SessionStore::new(max_sessions, cap_s, t)),
                    cross_steals: AtomicU64::new(0),
                })
                .collect(),
            slots: (0..max_sessions).map(|_| Mutex::new(Slot::default())).collect(),
            remaining: AtomicI64::new(0),
            closed: AtomicBool::new(false),
            submitted: AtomicUsize::new(0),
            origin,
            trace_sink: Mutex::new(TraceLog::with_cap(psme_obs::trace::MERGED_CAP)),
            // The control side's ring; its worker id is one past the last
            // worker's.
            ctl_ring: Mutex::new(TraceRing::from_config(
                (nshards * cfg.workers) as u32,
                &cfg.trace,
                origin,
            )),
            seed_stats: Mutex::new(QueueStats::default()),
            events,
            cfg,
        }
    }

    pub(crate) fn home_of(&self, idx: usize) -> usize {
        let h = self.home[idx].load(Ordering::Relaxed);
        debug_assert_ne!(h, u32::MAX, "home routed before the id circulates");
        h as usize
    }

    /// Sessions one shard lets circulate at once. Untiered, a circulating
    /// session holds its `MatchState`, so this is the shard's slice of the
    /// table. Tiered, the store bounds residency and everything accepted
    /// circulates: the table slice plus the admission slice.
    fn seats(&self) -> usize {
        let n = self.shards.len();
        let cap_s = self.cfg.table_capacity.div_ceil(n);
        match self.cfg.tier {
            None => cap_s,
            Some(_) => cap_s + self.cfg.admission_depth.div_ceil(n),
        }
    }

    /// Sessions that may wait for a seat on one shard: its slice of the
    /// admission budget — which a tier has already spent on seats.
    fn waiting_room(&self) -> usize {
        match self.cfg.tier {
            None => self.cfg.admission_depth.div_ceil(self.shards.len()),
            Some(_) => 0,
        }
    }

    fn event(&self, ev: ServeEvent) {
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
    // Reorganizations committed inside this slice (arg = count, not ns;
    // which productions were rebuilt is in the agent's `org_overrides`).
    let reorgs = sess.agent.stats.reorganizations - reorg0;
    if reorgs > 0 {
        ring.emit(TraceKind::ReorgCommitted, idx as u32, cyc0, cyc1, reorgs);
    }
    ring.emit(TraceKind::SliceEnd, idx as u32, cyc0, cyc1, exec_ns);
    stop
}

/// Retire a finished session: emit lifecycle events, fold telemetry into
/// its home shard's pools, and file its report in its slot in place of
/// whatever the slot held.
fn finish_session(
    inner: &Inner,
    ring: &mut TraceRing,
    sess: Box<Session>,
    idx: usize,
    home: usize,
    reason: StopReason,
) {
    let cyc = sess.agent.stats.decisions;
    if reason == StopReason::Halted {
        ring.emit(TraceKind::Halted, idx as u32, cyc, cyc, 0);
    }
    ring.emit(TraceKind::Retired, idx as u32, cyc, cyc, 0);
    inner.shards[home].cycle_pool.lock().expect("pool lock").extend(&sess.cycle_ns);
    let report = Box::new(sess.into_report(reason));
    inner.slots[idx].lock().expect("slot lock").held = Held::Report(report);
    inner.remaining.fetch_sub(1, Ordering::AcqRel);
    inner.event(ServeEvent::Retired { id: idx as u32 });
}

/// Put a session id back in circulation on its home shard. A worker in the
/// home pool pushes to its own queue end; a cross-shard thief must use the
/// any-thread seed entry point (the owner ends of a foreign pool's queues
/// belong to that pool's threads).
pub(crate) fn enqueue(
    inner: &Inner,
    qs: &mut QueueStats,
    home: usize,
    local: Option<usize>,
    idx: usize,
) {
    let item = (idx as u32, Instant::now());
    match local {
        Some(w) => inner.shards[home].queues.push(w, item, qs),
        None => inner.shards[home].queues.push_seed(idx % inner.cfg.workers, item, qs),
    }
}

/// Take `spec` into the loop as the next session id: route it to its home
/// shard, seat it if a seat is free and otherwise let it wait, and — when
/// that overflows the shard's waiting room — shed the session that has
/// waited longest (under a tier nobody waits, so that is the arrival).
/// Returns the shed id. The one way in: [`serve`] calls it per spec before
/// any worker exists, [`crate::OpenServe::submit`] while they run. Control
/// side only — callers serialize their calls and have checked that an id is
/// left.
pub(crate) fn admit(inner: &Inner, spec: SessionSpec, grant: Option<u64>) -> Option<usize> {
    let idx = inner.submitted.load(Ordering::Acquire);
    let home = inner.cfg.shard.router.route(idx, &spec.name, inner.shards.len()) as usize;
    inner.home[idx].store(home as u32, Ordering::Relaxed);
    {
        let mut slot = inner.slots[idx].lock().expect("slot lock");
        debug_assert!(matches!(slot.held, Held::Nothing), "fresh id holds nothing");
        slot.held = Held::Spec(Box::new(spec));
        slot.credit_due = grant.unwrap_or(0);
        slot.metered = grant.is_some();
    }
    inner.remaining.fetch_add(1, Ordering::AcqRel);
    inner.submitted.store(idx + 1, Ordering::Release);

    let mut ring = inner.ctl_ring.lock().expect("ctl ring lock");
    let mut qs = inner.seed_stats.lock().expect("seed stats lock");
    let st = &inner.shards[home];
    st.pending.lock().expect("pending lock").push_back(idx);
    admit_pending(inner, &mut ring, &mut qs, home, None);
    let victim = {
        let mut p = st.pending.lock().expect("pending lock");
        if p.len() > inner.waiting_room() {
            p.pop_front()
        } else {
            None
        }
    };
    if let Some(v) = victim {
        // Shed before it was seated: of its spec, the report keeps the name.
        let mut slot = inner.slots[v].lock().expect("slot lock");
        let Held::Spec(spec) = std::mem::take(&mut slot.held) else {
            unreachable!("a waiting id holds its spec")
        };
        slot.held = Held::Report(Box::new(SessionReport::shed(spec.name)));
        drop(slot);
        st.shed.fetch_add(1, Ordering::Relaxed);
        inner.remaining.fetch_sub(1, Ordering::AcqRel);
        ring.emit(TraceKind::Shed, v as u32, 0, 0, 0);
        inner.event(ServeEvent::Shed { id: v as u32 });
    }
    victim
}

/// Seat waiting sessions while `home` has free seats. Seats are reserved
/// with a CAS so concurrent retire paths and submissions never over-admit;
/// a reserved seat with nobody waiting is released again.
fn admit_pending(
    inner: &Inner,
    ring: &mut TraceRing,
    qs: &mut QueueStats,
    home: usize,
    local: Option<usize>,
) {
    let st = &inner.shards[home];
    let seats = inner.seats();
    loop {
        let cur = st.live.load(Ordering::Acquire);
        if cur >= seats {
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
        if st.store.is_none() {
            // Untiered, a seat is a table slot and the session lives in it
            // from now on, so its task is done with; a tiered shard's store
            // builds it at first claim.
            let mut slot = inner.slots[n].lock().expect("slot lock");
            let Held::Spec(spec) = std::mem::take(&mut slot.held) else {
                unreachable!("a waiting id holds its spec")
            };
            let mut s = Session::build(&spec, &inner.topo, false, inner.cfg.reorg.as_ref());
            s.credit = slot.metered.then_some(0);
            slot.held = Held::Session(s);
            drop(slot);
            ring.emit(TraceKind::Admitted, n as u32, 0, 0, 0);
        }
        enqueue(inner, qs, home, local, n);
        ring.emit(TraceKind::Enqueued, n as u32, 0, 0, 0);
    }
}

/// Claim session `idx` for one dispatch: take it from where it lives between
/// slices — its table slot, or its home shard's store, which materializes
/// it lazily (`Start`), hands back a live one (`Live`), or returns snapshot
/// bytes to verify and replay (`Resume`), hibernating its LRU resident
/// whenever the shard's table slice is over capacity — and apply what the
/// control side left in the slot meanwhile. Returns the session and whether
/// a close was requested.
fn claim(inner: &Inner, ring: &mut TraceRing, home: usize, idx: usize) -> (Box<Session>, bool) {
    let mut slot = inner.slots[idx].lock().expect("slot lock");
    let due = std::mem::take(&mut slot.credit_due);
    let learn = slot.learn_due.take();
    let closing = std::mem::take(&mut slot.closing);
    let mut sess = match &inner.shards[home].store {
        None => match std::mem::take(&mut slot.held) {
            Held::Session(s) => s,
            _ => unreachable!("a queued untiered session is in its slot"),
        },
        Some(store) => {
            // Built or resumed under the record's lock, reading the spec in
            // place: a tiered loop has no control side to contend for it.
            let Held::Spec(spec) = &slot.held else {
                unreachable!("a tiered id keeps its spec until it retires")
            };
            let (checkout, evicted) = store.checkout(idx);
            for &(victim, bytes) in &evicted.hibernated {
                ring.emit(TraceKind::Hibernated, victim, 0, 0, bytes as u64);
            }
            match checkout {
                Checkout::Live(s) => s,
                Checkout::Start => {
                    let s = Session::build(spec, &inner.topo, true, inner.cfg.reorg.as_ref());
                    ring.emit(TraceKind::Admitted, idx as u32, 0, 0, 0);
                    s
                }
                Checkout::Resume(bytes, _tier) => {
                    // Verify + replay outside the store lock; the store
                    // marked the id Running, so it is exclusively ours.
                    let t0 = Instant::now();
                    let s = Session::resume(spec, &inner.topo, &bytes, inner.cfg.reorg.as_ref())
                        .expect("snapshot encoded by this run must resume");
                    let ns = t0.elapsed().as_nanos() as f64;
                    store.note_resume_ns(ns);
                    let cyc = s.agent.stats.decisions;
                    ring.emit(TraceKind::Resumed, idx as u32, cyc, cyc, ns as u64);
                    s
                }
            }
        }
    };
    // A grant tops up a metered session; an auto-run one has nothing to top
    // up (unbounded plus n is unbounded).
    if let Some(c) = sess.credit.as_mut() {
        *c = c.saturating_add(due);
    }
    if let Some(enable) = learn {
        sess.agent.learning = enable;
    }
    (sess, closing)
}

/// Put a claimed session back where it lives between slices. The caller
/// holds the session's slot lock, so a park is atomic with the put.
fn release(
    inner: &Inner,
    ring: &mut TraceRing,
    slot: &mut Slot,
    home: usize,
    idx: usize,
    sess: Box<Session>,
) {
    match &inner.shards[home].store {
        None => slot.held = Held::Session(sess),
        Some(store) => {
            for &(victim, bytes) in &store.checkin(idx, sess).hibernated {
                ring.emit(TraceKind::Hibernated, victim, 0, 0, bytes as u64);
            }
        }
    }
}

/// Execute one dispatch on session `idx`, whose home shard is `home`: claim
/// it, run a slice, then park it, put it back in circulation, or retire
/// it. `local` is `Some(wid)` when the executing worker belongs to the home
/// pool (the affine fast path), `None` for a cross-shard thief or the
/// control side.
pub(crate) fn step_session(
    inner: &Inner,
    ring: &mut TraceRing,
    qs: &mut QueueStats,
    home: usize,
    local: Option<usize>,
    idx: usize,
    enqueued: Instant,
) {
    let wait_ns = enqueued.elapsed().as_nanos() as f64;
    let (mut sess, closing) = claim(inner, ring, home, idx);
    // A requested close retires the session instead of running it.
    let mut stop = if closing {
        Some(StopReason::Closed)
    } else {
        run_slice(inner, ring, &mut sess, idx, wait_ns)
    };
    let cyc = sess.agent.stats.decisions;
    if stop.is_none() && sess.credit == Some(0) {
        // Out of client credit: park (out of every queue) unless a close or
        // a grant raced in. The grant is looked at before `closed`: `step`
        // answered `true` to it, so it runs even though the door has shut
        // since. A shut-down loop will never grant more, so once nothing is
        // due parking would stall forever — close.
        let mut slot = inner.slots[idx].lock().expect("slot lock");
        if std::mem::take(&mut slot.closing) {
            stop = Some(StopReason::Closed);
        } else if slot.credit_due > 0 {
            sess.credit = Some(std::mem::take(&mut slot.credit_due));
        } else if inner.closed.load(Ordering::Acquire) {
            stop = Some(StopReason::Closed);
        } else {
            slot.parked = true;
            release(inner, ring, &mut slot, home, idx, sess);
            drop(slot);
            inner.event(ServeEvent::Parked { id: idx as u32, decisions: cyc });
            return;
        }
    }
    match stop {
        None => {
            let mut slot = inner.slots[idx].lock().expect("slot lock");
            release(inner, ring, &mut slot, home, idx, sess);
            drop(slot);
            enqueue(inner, qs, home, local, idx);
            ring.emit(TraceKind::Reenqueued, idx as u32, cyc, cyc, 0);
        }
        Some(reason) => {
            if let Some(store) = &inner.shards[home].store {
                store.retire(idx);
            }
            finish_session(inner, ring, sess, idx, home, reason);
            // The seat it held goes to the home shard's oldest waiting
            // session, if any.
            inner.shards[home].live.fetch_sub(1, Ordering::AcqRel);
            admit_pending(inner, ring, qs, home, local);
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

fn worker_loop(inner: &Inner, shard: usize, wid: usize) {
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

/// Fold the run's state into a [`ServeReport`]: merge the control ring,
/// seal the trace, scan the flight recorder, and aggregate the per-shard
/// telemetry (queue stats sum, latency reservoirs *merge* at a common
/// stride, tier counters sum with resume samples pooled).
fn finalize(inner: Inner, wall_seconds: f64) -> ServeReport {
    let Inner {
        slots,
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
    let mut flight = FlightRecorder::new();
    flight.scan(&trace.events);

    let mut sessions: Vec<SessionReport> = Vec::with_capacity(n);
    let (mut shard_sessions, mut shard_completed) = (vec![0; nshards], vec![0; nshards]);
    for (slot, h) in slots.into_iter().zip(home).take(n) {
        let Held::Report(r) = slot.into_inner().expect("slot lock").held else {
            unreachable!("every submitted session retired or shed")
        };
        let h = h.into_inner() as usize;
        shard_sessions[h] += 1;
        shard_completed[h] += usize::from(!r.was_shed());
        sessions.push(*r);
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
            sessions: shard_sessions[s],
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

/// Start the loop's `shards × workers` worker threads.
pub(crate) fn spawn_workers(inner: &Arc<Inner>) -> Vec<JoinHandle<()>> {
    let mut joins = Vec::with_capacity(inner.shards.len() * inner.cfg.workers);
    for s in 0..inner.shards.len() {
        for wid in 0..inner.cfg.workers {
            let inner = Arc::clone(inner);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("psm-serve-{s}-{wid}"))
                    .spawn(move || worker_loop(&inner, s, wid))
                    .expect("spawn serve worker"),
            );
        }
    }
    joins
}

/// Wait for a closed loop's workers to run it dry, then fold the run into
/// its report; `t0` is where `wall_seconds` starts.
pub(crate) fn run_out(inner: Arc<Inner>, joins: Vec<JoinHandle<()>>, t0: Instant) -> ServeReport {
    debug_assert!(inner.closed.load(Ordering::Acquire), "only a closed loop runs dry");
    for j in joins {
        j.join().expect("serve worker panicked");
    }
    let wall_seconds = t0.elapsed().as_secs_f64();
    let inner = Arc::try_unwrap(inner).ok().expect("workers joined; no Inner refs remain");
    finalize(inner, wall_seconds)
}

/// Serve a batch of sessions over a shared topology: every spec goes
/// through [`admit`] in order before the first worker starts (so who is
/// seated, who waits and who is shed is a pure function of the batch), the
/// loop closes, and the workers run it dry. Each spec gets one 44 B id
/// record; untiered, its task is dropped once its session is built, and a
/// retired id keeps only its report.
///
/// Panics if the config fails [`ServeConfig::validate`], if two specs
/// share a name (reports would be ambiguous), or if an explicit shard map
/// doesn't cover every spec.
pub fn serve(topo: Arc<Topology>, specs: Vec<SessionSpec>, cfg: ServeConfig) -> ServeReport {
    {
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate session names");
    }
    let inner = Arc::new(Inner::new(topo, cfg, specs.len(), None));
    let t0 = Instant::now();
    for spec in specs {
        admit(&inner, spec, None);
    }
    inner.closed.store(true, Ordering::Release);
    let joins = spawn_workers(&inner);
    run_out(inner, joins, t0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_size_is_pinned() {
        // What an id costs before anything is submitted, whatever the
        // session it will hold weighs: a tag and a box, the control fields,
        // the lock; and the home shard beside it.
        assert_eq!(std::mem::size_of::<Held>(), 16, "a tag and a box");
        assert_eq!(std::mem::size_of::<Slot>(), 32, "the record");
        assert_eq!(std::mem::size_of::<Mutex<Slot>>(), 40, "the locked record");
        assert_eq!(std::mem::size_of::<AtomicU32>(), 4, "the home shard");
    }
}
