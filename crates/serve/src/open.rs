//! Open (streamed) serving: sessions arrive while the loop runs.
//!
//! [`serve`](crate::serve()) is batch — every spec is staged before the
//! first worker starts, which makes offered-load claims closed-loop by
//! construction. [`OpenServe`] runs the *same* worker pools, shards,
//! admission budgets, and telemetry (the internals are shared with the
//! batch path), but keeps the loop alive for submissions from outside —
//! the network front-end (`psme-net`) feeds decoded wire requests through
//! [`OpenServe::submit`], so the arrival process is whatever the wire
//! carries (the open-loop load generator injects Poisson arrivals that do
//! not slow down when the server saturates).
//!
//! Two things distinguish a streamed session from a batch one:
//!
//! * **Admission is dynamic.** A submission takes a free table seat on its
//!   home shard immediately, else joins that shard's pending queue; if the
//!   queue exceeds its depth slice the *oldest* waiting session is shed
//!   (the same shed-oldest policy as batch staging) and the shed is pushed
//!   to the caller as a [`ServeEvent::Shed`] notification.
//! * **Execution can be metered.** A submission may carry a decision
//!   *credit*; the session runs until the credit is spent, then parks in
//!   its table slot ([`ServeEvent::Parked`]) until the client grants more
//!   via [`OpenServe::step`] — the wire protocol's interactive stepping.
//!   A `None` grant auto-runs to completion, which is how the load
//!   generator drives whole-session arrivals.
//!
//! Streamed serving is untiered: hibernation would have to persist wire
//! credit and in-flight control state, which nothing needs yet.
//! [`OpenServe::start`] rejects a tiered config.

use crate::serve::{
    admit_pending, build_shards, finalize, finish_session, worker_loop, Inner, ServeConfig,
    ServeEvent, ServeReport, ShardRouter, Slot,
};
use crate::session::{SessionReport, SessionSpec};
use psme_core::QueueStats;
use psme_obs::{TraceKind, TraceLog, TraceRing};
use psme_rete::Topology;
use psme_soar::StopReason;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Why a submission was refused (refusal is not shedding: a refused
/// session never entered admission and has no report).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// [`OpenServe::finish`] already ran; the loop takes no more work.
    Closed,
    /// A session with this name was already submitted this run.
    DuplicateName(String),
    /// The run's session-id space (`max_sessions`) is exhausted.
    Exhausted,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "open serve: loop is closed"),
            SubmitError::DuplicateName(n) => write!(f, "open serve: duplicate session name {n:?}"),
            SubmitError::Exhausted => write!(f, "open serve: session-id space exhausted"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Admission bookkeeping serialized under one mutex (submissions are wire
/// requests — low rate relative to dispatch, so one lock is fine).
struct AdmitState {
    names: HashSet<String>,
}

/// Retire the session parked in `slot` with [`StopReason::Closed`] and pass
/// its table seat on. No worker holds a parked session, so this runs on the
/// caller's thread against the control ring.
fn close_parked(inner: &Inner, idx: usize, mut slot: MutexGuard<'_, Slot>) {
    let sess = slot.sess.take().expect("parked session is in its slot");
    slot.parked = false;
    slot.closing = false;
    drop(slot);
    let home = inner.home_of(idx);
    let mut ring = inner.ctl_ring.lock().expect("ctl ring lock");
    let mut qs = inner.seed_stats.lock().expect("seed stats lock");
    finish_session(inner, &mut ring, sess, idx, home, StopReason::Closed);
    inner.shards[home].live.fetch_sub(1, Ordering::AcqRel);
    admit_pending(inner, &mut ring, &mut qs, home, None);
}

/// A serving loop accepting sessions while it runs. See the module docs.
pub struct OpenServe {
    inner: Arc<Inner>,
    joins: Mutex<Vec<JoinHandle<()>>>,
    admit: Mutex<AdmitState>,
    t0: Instant,
}

impl OpenServe {
    /// Start the worker pools and return the running loop plus the
    /// receiver for its [`ServeEvent`] notifications. `max_sessions`
    /// bounds the id space for the whole run (ids are dense, assigned in
    /// submission order).
    ///
    /// Panics if the config fails [`ServeConfig::validate`], is tiered,
    /// or carries an explicit shard map smaller than `max_sessions`.
    pub fn start(
        topo: Arc<Topology>,
        cfg: ServeConfig,
        max_sessions: usize,
    ) -> (OpenServe, Receiver<ServeEvent>) {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        assert!(cfg.tier.is_none(), "open serving is untiered (hibernation needs batch serving)");
        if let ShardRouter::Explicit(map) = &cfg.shard.router {
            assert!(
                map.len() >= max_sessions,
                "explicit shard map must cover max_sessions ({} < {max_sessions})",
                map.len()
            );
        }
        let nshards = cfg.shard.shards;
        let workers = cfg.workers;
        let origin = Instant::now();
        let (tx, rx) = channel();
        let inner = Arc::new(Inner {
            topo,
            specs: (0..max_sessions).map(|_| OnceLock::new()).collect(),
            home: (0..max_sessions).map(|_| AtomicU32::new(u32::MAX)).collect(),
            shards: build_shards(&cfg, max_sessions),
            slots: (0..max_sessions).map(|_| Mutex::new(Slot::default())).collect(),
            reports: Mutex::new((0..max_sessions).map(|_| None).collect()),
            remaining: AtomicI64::new(0),
            closed: AtomicBool::new(false),
            submitted: AtomicUsize::new(0),
            origin,
            trace_sink: Mutex::new(TraceLog::with_cap(cfg.trace.merged_cap)),
            ctl_ring: Mutex::new(TraceRing::from_config(
                (nshards * workers) as u32,
                &cfg.trace,
                origin,
            )),
            seed_stats: Mutex::new(QueueStats::default()),
            events: Some(tx),
            cfg,
        });
        let mut joins = Vec::with_capacity(nshards * workers);
        for s in 0..nshards {
            for wid in 0..workers {
                let inner = Arc::clone(&inner);
                joins.push(
                    std::thread::Builder::new()
                        .name(format!("psm-open-{s}-{wid}"))
                        .spawn(move || worker_loop(&inner, s, wid))
                        .expect("spawn open-serve worker"),
                );
            }
        }
        let serve = OpenServe {
            inner,
            joins: Mutex::new(joins),
            admit: Mutex::new(AdmitState { names: HashSet::new() }),
            t0: Instant::now(),
        };
        (serve, rx)
    }

    /// The network front-end accepted a connection; record it in the
    /// run's trace (`conn` is the connection id, a separate namespace
    /// from session ids).
    pub fn note_accepted(&self, conn: u32) {
        self.inner
            .ctl_ring
            .lock()
            .expect("ctl ring lock")
            .emit(TraceKind::NetAccepted, conn, 0, 0, 0);
    }

    fn note_request(&self, id: u32) {
        self.inner
            .ctl_ring
            .lock()
            .expect("ctl ring lock")
            .emit(TraceKind::NetRequest, id, 0, 0, 0);
    }

    /// Submit a session. `grant` is its initial decision credit (`None`
    /// auto-runs to completion). Returns the session id; admission (or
    /// shedding) proceeds asynchronously and is observable through the
    /// event stream and [`OpenServe::report`].
    pub fn submit(&self, spec: SessionSpec, grant: Option<u64>) -> Result<u32, SubmitError> {
        let inner = &*self.inner;
        let mut adm = self.admit.lock().expect("admit lock");
        if inner.closed.load(Ordering::Acquire) {
            return Err(SubmitError::Closed);
        }
        let idx = inner.submitted.load(Ordering::Acquire);
        if idx >= inner.specs.len() {
            return Err(SubmitError::Exhausted);
        }
        if !adm.names.insert(spec.name.clone()) {
            return Err(SubmitError::DuplicateName(spec.name));
        }
        let nshards = inner.shards.len();
        let home = inner.cfg.shard.router.route(idx, &spec.name, nshards) as usize;
        assert!(inner.specs[idx].set(spec).is_ok(), "fresh id has no spec");
        inner.home[idx].store(home as u32, Ordering::Relaxed);
        inner.slots[idx].lock().expect("slot lock").grant = grant;
        inner.remaining.fetch_add(1, Ordering::AcqRel);
        inner.submitted.store(idx + 1, Ordering::Release);

        // Wire arrival: the open-loop injection point.
        let mut ring = inner.ctl_ring.lock().expect("ctl ring lock");
        ring.emit(TraceKind::NetRequest, idx as u32, 0, 0, 0);
        let mut qs = inner.seed_stats.lock().expect("seed stats lock");
        let st = &inner.shards[home];
        st.pending.lock().expect("pending lock").push_back(idx);
        admit_pending(inner, &mut ring, &mut qs, home, None);
        // Shed-oldest: displace the longest-waiting sessions while the
        // backlog exceeds this shard's admission-depth slice.
        loop {
            let victim = {
                let mut p = st.pending.lock().expect("pending lock");
                if p.len() > inner.depth_s() {
                    p.pop_front()
                } else {
                    None
                }
            };
            let Some(v) = victim else { break };
            let name = inner.spec(v).name.clone();
            self.inner.reports.lock().expect("reports lock")[v] = Some(SessionReport::shed(name));
            st.shed.fetch_add(1, Ordering::Relaxed);
            inner.remaining.fetch_sub(1, Ordering::AcqRel);
            ring.emit(TraceKind::Shed, v as u32, 0, 0, 0);
            ring.emit(TraceKind::NetShed, v as u32, 0, 0, 0);
            inner.event(ServeEvent::Shed { id: v as u32 });
        }
        Ok(idx as u32)
    }

    /// True iff `id` is a submitted session that has not retired or shed.
    fn is_open(&self, id: u32) -> bool {
        let idx = id as usize;
        idx < self.inner.submitted.load(Ordering::Acquire)
            && self.inner.reports.lock().expect("reports lock")[idx].is_none()
    }

    /// Grant `n` more decisions of credit to session `id`. A parked
    /// session re-enters its home shard's queues immediately; an in-flight
    /// or still-pending one absorbs the credit at its next dispatch.
    /// Returns false if the session already retired or was shed (the
    /// client races completion; that's normal).
    pub fn step(&self, id: u32, n: u64) -> bool {
        self.note_request(id);
        if !self.is_open(id) {
            return false;
        }
        let inner = &*self.inner;
        let idx = id as usize;
        let mut slot = inner.slots[idx].lock().expect("slot lock");
        if slot.parked {
            let mut sess = slot.sess.take().expect("parked session is in its slot");
            let due = std::mem::take(&mut slot.credit_due);
            *sess.credit.get_or_insert(0) += n.saturating_add(due);
            slot.parked = false;
            slot.sess = Some(sess);
            drop(slot);
            let home = inner.home_of(idx);
            let mut ring = inner.ctl_ring.lock().expect("ctl ring lock");
            let mut qs = inner.seed_stats.lock().expect("seed stats lock");
            inner.shards[home].queues.push_seed(
                idx % inner.cfg.workers,
                (id, Instant::now()),
                &mut qs,
            );
            ring.emit(TraceKind::Reenqueued, id, 0, 0, 0);
        } else {
            slot.credit_due = slot.credit_due.saturating_add(n);
        }
        true
    }

    /// Toggle chunk learning for session `id` (the wire `learn-chunk`
    /// request); applies at the session's next dispatch. Returns false if
    /// the session already retired or was shed.
    pub fn set_learning(&self, id: u32, enable: bool) -> bool {
        self.note_request(id);
        if !self.is_open(id) {
            return false;
        }
        let mut slot = self.inner.slots[id as usize].lock().expect("slot lock");
        if slot.parked {
            if let Some(sess) = slot.sess.as_mut() {
                sess.agent.learning = enable;
            }
        } else {
            slot.learn_due = Some(enable);
        }
        true
    }

    /// Close session `id`: it retires with [`StopReason::Closed`] — a
    /// parked session immediately, an in-flight or pending one at its
    /// next dispatch. Returns false if it already retired or was shed.
    pub fn close_session(&self, id: u32) -> bool {
        self.note_request(id);
        if !self.is_open(id) {
            return false;
        }
        let inner = &*self.inner;
        let idx = id as usize;
        let mut slot = inner.slots[idx].lock().expect("slot lock");
        if slot.parked {
            close_parked(inner, idx, slot);
        } else {
            slot.closing = true;
        }
        true
    }

    /// The report for session `id`, once it retired or shed (`None` while
    /// it is still live or was never submitted).
    pub fn report(&self, id: u32) -> Option<SessionReport> {
        let idx = id as usize;
        if idx >= self.inner.submitted.load(Ordering::Acquire) {
            return None;
        }
        self.inner.reports.lock().expect("reports lock")[idx].clone()
    }

    /// Sessions submitted so far.
    pub fn submitted(&self) -> usize {
        self.inner.submitted.load(Ordering::Acquire)
    }

    /// Sessions admitted or waiting, not yet retired or shed.
    pub fn outstanding(&self) -> usize {
        self.inner.remaining.load(Ordering::Acquire).max(0) as usize
    }

    /// Stop accepting submissions and drain: auto-run sessions (no credit
    /// bound) run to their natural stop, while sessions stalled on client
    /// credit — parked now, or parking after the close — retire with
    /// [`StopReason::Closed`] (no more credit is coming). Then join the
    /// workers and fold the run into a [`ServeReport`] — the same
    /// aggregation as batch [`crate::serve()`], so open and batch
    /// artifacts are comparable (and uncredited open runs bit-for-bit
    /// equal batch runs of the same specs).
    pub fn finish(self) -> ServeReport {
        let inner = &*self.inner;
        // Take the admit lock once so no submission interleaves with the
        // close; after `closed` is set submissions are refused.
        drop(self.admit.lock().expect("admit lock"));
        inner.closed.store(true, Ordering::Release);
        while inner.remaining.load(Ordering::Acquire) > 0 {
            for idx in 0..inner.submitted.load(Ordering::Acquire) {
                let slot = inner.slots[idx].lock().expect("slot lock");
                if slot.parked {
                    close_parked(inner, idx, slot);
                }
                // In flight or pending: left to drain — the workers run it
                // to its stop, and the park path closes it if it stalls on
                // credit (it checks `closed` under the slot lock).
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        for j in self.joins.lock().expect("joins lock").drain(..) {
            j.join().expect("open-serve worker panicked");
        }
        let wall_seconds = self.t0.elapsed().as_secs_f64();
        let inner = Arc::try_unwrap(self.inner)
            .ok()
            .expect("workers joined; no Inner refs remain");
        finalize(inner, wall_seconds)
    }
}
