//! Open (streamed) serving: sessions arrive while the loop runs.
//!
//! [`OpenServe`] is a handle on the serving loop of [`crate::serve`]'s
//! module — its worker pools, shards, admission budgets and telemetry —
//! with the front door left open: the network front-end (`psme-net`) feeds
//! decoded wire requests through [`OpenServe::submit`], so the arrival
//! process is whatever the wire carries (the open-loop load generator
//! injects Poisson arrivals that do not slow down when the server
//! saturates). Batch [`serve`](crate::serve()) drives the same loop with
//! the closed arrival process — everything admitted before the first worker
//! starts — which makes its offered-load claims closed-loop by construction.
//!
//! What the open door adds:
//!
//! * **Admission while running.** A submission goes through the loop's one
//!   admission function: a free seat on its home shard immediately, else
//!   that shard's waiting room, shedding the *oldest* waiting session on
//!   overflow. A shed is pushed to the caller as a [`ServeEvent::Shed`]
//!   notification.
//! * **Metered execution.** A submission may carry a decision *credit*; the
//!   session runs until the credit is spent, then parks in its table slot
//!   ([`ServeEvent::Parked`]) until the client grants more via
//!   [`OpenServe::step`] — the wire protocol's interactive stepping. A
//!   `None` grant auto-runs to completion, which is how the load generator
//!   drives whole-session arrivals; a `step` on such a session has nothing
//!   to top up and changes nothing.
//! * **A drain.** [`OpenServe::finish`] shuts the door and closes what is
//!   parked in **one pass** over the slots. One is enough: once `closed` is
//!   set no session parks again — the park path reads it under the slot
//!   lock the pass takes — so whatever is still in flight or waiting for a
//!   seat either runs to its stop or closes itself when its credit runs out.
//!   **A grant is never lost to the drain:** a top-up [`OpenServe::step`]
//!   answered `true` to is run before the session closes, wherever the
//!   session was when the door shut — the park path looks for credit due
//!   before it looks at `closed` — so a drained session has run exactly
//!   `min(everything granted, its natural length)` decisions. The drain
//!   still ends: `finish` consumes the handle, so no grant arrives after it.
//!
//! Streamed serving is untiered: hibernation would have to persist wire
//! credit, which is not in the snapshot. [`OpenServe::start`] rejects a
//! tiered config; a tiered loop is reached only through batch `serve()`,
//! which grants no credit.

use crate::serve::{
    admit, enqueue, run_out, spawn_workers, step_session, Held, Inner, ServeConfig, ServeEvent,
    ServeReport, Slot,
};
use crate::session::{SessionReport, SessionSpec};
use psme_obs::TraceKind;
use psme_rete::Topology;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, MutexGuard};
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

/// Retire the session parked in `slot` with [`psme_soar::StopReason::Closed`].
/// No worker holds a parked session, so the caller's thread runs the
/// dispatch a worker would, with the close already requested: the one step
/// path claims it, retires it and passes its seat on.
fn close_parked(inner: &Inner, idx: usize, mut slot: MutexGuard<'_, Slot>) {
    slot.parked = false;
    slot.closing = true;
    drop(slot);
    let mut ring = inner.ctl_ring.lock().expect("ctl ring lock");
    let mut qs = inner.seed_stats.lock().expect("seed stats lock");
    step_session(inner, &mut ring, &mut qs, inner.home_of(idx), None, idx, Instant::now());
}

/// A serving loop accepting sessions while it runs. See the module docs.
pub struct OpenServe {
    inner: Arc<Inner>,
    joins: Vec<JoinHandle<()>>,
    /// Names submitted so far. Its lock also serializes admissions
    /// (submissions are wire requests — low rate relative to dispatch, so
    /// one lock is fine).
    names: Mutex<HashSet<String>>,
    t0: Instant,
}

impl OpenServe {
    /// Start the worker pools and return the running loop plus the
    /// receiver for its [`ServeEvent`] notifications. `max_sessions`
    /// bounds the id space for the whole run (ids are dense, assigned in
    /// submission order). Each id costs 44 B up front — its record and its
    /// home shard. A waiting session holds its task, a seated one its
    /// session, and a retired or shed id keeps only its report.
    ///
    /// Panics if the config fails [`ServeConfig::validate`], is tiered,
    /// or carries an explicit shard map smaller than `max_sessions`.
    pub fn start(
        topo: Arc<Topology>,
        cfg: ServeConfig,
        max_sessions: usize,
    ) -> (OpenServe, Receiver<ServeEvent>) {
        assert!(cfg.tier.is_none(), "open serving is untiered (hibernation needs batch serving)");
        let (tx, rx) = channel();
        let inner = Arc::new(Inner::new(topo, cfg, max_sessions, Some(tx)));
        let joins = spawn_workers(&inner);
        let serve =
            OpenServe { inner, joins, names: Mutex::new(HashSet::new()), t0: Instant::now() };
        (serve, rx)
    }

    /// The network front-end accepted a connection; record it in the
    /// run's trace (`conn` is the connection id, a separate namespace
    /// from session ids).
    pub fn note_accepted(&self, conn: u32) {
        self.note(TraceKind::NetAccepted, conn);
    }

    /// Record a wire event about session `id` in the run's trace.
    fn note(&self, kind: TraceKind, id: u32) {
        self.inner.ctl_ring.lock().expect("ctl ring lock").emit(kind, id, 0, 0, 0);
    }

    /// Submit a session. `grant` is its initial decision credit (`None`
    /// auto-runs to completion). Returns the session id; admission (or
    /// shedding) proceeds asynchronously and is observable through the
    /// event stream and [`OpenServe::report`].
    pub fn submit(&self, spec: SessionSpec, grant: Option<u64>) -> Result<u32, SubmitError> {
        let inner = &*self.inner;
        let mut names = self.names.lock().expect("admit lock");
        if inner.closed.load(Ordering::Acquire) {
            return Err(SubmitError::Closed);
        }
        let id = inner.submitted.load(Ordering::Acquire);
        if id >= inner.slots.len() {
            return Err(SubmitError::Exhausted);
        }
        if !names.insert(spec.name.clone()) {
            return Err(SubmitError::DuplicateName(spec.name));
        }
        // Wire arrival: the open-loop injection point.
        self.note(TraceKind::NetRequest, id as u32);
        if let Some(shed) = admit(inner, spec, grant) {
            self.note(TraceKind::NetShed, shed as u32);
        }
        Ok(id as u32)
    }

    /// The record of `id`, locked, if it is a submitted session that has
    /// not retired or shed.
    fn open_slot(&self, id: u32) -> Option<MutexGuard<'_, Slot>> {
        let idx = id as usize;
        if idx >= self.inner.submitted.load(Ordering::Acquire) {
            return None;
        }
        let slot = self.inner.slots[idx].lock().expect("slot lock");
        (!matches!(slot.held, Held::Report(_))).then_some(slot)
    }

    /// Grant `n` more decisions of credit to session `id`. A parked
    /// session re-enters its home shard's queues immediately; an in-flight
    /// or still-pending one absorbs the credit at its next dispatch; one
    /// submitted without a grant auto-runs and has nothing to top up.
    /// Returns false if the session already retired or was shed (the
    /// client races completion; that's normal).
    pub fn step(&self, id: u32, n: u64) -> bool {
        self.note(TraceKind::NetRequest, id);
        let Some(mut slot) = self.open_slot(id) else {
            return false;
        };
        let inner = &*self.inner;
        let idx = id as usize;
        slot.credit_due = slot.credit_due.saturating_add(n);
        if std::mem::take(&mut slot.parked) {
            drop(slot);
            let mut ring = inner.ctl_ring.lock().expect("ctl ring lock");
            let mut qs = inner.seed_stats.lock().expect("seed stats lock");
            enqueue(inner, &mut qs, inner.home_of(idx), None, idx);
            ring.emit(TraceKind::Reenqueued, id, 0, 0, 0);
        }
        true
    }

    /// Toggle chunk learning for session `id` (the wire `learn-chunk`
    /// request); applies at the session's next dispatch. Returns false if
    /// the session already retired or was shed.
    pub fn set_learning(&self, id: u32, enable: bool) -> bool {
        self.note(TraceKind::NetRequest, id);
        let Some(mut slot) = self.open_slot(id) else {
            return false;
        };
        slot.learn_due = Some(enable);
        true
    }

    /// Close session `id`: it retires with [`psme_soar::StopReason::Closed`] — a
    /// parked session immediately, an in-flight or pending one at its
    /// next dispatch. Returns false if it already retired or was shed.
    pub fn close_session(&self, id: u32) -> bool {
        self.note(TraceKind::NetRequest, id);
        let Some(mut slot) = self.open_slot(id) else {
            return false;
        };
        if slot.parked {
            close_parked(&self.inner, id as usize, slot);
        } else {
            slot.closing = true;
        }
        true
    }

    /// The report for session `id`, once it retired or shed (`None` while
    /// it is still live or was never submitted).
    pub fn report(&self, id: u32) -> Option<SessionReport> {
        match &self.inner.slots.get(id as usize)?.lock().expect("slot lock").held {
            Held::Report(r) => Some(SessionReport::clone(r)),
            _ => None,
        }
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
    /// credit — parked now, or parking after the close with every grant
    /// spent — retire with [`psme_soar::StopReason::Closed`] (no more
    /// credit is coming). Then join the
    /// workers and fold the run into a [`ServeReport`] — the same
    /// aggregation as batch [`crate::serve()`], so open and batch
    /// artifacts are comparable (and uncredited open runs bit-for-bit
    /// equal batch runs of the same specs).
    pub fn finish(self) -> ServeReport {
        let inner = &*self.inner;
        // Close under the admit lock: no submission straddles the close,
        // and every later one is refused.
        {
            let _names = self.names.lock().expect("admit lock");
            inner.closed.store(true, Ordering::Release);
        }
        // One pass closes what is parked now. Nothing parks behind it: the
        // park path reads `closed` under the slot lock this pass took after
        // setting it, so a session in flight or still waiting for a seat
        // that later stalls on credit closes itself there.
        for idx in 0..inner.submitted.load(Ordering::Acquire) {
            let slot = inner.slots[idx].lock().expect("slot lock");
            if slot.parked {
                close_parked(inner, idx, slot);
            }
        }
        run_out(self.inner, self.joins, self.t0)
    }
}
