//! Flight-recorder event tracing for the serving stack.
//!
//! End-of-run aggregates (quantiles, shed counts) cannot explain a tail
//! spike after the fact — by the time p99 moved, the events that caused it
//! are gone. This module keeps the event stream itself, cheaply enough to
//! leave on in production:
//!
//! * **[`TraceRing`]** — each worker owns a fixed-capacity ring buffer.
//!   Emitting an event is a branch, a timestamp and an array write: no
//!   allocation, no locks, no syscalls on the hot path. When the ring is
//!   full the *oldest* event is overwritten and a dropped counter bumps —
//!   recent history is what a flight recorder is for. Every event carries
//!   a monotonic per-worker sequence number, so merged traces are
//!   gap-checkable.
//! * **[`TraceLog`]** — rings merge into a run-level log at barriers the
//!   serving loop already has (worker exit, end of run). Sealing sorts by
//!   `(t_ns, worker, seq)` into one causally-ordered timeline.
//! * **[`FlightRecorder`]** — an anomaly detector over the merged stream:
//!   a slice that ran longer than [`LATENCY_MULTIPLE`] × the running p99
//!   (kept in a deterministic [`Reservoir`]), any shed, or a session halt
//!   triggers a dump of the last [`FLIGHT_WINDOW`] events — the "black box"
//!   readout.
//! * **Export** — [`TraceLog::to_json`] is the compact run-trace artifact;
//!   [`TraceLog::chrome_json`] emits Chrome `trace_event` JSON loadable in
//!   `chrome://tracing` / Perfetto, with one track per worker, instant
//!   markers for admission-control events, and per-session flow arrows
//!   stitching a session's slices across workers.
//!
//! Event timestamps are nanoseconds from a run origin the caller supplies
//! (one `Instant` shared by all rings of a run), so per-worker streams
//! merge on a common clock. [`TraceRing::emit_at`] takes an explicit
//! timestamp instead, so a test can build a deterministic stream.

use crate::json::Json;
use crate::quantiles::Reservoir;
use psme_ops::named_enum;
use std::collections::VecDeque;
use std::time::Instant;

named_enum! {
    /// What happened to a session in the serving loop (or, for the `net_*`
    /// kinds, at its network front-end). Every event carries the session
    /// id (`NetAccepted`: the connection id).
    pub enum TraceKind {
        /// Session took a table slot (batch staging or post-retire admit).
        Admitted = "admitted",
        /// Session entered the dispatch queues for the first time.
        Enqueued = "enqueued",
        /// Worker popped the session; `arg_ns` = queue wait, `cycle_lo` =
        /// the session's decision count entering the slice.
        SliceStart = "slice_start",
        /// Slice finished; `arg_ns` = execution time, `cycle_lo..cycle_hi`
        /// = the decision range the slice covered.
        SliceEnd = "slice_end",
        /// Session went back into the dispatch queues after a slice.
        Reenqueued = "reenqueued",
        /// Session completed and left the table.
        Retired = "retired",
        /// Session shed by admission backpressure (never ran).
        Shed = "shed",
        /// Session executed `(halt)`.
        Halted = "halted",
        /// Session hibernated out of the table under memory pressure;
        /// `arg_ns` = snapshot size in bytes.
        Hibernated = "hibernated",
        /// Session resumed from a snapshot on its next dispatch; `arg_ns` =
        /// resume latency (decode + journal replay), nanoseconds.
        Resumed = "resumed",
        /// A worker ran a session stolen from another shard's queues —
        /// cross-shard work-stealing fired because the thief's own pool was
        /// empty; `arg_ns` = the session's home shard id.
        CrossShardSteal = "cross_shard_steal",
        /// The network front-end accepted a connection; `session` = the
        /// connection id, `arg_ns` unused.
        NetAccepted = "net_accepted",
        /// A decoded request frame entered the serving stack (wire arrival
        /// — the open-loop injection point); `session` = the session the
        /// request addresses.
        NetRequest = "net_request",
        /// A shed notification left for a client: admission backpressure
        /// displaced this session after it was accepted over the wire.
        NetShed = "net_shed",
        /// Mid-run reorganizations committed inside a slice; `arg_ns` = how
        /// many (a count, not a duration), `cycle_lo..cycle_hi` = the
        /// slice's decision range.
        ReorgCommitted = "reorg_committed",
    }
}

/// One trace event. `Copy` and flat — a ring slot is a plain array write.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the run origin.
    pub t_ns: u64,
    /// Emitting worker (the control thread uses an id past the last worker).
    pub worker: u32,
    /// Monotonic per-worker sequence number.
    pub seq: u64,
    /// Session id.
    pub session: u32,
    /// Event type.
    pub kind: TraceKind,
    /// First decision cycle covered (slice events; 0 otherwise).
    pub cycle_lo: u64,
    /// One past the last decision cycle covered (slice events; 0 otherwise).
    pub cycle_hi: u64,
    /// Kind-specific payload: queue wait for `SliceStart`, execution time
    /// for `SliceEnd`, the count for `ReorgCommitted`, else 0 (see
    /// [`TraceKind`]).
    pub arg_ns: u64,
}

impl TraceEvent {
    /// Compact JSON for the run-trace artifact.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("t_ns".to_string(), Json::from(self.t_ns)),
            ("w".to_string(), Json::from(self.worker)),
            ("seq".to_string(), Json::from(self.seq)),
            ("kind".to_string(), Json::from(self.kind.name())),
            ("session".to_string(), Json::from(self.session)),
        ];
        if self.cycle_lo != 0 || self.cycle_hi != 0 {
            fields.push(("cycle_lo".to_string(), Json::from(self.cycle_lo)));
            fields.push(("cycle_hi".to_string(), Json::from(self.cycle_hi)));
        }
        if self.arg_ns != 0 {
            fields.push(("arg_ns".to_string(), Json::from(self.arg_ns)));
        }
        Json::Obj(fields)
    }
}

/// Capacity, in events, of a ring built by [`TraceRing::from_config`].
pub const RING_CAP: usize = 4096;
/// Bound on a serving run's merged log. Overflow drops oldest, counted.
pub const MERGED_CAP: usize = 1 << 20;

/// Tracing configuration, embedded in the serve config (always-on by
/// default — the `trace_overhead` bench prints its cost against a budget).
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Master switch. Disabled rings make `emit` a single branch.
    pub enabled: bool,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { enabled: true }
    }
}

impl TraceConfig {
    /// Tracing switched off entirely.
    pub fn disabled() -> TraceConfig {
        TraceConfig { enabled: false }
    }
}

/// A fixed-capacity, drop-oldest event ring owned by one worker.
///
/// All methods take `&mut self`: the ring is thread-local by construction
/// and never shared — merging happens by draining into a [`TraceLog`] at a
/// barrier, from the owning thread.
#[derive(Debug)]
pub struct TraceRing {
    worker: u32,
    origin: Instant,
    enabled: bool,
    cap: usize,
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    next_seq: u64,
    dropped: u64,
}

impl TraceRing {
    /// An enabled ring for `worker` with `cap` slots, stamping against
    /// `origin` (share one origin across all rings of a run).
    pub fn new(worker: u32, cap: usize, origin: Instant) -> TraceRing {
        TraceRing {
            worker,
            origin,
            enabled: true,
            cap: cap.max(1),
            buf: Vec::new(),
            head: 0,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// A disabled ring: every emit is a single branch, nothing is stored.
    pub fn disabled(worker: u32) -> TraceRing {
        TraceRing {
            worker,
            origin: Instant::now(),
            enabled: false,
            cap: 1,
            buf: Vec::new(),
            head: 0,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Build from config (disabled config ⇒ disabled ring).
    pub fn from_config(worker: u32, cfg: &TraceConfig, origin: Instant) -> TraceRing {
        if cfg.enabled {
            TraceRing::new(worker, RING_CAP, origin)
        } else {
            TraceRing::disabled(worker)
        }
    }

    /// Is this ring recording?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Emitting worker id.
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten since the last drain.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Emit an event stamped with the current time.
    #[inline]
    pub fn emit(&mut self, kind: TraceKind, session: u32, cycle_lo: u64, cycle_hi: u64, arg_ns: u64) {
        if !self.enabled {
            return;
        }
        let t_ns = self.origin.elapsed().as_nanos() as u64;
        self.emit_at(t_ns, kind, session, cycle_lo, cycle_hi, arg_ns);
    }

    /// Emit an event at an explicit timestamp (a deterministic test stream).
    #[inline]
    pub fn emit_at(
        &mut self,
        t_ns: u64,
        kind: TraceKind,
        session: u32,
        cycle_lo: u64,
        cycle_hi: u64,
        arg_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let ev = TraceEvent {
            t_ns,
            worker: self.worker,
            seq: self.next_seq,
            session,
            kind,
            cycle_lo,
            cycle_hi,
            arg_ns,
        };
        self.next_seq += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            // Full: overwrite the oldest slot. One array write, no shift.
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Take the buffered events, oldest first, plus the number dropped
    /// since the last drain. The ring resets and keeps counting sequence
    /// numbers from where it left off.
    pub fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        let dropped = std::mem::take(&mut self.dropped);
        (out, dropped)
    }
}

/// Chrome-export process ids: shard `s` renders as process
/// `SHARD_PID_BASE + s`, clear of the default pool (pid 1).
const SHARD_PID_BASE: u32 = 10;

/// The merged run-level trace.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Merged events; causally ordered after [`TraceLog::seal`].
    pub events: Vec<TraceEvent>,
    /// Total events lost: ring overwrites plus merged-cap evictions.
    pub dropped: u64,
    /// Bound applied at seal time (0 = unbounded).
    pub merged_cap: usize,
    /// The workers whose rings were absorbed, in absorb order — including
    /// those that never emitted, so that the Chrome export can give every
    /// worker of the run a track.
    pub workers: Vec<u32>,
    /// Worker → shard assignment for sharded serving runs (empty =
    /// unsharded). Mapped workers render as one Chrome track group
    /// (process) per shard; unmapped workers — the control thread — stay
    /// in the default pool process.
    pub shard_of: Vec<(u32, u32)>,
}

impl TraceLog {
    /// An empty log bounded to `merged_cap` events at seal (0 = unbounded).
    pub fn with_cap(merged_cap: usize) -> TraceLog {
        TraceLog { merged_cap, ..TraceLog::default() }
    }

    /// Record that `worker`'s events belong to `shard`: the Chrome export
    /// groups its track under the shard's process.
    pub fn set_shard(&mut self, worker: u32, shard: u32) {
        match self.shard_of.iter_mut().find(|(w, _)| *w == worker) {
            Some(slot) => slot.1 = shard,
            None => self.shard_of.push((worker, shard)),
        }
    }

    /// Chrome process id for `worker`: its shard's track group when
    /// mapped, the default pool otherwise.
    fn pid_of(&self, worker: u32) -> u32 {
        self.shard_of
            .iter()
            .find(|(w, _)| *w == worker)
            .map(|&(_, shard)| SHARD_PID_BASE + shard)
            .unwrap_or(1)
    }

    /// Drain one worker ring into the log (call at a barrier, from the
    /// ring's owning thread or after it has quiesced).
    pub fn absorb(&mut self, ring: &mut TraceRing) {
        if ring.enabled && !self.workers.contains(&ring.worker) {
            self.workers.push(ring.worker);
        }
        let (evs, dropped) = ring.drain();
        self.events.extend_from_slice(&evs);
        self.dropped += dropped;
    }

    /// Sort into one causally-ordered timeline `(t_ns, worker, seq)` and
    /// apply the merged cap, dropping oldest.
    pub fn seal(&mut self) {
        self.events.sort_by_key(|e| (e.t_ns, e.worker, e.seq));
        if self.merged_cap > 0 && self.events.len() > self.merged_cap {
            let excess = self.events.len() - self.merged_cap;
            self.events.drain(..excess);
            self.dropped += excess as u64;
        }
    }

    /// Is the log in sealed `(t_ns, worker, seq)` order?
    pub fn is_sorted(&self) -> bool {
        self.events.windows(2).all(|w| {
            (w[0].t_ns, w[0].worker, w[0].seq) <= (w[1].t_ns, w[1].worker, w[1].seq)
        })
    }

    /// The compact run-trace artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("events", Json::from(self.events.len() as u64)),
            ("dropped", Json::from(self.dropped)),
            ("trace", Json::arr(self.events.iter().map(|e| e.to_json()))),
        ])
    }

    /// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto).
    ///
    /// Layout: process 1 is the serve worker pool (one thread track per
    /// worker; the control thread's track is the id past the last worker).
    /// In sharded runs ([`TraceLog::set_shard`]) each shard's workers move
    /// to their own process (`shard-N` track group) so Perfetto shows one
    /// group per shard. Slices appear as complete (`X`) events spanning
    /// their execution time; admission-control events are instants; a
    /// session's hops between workers are flow arrows keyed by session id.
    pub fn chrome_json(&self) -> Json {
        let us = |t_ns: u64| Json::float(t_ns as f64 / 1e3);
        let mut out: Vec<Json> = Vec::new();
        // Track-naming metadata: every absorbed ring's worker, whether or
        // not it emitted, and whoever else the events name.
        let mut workers = self.workers.clone();
        workers.extend(self.events.iter().map(|e| e.worker));
        workers.sort_unstable();
        workers.dedup();
        out.push(Json::obj([
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(1u32)),
            ("args", Json::obj([("name", Json::from("psme-serve"))])),
        ]));
        let mut shards: Vec<u32> = self.shard_of.iter().map(|&(_, s)| s).collect();
        shards.sort_unstable();
        shards.dedup();
        for &s in &shards {
            out.push(Json::obj([
                ("name", Json::from("process_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(SHARD_PID_BASE + s)),
                ("args", Json::obj([("name", Json::from(format!("shard-{s}")))])),
            ]));
        }
        for &w in &workers {
            out.push(Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(self.pid_of(w))),
                ("tid", Json::from(w)),
                ("args", Json::obj([("name", Json::from(format!("worker-{w}")))])),
            ]));
        }
        // Flow arrows need a start (`s`) strictly before the finish (`f`);
        // track which session flows are open.
        let mut open_flows: Vec<u32> = Vec::new();
        // Queue wait recorded by the last SliceStart per worker, attached
        // to the matching SliceEnd's args.
        let mut last_wait: Vec<(u32, u64)> = Vec::new();
        for e in &self.events {
            match e.kind {
                TraceKind::SliceStart => {
                    if let Some(pos) = open_flows.iter().position(|&s| s == e.session) {
                        open_flows.swap_remove(pos);
                        out.push(Json::obj([
                            ("name", Json::from("dispatch")),
                            ("cat", Json::from("flow")),
                            ("ph", Json::from("f")),
                            ("bp", Json::from("e")),
                            ("id", Json::from(e.session)),
                            ("ts", us(e.t_ns)),
                            ("pid", Json::from(self.pid_of(e.worker))),
                            ("tid", Json::from(e.worker)),
                        ]));
                    }
                    match last_wait.iter_mut().find(|(w, _)| *w == e.worker) {
                        Some(slot) => slot.1 = e.arg_ns,
                        None => last_wait.push((e.worker, e.arg_ns)),
                    }
                }
                TraceKind::SliceEnd => {
                    let wait_ns = last_wait
                        .iter()
                        .find(|(w, _)| *w == e.worker)
                        .map(|(_, ns)| *ns)
                        .unwrap_or(0);
                    let start = e.t_ns.saturating_sub(e.arg_ns);
                    out.push(Json::obj([
                        ("name", Json::from(format!("s{} slice", e.session))),
                        ("cat", Json::from("slice")),
                        ("ph", Json::from("X")),
                        ("ts", us(start)),
                        ("dur", us(e.arg_ns)),
                        ("pid", Json::from(self.pid_of(e.worker))),
                        ("tid", Json::from(e.worker)),
                        (
                            "args",
                            Json::obj([
                                ("session", Json::from(e.session)),
                                ("cycle_lo", Json::from(e.cycle_lo)),
                                ("cycle_hi", Json::from(e.cycle_hi)),
                                ("queue_wait_us", Json::float(wait_ns as f64 / 1e3)),
                            ]),
                        ),
                    ]));
                }
                TraceKind::Enqueued | TraceKind::Reenqueued => {
                    out.push(instant(e, us(e.t_ns), self.pid_of(e.worker)));
                    if !open_flows.contains(&e.session) {
                        open_flows.push(e.session);
                        out.push(Json::obj([
                            ("name", Json::from("dispatch")),
                            ("cat", Json::from("flow")),
                            ("ph", Json::from("s")),
                            ("id", Json::from(e.session)),
                            ("ts", us(e.t_ns)),
                            ("pid", Json::from(self.pid_of(e.worker))),
                            ("tid", Json::from(e.worker)),
                        ]));
                    }
                }
                TraceKind::Admitted
                | TraceKind::Retired
                | TraceKind::Shed
                | TraceKind::Halted
                | TraceKind::Hibernated
                | TraceKind::Resumed
                | TraceKind::CrossShardSteal
                | TraceKind::NetAccepted
                | TraceKind::NetRequest
                | TraceKind::NetShed
                | TraceKind::ReorgCommitted => {
                    out.push(instant(e, us(e.t_ns), self.pid_of(e.worker)));
                }
            }
        }
        Json::obj([
            ("traceEvents", Json::Arr(out)),
            ("displayTimeUnit", Json::from("ms")),
        ])
    }
}

fn instant(e: &TraceEvent, ts: Json, pid: u32) -> Json {
    Json::obj([
        ("name", Json::from(format!("{} s{}", e.kind.name(), e.session))),
        ("cat", Json::from("serve")),
        ("ph", Json::from("i")),
        ("s", Json::from("t")),
        ("ts", ts),
        ("pid", Json::from(pid)),
        ("tid", Json::from(e.worker)),
    ])
}

/// Events per flight-recorder dump (the "last N" window).
pub const FLIGHT_WINDOW: usize = 256;
/// A slice triggers a dump when its execution time exceeds this multiple of
/// the running p99.
pub const LATENCY_MULTIPLE: f64 = 8.0;
/// Slice samples required before latency triggering arms (a cold p99 is
/// noise).
pub const MIN_SAMPLES: u64 = 64;
/// Dumps retained per run; further triggers only count.
pub const MAX_DUMPS: usize = 8;

/// Why a dump fired.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DumpTrigger {
    /// A slice ran past [`LATENCY_MULTIPLE`] × the running p99.
    SliceLatency {
        /// The offending slice's execution time.
        exec_ns: u64,
        /// The running p99 it was compared against.
        p99_ns: f64,
    },
    /// Admission backpressure shed this session.
    Shed {
        /// The shed session.
        session: u32,
    },
    /// A session executed `(halt)`.
    Halt {
        /// The halted session.
        session: u32,
    },
}

impl DumpTrigger {
    fn to_json(self) -> Json {
        match self {
            DumpTrigger::SliceLatency { exec_ns, p99_ns } => Json::obj([
                ("kind", Json::from("slice_latency")),
                ("exec_ns", Json::from(exec_ns)),
                ("p99_ns", Json::float(p99_ns)),
            ]),
            DumpTrigger::Shed { session } => {
                Json::obj([("kind", Json::from("shed")), ("session", Json::from(session))])
            }
            DumpTrigger::Halt { session } => {
                Json::obj([("kind", Json::from("halt")), ("session", Json::from(session))])
            }
        }
    }
}

/// One flight-recorder dump: the trigger plus the last N merged events up
/// to and including the triggering one.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// What fired.
    pub trigger: DumpTrigger,
    /// Timestamp of the triggering event.
    pub t_ns: u64,
    /// Worker that emitted the triggering event.
    pub worker: u32,
    /// Its per-worker sequence number.
    pub seq: u64,
    /// The recorded window, oldest first.
    pub events: Vec<TraceEvent>,
}

impl FlightDump {
    /// Serialize the dump (full window included — this is the black box).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("trigger", self.trigger.to_json()),
            ("t_ns", Json::from(self.t_ns)),
            ("worker", Json::from(self.worker)),
            ("seq", Json::from(self.seq)),
            ("events", Json::arr(self.events.iter().map(|e| e.to_json()))),
        ])
    }
}

/// The anomaly detector. Feed it the merged, sealed event stream (or live
/// events in merge order); it keeps a sliding window of the last
/// [`FLIGHT_WINDOW`] events and dumps it on each trigger.
///
/// Everything is a pure function of the event sequence: the same sealed
/// log always produces the same triggers and the same dumps.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    window: VecDeque<TraceEvent>,
    lat: Reservoir,
    cached_p99: f64,
    since_refresh: u32,
    /// Dumps captured (at most [`MAX_DUMPS`]).
    pub dumps: Vec<FlightDump>,
    /// Total triggers, including those past the dump cap.
    pub triggers: u64,
}

impl FlightRecorder {
    /// A recorder that has seen nothing.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Observe one event (in merge order).
    pub fn observe(&mut self, ev: TraceEvent) {
        if self.window.len() >= FLIGHT_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(ev);
        match ev.kind {
            TraceKind::Shed => self.trigger(DumpTrigger::Shed { session: ev.session }, &ev),
            TraceKind::Halted => self.trigger(DumpTrigger::Halt { session: ev.session }, &ev),
            TraceKind::SliceEnd => {
                let exec = ev.arg_ns as f64;
                if self.lat.seen() >= MIN_SAMPLES
                    && self.cached_p99 > 0.0
                    && exec > LATENCY_MULTIPLE * self.cached_p99
                {
                    self.trigger(
                        DumpTrigger::SliceLatency { exec_ns: ev.arg_ns, p99_ns: self.cached_p99 },
                        &ev,
                    );
                }
                self.lat.push(exec);
                self.since_refresh += 1;
                // Refresh the running p99 periodically — recomputing exact
                // quantiles per event would make the detector O(n²).
                if self.since_refresh >= 32 || self.lat.seen() == MIN_SAMPLES {
                    self.cached_p99 = self.lat.quantiles().p99;
                    self.since_refresh = 0;
                }
            }
            _ => {}
        }
    }

    /// Observe a whole sealed log.
    pub fn scan(&mut self, events: &[TraceEvent]) {
        for &e in events {
            self.observe(e);
        }
    }

    /// The running-p99 latency reservoir (merged slice execution times).
    pub fn latency(&self) -> &Reservoir {
        &self.lat
    }

    fn trigger(&mut self, trigger: DumpTrigger, ev: &TraceEvent) {
        self.triggers += 1;
        if self.dumps.len() < MAX_DUMPS {
            self.dumps.push(FlightDump {
                trigger,
                t_ns: ev.t_ns,
                worker: ev.worker,
                seq: ev.seq,
                events: self.window.iter().copied().collect(),
            });
        }
    }

    /// Summary + full dumps.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("triggers", Json::from(self.triggers)),
            ("dumps", Json::arr(self.dumps.iter().map(|d| d.to_json()))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ring: &mut TraceRing, t: u64, kind: TraceKind, session: u32) {
        ring.emit_at(t, kind, session, 0, 0, 0);
    }

    #[test]
    fn ring_wraps_dropping_oldest() {
        let mut r = TraceRing::new(0, 3, Instant::now());
        for i in 0..5u64 {
            ev(&mut r, i, TraceKind::Enqueued, i as u32);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let (evs, dropped) = r.drain();
        assert_eq!(dropped, 2);
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest dropped, order preserved");
        assert_eq!(r.len(), 0);
        assert_eq!(r.dropped(), 0);
        // Sequence numbering continues across drains.
        ev(&mut r, 9, TraceKind::Retired, 0);
        assert_eq!(r.drain().0[0].seq, 5);
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut r = TraceRing::disabled(0);
        r.emit(TraceKind::Shed, 1, 0, 0, 0);
        ev(&mut r, 5, TraceKind::Shed, 1);
        assert!(r.is_empty());
        assert_eq!(r.drain(), (Vec::new(), 0));
    }

    #[test]
    fn seal_orders_and_caps() {
        let origin = Instant::now();
        let mut log = TraceLog::with_cap(4);
        let mut a = TraceRing::new(0, 16, origin);
        let mut b = TraceRing::new(1, 16, origin);
        ev(&mut a, 30, TraceKind::SliceStart, 0);
        ev(&mut a, 10, TraceKind::Enqueued, 0);
        ev(&mut b, 20, TraceKind::Enqueued, 1);
        ev(&mut b, 20, TraceKind::Reenqueued, 1);
        ev(&mut b, 40, TraceKind::Retired, 1);
        log.absorb(&mut a);
        log.absorb(&mut b);
        log.seal();
        assert!(log.is_sorted());
        assert_eq!(log.events.len(), 4, "merged cap enforced");
        assert_eq!(log.dropped, 1, "eviction counted");
        assert_eq!(log.events[0].t_ns, 20, "oldest (t=10) evicted first");
    }

    #[test]
    fn chrome_export_parses_and_has_tracks() {
        let origin = Instant::now();
        let mut log = TraceLog::default();
        let mut r = TraceRing::new(0, 64, origin);
        ev(&mut r, 5, TraceKind::Admitted, 3);
        ev(&mut r, 6, TraceKind::Enqueued, 3);
        r.emit_at(10, TraceKind::SliceStart, 3, 0, 0, 4);
        r.emit_at(30, TraceKind::SliceEnd, 3, 0, 8, 20);
        ev(&mut r, 31, TraceKind::Reenqueued, 3);
        ev(&mut r, 50, TraceKind::Halted, 3);
        log.absorb(&mut r);
        log.seal();
        let chrome = log.chrome_json();
        let parsed = Json::parse(&chrome.to_string()).expect("chrome JSON parses");
        let evs = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let phs: Vec<&str> =
            evs.iter().filter_map(|e| e.get("ph").and_then(Json::as_str)).collect();
        for needed in ["M", "X", "i", "s", "f"] {
            assert!(phs.contains(&needed), "missing ph {needed:?} in {phs:?}");
        }
        // The X slice reconstructs its start from end - exec.
        let x = evs.iter().find(|e| e.get("ph").and_then(Json::as_str) == Some("X")).unwrap();
        assert_eq!(x.get("ts").and_then(Json::as_f64), Some(0.01));
        assert_eq!(x.get("dur").and_then(Json::as_f64), Some(0.02));
    }

    #[test]
    fn a_worker_that_emitted_nothing_still_gets_a_track() {
        // A worker that never won a slice absorbs an empty ring; the export
        // must name its track all the same (a disabled ring leaves none).
        let origin = Instant::now();
        let mut log = TraceLog::default();
        let mut busy = TraceRing::new(0, 16, origin);
        ev(&mut busy, 5, TraceKind::Enqueued, 1);
        log.absorb(&mut busy);
        log.absorb(&mut TraceRing::new(1, 16, origin));
        log.absorb(&mut TraceRing::disabled(2));
        log.seal();
        let parsed = Json::parse(&log.chrome_json().to_string()).expect("chrome JSON parses");
        let evs = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let named: Vec<u64> = evs
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("tid").and_then(Json::as_u64))
            .collect();
        assert_eq!(named, vec![0, 1]);
    }

    #[test]
    fn shard_map_groups_tracks_and_exports_cross_shard_steals() {
        let origin = Instant::now();
        let mut log = TraceLog::default();
        // Workers 0 and 1 on shard 0, worker 2 on shard 1; worker 9 (the
        // control thread) unmapped.
        log.set_shard(0, 0);
        log.set_shard(1, 0);
        log.set_shard(2, 1);
        for w in [0u32, 1, 2, 9] {
            let mut r = TraceRing::new(w, 16, origin);
            r.emit_at(10 + u64::from(w), TraceKind::Enqueued, 3, 0, 0, 0);
            log.absorb(&mut r);
        }
        let mut thief = TraceRing::new(2, 16, origin);
        // Worker 2 (shard 1) stole session 7 from home shard 0.
        thief.emit_at(50, TraceKind::CrossShardSteal, 7, 0, 0, 0);
        log.absorb(&mut thief);
        log.seal();
        let chrome = log.chrome_json();
        let parsed = Json::parse(&chrome.to_string()).expect("chrome JSON parses");
        let evs = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let pname = |pid: f64| {
            evs.iter()
                .find(|e| {
                    e.get("name").and_then(Json::as_str) == Some("process_name")
                        && e.get("pid").and_then(Json::as_f64) == Some(pid)
                })
                .and_then(|e| e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str))
                .map(str::to_owned)
        };
        assert_eq!(pname(10.0).as_deref(), Some("shard-0"));
        assert_eq!(pname(11.0).as_deref(), Some("shard-1"));
        assert_eq!(pname(1.0).as_deref(), Some("psme-serve"));
        // Worker tracks land in their shard's process; the unmapped control
        // worker stays in the pool process.
        let tid_pid = |tid: f64| {
            evs.iter()
                .find(|e| {
                    e.get("name").and_then(Json::as_str).is_some_and(|n| n.starts_with("enqueued"))
                        && e.get("tid").and_then(Json::as_f64) == Some(tid)
                })
                .and_then(|e| e.get("pid").and_then(Json::as_f64))
        };
        assert_eq!(tid_pid(0.0), Some(10.0));
        assert_eq!(tid_pid(2.0), Some(11.0));
        assert_eq!(tid_pid(9.0), Some(1.0));
        // The steal exports as an instant on the thief's shard track.
        let steal = evs
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str).is_some_and(|n| n.starts_with("cross_shard"))
            })
            .expect("steal instant present");
        assert_eq!(steal.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(steal.get("pid").and_then(Json::as_f64), Some(11.0));
        assert_eq!(steal.get("name").and_then(Json::as_str), Some("cross_shard_steal s7"));
    }

    #[test]
    fn flight_recorder_triggers_on_shed_and_tail_latency() {
        let mk = |t: u64, kind: TraceKind, arg: u64| TraceEvent {
            t_ns: t,
            worker: 0,
            seq: t,
            session: 1,
            kind,
            cycle_lo: 0,
            cycle_hi: 0,
            arg_ns: arg,
        };
        // Uniform 100 ns slices: enough to arm the latency trigger and to
        // fill the window, then a 100× slice and a shed.
        let warm = MIN_SAMPLES.max(FLIGHT_WINDOW as u64) + 16;
        let mut stream: Vec<TraceEvent> =
            (0..warm).map(|t| mk(t, TraceKind::SliceEnd, 100)).collect();
        stream.push(mk(warm, TraceKind::SliceEnd, 10_000));
        stream.push(mk(warm + 1, TraceKind::Shed, 0));

        // A cold p99 is noise: the same outlier before MIN_SAMPLES slices
        // triggers nothing.
        let mut cold = FlightRecorder::new();
        cold.scan(&stream[..MIN_SAMPLES as usize - 1]);
        cold.observe(stream[warm as usize]);
        assert_eq!(cold.triggers, 0, "latency trigger not armed yet");

        let mut fr = FlightRecorder::new();
        fr.scan(&stream[..warm as usize]);
        assert_eq!(fr.triggers, 0);
        fr.observe(stream[warm as usize]);
        assert_eq!(fr.triggers, 1, "100× p99 slice must trigger");
        assert!(matches!(fr.dumps[0].trigger, DumpTrigger::SliceLatency { .. }));
        assert_eq!(fr.dumps[0].events.len(), FLIGHT_WINDOW, "window of last N events");
        fr.observe(stream[warm as usize + 1]);
        assert_eq!(fr.triggers, 2, "any shed triggers");
        assert!(matches!(fr.dumps[1].trigger, DumpTrigger::Shed { session: 1 }));
        assert!(
            fr.dumps[1].events.iter().any(|e| e.kind == TraceKind::Shed),
            "dump contains the shed event"
        );
        // Determinism: replaying the same stream reproduces the dumps.
        let mut fr2 = FlightRecorder::new();
        fr2.scan(&stream);
        assert_eq!(fr2.triggers, fr.triggers);
        assert_eq!(fr2.dumps.len(), fr.dumps.len());
        for (a, b) in fr.dumps.iter().zip(&fr2.dumps) {
            assert_eq!(a.trigger, b.trigger);
            assert_eq!(a.events, b.events);
        }
        // to_json parses.
        assert!(Json::parse(&fr.to_json().to_string()).is_ok());
    }
}
