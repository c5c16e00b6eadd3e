//! The span/event recorder and the lock-free counter sets.
//!
//! Two complementary mechanisms, matching how PSM-E is structured:
//!
//! * **Spans** belong to the *control thread* (there is exactly one — the
//!   paper's control process). [`Recorder`] timestamps its phases — match,
//!   conflict resolution, decide, chunk build, §5.1 network surgery, §5.2
//!   state update — against a single run origin. Recording a span is a
//!   `Vec::push`; no locks, no allocation beyond the vec.
//!
//! * **Counters** belong to the *match processes*. A [`CounterSet`] is a
//!   plain array of `u64`s a worker keeps in thread-local state (in
//!   practice: on its stack for the duration of a cycle) and flushes at
//!   the cycle barrier, where the control thread merges it. The hot path
//!   is a single unsynchronized add — the aggregation point is the barrier
//!   the engine already has.

use crate::json::Json;
use std::time::Instant;

/// The control-thread phases of one production-system cycle (plus the
/// run-time learning phases of §5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControlPhase {
    /// Parallel match to quiescence.
    Match,
    /// Folding raw conflict-set changes and selecting instantiations.
    ConflictResolution,
    /// The Soar decision procedure (including wme surgery and GC).
    Decide,
    /// Building a chunk from a subgoal's results.
    ChunkBuild,
    /// §5.1 run-time network surgery (compiling a production into the net).
    NetworkSurgery,
    /// §5.2 state update (seeding the new nodes' memories).
    StateUpdate,
}

impl ControlPhase {
    /// Every phase, in reporting order.
    pub const ALL: [ControlPhase; 6] = [
        ControlPhase::Match,
        ControlPhase::ConflictResolution,
        ControlPhase::Decide,
        ControlPhase::ChunkBuild,
        ControlPhase::NetworkSurgery,
        ControlPhase::StateUpdate,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            ControlPhase::Match => "match",
            ControlPhase::ConflictResolution => "conflict_resolution",
            ControlPhase::Decide => "decide",
            ControlPhase::ChunkBuild => "chunk_build",
            ControlPhase::NetworkSurgery => "network_surgery",
            ControlPhase::StateUpdate => "state_update",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Which control phase.
    pub phase: ControlPhase,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Cycle/decision ordinal the caller attached (0 when not set).
    pub seq: u64,
}

/// Aggregate for one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTotal {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// An open span; finish it with [`Recorder::finish`].
#[derive(Debug)]
#[must_use = "finish the span to record it"]
pub struct SpanHandle {
    phase: ControlPhase,
    start: Instant,
}

/// Default cap on retained individual spans (totals keep accumulating
/// past it); long runs stay bounded in memory.
pub const DEFAULT_SPAN_CAP: usize = 100_000;

/// Control-thread span/event recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Individual spans, up to [`Recorder::span_cap`].
    pub spans: Vec<SpanRecord>,
    /// Named point events `(label, value, t_ns)`.
    pub events: Vec<(String, f64, u64)>,
    /// Retention cap for `spans`.
    pub span_cap: usize,
    totals: [PhaseTotal; 6],
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose origin is now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            events: Vec::new(),
            span_cap: DEFAULT_SPAN_CAP,
            totals: [PhaseTotal::default(); 6],
        }
    }

    /// The instant timestamps are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a span. Does not record anything until finished.
    pub fn start(&self, phase: ControlPhase) -> SpanHandle {
        SpanHandle { phase, start: Instant::now() }
    }

    /// Close a span, attaching a cycle/decision ordinal. Returns its
    /// duration in nanoseconds.
    pub fn finish_seq(&mut self, handle: SpanHandle, seq: u64) -> u64 {
        let dur_ns = handle.start.elapsed().as_nanos() as u64;
        let start_ns = handle.start.duration_since(self.origin).as_nanos() as u64;
        let t = &mut self.totals[handle.phase.index()];
        t.count += 1;
        t.total_ns += dur_ns;
        t.max_ns = t.max_ns.max(dur_ns);
        if self.spans.len() < self.span_cap {
            self.spans.push(SpanRecord { phase: handle.phase, start_ns, dur_ns, seq });
        }
        dur_ns
    }

    /// Close a span with no ordinal.
    pub fn finish(&mut self, handle: SpanHandle) -> u64 {
        self.finish_seq(handle, 0)
    }

    /// Time a closure as one span.
    pub fn time<R>(&mut self, phase: ControlPhase, f: impl FnOnce() -> R) -> R {
        let h = self.start(phase);
        let r = f();
        self.finish(h);
        r
    }

    /// Record a named point event at the current time.
    pub fn event(&mut self, label: impl Into<String>, value: f64) {
        let t = self.origin.elapsed().as_nanos() as u64;
        self.events.push((label.into(), value, t));
    }

    /// Aggregate for one phase.
    pub fn total(&self, phase: ControlPhase) -> PhaseTotal {
        self.totals[phase.index()]
    }

    /// `(phase, aggregate)` for every phase that recorded at least one span.
    pub fn phase_totals(&self) -> Vec<(ControlPhase, PhaseTotal)> {
        ControlPhase::ALL
            .into_iter()
            .map(|p| (p, self.totals[p.index()]))
            .filter(|(_, t)| t.count > 0)
            .collect()
    }

    /// Merge another recorder's aggregates (its individual spans are
    /// appended up to the cap; origins are not reconciled, so only use
    /// this for recorders whose absolute timestamps don't matter).
    pub fn absorb(&mut self, other: &Recorder) {
        for p in ControlPhase::ALL {
            let o = other.totals[p.index()];
            let t = &mut self.totals[p.index()];
            t.count += o.count;
            t.total_ns += o.total_ns;
            t.max_ns = t.max_ns.max(o.max_ns);
        }
        let room = self.span_cap.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.iter().take(room));
    }

    /// Phase totals as JSON: `{phase: {count, total_us, mean_us, max_us}}`.
    pub fn totals_json(&self) -> Json {
        Json::Obj(
            self.phase_totals()
                .into_iter()
                .map(|(p, t)| {
                    let mean = if t.count == 0 { 0.0 } else { t.total_ns as f64 / t.count as f64 };
                    (
                        p.name().to_string(),
                        Json::obj([
                            ("count", Json::from(t.count)),
                            ("total_us", Json::float(t.total_ns as f64 / 1e3)),
                            ("mean_us", Json::float(mean / 1e3)),
                            ("max_us", Json::float(t.max_ns as f64 / 1e3)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Worker-side counters, indexed by [`Counter`]. Plain adds, no
/// synchronization — each worker owns one and flushes it at the cycle
/// barrier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Counter {
    /// Tasks executed (all kinds).
    Tasks,
    /// Alpha (wme-change) tasks.
    AlphaTasks,
    /// Two-input + P node tasks.
    BetaTasks,
    /// Two-input activations that emitted nothing (the paper's null
    /// activations — work that contributes no matches).
    NullActivations,
    /// Opposite-memory candidate entries scanned (same destination node;
    /// co-hashed entries of other nodes count as `EntriesSkipped`).
    Scanned,
    /// Candidates rejected by the stored 64-bit key-hash compare before any
    /// structural key compare (indexed memory probes only).
    HashRejects,
    /// Co-hashed entries of other nodes traversed by the reference
    /// whole-line memory scan (0 when the per-node line index is on).
    EntriesSkipped,
    /// Child activations emitted.
    Emitted,
    /// Memory-line lock spins.
    MemSpins,
    /// Memory-line lock acquisitions: one per line-touching activation.
    LineLockAcquisitions,
    /// Conflict-set changes produced.
    CsChanges,
    /// Tasks taken from another worker's deque (work-stealing scheduler).
    Steals,
    /// Steal attempts that found an empty victim or lost the CAS race.
    StealFails,
    /// Batched transfers (batched publications, injector drains, steal
    /// bursts) that moved ≥ 2 tasks at once.
    Batches,
    /// Alpha jump-table hash probes (one per indexed field per wme).
    AlphaProbes,
    /// Candidate alpha memories whose residual tests were consulted.
    AlphaCandidates,
    /// Constant/intra tests the linear alpha scan would have evaluated but
    /// the discrimination index skipped.
    AlphaTestsSaved,
    /// Adaptive mid-run join reorganizations committed.
    Reorganizations,
}

impl Counter {
    /// Every counter, in reporting order.
    pub const ALL: [Counter; 18] = [
        Counter::Tasks,
        Counter::AlphaTasks,
        Counter::BetaTasks,
        Counter::NullActivations,
        Counter::Scanned,
        Counter::HashRejects,
        Counter::EntriesSkipped,
        Counter::Emitted,
        Counter::MemSpins,
        Counter::LineLockAcquisitions,
        Counter::CsChanges,
        Counter::Steals,
        Counter::StealFails,
        Counter::Batches,
        Counter::AlphaProbes,
        Counter::AlphaCandidates,
        Counter::AlphaTestsSaved,
        Counter::Reorganizations,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Tasks => "tasks",
            Counter::AlphaTasks => "alpha_tasks",
            Counter::BetaTasks => "beta_tasks",
            Counter::NullActivations => "null_activations",
            Counter::Scanned => "scanned",
            Counter::HashRejects => "hash_rejects",
            Counter::EntriesSkipped => "entries_skipped",
            Counter::Emitted => "emitted",
            Counter::MemSpins => "mem_spins",
            Counter::LineLockAcquisitions => "line_lock_acquisitions",
            Counter::CsChanges => "cs_changes",
            Counter::Steals => "steals",
            Counter::StealFails => "steal_fails",
            Counter::Batches => "batches",
            Counter::AlphaProbes => "alpha_probes",
            Counter::AlphaCandidates => "alpha_candidates",
            Counter::AlphaTestsSaved => "alpha_tests_saved",
            Counter::Reorganizations => "reorganizations",
        }
    }
}

/// A fixed-slot set of counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSet([u64; Counter::ALL.len()]);

impl CounterSet {
    /// All-zero counters.
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    /// Bump one counter (saturating — a clamped counter must read as
    /// `u64::MAX`, never wrap to a small value).
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.0[c as usize] = self.0[c as usize].saturating_add(n);
    }

    /// Read one counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// Fold another set in (the barrier-side merge). Saturating, like
    /// [`Self::add`]: merging huge per-worker counts must clamp, not wrap.
    pub fn merge(&mut self, other: &CounterSet) {
        for i in 0..self.0.len() {
            self.0[i] = self.0[i].saturating_add(other.0[i]);
        }
    }

    /// Reset to zero (workers reuse their set across cycles).
    pub fn reset(&mut self) {
        self.0 = [0; Counter::ALL.len()];
    }

    /// `true` when every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&v| v == 0)
    }

    /// As a JSON object, omitting zero counters.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            Counter::ALL
                .into_iter()
                .filter(|&c| self.get(c) > 0)
                .map(|c| (c.name().to_string(), Json::from(self.get(c))))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_per_phase() {
        let mut r = Recorder::new();
        for i in 0..3 {
            let h = r.start(ControlPhase::Match);
            std::hint::black_box(i);
            r.finish_seq(h, i);
        }
        r.time(ControlPhase::Decide, || ());
        let totals = r.phase_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(r.total(ControlPhase::Match).count, 3);
        assert_eq!(r.total(ControlPhase::Decide).count, 1);
        assert_eq!(r.total(ControlPhase::ChunkBuild).count, 0);
        assert_eq!(r.spans.len(), 4);
    }

    #[test]
    fn span_cap_bounds_memory_but_not_totals() {
        let mut r = Recorder::new();
        r.span_cap = 2;
        for _ in 0..5 {
            let h = r.start(ControlPhase::Match);
            r.finish(h);
        }
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.total(ControlPhase::Match).count, 5);
    }

    #[test]
    fn counters_merge_and_serialize() {
        let mut a = CounterSet::new();
        a.add(Counter::Tasks, 10);
        a.add(Counter::NullActivations, 3);
        let mut b = CounterSet::new();
        b.add(Counter::Tasks, 5);
        b.add(Counter::Scanned, 7);
        a.merge(&b);
        assert_eq!(a.get(Counter::Tasks), 15);
        assert_eq!(a.get(Counter::Scanned), 7);
        let j = a.to_json();
        assert_eq!(j.get("tasks").and_then(|v| v.as_u64()), Some(15));
        assert_eq!(j.get("alpha_tasks"), None, "zero counters omitted");
        a.reset();
        assert!(a.is_empty());
    }

    #[test]
    fn counter_add_and_merge_saturate() {
        let mut a = CounterSet::new();
        a.add(Counter::Steals, u64::MAX - 1);
        a.add(Counter::Steals, 5);
        assert_eq!(a.get(Counter::Steals), u64::MAX, "add saturates");
        let mut b = CounterSet::new();
        b.add(Counter::Steals, 1);
        b.add(Counter::Batches, 2);
        a.merge(&b);
        assert_eq!(a.get(Counter::Steals), u64::MAX, "merge saturates");
        assert_eq!(a.get(Counter::Batches), 2);
        let j = a.to_json();
        assert_eq!(j.get("batches").and_then(|v| v.as_u64()), Some(2));
    }

    #[test]
    fn absorb_merges_other_recorders() {
        let mut a = Recorder::new();
        a.time(ControlPhase::Match, || ());
        let mut b = Recorder::new();
        b.time(ControlPhase::Match, || ());
        b.time(ControlPhase::StateUpdate, || ());
        a.absorb(&b);
        assert_eq!(a.total(ControlPhase::Match).count, 2);
        assert_eq!(a.total(ControlPhase::StateUpdate).count, 1);
        let j = a.totals_json();
        assert!(j.get("match").is_some());
    }
}
