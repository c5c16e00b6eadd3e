//! The control-thread phase recorder and the match processes' counter sets.
//!
//! Two complementary mechanisms, matching how PSM-E is structured:
//!
//! * **Phase totals** belong to the *control thread* (there is exactly one —
//!   the paper's control process). [`Recorder`] keeps one [`PhaseTotal`] per
//!   [`ControlPhase`] — match, conflict resolution, decide, chunk build, §5.1
//!   network surgery, §5.2 state update. Closing a span is three adds; no
//!   span is kept.
//!
//! * **Counters** belong to the *match processes*. A [`CounterSet`] is a
//!   plain array of `u64`s a worker keeps in thread-local state (in
//!   practice: on its stack for the duration of a cycle) and flushes at
//!   the cycle barrier, where the control thread merges it. The hot path
//!   is a single unsynchronized add — the aggregation point is the barrier
//!   the engine already has.
//!
//! Both enums name each variant once: `named_enum!` derives the type, its
//! `ALL` list and its stable `name()` (the JSON key) from one declaration.

use crate::json::Json;
use std::time::Instant;

named_enum! {
    /// The control-thread phases of one production-system cycle (plus the
    /// run-time learning phases of §5).
    pub enum ControlPhase {
        /// Match to quiescence.
        Match = "match",
        /// Folding raw conflict-set changes into the conflict set.
        ConflictResolution = "conflict_resolution",
        /// The Soar decision procedure (including wme surgery and GC; not
        /// the match those changes start).
        Decide = "decide",
        /// Building a chunk from a subgoal's results.
        ChunkBuild = "chunk_build",
        /// §5.1 run-time network surgery (compiling a production into the net).
        NetworkSurgery = "network_surgery",
        /// §5.2 state update (seeding the new nodes' memories).
        StateUpdate = "state_update",
    }
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

/// Control-thread phase recorder: one [`PhaseTotal`] per [`ControlPhase`].
#[derive(Debug, Default)]
pub struct Recorder {
    totals: [PhaseTotal; ControlPhase::ALL.len()],
}

impl Recorder {
    /// A recorder with every total at zero.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Open a span. Does not record anything until finished.
    pub fn start(&self, phase: ControlPhase) -> SpanHandle {
        SpanHandle { phase, start: Instant::now() }
    }

    /// Close a span into its phase's total.
    pub fn finish(&mut self, handle: SpanHandle) {
        let dur_ns = handle.start.elapsed().as_nanos() as u64;
        let t = &mut self.totals[handle.phase as usize];
        t.count += 1;
        t.total_ns += dur_ns;
        t.max_ns = t.max_ns.max(dur_ns);
    }

    /// Aggregate for one phase.
    pub fn total(&self, phase: ControlPhase) -> PhaseTotal {
        self.totals[phase as usize]
    }

    /// Totals of the phases that recorded a span, as JSON:
    /// `{phase: {count, total_us, mean_us, max_us}}`.
    pub fn totals_json(&self) -> Json {
        Json::Obj(
            ControlPhase::ALL
                .into_iter()
                .map(|p| (p, self.total(p)))
                .filter(|(_, t)| t.count > 0)
                .map(|(p, t)| {
                    let mean = t.total_ns as f64 / t.count as f64;
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

named_enum! {
    /// Worker-side counters, indexed into a [`CounterSet`]. Each counts what
    /// no other field books: tasks, queue traffic and line-lock spins live in
    /// `psme-core`'s `WorkerStats` / `CycleMetrics` / `QueueStats`.
    pub enum Counter {
        /// Alpha (wme-change) tasks.
        AlphaTasks = "alpha_tasks",
        /// Two-input + P node tasks.
        BetaTasks = "beta_tasks",
        /// Two-input activations that emitted nothing (the paper's null
        /// activations — work that contributes no matches).
        NullActivations = "null_activations",
        /// Work scanned, as `TaskRecord::scanned` counts it: constant tests
        /// an alpha task ran, opposite-memory candidates a beta task scanned
        /// (same destination node; co-hashed entries of other nodes count as
        /// `EntriesSkipped`).
        Scanned = "scanned",
        /// Candidates rejected by the stored 64-bit key-hash compare before
        /// any structural key compare (indexed memory probes only).
        HashRejects = "hash_rejects",
        /// Co-hashed entries of other nodes traversed by the reference
        /// whole-line memory scan (0 when the per-node line index is on).
        EntriesSkipped = "entries_skipped",
        /// Child activations emitted.
        Emitted = "emitted",
        /// Memory-line lock acquisitions: one per line-touching activation.
        LineLockAcquisitions = "line_lock_acquisitions",
        /// Conflict-set changes produced.
        CsChanges = "cs_changes",
        /// Alpha jump-table hash probes (one per indexed field per wme).
        AlphaProbes = "alpha_probes",
        /// Candidate alpha memories whose residual tests were consulted.
        AlphaCandidates = "alpha_candidates",
        /// Constant/intra tests the linear alpha scan would have evaluated
        /// but the discrimination index skipped.
        AlphaTestsSaved = "alpha_tests_saved",
        /// Adaptive mid-run join reorganizations committed.
        Reorganizations = "reorganizations",
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
            r.finish(h);
        }
        let h = r.start(ControlPhase::Decide);
        r.finish(h);
        assert_eq!(r.total(ControlPhase::Match).count, 3);
        assert_eq!(r.total(ControlPhase::Decide).count, 1);
        assert_eq!(r.total(ControlPhase::ChunkBuild).count, 0);
        let j = r.totals_json();
        assert_eq!(j.get("match").and_then(|m| m.get("count")).and_then(Json::as_u64), Some(3));
        assert!(j.get("decide").is_some());
        assert_eq!(j.get("chunk_build"), None, "phases without a span omitted");
    }

    #[test]
    fn counters_merge_and_serialize() {
        let mut a = CounterSet::new();
        a.add(Counter::BetaTasks, 10);
        a.add(Counter::NullActivations, 3);
        let mut b = CounterSet::new();
        b.add(Counter::BetaTasks, 5);
        b.add(Counter::Scanned, 7);
        a.merge(&b);
        assert_eq!(a.get(Counter::BetaTasks), 15);
        assert_eq!(a.get(Counter::Scanned), 7);
        let j = a.to_json();
        assert_eq!(j.get("beta_tasks").and_then(|v| v.as_u64()), Some(15));
        assert_eq!(j.get("alpha_tasks"), None, "zero counters omitted");
        a.reset();
        assert!(a.is_empty());
    }

    #[test]
    fn counter_add_and_merge_saturate() {
        let mut a = CounterSet::new();
        a.add(Counter::CsChanges, u64::MAX - 1);
        a.add(Counter::CsChanges, 5);
        assert_eq!(a.get(Counter::CsChanges), u64::MAX, "add saturates");
        let mut b = CounterSet::new();
        b.add(Counter::CsChanges, 1);
        b.add(Counter::Reorganizations, 2);
        a.merge(&b);
        assert_eq!(a.get(Counter::CsChanges), u64::MAX, "merge saturates");
        assert_eq!(a.get(Counter::Reorganizations), 2);
        let j = a.to_json();
        assert_eq!(j.get("reorganizations").and_then(|v| v.as_u64()), Some(2));
    }

    /// The names leave the process as JSON keys (`MetricsLog::to_json`, the
    /// harness's `agent_phases` / `engine_phases`) and as the trace's event
    /// kinds: the macro must spell them as they were spelled by hand.
    #[test]
    fn exported_names_are_pinned() {
        assert_eq!(
            Counter::ALL.map(Counter::name),
            [
                "alpha_tasks",
                "beta_tasks",
                "null_activations",
                "scanned",
                "hash_rejects",
                "entries_skipped",
                "emitted",
                "line_lock_acquisitions",
                "cs_changes",
                "alpha_probes",
                "alpha_candidates",
                "alpha_tests_saved",
                "reorganizations",
            ]
        );
        assert_eq!(
            ControlPhase::ALL.map(ControlPhase::name),
            [
                "match",
                "conflict_resolution",
                "decide",
                "chunk_build",
                "network_surgery",
                "state_update",
            ]
        );
        assert_eq!(
            crate::TraceKind::ALL.map(crate::TraceKind::name),
            [
                "admitted",
                "enqueued",
                "slice_start",
                "slice_end",
                "reenqueued",
                "retired",
                "shed",
                "halted",
                "hibernated",
                "resumed",
                "cross_shard_steal",
                "net_accepted",
                "net_request",
                "net_shed",
                "reorg_committed",
            ]
        );
    }
}
