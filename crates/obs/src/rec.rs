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
//! The counters that sum a task's work are declared from the list that
//! declares [`Work`]'s fields (`psme_rete::with_work_fields!`), and
//! [`CounterSet::book`] is the one rule that turns a task into counts.

use crate::json::Json;
use psme_ops::named_enum;
use psme_rete::{TaskKind, TaskRecord, Work};
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
}

/// Declares [`Counter`] — four per-task counts, then one slot per line of
/// the work list — and [`CounterSet::book`], which fills them.
macro_rules! declare_counters {
    ($($(#[$doc:meta])* $field:ident: $counter:ident = $name:literal,)+) => {
        named_enum! {
            /// Worker-side counters, indexed into a [`CounterSet`]: what the
            /// executed tasks did, as [`CounterSet::book`] counts it. Task
            /// totals, queue traffic and line-lock spins live in `psme-core`'s
            /// `WorkerStats` / `CycleMetrics` / `QueueStats`.
            pub enum Counter {
                /// Alpha (wme-change) tasks.
                AlphaTasks = "alpha_tasks",
                /// Null activations ([`TaskRecord::is_null`]): two-input
                /// activations that emitted nothing — work that contributes
                /// no matches.
                NullActivations = "null_activations",
                /// Memory-line lock acquisitions: one per line-touching
                /// activation.
                LineLockAcquisitions = "line_lock_acquisitions",
                /// Conflict-set changes: one per P-node task.
                CsChanges = "cs_changes",
                $($(#[$doc])* $counter = $name,)+
            }
        }

        impl CounterSet {
            /// Count one executed task of `kind` that did `work` — the one
            /// booking rule.
            #[inline]
            pub fn book(&mut self, kind: TaskKind, work: &Work) {
                self.add(Counter::AlphaTasks, u64::from(kind == TaskKind::Alpha));
                self.add(Counter::NullActivations, u64::from(TaskRecord::is_null(kind, work)));
                self.add(Counter::LineLockAcquisitions, u64::from(work.line.is_some()));
                self.add(Counter::CsChanges, u64::from(kind == TaskKind::Prod));
                $(self.add(Counter::$counter, u64::from(work.$field));)+
            }
        }
    };
}

psme_rete::with_work_fields!(declare_counters);

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
    }

    #[test]
    fn counters_merge_and_serialize() {
        let mut a = CounterSet::new();
        a.add(Counter::AlphaTasks, 10);
        a.add(Counter::NullActivations, 3);
        let mut b = CounterSet::new();
        b.add(Counter::AlphaTasks, 5);
        b.add(Counter::Scanned, 7);
        a.merge(&b);
        assert_eq!(a.get(Counter::AlphaTasks), 15);
        assert_eq!(a.get(Counter::Scanned), 7);
        let j = a.to_json();
        assert_eq!(j.get("alpha_tasks").and_then(|v| v.as_u64()), Some(15));
        assert_eq!(j.get("emitted"), None, "zero counters omitted");
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
        b.add(Counter::Emitted, 2);
        a.merge(&b);
        assert_eq!(a.get(Counter::CsChanges), u64::MAX, "merge saturates");
        assert_eq!(a.get(Counter::Emitted), 2);
    }

    /// Every work field lands in its own slot, and the per-task counts
    /// follow the task's kind: an alpha task, a childless join (null, one
    /// line) and a P-node task (one conflict-set change).
    #[test]
    fn booking_counts_each_task_once() {
        let none = Work::default();
        let alpha = Work { scanned: 3, probes: 1, candidates: 2, tests_saved: 4, emitted: 2, ..none };
        let join = Work { scanned: 5, hash_rejects: 2, skipped: 1, line: Some(9), ..none };
        let prod = Work { emitted: 1, line: Some(4), ..none };
        let mut c = CounterSet::new();
        c.book(TaskKind::Alpha, &alpha);
        c.book(TaskKind::Join, &join);
        c.book(TaskKind::Prod, &prod);
        let got = Counter::ALL.map(|k| (k.name(), c.get(k)));
        assert_eq!(
            got,
            [
                ("alpha_tasks", 1),
                ("null_activations", 1),
                ("line_lock_acquisitions", 2),
                ("cs_changes", 1),
                ("scanned", 8),
                ("hash_rejects", 2),
                ("entries_skipped", 1),
                ("alpha_probes", 1),
                ("alpha_candidates", 2),
                ("alpha_tests_saved", 4),
                ("emitted", 3),
            ]
        );
    }

    /// The names leave the process as JSON keys (`MetricsLog::to_json`) and
    /// as the trace's event kinds: the macro must spell them as they were
    /// spelled by hand.
    #[test]
    fn exported_names_are_pinned() {
        assert_eq!(
            Counter::ALL.map(Counter::name),
            [
                "alpha_tasks",
                "null_activations",
                "line_lock_acquisitions",
                "cs_changes",
                "scanned",
                "hash_rejects",
                "entries_skipped",
                "alpha_probes",
                "alpha_candidates",
                "alpha_tests_saved",
                "emitted",
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
