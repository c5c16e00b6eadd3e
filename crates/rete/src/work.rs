//! One task's counted work.
//!
//! Every number the paper's §6 reports is a sum over tasks: entries scanned,
//! children emitted, null activations, memory-line traffic. The two
//! processing bodies ([`process_wme_change`](crate::process_wme_change),
//! [`process_beta_scratch`](crate::process_beta_scratch)) return what their
//! task did as one [`Work`], and every consumer reads that value: the serial
//! engine's [`TaskRecord`](crate::TaskRecord), the parallel engine's
//! counters (`psme_obs::CounterSet::book`), the chain detector's
//! [`CostWindow`](crate::CostWindow), the hot-spot profiler and the
//! simulator's cost model.
//!
//! The counted quantities are one list, [`with_work_fields!`]: `Work`'s
//! fields are declared from it here, `psme_obs::Counter`'s work slots, their
//! JSON keys and their booking from it there.

/// Hands the one list of a task's counted quantities to `$then!`: one
/// `field: Counter = "json_key",` line each, under its doc. [`Work`] takes a
/// field from every line, `psme_obs::Counter` a slot that sums it.
#[macro_export]
macro_rules! with_work_fields {
    ($then:ident) => {
        $then! {
            /// Work scanned: a beta task's opposite-memory candidates (same
            /// destination node — co-hashed entries of other nodes are
            /// `skipped`, so indexed and reference memories agree on it); an
            /// alpha task's constant tests, the class test and jump-table
            /// probes included.
            scanned: Scanned = "scanned",
            /// Candidates rejected by the stored 64-bit key-hash compare
            /// before any structural key compare (indexed memory probes
            /// only; 0 for the reference whole-line scan).
            hash_rejects: HashRejects = "hash_rejects",
            /// Co-hashed entries of other nodes traversed by the reference
            /// whole-line memory scan (0 with the per-node line index, which
            /// never visits them).
            skipped: EntriesSkipped = "entries_skipped",
            /// Alpha jump-table hash probes, one per indexed field (counted
            /// in `scanned` too; 0 under the linear classifier).
            probes: AlphaProbes = "alpha_probes",
            /// Candidate alpha memories whose residual tests were consulted
            /// (under the linear classifier: every memory of the class).
            candidates: AlphaCandidates = "alpha_candidates",
            /// Tests the linear alpha scan would have run but the
            /// discrimination index skipped (0 under the linear scan).
            tests_saved: AlphaTestsSaved = "alpha_tests_saved",
            /// Child activations emitted (a P node's: its one conflict-set
            /// change).
            emitted: Emitted = "emitted",
        }
    };
}

macro_rules! declare_work {
    ($($(#[$doc:meta])* $field:ident: $counter:ident = $name:literal,)+) => {
        /// What one task did: the counts of [`with_work_fields!`] and the
        /// memory line it touched.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Work {
            $($(#[$doc])* pub $field: u32,)+
            /// Memory line touched (two-input and P-node tasks).
            pub line: Option<u32>,
        }

        /// Saturating sum of the counts; `line` is one task's and stays as
        /// it was.
        impl std::ops::AddAssign for Work {
            fn add_assign(&mut self, o: Work) {
                $(self.$field = self.$field.saturating_add(o.$field);)+
            }
        }
    };
}

with_work_fields!(declare_work);
