//! The NS32032 cost model.
//!
//! The Encore Multimax used in the paper ran NS32032 processors at roughly
//! 0.75 MIPS; Table 6-1 reports an average task granularity of ≈400 µs
//! (428/438/400 µs across the three tasks) with a 200–800 µs spread. The
//! model below assigns each traced task a cost from its measured work
//! counters (opposite-memory entries scanned, children emitted, constant
//! tests run), calibrated to land in that envelope.

use psme_rete::{TaskKind, TaskRecord};

/// Per-operation costs in simulated microseconds.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Base cost of an alpha (wme-change) task.
    pub alpha_base: f64,
    /// Per constant test evaluated in the discrimination net.
    pub alpha_per_test: f64,
    /// Per jump-table hash probe in the indexed discrimination net (a
    /// hashed dispatch, cheaper than walking a constant-test chain — the
    /// §5.1 jumptable is "considerably faster" than test-by-test
    /// interpretation).
    pub alpha_probe: f64,
    /// Base cost of a two-input activation (hash, compare, bookkeeping).
    pub beta_base: f64,
    /// Per opposite-memory candidate fully examined — structural key
    /// compare plus consistency tests, under the line lock.
    pub per_scanned: f64,
    /// Per candidate rejected by the stored 64-bit hash compare before any
    /// structural work (indexed probes; one word compare under the lock).
    pub per_hash_reject: f64,
    /// Per co-hashed entry of another node traversed and filtered by the
    /// reference whole-line scan (a node-id compare and pointer bump under
    /// the lock; 0 entries when the per-node line index is on).
    pub per_skip: f64,
    /// Per child activation constructed.
    pub per_emit: f64,
    /// Base cost of a P-node activation (conflict-set update).
    pub prod_base: f64,
    /// Memory-line critical-section base: acquire, token insert/remove,
    /// release.
    pub line_hold_base: f64,
    /// Queue critical section (one push or one pop).
    pub queue_op: f64,
    /// One spin-loop iteration while waiting for a lock.
    pub spin: f64,
    /// Extra queue-lock interference per idle process doing failed pops
    /// ("these failed pop operations increase with an increasing number of
    /// processors, and interfere with the operation of the system", §6.1).
    pub failed_pop_interference: f64,
    /// Work-stealing: owner-end deque operation (plain load/store on the
    /// bottom, no lock, no fence on push) — far cheaper than a locked
    /// queue critical section.
    pub ws_owner_op: f64,
    /// Work-stealing: one successful steal (SeqCst fence + top CAS on the
    /// victim's deque; the only cross-worker serialization point).
    pub ws_steal: f64,
    /// Work-stealing: fixed cost of publishing one batch of children (a
    /// single release store covers the whole batch).
    pub ws_batch_publish: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            alpha_base: 80.0,
            alpha_per_test: 4.0,
            alpha_probe: 2.0,
            beta_base: 220.0,
            per_scanned: 35.0,
            per_hash_reject: 6.0,
            per_skip: 4.0,
            per_emit: 40.0,
            prod_base: 170.0,
            line_hold_base: 60.0,
            queue_op: 42.0,
            spin: 18.0,
            failed_pop_interference: 12.0,
            ws_owner_op: 6.0,
            ws_steal: 25.0,
            ws_batch_publish: 10.0,
        }
    }
}

impl CostModel {
    /// Compute cost of the task body excluding queue operations, split into
    /// `(under_line_lock, after_lock)` portions.
    pub fn body_cost(&self, t: &TaskRecord) -> (f64, f64) {
        let w = &t.work;
        match t.kind {
            TaskKind::Alpha => {
                // `scanned` includes the probes; probes are re-priced at
                // the (cheaper) hashed-dispatch rate.
                let chain = w.scanned.saturating_sub(w.probes) as f64;
                (
                    0.0,
                    self.alpha_base
                        + chain * self.alpha_per_test
                        + w.probes as f64 * self.alpha_probe,
                )
            }
            TaskKind::Join | TaskKind::Neg => {
                // `scanned` counts candidates in both memory modes; the
                // hash-rejected ones cost a word compare instead of the
                // full structural examine, and the reference scan pays
                // `per_skip` for each co-hashed entry it filters by node.
                let full = w.scanned.saturating_sub(w.hash_rejects) as f64;
                (
                    self.line_hold_base
                        + full * self.per_scanned
                        + w.hash_rejects as f64 * self.per_hash_reject
                        + w.skipped as f64 * self.per_skip,
                    self.beta_base + w.emitted as f64 * self.per_emit,
                )
            }
            TaskKind::Prod => (self.line_hold_base, self.prod_base),
        }
    }

    /// Total compute cost of a task (locks uncontended, queue ops included
    /// for `pushes` children + one pop).
    pub fn total_cost(&self, t: &TaskRecord, children: usize) -> f64 {
        let (locked, after) = self.body_cost(t);
        locked + after + self.queue_op * (1.0 + children as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psme_rete::{Side, Work};

    fn rec(kind: TaskKind, scanned: u32, emitted: u32) -> TaskRecord {
        TaskRecord {
            id: 0,
            parent: None,
            node: 1,
            kind,
            side: Some(Side::Left),
            delta: 1,
            work: Work { scanned, emitted, line: Some(0), ..Work::default() },
            wall_ns: 0,
        }
    }

    #[test]
    fn typical_join_lands_in_paper_envelope() {
        let m = CostModel::default();
        // A typical two-input activation scanning a few tokens and emitting
        // one child: Table 6-1's 400 µs ballpark with a 200–800 µs spread.
        let typical = m.total_cost(&rec(TaskKind::Join, 3, 1), 1);
        assert!(
            (300.0..550.0).contains(&typical),
            "typical join cost {typical} µs"
        );
        let light = m.total_cost(&rec(TaskKind::Join, 0, 0), 0);
        assert!(light >= 200.0, "light join {light}");
        let heavy = m.total_cost(&rec(TaskKind::Join, 10, 4), 4);
        assert!((600.0..1100.0).contains(&heavy), "heavy join {heavy}");
    }

    #[test]
    fn alpha_tasks_are_cheap() {
        let m = CostModel::default();
        let a = m.total_cost(&rec(TaskKind::Alpha, 20, 3), 3);
        let j = m.total_cost(&rec(TaskKind::Join, 3, 1), 1);
        assert!(a < j, "alpha {a} < join {j}");
    }

    #[test]
    fn probes_are_cheaper_than_chain_tests() {
        let m = CostModel::default();
        let mut indexed = rec(TaskKind::Alpha, 5, 0);
        indexed.work.probes = 3;
        let linear = rec(TaskKind::Alpha, 5, 0);
        let (_, ci) = m.body_cost(&indexed);
        let (_, cl) = m.body_cost(&linear);
        assert!(ci < cl, "hashed probes re-priced below chain tests: {ci} vs {cl}");
        assert!((ci - (m.alpha_base + 2.0 * m.alpha_per_test + 3.0 * m.alpha_probe)).abs() < 1e-9);
    }

    #[test]
    fn scanning_happens_under_the_line_lock() {
        let m = CostModel::default();
        let (locked, _) = m.body_cost(&rec(TaskKind::Join, 8, 0));
        assert!(locked > m.line_hold_base);
    }

    #[test]
    fn hash_rejected_candidates_are_cheap() {
        let m = CostModel::default();
        let reference = rec(TaskKind::Join, 8, 1);
        let mut indexed = reference;
        indexed.work.hash_rejects = 6;
        let (l_ref, a_ref) = m.body_cost(&reference);
        let (l_idx, a_idx) = m.body_cost(&indexed);
        assert_eq!(a_ref, a_idx, "emission cost unchanged");
        assert!(l_idx < l_ref, "hash rejects shrink lock hold: {l_idx} vs {l_ref}");
        let expect = m.line_hold_base + 2.0 * m.per_scanned + 6.0 * m.per_hash_reject;
        assert!((l_idx - expect).abs() < 1e-9);
    }

    #[test]
    fn whole_line_skips_cost_but_less_than_candidates() {
        let m = CostModel::default();
        assert!(m.per_skip < m.per_hash_reject);
        assert!(m.per_hash_reject < m.per_scanned);
        let indexed = rec(TaskKind::Neg, 3, 0);
        let mut reference = indexed;
        reference.work.skipped = 20;
        let (l_idx, _) = m.body_cost(&indexed);
        let (l_ref, _) = m.body_cost(&reference);
        assert!((l_ref - l_idx - 20.0 * m.per_skip).abs() < 1e-9);
        // The indexed probe of the same task DAG is never costlier: equal
        // scanned, zero skipped, and each hash reject replaces a full
        // examine at a lower rate.
        assert!(l_idx <= l_ref);
    }
}
