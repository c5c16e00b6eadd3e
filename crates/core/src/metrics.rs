//! Match-phase instrumentation (the measurements behind §6).

use crate::queue::QueueStats;
use psme_obs::{CounterSet, Json};
use psme_rete::Phase;

/// Everything measured about one cycle (match or update phase).
#[derive(Clone, Debug, Default)]
pub struct CycleMetrics {
    /// Cycle ordinal.
    pub cycle: u64,
    /// Phase this cycle belonged to.
    pub phase: Option<Phase>,
    /// Tasks executed (node activations, including alpha tasks).
    pub tasks: u64,
    /// Wall-clock duration of the cycle on this host.
    pub wall_ns: u64,
    /// Aggregated queue counters across workers.
    pub queue: QueueStats,
    /// Spins on memory-line locks.
    pub mem_spins: u64,
    /// Per-line left-token access counts (only when histogram collection is
    /// on — Figure 6-2).
    pub left_bucket_accesses: Vec<u64>,
    /// Per-line right-token access counts.
    pub right_bucket_accesses: Vec<u64>,
    /// Merged worker counter sets (task mix, null activations, …).
    pub counters: CounterSet,
}

impl CycleMetrics {
    /// Queue-lock spins per task — the paper's Figure 6-3 metric.
    pub fn spins_per_task(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            (self.queue.pop_spins + self.queue.push_spins) as f64 / self.tasks as f64
        }
    }

    /// Memory-line lock spins per task — the §6.1 memory-contention
    /// companion to [`Self::spins_per_task`] (which covers the queue
    /// locks). High values mean workers are colliding on token memory
    /// lines rather than on the scheduler.
    pub fn contention_per_task(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.mem_spins as f64 / self.tasks as f64
        }
    }

    /// Fold one worker's per-cycle stats in at the barrier. All counters
    /// saturate: a worker that clamped at `u64::MAX` (or a sum that would
    /// overflow) must report `u64::MAX`, never a small wrapped value that
    /// would read as "almost no work done".
    pub fn absorb_worker(&mut self, ws: &WorkerStats) {
        self.queue.merge(&ws.queue);
        self.tasks = self.tasks.saturating_add(ws.tasks);
        self.mem_spins = self.mem_spins.saturating_add(ws.mem_spins);
        self.counters.merge(&ws.counters);
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cycle".to_string(), Json::from(self.cycle)),
            (
                "phase".to_string(),
                match self.phase {
                    Some(Phase::Match) => Json::from("match"),
                    Some(Phase::Update) => Json::from("update"),
                    None => Json::Null,
                },
            ),
            ("tasks".to_string(), Json::from(self.tasks)),
            ("wall_ns".to_string(), Json::from(self.wall_ns)),
            ("pushes".to_string(), Json::from(self.queue.pushes)),
            ("pops".to_string(), Json::from(self.queue.pops)),
            ("failed_pops".to_string(), Json::from(self.queue.failed_pops)),
            ("push_spins".to_string(), Json::from(self.queue.push_spins)),
            ("pop_spins".to_string(), Json::from(self.queue.pop_spins)),
            ("steals".to_string(), Json::from(self.queue.steals)),
            ("steal_fails".to_string(), Json::from(self.queue.steal_fails)),
            ("batches".to_string(), Json::from(self.queue.batches)),
            ("mem_spins".to_string(), Json::from(self.mem_spins)),
            ("spins_per_task".to_string(), Json::float(self.spins_per_task())),
            ("contention_per_task".to_string(), Json::float(self.contention_per_task())),
        ];
        if !self.counters.is_empty() {
            fields.push(("counters".to_string(), self.counters.to_json()));
        }
        Json::Obj(fields)
    }
}

/// Per-worker accumulation for the cycle in flight.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Queue counters.
    pub queue: QueueStats,
    /// Tasks this worker executed.
    pub tasks: u64,
    /// Memory-line lock spins.
    pub mem_spins: u64,
    /// Observability counters (task mix, null activations, …), kept on the
    /// worker's stack and merged at the cycle barrier — no hot-path locks.
    pub counters: CounterSet,
}

impl WorkerStats {
    /// Fold another process's stats in (saturating, as
    /// [`CycleMetrics::absorb_worker`]).
    pub fn merge(&mut self, o: &WorkerStats) {
        self.queue.merge(&o.queue);
        self.tasks = self.tasks.saturating_add(o.tasks);
        self.mem_spins = self.mem_spins.saturating_add(o.mem_spins);
        self.counters.merge(&o.counters);
    }
}

/// A run's metrics log.
#[derive(Clone, Debug, Default)]
pub struct MetricsLog {
    /// One entry per cycle, in order.
    pub cycles: Vec<CycleMetrics>,
}

impl MetricsLog {
    /// Total tasks over the run.
    pub fn total_tasks(&self) -> u64 {
        self.cycles.iter().map(|c| c.tasks).sum()
    }

    /// Total wall time over the run.
    pub fn total_wall_ns(&self) -> u64 {
        self.cycles.iter().map(|c| c.wall_ns).sum()
    }

    /// Histogram of tasks/cycle with the given bucket width (Figures 6-11
    /// and 6-12): returns `(bucket_start, percent_of_cycles)` pairs.
    pub fn tasks_per_cycle_histogram(&self, bucket: u64) -> Vec<(u64, f64)> {
        assert!(bucket > 0);
        if self.cycles.is_empty() {
            return vec![];
        }
        let max = self.cycles.iter().map(|c| c.tasks).max().unwrap_or(0);
        let nb = (max / bucket + 1) as usize;
        let mut counts = vec![0u64; nb];
        for c in &self.cycles {
            counts[(c.tasks / bucket) as usize] += 1;
        }
        let total = self.cycles.len() as f64;
        counts
            .into_iter()
            .enumerate()
            .map(|(i, n)| (i as u64 * bucket, 100.0 * n as f64 / total))
            .collect()
    }

    /// Distribution of left-token accesses per bucket per cycle
    /// (Figure 6-2): for each access count ≥ 1, the percentage of
    /// (bucket, cycle) observations with that count.
    pub fn left_access_distribution(&self) -> Vec<(u64, f64)> {
        self.access_distribution(|c| &c.left_bucket_accesses)
    }

    /// The right-memory companion of [`Self::left_access_distribution`].
    /// The paper's Figure 6-2 plots both: right memories (wme-keyed) hash
    /// more uniformly than left memories (token-keyed), so this
    /// distribution should sit closer to 1 access/bucket.
    pub fn right_access_distribution(&self) -> Vec<(u64, f64)> {
        self.access_distribution(|c| &c.right_bucket_accesses)
    }

    fn access_distribution(&self, side: impl Fn(&CycleMetrics) -> &Vec<u64>) -> Vec<(u64, f64)> {
        let mut counts: std::collections::BTreeMap<u64, u64> = Default::default();
        let mut total = 0u64;
        for c in &self.cycles {
            for &a in side(c) {
                if a > 0 {
                    *counts.entry(a).or_insert(0) += 1;
                    total += 1;
                }
            }
        }
        counts
            .into_iter()
            .map(|(k, v)| (k, 100.0 * v as f64 / total.max(1) as f64))
            .collect()
    }

    /// Merged counters over the whole run.
    pub fn total_counters(&self) -> CounterSet {
        let mut all = CounterSet::new();
        for c in &self.cycles {
            all.merge(&c.counters);
        }
        all
    }

    /// The whole log as a JSON object: run totals plus the per-cycle array.
    pub fn to_json(&self) -> Json {
        let totals = self.total_counters();
        let mut fields = vec![
            ("cycles".to_string(), Json::from(self.cycles.len() as u64)),
            ("total_tasks".to_string(), Json::from(self.total_tasks())),
            ("total_wall_ns".to_string(), Json::from(self.total_wall_ns())),
        ];
        if !totals.is_empty() {
            fields.push(("counters".to_string(), totals.to_json()));
        }
        fields.push((
            "per_cycle".to_string(),
            Json::arr(self.cycles.iter().map(CycleMetrics::to_json)),
        ));
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spins_per_task() {
        let mut m = CycleMetrics { tasks: 10, ..Default::default() };
        m.queue.pop_spins = 25;
        m.queue.push_spins = 5;
        assert!((m.spins_per_task() - 3.0).abs() < 1e-9);
        let empty = CycleMetrics::default();
        assert_eq!(empty.spins_per_task(), 0.0);
    }

    #[test]
    fn histogram_buckets() {
        let mut log = MetricsLog::default();
        for t in [10u64, 20, 40, 260, 270, 1100] {
            log.cycles.push(CycleMetrics { tasks: t, ..Default::default() });
        }
        let h = log.tasks_per_cycle_histogram(25);
        // bucket 0 holds 10 and 20 → 2/6 of cycles.
        assert!((h[0].1 - 33.333).abs() < 0.01);
        assert_eq!(h[0].0, 0);
        // last bucket holds 1100.
        assert!(h.last().unwrap().1 > 0.0);
        assert_eq!(log.total_tasks(), 1700);
    }

    #[test]
    fn access_distribution_ignores_untouched_buckets() {
        let mut log = MetricsLog::default();
        log.cycles.push(CycleMetrics {
            left_bucket_accesses: vec![0, 1, 1, 4],
            right_bucket_accesses: vec![1, 1, 1, 0],
            ..Default::default()
        });
        let d = log.left_access_distribution();
        assert_eq!(d, vec![(1, 100.0 * 2.0 / 3.0), (4, 100.0 / 3.0)]);
        // The right-side companion uses the same accounting over the other
        // access vector.
        assert_eq!(log.right_access_distribution(), vec![(1, 100.0)]);
    }

    #[test]
    fn contention_per_task_tracks_mem_spins() {
        let m = CycleMetrics { tasks: 8, mem_spins: 4, ..Default::default() };
        assert!((m.contention_per_task() - 0.5).abs() < 1e-12);
        assert_eq!(CycleMetrics::default().contention_per_task(), 0.0);
    }

    #[test]
    fn merge_saturates_on_overflow() {
        // Regression: the barrier merge used plain `+=`, which wraps in
        // release builds — a worker reporting huge counters would fold into
        // a tiny total. Every merge path must saturate at u64::MAX.
        let mut cm = CycleMetrics { tasks: u64::MAX - 5, ..Default::default() };
        cm.queue.pop_spins = u64::MAX;
        cm.mem_spins = 10;
        let mut ws = WorkerStats { tasks: 100, mem_spins: u64::MAX, ..Default::default() };
        ws.queue.pop_spins = 3;
        ws.queue.pushes = 42;
        ws.counters.add(psme_obs::Counter::AlphaTasks, u64::MAX);
        ws.counters.add(psme_obs::Counter::NullActivations, 7);
        cm.absorb_worker(&ws);
        assert_eq!(cm.tasks, u64::MAX, "tasks saturate");
        assert_eq!(cm.queue.pop_spins, u64::MAX, "queue counters saturate");
        assert_eq!(cm.mem_spins, u64::MAX, "mem spins saturate");
        assert_eq!(cm.queue.pushes, 42, "non-overflowing fields stay exact");
        assert_eq!(cm.counters.get(psme_obs::Counter::AlphaTasks), u64::MAX);
        // A second merge on an already-saturated set stays put.
        let mut again = WorkerStats::default();
        again.counters.add(psme_obs::Counter::AlphaTasks, 1);
        again.tasks = 1;
        cm.absorb_worker(&again);
        assert_eq!(cm.tasks, u64::MAX);
        assert_eq!(cm.counters.get(psme_obs::Counter::AlphaTasks), u64::MAX);
        assert_eq!(cm.counters.get(psme_obs::Counter::NullActivations), 7);
    }

    #[test]
    fn metrics_log_serializes_to_json() {
        use psme_obs::Counter;
        let mut log = MetricsLog::default();
        let mut c = CycleMetrics { cycle: 0, tasks: 12, wall_ns: 3400, mem_spins: 6, ..Default::default() };
        c.phase = Some(Phase::Match);
        c.queue.pushes = 12;
        c.counters.add(Counter::AlphaTasks, 12);
        c.counters.add(Counter::NullActivations, 5);
        log.cycles.push(c);
        let j = log.to_json();
        assert_eq!(j.get("total_tasks").and_then(|v| v.as_u64()), Some(12));
        let cyc = j.get("per_cycle").unwrap().at(0).unwrap();
        assert_eq!(cyc.get("phase").and_then(|v| v.as_str()), Some("match"));
        assert_eq!(
            cyc.get("counters").and_then(|c| c.get("null_activations")).and_then(|v| v.as_u64()),
            Some(5)
        );
        assert!((cyc.get("contention_per_task").unwrap().as_f64().unwrap() - 0.5).abs() < 1e-12);
        // And the document round-trips through the writer/parser.
        let back = psme_obs::Json::parse(&j.pretty()).unwrap();
        assert_eq!(back.get("total_wall_ns").and_then(|v| v.as_u64()), Some(3400));
    }
}
