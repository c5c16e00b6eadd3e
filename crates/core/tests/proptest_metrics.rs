//! Property tests for the metrics log, its JSON export and the booked sums
//! it merges.

use proptest::prelude::*;
use psme_core::{CycleMetrics, MetricsLog, WorkerStats};
use psme_obs::{Counter, Json};
use psme_rete::{TaskKind, Work};

fn log_of(task_counts: &[u64]) -> MetricsLog {
    let mut log = MetricsLog::default();
    for (i, &t) in task_counts.iter().enumerate() {
        log.cycles.push(CycleMetrics { cycle: i as u64, tasks: t, ..Default::default() });
    }
    log
}

#[test]
fn empty_log_exports_cleanly() {
    let log = MetricsLog::default();
    assert!(log.tasks_per_cycle_histogram(100).is_empty());
    assert!(log.left_access_distribution().is_empty());
    assert!(log.right_access_distribution().is_empty());
    let j = log.to_json();
    assert_eq!(j.get("total_tasks").and_then(|v| v.as_u64()), Some(0));
    // Round-trips through the strict parser even with nothing in it.
    let back = Json::parse(&j.pretty()).unwrap();
    assert_eq!(back.get("per_cycle").and_then(|a| a.as_arr()).map(|a| a.len()), Some(0));
}

#[test]
fn json_strings_with_quotes_and_backslashes_survive() {
    // Production names can contain arbitrary characters (chunks are
    // gensym'd; OPS5 symbols allow almost anything) — the writer must
    // escape and the parser must restore them exactly.
    for name in [r#"p*"quoted""#, r"back\slash", "tab\there", "newline\nend", "unit\u{1f}sep"] {
        let doc = Json::obj([("name", Json::from(name))]);
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back.get("name").and_then(|v| v.as_str()), Some(name));
        let back_pretty = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(back_pretty.get("name").and_then(|v| v.as_str()), Some(name));
    }
}

#[test]
fn float_metrics_never_emit_nan() {
    // Ratios are 0/0-prone; the exporter must map non-finite to null, so
    // the artifact stays machine-parseable.
    let text = Json::obj([
        ("a", Json::float(1.5)),
        ("b", Json::float(f64::NAN)),
        ("c", Json::float(f64::INFINITY)),
    ])
    .to_string();
    assert!(!text.to_lowercase().contains("nan") && !text.contains("inf"), "{text}");
    assert_eq!(text.matches("null").count(), 2, "{text}");
    assert!(Json::parse(&text).is_ok());
}

/// One executed task: its kind and a work value over the full `u32` range.
fn task() -> impl Strategy<Value = (TaskKind, Work)> {
    let kinds = [TaskKind::Alpha, TaskKind::Join, TaskKind::Neg, TaskKind::Prod];
    let kind = (0usize..4).prop_map(move |k| kinds[k]);
    let n = || any::<u32>();
    let counts = (n(), n(), n(), n(), n(), n(), 0u32..3);
    (kind, counts, any::<bool>()).prop_map(|(kind, c, line)| {
        let (scanned, hash_rejects, skipped, probes, candidates, tests_saved, emitted) = c;
        let line = line.then_some(0);
        let work = Work { scanned, hash_rejects, skipped, probes, candidates, tests_saved, emitted, line };
        (kind, work)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// The counters are sums, so where a task was booked cannot matter:
    /// tasks booked on several match processes and merged at the barrier
    /// read exactly as the same tasks booked on one, each sum is taken in
    /// `u64` (no `u32` field clamps it), and a process already at the top
    /// holds every merged sum there.
    #[test]
    fn booked_sums_merge_saturating(
        tasks in prop::collection::vec(task(), 1..64),
        workers in 1usize..5,
    ) {
        let mut one = WorkerStats::default();
        let mut each = vec![WorkerStats::default(); workers];
        for (i, (kind, work)) in tasks.iter().enumerate() {
            one.counters.book(*kind, work);
            each[i % workers].counters.book(*kind, work);
        }
        let mut merged = CycleMetrics::default();
        for ws in &each {
            merged.absorb_worker(ws);
        }
        prop_assert_eq!(merged.counters, one.counters);
        let scanned: u64 = tasks.iter().map(|(_, w)| u64::from(w.scanned)).sum();
        prop_assert_eq!(merged.counters.get(Counter::Scanned), scanned);
        let mut top = WorkerStats::default();
        for c in Counter::ALL {
            top.counters.add(c, u64::MAX);
        }
        merged.absorb_worker(&top);
        for c in Counter::ALL {
            prop_assert_eq!(merged.counters.get(c), u64::MAX, "{} saturates", c.name());
        }
    }

    /// Figures 6-11/6-12 histograms are percentages of cycles: for any
    /// non-empty log the bucket percentages must account for every cycle,
    /// i.e. sum to ~100.
    #[test]
    fn histogram_percentages_sum_to_100(
        tasks in prop::collection::vec(0u64..5_000, 1..200),
        bucket in 1u64..600,
    ) {
        let log = log_of(&tasks);
        let hist = log.tasks_per_cycle_histogram(bucket);
        let total: f64 = hist.iter().map(|&(_, pct)| pct).sum();
        prop_assert!((total - 100.0).abs() < 1e-6, "bucket percentages sum to {total}");
        // Bucket starts are aligned and strictly increasing.
        for w in hist.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        for &(start, _) in &hist {
            prop_assert_eq!(start % bucket, 0);
        }
    }

    /// The access distributions are percentages of touched buckets — same
    /// invariant, either side.
    #[test]
    fn access_distributions_sum_to_100(
        accesses in prop::collection::vec(0u64..12, 1..64),
    ) {
        let mut log = MetricsLog::default();
        log.cycles.push(CycleMetrics {
            left_bucket_accesses: accesses.clone(),
            right_bucket_accesses: accesses.clone(),
            ..Default::default()
        });
        for dist in [log.left_access_distribution(), log.right_access_distribution()] {
            let total: f64 = dist.iter().map(|&(_, pct)| pct).sum();
            if accesses.iter().any(|&a| a > 0) {
                prop_assert!((total - 100.0).abs() < 1e-6);
            } else {
                prop_assert!(dist.is_empty());
            }
        }
    }
}
