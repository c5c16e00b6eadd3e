//! modeled — offered-load sweep under **open-loop** arrivals: throughput,
//! tail latency, and shed rate as the arrival rate crosses saturation
//! (`BENCH_open_loop.json`).
//!
//! Closed-loop serving benchmarks (`serve_throughput`, `shard_scaling`)
//! self-throttle: every in-flight session is one the server already
//! admitted, so overload never happens and the shed path never fires.
//! This harness fixes the *arrival process* instead — Poisson session
//! opens at a configured rate, fired whether or not the server keeps up —
//! and sweeps that rate through the saturation knee.
//!
//! Per-session decision-cycle service times come from real captured
//! eight-puzzle traces (costed on the NS32032 model, as in
//! `shard_scaling`), run through [`psme_serve::simulate_serve_open`]:
//! deterministic Poisson arrivals plus deterministic jitter into the
//! sharded admission model. The serving capacity is **calibrated** from
//! the workload (`workers_total / mean_session_seconds`) and the sweep
//! offers multiples of it. Expected open-loop shape, asserted here: no
//! shedding well below the knee, shed rate monotone non-decreasing past it
//! (and strictly positive at 3x), throughput plateauing at capacity, p99
//! sojourn at the knee within a calibrated bound.
//!
//! The real server under an open loop over TCP is the repo benchmark's
//! `serve_open_short` (sojourn timed from when an open was *due*, one
//! connection per app); that every offered session resolves exactly once
//! under a burst is `net_loopback`.

use psme_bench::*;
use psme_net::poisson_arrivals;
use psme_obs::{Json, Quantiles};
use psme_serve::{simulate_serve_open, DesConfig, DesOpenConfig};
use psme_sim::SimScheduler;

/// Sessions offered per DES sweep point (tiled over 8 workloads).
const DES_SESSIONS: usize = 160;

/// Offered load as multiples of the calibrated capacity; 1.0 is the knee.
const MULTIPLES: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];

/// Dispatch overhead as a fraction of the mean cycle (below the bus-knee
/// regime: admission, not the bus, is what saturates here).
const OVERHEAD_FRACTION: f64 = 0.25;

/// p99 sojourn bound at the knee, in units of the mean *session* service
/// time. The admission queue is bounded (table + depth per shard), so
/// even at saturation a completed session waits at most the backlog ahead
/// of it: (table_capacity + admission_depth) sessions across
/// `shards * workers` servers, ~8 service times here. 12x leaves margin
/// for the burst the Poisson schedule actually dealt.
const KNEE_P99_BOUND_MULT: f64 = 12.0;

/// DES admission geometry (global bounds, ceil-split across shards).
const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 2;
const TABLE_CAPACITY: usize = 16;
const ADMISSION_DEPTH: usize = 16;

fn main() {
    println!("open_loop: offered-load sweeps across the saturation knee");

    let workloads = session_workloads(SimScheduler::WorkStealing);
    let mean_cycle =
        workloads.iter().flatten().sum::<f64>() / workloads.iter().map(Vec::len).sum::<usize>() as f64;
    let overhead = mean_cycle * OVERHEAD_FRACTION;
    let sessions: Vec<Vec<f64>> =
        (0..DES_SESSIONS).map(|i| workloads[i % workloads.len()].clone()).collect();
    // Calibrated capacity: total service (cycles + dispatch overhead)
    // spread over every worker in the fleet.
    let mean_session: f64 = sessions
        .iter()
        .map(|s| s.iter().sum::<f64>() + s.len() as f64 * overhead)
        .sum::<f64>()
        / DES_SESSIONS as f64;
    let capacity = (SHARDS * WORKERS_PER_SHARD) as f64 / mean_session;
    println!(
        "calibration: mean session {:.2} ms -> capacity {:.1} sessions/s \
         ({SHARDS} shards x {WORKERS_PER_SHARD} workers)",
        mean_session * 1e3,
        capacity
    );

    let cfg = DesConfig { workers: WORKERS_PER_SHARD, slice: 1, dispatch_overhead: overhead };
    let mut sweep_points: Vec<Json> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut shed_curve: Vec<(f64, f64)> = Vec::new();
    let mut knee_p99 = 0.0f64;
    let mut plateau = (0.0f64, 0.0f64); // sessions/sec at 1.5x and 3x
    for &m in &MULTIPLES {
        let rate = capacity * m;
        let arrivals = poisson_arrivals(rate, DES_SESSIONS, 0xA11CE ^ m.to_bits());
        let r = simulate_serve_open(
            &sessions,
            &arrivals,
            &cfg,
            &DesOpenConfig {
                shards: SHARDS,
                steal: true,
                table_capacity: TABLE_CAPACITY,
                admission_depth: ADMISSION_DEPTH,
                jitter: mean_cycle,
                seed: 0xBEEF,
            },
        );
        let q = Quantiles::from_samples(&r.sojourn);
        let shed_rate = r.shed as f64 / DES_SESSIONS as f64;
        if m == 1.0 {
            knee_p99 = q.p99;
        }
        if m == 1.5 {
            plateau.0 = r.sessions_per_sec;
        }
        if m == 3.0 {
            plateau.1 = r.sessions_per_sec;
        }
        shed_curve.push((m, shed_rate));
        rows.push(vec![
            format!("{m:.2}x"),
            f2(rate),
            f2(r.sessions_per_sec),
            r.completed.to_string(),
            r.shed.to_string(),
            format!("{:.1}%", shed_rate * 100.0),
            format!("{:.2}", q.p50 * 1e3),
            format!("{:.2}", q.p99 * 1e3),
            format!("{:.2}", q.p999 * 1e3),
        ]);
        sweep_points.push(Json::obj([
            ("offered_multiple", Json::float(m)),
            ("offered_rate", Json::float(rate)),
            ("sessions_per_sec", Json::float(r.sessions_per_sec)),
            ("completed", Json::from(r.completed as u64)),
            ("shed", Json::from(r.shed as u64)),
            ("shed_rate", Json::float(shed_rate)),
            ("sojourn_p50_s", Json::float(q.p50)),
            ("sojourn_p99_s", Json::float(q.p99)),
            ("sojourn_p999_s", Json::float(q.p999)),
            ("cross_shard_steals", Json::from(r.cross_shard_steals)),
        ]));
    }
    print_table(
        "DES offered-load sweep (160 sessions, 2 shards x 2 workers)",
        &["offered", "rate/s", "done/s", "done", "shed", "shed%", "p50 ms", "p99 ms", "p999 ms"],
        &rows,
    );

    assert_eq!(shed_curve[0].1, 0.0, "no shedding at 0.25x capacity");
    for w in shed_curve.windows(2) {
        if w[0].0 >= 1.0 {
            assert!(
                w[1].1 >= w[0].1,
                "shed rate must be monotone past the knee: {:.3} at {:.2}x -> {:.3} at {:.2}x",
                w[0].1,
                w[0].0,
                w[1].1,
                w[1].0
            );
        }
    }
    let last = shed_curve.last().unwrap();
    assert!(last.1 > 0.0, "open-loop overload at 3x capacity must shed");
    assert!(
        plateau.1 <= plateau.0 * 1.25,
        "throughput must plateau past saturation: {:.2}/s at 1.5x vs {:.2}/s at 3x",
        plateau.0,
        plateau.1
    );
    let knee_bound = mean_session * KNEE_P99_BOUND_MULT;
    println!(
        "\ngate: knee p99 sojourn {:.2} ms (bound {:.2} ms = {KNEE_P99_BOUND_MULT}x mean session); \
         shed {:.1}% at 3x",
        knee_p99 * 1e3,
        knee_bound * 1e3,
        last.1 * 100.0
    );
    assert!(
        knee_p99 <= knee_bound,
        "p99 sojourn at the calibrated knee ({:.4}s) must stay under {KNEE_P99_BOUND_MULT}x \
         the mean session time ({:.4}s)",
        knee_p99,
        knee_bound
    );

    emit_artifact(
        "open_loop",
        &Json::obj([
            ("figure", Json::from("open-loop")),
            (
                "title",
                Json::from("Open-loop offered-load sweep: throughput, tail latency, shed rate"),
            ),
            (
                "des",
                Json::obj([
                    ("sessions", Json::from(DES_SESSIONS as u64)),
                    ("shards", Json::from(SHARDS as u64)),
                    ("workers_per_shard", Json::from(WORKERS_PER_SHARD as u64)),
                    ("table_capacity", Json::from(TABLE_CAPACITY as u64)),
                    ("admission_depth", Json::from(ADMISSION_DEPTH as u64)),
                    ("mean_session_s", Json::float(mean_session)),
                    ("capacity_sessions_per_sec", Json::float(capacity)),
                    ("knee_multiple", Json::float(1.0)),
                    ("sweep", Json::arr(sweep_points)),
                    (
                        "gate",
                        Json::obj([
                            ("knee_p99_s", Json::float(knee_p99)),
                            ("knee_p99_bound_s", Json::float(knee_bound)),
                            ("shed_rate_at_max", Json::float(last.1)),
                            ("monotone_from_multiple", Json::float(1.0)),
                        ]),
                    ),
                ]),
            ),
        ]),
    );
}
