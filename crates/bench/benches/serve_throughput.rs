//! modeled — serving-layer throughput: sessions/sec and p99 decision-cycle
//! latency across 1–13 workers × {1, 8, 64} concurrent sessions × all three
//! schedulers (`BENCH_serve_throughput.json`).
//!
//! The host has far fewer cores than the sweep, so (exactly like the
//! match-parallelism figures) the worker axis runs on a deterministic
//! model: per-session decision-cycle service times are derived from *real
//! captured traces* (each trace cycle costed on the NS32032 model at one
//! match process under the scheduler in question), then fed to
//! `psme_serve::des::simulate_serve`. The scheduler's session-queue
//! discipline enters as per-dispatch overhead: a single shared queue
//! serializes every pop (overhead grows with workers), per-worker queues
//! pay a constant lock hop, work-stealing deques pop lock-free and pay only
//! the occasional steal. What the real loop delivers on this host is the
//! repo benchmark's `decisions_per_s` / `sessions_per_s` on
//! `serve_closed_heavy` and `serve_open_short`.
//!
//! Acceptance gate (asserted here): modeled aggregate throughput at
//! 8 workers / 64 sessions under work stealing ≥ [`GATE`]× the 1-worker
//! single-session baseline.

use psme_bench::*;
use psme_obs::{Json, Quantiles};
use psme_serve::{simulate_serve, DesConfig};
use psme_sim::SimScheduler;

const SESSION_COUNTS: [usize; 3] = [1, 8, 64];

/// Required 8-worker/64-session over 1-worker/1-session throughput ratio.
const GATE: f64 = 4.0;

/// Decision cycles per dispatch slice (matches `ServeConfig::default`).
const SLICE: usize = 8;

/// Base per-dispatch overhead: one session-queue pop + session handoff,
/// seconds. Same order as the simulator's queue-access costs.
const DISPATCH_BASE: f64 = 20e-6;

/// Per-dispatch overhead for a scheduler at a worker count.
///
/// Single shared queue: every pop takes the one lock, so expected wait
/// grows with the number of workers contending. Per-worker queues: a
/// constant uncontended lock hop. Work-stealing deques: owner pops are
/// lock-free; only the occasional steal pays.
fn dispatch_overhead(sched: SimScheduler, workers: usize) -> f64 {
    match sched {
        SimScheduler::Single => DISPATCH_BASE * workers as f64,
        SimScheduler::Multi => DISPATCH_BASE,
        SimScheduler::WorkStealing => DISPATCH_BASE * 0.5,
    }
}

fn main() {
    println!("serve_throughput: sessions/sec and p99 cycle latency");
    println!(
        "model: captured per-cycle costs -> serve DES; sweep {:?} workers x {SESSION_COUNTS:?} sessions",
        WORKER_SWEEP
    );

    // One artifact section per scheduler; inside, one sweep per session
    // count. The 8 distinct session workloads (a quarter learning, like
    // the isolation gate) are tiled up to each session count.
    let mut sched_json: Vec<(String, Json)> = Vec::new();
    let mut gate_baseline = 0.0f64;
    let mut gate_ws8 = 0.0f64;
    for (label, sim_sched) in SCHEDULERS {
        let workloads = session_workloads(sim_sched);
        let mut counts_json: Vec<(String, Json)> = Vec::new();
        for n_sessions in SESSION_COUNTS {
            let sessions: Vec<Vec<f64>> =
                (0..n_sessions).map(|i| workloads[i % workloads.len()].clone()).collect();
            let mut rows: Vec<Vec<String>> = Vec::new();
            let mut sweep_points: Vec<Json> = Vec::new();
            for &w in WORKER_SWEEP {
                let r = simulate_serve(
                    &sessions,
                    &DesConfig {
                        workers: w,
                        slice: SLICE,
                        dispatch_overhead: dispatch_overhead(sim_sched, w),
                    },
                );
                let lat = Quantiles::from_samples(&r.cycle_latency);
                if label == "work-stealing" && w == 1 && n_sessions == 1 {
                    gate_baseline = r.sessions_per_sec;
                }
                if label == "work-stealing" && w == 8 && n_sessions == 64 {
                    gate_ws8 = r.sessions_per_sec;
                }
                rows.push(vec![
                    w.to_string(),
                    f2(r.sessions_per_sec),
                    f2(lat.p99 * 1e3),
                    f2(r.makespan),
                ]);
                sweep_points.push(Json::obj([
                    ("workers", Json::from(w as u64)),
                    ("sessions_per_sec", Json::float(r.sessions_per_sec)),
                    ("p50_cycle_ms", Json::float(lat.p50 * 1e3)),
                    ("p99_cycle_ms", Json::float(lat.p99 * 1e3)),
                    ("makespan_s", Json::float(r.makespan)),
                ]));
            }
            print_table(
                &format!("{label} / {n_sessions} sessions"),
                &["workers", "sessions/s", "p99 cycle ms", "makespan s"],
                &rows,
            );
            counts_json.push((n_sessions.to_string(), Json::arr(sweep_points)));
        }
        sched_json.push((label.to_string(), Json::Obj(counts_json)));
    }

    let ratio = gate_ws8 / gate_baseline.max(1e-12);
    println!(
        "\ngate: ws 8w/64s {gate_ws8:.2} sessions/s vs 1w/1s {gate_baseline:.2} sessions/s = \
         {ratio:.2}x (need >= {GATE})"
    );
    assert!(
        ratio >= GATE,
        "8-worker/64-session throughput ({gate_ws8:.3}/s) must be >= {GATE}x the \
         1-worker/1-session baseline ({gate_baseline:.3}/s), got {ratio:.2}x"
    );

    emit_artifact(
        "serve_throughput",
        &Json::obj([
            ("figure", Json::from("serve-throughput")),
            (
                "title",
                Json::from("Multi-session serving: sessions/sec and p99 cycle latency"),
            ),
            ("workers_swept", Json::arr(WORKER_SWEEP.iter().map(|&w| Json::from(w as u64)))),
            (
                "session_counts",
                Json::arr(SESSION_COUNTS.iter().map(|&n| Json::from(n as u64))),
            ),
            ("slice_decisions", Json::from(SLICE as u64)),
            ("model", Json::Obj(sched_json)),
            (
                "gate",
                Json::obj([
                    ("baseline_1w_1s_sessions_per_sec", Json::float(gate_baseline)),
                    ("ws_8w_64s_sessions_per_sec", Json::float(gate_ws8)),
                    ("ratio", Json::float(ratio)),
                    ("required", Json::float(GATE)),
                ]),
            ),
        ]),
    );
}
