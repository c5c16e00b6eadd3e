//! modeled — sharded-serving scaling: aggregate sessions/sec past the
//! single-bus knee (`BENCH_shard_scaling.json`).
//!
//! * **Modeled shard sweep** — per-session decision-cycle service times
//!   come from *real captured traces* (each cycle costed on the NS32032
//!   model at one match process); the sweep runs on
//!   [`psme_serve::simulate_serve_sharded`], whose per-shard dispatch bus
//!   serializes every pop + session handoff. Slices are one cycle long, so
//!   the bus hold is a large fraction of a dispatch and the contention
//!   knee falls inside the sweep: one bus saturates at
//!   `(hold + service) / hold` workers no matter how many are added, and
//!   each extra shard adds a bus. Shard counts {1, 2, 4, 8} ×
//!   workers-per-shard {1, 2, 4, 8} reaches 64 logical workers.
//! * **Cross-shard steal curve** — deliberately length-skewed sessions so
//!   pools drain at different times; the model reports how many dispatches
//!   the idle pools serve by stealing, and what that does to throughput.
//!
//! That a sharded run equals the single-shard loop on the host is
//! `serve_shard`; what the real loop delivers is the repo benchmark's
//! `sessions_per_s`.
//!
//! Acceptance gate (asserted here): 4 shards ≥ [`GATE`]× one shard at 8
//! workers per shard in the DES, and 64 logical workers likewise.

use psme_bench::*;
use psme_obs::Json;
use psme_serve::{simulate_serve_sharded, DesConfig, DesShardConfig};
use psme_sim::SimScheduler;

/// Required multi-shard over one-shard throughput ratio at 8 workers per
/// shard.
const GATE: f64 = 2.0;

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const WPS_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Sessions in the modeled sweep (tiled over 8 distinct workloads).
const MODEL_SESSIONS: usize = 256;

/// The dispatch bus hold as a fraction of the mean one-cycle service time.
/// At one-cycle slices the pop + admission bookkeeping + session handoff
/// (state migration onto the worker) is a sizable fraction of the slice;
/// 0.5 puts the knee at (0.5 + 1)/0.5 = 3 workers per bus, well inside
/// the sweep.
const BUS_HOLD_FRACTION: f64 = 0.5;

fn main() {
    println!("shard_scaling: sessions/sec across shard counts x workers per shard");

    let workloads = session_workloads(SimScheduler::WorkStealing);
    let total_cycles: usize = workloads.iter().map(Vec::len).sum();
    let total_secs: f64 = workloads.iter().flatten().sum();
    let mean_cycle = total_secs / total_cycles as f64;
    let bus_hold = mean_cycle * BUS_HOLD_FRACTION;
    println!(
        "captured workloads: mean cycle {:.1} us, bus hold {:.1} us (knee at {:.1} workers/bus)",
        mean_cycle * 1e6,
        bus_hold * 1e6,
        1.0 + 1.0 / BUS_HOLD_FRACTION
    );
    let sessions: Vec<Vec<f64>> =
        (0..MODEL_SESSIONS).map(|i| workloads[i % workloads.len()].clone()).collect();

    // Part 1: the shard x workers-per-shard grid.
    let mut sweep_points: Vec<Json> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut gate_1x8 = 0.0f64;
    let mut gate_4x8 = 0.0f64;
    let mut gate_8x8 = 0.0f64;
    for shards in SHARD_SWEEP {
        for wps in WPS_SWEEP {
            let r = simulate_serve_sharded(
                &sessions,
                &DesConfig { workers: wps, slice: 1, dispatch_overhead: bus_hold },
                &DesShardConfig { shards, steal: true },
            );
            if shards == 1 && wps == 8 {
                gate_1x8 = r.sessions_per_sec;
            }
            if shards == 4 && wps == 8 {
                gate_4x8 = r.sessions_per_sec;
            }
            if shards == 8 && wps == 8 {
                gate_8x8 = r.sessions_per_sec;
            }
            rows.push(vec![
                shards.to_string(),
                wps.to_string(),
                (shards * wps).to_string(),
                f2(r.sessions_per_sec),
                r.cross_shard_steals.to_string(),
            ]);
            sweep_points.push(Json::obj([
                ("shards", Json::from(shards as u64)),
                ("workers_per_shard", Json::from(wps as u64)),
                ("logical_workers", Json::from((shards * wps) as u64)),
                ("sessions_per_sec", Json::float(r.sessions_per_sec)),
                ("makespan_s", Json::float(r.makespan)),
                ("cross_shard_steals", Json::from(r.cross_shard_steals)),
            ]));
        }
    }
    print_table(
        "modeled shard sweep (256 sessions, 1-cycle slices)",
        &["shards", "w/shard", "logical", "sessions/s", "x-steals"],
        &rows,
    );

    let gate_ratio = gate_4x8 / gate_1x8.max(1e-12);
    println!(
        "\ngate: 4 shards x 8w {gate_4x8:.2}/s vs 1 shard x 8w {gate_1x8:.2}/s = \
         {gate_ratio:.2}x (need >= {GATE}); 8x8 = 64 logical workers: {gate_8x8:.2}/s"
    );
    assert!(
        gate_ratio >= GATE,
        "4-shard throughput ({gate_4x8:.3}/s) must be >= {GATE}x one shard ({gate_1x8:.3}/s) \
         at 8 workers per shard, got {gate_ratio:.2}x"
    );
    assert!(
        gate_8x8 > gate_1x8 * GATE,
        "64 logical workers across 8 buses must scale past the single-bus knee"
    );

    // Part 2: cross-shard steal rate on a deliberately skewed batch —
    // session i is tiled (i % 4 + 1)x longer, so pools drain unevenly.
    let skewed: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            let base = &workloads[i % workloads.len()];
            let mut v = Vec::with_capacity(base.len() * (i % 4 + 1));
            for _ in 0..(i % 4 + 1) {
                v.extend_from_slice(base);
            }
            v
        })
        .collect();
    let mut steal_points: Vec<Json> = Vec::new();
    let mut steal_rows: Vec<Vec<String>> = Vec::new();
    for shards in [2usize, 4, 8] {
        let cfg = DesConfig { workers: 2, slice: 1, dispatch_overhead: bus_hold };
        let on = simulate_serve_sharded(&skewed, &cfg, &DesShardConfig { shards, steal: true });
        let off = simulate_serve_sharded(&skewed, &cfg, &DesShardConfig { shards, steal: false });
        let dispatches: usize = skewed.iter().map(|s| s.len()).sum();
        let rate = on.cross_shard_steals as f64 / dispatches as f64;
        steal_rows.push(vec![
            shards.to_string(),
            on.cross_shard_steals.to_string(),
            format!("{:.4}", rate),
            f2(on.sessions_per_sec),
            f2(off.sessions_per_sec),
        ]);
        steal_points.push(Json::obj([
            ("shards", Json::from(shards as u64)),
            ("cross_shard_steals", Json::from(on.cross_shard_steals)),
            ("steal_rate", Json::float(rate)),
            ("sessions_per_sec_steal_on", Json::float(on.sessions_per_sec)),
            ("sessions_per_sec_steal_off", Json::float(off.sessions_per_sec)),
        ]));
        assert!(
            on.sessions_per_sec >= off.sessions_per_sec * 0.999,
            "stealing must not hurt a skewed batch ({shards} shards)"
        );
    }
    print_table(
        "cross-shard steal curve (64 skewed sessions, 2 workers/shard)",
        &["shards", "steals", "steal rate", "sessions/s on", "sessions/s off"],
        &steal_rows,
    );

    emit_artifact(
        "shard_scaling",
        &Json::obj([
            ("figure", Json::from("shard-scaling")),
            (
                "title",
                Json::from("Sharded serving: aggregate sessions/sec past the single-bus knee"),
            ),
            ("shards_swept", Json::arr(SHARD_SWEEP.iter().map(|&s| Json::from(s as u64)))),
            ("workers_per_shard_swept", Json::arr(WPS_SWEEP.iter().map(|&w| Json::from(w as u64)))),
            (
                "model",
                Json::obj([
                    ("sessions", Json::from(MODEL_SESSIONS as u64)),
                    ("mean_cycle_s", Json::float(mean_cycle)),
                    ("bus_hold_s", Json::float(bus_hold)),
                    ("bus_hold_fraction", Json::float(BUS_HOLD_FRACTION)),
                    ("sweep", Json::arr(sweep_points)),
                    (
                        "gate",
                        Json::obj([
                            ("one_shard_8w_sessions_per_sec", Json::float(gate_1x8)),
                            ("four_shard_8w_sessions_per_sec", Json::float(gate_4x8)),
                            ("eight_shard_8w_sessions_per_sec", Json::float(gate_8x8)),
                            ("ratio", Json::float(gate_ratio)),
                            ("required", Json::float(GATE)),
                        ]),
                    ),
                ]),
            ),
            ("steal_curve", Json::arr(steal_points)),
        ]),
    );
}
