//! host — overhead of always-on event tracing in the serving loop.
//!
//! The flight-recorder design brief is "cheap enough to leave on": each
//! event is a branch plus one array write into a thread-local ring, and
//! rings merge only once, at the join barrier. The bound: serving 64
//! sessions on 8 workers with tracing enabled stays within 5% of the same
//! batch with tracing compiled to its disabled branch.
//!
//! Methodology for a noisy small host: the on/off arms run *interleaved*
//! (on, off, on, off, …) so drift hits both equally, and the comparison
//! uses the median sessions/sec of each arm. A run is ≈ 1.6 s and its
//! reading moves by more than the bound between runs on a shared box, so
//! the bound is printed beside the per-trial spread, not asserted inside
//! it; EXPERIMENTS.md keeps dated readings.

use psme_core::Scheduler;
use psme_obs::TraceConfig;
use psme_serve::{build_topology, serve, ServeConfig, ServeReport, SessionSpec};
use psme_tasks::{eight_puzzle, scrambled};

const WORKERS: usize = 8;
const SESSIONS: usize = 64;
const TRIALS: usize = 7;
const BOUND_PCT: f64 = 5.0;

fn batch() -> Vec<SessionSpec> {
    (0..SESSIONS)
        .map(|seed| SessionSpec {
            name: format!("ovh-{seed}"),
            task: eight_puzzle(&scrambled(2, seed as u64)),
            learning: seed % 4 == 0,
        })
        .collect()
}

fn run(trace: TraceConfig) -> ServeReport {
    let specs = batch();
    let topo = build_topology(&specs[0].task);
    serve(
        topo,
        specs,
        ServeConfig {
            workers: WORKERS,
            scheduler: Scheduler::WorkStealing,
            table_capacity: 32,
            admission_depth: SESSIONS,
            trace,
            ..Default::default()
        },
    )
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[v.len() / 2]
}

fn main() {
    println!("trace_overhead: {SESSIONS} sessions / {WORKERS} workers, tracing on vs off");
    println!("{TRIALS} interleaved trials per arm, medians compared (bound {BOUND_PCT}%)");

    // Warm-up: touch both paths once so first-run effects (page faults,
    // lazy allocation) don't land on either measured arm.
    run(TraceConfig::default());
    run(TraceConfig::disabled());

    let mut on = Vec::with_capacity(TRIALS);
    let mut off = Vec::with_capacity(TRIALS);
    let mut traced_stats: Option<(u64, u64, u64)> = None;
    for trial in 0..TRIALS {
        let r_on = run(TraceConfig::default());
        assert_eq!(r_on.shed, 0, "capacity covers the batch");
        if traced_stats.is_none() {
            traced_stats = Some((
                r_on.trace.events.len() as u64,
                r_on.trace.dropped,
                r_on.flight.triggers,
            ));
        }
        on.push(r_on.sessions_per_sec);
        let r_off = run(TraceConfig::disabled());
        assert_eq!(r_off.shed, 0);
        off.push(r_off.sessions_per_sec);
        println!(
            "  trial {trial}: on {:.2} sessions/s, off {:.2} sessions/s",
            on[trial], off[trial]
        );
    }

    let med_on = median(&on);
    let med_off = median(&off);
    // Positive = tracing costs throughput; negative just means noise won.
    let overhead_pct = (med_off - med_on) / med_off * 100.0;
    let per_trial = || on.iter().zip(&off).map(|(on, off)| (off - on) / off * 100.0);
    let (events, dropped, triggers) = traced_stats.expect("at least one traced trial");
    println!(
        "\nmedian on {med_on:.2} vs off {med_off:.2} sessions/s -> overhead {overhead_pct:.2}%; \
         per-trial pairs {:.2}% to {:.2}% (bound: <= {BOUND_PCT}% — {})",
        per_trial().fold(f64::MAX, f64::min),
        per_trial().fold(f64::MIN, f64::max),
        if overhead_pct <= BOUND_PCT { "inside" } else { "OUTSIDE" }
    );
    println!("traced run: {events} events merged, {dropped} dropped, {triggers} flight triggers");
    assert!(events > 0, "tracing on must record events");
}
