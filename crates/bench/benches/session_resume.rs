//! modeled — tiered-store resume latency against populations past what the
//! host serves in bench time (`BENCH_session_resume.json`).
//!
//! The tiered store exists so a host can be responsible for far more
//! sessions than it can keep resident. This is the serving DES's view of
//! it: synthetic populations 25× to 1600× the live table through
//! [`psme_serve::simulate_serve_tiered`] in virtual time, so the scaling
//! rows are a function of the source. The real store under a 100×
//! oversubscribed population — served, checked against solo runs, its
//! resume latency read off the clock — is the host target
//! `session_resume_host`.

use psme_bench::*;
use psme_obs::{Json, Quantiles};
use psme_serve::{simulate_serve_tiered, DesConfig, DesTierConfig};

const TABLE: usize = 4;
const WORKERS: usize = 4;

fn main() {
    println!("session_resume: DES populations through a {TABLE}-seat hot table, {WORKERS} workers");
    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    for pop in [100usize, 400, 1600, 6400] {
        let sessions: Vec<Vec<f64>> = (0..pop)
            .map(|i| {
                let cycles = 40 + (i % 17);
                (0..cycles).map(|c| 2.0e-6 + (c % 5) as f64 * 2.0e-7).collect()
            })
            .collect();
        let r = simulate_serve_tiered(
            &sessions,
            &DesConfig { workers: WORKERS, slice: 4, dispatch_overhead: 5.0e-7 },
            &DesTierConfig { hot_capacity: TABLE, resume_base: 1.0e-5, resume_per_cycle: 5.0e-8 },
        );
        let q = Quantiles::from_samples(&r.resume_latency);
        rows.push(vec![
            pop.to_string(),
            r.hibernations.to_string(),
            r.resumes.to_string(),
            f2(q.p50 * 1e6),
            f2(q.p99 * 1e6),
        ]);
        sweep.push(Json::obj([
            ("population", Json::from(pop as u64)),
            ("ratio", Json::float(pop as f64 / TABLE as f64)),
            ("makespan_s", Json::float(r.makespan)),
            ("sessions_per_sec", Json::float(r.sessions_per_sec)),
            ("hibernations", Json::from(r.hibernations)),
            ("resumes", Json::from(r.resumes)),
            ("resume_p50_s", Json::float(q.p50)),
            ("resume_p99_s", Json::float(q.p99)),
        ]));
    }
    print_table(
        "modeled resume latency vs population",
        &["population", "hibernations", "resumes", "resume p50 us", "resume p99 us"],
        &rows,
    );
    emit_artifact(
        "session_resume",
        &Json::obj([
            ("figure", Json::from("session-resume")),
            ("title", Json::from("Tiered store resume latency vs population (serving DES)")),
            ("table_capacity", Json::from(TABLE as u64)),
            ("workers", Json::from(WORKERS as u64)),
            ("des_sweep", Json::arr(sweep)),
        ]),
    );
}
