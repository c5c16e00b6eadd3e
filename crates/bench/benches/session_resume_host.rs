//! host — resume latency of the tiered session store under a 100×
//! oversubscribed population.
//!
//! A session population **100× the live table** is served to completion
//! through constant hibernate/resume traffic, a sample of the survivors is
//! checked bit-for-bit against solo runs (the differential that makes the
//! latency meaningful — asserted, no clock decides it), and the measured
//! resume latency (frame verify + journal replay + shell restore) is
//! printed beside its bound. EXPERIMENTS.md keeps dated readings; the
//! modeled population sweep is `session_resume`.

use psme_core::Scheduler;
use psme_serve::{build_topology, serve, ServeConfig, ServeReport, SessionSpec, TierConfig};
use psme_tasks::{eight_puzzle, run_serial, scrambled, RunMode};

const TABLE: usize = 4;
const POPULATION: usize = 100 * TABLE;
const WORKERS: usize = 4;
/// Resume p99 bound, ms. A resume replays the session's journal (cost
/// grows with executed history — p99 9–18 ms for these runs) and
/// decodes its shell; the bound leaves ~3× headroom for a noisy host while
/// still catching an accidental O(n²) in the replay.
const BOUND_P99_MS: f64 = 50.0;

fn batch() -> Vec<SessionSpec> {
    (0..POPULATION)
        .map(|seed| SessionSpec {
            name: format!("pop-{seed}"),
            task: eight_puzzle(&scrambled(2, seed as u64)),
            learning: seed % 8 == 0,
        })
        .collect()
}

fn run_tiered() -> ServeReport {
    let specs = batch();
    let topo = build_topology(&specs[0].task);
    serve(
        topo,
        specs,
        ServeConfig {
            workers: WORKERS,
            scheduler: Scheduler::SingleQueue, // FIFO rotation = maximal swapping
            table_capacity: TABLE,
            admission_depth: POPULATION,
            slice_decisions: 4,
            tier: Some(TierConfig::default()),
            ..Default::default()
        },
    )
}

/// Bit-for-bit differential on a deterministic sample of the population:
/// every 33rd session is re-run solo and compared field by field. Returns
/// the sessions checked, or the first one that differs.
fn differential(report: &ServeReport) -> Result<usize, String> {
    let specs = batch();
    let mut checked = 0;
    for i in (0..POPULATION).step_by(33) {
        let sp = &specs[i];
        let mode = if sp.learning { RunMode::DuringChunking } else { RunMode::WithoutChunking };
        let solo = run_serial(&sp.task, mode, false).0;
        let sr = &report.sessions[i];
        let chunks: Vec<String> =
            solo.chunks.iter().map(|c| psme_ops::sym_name(c.name).to_string()).collect();
        let ok = sr.stop == Some(solo.stop)
            && sr.stats.decisions == solo.stats.decisions
            && sr.stats.firings == solo.stats.firings
            && sr.stats.chunks_built == solo.stats.chunks_built
            && sr.stats.wme_adds == solo.stats.wme_adds
            && sr.stats.wme_removes == solo.stats.wme_removes
            && sr.chunk_names == chunks
            && sr.output == solo.output;
        if !ok {
            return Err(format!("session {i} ({})", sp.name));
        }
        checked += 1;
    }
    Ok(checked)
}

fn main() {
    println!(
        "session_resume_host: {POPULATION} sessions through a {TABLE}-seat table \
         ({}x oversubscribed), {WORKERS} workers",
        POPULATION / TABLE
    );

    let report = run_tiered();
    assert_eq!(report.shed, 0, "admission depth covers the population");
    let tier = report.tier.as_ref().expect("tiered run");
    assert!(tier.hibernated > 0, "oversubscription must force hibernation");
    assert!(tier.resumed > 0, "hibernated sessions must resume");
    assert!(tier.resume_latency.count > 0, "resume latencies were sampled");
    println!(
        "  {:.1} sessions/s; hibernated {} / resumed {} / peak hot {} / {} snapshot bytes total",
        report.sessions_per_sec,
        tier.hibernated,
        tier.resumed,
        tier.peak_hot,
        tier.snapshot_bytes_total
    );

    let sampled = differential(&report);
    println!("  differential: sampled sessions vs solo -> {sampled:?}");
    assert!(sampled.is_ok(), "hibernated sessions must match solo bit-for-bit: {sampled:?}");

    let lat = &tier.resume_latency;
    println!(
        "  resume latency over {} resumes: p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms \
         (bound: p99 <= {BOUND_P99_MS} ms — {})",
        lat.count,
        lat.p50 / 1e6,
        lat.p90 / 1e6,
        lat.p99 / 1e6,
        lat.max / 1e6,
        if lat.p99 / 1e6 <= BOUND_P99_MS { "inside" } else { "OUTSIDE" }
    );
}
