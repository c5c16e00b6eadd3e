//! The two served workloads: sessions travel the whole request path, from
//! a TCP frame to the join nodes and back.
//!
//! The server runs in this process (`NetServer::start` on a loopback
//! port), so the benchmark cannot put spans inside it. A traced run
//! attributes a session's time by rungs instead: after the workload's own
//! traffic it replays a sample of the same sessions one at a time over
//! TCP, then through in-process `OpenServe`, then as solo agents over the
//! same frozen topologies with the [`crate::timed::Timed`] wrapper. Each
//! layer's cost is the difference between adjacent rungs.

use super::{parse_us_per_production, sojourn_values, Failures, RunOutput};
use crate::instances::{oracle, pick_boards, Outcome, Plan, TaskSpec};
use crate::load::{drive_inproc, drive_one, open_loop, Conn, Offered, Resolution, SessionRecord};
use crate::metrics::{complete_per_layer, cpu_ms_per_decision, EndToEnd, Slot, Values};
use crate::solo::{run_op, SoloAgg};
use crate::stats::{median, percentile, sorted};
use crate::sys::{HeapSampler, Stopwatch};
use crate::trace::{self, Tracer};
use psme_core::Scheduler;
use psme_net::{poisson_arrivals, read_frame, splitmix64, AppDef, Frame, NetServer};
use psme_rete::{JournaledSession, ReteNetwork, SerialEngine, Topology};
use psme_serve::{OpenServe, ServeConfig, ServeReport, ShardConfig};
use psme_soar::Agent;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed before the traffic and again after it, so that `setup_s`
/// samples the host at both ends of the run; `setup_s` is the median of all.
const SETUPS_PER_END: usize = 15;

/// Session-id space per app for one server run.
const MAX_SESSIONS: usize = 1 << 13;

/// An open session not done this long after it was due has missed its
/// limit, as has one that failed.
const SLO_MS: f64 = 1000.0;

/// Generator lateness (95th percentile: the highest a traced run's few
/// hundred sessions support) above which an open-loop run is reported
/// invalid.
const LATE_LIMIT_MS: f64 = 5.0;

/// Sessions of the main phase whose spans go to the trace file.
const KEPT_SESSIONS: usize = 64;

/// An app the server hosts: wire name, and which task a wire seed means.
#[derive(Clone, Copy)]
struct App {
    name: &'static str,
    task: fn(u64) -> TaskSpec,
}

/// A distinct session the workload offers, with its oracle result.
struct Instance {
    /// `offered.app` is also the session's class.
    offered: Offered,
    spec: TaskSpec,
    expected: Outcome,
}

struct Workload {
    name: &'static str,
    apps: Vec<App>,
    /// Class labels, for the attribution table.
    classes: Vec<&'static str>,
    instances: Vec<Instance>,
    /// The sessions the rungs replay, as instance indices.
    sample: Vec<usize>,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        scheduler: Scheduler::WorkStealing,
        table_capacity: 64,
        admission_depth: 256,
        shard: ShardConfig {
            shards: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn start_server(apps: &[App]) -> NetServer {
    let defs = apps
        .iter()
        .map(|a| {
            let task = a.task;
            AppDef::new(a.name, move |seed| task(seed).build())
        })
        .collect();
    NetServer::start("127.0.0.1:0", &serve_config(), defs, MAX_SESSIONS).expect("bind loopback")
}

/// Everything before the first request: parse and compile each app, freeze
/// its topology, start the serving loops and the acceptor, connect and
/// negotiate. Returns the seconds it took.
fn setup(w: &Workload) -> (NetServer, Conn, f64) {
    let t0 = Instant::now();
    let server = start_server(&w.apps);
    let conn = Conn::open(&server.local_addr().to_string()).expect("connect");
    let s = t0.elapsed().as_secs_f64();
    (server, conn, s)
}

/// Set up and tear down `n` times; the seconds each set-up took.
fn throwaway_setups(w: &Workload, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let (server, conn, s) = setup(w);
            drop(conn);
            server.finish();
            s
        })
        .collect()
}

/// The distinct sessions of a workload whose class `c` runs on app `c`
/// under `plans[c]`: one per board on app 0, one each on apps 1 and 2.
/// Oracle results are computed on two threads (the box has two cores; the
/// heavy workload's are two seconds of solo runs), dealt alternately so
/// both get a share of each class.
fn instances(apps: &[App], boards: &[u64], plans: [Plan; 3]) -> Vec<Instance> {
    let seeds = boards.iter().map(|&b| (0, b)).chain([(1, 0), (2, 0)]);
    let list: Vec<(Offered, TaskSpec)> = seeds
        .enumerate()
        .map(|(instance, (app, seed))| {
            let offered = Offered {
                app,
                seed,
                plan: plans[app],
                instance,
            };
            (offered, (apps[app].task)(seed))
        })
        .collect();
    let every_other = |from: usize| -> Vec<Outcome> {
        list.iter()
            .skip(from)
            .step_by(2)
            .map(|(o, spec)| oracle(&spec.build(), &[], o.plan))
            .collect()
    };
    let (even, odd) = std::thread::scope(|s| {
        let odd = s.spawn(|| every_other(1));
        (every_other(0), odd.join().expect("oracle thread panicked"))
    });
    let (mut even, mut odd) = (even.into_iter(), odd.into_iter());
    list.into_iter()
        .enumerate()
        .map(|(i, (offered, spec))| {
            let expected = if i % 2 == 0 { even.next() } else { odd.next() };
            Instance {
                offered,
                spec,
                expected: expected.expect("an outcome per instance"),
            }
        })
        .collect()
}

/// Check one resolved session against its instance's oracle result.
fn check(w: &Workload, instance: usize, r: &Resolution) -> Result<(), String> {
    let inst = &w.instances[instance];
    let label = inst.spec.label();
    match r {
        Resolution::Done(summary) => inst
            .expected
            .check_summary(summary)
            .map_err(|e| format!("{label}: {e}")),
        Resolution::Shed => Err(format!("{label}: shed")),
        Resolution::Refused(why) => Err(format!("{label}: refused: {why}")),
        Resolution::TimedOut => Err(format!("{label}: timed out")),
    }
}

/// Decisions the oracle's run of an offered session took.
fn decisions_expected(w: &Workload, o: &Offered) -> u64 {
    w.instances[o.instance].expected.stats.decisions
}

fn is_done(r: &SessionRecord) -> bool {
    matches!(r.resolution, Resolution::Done(_))
}

// ---------------------------------------------------------------------
// serve_open_short
// ---------------------------------------------------------------------

/// Session opens per second.
const OPEN_RATE: f64 = 30.0;

/// Distinct eight-puzzle boards per workload seed.
const OPEN_BOARDS: usize = 16;

/// Unmeasured sessions offered first, at the same rate and mix.
const OPEN_WARMUP: usize = 30;

/// Sessions per round: two seconds of the schedule, and 30, 18 and 12 of
/// the three classes.
const OPEN_ROUND: usize = 60;

fn open_short(seed: u64) -> Workload {
    let apps = vec![
        App {
            name: "eight-puzzle",
            task: |seed| TaskSpec::Eight { depth: 3, seed },
        },
        App {
            name: "strips",
            task: |_| TaskSpec::Strips { rooms: 12 },
        },
        App {
            name: "cypress-sub",
            task: |_| TaskSpec::Cypress { roots: 2 },
        },
    ];
    // Every depth-3 board is solved, in the same number of decisions.
    let boards = pick_boards(3, Plan::PLAIN, OPEN_BOARDS, 0, seed).solved;
    let credited = Plan {
        learning: false,
        grant: Some(6),
    };
    let (strips, cypress) = (OPEN_BOARDS, OPEN_BOARDS + 1);
    // Eight, five and three of sixteen: close to the mix's shares.
    let sample = (0..8).chain([strips; 5]).chain([cypress; 3]).collect();
    Workload {
        name: "serve_open_short",
        classes: vec!["eight-3 auto", "strips-12 learning", "cypress-2 credited"],
        instances: instances(&apps, &boards, [Plan::PLAIN, Plan::LEARNING, credited]),
        apps,
        sample,
    }
}

/// Share of each class in the open-loop mix.
const OPEN_MIX: [f64; 3] = [0.5, 0.3, 0.2];

/// `n` sessions in exactly the mix's proportions, shuffled, eight-puzzle
/// boards dealt round the pool; all from `seed`.
fn open_mix(w: &Workload, n: usize, seed: u64) -> Vec<Offered> {
    let strips = (OPEN_MIX[1] * n as f64).round() as usize;
    let cypress = (OPEN_MIX[2] * n as f64).round() as usize;
    let eight = n.saturating_sub(strips + cypress);
    let mut picks: Vec<usize> = (0..eight)
        .map(|k| k % OPEN_BOARDS)
        .chain(std::iter::repeat_n(OPEN_BOARDS, strips))
        .chain(std::iter::repeat_n(OPEN_BOARDS + 1, cypress))
        .collect();
    let mut rng = seed ^ 0x6d69_7870_6963_6b73;
    for i in (1..picks.len()).rev() {
        picks.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
    }
    picks.truncate(n);
    picks
        .into_iter()
        .map(|i| w.instances[i].offered.clone())
        .collect()
}

/// Arrival times of `n` Poisson opens at [`OPEN_RATE`], stretched so that
/// the last falls at `n / OPEN_RATE`: a Poisson process given its count,
/// which pins the offered load of every seed to the same value.
fn open_arrivals(n: usize, seed: u64) -> Vec<f64> {
    let mut t = poisson_arrivals(OPEN_RATE, n, seed);
    let scale = n as f64 / OPEN_RATE / t[n - 1];
    t.iter_mut().for_each(|t| *t *= scale);
    t
}

struct Phase {
    offered: Vec<Offered>,
    records: Vec<SessionRecord>,
    slots: Vec<Slot>,
    frames: Vec<Frame>,
}

/// The open-loop traffic: a warm-up, then `seconds` of Poisson opens in
/// rounds of [`OPEN_ROUND`] sessions, each a schedule of its own that
/// starts when the last session of the one before has resolved.
fn open_phase(w: &Workload, conn: &Conn, seed: u64, seconds: f64, log_frames: bool) -> Phase {
    let warm = open_mix(w, OPEN_WARMUP, seed ^ 0x7761_726d);
    let arrivals = open_arrivals(warm.len(), seed ^ 0x7761_726d);
    open_loop(conn, &warm, &arrivals, Instant::now(), "w", false);

    let n_rounds = ((OPEN_RATE * seconds / OPEN_ROUND as f64).round() as usize).max(1);
    // One slot: every round is the same number of sessions of each class,
    // with the same boards dealt the same number of times.
    let mut slot = Slot {
        ops: OPEN_ROUND as u64,
        ..Slot::default()
    };
    let mut phase = Phase {
        offered: Vec::new(),
        records: Vec::new(),
        slots: Vec::new(),
        frames: Vec::new(),
    };
    let mut rng = seed;
    for r in 0..n_rounds {
        let round_seed = splitmix64(&mut rng);
        let offered = open_mix(w, OPEN_ROUND, round_seed);
        let arrivals = open_arrivals(OPEN_ROUND, round_seed);
        slot.decisions = offered.iter().map(|o| decisions_expected(w, o)).sum();
        let lap = Stopwatch::start();
        let t0 = Instant::now() + Duration::from_millis(5);
        let (records, frames) =
            open_loop(conn, &offered, &arrivals, t0, &format!("m{r}"), log_frames);
        let cpu_s = lap.cpu_seconds();
        if records.iter().all(is_done) {
            let end = records.iter().map(|r| r.end).max().expect("a session");
            slot.wall_s.push((end - t0).as_secs_f64());
            slot.cpu_s.push(cpu_s);
        }
        phase.offered.extend(offered);
        phase.records.extend(records);
        phase.frames.extend(frames);
    }
    phase.slots.push(slot);
    phase
}

// ---------------------------------------------------------------------
// serve_closed_heavy
// ---------------------------------------------------------------------

/// Measured rounds after which `peak_heap_mb` stops looking. The server
/// keeps every session's spec and report until it finishes, so the heap
/// grows with the sessions served, and a run that fits more rounds must
/// not read as using more memory. Every 25 s run fits more than this; a
/// shorter one is read at its end.
const HEAVY_HEAP_ROUNDS: usize = 4;

/// Per round: one cypress, eight eight-puzzle, twelve strips.
const HEAVY_BOARDS: usize = 8;
const HEAVY_STRIPS: usize = 12;

fn closed_heavy(seed: u64) -> Workload {
    let apps = vec![
        App {
            name: "eight-12",
            task: |seed| TaskSpec::Eight { depth: 12, seed },
        },
        App {
            name: "strips-24",
            task: |_| TaskSpec::Strips { rooms: 24 },
        },
        App {
            name: "cypress-6",
            task: |_| TaskSpec::Cypress { roots: 6 },
        },
    ];
    // Boards that run to the 400-decision limit: the two in sixty-four that
    // the greedy strategy happens to solve are twenty times lighter.
    let boards = pick_boards(12, Plan::PLAIN, 0, HEAVY_BOARDS, seed).unsolved;
    Workload {
        name: "serve_closed_heavy",
        classes: vec!["eight-12 to limit", "strips-24", "cypress-6"],
        instances: instances(&apps, &boards, [Plan::PLAIN; 3]),
        apps,
        sample: heavy_round(),
    }
}

/// The client's round, as instance indices.
fn heavy_round() -> Vec<usize> {
    let (strips, cypress) = (HEAVY_BOARDS, HEAVY_BOARDS + 1);
    std::iter::once(cypress)
        .chain(0..HEAVY_BOARDS)
        .chain([strips; HEAVY_STRIPS])
        .collect()
}

/// The closed-loop traffic: a short warm-up, then whole rounds, one
/// session in flight, until `seconds` have passed.
fn closed_phase(
    w: &Workload,
    conn: &Conn,
    seconds: f64,
    log_frames: bool,
    heap: Option<&HeapSampler>,
) -> Phase {
    // Warm-up: every app once, unmeasured.
    for (k, i) in [HEAVY_BOARDS + 1, 0, HEAVY_BOARDS].into_iter().enumerate() {
        drive_one(conn, &w.instances[i].offered, format!("w{k}"), false);
    }
    // Session `k` of the round is slot `k`.
    let list = heavy_round();
    let mut phase = Phase {
        offered: Vec::new(),
        records: Vec::new(),
        slots: list
            .iter()
            .map(|&i| Slot {
                ops: 1,
                decisions: decisions_expected(w, &w.instances[i].offered),
                ..Slot::default()
            })
            .collect(),
        frames: Vec::new(),
    };
    let watch = Stopwatch::start();
    let mut rounds = 0;
    while watch.wall_seconds() < seconds {
        for (k, &i) in list.iter().enumerate() {
            let offered = &w.instances[i].offered;
            let lap = Stopwatch::start();
            let (rec, log) = drive_one(conn, offered, format!("m{rounds}-{k}"), log_frames);
            if is_done(&rec) {
                phase.slots[k].wall_s.push(lap.wall_seconds());
                phase.slots[k].cpu_s.push(lap.cpu_seconds());
            }
            phase.offered.push(offered.clone());
            phase.records.push(rec);
            phase.frames.extend(log);
        }
        rounds += 1;
        if let (HEAVY_HEAP_ROUNDS, Some(heap)) = (rounds, heap) {
            heap.freeze();
        }
    }
    phase
}

// ---------------------------------------------------------------------
// Common to both
// ---------------------------------------------------------------------

/// How late the generator wrote its opens, in milliseconds: (95th
/// percentile, maximum).
fn late_values(phase: &Phase) -> (f64, f64) {
    let late = sorted(phase.records.iter().map(SessionRecord::late_ms).collect());
    (percentile(&late, 0.95), late.last().copied().unwrap_or(0.0))
}

fn check_phase(w: &Workload, phase: &Phase, failures: &mut Failures) {
    for (o, r) in phase.offered.iter().zip(&phase.records) {
        failures.attempt(check(w, o.instance, &r.resolution));
    }
}

/// The untraced run: set-up, the workload's traffic, the end-to-end values.
fn end_to_end(w: &Workload, seed: u64, seconds: f64, open: bool) -> RunOutput {
    let heap = HeapSampler::start();
    let mut setups = throwaway_setups(w, SETUPS_PER_END - 1);
    let (server, conn, s) = setup(w);
    setups.push(s);
    let phase = if open {
        open_phase(w, &conn, seed, seconds, false)
    } else {
        closed_phase(w, &conn, seconds, false, Some(&heap))
    };
    let peak_heap_mib = heap.finish();
    drop(conn);
    server.finish();
    setups.extend(throwaway_setups(w, SETUPS_PER_END));
    let mut failures = Failures::default();
    check_phase(w, &phase, &mut failures);
    let (late_p95, _) = late_values(&phase);
    let e2e = EndToEnd {
        setups,
        slots: phase.slots,
        peak_heap_mib,
    };
    let mut report = failures.into_report(w.name, false, e2e.values());
    report.notes.push(e2e.whole_run_note());
    if open && late_p95 > LATE_LIMIT_MS {
        report.notes.push(format!(
            "INVALID: the generator sent opens {late_p95:.2} ms late at p95 (limit {LATE_LIMIT_MS} ms)"
        ));
    }
    RunOutput {
        report,
        tracer: None,
    }
}

/// Median of the samples of each class; 0 for a class with none.
fn class_medians(classes: usize, samples: &[(usize, f64)]) -> Vec<f64> {
    (0..classes)
        .map(|c| {
            median(
                &samples
                    .iter()
                    .filter(|s| s.0 == c)
                    .map(|s| s.1)
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

fn weighted(weights: &[f64], per_class: &[f64]) -> f64 {
    weights.iter().zip(per_class).map(|(w, v)| w * v).sum()
}

/// Time `Frame::encode` and `read_frame` over the frames a phase exchanged:
/// (encode ns per frame, decode ns per frame, total bytes).
fn codec_costs(frames: &[Frame]) -> (f64, f64, usize) {
    if frames.is_empty() {
        return (0.0, 0.0, 0);
    }
    // Enough passes that the timed loops run for milliseconds.
    let passes = (20_000 / frames.len()).max(1);
    let t0 = Instant::now();
    let mut bytes: Vec<u8> = Vec::new();
    for _ in 0..passes {
        bytes.clear();
        for f in frames {
            bytes.extend_from_slice(&std::hint::black_box(f).encode());
        }
    }
    let encode_ns = t0.elapsed().as_nanos() as f64 / (passes * frames.len()) as f64;
    let t0 = Instant::now();
    for _ in 0..passes {
        let mut cursor = std::io::Cursor::new(&bytes);
        let mut n = 0;
        while let Some(f) = read_frame(&mut cursor).expect("frames encoded above decode") {
            std::hint::black_box(&f);
            n += 1;
        }
        assert_eq!(n, frames.len());
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / (passes * frames.len()) as f64;
    (encode_ns, decode_ns, bytes.len())
}

/// `psme-serve`'s own telemetry for the main phase's sessions (names start
/// with `m`), from the reports `NetServer::finish` returns.
fn telemetry_values(reports: &[(String, ServeReport)], offered: usize) -> Values {
    let main: Vec<_> = reports
        .iter()
        .flat_map(|(_, r)| &r.sessions)
        .filter(|s| s.name.starts_with('m'))
        .collect();
    let ran: Vec<_> = main.iter().filter(|s| !s.was_shed()).collect();
    let col = |f: &dyn Fn(&psme_serve::SessionTelemetry) -> f64| {
        sorted(ran.iter().map(|s| f(&s.telemetry)).collect())
    };
    let shards: Vec<_> = reports.iter().flat_map(|(_, r)| &r.shards).collect();
    vec![
        // Per session the crate keeps quantiles, not samples: these are the
        // median session's median and the 90th-percentile session's p90
        // (the main phase of a traced run is a few hundred sessions, which
        // does not support a 99th percentile).
        (
            "serve.queue_wait_p50_us",
            percentile(&col(&|t| t.queue_wait.p50), 0.5) / 1e3,
        ),
        (
            "serve.queue_wait_p90_us",
            percentile(&col(&|t| t.queue_wait.p90), 0.90) / 1e3,
        ),
        (
            "serve.cycle_latency_p50_us",
            percentile(&col(&|t| t.cycle_latency.p50), 0.5) / 1e3,
        ),
        (
            "serve.cycle_latency_p90_us",
            percentile(&col(&|t| t.cycle_latency.p90), 0.90) / 1e3,
        ),
        (
            "serve.slices_per_session",
            ran.iter().map(|s| s.telemetry.slices).sum::<u64>() as f64 / ran.len().max(1) as f64,
        ),
        (
            "serve.bus_occupancy",
            shards.iter().map(|s| s.bus_occupancy).sum::<f64>() / shards.len().max(1) as f64,
        ),
        (
            "serve.shed_frac",
            (main.len() - ran.len()) as f64 / offered.max(1) as f64,
        ),
    ]
}

/// Compile and freeze each app the way `build_topology` does, timing the
/// two halves: (topologies, mean compile ms, mean freeze ms).
fn timed_topologies(apps: &[App]) -> (Vec<Arc<Topology>>, f64, f64) {
    let (mut compile, mut freeze) = (0.0, 0.0);
    let topos = apps
        .iter()
        .map(|a| {
            let task = (a.task)(0).build();
            let mut agent = Agent::new(SerialEngine::new(ReteNetwork::new()), task.classes.clone());
            let t0 = Instant::now();
            task.install_productions(&mut agent);
            compile += t0.elapsed().as_secs_f64() * 1e3;
            let (net, _) = agent.engine.into_parts();
            let t0 = Instant::now();
            let topo = Topology::freeze(net);
            freeze += t0.elapsed().as_secs_f64() * 1e3;
            topo
        })
        .collect();
    (
        topos,
        compile / apps.len() as f64,
        freeze / apps.len() as f64,
    )
}

/// A timed sample of one session class: the class and milliseconds.
type Sample = (usize, f64);

fn step_ms(steps: &[(Instant, Instant)]) -> impl Iterator<Item = f64> + '_ {
    steps.iter().map(|&(a, b)| (b - a).as_secs_f64() * 1e3)
}

/// The traced run. See the module docs for the rungs.
fn per_layer(w: &Workload, seed: u64, seconds: f64, open: bool) -> RunOutput {
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut failures = Failures::default();
    let mut notes = Vec::new();
    let classes = w.classes.len();
    let class_of = |instance: usize| w.instances[instance].offered.app;

    // Main phase: the workload's own traffic, two fifths of the time.
    let (server, conn, _) = setup(w);
    let phase = if open {
        open_phase(w, &conn, seed, seconds * 0.4, true)
    } else {
        closed_phase(w, &conn, seconds * 0.4, true, None)
    };
    check_phase(w, &phase, &mut failures);
    for (i, r) in phase.records.iter().enumerate() {
        r.add_spans(&mut tracer, i as u32, i < KEPT_SESSIONS);
    }
    let n = phase.records.len();
    let mut weights = vec![0.0; classes];
    for o in &phase.offered {
        weights[class_of(o.instance)] += 1.0 / n as f64;
    }
    let done: Vec<(usize, &SessionRecord)> = phase
        .offered
        .iter()
        .zip(&phase.records)
        .filter(|(_, r)| is_done(r))
        .map(|(o, r)| (class_of(o.instance), r))
        .collect();
    let tcp: Vec<Sample> = done.iter().map(|(c, r)| (*c, r.sojourn_ms())).collect();
    let main_steps: Vec<f64> = done.iter().flat_map(|(_, r)| step_ms(&r.steps)).collect();
    let mut request = n as u32;

    // Rung 1: the sample over TCP, one session in flight.
    let (mut tcp1, mut tcp1_steps): (Vec<Sample>, Vec<_>) = (Vec::new(), Vec::new());
    let watch = Stopwatch::start();
    let mut pass = 0;
    while pass == 0 || watch.wall_seconds() < seconds * 0.2 {
        for (k, &i) in w.sample.iter().enumerate() {
            let (rec, _) = drive_one(
                &conn,
                &w.instances[i].offered,
                format!("r{pass}-{k}"),
                false,
            );
            failures.attempt(check(w, i, &rec.resolution));
            rec.add_spans(&mut tracer, request, pass == 0);
            request += 1;
            tcp1.push((class_of(i), rec.sojourn_ms()));
            tcp1_steps.extend(step_ms(&rec.steps));
        }
        pass += 1;
    }
    drop(conn);
    let reports = server.finish();

    // Rung 2: the sample through in-process `OpenServe`, no wire.
    let (topos, compile_ms, freeze_ms) = timed_topologies(&w.apps);
    let loops: Vec<_> = topos
        .iter()
        .map(|t| OpenServe::start(t.clone(), serve_config(), MAX_SESSIONS))
        .collect();
    let (mut inproc, mut inproc_steps): (Vec<Sample>, Vec<_>) = (Vec::new(), Vec::new());
    trace::install(tracer);
    let watch = Stopwatch::start();
    let mut pass = 0;
    while pass == 0 || watch.wall_seconds() < seconds * 0.2 {
        for (k, &i) in w.sample.iter().enumerate() {
            let inst = &w.instances[i];
            // The router thread builds the instance on the TCP path; here
            // it is built before the clock starts and charged separately.
            let task = inst.spec.build();
            trace::with(|t| t.set_request(request, pass == 0));
            request += 1;
            let (serve, events) = &loops[inst.offered.app];
            let rec = drive_inproc(
                serve,
                events,
                task,
                inst.offered.plan,
                format!("i{pass}-{k}"),
            );
            failures.attempt(match &rec.report {
                Some(r) if !r.was_shed() => inst
                    .expected
                    .check_summary(&psme_net::SessionSummary::from_report(r))
                    .map_err(|e| format!("{} in process: {e}", inst.spec.label())),
                _ => Err(format!("{} in process: shed or stalled", inst.spec.label())),
            });
            inproc.push((inst.offered.app, rec.sojourn_ms()));
            inproc_steps.extend(step_ms(&rec.steps));
        }
        pass += 1;
    }
    for (serve, _) in loops {
        serve.finish();
    }

    // Rung 3: the sample as solo agents over the same frozen topologies,
    // traced and untraced passes in turn. The untraced passes give the
    // solo time the serve overhead is measured against, the traced ones
    // the soar / rete split, and their ratio the tracing overhead.
    let mut agg = SoloAgg::default();
    let (mut solo, mut build): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let (mut traced_dps, mut plain_dps) = (Vec::new(), Vec::new());
    let watch = Stopwatch::start();
    let mut pass = 0u32;
    while pass < 2 || watch.wall_seconds() < seconds * 0.2 {
        let with_trace = pass.is_multiple_of(2);
        let held = if with_trace { None } else { trace::take() };
        let t0 = Instant::now();
        let mut decisions = 0;
        for &i in &w.sample {
            let inst = &w.instances[i];
            trace::with(|t| t.set_request(request, pass == 0));
            request += 1;
            let op = run_op::<JournaledSession>(
                &topos[inst.offered.app],
                &inst.spec,
                inst.offered.plan,
                &[],
                with_trace,
            );
            failures.attempt(
                inst.expected
                    .check(&op.outcome)
                    .map_err(|e| format!("{} solo: {e}", inst.spec.label())),
            );
            decisions += op.outcome.stats.decisions;
            match &op.detail {
                Some(d) => agg.add(d),
                None => {
                    solo.push((inst.offered.app, (op.wall_s - op.build_s) * 1e3));
                    build.push((inst.offered.app, op.build_s * 1e3));
                }
            }
        }
        let dps = decisions as f64 / t0.elapsed().as_secs_f64();
        if with_trace {
            &mut traced_dps
        } else {
            &mut plain_dps
        }
        .push(dps);
        if let Some(t) = held {
            trace::install(t);
        }
        pass += 1;
    }
    let tracer = trace::take().expect("installed before rung 2");
    let (encode_ns, decode_ns, bytes) = codec_costs(&phase.frames);
    let parse_us = parse_us_per_production(w.instances.iter().map(|i| &i.spec));

    // Differences between adjacent rungs, per class, weighted by the mix.
    let tcp = class_medians(classes, &tcp);
    let tcp1 = class_medians(classes, &tcp1);
    let inproc = class_medians(classes, &inproc);
    let solo = class_medians(classes, &solo);
    let build = class_medians(classes, &build);
    let per_class = |f: &dyn Fn(usize) -> f64| (0..classes).map(f).collect::<Vec<f64>>();
    let queueing = per_class(&|c| tcp[c] - tcp1[c]);
    let net = per_class(&|c| tcp1[c] - inproc[c] - build[c]);
    let serve = per_class(&|c| inproc[c] - solo[c]);
    let mut values: Values = vec![
        (
            "load.queueing_ms_per_session",
            weighted(&weights, &queueing),
        ),
        ("net.overhead_ms_per_session", weighted(&weights, &net)),
        ("serve.overhead_ms_per_session", weighted(&weights, &serve)),
        (
            "serve.overhead_frac",
            weighted(&weights, &serve) / weighted(&weights, &inproc),
        ),
        (
            "net.step_overhead_ms",
            if tcp1_steps.is_empty() {
                0.0
            } else {
                median(&tcp1_steps) - median(&inproc_steps)
            },
        ),
        ("load.step_rtt_p50_ms", median(&main_steps)),
        ("net.encode_ns_per_frame", encode_ns),
        ("net.decode_ns_per_frame", decode_ns),
        ("net.bytes_per_session", bytes as f64 / n as f64),
        (
            "net.frames_per_session",
            phase.frames.len() as f64 / n as f64,
        ),
        ("tasks.instance_build_us", weighted(&weights, &build) * 1e3),
        ("ops.parse_us_per_production", parse_us),
        // For the served workloads compile time is paid once per app at
        // start-up, not per agent.
        ("rete.compile_ms", compile_ms),
        ("rete.freeze_ms", freeze_ms),
    ];
    values.extend(telemetry_values(&reports, n));
    values.extend(agg.soar_values(&tracer, &mut notes));
    values.extend(
        agg.rete_values(&tracer)
            .into_iter()
            .filter(|v| v.0 != "rete.compile_ms"),
    );

    values.push((
        "load.cpu_ms_per_decision",
        cpu_ms_per_decision(&phase.slots),
    ));
    values.extend(sojourn_values(
        done.iter().map(|(_, r)| r.sojourn_ms()).collect(),
    ));
    let (late_p95, late_max) = late_values(&phase);
    let missed = phase
        .records
        .iter()
        .filter(|r| !is_done(r) || r.sojourn_ms() > SLO_MS)
        .count();
    values.extend([
        ("load.late_p95_ms", late_p95),
        ("load.late_max_ms", late_max),
        ("load.slo_miss_frac", missed as f64 / n as f64),
        ("load.failed_frac", failures.frac()),
        ("load.peak_rss_mb", crate::sys::peak_rss_mib()),
        (
            "trace.overhead_frac",
            1.0 - median(&traced_dps) / median(&plain_dps),
        ),
    ]);
    if open && late_p95 > LATE_LIMIT_MS {
        notes.push(format!(
            "INVALID: the generator sent opens {late_p95:.2} ms late at p95 (limit {LATE_LIMIT_MS} ms)"
        ));
    }

    // The attribution table the README reads: where a session's median
    // sojourn goes, per class and weighted by the mix.
    let soar_self = tracer.layer_self_ns(trace::Layer::Soar) as f64;
    let rete_self = tracer.layer_self_ns(trace::Layer::Rete) as f64;
    let soar_of_solo = soar_self / (soar_self + rete_self).max(1.0);
    notes.push(format!(
        "split of sojourn p50 (ms): {:<20} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "class", "share", "tcp", "queueing", "net", "build", "serve", "soar", "rete"
    ));
    let mut row = |label: &str, share: f64, at: &dyn Fn(&[f64]) -> f64| {
        let solo_ms = at(&solo);
        notes.push(format!(
            "split of sojourn p50 (ms): {label:<20} {share:>6.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            at(&tcp),
            at(&queueing),
            at(&net),
            at(&build),
            at(&serve),
            solo_ms * soar_of_solo,
            solo_ms * (1.0 - soar_of_solo),
        ));
    };
    for c in 0..classes {
        row(w.classes[c], weights[c], &|v| v[c]);
    }
    row("mix-weighted", 1.0, &|v| weighted(&weights, v));

    let mut report = failures.into_report(w.name, true, complete_per_layer(values));
    report.notes = notes;
    RunOutput {
        report,
        tracer: Some(tracer),
    }
}

fn run(w: &Workload, seed: u64, seconds: f64, traced: bool, open: bool) -> RunOutput {
    if traced {
        per_layer(w, seed, seconds, open)
    } else {
        end_to_end(w, seed, seconds, open)
    }
}

pub fn serve_open_short(seed: u64, seconds: f64, traced: bool) -> RunOutput {
    run(&open_short(seed), seed, seconds, traced, true)
}

pub fn serve_closed_heavy(seed: u64, seconds: f64, traced: bool) -> RunOutput {
    run(&closed_heavy(seed), seed, seconds, traced, false)
}
