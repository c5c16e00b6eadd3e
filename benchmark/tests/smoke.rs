//! Smoke runs of every workload, a few seconds each: the output covers
//! `BENCHMARK.json`, counts repeat, the oracle check bites, and the trace
//! accounts for its own time.

use psme_benchmark::instances::{oracle, Plan, TaskSpec};
use psme_benchmark::metrics::{Report, END_TO_END, EXACT_COUNTS, PER_LAYER};
use psme_benchmark::trace::{layer_self_from_spans, Kind, Layer, NO_PARENT};
use psme_benchmark::workloads::{self, RunOutput, WORKLOADS};
use psme_net::{stop_code, SessionSummary};
use psme_obs::Json;
use std::sync::Mutex;

/// The workloads time themselves and start servers and match processes;
/// on a two-core box they must not run beside each other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Long enough for one round or pass of everything, no longer.
const SECONDS: f64 = 1.0;

fn run(workload: &str, seed: u64, traced: bool) -> RunOutput {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    workloads::run(workload, seed, SECONDS, traced).expect("known workload")
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The result line covers exactly the declared metrics, each finite and
/// with its unit, and says the run was correct.
fn assert_covers(report: &Report, declared: &[(String, String)]) {
    let line = report.json_line();
    let doc = Json::parse(&line).expect("result line is JSON");
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{}",
        report.table()
    );
    assert!(
        doc.get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = doc.get("metrics").expect("metrics");
    for (name, unit) in declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not printed"));
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} has no value"));
        assert!(v.is_finite(), "{name} = {v}");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "unit of {name}"
        );
    }
    let Json::Obj(printed) = metrics else {
        panic!("metrics is an object")
    };
    assert_eq!(
        printed.len(),
        declared.len(),
        "metrics printed beyond those declared"
    );
}

/// One workload, end to end: an untraced run and two traced runs of the
/// same seed.
fn smoke(workload: &str) {
    let doc = benchmark_json();
    let plain = run(workload, 7, false);
    assert!(plain.tracer.is_none());
    assert_covers(&plain.report, &declared(&doc, "end_to_end"));
    for (name, _) in END_TO_END {
        let v = plain.report.value(name).expect("measured");
        assert!(
            v > 0.0,
            "{workload}: end-to-end metric {name} = {v} must never be 0"
        );
    }

    let first = run(workload, 7, true);
    let second = run(workload, 7, true);
    assert_covers(&first.report, &declared(&doc, "per_layer"));

    // Counts made by the program repeat exactly for a fixed seed, however
    // many rounds each run fitted in.
    for name in EXACT_COUNTS {
        let (a, b) = (first.report.value(name), second.report.value(name));
        assert_eq!(
            a, b,
            "{workload}: {name} differs between two runs of one seed"
        );
    }

    // Every nanosecond of a traced request has one owner: per-layer self
    // times add up to the root spans, by the running totals and,
    // independently, by the stored spans.
    let tracer = first.tracer.expect("a traced run returns its tracer");
    let roots = [Kind::SoloOp, Kind::TcpSession, Kind::ServeSession];
    let root_ns: u64 = roots.iter().map(|&k| tracer.total(k).ns).sum();
    let owned: u64 = Layer::ALL.iter().map(|&l| tracer.layer_self_ns(l)).sum();
    assert!(root_ns > 0, "{workload}: no root spans");
    let off = (owned as f64 - root_ns as f64).abs() / root_ns as f64;
    assert!(
        off <= 0.02,
        "{workload}: self times {owned} ns against roots {root_ns} ns"
    );

    let spans = tracer.spans();
    assert!(
        !spans.is_empty(),
        "{workload}: no spans kept for the trace file"
    );
    let kept_roots: u64 = spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let kept_owned: u64 = layer_self_from_spans(spans).iter().map(|&(_, ns)| ns).sum();
    let off = (kept_owned as f64 - kept_roots as f64).abs() / kept_roots as f64;
    assert!(
        off <= 0.02,
        "{workload}: stored spans own {kept_owned} ns of {kept_roots} ns"
    );
    assert!(tracer.chrome_json().starts_with("{\"displayTimeUnit\""));
}

#[test]
fn serve_open_short() {
    smoke("serve_open_short");
}

#[test]
fn serve_closed_heavy() {
    smoke("serve_closed_heavy");
}

#[test]
fn solo_learn() {
    smoke("solo_learn");
}

#[test]
fn solo_parallel() {
    smoke("solo_parallel");
}

#[test]
fn benchmark_json_names_the_code_s_workloads_and_metrics() {
    let doc = benchmark_json();
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), pairs(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), pairs(PER_LAYER));
    for name in EXACT_COUNTS {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
    }
    assert!(workloads::run("no_such_workload", 1, 1.0, false).is_err());
}

#[test]
fn oracle_check_rejects_a_corrupted_summary() {
    let spec = TaskSpec::Strips { rooms: 12 };
    let expected = oracle(&spec.build(), &[], Plan::LEARNING);
    assert!(
        !expected.chunk_names.is_empty(),
        "the instance learns chunks"
    );
    let honest = SessionSummary {
        name: "s".into(),
        stop: stop_code(expected.stop),
        stats: expected.stats,
        chunk_names: expected.chunk_names.clone(),
        output: expected.output.clone(),
    };
    assert_eq!(expected.check_summary(&honest), Ok(()));

    let corrupt = |edit: &dyn Fn(&mut SessionSummary)| {
        let mut s = honest.clone();
        edit(&mut s);
        expected.check_summary(&s)
    };
    assert!(corrupt(&|s| s.stop ^= 1).is_err(), "stop reason");
    assert!(corrupt(&|s| s.stats.decisions += 1).is_err(), "decisions");
    assert!(corrupt(&|s| s.stats.firings -= 1).is_err(), "firings");
    assert!(
        corrupt(&|s| s.chunk_names[0].push('x')).is_err(),
        "a chunk name"
    );
    assert!(
        corrupt(&|s| s.chunk_names.truncate(1)).is_err(),
        "chunk count"
    );
    assert!(
        corrupt(&|s| s.output.push("extra".into())).is_err(),
        "output"
    );

    // A different plan on the same instance is a different result.
    let plain = oracle(&spec.build(), &[], Plan::PLAIN);
    assert!(expected.check(&plain).is_err());
}
