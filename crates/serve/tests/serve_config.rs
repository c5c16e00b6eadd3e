//! Config validation, dispatch-bus occupancy reporting, and the
//! streaming (`OpenServe`) vs batch (`serve`) differential.

use psme_core::Scheduler;
use psme_serve::{
    build_topology, serve, OpenServe, ServeConfig, ServeConfigError, ServeEvent, SessionSpec,
    ShardConfig, SubmitError,
};
use psme_tasks::{eight_puzzle, scrambled};

fn specs(n: usize) -> Vec<SessionSpec> {
    (0..n)
        .map(|i| SessionSpec {
            name: format!("s-{i}"),
            task: eight_puzzle(&scrambled(3, i as u64 * 31 + 1)),
            learning: i.is_multiple_of(3),
        })
        .collect()
}

#[test]
fn config_validation_rejects_degenerate_geometry() {
    let ok = ServeConfig::default();
    assert!(ok.validate().is_ok());

    let zero_shards =
        ServeConfig { shard: ShardConfig { shards: 0, ..Default::default() }, ..Default::default() };
    assert!(matches!(zero_shards.validate(), Err(ServeConfigError::ZeroShards)));

    let zero_workers = ServeConfig { workers: 0, ..Default::default() };
    assert!(matches!(zero_workers.validate(), Err(ServeConfigError::ZeroWorkers)));

    let thin_table = ServeConfig {
        table_capacity: 2,
        shard: ShardConfig { shards: 4, ..Default::default() },
        ..Default::default()
    };
    match thin_table.validate() {
        Err(ServeConfigError::TableSmallerThanShards { table_capacity, shards }) => {
            assert_eq!((table_capacity, shards), (2, 4));
        }
        other => panic!("expected TableSmallerThanShards, got {other:?}"),
    }
    // The error message is user-facing configuration feedback.
    let msg = thin_table.validate().unwrap_err().to_string();
    assert!(msg.contains('2') && msg.contains('4'), "message names both numbers: {msg}");
}

#[test]
#[should_panic(expected = "shard")]
fn serve_panics_on_invalid_config() {
    let s = specs(1);
    let topo = build_topology(&s[0].task);
    serve(
        topo,
        s,
        ServeConfig { shard: ShardConfig { shards: 0, ..Default::default() }, ..Default::default() },
    );
}

#[test]
fn bus_occupancy_is_reported_and_bounded() {
    let s = specs(8);
    let topo = build_topology(&s[0].task);
    let report = serve(
        topo,
        s,
        ServeConfig {
            workers: 2,
            table_capacity: 8,
            shard: ShardConfig { shards: 2, ..Default::default() },
            ..Default::default()
        },
    );
    assert_eq!(report.shards.len(), 2);
    for sh in &report.shards {
        assert!(
            (0.0..=1.0).contains(&sh.bus_occupancy),
            "occupancy {} out of range",
            sh.bus_occupancy
        );
    }
    let mean = report.mean_bus_occupancy();
    assert!((0.0..=1.0).contains(&mean));
    let json = report.to_json();
    assert!(json.get("mean_bus_occupancy").is_some());
    assert!(json
        .get("shards")
        .and_then(|s| s.at(0))
        .and_then(|s| s.get("bus_occupancy"))
        .is_some());
}

/// Streaming admission is the batch loop behind a dynamic front door:
/// the same specs submitted through `OpenServe` must retire with results
/// bit-for-bit equal to batch `serve` (which in turn equals solo runs).
#[test]
fn open_serve_matches_batch_serve() {
    let n = 8;
    let cfg = ServeConfig {
        workers: 2,
        scheduler: Scheduler::WorkStealing,
        table_capacity: 4,
        admission_depth: 8,
        ..Default::default()
    };
    let topo = build_topology(&specs(1)[0].task);
    let batch = serve(topo.clone(), specs(n), cfg.clone());
    assert_eq!(batch.shed, 0);

    let (open, events) = OpenServe::start(topo, cfg, 64);
    for spec in specs(n) {
        open.submit(spec, None).expect("capacity for every submit");
    }
    assert_eq!(open.submitted(), n);
    let report = open.finish();
    assert_eq!(report.sessions.len(), n);
    assert_eq!(report.shed, 0);
    for (i, (a, b)) in batch.sessions.iter().zip(&report.sessions).enumerate() {
        assert_eq!(a.name, b.name, "session {i}");
        assert_eq!(a.stop, b.stop, "session {i}");
        assert_eq!(a.stats, b.stats, "session {i}");
        assert_eq!(a.chunk_names, b.chunk_names, "session {i}");
        assert_eq!(a.output, b.output, "session {i}");
    }
    // Every session produced exactly one Retired event.
    let mut retired = 0;
    while let Ok(ev) = events.try_recv() {
        if matches!(ev, ServeEvent::Retired { .. }) {
            retired += 1;
        }
    }
    assert_eq!(retired, n);
}

#[test]
fn open_serve_refuses_duplicates_and_submits_after_finish() {
    let cfg = ServeConfig { workers: 1, table_capacity: 4, ..Default::default() };
    let topo = build_topology(&specs(1)[0].task);
    let (open, _events) = OpenServe::start(topo.clone(), cfg.clone(), 4);
    open.submit(specs(1).remove(0), None).expect("first submit");
    match open.submit(specs(1).remove(0), None) {
        Err(SubmitError::DuplicateName(name)) => assert_eq!(name, "s-0"),
        other => panic!("expected DuplicateName, got {other:?}"),
    }
    let report = open.finish();
    assert_eq!(report.sessions.len(), 1);

    // Exhaustion: the id space is `max_sessions`.
    let (open, _events) = OpenServe::start(topo, cfg, 1);
    open.submit(specs(1).remove(0), None).expect("fits");
    let mut extra = specs(2);
    match open.submit(extra.remove(1), None) {
        Err(SubmitError::Exhausted) => {}
        other => panic!("expected Exhausted, got {other:?}"),
    }
    open.finish();
}

/// Unbounded plus *n* is unbounded: a `step` grant on a session submitted
/// without one tops up nothing — whether it finds the session in flight or
/// still waiting for a seat, the session stays auto-run, never parks, and
/// retires at its natural stop.
#[test]
fn step_on_an_auto_run_session_leaves_it_auto_run() {
    // One seat, one-decision slices: session 0 is dispatched again and
    // again while the grants land, session 1 waits for its seat.
    let cfg = ServeConfig { workers: 1, table_capacity: 1, slice_decisions: 1, ..Default::default() };
    let topo = build_topology(&specs(1)[0].task);
    let batch = serve(topo.clone(), specs(2), cfg.clone());

    let (open, events) = OpenServe::start(topo, cfg, 2);
    for spec in specs(2) {
        let id = open.submit(spec, None).expect("capacity for every submit");
        assert!(open.step(id, 1), "the session is open; the grant is accepted and ignored");
    }
    let report = open.finish();
    for (a, b) in batch.sessions.iter().zip(&report.sessions) {
        assert_eq!(b.stop, a.stop, "{}: natural stop, not Closed", b.name);
        assert_eq!(b.stats, a.stats, "{}", b.name);
    }
    assert!(
        events.try_iter().all(|ev| !matches!(ev, ServeEvent::Parked { .. })),
        "an auto-run session never parks"
    );
}

/// What an id answers in each state of its life — never submitted, waiting
/// for a seat, live, parked, retired and shed: `report` is `Some` exactly
/// once the session retired or was shed, and `step`, `set_learning` and
/// `close_session` accept a request exactly while it is open. A close
/// retires a parked session before it returns, and a waiting one when it is
/// seated, without running a decision.
#[test]
fn every_id_state_answers_the_control_protocol() {
    use psme_soar::StopReason;
    use std::time::Duration;
    // Two seats, a one-session waiting room, one worker.
    let cfg = ServeConfig { workers: 1, table_capacity: 2, admission_depth: 1, ..Default::default() };
    let spec = |name: &str, seed: u64| SessionSpec {
        name: name.into(),
        task: eight_puzzle(&scrambled(3, seed)),
        learning: false,
    };
    let topo = build_topology(&spec("n", 1).task);
    let natural = serve(topo.clone(), vec![spec("n", 1), spec("m", 2)], cfg.clone());
    assert!(natural.sessions.iter().all(|r| r.stats.decisions > 3), "grants below stay short");

    let (open, events) = OpenServe::start(topo, cfg, 8);
    let next = || events.recv_timeout(Duration::from_secs(60)).expect("the loop stalled");
    let closed = |id: u32| {
        open.report(id).is_none()
            && !open.step(id, 1)
            && !open.set_learning(id, true)
            && !open.close_session(id)
    };
    let answers_open = |id: u32| {
        open.report(id).is_none() && open.set_learning(id, true) && open.step(id, 1)
    };

    // Unsubmitted: no report, every request refused.
    assert!(closed(0), "an id not yet handed out");

    // Parked: both credited sessions take the seats and park.
    assert_eq!(open.submit(spec("parked", 1), Some(1)), Ok(0));
    assert_eq!(open.submit(spec("live", 2), Some(1)), Ok(1));
    let mut parked = Vec::new();
    while parked.len() < 2 {
        match next() {
            ServeEvent::Parked { id, decisions } => {
                assert_eq!(decisions, 1);
                parked.push(id);
            }
            ev => panic!("unexpected {ev:?}"),
        }
    }
    assert!(open.report(0).is_none() && open.set_learning(0, true), "parked is open");

    // Waiting, then shed: the third arrival waits; the fourth overflows the
    // waiting room and displaces it.
    assert_eq!(open.submit(spec("shed", 3), None), Ok(2));
    assert!(answers_open(2), "waiting is open; a grant on an auto-run session is accepted");
    assert_eq!(open.submit(spec("waiting", 4), None), Ok(3));
    assert_eq!(next(), ServeEvent::Shed { id: 2 });
    let shed = open.report(2).expect("a shed session has its report");
    assert!(shed.was_shed() && shed.name == "shed" && shed.stats.decisions == 0);
    assert!(!open.step(2, 1) && !open.set_learning(2, true) && !open.close_session(2));
    assert!(answers_open(3) && open.close_session(3), "a waiting session takes a close");

    // Live: a grant puts session 1 back in flight. It can park again before
    // a call lands, but never retires on its own (its grants stay short of
    // its natural length), so it answers as open until it is closed.
    assert!(open.step(1, 1));
    assert!(answers_open(1) && open.close_session(1), "a live session takes a close");

    // A close retires a parked session before it returns.
    assert!(open.close_session(0));
    let r0 = open.report(0).expect("closed while parked: retired at once");
    assert_eq!((r0.stop, r0.stats.decisions), (Some(StopReason::Closed), 1));

    // Retired: the report, and every request refused.
    let mut retired = Vec::new();
    while retired.len() < 3 {
        match next() {
            ServeEvent::Retired { id } => retired.push(id),
            ServeEvent::Parked { .. } => {}
            ev => panic!("unexpected {ev:?}"),
        }
    }
    retired.sort_unstable();
    assert_eq!(retired, [0, 1, 3]);
    for id in [0, 1, 3] {
        let r = open.report(id).expect("retired");
        assert_eq!(r.stop, Some(StopReason::Closed), "session {id}");
        assert!(!open.step(id, 1) && !open.set_learning(id, true) && !open.close_session(id));
    }
    assert!((1..=3).contains(&open.report(1).unwrap().stats.decisions), "every grant run, no more");
    assert_eq!(open.report(3).unwrap().stats.decisions, 0, "closed before its first slice");
    assert!(closed(4) && closed(100), "ids past the submitted ones stay unsubmitted");

    let report = open.finish();
    assert_eq!(report.sessions.len(), 4);
    assert_eq!(report.shed, 1);
}

/// `finish()` against a loop holding every kind of session at once: parked
/// on spent credit, in flight, re-enqueued by a grant a moment ago, still
/// waiting for a seat (credited and not), and auto-run. Every session
/// retires and the drain never hangs; a credited session runs exactly what
/// it was granted — every top-up `step` answered `true` to included,
/// wherever the close found the session — and retires `Closed` if that was
/// short of its natural stop; an auto-run one is untouched.
#[test]
fn finish_drains_parked_in_flight_and_waiting_sessions() {
    use std::time::Duration;
    let n = 12;
    let cfg = ServeConfig { workers: 2, table_capacity: 3, admission_depth: 16, ..Default::default() };
    let topo = build_topology(&specs(1)[0].task);
    let natural = serve(topo.clone(), specs(n), cfg.clone());
    for round in 0..40u64 {
        let grant = |i: usize| match i % 4 {
            0 => Some(1),
            1 => Some(3 + round % 5),
            2 => Some(50),
            _ => None,
        };
        let (open, events) = OpenServe::start(topo.clone(), cfg.clone(), n);
        let mut granted: Vec<Option<u64>> = (0..n).map(grant).collect();
        for (spec, &g) in specs(n).into_iter().zip(&granted) {
            open.submit(spec, g).expect("capacity for every submit");
        }
        // Let 0..=3 sessions park first (three seats, so three is all that
        // can), then top up the short grants wherever they are — parked, in
        // flight or waiting — and close the door on all of it.
        let (mut parked, mut retired) = (0, 0);
        while parked < round % 4 {
            match events.recv_timeout(Duration::from_secs(60)).expect("the loop stalled") {
                ServeEvent::Parked { .. } => parked += 1,
                ServeEvent::Retired { .. } => retired += 1,
                ServeEvent::Shed { .. } => panic!("round {round}: nothing is shed"),
            }
        }
        for i in (1..n).step_by(4) {
            if open.step(i as u32, 2) {
                granted[i] = granted[i].map(|g| g + 2);
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // The receiver gives up only by failing the test.
            let _ = tx.send(open.finish());
        });
        let report = rx.recv_timeout(Duration::from_secs(120)).expect("finish() hung");

        assert_eq!(report.sessions.len(), n, "round {round}");
        assert_eq!(report.shed, 0, "round {round}");
        for (i, (r, nat)) in report.sessions.iter().zip(&natural.sessions).enumerate() {
            let ctx = format!("round {round} session {i} ({:?})", granted[i]);
            match granted[i] {
                Some(g) if g < nat.stats.decisions => {
                    assert_eq!(r.stop, Some(psme_soar::StopReason::Closed), "{ctx}");
                    assert_eq!(r.stats.decisions, g, "{ctx}: every grant is run");
                }
                _ => {
                    assert_eq!(r.stop, nat.stop, "{ctx}");
                    assert_eq!(r.stats, nat.stats, "{ctx}");
                }
            }
        }
        retired += events.try_iter().filter(|ev| matches!(ev, ServeEvent::Retired { .. })).count();
        assert_eq!(retired, n, "round {round}: one Retired event per session");
    }
}
