//! Loopback gates: the wire adds a transport, not semantics.
//!
//! The flagship test is the **differential**: the same seeded session
//! batch served (a) in-process through batch [`serve`] and (b) over
//! loopback TCP through the framed protocol must produce bit-for-bit
//! identical results — the `Done` summaries (stop reason, every agent
//! counter, chunk names, `(write …)` output) compare equal both as
//! structs and as encoded wire bytes, under all three schedulers. The
//! rest cover the interactive protocol: hello negotiation, refusals,
//! credited stepping with mid-run learning toggles, closes, and
//! deterministic shed notifications.

use psme_core::Scheduler;
use psme_net::{AppDef, Client, Frame, NetServer, SessionSummary};
use psme_serve::{build_topology, serve, ServeConfig, SessionSpec};
use psme_tasks::{eight_puzzle, scrambled};
use std::collections::HashMap;
use std::time::Duration;

const MOVES: usize = 3;

fn puzzle_app() -> AppDef {
    AppDef::new("eight-puzzle", |seed| eight_puzzle(&scrambled(MOVES, seed)))
}

fn recv(client: &Client) -> Frame {
    client.recv_timeout(Duration::from_secs(120)).expect("server responds in time")
}

/// Serve the same seeded batch in-process and over TCP; every summary
/// must match bit-for-bit.
fn differential(scheduler: Scheduler) {
    let n = 6usize;
    let cfg = ServeConfig {
        workers: 2,
        scheduler,
        table_capacity: 4,
        admission_depth: 16,
        ..Default::default()
    };
    let mk_spec = |i: usize| SessionSpec {
        name: format!("diff-{i}"),
        task: eight_puzzle(&scrambled(MOVES, i as u64 * 17 + 3)),
        learning: i.is_multiple_of(2),
    };
    let specs: Vec<SessionSpec> = (0..n).map(mk_spec).collect();
    let topo = build_topology(&specs[0].task);
    let reference = serve(topo, specs, cfg.clone());
    assert_eq!(reference.shed, 0, "the differential batch must not shed");

    let server =
        NetServer::start("127.0.0.1:0", &cfg, vec![puzzle_app()], 64).expect("bind loopback");
    let client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let apps = client.hello("differential").expect("hello");
    assert_eq!(apps, vec!["eight-puzzle".to_string()]);
    for i in 0..n {
        client
            .send(&Frame::OpenSession {
                app: "eight-puzzle".into(),
                session: format!("diff-{i}"),
                seed: i as u64 * 17 + 3,
                learning: i.is_multiple_of(2),
                grant: None,
            })
            .expect("send open");
    }
    // Opened replies come back in request order; Done frames in
    // completion order.
    let mut ids: HashMap<u32, usize> = HashMap::new();
    let mut summaries: HashMap<usize, SessionSummary> = HashMap::new();
    let mut opened = 0usize;
    while summaries.len() < n {
        match recv(&client) {
            Frame::Opened { id } => {
                ids.insert(id, opened);
                opened += 1;
            }
            Frame::Done { id, summary } => {
                let i = ids[&id];
                summaries.insert(i, summary);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    for (i, wire) in &summaries {
        let local = SessionSummary::from_report(&reference.sessions[*i]);
        assert_eq!(wire, &local, "session {i} under {scheduler:?}");
        // Bit-for-bit: identical encodings, not just struct equality.
        let a = Frame::Done { id: 0, summary: wire.clone() }.encode();
        let b = Frame::Done { id: 0, summary: local }.encode();
        assert_eq!(a, b, "session {i} wire bytes under {scheduler:?}");
    }
    drop(client);
    let reports = server.finish();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].1.sessions.len(), n);
    assert_eq!(reports[0].1.shed, 0);
}

#[test]
fn tcp_matches_in_process_single_queue() {
    differential(Scheduler::SingleQueue);
}

#[test]
fn tcp_matches_in_process_multi_queue() {
    differential(Scheduler::MultiQueue);
}

#[test]
fn tcp_matches_in_process_work_stealing() {
    differential(Scheduler::WorkStealing);
}

/// Credited sessions park for more credit; `Learn` toggles chunking
/// mid-run over the wire; `CloseSession` retires with the `Closed` stop.
#[test]
fn credited_stepping_learning_toggle_and_close() {
    let cfg = ServeConfig { workers: 1, table_capacity: 4, ..Default::default() };
    let server =
        NetServer::start("127.0.0.1:0", &cfg, vec![puzzle_app()], 16).expect("bind loopback");
    let client = Client::connect(&server.local_addr().to_string()).expect("connect");
    client.hello("stepper").expect("hello");

    // Session A: stepped to completion with learning toggled on after the
    // first park.
    client
        .send(&Frame::OpenSession {
            app: "eight-puzzle".into(),
            session: "stepped".into(),
            seed: 5,
            learning: false,
            grant: Some(2),
        })
        .expect("open A");
    let a = match recv(&client) {
        Frame::Opened { id } => id,
        f => panic!("expected Opened, got {f:?}"),
    };
    let mut parks = 0u32;
    let mut last_decisions = 0u64;
    let summary = loop {
        match recv(&client) {
            Frame::Stepped { id, decisions } => {
                assert_eq!(id, a);
                assert!(
                    decisions > last_decisions,
                    "credit grants make progress: {decisions} after {last_decisions}"
                );
                last_decisions = decisions;
                parks += 1;
                if parks == 1 {
                    client.send(&Frame::Learn { id, enable: true }).expect("learn");
                }
                client.send(&Frame::Step { id, n: 8 }).expect("step");
            }
            Frame::Done { id, summary } => {
                assert_eq!(id, a);
                break summary;
            }
            f => panic!("unexpected frame {f:?}"),
        }
    };
    assert!(parks >= 1, "a 2-decision grant must park at least once");
    assert!(summary.stats.decisions > 2, "the session ran past its first grant");
    assert_ne!(summary.stop, psme_net::stop_code(psme_soar::StopReason::Closed));

    // Session B: parked, then closed — retires with the Closed stop.
    client
        .send(&Frame::OpenSession {
            app: "eight-puzzle".into(),
            session: "closed".into(),
            seed: 6,
            learning: false,
            grant: Some(1),
        })
        .expect("open B");
    let b = match recv(&client) {
        Frame::Opened { id } => id,
        f => panic!("expected Opened, got {f:?}"),
    };
    match recv(&client) {
        Frame::Stepped { id, .. } => assert_eq!(id, b),
        f => panic!("expected Stepped, got {f:?}"),
    }
    client.send(&Frame::CloseSession { id: b }).expect("close");
    match recv(&client) {
        Frame::Done { id, summary } => {
            assert_eq!(id, b);
            assert_eq!(summary.stop, psme_net::stop_code(psme_soar::StopReason::Closed));
        }
        f => panic!("expected Done, got {f:?}"),
    }
    drop(client);
    server.finish();
}

/// Admission backpressure over the wire: a parked session pins the only
/// table seat, the second arrival waits, and the third displaces it —
/// the client hears `SessionShed` for the oldest waiting session.
#[test]
fn shed_notification_reaches_the_client() {
    let cfg = ServeConfig {
        workers: 1,
        table_capacity: 1,
        admission_depth: 1,
        ..Default::default()
    };
    let server =
        NetServer::start("127.0.0.1:0", &cfg, vec![puzzle_app()], 16).expect("bind loopback");
    let client = Client::connect(&server.local_addr().to_string()).expect("connect");
    client.hello("shedder").expect("hello");
    let open = |name: &str, grant: Option<u64>| {
        client
            .send(&Frame::OpenSession {
                app: "eight-puzzle".into(),
                session: name.into(),
                seed: 1,
                learning: false,
                grant,
            })
            .expect("open");
        match recv(&client) {
            Frame::Opened { id } => id,
            f => panic!("expected Opened, got {f:?}"),
        }
    };
    // A takes the seat and parks (holding it).
    let a = open("seat-holder", Some(1));
    match recv(&client) {
        Frame::Stepped { id, .. } => assert_eq!(id, a),
        f => panic!("expected Stepped, got {f:?}"),
    }
    // B waits; C overflows the depth-1 backlog and displaces B.
    let b = open("waiter", None);
    let c = open("displacer", None);
    match recv(&client) {
        Frame::SessionShed { id } => assert_eq!(id, b, "shed-oldest displaces the first waiter"),
        f => panic!("expected SessionShed, got {f:?}"),
    }
    // Release A; it completes, then C is admitted and completes.
    client.send(&Frame::Step { id: a, n: 1000 }).expect("step");
    let mut done = Vec::new();
    while done.len() < 2 {
        match recv(&client) {
            Frame::Done { id, .. } => done.push(id),
            Frame::Stepped { id, .. } => {
                client.send(&Frame::Step { id, n: 1000 }).expect("re-step");
            }
            f => panic!("unexpected frame {f:?}"),
        }
    }
    assert!(done.contains(&a) && done.contains(&c));
    drop(client);
    let reports = server.finish();
    assert_eq!(reports[0].1.shed, 1);
}

/// An open burst resolves every offered session exactly once: opens fired
/// without waiting for replies (auto-run and credited mixed) at a table of
/// 2 whose seats two parked sessions pin, a waiting room of 2, and an id
/// space two short of the offer. Each id ends in exactly one of `Done` /
/// `SessionShed`, each refusal names its session once, nothing is left
/// over, and the server's report agrees with the client's ledger.
#[test]
fn a_burst_resolves_every_offered_session_exactly_once() {
    const OFFERED: usize = 20;
    const ID_SPACE: usize = OFFERED - 2;
    let cfg = ServeConfig {
        workers: 2,
        table_capacity: 2,
        admission_depth: 2,
        ..Default::default()
    };
    let server =
        NetServer::start("127.0.0.1:0", &cfg, vec![puzzle_app()], ID_SPACE).expect("bind loopback");
    let client = Client::connect(&server.local_addr().to_string()).expect("connect");
    client.hello("burst").expect("hello");
    let open = |i: usize, grant: Option<u64>| {
        client
            .send(&Frame::OpenSession {
                app: "eight-puzzle".into(),
                session: format!("burst-{i}"),
                seed: i as u64,
                learning: i.is_multiple_of(4),
                grant,
            })
            .expect("open");
    };
    // Two credited sessions take both seats and park on them.
    let mut opened = Vec::new();
    let mut parked = Vec::new();
    (0..2).for_each(|i| open(i, Some(1)));
    while parked.len() < 2 {
        match recv(&client) {
            Frame::Opened { id } => opened.push(id),
            Frame::Stepped { id, .. } => parked.push(id),
            f => panic!("unexpected frame {f:?}"),
        }
    }
    // The burst: every other session credited; nobody reads a reply until
    // all are sent. The seats are pinned, so the waiting room overflows.
    (2..OFFERED).for_each(|i| open(i, i.is_multiple_of(2).then_some(3)));
    for id in parked {
        client.send(&Frame::Step { id, n: 3 }).expect("step");
    }
    let mut resolved: HashMap<u32, &str> = HashMap::new();
    let mut refused: Vec<String> = Vec::new();
    while resolved.len() + refused.len() < OFFERED {
        let (id, how) = match recv(&client) {
            Frame::Opened { id } => {
                opened.push(id);
                continue;
            }
            Frame::Refused { session, .. } => {
                assert!(!refused.contains(&session), "{session} refused twice");
                refused.push(session);
                continue;
            }
            Frame::Stepped { id, .. } => {
                client.send(&Frame::Step { id, n: 3 }).expect("re-step");
                continue;
            }
            Frame::Done { id, .. } => (id, "done"),
            Frame::SessionShed { id } => (id, "shed"),
            f => panic!("unexpected frame {f:?}"),
        };
        assert!(opened.contains(&id), "session {id} resolved ({how}) before its Opened");
        if let Some(before) = resolved.insert(id, how) {
            panic!("session {id} resolved twice: {before}, then {how}");
        }
    }
    let count = |how: &str| resolved.values().filter(|&&h| h == how).count();
    let (done, shed) = (count("done"), count("shed"));
    assert_eq!(opened.len(), ID_SPACE, "every id of the space was handed out once");
    assert_eq!(refused.len(), OFFERED - ID_SPACE, "opens past the id space are refused");
    assert_eq!(done + shed + refused.len(), OFFERED);
    assert!(done > 0 && shed > 0, "the burst both serves and sheds: {done} done, {shed} shed");
    drop(client);
    let report = &server.finish()[0].1;
    assert_eq!(report.shed, shed);
    assert_eq!(report.sessions.len(), done + shed);
    assert_eq!(report.sessions.iter().filter(|r| !r.was_shed()).count(), done);
}

/// A client that says `Bye` after its session is `Done` sees the server
/// close the connection: nothing the server keeps per session holds the
/// socket open until `finish`.
#[test]
fn bye_after_done_closes_the_connection() {
    use psme_net::{read_frame, write_frame, WIRE_VERSION};
    use std::io::Read;
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let server =
        NetServer::start("127.0.0.1:0", &cfg, vec![puzzle_app()], 16).expect("bind loopback");
    let mut sock = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout");
    write_frame(&mut sock, &Frame::Hello { proto: WIRE_VERSION, client: "bye".into() })
        .expect("hello");
    write_frame(
        &mut sock,
        &Frame::OpenSession {
            app: "eight-puzzle".into(),
            session: "once".into(),
            seed: 1,
            learning: false,
            grant: None,
        },
    )
    .expect("open");
    let mut next = || read_frame(&mut sock).expect("frame").expect("not closed yet");
    assert!(matches!(next(), Frame::HelloOk { .. }));
    assert!(matches!(next(), Frame::Opened { .. }));
    assert!(matches!(next(), Frame::Done { .. }));
    write_frame(&mut sock, &Frame::Bye).expect("bye");
    sock.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut byte = [0u8; 1];
    match sock.read(&mut byte) {
        Ok(0) => {}
        other => panic!("expected the server to close the connection, got {other:?}"),
    }
    server.finish();
}

/// `finish` wakes the acceptor out of its blocking `accept` and joins it,
/// both when no client ever connected and while one is still connected.
/// A hang fails the test at the watchdog instead of stalling the suite.
#[test]
fn finish_joins_the_acceptor_with_and_without_a_client() {
    let finish_within = |server: NetServer| {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(server.finish()).expect("test waits"));
        rx.recv_timeout(Duration::from_secs(60)).expect("finish returned")
    };
    let cfg = ServeConfig { workers: 1, ..Default::default() };

    let idle = NetServer::start("127.0.0.1:0", &cfg, vec![puzzle_app()], 4).expect("bind loopback");
    let reports = finish_within(idle);
    assert!(reports[0].1.sessions.is_empty());

    let server =
        NetServer::start("127.0.0.1:0", &cfg, vec![puzzle_app()], 4).expect("bind loopback");
    let client = Client::connect(&server.local_addr().to_string()).expect("connect");
    client.hello("lingerer").expect("hello");
    let reports = finish_within(server);
    assert!(reports[0].1.sessions.is_empty());
    drop(client);
}

/// Refusals: version mismatch at hello, unknown app, duplicate name.
#[test]
fn refusals() {
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let server =
        NetServer::start("127.0.0.1:0", &cfg, vec![puzzle_app()], 16).expect("bind loopback");
    let addr = server.local_addr().to_string();

    // Wrong wire version: refused, connection dropped.
    let bad = Client::connect(&addr).expect("connect");
    bad.send(&Frame::Hello { proto: 999, client: "old".into() }).expect("send");
    match recv(&bad) {
        Frame::Refused { reason, .. } => assert!(reason.contains("version")),
        f => panic!("expected Refused, got {f:?}"),
    }
    drop(bad);

    let client = Client::connect(&addr).expect("connect");
    client.hello("refusals").expect("hello");
    client
        .send(&Frame::OpenSession {
            app: "no-such-app".into(),
            session: "x".into(),
            seed: 0,
            learning: false,
            grant: None,
        })
        .expect("send");
    match recv(&client) {
        Frame::Refused { session, reason } => {
            assert_eq!(session, "x");
            assert!(reason.contains("unknown app"));
        }
        f => panic!("expected Refused, got {f:?}"),
    }
    let mut opened = false;
    for _ in 0..2 {
        client
            .send(&Frame::OpenSession {
                app: "eight-puzzle".into(),
                session: "dup".into(),
                seed: 0,
                learning: false,
                grant: None,
            })
            .expect("send");
    }
    let mut refused = false;
    let mut pending = 2;
    while pending > 0 {
        match recv(&client) {
            Frame::Opened { .. } => {
                opened = true;
                pending -= 1;
            }
            Frame::Refused { session, reason } => {
                assert_eq!(session, "dup");
                assert!(reason.contains("duplicate"));
                refused = true;
                pending -= 1;
            }
            Frame::Done { .. } => {}
            f => panic!("unexpected frame {f:?}"),
        }
    }
    assert!(opened && refused, "one dup admitted, one refused");
    drop(client);
    server.finish();
}
