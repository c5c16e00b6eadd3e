//! Flight-recorder gates for the serving layer.
//!
//! Tracing is on by default; these tests pin down what the run log and the
//! anomaly detector actually deliver: a seeded overload *deterministically*
//! produces a flight dump holding the shed events, slice events tile each
//! session's decision cycles exactly, disabling tracing leaves zero
//! residue, and the Chrome export is strictly parseable.

use psme_core::Scheduler;
use psme_obs::{DumpTrigger, Json, TraceConfig, TraceKind};
use psme_serve::{build_topology, serve, ServeConfig, ServeReport, SessionSpec};
use psme_tasks::{eight_puzzle, scrambled};

fn spec(seed: u64, moves: usize) -> SessionSpec {
    SessionSpec {
        name: format!("t{seed}-{moves}"),
        task: eight_puzzle(&scrambled(moves, seed)),
        learning: false,
    }
}

/// A batch that overloads a 2-slot table with a 1-deep admission queue:
/// sessions 2..5 are the oldest overflow and are shed at staging.
fn overloaded(trace: TraceConfig) -> ServeReport {
    let specs: Vec<SessionSpec> = (0..6).map(|seed| spec(seed + 300, 2)).collect();
    let topo = build_topology(&specs[0].task);
    serve(
        topo,
        specs,
        ServeConfig {
            workers: 2,
            scheduler: Scheduler::WorkStealing,
            table_capacity: 2,
            admission_depth: 1,
            trace,
            ..Default::default()
        },
    )
}

#[test]
fn seeded_overload_dumps_shed_flight_deterministically() {
    let run = || overloaded(TraceConfig::default());
    let a = run();
    assert_eq!(a.shed, 3, "depth 1 over a 2-slot table sheds the 3 oldest overflow");
    // Every shed fired the detector and produced a dump whose window
    // contains the shed event itself.
    let shed_sessions: Vec<u32> = a
        .flight
        .dumps
        .iter()
        .filter_map(|d| match d.trigger {
            DumpTrigger::Shed { session } => Some(session),
            _ => None,
        })
        .collect();
    assert_eq!(shed_sessions, vec![2, 3, 4], "oldest overflow, in order");
    assert!(a.flight.triggers >= 3);
    for d in &a.flight.dumps {
        if let DumpTrigger::Shed { session } = d.trigger {
            assert!(
                d.events.iter().any(|e| e.kind == TraceKind::Shed && e.session == session),
                "dump window holds its own shed event"
            );
        }
    }
    // Shed events come from the control ring at staging — before any
    // worker runs — so the dump sequence is a pure function of the batch:
    // a second run produces the same triggers and the same windows
    // (modulo wall-clock timestamps).
    // (Tail-latency dumps depend on wall-clock timings, so the signature
    // covers the shed dumps only.)
    let b = run();
    let sig = |r: &ServeReport| {
        r.flight
            .dumps
            .iter()
            .filter(|d| matches!(d.trigger, DumpTrigger::Shed { .. }))
            .map(|d| {
                (
                    d.trigger,
                    d.events.iter().map(|e| (e.kind, e.session)).collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(sig(&a), sig(&b));
}

/// The shed set of a batch is what staging it by arithmetic gives — per
/// shard, the first `cap_s` members are seated, the newest `depth_s` of the
/// rest wait, and the overflow between them is shed — although every spec
/// now goes through the loop's one admission function. Two shards with a
/// crafted partition, so each shard's slice of the budgets is exercised.
#[test]
fn sharded_overload_sheds_what_staging_arithmetic_predicts() {
    use psme_serve::{ShardConfig, ShardRouter};
    let map: Vec<u32> = vec![0, 0, 0, 0, 1, 1, 1, 0];
    let (cap_s, depth_s) = (1, 1); // table 2 and depth 2 over 2 shards
    let mut predicted: Vec<u32> = Vec::new();
    for shard in 0..2 {
        let members: Vec<u32> = (0..map.len() as u32).filter(|&i| map[i as usize] == shard).collect();
        let overflow = &members[cap_s.min(members.len())..];
        predicted.extend(&overflow[..overflow.len().saturating_sub(depth_s)]);
    }
    predicted.sort_unstable();
    assert_eq!(predicted, vec![1, 2, 3, 5]);

    let run = || {
        let specs: Vec<SessionSpec> = (0..8).map(|seed| spec(seed + 500, 2)).collect();
        let topo = build_topology(&specs[0].task);
        serve(
            topo,
            specs,
            ServeConfig {
                workers: 1,
                table_capacity: 2,
                admission_depth: 2,
                shard: ShardConfig {
                    shards: 2,
                    router: ShardRouter::Explicit(map.clone()),
                    steal: true,
                },
                ..Default::default()
            },
        )
    };
    // Shed events in trace order: the order admission shed them in.
    let shed_seq = |r: &ServeReport| -> Vec<u32> {
        r.trace.events.iter().filter(|e| e.kind == TraceKind::Shed).map(|e| e.session).collect()
    };
    let (a, b) = (run(), run());
    assert_eq!(shed_seq(&a), shed_seq(&b), "a pure function of the batch");
    for r in [&a, &b] {
        let shed: Vec<u32> =
            (0..8).filter(|&i| r.sessions[i as usize].was_shed()).collect();
        assert_eq!(shed, predicted);
        let mut traced = shed_seq(r);
        traced.sort_unstable();
        assert_eq!(traced, predicted, "one Shed event per shed session");
        assert_eq!(r.shards.iter().map(|s| s.shed).collect::<Vec<_>>(), vec![3, 1]);
        assert!(r.sessions.iter().filter(|s| !s.was_shed()).all(|s| s.stop.is_some()));
    }
}

#[test]
fn slice_events_tile_every_sessions_decisions() {
    let specs: Vec<SessionSpec> = (0..4).map(|seed| spec(seed + 400, 3)).collect();
    let topo = build_topology(&specs[0].task);
    let report = serve(
        topo,
        specs,
        ServeConfig { workers: 2, table_capacity: 4, ..Default::default() },
    );
    assert_eq!(report.shed, 0);
    assert!(report.trace.is_sorted());
    assert_eq!(report.trace.dropped, 0, "default ring cap covers this batch");
    for (idx, sr) in report.sessions.iter().enumerate() {
        // A session's slices never overlap (exclusive slot ownership), so
        // its SliceEnd events in sealed order chain lo → hi exactly over
        // 0..decisions.
        let slices: Vec<_> = report
            .trace
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::SliceEnd && e.session == idx as u32)
            .collect();
        assert!(!slices.is_empty(), "session {idx} ran at least one slice");
        assert_eq!(slices.len() as u64, sr.telemetry.slices, "one SliceEnd per dispatch");
        assert_eq!(slices[0].cycle_lo, 0, "first slice starts at decision 0");
        for pair in slices.windows(2) {
            assert_eq!(pair[1].cycle_lo, pair[0].cycle_hi, "session {idx}: contiguous slices");
        }
        assert_eq!(
            slices.last().expect("nonempty").cycle_hi,
            sr.stats.decisions,
            "session {idx}: slices cover every decision"
        );
        // Lifecycle bookends: one Enqueued, one Retired.
        let count = |k: TraceKind| {
            report
                .trace
                .events
                .iter()
                .filter(|e| e.kind == k && e.session == idx as u32)
                .count()
        };
        assert_eq!(count(TraceKind::Enqueued), 1);
        assert_eq!(count(TraceKind::Retired), 1);
        assert_eq!(count(TraceKind::Reenqueued), slices.len() - 1);
    }
}

#[test]
fn disabling_tracing_leaves_no_residue() {
    let report = overloaded(TraceConfig::disabled());
    assert_eq!(report.shed, 3, "shedding is admission policy, not tracing");
    assert!(report.trace.events.is_empty());
    assert_eq!(report.trace.dropped, 0);
    assert_eq!(report.flight.triggers, 0, "no events, nothing to detect");
    assert!(report.flight.dumps.is_empty());
    // The sessions themselves are untouched by the switch.
    assert!(report.sessions.iter().filter(|s| !s.was_shed()).all(|s| s.stop.is_some()));
}

#[test]
fn chrome_export_parses_and_covers_worker_tracks() {
    let report = overloaded(TraceConfig::default());
    let text = report.trace.chrome_json().to_string();
    let parsed = Json::parse(&text).expect("strict JSON");
    let evs = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    // Worker thread metadata for both workers plus the control track.
    let threads: Vec<u64> = evs
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(1))
        .filter_map(|e| e.get("tid").and_then(Json::as_u64))
        .collect();
    assert!(threads.len() >= 3, "2 workers + control, got {threads:?}");
    // Complete events carry microsecond durations for real slices.
    assert!(
        evs.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("X")),
        "slice spans present"
    );
    // The full report artifact (which embeds trace summary counts) still
    // serializes to strict JSON too.
    assert!(Json::parse(&report.to_json().to_string()).is_ok());
}
