//! Property tests for the flight-recorder trace layer.
//!
//! The invariants the serving stack leans on: a ring is a *bounded* buffer
//! that drops oldest with exact accounting, per-worker sequence numbers
//! are gap-free across drains, a sealed merge is causally ordered, and the
//! Chrome export is strictly valid JSON (round-trips through our own
//! parser, which accepts nothing sloppy).

use proptest::prelude::*;
use psme_obs::{Json, TraceKind, TraceLog, TraceRing};
use std::time::Instant;

/// An arbitrary event-kind index → concrete kind, over every kind.
fn kind_of(ix: u8) -> TraceKind {
    TraceKind::ALL[ix as usize % TraceKind::ALL.len()]
}

proptest! {
    /// The ring never holds more than its capacity, and its accounting is
    /// exact: events retained + events dropped = events emitted, and the
    /// retained ones are precisely the newest `min(cap, emitted)` in
    /// emission order (drop-oldest).
    #[test]
    fn ring_is_bounded_with_exact_drop_oldest_accounting(
        cap in 1usize..40,
        emits in proptest::collection::vec((0u64..1_000_000, any::<u8>(), 0u32..16), 0..200),
    ) {
        let mut ring = TraceRing::new(3, cap, Instant::now());
        for (i, &(t, k, s)) in emits.iter().enumerate() {
            ring.emit_at(t, kind_of(k), s, i as u64, i as u64 + 1, 0);
            prop_assert!(ring.len() <= cap, "len {} > cap {}", ring.len(), cap);
        }
        let total = emits.len();
        prop_assert_eq!(ring.len(), total.min(cap));
        prop_assert_eq!(ring.dropped() as usize, total.saturating_sub(cap));
        let (events, dropped) = {
            let mut log = TraceLog::default();
            let d = ring.dropped();
            log.absorb(&mut ring);
            (log.events, d)
        };
        prop_assert_eq!(events.len() + dropped as usize, total);
        // Survivors are the *newest* suffix, in emission order, with the
        // sequence numbers they were assigned at emit time.
        let first_kept = total - events.len();
        for (off, ev) in events.iter().enumerate() {
            let i = first_kept + off;
            prop_assert_eq!(ev.seq, i as u64, "seq of survivor {}", off);
            prop_assert_eq!(ev.t_ns, emits[i].0);
            prop_assert_eq!(ev.kind, kind_of(emits[i].1));
            prop_assert_eq!(ev.session, emits[i].2);
        }
    }

    /// Sequence numbers keep counting across drains: draining the ring
    /// mid-stream never resets or duplicates a seq.
    #[test]
    fn seqs_survive_drains_gap_free(
        cap in 1usize..16,
        chunks in proptest::collection::vec(0usize..30, 1..8),
    ) {
        let mut ring = TraceRing::new(0, cap, Instant::now());
        let mut log = TraceLog::default();
        let mut emitted = 0u64;
        for chunk in &chunks {
            for _ in 0..*chunk {
                ring.emit_at(emitted, TraceKind::Enqueued, 1, 0, 0, 0);
                emitted += 1;
            }
            log.absorb(&mut ring);
        }
        log.seal();
        // Every emitted seq is either retained or accounted as dropped —
        // drains never lose, reset, or duplicate a sequence number.
        prop_assert_eq!(log.events.len() as u64 + log.dropped, emitted);
        for pair in log.events.windows(2) {
            prop_assert!(pair[1].seq > pair[0].seq, "dup or reorder after a drain");
        }
        if let Some(last) = log.events.last() {
            prop_assert!(last.seq < emitted);
        }
        // When the ring never overflowed, the stream is exactly gap-free.
        if log.dropped == 0 {
            for (i, ev) in log.events.iter().enumerate() {
                prop_assert_eq!(ev.seq, i as u64);
            }
        }
    }

    /// A merge of many workers' rings seals into (t, worker, seq) order,
    /// and each worker's subsequence is seq-gap-free when nothing dropped.
    #[test]
    fn merged_log_is_sorted_and_per_worker_gap_free(
        per_worker in proptest::collection::vec(
            proptest::collection::vec(0u64..10_000, 0..50), 1..6),
    ) {
        let origin = Instant::now();
        let mut log = TraceLog::default();
        for (w, times) in per_worker.iter().enumerate() {
            // Capacity covers everything: no drops, so no seq gaps.
            let mut ring = TraceRing::new(w as u32, times.len().max(1), origin);
            for &t in times {
                ring.emit_at(t, TraceKind::SliceEnd, w as u32, 0, 1, 5);
            }
            log.absorb(&mut ring);
        }
        log.seal();
        prop_assert!(log.is_sorted());
        prop_assert_eq!(log.dropped, 0);
        let total: usize = per_worker.iter().map(Vec::len).sum();
        prop_assert_eq!(log.events.len(), total);
        for (w, times) in per_worker.iter().enumerate() {
            let seqs: Vec<u64> = log
                .events
                .iter()
                .filter(|e| e.worker == w as u32)
                .map(|e| e.seq)
                .collect();
            prop_assert_eq!(seqs.len(), times.len());
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            let expect: Vec<u64> = (0..times.len() as u64).collect();
            prop_assert_eq!(sorted, expect, "worker {} seqs not gap-free", w);
        }
    }

    /// The Chrome export of an arbitrary merged trace round-trips through
    /// the strict parser: every event line is well-formed JSON and the
    /// envelope has the trace_event shape Perfetto expects.
    #[test]
    fn chrome_export_round_trips_strict_json(
        events in proptest::collection::vec(
            (0u64..1_000_000, 0u32..4, any::<u8>(), 0u32..8, 0u64..50_000), 0..120),
    ) {
        let origin = Instant::now();
        let mut rings: Vec<TraceRing> =
            (0..4).map(|w| TraceRing::new(w, events.len().max(1), origin)).collect();
        for &(t, w, k, s, arg) in &events {
            rings[w as usize].emit_at(t, kind_of(k), s, 0, 0, arg);
        }
        let mut log = TraceLog::default();
        for r in &mut rings {
            log.absorb(r);
        }
        log.seal();
        let text = log.chrome_json().to_string();
        let parsed = Json::parse(&text).expect("chrome export must be strict JSON");
        let evs = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // Every entry is an object with a one-char phase and a pid.
        for e in evs {
            let ph = e.get("ph").and_then(Json::as_str).expect("ph");
            prop_assert!(["M", "X", "i", "s", "f"].contains(&ph), "ph {:?}", ph);
            prop_assert!(e.get("pid").and_then(Json::as_u64).is_some());
        }
        // The compact run-trace artifact round-trips too.
        let artifact = log.to_json().to_string();
        prop_assert!(Json::parse(&artifact).is_ok());
        // Flow arrows are balanced: a finish ("f") only ever follows an
        // open start ("s") for that id.
        let mut open = std::collections::HashSet::new();
        for e in evs {
            match e.get("ph").and_then(Json::as_str) {
                Some("s") => {
                    let id = e.get("id").and_then(Json::as_u64).expect("flow id");
                    open.insert(id);
                }
                Some("f") => {
                    let id = e.get("id").and_then(Json::as_u64).expect("flow id");
                    prop_assert!(open.contains(&id), "f without s for id {}", id);
                }
                _ => {}
            }
        }
    }
}

/// Deterministic replay: the same event sequence always produces the same
/// export bytes (no wall clock, no hash-order dependence).
#[test]
fn export_is_a_pure_function_of_the_events() {
    let build = || {
        let origin = Instant::now();
        let mut ring = TraceRing::new(0, 64, origin);
        for i in 0..32u64 {
            ring.emit_at(i * 100, TraceKind::SliceEnd, (i % 3) as u32, i, i + 1, 40);
        }
        let mut log = TraceLog::default();
        log.absorb(&mut ring);
        log.seal();
        log
    };
    let a = build();
    let b = build();
    assert_eq!(a.events, b.events);
    assert_eq!(a.chrome_json().to_string(), b.chrome_json().to_string());
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());
}
