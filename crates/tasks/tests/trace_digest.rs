//! The captured task streams of the three paper tasks, pinned by digest.
//!
//! A learning run on the serial engine with `capture = true` records every
//! task it executes. The digest covers every [`TaskRecord`] column except
//! `wall_ns` (the only one that is a measurement), plus each cycle's ordinal
//! and phase — so a change to the beta hot path that claims to keep the
//! match bit-identical (same tasks, same order, same parents, same memory
//! lines, same `scanned` / `hash_rejects` / `skipped` cost columns) is
//! checked against the stream itself, not against a count. The values below
//! were recorded before `memory.rs` / `process.rs` were folded onto one
//! entry type and one probe, and must not move when they are edited.
//!
//! One test, three runs in a fixed order: key hashes — hence memory lines
//! and the `scanned` / `hash_rejects` columns — depend on symbol ids, and
//! symbols are interned process-wide in first-use order. Run as separate
//! tests on parallel threads the streams differ from run to run in exactly
//! those columns (the task counts never do).

use psme_rete::{Phase, Side, TaskKind};
use psme_tasks::{
    cypress_sub, eight_puzzle, run_serial, scrambled, strips, CypressConfig, RunMode, StripsConfig,
};

/// Streaming FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What one captured run is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    digest: u64,
    tasks: u64,
    scanned: u64,
    hash_rejects: u64,
    skipped: u64,
}

fn pinned(task: &psme_soar::SoarTask) -> Pinned {
    let (_, engine) = run_serial(task, RunMode::DuringChunking, true);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut p = Pinned { digest: 0, tasks: 0, scanned: 0, hash_rejects: 0, skipped: 0 };
    // `Option` columns: 0 for `None`, value + 1 otherwise.
    let opt = |x: Option<u32>| x.map_or(0, |v| u64::from(v) + 1);
    for c in &engine.trace.cycles {
        h.word(c.cycle);
        h.word(match c.phase {
            Phase::Match => 0,
            Phase::Update => 1,
        });
        h.word(c.tasks.len() as u64);
        for t in &c.tasks {
            let kind = match t.kind {
                TaskKind::Alpha => 0,
                TaskKind::Join => 1,
                TaskKind::Neg => 2,
                TaskKind::Prod => 3,
            };
            let side = match t.side {
                None => 0,
                Some(Side::Left) => 1,
                Some(Side::Right) => 2,
            };
            for x in [
                u64::from(t.id),
                opt(t.parent),
                u64::from(t.node),
                kind,
                side,
                t.delta as u64,
                u64::from(t.work.scanned),
                u64::from(t.work.hash_rejects),
                u64::from(t.work.skipped),
                u64::from(t.work.probes),
                u64::from(t.work.emitted),
                opt(t.work.line),
            ] {
                h.word(x);
            }
            p.scanned += u64::from(t.work.scanned);
            p.hash_rejects += u64::from(t.work.hash_rejects);
            p.skipped += u64::from(t.work.skipped);
        }
    }
    p.digest = h.0;
    p.tasks = engine.trace.total_tasks();
    assert_eq!(p.tasks, engine.total_tasks(), "every executed task was captured");
    p
}

#[test]
fn task_streams_are_the_recorded_ones() {
    let got = [
        pinned(&eight_puzzle(&scrambled(12, 7))),
        pinned(&strips(&StripsConfig::default())),
        pinned(&cypress_sub(&CypressConfig { roots: 4 })),
    ];
    let want = [
        Pinned {
            digest: 5794278086588605275,
            tasks: 348_279,
            scanned: 205_152,
            hash_rejects: 29_275,
            skipped: 0,
        },
        Pinned { digest: 12322202845372360357, tasks: 3_792, scanned: 5_447, hash_rejects: 33, skipped: 0 },
        Pinned {
            digest: 7893103927529623569,
            tasks: 414_238,
            scanned: 165_903,
            hash_rejects: 21_376,
            skipped: 0,
        },
    ];
    assert_eq!(got, want, "eight-puzzle / strips / cypress task streams moved");
}
