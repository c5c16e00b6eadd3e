//! Snapshot/restore properties for the engine-level op journal.
//!
//! A hibernated session must restore to *exactly* the live state — same
//! working memory, same token memories, same overlay, same conflict set —
//! over any interleaving of wme adds, removes and run-time chunk additions,
//! under both network organizations. And snapshot bytes from outside
//! (truncated, bit-flipped, wrong version, trailing garbage) must be
//! rejected with a typed [`SnapshotError`] — never a panic, never a
//! silently wrong session. Bytes that pass the checksum but were altered
//! before sealing reach the decoder's own tag, count and UTF-8 checks and
//! then replay; those end in `Ok` or a typed error too.

use proptest::prelude::*;
use psme_rete::testgen::{random_system, GenConfig, XorShift};
use psme_rete::{
    open_frame, plan_bilinear, seal_frame, session_digest, Journal, JournaledSession, NetworkOrg,
    ReteBuild, ReteNetwork, SnapOp, SnapshotError, Topology, JOURNAL_MAGIC, JOURNAL_VERSION,
};
use psme_ops::{Production, WmeId};
use std::sync::Arc;

fn org_linear(_: &Production) -> NetworkOrg {
    NetworkOrg::Linear
}

fn org_bilinear(p: &Production) -> NetworkOrg {
    match plan_bilinear(p, 1) {
        Some(groups) if groups.len() >= 2 => NetworkOrg::Bilinear(groups),
        _ => NetworkOrg::Linear,
    }
}

/// Build a frozen base from the first half of a generated system and a
/// journaled session over it; the second half plays run-time chunks.
fn setup(
    seed: u64,
    org: &dyn Fn(&Production) -> NetworkOrg,
) -> (psme_rete::testgen::GeneratedSystem, Arc<Topology>, Vec<Production>, JournaledSession) {
    let sys = random_system(seed, GenConfig::default());
    let (base, chunks) = sys.productions.split_at(sys.productions.len() / 2);
    let mut net = ReteNetwork::new();
    for p in base {
        net.add_production(Arc::new(p.clone()), org(p)).unwrap();
    }
    let topo = Topology::freeze(net);
    let sess = JournaledSession::fresh(topo.clone(), true);
    let chunks = chunks.to_vec();
    (sys, topo, chunks, sess)
}

/// Drive one scripted op against the session: add (biased), remove a live
/// wme, or compile the next pending chunk into the overlay.
fn apply_op(
    sess: &mut JournaledSession,
    sys: &psme_rete::testgen::GeneratedSystem,
    rng: &mut XorShift,
    chunks: &mut Vec<Production>,
    org: &dyn Fn(&Production) -> NetworkOrg,
    op: u8,
) {
    match op {
        0..=3 => {
            let w = sys.random_wme(rng);
            sess.apply_changes(vec![w], vec![]);
        }
        4..=5 => {
            let alive: Vec<WmeId> =
                sess.eng.state.store.iter_alive().map(|(id, _)| id).collect();
            if !alive.is_empty() {
                let id = alive[rng.below(alive.len())];
                sess.apply_changes(vec![], vec![id]);
            }
        }
        _ => {
            if !chunks.is_empty() {
                let c = chunks.remove(0);
                let o = org(&c);
                let _ = sess.add_production(Arc::new(c), o);
            }
        }
    }
}

/// The round-trip property: snapshot mid-run, restore, compare digests
/// (bit-for-bit structural equality), then drive both live and restored
/// sessions through an identical tail and compare again.
fn round_trip(seed: u64, script: &[u8], tail: &[u8], org: &dyn Fn(&Production) -> NetworkOrg) {
    let (sys, topo, mut chunks, mut live) = setup(seed, org);
    let mut rng = XorShift::new(seed ^ 0x5AAF_E77E);
    for &op in script {
        apply_op(&mut live, &sys, &mut rng, &mut chunks, org, op);
    }

    let bytes = live.journal().expect("journaled").encode(&sys.classes);
    let mut reg = sys.classes.clone();
    let journal = Journal::decode(&bytes, &mut reg).expect("own bytes decode");
    let mut restored = JournaledSession::resume(topo, journal).expect("own journal replays");

    assert_eq!(
        session_digest(&live.eng),
        session_digest(&restored.eng),
        "seed {seed}: restored session differs from live"
    );
    // Re-encoding the restored session reproduces the identical snapshot.
    assert_eq!(
        restored.journal().expect("journaled").encode(&sys.classes),
        bytes,
        "seed {seed}: restored journal re-encodes differently"
    );

    // Both continue identically: same ops, same rng stream, same digests.
    let mut rng_a = XorShift::new(seed ^ 0x7A17);
    let mut rng_b = XorShift::new(seed ^ 0x7A17);
    let mut chunks_a = chunks.clone();
    let mut chunks_b = chunks;
    for &op in tail {
        apply_op(&mut live, &sys, &mut rng_a, &mut chunks_a, org, op);
        apply_op(&mut restored, &sys, &mut rng_b, &mut chunks_b, org, op);
    }
    assert_eq!(
        session_digest(&live.eng),
        session_digest(&restored.eng),
        "seed {seed}: live and restored diverged after resume"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Linear organization: snapshot→restore is bit-for-bit over random
    /// add/remove/chunk interleavings, and the restored session tracks the
    /// live one through further mutations.
    #[test]
    fn round_trip_linear(
        seed in 0u64..10_000,
        script in prop::collection::vec(0u8..7, 1..24),
        tail in prop::collection::vec(0u8..7, 0..10),
    ) {
        round_trip(seed, &script, &tail, &org_linear);
    }

    /// Bilinear organization: different share points and splice patterns,
    /// same property.
    #[test]
    fn round_trip_bilinear(
        seed in 0u64..10_000,
        script in prop::collection::vec(0u8..7, 1..24),
        tail in prop::collection::vec(0u8..7, 0..10),
    ) {
        round_trip(seed, &script, &tail, &org_bilinear);
    }

    /// Any single bit flip anywhere in a snapshot is rejected with a typed
    /// error — the checksum (or a structural check behind it) always
    /// notices, and nothing panics.
    #[test]
    fn corrupted_snapshots_are_typed_errors(
        seed in 0u64..10_000,
        script in prop::collection::vec(0u8..7, 1..16),
        flip_pos in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let (sys, _topo, mut chunks, mut live) = setup(seed, &org_linear);
        let mut rng = XorShift::new(seed ^ 0xC0FF);
        for &op in &script {
            apply_op(&mut live, &sys, &mut rng, &mut chunks, &org_linear, op);
        }
        let bytes = live.journal().unwrap().encode(&sys.classes);
        let mut bad = bytes.clone();
        let pos = flip_pos % bad.len();
        bad[pos] ^= 1 << flip_bit;
        let mut reg = sys.classes.clone();
        prop_assert!(
            Journal::decode(&bad, &mut reg).is_err(),
            "flip at byte {pos} bit {flip_bit} decoded"
        );
    }

    /// Payload bytes altered and then re-sealed pass the checksum, so the
    /// decoder's structural checks and replay's own checks are what stand
    /// between them and the engine: decode and replay end in `Ok` or a
    /// typed error, never a panic.
    #[test]
    fn resealed_corruption_is_a_typed_error_or_replays(
        seed in 0u64..10_000,
        script in prop::collection::vec(0u8..7, 1..16),
        edits in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4),
    ) {
        let (sys, topo, mut chunks, mut live) = setup(seed, &org_linear);
        let mut rng = XorShift::new(seed ^ 0x5E1);
        for &op in &script {
            apply_op(&mut live, &sys, &mut rng, &mut chunks, &org_linear, op);
        }
        let bytes = live.journal().unwrap().encode(&sys.classes);
        let mut payload = open_frame(&bytes, JOURNAL_MAGIC, JOURNAL_VERSION).unwrap().to_vec();
        for &(pos, mask) in &edits {
            let at = pos % payload.len();
            payload[at] ^= mask;
        }
        let resealed = seal_frame(JOURNAL_MAGIC, JOURNAL_VERSION, payload);
        let mut reg = sys.classes.clone();
        if let Ok(journal) = Journal::decode(&resealed, &mut reg) {
            let _ = journal.replay(topo);
        }
    }

    /// Every strict prefix of a snapshot is rejected as truncated (or by a
    /// downstream typed check) — never a panic.
    #[test]
    fn truncated_snapshots_are_typed_errors(
        seed in 0u64..10_000,
        script in prop::collection::vec(0u8..7, 1..12),
        cut in any::<usize>(),
    ) {
        let (sys, _topo, mut chunks, mut live) = setup(seed, &org_linear);
        let mut rng = XorShift::new(seed ^ 0x7123);
        for &op in &script {
            apply_op(&mut live, &sys, &mut rng, &mut chunks, &org_linear, op);
        }
        let bytes = live.journal().unwrap().encode(&sys.classes);
        let cut = cut % bytes.len(); // strict prefix: 0..len
        let mut reg = sys.classes.clone();
        prop_assert!(Journal::decode(&bytes[..cut], &mut reg).is_err());
    }
}

#[test]
fn wrong_version_and_magic_are_specific_errors() {
    let (sys, _topo, _chunks, mut live) = setup(42, &org_linear);
    live.apply_changes(vec![sys.random_wme(&mut XorShift::new(1))], vec![]);
    let bytes = live.journal().unwrap().encode(&sys.classes);

    let mut wrong_version = bytes.clone();
    wrong_version[4] = 0xEE; // version field (little-endian u32 after magic)
    let mut reg = sys.classes.clone();
    assert!(matches!(
        Journal::decode(&wrong_version, &mut reg),
        Err(SnapshotError::UnsupportedVersion(_))
    ));

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        Journal::decode(&wrong_magic, &mut reg),
        Err(SnapshotError::BadMagic)
    ));

    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(Journal::decode(&trailing, &mut reg).is_err(), "trailing garbage rejected");
}

/// Replaying a journal against a topology it was not recorded over is a
/// typed replay error, not a silently wrong session.
#[test]
fn replay_against_a_different_base_fails_or_is_caught() {
    let (sys_a, _topo_a, _ca, mut live) = setup(7, &org_linear);
    let mut rng = XorShift::new(99);
    for _ in 0..6 {
        live.apply_changes(vec![sys_a.random_wme(&mut rng)], vec![]);
    }
    // Chunk addition journals an AddProd whose replay must succeed against
    // the same base; against an empty base the production may still
    // compile, so the guarantee under test is narrower: decode+replay
    // never panics, and errors are typed.
    let bytes = live.journal().unwrap().encode(&sys_a.classes);
    let empty = Topology::freeze(ReteNetwork::new());
    let mut reg = sys_a.classes.clone();
    let journal = Journal::decode(&bytes, &mut reg).unwrap();
    match JournaledSession::resume(empty, journal) {
        Ok(sess) => {
            // WM-only journals replay fine against any base.
            assert!(sess.eng.state.store.live_count() > 0);
        }
        Err(e) => {
            assert!(matches!(e, SnapshotError::Replay(_)), "unexpected error kind: {e}");
        }
    }
}

/// A sealed journal whose run names a wme id the store never assigned is a
/// typed replay error, raised before the engine is touched.
#[test]
fn replay_of_an_unassigned_wme_id_is_a_typed_error() {
    let (_sys, topo, _chunks, _live) = setup(3, &org_linear);
    let j = Journal { ops: vec![SnapOp::RunChanges { changes: vec![(WmeId(99), 1)] }] };
    match j.replay(topo) {
        Err(SnapshotError::Replay(why)) => assert!(why.starts_with("op 0"), "{why}"),
        other => panic!("expected a replay error, got {other:?}"),
    }
}

/// A sealed journal that reorganizes a production index past the network
/// is a typed replay error, raised before the engine is touched.
#[test]
fn replay_of_an_unknown_production_index_is_a_typed_error() {
    let (sys, topo, _chunks, _live) = setup(3, &org_linear);
    let mut rng = XorShift::new(5);
    let wme = sys.random_wme(&mut rng);
    let j = Journal {
        ops: vec![
            SnapOp::AddWme { wme, id: WmeId(0) },
            SnapOp::Reorg { prod_idx: 9999, org: NetworkOrg::Linear },
        ],
    };
    match j.replay(topo) {
        Err(SnapshotError::Replay(why)) => assert!(why.starts_with("op 1"), "{why}"),
        other => panic!("expected a replay error, got {other:?}"),
    }
}

/// A sealed journal that feeds one wme into the match twice is a typed
/// replay error: each wme enters the match once and leaves it at most once.
#[test]
fn replay_of_an_out_of_turn_change_is_a_typed_error() {
    let (sys, topo, _chunks, _live) = setup(3, &org_linear);
    let wme = sys.random_wme(&mut XorShift::new(5));
    let j = Journal {
        ops: vec![
            SnapOp::AddWme { wme, id: WmeId(0) },
            SnapOp::RunChanges { changes: vec![(WmeId(0), 1)] },
            SnapOp::RunChanges { changes: vec![(WmeId(0), 1)] },
        ],
    };
    match j.replay(topo) {
        Err(SnapshotError::Replay(why)) => assert!(why.starts_with("op 2"), "{why}"),
        other => panic!("expected a replay error, got {other:?}"),
    }
}
