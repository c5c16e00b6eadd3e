//! Golden digests of the four binary formats: a rete journal (`PSNJ`), an
//! agent shell, and one wire frame (`PSMN`) of every variant. Each digest is
//! `fnv1a64` of the complete encoded bytes, so any change to a tag, a field
//! order, a length prefix, a sort order or a format version shows here. The
//! session frame (`PSNS`) is pinned by a unit test in `psme-serve`, whose
//! `Session` is crate-private.
//!
//! ONE test, on purpose: symbols are interned process-wide in first-use
//! order, so the three sections run in a fixed order in one thread.

use psme_net::{Frame, SessionSummary, WIRE_VERSION};
use psme_ops::{intern, parse_program, parse_wme, ClassRegistry, WmeId};
use psme_rete::snapshot::ByteWriter;
use psme_rete::testgen::{random_system, GenConfig, XorShift};
use psme_rete::{
    fnv1a64, plan_bilinear, JournaledSession, NetworkOrg, ReteBuild, ReteNetwork, SerialEngine,
    Topology, JOURNAL_VERSION,
};
use psme_soar::{
    declare_arch_classes, encode_shell, Agent, AgentStats, Provenance, SoarTask, StopReason,
};
use std::sync::Arc;

include!("../../soar/tests/fixtures/fruit_task.rs");

/// A journal over a generated system: the first half of its productions is
/// the frozen base; the script adds, removes and matches wmes, compiles two
/// run-time chunks and rebuilds one base production bilinearly.
fn journal_bytes() -> Vec<u8> {
    let sys = random_system(11, GenConfig::default());
    let (base, chunks) = sys.productions.split_at(sys.productions.len() / 2);
    let mut net = ReteNetwork::new();
    for p in base {
        net.add_production(Arc::new(p.clone()), NetworkOrg::Linear).unwrap();
    }
    let topo = Topology::freeze(net);
    let mut sess = JournaledSession::fresh(topo, true);
    let mut rng = XorShift::new(0x60_1D);
    let mut chunks = chunks.iter();
    for step in 0..24 {
        match step % 6 {
            0..=2 => {
                let adds = (0..4).map(|_| sys.random_wme(&mut rng)).collect();
                sess.apply_changes(adds, vec![]);
            }
            3 => {
                let alive: Vec<_> = sess.eng.state.store.iter_alive().map(|(id, _)| id).collect();
                let id = alive[rng.below(alive.len())];
                assert!(sess.remove_wme(id));
                sess.run_changes(vec![(id, -1)]);
            }
            4 if step < 12 => {
                let c = chunks.next().expect("a pending chunk");
                sess.add_production(Arc::new(c.clone()), NetworkOrg::Linear).unwrap();
            }
            _ => {
                let adds = vec![sys.random_wme(&mut rng)];
                sess.apply_changes(adds, vec![]);
            }
        }
    }
    let (idx, groups) = base
        .iter()
        .enumerate()
        .find_map(|(i, p)| plan_bilinear(p, 1).filter(|g| g.len() >= 2).map(|g| (i, g)))
        .expect("a base production splits bilinearly");
    sess.reorganize_production(idx as u32, NetworkOrg::Bilinear(groups)).unwrap();
    sess.apply_changes(vec![sys.random_wme(&mut rng)], vec![]);
    let journal = sess.journal().unwrap();
    assert!(journal.ops.iter().any(|op| matches!(op, psme_rete::SnapOp::Reorg { .. })));
    assert!(journal.ops.iter().any(|op| matches!(op, psme_rete::SnapOp::AddProd { .. })));
    journal.encode(&sys.classes)
}

/// The fruit task's shell after `decisions` decisions (learning on).
fn shell_bytes(decisions: u64) -> Vec<u8> {
    let task = fruit_task();
    let mut scratch = Agent::new(SerialEngine::new(ReteNetwork::new()), task.classes.clone());
    task.install_productions(&mut scratch);
    let (net, _) = scratch.engine.into_parts();
    let topo = Topology::freeze(net);
    let mut agent = Agent::new(JournaledSession::fresh(topo, true), task.classes.clone());
    agent.learning = true;
    task.install_adopted(&mut agent);
    agent.run(decisions);
    let mut w = ByteWriter::new();
    encode_shell(&agent, &mut w);
    w.into_inner()
}

/// A shell over a ledger filled in by hand — levels, provenance,
/// identifiers and pins, no run — so the shell's layout is pinned apart
/// from what a run leaves in the ledger.
fn hand_built_shell_bytes() -> Vec<u8> {
    let task = fruit_task();
    let mut agent = Agent::new(SerialEngine::new(ReteNetwork::new()), task.classes.clone());
    let book = &mut agent.book;
    for (id, level) in [(0, 0), (1, 1), (2, 2), (3, 0), (7, 1)] {
        book.wme_level.insert(WmeId(id), level);
    }
    book.provenance.insert(WmeId(1), Provenance::Arch { sources: vec![WmeId(0)] });
    book.provenance.insert(
        WmeId(2),
        Provenance::Fired { matched: vec![WmeId(0), WmeId(1)], prod: intern("golden-fire") },
    );
    book.provenance.insert(WmeId(3), Provenance::Arch { sources: vec![] });
    book.provenance.insert(WmeId(7), Provenance::Fired { matched: vec![WmeId(2)], prod: intern("golden-fire") });
    book.note_new_object(intern("g*0001"), 0);
    book.note_new_object(intern("x*0002"), 2);
    book.obj_level.insert(intern("x*0002"), 1);
    book.register_identifier(intern("golden-b1"));
    book.pinned.extend([WmeId(0), WmeId(3)]);
    let mut w = ByteWriter::new();
    encode_shell(&agent, &mut w);
    w.into_inner()
}

/// One frame of every variant, with every optional and list field filled,
/// then an `OpenSession` without a grant.
fn frames() -> Vec<Frame> {
    vec![
        Frame::Hello { proto: WIRE_VERSION, client: "golden".into() },
        Frame::OpenSession {
            app: "eight-puzzle".into(),
            session: "s-1".into(),
            seed: 0x0123_4567_89ab_cdef,
            learning: true,
            grant: Some(40),
        },
        Frame::Step { id: (1 << 24) | 7, n: 12 },
        Frame::Learn { id: 7, enable: false },
        Frame::CloseSession { id: 9 },
        Frame::Bye,
        Frame::HelloOk {
            proto: WIRE_VERSION,
            server: "psme".into(),
            apps: vec!["eight-puzzle".into(), "strips".into(), "cypress".into()],
        },
        Frame::Opened { id: 3 },
        Frame::Refused { session: "s-2".into(), reason: "duplicate session name".into() },
        Frame::Stepped { id: 3, decisions: 99 },
        Frame::SessionShed { id: 4 },
        Frame::Done {
            id: 5,
            summary: SessionSummary {
                name: "s-5".into(),
                stop: psme_net::stop_code(StopReason::DecisionLimit),
                stats: AgentStats {
                    decisions: 1,
                    elaboration_cycles: 2,
                    impasses: 3,
                    chunks_built: 4,
                    firings: 5,
                    wme_adds: 6,
                    wme_removes: 7,
                    update_tasks: 8,
                    reorganizations: 9,
                },
                chunk_names: vec!["chunk*1".into(), "chunk*2".into()],
                output: vec!["took 7".into()],
            },
        },
        Frame::OpenSession {
            app: "strips".into(),
            session: "s-6".into(),
            seed: 6,
            learning: false,
            grant: None,
        },
    ]
}

#[test]
fn formats_are_byte_stable() {
    assert_eq!(JOURNAL_VERSION, 1);
    assert_eq!(WIRE_VERSION, 2);
    let got_journal = fnv1a64(&journal_bytes());
    let got_mid = fnv1a64(&shell_bytes(3));
    let got_end = fnv1a64(&shell_bytes(50));
    let got_hand = fnv1a64(&hand_built_shell_bytes());
    let got_frames: Vec<u64> = frames().iter().map(|f| fnv1a64(&f.encode())).collect();
    assert_eq!(got_journal, 0xf477_1163_d677_341d, "PSNJ journal");
    assert_eq!(got_mid, 0x3da1_c6ce_8f66_1975, "shell mid-run, past the tie");
    assert_eq!(got_end, 0x6b7f_aaf9_9663_07c1, "shell after the chunk and the halt");
    assert_eq!(got_hand, 0x89ae_d0eb_e5ab_9ae3, "shell of a hand-built ledger");
    let want_frames: [u64; 13] = [
        0x18f7_b3c9_e973_1bf3,
        0x8fee_8e80_d281_2df9,
        0x14c4_03c4_dd8f_169f,
        0x0dc6_e5e6_fa6b_d5c6,
        0x2e37_ecfa_9dad_42a6,
        0x0b80_10ea_477f_e310,
        0xd52e_b8b9_b2a8_79c1,
        0xc0ab_6386_0082_c884,
        0x2f81_d7cc_5199_8bf5,
        0x2214_350e_fe38_ca2a,
        0xe512_5b4e_5f94_0e1a,
        0x978f_c52b_12d1_1dc3,
        0xa9ff_7dfe_4bd7_3999,
    ];
    assert_eq!(got_frames, want_frames, "frames, in the order of `frames()`");
}
