//! Agent-shell hibernation: encode/restore everything an [`Agent`] keeps
//! *outside* the match engine.
//!
//! The engine half of a session snapshot is the rete journal
//! ([`psme_rete::snapshot`]): replaying it reconstructs working memory,
//! token memories and the chunk overlay. This module covers the other
//! half — the architecture's mutable shell: run counters, the context
//! stack, the conflict set (with per-instantiation refraction state, in
//! firing order), working-memory bookkeeping (goal levels, provenance,
//! identifiers, pins), the chunker (dedup set + built chunks), the gensym
//! counter, and the `(write …)` output log. A restored shell over a
//! replayed engine continues the run with decisions, firings and gensym
//! assignments identical to an agent that was never hibernated.
//!
//! Deliberately *not* persisted (rebuilt or reset on resume):
//!
//! * `classes` / `fields` — recomputed from the task spec exactly as the
//!   original construction did.
//! * `prods` — defaults and task productions are re-adopted by the caller
//!   (same canonical order as [`crate::task::SoarTask::install_adopted`]);
//!   chunk productions are re-inserted here from the chunker's log.
//!   Lookups are by name and all uses are structural, so fresh `Arc`s are
//!   observationally identical.
//! * `recorder` — telemetry only; spans from before hibernation are gone.
//! * the ledger's derived half (`alive_index`, the kinds, preferences and
//!   object index of live wmes) — a pure function of the live store,
//!   rebuilt by noting the replayed engine's wmes again, in id order
//!   ([`WmBook::index`]).
//!
//! Encoding is byte-deterministic: hash-map/-set sections are sorted
//! (numerically, or by symbol *name* so bytes do not depend on intern
//! order), and symbols travel as strings — the [`psme_rete::snapshot`]
//! codec's rules. Every layout here is declared once, with its type.

use crate::agent::Agent;
use crate::wm::WmBook;
use psme_core::MatchEngine;
use psme_ops::{parse_production, production_text, Instantiation};
use psme_rete::snapshot::{ByteReader, ByteWriter, SnapshotError};
use std::sync::Arc;

psme_rete::codec! {
    /// One conflict-set entry, as [`psme_ops::ConflictSet::entries`] yields it.
    struct CsEntry {
        inst: Instantiation,
        specificity: usize,
        fired: bool,
    }
}

/// Encode an agent's architecture shell into `w` (see module docs for what
/// is covered and what is rebuilt instead).
pub fn encode_shell<E: MatchEngine>(agent: &Agent<E>, w: &mut ByteWriter) {
    w.put(&agent.stats);
    w.put(&agent.learning);
    w.put(&agent.halt_requested);
    w.put(&agent.gensym_counter);
    w.put(&agent.max_elab_cycles);
    w.put(&agent.org);
    w.put(&agent.org_overrides);
    w.put(&agent.output);
    // Context stack, top to bottom in place.
    w.put(&agent.stack);
    // Conflict set, in insertion (= firing) order with refraction flags.
    let cs: Vec<CsEntry> = agent
        .cs
        .entries()
        .map(|(inst, specificity, fired)| CsEntry { inst: inst.clone(), specificity, fired })
        .collect();
    w.put(&cs);
    // WM bookkeeping. The level/provenance maps cover the live wmes and
    // the removed ones a chunk backtrace can still reach; replay re-creates
    // the rest, and `decode_shell` retires them again.
    let book = &agent.book;
    w.put(&book.wme_level);
    w.put(&book.obj_level);
    w.put(&book.obj_native_level);
    w.put(&book.provenance);
    w.put(&book.identifiers);
    w.put(&book.pinned);
    // Chunker: counter, dedup texts, chunks in creation order as printed
    // source.
    w.put(&agent.chunker.counter);
    w.put(&agent.chunker.seen);
    w.put_seq(agent.chunker.chunks.iter().map(|c| production_text(c, &agent.classes)));
}

/// Restore a shell encoded by [`encode_shell`] into `agent`, which must be
/// freshly constructed over the session's replayed engine with its default
/// and task productions already adopted (the [`crate::task::SoarTask`]
/// canonical order). Chunk productions are re-parsed and re-registered
/// here.
pub fn decode_shell<E: MatchEngine>(
    agent: &mut Agent<E>,
    r: &mut ByteReader,
) -> Result<(), SnapshotError> {
    agent.stats = r.get()?;
    agent.learning = r.get()?;
    agent.halt_requested = r.get()?;
    agent.gensym_counter = r.get()?;
    agent.max_elab_cycles = r.get()?;
    agent.org = r.get()?;
    agent.org_overrides = r.get()?;
    agent.output = r.get()?;
    agent.stack = r.get()?;
    agent.cs = psme_ops::ConflictSet::new();
    for e in r.get::<Vec<CsEntry>>()? {
        agent.cs.restore_entry(e.inst, e.specificity, e.fired);
    }
    agent.book = WmBook {
        wme_level: r.get()?,
        obj_level: r.get()?,
        obj_native_level: r.get()?,
        provenance: r.get()?,
        identifiers: r.get()?,
        pinned: r.get()?,
        ..WmBook::default()
    };
    // The derived half is a pure function of the replayed store.
    let (book, f, reg) = (&mut agent.book, &agent.fields, &agent.classes);
    agent.engine.with_store(|s| {
        for (id, w) in s.iter_alive() {
            book.index(id, (**w).clone(), f, reg);
        }
    });
    agent.chunker.counter = r.get()?;
    agent.chunker.seen = r.get()?;
    let mut chunks = Vec::new();
    for text in r.get::<Vec<String>>()? {
        let p = parse_production(&text, &mut agent.classes)
            .map_err(|e| SnapshotError::Corrupt(format!("chunk does not parse: {e}")))?;
        chunks.push(Arc::new(p));
    }
    // Chunks were compiled into the overlay by the journal replay; the
    // shell only re-registers them for firing/specificity lookups.
    for c in &chunks {
        agent.prods.insert(c.name, c.clone());
    }
    agent.chunker.chunks = chunks;
    // Replay re-created every removed wme. The reach the shell's records
    // span is the one the hibernated agent kept, so this retires exactly
    // what it had retired.
    agent.retire_unreachable();
    Ok(())
}

/// A structural digest of the agent shell (everything [`encode_shell`]
/// covers, plus nothing else). Test helper: two shells with equal digests
/// are behaviorally interchangeable.
pub fn shell_digest<E: MatchEngine>(agent: &Agent<E>) -> u64 {
    let mut w = ByteWriter::new();
    encode_shell(agent, &mut w);
    psme_rete::snapshot::fnv1a64(&w.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::declare_arch_classes;
    use crate::task::SoarTask;
    use psme_ops::{intern, parse_program, parse_wme, ClassRegistry};
    use psme_rete::{JournaledSession, ReteNetwork, SerialEngine, Topology};

    // A miniature task whose run crosses an operator tie and learns a
    // chunk, so the shell has a deep stack, provenance and chunker state to
    // round-trip.
    include!("../tests/fixtures/fruit_task.rs");

    fn freeze_base(task: &SoarTask) -> Arc<psme_rete::Topology> {
        let mut scratch =
            Agent::new(SerialEngine::new(ReteNetwork::new()), task.classes.clone());
        task.install_productions(&mut scratch);
        let (net, _) = scratch.engine.into_parts();
        Topology::freeze(net)
    }

    fn journaled_agent(
        task: &SoarTask,
        topo: Arc<psme_rete::Topology>,
    ) -> Agent<JournaledSession> {
        let mut agent = Agent::new(JournaledSession::fresh(topo, true), task.classes.clone());
        agent.learning = true;
        task.install_adopted(&mut agent);
        agent
    }

    #[test]
    fn shell_round_trips_through_bytes() {
        let task = fruit_task();
        let topo = freeze_base(&task);
        let mut agent = journaled_agent(&task, topo.clone());
        // Stop partway: mid-run, past the tie impasse (subgoal on the
        // stack, evals in flight) but before the halt.
        agent.run(3);
        assert!(!agent.halt_requested, "must hibernate mid-run for the test to bite");

        let mut w = ByteWriter::new();
        encode_shell(&agent, &mut w);
        let bytes = w.into_inner();
        // Byte-deterministic: encoding twice gives identical bytes.
        let mut w2 = ByteWriter::new();
        encode_shell(&agent, &mut w2);
        assert_eq!(bytes, w2.into_inner());

        // Resume: replay the journal, re-adopt productions, rebuild shell.
        let journal = agent.engine.journal().unwrap().clone();
        let resumed_engine = JournaledSession::resume(topo, journal).unwrap();
        let mut resumed = Agent::new(resumed_engine, task.classes.clone());
        task.adopt_productions(&mut resumed);
        let mut r = ByteReader::new(&bytes);
        decode_shell(&mut resumed, &mut r).unwrap();
        r.expect_done().unwrap();
        assert_eq!(shell_digest(&agent), shell_digest(&resumed));
        assert_eq!(
            psme_rete::session_digest(&agent.engine.eng),
            psme_rete::session_digest(&resumed.engine.eng)
        );

        // And both continue to the identical outcome.
        let a = agent.run(50);
        let b = resumed.run(50);
        assert_eq!(a, b);
        assert_eq!(agent.output, vec!["took 7"]);
        assert_eq!(agent.stats.decisions, resumed.stats.decisions);
        assert_eq!(agent.stats.firings, resumed.stats.firings);
        assert_eq!(agent.stats.chunks_built, resumed.stats.chunks_built);
        assert_eq!(agent.output, resumed.output);
        assert_eq!(shell_digest(&agent), shell_digest(&resumed));
        assert_eq!(
            psme_rete::session_digest(&agent.engine.eng),
            psme_rete::session_digest(&resumed.engine.eng)
        );
    }

    #[test]
    fn hibernating_after_a_chunk_restores_the_chunker() {
        let task = fruit_task();
        let topo = freeze_base(&task);
        let mut agent = journaled_agent(&task, topo.clone());
        let stop = agent.run(50);
        assert_eq!(stop, crate::agent::StopReason::Halted);
        assert_eq!(agent.stats.chunks_built, 1);

        let mut w = ByteWriter::new();
        encode_shell(&agent, &mut w);
        let bytes = w.into_inner();
        let journal = agent.engine.journal().unwrap().clone();
        let mut resumed =
            Agent::new(JournaledSession::resume(topo, journal).unwrap(), task.classes.clone());
        task.adopt_productions(&mut resumed);
        decode_shell(&mut resumed, &mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(resumed.chunker.chunks.len(), 1);
        assert_eq!(
            resumed.learned_chunks()[0].name,
            agent.learned_chunks()[0].name
        );
        assert!(resumed.prods.contains_key(&agent.learned_chunks()[0].name));
        assert_eq!(shell_digest(&agent), shell_digest(&resumed));
    }

    #[test]
    fn truncated_shell_is_a_typed_error() {
        let task = fruit_task();
        let topo = freeze_base(&task);
        let mut agent = journaled_agent(&task, topo.clone());
        agent.run(3);
        let mut w = ByteWriter::new();
        encode_shell(&agent, &mut w);
        let bytes = w.into_inner();
        for cut in [0usize, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut fresh = journaled_agent(&task, topo.clone());
            let mut r = ByteReader::new(&bytes[..cut]);
            let err = decode_shell(&mut fresh, &mut r);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Shell bytes altered in place — inside a session frame they pass
        /// the checksum once re-sealed — decode into a freshly adopted agent
        /// or fail with a typed error; they never panic.
        #[test]
        fn altered_shell_decodes_or_fails_typed(
            decisions in 1u64..8,
            edits in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), 1u8..=255),
                1..4,
            ),
        ) {
            let task = fruit_task();
            let topo = freeze_base(&task);
            let mut agent = journaled_agent(&task, topo.clone());
            agent.run(decisions);
            let mut w = ByteWriter::new();
            encode_shell(&agent, &mut w);
            let mut bytes = w.into_inner();
            for &(pos, mask) in &edits {
                let at = pos % bytes.len();
                bytes[at] ^= mask;
            }
            let mut fresh = journaled_agent(&task, topo);
            let _ = decode_shell(&mut fresh, &mut ByteReader::new(&bytes));
        }
    }
}
