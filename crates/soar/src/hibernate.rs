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
//! * `alive_index` — a pure function of the live store, rebuilt from the
//!   replayed engine (provably identical: WM-is-a-set guarantees at most
//!   one live wme per structural value).
//!
//! Encoding is byte-deterministic: hash-map/-set sections are sorted
//! (numerically, or by symbol *name* so bytes do not depend on intern
//! order), and symbols travel as strings.

use crate::agent::{Agent, AgentStats};
use crate::arch::Role;
use crate::decide::{GoalCtx, ImpasseKey, ImpasseKind};
use crate::wm::{Provenance, WmBook};
use psme_core::MatchEngine;
use psme_ops::{
    parse_production, production_text, sym_name, Instantiation, Symbol, TimeTag, Wme, WmeId,
};
use psme_rete::snapshot::{ByteReader, ByteWriter, SnapshotError};
use psme_rete::util::FxHashMap;
use std::sync::Arc;

fn write_sym_u32_map(w: &mut ByteWriter, map: &FxHashMap<Symbol, u32>) {
    let mut entries: Vec<(Arc<str>, u32)> =
        map.iter().map(|(&s, &v)| (sym_name(s), v)).collect();
    entries.sort();
    w.u64(entries.len() as u64);
    for (name, v) in entries {
        w.str(&name);
        w.u32(v);
    }
}

fn read_sym_u32_map(r: &mut ByteReader) -> Result<FxHashMap<Symbol, u32>, SnapshotError> {
    let n = r.count()?;
    let mut map = FxHashMap::default();
    for _ in 0..n {
        let s = r.sym()?;
        let v = r.u32()?;
        map.insert(s, v);
    }
    Ok(map)
}

fn write_role(w: &mut ByteWriter, role: Role) {
    w.u8(match role {
        Role::ProblemSpace => 0,
        Role::State => 1,
        Role::Operator => 2,
    });
}

fn read_role(r: &mut ByteReader) -> Result<Role, SnapshotError> {
    match r.u8()? {
        0 => Ok(Role::ProblemSpace),
        1 => Ok(Role::State),
        2 => Ok(Role::Operator),
        t => Err(SnapshotError::Corrupt(format!("role tag {t}"))),
    }
}

fn write_opt_sym(w: &mut ByteWriter, s: Option<Symbol>) {
    match s {
        Some(s) => {
            w.bool(true);
            w.sym(s);
        }
        None => w.bool(false),
    }
}

fn read_opt_sym(r: &mut ByteReader) -> Result<Option<Symbol>, SnapshotError> {
    Ok(if r.bool()? { Some(r.sym()?) } else { None })
}

fn write_inst(w: &mut ByteWriter, inst: &Instantiation) {
    w.sym(inst.prod);
    w.u64(inst.wmes.len() as u64);
    for (&id, &tag) in inst.wmes.iter().zip(inst.tags.iter()) {
        w.u32(id.0);
        w.u64(tag.0);
    }
}

fn read_inst(r: &mut ByteReader) -> Result<Instantiation, SnapshotError> {
    let prod = r.sym()?;
    let n = r.count()?;
    let mut wmes = Vec::new();
    let mut tags = Vec::new();
    for _ in 0..n {
        wmes.push(WmeId(r.u32()?));
        tags.push(TimeTag(r.u64()?));
    }
    Ok(Instantiation { prod, wmes, tags })
}

fn write_provenance(w: &mut ByteWriter, p: &Provenance) {
    match p {
        Provenance::Arch { sources } => {
            w.u8(0);
            w.u64(sources.len() as u64);
            for id in sources {
                w.u32(id.0);
            }
        }
        Provenance::Fired { matched, prod } => {
            w.u8(1);
            w.u64(matched.len() as u64);
            for id in matched {
                w.u32(id.0);
            }
            w.sym(*prod);
        }
    }
}

fn read_provenance(r: &mut ByteReader) -> Result<Provenance, SnapshotError> {
    match r.u8()? {
        0 => {
            let n = r.count()?;
            let mut sources = Vec::new();
            for _ in 0..n {
                sources.push(WmeId(r.u32()?));
            }
            Ok(Provenance::Arch { sources })
        }
        1 => {
            let n = r.count()?;
            let mut matched = Vec::new();
            for _ in 0..n {
                matched.push(WmeId(r.u32()?));
            }
            Ok(Provenance::Fired { matched, prod: r.sym()? })
        }
        t => Err(SnapshotError::Corrupt(format!("provenance tag {t}"))),
    }
}

/// Encode an agent's architecture shell into `w` (see module docs for what
/// is covered and what is rebuilt instead).
pub fn encode_shell<E: MatchEngine>(agent: &Agent<E>, w: &mut ByteWriter) {
    // Counters and scalars.
    for v in agent.stats.counts() {
        w.u64(v);
    }
    w.bool(agent.learning);
    w.bool(agent.halt_requested);
    w.u64(agent.gensym_counter);
    w.u64(agent.max_elab_cycles);
    w.org(&agent.org);
    {
        let mut overrides: Vec<(Arc<str>, &psme_rete::NetworkOrg)> =
            agent.org_overrides.iter().map(|(&s, o)| (sym_name(s), o)).collect();
        overrides.sort_by(|a, b| a.0.cmp(&b.0));
        w.u64(overrides.len() as u64);
        for (name, org) in overrides {
            w.str(&name);
            w.org(org);
        }
    }
    // Output log.
    w.u64(agent.output.len() as u64);
    for line in &agent.output {
        w.str(line);
    }
    // Context stack, top to bottom in place.
    w.u64(agent.stack.len() as u64);
    for g in &agent.stack {
        w.sym(g.id);
        w.u32(g.level);
        for s in g.slots {
            write_opt_sym(w, s);
        }
        match &g.impasse {
            None => w.bool(false),
            Some(k) => {
                w.bool(true);
                write_role(w, k.role);
                w.u8(match k.kind {
                    ImpasseKind::Tie => 0,
                    ImpasseKind::NoChange => 1,
                });
                w.u64(k.items.len() as u64);
                for &item in &k.items {
                    w.sym(item);
                }
            }
        }
    }
    // Conflict set, in insertion (= firing) order with refraction flags.
    let entries: Vec<_> = agent.cs.entries().collect();
    w.u64(entries.len() as u64);
    for (inst, spec, fired) in entries {
        write_inst(w, inst);
        w.u64(spec as u64);
        w.bool(fired);
    }
    // WM bookkeeping. Map/set sections sorted for byte determinism; the
    // level/provenance maps include dead wmes on purpose (in-flight
    // references — CS retractions, chunk backtraces — still read them).
    let book = &agent.book;
    {
        let mut lv: Vec<(u32, u32)> = book.wme_level.iter().map(|(k, &v)| (k.0, v)).collect();
        lv.sort_unstable();
        w.u64(lv.len() as u64);
        for (id, level) in lv {
            w.u32(id);
            w.u32(level);
        }
    }
    write_sym_u32_map(w, &book.obj_level);
    write_sym_u32_map(w, &book.obj_native_level);
    {
        let mut pv: Vec<(u32, &Provenance)> =
            book.provenance.iter().map(|(k, v)| (k.0, v)).collect();
        pv.sort_unstable_by_key(|e| e.0);
        w.u64(pv.len() as u64);
        for (id, p) in pv {
            w.u32(id);
            write_provenance(w, p);
        }
    }
    {
        let mut ids: Vec<Arc<str>> = book.identifiers.iter().map(|&s| sym_name(s)).collect();
        ids.sort();
        w.u64(ids.len() as u64);
        for name in ids {
            w.str(&name);
        }
    }
    {
        let mut pins: Vec<u32> = book.pinned.iter().map(|id| id.0).collect();
        pins.sort_unstable();
        w.u64(pins.len() as u64);
        for id in pins {
            w.u32(id);
        }
    }
    // Chunker: counter, dedup texts (sorted — it is a set), chunks in
    // creation order as printed source.
    w.u32(agent.chunker.counter);
    {
        let mut seen: Vec<&String> = agent.chunker.seen.iter().collect();
        seen.sort();
        w.u64(seen.len() as u64);
        for s in seen {
            w.str(s);
        }
    }
    w.u64(agent.chunker.chunks.len() as u64);
    for chunk in &agent.chunker.chunks {
        w.str(&production_text(chunk, &agent.classes));
    }
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
    let mut counts = [0; 9];
    for c in &mut counts {
        *c = r.u64()?;
    }
    agent.stats = AgentStats::from_counts(counts);
    agent.learning = r.bool()?;
    agent.halt_requested = r.bool()?;
    agent.gensym_counter = r.u64()?;
    agent.max_elab_cycles = r.u64()?;
    agent.org = r.org()?;
    agent.org_overrides = {
        let n = r.count()?;
        let mut map = FxHashMap::default();
        for _ in 0..n {
            let s = r.sym()?;
            let org = r.org()?;
            map.insert(s, org);
        }
        map
    };
    agent.output = {
        let n = r.count()?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(r.str()?);
        }
        out
    };
    agent.stack = {
        let n = r.count()?;
        let mut stack = Vec::new();
        for _ in 0..n {
            let id = r.sym()?;
            let level = r.u32()?;
            let slots = [read_opt_sym(r)?, read_opt_sym(r)?, read_opt_sym(r)?];
            let impasse = if r.bool()? {
                let role = read_role(r)?;
                let kind = match r.u8()? {
                    0 => ImpasseKind::Tie,
                    1 => ImpasseKind::NoChange,
                    t => return Err(SnapshotError::Corrupt(format!("impasse tag {t}"))),
                };
                let m = r.count()?;
                let mut items = Vec::new();
                for _ in 0..m {
                    items.push(r.sym()?);
                }
                Some(ImpasseKey { role, kind, items })
            } else {
                None
            };
            stack.push(GoalCtx { id, level, slots, impasse });
        }
        stack
    };
    agent.cs = {
        let n = r.count()?;
        let mut cs = psme_ops::ConflictSet::new();
        for _ in 0..n {
            let inst = read_inst(r)?;
            let spec = r.count()?;
            let fired = r.bool()?;
            cs.restore_entry(inst, spec, fired);
        }
        cs
    };
    let mut book = WmBook::new();
    {
        let n = r.count()?;
        for _ in 0..n {
            let id = WmeId(r.u32()?);
            let level = r.u32()?;
            book.wme_level.insert(id, level);
        }
    }
    book.obj_level = read_sym_u32_map(r)?;
    book.obj_native_level = read_sym_u32_map(r)?;
    {
        let n = r.count()?;
        for _ in 0..n {
            let id = WmeId(r.u32()?);
            let prov = read_provenance(r)?;
            book.provenance.insert(id, prov);
        }
    }
    {
        let n = r.count()?;
        for _ in 0..n {
            let s = r.sym()?;
            book.identifiers.insert(s);
        }
    }
    {
        let n = r.count()?;
        for _ in 0..n {
            book.pinned.insert(WmeId(r.u32()?));
        }
    }
    // The structural live index is a pure function of the replayed store.
    book.alive_index = agent.engine.with_store(|s| {
        let mut idx: FxHashMap<Wme, WmeId> = FxHashMap::default();
        for (id, w) in s.iter_alive() {
            idx.insert((**w).clone(), id);
        }
        idx
    });
    agent.book = book;
    agent.chunker.counter = r.u32()?;
    agent.chunker.seen = {
        let n = r.count()?;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            seen.insert(r.str()?);
        }
        seen
    };
    {
        let n = r.count()?;
        let mut chunks = Vec::new();
        for _ in 0..n {
            let text = r.str()?;
            let p = parse_production(&text, &mut agent.classes).map_err(|e| {
                SnapshotError::Corrupt(format!("chunk does not parse: {e}"))
            })?;
            chunks.push(Arc::new(p));
        }
        // Chunks were compiled into the overlay by the journal replay; the
        // shell only re-registers them for firing/specificity lookups.
        for c in &chunks {
            agent.prods.insert(c.name, c.clone());
        }
        agent.chunker.chunks = chunks;
    }
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
    use crate::task::SoarTask;
    use psme_ops::{intern, parse_program, parse_wme, ClassRegistry};
    use psme_rete::{JournaledSession, ReteNetwork, SerialEngine, Topology};

    /// A miniature task whose run crosses an operator tie and learns a
    /// chunk, so the shell has a deep stack, provenance and chunker state
    /// to round-trip (same shape as the `mini_task` integration test).
    fn fruit_task() -> SoarTask {
        let mut classes = ClassRegistry::new();
        crate::arch::declare_arch_classes(&mut classes);
        let src = "
(literalize box id owner contains)
(literalize op id box)
(p fruit*init-ps
   (goal ^id <g> ^type top)
  -->
   (make preference ^object ps-fruit ^role problem-space ^value acceptable ^goal <g>))
(p fruit*init-state
   (goal ^id <g> ^problem-space ps-fruit)
  -->
   (make preference ^object s0 ^role state ^value acceptable ^goal <g>))
(p fruit*propose
   (goal ^id <g> ^state <s>)
   (box ^id <b> ^owner <s>)
  -->
   (bind <o> (genatom))
   (make op ^id <o> ^box <b>)
   (make preference ^object <o> ^role operator ^value acceptable ^goal <g> ^state <s>))
(p fruit*eval
   (goal ^id <g2> ^impasse tie)
   (goal ^id <g2> ^item <o>)
   (op ^id <o> ^box <b>)
   (box ^id <b> ^contains <n>)
  -->
   (make eval ^goal <g2> ^object <o> ^value <n>))
(p fruit*apply
   (goal ^id <g> ^operator <o>)
   (op ^id <o> ^box <b>)
   (box ^id <b> ^contains <n>)
  -->
   (write took <n>)
   (halt))
";
        let productions =
            parse_program(src, &mut classes).unwrap().into_iter().map(Arc::new).collect();
        let init_wmes = vec![
            parse_wme("(box ^id b1 ^owner s0 ^contains 3)", &classes).unwrap(),
            parse_wme("(box ^id b2 ^owner s0 ^contains 7)", &classes).unwrap(),
        ];
        SoarTask {
            name: "fruit".into(),
            classes,
            productions,
            init_wmes,
            identifiers: vec![intern("ps-fruit"), intern("s0"), intern("b1"), intern("b2")],
        }
    }

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
}
