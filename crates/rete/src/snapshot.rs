//! Versioned, checksummed session snapshots: a replayable delta log.
//!
//! A session's mutable match state ([`crate::state::MatchState`] +
//! [`crate::session::SessionNet`]) is never serialized as a pointer graph.
//! Because every mutation enters through a small deterministic API
//! (`add_wme` / `remove_wme` / `run_cycle` / `add_production`) and the
//! overlay replays monolithic append order exactly, the *op log itself* is
//! a complete snapshot: replaying it against the same frozen
//! [`crate::session::Topology`] reconstructs working memory, token
//! memories, the chunk overlay, and the conflict-set-bearing P-node tokens
//! bit for bit. The serving layer's tiered session store (psme-serve)
//! hibernates sessions as these logs and resumes them transparently.
//!
//! On the wire a snapshot is framed as
//!
//! ```text
//! magic (4) | version (u32 LE) | payload_len (u64 LE) | payload | fnv1a64(payload)
//! ```
//!
//! and every decode path returns a typed [`SnapshotError`] — corrupted,
//! truncated or wrong-version bytes are rejected, never panicked on and
//! never replayed into a silently wrong session. Symbols travel as strings
//! (re-interned on decode) and chunk productions travel as their printed
//! source text (the printer/parser round-trip is property-tested), so a
//! snapshot does not depend on intern-table numbering.

use crate::network::NetworkOrg;
use crate::node::Side;
use crate::serial::SerialEngine;
use crate::session::{SessionNet, Topology};
use crate::state::MatchState;
use crate::trace::Phase;
use psme_ops::{
    parse_production, production_text, ClassRegistry, Production, Symbol, Value, Wme, WmeId,
};
use std::sync::Arc;

/// Frame magic for a rete journal snapshot.
pub const JOURNAL_MAGIC: [u8; 4] = *b"PSNJ";
/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;

/// Why a snapshot could not be decoded or replayed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The frame does not start with the expected magic.
    BadMagic,
    /// The frame is a later (or earlier) format than this build reads.
    UnsupportedVersion(u32),
    /// The byte stream ends before the structure it promises.
    Truncated,
    /// The payload checksum does not match its contents.
    ChecksumMismatch,
    /// Structurally invalid payload (bad tag, bad UTF-8, trailing bytes…).
    Corrupt(String),
    /// The log decoded but could not be replayed against this topology.
    Replay(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot: bad magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot: unsupported format version {v}")
            }
            SnapshotError::Truncated => write!(f, "snapshot: truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot: checksum mismatch"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot: corrupt ({why})"),
            SnapshotError::Replay(why) => write!(f, "snapshot: replay failed ({why})"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over `bytes` (64-bit). A single flipped payload byte always
/// changes the digest (xor-then-odd-multiply is injective per step), which
/// is all the framing needs — this guards against torn writes, not
/// adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian append-only encoder for snapshot payloads.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Bool as 0/1.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// u32, little endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// u64, little endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// i64, little endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// f64 as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Symbol by name (re-interned on decode; never by intern id).
    pub fn sym(&mut self, s: Symbol) {
        self.str(&psme_ops::sym_name(s));
    }

    /// One attribute value.
    pub fn value(&mut self, v: Value) {
        match v {
            Value::Nil => self.u8(0),
            Value::Sym(s) => {
                self.u8(1);
                self.sym(s);
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(i);
            }
        }
    }

    /// A whole wme (class name + field values).
    pub fn wme(&mut self, w: &Wme) {
        self.sym(w.class);
        self.u64(w.fields.len() as u64);
        for &v in w.fields.iter() {
            self.value(v);
        }
    }

    /// A network organization.
    pub fn org(&mut self, org: &NetworkOrg) {
        match org {
            NetworkOrg::Linear => self.u8(0),
            NetworkOrg::Bilinear(groups) => {
                self.u8(1);
                self.u64(groups.len() as u64);
                for g in groups {
                    self.u64(g.len() as u64);
                    for &ce in g {
                        self.u64(ce as u64);
                    }
                }
            }
        }
    }
}

/// Cursor over snapshot payload bytes; every read is bounds-checked and
/// returns [`SnapshotError::Truncated`] rather than panicking.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte was consumed (a valid payload has no slack
    /// for trailing garbage).
    pub fn expect_done(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!("{} trailing bytes", self.remaining())))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Bool; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// u32, little endian.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// u64, little endian.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A u64 that must fit a usize-sized count. Counts are *not* used to
    /// pre-reserve allocations — decode loops consume at least one byte per
    /// element, so a lying count dies as [`SnapshotError::Truncated`].
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("count {v} overflows")))
    }

    /// i64, little endian.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string is not UTF-8".into()))
    }

    /// Symbol by name.
    pub fn sym(&mut self) -> Result<Symbol, SnapshotError> {
        Ok(psme_ops::intern(&self.str()?))
    }

    /// One attribute value.
    pub fn value(&mut self) -> Result<Value, SnapshotError> {
        match self.u8()? {
            0 => Ok(Value::Nil),
            1 => Ok(Value::Sym(self.sym()?)),
            2 => Ok(Value::Int(self.i64()?)),
            t => Err(SnapshotError::Corrupt(format!("value tag {t}"))),
        }
    }

    /// A whole wme.
    pub fn wme(&mut self) -> Result<Wme, SnapshotError> {
        let class = self.sym()?;
        let n = self.count()?;
        let mut fields = Vec::new();
        for _ in 0..n {
            fields.push(self.value()?);
        }
        Ok(Wme { class, fields: fields.into_boxed_slice() })
    }

    /// A network organization.
    pub fn org(&mut self) -> Result<NetworkOrg, SnapshotError> {
        match self.u8()? {
            0 => Ok(NetworkOrg::Linear),
            1 => {
                let ngroups = self.count()?;
                let mut groups = Vec::new();
                for _ in 0..ngroups {
                    let len = self.count()?;
                    let mut g = Vec::new();
                    for _ in 0..len {
                        g.push(self.count()?);
                    }
                    groups.push(g);
                }
                Ok(NetworkOrg::Bilinear(groups))
            }
            t => Err(SnapshotError::Corrupt(format!("org tag {t}"))),
        }
    }
}

/// Frame a payload: magic, version, length, payload, checksum.
pub fn seal_frame(magic: [u8; 4], version: u32, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = fnv1a64(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Open a frame, validating magic, version, length and checksum. Returns
/// the payload slice.
pub fn open_frame(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != magic {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    let got_version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if got_version != version {
        return Err(SnapshotError::UnsupportedVersion(got_version));
    }
    if bytes.len() < 16 {
        return Err(SnapshotError::Truncated);
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let Ok(len) = usize::try_from(len) else {
        return Err(SnapshotError::Truncated);
    };
    let Some(total) = len.checked_add(24) else {
        return Err(SnapshotError::Truncated);
    };
    if bytes.len() < total {
        return Err(SnapshotError::Truncated);
    }
    if bytes.len() > total {
        return Err(SnapshotError::Corrupt(format!("{} trailing bytes", bytes.len() - total)));
    }
    let payload = &bytes[16..16 + len];
    let sum = u64::from_le_bytes(bytes[16 + len..].try_into().expect("8 bytes"));
    if fnv1a64(payload) != sum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(payload)
}

/// One engine mutation, as recorded in call order.
#[derive(Clone, Debug)]
pub enum SnapOp {
    /// `store.add(wme)` — `id` is the id the store assigned, revalidated on
    /// replay (ids are dense and never reused, so any divergence means the
    /// log is being replayed against the wrong history).
    AddWme {
        /// The wme added.
        wme: Wme,
        /// The id the store assigned at record time.
        id: WmeId,
    },
    /// `store.remove(id)`.
    RemoveWme {
        /// The wme marked dead.
        id: WmeId,
    },
    /// `run_cycle(changes, Phase::Match)` — one batched match to
    /// quiescence.
    RunChanges {
        /// The signed wme deltas injected.
        changes: Vec<(WmeId, i32)>,
    },
    /// `add_production(prod, org)` — a chunk built into the overlay plus
    /// its §5.2 state update.
    AddProd {
        /// The chunk (serialized as printed source text).
        prod: Arc<Production>,
        /// The network organization it was compiled under.
        org: NetworkOrg,
    },
    /// `reorganize_production(prod_idx, org)` — an adaptive mid-run rebuild.
    /// Deterministic given the ops before it, so replaying the op (rather
    /// than the detector state that triggered it) reconstructs the same
    /// rebuilt overlay.
    Reorg {
        /// Index of the production rebuilt.
        prod_idx: u32,
        /// The organization it was rebuilt under.
        org: NetworkOrg,
    },
}

/// The replayable delta log of one session's engine mutations.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    /// Ops in exact call order.
    pub ops: Vec<SnapOp>,
}

impl Journal {
    /// Encode into a sealed frame (see module docs for the layout).
    pub fn encode(&self, reg: &ClassRegistry) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_payload(reg, &mut w);
        seal_frame(JOURNAL_MAGIC, JOURNAL_VERSION, w.into_inner())
    }

    /// Encode just the payload (for embedding in a larger frame, as the
    /// serving layer's session snapshot does).
    pub fn encode_payload(&self, reg: &ClassRegistry, w: &mut ByteWriter) {
        w.u64(self.ops.len() as u64);
        for op in &self.ops {
            match op {
                SnapOp::AddWme { wme, id } => {
                    w.u8(0);
                    w.wme(wme);
                    w.u32(id.0);
                }
                SnapOp::RemoveWme { id } => {
                    w.u8(1);
                    w.u32(id.0);
                }
                SnapOp::RunChanges { changes } => {
                    w.u8(2);
                    w.u64(changes.len() as u64);
                    for &(id, delta) in changes {
                        w.u32(id.0);
                        w.i64(delta as i64);
                    }
                }
                SnapOp::AddProd { prod, org } => {
                    w.u8(3);
                    w.str(&production_text(prod, reg));
                    w.org(org);
                }
                SnapOp::Reorg { prod_idx, org } => {
                    w.u8(4);
                    w.u32(*prod_idx);
                    w.org(org);
                }
            }
        }
    }

    /// Decode a sealed frame.
    pub fn decode(bytes: &[u8], reg: &mut ClassRegistry) -> Result<Journal, SnapshotError> {
        let payload = open_frame(bytes, JOURNAL_MAGIC, JOURNAL_VERSION)?;
        let mut r = ByteReader::new(payload);
        let j = Journal::decode_payload(&mut r, reg)?;
        r.expect_done()?;
        Ok(j)
    }

    /// Decode just the payload (counterpart of [`Journal::encode_payload`]).
    pub fn decode_payload(
        r: &mut ByteReader,
        reg: &mut ClassRegistry,
    ) -> Result<Journal, SnapshotError> {
        let n = r.count()?;
        let mut ops = Vec::new();
        for _ in 0..n {
            let op = match r.u8()? {
                0 => {
                    let wme = r.wme()?;
                    let id = WmeId(r.u32()?);
                    SnapOp::AddWme { wme, id }
                }
                1 => SnapOp::RemoveWme { id: WmeId(r.u32()?) },
                2 => {
                    let m = r.count()?;
                    let mut changes = Vec::new();
                    for _ in 0..m {
                        let id = WmeId(r.u32()?);
                        let delta = r.i64()?;
                        let delta = i32::try_from(delta).map_err(|_| {
                            SnapshotError::Corrupt(format!("delta {delta} overflows i32"))
                        })?;
                        changes.push((id, delta));
                    }
                    SnapOp::RunChanges { changes }
                }
                3 => {
                    let text = r.str()?;
                    let prod = parse_production(&text, reg).map_err(|e| {
                        SnapshotError::Corrupt(format!("production does not parse: {e}"))
                    })?;
                    let org = r.org()?;
                    SnapOp::AddProd { prod: Arc::new(prod), org }
                }
                4 => {
                    let prod_idx = r.u32()?;
                    let org = r.org()?;
                    SnapOp::Reorg { prod_idx, org }
                }
                t => return Err(SnapshotError::Corrupt(format!("op tag {t}"))),
            };
            ops.push(op);
        }
        Ok(Journal { ops })
    }

    /// Replay against a frozen topology: a fresh session engine re-runs
    /// every op through the same deterministic APIs that recorded them,
    /// reconstructing `MatchState` + `SessionNet` exactly.
    pub fn replay(&self, topo: Arc<Topology>) -> Result<SerialEngine<SessionNet>, SnapshotError> {
        let mut eng = SerialEngine::with_state(SessionNet::new(topo), MatchState::new());
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                SnapOp::AddWme { wme, id } => {
                    let (got, _) = eng.state.store.add(wme.clone());
                    if got != *id {
                        return Err(SnapshotError::Replay(format!(
                            "op {i}: store assigned {got:?}, log recorded {id:?}"
                        )));
                    }
                }
                SnapOp::RemoveWme { id } => {
                    if eng.state.store.remove(*id).is_none() {
                        return Err(SnapshotError::Replay(format!(
                            "op {i}: remove of dead/unknown {id:?}"
                        )));
                    }
                }
                SnapOp::RunChanges { changes } => {
                    eng.run_cycle(changes.clone(), Phase::Match);
                }
                SnapOp::AddProd { prod, org } => {
                    eng.add_production(prod.clone(), org.clone()).map_err(|e| {
                        SnapshotError::Replay(format!("op {i}: chunk rebuild failed: {e}"))
                    })?;
                }
                SnapOp::Reorg { prod_idx, org } => {
                    eng.reorganize_production(*prod_idx, org.clone()).map_err(|e| {
                        SnapshotError::Replay(format!("op {i}: reorganization failed: {e}"))
                    })?;
                }
            }
        }
        Ok(eng)
    }
}

/// A session engine that records its mutations into a [`Journal`].
///
/// This is the serving layer's engine: when journaling is on, hibernation
/// is `journal.encode(...)` and resume is [`JournaledSession::resume`].
/// With journaling off (`journal == None`) it is a zero-cost pass-through
/// over the plain [`SerialEngine`], so a serve run without tiering behaves
/// identically to one that never heard of snapshots.
pub struct JournaledSession {
    /// The wrapped deterministic engine.
    pub eng: SerialEngine<SessionNet>,
    /// The delta log; `None` disables recording.
    pub journal: Option<Journal>,
}

impl JournaledSession {
    /// Fresh session over a frozen topology.
    pub fn fresh(topo: Arc<Topology>, journaled: bool) -> JournaledSession {
        JournaledSession {
            eng: SerialEngine::with_state(SessionNet::new(topo), MatchState::new()),
            journal: journaled.then(Journal::default),
        }
    }

    /// Resume from a decoded journal: replay it against `topo`, keeping the
    /// journal attached so the resumed session can hibernate again later.
    pub fn resume(topo: Arc<Topology>, journal: Journal) -> Result<JournaledSession, SnapshotError> {
        let eng = journal.replay(topo)?;
        Ok(JournaledSession { eng, journal: Some(journal) })
    }

    /// The recorded log, when journaling is on.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    #[inline]
    fn record(&mut self, op: impl FnOnce() -> SnapOp) {
        if let Some(j) = &mut self.journal {
            j.ops.push(op());
        }
    }

    /// Journaled `store.add`.
    pub fn add_wme(&mut self, w: Wme) -> (WmeId, psme_ops::TimeTag) {
        let journaling = self.journal.is_some();
        let wme = journaling.then(|| w.clone());
        let (id, tag) = self.eng.state.store.add(w);
        if let Some(wme) = wme {
            self.record(|| SnapOp::AddWme { wme, id });
        }
        (id, tag)
    }

    /// Journaled `store.remove`. Dead/unknown ids are not recorded (they
    /// did not mutate the store).
    pub fn remove_wme(&mut self, id: WmeId) -> bool {
        let removed = self.eng.state.store.remove(id).is_some();
        if removed {
            self.record(|| SnapOp::RemoveWme { id });
        }
        removed
    }

    /// Journaled `run_cycle(changes, Phase::Match)`.
    pub fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> crate::serial::CycleOutcome {
        if self.journal.is_some() {
            let recorded = changes.clone();
            self.record(|| SnapOp::RunChanges { changes: recorded });
        }
        self.eng.run_cycle(changes, Phase::Match)
    }

    /// Journaled `apply_changes` (registers then matches, like
    /// [`SerialEngine::apply_changes`]).
    pub fn apply_changes(
        &mut self,
        adds: Vec<Wme>,
        removes: Vec<WmeId>,
    ) -> crate::serial::CycleOutcome {
        let mut changes: Vec<(WmeId, i32)> = Vec::with_capacity(adds.len() + removes.len());
        for w in adds {
            let (id, _) = self.add_wme(w);
            changes.push((id, 1));
        }
        for id in removes {
            if self.remove_wme(id) {
                changes.push((id, -1));
            }
        }
        self.run_changes(changes)
    }

    /// Journaled `add_production`. Failed builds are not recorded (the
    /// overlay rolled back; replaying the failure would poison resume).
    pub fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<crate::serial::AddOutcome, crate::build::BuildError> {
        let out = self.eng.add_production(prod.clone(), org.clone())?;
        self.record(|| SnapOp::AddProd { prod, org });
        Ok(out)
    }

    /// Journaled `reorganize_production`. Like failed chunk builds, failed
    /// rebuilds roll back and are not recorded.
    pub fn reorganize_production(
        &mut self,
        prod_idx: u32,
        org: NetworkOrg,
    ) -> Result<crate::serial::ReorgOutcome, crate::build::BuildError> {
        let out = self.eng.reorganize_production(prod_idx, org.clone())?;
        self.record(|| SnapOp::Reorg { prod_idx, org });
        Ok(out)
    }
}

impl std::fmt::Debug for JournaledSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JournaledSession({:?}, {} journaled ops)",
            self.eng,
            self.journal.as_ref().map(|j| j.ops.len()).unwrap_or(0)
        )
    }
}

/// Structural digest of a session engine's complete observable match state:
/// every stored wme (content, tag, liveness), every node's left/right token
/// memory, the overlay's shape and splices, and the current instantiations.
/// Two engines with equal digests are bit-for-bit interchangeable for
/// everything downstream code reads — this is what the snapshot round-trip
/// property pins.
pub fn session_digest(eng: &SerialEngine<SessionNet>) -> u64 {
    use crate::view::ReteView;
    let mut w = ByteWriter::new();
    let store = &eng.state.store;
    w.u64(store.total_count() as u64);
    w.u64(store.live_count() as u64);
    for id in 0..store.total_count() as u32 {
        let id = WmeId(id);
        w.wme(store.get(id));
        w.u64(store.tag(id).0);
        w.bool(store.is_alive(id));
    }
    let net = &eng.net;
    w.u64(net.num_nodes() as u64);
    w.u64(net.num_prods() as u64);
    w.u64(net.overlay_nodes() as u64);
    w.u64(net.overlay_prods() as u64);
    w.u64(net.splice_edges() as u64);
    for id in 0..net.num_nodes() as u32 {
        for &(child, side) in net.node(id).out_edges.iter().chain(net.extra_out_edges(id)) {
            w.u32(child);
            w.u8(side as u8);
        }
        for sym in net.prod_names_of(id) {
            w.sym(*sym);
        }
        for side in [Side::Left, Side::Right] {
            let mut toks = eng.state.mem.tokens_of(id, side);
            toks.sort_by(|a, b| (a.0.wmes(), a.1).cmp(&(b.0.wmes(), b.1)));
            w.u64(toks.len() as u64);
            for (t, weight) in toks {
                w.u64(t.wmes().len() as u64);
                for &wid in t.wmes() {
                    w.u32(wid.0);
                }
                w.i64(weight as i64);
            }
        }
    }
    for p in 0..net.num_prods() as u32 {
        w.sym(net.prod_info(p).production.name);
    }
    for inst in eng.current_instantiations() {
        w.sym(inst.prod);
        for (&id, &tag) in inst.wmes.iter().zip(inst.tags.iter()) {
            w.u32(id.0);
            w.u64(tag.0);
        }
    }
    fnv1a64(&w.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ReteBuild;
    use crate::network::ReteNetwork;
    use psme_ops::parse_wme;

    fn topo(reg: &mut ClassRegistry) -> Arc<Topology> {
        reg.declare_str("a", &["x", "y"]);
        reg.declare_str("b", &["x", "y"]);
        let mut net = ReteNetwork::new();
        let p = parse_production("(p base (a ^x <v>) (b ^x <v>) --> (halt))", reg).unwrap();
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
        Topology::freeze(net)
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(3.25);
        w.str("hé");
        w.value(Value::Int(-9));
        w.value(Value::Nil);
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 3.25);
        assert_eq!(r.str().unwrap(), "hé");
        assert_eq!(r.value().unwrap(), Value::Int(-9));
        assert_eq!(r.value().unwrap(), Value::Nil);
        r.expect_done().unwrap();
        assert_eq!(r.u8(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn frame_rejects_tampering_with_typed_errors() {
        let good = seal_frame(JOURNAL_MAGIC, JOURNAL_VERSION, b"payload".to_vec());
        assert!(open_frame(&good, JOURNAL_MAGIC, JOURNAL_VERSION).is_ok());
        // Wrong magic.
        let mut b = good.clone();
        b[0] ^= 0xff;
        assert_eq!(open_frame(&b, JOURNAL_MAGIC, JOURNAL_VERSION), Err(SnapshotError::BadMagic));
        // Future version.
        let b = seal_frame(JOURNAL_MAGIC, JOURNAL_VERSION + 9, b"payload".to_vec());
        assert_eq!(
            open_frame(&b, JOURNAL_MAGIC, JOURNAL_VERSION),
            Err(SnapshotError::UnsupportedVersion(JOURNAL_VERSION + 9))
        );
        // Truncation at every prefix length.
        for cut in 0..good.len() {
            assert!(open_frame(&good[..cut], JOURNAL_MAGIC, JOURNAL_VERSION).is_err());
        }
        // Payload flip.
        let mut b = good.clone();
        b[18] ^= 0x01;
        assert_eq!(
            open_frame(&b, JOURNAL_MAGIC, JOURNAL_VERSION),
            Err(SnapshotError::ChecksumMismatch)
        );
        // Trailing garbage.
        let mut b = good.clone();
        b.push(0);
        assert!(matches!(
            open_frame(&b, JOURNAL_MAGIC, JOURNAL_VERSION),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn journal_round_trips_and_replays() {
        let mut reg = ClassRegistry::new();
        let topo = topo(&mut reg);
        let mut live = JournaledSession::fresh(topo.clone(), true);
        let w1 = parse_wme("(a ^x 1 ^y 2)", &reg).unwrap();
        let w2 = parse_wme("(b ^x 1)", &reg).unwrap();
        let (id1, _) = live.add_wme(w1);
        let (id2, _) = live.add_wme(w2);
        live.run_changes(vec![(id1, 1), (id2, 1)]);
        let chunk =
            parse_production("(p chunk*1 (a ^x <v>) (b ^x <v>) (a ^y <w>) --> (halt))", &mut reg)
                .unwrap();
        live.add_production(Arc::new(chunk), NetworkOrg::Linear).unwrap();
        live.remove_wme(id2);
        live.run_changes(vec![(id2, -1)]);

        let bytes = live.journal().unwrap().encode(&reg);
        let decoded = Journal::decode(&bytes, &mut reg).unwrap();
        let resumed = JournaledSession::resume(topo, decoded).unwrap();
        assert_eq!(session_digest(&live.eng), session_digest(&resumed.eng));
        // And the resumed session re-encodes to the identical bytes.
        assert_eq!(resumed.journal().unwrap().encode(&reg), bytes);
    }

    #[test]
    fn journaled_reorg_round_trips_and_replays() {
        let mut reg = ClassRegistry::new();
        reg.declare_str("anchor", &["id"]);
        reg.declare_str("item", &["grp", "anchor", "val"]);
        let mut net = ReteNetwork::new();
        let p = parse_production(
            "(p cross (anchor ^id <a>)
                      (item ^grp 1 ^anchor <a> ^val <v1>)
                      (item ^grp 2 ^anchor <a> ^val <v2>)
                      (item ^grp 3 ^anchor <a> ^val <v3>)
               --> (halt))",
            &mut reg,
        )
        .unwrap();
        let groups = crate::bilinear::plan_bilinear(&p, 1);
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
        let topo = Topology::freeze(net);
        let mut live = JournaledSession::fresh(topo.clone(), true);
        let mut changes = Vec::new();
        for g in 1..=3 {
            for v in 0..4 {
                let (id, _) =
                    live.add_wme(parse_wme(&format!("(item ^grp {g} ^anchor a ^val {v})"), &reg).unwrap());
                changes.push((id, 1));
            }
        }
        let (id, _) = live.add_wme(parse_wme("(anchor ^id a)", &reg).unwrap());
        changes.push((id, 1));
        live.run_changes(changes);
        let groups = groups.expect("cross production splits");
        live.reorganize_production(0, NetworkOrg::Bilinear(groups)).unwrap();
        // Keep matching after the rebuild so replay exercises the rebuilt net.
        let (id, _) = live.add_wme(parse_wme("(item ^grp 1 ^anchor a ^val 9)", &reg).unwrap());
        live.run_changes(vec![(id, 1)]);

        let bytes = live.journal().unwrap().encode(&reg);
        let decoded = Journal::decode(&bytes, &mut reg).unwrap();
        let resumed = JournaledSession::resume(topo, decoded).unwrap();
        assert_eq!(session_digest(&live.eng), session_digest(&resumed.eng));
        assert_eq!(resumed.journal().unwrap().encode(&reg), bytes);
    }

    #[test]
    fn replay_against_wrong_history_is_a_typed_error() {
        let mut reg = ClassRegistry::new();
        let topo = topo(&mut reg);
        let j = Journal {
            ops: vec![SnapOp::AddWme {
                wme: parse_wme("(a ^x 1)", &reg).unwrap(),
                id: WmeId(5), // a fresh store assigns 0
            }],
        };
        assert!(matches!(j.replay(topo.clone()), Err(SnapshotError::Replay(_))));
        let j = Journal { ops: vec![SnapOp::RemoveWme { id: WmeId(0) }] };
        assert!(matches!(j.replay(topo), Err(SnapshotError::Replay(_))));
    }
}
