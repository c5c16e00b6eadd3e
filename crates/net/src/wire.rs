//! The framed wire format.
//!
//! Every frame on a connection is a 4-byte little-endian length followed
//! by that many bytes of sealed payload — the same magic + version +
//! checksum envelope the session snapshots use ([`psme_rete::seal_frame`]),
//! so a truncated, corrupted, or cross-version frame is a typed
//! [`SnapshotError`], never a panic and never a silently misparsed
//! request. Inside the envelope: a one-byte tag and the fields written
//! with the repo's [`ByteWriter`] primitives.
//!
//! | tag | frame          | direction | fields |
//! |----:|----------------|-----------|--------|
//! |   0 | `Hello`        | c → s     | proto `u32`, client `str` |
//! |   1 | `OpenSession`  | c → s     | app `str`, session `str`, seed `u64`, learning `bool`, grant `opt u64` |
//! |   2 | `Step`         | c → s     | id `u32`, n `u64` |
//! |   3 | `Learn`        | c → s     | id `u32`, enable `bool` |
//! |   4 | `CloseSession` | c → s     | id `u32` |
//! |   5 | `Bye`          | c → s     | — |
//! |  16 | `HelloOk`      | s → c     | proto `u32`, server `str`, apps `[str]` |
//! |  17 | `Opened`       | s → c     | id `u32` |
//! |  18 | `Refused`      | s → c     | session `str`, reason `str` |
//! |  19 | `Stepped`      | s → c     | id `u32`, decisions `u64` |
//! |  20 | `SessionShed`  | s → c     | id `u32` |
//! |  21 | `Done`         | s → c     | id `u32`, [`SessionSummary`] |
//!
//! Session ids are server-assigned, dense per app, composed as
//! `app_index << APP_SHIFT | per-app id` — clients treat them as opaque.

use psme_rete::snapshot::{ByteReader, ByteWriter};
use psme_rete::{open_frame, seal_frame, SnapshotError};
use psme_serve::SessionReport;
use psme_soar::{AgentStats, StopReason};

/// Wire-frame magic.
pub const WIRE_MAGIC: [u8; 4] = *b"PSMN";
/// Wire-format version; `Hello`/`HelloOk` carry it so both ends can
/// refuse a mismatch before any session state exists.
pub const WIRE_VERSION: u32 = 2;
/// Upper bound on a frame's sealed payload — a length prefix past this is
/// a protocol violation (or garbage), not a buffer to allocate.
pub const MAX_FRAME: usize = 1 << 20;
/// Bits of a session id holding the per-app id; the app index lives above.
pub const APP_SHIFT: u32 = 24;

/// A retired session's result, as carried by [`Frame::Done`]. Exactly the
/// fields the in-process serving report guarantees bit-for-bit against a
/// solo run (stop reason, agent counters, chunk names, `(write …)`
/// output) — no wall-clock telemetry, so the loopback differential can
/// compare encoded bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSummary {
    /// Session name.
    pub name: String,
    /// Stop reason ([`StopReason`] as a stable small code).
    pub stop: u8,
    /// Agent counters.
    pub stats: AgentStats,
    /// Chunks learned into the session's overlay, in build order.
    pub chunk_names: Vec<String>,
    /// `(write …)` output lines.
    pub output: Vec<String>,
}

/// Stable wire code for a stop reason.
pub fn stop_code(stop: StopReason) -> u8 {
    match stop {
        StopReason::Halted => 0,
        StopReason::Stuck => 1,
        StopReason::DecisionLimit => 2,
        StopReason::ElaborationRunaway => 3,
        StopReason::Closed => 4,
    }
}

impl SessionSummary {
    /// Build from a (non-shed) serving report.
    pub fn from_report(r: &SessionReport) -> SessionSummary {
        SessionSummary {
            name: r.name.clone(),
            stop: stop_code(r.stop.expect("shed sessions have no summary")),
            stats: r.stats,
            chunk_names: r.chunk_names.clone(),
            output: r.output.clone(),
        }
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.str(&self.name);
        w.u8(self.stop);
        for v in self.stats.counts() {
            w.u64(v);
        }
        w.u64(self.chunk_names.len() as u64);
        for c in &self.chunk_names {
            w.str(c);
        }
        w.u64(self.output.len() as u64);
        for o in &self.output {
            w.str(o);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<SessionSummary, SnapshotError> {
        let name = r.str()?;
        let stop = r.u8()?;
        let mut counts = [0; 9];
        for c in &mut counts {
            *c = r.u64()?;
        }
        let stats = AgentStats::from_counts(counts);
        let mut chunk_names = Vec::new();
        for _ in 0..r.count()? {
            chunk_names.push(r.str()?);
        }
        let mut output = Vec::new();
        for _ in 0..r.count()? {
            output.push(r.str()?);
        }
        Ok(SessionSummary { name, stop, stats, chunk_names, output })
    }
}

/// Every frame either end can send. One enum so encode/decode stay in one
/// place and the proptest round-trip covers the whole protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client greeting; the server refuses a version mismatch.
    Hello {
        /// Client's wire version.
        proto: u32,
        /// Client identification, free-form.
        client: String,
    },
    /// Open a session on an app. `seed` parameterizes the app's task
    /// instance (the eight-puzzle app scrambles its board with it; fixed
    /// apps ignore it). `grant` is the initial decision credit (`None`
    /// auto-runs to completion).
    OpenSession {
        /// App name, from `HelloOk`.
        app: String,
        /// Session name, unique per app per server run.
        session: String,
        /// Task-instance seed.
        seed: u64,
        /// Learn chunks into the session's overlay.
        learning: bool,
        /// Initial decision credit.
        grant: Option<u64>,
    },
    /// Grant `n` more decisions to a credited session.
    Step {
        /// Session id from `Opened`.
        id: u32,
        /// Decisions to grant.
        n: u64,
    },
    /// Toggle chunk learning mid-run.
    Learn {
        /// Session id.
        id: u32,
        /// New learning state.
        enable: bool,
    },
    /// Close a session; it retires with a `Closed` stop and a `Done` frame.
    CloseSession {
        /// Session id.
        id: u32,
    },
    /// Client is leaving; the server drops the connection.
    Bye,
    /// Server greeting: its version and the apps it hosts.
    HelloOk {
        /// Server's wire version.
        proto: u32,
        /// Server identification.
        server: String,
        /// Hosted app names, open-able via `OpenSession`.
        apps: Vec<String>,
    },
    /// A session was admitted (or queued for admission) under this id.
    Opened {
        /// Server-assigned session id.
        id: u32,
    },
    /// An `OpenSession` was refused (unknown app, duplicate name, id
    /// space exhausted, server draining). Not a shed: the session never
    /// entered admission.
    Refused {
        /// The session name from the refused request.
        session: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A credited session consumed its grant and parked; `decisions` is
    /// its running total.
    Stepped {
        /// Session id.
        id: u32,
        /// Decisions executed so far.
        decisions: u64,
    },
    /// Admission backpressure shed this session (it had been accepted).
    SessionShed {
        /// Session id.
        id: u32,
    },
    /// A session retired; its summary.
    Done {
        /// Session id.
        id: u32,
        /// The result.
        summary: SessionSummary,
    },
}

impl Frame {
    /// Encode into a sealed, length-prefixed wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Frame::Hello { proto, client } => {
                w.u8(0);
                w.u32(*proto);
                w.str(client);
            }
            Frame::OpenSession { app, session, seed, learning, grant } => {
                w.u8(1);
                w.str(app);
                w.str(session);
                w.u64(*seed);
                w.bool(*learning);
                w.bool(grant.is_some());
                w.u64(grant.unwrap_or(0));
            }
            Frame::Step { id, n } => {
                w.u8(2);
                w.u32(*id);
                w.u64(*n);
            }
            Frame::Learn { id, enable } => {
                w.u8(3);
                w.u32(*id);
                w.bool(*enable);
            }
            Frame::CloseSession { id } => {
                w.u8(4);
                w.u32(*id);
            }
            Frame::Bye => {
                w.u8(5);
            }
            Frame::HelloOk { proto, server, apps } => {
                w.u8(16);
                w.u32(*proto);
                w.str(server);
                w.u64(apps.len() as u64);
                for a in apps {
                    w.str(a);
                }
            }
            Frame::Opened { id } => {
                w.u8(17);
                w.u32(*id);
            }
            Frame::Refused { session, reason } => {
                w.u8(18);
                w.str(session);
                w.str(reason);
            }
            Frame::Stepped { id, decisions } => {
                w.u8(19);
                w.u32(*id);
                w.u64(*decisions);
            }
            Frame::SessionShed { id } => {
                w.u8(20);
                w.u32(*id);
            }
            Frame::Done { id, summary } => {
                w.u8(21);
                w.u32(*id);
                summary.encode(&mut w);
            }
        }
        let sealed = seal_frame(WIRE_MAGIC, WIRE_VERSION, w.into_inner());
        let mut out = Vec::with_capacity(4 + sealed.len());
        out.extend_from_slice(&(sealed.len() as u32).to_le_bytes());
        out.extend_from_slice(&sealed);
        out
    }

    /// Decode one sealed payload (the bytes after the length prefix).
    /// Every malformation — bad magic, wrong version, truncation, bit
    /// flips, unknown tag, trailing garbage — is a typed error.
    pub fn decode(sealed: &[u8]) -> Result<Frame, SnapshotError> {
        let payload = open_frame(sealed, WIRE_MAGIC, WIRE_VERSION)?;
        let mut r = ByteReader::new(payload);
        let frame = match r.u8()? {
            0 => Frame::Hello { proto: r.u32()?, client: r.str()? },
            1 => Frame::OpenSession {
                app: r.str()?,
                session: r.str()?,
                seed: r.u64()?,
                learning: r.bool()?,
                grant: {
                    let some = r.bool()?;
                    let v = r.u64()?;
                    some.then_some(v)
                },
            },
            2 => Frame::Step { id: r.u32()?, n: r.u64()? },
            3 => Frame::Learn { id: r.u32()?, enable: r.bool()? },
            4 => Frame::CloseSession { id: r.u32()? },
            5 => Frame::Bye,
            16 => Frame::HelloOk {
                proto: r.u32()?,
                server: r.str()?,
                apps: {
                    let mut apps = Vec::new();
                    for _ in 0..r.count()? {
                        apps.push(r.str()?);
                    }
                    apps
                },
            },
            17 => Frame::Opened { id: r.u32()? },
            18 => Frame::Refused { session: r.str()?, reason: r.str()? },
            19 => Frame::Stepped { id: r.u32()?, decisions: r.u64()? },
            20 => Frame::SessionShed { id: r.u32()? },
            21 => Frame::Done { id: r.u32()?, summary: SessionSummary::decode(&mut r)? },
            t => return Err(SnapshotError::Corrupt(format!("unknown frame tag {t}"))),
        };
        r.expect_done()?;
        Ok(frame)
    }
}

/// Read one frame from a byte stream: length prefix, bound check, sealed
/// payload, decode. `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame<R: std::io::Read>(r: &mut R) -> Result<Option<Frame>, FrameError> {
    let mut len = [0u8; 4];
    // EOF before any length byte is a clean close; mid-prefix is not.
    match r.read(&mut len[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    r.read_exact(&mut len[1..]).map_err(FrameError::Io)?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(FrameError::Oversized(n));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf).map_err(FrameError::Io)?;
    Frame::decode(&buf).map(Some).map_err(FrameError::Wire)
}

/// Write one frame to a byte stream.
pub fn write_frame<W: std::io::Write>(w: &mut W, f: &Frame) -> std::io::Result<()> {
    w.write_all(&f.encode())?;
    w.flush()
}

/// Why reading a frame off a connection failed.
#[derive(Debug)]
pub enum FrameError {
    /// Socket error or mid-frame EOF.
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The sealed payload failed to open or decode.
    Wire(SnapshotError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::Oversized(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
            FrameError::Wire(e) => write!(f, "frame decode: {e:?}"),
        }
    }
}

impl std::error::Error for FrameError {}
