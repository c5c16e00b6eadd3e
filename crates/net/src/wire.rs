//! The framed wire format.
//!
//! Every frame on a connection is a 4-byte little-endian length followed
//! by that many bytes of sealed payload — the same magic + version +
//! checksum envelope the session snapshots use ([`psme_rete::seal_frame`]),
//! so a truncated, corrupted, or cross-version frame is a typed
//! [`SnapshotError`], never a panic and never a silently misparsed
//! request. Inside the envelope: a one-byte tag and the frame's fields
//! in order, as [`Frame`]'s declaration states them — each variant's tag
//! and field order are written there once, and nowhere else.
//!
//! Session ids are server-assigned, dense per app, composed as
//! `app_index << APP_SHIFT | per-app id` — clients treat them as opaque.

use psme_rete::snapshot::{ByteReader, ByteWriter, Decode, Encode};
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

psme_rete::codec! {
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
}

/// `OpenSession.grant` on the wire: a flag, then a `u64` that is always
/// present (0 without a grant).
struct Grant(Option<u64>);

impl Encode for Grant {
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        w.put(&(self.0.is_some(), self.0.unwrap_or(0)));
    }
}

impl Decode for Grant {
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Grant, SnapshotError> {
        let (some, n): (bool, u64) = r.get()?;
        Ok(Grant(some.then_some(n)))
    }
}

psme_rete::codec! {
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
        } = 0,
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
            grant: Option<u64> as Grant,
        } = 1,
        /// Grant `n` more decisions to a credited session.
        Step {
            /// Session id from `Opened`.
            id: u32,
            /// Decisions to grant.
            n: u64,
        } = 2,
        /// Toggle chunk learning mid-run.
        Learn {
            /// Session id.
            id: u32,
            /// New learning state.
            enable: bool,
        } = 3,
        /// Close a session; it retires with a `Closed` stop and a `Done` frame.
        CloseSession {
            /// Session id.
            id: u32,
        } = 4,
        /// Client is leaving; the server drops the connection.
        Bye = 5,
        /// Server greeting: its version and the apps it hosts.
        HelloOk {
            /// Server's wire version.
            proto: u32,
            /// Server identification.
            server: String,
            /// Hosted app names, open-able via `OpenSession`.
            apps: Vec<String>,
        } = 16,
        /// A session was admitted (or queued for admission) under this id.
        Opened {
            /// Server-assigned session id.
            id: u32,
        } = 17,
        /// An `OpenSession` was refused (unknown app, duplicate name, id
        /// space exhausted, server draining). Not a shed: the session never
        /// entered admission.
        Refused {
            /// The session name from the refused request.
            session: String,
            /// Human-readable reason.
            reason: String,
        } = 18,
        /// A credited session consumed its grant and parked; `decisions` is
        /// its running total.
        Stepped {
            /// Session id.
            id: u32,
            /// Decisions executed so far.
            decisions: u64,
        } = 19,
        /// Admission backpressure shed this session (it had been accepted).
        SessionShed {
            /// Session id.
            id: u32,
        } = 20,
        /// A session retired; its summary.
        Done {
            /// Session id.
            id: u32,
            /// The result.
            summary: SessionSummary,
        } = 21,
    }
}

impl Frame {
    /// Encode into a sealed, length-prefixed wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put(self);
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
        let mut r = ByteReader::new(open_frame(sealed, WIRE_MAGIC, WIRE_VERSION)?);
        let frame = r.get()?;
        r.expect_done()?;
        Ok(frame)
    }
}

/// Read one frame from a byte stream: length prefix, bound check, sealed
/// payload, decode. `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame<R: std::io::Read>(r: &mut R) -> Result<Option<Frame>, FrameError> {
    let mut len = [0u8; 4];
    // EOF before any length byte is a clean close; mid-prefix is not. A
    // signal before the first byte is retried, as `read_exact` retries it.
    loop {
        match r.read(&mut len[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
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
