//! Observability layer for the Soar/PSM-E reproduction.
//!
//! The paper's entire argument rests on *measurement*: Gupta's per-node
//! activation counts, the null-activation overheads, the cost model behind
//! the simulated speedups. This crate makes the same measurements
//! first-class in the reproduction, each fact booked by one instrument:
//!
//! - [`rec`] — per-phase totals for the control thread's phases (match,
//!   conflict resolution, decide, chunk build, §5.1 network surgery, §5.2
//!   state update), and the per-worker counters ([`rec::CounterSet`]) that
//!   match processes accumulate thread-locally and flush at the cycle
//!   barrier they already cross.
//! - [`profile`] — a per-node profiler over [`psme_rete::TaskRecord`]
//!   streams producing §6-style hot-spot reports: activations, null
//!   activations, opposite-memory entries scanned, attributed cost, with a
//!   top-K table keyed back to production names.
//! - [`trace`] — the serving loop's event stream: per-worker
//!   fixed-capacity event rings (drop-oldest, per-worker sequence numbers,
//!   no hot-path allocation or locking), a merged run-level
//!   [`trace::TraceLog`], an anomaly-triggered [`trace::FlightRecorder`]
//!   with fixed triggers, and Chrome `trace_event` export for
//!   `chrome://tracing` / Perfetto.
//! - [`json`] — a dependency-free JSON value type, writer and strict
//!   parser (the build environment has no serde).
//! - [`report`] — plain-text table rendering and `BENCH_<name>.json`
//!   artifact emission for the bench harness.
//!
//! The three taxonomies — [`ControlPhase`], [`Counter`] and [`TraceKind`] —
//! are each declared once, name and all, by `psme_ops::named_enum!`; the
//! counters that sum a task's work take their slots from the one list that
//! declares [`psme_rete::Work`].
//!
//! Everything is deliberately free of external dependencies and of hot-path
//! synchronization: recording is owned by the thread doing the work, and
//! aggregation happens at barriers that already exist.

pub mod json;
pub mod profile;
pub mod quantiles;
pub mod rec;
pub mod report;
pub mod trace;

pub use json::Json;
pub use profile::{HotSpotReport, NodeProfile, NodeProfiler};
pub use quantiles::{Quantiles, Reservoir};
pub use rec::{ControlPhase, Counter, CounterSet, PhaseTotal, Recorder};
pub use report::{write_artifact, TextTable};
pub use trace::{
    DumpTrigger, FlightDump, FlightRecorder, TraceConfig, TraceEvent, TraceKind, TraceLog,
    TraceRing,
};
