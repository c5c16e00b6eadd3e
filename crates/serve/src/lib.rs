//! # psme-serve — multi-session serving over one shared Rete topology
//!
//! The paper's production system serves a single agent. This layer
//! multiplexes **N Soar sessions over one compiled match network**:
//!
//! * the base network is compiled once and frozen into an immutable
//!   [`psme_rete::Topology`] shared by every session (`Arc`, no locks —
//!   the base is never mutated after freeze);
//! * each session owns its private [`psme_rete::MatchState`] (working
//!   memory + token memories), so the §5.2 state semantics run entirely in
//!   session-local storage;
//! * chunks a session learns go into its private **overlay region**
//!   ([`psme_rete::SessionNet`]): new nodes get IDs strictly above the
//!   shared base (preserving the §5.1 node-ID invariant per session), and
//!   splices into base successor lists are recorded as session-local edge
//!   deltas consulted during propagation — no base copy, no cross-session
//!   interference.
//!
//! On top of that split sits **one serving loop**: a bounded admission
//! queue with shed-oldest backpressure, a session table, and round-robin
//! dispatch of decision-cycle slices onto a worker pool driven by the same
//! three schedulers as the match engine (single queue, multi queue, work
//! stealing). [`OpenServe`] keeps the loop's front door open while the
//! workers run; batch [`serve`] is the closed arrival process over the same
//! loop — every spec admitted before the first worker starts. Per-session
//! telemetry (p50/p99 cycle latency, queue wait, overlay growth) is
//! reported through `psme-obs` quantiles.
//!
//! A session executing `(halt)` terminates **that session only** — the
//! loop keeps serving the rest (see `serve_isolation` tests).
//!
//! Serving can be **sharded** ([`ShardConfig`]): N worker pools, each
//! owning a routed partition of the sessions, its own dispatch queues and
//! store tier (session affinity), with cross-shard work-stealing only when
//! a pool runs dry — scaling past the single dispatch bus's contention
//! knee (the `shard_scaling` bench).
//!
//! [`des`] contains a deterministic discrete-event model of the same loop
//! for scheduler sweeps beyond the host's core count (the
//! `serve_throughput` bench).

pub mod des;
pub mod open;
pub mod serve;
pub mod session;
pub mod store;

pub use des::{
    simulate_serve, simulate_serve_open, simulate_serve_sharded, simulate_serve_tiered, DesConfig,
    DesOpenConfig, DesResult, DesShardConfig, DesTierConfig,
};
pub use open::{OpenServe, SubmitError};
pub use serve::{
    serve, ServeConfig, ServeConfigError, ServeEvent, ServeReport, ShardConfig, ShardReport,
    ShardRouter,
};
pub use session::{
    build_topology, SessionReport, SessionSpec, SessionTelemetry, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use store::{TierConfig, TierReport};
