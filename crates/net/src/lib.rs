//! # psme-net — a framed TCP front-end for the serving layer
//!
//! The serving layer (`psme-serve`) admits, schedules, shards, and sheds —
//! but until this crate, every caller was in-process and every throughput
//! number closed-loop. `psme-net` puts a wire in front of it:
//!
//! * [`wire`] — a hand-rolled, versioned, length-prefixed frame format
//!   over the repo's sealed-frame envelope (magic + version + checksum;
//!   corrupt bytes are typed errors, never panics). No tokio, no serde:
//!   `std::net` blocking sockets and threads, matching the repo's
//!   no-heavy-deps style.
//! * [`server`] — [`server::NetServer`] hosts one [`apps::AppDef`] per
//!   paper task (one frozen topology each) and feeds decoded requests
//!   through the same sharded admission path as in-process serving
//!   ([`psme_serve::OpenServe`]); responses carry summaries the loopback
//!   differential proves bit-for-bit equal to batch [`psme_serve::serve`].
//! * [`client`] — a small blocking client with a background reader.
//! * [`load`] — seed-reproducible **open-loop** Poisson arrival schedules
//!   (see DESIGN.md §9 for the methodology).

pub mod apps;
pub mod client;
pub mod load;
pub mod server;
pub mod wire;

pub use apps::{paper_apps, AppDef, PUZZLE_MOVES};
pub use client::{Client, ClientHandle};
pub use load::{exp_interarrival, poisson_arrivals};
pub use psme_rete::util::{splitmix64, u01};
pub use server::NetServer;
pub use wire::{
    read_frame, stop_code, write_frame, Frame, FrameError, SessionSummary, APP_SHIFT, MAX_FRAME,
    WIRE_MAGIC, WIRE_VERSION,
};
