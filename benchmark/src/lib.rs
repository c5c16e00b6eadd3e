//! The repo benchmark: four host-measured workloads from TCP frame to join
//! node, with per-layer attribution. See `README.md` beside this crate.

pub mod instances;
pub mod load;
pub mod metrics;
pub mod repeat;
pub mod solo;
pub mod stats;
pub mod sys;
pub mod timed;
pub mod trace;
pub mod workloads;
