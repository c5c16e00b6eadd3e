//! # psme-core — the PSM-E parallel match engine
//!
//! The paper's primary contribution: a parallel production-system matcher
//! exploiting parallelism "at the granularity of node activations" (§2.3),
//! with
//!
//! * instrumented **task queues** — one shared central queue, one queue
//!   per match process with cycling search, or per-worker Chase–Lev
//!   work-stealing deques with batched activation transfer
//!   ([`queue`], [`deque`]),
//! * **match processes** of which the first is the calling thread: one
//!   match loop over private deques, an outstanding-work counter, and
//!   long-lived helpers called in through a cycle gate only when the
//!   frontier is wide ([`engine`]; `EngineConfig::workers` includes the
//!   caller),
//! * hashed memories with per-line locks (from `psme-rete`), so
//!   simultaneous left/right activations at a node are linearizable,
//! * **parallel run-time production addition**: the §5.1 compile followed
//!   by the §5.2 state update executed through the same task queues
//!   (Figure 6-9 measures exactly this),
//! * full **instrumentation**: spins per queue access, failed pops, memory
//!   lock spins, bucket-access histograms, tasks/cycle ([`metrics`]).
//!
//! The engine is validated differentially: for any workload the conflict
//! set must equal both the serial engine's and the brute-force oracle's
//! (see `tests/parallel_differential.rs`).
//!
//! ```
//! use psme_core::{EngineConfig, ParallelEngine, Scheduler};
//! use psme_ops::{parse_program, parse_wme, ClassRegistry};
//! use psme_rete::{NetworkOrg, ReteBuild, ReteNetwork};
//! use std::sync::Arc;
//!
//! let mut classes = ClassRegistry::new();
//! let prods = parse_program(
//!     "(literalize block color) (literalize hand state)
//!      (p ready (block ^color blue) (hand ^state free) --> (halt))",
//!     &mut classes,
//! ).unwrap();
//! let mut net = ReteNetwork::new();
//! for p in prods {
//!     net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
//! }
//! let mut engine = ParallelEngine::new(net, EngineConfig {
//!     workers: 3,
//!     scheduler: Scheduler::MultiQueue,
//!     ..Default::default()
//! });
//! let out = engine.apply_changes(
//!     vec![
//!         parse_wme("(block ^color blue)", &classes).unwrap(),
//!         parse_wme("(hand ^state free)", &classes).unwrap(),
//!     ],
//!     vec![],
//! );
//! assert_eq!(out.cs.added.len(), 1);
//! ```

pub mod deque;
pub mod engine;
mod gate;
pub mod metrics;
pub mod queue;
pub mod traits;

pub use deque::{Steal, WsDeque};
pub use engine::{EngineConfig, ParallelEngine};
pub use metrics::{CycleMetrics, MetricsLog, WorkerStats};
pub use queue::{QueueStats, Scheduler, Task, TaskQueues, TASK_BATCH};
pub use traits::MatchEngine;
