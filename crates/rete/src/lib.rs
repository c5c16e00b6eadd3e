//! # psme-rete — the Rete match network with run-time production addition
//!
//! The match substrate of the Soar/PSM-E reproduction (Tambe et al., PPoPP
//! 1988): a Rete network (§2.2) with
//!
//! * a shared constant-test **alpha network** ([`alpha`]),
//! * a beta DAG of **join / not / P nodes** whose token memories live in two
//!   global hash tables keyed on the equality bindings and the destination
//!   node id, one lock per line (§6.1) — [`node`], [`memory`],
//! * Soar **conjunctive negations** (not-nodes with a beta-side subnetwork)
//!   and the **constrained bilinear networks** of Figure 6-8 ([`build`]),
//! * **run-time addition of productions** (§5.1) with the node-ID-filtered
//!   **state update** of §5.2 ([`build`], [`update`]),
//! * a deterministic **serial engine** ([`serial`]) that doubles as trace
//!   producer for the Multimax simulator, and a brute-force **oracle**
//!   matcher ([`naive`]) for differential testing,
//! * one task's counted work, [`Work`] ([`work`]), the one value every
//!   consumer of a task's counts reads,
//! * the **code-size / compile-time models** behind Tables 5-1 and 5-2
//!   ([`codesize`]).
//!
//! Activations carry signed deltas and memories store weights (a counting
//! Rete), which makes the same node semantics correct under the parallel
//! engine's arbitrary task interleavings (see `psme-core`).
//!
//! ```
//! use psme_ops::{parse_program, parse_wme, ClassRegistry};
//! use psme_rete::{NetworkOrg, ReteBuild, ReteNetwork, SerialEngine};
//! use std::sync::Arc;
//!
//! let mut classes = ClassRegistry::new();
//! let prods = parse_program(
//!     "(literalize block name color on) (literalize hand state)
//!      (p graspable
//!         (block ^name <b> ^color blue) -(block ^on <b>) (hand ^state free)
//!         --> (modify 1 ^color held))",
//!     &mut classes,
//! ).unwrap();
//! let mut net = ReteNetwork::new();
//! for p in prods {
//!     net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
//! }
//! let mut engine = SerialEngine::new(net);
//! let out = engine.apply_changes(
//!     vec![
//!         parse_wme("(block ^name b1 ^color blue)", &classes).unwrap(),
//!         parse_wme("(hand ^state free)", &classes).unwrap(),
//!     ],
//!     vec![],
//! );
//! assert_eq!(out.cs.added.len(), 1);
//! ```

pub mod alpha;
pub mod bilinear;
pub mod build;
pub mod codesize;
pub mod memory;
pub mod naive;
pub mod network;
pub mod node;
pub mod ops5;
pub mod process;
pub mod reorg;
pub mod serial;
pub mod session;
pub mod snapshot;
pub mod state;
pub mod sync;
pub mod testgen;
pub mod token;
pub mod trace;
pub mod update;
pub mod view;
pub mod work;

pub use alpha::{AlphaMem, AlphaMemId, AlphaNet, AlphaStats};
pub use bilinear::{plan_bilinear, plan_chain_length};
pub use build::{AddResult, BuildError, ReorgBuild, ReteBuild};
pub use codesize::{code_size, compile_time_us, CodeSizeModel, CodegenStyle, ProdCodeSize};
/// The Fx hasher; it lives in `psme-ops` so the conflict set can use it too.
pub use psme_ops::util;

pub use memory::{
    key_hash, token_hash, Arrival, Bucket, Entry, KeyElem, LineData, Lines, MemoryTable, Upsert,
    STRIPE,
};
pub use network::{NetStats, NetworkOrg, ProdInfo, ReteNetwork};
pub use node::{BetaNode, JoinTest, KeyPart, NodeId, NodeKind, RightSrc, Side, ROOT};
pub use ops5::{Ops5Runtime, Ops5Stop};
pub use process::{
    assert_quiescent, process_beta, process_beta_scratch, process_wme_change, Activation,
    BetaScratch, CsChange,
};
pub use reorg::{ChainDetector, CostWindow, ReorgConfig, ReorgDecision};
pub use serial::{
    instantiation_of, instantiations_from_memories, AddOutcome, CsDelta, CsFold,
    CycleOutcome, ReorgOutcome, SerialEngine,
};
pub use session::{JournaledSession, SessionNet, Topology};
pub use snapshot::{
    fnv1a64, open_frame, seal_frame, session_digest, ByteReader, ByteWriter, Decode, Encode,
    Journal, SnapOp, SnapshotError, JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use state::MatchState;
pub use sync::{SpinGuard, SpinLock};
pub use token::{Token, WmeStore};
pub use trace::{CycleTrace, Phase, RunTrace, TaskKind, TaskRecord};
pub use update::seed_update;
pub use view::ReteView;
pub use work::Work;
