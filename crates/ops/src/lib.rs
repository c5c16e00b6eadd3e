//! # psme-ops — the OPS5/Soar production-system language
//!
//! This crate implements the language layer of the Soar/PSM-E reproduction
//! (Tambe et al., PPoPP 1988): interned symbols, working-memory elements
//! (wmes), class declarations (`literalize`), condition elements with
//! constant / variable-equality / predicate tests, negated condition elements
//! and Soar's *conjunctive negations*, right-hand-side actions, a parser for
//! the textual OPS5 syntax, and OPS5's LEX conflict-resolution strategy.
//!
//! The match network itself lives in `psme-rete`; the parallel engine in
//! `psme-core`; the Soar architecture (decide + chunking) in `psme-soar`.
//!
//! ## Quick example
//!
//! ```
//! use psme_ops::{parse_program, ClassRegistry};
//!
//! let mut classes = ClassRegistry::new();
//! let prods = parse_program(
//!     "(literalize block name color on state)
//!      (literalize hand state)
//!      (p blue-block-is-graspable
//!         (block ^name <b> ^color blue)
//!        -(block ^on <b>)
//!         (hand ^state free)
//!        -->
//!         (modify 1 ^state graspable))",
//!     &mut classes,
//! ).unwrap();
//! assert_eq!(prods.len(), 1);
//! assert_eq!(prods[0].ces.len(), 3);
//! ```

pub mod action;
pub mod conflict;
pub mod cond;
pub mod parser;
pub mod printer;
pub mod production;
pub mod symbol;
pub mod util;
pub mod value;
pub mod wme;

pub use action::{Action, RhsBind, RhsExpr, RhsTerm};
pub use conflict::{ConflictSet, Strategy};
pub use cond::{Cond, CondElem, FieldTest, Pred};
pub use parser::{parse_production, parse_program, parse_wme, ParseError};
pub use printer::production_text;
pub use production::{BindSite, ConcreteAction, Instantiation, Production, VarId, VarTable};
pub use symbol::{gensym, intern, sym_name, LazySymbol, Symbol};
pub use value::Value;
pub use wme::{ClassDecl, ClassRegistry, TimeTag, Wme, WmeId};
