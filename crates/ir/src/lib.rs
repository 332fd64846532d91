//! Intermediate representation for the RECORD reproduction.
//!
//! This crate provides everything that sits *in front of* the retargetable
//! back end described in Marwedel's DAC'97 tutorial "Code Generation for
//! Core Processors":
//!
//! * a small DSP-oriented source language in the spirit of DFL
//!   (module [`dfl`]): fixed-point scalars and arrays, bounded `for` loops,
//!   delayed signals (`x@1`) and saturating operators; the lexer interns
//!   each name once into a [`Symbol`],
//! * lowering ([`lower`]) into the linear IR ([`lir`]), whose trees live
//!   in one hash-consed pool ([`pool`]) that the program owns and every
//!   later stage adds to: the one tree form from lowering to selection,
//! * boxed expression trees ([`tree`]) over a shared operator vocabulary
//!   ([`ops`]), for building programs by hand and for the reference
//!   oracles,
//! * decomposition of each block's data-flow graph into trees at
//!   multi-use points ([`treeify`]), the standard preprocessing step
//!   before BURS covering,
//! * block-level DAG construction over the interned pool ([`blockdag`]):
//!   common-subtree detection across statements with a store-version
//!   soundness analysis, the input to DAG covering in the back end,
//! * a fast seeded hasher for the id-keyed tables of selection
//!   ([`hash`]),
//! * algebraic transformation rules and bounded variant enumeration
//!   ([`transform`]), which RECORD uses to offer the tree matcher several
//!   equivalent trees and keep the cheapest cover,
//! * optional constant folding ([`fold`]) — *disabled by default*, because
//!   the paper points out that RECORD contains no standard optimizations
//!   such as constant folding.
//!
//! # Example
//!
//! ```
//! use record_ir::dfl;
//!
//! let src = "
//!     program dot;
//!     const N = 4;
//!     var a: fix[N]; var b: fix[N]; var y: fix;
//!     begin
//!       y := 0;
//!       for i in 0..N-1 loop
//!         y := y + a[i] * b[i];
//!       end loop;
//!     end
//! ";
//! let program = dfl::parse(src)?;
//! let lir = record_ir::lower::lower(&program)?;
//! assert_eq!(lir.name.as_str(), "dot");
//! # Ok::<(), record_ir::Error>(())
//! ```

pub mod blockdag;
#[cfg(test)]
mod dfg;
pub mod dfl;
pub mod fingerprint;
pub mod fold;
pub mod hash;
pub mod lir;
pub mod lower;
pub mod mem;
pub mod ops;
pub mod pool;
pub mod symbol;
pub mod transform;
pub mod tree;
pub mod treeify;

mod error;

pub use blockdag::{BlockDag, DagScratch, SharedValue};
pub use error::Error;
pub use lir::{AssignStmt, Lir, LirItem};
pub use mem::{Bank, Index, MemRef};
pub use ops::{BinOp, Op, UnOp};
pub use pool::{TreeId, TreeNode, TreePool};
pub use symbol::Symbol;
pub use tree::Tree;
