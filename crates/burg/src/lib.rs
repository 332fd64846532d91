//! An iburg-style BURS tree-pattern matcher generator.
//!
//! The paper (Section 4.3.3): *"The `iburg` tool set allows generating
//! pattern matchers for any given target instruction set automatically.
//! This is also the tool used in RECORD for selecting instructions."*
//!
//! This crate is that component, rebuilt in Rust:
//!
//! * [`Matcher::new`] **generates** a matcher from a target grammar: it
//!   indexes pattern rules by root operator and chain rules by source
//!   nonterminal (iburg does this at C-code-generation time; we do it at
//!   target-load time — same algorithm, different packaging),
//! * [`Matcher::label`] runs the **bottom-up dynamic programming** pass of
//!   Aho/Ganapathi/Tjiang: for every tree node and every nonterminal it
//!   records the cheapest rule deriving the node to that nonterminal,
//!   closing over chain rules until a fixpoint,
//! * [`Matcher::reduce`] walks the labels **top-down** and produces a
//!   [`Cover`]: the tree of rule applications (Fig. 5 of the paper) that
//!   the code emitter in `record` turns into instructions.
//!
//! Optimality: for a fixed tree and grammar, the returned cover has
//! minimal total [`record_isa::Cost::weight`] — the classical BURS
//! optimality guarantee; the tests in this crate check it against an
//! exhaustive enumerator on small trees.

pub mod cover;
pub mod label;
pub mod matcher;

pub use cover::{Cover, CoverBuf, CoverNode, FlatOperand, Operand, SHARED_RULE};
pub use label::{Entry, LabelCache, LabelId, Labeled};
pub use matcher::{best_candidate, CutSet, Matcher, Tables};
