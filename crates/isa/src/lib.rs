//! Target-architecture descriptions for the RECORD reproduction.
//!
//! A code generator is *retargetable* when "the target model cannot be an
//! implicit part of the tool's algorithm, but must be explicit" (Section
//! 4.1 of the paper). This crate is that explicit model:
//!
//! * [`regs`] — heterogeneous register classes (accumulators, product and
//!   multiplier-input registers, address registers, general-purpose files),
//! * [`nonterm`] — the BURS nonterminals a target's grammar is written
//!   over; for heterogeneous-register machines, nonterminals *are* the
//!   register classes (tree-parsing register allocation à la
//!   Araujo/Balachandran),
//! * [`pattern`] — instruction patterns: tree shapes with costs,
//!   predicates, operand evaluation order and functional-unit usage,
//! * [`loc`] and [`code`] — the post-selection program representation:
//!   concrete instructions with executable semantics, structured loops,
//!   addressing modes and parallel slots,
//! * [`target`] — the [`TargetDesc`] tying everything together, including
//!   memory banks, address-generation units, operation modes (residual
//!   control) and instruction fusions,
//! * [`netlist`] — RT-level structural processor models, the input of
//!   instruction-set extraction (`record-ise`),
//! * [`taxonomy`] — the "processor cube" of Fig. 1,
//! * [`cube`] — the cube as a *generator*: seeded derivation of
//!   valid-by-construction target families spanning the cube's axes, and
//!   the parametric ASIP presets,
//! * [`targets`] — three concrete processor models: a TMS320C25-like DSP
//!   core, a dual-bank parallel-move DSP and a homogeneous RISC core.

pub mod code;
pub mod cube;
pub mod loc;
pub mod netlist;
pub mod netlist_text;
pub mod nonterm;
pub mod pattern;
pub mod regs;
pub mod target;
pub mod targets;
pub mod taxonomy;

pub use code::{Code, DataLayout, Insn, InsnKind, SemExpr, StructureError};
pub use loc::{AddrMode, Loc, MemLoc};
pub use nonterm::{NonTerm, NonTermId, NonTermKind};
pub use pattern::{Cost, PatNode, Predicate, Rhs, Rule, RuleId};
pub use regs::{RegClass, RegClassId, RegId};
pub use target::{StoreRule, TargetDesc};
