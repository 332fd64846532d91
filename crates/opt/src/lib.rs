//! Embedded-specific code optimizations — the catalogue of Section 3.3 of
//! the paper, implemented as passes over [`record_isa::Code`]:
//!
//! * [`layout`] — data-memory placement (the substrate the next two passes
//!   rewrite),
//! * [`offset`] — simple offset assignment (Bartley/Liao/Leupers): order
//!   scalars so consecutive accesses sit in adjacent words and an
//!   address-generation unit's free post-increment does the addressing,
//! * [`address`] — addressing-mode assignment: direct where available,
//!   AGU-indirect with post-modify for array streams and (on targets
//!   without direct addressing) for scalars,
//! * [`banks`] — memory-bank assignment (Sudarsanam/Malik): place operand
//!   pairs in different banks so parallel moves can fetch them together,
//! * [`compact`] — code compaction: C25-style instruction fusion
//!   (`LT`+`APAC` = `LTA`), 56k-style parallel-move packing, and a
//!   bundle scheduler with both a list-scheduling heuristic and an
//!   exhaustive branch-and-bound mode ("compiler algorithms, which so far
//!   have been rejected due to their complexity, should be reconsidered"),
//! * [`modes`] — mode-change (residual control) minimization (Liao):
//!   insert the fewest `SOVM`/`ROVM`-style instructions that satisfy every
//!   instruction's mode requirement.
//!
//! Every pass both mutates the code and returns a statistics struct, so
//! the ablation benches in `record-bench` can quantify each design choice.
//!
//! The search-based passes (compaction's branch-and-bound, the offset
//! and bank searches) additionally come in `_budgeted` variants that
//! charge elementary steps against a [`SearchBudget`] and abort with
//! [`BudgetExceeded`] instead of running away — the unbudgeted entry
//! points delegate to them with an unlimited budget.

pub mod address;
pub mod banks;
pub mod budget;
pub mod compact;
pub mod layout;
pub mod modes;
pub mod offset;

pub use address::{assign_addresses, AddressError, AddressStats};
pub use banks::{assign_banks, assign_banks_budgeted, BankStats};
pub use budget::{BudgetExceeded, SearchBudget};
pub use compact::{
    fuse, hoist_invariant_prefix, pack_moves, schedule, schedule_budgeted, ScheduleMode,
};
pub use layout::{declaration_layout, layout_in_order, LayoutError};
pub use modes::{insert_mode_changes, ModeStrategy};
pub use offset::{soa_cost, soa_order, soa_order_budgeted, soa_order_ids};

/// What an instruction moved out of a slot leaves behind, so passes can
/// move instructions instead of copying them: allocates nothing.
pub(crate) fn vacated() -> record_isa::Insn {
    record_isa::Insn::ctrl(record_isa::InsnKind::Nop, String::new(), 0, 0)
}
