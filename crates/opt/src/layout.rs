//! Data-memory layout construction.

use std::fmt;

use record_ir::lir::VarInfo;
use record_ir::{Bank, Symbol};
use record_isa::{DataLayout, TargetDesc};

/// A structured data-layout failure, carrying the offending symbol and
/// bank rather than a pre-formatted string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// A bank-Y placement was requested on a single-bank target.
    BankUnavailable {
        /// The symbol asking for bank Y.
        sym: Symbol,
        /// The target name.
        target: String,
    },
    /// A bank ran out of words.
    BankOverflow {
        /// The bank that overflowed.
        bank: Bank,
        /// The symbol that did not fit.
        sym: Symbol,
        /// Words the symbol needs.
        len: u32,
        /// The first free address when placement was attempted.
        addr: u32,
    },
    /// The same symbol was declared twice.
    DuplicateSymbol {
        /// The symbol.
        sym: Symbol,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::BankUnavailable { sym, target } => {
                write!(f, "`{sym}` requests bank Y but target {target} has one bank")
            }
            LayoutError::BankOverflow { bank, sym, len, addr } => {
                write!(f, "bank {bank} overflows: `{sym}` needs {len} words at {addr}")
            }
            LayoutError::DuplicateSymbol { sym } => write!(f, "`{sym}` declared twice"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Places variables in declaration order, packing each bank from address
/// zero. Bank hints from the source are honoured; unhinted variables go
/// to bank X (single-bank targets ignore banks entirely).
///
/// This is the baseline the offset- and bank-assignment passes improve on.
///
/// # Errors
///
/// Returns an error if a bank overflows the target's memory.
///
/// # Example
///
/// ```
/// use record_ir::lir::{StorageKind, VarInfo};
/// use record_ir::Symbol;
///
/// let vars = vec![VarInfo {
///     name: Symbol::new("x"),
///     len: 4,
///     kind: StorageKind::Var,
///     bank: None,
///     is_fix: true,
/// }];
/// let target = record_isa::targets::tic25::target();
/// let layout = record_opt::declaration_layout(&vars, &target)?;
/// assert_eq!(layout.addr_of(&Symbol::new("x"), 0), Some((record_ir::Bank::X, 0)));
/// # Ok::<(), record_opt::LayoutError>(())
/// ```
pub fn declaration_layout(
    vars: &[VarInfo],
    target: &TargetDesc,
) -> Result<DataLayout, LayoutError> {
    layout_in_order(vars.iter().map(|v| (v.name.clone(), v.len, v.bank)), target)
}

/// Places variables in the given order; `bank` of `None` means bank X.
///
/// # Errors
///
/// Returns an error if a bank overflows, a variable appears twice, or a
/// Y-bank placement is requested on a single-bank target.
pub fn layout_in_order(
    vars: impl IntoIterator<Item = (Symbol, u32, Option<Bank>)>,
    target: &TargetDesc,
) -> Result<DataLayout, LayoutError> {
    let vars = vars.into_iter();
    let mut layout = DataLayout::with_capacity(vars.size_hint().0);
    let mut next = [0u32; 2];
    for (sym, len, bank) in vars {
        let bank = bank.unwrap_or(Bank::X);
        if bank == Bank::Y && target.memory.banks < 2 {
            return Err(LayoutError::BankUnavailable { sym, target: target.name.to_string() });
        }
        let slot = bank as usize;
        let addr = next[slot];
        if addr + len > target.memory.words_per_bank as u32 {
            return Err(LayoutError::BankOverflow { bank, sym, len, addr });
        }
        layout
            .try_place(sym, addr as u16, len, bank)
            .map_err(|sym| LayoutError::DuplicateSymbol { sym })?;
        next[slot] += len;
    }
    Ok(layout)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    #[test]
    fn packs_sequentially() {
        let t = record_isa::targets::tic25::target();
        let l = layout_in_order(
            vec![(sym("a"), 4, None), (sym("b"), 1, None), (sym("c"), 2, None)],
            &t,
        )
        .unwrap();
        assert_eq!(l.addr_of(&sym("a"), 0), Some((Bank::X, 0)));
        assert_eq!(l.addr_of(&sym("b"), 0), Some((Bank::X, 4)));
        assert_eq!(l.addr_of(&sym("c"), 1), Some((Bank::X, 6)));
    }

    #[test]
    fn dual_bank_packs_independently() {
        let t = record_isa::targets::dsp56k::target();
        let l = layout_in_order(
            vec![
                (sym("a"), 4, Some(Bank::X)),
                (sym("b"), 4, Some(Bank::Y)),
                (sym("c"), 1, Some(Bank::X)),
            ],
            &t,
        )
        .unwrap();
        assert_eq!(l.addr_of(&sym("b"), 0), Some((Bank::Y, 0)));
        assert_eq!(l.addr_of(&sym("c"), 0), Some((Bank::X, 4)));
    }

    #[test]
    fn rejects_bank_y_on_single_bank_target() {
        let t = record_isa::targets::tic25::target();
        let err = layout_in_order(vec![(sym("a"), 1, Some(Bank::Y))], &t).unwrap_err();
        assert_eq!(err, LayoutError::BankUnavailable { sym: sym("a"), target: "tic25".into() });
    }

    #[test]
    fn rejects_overflow() {
        let t = record_isa::targets::tic25::target();
        let words = t.memory.words_per_bank as u32;
        let err = layout_in_order(vec![(sym("big"), words + 1, None)], &t).unwrap_err();
        assert!(matches!(err, LayoutError::BankOverflow { len, .. } if len == words + 1));
    }

    #[test]
    fn rejects_duplicates() {
        let t = record_isa::targets::tic25::target();
        let err = layout_in_order(vec![(sym("a"), 1, None), (sym("a"), 1, None)], &t).unwrap_err();
        assert_eq!(err, LayoutError::DuplicateSymbol { sym: sym("a") });
    }
}
