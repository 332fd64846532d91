//! Compiler-level errors.

use std::fmt;

use record_isa::StructureError;
use record_opt::{AddressError, LayoutError};

/// A target-description or target-level failure, structured by cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetError {
    /// The target description itself is inconsistent (validation or
    /// instruction-set extraction failed).
    Invalid(String),
    /// A statement's cover has a register hazard (it overwrites a
    /// singleton register an operand still waits in), and the statement
    /// cannot be split into smaller statements.
    Unsplittable {
        /// The offending statement, rendered.
        stmt: String,
    },
    /// The target declares no store rule, so results cannot reach memory.
    NoStoreRules {
        /// The target name.
        target: String,
    },
    /// A rule's result nonterminal is an immediate.
    RuleProducesImmediate {
        /// The rule id, rendered.
        rule: String,
    },
    /// No hand-written reference code exists for a kernel.
    NoHandCode {
        /// The kernel name.
        kernel: String,
    },
    /// A kernel failed to simulate while building a report.
    SimulationFailed {
        /// The kernel name.
        kernel: String,
        /// The simulator error, rendered.
        detail: String,
    },
    /// A kernel variant computed the wrong outputs.
    OutputMismatch {
        /// The pre-formatted mismatch description.
        detail: String,
    },
    /// No rule of the target can be exercised by the self-test generator.
    NoTestableRule {
        /// The target name.
        target: String,
    },
    /// The generated self-test program does not execute.
    SelfTest {
        /// The simulator error, rendered.
        detail: String,
    },
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::Invalid(m) => f.write_str(m),
            TargetError::Unsplittable { stmt } => {
                write!(f, "statement `{stmt}` miscompiles and cannot be split further")
            }
            TargetError::NoStoreRules { target } => {
                write!(f, "target {target} has no store rules")
            }
            TargetError::RuleProducesImmediate { rule } => {
                write!(f, "rule {rule} produces an immediate")
            }
            TargetError::NoHandCode { kernel } => write!(f, "no hand code for {kernel}"),
            TargetError::SimulationFailed { kernel, detail } => {
                write!(f, "{kernel} simulation failed: {detail}")
            }
            TargetError::OutputMismatch { detail } => f.write_str(detail),
            TargetError::NoTestableRule { target } => {
                write!(f, "no rule of {target} is testable")
            }
            TargetError::SelfTest { detail } => {
                write!(f, "self-test does not execute: {detail}")
            }
        }
    }
}

impl std::error::Error for TargetError {}

/// An error raised while compiling a program.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The frontend (lexer/parser/semantic analysis/lowering) failed.
    Frontend(record_ir::Error),
    /// No rule cover exists for a statement — the target lacks an
    /// instruction for one of its operators.
    Uncoverable {
        /// The offending statement, rendered.
        stmt: String,
        /// The target name.
        target: String,
    },
    /// A register class ran out of members while emitting a statement.
    OutOfRegisters {
        /// The register class name.
        class: String,
        /// The offending statement, rendered.
        stmt: String,
    },
    /// Data layout failed (overflow, duplicates, bad bank request).
    Layout(LayoutError),
    /// Address assignment failed (out of address registers, no AGU, …).
    Address(AddressError),
    /// The target description is inconsistent.
    Target(TargetError),
    /// A pass produced invalid code: structurally invalid code, caught by
    /// the inter-pass verifier at the offending pass's own boundary, or,
    /// from `select` in a strict plan, a statement's code that its
    /// simulator probe found computing another value.
    Verify {
        /// Name of the pass whose output failed verification.
        pass: String,
        /// What the verifier found.
        error: StructureError,
    },
    /// A pass (or batch job) panicked; the panic was caught at the pass
    /// boundary and converted into this error, so one poisoned kernel
    /// cannot tear down its batch.
    Internal {
        /// Name of the pass (or `"batch"` for a panic outside any pass)
        /// that panicked.
        pass: String,
        /// The panic payload, rendered.
        message: String,
    },
    /// A pass exhausted a resource budget ([`crate::Budgets`]) and was
    /// aborted rather than allowed to hang or blow up memory.
    Budget {
        /// Name of the pass that ran out.
        pass: String,
        /// The exhausted resource (`"steps"`, `"deadline"`,
        /// `"variants"`, `"lir-nodes"`).
        resource: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "{e}"),
            CompileError::Uncoverable { stmt, target } => {
                write!(f, "no instruction cover on `{target}` for: {stmt}")
            }
            CompileError::OutOfRegisters { class, stmt } => {
                write!(f, "register class `{class}` exhausted while emitting: {stmt}")
            }
            CompileError::Layout(m) => write!(f, "data layout error: {m}"),
            CompileError::Address(m) => write!(f, "address assignment error: {m}"),
            CompileError::Target(m) => write!(f, "invalid target description: {m}"),
            CompileError::Verify { pass, error } => {
                write!(f, "pass `{pass}` failed verification: {error}")
            }
            CompileError::Internal { pass, message } => {
                write!(f, "internal error: pass `{pass}` panicked: {message}")
            }
            CompileError::Budget { pass, resource } => {
                write!(f, "pass `{pass}` exceeded its {resource} budget")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Frontend(e) => Some(e),
            CompileError::Layout(e) => Some(e),
            CompileError::Address(e) => Some(e),
            CompileError::Target(e) => Some(e),
            CompileError::Verify { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<record_ir::Error> for CompileError {
    fn from(e: record_ir::Error) -> Self {
        CompileError::Frontend(e)
    }
}

impl From<LayoutError> for CompileError {
    fn from(e: LayoutError) -> Self {
        CompileError::Layout(e)
    }
}

impl From<AddressError> for CompileError {
    fn from(e: AddressError) -> Self {
        CompileError::Address(e)
    }
}

impl From<TargetError> for CompileError {
    fn from(e: TargetError) -> Self {
        CompileError::Target(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CompileError::Uncoverable { stmt: "y := (a / b)".into(), target: "tic25".into() };
        assert!(e.to_string().contains("tic25"));
        assert!(e.to_string().contains("a / b"));
    }

    #[test]
    fn frontend_errors_convert() {
        let ir_err = record_ir::dfl::parse("program").unwrap_err();
        let e: CompileError = ir_err.into();
        assert!(matches!(e, CompileError::Frontend(_)));
    }

    #[test]
    fn internal_and_budget_errors_name_the_pass() {
        let e = CompileError::Internal { pass: "compact".into(), message: "boom".into() };
        assert!(e.to_string().contains("compact"), "{e}");
        assert!(e.to_string().contains("boom"), "{e}");
        let e = CompileError::Budget { pass: "select".into(), resource: "variants".into() };
        assert!(e.to_string().contains("select"), "{e}");
        assert!(e.to_string().contains("variants"), "{e}");
    }

    #[test]
    fn structured_payloads_render_the_legacy_text() {
        let e = CompileError::Target(TargetError::NoStoreRules { target: "tic25".into() });
        assert_eq!(e.to_string(), "invalid target description: target tic25 has no store rules");
        let e =
            CompileError::Verify { pass: "compact".into(), error: StructureError::StrayLoopEnd };
        assert!(e.to_string().contains("compact"));
        assert!(e.to_string().contains("stray LoopEnd"));
    }
}
