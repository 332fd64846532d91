//! The mini-DFL frontend.
//!
//! DFL (Data Flow Language) was the DSP-specific input language of the
//! original RECORD compiler; it was a proprietary Mentor Graphics product,
//! so this reproduction defines a small language with the same flavour:
//! fixed-point scalars and arrays, bounded counting loops, delayed signals
//! (`x@1`) and saturating operators as intrinsics.
//!
//! ```text
//! program fir;
//! const N = 16;
//! var x: fix[N];
//! var c: fix[N];
//! var y: fix;
//! begin
//!   y := 0;
//!   for i in 0..N-1 loop
//!     y := y + c[i] * x[i];
//!   end loop;
//! end
//! ```
//!
//! Use [`parse`] to obtain a [`Program`], then
//! [`lower`](crate::lower::lower) to produce the linear IR consumed by the
//! back end.
//!
//! A [`Program`] is flat. The parser pulls `Copy` tokens from a lexer
//! cursor one at a time, so no token list is built. The lexer gives each
//! distinct name a dense id and one [`Symbol`](crate::Symbol), the parser
//! puts every expression into one arena, where operands refer to each
//! other by index, and lowering resolves each name use by its id.

pub(crate) mod ast;
mod lexer;
mod parser;

pub use ast::Program;

use crate::Error;

/// Parses a mini-DFL source text into a [`Program`].
///
/// # Errors
///
/// Returns [`Error::Lex`] or [`Error::Parse`] with the offending line on
/// malformed input. A lex error anywhere in the text is reported before
/// any parse error.
///
/// # Example
///
/// ```
/// let program = record_ir::dfl::parse(
///     "program p; var a: fix; begin a := 1; end",
/// )?;
/// assert_eq!(program.name().as_str(), "p");
/// # Ok::<(), record_ir::Error>(())
/// ```
pub fn parse(source: &str) -> Result<Program, Error> {
    parser::parse(source)
}
