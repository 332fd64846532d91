//! The parsed form of a mini-DFL program: flat tables, no boxes.
//!
//! Every distinct name of one program is interned once, while it is
//! lexed, to a dense [`NameId`]; its one [`Symbol`] is
//! [`Program::names`]`[id]`. Expressions live in one arena,
//! [`Program::exprs`], and name their operands by [`ExprId`].
//! Statements are listed in source order, each loop before its body.

use std::ops::Range;

use crate::{Bank, BinOp, Symbol, UnOp};

/// A name of the program: its index in [`Program::names`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NameId(pub u32);

/// An expression of the program: its index in [`Program::exprs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExprId(pub u32);

/// A parsed program, as [`lower`](crate::lower::lower) reads it: the
/// output of [`parse`](super::parse), whose ids all index its own tables.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// The symbol of every distinct name, by [`NameId`].
    pub(crate) names: Vec<Symbol>,
    /// The name after the `program` keyword.
    pub(crate) name: NameId,
    /// Constant and variable declarations, in source order.
    pub(crate) decls: Vec<Decl>,
    /// The names of every variable declaration, in source order; a
    /// [`VarDecl`] holds its run of them.
    pub(crate) var_names: Vec<NameId>,
    /// The statements between `begin` and `end`, in source order: a
    /// loop's body follows the loop, up to the loop's `end`.
    pub(crate) stmts: Vec<Stmt>,
    /// Every expression of the program.
    pub(crate) exprs: Vec<Expr>,
}

impl Program {
    /// The name after the `program` keyword.
    pub fn name(&self) -> &Symbol {
        self.symbol(self.name)
    }

    /// The symbol of name `id`.
    pub(crate) fn symbol(&self, id: NameId) -> &Symbol {
        &self.names[id.0 as usize]
    }

    /// Expression `id`.
    pub(crate) fn expr(&self, id: ExprId) -> Expr {
        self.exprs[id.0 as usize]
    }

    /// The names `var` declares.
    pub(crate) fn declared(&self, var: &VarDecl) -> &[NameId] {
        &self.var_names[var.names.start as usize..var.names.end as usize]
    }
}

/// A top-level declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum Decl {
    /// `const N = 16;`
    Const {
        /// Constant name.
        name: NameId,
        /// Defining expression; must be compile-time evaluable.
        value: ExprId,
    },
    /// `var x, y: fix;` / `in u: fix[8];` / `out z: int;`
    Var(VarDecl),
}

/// A variable declaration (possibly declaring several names at once).
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    /// The declared names: a run of [`Program::var_names`].
    pub names: Range<u32>,
    /// Whether this is a plain variable, an input port or an output port.
    pub kind: VarKind,
    /// The element type.
    pub ty: BaseTy,
    /// Array length, if the declaration is an array.
    pub len: Option<ExprId>,
    /// Optional memory-bank placement hint (`bank Y`). When absent, the
    /// bank-assignment optimization is free to choose.
    pub bank: Option<Bank>,
    /// Source line of the declaration.
    pub line: u32,
}

/// The storage role of a variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// Ordinary working storage.
    Var,
    /// An input: initialized by the environment before the program runs.
    In,
    /// An output: read by the environment after the program runs.
    Out,
}

/// The scalar base types. Both map to the target's word width; `fix` is
/// fixed-point data (eligible for saturation modes), `int` is control data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaseTy {
    /// Fixed-point word.
    Fix,
    /// Integer word.
    Int,
}

/// A statement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stmt {
    /// `dst := value;` or `dst[index] := value;`
    Assign {
        /// Assigned variable.
        dst: NameId,
        /// The element index, when `dst` is an array element.
        index: Option<ExprId>,
        /// Right-hand side.
        value: ExprId,
        /// Source line.
        line: u32,
    },
    /// `for i in lo..hi loop ... end loop;`
    For {
        /// Induction-variable name.
        var: NameId,
        /// Inclusive lower bound (compile-time constant).
        lo: ExprId,
        /// Inclusive upper bound (compile-time constant).
        hi: ExprId,
        /// One past the loop body's last statement in [`Program::stmts`];
        /// the body starts right after the loop.
        end: u32,
        /// Source line.
        line: u32,
    },
}

/// An expression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expr {
    /// An integer literal.
    Num(i64),
    /// A scalar variable or constant reference.
    Name(NameId),
    /// An array element `a[e]`.
    Elem(NameId, ExprId),
    /// A delayed signal `x@k` — the value of `x`, `k` samples ago.
    Delay(NameId, u32),
    /// A binary operation.
    Bin(BinOp, ExprId, ExprId),
    /// A unary operation.
    Un(UnOp, ExprId),
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;

    #[test]
    fn program_accessors() {
        let p = parse("program p; const N := 4; var x, y: fix; begin x := N; end").unwrap();
        assert_eq!(p.name().as_str(), "p");
        let [Decl::Const { name, .. }, Decl::Var(v)] = &p.decls[..] else {
            panic!("a constant, then a variable declaration: {:?}", p.decls)
        };
        assert_eq!(p.symbol(*name).as_str(), "N");
        let declared: Vec<&str> = p.declared(v).iter().map(|&n| p.symbol(n).as_str()).collect();
        assert_eq!(declared, ["x", "y"]);
        assert_eq!(v.line, 1);
    }
}
