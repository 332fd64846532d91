//! Abstract syntax of the mini-DFL language.
//!
//! Names are the [`Symbol`]s the lexer interned: every occurrence of a
//! name in one program shares one symbol.

use crate::{Bank, BinOp, Symbol, UnOp};

/// A complete parsed program.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// The name after the `program` keyword.
    pub name: Symbol,
    /// Constant and variable declarations, in source order.
    pub decls: Vec<Decl>,
    /// The statements between `begin` and `end`.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Iterates over all variable declarations (skipping constants).
    pub fn vars(&self) -> impl Iterator<Item = &VarDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Var(v) => Some(v),
            Decl::Const { .. } => None,
        })
    }

    /// Iterates over all constant declarations.
    pub fn consts(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Const { name, value } => Some((name.as_str(), value)),
            Decl::Var(_) => None,
        })
    }
}

/// A top-level declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum Decl {
    /// `const N = 16;`
    Const {
        /// Constant name.
        name: Symbol,
        /// Defining expression; must be compile-time evaluable.
        value: Expr,
    },
    /// `var x, y: fix;` / `in u: fix[8];` / `out z: int;`
    Var(VarDecl),
}

/// A variable declaration (possibly declaring several names at once).
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    /// The declared names.
    pub names: Vec<Symbol>,
    /// Whether this is a plain variable, an input port or an output port.
    pub kind: VarKind,
    /// The element type.
    pub ty: BaseTy,
    /// Array length, if the declaration is an array.
    pub len: Option<Expr>,
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
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `dst := expr;`
    Assign {
        /// Assignment target.
        dst: LValue,
        /// Right-hand side.
        value: Expr,
        /// Source line.
        line: u32,
    },
    /// `for i in lo..hi loop ... end loop;`
    For {
        /// Induction-variable name.
        var: Symbol,
        /// Inclusive lower bound (compile-time constant).
        lo: Expr,
        /// Inclusive upper bound (compile-time constant).
        hi: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source line.
        line: u32,
    },
}

/// An assignment target.
#[derive(Clone, Debug, PartialEq)]
pub enum LValue {
    /// A scalar variable.
    Scalar(Symbol),
    /// An array element.
    Elem(Symbol, Expr),
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// An integer literal.
    Num(i64),
    /// A scalar variable or constant reference.
    Name(Symbol),
    /// An array element `a[e]`.
    Elem(Symbol, Box<Expr>),
    /// A delayed signal `x@k` — the value of `x`, `k` samples ago.
    Delay(Symbol, u32),
    /// A binary operation over its two operands, boxed together.
    Bin(BinOp, Box<[Expr; 2]>),
    /// A unary operation.
    Un(UnOp, Box<Expr>),
}

impl Expr {
    /// Creates a binary expression node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new([lhs, rhs]))
    }

    /// Creates a unary expression node.
    pub fn un(op: UnOp, e: Expr) -> Expr {
        Expr::Un(op, Box::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_accessors() {
        let p = Program {
            name: "p".into(),
            decls: vec![
                Decl::Const { name: "N".into(), value: Expr::Num(4) },
                Decl::Var(VarDecl {
                    names: vec!["x".into()],
                    kind: VarKind::Var,
                    ty: BaseTy::Fix,
                    len: None,
                    bank: None,
                    line: 2,
                }),
            ],
            body: vec![],
        };
        assert_eq!(p.vars().count(), 1);
        assert_eq!(p.consts().count(), 1);
        assert_eq!(p.consts().next().unwrap().0, "N");
    }
}
