//! Expression trees — the data structure the BURS matcher covers with
//! instruction patterns (Figs. 4 and 5 of the paper).

use std::fmt;

use crate::{BinOp, Index, MemRef, Op, Symbol, UnOp};

/// An expression tree over the shared operator vocabulary, boxed.
///
/// A compile keeps its trees in a [`TreePool`](crate::TreePool); the boxed
/// form builds programs by hand (tests, the self-test's probes) and is the
/// input of the reference oracles. [`TreePool::intern`] and
/// [`TreePool::to_tree`] convert. Leaves are constants, memory operands and
/// temporaries; the latter refer to values computed by earlier trees of the
/// same forest.
///
/// [`TreePool::intern`]: crate::TreePool::intern
/// [`TreePool::to_tree`]: crate::TreePool::to_tree
///
/// # Example
///
/// ```
/// use record_ir::{BinOp, MemRef, Tree};
///
/// // a * b + 9
/// let t = Tree::bin(
///     BinOp::Add,
///     Tree::bin(BinOp::Mul, Tree::mem(MemRef::scalar("a")), Tree::mem(MemRef::scalar("b"))),
///     Tree::constant(9),
/// );
/// assert_eq!(t.to_string(), "((a * b) + 9)");
/// assert_eq!(t.node_count(), 5);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Tree {
    /// An integer constant leaf.
    Const(i64),
    /// A memory operand leaf.
    Mem(MemRef),
    /// The value of an earlier tree in the same forest.
    Temp(Symbol),
    /// A binary operation.
    Bin(BinOp, Box<Tree>, Box<Tree>),
    /// A unary operation.
    Un(UnOp, Box<Tree>),
}

impl Tree {
    /// Creates a constant leaf.
    pub fn constant(v: i64) -> Self {
        Tree::Const(v)
    }

    /// Creates a memory-operand leaf.
    pub fn mem(r: MemRef) -> Self {
        Tree::Mem(r)
    }

    /// Creates a scalar-variable leaf (shorthand for `mem(scalar(..))`).
    pub fn var(name: impl Into<Symbol>) -> Self {
        Tree::Mem(MemRef::scalar(name))
    }

    /// Creates an array-element leaf.
    pub fn elem(base: impl Into<Symbol>, index: Index) -> Self {
        Tree::Mem(MemRef::array(base, index))
    }

    /// Creates a temporary-reference leaf.
    pub fn temp(name: impl Into<Symbol>) -> Self {
        Tree::Temp(name.into())
    }

    /// Creates a binary node.
    pub fn bin(op: BinOp, lhs: Tree, rhs: Tree) -> Self {
        Tree::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Creates a unary node.
    pub fn un(op: UnOp, operand: Tree) -> Self {
        Tree::Un(op, Box::new(operand))
    }

    /// The flattened operator code of the root node.
    pub fn op(&self) -> Op {
        match self {
            Tree::Const(_) => Op::Const,
            Tree::Mem(_) => Op::Mem,
            Tree::Temp(_) => Op::Temp,
            Tree::Bin(b, _, _) => Op::Bin(*b),
            Tree::Un(u, _) => Op::Un(*u),
        }
    }

    /// The children of the root node, in order.
    pub fn children(&self) -> Vec<&Tree> {
        match self {
            Tree::Const(_) | Tree::Mem(_) | Tree::Temp(_) => Vec::new(),
            Tree::Un(_, a) => vec![a],
            Tree::Bin(_, a, b) => vec![a, b],
        }
    }

    /// The number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.children().iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Evaluates the tree on `width`-bit arithmetic, resolving leaves
    /// through the provided callbacks.
    ///
    /// This is the semantic reference used by simulator-based validation:
    /// generated code must produce exactly what `eval` produces.
    pub fn eval(
        &self,
        width: u32,
        read_mem: &mut impl FnMut(&MemRef) -> i64,
        read_temp: &mut impl FnMut(&Symbol) -> i64,
    ) -> i64 {
        match self {
            Tree::Const(c) => crate::ops::wrap_to_width(*c, width),
            Tree::Mem(r) => read_mem(r),
            Tree::Temp(s) => read_temp(s),
            Tree::Bin(op, a, b) => {
                let va = a.eval(width, read_mem, read_temp);
                let vb = b.eval(width, read_mem, read_temp);
                op.eval(va, vb, width)
            }
            Tree::Un(op, a) => {
                let va = a.eval(width, read_mem, read_temp);
                op.eval(va, width)
            }
        }
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tree::Const(c) => write!(f, "{c}"),
            Tree::Mem(r) => write!(f, "{r}"),
            Tree::Temp(s) => write!(f, "{s}"),
            Tree::Bin(op, a, b) => write!(f, "({a} {op} {b})"),
            Tree::Un(op, a) => write!(f, "{op}({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        // (a * b) + neg(c)
        Tree::bin(
            BinOp::Add,
            Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("b")),
            Tree::un(UnOp::Neg, Tree::var("c")),
        )
    }

    #[test]
    fn counts_nodes() {
        assert_eq!(sample().node_count(), 6);
        assert_eq!(Tree::constant(1).node_count(), 1);
    }

    #[test]
    fn eval_matches_hand_computation() {
        let t = sample();
        let mut mem = |r: &MemRef| match r.base().as_str() {
            "a" => 3,
            "b" => 4,
            "c" => 5,
            _ => 0,
        };
        let mut tmp = |_: &Symbol| 0;
        assert_eq!(t.eval(16, &mut mem, &mut tmp), 3 * 4 - 5);
    }

    #[test]
    fn eval_wraps_constants() {
        let t = Tree::constant(0x12345);
        let mut mem = |_: &MemRef| 0;
        let mut tmp = |_: &Symbol| 0;
        assert_eq!(t.eval(16, &mut mem, &mut tmp), crate::ops::wrap_to_width(0x12345, 16));
    }

    #[test]
    fn display_is_parenthesized() {
        assert_eq!(sample().to_string(), "((a * b) + neg(c))");
    }
}
