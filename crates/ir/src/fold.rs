//! Constant folding and algebraic identity simplification.
//!
//! The paper is explicit that RECORD "does not contain any standard
//! optimization technique (such as constant folding)", and Table 1 was
//! measured that way — so the RECORD pipeline leaves this pass **off by
//! default**. It exists because a production user would want it, and
//! because the ablation benches quantify what it buys.

use crate::{BinOp, TreeId, TreeNode, TreePool, UnOp};

/// Folds constant subexpressions of the tree behind `id` and applies
/// simple identities (`x+0`, `x*1`, `x*0`, `x-0`, `x<<0`, double
/// negation), returning the folded tree's id. The folded tree is
/// interned into `pool`; the tree behind `id` is left as it is.
///
/// Arithmetic is performed with `width`-bit wrap-around semantics so the
/// folded program is bit-identical to the unfolded one on the target.
///
/// # Example
///
/// ```
/// use record_ir::{fold::fold, BinOp, Tree, TreePool};
///
/// let t = Tree::bin(
///     BinOp::Add,
///     Tree::bin(BinOp::Mul, Tree::var("x"), Tree::constant(1)),
///     Tree::bin(BinOp::Sub, Tree::constant(7), Tree::constant(3)),
/// );
/// let mut pool = TreePool::new();
/// let id = pool.intern(&t);
/// let folded = fold(&mut pool, id, 16);
/// assert_eq!(pool.display(folded).to_string(), "(x + 4)");
/// ```
pub fn fold(pool: &mut TreePool, id: TreeId, width: u32) -> TreeId {
    match *pool.node(id) {
        TreeNode::Const(_) | TreeNode::Mem(_) | TreeNode::Temp(_) => id,
        TreeNode::Un(op, a) => {
            let fa = fold(pool, a, width);
            if let TreeNode::Const(v) = *pool.node(fa) {
                return pool.constant(op.eval(v, width));
            }
            // neg(neg(x)) = x ; not(not(x)) = x
            if let TreeNode::Un(inner, x) = *pool.node(fa) {
                if (op, inner) == (UnOp::Neg, UnOp::Neg) || (op, inner) == (UnOp::Not, UnOp::Not) {
                    return x;
                }
            }
            pool.un(op, fa)
        }
        TreeNode::Bin(op, a, b) => {
            let fa = fold(pool, a, width);
            let fb = fold(pool, b, width);
            if let (TreeNode::Const(va), TreeNode::Const(vb)) = (pool.node(fa), pool.node(fb)) {
                let v = op.eval(*va, *vb, width);
                return pool.constant(v);
            }
            if let Some(simplified) = identity(pool, op, fa, fb) {
                return simplified;
            }
            pool.bin(op, fa, fb)
        }
    }
}

/// Identity simplifications on already-folded operands.
fn identity(pool: &mut TreePool, op: BinOp, a: TreeId, b: TreeId) -> Option<TreeId> {
    let is_const = |t: TreeId, v: i64| matches!(pool.node(t), TreeNode::Const(c) if *c == v);
    match op {
        BinOp::Add | BinOp::SatAdd => {
            if is_const(b, 0) {
                return Some(a);
            }
            if is_const(a, 0) {
                return Some(b);
            }
        }
        BinOp::Sub | BinOp::SatSub if is_const(b, 0) => {
            return Some(a);
        }
        BinOp::Mul => {
            if is_const(b, 1) {
                return Some(a);
            }
            if is_const(a, 1) {
                return Some(b);
            }
            if is_const(a, 0) || is_const(b, 0) {
                return Some(pool.constant(0));
            }
        }
        BinOp::Shl | BinOp::Shr if is_const(b, 0) => {
            return Some(a);
        }
        BinOp::And if (is_const(a, 0) || is_const(b, 0)) => {
            return Some(pool.constant(0));
        }
        BinOp::Or | BinOp::Xor => {
            if is_const(b, 0) {
                return Some(a);
            }
            if is_const(a, 0) {
                return Some(b);
            }
        }
        _ => {}
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemRef, Symbol, Tree};

    /// `t` folded on a fresh pool, as a boxed tree.
    fn fold_tree(t: &Tree, width: u32) -> Tree {
        let mut pool = TreePool::new();
        let id = pool.intern(t);
        let folded = fold(&mut pool, id, width);
        pool.to_tree(folded)
    }

    fn eval(t: &Tree, x: i64) -> i64 {
        let mut mem = |_: &MemRef| x;
        let mut tmp = |_: &Symbol| 0;
        t.eval(16, &mut mem, &mut tmp)
    }

    #[test]
    fn folds_constant_arithmetic() {
        let t = Tree::bin(BinOp::Mul, Tree::constant(6), Tree::constant(7));
        assert_eq!(fold_tree(&t, 16), Tree::Const(42));
    }

    #[test]
    fn folds_with_wraparound() {
        let t = Tree::bin(BinOp::Add, Tree::constant(30000), Tree::constant(10000));
        assert_eq!(fold_tree(&t, 16), Tree::Const(crate::ops::wrap_to_width(40000, 16)));
    }

    #[test]
    fn removes_identities() {
        let t = Tree::bin(BinOp::Add, Tree::var("x"), Tree::constant(0));
        assert_eq!(fold_tree(&t, 16), Tree::var("x"));
        let t = Tree::bin(BinOp::Mul, Tree::constant(1), Tree::var("x"));
        assert_eq!(fold_tree(&t, 16), Tree::var("x"));
        let t = Tree::bin(BinOp::Mul, Tree::var("x"), Tree::constant(0));
        assert_eq!(fold_tree(&t, 16), Tree::Const(0));
    }

    #[test]
    fn cancels_double_negation() {
        let t = Tree::un(UnOp::Neg, Tree::un(UnOp::Neg, Tree::var("x")));
        assert_eq!(fold_tree(&t, 16), Tree::var("x"));
    }

    #[test]
    fn folding_preserves_semantics() {
        let t = Tree::bin(
            BinOp::Add,
            Tree::bin(BinOp::Mul, Tree::var("x"), Tree::constant(3)),
            Tree::bin(BinOp::Shl, Tree::constant(1), Tree::constant(4)),
        );
        let f = fold_tree(&t, 16);
        for x in [-5, 0, 7, 1000] {
            assert_eq!(eval(&t, x), eval(&f, x));
        }
    }

    #[test]
    fn leaves_nonconstant_alone() {
        let t = Tree::bin(BinOp::Add, Tree::var("x"), Tree::var("y"));
        assert_eq!(fold_tree(&t, 16), t);
    }
}
