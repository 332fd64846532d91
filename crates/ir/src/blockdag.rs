//! Block-level DAG construction over the interned tree pool.
//!
//! The paper covers each assignment as an isolated expression tree
//! (§4); the instruction-selection survey literature identifies DAG
//! covering — sharing common subexpressions *across* the statements of a
//! basic block — as the principal refinement. [`TreePool`] already gives
//! structural equality in O(1) (equal subtrees have equal [`TreeId`]s),
//! so the remaining work is *soundness*: two textually equal subtrees
//! only denote the same value if no intervening statement stores to any
//! memory the subtree reads.
//!
//! [`BlockDag::build`] interns every statement of a block and reports
//! the values that occur more than once under that rule. Each candidate
//! is keyed by `(TreeId, version signature)`: the pool id captures the
//! structure, and the signature records the *store version* of every
//! base symbol the subtree reads at the occurrence point. A store to a
//! symbol (scalar or any element of an array) bumps its version, so two
//! occurrences separated by a store to a symbol they read get different
//! signatures and are never offered for sharing. This is deliberately
//! conservative: a store to `a[0]` invalidates reads of `a[1]` too.
//!
//! The builder decides *what may be shared*; whether sharing pays is the
//! back end's call (see the emitter's share-vs-recompute cost model).

use std::collections::HashMap;

use crate::lir::AssignStmt;
use crate::pool::{TreeId, TreeNode, TreePool};
use crate::Symbol;

/// A value that occurs more than once in the block with an identical
/// store-version signature — i.e. a subtree that is both structurally
/// repeated *and* sound to compute once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedValue {
    /// The interned subtree.
    pub id: TreeId,
    /// Statement indices (into the block) that read this value, in
    /// ascending order, deduplicated.
    pub uses: Vec<usize>,
    /// Total number of occurrences, counting multiplicity within a
    /// statement (`y := x * x` contributes two uses of `x`).
    pub use_count: usize,
}

impl SharedValue {
    /// The first statement that reads the value — the earliest point the
    /// shared computation may be placed (reads before it may see older
    /// versions of the symbols involved).
    pub fn first_use(&self) -> usize {
        self.uses[0]
    }
}

/// A basic block viewed as a DAG of interned subtrees.
#[derive(Debug, Default)]
pub struct BlockDag {
    /// The interned root of each statement, in block order.
    pub roots: Vec<TreeId>,
    /// Soundly shareable multi-use values, ordered by first occurrence
    /// (outer subtrees before the subtrees they contain).
    pub shared: Vec<SharedValue>,
}

impl BlockDag {
    /// Interns every statement of `stmts` into `pool` and detects the
    /// multi-use values that are sound to share.
    ///
    /// Constant leaves are never reported (rematerializing a constant is
    /// as cheap as copying it); memory/temporary leaves and computed
    /// nodes are. Candidates come out in first-occurrence order, which
    /// puts an outer repeated subtree before its own repeated children.
    pub fn build(pool: &mut TreePool, stmts: &[AssignStmt]) -> BlockDag {
        struct Occ {
            uses: Vec<usize>,
            count: usize,
            first: usize, // global pre-order position of the first occurrence
        }
        let mut versions: HashMap<Symbol, u32> = HashMap::new();
        let mut bases_memo: HashMap<TreeId, Vec<Symbol>> = HashMap::new();
        // keyed by the subtree and the store version of each base symbol
        // it reads, in `read_bases` order (the id fixes the symbols)
        let mut occ: HashMap<(TreeId, Vec<u32>), Occ> = HashMap::new();
        let mut roots = Vec::with_capacity(stmts.len());
        let mut order = 0usize;
        let mut stack = Vec::new();

        for (i, stmt) in stmts.iter().enumerate() {
            let root = pool.intern(&stmt.src);
            roots.push(root);
            // Visit every occurrence (with multiplicity) in pre-order.
            stack.push(root);
            while let Some(id) = stack.pop() {
                order += 1;
                match *pool.node(id) {
                    TreeNode::Const(_) => continue,
                    TreeNode::Bin(_, a, b) => stack.extend([b, a]),
                    TreeNode::Un(_, a) => stack.push(a),
                    TreeNode::Mem(_) | TreeNode::Temp(_) => {}
                }
                if !bases_memo.contains_key(&id) {
                    read_bases(pool, id, &mut bases_memo);
                }
                let sig: Vec<u32> =
                    bases_memo[&id].iter().map(|s| versions.get(s).copied().unwrap_or(0)).collect();
                let e = occ.entry((id, sig)).or_insert(Occ {
                    uses: Vec::new(),
                    count: 0,
                    first: order,
                });
                e.count += 1;
                if e.uses.last() != Some(&i) {
                    e.uses.push(i);
                }
            }
            // The statement's store happens after its reads: bump the
            // destination symbol's version so later occurrences that read
            // it are keyed apart from the ones above.
            *versions.entry(stmt.dst.base().clone()).or_insert(0) += 1;
        }

        let mut shared: Vec<(usize, SharedValue)> = occ
            .into_iter()
            .filter(|(_, o)| o.count >= 2)
            .map(|((id, _), o)| (o.first, SharedValue { id, uses: o.uses, use_count: o.count }))
            .collect();
        shared.sort_by_key(|(first, _)| *first);
        BlockDag { roots, shared: shared.into_iter().map(|(_, v)| v).collect() }
    }
}

/// The sorted, deduplicated base symbols read by an interned subtree —
/// the footprint the store-version signature is built from. Memory
/// leaves contribute their base symbol; temporaries contribute their
/// own name (a temporary is a compiler-named memory cell).
pub fn read_bases(
    pool: &TreePool,
    id: TreeId,
    memo: &mut HashMap<TreeId, Vec<Symbol>>,
) -> Vec<Symbol> {
    if let Some(v) = memo.get(&id) {
        return v.clone();
    }
    let mut out = match pool.node(id).clone() {
        TreeNode::Const(_) => Vec::new(),
        TreeNode::Mem(r) => vec![r.base().clone()],
        TreeNode::Temp(s) => vec![s],
        TreeNode::Bin(_, a, b) => {
            let mut v = read_bases(pool, a, memo);
            v.extend(read_bases(pool, b, memo));
            v
        }
        TreeNode::Un(_, a) => read_bases(pool, a, memo),
    };
    out.sort();
    out.dedup();
    memo.insert(id, out.clone());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, MemRef, Tree};

    fn assign(dst: &str, src: Tree) -> AssignStmt {
        AssignStmt { dst: MemRef::scalar(dst), src }
    }

    fn mul(a: Tree, b: Tree) -> Tree {
        Tree::bin(BinOp::Mul, a, b)
    }

    #[test]
    fn repeated_leaf_across_statements_is_shared() {
        let mut pool = TreePool::new();
        // cr := ar*br - ai*bi; ci := ar*bi + ai*br — every input leaf is
        // read twice, no computed subtree repeats.
        let stmts = [
            assign(
                "cr",
                Tree::bin(
                    BinOp::Sub,
                    mul(Tree::var("ar"), Tree::var("br")),
                    mul(Tree::var("ai"), Tree::var("bi")),
                ),
            ),
            assign(
                "ci",
                Tree::bin(
                    BinOp::Add,
                    mul(Tree::var("ar"), Tree::var("bi")),
                    mul(Tree::var("ai"), Tree::var("br")),
                ),
            ),
        ];
        let dag = BlockDag::build(&mut pool, &stmts);
        assert_eq!(dag.roots.len(), 2);
        let names: Vec<String> =
            dag.shared.iter().map(|s| pool.to_tree(s.id).to_string()).collect();
        assert_eq!(names, vec!["ar", "br", "ai", "bi"], "each input leaf read twice");
        for s in &dag.shared {
            assert_eq!(s.uses, vec![0, 1]);
            assert_eq!(s.use_count, 2);
        }
    }

    #[test]
    fn repeated_computed_subtree_is_shared() {
        let mut pool = TreePool::new();
        let stmts = [
            assign("y", mul(Tree::var("a"), Tree::var("b"))),
            assign("z", Tree::bin(BinOp::Add, mul(Tree::var("a"), Tree::var("b")), Tree::var("c"))),
        ];
        let dag = BlockDag::build(&mut pool, &stmts);
        let texts: Vec<String> =
            dag.shared.iter().map(|s| pool.to_tree(s.id).to_string()).collect();
        assert!(texts.contains(&"(a * b)".to_string()), "{texts:?}");
        // the computed candidate comes before its leaf children
        assert_eq!(texts[0], "(a * b)");
    }

    #[test]
    fn intra_statement_multiplicity_counts() {
        let mut pool = TreePool::new();
        let stmts = [assign("y", mul(Tree::var("x"), Tree::var("x")))];
        let dag = BlockDag::build(&mut pool, &stmts);
        assert_eq!(dag.shared.len(), 1);
        assert_eq!(dag.shared[0].uses, vec![0]);
        assert_eq!(dag.shared[0].use_count, 2);
    }

    #[test]
    fn store_to_read_symbol_refuses_sharing() {
        let mut pool = TreePool::new();
        // w is stored between the two reads of (a + w): versions differ,
        // so the two occurrences must not unify.
        let stmts = [
            assign("y", Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("w"))),
            assign("w", Tree::var("u")),
            assign("z", Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("w"))),
        ];
        let dag = BlockDag::build(&mut pool, &stmts);
        let texts: Vec<String> =
            dag.shared.iter().map(|s| pool.to_tree(s.id).to_string()).collect();
        assert!(!texts.contains(&"(a + w)".to_string()), "{texts:?}");
        // the untouched input `a` still shares
        assert!(texts.contains(&"a".to_string()), "{texts:?}");
        // and `w` itself must not share across its own redefinition
        assert!(!texts.contains(&"w".to_string()), "{texts:?}");
    }

    #[test]
    fn array_store_invalidates_the_whole_base() {
        let mut pool = TreePool::new();
        let elem = |i: i64| Tree::elem("a", crate::Index::Const(i));
        // a[0] := … kills sharing of a[1] reads too (conservative).
        let stmts = [
            assign("y", elem(1)),
            AssignStmt { dst: MemRef::array("a", crate::Index::Const(0)), src: Tree::var("u") },
            assign("z", elem(1)),
        ];
        let dag = BlockDag::build(&mut pool, &stmts);
        let texts: Vec<String> =
            dag.shared.iter().map(|s| pool.to_tree(s.id).to_string()).collect();
        assert!(!texts.iter().any(|t| t.contains("a[")), "{texts:?}");
    }

    #[test]
    fn self_update_reads_the_pre_store_version() {
        let mut pool = TreePool::new();
        // y := y + x; z := y + x — the first statement redefines y, so
        // (y + x) must not share; x alone may.
        let stmts = [
            assign("y", Tree::bin(BinOp::Add, Tree::var("y"), Tree::var("x"))),
            assign("z", Tree::bin(BinOp::Add, Tree::var("y"), Tree::var("x"))),
        ];
        let dag = BlockDag::build(&mut pool, &stmts);
        let texts: Vec<String> =
            dag.shared.iter().map(|s| pool.to_tree(s.id).to_string()).collect();
        assert_eq!(texts, vec!["x"], "{texts:?}");
    }

    #[test]
    fn constants_are_never_candidates() {
        let mut pool = TreePool::new();
        let stmts = [assign("y", Tree::constant(7)), assign("z", Tree::constant(7))];
        let dag = BlockDag::build(&mut pool, &stmts);
        assert!(dag.shared.is_empty());
    }

    #[test]
    fn read_bases_cover_the_footprint() {
        let mut pool = TreePool::new();
        let t = Tree::bin(
            BinOp::Add,
            mul(Tree::var("b"), Tree::temp("$t0")),
            Tree::elem("a", crate::Index::var("i")),
        );
        let id = pool.intern(&t);
        let mut memo = HashMap::new();
        let bases: Vec<String> =
            read_bases(&pool, id, &mut memo).iter().map(|s| s.to_string()).collect();
        assert_eq!(bases, vec!["$t0", "a", "b"]);
    }
}
