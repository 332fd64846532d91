//! A hash-consing arena for expression trees.
//!
//! The selection hot path enumerates many algebraically equivalent
//! variants of each statement tree (Figs. 4–5 of the paper). The boxed
//! [`Tree`] representation clones whole subtrees per rewrite; practical
//! BURS implementations instead *share* structurally equal subtrees so
//! that work done on one (labelling, matching) is done exactly once.
//!
//! A [`TreePool`] interns tree nodes: structurally equal subtrees get the
//! same [`TreeId`], so
//!
//! * equality is an integer comparison (`O(1)` instead of a deep walk),
//! * a rewrite allocates only the rebuilt spine — the untouched subtrees
//!   are reused by id, with zero per-clone allocation,
//! * downstream consumers can memoize per-subtree results (the BURS
//!   labeller does — see `record-burg`) keyed by `TreeId`.
//!
//! # Example
//!
//! ```
//! use record_ir::pool::TreePool;
//! use record_ir::{BinOp, Tree};
//!
//! let mut pool = TreePool::new();
//! let t = Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b"));
//! let a = pool.intern(&t);
//! let b = pool.intern(&t);
//! assert_eq!(a, b); // structural dedup: same id
//! assert!(pool.dedup_hits() > 0);
//! assert_eq!(pool.to_tree(a), t); // round-trips
//! ```

use std::collections::hash_map::Entry;

use crate::hash::FoldMap;
use crate::{BinOp, MemRef, Op, Symbol, Tree, UnOp};

/// A handle to an interned tree node in a [`TreePool`].
///
/// Ids are only meaningful within the pool that produced them. Two ids
/// from the same pool are equal iff the trees they denote are
/// structurally equal — interning makes deep equality an integer compare.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TreeId(u32);

impl TreeId {
    /// The raw arena index (diagnostics only).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned node: the flattened counterpart of [`Tree`], with child
/// subtrees referenced by [`TreeId`] instead of owned boxes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TreeNode {
    /// An integer constant leaf.
    Const(i64),
    /// A memory operand leaf.
    Mem(MemRef),
    /// The value of an earlier tree in the same forest.
    Temp(Symbol),
    /// A binary operation over two interned subtrees.
    Bin(BinOp, TreeId, TreeId),
    /// A unary operation over an interned subtree.
    Un(UnOp, TreeId),
}

impl TreeNode {
    /// The flattened operator code of the node.
    pub fn op(&self) -> Op {
        match self {
            TreeNode::Const(_) => Op::Const,
            TreeNode::Mem(_) => Op::Mem,
            TreeNode::Temp(_) => Op::Temp,
            TreeNode::Bin(b, _, _) => Op::Bin(*b),
            TreeNode::Un(u, _) => Op::Un(*u),
        }
    }

    /// The children of the node, in order.
    pub fn children(&self) -> Vec<TreeId> {
        match self {
            TreeNode::Const(_) | TreeNode::Mem(_) | TreeNode::Temp(_) => Vec::new(),
            TreeNode::Un(_, a) => vec![*a],
            TreeNode::Bin(_, a, b) => vec![*a, *b],
        }
    }
}

/// The hash-consing arena: every distinct tree structure is stored once.
///
/// `insert` is the primitive — it returns the existing id when a
/// structurally equal node is already interned (counted in
/// [`dedup_hits`](TreePool::dedup_hits)) and allocates a fresh slot
/// otherwise. [`intern`](TreePool::intern) converts a boxed [`Tree`]
/// bottom-up; the typed constructors ([`bin`](TreePool::bin),
/// [`un`](TreePool::un), …) build interned trees directly.
#[derive(Debug, Default)]
pub struct TreePool {
    nodes: Vec<TreeNode>,
    index: FoldMap<TreeNode, TreeId>,
    dedup_hits: u64,
}

impl TreePool {
    /// An empty pool.
    pub fn new() -> Self {
        TreePool::default()
    }

    /// Forgets every node and zeroes the dedup counter, keeping the
    /// arena's and the index's capacity: afterwards the pool behaves as
    /// [`TreePool::new`] and ids restart at 0.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.index.clear();
        self.dedup_hits = 0;
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// How many `insert`s found their node already interned — the work
    /// (allocation + labelling) that structural sharing avoided.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Interns one node, returning the id of the existing copy when the
    /// same structure is already present. The node is hashed once.
    pub fn insert(&mut self, node: TreeNode) -> TreeId {
        match self.index.entry(node) {
            Entry::Occupied(found) => {
                self.dedup_hits += 1;
                *found.get()
            }
            Entry::Vacant(slot) => {
                let id = TreeId(u32::try_from(self.nodes.len()).expect("tree pool overflow"));
                self.nodes.push(slot.key().clone());
                slot.insert(id);
                id
            }
        }
    }

    /// The node behind `id`.
    pub fn node(&self, id: TreeId) -> &TreeNode {
        &self.nodes[id.0 as usize]
    }

    /// The flattened operator code of `id`'s root.
    pub fn op(&self, id: TreeId) -> Op {
        self.node(id).op()
    }

    /// Interns a constant leaf.
    pub fn constant(&mut self, v: i64) -> TreeId {
        self.insert(TreeNode::Const(v))
    }

    /// Interns a memory-operand leaf.
    pub fn mem(&mut self, r: MemRef) -> TreeId {
        self.insert(TreeNode::Mem(r))
    }

    /// Interns a temporary-reference leaf.
    pub fn temp(&mut self, s: Symbol) -> TreeId {
        self.insert(TreeNode::Temp(s))
    }

    /// Interns a binary node over two already-interned children.
    pub fn bin(&mut self, op: BinOp, lhs: TreeId, rhs: TreeId) -> TreeId {
        self.insert(TreeNode::Bin(op, lhs, rhs))
    }

    /// Interns a unary node over an already-interned child.
    pub fn un(&mut self, op: UnOp, a: TreeId) -> TreeId {
        self.insert(TreeNode::Un(op, a))
    }

    /// Interns a boxed [`Tree`] bottom-up. Structurally equal subtrees
    /// (within this tree or across earlier interns) share ids.
    pub fn intern(&mut self, tree: &Tree) -> TreeId {
        match tree {
            Tree::Const(v) => self.constant(*v),
            Tree::Mem(r) => self.insert(TreeNode::Mem(r.clone())),
            Tree::Temp(s) => self.insert(TreeNode::Temp(s.clone())),
            Tree::Bin(op, a, b) => {
                let ia = self.intern(a);
                let ib = self.intern(b);
                self.bin(*op, ia, ib)
            }
            Tree::Un(op, a) => {
                let ia = self.intern(a);
                self.un(*op, ia)
            }
        }
    }

    /// Extracts the boxed [`Tree`] behind `id` (the inverse of
    /// [`intern`](TreePool::intern)).
    pub fn to_tree(&self, id: TreeId) -> Tree {
        match self.node(id) {
            TreeNode::Const(v) => Tree::Const(*v),
            TreeNode::Mem(r) => Tree::Mem(r.clone()),
            TreeNode::Temp(s) => Tree::Temp(s.clone()),
            TreeNode::Bin(op, a, b) => Tree::bin(*op, self.to_tree(*a), self.to_tree(*b)),
            TreeNode::Un(op, a) => Tree::un(*op, self.to_tree(*a)),
        }
    }

    /// Every interned node with its id, in arena (insertion) order — the
    /// canonical flattened form of everything interned so far. Children
    /// always precede their parents, so a single forward walk sees each
    /// node after its subtrees.
    pub fn iter(&self) -> impl Iterator<Item = (TreeId, &TreeNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (TreeId(i as u32), n))
    }

    /// Number of nodes in the tree denoted by `id` (counting shared
    /// subtrees once per occurrence, like [`Tree::node_count`]).
    pub fn node_count(&self, id: TreeId) -> usize {
        match self.node(id) {
            TreeNode::Const(_) | TreeNode::Mem(_) | TreeNode::Temp(_) => 1,
            TreeNode::Un(_, a) => 1 + self.node_count(*a),
            TreeNode::Bin(_, a, b) => 1 + self.node_count(*a) + self.node_count(*b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        Tree::bin(
            BinOp::Add,
            Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("b")),
            Tree::un(UnOp::Neg, Tree::var("c")),
        )
    }

    #[test]
    fn intern_round_trips() {
        let mut pool = TreePool::new();
        let t = sample();
        let id = pool.intern(&t);
        assert_eq!(pool.to_tree(id), t);
        assert_eq!(pool.node_count(id), t.node_count());
    }

    #[test]
    fn structural_dedup_shares_ids() {
        let mut pool = TreePool::new();
        let a = pool.intern(&sample());
        let hits_before = pool.dedup_hits();
        let b = pool.intern(&sample());
        assert_eq!(a, b);
        // every node of the second intern was already present
        assert_eq!(pool.dedup_hits() - hits_before, sample().node_count() as u64);
    }

    #[test]
    fn shared_subtrees_within_one_tree_dedup() {
        // (a+b) * (a+b): the repeated factor interns once
        let factor = Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b"));
        let t = Tree::bin(BinOp::Mul, factor.clone(), factor);
        let mut pool = TreePool::new();
        let id = pool.intern(&t);
        let TreeNode::Bin(_, l, r) = pool.node(id) else { panic!("bin") };
        assert_eq!(l, r, "shared factor has one id");
        assert!(pool.dedup_hits() > 0);
        // distinct structures: root + factor + a + b
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn distinct_structures_get_distinct_ids() {
        let mut pool = TreePool::new();
        let a = pool.intern(&Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b")));
        let b = pool.intern(&Tree::bin(BinOp::Add, Tree::var("b"), Tree::var("a")));
        assert_ne!(a, b);
    }

    #[test]
    fn typed_constructors_match_intern() {
        let mut pool = TreePool::new();
        let via_tree = pool.intern(&sample());
        let a = pool.mem(MemRef::scalar("a"));
        let b = pool.mem(MemRef::scalar("b"));
        let c = pool.mem(MemRef::scalar("c"));
        let mul = pool.bin(BinOp::Mul, a, b);
        let neg = pool.un(UnOp::Neg, c);
        let via_ctor = pool.bin(BinOp::Add, mul, neg);
        assert_eq!(via_tree, via_ctor);
    }

    #[test]
    fn op_and_children_mirror_tree() {
        let mut pool = TreePool::new();
        let id = pool.intern(&sample());
        assert_eq!(pool.op(id), Op::Bin(BinOp::Add));
        assert_eq!(pool.node(id).children().len(), 2);
        let leaf = pool.constant(7);
        assert!(pool.node(leaf).children().is_empty());
    }
}
