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
//! A pool is the one tree form of a compile: lowering builds every
//! statement into the pool its [`Lir`](crate::Lir) owns, and `fold`,
//! `treeify`, the block DAG and selection only add nodes to it, so an id
//! stays valid for the whole compile. A pool dropped on a thread leaves
//! its emptied buffers to the next pool the thread creates, so a thread
//! that compiles program after program stops growing the same buffers.
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
//! assert_eq!(pool.display(a).to_string(), "(a + b)");
//! ```

use std::cell::RefCell;
use std::fmt;
use std::hash::BuildHasher;

use crate::hash::FoldState;
use crate::{BinOp, MemRef, Op, Symbol, Tree, UnOp};

/// The buffers of a pool: its arena and its index's slots.
type Storage = (Vec<TreeNode>, Vec<u32>);

/// The most nodes a dropped pool's arena may have room for and still
/// leave its buffers to the thread's next pool, so one large program
/// cannot pin its buffers in a thread for the thread's lifetime.
pub const MAX_SPARE_NODES: usize = 1 << 16;

/// How many dropped pools' buffers a thread keeps: a compile holds the
/// program's pool and, on the stage-by-stage path, the compilation
/// unit's copy of it.
const SPARES: usize = 2;

thread_local! {
    /// Emptied buffers of the pools dropped on this thread.
    static SPARE: RefCell<Vec<Storage>> = const { RefCell::new(Vec::new()) };
}

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
/// otherwise. The typed constructors ([`bin`](TreePool::bin),
/// [`un`](TreePool::un), …) build interned trees directly;
/// [`intern`](TreePool::intern) converts a boxed [`Tree`] bottom-up, for
/// tests and the reference oracles that take boxed trees.
///
/// The index is an open-addressing table of ids over the arena, probed
/// linearly: each node is stored once, in the arena, and a lookup hashes
/// the node and compares it with the nodes its probe reaches.
#[derive(Debug)]
pub struct TreePool {
    nodes: Vec<TreeNode>,
    /// 1 + the id of the node in each slot (0: empty). The length is a
    /// power of two, more than twice the number of nodes.
    slots: Vec<u32>,
    keys: FoldState,
    dedup_hits: u64,
}

impl Default for TreePool {
    fn default() -> Self {
        TreePool::new()
    }
}

impl Clone for TreePool {
    /// A pool with the same nodes under the same ids and the same dedup
    /// count, in buffers a dropped pool left if there are any.
    fn clone(&self) -> Self {
        let mut pool = TreePool::new();
        pool.nodes.extend_from_slice(&self.nodes);
        // the hash keys are the process's, so every node keeps its slot
        pool.slots.clone_from(&self.slots);
        pool.dedup_hits = self.dedup_hits;
        pool
    }
}

impl Drop for TreePool {
    /// Leaves the emptied buffers to the thread's next pool, unless the
    /// pool never grew, its arena has room for more than
    /// [`MAX_SPARE_NODES`] nodes, or the thread keeps enough already.
    fn drop(&mut self) {
        if !(1..=MAX_SPARE_NODES).contains(&self.nodes.capacity()) {
            return;
        }
        let (mut nodes, mut slots) =
            (std::mem::take(&mut self.nodes), std::mem::take(&mut self.slots));
        nodes.clear();
        slots.fill(0);
        let storage = (nodes, slots);
        // `try_with`: pools are also dropped while thread-locals are torn
        // down
        let _ = SPARE.try_with(|spare| {
            if let Ok(mut spare) = spare.try_borrow_mut() {
                if spare.len() < SPARES {
                    spare.push(storage);
                }
            }
        });
    }
}

impl TreePool {
    /// An empty pool, in the buffers a pool dropped on this thread left
    /// when there are any.
    pub fn new() -> Self {
        let spare = SPARE.try_with(|spare| spare.try_borrow_mut().ok()?.pop()).ok().flatten();
        let (nodes, slots) = spare.unwrap_or_default();
        TreePool { nodes, slots, keys: FoldState::default(), dedup_hits: 0 }
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
        if 2 * (self.nodes.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.keys.hash_one(&node) as usize & mask;
        loop {
            match self.slots[slot] {
                0 => break,
                taken if self.nodes[taken as usize - 1] == node => {
                    self.dedup_hits += 1;
                    return TreeId(taken - 1);
                }
                _ => slot = (slot + 1) & mask,
            }
        }
        let id = TreeId(self.nodes.len() as u32);
        self.slots[slot] = u32::try_from(self.nodes.len() + 1).expect("tree pool overflow");
        self.nodes.push(node);
        id
    }

    /// Doubles the index (16 slots at first) and puts every node back.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots.clear();
        self.slots.resize(len, 0);
        for (ix, node) in self.nodes.iter().enumerate() {
            let mut slot = self.keys.hash_one(node) as usize & (len - 1);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            self.slots[slot] = ix as u32 + 1;
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

    /// The tree behind `id`, printed as [`Tree`]'s `Display` prints it:
    /// `((a * b) + neg(c))`.
    pub fn display(&self, id: TreeId) -> TreeDisplay<'_> {
        TreeDisplay { pool: self, id }
    }

    /// Evaluates the tree behind `id` as [`Tree::eval`] evaluates it.
    pub fn eval(
        &self,
        id: TreeId,
        width: u32,
        read_mem: &mut impl FnMut(&MemRef) -> i64,
        read_temp: &mut impl FnMut(&Symbol) -> i64,
    ) -> i64 {
        match self.node(id) {
            TreeNode::Const(c) => crate::ops::wrap_to_width(*c, width),
            TreeNode::Mem(r) => read_mem(r),
            TreeNode::Temp(s) => read_temp(s),
            TreeNode::Bin(op, a, b) => {
                let va = self.eval(*a, width, read_mem, read_temp);
                let vb = self.eval(*b, width, read_mem, read_temp);
                op.eval(va, vb, width)
            }
            TreeNode::Un(op, a) => {
                let va = self.eval(*a, width, read_mem, read_temp);
                op.eval(va, width)
            }
        }
    }

    /// Whether the tree behind `id` here and the one behind `theirs` in
    /// `other` are structurally equal (the pools may number them
    /// differently).
    pub fn same_tree(&self, id: TreeId, other: &TreePool, theirs: TreeId) -> bool {
        match (self.node(id), other.node(theirs)) {
            (TreeNode::Bin(op, a, b), TreeNode::Bin(op2, a2, b2)) => {
                op == op2 && self.same_tree(*a, other, *a2) && self.same_tree(*b, other, *b2)
            }
            (TreeNode::Un(op, a), TreeNode::Un(op2, a2)) => {
                op == op2 && self.same_tree(*a, other, *a2)
            }
            (mine, theirs) => mine == theirs,
        }
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

/// A tree of a [`TreePool`] printed as its boxed [`Tree`] prints; see
/// [`TreePool::display`].
#[derive(Clone, Copy)]
pub struct TreeDisplay<'a> {
    pool: &'a TreePool,
    id: TreeId,
}

impl fmt::Display for TreeDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sub = |id| self.pool.display(id);
        match self.pool.node(self.id) {
            TreeNode::Const(c) => write!(f, "{c}"),
            TreeNode::Mem(r) => write!(f, "{r}"),
            TreeNode::Temp(s) => write!(f, "{s}"),
            TreeNode::Bin(op, a, b) => write!(f, "({} {op} {})", sub(*a), sub(*b)),
            TreeNode::Un(op, a) => write!(f, "{op}({})", sub(*a)),
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
    fn display_eval_and_equality_mirror_the_boxed_tree() {
        let mut pool = TreePool::new();
        let t = sample();
        let id = pool.intern(&t);
        assert_eq!(pool.display(id).to_string(), t.to_string());
        let mut mem = |r: &MemRef| r.base().as_str().len() as i64 + 2;
        let mut tmp = |_: &Symbol| 0;
        assert_eq!(pool.eval(id, 16, &mut mem, &mut tmp), t.eval(16, &mut mem, &mut tmp));
        // the same tree under other ids in another pool
        let mut other = TreePool::new();
        other.constant(9);
        let theirs = other.intern(&t);
        assert_ne!(id.index(), theirs.index());
        assert!(pool.same_tree(id, &other, theirs));
        let neg = other.intern(&Tree::un(UnOp::Neg, Tree::var("c")));
        assert!(!pool.same_tree(id, &other, neg));
    }

    #[test]
    fn a_dropped_pool_leaves_its_buffers_to_the_next_one() {
        let mut pool = TreePool::new();
        for v in 0..100 {
            pool.constant(v);
        }
        let mut copy = pool.clone();
        assert_eq!(copy.len(), 100);
        assert_eq!(copy.insert(TreeNode::Const(7)), TreeId(7));
        drop(copy);
        drop(pool);
        let next = TreePool::new();
        assert!(next.is_empty());
        assert_eq!(next.dedup_hits(), 0);
        assert!(next.nodes.capacity() >= 100);
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
