//! Algebraic tree transformations and bounded variant enumeration.
//!
//! Section 4.3.3 of the paper: *"In order to generate optimized code,
//! RECORD uses algebraic rules for transforming the original data flow
//! tree into equivalent ones and calls the iburg-matcher with each tree.
//! The tree requiring the smallest number of covering patterns is then
//! selected."*
//!
//! [`variants`] performs exactly that enumeration: starting from the input
//! tree it applies semantics-preserving rewrite rules breadth-first,
//! de-duplicating structurally equal trees, until a caller-provided limit
//! is reached. The caller (the instruction selector in `record`) matches
//! each variant and keeps the cheapest cover.

use std::collections::HashSet;
use std::collections::VecDeque;

use crate::pool::{TreeId, TreeNode, TreePool};
use crate::{BinOp, Tree, UnOp};

/// Which rewrite rules the enumerator may apply.
///
/// The default enables every semantics-preserving rule. Saturating
/// operators are never re-associated (re-association moves intermediate
/// saturation points), and `Div`/`Shl`/`Shr` are never commuted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleSet {
    /// Swap operands of commutative operators.
    pub commutativity: bool,
    /// Re-associate chains of associative operators.
    pub associativity: bool,
    /// Rewrite `x * 2^k` to `x << k` and back.
    pub mul_shift: bool,
    /// Rewrite `a - b` to `a + neg(b)` and back.
    pub sub_neg: bool,
}

impl RuleSet {
    /// Every rule enabled (same as `Default`).
    pub fn all() -> Self {
        RuleSet { commutativity: true, associativity: true, mul_shift: true, sub_neg: true }
    }

    /// No rules enabled; [`variants`] returns only the original tree.
    /// This is the ablation configuration "no algebraic transformations".
    pub fn none() -> Self {
        RuleSet { commutativity: false, associativity: false, mul_shift: false, sub_neg: false }
    }
}

impl Default for RuleSet {
    fn default() -> Self {
        RuleSet::all()
    }
}

/// Enumerates semantically equivalent variants of `tree`.
///
/// The original tree is always first. Enumeration is breadth-first over
/// single-rule applications and stops when `limit` distinct trees have
/// been produced, so the result is deterministic and bounded.
///
/// # Example
///
/// ```
/// use record_ir::transform::{variants, RuleSet};
/// use record_ir::{BinOp, Tree};
///
/// // a + b*c  has the commuted forms  b*c + a,  a + c*b,  c*b + a ...
/// let t = Tree::bin(
///     BinOp::Add,
///     Tree::var("a"),
///     Tree::bin(BinOp::Mul, Tree::var("b"), Tree::var("c")),
/// );
/// let vs = variants(&t, &RuleSet::all(), 16);
/// assert_eq!(vs[0], t);
/// assert!(vs.len() >= 4);
/// ```
pub fn variants(tree: &Tree, rules: &RuleSet, limit: usize) -> Vec<Tree> {
    let mut seen: HashSet<Tree> = HashSet::new();
    let mut out: Vec<Tree> = Vec::new();
    let mut queue: VecDeque<Tree> = VecDeque::new();
    seen.insert(tree.clone());
    out.push(tree.clone());
    queue.push_back(tree.clone());

    while let Some(cur) = queue.pop_front() {
        if out.len() >= limit {
            break;
        }
        for next in single_step(&cur, rules) {
            if out.len() >= limit {
                break;
            }
            if seen.insert(next.clone()) {
                out.push(next.clone());
                queue.push_back(next);
            }
        }
    }
    out
}

/// All trees reachable from `tree` by applying exactly one rule at exactly
/// one node.
pub fn single_step(tree: &Tree, rules: &RuleSet) -> Vec<Tree> {
    let mut out = Vec::new();
    rewrite_at_each_node(tree, rules, &mut out);
    out
}

/// Applies root rules at every node, rebuilding the spine each time.
fn rewrite_at_each_node(tree: &Tree, rules: &RuleSet, out: &mut Vec<Tree>) {
    // Rules applied at the root of this subtree.
    for r in root_rewrites(tree, rules) {
        out.push(r);
    }
    // Recurse into children, splicing rewritten children back in.
    match tree {
        Tree::Bin(op, a, b) => {
            let mut ra = Vec::new();
            rewrite_at_each_node(a, rules, &mut ra);
            for na in ra {
                out.push(Tree::bin(*op, na, (**b).clone()));
            }
            let mut rb = Vec::new();
            rewrite_at_each_node(b, rules, &mut rb);
            for nb in rb {
                out.push(Tree::bin(*op, (**a).clone(), nb));
            }
        }
        Tree::Un(op, a) => {
            let mut ra = Vec::new();
            rewrite_at_each_node(a, rules, &mut ra);
            for na in ra {
                out.push(Tree::un(*op, na));
            }
        }
        _ => {}
    }
}

/// The rewrites applicable at the root of `tree`.
fn root_rewrites(tree: &Tree, rules: &RuleSet) -> Vec<Tree> {
    let mut out = Vec::new();
    match tree {
        Tree::Bin(op, a, b) => {
            if rules.commutativity && op.is_commutative() {
                out.push(Tree::bin(*op, (**b).clone(), (**a).clone()));
            }
            if rules.associativity && op.is_associative() {
                // (x op y) op b  ->  x op (y op b)
                if let Tree::Bin(inner, x, y) = &**a {
                    if inner == op {
                        out.push(Tree::bin(
                            *op,
                            (**x).clone(),
                            Tree::bin(*op, (**y).clone(), (**b).clone()),
                        ));
                    }
                }
                // a op (x op y)  ->  (a op x) op y
                if let Tree::Bin(inner, x, y) = &**b {
                    if inner == op {
                        out.push(Tree::bin(
                            *op,
                            Tree::bin(*op, (**a).clone(), (**x).clone()),
                            (**y).clone(),
                        ));
                    }
                }
            }
            if rules.mul_shift && *op == BinOp::Mul {
                // x * 2^k -> x << k (and the mirrored operand order)
                if let Tree::Const(c) = &**b {
                    if let Some(k) = exact_log2(*c) {
                        out.push(Tree::bin(BinOp::Shl, (**a).clone(), Tree::constant(k)));
                    }
                }
                if let Tree::Const(c) = &**a {
                    if let Some(k) = exact_log2(*c) {
                        out.push(Tree::bin(BinOp::Shl, (**b).clone(), Tree::constant(k)));
                    }
                }
            }
            if rules.mul_shift && *op == BinOp::Shl {
                // x << k -> x * 2^k for small k
                if let Tree::Const(k) = &**b {
                    if (0..=30).contains(k) {
                        out.push(Tree::bin(
                            BinOp::Mul,
                            (**a).clone(),
                            Tree::constant(1i64 << *k),
                        ));
                    }
                }
            }
            if rules.sub_neg && *op == BinOp::Sub {
                // a - b -> a + neg(b)
                out.push(Tree::bin(
                    BinOp::Add,
                    (**a).clone(),
                    Tree::un(UnOp::Neg, (**b).clone()),
                ));
            }
            if rules.sub_neg && *op == BinOp::Add {
                // a + neg(b) -> a - b ; neg(a) + b -> b - a
                if let Tree::Un(UnOp::Neg, inner) = &**b {
                    out.push(Tree::bin(BinOp::Sub, (**a).clone(), (**inner).clone()));
                }
                if let Tree::Un(UnOp::Neg, inner) = &**a {
                    out.push(Tree::bin(BinOp::Sub, (**b).clone(), (**inner).clone()));
                }
            }
        }
        Tree::Un(UnOp::Neg, a)
            // neg(neg(x)) -> x
            if rules.sub_neg => {
                if let Tree::Un(UnOp::Neg, inner) = &**a {
                    out.push((**inner).clone());
                }
            }
        _ => {}
    }
    out
}

fn exact_log2(c: i64) -> Option<i64> {
    if c >= 2 && (c as u64).is_power_of_two() {
        Some(c.trailing_zeros() as i64)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Interned enumeration over a hash-consing TreePool.
//
// The functions below mirror the boxed rewriters above exactly — same rules,
// same emission order — but operate on interned [`TreeId`]s, so a rewrite
// allocates only the rebuilt spine and de-duplication is an integer compare.
// `VariantStream` is the lazy counterpart of [`variants`]: it yields the same
// sequence of trees, one at a time, so the caller can stop early (budget
// exhausted, or a cover proven unbeatable) without paying for the rest.
// ---------------------------------------------------------------------------

fn bin_parts(pool: &TreePool, id: TreeId) -> Option<(BinOp, TreeId, TreeId)> {
    match pool.node(id) {
        TreeNode::Bin(op, a, b) => Some((*op, *a, *b)),
        _ => None,
    }
}

fn un_parts(pool: &TreePool, id: TreeId) -> Option<(UnOp, TreeId)> {
    match pool.node(id) {
        TreeNode::Un(op, a) => Some((*op, *a)),
        _ => None,
    }
}

fn const_val(pool: &TreePool, id: TreeId) -> Option<i64> {
    match pool.node(id) {
        TreeNode::Const(v) => Some(*v),
        _ => None,
    }
}

fn neg_child(pool: &TreePool, id: TreeId) -> Option<TreeId> {
    match pool.node(id) {
        TreeNode::Un(UnOp::Neg, a) => Some(*a),
        _ => None,
    }
}

/// Interned counterpart of [`single_step`]: all trees reachable from `id` by
/// one rule application at one node, in the same order the boxed rewriter
/// produces them.
pub fn single_step_interned(pool: &mut TreePool, id: TreeId, rules: &RuleSet) -> Vec<TreeId> {
    let mut out = Vec::new();
    rewrite_at_each_node_interned(pool, id, rules, &mut out);
    out
}

/// Appends to `out` every single-rule rewrite of `id`, in the order of
/// [`rewrite_at_each_node`]. A child's rewrites are appended first and
/// then wrapped in place into rewrites of `id`, so nodes are interned in
/// a fixed order (the child's rewrites, then their parents) and no
/// scratch vector is allocated per tree level.
fn rewrite_at_each_node_interned(
    pool: &mut TreePool,
    id: TreeId,
    rules: &RuleSet,
    out: &mut Vec<TreeId>,
) {
    root_rewrites_interned(pool, id, rules, out);
    if let Some((op, a, b)) = bin_parts(pool, id) {
        let start = out.len();
        rewrite_at_each_node_interned(pool, a, rules, out);
        for slot in &mut out[start..] {
            *slot = pool.bin(op, *slot, b);
        }
        let start = out.len();
        rewrite_at_each_node_interned(pool, b, rules, out);
        for slot in &mut out[start..] {
            *slot = pool.bin(op, a, *slot);
        }
    } else if let Some((op, a)) = un_parts(pool, id) {
        let start = out.len();
        rewrite_at_each_node_interned(pool, a, rules, out);
        for slot in &mut out[start..] {
            *slot = pool.un(op, *slot);
        }
    }
}

fn root_rewrites_interned(pool: &mut TreePool, id: TreeId, rules: &RuleSet, out: &mut Vec<TreeId>) {
    if let Some((op, a, b)) = bin_parts(pool, id) {
        if rules.commutativity && op.is_commutative() {
            let t = pool.bin(op, b, a);
            out.push(t);
        }
        if rules.associativity && op.is_associative() {
            // (x op y) op b  ->  x op (y op b)
            if let Some((inner, x, y)) = bin_parts(pool, a) {
                if inner == op {
                    let yb = pool.bin(op, y, b);
                    let t = pool.bin(op, x, yb);
                    out.push(t);
                }
            }
            // a op (x op y)  ->  (a op x) op y
            if let Some((inner, x, y)) = bin_parts(pool, b) {
                if inner == op {
                    let ax = pool.bin(op, a, x);
                    let t = pool.bin(op, ax, y);
                    out.push(t);
                }
            }
        }
        if rules.mul_shift && op == BinOp::Mul {
            // x * 2^k -> x << k (and the mirrored operand order)
            if let Some(c) = const_val(pool, b) {
                if let Some(k) = exact_log2(c) {
                    let kk = pool.constant(k);
                    let t = pool.bin(BinOp::Shl, a, kk);
                    out.push(t);
                }
            }
            if let Some(c) = const_val(pool, a) {
                if let Some(k) = exact_log2(c) {
                    let kk = pool.constant(k);
                    let t = pool.bin(BinOp::Shl, b, kk);
                    out.push(t);
                }
            }
        }
        if rules.mul_shift && op == BinOp::Shl {
            // x << k -> x * 2^k for small k
            if let Some(k) = const_val(pool, b) {
                if (0..=30).contains(&k) {
                    let c = pool.constant(1i64 << k);
                    let t = pool.bin(BinOp::Mul, a, c);
                    out.push(t);
                }
            }
        }
        if rules.sub_neg && op == BinOp::Sub {
            // a - b -> a + neg(b)
            let nb = pool.un(UnOp::Neg, b);
            let t = pool.bin(BinOp::Add, a, nb);
            out.push(t);
        }
        if rules.sub_neg && op == BinOp::Add {
            // a + neg(b) -> a - b ; neg(a) + b -> b - a
            if let Some(inner) = neg_child(pool, b) {
                let t = pool.bin(BinOp::Sub, a, inner);
                out.push(t);
            }
            if let Some(inner) = neg_child(pool, a) {
                let t = pool.bin(BinOp::Sub, b, inner);
                out.push(t);
            }
        }
    } else if rules.sub_neg {
        // neg(neg(x)) -> x
        if let Some(a) = neg_child(pool, id) {
            if let Some(inner) = neg_child(pool, a) {
                out.push(inner);
            }
        }
    }
}

/// Lazy, interned counterpart of [`variants`].
///
/// Yields the same breadth-first sequence of distinct trees — original
/// first, then single-rule successors in generation order — but one at a
/// time from a hash-consed pool, so:
///
/// * nothing beyond the next frontier is materialized; abandoning the
///   stream early (search budget exhausted, or the current best cover
///   provably unbeatable) skips the remaining enumeration entirely,
/// * de-duplication is a `TreeId` hash-set instead of deep tree hashing,
/// * rewrites share all untouched subtrees with their parents.
///
/// The pool is passed to [`next`](VariantStream::next) per call rather
/// than borrowed by the stream, so the caller is free to read interned
/// trees between yields.
///
/// ```
/// use record_ir::pool::TreePool;
/// use record_ir::transform::{variants, RuleSet, VariantStream};
/// use record_ir::{BinOp, Tree};
///
/// let t = Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b"));
/// let mut pool = TreePool::new();
/// let mut stream = VariantStream::new(&mut pool, &t, RuleSet::all(), 16);
/// let mut got = Vec::new();
/// while let Some(id) = stream.next(&mut pool) {
///     got.push(pool.to_tree(id));
/// }
/// assert_eq!(got, variants(&t, &RuleSet::all(), 16));
/// ```
#[derive(Debug)]
pub struct VariantStream {
    rules: RuleSet,
    limit: usize,
    yielded: usize,
    steps: u64,
    seen: HashSet<TreeId>,
    /// Distinct successors generated but not yet yielded.
    ready: VecDeque<TreeId>,
    /// Yielded trees awaiting breadth-first expansion.
    queue: VecDeque<TreeId>,
    /// The original tree, until the first `next` call yields it.
    root: Option<TreeId>,
}

impl VariantStream {
    /// Interns `tree` into `pool` and prepares enumeration of up to
    /// `limit` distinct variants (the original included).
    pub fn new(pool: &mut TreePool, tree: &Tree, rules: RuleSet, limit: usize) -> Self {
        let root = pool.intern(tree);
        VariantStream::from_id(root, rules, limit)
    }

    /// Enumerates from an already-interned root.
    pub fn from_id(root: TreeId, rules: RuleSet, limit: usize) -> Self {
        let mut seen = HashSet::new();
        seen.insert(root);
        VariantStream {
            rules,
            limit,
            yielded: 0,
            steps: 0,
            seen,
            ready: VecDeque::new(),
            queue: VecDeque::new(),
            root: Some(root),
        }
    }

    /// The next distinct variant, or `None` when the limit is reached or
    /// the rewrite space is exhausted.
    pub fn next(&mut self, pool: &mut TreePool) -> Option<TreeId> {
        if self.yielded >= self.limit {
            return None;
        }
        if let Some(root) = self.root.take() {
            self.yielded += 1;
            self.queue.push_back(root);
            return Some(root);
        }
        loop {
            if let Some(id) = self.ready.pop_front() {
                self.yielded += 1;
                self.queue.push_back(id);
                return Some(id);
            }
            let cur = self.queue.pop_front()?;
            let successors = single_step_interned(pool, cur, &self.rules);
            self.steps += successors.len() as u64;
            for next in successors {
                if self.seen.insert(next) {
                    self.ready.push_back(next);
                }
            }
        }
    }

    /// Number of variants yielded so far.
    pub fn yielded(&self) -> usize {
        self.yielded
    }

    /// Candidate rewrites generated so far (before de-duplication) — the
    /// enumeration work performed, suitable for search-budget charging.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Distinct variants already generated but not yet yielded. When the
    /// caller abandons the stream early this is a deterministic lower
    /// bound on the enumeration it skipped.
    pub fn pending(&self) -> usize {
        self.ready.len()
    }
}

/// Eager helper: drains a [`VariantStream`], returning the interned ids.
/// Yields exactly the trees [`variants`] would produce, in order.
pub fn variants_interned(
    pool: &mut TreePool,
    tree: &Tree,
    rules: &RuleSet,
    limit: usize,
) -> Vec<TreeId> {
    let mut stream = VariantStream::new(pool, tree, *rules, limit);
    let mut out = Vec::new();
    while let Some(id) = stream.next(pool) {
        out.push(id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemRef;
    use crate::Symbol;

    fn v(name: &str) -> Tree {
        Tree::var(name)
    }

    /// Evaluates with a fixed environment; used to check that every variant
    /// is semantically equivalent.
    fn eval(t: &Tree) -> i64 {
        let mut mem = |r: &MemRef| match r.base().as_str() {
            "a" => 17,
            "b" => -4,
            "c" => 9,
            "d" => 3,
            _ => 1,
        };
        let mut tmp = |_: &Symbol| 0;
        t.eval(32, &mut mem, &mut tmp)
    }

    #[test]
    fn original_is_first_and_always_present() {
        let t = Tree::bin(BinOp::Add, v("a"), v("b"));
        let vs = variants(&t, &RuleSet::all(), 10);
        assert_eq!(vs[0], t);
    }

    #[test]
    fn none_ruleset_yields_only_original() {
        let t = Tree::bin(BinOp::Add, v("a"), v("b"));
        let vs = variants(&t, &RuleSet::none(), 10);
        assert_eq!(vs.len(), 1);
    }

    #[test]
    fn commutativity_generates_swap() {
        let t = Tree::bin(BinOp::Add, v("a"), v("b"));
        let vs = variants(&t, &RuleSet::all(), 10);
        assert!(vs.contains(&Tree::bin(BinOp::Add, v("b"), v("a"))));
    }

    #[test]
    fn subtraction_is_not_commuted() {
        let t = Tree::bin(BinOp::Sub, v("a"), v("b"));
        let vs = variants(&t, &RuleSet::all(), 50);
        assert!(!vs.contains(&Tree::bin(BinOp::Sub, v("b"), v("a"))));
    }

    #[test]
    fn associativity_rotates() {
        // (a+b)+c -> a+(b+c)
        let t = Tree::bin(BinOp::Add, Tree::bin(BinOp::Add, v("a"), v("b")), v("c"));
        let vs = variants(&t, &RuleSet::all(), 64);
        assert!(vs.contains(&Tree::bin(BinOp::Add, v("a"), Tree::bin(BinOp::Add, v("b"), v("c")))));
    }

    #[test]
    fn mul_by_power_of_two_becomes_shift() {
        let t = Tree::bin(BinOp::Mul, v("a"), Tree::constant(8));
        let vs = variants(&t, &RuleSet::all(), 16);
        assert!(vs.contains(&Tree::bin(BinOp::Shl, v("a"), Tree::constant(3))));
    }

    #[test]
    fn sub_becomes_add_neg_and_back() {
        let t = Tree::bin(BinOp::Sub, v("a"), v("b"));
        let vs = variants(&t, &RuleSet::all(), 16);
        let addneg = Tree::bin(BinOp::Add, v("a"), Tree::un(UnOp::Neg, v("b")));
        assert!(vs.contains(&addneg));
        // and the reverse direction restores the original
        let back = variants(&addneg, &RuleSet::all(), 16);
        assert!(back.contains(&t));
    }

    #[test]
    fn all_variants_are_semantically_equal() {
        let t = Tree::bin(
            BinOp::Add,
            Tree::bin(BinOp::Mul, v("a"), Tree::constant(4)),
            Tree::bin(BinOp::Sub, v("c"), Tree::bin(BinOp::Mul, v("b"), v("d"))),
        );
        let reference = eval(&t);
        for variant in variants(&t, &RuleSet::all(), 200) {
            assert_eq!(eval(&variant), reference, "variant {variant} diverges");
        }
    }

    #[test]
    fn limit_is_respected() {
        let t = Tree::bin(
            BinOp::Add,
            Tree::bin(BinOp::Add, v("a"), v("b")),
            Tree::bin(BinOp::Add, v("c"), v("d")),
        );
        let vs = variants(&t, &RuleSet::all(), 5);
        assert_eq!(vs.len(), 5);
    }

    #[test]
    fn saturating_add_commutes_but_does_not_associate() {
        let t = Tree::bin(BinOp::SatAdd, Tree::bin(BinOp::SatAdd, v("a"), v("b")), v("c"));
        let vs = variants(&t, &RuleSet::all(), 100);
        // no right-rotated version
        let rotated = Tree::bin(BinOp::SatAdd, v("a"), Tree::bin(BinOp::SatAdd, v("b"), v("c")));
        assert!(!vs.contains(&rotated));
        // but commuted versions exist
        assert!(vs.iter().any(|x| x != &t));
    }

    #[test]
    fn double_negation_cancels() {
        let t = Tree::un(UnOp::Neg, Tree::un(UnOp::Neg, v("a")));
        let vs = variants(&t, &RuleSet::all(), 10);
        assert!(vs.contains(&v("a")));
    }

    /// The streaming interned enumerator must reproduce the boxed BFS
    /// sequence exactly — order included — for every rule subset.
    #[test]
    fn stream_matches_boxed_enumeration() {
        let samples = vec![
            Tree::bin(BinOp::Add, v("a"), v("b")),
            Tree::bin(BinOp::Sub, v("a"), v("b")),
            Tree::bin(BinOp::Mul, v("a"), Tree::constant(8)),
            Tree::bin(BinOp::Add, Tree::bin(BinOp::Add, v("a"), v("b")), v("c")),
            Tree::bin(
                BinOp::Add,
                Tree::bin(BinOp::Mul, v("a"), Tree::constant(4)),
                Tree::bin(BinOp::Sub, v("c"), Tree::bin(BinOp::Mul, v("b"), v("d"))),
            ),
            Tree::un(UnOp::Neg, Tree::un(UnOp::Neg, v("a"))),
            Tree::bin(BinOp::SatAdd, Tree::bin(BinOp::SatAdd, v("a"), v("b")), v("c")),
        ];
        let rule_sets = [
            RuleSet::all(),
            RuleSet::none(),
            RuleSet { commutativity: true, ..RuleSet::none() },
            RuleSet { associativity: true, ..RuleSet::none() },
            RuleSet { mul_shift: true, sub_neg: true, ..RuleSet::none() },
        ];
        for t in &samples {
            for rules in &rule_sets {
                for limit in [1, 2, 5, 64] {
                    let boxed = variants(t, rules, limit);
                    let mut pool = TreePool::new();
                    let streamed: Vec<Tree> = variants_interned(&mut pool, t, rules, limit)
                        .into_iter()
                        .map(|id| pool.to_tree(id))
                        .collect();
                    assert_eq!(streamed, boxed, "tree {t} rules {rules:?} limit {limit}");
                }
            }
        }
    }

    #[test]
    fn stream_yields_distinct_ids() {
        let t = Tree::bin(
            BinOp::Add,
            Tree::bin(BinOp::Add, v("a"), v("b")),
            Tree::bin(BinOp::Add, v("c"), v("d")),
        );
        let mut pool = TreePool::new();
        let ids = variants_interned(&mut pool, &t, &RuleSet::all(), 100);
        let unique: HashSet<_> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "no duplicate variants");
    }

    #[test]
    fn stream_counts_work_and_respects_limit() {
        let t = Tree::bin(
            BinOp::Add,
            Tree::bin(BinOp::Add, v("a"), v("b")),
            Tree::bin(BinOp::Add, v("c"), v("d")),
        );
        let mut pool = TreePool::new();
        let mut stream = VariantStream::new(&mut pool, &t, RuleSet::all(), 5);
        let mut n = 0;
        while stream.next(&mut pool).is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert_eq!(stream.yielded(), 5);
        assert!(stream.steps() > 0, "expansion work was counted");
        // abandoning early leaves pending successors observable
        let mut stream2 = VariantStream::new(&mut pool, &t, RuleSet::all(), 100);
        stream2.next(&mut pool);
        stream2.next(&mut pool);
        assert!(stream2.pending() > 0);
    }

    #[test]
    fn interned_rewrites_share_untouched_subtrees() {
        // Commuting the root of (a+b)+(c+d) must reuse both child ids.
        let lhs = Tree::bin(BinOp::Add, v("a"), v("b"));
        let rhs = Tree::bin(BinOp::Add, v("c"), v("d"));
        let t = Tree::bin(BinOp::Add, lhs, rhs);
        let mut pool = TreePool::new();
        let root = pool.intern(&t);
        let nodes_before = pool.len();
        let succ = single_step_interned(
            &mut pool,
            root,
            &RuleSet { commutativity: true, ..RuleSet::none() },
        );
        // 3 commuted forms (root, left child, right child), but only 3 new
        // *root* spines: every leaf and untouched child is shared.
        assert_eq!(succ.len(), 3);
        assert!(pool.len() - nodes_before <= succ.len() + 2);
    }
}
