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
//! [`BlockDag::build`] walks every statement of a block in the program's
//! pool and reports the values that occur more than once under that rule. Each occurrence
//! is keyed by `(TreeId, last store)`: the pool id captures the
//! structure, and the last store is 1 + the index of the last statement
//! before the occurrence that stored to a base symbol the subtree reads
//! (0 when none did). A store to a symbol (scalar or any element of an
//! array) counts for the whole symbol. Two occurrences of one subtree
//! get the same key exactly when no statement between them stores to a
//! symbol it reads, so occurrences separated by such a store are never
//! offered for sharing. This is deliberately conservative: a store to
//! `a[0]` invalidates reads of `a[1]` too.
//!
//! The builder decides *what may be shared*; whether sharing pays is the
//! back end's call (see the emitter's share-vs-recompute cost model).

use std::borrow::Borrow;
use std::collections::HashMap;

use crate::hash::FoldMap;
use crate::lir::AssignStmt;
use crate::pool::{TreeId, TreeNode, TreePool};
use crate::Symbol;

/// A value that occurs more than once in the block under the same last
/// store — i.e. a subtree that is both structurally repeated *and* sound
/// to compute once.
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
    /// The root of each statement, in block order.
    pub roots: Vec<TreeId>,
    /// Soundly shareable multi-use values, ordered by first occurrence
    /// (outer subtrees before the subtrees they contain).
    pub shared: Vec<SharedValue>,
}

/// The occurrences of one subtree under one last-store key. A subtree's
/// key never falls as the block goes on, so its groups follow one another
/// and only the latest can grow.
#[derive(Debug)]
struct Group {
    id: TreeId,
    key: usize,
    count: usize,
    /// The last statement that joined the group.
    stmt: usize,
}

/// The last store to each base symbol of a block, under dense symbol
/// ids: the state behind the last-store key of [`BlockDag`] and of
/// [`treeify`](crate::treeify::treeify).
#[derive(Debug, Default)]
pub(crate) struct LastStores {
    /// Dense ids of the block's base symbols.
    ids: FoldMap<Symbol, usize>,
    /// Per symbol id, 1 + the index of the last statement that stored to
    /// it (0: none yet).
    last: Vec<usize>,
}

impl LastStores {
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.last.clear();
    }

    /// The dense id of `sym`; a new symbol gets the next id and no store
    /// yet.
    pub(crate) fn id(&mut self, sym: &Symbol) -> usize {
        if let Some(&ix) = self.ids.get(sym) {
            return ix;
        }
        self.ids.insert(sym.clone(), self.last.len());
        self.last.push(0);
        self.last.len() - 1
    }

    /// 1 + the index of the last statement that stored to symbol `id`
    /// (0: none yet).
    pub(crate) fn last(&self, id: usize) -> usize {
        self.last[id]
    }

    /// Records that statement `stmt` stores to `sym`. A statement's store
    /// happens after its reads, so call this once its reads are keyed.
    pub(crate) fn store(&mut self, sym: &Symbol, stmt: usize) {
        let id = self.id(sym);
        self.last[id] = stmt + 1;
    }
}

/// The working state of [`BlockDag::rebuild`]. Its vectors and map keep
/// their capacity between blocks, so a caller that covers block after
/// block allocates them once.
#[derive(Debug, Default)]
pub struct DagScratch {
    stores: LastStores,
    bases: Bases,
    /// Per `TreeId`, the group its latest occurrence joined.
    latest: Vec<Option<usize>>,
    /// Groups in order of their first occurrence.
    groups: Vec<Group>,
    /// (group, statement) each time a group gains a statement.
    joined: Vec<(usize, usize)>,
    stack: Vec<TreeId>,
    /// Per group, its index in `shared` (if it occurs twice or more).
    slot: Vec<Option<usize>>,
    /// Shared values of earlier blocks, kept for their `uses` vectors.
    spare: Vec<SharedValue>,
}

impl BlockDag {
    /// Detects the multi-use values of `stmts`, whose trees live in
    /// `pool`, that are sound to share.
    ///
    /// Constant leaves are never reported (rematerializing a constant is
    /// as cheap as copying it); memory/temporary leaves and computed
    /// nodes are. Candidates come out in first-occurrence order, which
    /// puts an outer repeated subtree before its own repeated children.
    pub fn build(pool: &TreePool, stmts: &[AssignStmt]) -> BlockDag {
        let mut dag = BlockDag::default();
        dag.rebuild(pool, stmts, &mut DagScratch::default());
        dag
    }

    /// [`build`](BlockDag::build) into `self`, reusing its vectors and
    /// the working state in `scratch`: the result is the DAG `build`
    /// returns for the same statements and pool.
    pub fn rebuild<S: Borrow<AssignStmt>>(
        &mut self,
        pool: &TreePool,
        stmts: &[S],
        scratch: &mut DagScratch,
    ) {
        let DagScratch { stores, bases, latest, groups, joined, stack, slot, spare } = scratch;
        stores.clear();
        bases.clear();
        latest.clear();
        groups.clear();
        joined.clear();
        self.roots.clear();
        spare.append(&mut self.shared);
        latest.resize(pool.len(), None);

        for (i, stmt) in stmts.iter().enumerate() {
            let stmt = stmt.borrow();
            let root = stmt.src;
            self.roots.push(root);
            // Visit every occurrence (with multiplicity) in pre-order.
            stack.push(root);
            while let Some(id) = stack.pop() {
                match *pool.node(id) {
                    TreeNode::Const(_) => continue,
                    TreeNode::Bin(_, a, b) => stack.extend([b, a]),
                    TreeNode::Un(_, a) => stack.push(a),
                    TreeNode::Mem(_) | TreeNode::Temp(_) => {}
                }
                let read = bases.of(pool, id, &mut |s| stores.id(s));
                let key = read.iter().map(|&s| stores.last(s)).max().unwrap_or(0);
                let g = match latest[id.index()] {
                    Some(g) if groups[g].key == key => g,
                    _ => {
                        groups.push(Group { id, key, count: 0, stmt: i });
                        latest[id.index()] = Some(groups.len() - 1);
                        groups.len() - 1
                    }
                };
                let group = &mut groups[g];
                if group.count == 0 || group.stmt != i {
                    joined.push((g, i));
                    group.stmt = i;
                }
                group.count += 1;
            }
            // The statement's store happens after its reads: later
            // occurrences that read the destination are keyed apart from
            // the ones above.
            stores.store(stmt.dst.base(), i);
        }

        slot.clear();
        slot.resize(groups.len(), None);
        for (g, group) in groups.iter().enumerate().filter(|(_, group)| group.count >= 2) {
            slot[g] = Some(self.shared.len());
            let uses = spare.pop().map(|spare| spare.uses).unwrap_or_default();
            self.shared.push(SharedValue { id: group.id, uses, use_count: group.count });
        }
        for value in &mut self.shared {
            value.uses.clear();
        }
        for &(g, stmt) in joined.iter() {
            if let Some(ix) = slot[g] {
                self.shared[ix].uses.push(stmt);
            }
        }
    }
}

/// The dense symbol ids each subtree reads, sorted and deduplicated:
/// one range of a shared arena per `TreeId`, computed once per block.
#[derive(Debug, Default)]
struct Bases {
    ranges: Vec<Option<(usize, usize)>>,
    arena: Vec<usize>,
}

impl Bases {
    fn clear(&mut self) {
        self.ranges.clear();
        self.arena.clear();
    }

    fn of(
        &mut self,
        pool: &TreePool,
        id: TreeId,
        sym_id: &mut impl FnMut(&Symbol) -> usize,
    ) -> &[usize] {
        let (start, end) = self.range(pool, id, sym_id);
        &self.arena[start..end]
    }

    fn range(
        &mut self,
        pool: &TreePool,
        id: TreeId,
        sym_id: &mut impl FnMut(&Symbol) -> usize,
    ) -> (usize, usize) {
        if self.ranges.len() <= id.index() {
            self.ranges.resize(pool.len(), None);
        }
        if let Some(range) = self.ranges[id.index()] {
            return range;
        }
        let (leaf, kids) = match pool.node(id) {
            TreeNode::Const(_) => (None, [None, None]),
            TreeNode::Mem(r) => (Some(r.base()), [None, None]),
            TreeNode::Temp(t) => (Some(t), [None, None]),
            TreeNode::Bin(_, a, b) => (None, [Some(*a), Some(*b)]),
            TreeNode::Un(_, a) => (None, [Some(*a), None]),
        };
        let kids = kids.map(|kid| kid.map(|kid| self.range(pool, kid, sym_id)));
        let start = self.arena.len();
        if let Some(sym) = leaf {
            self.arena.push(sym_id(sym));
        }
        for (from, to) in kids.into_iter().flatten() {
            self.arena.extend_from_within(from..to);
        }
        self.arena[start..].sort_unstable();
        let mut end = start;
        for k in start..self.arena.len() {
            if end == start || self.arena[k] != self.arena[end - 1] {
                self.arena[end] = self.arena[k];
                end += 1;
            }
        }
        self.arena.truncate(end);
        self.ranges[id.index()] = Some((start, end));
        (start, end)
    }
}

/// The sorted, deduplicated base symbols read by an interned subtree —
/// the footprint a store must miss for two occurrences to share. Memory
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

    fn assign(dst: &str, src: Tree) -> (MemRef, Tree) {
        (MemRef::scalar(dst), src)
    }

    /// `stmts` interned into `pool`, in order.
    fn intern(pool: &mut TreePool, stmts: &[(MemRef, Tree)]) -> Vec<AssignStmt> {
        stmts.iter().map(|(dst, src)| AssignStmt::new(pool, dst.clone(), src)).collect()
    }

    /// The DAG of `stmts`, interned into `pool` first.
    fn build(pool: &mut TreePool, stmts: &[(MemRef, Tree)]) -> BlockDag {
        let stmts = intern(pool, stmts);
        BlockDag::build(pool, &stmts)
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
        let dag = build(&mut pool, &stmts);
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
        let dag = build(&mut pool, &stmts);
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
        let dag = build(&mut pool, &stmts);
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
        let dag = build(&mut pool, &stmts);
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
            (MemRef::array("a", crate::Index::Const(0)), Tree::var("u")),
            assign("z", elem(1)),
        ];
        let dag = build(&mut pool, &stmts);
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
        let dag = build(&mut pool, &stmts);
        let texts: Vec<String> =
            dag.shared.iter().map(|s| pool.to_tree(s.id).to_string()).collect();
        assert_eq!(texts, vec!["x"], "{texts:?}");
    }

    #[test]
    fn constants_are_never_candidates() {
        let mut pool = TreePool::new();
        let stmts = [assign("y", Tree::constant(7)), assign("z", Tree::constant(7))];
        let dag = build(&mut pool, &stmts);
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

    /// The version-vector build the last-store key replaced: each
    /// occurrence is keyed by the store version of every base symbol it
    /// reads.
    fn build_reference(pool: &mut TreePool, stmts: &[(MemRef, Tree)]) -> BlockDag {
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

        for (i, (dst, src)) in stmts.iter().enumerate() {
            let root = pool.intern(src);
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
            *versions.entry(dst.base().clone()).or_insert(0) += 1;
        }

        let mut shared: Vec<(usize, SharedValue)> = occ
            .into_iter()
            .filter(|(_, o)| o.count >= 2)
            .map(|((id, _), o)| (o.first, SharedValue { id, uses: o.uses, use_count: o.count }))
            .collect();
        shared.sort_by_key(|(first, _)| *first);
        BlockDag { roots, shared: shared.into_iter().map(|(_, v)| v).collect() }
    }

    /// A random block over a few symbols: scalar and array reads, one
    /// temporary, and stores (scalar, array element, temporary) into the
    /// same symbols, so stores often land between two reads.
    fn gen_block(rng: &mut record_prop::Rng) -> Vec<(MemRef, Tree)> {
        fn leaf(rng: &mut record_prop::Rng) -> Tree {
            match rng.usize(5) {
                0 => Tree::constant(rng.i64_in(0, 3)),
                1 => Tree::elem(*rng.pick(&["a", "b"]), crate::Index::Const(rng.i64_in(0, 2))),
                2 => Tree::temp("$t0"),
                _ => Tree::var(*rng.pick(&["x", "y", "z"])),
            }
        }
        fn tree(rng: &mut record_prop::Rng, depth: u32) -> Tree {
            if depth == 0 || rng.usize(3) == 0 {
                return leaf(rng);
            }
            match rng.usize(4) {
                0 => Tree::un(crate::UnOp::Neg, tree(rng, depth - 1)),
                _ => Tree::bin(
                    *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]),
                    tree(rng, depth - 1),
                    tree(rng, depth - 1),
                ),
            }
        }
        (0..rng.usize(7) + 1)
            .map(|_| {
                let dst = match rng.usize(4) {
                    0 => {
                        MemRef::array(*rng.pick(&["a", "b"]), crate::Index::Const(rng.i64_in(0, 2)))
                    }
                    1 => MemRef::Scalar(Symbol::new("$t0")),
                    _ => MemRef::scalar(*rng.pick(&["x", "y", "z", "w"])),
                };
                (dst, tree(rng, 3))
            })
            .collect()
    }

    /// The last-store key finds exactly the shared values the
    /// version-vector key found: the same list, in the same order, with
    /// the same uses and use counts.
    #[test]
    fn last_store_key_equals_the_version_vector_reference() {
        let (mut blocks_with_shares, mut split) = (0usize, 0usize);
        record_prop::run_cases(2000, |rng| {
            let stmts = gen_block(rng);
            let (mut pool, mut ref_pool) = (TreePool::new(), TreePool::new());
            let dag = build(&mut pool, &stmts);
            let reference = build_reference(&mut ref_pool, &stmts);
            assert_eq!(dag.roots, reference.roots);
            assert_eq!(dag.shared, reference.shared, "{stmts:?}");
            blocks_with_shares += usize::from(!dag.shared.is_empty());
            // a subtree occurring more often than its shared uses count
            // was split by an intervening store
            let mut occurrences: HashMap<TreeId, usize> = HashMap::new();
            let mut stack = dag.roots.clone();
            while let Some(id) = stack.pop() {
                match *pool.node(id) {
                    TreeNode::Const(_) => continue,
                    TreeNode::Bin(_, a, b) => stack.extend([a, b]),
                    TreeNode::Un(_, a) => stack.push(a),
                    TreeNode::Mem(_) | TreeNode::Temp(_) => {}
                }
                *occurrences.entry(id).or_default() += 1;
            }
            split += usize::from(occurrences.iter().any(|(id, &n)| {
                let shared: usize =
                    dag.shared.iter().filter(|v| v.id == *id).map(|v| v.use_count).sum();
                n >= 2 && shared < n
            }));
        });
        assert!(blocks_with_shares >= 500, "only {blocks_with_shares} blocks share");
        assert!(split >= 500, "only {split} blocks split a repeated value at a store");
    }

    /// One DAG and one scratch state rebuilt block after block, over one
    /// pool, give every block the DAG a fresh `build` gives it.
    #[test]
    fn rebuild_in_reused_buffers_equals_a_fresh_build() {
        let (mut pool, mut fresh_pool) = (TreePool::new(), TreePool::new());
        let (mut dag, mut scratch) = (BlockDag::default(), DagScratch::default());
        let mut shares = 0usize;
        record_prop::run_cases(500, |rng| {
            let stmts = gen_block(rng);
            let interned = intern(&mut pool, &stmts);
            let refs: Vec<&AssignStmt> = interned.iter().collect();
            dag.rebuild(&pool, &refs, &mut scratch);
            let fresh = build(&mut fresh_pool, &stmts);
            assert_eq!(dag.roots, fresh.roots, "{stmts:?}");
            assert_eq!(dag.shared, fresh.shared, "{stmts:?}");
            shares += dag.shared.len();
        });
        assert!(shares >= 500, "only {shares} shared values");
    }
}
