//! Decomposition of a block's data-flow graph into trees (Fig. 5
//! preprocessing).
//!
//! Optimal covering of general graphs is NP-complete, so — like the
//! original RECORD and most practical code generators — we cut the graph
//! at every multi-use node, assign the shared value to a compiler
//! temporary, and cover the resulting trees independently.
//!
//! The graph is the block's trees in the program's [`TreePool`]. One of
//! its values is an interned subtree under the last-store key
//! [`BlockDag`] gives its sharing candidates: 1 + the index of the last
//! statement that stored to a symbol the subtree reads. Two occurrences
//! of a subtree are one value exactly when no statement between them
//! stores to a symbol it reads, so a store never merges the loads before
//! it with the loads after it.
//!
//! [`BlockDag`]: crate::BlockDag

use crate::blockdag::LastStores;
use crate::pool::{TreeId, TreeNode, TreePool};
use crate::{AssignStmt, MemRef, Symbol};

/// The result of tree decomposition: a forest in dependency order plus the
/// temporaries it introduced.
#[derive(Clone, Debug, Default)]
pub struct Forest {
    /// Assignments, in an order that defines every temporary before use.
    pub assigns: Vec<AssignStmt>,
    /// Temporaries created by the decomposition.
    pub temps: Vec<Symbol>,
}

impl Forest {
    /// Total tree nodes across the forest, its trees read from `pool`.
    pub fn node_count(&self, pool: &TreePool) -> usize {
        self.assigns.iter().map(|a| pool.node_count(a.src)).sum()
    }
}

/// Decomposes a straight-line assignment sequence into a forest of trees,
/// introducing a temporary for every computed value that two parent
/// values or stores reference. Leaves are never cut: re-reading a memory
/// word or re-materializing a constant costs nothing extra on a
/// memory-operand machine, while routing it through a temporary would add
/// a store and a load.
///
/// The statements' trees live in `pool`; the trees that read the
/// temporaries are added to it, so every id stays valid. A statement that
/// reads no temporary is moved into the forest unchanged.
///
/// `next_temp` seeds temporary numbering so callers can keep names unique
/// across blocks; the function returns the updated counter.
///
/// # Example
///
/// ```
/// use record_ir::{treeify, AssignStmt, BinOp, MemRef, Tree, TreePool};
///
/// // y := (a*b) + (a*b)  — the product is shared
/// let ab = Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("b"));
/// let mut pool = TreePool::new();
/// let stmt = AssignStmt::new(&mut pool, MemRef::scalar("y"), &Tree::bin(BinOp::Add, ab.clone(), ab));
/// let (forest, next) = treeify::treeify(&mut pool, vec![stmt], 0);
/// assert_eq!(forest.assigns.len(), 2); // $t0 := a*b; y := $t0 + $t0
/// assert_eq!(forest.assigns[1].display(&pool).to_string(), "y := ($t0 + $t0)");
/// assert_eq!(forest.temps.len(), 1);
/// assert_eq!(next, 1);
/// ```
pub fn treeify(pool: &mut TreePool, block: Vec<AssignStmt>, next_temp: usize) -> (Forest, usize) {
    treeify_in(pool, block, next_temp, &mut TreeifyScratch::default())
}

/// The working state of [`treeify`], kept between blocks: a caller that
/// decomposes block after block allocates it once.
#[derive(Debug, Default)]
pub struct TreeifyScratch {
    graph: Graph,
    roots: Vec<usize>,
    /// One bit per pool id: the computed subtrees seen so far.
    seen: Vec<u64>,
    stack: Vec<TreeId>,
}

/// [`treeify`] in the working state `scratch` (whatever an earlier call
/// left there): the result is the one `treeify` returns.
pub fn treeify_in(
    pool: &mut TreePool,
    block: Vec<AssignStmt>,
    mut next_temp: usize,
    scratch: &mut TreeifyScratch,
) -> (Forest, usize) {
    let TreeifyScratch { graph, roots, seen, stack } = scratch;
    // A computed value has two uses only if its subtree occurs twice, so a
    // block in which no computed subtree repeats is its own forest.
    if !repeats_a_computed_subtree(pool, &block, seen, stack) {
        return (Forest { assigns: block, temps: Vec::new() }, next_temp);
    }
    graph.clear();
    roots.clear();
    graph.latest.resize(pool.len(), None);
    for (i, stmt) in block.iter().enumerate() {
        let root = graph.value(pool, stmt.src);
        graph.values[root].uses += 1;
        graph.stores.store(stmt.dst.base(), i);
        roots.push(root);
    }

    // Name the temporaries up front, in the order their values were
    // created (post-order of first occurrence), but emit each definition
    // lazily, immediately before its *first user* store. This placement
    // is what makes sharing sound in the presence of memory writes: a
    // shared load of some location only ever appears in statements after
    // the last store to it, so defining the temp right before its first
    // user is always after that store — while defining all temps at the
    // head of the block (the naive order) would read pre-store values.
    let mut forest = Forest::default();
    for value in &mut graph.values {
        if value.uses > 1 && matches!(pool.node(value.id), TreeNode::Bin(..) | TreeNode::Un(..)) {
            let name = Symbol::temp(next_temp);
            next_temp += 1;
            forest.temps.push(name.clone());
            value.temp = Some(name);
        }
    }
    if forest.temps.is_empty() {
        forest.assigns = block;
        return (forest, next_temp);
    }
    forest.assigns.reserve(block.len() + forest.temps.len());
    for (stmt, &root) in block.into_iter().zip(roots.iter()) {
        if graph.define_temps(pool, root, &mut forest.assigns) {
            let src = graph.operand(pool, root);
            forest.assigns.push(AssignStmt { dst: stmt.dst, src });
        } else {
            forest.assigns.push(stmt);
        }
    }
    (forest, next_temp)
}

/// Whether some computed (operator) subtree occurs twice among the trees
/// of `block`, counting every occurrence.
fn repeats_a_computed_subtree(
    pool: &TreePool,
    block: &[AssignStmt],
    seen: &mut Vec<u64>,
    stack: &mut Vec<TreeId>,
) -> bool {
    seen.clear();
    seen.resize(pool.len().div_ceil(64), 0);
    stack.clear();
    for stmt in block {
        stack.push(stmt.src);
        while let Some(id) = stack.pop() {
            match *pool.node(id) {
                TreeNode::Bin(_, a, b) => stack.extend([a, b]),
                TreeNode::Un(_, a) => stack.push(a),
                TreeNode::Const(_) | TreeNode::Mem(_) | TreeNode::Temp(_) => continue,
            }
            let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
            if seen[word] & bit != 0 {
                return true;
            }
            seen[word] |= bit;
        }
    }
    false
}

/// One value of the block's data-flow graph.
#[derive(Debug)]
struct Value {
    id: TreeId,
    /// The last-store key of the occurrences that make up the value.
    key: usize,
    /// The operands' values (`NONE` past the node's arity).
    args: [usize; 2],
    /// References from other values (one per operand) and from stores.
    uses: u32,
    /// The temporary that carries a shared computed value.
    temp: Option<Symbol>,
    /// Whether the temporary's definition has been emitted.
    defined: bool,
}

/// No operand.
const NONE: usize = usize::MAX;

/// The block's data-flow graph over the pool.
#[derive(Debug, Default)]
struct Graph {
    /// The values in creation order.
    values: Vec<Value>,
    /// Per `TreeId`, its latest value. A subtree's key never falls as the
    /// block goes on, so only its latest value can occur again.
    latest: Vec<Option<usize>>,
    stores: LastStores,
}

impl Graph {
    fn clear(&mut self) {
        self.values.clear();
        self.latest.clear();
        self.stores.clear();
    }

    /// The value of subtree `id` in the statement being walked. A new
    /// value is created after its operands' values, and counts one use of
    /// each.
    fn value(&mut self, pool: &TreePool, id: TreeId) -> usize {
        let (args, key) = match *pool.node(id) {
            TreeNode::Const(_) => ([NONE; 2], 0),
            TreeNode::Mem(ref r) => ([NONE; 2], self.read(r.base())),
            TreeNode::Temp(ref t) => ([NONE; 2], self.read(t)),
            TreeNode::Bin(_, a, b) => {
                let (a, b) = (self.value(pool, a), self.value(pool, b));
                ([a, b], self.values[a].key.max(self.values[b].key))
            }
            TreeNode::Un(_, a) => {
                let a = self.value(pool, a);
                ([a, NONE], self.values[a].key)
            }
        };
        if let Some(v) = self.latest[id.index()].filter(|&v| self.values[v].key == key) {
            return v;
        }
        for arg in args.into_iter().filter(|&a| a != NONE) {
            self.values[arg].uses += 1;
        }
        self.values.push(Value { id, key, args, uses: 0, temp: None, defined: false });
        self.latest[id.index()] = Some(self.values.len() - 1);
        self.values.len() - 1
    }

    /// The last-store key of a leaf that reads `sym`.
    fn read(&mut self, sym: &Symbol) -> usize {
        let id = self.stores.id(sym);
        self.stores.last(id)
    }

    /// Emits into `out`, operands first, the definition of every temporary
    /// that value `v` reads and that is not defined yet. Returns whether
    /// `v` reads a temporary at all.
    fn define_temps(&mut self, pool: &mut TreePool, v: usize, out: &mut Vec<AssignStmt>) -> bool {
        if self.values[v].defined {
            return true;
        }
        let mut reads = false;
        for arg in self.values[v].args.into_iter().filter(|&a| a != NONE) {
            reads |= self.define_temps(pool, arg, out);
        }
        let Some(name) = self.values[v].temp.clone() else { return reads };
        let src = self.definition(pool, v);
        out.push(AssignStmt { dst: MemRef::Scalar(name), src });
        self.values[v].defined = true;
        true
    }

    /// The tree that reads value `v`: its temporary, if it has one.
    fn operand(&self, pool: &mut TreePool, v: usize) -> TreeId {
        match &self.values[v].temp {
            Some(t) => pool.temp(t.clone()),
            None => self.definition(pool, v),
        }
    }

    /// The tree that computes value `v` from its operands: the value's
    /// own subtree when no operand below it reads a temporary.
    fn definition(&self, pool: &mut TreePool, v: usize) -> TreeId {
        let [a, b] = self.values[v].args;
        match *pool.node(self.values[v].id) {
            TreeNode::Bin(op, ..) => {
                let (a, b) = (self.operand(pool, a), self.operand(pool, b));
                pool.bin(op, a, b)
            }
            TreeNode::Un(op, _) => {
                let a = self.operand(pool, a);
                pool.un(op, a)
            }
            TreeNode::Const(_) | TreeNode::Mem(_) | TreeNode::Temp(_) => self.values[v].id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, LirItem, Tree};

    fn assign(dst: &str, src: Tree) -> (MemRef, Tree) {
        (MemRef::scalar(dst), src)
    }

    /// A block decomposed on a fresh pool: the forest printed, its
    /// temporaries and the updated counter.
    fn decompose(stmts: Vec<(MemRef, Tree)>, next_temp: usize) -> (Vec<String>, Forest, usize) {
        let mut pool = TreePool::new();
        let block: Vec<AssignStmt> =
            stmts.iter().map(|(dst, src)| AssignStmt::new(&mut pool, dst.clone(), src)).collect();
        let (forest, next) = treeify(&mut pool, block, next_temp);
        let texts = forest.assigns.iter().map(|a| a.display(&pool).to_string()).collect();
        (texts, forest, next)
    }

    #[test]
    fn no_sharing_passes_through() {
        let stmts = vec![assign("y", Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b")))];
        let (texts, forest, next) = decompose(stmts, 0);
        assert!(forest.temps.is_empty());
        assert_eq!(next, 0);
        assert_eq!(texts, vec!["y := (a + b)"]);
    }

    #[test]
    fn shared_product_becomes_temp() {
        let ab = Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("b"));
        let stmts = vec![
            assign("y", Tree::bin(BinOp::Add, ab.clone(), Tree::constant(1))),
            assign("z", Tree::bin(BinOp::Sub, ab, Tree::constant(2))),
        ];
        let (texts, ..) = decompose(stmts, 0);
        assert_eq!(texts, vec!["$t0 := (a * b)", "y := ($t0 + 1)", "z := ($t0 - 2)"]);
    }

    #[test]
    fn nested_sharing_defines_inner_temp_first() {
        // s = a + b used twice; t = s * s used twice
        let s = Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b"));
        let t = Tree::bin(BinOp::Mul, s.clone(), s.clone());
        let stmts = vec![assign("y", Tree::bin(BinOp::Add, t.clone(), t))];
        let (texts, ..) = decompose(stmts, 0);
        assert_eq!(texts, vec!["$t0 := (a + b)", "$t1 := ($t0 * $t0)", "y := ($t1 + $t1)"]);
    }

    #[test]
    fn post_store_computations_are_defined_after_the_store() {
        // w := a + b;  y := (w*w) + (w*w);  z := w
        // The shared product reads the *stored* w, so its temp definition
        // must appear after `w := ...`, not at block start.
        let ww = Tree::bin(BinOp::Mul, Tree::var("w"), Tree::var("w"));
        let stmts = vec![
            assign("w", Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b"))),
            assign("y", Tree::bin(BinOp::Add, ww.clone(), ww)),
            assign("z", Tree::var("w")),
        ];
        let (texts, ..) = decompose(stmts, 0);
        assert_eq!(
            texts,
            vec!["w := (a + b)", "$t0 := (w * w)", "y := ($t0 + $t0)", "z := w"],
            "temp def must follow the store it depends on"
        );
    }

    #[test]
    fn a_store_between_two_occurrences_keeps_them_apart() {
        // y := a*b; a := 1; z := a*b — the two products read different a
        let ab = Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("b"));
        let stmts = vec![assign("y", ab.clone()), assign("a", Tree::constant(1)), assign("z", ab)];
        let (texts, forest, next) = decompose(stmts, 0);
        assert!(forest.temps.is_empty());
        assert_eq!(next, 0);
        assert_eq!(texts, vec!["y := (a * b)", "a := 1", "z := (a * b)"]);
    }

    #[test]
    fn shared_leaves_are_not_cut() {
        // the load of `a` is used twice but stays a plain re-read
        let stmts = vec![assign("y", Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("a")))];
        let (texts, forest, _) = decompose(stmts, 0);
        assert!(forest.temps.is_empty());
        assert_eq!(texts, vec!["y := (a * a)"]);
    }

    #[test]
    fn temp_counter_threads_across_calls() {
        let ab = Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("b"));
        let stmts = vec![assign("y", Tree::bin(BinOp::Add, ab.clone(), ab))];
        let (.., next) = decompose(stmts, 7);
        assert_eq!(next, 8);
    }

    #[test]
    fn forest_node_count() {
        let (dst, src) = assign("y", Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b")));
        let mut pool = TreePool::new();
        let block = vec![AssignStmt::new(&mut pool, dst, &src)];
        let (forest, _) = treeify(&mut pool, block, 0);
        assert_eq!(forest.node_count(&pool), 3);
    }

    /// The straight-line blocks of `items`, loop bodies included.
    fn blocks(items: &[LirItem], out: &mut Vec<Vec<AssignStmt>>) {
        let mut block = Vec::new();
        for item in items {
            match item {
                LirItem::Assign(a) => block.push(a.clone()),
                LirItem::Loop { body, .. } => {
                    out.extend((!block.is_empty()).then(|| std::mem::take(&mut block)));
                    blocks(body, out);
                }
            }
        }
        out.extend((!block.is_empty()).then_some(block));
    }

    /// Decomposition on the pool gives every straight-line block of the
    /// DSPStone kernels and of 2000 generated programs the assignments,
    /// temporaries and temporary counter the value-numbered `Dfg`
    /// decomposition gives it. Each program's blocks are decomposed in
    /// the program's own pool, as in a compile, and the counter threads
    /// through them; one working state serves every block.
    #[test]
    fn pool_decomposition_equals_the_dfg_reference() {
        let lowered = |src: &str| crate::lower::lower(&crate::dfl::parse(src).unwrap()).unwrap();
        let mut programs: Vec<(TreePool, Vec<Vec<AssignStmt>>)> = Vec::new();
        let mut add = |src: &str| {
            let lir = lowered(src);
            let mut out = Vec::new();
            blocks(&lir.body, &mut out);
            programs.push((lir.pool, out));
        };
        for kernel in record_dspstone::kernels() {
            add(kernel.source);
        }
        let mut rng = record_prop::Rng::new(0xDAC97);
        for _ in 0..2000 {
            add(&record_prop::dfl::gen_program(&mut rng));
        }
        let (mut blocks_seen, mut temps) = (0usize, 0usize);
        let mut scratch = TreeifyScratch::default();
        for (mut pool, program) in programs {
            let (mut next, mut next_reference) = (0, 0);
            for block in program {
                let boxed: Vec<(MemRef, Tree)> =
                    block.iter().map(|a| (a.dst.clone(), pool.to_tree(a.src))).collect();
                let reference = crate::dfg::treeify(&boxed, next_reference);
                let got = treeify_in(&mut pool, block, next, &mut scratch);
                let got_boxed: Vec<(MemRef, Tree)> =
                    got.0.assigns.iter().map(|a| (a.dst.clone(), pool.to_tree(a.src))).collect();
                assert_eq!(got_boxed, reference.0.assigns, "{boxed:#?}");
                assert_eq!(got.0.temps, reference.0.temps, "{boxed:#?}");
                assert_eq!(got.1, reference.1, "{boxed:#?}");
                (next, next_reference) = (got.1, reference.1);
                blocks_seen += 1;
                temps += got.0.temps.len();
            }
        }
        println!("{blocks_seen} blocks, {temps} temporaries");
        assert!(blocks_seen >= 3000, "only {blocks_seen} blocks");
        assert!(temps >= 150, "only {temps} temporaries");
    }
}
