//! The labeller the flat [`LabelCache`] replaced, kept as its reference:
//! one `Arc<LabeledNode>` per label state, a children vector and an
//! entry vector per node, and per cut context a cloned context vector.
//! The tests below check that both labellers compute the same entries
//! (every nonterminal's cost and rule, at every node), count the same
//! memo hits and misses, and reduce to the same covers, plainly and under
//! the cut sets stage C of DAG covering tries.

use std::collections::HashMap;
use std::sync::Arc;

use record_ir::{TreeId, TreeNode, TreePool};
use record_isa::{Cost, NonTermId, PatNode, Predicate, Rhs, RuleId};

use super::{CutSet, Matcher};
use crate::cover::{CoverNode, Operand, SHARED_RULE};
use crate::label::{Entry, LabelCache, LabelId};

/// A labelled interned tree node.
#[derive(Debug)]
pub(crate) struct LabeledNode {
    pub(crate) id: TreeId,
    pub(crate) children: Vec<Arc<LabeledNode>>,
    pub(crate) entries: Vec<Option<Entry>>,
}

impl LabeledNode {
    fn cost(&self, nt: NonTermId) -> Option<Cost> {
        self.entries[nt.index()].map(|e| e.cost)
    }
}

/// The cuts inside one subtree, as `(cut node, parked nonterminal)` pairs
/// sorted by node.
type CutContext = Vec<(TreeId, NonTermId)>;

/// Label states keyed by id, and under cuts by id and cut context.
#[derive(Debug, Default)]
pub(crate) struct ReferenceCache {
    plain: Vec<Option<Arc<LabeledNode>>>,
    cut_map: HashMap<TreeId, Vec<(CutContext, Arc<LabeledNode>)>>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl ReferenceCache {
    fn lookup(&mut self, id: TreeId) -> Option<Arc<LabeledNode>> {
        let found = self.plain.get(id.index()).and_then(Option::clone);
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    fn store(&mut self, id: TreeId, node: Arc<LabeledNode>) {
        self.misses += 1;
        if self.plain.len() <= id.index() {
            self.plain.resize(id.index() + 1, None);
        }
        self.plain[id.index()] = Some(node);
    }

    fn lookup_cut(
        &mut self,
        id: TreeId,
        context: &[(TreeId, NonTermId)],
    ) -> Option<Arc<LabeledNode>> {
        let found = self
            .cut_map
            .get(&id)
            .and_then(|seen| seen.iter().find(|(c, _)| c.as_slice() == context))
            .map(|(_, node)| node.clone());
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    fn store_cut(&mut self, id: TreeId, context: CutContext, node: Arc<LabeledNode>) {
        self.misses += 1;
        self.cut_map.entry(id).or_default().push((context, node));
    }
}

pub(crate) fn label_interned(
    m: &Matcher<'_>,
    pool: &TreePool,
    id: TreeId,
    cache: &mut ReferenceCache,
) -> Arc<LabeledNode> {
    label_interned_impl(m, pool, id, cache, None)
}

pub(crate) fn label_interned_cut(
    m: &Matcher<'_>,
    pool: &TreePool,
    id: TreeId,
    cache: &mut ReferenceCache,
    cuts: &CutSet,
) -> Arc<LabeledNode> {
    let mut contexts = HashMap::new();
    if let Some(&first) = cuts.keys().min() {
        cut_contexts(pool, id, cuts, first, &mut contexts);
    }
    label_interned_impl(m, pool, id, cache, Some((cuts, &contexts)))
}

fn label_interned_impl(
    m: &Matcher<'_>,
    pool: &TreePool,
    id: TreeId,
    cache: &mut ReferenceCache,
    cuts: Option<(&CutSet, &HashMap<TreeId, CutContext>)>,
) -> Arc<LabeledNode> {
    let context = cuts.and_then(|(_, contexts)| contexts.get(&id));
    let cuts = context.and(cuts);
    let hit = match context {
        Some(context) => cache.lookup_cut(id, context),
        None => cache.lookup(id),
    };
    if let Some(hit) = hit {
        return hit;
    }
    let mut label = |c| label_interned_impl(m, pool, c, cache, cuts);
    let children: Vec<Arc<LabeledNode>> = match *pool.node(id) {
        TreeNode::Bin(_, a, b) => vec![label(a), label(b)],
        TreeNode::Un(_, a) => vec![label(a)],
        TreeNode::Const(_) | TreeNode::Mem(_) | TreeNode::Temp(_) => Vec::new(),
    };
    let mut entries: Vec<Option<Entry>> = vec![None; m.tables.n_nts];

    for rule_id in &m.tables.rules_by_op[pool.op(id).index()] {
        let rule = m.target.rule(*rule_id);
        let pat = match &rule.rhs {
            Rhs::Pat(p) => p,
            Rhs::Chain(_) => unreachable!("indexed as pattern"),
        };
        if let Some(cost) = match_cost_interned(pat, pool, id, &children, rule.pred) {
            let total = cost.add(rule.cost);
            improve(&mut entries, rule.lhs, total, *rule_id);
        }
    }

    if let Some((_, nt)) = cuts.and_then(|(c, _)| c.get(&id)) {
        improve(&mut entries, *nt, Cost::zero(), SHARED_RULE);
    }

    let mut changed = true;
    while changed {
        changed = false;
        for rule_id in &m.tables.chains {
            let rule = m.target.rule(*rule_id);
            let src = match &rule.rhs {
                Rhs::Chain(nt) => *nt,
                Rhs::Pat(PatNode::Nt(nt)) => *nt,
                _ => unreachable!("indexed as chain"),
            };
            if let Some(e) = entries[src.index()] {
                let total = e.cost.add(rule.cost);
                if improve(&mut entries, rule.lhs, total, *rule_id) {
                    changed = true;
                }
            }
        }
    }

    let node = Arc::new(LabeledNode { id, children, entries });
    match context {
        Some(context) => cache.store_cut(id, context.clone(), node.clone()),
        None => cache.store(id, node.clone()),
    }
    node
}

fn match_cost_interned(
    pat: &PatNode,
    pool: &TreePool,
    id: TreeId,
    children: &[Arc<LabeledNode>],
    pred: Option<Predicate>,
) -> Option<Cost> {
    let mut first_const = None;
    let (op, pat_children) = match pat {
        PatNode::Op(op, c) => (*op, c),
        PatNode::Nt(_) => unreachable!("bare-Nt patterns are indexed as chains"),
    };
    if pool.op(id) != op {
        return None;
    }
    if let TreeNode::Const(v) = pool.node(id) {
        first_const = Some(*v);
    }
    let mut cost = Cost::zero();
    for (pc, nc) in pat_children.iter().zip(children.iter()) {
        cost = cost.add(match_rec_interned(pc, pool, nc, &mut first_const)?);
    }
    if let Some(p) = pred {
        if !p.check_const(first_const?) {
            return None;
        }
    }
    Some(cost)
}

fn match_rec_interned(
    pat: &PatNode,
    pool: &TreePool,
    node: &LabeledNode,
    first_const: &mut Option<i64>,
) -> Option<Cost> {
    match pat {
        PatNode::Nt(nt) => node.cost(*nt),
        PatNode::Op(op, children) => {
            if pool.op(node.id) != *op {
                return None;
            }
            if let TreeNode::Const(v) = pool.node(node.id) {
                first_const.get_or_insert(*v);
            }
            let mut total = Cost::zero();
            for (pc, nc) in children.iter().zip(node.children.iter()) {
                total = total.add(match_rec_interned(pc, pool, nc, first_const)?);
            }
            Some(total)
        }
    }
}

pub(crate) fn reduce_interned(
    m: &Matcher<'_>,
    pool: &TreePool,
    labeled: &LabeledNode,
    goal: NonTermId,
    cuts: Option<&CutSet>,
) -> Option<CoverNode> {
    let entry = labeled.entries[goal.index()]?;
    if entry.rule == SHARED_RULE {
        let (slot, nt) = *cuts.expect("shared entry without a cut set").get(&labeled.id)?;
        return Some(CoverNode { rule: SHARED_RULE, operands: vec![Operand::Shared { slot, nt }] });
    }
    let rule = m.target.rule(entry.rule);
    match &rule.rhs {
        Rhs::Chain(src) | Rhs::Pat(PatNode::Nt(src)) => {
            let inner = reduce_interned(m, pool, labeled, *src, cuts)?;
            Some(CoverNode { rule: entry.rule, operands: vec![Operand::Derived(inner)] })
        }
        Rhs::Pat(pat) => {
            let mut operands = Vec::new();
            reduce_pattern_interned(m, pat, pool, labeled, &mut operands, cuts)?;
            Some(CoverNode { rule: entry.rule, operands })
        }
    }
}

fn reduce_pattern_interned(
    m: &Matcher<'_>,
    pat: &PatNode,
    pool: &TreePool,
    node: &LabeledNode,
    operands: &mut Vec<Operand>,
    cuts: Option<&CutSet>,
) -> Option<()> {
    match pat {
        PatNode::Nt(nt) => {
            let child = reduce_interned(m, pool, node, *nt, cuts)?;
            operands.push(Operand::Derived(child));
            Some(())
        }
        PatNode::Op(_, children) => {
            match pool.node(node.id) {
                TreeNode::Const(v) => operands.push(Operand::Const(*v)),
                TreeNode::Mem(r) => operands.push(Operand::Mem(r.clone())),
                TreeNode::Temp(t) => operands.push(Operand::Temp(t.clone())),
                _ => {}
            }
            for (pc, nc) in children.iter().zip(node.children.iter()) {
                reduce_pattern_interned(m, pc, pool, nc, operands, cuts)?;
            }
            Some(())
        }
    }
}

fn improve(entries: &mut [Option<Entry>], nt: NonTermId, cost: Cost, rule: RuleId) -> bool {
    let slot = &mut entries[nt.index()];
    let better = match slot {
        None => true,
        Some(e) => cost.weight() < e.cost.weight(),
    };
    if better {
        *slot = Some(Entry { cost, rule });
    }
    better
}

fn cut_contexts(
    pool: &TreePool,
    id: TreeId,
    cuts: &CutSet,
    first: TreeId,
    contexts: &mut HashMap<TreeId, CutContext>,
) {
    if id < first || contexts.contains_key(&id) {
        return;
    }
    let mut context: CutContext = cuts.get(&id).map(|&(_, nt)| (id, nt)).into_iter().collect();
    for child in pool.node(id).children() {
        cut_contexts(pool, child, cuts, first, contexts);
        if let Some(inner) = contexts.get(&child) {
            context.extend_from_slice(inner);
        }
    }
    if !context.is_empty() {
        context.sort_unstable();
        context.dedup();
        contexts.insert(id, context);
    }
}

/// Asserts that the flat state `label` and the reference state `node`
/// label the same node with the same entries, and so do all their
/// descendants, pairwise.
pub(crate) fn assert_same_labels(
    cache: &LabelCache,
    label: LabelId,
    node: &LabeledNode,
    what: &dyn std::fmt::Display,
) {
    let labels = cache.labels();
    assert_eq!(labels.node(label), node.id, "{what}: labels of different nodes");
    assert_eq!(cache.entries(label), node.entries.as_slice(), "{what}: entries at {:?}", node.id);
    let kids: Vec<LabelId> = labels.children(label).collect();
    assert_eq!(kids.len(), node.children.len(), "{what}: children at {:?}", node.id);
    for (&kid, reference) in kids.iter().zip(&node.children) {
        assert_same_labels(cache, kid, reference, what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::lir::{AssignStmt, LirItem};
    use record_ir::transform::{RuleSet, VariantStream};
    use record_ir::{BlockDag, Tree};
    use record_isa::{NonTermKind, TargetDesc};

    /// tic25, dsp56k and cube seeds 1–4.
    fn targets() -> Vec<TargetDesc> {
        let mut targets =
            vec![record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()];
        targets.extend((1..=4).map(record_isa::cube::target_from_seed));
        targets
    }

    /// The straight-line blocks of `items`, loop bodies included, as
    /// lowered and after tree decomposition into `pool`, the program's.
    fn blocks(pool: &mut TreePool, items: &[LirItem], out: &mut Vec<Vec<AssignStmt>>) {
        let mut block = Vec::new();
        let flush =
            |pool: &mut TreePool, block: &mut Vec<AssignStmt>, out: &mut Vec<Vec<AssignStmt>>| {
                if !block.is_empty() {
                    out.push(record_ir::treeify::treeify(pool, block.clone(), 0).0.assigns);
                    out.push(std::mem::take(block));
                }
            };
        for item in items {
            match item {
                LirItem::Assign(a) => block.push(a.clone()),
                LirItem::Loop { body, .. } => {
                    flush(pool, &mut block, out);
                    blocks(pool, body, out);
                }
            }
        }
        flush(pool, &mut block, out);
    }

    /// The blocks of every DSPStone kernel and of 300 generated programs,
    /// one program per entry.
    fn programs() -> Vec<(TreePool, Vec<Vec<AssignStmt>>)> {
        let mut programs = Vec::new();
        let mut add = |src: &str| {
            let mut lir = record_ir::lower::lower(&record_ir::dfl::parse(src).unwrap()).unwrap();
            let mut out = Vec::new();
            blocks(&mut lir.pool, &lir.body, &mut out);
            programs.push((lir.pool, out));
        };
        for kernel in record_dspstone::kernels() {
            add(kernel.source);
        }
        record_prop::run_cases(300, |rng| add(&record_prop::dfl::gen_program(rng)));
        programs
    }

    /// Labels `id` both ways and checks entries, counters and the cover
    /// of every derivable nonterminal.
    #[allow(clippy::too_many_arguments)]
    fn compare(
        m: &Matcher<'_>,
        pool: &TreePool,
        id: TreeId,
        cuts: Option<&CutSet>,
        cache: &mut LabelCache,
        reference: &mut ReferenceCache,
        what: &dyn std::fmt::Display,
    ) -> LabelId {
        let (label, node) = match cuts {
            Some(cuts) => (
                m.label_interned_cut(pool, id, cache, cuts),
                label_interned_cut(m, pool, id, reference, cuts),
            ),
            None => (m.label_interned(pool, id, cache), label_interned(m, pool, id, reference)),
        };
        assert_same_labels(cache, label, &node, what);
        assert_eq!((cache.hits(), cache.misses()), (reference.hits, reference.misses), "{what}");
        for nt in 0..m.target.nonterms.len() {
            let goal = NonTermId(nt as u16);
            let got = match cuts {
                Some(cuts) => m.reduce_interned_cut(pool, cache, label, goal, cuts),
                None => m.reduce_interned(pool, cache, label, goal),
            };
            assert_eq!(got, reduce_interned(m, pool, &node, goal, cuts), "{what} nt {nt}");
        }
        label
    }

    /// The flat store labels every variant of every statement, plainly
    /// and under stage-C-style trial cut sets, exactly as the
    /// `Arc<LabeledNode>` labeller does: same entries at every node, same
    /// hits and misses, same covers.
    #[test]
    fn flat_store_labels_equal_the_arc_reference() {
        let programs = programs();
        let (mut plain_labels, mut cut_labels) = (0usize, 0usize);
        for target in targets() {
            let m = Matcher::new(&target);
            let park: Vec<NonTermId> = target
                .nonterms
                .iter()
                .enumerate()
                .filter(|(_, nt)| match nt.kind {
                    NonTermKind::Reg(class) => !target.class(class).is_singleton(),
                    _ => false,
                })
                .map(|(ix, _)| NonTermId(ix as u16))
                .collect();
            for (program_pool, program) in &programs {
                // one pool and one pair of caches per compile, as in the
                // selector
                let mut pool = program_pool.clone();
                let mut cache = LabelCache::new();
                let mut reference = ReferenceCache::default();
                let mut stream = VariantStream::default();
                for block in program {
                    for stmt in block {
                        stream.restart(stmt.src, RuleSet::all(), 16);
                        while let Some(id) = stream.next(&mut pool) {
                            let what = format_args!("{} on {}", pool.to_tree(id), target.name);
                            compare(&m, &pool, id, None, &mut cache, &mut reference, &what);
                            plain_labels += 1;
                        }
                    }
                    // stage C's trials: each candidate at each parking
                    // nonterminal on top of the cuts accepted so far
                    let dag = BlockDag::build(&pool, block);
                    let mut accepted: Vec<(usize, NonTermId)> = Vec::new();
                    for (cand_ix, cand) in dag.shared.iter().enumerate() {
                        for &nt in &park {
                            for &s in &cand.uses {
                                let mut trial = CutSet::default();
                                for (slot, &(ix, parked)) in accepted.iter().enumerate() {
                                    if dag.shared[ix].uses.contains(&s) {
                                        trial.insert(dag.shared[ix].id, (slot, parked));
                                    }
                                }
                                trial.insert(cand.id, (accepted.len(), nt));
                                let root = dag.roots[s];
                                let what = format_args!(
                                    "{} under {trial:?} on {}",
                                    pool.to_tree(root),
                                    target.name
                                );
                                let cuts = Some(&trial);
                                compare(&m, &pool, root, cuts, &mut cache, &mut reference, &what);
                                cut_labels += 1;
                            }
                        }
                        let def = m.label_interned(&pool, cand.id, &mut cache);
                        label_interned(&m, &pool, cand.id, &mut reference);
                        if let Some(&nt) = park.iter().find(|&&nt| cache.cost(def, nt).is_some()) {
                            accepted.push((cand_ix, nt));
                        }
                    }
                }
            }
        }
        assert!(plain_labels >= 50_000, "{plain_labels} plain labellings");
        assert!(cut_labels >= 10_000, "{cut_labels} labellings under cuts");
    }

    /// A cut set on a shared leaf, labelled from a fresh store and from
    /// one that has already labelled the same statement plainly and
    /// under other cuts, gives the same covers.
    #[test]
    fn cut_labels_through_a_warm_store_equal_a_fresh_store() {
        let t = record_isa::targets::dsp56k::target();
        let m = Matcher::new(&t);
        let x = t.nt("x").unwrap();
        let mul = |a: &str, b: &str| Tree::bin(record_ir::BinOp::Mul, Tree::var(a), Tree::var(b));
        let whole = Tree::bin(record_ir::BinOp::Add, mul("p", "q"), mul("p", "r"));
        let mut pool = TreePool::new();
        let id = pool.intern(&whole);
        let p = pool.intern(&Tree::var("p"));
        let mut warm = LabelCache::new();
        m.label_interned(&pool, id, &mut warm);
        let cuts: CutSet = [(p, (0, x))].into_iter().collect();
        for nt in 0..t.nonterms.len() {
            let goal = NonTermId(nt as u16);
            let mut fresh = LabelCache::new();
            assert_eq!(
                m.cover_interned_cut(&pool, id, &mut warm, goal, &cuts),
                m.cover_interned_cut(&pool, id, &mut fresh, goal, &cuts),
            );
        }
    }
}
