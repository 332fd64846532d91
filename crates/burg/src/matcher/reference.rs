//! The labeller the flat [`LabelCache`] and the tables' automaton
//! replaced, kept as their reference: the dynamic program run afresh at
//! every node from the rule index, matching whole patterns (and, when
//! the cache weighs them, whole commuted twins) against the subtree, one
//! `Arc<LabeledNode>` per label state, a children vector and an entry
//! vector per node, and per cut context a cloned context vector. The
//! tests below check that both labellers compute the same entries (every
//! nonterminal's cost, rule and pattern form, at every node), count the
//! same memo hits and misses, and reduce to the same covers, plainly and
//! under the cut sets stage C of DAG covering tries, whether the
//! automaton is warm or cold, with and without twins.

use std::collections::HashMap;
use std::sync::Arc;

use record_ir::{TreeId, TreeNode, TreePool};
use record_isa::{Cost, NonTermId, PatNode, Predicate, Rhs, RuleId};

use super::{CutSet, Matcher};
use crate::automaton::FormNode;
use crate::cover::{CoverNode, Operand, SHARED_RULE};
use crate::label::{Entry, Form, LabelCache, LabelId};

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

/// Label states keyed by id, and under cuts by id and cut context, of
/// the grammar as written or, with `twins`, closed under commutation.
#[derive(Debug, Default)]
pub(crate) struct ReferenceCache {
    pub(crate) twins: bool,
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

    for rule_id in m.tables.rules_for(pool.op(id)) {
        let rule = m.target.rule(*rule_id);
        let pat = match &rule.rhs {
            Rhs::Pat(p) => p,
            Rhs::Chain(_) => unreachable!("indexed as pattern"),
        };
        if let Some(cost) = match_cost_interned(pat, pool, id, &children, rule.pred) {
            let total = cost.add(rule.cost);
            improve(&mut entries, rule.lhs, total, *rule_id, Form::WRITTEN);
        }
    }

    // a node with a cut inside weighs the rules as written only
    if cache.twins && context.is_none() {
        let shape = m.tables.shape(m.target);
        for (ix, twin) in shape.twins_for(pool.op(id)) {
            let rule = m.target.rule(twin.rule);
            if let Some(cost) = match_twin(&twin.pat, pool, id, &children, rule.pred) {
                let total = cost.add(rule.cost);
                improve(&mut entries, rule.lhs, total, twin.rule, Form::twin(ix));
            }
        }
    }

    if let Some((_, nt)) = cuts.and_then(|(c, _)| c.get(&id)) {
        improve(&mut entries, *nt, Cost::zero(), SHARED_RULE, Form::WRITTEN);
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
                if improve(&mut entries, rule.lhs, total, *rule_id, Form::WRITTEN) {
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

/// The cost of matching the twin pattern `pat` at `id` over its labelled
/// `children`, its predicate `pred` checked on the constant the twin
/// marks as tested.
fn match_twin(
    pat: &FormNode,
    pool: &TreePool,
    id: TreeId,
    children: &[Arc<LabeledNode>],
    pred: Option<Predicate>,
) -> Option<Cost> {
    match pat {
        FormNode::Nt(..) => unreachable!("a twin is rooted at an operator"),
        FormNode::Leaf(op, _, tested) => {
            leaf_matches(*op, *tested, pool, id, pred).then(Cost::zero)
        }
        FormNode::Op(op, kids) => {
            if pool.op(id) != *op {
                return None;
            }
            let mut cost = Cost::zero();
            for (pc, nc) in kids.iter().zip(children) {
                cost = cost.add(match_twin_rec(pc, pool, nc, pred)?);
            }
            Some(cost)
        }
    }
}

fn match_twin_rec(
    pat: &FormNode,
    pool: &TreePool,
    node: &LabeledNode,
    pred: Option<Predicate>,
) -> Option<Cost> {
    match pat {
        FormNode::Nt(nt, _) => node.cost(*nt),
        _ => match_twin(pat, pool, node.id, &node.children, pred),
    }
}

/// Whether the leaf operator `op` matches at `id`, passing `pred` when
/// it is the `tested` constant.
fn leaf_matches(
    op: record_ir::Op,
    tested: bool,
    pool: &TreePool,
    id: TreeId,
    pred: Option<Predicate>,
) -> bool {
    pool.op(id) == op
        && match (pool.node(id), pred) {
            (TreeNode::Const(v), Some(p)) if tested => p.check_const(*v),
            _ => true,
        }
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
            match entry.form.twin_index() {
                None => reduce_pattern_interned(m, pat, pool, labeled, &mut operands, cuts)?,
                Some(_) => {
                    let twin = m.tables.shape(m.target).pattern(entry.rule, entry.form);
                    let mut bound = Vec::new();
                    reduce_twin_interned(m, twin, pool, labeled, &mut bound, cuts)?;
                    bound.sort_by_key(|&(slot, _)| slot);
                    operands.extend(bound.into_iter().map(|(_, operand)| operand));
                }
            }
            Some(CoverNode { rule: entry.rule, operands })
        }
    }
}

/// Collects the bindings of the twin pattern `pat` matched at `node`,
/// each with the rule operand slot its leaf came from.
fn reduce_twin_interned(
    m: &Matcher<'_>,
    pat: &FormNode,
    pool: &TreePool,
    node: &LabeledNode,
    bound: &mut Vec<(u8, Operand)>,
    cuts: Option<&CutSet>,
) -> Option<()> {
    match pat {
        FormNode::Nt(nt, slot) => {
            bound.push((*slot, Operand::Derived(reduce_interned(m, pool, node, *nt, cuts)?)));
        }
        FormNode::Leaf(_, slot, _) => {
            let operand = match pool.node(node.id) {
                TreeNode::Const(v) => Operand::Const(*v),
                TreeNode::Mem(r) => Operand::Mem(r.clone()),
                TreeNode::Temp(t) => Operand::Temp(t.clone()),
                _ => unreachable!("a leaf binds a leaf"),
            };
            bound.push((*slot, operand));
        }
        FormNode::Op(_, kids) => {
            for (pc, nc) in kids.iter().zip(&node.children) {
                reduce_twin_interned(m, pc, pool, nc, bound, cuts)?;
            }
        }
    }
    Some(())
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

fn improve(
    entries: &mut [Option<Entry>],
    nt: NonTermId,
    cost: Cost,
    rule: RuleId,
    form: Form,
) -> bool {
    let slot = &mut entries[nt.index()];
    let better = match slot {
        None => true,
        Some(e) => cost.weight() < e.cost.weight(),
    };
    if better {
        *slot = Some(Entry { cost, rule, form });
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

    /// tic25, dsp56k, asip-dsp, asip-min, risc4 and cube seeds 1–4, 35,
    /// 47 and 169.
    fn targets() -> Vec<TargetDesc> {
        use record_isa::cube::CubeParams;
        use record_isa::targets::simple_risc;
        let mut targets = vec![
            record_isa::targets::tic25::target(),
            record_isa::targets::dsp56k::target(),
            CubeParams::asip_dsp().build().unwrap(),
            CubeParams::asip_minimal().build().unwrap(),
            simple_risc::target(4),
        ];
        targets.extend([1, 2, 3, 4, 35, 47, 169].map(record_isa::cube::target_from_seed));
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

    /// The multi-member register nonterminals of `target`: where stage C
    /// parks shared values.
    fn park_nts(target: &TargetDesc) -> Vec<NonTermId> {
        target
            .nonterms
            .iter()
            .enumerate()
            .filter(|(_, nt)| match nt.kind {
                NonTermKind::Reg(class) => !target.class(class).is_singleton(),
                _ => false,
            })
            .map(|(ix, _)| NonTermId(ix as u16))
            .collect()
    }

    /// Labels every variant of every statement of `program` through `m`,
    /// plainly and under stage-C-style trial cut sets, against the
    /// reference, with one pool and one pair of caches as in the
    /// selector, with the commuted twins when `twins` (and then, as the
    /// selector does, a stream that does not commute). Returns the plain
    /// and the cut labellings made.
    fn check_program(
        m: &Matcher<'_>,
        park: &[NonTermId],
        (program_pool, program): (&TreePool, &[Vec<AssignStmt>]),
        twins: bool,
    ) -> (usize, usize) {
        let (mut plain_labels, mut cut_labels) = (0, 0);
        let target = m.target();
        let mut pool = program_pool.clone();
        let mut cache = LabelCache::new();
        cache.set_twins(twins);
        let mut reference = ReferenceCache { twins, ..ReferenceCache::default() };
        let mut stream = VariantStream::default();
        let rules = RuleSet { commutativity: !twins, ..RuleSet::all() };
        for block in program {
            for stmt in block {
                stream.restart(stmt.src, rules, 16);
                while let Some(id) = stream.next(&mut pool) {
                    let what = format_args!("{} on {}", pool.to_tree(id), target.name);
                    compare(m, &pool, id, None, &mut cache, &mut reference, &what);
                    plain_labels += 1;
                }
            }
            // stage C's trials: each candidate at each parking
            // nonterminal on top of the cuts accepted so far
            let dag = BlockDag::build(&pool, block);
            let mut accepted: Vec<(usize, NonTermId)> = Vec::new();
            for (cand_ix, cand) in dag.shared.iter().enumerate() {
                for &nt in park {
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
                        compare(m, &pool, root, cuts, &mut cache, &mut reference, &what);
                        cut_labels += 1;
                    }
                }
                let def = m.label_interned(&pool, cand.id, &mut cache);
                label_interned(m, &pool, cand.id, &mut reference);
                if let Some(&nt) = park.iter().find(|&&nt| cache.cost(def, nt).is_some()) {
                    accepted.push((cand_ix, nt));
                }
            }
        }
        (plain_labels, cut_labels)
    }

    /// The flat store labels every variant of every statement, plainly
    /// and under stage-C-style trial cut sets, exactly as the
    /// `Arc<LabeledNode>` labeller does: same entries at every node, same
    /// hits and misses, same covers, with the grammar as written and
    /// with its commuted twins. Each program is labelled twice per
    /// grammar: by one matcher per target, whose automaton earlier
    /// programs (under both grammars) have grown, and by a matcher over
    /// tables of its own, cold.
    #[test]
    fn flat_store_labels_equal_the_arc_reference() {
        let programs = programs();
        let (mut plain_labels, mut cut_labels) = (0usize, 0usize);
        for target in targets() {
            let warm = Matcher::new(&target);
            let park = park_nts(&target);
            for twins in [false, true] {
                for (pool, program) in &programs {
                    let program = (pool, program.as_slice());
                    let (plain, cut) = check_program(&warm, &park, program, twins);
                    let cold = Matcher::new(&target);
                    assert_eq!(check_program(&cold, &park, program, twins), (plain, cut));
                    plain_labels += plain;
                    cut_labels += cut;
                }
            }
            let (states, transitions) = warm.tables().automaton_size();
            assert!(states > 0 && transitions > 0, "{}: the automaton grew", target.name);
        }
        assert!(plain_labels >= 100_000, "{plain_labels} plain labellings");
        assert!(cut_labels >= 15_000, "{cut_labels} labellings under cuts");
    }

    /// A grammar whose label states never converge: `a` and `b` derive
    /// every tree with no chain between them, and `+` and `-` cost them
    /// differently in words and cycles, so the two drift apart with each
    /// operator and every (`+` count, `-` count) is a state of its own.
    /// Labelled left-deep chains of both operators, 5151 such pairs, pass
    /// the automaton's cap; its labels still equal the reference's, and
    /// the automaton never holds more than the cap.
    #[test]
    fn states_that_never_converge_stay_under_the_cap() {
        use record_ir::{BinOp, Op};
        use record_isa::target::TargetBuilder;
        use record_isa::PatNode as P;

        let mut b = TargetBuilder::new("drift", 16);
        let class = b.reg_class("r", 4);
        let a = b.nt_reg("a", class);
        let bee = b.nt_reg("b", class);
        let leaf = P::op(Op::Mem, vec![]);
        b.pat(a, leaf.clone(), "LA {0}", Cost::new(1, 1));
        b.pat(bee, leaf, "LB {0}", Cost::new(1, 1));
        for (op, on_a, on_b) in [
            (BinOp::Add, Cost::new(1, 1), Cost::new(2, 1)),
            (BinOp::Sub, Cost::new(1, 3), Cost::new(1, 1)),
        ] {
            b.pat(a, P::op(Op::Bin(op), vec![P::nt(a), P::nt(a)]), "A", on_a);
            b.pat(bee, P::op(Op::Bin(op), vec![P::nt(bee), P::nt(bee)]), "B", on_b);
        }
        b.store(a, "ST {d}", Cost::new(1, 1));
        let target = b.build().unwrap();

        let m = Matcher::new(&target);
        let mut pool = TreePool::new();
        let mut cache = LabelCache::new();
        let mut reference = ReferenceCache::default();
        let (mut peak, mut cleared) = (0, false);
        for adds in 0..=100 {
            let mut tree = Tree::var("m");
            for j in 0..100 {
                let op = if j < adds { BinOp::Add } else { BinOp::Sub };
                tree = Tree::bin(op, tree, Tree::var("m"));
            }
            let id = pool.intern(&tree);
            let what = format_args!("{adds} additions");
            compare(&m, &pool, id, None, &mut cache, &mut reference, &what);
            let (states, transitions) = m.tables().automaton_size();
            assert!(states <= crate::MAX_AUTOMATON_SIZE, "{states} states");
            assert!(transitions <= crate::MAX_AUTOMATON_SIZE, "{transitions} transitions");
            cleared |= states < peak;
            peak = peak.max(states);
        }
        assert!(cleared, "the labels passed the cap, so the automaton was cleared");
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
