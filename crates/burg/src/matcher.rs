//! The matcher: table generation, bottom-up labelling, top-down reduction.

use std::collections::HashMap;
use std::sync::Arc;

use record_ir::{Op, Tree, TreeId, TreeNode, TreePool};
use record_isa::{Cost, NonTermId, PatNode, Predicate, Rhs, RuleId, TargetDesc};
use record_trace::codec;

use crate::cover::{Cover, CoverNode, Operand, SHARED_RULE};
use crate::label::{CutContext, Entry, LabelCache, Labeled, LabeledNode};

/// The cut set for DAG covering: interned subtrees whose value is
/// computed once per block and parked in a register. Each cut maps the
/// subtree to its shared-value slot and the nonterminal it is parked in.
///
/// Labelling under a cut set seeds a zero-cost [`SHARED_RULE`] entry at
/// every cut node *before* chain closure, so consumers reach the parked
/// value through the grammar's ordinary move chains. A node's label under
/// a cut set depends only on the cuts inside its subtree (its
/// [`CutContext`]), so one long-lived [`LabelCache`] serves every cut set:
/// each label is memoized under that context, and cut-free subtrees share
/// the plain entries.
pub type CutSet = HashMap<TreeId, (usize, NonTermId)>;

/// The generated matcher tables for one target grammar: pattern rules
/// indexed by root operator and chain rules by source nonterminal.
///
/// Building them is the per-target "generation" step iburg performs
/// offline. They are immutable once built, so a single `Arc<Tables>` can
/// back any number of [`Matcher`]s — including matchers running
/// concurrently on different threads.
#[derive(Debug, PartialEq, Eq)]
pub struct Tables {
    /// Pattern rules indexed by root operator (`Op::index`).
    rules_by_op: Vec<Vec<RuleId>>,
    /// Chain rules indexed by *source* nonterminal.
    chains: Vec<RuleId>,
    n_nts: usize,
}

/// Magic bytes of a serialized [`Tables`] file.
const TABLES_MAGIC: &[u8; 8] = b"RECBURS\0";
/// Format version of a serialized [`Tables`] file. Bump on any layout
/// change *and* whenever [`Op::index`] numbering changes — the on-disk
/// index is meaningless under a different operator numbering.
const TABLES_VERSION: u32 = 1;

impl Tables {
    /// Generates the tables for a target grammar.
    pub fn build(target: &TargetDesc) -> Self {
        let mut rules_by_op: Vec<Vec<RuleId>> = vec![Vec::new(); Op::COUNT];
        let mut chains = Vec::new();
        for rule in &target.rules {
            match &rule.rhs {
                Rhs::Pat(PatNode::Op(op, _)) => rules_by_op[op.index()].push(rule.id),
                Rhs::Pat(PatNode::Nt(_)) => {
                    // A bare-nonterminal pattern is just a chain rule in
                    // disguise; treat it as such.
                    chains.push(rule.id);
                }
                Rhs::Chain(_) => chains.push(rule.id),
            }
        }
        Tables { rules_by_op, chains, n_nts: target.nonterms.len() }
    }

    /// Number of nonterminals the tables were generated for.
    pub fn n_nonterms(&self) -> usize {
        self.n_nts
    }

    /// Number of indexed pattern rules (diagnostic).
    pub fn n_pattern_rules(&self) -> usize {
        self.rules_by_op.iter().map(Vec::len).sum()
    }

    /// Number of indexed chain rules (diagnostic).
    pub fn n_chain_rules(&self) -> usize {
        self.chains.len()
    }

    /// Serializes the tables into a self-contained, checksummed binary
    /// blob (versioned header, length-prefixed rule lists, FNV trailer —
    /// see [`record_trace::codec`]). Loading the blob back with
    /// [`from_bytes`](Tables::from_bytes) skips the per-target
    /// generation step entirely: the cold-start cost the paper's iburg
    /// pays offline becomes a file read.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = codec::ByteWriter::new();
        w.u32(self.n_nts as u32);
        w.u32(self.rules_by_op.len() as u32);
        for rules in &self.rules_by_op {
            w.u32(rules.len() as u32);
            for r in rules {
                w.u32(r.0);
            }
        }
        w.u32(self.chains.len() as u32);
        for r in &self.chains {
            w.u32(r.0);
        }
        codec::seal(TABLES_MAGIC, TABLES_VERSION, &w.into_bytes())
    }

    /// Deserializes tables written by [`to_bytes`](Tables::to_bytes).
    ///
    /// Every failure mode of a file on disk — truncation, a flipped bit,
    /// a stale format version, an operator-count mismatch with the
    /// running build — comes back as a [`codec::CodecError`], never a
    /// panic: cache layers treat it as a miss and regenerate.
    ///
    /// # Errors
    ///
    /// [`codec::CodecError`] on any malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, codec::CodecError> {
        let payload = codec::unseal(TABLES_MAGIC, TABLES_VERSION, bytes)?;
        let mut r = codec::ByteReader::new(payload);
        let n_nts = r.u32()? as usize;
        let n_ops = r.seq_len(4)?;
        if n_ops != Op::COUNT {
            return Err(codec::CodecError {
                pos: 4,
                what: format!("tables index {n_ops} operators, this build has {}", Op::COUNT),
            });
        }
        let mut rules_by_op = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let n = r.seq_len(4)?;
            let mut rules = Vec::with_capacity(n);
            for _ in 0..n {
                rules.push(RuleId(r.u32()?));
            }
            rules_by_op.push(rules);
        }
        let n_chains = r.seq_len(4)?;
        let mut chains = Vec::with_capacity(n_chains);
        for _ in 0..n_chains {
            chains.push(RuleId(r.u32()?));
        }
        r.finish()?;
        Ok(Tables { rules_by_op, chains, n_nts })
    }

    /// Whether these (possibly deserialized) tables are structurally
    /// plausible for `target`: same nonterminal count, every indexed
    /// rule id within the target's rule table. This is the load-time
    /// sanity gate for tables read from disk — it cannot prove the
    /// tables were generated from *this* grammar (the cache keys files
    /// by a full-content fingerprint for that), but it does guarantee
    /// that every table lookup the matcher performs stays in bounds.
    pub fn is_consistent_with(&self, target: &TargetDesc) -> bool {
        self.n_nts == target.nonterms.len()
            && self.rules_by_op.len() == Op::COUNT
            && self
                .rules_by_op
                .iter()
                .flatten()
                .chain(&self.chains)
                .all(|r| (r.0 as usize) < target.rules.len())
    }
}

/// A generated pattern matcher for one target grammar.
///
/// Construction indexes the grammar (the "generation" step that iburg
/// performs offline); [`label`](Matcher::label) and
/// [`reduce`](Matcher::reduce) then run in time linear in the tree size
/// (times the number of nonterminals). Use [`Matcher::with_tables`] to
/// reuse already-generated [`Tables`] instead of regenerating them.
///
/// # Example
///
/// ```
/// use record_burg::Matcher;
/// use record_ir::{BinOp, Tree};
///
/// let target = record_isa::targets::tic25::target();
/// let m = Matcher::new(&target);
/// // acc := x * y  on a C25 takes LT x; MPY y; PAC
/// let tree = Tree::bin(BinOp::Mul, Tree::var("x"), Tree::var("y"));
/// let acc = target.nt("acc").unwrap();
/// let cover = m.cover(&tree, acc).expect("derivable");
/// assert_eq!(cover.cost.words, 3);
/// ```
#[derive(Debug)]
pub struct Matcher<'t> {
    target: &'t TargetDesc,
    tables: Arc<Tables>,
}

impl<'t> Matcher<'t> {
    /// Generates a matcher for the target grammar (builds fresh tables).
    pub fn new(target: &'t TargetDesc) -> Self {
        Matcher { target, tables: Arc::new(Tables::build(target)) }
    }

    /// Wraps already-generated tables; `tables` must have been built from
    /// a structurally identical target description.
    pub fn with_tables(target: &'t TargetDesc, tables: Arc<Tables>) -> Self {
        debug_assert_eq!(
            tables.n_nts,
            target.nonterms.len(),
            "tables were generated for a different grammar"
        );
        Matcher { target, tables }
    }

    /// The target this matcher was generated for.
    pub fn target(&self) -> &TargetDesc {
        self.target
    }

    /// The shared tables backing this matcher.
    pub fn tables(&self) -> &Arc<Tables> {
        &self.tables
    }

    /// Labels a tree bottom-up: computes, per node and nonterminal, the
    /// cheapest derivation.
    pub fn label<'a>(&self, tree: &'a Tree) -> Labeled<'a> {
        let children: Vec<Labeled<'a>> =
            tree.children().into_iter().map(|c| self.label(c)).collect();
        let mut entries: Vec<Option<Entry>> = vec![None; self.tables.n_nts];

        // 1. structural pattern rules rooted at this operator
        for rule_id in &self.tables.rules_by_op[tree.op().index()] {
            let rule = self.target.rule(*rule_id);
            let pat = match &rule.rhs {
                Rhs::Pat(p) => p,
                Rhs::Chain(_) => unreachable!("indexed as pattern"),
            };
            if let Some(cost) = self.match_cost(pat, tree, &children, rule.pred) {
                let total = cost.add(rule.cost);
                improve(&mut entries, rule.lhs, total, *rule_id);
            }
        }

        // 2. chain-rule closure to a fixpoint
        let mut changed = true;
        while changed {
            changed = false;
            for rule_id in &self.tables.chains {
                let rule = self.target.rule(*rule_id);
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

        Labeled { tree, children, entries }
    }

    /// The cost of matching `pat` structurally at a node given by its
    /// `tree` and already-labelled `children` (sum of leaf derivation
    /// costs), or `None` if it does not match.
    ///
    /// `pred`, if present, is checked against the first constant the
    /// pattern binds.
    fn match_cost(
        &self,
        pat: &PatNode,
        tree: &Tree,
        children: &[Labeled<'_>],
        pred: Option<Predicate>,
    ) -> Option<Cost> {
        let mut consts = Vec::new();
        let (op, pat_children) = match pat {
            PatNode::Op(op, c) => (*op, c),
            PatNode::Nt(_) => unreachable!("bare-Nt patterns are indexed as chains"),
        };
        if tree.op() != op {
            return None;
        }
        if let Tree::Const(v) = tree {
            consts.push(*v);
        }
        let mut cost = Cost::zero();
        for (pc, nc) in pat_children.iter().zip(children.iter()) {
            cost = cost.add(self.match_rec(pc, nc, &mut consts)?);
        }
        if let Some(p) = pred {
            let first = consts.first()?;
            if !p.check_const(*first) {
                return None;
            }
        }
        Some(cost)
    }

    fn match_rec(&self, pat: &PatNode, node: &Labeled<'_>, consts: &mut Vec<i64>) -> Option<Cost> {
        match pat {
            PatNode::Nt(nt) => node.cost(*nt),
            PatNode::Op(op, children) => {
                if node.tree.op() != *op {
                    return None;
                }
                if let Tree::Const(v) = node.tree {
                    consts.push(*v);
                }
                let mut total = Cost::zero();
                for (pc, nc) in children.iter().zip(node.children.iter()) {
                    total = total.add(self.match_rec(pc, nc, consts)?);
                }
                Some(total)
            }
        }
    }

    /// Reduces a labelled tree to the cover that achieves the label's cost
    /// for `goal`.
    ///
    /// Returns `None` when the tree is not derivable to `goal` — for a
    /// complete grammar that means the program uses an operator the target
    /// has no instruction for.
    pub fn reduce(&self, labeled: &Labeled<'_>, goal: NonTermId) -> Option<CoverNode> {
        let entry = labeled.entries[goal.index()]?;
        let rule = self.target.rule(entry.rule);
        match &rule.rhs {
            Rhs::Chain(src) | Rhs::Pat(PatNode::Nt(src)) => {
                let inner = self.reduce(labeled, *src)?;
                Some(CoverNode { rule: entry.rule, operands: vec![Operand::Derived(inner)] })
            }
            Rhs::Pat(pat) => {
                let mut operands = Vec::new();
                self.reduce_pattern(pat, labeled, &mut operands)?;
                Some(CoverNode { rule: entry.rule, operands })
            }
        }
    }

    fn reduce_pattern(
        &self,
        pat: &PatNode,
        node: &Labeled<'_>,
        operands: &mut Vec<Operand>,
    ) -> Option<()> {
        match pat {
            PatNode::Nt(nt) => {
                let child = self.reduce(node, *nt)?;
                operands.push(Operand::Derived(child));
                Some(())
            }
            PatNode::Op(op, children) => {
                debug_assert_eq!(node.tree.op(), *op, "reduce follows the label");
                match node.tree {
                    Tree::Const(v) => operands.push(Operand::Const(*v)),
                    Tree::Mem(m) => operands.push(Operand::Mem(m.clone())),
                    Tree::Temp(t) => operands.push(Operand::Temp(t.clone())),
                    _ => {}
                }
                for (pc, nc) in children.iter().zip(node.children.iter()) {
                    self.reduce_pattern(pc, nc, operands)?;
                }
                Some(())
            }
        }
    }

    /// Labels and reduces in one step.
    pub fn cover(&self, tree: &Tree, goal: NonTermId) -> Option<Cover> {
        let labeled = self.label(tree);
        let cost = labeled.cost(goal)?;
        let root = self.reduce(&labeled, goal)?;
        Some(Cover { root, cost })
    }

    /// The cheapest nonterminal among `candidates` a tree derives to,
    /// with its cover. Used by the selector to choose among store rules.
    pub fn best_cover(
        &self,
        tree: &Tree,
        candidates: &[(NonTermId, Cost)],
    ) -> Option<(NonTermId, Cover)> {
        let labeled = self.label(tree);
        let mut best: Option<(NonTermId, Cost, Cost)> = None; // (nt, derive, total)
        for (nt, extra) in candidates {
            if let Some(c) = labeled.cost(*nt) {
                let total = c.add(*extra);
                let better = match &best {
                    None => true,
                    Some((_, _, bt)) => total.weight() < bt.weight(),
                };
                if better {
                    best = Some((*nt, c, total));
                }
            }
        }
        let (nt, derive_cost, _) = best?;
        let root = self.reduce(&labeled, nt)?;
        Some((nt, Cover { root, cost: derive_cost }))
    }

    // -----------------------------------------------------------------
    // Interned path: identical algorithm over hash-consed TreeIds, with
    // label states memoized per subtree in a LabelCache. Shared subtrees
    // across variants are labelled exactly once.
    // -----------------------------------------------------------------

    /// Interned counterpart of [`label`](Matcher::label): labels `id`
    /// bottom-up, answering every already-seen subtree from `cache`.
    ///
    /// Label state is context-free, so memoization is exact — the entries
    /// equal what [`label`](Matcher::label) computes on the extracted
    /// boxed tree. The cache must be used with one pool and one grammar.
    pub fn label_interned(
        &self,
        pool: &TreePool,
        id: TreeId,
        cache: &mut LabelCache,
    ) -> Arc<LabeledNode> {
        self.label_interned_impl(pool, id, cache, None)
    }

    /// Labels `id` under a DAG cut set: every cut node additionally gets
    /// a zero-cost [`SHARED_RULE`] entry at its parked nonterminal,
    /// seeded between pattern matching and chain closure so move chains
    /// from the parked register apply. Multi-level patterns may still
    /// match *through* a cut node — that is the recompute alternative
    /// the cost comparison weighs against the share.
    ///
    /// `cache` is the same long-lived cache plain labelling uses: every
    /// node is memoized under its [`CutContext`], and a subtree without
    /// cuts is answered from (or added to) the plain entries.
    pub fn label_interned_cut(
        &self,
        pool: &TreePool,
        id: TreeId,
        cache: &mut LabelCache,
        cuts: &CutSet,
    ) -> Arc<LabeledNode> {
        let mut contexts = HashMap::new();
        if let Some(&first) = cuts.keys().min() {
            cut_contexts(pool, id, cuts, first, &mut contexts);
        }
        self.label_interned_impl(pool, id, cache, Some((cuts, &contexts)))
    }

    /// Labels `id`; with `cuts`, nodes listed in its context map are
    /// labelled under their cuts (every other node is cut-free).
    fn label_interned_impl(
        &self,
        pool: &TreePool,
        id: TreeId,
        cache: &mut LabelCache,
        cuts: Option<(&CutSet, &HashMap<TreeId, CutContext>)>,
    ) -> Arc<LabeledNode> {
        let context = cuts.and_then(|(_, contexts)| contexts.get(&id));
        // below a cut-free node every node is cut-free: label plainly
        let cuts = context.and(cuts);
        let hit = match context {
            Some(context) => cache.lookup_cut(id, context),
            None => cache.lookup(id),
        };
        if let Some(hit) = hit {
            return hit;
        }
        let children: Vec<Arc<LabeledNode>> = pool
            .node(id)
            .children()
            .into_iter()
            .map(|c| self.label_interned_impl(pool, c, cache, cuts))
            .collect();
        let mut entries: Vec<Option<Entry>> = vec![None; self.tables.n_nts];

        // 1. structural pattern rules rooted at this operator
        for rule_id in &self.tables.rules_by_op[pool.op(id).index()] {
            let rule = self.target.rule(*rule_id);
            let pat = match &rule.rhs {
                Rhs::Pat(p) => p,
                Rhs::Chain(_) => unreachable!("indexed as pattern"),
            };
            if let Some(cost) = self.match_cost_interned(pat, pool, id, &children, rule.pred) {
                let total = cost.add(rule.cost);
                improve(&mut entries, rule.lhs, total, *rule_id);
            }
        }

        // 1b. a cut node's value is already parked: free at its
        // nonterminal, before chains so moves out of it close normally
        if let Some((_, nt)) = cuts.and_then(|(c, _)| c.get(&id)) {
            improve(&mut entries, *nt, Cost::zero(), SHARED_RULE);
        }

        // 2. chain-rule closure to a fixpoint
        let mut changed = true;
        while changed {
            changed = false;
            for rule_id in &self.tables.chains {
                let rule = self.target.rule(*rule_id);
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
        &self,
        pat: &PatNode,
        pool: &TreePool,
        id: TreeId,
        children: &[Arc<LabeledNode>],
        pred: Option<Predicate>,
    ) -> Option<Cost> {
        let mut consts = Vec::new();
        let (op, pat_children) = match pat {
            PatNode::Op(op, c) => (*op, c),
            PatNode::Nt(_) => unreachable!("bare-Nt patterns are indexed as chains"),
        };
        if pool.op(id) != op {
            return None;
        }
        if let TreeNode::Const(v) = pool.node(id) {
            consts.push(*v);
        }
        let mut cost = Cost::zero();
        for (pc, nc) in pat_children.iter().zip(children.iter()) {
            cost = cost.add(self.match_rec_interned(pc, pool, nc, &mut consts)?);
        }
        if let Some(p) = pred {
            let first = consts.first()?;
            if !p.check_const(*first) {
                return None;
            }
        }
        Some(cost)
    }

    fn match_rec_interned(
        &self,
        pat: &PatNode,
        pool: &TreePool,
        node: &LabeledNode,
        consts: &mut Vec<i64>,
    ) -> Option<Cost> {
        match pat {
            PatNode::Nt(nt) => node.cost(*nt),
            PatNode::Op(op, children) => {
                if pool.op(node.id) != *op {
                    return None;
                }
                if let TreeNode::Const(v) = pool.node(node.id) {
                    consts.push(*v);
                }
                let mut total = Cost::zero();
                for (pc, nc) in children.iter().zip(node.children.iter()) {
                    total = total.add(self.match_rec_interned(pc, pool, nc, consts)?);
                }
                Some(total)
            }
        }
    }

    /// Interned counterpart of [`reduce`](Matcher::reduce).
    pub fn reduce_interned(
        &self,
        pool: &TreePool,
        labeled: &LabeledNode,
        goal: NonTermId,
    ) -> Option<CoverNode> {
        self.reduce_interned_impl(pool, labeled, goal, None)
    }

    /// Reduces labels computed by
    /// [`label_interned_cut`](Matcher::label_interned_cut): wherever the
    /// label chose the zero-cost shared entry, the derivation bottoms
    /// out in a [`SHARED_RULE`] node referencing the parked value.
    pub fn reduce_interned_cut(
        &self,
        pool: &TreePool,
        labeled: &LabeledNode,
        goal: NonTermId,
        cuts: &CutSet,
    ) -> Option<CoverNode> {
        self.reduce_interned_impl(pool, labeled, goal, Some(cuts))
    }

    fn reduce_interned_impl(
        &self,
        pool: &TreePool,
        labeled: &LabeledNode,
        goal: NonTermId,
        cuts: Option<&CutSet>,
    ) -> Option<CoverNode> {
        let entry = labeled.entries[goal.index()]?;
        if entry.rule == SHARED_RULE {
            let (slot, nt) = *cuts.expect("shared entry without a cut set").get(&labeled.id)?;
            debug_assert_eq!(nt, goal, "shared entries live at the parked nonterminal");
            return Some(CoverNode {
                rule: SHARED_RULE,
                operands: vec![Operand::Shared { slot, nt }],
            });
        }
        let rule = self.target.rule(entry.rule);
        match &rule.rhs {
            Rhs::Chain(src) | Rhs::Pat(PatNode::Nt(src)) => {
                let inner = self.reduce_interned_impl(pool, labeled, *src, cuts)?;
                Some(CoverNode { rule: entry.rule, operands: vec![Operand::Derived(inner)] })
            }
            Rhs::Pat(pat) => {
                let mut operands = Vec::new();
                self.reduce_pattern_interned(pat, pool, labeled, &mut operands, cuts)?;
                Some(CoverNode { rule: entry.rule, operands })
            }
        }
    }

    fn reduce_pattern_interned(
        &self,
        pat: &PatNode,
        pool: &TreePool,
        node: &LabeledNode,
        operands: &mut Vec<Operand>,
        cuts: Option<&CutSet>,
    ) -> Option<()> {
        match pat {
            PatNode::Nt(nt) => {
                let child = self.reduce_interned_impl(pool, node, *nt, cuts)?;
                operands.push(Operand::Derived(child));
                Some(())
            }
            PatNode::Op(op, children) => {
                debug_assert_eq!(pool.op(node.id), *op, "reduce follows the label");
                match pool.node(node.id) {
                    TreeNode::Const(v) => operands.push(Operand::Const(*v)),
                    TreeNode::Mem(m) => operands.push(Operand::Mem(m.clone())),
                    TreeNode::Temp(t) => operands.push(Operand::Temp(t.clone())),
                    _ => {}
                }
                for (pc, nc) in children.iter().zip(node.children.iter()) {
                    self.reduce_pattern_interned(pc, pool, nc, operands, cuts)?;
                }
                Some(())
            }
        }
    }

    /// Interned counterpart of [`cover`](Matcher::cover).
    pub fn cover_interned(
        &self,
        pool: &TreePool,
        id: TreeId,
        cache: &mut LabelCache,
        goal: NonTermId,
    ) -> Option<Cover> {
        let labeled = self.label_interned(pool, id, cache);
        let cost = labeled.cost(goal)?;
        let root = self.reduce_interned(pool, &labeled, goal)?;
        Some(Cover { root, cost })
    }

    /// Cut-aware counterpart of [`cover_interned`](Matcher::cover_interned).
    pub fn cover_interned_cut(
        &self,
        pool: &TreePool,
        id: TreeId,
        cache: &mut LabelCache,
        goal: NonTermId,
        cuts: &CutSet,
    ) -> Option<Cover> {
        let labeled = self.label_interned_cut(pool, id, cache, cuts);
        let cost = labeled.cost(goal)?;
        let root = self.reduce_interned_cut(pool, &labeled, goal, cuts)?;
        Some(Cover { root, cost })
    }

    /// Interned counterpart of [`best_cover`](Matcher::best_cover):
    /// identical tie-breaking (strict improvement, first candidate wins).
    pub fn best_cover_interned(
        &self,
        pool: &TreePool,
        id: TreeId,
        cache: &mut LabelCache,
        candidates: &[(NonTermId, Cost)],
    ) -> Option<(NonTermId, Cover)> {
        self.best_cover_interned_impl(pool, id, cache, candidates, None)
    }

    /// Cut-aware counterpart of
    /// [`best_cover_interned`](Matcher::best_cover_interned); same
    /// tie-breaking, same memo (see
    /// [`label_interned_cut`](Matcher::label_interned_cut)).
    pub fn best_cover_interned_cut(
        &self,
        pool: &TreePool,
        id: TreeId,
        cache: &mut LabelCache,
        candidates: &[(NonTermId, Cost)],
        cuts: &CutSet,
    ) -> Option<(NonTermId, Cover)> {
        self.best_cover_interned_impl(pool, id, cache, candidates, Some(cuts))
    }

    fn best_cover_interned_impl(
        &self,
        pool: &TreePool,
        id: TreeId,
        cache: &mut LabelCache,
        candidates: &[(NonTermId, Cost)],
        cuts: Option<&CutSet>,
    ) -> Option<(NonTermId, Cover)> {
        let labeled = match cuts {
            Some(cuts) => self.label_interned_cut(pool, id, cache, cuts),
            None => self.label_interned(pool, id, cache),
        };
        let mut best: Option<(NonTermId, Cost, Cost)> = None; // (nt, derive, total)
        for (nt, extra) in candidates {
            if let Some(c) = labeled.cost(*nt) {
                let total = c.add(*extra);
                let better = match &best {
                    None => true,
                    Some((_, _, bt)) => total.weight() < bt.weight(),
                };
                if better {
                    best = Some((*nt, c, total));
                }
            }
        }
        let (nt, derive_cost, _) = best?;
        let root = self.reduce_interned_impl(pool, &labeled, nt, cuts)?;
        Some((nt, Cover { root, cost: derive_cost }))
    }
}

/// Records in `contexts` the [`CutContext`] of `id` and of every node below
/// it whose subtree holds a cut; cut-free nodes get no entry. `first` is
/// the smallest cut id: pool ids grow from children to parents, so a node
/// with a smaller id has no cut inside.
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

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::{BinOp, Index, MemRef};
    use record_isa::target::TargetBuilder;
    use record_isa::PatNode as P;

    /// The paper's Fig. 4 pattern set: move-to-register, load-constant,
    /// add-immediate-to-memory, multiply-immediate-with-memory, and the
    /// big add-immediate-to-memory-addressed-by-product pattern.
    fn fig4_target() -> TargetDesc {
        let mut b = TargetBuilder::new("fig4", 16);
        let r_c = b.reg_class("reg", 4);
        let reg = b.nt_reg("reg", r_c);
        let mem = b.nt_mem("mem");
        let imm = b.nt_imm("imm", 16);
        b.base_mem_rules(mem);
        b.base_imm_rule(imm);
        // (move from memory to register)
        b.chain(reg, mem, "MOVE {0}", Cost::new(1, 1));
        // (load constant into register)
        b.chain(reg, imm, "LDC {0}", Cost::new(1, 1));
        // (add immediate to memory, register indirect): reg := reg + imm
        b.pat(
            reg,
            P::op(Op::Bin(BinOp::Add), vec![P::nt(reg), P::nt(imm)]),
            "ADDI {1}",
            Cost::new(1, 1),
        );
        // (multiply immediate with memory direct): reg := mem * imm
        b.pat(
            reg,
            P::op(Op::Bin(BinOp::Mul), vec![P::nt(mem), P::nt(imm)]),
            "MULI {0},{1}",
            Cost::new(1, 1),
        );
        // (add immediate to memory addressed by the product of two
        // registers): reg := (reg*reg) + imm — a 2-operator pattern
        b.pat(
            reg,
            P::op(
                Op::Bin(BinOp::Add),
                vec![P::op(Op::Bin(BinOp::Mul), vec![P::nt(reg), P::nt(reg)]), P::nt(imm)],
            ),
            "MADDI {0},{1},{2}",
            Cost::new(1, 1),
        );
        b.store(reg, "ST {d}", Cost::new(1, 1));
        b.build().unwrap()
    }

    /// The Fig. 4 subject tree: (ref + 5) * 7 ... we use the paper's
    /// shape: ((a[i] + 5) * 7) + 9 over two memory refs.
    fn fig4_tree() -> Tree {
        Tree::bin(
            BinOp::Add,
            Tree::bin(
                BinOp::Mul,
                Tree::bin(
                    BinOp::Add,
                    Tree::mem(MemRef::array("a", Index::Const(0))),
                    Tree::constant(5),
                ),
                Tree::constant(7),
            ),
            Tree::constant(9),
        )
    }

    #[test]
    fn fig4_tree_is_coverable() {
        let t = fig4_target();
        let m = Matcher::new(&t);
        let reg = t.nt("reg").unwrap();
        let cover = m.cover(&fig4_tree(), reg).expect("coverable");
        // one optimal cover: MOVE a[0]; ADDI 5; (reuse) ...; the big MADDI
        // pattern covers mul+add in one instruction:
        //   r1 := MOVE a[0]; r1 := ADDI 5; r2 := LDC 7; r := MADDI(r1,r2,9)
        assert_eq!(cover.cost.words, 4, "{}", cover.root.dump(&t));
    }

    #[test]
    fn multi_level_pattern_beats_composition() {
        let t = fig4_target();
        let m = Matcher::new(&t);
        let reg = t.nt("reg").unwrap();
        // (x*y) + 9 : MADDI covers both operators in one instruction
        let tree = Tree::bin(
            BinOp::Add,
            Tree::bin(BinOp::Mul, Tree::var("x"), Tree::var("y")),
            Tree::constant(9),
        );
        let cover = m.cover(&tree, reg).unwrap();
        // MOVE x; MOVE y; MADDI = 3 words
        assert_eq!(cover.cost.words, 3);
        let dump = cover.root.dump(&t);
        assert!(dump.contains("MADDI"), "{dump}");
    }

    #[test]
    fn chain_closure_reaches_mem_via_store() {
        // tic25: a value computed in acc can reach the `mem` nonterminal
        // via the SACL spill chain.
        let t = record_isa::targets::tic25::target();
        let m = Matcher::new(&t);
        let mem = t.nt("mem").unwrap();
        let tree = Tree::bin(BinOp::Add, Tree::var("x"), Tree::var("y"));
        let labeled = m.label(&tree);
        // LAC x; ADD y = 2 words to acc, +1 SACL to mem
        assert_eq!(labeled.cost(t.nt("acc").unwrap()).unwrap().words, 2);
        assert_eq!(labeled.cost(mem).unwrap().words, 3);
    }

    #[test]
    fn tic25_mac_shape() {
        let t = record_isa::targets::tic25::target();
        let m = Matcher::new(&t);
        let acc = t.nt("acc").unwrap();
        // y + c*x : LAC y; LT c; MPY x; APAC = 4 words
        let tree = Tree::bin(
            BinOp::Add,
            Tree::var("y"),
            Tree::bin(BinOp::Mul, Tree::var("c"), Tree::var("x")),
        );
        let cover = m.cover(&tree, acc).unwrap();
        assert_eq!(cover.cost.words, 4, "{}", cover.root.dump(&t));
        assert!(cover.root.dump(&t).contains("APAC"));
    }

    #[test]
    fn tic25_double_acc_tree_spills() {
        let t = record_isa::targets::tic25::target();
        let m = Matcher::new(&t);
        let acc = t.nt("acc").unwrap();
        // (a+b) * (c+d): both factors need the accumulator; the matcher
        // must route one through memory (SACL) and t.
        let tree = Tree::bin(
            BinOp::Mul,
            Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b")),
            Tree::bin(BinOp::Add, Tree::var("c"), Tree::var("d")),
        );
        let cover = m.cover(&tree, acc).expect("legalizable via spill chains");
        let dump = cover.root.dump(&t);
        assert!(dump.contains("SACL"), "expected a spill: {dump}");
        // LAC a; ADD b; SACL s0; LT s0; LAC c; ADD d; SACL s1; MPY s1; PAC
        // = 9 words
        assert_eq!(cover.cost.words, 9, "{dump}");
    }

    #[test]
    fn predicates_gate_immediate_rules() {
        let t = record_isa::targets::tic25::target();
        let m = Matcher::new(&t);
        let acc = t.nt("acc").unwrap();
        // small constant: LACK (1 word)
        let small = m.cover(&Tree::constant(5), acc).unwrap();
        assert_eq!(small.cost.words, 1);
        // big constant: LALK (2 words)
        let big = m.cover(&Tree::constant(3000), acc).unwrap();
        assert_eq!(big.cost.words, 2);
    }

    #[test]
    fn sfl_only_matches_shift_by_one() {
        let t = record_isa::targets::tic25::target();
        let m = Matcher::new(&t);
        let acc = t.nt("acc").unwrap();
        let by1 = Tree::bin(BinOp::Shl, Tree::var("x"), Tree::constant(1));
        let c1 = m.cover(&by1, acc).unwrap();
        // covered by LAC x,1 (load with shift): 1 word
        assert_eq!(c1.cost.words, 1);
        let by3 = Tree::bin(BinOp::Shl, Tree::var("x"), Tree::constant(3));
        let c3 = m.cover(&by3, acc).unwrap();
        // LAC x,3 also 1 word (shift 0..15)
        assert_eq!(c3.cost.words, 1);
        // shift of an acc expression by 1: SFL
        let expr = Tree::bin(
            BinOp::Shl,
            Tree::bin(BinOp::Add, Tree::var("x"), Tree::var("y")),
            Tree::constant(1),
        );
        let ce = m.cover(&expr, acc).unwrap();
        assert!(ce.root.dump(&t).contains("SFL"));
    }

    #[test]
    fn underivable_operator_returns_none() {
        let t = fig4_target();
        let m = Matcher::new(&t);
        let reg = t.nt("reg").unwrap();
        // fig4 grammar has no Div rule
        let tree = Tree::bin(BinOp::Div, Tree::var("x"), Tree::var("y"));
        assert!(m.cover(&tree, reg).is_none());
    }

    #[test]
    fn best_cover_picks_cheapest_store_candidate() {
        let t = record_isa::targets::tic25::target();
        let m = Matcher::new(&t);
        let acc = t.nt("acc").unwrap();
        let mem = t.nt("mem").unwrap();
        let tree = Tree::var("x");
        // candidates: store-from-acc costs 1 extra; "already in mem" is 0
        let (nt, cover) =
            m.best_cover(&tree, &[(acc, Cost::new(1, 1)), (mem, Cost::zero())]).unwrap();
        assert_eq!(nt, mem);
        assert_eq!(cover.cost.words, 0);
    }

    /// Every boxed-path test tree, matched through the interned path,
    /// must produce the identical cover (rule-for-rule, operand-for-
    /// operand) — the byte-identity guarantee rests on this.
    #[test]
    fn interned_cover_equals_boxed_cover() {
        let trees = vec![
            fig4_tree(),
            Tree::bin(
                BinOp::Add,
                Tree::bin(BinOp::Mul, Tree::var("x"), Tree::var("y")),
                Tree::constant(9),
            ),
            Tree::constant(5),
            Tree::constant(3000),
            Tree::bin(
                BinOp::Mul,
                Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b")),
                Tree::bin(BinOp::Add, Tree::var("c"), Tree::var("d")),
            ),
            Tree::bin(
                BinOp::Shl,
                Tree::bin(BinOp::Add, Tree::var("x"), Tree::var("y")),
                Tree::constant(1),
            ),
        ];
        for target in [fig4_target(), record_isa::targets::tic25::target()] {
            let m = Matcher::new(&target);
            let mut pool = record_ir::TreePool::new();
            let mut cache = LabelCache::new();
            for tree in &trees {
                let id = pool.intern(tree);
                for nt_ix in 0..target.nonterms.len() {
                    let goal = record_isa::NonTermId(nt_ix as u16);
                    let boxed = m.cover(tree, goal);
                    let interned = m.cover_interned(&pool, id, &mut cache, goal);
                    assert_eq!(interned, boxed, "target {} tree {tree} nt {nt_ix}", target.name);
                }
            }
        }
    }

    #[test]
    fn interned_best_cover_equals_boxed() {
        let t = record_isa::targets::tic25::target();
        let m = Matcher::new(&t);
        let acc = t.nt("acc").unwrap();
        let mem = t.nt("mem").unwrap();
        let candidates = [(acc, Cost::new(1, 1)), (mem, Cost::zero())];
        let mut pool = record_ir::TreePool::new();
        let mut cache = LabelCache::new();
        for tree in [Tree::var("x"), fig4_tree()] {
            let id = pool.intern(&tree);
            assert_eq!(
                m.best_cover_interned(&pool, id, &mut cache, &candidates),
                m.best_cover(&tree, &candidates),
            );
        }
    }

    #[test]
    fn label_cache_memoizes_shared_subtrees() {
        let t = record_isa::targets::tic25::target();
        let m = Matcher::new(&t);
        let acc = t.nt("acc").unwrap();
        let mut pool = record_ir::TreePool::new();
        let mut cache = LabelCache::new();
        // Two variants sharing the (c*x) subtree: y + c*x and (c*x) + y.
        let prod = Tree::bin(BinOp::Mul, Tree::var("c"), Tree::var("x"));
        let v1 = Tree::bin(BinOp::Add, Tree::var("y"), prod.clone());
        let v2 = Tree::bin(BinOp::Add, prod, Tree::var("y"));
        let id1 = pool.intern(&v1);
        let id2 = pool.intern(&v2);
        m.cover_interned(&pool, id1, &mut cache, acc).unwrap();
        let misses_after_first = cache.misses();
        m.cover_interned(&pool, id2, &mut cache, acc).unwrap();
        // Second variant recomputes only its root: c, x, y, c*x all hit.
        assert_eq!(cache.misses() - misses_after_first, 1, "only the new root is labelled");
        assert!(cache.hits() >= 2, "shared subtrees answered from cache");
    }

    #[test]
    fn empty_cut_set_matches_the_plain_path() {
        let t = record_isa::targets::tic25::target();
        let m = Matcher::new(&t);
        let mut pool = record_ir::TreePool::new();
        let cuts = CutSet::new();
        for tree in [fig4_tree(), Tree::var("x"), Tree::constant(5)] {
            let id = pool.intern(&tree);
            for nt_ix in 0..t.nonterms.len() {
                let goal = record_isa::NonTermId(nt_ix as u16);
                let mut plain_cache = LabelCache::new();
                let mut cut_cache = LabelCache::new();
                assert_eq!(
                    m.cover_interned_cut(&pool, id, &mut cut_cache, goal, &cuts),
                    m.cover_interned(&pool, id, &mut plain_cache, goal),
                    "tree {tree} nt {nt_ix}"
                );
            }
        }
    }

    #[test]
    fn cut_node_labels_free_at_its_nonterminal() {
        let t = fig4_target();
        let m = Matcher::new(&t);
        let reg = t.nt("reg").unwrap();
        let mut pool = record_ir::TreePool::new();
        // sub plainly costs MOVE a + ADDI 5 = 2 words to reg; cutting it
        // leaves the consumer only ADDI 9 = 1 word.
        let sub = Tree::bin(BinOp::Add, Tree::var("a"), Tree::constant(5));
        let whole = Tree::bin(BinOp::Add, sub.clone(), Tree::constant(9));
        let sub_id = pool.intern(&sub);
        let id = pool.intern(&whole);
        let mut cuts = CutSet::new();
        cuts.insert(sub_id, (0, reg));

        let mut cache = LabelCache::new();
        let labeled = m.label_interned_cut(&pool, sub_id, &mut cache, &cuts);
        let e = labeled.entries[reg.index()].unwrap();
        assert_eq!(e.rule, SHARED_RULE);
        assert_eq!(e.cost.weight(), 0);

        // the consumer's reduction bottoms out in the shared reference
        let mut cache = LabelCache::new();
        let cover = m.cover_interned_cut(&pool, id, &mut cache, reg, &cuts).unwrap();
        fn has_shared(node: &CoverNode) -> bool {
            node.rule == SHARED_RULE
                || node.operands.iter().any(|o| match o {
                    Operand::Derived(c) => has_shared(c),
                    Operand::Shared { .. } => true,
                    _ => false,
                })
        }
        assert!(has_shared(&cover.root), "{}", cover.root.dump(&t));
        // the plain cover must be strictly costlier than the cut one
        let mut plain = LabelCache::new();
        let uncut = m.cover_interned(&pool, id, &mut plain, reg).unwrap();
        assert!(cover.cost.weight() < uncut.cost.weight());
    }

    #[test]
    fn chain_rules_close_over_the_shared_entry() {
        // dsp56k: park a value in x; consumers needing a reach it through
        // the a←x move chain at the chain's cost, not by recomputation.
        let t = record_isa::targets::dsp56k::target();
        let m = Matcher::new(&t);
        let x = t.nt("x").unwrap();
        let a = t.nt("a").unwrap();
        let mut pool = record_ir::TreePool::new();
        let leaf = Tree::var("v");
        let id = pool.intern(&leaf);
        let mut cuts = CutSet::new();
        cuts.insert(id, (0, x));
        let mut cache = LabelCache::new();
        let labeled = m.label_interned_cut(&pool, id, &mut cache, &cuts);
        let free = labeled.entries[x.index()].unwrap();
        assert_eq!(free.rule, SHARED_RULE);
        let via_chain = labeled.entries[a.index()].unwrap();
        assert!(via_chain.cost.weight() > 0, "reaching a costs a move");
        let mut plain = LabelCache::new();
        let uncut = m.label_interned(&pool, id, &mut plain);
        assert!(
            via_chain.cost.weight() <= uncut.entries[a.index()].unwrap().cost.weight(),
            "the parked value is never worse than recomputing"
        );
    }

    /// One long-lived cache serves every cut set: covers through it equal
    /// covers from a fresh cache per cut set, a repeated cut set computes
    /// nothing, and only nodes with a cut inside get labels of their own.
    #[test]
    fn cut_labels_memoize_by_the_cuts_inside_each_subtree() {
        let t = record_isa::targets::dsp56k::target();
        let m = Matcher::new(&t);
        let (x, y) = (t.nt("x").unwrap(), t.nt("y").unwrap());
        let mul = |a: &str, b: &str| Tree::bin(BinOp::Mul, Tree::var(a), Tree::var(b));
        // (p*q + p*r) - s*q
        let whole = Tree::bin(
            BinOp::Sub,
            Tree::bin(BinOp::Add, mul("p", "q"), mul("p", "r")),
            mul("s", "q"),
        );
        let mut pool = record_ir::TreePool::new();
        let id = pool.intern(&whole);
        let p = pool.intern(&Tree::var("p"));
        let q = pool.intern(&Tree::var("q"));
        let pq = pool.intern(&mul("p", "q"));
        let cut_sets: Vec<CutSet> = vec![
            [(p, (0, x))].into_iter().collect(),
            [(q, (0, y))].into_iter().collect(),
            [(p, (0, x)), (q, (1, y))].into_iter().collect(),
            [(p, (0, y)), (q, (1, y))].into_iter().collect(),
            [(pq, (0, x)), (q, (1, y))].into_iter().collect(),
            // same cuts as the first, another slot: labels do not depend on slots
            [(p, (3, x))].into_iter().collect(),
        ];

        let mut cache = LabelCache::new();
        m.label_interned(&pool, id, &mut cache);
        let plain = cache.misses();
        m.label_interned_cut(&pool, id, &mut cache, &cut_sets[0]);
        // p, p*q, p*r, their sum and the root hold the cut; s*q replays
        assert_eq!(cache.misses() - plain, 5);

        for cuts in &cut_sets {
            for nt_ix in 0..t.nonterms.len() {
                let goal = record_isa::NonTermId(nt_ix as u16);
                let mut fresh = LabelCache::new();
                assert_eq!(
                    m.cover_interned_cut(&pool, id, &mut cache, goal, cuts),
                    m.cover_interned_cut(&pool, id, &mut fresh, goal, cuts),
                    "cuts {cuts:?} nt {nt_ix}"
                );
            }
        }
        let computed = cache.misses();
        for cuts in &cut_sets {
            m.label_interned_cut(&pool, id, &mut cache, cuts);
        }
        assert_eq!(cache.misses(), computed, "every cut context was already memoized");
    }

    #[test]
    fn cover_cost_matches_recomputation() {
        let t = record_isa::targets::tic25::target();
        let m = Matcher::new(&t);
        let acc = t.nt("acc").unwrap();
        let tree = fig4_tree();
        if let Some(cover) = m.cover(&tree, acc) {
            assert_eq!(cover.cost, cover.root.cost(&t));
        }
        let tree2 = Tree::bin(
            BinOp::Add,
            Tree::var("y"),
            Tree::bin(BinOp::Mul, Tree::var("c"), Tree::var("x")),
        );
        let cover = m.cover(&tree2, acc).unwrap();
        assert_eq!(cover.cost, cover.root.cost(&t));
    }

    #[test]
    fn tables_round_trip_structurally_equal() {
        for target in [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()]
        {
            let built = Tables::build(&target);
            let loaded = Tables::from_bytes(&built.to_bytes()).unwrap();
            assert_eq!(built, loaded, "{}", target.name);
            assert!(loaded.is_consistent_with(&target));
        }
    }

    #[test]
    fn loaded_tables_select_byte_identically() {
        let t = record_isa::targets::tic25::target();
        let built = Matcher::new(&t);
        let loaded = Tables::from_bytes(&Tables::build(&t).to_bytes()).unwrap();
        let from_disk = Matcher::with_tables(&t, Arc::new(loaded));
        let acc = t.nt("acc").unwrap();
        for tree in [
            fig4_tree(),
            Tree::bin(
                BinOp::Add,
                Tree::var("y"),
                Tree::bin(BinOp::Mul, Tree::var("c"), Tree::var("x")),
            ),
            Tree::un(record_ir::UnOp::Neg, Tree::var("x")),
        ] {
            let a = built.cover(&tree, acc);
            let b = from_disk.cover(&tree, acc);
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "covers diverge on {tree}");
                }
                (a, b) => assert_eq!(a.is_none(), b.is_none(), "coverability diverges on {tree}"),
            }
        }
    }

    #[test]
    fn corrupted_tables_bytes_error_instead_of_panicking() {
        let t = record_isa::targets::tic25::target();
        let bytes = Tables::build(&t).to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Tables::from_bytes(&bad).is_err(), "bit flip at {i} accepted");
        }
        for cut in 0..bytes.len() {
            assert!(Tables::from_bytes(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn inconsistent_tables_are_detected() {
        let tic = record_isa::targets::tic25::target();
        let tables = Tables::build(&tic);
        assert!(tables.is_consistent_with(&tic));
        // fewer rules than the tables index → ids out of range
        let mut shrunk = tic.clone();
        shrunk.rules.truncate(1);
        assert!(!tables.is_consistent_with(&shrunk));
        // different grammar size → nonterminal count mismatch
        let mut grown = tic.clone();
        grown.nonterms.push(grown.nonterms[0].clone());
        assert!(!tables.is_consistent_with(&grown));
    }
}
