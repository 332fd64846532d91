//! The matcher: table generation, bottom-up labelling, top-down reduction.

use std::sync::{Arc, OnceLock};

use record_ir::hash::FoldMap;
use record_ir::{Op, Tree, TreeId, TreeNode, TreePool};
use record_isa::{Cost, NonTermId, PatNode, Predicate, Rhs, RuleId, TargetDesc};
use record_trace::codec;

use crate::automaton::{add_base, shift_to_zero, Automaton, FormNode, Kid, Reader, Shape};
use crate::cover::{Cover, CoverBuf, CoverNode, FlatOperand, Operand, SHARED_RULE};
use crate::label::{ContextId, ContextKey, Entry, Form, LabelCache, LabelId, Labeled, Labels};

/// The cut set for DAG covering: interned subtrees whose value is
/// computed once per block and parked in a register. Each cut maps the
/// subtree to its shared-value slot and the nonterminal it is parked in.
///
/// Labelling under a cut set seeds a zero-cost [`SHARED_RULE`] entry at
/// every cut node *before* chain closure, so consumers reach the parked
/// value through the grammar's ordinary move chains. A node's label under
/// a cut set depends only on the cuts inside its subtree (its cut
/// context), so one long-lived [`LabelCache`] serves every cut set: each
/// label is memoized under that context, and cut-free subtrees share the
/// plain entries.
pub type CutSet = FoldMap<TreeId, (usize, NonTermId)>;

/// The generated matcher tables for one target grammar: pattern rules
/// indexed by root operator and chain rules by source nonterminal, and
/// the tree-parsing automaton that labelling grows on demand (see
/// [`Matcher::label_interned`]).
///
/// Building them is the per-target "generation" step iburg performs
/// offline. The rule index is immutable once built; the automaton is
/// shared, so a single `Arc<Tables>` can back any number of
/// [`Matcher`]s — including matchers running concurrently on different
/// threads — and every compile labels from the states earlier ones left.
/// Equality and serialization see the rule index only.
#[derive(Debug)]
pub struct Tables {
    /// Pattern rules grouped by root operator, in rule order within each
    /// group: the rules of the operator with [`Op::index`] `o` are
    /// `rules[op_starts[o]..op_starts[o + 1]]`.
    rules: Vec<RuleId>,
    op_starts: [u32; Op::COUNT + 1],
    /// Chain rules indexed by *source* nonterminal.
    chains: Vec<RuleId>,
    n_nts: usize,
    /// The grammar normalized one pattern level per rule, built on first
    /// use.
    shape: OnceLock<Shape>,
    automaton: Automaton,
}

impl PartialEq for Tables {
    fn eq(&self, other: &Tables) -> bool {
        (&self.rules, &self.op_starts, &self.chains, self.n_nts)
            == (&other.rules, &other.op_starts, &other.chains, other.n_nts)
    }
}

impl Eq for Tables {}

/// Magic bytes of a serialized [`Tables`] file.
const TABLES_MAGIC: &[u8; 8] = b"RECBURS\0";
/// Format version of a serialized [`Tables`] file. Bump on any layout
/// change *and* whenever [`Op::index`] numbering changes — the on-disk
/// index is meaningless under a different operator numbering.
const TABLES_VERSION: u32 = 1;

impl Tables {
    /// Generates the tables for a target grammar. The automaton starts
    /// empty; the grammar is normalized for it, and room reserved, on
    /// first use (see [`prepare`](Tables::prepare)).
    pub fn build(target: &TargetDesc) -> Self {
        let mut op_starts = [0u32; Op::COUNT + 1];
        let mut chains = Vec::new();
        for rule in &target.rules {
            match &rule.rhs {
                Rhs::Pat(PatNode::Op(op, _)) => op_starts[op.index() + 1] += 1,
                Rhs::Pat(PatNode::Nt(_)) => {
                    // A bare-nonterminal pattern is just a chain rule in
                    // disguise; treat it as such.
                    chains.push(rule.id);
                }
                Rhs::Chain(_) => chains.push(rule.id),
            }
        }
        for o in 0..Op::COUNT {
            op_starts[o + 1] += op_starts[o];
        }
        let mut rules = vec![RuleId(0); op_starts[Op::COUNT] as usize];
        let mut next = op_starts;
        for rule in &target.rules {
            if let Rhs::Pat(PatNode::Op(op, _)) = &rule.rhs {
                rules[next[op.index()] as usize] = rule.id;
                next[op.index()] += 1;
            }
        }
        let n_nts = target.nonterms.len();
        Tables {
            rules,
            op_starts,
            chains,
            n_nts,
            shape: OnceLock::new(),
            automaton: Automaton::default(),
        }
    }

    /// The pattern rules rooted at `op`, in rule order.
    pub(crate) fn rules_for(&self, op: Op) -> &[RuleId] {
        let o = op.index();
        &self.rules[self.op_starts[o] as usize..self.op_starts[o + 1] as usize]
    }

    /// The normalized grammar of `target`, the grammar these tables were
    /// built from.
    fn shape(&self, target: &TargetDesc) -> &Shape {
        self.shape.get_or_init(|| {
            let shape = Shape::new(target);
            self.automaton.reserve(self.n_nts, shape.n_frags());
            shape
        })
    }

    /// Readies the label automaton for `target`, the grammar the tables
    /// were built from, now rather than at the first labelling: it
    /// normalizes the grammar (one operator level per pattern rule, a
    /// slot per inner pattern node), gives every pattern rule its
    /// commuted twins (the pattern with the children of commutative
    /// operator nodes swapped, each leaf bound to the rule operand slot
    /// it came from), and reserves room for the states and transitions
    /// the ten DSPStone kernels take. An owner that builds its tables
    /// once and compiles many times calls it up front, so that no
    /// compile pays for it or allocates for the automaton.
    pub fn prepare(&self, target: &TargetDesc) {
        self.shape(target);
    }

    /// `(states, transitions)` the automaton holds now: how many distinct
    /// labels, shifted to zero, and how many (operator, constant class,
    /// child states) keys labelling has met since the tables were built
    /// or the automaton was last cleared (at [`MAX_AUTOMATON_SIZE`]).
    ///
    /// [`MAX_AUTOMATON_SIZE`]: crate::MAX_AUTOMATON_SIZE
    pub fn automaton_size(&self) -> (usize, usize) {
        self.automaton.size()
    }

    /// Number of nonterminals the tables were generated for.
    pub fn n_nonterms(&self) -> usize {
        self.n_nts
    }

    /// Number of indexed pattern rules (diagnostic).
    pub fn n_pattern_rules(&self) -> usize {
        self.rules.len()
    }

    /// Number of indexed chain rules (diagnostic).
    pub fn n_chain_rules(&self) -> usize {
        self.chains.len()
    }

    /// Serializes the tables into a self-contained, checksummed binary
    /// blob (versioned header, length-prefixed rule lists, FNV trailer —
    /// see [`record_trace::codec`]), which [`from_bytes`](Tables::from_bytes)
    /// reads back. The compiler itself stores no tables: decoding them
    /// costs no more than [`build`](Tables::build)ing them.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = codec::ByteWriter::new();
        w.u32(self.n_nts as u32);
        w.u32(Op::COUNT as u32);
        for rules in self.op_starts.windows(2) {
            w.u32(rules[1] - rules[0]);
            for r in &self.rules[rules[0] as usize..rules[1] as usize] {
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
    /// Every failure mode of a stored blob — truncation, a flipped bit,
    /// a stale format version, an operator-count mismatch with the
    /// running build — comes back as a [`codec::CodecError`], never a
    /// panic.
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
        // every rule id is a word of the payload
        let mut rules = Vec::with_capacity(payload.len() / 4);
        let mut op_starts = [0u32; Op::COUNT + 1];
        for o in 0..n_ops {
            let n = r.seq_len(4)?;
            for _ in 0..n {
                rules.push(RuleId(r.u32()?));
            }
            op_starts[o + 1] = rules.len() as u32;
        }
        let n_chains = r.seq_len(4)?;
        let mut chains = Vec::with_capacity(n_chains);
        for _ in 0..n_chains {
            chains.push(RuleId(r.u32()?));
        }
        r.finish()?;
        let automaton = Automaton::default();
        Ok(Tables { rules, op_starts, chains, n_nts, shape: OnceLock::new(), automaton })
    }

    /// Whether these (possibly deserialized) tables are structurally
    /// plausible for `target`: same nonterminal count, every indexed
    /// rule id within the target's rule table. This is the sanity gate
    /// for deserialized tables — it cannot prove the tables were
    /// generated from *this* grammar, but it does guarantee that every
    /// table lookup the matcher performs stays in bounds.
    pub fn is_consistent_with(&self, target: &TargetDesc) -> bool {
        self.n_nts == target.nonterms.len()
            && self.rules.iter().chain(&self.chains).all(|r| (r.0 as usize) < target.rules.len())
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
        for rule_id in self.tables.rules_for(tree.op()) {
            let rule = self.target.rule(*rule_id);
            let pat = match &rule.rhs {
                Rhs::Pat(p) => p,
                Rhs::Chain(_) => unreachable!("indexed as pattern"),
            };
            if let Some(cost) = self.match_cost(pat, tree, &children, rule.pred) {
                let total = cost.add(rule.cost);
                improve(&mut entries, rule.lhs, total, *rule_id, Form::WRITTEN);
            }
        }

        // 2. chain-rule closure to a fixpoint
        self.close_chains(&mut entries);

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
    /// bottom-up, answering every already-seen subtree from `cache`, and
    /// returns the label state of `id`.
    ///
    /// A node `cache` has not seen is labelled by its transition in the
    /// tables' automaton: one lookup of its operator, the class of its
    /// constant and its children's states, shared by every compile of
    /// the grammar. Only a transition no labelling has taken yet runs the
    /// dynamic program, and records it. Either way the entries equal what
    /// [`label`](Matcher::label) computes on the extracted boxed tree,
    /// or, when the cache weighs twins ([`LabelCache::set_twins`]), what
    /// the best of every commuted form of the tree costs. The cache must
    /// be used with one pool and one grammar.
    pub fn label_interned(&self, pool: &TreePool, id: TreeId, cache: &mut LabelCache) -> LabelId {
        let shape = self.tables.shape(self.target);
        cache.bind(self.tables.n_nts, shape.n_frags());
        let mut reader = self.tables.automaton.reader();
        self.label_interned_impl(shape, &mut reader, pool, id, cache, None)
    }

    /// Labels `id` under a DAG cut set: every cut node additionally gets
    /// a zero-cost [`SHARED_RULE`] entry at its parked nonterminal,
    /// seeded between pattern matching and chain closure so move chains
    /// from the parked register apply. Multi-level patterns may still
    /// match *through* a cut node — that is the recompute alternative
    /// the cost comparison weighs against the share.
    ///
    /// `cache` is the same long-lived cache plain labelling uses: every
    /// node with a cut inside is memoized under its interned cut context
    /// (the cuts inside its subtree), and a subtree without cuts is
    /// answered from (or added to) the plain states. A cut node's shared
    /// entry is free in absolute terms, so its state depends on its
    /// costs, not only on its children's states: it always runs the
    /// dynamic program. Its parents follow transitions as any node does.
    ///
    /// A node with a cut inside weighs the rules as written only, even
    /// when the cache weighs twins: the cut cover stays a cover of the
    /// statement as written, which the share-or-recompute choice
    /// weighs against the statement's best plain cover. (Twins there
    /// would let a share reorder a consumer's operands; on dsp56k that
    /// takes a second share in `iir_biquad_one_section` and moves two
    /// listings.)
    pub fn label_interned_cut(
        &self,
        pool: &TreePool,
        id: TreeId,
        cache: &mut LabelCache,
        cuts: &CutSet,
    ) -> LabelId {
        let shape = self.tables.shape(self.target);
        cache.bind(self.tables.n_nts, shape.n_frags());
        let context =
            cuts.keys().min().and_then(|&first| cut_context(pool, id, cuts, first, cache));
        let mut reader = self.tables.automaton.reader();
        self.label_interned_impl(shape, &mut reader, pool, id, cache, context)
    }

    /// Labels `id`; under a cut `context` every node with a cut inside is
    /// labelled under its own context (every other node is cut-free).
    fn label_interned_impl(
        &self,
        shape: &Shape,
        reader: &mut Reader<'_>,
        pool: &TreePool,
        id: TreeId,
        cache: &mut LabelCache,
        context: Option<ContextId>,
    ) -> LabelId {
        let hit = match context {
            Some(context) => cache.lookup_cut(context),
            None => cache.lookup(id),
        };
        if let Some(hit) = hit {
            return hit;
        }
        // below a cut-free node every node is cut-free: label plainly
        let (parked, inner) = match context {
            Some(context) => {
                let key = cache.context(context);
                (key.parked, key.kids)
            }
            None => (None, [None, None]),
        };
        let mut label =
            |c, context| Some(self.label_interned_impl(shape, reader, pool, c, cache, context));
        let node = pool.node(id);
        let kids = match *node {
            TreeNode::Bin(_, a, b) => [label(a, inner[0]), label(b, inner[1])],
            TreeNode::Un(_, a) => [label(a, inner[0]), None],
            TreeNode::Const(_) | TreeNode::Mem(_) | TreeNode::Temp(_) => [None, None],
        };
        let twins = context.is_none() && cache.twins();
        let label = match parked {
            None => self.follow(shape, reader, (id, node, twins), kids, cache),
            Some(nt) => self.label_cut_node(shape, reader, id, node, kids, cache, nt),
        };
        match context {
            Some(context) => cache.store_cut(context, label),
            None => cache.store(id, label),
        }
        label
    }

    /// Labels `id`, the pool node `node` over the labels `kids`, weighing
    /// the commuted twins when `twins`, by the node's transition. On a
    /// miss it runs the dynamic program over the children shifted to
    /// their states, and records the transition.
    fn follow(
        &self,
        shape: &Shape,
        reader: &mut Reader<'_>,
        (id, node, twins): (TreeId, &TreeNode, bool),
        kids: [Option<LabelId>; 2],
        cache: &mut LabelCache,
    ) -> LabelId {
        let step = shape.step(node, twins);
        let labels = cache.labels();
        let states = kids.map(|kid| kid.map(|kid| labels.state(kid)));
        let kids_base = kids.iter().flatten().fold(Cost::zero(), |b, &kid| b.add(labels.base(kid)));
        let (n_nts, n_frags) = (self.tables.n_nts, shape.n_frags());
        if let Some((state, shift, entries, frags)) = reader.follow(step, states, n_nts, n_frags) {
            return cache.push_state(id, kids, state, kids_base.add(shift), entries, frags);
        }
        let label = cache.push(id, kids);
        let (labels, entries, frags) = cache.split_last();
        let views = kids.map(|kid| kid.map(|kid| labels.kid(kid, labels.base(kid))));
        self.label_state(shape, node, &views, (twins, None), entries, frags);
        let shift = shift_to_zero(entries, frags);
        let known = [states[0].zip(views[0]), states[1].zip(views[1])];
        let (state, current) = reader.insert(step, known, entries, frags, shift);
        let base = kids_base.add(shift);
        add_base(entries, frags, base);
        cache.set_last(state, base);
        for ((kid, old), new) in kids.into_iter().zip(states).zip(current) {
            if let (Some(kid), Some(new)) = (kid, new) {
                if old != Some(new) {
                    cache.set_state(kid, new);
                }
            }
        }
        label
    }

    /// Labels `id`, the cut node `node` over the labels `kids`, parked at
    /// `parked`: the dynamic program in absolute costs over the rules as
    /// written, its result interned as a state.
    #[allow(clippy::too_many_arguments)]
    fn label_cut_node(
        &self,
        shape: &Shape,
        reader: &mut Reader<'_>,
        id: TreeId,
        node: &TreeNode,
        kids: [Option<LabelId>; 2],
        cache: &mut LabelCache,
        parked: NonTermId,
    ) -> LabelId {
        let label = cache.push(id, kids);
        let (labels, entries, frags) = cache.split_last();
        let views = kids.map(|kid| kid.map(|kid| labels.kid(kid, Cost::zero())));
        self.label_state(shape, node, &views, (false, Some(parked)), entries, frags);
        let base = shift_to_zero(entries, frags);
        let state = reader.intern(entries, frags);
        add_base(entries, frags, base);
        cache.set_last(state, base);
        label
    }

    /// The dynamic program at one node: `node` over the children `kids`,
    /// weighing the commuted twins when `twins`, parked at `parked` when
    /// it is a cut node. Writes the best entry per nonterminal to
    /// `entries`, which start empty, and the cost of each pattern
    /// fragment the node matches to `frags`.
    fn label_state(
        &self,
        shape: &Shape,
        node: &TreeNode,
        kids: &[Option<Kid<'_>>; 2],
        (twins, parked): (bool, Option<NonTermId>),
        entries: &mut [Option<Entry>],
        frags: &mut [Option<Cost>],
    ) {
        let value = match *node {
            TreeNode::Const(v) => Some(v),
            _ => None,
        };
        let op = node.op();

        // 1. structural pattern rules rooted at this operator, whose
        // inner operators the children's fragment slots have matched
        for rule_id in self.tables.rules_for(op) {
            let Some(level) = shape.rule_level(*rule_id) else { continue };
            if let Some(cost) = shape.level_cost(level, value, kids) {
                let rule = self.target.rule(*rule_id);
                improve(entries, rule.lhs, cost.add(rule.cost), *rule_id, Form::WRITTEN);
            }
        }

        // 1a. their commuted twins, after every rule as written: a twin
        // wins only where it is strictly cheaper
        if twins {
            for (ix, twin) in shape.twins_for(op) {
                if let Some(cost) = shape.level_cost(twin.level, value, kids) {
                    let rule = self.target.rule(twin.rule);
                    improve(entries, rule.lhs, cost.add(rule.cost), twin.rule, Form::twin(ix));
                }
            }
        }

        // 1b. a cut node's value is already parked: free at its
        // nonterminal, before chains so moves out of it close normally
        if let Some(nt) = parked {
            improve(entries, nt, Cost::zero(), SHARED_RULE, Form::WRITTEN);
        }

        // 2. chain-rule closure to a fixpoint
        self.close_chains(entries);

        // 3. the pattern fragments the node matches, for its parents
        // (without twins, the slots only twins use stay empty)
        for (slot, &(frag_op, level)) in frags.iter_mut().zip(shape.frags(twins)) {
            if frag_op == op {
                *slot = shape.level_cost(level, value, kids);
            }
        }
    }

    /// Whether a node with operator `op`, labelled with the rules as
    /// written (as every node with a cut inside is), reads its child at
    /// `position` at nonterminal `nt`: some pattern rule rooted at `op`,
    /// or some inner node of a pattern with operator `op`, takes that
    /// child as an `nt` leaf. When no parent of a cut node reads it at a
    /// nonterminal the cut makes cheaper, the cut lowers no cost above it.
    pub fn reads_child_at(&self, op: Op, position: usize, nt: NonTermId) -> bool {
        self.tables.shape(self.target).reads(self.tables.rules_for(op), op, position, nt)
    }

    /// The cheapest chain derivations from a value held at `from`:
    /// `entries[n]` is the cost of reaching nonterminal `n` from `from`
    /// by chain rules (zero at `from`), `None` where no chain leads.
    /// What a cut node parked at `from` adds to its label.
    pub fn chain_costs(&self, from: NonTermId, entries: &mut Vec<Option<Entry>>) {
        entries.clear();
        entries.resize(self.tables.n_nts, None);
        improve(entries, from, Cost::zero(), SHARED_RULE, Form::WRITTEN);
        self.close_chains(entries);
    }

    /// Closes `entries` over the chain rules, to a fixpoint.
    fn close_chains(&self, entries: &mut [Option<Entry>]) {
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
                    if improve(entries, rule.lhs, total, *rule_id, Form::WRITTEN) {
                        changed = true;
                    }
                }
            }
        }
    }

    /// Interned counterpart of [`reduce`](Matcher::reduce): the cover of
    /// `label` (a state in `cache`) for `goal`.
    pub fn reduce_interned(
        &self,
        pool: &TreePool,
        cache: &LabelCache,
        label: LabelId,
        goal: NonTermId,
    ) -> Option<CoverNode> {
        let mut buf = CoverBuf::default();
        let root = self.reduce_into(pool, cache, label, goal, None, &mut buf)?;
        Some(buf.to_tree(root))
    }

    /// Reduces labels computed by
    /// [`label_interned_cut`](Matcher::label_interned_cut): wherever the
    /// label chose the zero-cost shared entry, the derivation bottoms
    /// out in a [`SHARED_RULE`] node referencing the parked value.
    pub fn reduce_interned_cut(
        &self,
        pool: &TreePool,
        cache: &LabelCache,
        label: LabelId,
        goal: NonTermId,
        cuts: &CutSet,
    ) -> Option<CoverNode> {
        let mut buf = CoverBuf::default();
        let root = self.reduce_into(pool, cache, label, goal, Some(cuts), &mut buf)?;
        Some(buf.to_tree(root))
    }

    /// Reduces `label` for `goal` into `buf` — under `cuts` when the
    /// label was computed under them — and returns the cover's root node.
    /// On `None` (not derivable) `buf` may hold part of a cover.
    pub fn reduce_into(
        &self,
        pool: &TreePool,
        cache: &LabelCache,
        label: LabelId,
        goal: NonTermId,
        cuts: Option<&CutSet>,
        buf: &mut CoverBuf,
    ) -> Option<usize> {
        self.reduce_flat(pool, cache.labels(), label, goal, cuts, buf)
    }

    fn reduce_flat(
        &self,
        pool: &TreePool,
        labels: Labels<'_>,
        label: LabelId,
        goal: NonTermId,
        cuts: Option<&CutSet>,
        buf: &mut CoverBuf,
    ) -> Option<usize> {
        let entry = labels.entry(label, goal)?;
        if entry.rule == SHARED_RULE {
            let cuts = cuts.expect("shared entry without a cut set");
            let (slot, nt) = *cuts.get(&labels.node(label))?;
            debug_assert_eq!(nt, goal, "shared entries live at the parked nonterminal");
            let (node, at) = buf.push_node(SHARED_RULE, 1);
            buf.set_operand(at, FlatOperand::Shared { slot, nt });
            return Some(node);
        }
        let rule = self.target.rule(entry.rule);
        match &rule.rhs {
            Rhs::Chain(src) | Rhs::Pat(PatNode::Nt(src)) => {
                let (node, at) = buf.push_node(entry.rule, 1);
                let inner = self.reduce_flat(pool, labels, label, *src, cuts, buf)?;
                buf.set_operand(at, FlatOperand::Derived(inner));
                Some(node)
            }
            Rhs::Pat(pat) => {
                let (node, at) = buf.push_node(entry.rule, operand_count(pat));
                let pat = self.tables.shape(self.target).pattern(entry.rule, entry.form);
                self.reduce_pattern_flat(pat, pool, labels, label, at, cuts, buf)?;
                Some(node)
            }
        }
    }

    /// Fills the operand slots of a node whose first slot is `at` with the
    /// bindings of `pat` (its rule's pattern as written or a twin)
    /// matched at `label`'s node, each leaf's in the rule operand slot it
    /// came from.
    #[allow(clippy::too_many_arguments)]
    fn reduce_pattern_flat(
        &self,
        pat: &FormNode,
        pool: &TreePool,
        labels: Labels<'_>,
        label: LabelId,
        at: usize,
        cuts: Option<&CutSet>,
        buf: &mut CoverBuf,
    ) -> Option<()> {
        match pat {
            FormNode::Nt(nt, slot) => {
                let child = self.reduce_flat(pool, labels, label, *nt, cuts, buf)?;
                buf.set_operand(at + usize::from(*slot), FlatOperand::Derived(child));
            }
            FormNode::Leaf(_, slot, _) => {
                let bound = match pool.node(labels.node(label)) {
                    TreeNode::Const(v) => FlatOperand::Const(*v),
                    TreeNode::Mem(m) => FlatOperand::Mem(m.clone()),
                    TreeNode::Temp(t) => FlatOperand::Temp(t.clone()),
                    TreeNode::Bin(..) | TreeNode::Un(..) => {
                        unreachable!("reduce follows the label")
                    }
                };
                buf.set_operand(at + usize::from(*slot), bound);
            }
            FormNode::Op(op, children) => {
                debug_assert_eq!(pool.op(labels.node(label)), *op, "reduce follows the label");
                for (pc, nc) in children.iter().zip(labels.children(label)) {
                    self.reduce_pattern_flat(pc, pool, labels, nc, at, cuts, buf)?;
                }
            }
        }
        Some(())
    }

    /// Interned counterpart of [`cover`](Matcher::cover).
    pub fn cover_interned(
        &self,
        pool: &TreePool,
        id: TreeId,
        cache: &mut LabelCache,
        goal: NonTermId,
    ) -> Option<Cover> {
        let label = self.label_interned(pool, id, cache);
        let cost = cache.cost(label, goal)?;
        let root = self.reduce_interned(pool, cache, label, goal)?;
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
        let label = self.label_interned_cut(pool, id, cache, cuts);
        let cost = cache.cost(label, goal)?;
        let root = self.reduce_interned_cut(pool, cache, label, goal, cuts)?;
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
        let label = match cuts {
            Some(cuts) => self.label_interned_cut(pool, id, cache, cuts),
            None => self.label_interned(pool, id, cache),
        };
        let (nt, derive_cost) = best_candidate(cache.entries(label), candidates)?;
        let mut buf = CoverBuf::default();
        let root = self.reduce_into(pool, cache, label, nt, cuts, &mut buf)?;
        Some((nt, Cover { root: buf.to_tree(root), cost: derive_cost }))
    }
}

/// The cheapest of `candidates` — `(nonterminal, extra cost)` pairs, the
/// extra being the store that follows — that a node with the label
/// `entries` derives to, as `(nonterminal, derivation cost)`. Ties go to
/// the earlier candidate (strict improvement), as in
/// [`Matcher::best_cover`].
///
/// Reads the label only: a caller that just compares weights never pays
/// for a reduction, and one that does reduce gets the same cover
/// [`Matcher::best_cover_interned`] would have built.
pub fn best_candidate(
    entries: &[Option<Entry>],
    candidates: &[(NonTermId, Cost)],
) -> Option<(NonTermId, Cost)> {
    let mut best: Option<(NonTermId, Cost, u64)> = None; // (nt, derive, total weight)
    for (nt, extra) in candidates {
        if let Some(c) = entries[nt.index()].map(|e| e.cost) {
            let total = c.add(*extra).weight();
            if best.map_or(true, |(_, _, bt)| total < bt) {
                best = Some((*nt, c, total));
            }
        }
    }
    best.map(|(nt, c, _)| (nt, c))
}

/// The number of operands a reduction binds for `pat`: one per
/// nonterminal leaf and one per leaf operator (constant, memory or
/// temporary), in pre-order.
fn operand_count(pat: &PatNode) -> usize {
    match pat {
        PatNode::Nt(_) => 1,
        PatNode::Op(op, children) => {
            usize::from(op.is_leaf()) + children.iter().map(operand_count).sum::<usize>()
        }
    }
}

/// The interned cut context of `id` under `cuts`, or `None` when its
/// subtree holds no cut. `first` is the smallest cut id: pool ids grow
/// from children to parents, so a node with a smaller id has no cut
/// inside.
fn cut_context(
    pool: &TreePool,
    id: TreeId,
    cuts: &CutSet,
    first: TreeId,
    cache: &mut LabelCache,
) -> Option<ContextId> {
    if id < first {
        return None;
    }
    let parked = cuts.get(&id).map(|&(_, nt)| nt);
    let mut inner = |c| cut_context(pool, c, cuts, first, cache);
    let kids = match *pool.node(id) {
        TreeNode::Bin(_, a, b) => [inner(a), inner(b)],
        TreeNode::Un(_, a) => [inner(a), None],
        TreeNode::Const(_) | TreeNode::Mem(_) | TreeNode::Temp(_) => [None, None],
    };
    if parked.is_none() && kids == [None, None] {
        return None;
    }
    Some(cache.intern_context(ContextKey { node: id, parked, kids }))
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

#[cfg(test)]
mod reference;

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
        let cuts = CutSet::default();
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
        let mut cuts = CutSet::default();
        cuts.insert(sub_id, (0, reg));

        let mut cache = LabelCache::new();
        let labeled = m.label_interned_cut(&pool, sub_id, &mut cache, &cuts);
        let e = cache.entries(labeled)[reg.index()].unwrap();
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
        let mut cuts = CutSet::default();
        cuts.insert(id, (0, x));
        let mut cache = LabelCache::new();
        let labeled = m.label_interned_cut(&pool, id, &mut cache, &cuts);
        let free = cache.entries(labeled)[x.index()].unwrap();
        assert_eq!(free.rule, SHARED_RULE);
        let via_chain = cache.entries(labeled)[a.index()].unwrap();
        assert!(via_chain.cost.weight() > 0, "reaching a costs a move");
        let mut plain = LabelCache::new();
        let uncut = m.label_interned(&pool, id, &mut plain);
        assert!(
            via_chain.cost.weight() <= plain.entries(uncut)[a.index()].unwrap().cost.weight(),
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
