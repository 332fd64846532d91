//! Labels: the per-node dynamic-programming state.

use std::num::NonZeroU16;

use record_ir::hash::FoldMap;
use record_ir::{Tree, TreeId};
use record_isa::{Cost, NonTermId, RuleId};

use crate::automaton::{Kid, StateRef};

/// The cheapest known derivation of a node to one nonterminal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Entry {
    /// Total cost of deriving the node (including subtrees) to the
    /// nonterminal.
    pub cost: Cost,
    /// The rule applied at this node to achieve it.
    pub rule: RuleId,
    /// Which form of the rule's pattern matched.
    pub(crate) form: Form,
}

/// Which form of its rule's pattern an [`Entry`] matched: the pattern as
/// written, or one of the grammar's commuted twins (by its index in the
/// normalized grammar). Never zero, so an `Option<Entry>` is no larger
/// than an `Entry`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Form(NonZeroU16);

const _: () = assert!(std::mem::size_of::<Option<Entry>>() == std::mem::size_of::<Entry>());

impl Form {
    /// The rule's pattern as written (and every chain rule).
    pub(crate) const WRITTEN: Form = match NonZeroU16::new(1) {
        Some(one) => Form(one),
        None => unreachable!(),
    };

    /// The grammar's twin `ix`.
    pub(crate) fn twin(ix: usize) -> Form {
        let n = u16::try_from(ix + 2).ok().and_then(NonZeroU16::new);
        Form(n.expect("fewer than 65534 twins"))
    }

    /// The index of the twin matched, if not the pattern as written.
    pub(crate) fn twin_index(self) -> Option<usize> {
        (self != Form::WRITTEN).then(|| usize::from(self.0.get()) - 2)
    }
}

/// A labelled tree: the subject tree plus, for every node, the best entry
/// per nonterminal.
///
/// Produced by [`Matcher::label`](crate::Matcher::label); consumed by
/// [`Matcher::reduce`](crate::Matcher::reduce).
#[derive(Clone, Debug)]
pub struct Labeled<'a> {
    /// The tree node this label belongs to.
    pub tree: &'a Tree,
    /// Labels of the node's children, in order.
    pub children: Vec<Labeled<'a>>,
    /// `entries[nt]` is the best derivation to nonterminal `nt`, if any.
    pub entries: Vec<Option<Entry>>,
}

impl<'a> Labeled<'a> {
    /// The best cost of deriving this node to `nt`, if derivable.
    pub fn cost(&self, nt: NonTermId) -> Option<Cost> {
        self.entries[nt.index()].map(|e| e.cost)
    }

    /// The winning rule for `nt`, if derivable.
    pub fn rule(&self, nt: NonTermId) -> Option<RuleId> {
        self.entries[nt.index()].map(|e| e.rule)
    }

    /// The nonterminals this node can be derived to.
    pub fn derivable(&self) -> Vec<NonTermId> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(|(i, _)| NonTermId(i as u16))
            .collect()
    }

    /// Total number of nodes in the labelled tree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(|c| c.node_count()).sum::<usize>()
    }
}

/// A handle to one label state in a [`LabelCache`]: an interned node's
/// best entry per nonterminal, plus the labels of its children.
///
/// Label state is context-free (the bottom-up dynamic program depends
/// only on the subtree and the grammar, and under DAG cuts only on the
/// cuts inside the subtree), so one state serves every occurrence of
/// its subtree: a subtree that appears in many variants is labelled
/// exactly once.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LabelId(u32);

/// The node a label state belongs to, the labels of its children, in
/// order (unused slots are `None`), and its automaton state and base
/// (see [`crate::automaton`]).
#[derive(Clone, Copy, Debug)]
struct Record {
    node: TreeId,
    kids: [Option<LabelId>; 2],
    state: StateRef,
    base: Cost,
}

/// An interned cut context: which cuts lie inside one node's subtree.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct ContextId(u32);

/// The cuts inside one subtree, built from the node's own cut (the
/// nonterminal it is parked in, if it is cut) and the contexts of its
/// children (`None` for a child whose subtree holds no cut).
///
/// Pool ids are canonical and a child's context is determined by the
/// cuts inside the parent's subtree, so two cut sets give a node the same
/// key exactly when they agree on the `(cut node, parked nonterminal)`
/// pairs inside its subtree. Shared-value slots are left out: labels do
/// not depend on them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct ContextKey {
    pub(crate) node: TreeId,
    pub(crate) parked: Option<NonTermId>,
    pub(crate) kids: [Option<ContextId>; 2],
}

/// Memoized label states in one flat store.
///
/// Every state is a fixed-size record: `n_nts` entry slots and one slot
/// per pattern fragment in two vectors, in label order, and the node
/// with its children's labels, its automaton state and its base in a
/// third. Cut-free states are found by [`TreeId`] (pool ids are dense,
/// so that is a vector index); states computed under DAG cuts by their
/// interned cut context. Labelling a node allocates nothing of its own:
/// the store grows, amortized, as the pool does.
///
/// Valid for one (pool, grammar) pair: the selector keeps one cache next
/// to its [`TreePool`](record_ir::TreePool) and clears both before every
/// compile. The grammar is the target's as written, or, after
/// [`set_twins`](LabelCache::set_twins), closed under commutation. A
/// subtree with no cut inside labels context-free, so cut-aware
/// labelling answers it from the same states plain labelling fills.
/// `hits` counts labellings answered from the cache (work avoided by
/// sharing); `misses` counts label states actually computed.
#[derive(Debug, Default)]
pub struct LabelCache {
    /// Whether labels weigh every pattern rule's commuted twins.
    twins: bool,
    /// Entry slots per label state: the grammar's nonterminal count.
    n_nts: usize,
    /// Fragment slots per label state.
    n_frags: usize,
    /// `n_nts` slots per label state, in label order.
    entries: Vec<Option<Entry>>,
    /// `n_frags` slots per label state: the cost of matching each
    /// pattern fragment at the node.
    frags: Vec<Option<Cost>>,
    records: Vec<Record>,
    /// The cut-free label state of each pool node, indexed by id.
    plain: Vec<Option<LabelId>>,
    context_ids: FoldMap<ContextKey, ContextId>,
    /// Per context id: its key and the label state computed under it.
    contexts: Vec<(ContextKey, Option<LabelId>)>,
    hits: u64,
    misses: u64,
}

impl LabelCache {
    /// An empty cache.
    pub fn new() -> Self {
        LabelCache::default()
    }

    /// Labellings answered from the cache — the `labels_memoized` counter.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Label states computed from scratch — the `labels_computed` counter.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached label states, cut-free and under cuts.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been labelled yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The best derivation of `label`'s node per nonterminal
    /// (`entries[nt]`, `None` when not derivable).
    pub fn entries(&self, label: LabelId) -> &[Option<Entry>] {
        let start = label.0 as usize * self.n_nts;
        &self.entries[start..start + self.n_nts]
    }

    /// The best cost of deriving `label`'s node to `nt`, if derivable.
    pub fn cost(&self, label: LabelId, nt: NonTermId) -> Option<Cost> {
        self.entries(label)[nt.index()].map(|e| e.cost)
    }

    /// Looks up the cut-free label state of `id`, counting a hit on
    /// success.
    pub fn lookup(&mut self, id: TreeId) -> Option<LabelId> {
        let found = self.plain.get(id.index()).copied().flatten();
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Drops every cached state and zeroes the counters, keeping the
    /// store's capacity: afterwards the cache behaves as
    /// [`LabelCache::new`], and the next labelling binds it to its
    /// grammar. Required when the backing pool or grammar changes.
    pub fn clear(&mut self) {
        self.drop_labels();
        self.twins = false;
        self.hits = 0;
        self.misses = 0;
    }

    /// Makes later labellings weigh every pattern rule's commuted twins
    /// (`on`) or only the rules as written (the default). A twin is the
    /// rule's pattern with the children of commutative operator nodes
    /// swapped: one labelling under twins covers every commuted form of
    /// the tree. Labels of the other grammar are dropped, and with them
    /// every [`LabelId`] handed out; the counters are kept.
    pub fn set_twins(&mut self, on: bool) {
        if self.twins != on {
            self.drop_labels();
            self.twins = on;
        }
    }

    /// Whether labellings weigh the commuted twins (see
    /// [`set_twins`](LabelCache::set_twins)).
    pub(crate) fn twins(&self) -> bool {
        self.twins
    }

    fn drop_labels(&mut self) {
        self.n_nts = 0;
        self.n_frags = 0;
        self.entries.clear();
        self.frags.clear();
        self.records.clear();
        self.plain.clear();
        self.context_ids.clear();
        self.contexts.clear();
    }

    /// Sizes the slots for a grammar of `n_nts` nonterminals and
    /// `n_frags` pattern fragments; the first labelling fixes them.
    pub(crate) fn bind(&mut self, n_nts: usize, n_frags: usize) {
        if self.records.is_empty() {
            self.n_nts = n_nts;
            self.n_frags = n_frags;
        }
        debug_assert_eq!(
            (self.n_nts, self.n_frags),
            (n_nts, n_frags),
            "label cache used with another grammar"
        );
    }

    /// Appends an empty label state for `node` over the labels `kids`.
    pub(crate) fn push(&mut self, node: TreeId, kids: [Option<LabelId>; 2]) -> LabelId {
        let label = LabelId(u32::try_from(self.records.len()).expect("label store overflow"));
        let (state, base) = (StateRef::default(), Cost::zero());
        self.records.push(Record { node, kids, state, base });
        self.entries.resize(self.entries.len() + self.n_nts, None);
        self.frags.resize(self.frags.len() + self.n_frags, None);
        label
    }

    /// Appends the label state for `node` over the labels `kids` in the
    /// automaton state `state` with base `base`: `entries` and `frags`,
    /// the state's, each raised by `base`.
    pub(crate) fn push_state(
        &mut self,
        node: TreeId,
        kids: [Option<LabelId>; 2],
        state: StateRef,
        base: Cost,
        entries: &[Option<Entry>],
        frags: &[Option<Cost>],
    ) -> LabelId {
        let label = LabelId(u32::try_from(self.records.len()).expect("label store overflow"));
        self.records.push(Record { node, kids, state, base });
        let raise = |e: &Option<Entry>| e.map(|e| Entry { cost: e.cost.add(base), ..e });
        self.entries.extend(entries.iter().map(raise));
        self.frags.extend(frags.iter().map(|c| c.map(|c| c.add(base))));
        label
    }

    /// The last label state's entry and fragment slots, writable, and a
    /// read view of every earlier state (its children among them).
    pub(crate) fn split_last(&mut self) -> (Labels<'_>, &mut [Option<Entry>], &mut [Option<Cost>]) {
        let (start, frags_start) =
            (self.entries.len() - self.n_nts, self.frags.len() - self.n_frags);
        let (done, last) = self.entries.split_at_mut(start);
        let (done_frags, last_frags) = self.frags.split_at_mut(frags_start);
        let labels = Labels {
            entries: done,
            frags: done_frags,
            records: &self.records,
            n_nts: self.n_nts,
            n_frags: self.n_frags,
        };
        (labels, last, last_frags)
    }

    /// Sets the automaton state and base of the last label state.
    pub(crate) fn set_last(&mut self, state: StateRef, base: Cost) {
        let last = self.records.last_mut().expect("a label state was pushed");
        last.state = state;
        last.base = base;
    }

    /// Replaces the automaton state of `label` by the same state of a
    /// newer generation.
    pub(crate) fn set_state(&mut self, label: LabelId, state: StateRef) {
        self.records[label.0 as usize].state = state;
    }

    /// A read view of every label state.
    pub(crate) fn labels(&self) -> Labels<'_> {
        Labels {
            entries: &self.entries,
            frags: &self.frags,
            records: &self.records,
            n_nts: self.n_nts,
            n_frags: self.n_frags,
        }
    }

    /// Records `label` as the cut-free state of `id`, counting a miss.
    pub(crate) fn store(&mut self, id: TreeId, label: LabelId) {
        self.misses += 1;
        if self.plain.len() <= id.index() {
            self.plain.resize(id.index() + 1, None);
        }
        self.plain[id.index()] = Some(label);
    }

    /// The id of the cut context `key`, interning it on first sight.
    pub(crate) fn intern_context(&mut self, key: ContextKey) -> ContextId {
        let next = ContextId(u32::try_from(self.contexts.len()).expect("cut context overflow"));
        let id = *self.context_ids.entry(key).or_insert(next);
        if id == next {
            self.contexts.push((key, None));
        }
        id
    }

    /// The key of an interned cut context.
    pub(crate) fn context(&self, context: ContextId) -> ContextKey {
        self.contexts[context.0 as usize].0
    }

    /// Looks up the label state computed under `context`, counting a hit
    /// on success.
    pub(crate) fn lookup_cut(&mut self, context: ContextId) -> Option<LabelId> {
        let found = self.contexts[context.0 as usize].1;
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Records `label` as the state computed under `context`, counting a
    /// miss.
    pub(crate) fn store_cut(&mut self, context: ContextId, label: LabelId) {
        self.misses += 1;
        self.contexts[context.0 as usize].1 = Some(label);
    }
}

/// A read view of label states: what matching and reduction look up.
#[derive(Clone, Copy)]
pub(crate) struct Labels<'a> {
    entries: &'a [Option<Entry>],
    frags: &'a [Option<Cost>],
    records: &'a [Record],
    n_nts: usize,
    n_frags: usize,
}

impl<'a> Labels<'a> {
    /// The entry of `label` for `nt`.
    pub(crate) fn entry(self, label: LabelId, nt: NonTermId) -> Option<Entry> {
        self.entries[label.0 as usize * self.n_nts + nt.index()]
    }

    /// The interned node `label` belongs to.
    pub(crate) fn node(self, label: LabelId) -> TreeId {
        self.records[label.0 as usize].node
    }

    /// The labels of the node's children, in order.
    pub(crate) fn children(self, label: LabelId) -> impl Iterator<Item = LabelId> + 'a {
        self.records[label.0 as usize].kids.into_iter().flatten()
    }

    /// The automaton state of `label`.
    pub(crate) fn state(self, label: LabelId) -> StateRef {
        self.records[label.0 as usize].state
    }

    /// The base of `label`: what its state's costs are shifted by.
    pub(crate) fn base(self, label: LabelId) -> Cost {
        self.records[label.0 as usize].base
    }

    /// `label` as the dynamic program reads a child: its entries and
    /// fragment slots, each less `shift` (its base, to read its state;
    /// zero, to read its costs).
    pub(crate) fn kid(self, label: LabelId, shift: Cost) -> Kid<'a> {
        let ix = label.0 as usize;
        Kid {
            entries: &self.entries[ix * self.n_nts..(ix + 1) * self.n_nts],
            frags: &self.frags[ix * self.n_frags..(ix + 1) * self.n_frags],
            shift,
        }
    }
}
