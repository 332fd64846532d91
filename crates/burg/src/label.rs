//! Labels: the per-node dynamic-programming state.

use record_ir::hash::FoldMap;
use record_ir::{Tree, TreeId};
use record_isa::{Cost, NonTermId, RuleId};

/// The cheapest known derivation of a node to one nonterminal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Entry {
    /// Total cost of deriving the node (including subtrees) to the
    /// nonterminal.
    pub cost: Cost,
    /// The rule applied at this node to achieve it.
    pub rule: RuleId,
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

/// The node a label state belongs to and the labels of its children, in
/// order (unused slots are `None`).
#[derive(Clone, Copy, Debug)]
struct Record {
    node: TreeId,
    kids: [Option<LabelId>; 2],
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
/// Every state is a fixed-size record: `n_nts` entry slots in one
/// vector, in label order, and the node with its children's labels in
/// another. Cut-free states are found by [`TreeId`] (pool ids are dense,
/// so that is a vector index); states computed under DAG cuts by their
/// interned cut context. Labelling a node allocates nothing of its own:
/// the store grows, amortized, as the pool does.
///
/// Valid for one (pool, grammar) pair: the selector keeps one cache next
/// to its [`TreePool`](record_ir::TreePool) and clears both before every
/// compile. A subtree with no cut inside labels context-free, so
/// cut-aware labelling answers it from the same states plain labelling
/// fills. `hits` counts labellings answered from the cache (work avoided
/// by sharing); `misses` counts label states actually computed.
#[derive(Debug, Default)]
pub struct LabelCache {
    /// Entry slots per label state: the grammar's nonterminal count.
    n_nts: usize,
    /// `n_nts` slots per label state, in label order.
    entries: Vec<Option<Entry>>,
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
        self.n_nts = 0;
        self.entries.clear();
        self.records.clear();
        self.plain.clear();
        self.context_ids.clear();
        self.contexts.clear();
        self.hits = 0;
        self.misses = 0;
    }

    /// Sizes the entry slots for a grammar of `n_nts` nonterminals; the
    /// first labelling fixes it.
    pub(crate) fn bind(&mut self, n_nts: usize) {
        if self.records.is_empty() {
            self.n_nts = n_nts;
        }
        debug_assert_eq!(self.n_nts, n_nts, "label cache used with another grammar");
    }

    /// Appends an empty label state for `node` over the labels `kids`.
    pub(crate) fn push(&mut self, node: TreeId, kids: [Option<LabelId>; 2]) -> LabelId {
        let label = LabelId(u32::try_from(self.records.len()).expect("label store overflow"));
        self.records.push(Record { node, kids });
        self.entries.resize(self.entries.len() + self.n_nts, None);
        label
    }

    /// The last label state's entry slots, writable, and a read view of
    /// every earlier state (its children among them).
    pub(crate) fn split_last(&mut self) -> (Labels<'_>, &mut [Option<Entry>]) {
        let start = self.entries.len() - self.n_nts;
        let (done, last) = self.entries.split_at_mut(start);
        (Labels { entries: done, records: &self.records, n_nts: self.n_nts }, last)
    }

    /// A read view of every label state.
    pub(crate) fn labels(&self) -> Labels<'_> {
        Labels { entries: &self.entries, records: &self.records, n_nts: self.n_nts }
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
    records: &'a [Record],
    n_nts: usize,
}

impl<'a> Labels<'a> {
    /// The entry of `label` for `nt`.
    pub(crate) fn entry(self, label: LabelId, nt: NonTermId) -> Option<Entry> {
        self.entries[label.0 as usize * self.n_nts + nt.index()]
    }

    /// The best cost of deriving `label`'s node to `nt`, if derivable.
    pub(crate) fn cost(self, label: LabelId, nt: NonTermId) -> Option<Cost> {
        self.entry(label, nt).map(|e| e.cost)
    }

    /// The interned node `label` belongs to.
    pub(crate) fn node(self, label: LabelId) -> TreeId {
        self.records[label.0 as usize].node
    }

    /// The labels of the node's children, in order.
    pub(crate) fn children(self, label: LabelId) -> impl Iterator<Item = LabelId> + 'a {
        self.records[label.0 as usize].kids.into_iter().flatten()
    }
}
