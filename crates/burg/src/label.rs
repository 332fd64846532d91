//! Labels: the per-node dynamic-programming state.

use std::collections::HashMap;
use std::sync::Arc;

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

/// A labelled *interned* tree node — the hash-consed counterpart of
/// [`Labeled`].
///
/// Label state is context-free (the bottom-up dynamic program depends
/// only on the subtree and the grammar), so nodes are shared behind
/// `Arc` and memoized per [`TreeId`] in a [`LabelCache`]: a subtree that
/// appears in many variants is labelled exactly once.
#[derive(Debug)]
pub struct LabeledNode {
    /// The interned tree node this label belongs to.
    pub id: TreeId,
    /// Labels of the node's children, in order (shared via the cache).
    pub children: Vec<Arc<LabeledNode>>,
    /// `entries[nt]` is the best derivation to nonterminal `nt`, if any.
    pub entries: Vec<Option<Entry>>,
}

impl LabeledNode {
    /// The best cost of deriving this node to `nt`, if derivable.
    pub fn cost(&self, nt: NonTermId) -> Option<Cost> {
        self.entries[nt.index()].map(|e| e.cost)
    }

    /// The winning rule for `nt`, if derivable.
    pub fn rule(&self, nt: NonTermId) -> Option<RuleId> {
        self.entries[nt.index()].map(|e| e.rule)
    }
}

/// The DAG cuts inside one subtree, as `(cut node, parked nonterminal)`
/// pairs sorted by node. A label computed under a cut set depends on
/// exactly these: the subtree, and which of its nodes are parked where.
pub type CutContext = Vec<(TreeId, NonTermId)>;

/// Memoized label states, keyed by interned [`TreeId`] and, for labels
/// computed under DAG cuts, by the [`CutContext`] of the node's subtree.
///
/// Valid for one (pool, grammar) pair: the selector keeps one cache per
/// target next to its [`TreePool`](record_ir::TreePool). A subtree with
/// no cut inside labels context-free, so cut-aware labelling answers it
/// from the same entries plain labelling fills. `hits` counts labellings
/// answered from the cache (work avoided by sharing); `misses` counts
/// label states actually computed.
#[derive(Debug, Default)]
pub struct LabelCache {
    map: HashMap<TreeId, Arc<LabeledNode>>,
    /// Labels under cuts, per node, one per non-empty cut context seen.
    cut_map: HashMap<TreeId, Vec<(CutContext, Arc<LabeledNode>)>>,
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
        self.map.len() + self.cut_map.values().map(Vec::len).sum::<usize>()
    }

    /// `true` when nothing has been labelled yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty() && self.cut_map.is_empty()
    }

    /// Looks up the label state for `id`, counting a hit on success.
    pub fn lookup(&mut self, id: TreeId) -> Option<Arc<LabeledNode>> {
        let found = self.map.get(&id).cloned();
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Records a freshly computed label state, counting a miss.
    pub fn store(&mut self, id: TreeId, node: Arc<LabeledNode>) {
        self.misses += 1;
        self.map.insert(id, node);
    }

    /// Looks up the label state of `id` under the cuts `context` (the
    /// cuts inside its subtree), counting a hit on success.
    pub(crate) fn lookup_cut(
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

    /// Records a label state freshly computed under the cuts `context`,
    /// counting a miss.
    pub(crate) fn store_cut(&mut self, id: TreeId, context: CutContext, node: Arc<LabeledNode>) {
        self.misses += 1;
        self.cut_map.entry(id).or_default().push((context, node));
    }

    /// Drops all cached states (counters are preserved). Required when
    /// the backing pool or grammar changes.
    pub fn clear(&mut self) {
        self.map.clear();
        self.cut_map.clear();
    }
}
