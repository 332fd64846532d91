//! The on-demand tree-parsing automaton: label states shared by every
//! compile of one grammar (Ertl, Casey and Gregg, PLDI 2006).
//!
//! A node's label is its best entry per nonterminal. Shifted so that the
//! component-wise minimum cost over its entries and fragment slots is
//! zero, it becomes a *state*, and the shift becomes the node's *base*:
//! an entry's cost is base plus the state's delta. Since every candidate
//! the dynamic program weighs at a node covers each child exactly once
//! and [`Cost::weight`] is linear, a node's state is decided by its
//! operator, the class of its constant and its children's states, never
//! by their bases. That triple keys a transition; labelling a node
//! whose key has been seen is one lookup and a copy of the state.
//!
//! Multi-level patterns are matched one level at a time, as burg's
//! grammar normalization does: every inner operator node of a pattern
//! is a *fragment*, and each state holds one slot per fragment, the cost
//! of matching it at the node. A constant's class is the set of the
//! grammar's predicates its value passes.
//!
//! States and transitions grow on demand, behind one lock: a warm lookup
//! takes it shared, a miss exclusively. Past [`MAX_AUTOMATON_SIZE`]
//! states or transitions the automaton is cleared and grows anew; every
//! state handle carries the generation it belongs to, so a handle from
//! before a clear is never mistaken for a new state.

use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use record_ir::hash::{FoldMap, FoldState};
use record_ir::{Op, TreeNode};
use record_isa::{Cost, NonTermId, PatNode, Predicate, Rhs, RuleId, TargetDesc};

use crate::label::Entry;

/// The most states, and the most transitions, one automaton holds. A
/// miss that would pass either clears the automaton first, so a grammar
/// whose states never converge costs bounded memory.
pub const MAX_AUTOMATON_SIZE: usize = 1 << 12;

/// States and transitions an automaton reserves room for: what compiling
/// the ten DSPStone kernels takes on tic25 (7 and 34) or dsp56k (11 and
/// 48), cut nodes included.
const RESERVED_STATES: usize = 16;
const RESERVED_TRANSITIONS: usize = 64;

/// What a pattern needs of one child: a derivation to a nonterminal, or
/// a match of a fragment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Leaf {
    Nt(NonTermId),
    Frag(u16),
}

/// One operator level of a pattern: what each child must provide, and
/// the predicate the node's constant must pass, when the level is the
/// pattern's first constant and the rule has a predicate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Level {
    kids: [Option<Leaf>; 2],
    pred: Option<u8>,
}

/// The grammar normalized to one operator level per rule.
#[derive(Debug)]
pub(crate) struct Shape {
    /// The distinct predicates of the grammar's rules.
    preds: Vec<Predicate>,
    /// The root level of each pattern rule, by rule index (`None` for
    /// chain rules and for a predicate with no constant to test).
    levels: Vec<Option<Level>>,
    /// The fragments: slot `f` matches operator `frags[f].0` at a node.
    frags: Vec<(Op, Level)>,
}

impl Shape {
    /// Normalizes the pattern rules of `target`.
    ///
    /// # Panics
    ///
    /// On a pattern node whose child count differs from its operator's
    /// arity; [`TargetDesc::validate`] rejects such a grammar.
    pub(crate) fn new(target: &TargetDesc) -> Shape {
        let mut shape = Shape { preds: Vec::new(), levels: Vec::new(), frags: Vec::new() };
        let levels = target
            .rules
            .iter()
            .map(|rule| match &rule.rhs {
                Rhs::Pat(PatNode::Op(op, children)) => {
                    let mut pred = rule.pred;
                    let level = shape.level(*op, children, &mut pred);
                    // a predicate with no constant to test never matches
                    pred.is_none().then_some(level)
                }
                Rhs::Pat(PatNode::Nt(_)) | Rhs::Chain(_) => None,
            })
            .collect();
        shape.levels = levels;
        shape
    }

    /// The level of an operator node with pattern children `children`.
    /// `pred`, while unclaimed, goes to the first constant in pre-order.
    fn level(&mut self, op: Op, children: &[PatNode], pred: &mut Option<Predicate>) -> Level {
        assert_eq!(children.len(), op.arity(), "pattern node {op} has the wrong child count");
        let own = match op {
            Op::Const => pred.take().map(|p| self.pred_index(p)),
            _ => None,
        };
        let mut kids = [None; 2];
        for (kid, child) in kids.iter_mut().zip(children) {
            *kid = Some(match child {
                PatNode::Nt(nt) => Leaf::Nt(*nt),
                PatNode::Op(op, children) => {
                    let level = self.level(*op, children, pred);
                    Leaf::Frag(self.frag(*op, level))
                }
            });
        }
        Level { kids, pred: own }
    }

    fn pred_index(&mut self, pred: Predicate) -> u8 {
        let ix = self.preds.iter().position(|&p| p == pred).unwrap_or_else(|| {
            self.preds.push(pred);
            self.preds.len() - 1
        });
        u8::try_from(ix).expect("fewer than 256 distinct predicates")
    }

    fn frag(&mut self, op: Op, level: Level) -> u16 {
        let ix = self.frags.iter().position(|&f| f == (op, level)).unwrap_or_else(|| {
            self.frags.push((op, level));
            self.frags.len() - 1
        });
        u16::try_from(ix).expect("fewer than 65536 fragments")
    }

    /// Fragment slots per state.
    pub(crate) fn n_frags(&self) -> usize {
        self.frags.len()
    }

    /// The root level of pattern rule `rule`, if it can ever match.
    pub(crate) fn rule_level(&self, rule: RuleId) -> Option<Level> {
        self.levels[rule.index()]
    }

    /// The fragments, in slot order.
    pub(crate) fn frags(&self) -> &[(Op, Level)] {
        &self.frags
    }

    /// The cost of matching `level` at a node with constant `value` over
    /// `kids`, or `None` if it does not match.
    pub(crate) fn level_cost(
        &self,
        level: Level,
        value: Option<i64>,
        kids: &[Option<Kid<'_>>; 2],
    ) -> Option<Cost> {
        if let Some(p) = level.pred {
            if !self.preds[usize::from(p)].check_const(value?) {
                return None;
            }
        }
        let mut cost = Cost::zero();
        for (leaf, kid) in level.kids.iter().zip(kids) {
            if let (Some(leaf), Some(kid)) = (leaf, kid) {
                cost = cost.add(kid.leaf(*leaf)?);
            }
        }
        Some(cost)
    }

    /// The part of a node's transition key the node itself decides: its
    /// operator, and for a constant the predicates its value passes (the
    /// value itself when there are too many predicates for a mask).
    pub(crate) fn step(&self, node: &TreeNode) -> Step {
        let (op, leaf) = match *node {
            TreeNode::Const(v) if self.preds.len() <= 64 => {
                let mask = self.preds.iter().enumerate().filter(|(_, p)| p.check_const(v));
                (0, mask.fold(0, |m, (i, _)| m | 1 << i))
            }
            TreeNode::Const(v) => (0, v as u64),
            TreeNode::Mem(_) => (1, 0),
            TreeNode::Temp(_) => (2, 0),
            TreeNode::Bin(op, ..) => (3 + op as u64, 0),
            TreeNode::Un(op, _) => (128 + op as u64, 0),
        };
        Step { op, leaf }
    }
}

/// A child's label as the dynamic program reads it: costs are its
/// entries' and fragment slots' minus `shift` (its base, or zero for a
/// program in absolute costs).
#[derive(Clone, Copy)]
pub(crate) struct Kid<'a> {
    pub(crate) entries: &'a [Option<Entry>],
    pub(crate) frags: &'a [Option<Cost>],
    pub(crate) shift: Cost,
}

impl Kid<'_> {
    fn leaf(&self, leaf: Leaf) -> Option<Cost> {
        let cost = match leaf {
            Leaf::Nt(nt) => self.entries[nt.index()]?.cost,
            Leaf::Frag(f) => self.frags[usize::from(f)]?,
        };
        Some(sub(cost, self.shift))
    }
}

/// Component-wise `a - b`; `b` is never larger in either component.
fn sub(a: Cost, b: Cost) -> Cost {
    Cost::new(a.words - b.words, a.cycles - b.cycles)
}

/// Shifts a label to zero: subtracts the component-wise minimum of its
/// entries and fragment slots from each, and returns it.
pub(crate) fn shift_to_zero(entries: &mut [Option<Entry>], frags: &mut [Option<Cost>]) -> Cost {
    let costs = entries.iter().flatten().map(|e| e.cost).chain(frags.iter().flatten().copied());
    let Some(min) = costs.reduce(|a, b| Cost::new(a.words.min(b.words), a.cycles.min(b.cycles)))
    else {
        return Cost::zero();
    };
    for e in entries.iter_mut().flatten() {
        e.cost = sub(e.cost, min);
    }
    for c in frags.iter_mut().flatten() {
        *c = sub(*c, min);
    }
    min
}

/// Adds `base` to every entry and fragment slot of a state.
pub(crate) fn add_base(entries: &mut [Option<Entry>], frags: &mut [Option<Cost>], base: Cost) {
    for e in entries.iter_mut().flatten() {
        e.cost = e.cost.add(base);
    }
    for c in frags.iter_mut().flatten() {
        *c = c.add(base);
    }
}

/// A node's own part of its transition key (see [`Shape::step`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Step {
    op: u64,
    leaf: u64,
}

/// A state of one generation of the automaton.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct StateRef {
    id: u32,
    generation: u32,
}

/// A transition key: [`Step`] and the children's state ids, packed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Key {
    leaf: u64,
    /// Operator in bits 0–7, the children's ids in bits 8–35 and 36–63.
    rest: u64,
}

impl Key {
    fn new(step: Step, kids: [Option<StateRef>; 2]) -> Key {
        let id = |kid: Option<StateRef>| kid.map_or(0, |k| u64::from(k.id));
        Key { leaf: step.leaf, rest: step.op | id(kids[0]) << 8 | id(kids[1]) << 36 }
    }
}

/// The automaton's states and transitions, grown on demand.
#[derive(Default)]
pub(crate) struct Automaton {
    states: RwLock<States>,
}

impl std::fmt::Debug for Automaton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (states, transitions) = self.size();
        f.debug_struct("Automaton")
            .field("states", &states)
            .field("transitions", &transitions)
            .finish()
    }
}

#[derive(Default)]
struct States {
    /// Bumped by every clear.
    generation: u32,
    /// Per state, its entries' deltas (one slot per nonterminal) and its
    /// fragment slots' deltas, in id order.
    entries: Vec<Option<Entry>>,
    frags: Vec<Option<Cost>>,
    len: usize,
    /// The first state with each content hash.
    by_hash: FoldMap<u64, u32>,
    /// Per key, the node's state and its shift over its children's bases.
    transitions: FoldMap<Key, (u32, Cost)>,
    /// Scratch for a state interned again after a clear.
    scratch_entries: Vec<Option<Entry>>,
    scratch_frags: Vec<Option<Cost>>,
}

impl Automaton {
    /// Reserves room for the states and transitions a typical target's
    /// programs take, `n_nts` entries and `n_frags` fragment slots per
    /// state.
    pub(crate) fn reserve(&self, n_nts: usize, n_frags: usize) {
        let mut states = self.states.write().unwrap_or_else(PoisonError::into_inner);
        states.entries.reserve(RESERVED_STATES * n_nts);
        states.frags.reserve(RESERVED_STATES * n_frags);
        states.by_hash.reserve(RESERVED_STATES);
        states.transitions.reserve(RESERVED_TRANSITIONS);
    }

    /// `(states, transitions)` held now.
    pub(crate) fn size(&self) -> (usize, usize) {
        let states = self.states.read().unwrap_or_else(PoisonError::into_inner);
        (states.len, states.transitions.len())
    }

    /// A reader for one labelling: it takes the lock shared on first use
    /// and holds it until a miss needs it exclusively or the reader is
    /// dropped.
    pub(crate) fn reader(&self) -> Reader<'_> {
        Reader { automaton: self, guard: None }
    }
}

/// Access to an [`Automaton`] for one labelling call.
pub(crate) struct Reader<'a> {
    automaton: &'a Automaton,
    guard: Option<RwLockReadGuard<'a, States>>,
}

impl<'a> Reader<'a> {
    fn states(&mut self) -> &States {
        let lock = &self.automaton.states;
        self.guard.get_or_insert_with(|| lock.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The automaton, exclusively; the shared lock is released first.
    fn write(&mut self) -> RwLockWriteGuard<'a, States> {
        self.guard = None;
        self.automaton.states.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The transition of a node with `step` over children in states
    /// `kids`, if known: the node's state, its shift over its children's
    /// bases, and the state's entries and fragment slots (`n_nts` and
    /// `n_frags` of them).
    #[allow(clippy::type_complexity)]
    pub(crate) fn follow(
        &mut self,
        step: Step,
        kids: [Option<StateRef>; 2],
        n_nts: usize,
        n_frags: usize,
    ) -> Option<(StateRef, Cost, &[Option<Entry>], &[Option<Cost>])> {
        let states = self.states();
        let generation = states.generation;
        if kids.iter().flatten().any(|k| k.generation != generation) {
            return None;
        }
        let &(id, shift) = states.transitions.get(&Key::new(step, kids))?;
        let (entries, frags) = states.content(id as usize, n_nts, n_frags);
        Some((StateRef { id, generation }, shift, entries, frags))
    }

    /// Records that a node with `step` over `kids` has the state
    /// `entries` and `frags` (shifted to zero) and is `shift` above its
    /// children's bases. Returns the state, and the children's states in
    /// the current generation (a child whose state is from before a
    /// clear is interned again from its label).
    pub(crate) fn insert(
        &mut self,
        step: Step,
        kids: [Option<(StateRef, Kid<'_>)>; 2],
        entries: &[Option<Entry>],
        frags: &[Option<Cost>],
        shift: Cost,
    ) -> (StateRef, [Option<StateRef>; 2]) {
        let mut states = self.write();
        // room for both children, the node and its transition
        if states.len + 3 > MAX_AUTOMATON_SIZE || states.transitions.len() >= MAX_AUTOMATON_SIZE {
            states.clear();
        }
        let kids = kids.map(|kid| kid.map(|(state, label)| states.current(state, label)));
        let state = states.intern(entries, frags);
        states.transitions.entry(Key::new(step, kids)).or_insert((state.id, shift));
        (state, kids)
    }

    /// The state `entries` and `frags` (shifted to zero), interned.
    pub(crate) fn intern(&mut self, entries: &[Option<Entry>], frags: &[Option<Cost>]) -> StateRef {
        let hash = content_hash(entries, frags);
        let states = self.states();
        if let Some(id) = states.find(hash, entries, frags) {
            return StateRef { id, generation: states.generation };
        }
        let mut states = self.write();
        if states.len + 1 > MAX_AUTOMATON_SIZE {
            states.clear();
        }
        states.intern(entries, frags)
    }
}

impl States {
    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        self.entries.clear();
        self.frags.clear();
        self.len = 0;
        self.by_hash.clear();
        self.transitions.clear();
    }

    fn content(
        &self,
        id: usize,
        n_nts: usize,
        n_frags: usize,
    ) -> (&[Option<Entry>], &[Option<Cost>]) {
        (&self.entries[id * n_nts..(id + 1) * n_nts], &self.frags[id * n_frags..(id + 1) * n_frags])
    }

    /// The id of the state with this content, if interned.
    fn find(&self, hash: u64, entries: &[Option<Entry>], frags: &[Option<Cost>]) -> Option<u32> {
        let is = |id: usize| self.content(id, entries.len(), frags.len()) == (entries, frags);
        match self.by_hash.get(&hash) {
            Some(&id) if is(id as usize) => Some(id),
            // another content with the same hash came first
            Some(_) => (0..self.len).find(|&id| is(id)).map(|id| id as u32),
            None => None,
        }
    }

    fn intern(&mut self, entries: &[Option<Entry>], frags: &[Option<Cost>]) -> StateRef {
        let hash = content_hash(entries, frags);
        let id = self.find(hash, entries, frags).unwrap_or_else(|| {
            let id = u32::try_from(self.len).expect("the cap bounds the state count");
            self.entries.extend_from_slice(entries);
            self.frags.extend_from_slice(frags);
            self.len += 1;
            self.by_hash.entry(hash).or_insert(id);
            id
        });
        StateRef { id, generation: self.generation }
    }

    /// `state` if it is of the current generation, else the state of
    /// `label` interned anew.
    fn current(&mut self, state: StateRef, label: Kid<'_>) -> StateRef {
        if state.generation == self.generation {
            return state;
        }
        let mut entries = std::mem::take(&mut self.scratch_entries);
        let mut frags = std::mem::take(&mut self.scratch_frags);
        entries.clear();
        entries.extend(
            label
                .entries
                .iter()
                .map(|e| e.map(|e| Entry { cost: sub(e.cost, label.shift), rule: e.rule })),
        );
        frags.clear();
        frags.extend(label.frags.iter().map(|c| c.map(|c| sub(c, label.shift))));
        let state = self.intern(&entries, &frags);
        self.scratch_entries = entries;
        self.scratch_frags = frags;
        state
    }
}

fn content_hash(entries: &[Option<Entry>], frags: &[Option<Cost>]) -> u64 {
    let mut hasher = FoldState::default().build_hasher();
    entries.hash(&mut hasher);
    frags.hash(&mut hasher);
    hasher.finish()
}
