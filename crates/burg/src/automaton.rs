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
//! The normalized grammar also holds every pattern rule's commuted
//! *twins* (see [`Twin`]). A labelling weighs them or not, so a
//! transition key carries that bit too.
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

use crate::label::{Entry, Form};

/// The most states, and the most transitions, one automaton holds. A
/// miss that would pass either clears the automaton first, so a grammar
/// whose states never converge costs bounded memory.
pub const MAX_AUTOMATON_SIZE: usize = 1 << 12;

/// States and transitions an automaton reserves room for: what compiling
/// the ten DSPStone kernels at O2 takes on tic25 (9 and 24) or dsp56k
/// (12 and 37), cut nodes included, with the grammar's commuted twins.
/// (The grammars as written took 7 and 34, and 11 and 48.)
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

/// A node of a pattern whose binding leaves are numbered by the rule
/// operand slot each binds, with the constant the rule's predicate tests
/// marked: a rule's pattern as written, or one of its [`Twin`]s.
/// Reduction walks it to fill a cover node's operands in the rule's
/// order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum FormNode {
    /// A nonterminal leaf binding rule operand `.1`.
    Nt(NonTermId, u8),
    /// A constant, memory or temporary leaf binding rule operand `.1`;
    /// `.2` when it is the constant the rule's predicate tests.
    Leaf(Op, u8, bool),
    /// An inner operator node.
    Op(Op, Vec<FormNode>),
}

impl FormNode {
    /// `pat` with its binding leaves numbered in pre-order from `next`
    /// and, while `untested`, its first constant marked as tested.
    ///
    /// # Panics
    ///
    /// On a pattern node whose child count differs from its operator's
    /// arity; [`TargetDesc::validate`] rejects such a grammar.
    fn written(pat: &PatNode, next: &mut u8, untested: &mut bool) -> FormNode {
        let PatNode::Op(op, children) = pat else {
            let PatNode::Nt(nt) = pat else { unreachable!() };
            *next += 1;
            return FormNode::Nt(*nt, *next - 1);
        };
        assert_eq!(children.len(), op.arity(), "pattern node {op} has the wrong child count");
        if op.is_leaf() {
            let tested = *op == Op::Const && std::mem::take(untested);
            *next += 1;
            return FormNode::Leaf(*op, *next - 1, tested);
        }
        FormNode::Op(*op, children.iter().map(|c| FormNode::written(c, next, untested)).collect())
    }

    /// Every form of the node with the children of any set of its
    /// commutative operator nodes swapped; the node itself comes first.
    fn forms(&self) -> Vec<FormNode> {
        let FormNode::Op(op, kids) = self else { return vec![self.clone()] };
        let mut out: Vec<Vec<FormNode>> = vec![Vec::new()];
        for kid in kids {
            let forms = kid.forms();
            out = out
                .iter()
                .flat_map(|done| {
                    forms.iter().map(move |f| [done.as_slice(), std::slice::from_ref(f)].concat())
                })
                .collect();
        }
        if matches!(op, Op::Bin(b) if b.is_commutative()) {
            let swapped: Vec<Vec<FormNode>> =
                out.iter().map(|kids| kids.iter().rev().cloned().collect()).collect();
            out.extend(swapped);
        }
        out.into_iter().map(|kids| FormNode::Op(*op, kids)).collect()
    }

    /// Whether `self` and `other` match the same trees with the
    /// predicate on the same constant, whichever slots they bind.
    fn matches_as(&self, other: &FormNode) -> bool {
        match (self, other) {
            (FormNode::Nt(a, _), FormNode::Nt(b, _)) => a == b,
            (FormNode::Leaf(a, _, ta), FormNode::Leaf(b, _, tb)) => (a, ta) == (b, tb),
            (FormNode::Op(a, ka), FormNode::Op(b, kb)) => {
                a == b && ka.len() == kb.len() && ka.iter().zip(kb).all(|(x, y)| x.matches_as(y))
            }
            _ => false,
        }
    }
}

/// A commuted twin of a pattern rule: the rule's pattern with the
/// children of one or more commutative operator nodes swapped. It stands
/// for its rule (id, lhs, cost, template and all), and each of its
/// leaves binds the rule operand slot it came from, so a cover through a
/// twin is its rule's cover, with the operands in the rule's order.
#[derive(Debug)]
pub(crate) struct Twin {
    pub(crate) rule: RuleId,
    pub(crate) pat: FormNode,
    pub(crate) level: Level,
}

/// The grammar normalized to one operator level per rule.
#[derive(Debug)]
pub(crate) struct Shape {
    /// The distinct predicates of the grammar's rules.
    preds: Vec<Predicate>,
    /// The root level of each pattern rule, by rule index (`None` for
    /// chain rules and for a predicate with no constant to test).
    levels: Vec<Option<Level>>,
    /// Each such rule's pattern as written, its slots in pre-order.
    written: Vec<Option<FormNode>>,
    /// The fragments: slot `f` matches operator `frags[f].0` at a node.
    /// The first `plain_frags` are the rules' as written; the rest only
    /// twins use.
    frags: Vec<(Op, Level)>,
    plain_frags: usize,
    /// The twins grouped by root operator, in rule order within each
    /// group: those of the operator with [`Op::index`] `o` are
    /// `twins[twin_starts[o]..twin_starts[o + 1]]`.
    twins: Vec<Twin>,
    twin_starts: [u32; Op::COUNT + 1],
}

impl Shape {
    /// Normalizes the pattern rules of `target` and their commuted
    /// twins.
    ///
    /// A twin that matches the same trees as an earlier candidate of its
    /// lhs (a rule as written, or an earlier twin) at no lower cost is
    /// left out: labelling weighs the twins after every rule as written,
    /// and a twin wins only when strictly cheaper, so it never would.
    ///
    /// # Panics
    ///
    /// On a pattern node whose child count differs from its operator's
    /// arity; [`TargetDesc::validate`] rejects such a grammar.
    pub(crate) fn new(target: &TargetDesc) -> Shape {
        let mut shape = Shape {
            preds: Vec::new(),
            levels: Vec::new(),
            written: Vec::new(),
            frags: Vec::new(),
            plain_frags: 0,
            twins: Vec::new(),
            twin_starts: [0; Op::COUNT + 1],
        };
        // each pattern rule as written; a predicate with no constant to
        // test never matches
        let written: Vec<Option<FormNode>> = target
            .rules
            .iter()
            .map(|rule| match &rule.rhs {
                Rhs::Pat(pat @ PatNode::Op(..)) => {
                    let mut untested = rule.pred.is_some();
                    let node = FormNode::written(pat, &mut 0, &mut untested);
                    (!untested).then_some(node)
                }
                Rhs::Pat(PatNode::Nt(_)) | Rhs::Chain(_) => None,
            })
            .collect();
        shape.levels = written
            .iter()
            .zip(&target.rules)
            .map(|(node, rule)| node.as_ref().map(|node| shape.level(node, rule.pred).1))
            .collect();
        shape.plain_frags = shape.frags.len();

        // every candidate so far: (lhs, pattern, predicate, weight)
        let mut seen: Vec<(NonTermId, FormNode, Option<Predicate>, u64)> = Vec::new();
        for (node, rule) in written.iter().zip(&target.rules) {
            if let Some(node) = node {
                seen.push((rule.lhs, node.clone(), rule.pred, rule.cost.weight()));
            }
        }
        for (node, rule) in written.iter().zip(&target.rules) {
            let Some(node) = node else { continue };
            let weight = rule.cost.weight();
            for form in node.forms().into_iter().skip(1) {
                let shadowed = seen.iter().any(|(lhs, pat, pred, w)| {
                    *lhs == rule.lhs && *pred == rule.pred && *w <= weight && pat.matches_as(&form)
                });
                if !shadowed {
                    let level = shape.level(&form, rule.pred).1;
                    seen.push((rule.lhs, form.clone(), rule.pred, weight));
                    shape.twins.push(Twin { rule: rule.id, pat: form, level });
                }
            }
        }
        // grouped by root operator, in rule order within a group
        let op_of = |twin: &Twin| match twin.pat {
            FormNode::Op(op, _) => op.index(),
            _ => unreachable!("a twin is rooted at an inner operator"),
        };
        shape.twins.sort_by_key(op_of);
        for twin in &shape.twins {
            shape.twin_starts[op_of(twin) + 1] += 1;
        }
        for o in 0..Op::COUNT {
            shape.twin_starts[o + 1] += shape.twin_starts[o];
        }
        shape.written = written;
        shape
    }

    /// The operator and level of an operator node of a pattern,
    /// registering the fragments below it; `pred` goes to the constant
    /// marked as tested.
    fn level(&mut self, node: &FormNode, pred: Option<Predicate>) -> (Op, Level) {
        match node {
            FormNode::Leaf(op, _, tested) => {
                let own = pred.filter(|_| *tested).map(|p| self.pred_index(p));
                (*op, Level { kids: [None; 2], pred: own })
            }
            FormNode::Op(op, children) => {
                let mut kids = [None; 2];
                for (kid, child) in kids.iter_mut().zip(children) {
                    *kid = Some(match child {
                        FormNode::Nt(nt, _) => Leaf::Nt(*nt),
                        inner => {
                            let (op, level) = self.level(inner, pred);
                            Leaf::Frag(self.frag(op, level))
                        }
                    });
                }
                (*op, Level { kids, pred: None })
            }
            FormNode::Nt(..) => unreachable!("a nonterminal is a leaf of its parent's level"),
        }
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

    /// Whether a node with operator `op`, labelled with the rules as
    /// written, reads its child at `position` at nonterminal `nt`: some
    /// pattern rule or fragment of those rules rooted at `op` takes the
    /// child there as an `nt` leaf.
    pub(crate) fn reads(&self, rules: &[RuleId], op: Op, position: usize, nt: NonTermId) -> bool {
        let rule_levels = rules.iter().filter_map(|&r| self.rule_level(r));
        let frag_levels = self.frags(false).iter().filter(|(o, _)| *o == op).map(|&(_, l)| l);
        rule_levels.chain(frag_levels).any(|l| l.kids.get(position) == Some(&Some(Leaf::Nt(nt))))
    }

    /// The fragments a labelling with or without `twins` matches, in
    /// slot order: the slots past them stay empty.
    pub(crate) fn frags(&self, twins: bool) -> &[(Op, Level)] {
        &self.frags[..if twins { self.frags.len() } else { self.plain_frags }]
    }

    /// The twins rooted at `op`, with their indices among all twins.
    pub(crate) fn twins_for(&self, op: Op) -> impl Iterator<Item = (usize, &Twin)> {
        let range =
            self.twin_starts[op.index()] as usize..self.twin_starts[op.index() + 1] as usize;
        range.clone().zip(&self.twins[range])
    }

    /// The pattern of `rule` in `form`: as written, or a twin.
    pub(crate) fn pattern(&self, rule: RuleId, form: Form) -> &FormNode {
        match form.twin_index() {
            None => self.written[rule.index()].as_ref().expect("a pattern rule that can match"),
            Some(ix) => &self.twins[ix].pat,
        }
    }

    /// Every twin, grouped by root operator.
    #[cfg(test)]
    pub(crate) fn twins(&self) -> &[Twin] {
        &self.twins
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
    /// operator, whether the labelling weighs `twins`, and for a constant
    /// the predicates its value passes (the value itself when there are
    /// too many predicates for a mask).
    pub(crate) fn step(&self, node: &TreeNode, twins: bool) -> Step {
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
        Step { op: op | u64::from(twins) << 8, leaf }
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
    /// Operator in bits 0–7, the twins bit in bit 8, the children's ids
    /// in bits 9–35 and 36–63 (the cap keeps ids below 2^12).
    rest: u64,
}

impl Key {
    fn new(step: Step, kids: [Option<StateRef>; 2]) -> Key {
        let id = |kid: Option<StateRef>| kid.map_or(0, |k| u64::from(k.id));
        Key { leaf: step.leaf, rest: step.op | id(kids[0]) << 9 | id(kids[1]) << 36 }
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
            label.entries.iter().map(|e| e.map(|e| Entry { cost: sub(e.cost, label.shift), ..e })),
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

#[cfg(test)]
mod tests {
    use record_ir::ops::wrap_to_width;
    use record_isa::targets::{asip, dsp56k, simple_risc, tic25};

    use super::*;

    /// tic25, dsp56k, asip-dsp, asip-default, risc4 and cube seeds 1–4,
    /// 35, 47 and 169.
    fn targets() -> Vec<TargetDesc> {
        let mut targets = vec![
            tic25::target(),
            dsp56k::target(),
            asip::build(&asip::AsipParams::dsp()),
            asip::build(&asip::AsipParams::default()),
            simple_risc::target(4),
        ];
        targets.extend([1, 2, 3, 4, 35, 47, 169].map(record_isa::cube::target_from_seed));
        targets
    }

    /// The value of a pattern whose leaf binding rule operand `k` holds
    /// `operands[k]`, at `width` bits.
    fn eval(node: &FormNode, operands: &[i64], width: u32) -> i64 {
        match node {
            FormNode::Nt(_, slot) | FormNode::Leaf(_, slot, _) => operands[usize::from(*slot)],
            FormNode::Op(Op::Bin(op), kids) => {
                op.eval(eval(&kids[0], operands, width), eval(&kids[1], operands, width), width)
            }
            FormNode::Op(Op::Un(op), kids) => op.eval(eval(&kids[0], operands, width), width),
            FormNode::Op(op, _) => unreachable!("{op} is a leaf"),
        }
    }

    /// Every twin computes what its rule computes: its pattern, each
    /// leaf bound through its slot map, against the rule's pattern as
    /// written, on every operand vector at word width 4 and on 1000
    /// seeded vectors at the target's width, saturating operators
    /// included.
    #[test]
    fn every_twin_computes_what_its_rule_computes() {
        let mut census = Vec::new();
        for target in targets() {
            let shape = Shape::new(&target);
            for twin in shape.twins() {
                let rule = target.rule(twin.rule);
                let Rhs::Pat(pat) = &rule.rhs else { panic!("a twin of chain rule {}", rule.id) };
                let written = FormNode::written(pat, &mut 0, &mut false);
                let n = rule.leaves().len();
                let what =
                    |operands: &[i64]| format!("{} r{} on {operands:?}", target.name, rule.id.0);
                let mut operands = vec![0i64; n];
                for code in 0..16u64.pow(n as u32) {
                    for (k, v) in operands.iter_mut().enumerate() {
                        *v = wrap_to_width((code >> (4 * k) & 15) as i64, 4);
                    }
                    assert_eq!(
                        eval(&twin.pat, &operands, 4),
                        eval(&written, &operands, 4),
                        "{}",
                        what(&operands)
                    );
                }
                let mut rng = record_prop::Rng::new(0x7111 ^ u64::from(twin.rule.0));
                for _ in 0..1000 {
                    let width = target.word_width;
                    for v in operands.iter_mut() {
                        *v = wrap_to_width(rng.next_u64() as i64, width);
                    }
                    let (got, want) =
                        (eval(&twin.pat, &operands, width), eval(&written, &operands, width));
                    assert_eq!(got, want, "{}", what(&operands));
                }
            }
            census.push(format!("{} {}", target.name, shape.twins().len()));
        }
        println!("twins per grammar: {}", census.join(", "));
    }
}
