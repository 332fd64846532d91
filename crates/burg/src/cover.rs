//! Covers: the output of reduction — which rule fires where, with what
//! operands (Fig. 5 of the paper).

use std::fmt;
use std::ops::Range;

use record_ir::{MemRef, Symbol};
use record_isa::{Cost, NonTermId, RuleId, TargetDesc};

/// The sentinel rule id marking a reference to a shared (cut) value in
/// DAG covering. It is not an index into any target's rule table: a
/// [`CoverNode`] carrying it has exactly one [`Operand::Shared`] operand
/// and emits no instruction — the value was computed once for the whole
/// block and parked in a register.
pub const SHARED_RULE: RuleId = RuleId(u32::MAX);

/// One operand of a rule application, aligned with
/// [`Rule::leaves`](record_isa::Rule::leaves).
#[derive(Clone, Debug, PartialEq)]
pub enum Operand {
    /// A sub-derivation: the operand value is produced by this cover
    /// (its rule's lhs nonterminal is the leaf's nonterminal).
    Derived(CoverNode),
    /// A constant bound directly from the subject tree.
    Const(i64),
    /// A memory reference bound directly from the subject tree.
    Mem(MemRef),
    /// A temporary bound directly from the subject tree.
    Temp(Symbol),
    /// A shared block-level value (DAG covering): computed once for the
    /// block and read from the register it was parked in.
    Shared {
        /// Index into the block's shared-value table.
        slot: usize,
        /// The nonterminal (register class) the value is parked in.
        nt: NonTermId,
    },
}

/// A rule application with its operands.
#[derive(Clone, Debug, PartialEq)]
pub struct CoverNode {
    /// The rule applied.
    pub rule: RuleId,
    /// Operands, one per rhs leaf in pre-order.
    pub operands: Vec<Operand>,
}

impl CoverNode {
    /// Total cost: this rule plus all sub-derivations. A shared-value
    /// reference ([`SHARED_RULE`]) costs nothing here — its definition
    /// is accounted once, where the block emits it.
    pub fn cost(&self, target: &TargetDesc) -> Cost {
        if self.rule == SHARED_RULE {
            return Cost::zero();
        }
        let mut total = target.rule(self.rule).cost;
        for op in &self.operands {
            if let Operand::Derived(child) = op {
                total = total.add(child.cost(target));
            }
        }
        total
    }

    /// The number of rule applications with non-zero cost — "the number of
    /// covering patterns" in the paper's phrasing.
    pub fn pattern_count(&self, target: &TargetDesc) -> usize {
        if self.rule == SHARED_RULE {
            return 0;
        }
        let own = usize::from(target.rule(self.rule).cost.weight() > 0);
        own + self
            .operands
            .iter()
            .map(|op| match op {
                Operand::Derived(c) => c.pattern_count(target),
                _ => 0,
            })
            .sum::<usize>()
    }

    /// Renders the derivation as an S-expression of rule assembly
    /// templates — handy in tests and examples.
    pub fn dump(&self, target: &TargetDesc) -> String {
        if let Some(Operand::Shared { slot, .. }) = self.operands.first() {
            if self.rule == SHARED_RULE {
                return format!("$dag{slot}");
            }
        }
        let rule = target.rule(self.rule);
        let mut parts: Vec<String> = Vec::new();
        for op in &self.operands {
            match op {
                Operand::Derived(c) => parts.push(c.dump(target)),
                Operand::Const(v) => parts.push(format!("#{v}")),
                Operand::Mem(m) => parts.push(m.to_string()),
                Operand::Temp(t) => parts.push(t.to_string()),
                Operand::Shared { slot, .. } => parts.push(format!("$dag{slot}")),
            }
        }
        if parts.is_empty() {
            format!("({})", rule.asm)
        } else {
            format!("({} {})", rule.asm, parts.join(" "))
        }
    }
}

impl fmt::Display for CoverNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cover[{}]", self.rule)
    }
}

/// A complete cover: the root derivation plus its total cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Cover {
    /// The root rule application.
    pub root: CoverNode,
    /// Total cost (cached at reduction time).
    pub cost: Cost,
}

impl Cover {
    /// See [`CoverNode::pattern_count`].
    pub fn pattern_count(&self, target: &TargetDesc) -> usize {
        self.root.pattern_count(target)
    }
}

/// Covers in one flat store, for a caller that reduces cover after cover
/// and keeps none for long: every rule application is a node of one
/// vector, its operands a range of another, and a derived operand names
/// its node by index. A reduction appends its nodes in pre-order, so it
/// allocates nothing once the store has grown; [`clear`](CoverBuf::clear)
/// empties it and keeps the capacity.
#[derive(Clone, Debug, Default)]
pub struct CoverBuf {
    nodes: Vec<(RuleId, Range<usize>)>,
    operands: Vec<FlatOperand>,
}

/// An operand of a [`CoverBuf`] node: an [`Operand`] whose derived
/// operand is a node index.
#[derive(Clone, Debug, PartialEq)]
pub enum FlatOperand {
    /// A sub-derivation: the node producing the operand value.
    Derived(usize),
    /// A constant bound directly from the subject tree.
    Const(i64),
    /// A memory reference bound directly from the subject tree.
    Mem(MemRef),
    /// A temporary bound directly from the subject tree.
    Temp(Symbol),
    /// A shared block-level value (see [`Operand::Shared`]).
    Shared {
        /// Index into the block's shared-value table.
        slot: usize,
        /// The nonterminal (register class) the value is parked in.
        nt: NonTermId,
    },
}

impl CoverBuf {
    /// Empties the store, keeping its capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.operands.clear();
    }

    /// The rule applied at `node`.
    pub fn rule(&self, node: usize) -> RuleId {
        self.nodes[node].0
    }

    /// The operands of `node`, one per rhs leaf in pre-order.
    pub fn operands(&self, node: usize) -> &[FlatOperand] {
        &self.operands[self.nodes[node].1.clone()]
    }

    /// Appends a node applying `rule` with `n` operand slots, to be
    /// filled with [`set_operand`](CoverBuf::set_operand); returns the
    /// node and the index of its first slot.
    pub(crate) fn push_node(&mut self, rule: RuleId, n: usize) -> (usize, usize) {
        let first = self.operands.len();
        self.operands.resize(first + n, FlatOperand::Const(0));
        self.nodes.push((rule, first..first + n));
        (self.nodes.len() - 1, first)
    }

    /// Fills operand slot `at`.
    pub(crate) fn set_operand(&mut self, at: usize, operand: FlatOperand) {
        self.operands[at] = operand;
    }

    /// Appends the boxed cover below `node`, returning its root.
    pub fn push_tree(&mut self, node: &CoverNode) -> usize {
        let (root, first) = self.push_node(node.rule, node.operands.len());
        for (at, operand) in (first..).zip(&node.operands) {
            let flat = match operand {
                Operand::Derived(child) => FlatOperand::Derived(self.push_tree(child)),
                Operand::Const(v) => FlatOperand::Const(*v),
                Operand::Mem(m) => FlatOperand::Mem(m.clone()),
                Operand::Temp(t) => FlatOperand::Temp(t.clone()),
                Operand::Shared { slot, nt } => FlatOperand::Shared { slot: *slot, nt: *nt },
            };
            self.set_operand(at, flat);
        }
        root
    }

    /// The boxed cover below `node` (the inverse of
    /// [`push_tree`](CoverBuf::push_tree)).
    pub fn to_tree(&self, node: usize) -> CoverNode {
        let operands = self
            .operands(node)
            .iter()
            .map(|operand| match operand {
                FlatOperand::Derived(child) => Operand::Derived(self.to_tree(*child)),
                FlatOperand::Const(v) => Operand::Const(*v),
                FlatOperand::Mem(m) => Operand::Mem(m.clone()),
                FlatOperand::Temp(t) => Operand::Temp(t.clone()),
                FlatOperand::Shared { slot, nt } => Operand::Shared { slot: *slot, nt: *nt },
            })
            .collect();
        CoverNode { rule: self.rule(node), operands }
    }
}
