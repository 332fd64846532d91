//! The explicit target model: everything the retargetable back end knows
//! about a processor.

use record_ir::Op;

use crate::nonterm::{NonTerm, NonTermId, NonTermKind};
use crate::pattern::{Cost, PatNode, Predicate, Rhs, Rule, RuleId, UnitMask};
use crate::regs::{RegClass, RegClassId};

/// How a selected value is committed to its destination memory word.
///
/// Store rules are the grammar's roots: an assignment `dst := tree` is
/// implemented by deriving the tree to `nt` and then emitting this store.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct StoreRule {
    /// The nonterminal the stored value must be available in.
    pub nt: NonTermId,
    /// Assembly template; `{d}` is the destination, `{0}` the source.
    pub asm: String,
    /// Code/cycle cost of the store instruction.
    pub cost: Cost,
    /// Functional units occupied.
    pub units: UnitMask,
}

/// Data-memory shape.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemoryDesc {
    /// Number of data banks (1, or 2 for X/Y-memory machines).
    pub banks: u8,
    /// Words per bank.
    pub words_per_bank: u16,
    /// `true` if a one-word direct addressing mode exists. When `false`
    /// (typical for 56k-style cores) every access goes through an address
    /// register and offset assignment governs the AR traffic.
    pub has_direct: bool,
}

/// Address-generation unit: address registers with free post-modify.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct AguDesc {
    /// Number of address registers.
    pub n_ars: u16,
    /// Largest post-increment/decrement magnitude applied for free.
    pub post_range: i8,
    /// Cost of loading an address register with a full address.
    pub ar_load_cost: Cost,
    /// Cost of adding an arbitrary constant to an address register
    /// (modify instructions beyond the free post-modify).
    pub ar_add_cost: Cost,
}

/// An operation mode (residual control), e.g. saturation/overflow mode.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct ModeDesc {
    /// Human-readable name, e.g. `"ovm"`.
    pub name: String,
    /// Assembly of the mode-set instruction (e.g. `SOVM`).
    pub set_asm: String,
    /// Assembly of the mode-clear instruction (e.g. `ROVM`).
    pub clear_asm: String,
    /// Cost of each mode-change instruction.
    pub cost: Cost,
    /// Whether the mode is on at program entry.
    pub default_on: bool,
}

/// Hardware single-instruction repeat support (e.g. the C25's `RPTK`).
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct RptDesc {
    /// Cost of the repeat prefix instruction.
    pub cost: Cost,
    /// Maximum repeat count.
    pub max_count: u32,
}

/// Loop machinery costs.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct LoopCtrl {
    /// Cost of loop initialization (load trip counter).
    pub init_cost: Cost,
    /// Cost of the back-edge (decrement-and-branch).
    pub end_cost: Cost,
    /// Single-instruction hardware repeat, if the target has one.
    pub rpt: Option<RptDesc>,
}

/// A fusion: two adjacent instructions that the target encodes as one
/// (e.g. TMS320C25 `LT` + `APAC` = `LTA`). Compaction applies these.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct Fusion {
    /// Rule of the first instruction.
    pub first: RuleId,
    /// Rule of the second instruction.
    pub second: RuleId,
    /// Assembly template of the fused instruction; `{a}` and `{b}`
    /// substitute the original texts' operand parts.
    pub asm: String,
    /// Cost of the fused instruction.
    pub cost: Cost,
}

/// Parallel-move packing capability (Motorola 56k style).
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct ParallelDesc {
    /// How many move operations one arithmetic instruction can carry.
    pub max_moves: u8,
    /// The unit mask identifying move operations.
    pub move_units: UnitMask,
    /// `true` if the two parallel moves must target different banks.
    pub moves_need_distinct_banks: bool,
}

/// A complete, explicit processor description.
///
/// Built with [`TargetBuilder`]; consumed by the matcher generator in
/// `record-burg`, by every optimization in `record-opt`, by the simulator
/// in `record-sim` and by the compiler pipeline in `record`.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct TargetDesc {
    /// Target name, e.g. `"tic25"`.
    pub name: String,
    /// Data word width in bits.
    pub word_width: u32,
    /// Register classes.
    pub reg_classes: Vec<RegClass>,
    /// Grammar nonterminals.
    pub nonterms: Vec<NonTerm>,
    /// Grammar rules.
    pub rules: Vec<Rule>,
    /// Store (root) rules.
    pub stores: Vec<StoreRule>,
    /// Data-memory shape.
    pub memory: MemoryDesc,
    /// Address-generation unit, if present.
    pub agu: Option<AguDesc>,
    /// Operation modes (residual control).
    pub modes: Vec<ModeDesc>,
    /// Loop machinery.
    pub loop_ctrl: LoopCtrl,
    /// Instruction fusions for compaction.
    pub fusions: Vec<Fusion>,
    /// Parallel-move packing, if the target supports it.
    pub parallel: Option<ParallelDesc>,
}

impl TargetDesc {
    /// Looks up a nonterminal id by name.
    pub fn nt(&self, name: &str) -> Option<NonTermId> {
        self.nonterms.iter().position(|n| n.name == name).map(|i| NonTermId(i as u16))
    }

    /// The nonterminal declaration for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn nonterm(&self, id: NonTermId) -> &NonTerm {
        &self.nonterms[id.index()]
    }

    /// Looks up a register class id by name.
    pub fn reg_class(&self, name: &str) -> Option<RegClassId> {
        self.reg_classes.iter().position(|c| c.name == name).map(|i| RegClassId(i as u16))
    }

    /// The class declaration for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn class(&self, id: RegClassId) -> &RegClass {
        &self.reg_classes[id.0 as usize]
    }

    /// The rule for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.index()]
    }

    /// Finds the mode index by name.
    pub fn mode(&self, name: &str) -> Option<usize> {
        self.modes.iter().position(|m| m.name == name)
    }

    /// The saturation-arithmetic mode, by convention the mode named
    /// `"ovm"` or `"sat"`. Mode-sensitive instructions without an explicit
    /// requirement implicitly require this mode *clear*.
    pub fn sat_mode(&self) -> Option<usize> {
        self.mode("ovm").or_else(|| self.mode("sat"))
    }

    /// A structural fingerprint of the description: two targets with the
    /// same fingerprint describe the same machine (name, grammar, memory,
    /// AGU, modes, …) with overwhelming probability.
    ///
    /// Compilation sessions use this as the cache key for per-target
    /// generated matcher tables, so it is recomputed on every cache
    /// lookup and must stay cheap relative to a single compile. It is a
    /// structural hash over every field; equal descriptions always agree
    /// and distinct ones collide only with hash probability. The value is
    /// stable within a process run, which is all a session-lifetime cache
    /// key needs — do not persist it.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }

    /// Validates referential integrity: every nonterminal, class and rule
    /// reference must be in range; every pattern operator must have as
    /// many children as its arity; chain rules must not be self-loops;
    /// predicates must sit on rules whose pattern can bind a constant.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let nt_ok = |id: NonTermId| id.index() < self.nonterms.len();
        for nt in &self.nonterms {
            if let NonTermKind::Reg(c) = nt.kind {
                if c.0 as usize >= self.reg_classes.len() {
                    return Err(format!("nonterminal {} references unknown class", nt.name));
                }
            }
        }
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.id.index() != i {
                return Err(format!("rule {i} has inconsistent id {}", rule.id));
            }
            if !nt_ok(rule.lhs) {
                return Err(format!("rule {} lhs out of range", rule.id));
            }
            for leaf in rule.nt_leaves() {
                if !nt_ok(leaf) {
                    return Err(format!("rule {} leaf out of range", rule.id));
                }
            }
            if let Rhs::Pat(p) = &rule.rhs {
                if !pattern_arities_match(p) {
                    return Err(format!(
                        "rule {} has an operator with the wrong child count",
                        rule.id
                    ));
                }
            }
            if let Rhs::Chain(src) = rule.rhs {
                if src == rule.lhs {
                    return Err(format!("rule {} is a self-chain", rule.id));
                }
            }
            if rule.pred.is_some() {
                let has_const = match &rule.rhs {
                    Rhs::Pat(p) => pattern_has_const(p),
                    Rhs::Chain(_) => false,
                };
                if !has_const {
                    return Err(format!(
                        "rule {} has a constant predicate but no Const in its pattern",
                        rule.id
                    ));
                }
            }
            if let Some(order) = &rule.eval_order {
                let n = rule.leaves().len();
                let mut seen = vec![false; n];
                if order.len() != n {
                    return Err(format!("rule {} eval_order length mismatch", rule.id));
                }
                for &ix in order {
                    if ix as usize >= n || seen[ix as usize] {
                        return Err(format!("rule {} eval_order invalid", rule.id));
                    }
                    seen[ix as usize] = true;
                }
            }
            if let Some((m, _)) = rule.mode {
                if m >= self.modes.len() {
                    return Err(format!("rule {} references unknown mode", rule.id));
                }
            }
        }
        for store in &self.stores {
            if !nt_ok(store.nt) {
                return Err("store rule nonterminal out of range".into());
            }
        }
        for fusion in &self.fusions {
            if fusion.first.index() >= self.rules.len() || fusion.second.index() >= self.rules.len()
            {
                return Err("fusion references unknown rule".into());
            }
        }
        if self.memory.banks != 1 && self.memory.banks != 2 {
            return Err("memory must have 1 or 2 banks".into());
        }
        Ok(())
    }
}

fn pattern_arities_match(p: &PatNode) -> bool {
    match p {
        PatNode::Op(op, children) => {
            children.len() == op.arity() && children.iter().all(pattern_arities_match)
        }
        PatNode::Nt(_) => true,
    }
}

fn pattern_has_const(p: &PatNode) -> bool {
    match p {
        PatNode::Op(Op::Const, _) => true,
        PatNode::Op(_, children) => children.iter().any(pattern_has_const),
        PatNode::Nt(_) => false,
    }
}

/// Incremental builder for [`TargetDesc`].
///
/// # Example
///
/// ```
/// use record_isa::target::TargetBuilder;
/// use record_isa::pattern::{Cost, PatNode};
/// use record_ir::{BinOp, Op};
///
/// let mut b = TargetBuilder::new("tiny", 16);
/// let acc_class = b.reg_class("acc", 1);
/// let acc = b.nt_reg("acc", acc_class);
/// let mem = b.nt_mem("mem");
/// b.base_mem_rules(mem);
/// b.chain(acc, mem, "LD {0}", Cost::new(1, 1));
/// b.pat(
///     acc,
///     PatNode::op(Op::Bin(BinOp::Add), vec![PatNode::nt(acc), PatNode::nt(mem)]),
///     "ADD {1}",
///     Cost::new(1, 1),
/// );
/// b.store(acc, "ST {d}", Cost::new(1, 1));
/// let target = b.build().expect("valid target");
/// assert_eq!(target.rules.len(), 4);
/// ```
#[derive(Debug)]
pub struct TargetBuilder {
    desc: TargetDesc,
}

impl TargetBuilder {
    /// Starts a target with the given name and word width.
    pub fn new(name: impl Into<String>, word_width: u32) -> Self {
        TargetBuilder {
            desc: TargetDesc {
                name: name.into(),
                word_width,
                reg_classes: Vec::new(),
                nonterms: Vec::new(),
                rules: Vec::new(),
                stores: Vec::new(),
                memory: MemoryDesc { banks: 1, words_per_bank: 4096, has_direct: true },
                agu: None,
                modes: Vec::new(),
                loop_ctrl: LoopCtrl {
                    init_cost: Cost::new(2, 2),
                    end_cost: Cost::new(2, 2),
                    rpt: None,
                },
                fusions: Vec::new(),
                parallel: None,
            },
        }
    }

    /// Declares a register class.
    pub fn reg_class(&mut self, name: &str, count: u16) -> RegClassId {
        let id = RegClassId(self.desc.reg_classes.len() as u16);
        self.desc.reg_classes.push(RegClass::new(name, count));
        id
    }

    /// Declares a register nonterminal.
    pub fn nt_reg(&mut self, name: &str, class: RegClassId) -> NonTermId {
        self.push_nt(NonTerm::reg(name, class))
    }

    /// Declares the memory nonterminal.
    pub fn nt_mem(&mut self, name: &str) -> NonTermId {
        self.push_nt(NonTerm::mem(name))
    }

    /// Declares an immediate nonterminal.
    pub fn nt_imm(&mut self, name: &str, bits: u32) -> NonTermId {
        self.push_nt(NonTerm::imm(name, bits))
    }

    fn push_nt(&mut self, nt: NonTerm) -> NonTermId {
        let id = NonTermId(self.desc.nonterms.len() as u16);
        self.desc.nonterms.push(nt);
        id
    }

    /// Adds the standard zero-cost base rules for a memory nonterminal:
    /// `mem ::= Mem` and `mem ::= Temp` (temporaries live in memory).
    pub fn base_mem_rules(&mut self, mem: NonTermId) {
        self.pat(mem, PatNode::op(Op::Mem, vec![]), "{m}", Cost::zero());
        self.pat(mem, PatNode::op(Op::Temp, vec![]), "{m}", Cost::zero());
    }

    /// Adds the zero-cost base rule for an immediate nonterminal with the
    /// fit predicate implied by its declared width.
    pub fn base_imm_rule(&mut self, imm: NonTermId) {
        let bits = match self.desc.nonterms[imm.index()].kind {
            NonTermKind::Imm { bits } => bits,
            _ => panic!("base_imm_rule requires an immediate nonterminal"),
        };
        let id = self.pat(imm, PatNode::op(Op::Const, vec![]), "{0}", Cost::zero());
        self.desc.rules[id.index()].pred = Some(Predicate::ConstFits { bits });
    }

    /// Adds a chain rule `lhs ::= src` (a data transfer).
    pub fn chain(&mut self, lhs: NonTermId, src: NonTermId, asm: &str, cost: Cost) -> RuleId {
        self.push_rule(lhs, Rhs::Chain(src), asm, cost)
    }

    /// Adds a pattern rule.
    pub fn pat(&mut self, lhs: NonTermId, pattern: PatNode, asm: &str, cost: Cost) -> RuleId {
        self.push_rule(lhs, Rhs::Pat(pattern), asm, cost)
    }

    fn push_rule(&mut self, lhs: NonTermId, rhs: Rhs, asm: &str, cost: Cost) -> RuleId {
        let id = RuleId(self.desc.rules.len() as u32);
        self.desc.rules.push(Rule {
            id,
            lhs,
            rhs,
            cost,
            asm: asm.to_string(),
            pred: None,
            eval_order: None,
            units: 0,
            mode: None,
            mode_sensitive: false,
        });
        id
    }

    /// Sets a predicate on an existing rule.
    pub fn with_pred(&mut self, rule: RuleId, pred: Predicate) -> &mut Self {
        self.desc.rules[rule.index()].pred = Some(pred);
        self
    }

    /// Sets the operand evaluation order on an existing rule.
    pub fn with_eval_order(&mut self, rule: RuleId, order: Vec<u8>) -> &mut Self {
        self.desc.rules[rule.index()].eval_order = Some(order);
        self
    }

    /// Sets the functional-unit mask on an existing rule.
    pub fn with_units(&mut self, rule: RuleId, units: UnitMask) -> &mut Self {
        self.desc.rules[rule.index()].units = units;
        self
    }

    /// Marks a rule as requiring a mode state.
    pub fn with_mode(&mut self, rule: RuleId, mode: usize, on: bool) -> &mut Self {
        self.desc.rules[rule.index()].mode = Some((mode, on));
        self
    }

    /// Marks a rule's arithmetic as saturation-mode sensitive.
    pub fn mode_sensitive(&mut self, rule: RuleId) -> &mut Self {
        self.desc.rules[rule.index()].mode_sensitive = true;
        self
    }

    /// Adds a store (root) rule.
    pub fn store(&mut self, nt: NonTermId, asm: &str, cost: Cost) {
        self.desc.stores.push(StoreRule { nt, asm: asm.to_string(), cost, units: 0 });
    }

    /// Sets the memory shape.
    pub fn memory(&mut self, banks: u8, words_per_bank: u16) -> &mut Self {
        let has_direct = self.desc.memory.has_direct;
        self.desc.memory = MemoryDesc { banks, words_per_bank, has_direct };
        self
    }

    /// Declares whether a one-word direct addressing mode exists.
    pub fn direct_addressing(&mut self, has_direct: bool) -> &mut Self {
        self.desc.memory.has_direct = has_direct;
        self
    }

    /// Declares an address-generation unit.
    pub fn agu(&mut self, desc: AguDesc) -> &mut Self {
        self.desc.agu = Some(desc);
        self
    }

    /// Declares an operation mode; returns its index.
    pub fn mode(&mut self, desc: ModeDesc) -> usize {
        self.desc.modes.push(desc);
        self.desc.modes.len() - 1
    }

    /// Sets loop machinery costs.
    pub fn loop_ctrl(&mut self, ctrl: LoopCtrl) -> &mut Self {
        self.desc.loop_ctrl = ctrl;
        self
    }

    /// Declares a fusion of two adjacent instructions.
    pub fn fusion(&mut self, first: RuleId, second: RuleId, asm: &str, cost: Cost) -> &mut Self {
        self.desc.fusions.push(Fusion { first, second, asm: asm.to_string(), cost });
        self
    }

    /// Declares parallel-move packing.
    pub fn parallel(&mut self, desc: ParallelDesc) -> &mut Self {
        self.desc.parallel = Some(desc);
        self
    }

    /// Finalizes and validates the description.
    ///
    /// # Errors
    ///
    /// Returns the first integrity violation found by
    /// [`TargetDesc::validate`].
    pub fn build(self) -> Result<TargetDesc, String> {
        self.desc.validate()?;
        Ok(self.desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::BinOp;

    fn tiny() -> TargetBuilder {
        let mut b = TargetBuilder::new("tiny", 16);
        let acc_c = b.reg_class("acc", 1);
        let acc = b.nt_reg("acc", acc_c);
        let mem = b.nt_mem("mem");
        b.base_mem_rules(mem);
        b.chain(acc, mem, "LD {0}", Cost::new(1, 1));
        b.store(acc, "ST {d}", Cost::new(1, 1));
        b
    }

    #[test]
    fn builder_produces_valid_target() {
        let t = tiny().build().unwrap();
        assert_eq!(t.name, "tiny");
        assert_eq!(t.nt("acc"), Some(NonTermId(0)));
        assert_eq!(t.nt("mem"), Some(NonTermId(1)));
        assert_eq!(t.nt("nope"), None);
        assert_eq!(t.reg_class("acc"), Some(RegClassId(0)));
        assert_eq!(t.rules.len(), 3);
    }

    #[test]
    fn validate_rejects_self_chain() {
        let mut b = tiny();
        let acc = NonTermId(0);
        b.chain(acc, acc, "MOV", Cost::new(1, 1));
        assert!(b.build().is_err());
    }

    #[test]
    fn validate_rejects_bad_eval_order() {
        let mut b = tiny();
        let acc = NonTermId(0);
        let mem = NonTermId(1);
        let r = b.pat(
            acc,
            PatNode::op(Op::Bin(BinOp::Add), vec![PatNode::nt(acc), PatNode::nt(mem)]),
            "ADD {1}",
            Cost::new(1, 1),
        );
        b.with_eval_order(r, vec![0, 0]);
        assert!(b.build().is_err());
    }

    #[test]
    fn validate_rejects_pred_without_const() {
        let mut b = tiny();
        let acc = NonTermId(0);
        let mem = NonTermId(1);
        let r = b.chain(acc, mem, "LD {0}", Cost::new(1, 1));
        b.with_pred(r, Predicate::ConstFits { bits: 8 });
        assert!(b.build().is_err());
    }

    #[test]
    fn validate_rejects_wrong_child_count() {
        let mut b = tiny();
        let acc = NonTermId(0);
        b.pat(
            acc,
            PatNode::op(Op::Bin(BinOp::Add), vec![PatNode::nt(acc)]),
            "ADD",
            Cost::new(1, 1),
        );
        assert!(b.build().is_err());
    }

    #[test]
    fn imm_base_rule_gets_predicate() {
        let mut b = TargetBuilder::new("t", 16);
        let imm = b.nt_imm("imm8", 8);
        b.base_imm_rule(imm);
        let t = b.build().unwrap();
        assert_eq!(t.rules[0].pred, Some(Predicate::ConstFits { bits: 8 }));
    }

    #[test]
    fn mode_and_fusion_validation() {
        let mut b = tiny();
        let r = RuleId(2);
        b.with_mode(r, 0, true); // no modes declared yet
        assert!(b.build().is_err());
    }

    #[test]
    fn mode_declared_is_accepted() {
        let mut b = tiny();
        let m = b.mode(ModeDesc {
            name: "ovm".into(),
            set_asm: "SOVM".into(),
            clear_asm: "ROVM".into(),
            cost: Cost::new(1, 1),
            default_on: false,
        });
        let r = RuleId(2);
        b.with_mode(r, m, true);
        let t = b.build().unwrap();
        assert_eq!(t.mode("ovm"), Some(0));
        assert_eq!(t.rules[2].mode, Some((0, true)));
    }
}
