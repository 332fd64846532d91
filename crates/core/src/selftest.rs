//! Self-test program generation (Section 4.5 of the paper).
//!
//! *"Testing of processor cores can be performed by running self-test
//! programs on the processor to be tested. Automatic generation of
//! self-test programs is possible with a special retargetable compiler
//! that is able to propagate values just like ATPG tools."*
//!
//! For every grammar rule of a target, the generator synthesizes a short
//! program that (1) *justifies* the instruction's operands — brings known
//! pseudo-random values into the registers and memory cells the rule
//! reads, using the target's own transfer rules, (2) executes the
//! instruction under test, and (3) *propagates* the result to an
//! observable memory word, accumulating all results into a signature.
//! A fault that changes the instruction's behaviour changes the
//! signature.
//!
//! Justification reuses the BURS machinery: to load value `v` into
//! nonterminal `n`, the generator covers the constant tree `v` with goal
//! `n`. This is precisely "a special retargetable compiler".

use record_burg::Matcher;
use record_ir::transform::RuleSet;
use record_ir::{BinOp, MemRef, Op, Symbol, Tree, UnOp};
use record_isa::{Code, Insn, NonTermKind, Rhs, RuleId, SemExpr, TargetDesc};
use record_sim::Machine;

use crate::select::Emitter;
use crate::CompileError;

/// The outcome of self-test generation.
#[derive(Debug)]
pub struct SelfTest {
    /// The generated program.
    pub code: Code,
    /// Rules exercised by the program.
    pub covered: Vec<RuleId>,
    /// Rules the generator could not build a test for (typically because
    /// their operands cannot be justified from constants on this target).
    pub uncovered: Vec<RuleId>,
    /// The fault-free signature (sum of all observed results, wrapped to
    /// the word width).
    pub signature: i64,
}

impl SelfTest {
    /// Coverage ratio over testable (non-zero-cost) rules.
    pub fn coverage(&self) -> f64 {
        let total = self.covered.len() + self.uncovered.len();
        if total == 0 {
            return 1.0;
        }
        self.covered.len() as f64 / total as f64
    }
}

/// Generates a self-test program for a target.
///
/// # Errors
///
/// [`CompileError::Target`] if the target validates but offers no way to
/// observe results (no store rules).
///
/// # Example
///
/// ```
/// let target = record_isa::targets::tic25::target();
/// let st = record::selftest::generate(&target, 0xC0FFEE)?;
/// assert!(st.coverage() > 0.8);
/// # Ok::<(), record::CompileError>(())
/// ```
pub fn generate(target: &TargetDesc, seed: u64) -> Result<SelfTest, CompileError> {
    let matcher = Matcher::new(target);
    let mut emitter = Emitter::new(target);
    let mut covered = Vec::new();
    let mut uncovered = Vec::new();
    let mut code = Code {
        insns: Vec::new(),
        layout: Default::default(),
        target: target.name.clone(),
        name: "selftest".into(),
    };

    // observable response locations
    let mut state = seed;
    let mut next_val = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) as i64 % 100) - 50
    };

    // a justified, known-nonzero operand cell every probe tree reads
    let j = record_ir::MemRef::scalar("$j");
    let init = record_ir::AssignStmt::new(emitter.pool_mut(), j, &Tree::constant(21));
    let (init_insns, _) = emitter.emit_assign(&init, &record_ir::transform::RuleSet::none(), 1)?;
    code.insns.extend(init_insns);

    let mut response = 0usize;
    for rule in &target.rules {
        if rule.cost.weight() == 0 {
            continue; // base rules emit no code — nothing to test
        }
        // Build a tree that *forces* this rule: evaluate its pattern shape
        // over constant leaves and cover the tree; then check the cover
        // actually used the rule (cheaper alternatives may shadow it).
        let Some(tree) = probe_tree(target, rule.id, &mut next_val) else {
            uncovered.push(rule.id);
            continue;
        };
        let goal = rule.lhs;
        let Some(cover) = matcher.cover(&tree, goal) else {
            uncovered.push(rule.id);
            continue;
        };
        if !cover_uses(&cover.root, rule.id) {
            uncovered.push(rule.id);
            continue;
        }
        // Emit: value into goal nonterminal, then propagate to memory.
        let dst = Symbol::new(format!("$r{response}"));
        response += 1;
        let stmt =
            record_ir::AssignStmt::new(emitter.pool_mut(), record_ir::MemRef::Scalar(dst), &tree);
        match emitter.emit_assign(&stmt, &record_ir::transform::RuleSet::none(), 1) {
            Ok((insns, _)) => {
                // ensure the rule under test is actually in the emitted code
                if insns.iter().any(|i| i.rule == Some(rule.id)) {
                    code.insns.extend(insns);
                    covered.push(rule.id);
                } else {
                    uncovered.push(rule.id);
                }
            }
            Err(_) => uncovered.push(rule.id),
        }
    }
    if covered.is_empty() {
        return Err(CompileError::Target(crate::TargetError::NoTestableRule {
            target: target.name.to_string(),
        }));
    }

    // place the operand cell, the response words and the scratch cells
    let mut addr = 0u16;
    code.layout.place(Symbol::new("$j"), addr, 1, record_ir::Bank::X);
    addr += 1;
    for i in 0..response {
        code.layout.place(Symbol::new(format!("$r{i}")), addr, 1, record_ir::Bank::X);
        addr += 1;
    }
    for s in emitter.scratch_symbols() {
        code.layout.place(s.clone(), addr, 1, record_ir::Bank::X);
        addr += 1;
    }
    // mode requirements of instructions under test
    record_opt::insert_mode_changes(&mut code, target, record_opt::ModeStrategy::Lazy);

    // compute the fault-free signature by executing the program
    let mut machine = Machine::new(target);
    machine.run(&code).map_err(|e| {
        CompileError::Target(crate::TargetError::SelfTest { detail: e.to_string() })
    })?;
    let mut signature = 0i64;
    for i in 0..response {
        let v = machine.peek(&Symbol::new(format!("$r{i}")), 0, &code).unwrap_or(0);
        signature = record_ir::ops::wrap_to_width(signature.wrapping_add(v), target.word_width);
    }

    Ok(SelfTest { code, covered, uncovered, signature })
}

/// Builds a tree whose optimal cover should include `rule`: its pattern
/// with constant/value leaves chosen so the rule's predicates hold.
fn probe_tree(
    target: &TargetDesc,
    rule_id: RuleId,
    next_val: &mut impl FnMut() -> i64,
) -> Option<Tree> {
    let rule = target.rule(rule_id);
    match &rule.rhs {
        Rhs::Chain(src) => nt_probe(target, *src, next_val),
        Rhs::Pat(p) => pat_probe(target, p, rule, next_val),
    }
}

fn nt_probe(
    target: &TargetDesc,
    nt: record_isa::NonTermId,
    next_val: &mut impl FnMut() -> i64,
) -> Option<Tree> {
    nt_probe_depth(target, nt, next_val, 2)
}

fn nt_probe_depth(
    target: &TargetDesc,
    nt: record_isa::NonTermId,
    next_val: &mut impl FnMut() -> i64,
    depth: u8,
) -> Option<Tree> {
    match target.nonterm(nt).kind {
        NonTermKind::Mem => Some(Tree::var("$j")),
        NonTermKind::Imm { bits } => {
            // the widest value the field holds, so that narrower immediate
            // rules cannot shadow the one under justification
            let v = if bits > 8 {
                (1i64 << (bits - 1)) - 3
            } else {
                next_val().rem_euclid(1 << bits.min(7)).max(1)
            };
            Some(Tree::constant(v))
        }
        NonTermKind::Reg(_) => {
            // Prefer deriving the register through one of its *pattern*
            // rules: a value that is structurally an operation result
            // cannot be shadowed by a cheaper direct-load rule, which
            // makes the probe discriminate combo instructions (e.g. the
            // C25's `SFL` vs `LAC mem,shift`). Fall back to a memory read
            // (justified through a load chain).
            if depth > 0 {
                let pattern_rule = target.rules.iter().find(|r| {
                    r.lhs == nt
                        && r.cost.weight() > 0
                        && matches!(&r.rhs, Rhs::Pat(p) if p.op_count() > 0)
                });
                if let Some(r) = pattern_rule {
                    if let Rhs::Pat(p) = &r.rhs {
                        if let Some(tree) = pat_probe_depth(target, p, r, next_val, depth - 1) {
                            return Some(tree);
                        }
                    }
                }
            }
            Some(Tree::var("$j"))
        }
    }
}

fn pat_probe(
    target: &TargetDesc,
    pat: &record_isa::PatNode,
    rule: &record_isa::Rule,
    next_val: &mut impl FnMut() -> i64,
) -> Option<Tree> {
    pat_probe_depth(target, pat, rule, next_val, 1)
}

fn pat_probe_depth(
    target: &TargetDesc,
    pat: &record_isa::PatNode,
    rule: &record_isa::Rule,
    next_val: &mut impl FnMut() -> i64,
    depth: u8,
) -> Option<Tree> {
    match pat {
        record_isa::PatNode::Nt(nt) => nt_probe_depth(target, *nt, next_val, depth),
        record_isa::PatNode::Op(op, children) => match op {
            record_ir::Op::Const => {
                // choose a constant satisfying the rule's predicate
                let v = match rule.pred {
                    Some(record_isa::Predicate::ConstEquals(v)) => v,
                    Some(record_isa::Predicate::ConstPow2) => 4,
                    Some(record_isa::Predicate::ConstFits { bits }) => {
                        next_val().rem_euclid(1 << bits.min(7))
                    }
                    None => next_val(),
                };
                Some(Tree::constant(v))
            }
            record_ir::Op::Mem => Some(Tree::var("$j")),
            record_ir::Op::Temp => Some(Tree::temp("$j")),
            record_ir::Op::Bin(b) => {
                let l = pat_probe_depth(target, &children[0], rule, next_val, depth)?;
                let r = pat_probe_depth(target, &children[1], rule, next_val, depth)?;
                Some(Tree::bin(*b, l, r))
            }
            record_ir::Op::Un(u) => {
                let a = pat_probe_depth(target, &children[0], rule, next_val, depth)?;
                Some(Tree::un(*u, a))
            }
        },
    }
}

fn cover_uses(node: &record_burg::CoverNode, rule: RuleId) -> bool {
    if node.rule == rule {
        return true;
    }
    node.operands.iter().any(|op| match op {
        record_burg::Operand::Derived(c) => cover_uses(c, rule),
        _ => false,
    })
}

/// Injects a fault into instruction `victim` of the program (flips its
/// semantics to a no-op) and reports whether the signature changes — the
/// fault-detection experiment of the Section 4.5 bench.
///
/// Returns `None` when `victim` is out of range or not a computational
/// instruction.
pub fn detects_fault(st: &SelfTest, target: &TargetDesc, victim: usize) -> Option<bool> {
    let insn = st.code.insns.get(victim)?;
    if !matches!(insn.kind, record_isa::InsnKind::Compute { .. }) {
        return None;
    }
    let mut faulty = st.code.clone();
    faulty.insns[victim] = Insn {
        kind: record_isa::InsnKind::Compute {
            dst: insn.dst().cloned()?,
            // stuck-at fault: the destination receives zero
            expr: SemExpr::Loc(record_isa::Loc::Imm(0)),
        },
        ..insn.clone()
    };
    let mut machine = Machine::new(target);
    if machine.run(&faulty).is_err() {
        return Some(true); // crash is detection too
    }
    let mut signature = 0i64;
    let responses =
        faulty.layout.entries().iter().filter(|e| e.sym.as_str().starts_with("$r")).count();
    for i in 0..responses {
        let v = machine.peek(&Symbol::new(format!("$r{i}")), 0, &faulty).unwrap_or(0);
        signature = record_ir::ops::wrap_to_width(signature.wrapping_add(v), target.word_width);
    }
    Some(signature != st.signature)
}

/// What the frontend can put in a statement's tree: a full-width
/// constant, a variable, every binary operator, and every unary one but
/// `sat`, which lowering folds into the additions and subtractions below
/// it.
pub const FRONTEND_OPS: [Op; 19] = [
    Op::Const,
    Op::Mem,
    Op::Bin(BinOp::Add),
    Op::Bin(BinOp::Sub),
    Op::Bin(BinOp::Mul),
    Op::Bin(BinOp::Div),
    Op::Bin(BinOp::And),
    Op::Bin(BinOp::Or),
    Op::Bin(BinOp::Xor),
    Op::Bin(BinOp::Shl),
    Op::Bin(BinOp::Shr),
    Op::Bin(BinOp::SatAdd),
    Op::Bin(BinOp::SatSub),
    Op::Bin(BinOp::Min),
    Op::Bin(BinOp::Max),
    Op::Un(UnOp::Neg),
    Op::Un(UnOp::Not),
    Op::Un(UnOp::Abs),
    Op::Un(UnOp::Round),
];

/// The operators of [`FRONTEND_OPS`] that `target` cannot compile, in
/// that order.
///
/// Each operator gets one probe statement over variables, `$r := a op b`
/// or `$r := op(a)` (for the leaves, the widest positive constant of the
/// word and `$r := a`), selected as an `O2` compile selects it, every
/// algebraic rule on; the operator is a gap when the statement does not
/// compile. A program using a gap over variables cannot compile on the
/// target; one that uses it only in a form the target covers (a shift by
/// a constant, say) still may.
///
/// ```
/// use record_ir::{BinOp, Op};
///
/// let full = record_isa::targets::asip::build(&record_isa::targets::asip::AsipParams::dsp());
/// assert!(record::selftest::operator_gaps(&full).len() < record::selftest::FRONTEND_OPS.len());
/// let minimal =
///     record_isa::targets::asip::build(&record_isa::targets::asip::AsipParams::minimal());
/// assert!(record::selftest::operator_gaps(&minimal).contains(&Op::Bin(BinOp::Mul)));
/// ```
pub fn operator_gaps(target: &TargetDesc) -> Vec<Op> {
    let mut emitter = Emitter::new(target);
    let widest = (1i64 << (target.word_width - 1)) - 1;
    let a = || Tree::var("a");
    FRONTEND_OPS
        .into_iter()
        .filter(|&op| {
            let probe = match op {
                Op::Const => Tree::constant(widest),
                Op::Mem | Op::Temp => a(),
                Op::Bin(b) => Tree::bin(b, a(), Tree::var("b")),
                Op::Un(u) => Tree::un(u, a()),
            };
            let stmt = record_ir::AssignStmt::new(emitter.pool_mut(), MemRef::scalar("$r"), &probe);
            emitter.emit_assign(&stmt, &RuleSet::all(), 32).is_err()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tic25_selftest_covers_most_rules() {
        let target = record_isa::targets::tic25::target();
        let st = generate(&target, 1).unwrap();
        assert!(
            st.coverage() > 0.8,
            "coverage {:.2}, uncovered: {:?}",
            st.coverage(),
            st.uncovered
        );
        assert!(!st.code.is_empty());
    }

    #[test]
    fn generated_selftest_is_deterministic() {
        let target = record_isa::targets::tic25::target();
        let a = generate(&target, 7).unwrap();
        let b = generate(&target, 7).unwrap();
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.covered, b.covered);
    }

    #[test]
    fn different_seeds_differ() {
        let target = record_isa::targets::tic25::target();
        let a = generate(&target, 1).unwrap();
        let b = generate(&target, 2).unwrap();
        // same coverage, (almost certainly) different signatures
        assert_eq!(a.covered, b.covered);
        assert_ne!(a.signature, b.signature);
    }

    #[test]
    fn works_on_generated_asip_targets() {
        let target =
            record_isa::targets::asip::build(&record_isa::targets::asip::AsipParams::dsp());
        let st = generate(&target, 3).unwrap();
        assert!(st.coverage() > 0.7, "uncovered: {:?}", st.uncovered);
    }

    #[test]
    fn faults_are_detected() {
        let target = record_isa::targets::tic25::target();
        let st = generate(&target, 5).unwrap();
        let mut tested = 0;
        let mut detected = 0;
        for victim in 0..st.code.insns.len() {
            if let Some(hit) = detects_fault(&st, &target, victim) {
                tested += 1;
                if hit {
                    detected += 1;
                }
            }
        }
        assert!(tested > 10);
        // most stuck-at-zero faults on computational instructions must
        // perturb the signature
        assert!(detected * 10 >= tested * 7, "only {detected}/{tested} faults detected");
    }
}
