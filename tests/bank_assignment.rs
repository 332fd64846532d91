//! Bank assignment on the dense conflict graph against the pair-weight
//! implementation it replaced.
//!
//! [`reference::assign_banks_budgeted`] is the earlier algorithm kept
//! verbatim: pair weights in a map keyed by symbol pairs, an O(E)
//! incident-weight scan per sort comparison, and a full cross-bank recount
//! before and after every flip trial. The new one must agree with it on
//! everything observable: the layout, every operand's bank, the returned
//! [`BankStats`], the budget's step count, and — when a step cap fires —
//! the error, with the code left unmodified.

use std::collections::HashMap;

use record::{CompilationUnit, Compiler, PassPlan};
use record_ir::{dfl, lower, Bank, BinOp, Symbol};
use record_isa::cube::CubeParams;
use record_isa::{Code, Insn, InsnKind, Loc, MemLoc, RegClassId, RegId, SemExpr, TargetDesc};
use record_opt::{BankStats, BudgetExceeded, SearchBudget};

mod reference {
    use std::collections::HashMap;

    use record_ir::{Bank, Symbol};
    use record_isa::code::LayoutEntry;
    use record_isa::{Code, InsnKind, Loc, TargetDesc};
    use record_opt::{BankStats, BudgetExceeded, SearchBudget};

    /// The pair-weight bank assignment, as it was.
    pub fn assign_banks_budgeted(
        code: &mut Code,
        target: &TargetDesc,
        fixed: &HashMap<Symbol, Bank>,
        budget: &SearchBudget,
    ) -> Result<BankStats, BudgetExceeded> {
        let mut stats = BankStats::default();
        if target.memory.banks < 2 {
            return Ok(stats);
        }

        // --- gather pair weights -----------------------------------------
        let weights = pair_weights(code);
        stats.total_weight = weights.values().sum();

        // --- greedy placement ----------------------------------------------
        let mut assignment: HashMap<Symbol, Bank> = fixed.clone();
        let mut symbols: Vec<Symbol> =
            code.layout.entries().iter().map(|e| e.sym.clone()).collect();
        // order by total incident weight, heaviest first
        let incident = |s: &Symbol| -> u32 {
            weights.iter().filter(|((a, b), _)| a == s || b == s).map(|(_, w)| *w).sum()
        };
        symbols.sort_by(|a, b| incident(b).cmp(&incident(a)).then(a.cmp(b)));
        for sym in &symbols {
            if assignment.contains_key(sym) {
                continue;
            }
            budget.charge(weights.len().max(1) as u64)?;
            // gain of each bank = weight to already-placed neighbours in
            // the other bank
            let mut gain = [0i64, 0i64];
            for ((a, b), w) in &weights {
                let other = if a == sym {
                    b
                } else if b == sym {
                    a
                } else {
                    continue;
                };
                if let Some(bank) = assignment.get(other) {
                    gain[bank.other() as usize] += *w as i64;
                }
            }
            let bank =
                if gain[Bank::Y as usize] > gain[Bank::X as usize] { Bank::Y } else { Bank::X };
            assignment.insert(sym.clone(), bank);
        }

        // --- local improvement (flip while it helps) -----------------------
        let cross = |assignment: &HashMap<Symbol, Bank>| -> u32 {
            weights
                .iter()
                .filter(|((a, b), _)| assignment.get(a) != assignment.get(b))
                .map(|(_, w)| *w)
                .sum()
        };
        let mut improved = true;
        while improved {
            improved = false;
            for sym in &symbols {
                if fixed.contains_key(sym) {
                    continue;
                }
                // each flip trial recomputes the full cross-bank weight
                budget.charge(2 * weights.len().max(1) as u64)?;
                let before = cross(&assignment);
                let old = assignment[sym];
                assignment.insert(sym.clone(), old.other());
                if cross(&assignment) > before {
                    improved = true;
                } else {
                    assignment.insert(sym.clone(), old);
                }
            }
        }
        stats.cross_bank_weight = cross(&assignment);

        // --- rewrite layout and operands -----------------------------------
        let entries: Vec<LayoutEntry> = {
            let mut next = [0u16, 0u16];
            code.layout
                .entries()
                .iter()
                .map(|e| {
                    let bank = *assignment.get(&e.sym).unwrap_or(&Bank::X);
                    let addr = next[bank as usize];
                    next[bank as usize] += e.len as u16;
                    LayoutEntry { sym: e.sym.clone(), addr, len: e.len, bank }
                })
                .collect()
        };
        stats.moved_to_y = entries.iter().filter(|e| e.bank == Bank::Y).count() as u32;
        code.layout.replace_entries(entries);
        for insn in &mut code.insns {
            rewrite_banks(insn, &assignment);
        }
        Ok(stats)
    }

    /// The conflict graph's edges: one per symbol pair wanted together,
    /// weighted by how often.
    fn pair_weights(code: &Code) -> HashMap<(Symbol, Symbol), u32> {
        let mut weights: HashMap<(Symbol, Symbol), u32> = HashMap::new();
        let mut bump = |a: &Symbol, b: &Symbol| {
            if a == b {
                return;
            }
            let key = if a < b { (a.clone(), b.clone()) } else { (b.clone(), a.clone()) };
            *weights.entry(key).or_insert(0) += 1;
        };
        let windows: Vec<Vec<Symbol>> = operand_windows(code);
        for w in &windows {
            for i in 0..w.len() {
                for j in i + 1..w.len() {
                    bump(&w[i], &w[j]);
                }
            }
        }
        weights
    }

    /// The steps greedy placement charges when no cap fires: one charge
    /// of `max(1, edges)` per unfixed layout symbol.
    pub fn greedy_steps(code: &Code, fixed: &HashMap<Symbol, Bank>) -> u64 {
        let edges = pair_weights(code).len().max(1) as u64;
        let unfixed =
            code.layout.entries().iter().filter(|e| !fixed.contains_key(&e.sym)).count() as u64;
        unfixed * edges
    }

    fn rewrite_banks(insn: &mut record_isa::Insn, assignment: &HashMap<Symbol, Bank>) {
        if let InsnKind::Compute { dst, expr } = &mut insn.kind {
            for l in expr.reads_mut() {
                if let Loc::Mem(m) = l {
                    if let Some(b) = assignment.get(&m.base) {
                        m.bank = *b;
                    }
                }
            }
            if let Loc::Mem(m) = dst {
                if let Some(b) = assignment.get(&m.base) {
                    m.bank = *b;
                }
            }
        }
        for p in &mut insn.parallel {
            rewrite_banks(p, assignment);
        }
    }

    /// The "wanted together" windows: the distinct memory bases read by
    /// each instruction, and by each adjacent (move, compute) pair.
    fn operand_windows(code: &Code) -> Vec<Vec<Symbol>> {
        let mut windows = Vec::new();
        let insn_bases = |insn: &record_isa::Insn| -> Vec<Symbol> {
            let mut v: Vec<Symbol> =
                insn.srcs().iter().filter_map(|l| l.as_mem().map(|m| m.base.clone())).collect();
            v.dedup();
            v
        };
        for (i, insn) in code.insns.iter().enumerate() {
            let own = insn_bases(insn);
            if own.len() >= 2 {
                windows.push(own.clone());
            }
            if let Some(next) = code.insns.get(i + 1) {
                let mut joint = own;
                joint.extend(insn_bases(next));
                joint.sort();
                joint.dedup();
                if joint.len() >= 2 {
                    windows.push(joint);
                }
            }
        }
        windows
    }
}

/// One run's observable outcome: the result and the steps charged.
type Outcome = (Result<BankStats, BudgetExceeded>, u64);

fn run_both(
    code: &Code,
    target: &TargetDesc,
    fixed: &HashMap<Symbol, Bank>,
    cap: Option<u64>,
) -> ((Code, Outcome), (Code, Outcome)) {
    let run = |assign: &dyn Fn(&mut Code, &SearchBudget) -> Result<BankStats, BudgetExceeded>| {
        let mut code = code.clone();
        let budget = SearchBudget::new(cap, None);
        let result = assign(&mut code, &budget);
        (code, (result, budget.steps()))
    };
    let new = run(&|c, b| record_opt::assign_banks_budgeted(c, target, fixed, b));
    let old = run(&|c, b| reference::assign_banks_budgeted(c, target, fixed, b));
    (new, old)
}

/// Checks that both implementations agree on `code`, unbudgeted and under
/// step caps that fire in greedy placement and in the flip loop; returns
/// whether a cap fired in each phase.
fn assert_agree(
    code: &Code,
    target: &TargetDesc,
    fixed: &HashMap<Symbol, Bank>,
    what: &str,
) -> [bool; 2] {
    let ((new_code, new), (old_code, old)) = run_both(code, target, fixed, None);
    assert_eq!(new, old, "{what}: stats or steps differ");
    assert!(new_code == old_code, "{what}: layout or operand banks differ");
    let (Ok(_), total) = old else { unreachable!("an unlimited budget never fires") };
    if target.memory.banks < 2 {
        return [false, false];
    }

    let greedy = reference::greedy_steps(code, fixed);
    let mut fired = [false, false];
    let caps = [
        0,
        greedy / 2,
        greedy.saturating_sub(1),
        greedy,
        (greedy + total) / 2,
        total.saturating_sub(1),
    ];
    for cap in caps.into_iter().filter(|&cap| cap < total) {
        let ((new_code, new), (_, old)) = run_both(code, target, fixed, Some(cap));
        assert_eq!(new, old, "{what}: cap {cap} of {total} steps ends differently");
        assert!(new.0.is_err(), "{what}: cap {cap} of {total} steps did not fire");
        assert!(new_code == *code, "{what}: cap {cap} modified the code");
        fired[usize::from(cap >= greedy)] = true;
    }
    fired
}

/// The code and source bank hints as they reach `banks` in the `O2`
/// pipeline, or `None` when an earlier pass fails.
fn code_at_banks(compiler: &Compiler, source: &str) -> Option<(Code, HashMap<Symbol, Bank>)> {
    let lir = lower::lower(&dfl::parse(source).ok()?).ok()?;
    let mut unit = CompilationUnit::new(compiler.target(), compiler.tables(), &lir);
    for pass in PassPlan::o2().passes() {
        if pass.name() == "banks" {
            let fixed =
                unit.vars.iter().filter_map(|v| v.bank.map(|b| (v.name.clone(), b))).collect();
            return Some((unit.code, fixed));
        }
        pass.run(&mut unit).ok()?;
    }
    unreachable!("O2 runs banks")
}

/// dsp56k and every dual-bank cube point among seeds 1 to 40.
fn dual_bank_compilers() -> Vec<Compiler> {
    let cube = (1..=40u64).filter(|&seed| CubeParams::from_seed(seed).banks == 2);
    std::iter::once(record_isa::targets::dsp56k::target())
        .chain(cube.map(record_isa::cube::target_from_seed))
        .map(|t| Compiler::for_target(t).unwrap())
        .collect()
}

#[test]
fn dspstone_kernels_assign_banks_as_the_reference_does() {
    let mut fired = [false, false];
    for compiler in dual_bank_compilers() {
        for kernel in record_dspstone::kernels() {
            let Some((code, fixed)) = code_at_banks(&compiler, kernel.source) else { continue };
            let what = format!("{} on {}", kernel.name, compiler.target().name);
            let f = assert_agree(&code, compiler.target(), &fixed, &what);
            fired = [fired[0] | f[0], fired[1] | f[1]];
        }
    }
    assert_eq!(fired, [true, true], "caps must fire in greedy placement and in the flip loop");
}

#[test]
fn generated_programs_assign_banks_as_the_reference_does() {
    let compilers = dual_bank_compilers();
    let mut compared = 0usize;
    record_prop::run_cases(300, |rng| {
        let source = record_prop::dfl::gen_program(rng);
        for compiler in &compilers {
            let Some((code, fixed)) = code_at_banks(compiler, &source) else { continue };
            let what = format!("{source}\non {}", compiler.target().name);
            assert_agree(&code, compiler.target(), &fixed, &what);
            compared += 1;
        }
    });
    assert!(compared >= 300, "only {compared} generated programs reached banks");
}

/// Random instruction windows over a small symbol pool: repeated and
/// unplaced operands, parallel sub-operations, and `bank` hints both on
/// placed symbols and on symbols the layout never mentions.
#[test]
fn random_windows_with_hints_assign_banks_as_the_reference_does() {
    let target = record_isa::targets::dsp56k::target();
    let pool: Vec<Symbol> = (0..9).map(|i| Symbol::new(format!("v{i}"))).collect();
    let mut fired = [false, false];
    record_prop::run_cases(600, |rng| {
        let mem = |rng: &mut record_prop::Rng| {
            let base = rng.pick(&pool).clone();
            let mut m = MemLoc::scalar(base);
            m.bank = if rng.bool() { Bank::X } else { Bank::Y };
            Loc::Mem(m)
        };
        let leaf = |rng: &mut record_prop::Rng| match rng.usize(5) {
            0 => Loc::Reg(RegId::new(RegClassId(0), rng.usize(3) as u16)),
            1 => Loc::Imm(rng.i64_in(-4, 4)),
            _ => mem(rng),
        };
        let compute = |rng: &mut record_prop::Rng| {
            let mut expr = SemExpr::loc(leaf(rng));
            for _ in 0..rng.usize(3) {
                expr = SemExpr::bin(BinOp::Add, expr, SemExpr::loc(leaf(rng)));
            }
            let dst = if rng.bool() { mem(rng) } else { leaf(rng) };
            Insn::compute(dst, expr, "OP", 1, 1)
        };
        let mut code = Code::default();
        for _ in 0..rng.usize(12) {
            let mut insn = match rng.usize(8) {
                0 => Insn::ctrl(InsnKind::ArAdd { ar: 0, delta: 1 }, "ADRK", 1, 1),
                _ => compute(rng),
            };
            for _ in 0..rng.usize(3).saturating_sub(1) {
                insn.parallel.push(compute(rng));
            }
            code.insns.push(insn);
        }
        let mut next = [0u16, 0u16];
        for sym in &pool {
            if rng.usize(4) > 0 {
                let bank = if rng.usize(3) == 0 { Bank::Y } else { Bank::X };
                let len = rng.u32_in(0, 3);
                code.layout.place(sym.clone(), next[bank as usize], len, bank);
                next[bank as usize] += len as u16;
            }
        }
        let mut fixed: HashMap<Symbol, Bank> = HashMap::new();
        for sym in &pool {
            if rng.usize(4) == 0 {
                fixed.insert(sym.clone(), if rng.bool() { Bank::X } else { Bank::Y });
            }
        }
        let f = assert_agree(&code, &target, &fixed, &format!("{code:#?}\nfixed {fixed:?}"));
        fired = [fired[0] | f[0], fired[1] | f[1]];
    });
    assert_eq!(fired, [true, true], "caps must fire in greedy placement and in the flip loop");
}
