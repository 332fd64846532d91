//! The target-specific comparison compiler — the "TI C compiler" column
//! of Table 1.
//!
//! Section 3.1 of the paper reports (via DSPStone) that mid-90s
//! target-specific C compilers produced code 2×–8× worse than hand
//! assembly. This module models such a compiler for the `tic25` target
//! with the deficiencies those studies identified:
//!
//! * statement-at-a-time code generation: no common-subexpression
//!   sharing, no algebraic reshaping of trees,
//! * **no AGU exploitation**: every loop-variant array access recomputes
//!   its address from a memory-resident loop counter (a
//!   LAC/ADLK/SACL/LAR macro costing 5 words / 5 cycles per access),
//! * the loop counter itself lives in memory and is maintained with
//!   explicit load/add/store instructions each iteration,
//! * no instruction fusion, no hardware repeat, naive per-use mode
//!   switching.
//!
//! Instruction *selection* still uses the target's real instruction set
//! (the TI compiler did emit `MPY`/`APAC`); the losses are exactly where
//! the literature located them: addressing, loop overhead and missing
//! cross-statement optimization.

use record_ir::lir::{Lir, LirItem, StorageKind, VarInfo};
use record_ir::transform::RuleSet;
use record_ir::{dfl, lower, Symbol};
use record_isa::{AddrMode, Code, Insn, InsnKind, Loc, TargetDesc};
use record_opt::modes::ModeStrategy;

use crate::select::Emitter;
use crate::CompileError;

/// Compiles a program for the `tic25` target in the style of a mid-90s
/// target-specific C compiler.
///
/// # Errors
///
/// See [`CompileError`].
///
/// # Example
///
/// ```
/// let lir = record_ir::lower::lower(&record_ir::dfl::parse(
///     "program p; var x, y: fix; begin y := x + 1; end",
/// )?)?;
/// let code = record::baseline::compile(&lir)?;
/// assert_eq!(code.target, "tic25");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile(lir: &Lir) -> Result<Code, CompileError> {
    let target = record_isa::targets::tic25::target();
    compile_for(lir, &target)
}

/// Parses, lowers and baseline-compiles a source text.
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile_source(source: &str) -> Result<Code, CompileError> {
    let ast = dfl::parse(source)?;
    let lir = lower::lower(&ast)?;
    compile(&lir)
}

/// The generic engine behind [`compile`], usable with any accumulator-
/// style target (the benches only exercise `tic25`).
pub fn compile_for(lir: &Lir, target: &TargetDesc) -> Result<Code, CompileError> {
    let mut emitter = Emitter::new(target);
    // the statements are selected in a copy of the program's pool
    *emitter.pool_mut() = lir.pool.clone();
    let mut insns: Vec<Insn> = Vec::new();
    let mut counter_syms: Vec<Symbol> = Vec::new();
    emit_items(&lir.body, target, &mut emitter, &mut counter_syms, &mut insns)?;

    let mut code = Code {
        insns,
        layout: Default::default(),
        target: target.name.clone(),
        name: lir.name.to_string(),
    };

    let mut vars: Vec<VarInfo> = lir.vars.clone();
    for c in &counter_syms {
        vars.push(VarInfo {
            name: c.clone(),
            len: 1,
            kind: StorageKind::Var,
            bank: None,
            is_fix: false,
        });
    }
    for s in emitter.scratch_symbols() {
        vars.push(VarInfo {
            name: s.clone(),
            len: 1,
            kind: StorageKind::Var,
            bank: None,
            is_fix: true,
        });
    }
    // declaration-order layout — no offset assignment
    code.layout = record_opt::layout::layout_in_order(
        vars.iter().map(|v| (v.name.clone(), v.len, v.bank)),
        target,
    )
    .map_err(CompileError::Layout)?;

    resolve_direct(&mut code, target)?;
    record_opt::insert_mode_changes(&mut code, target, ModeStrategy::PerUse);
    code.verify().map_err(|e| CompileError::Verify { pass: "baseline".into(), error: e })?;
    Ok(code)
}

fn counter_name(var: &Symbol) -> Symbol {
    Symbol::new(format!("$i_{var}"))
}

fn emit_items(
    items: &[LirItem],
    target: &TargetDesc,
    emitter: &mut Emitter<'_>,
    counter_syms: &mut Vec<Symbol>,
    out: &mut Vec<Insn>,
) -> Result<(), CompileError> {
    for item in items {
        match item {
            LirItem::Assign(stmt) => {
                let (stmt_insns, _) = emitter.emit_assign(stmt, &RuleSet::none(), 1)?;
                emit_statement_with_addressing(stmt_insns, out);
            }
            LirItem::Loop { var, count, body } => {
                let counter = counter_name(var);
                if !counter_syms.contains(&counter) {
                    counter_syms.push(counter.clone());
                }
                // counter := 0 (LACK 0; SACL $i)
                out.push(Insn::mov(Loc::Reg(acc_of(target)), Loc::Imm(0), "LACK 0", 1, 1));
                out.push(Insn::mov(
                    Loc::Mem(record_isa::MemLoc::scalar(counter.clone())),
                    Loc::Reg(acc_of(target)),
                    format!("SACL {counter}"),
                    1,
                    1,
                ));
                let init = target.loop_ctrl.init_cost;
                out.push(Insn::ctrl(
                    InsnKind::LoopStart { var: var.clone(), count: *count },
                    format!("LOOP #{count}"),
                    init.words,
                    init.cycles,
                ));
                emit_items(body, target, emitter, counter_syms, out)?;
                // counter := counter + 1 (LAC $i; ADDK 1; SACL $i)
                out.push(Insn::mov(
                    Loc::Reg(acc_of(target)),
                    Loc::Mem(record_isa::MemLoc::scalar(counter.clone())),
                    format!("LAC {counter}"),
                    1,
                    1,
                ));
                out.push(Insn::compute(
                    Loc::Reg(acc_of(target)),
                    record_isa::SemExpr::bin(
                        record_ir::BinOp::Add,
                        record_isa::SemExpr::loc(Loc::Reg(acc_of(target))),
                        record_isa::SemExpr::loc(Loc::Imm(1)),
                    ),
                    "ADDK 1",
                    1,
                    1,
                ));
                out.push(Insn::mov(
                    Loc::Mem(record_isa::MemLoc::scalar(counter.clone())),
                    Loc::Reg(acc_of(target)),
                    format!("SACL {counter}"),
                    1,
                    1,
                ));
                let end = target.loop_ctrl.end_cost;
                out.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLP", end.words, end.cycles));
            }
        }
    }
    Ok(())
}

fn acc_of(target: &TargetDesc) -> record_isa::RegId {
    // the first singleton register class is the accumulator in all our
    // accumulator-style targets
    let class = target.reg_classes.iter().position(|c| c.is_singleton()).unwrap_or(0);
    record_isa::RegId::singleton(record_isa::RegClassId(class as u16))
}

/// Prepends per-statement address computations: every loop-variant operand
/// gets an [`InsnKind::ArLoadIndexed`] macro (5 words, 5 cycles) and is
/// rewritten to plain indirect mode.
/// Per-statement AR assignment key: (base, displacement, counter, down).
type StreamKey = (Symbol, i64, Symbol, bool);

fn emit_statement_with_addressing(stmt_insns: Vec<Insn>, out: &mut Vec<Insn>) {
    let mut prologue: Vec<Insn> = Vec::new();
    let mut rewritten = stmt_insns;
    let mut next_ar: u16 = 0;
    let mut assigned: Vec<(StreamKey, u16)> = Vec::new();
    for insn in &mut rewritten {
        rewrite_insn(insn, &mut prologue, &mut next_ar, &mut assigned);
    }
    out.extend(prologue);
    out.extend(rewritten);
}

fn rewrite_insn(
    insn: &mut Insn,
    prologue: &mut Vec<Insn>,
    next_ar: &mut u16,
    assigned: &mut Vec<(StreamKey, u16)>,
) {
    if let InsnKind::Compute { dst, expr } = &mut insn.kind {
        let mut handle = |m: &mut record_isa::MemLoc| {
            let Some(var) = m.index.clone() else { return };
            let key = (m.base.clone(), m.disp, var.clone(), m.down);
            let ar = match assigned.iter().find(|(k, _)| *k == key) {
                Some((_, ar)) => *ar,
                None => {
                    let ar = *next_ar;
                    *next_ar += 1;
                    assigned.push((key, ar));
                    prologue.push(Insn::ctrl(
                        InsnKind::ArLoadIndexed {
                            ar,
                            base: m.base.clone(),
                            disp: m.disp,
                            index: counter_name(&var),
                            down: m.down,
                        },
                        format!(
                            "LAC $i_{var}; {}; ADLK #{}+{}; SACL $a; LAR AR{ar},$a",
                            if m.down { "NEG" } else { "NOP" },
                            m.base,
                            m.disp
                        ),
                        5,
                        5,
                    ));
                    ar
                }
            };
            m.index = None;
            m.down = false;
            m.mode = AddrMode::Indirect { ar, post: 0 };
        };
        for l in expr.reads_mut() {
            if let Loc::Mem(m) = l {
                handle(m);
            }
        }
        if let Loc::Mem(m) = dst {
            handle(m);
        }
    }
    for p in &mut insn.parallel {
        rewrite_insn(p, prologue, next_ar, assigned);
    }
}

/// Resolves remaining (loop-invariant) operands to direct addressing and
/// fills in banks.
fn resolve_direct(code: &mut Code, _target: &TargetDesc) -> Result<(), CompileError> {
    let layout = code.layout.clone();
    for insn in &mut code.insns {
        resolve_insn(insn, &layout)?;
    }
    Ok(())
}

fn resolve_insn(insn: &mut Insn, layout: &record_isa::DataLayout) -> Result<(), CompileError> {
    if let InsnKind::Compute { dst, expr } = &mut insn.kind {
        let fix = |m: &mut record_isa::MemLoc| -> Result<(), CompileError> {
            if m.mode == AddrMode::Unresolved {
                let (bank, addr) = layout.addr_of(&m.base, m.disp).ok_or_else(|| {
                    CompileError::Address(record_opt::AddressError::Unplaced {
                        sym: m.base.clone(),
                    })
                })?;
                m.bank = bank;
                m.mode = AddrMode::Direct(addr);
            }
            Ok(())
        };
        for l in expr.reads_mut() {
            if let Loc::Mem(m) = l {
                fix(m)?;
            }
        }
        if let Loc::Mem(m) = dst {
            fix(m)?;
        }
    }
    for p in &mut insn.parallel {
        resolve_insn(p, layout)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_sim::run_program;
    use std::collections::HashMap;

    const FIR_SRC: &str = "
        program fir;
        const N = 8;
        in x: fix[N];
        in c: fix[N];
        out y: fix;
        begin
          y := 0;
          for i in 0..N-1 loop
            y := y + c[i] * x[i];
          end loop;
        end
    ";

    #[test]
    fn baseline_is_correct_but_bigger() {
        let ast = dfl::parse(FIR_SRC).unwrap();
        let lir = lower::lower(&ast).unwrap();
        let baseline = compile(&lir).unwrap();
        let record = crate::Compiler::for_target(record_isa::targets::tic25::target())
            .unwrap()
            .compile(&lir, crate::CompileRequest::default())
            .unwrap()
            .code;

        let x: Vec<i64> = (1..=8).collect();
        let c: Vec<i64> = (1..=8).rev().collect();
        let expect: i64 = x.iter().zip(&c).map(|(a, b)| a * b).sum();
        let inputs: HashMap<Symbol, Vec<i64>> =
            [(Symbol::new("x"), x), (Symbol::new("c"), c)].into_iter().collect();
        let target = record_isa::targets::tic25::target();
        let (out, base_run) = run_program(&baseline, &target, &inputs).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![expect]);
        let (out2, rec_run) = run_program(&record, &target, &inputs).unwrap();
        assert_eq!(out2[&Symbol::new("y")], vec![expect]);

        assert!(
            baseline.size_words() > record.size_words(),
            "baseline {} vs record {}",
            baseline.size_words(),
            record.size_words()
        );
        assert!(base_run.cycles > rec_run.cycles);
    }

    #[test]
    fn address_macros_present_for_array_accesses() {
        let code = compile_source(FIR_SRC).unwrap();
        let macros =
            code.insns.iter().filter(|i| matches!(i.kind, InsnKind::ArLoadIndexed { .. })).count();
        assert_eq!(macros, 2, "one per array stream in the loop body");
    }

    #[test]
    fn counter_lives_in_memory() {
        let code = compile_source(FIR_SRC).unwrap();
        assert!(code.layout.entry(&Symbol::new("$i_i")).is_some());
        // counter maintenance instructions appear
        assert!(code.insns.iter().any(|i| i.text == "ADDK 1"));
    }

    #[test]
    fn straight_line_code_matches_record_quality() {
        // without loops the baseline's handicaps vanish except variants
        let src = "program p; var a, b, y: fix; begin y := a + b; end";
        let base = compile_source(src).unwrap();
        let rec = crate::Compiler::for_target(record_isa::targets::tic25::target())
            .unwrap()
            .compile(src, crate::CompileRequest::default())
            .unwrap()
            .code;
        assert_eq!(base.size_words(), rec.size_words());
    }
}
