//! The decoded simulator against the interpreter it replaced.
//!
//! `Machine::run` decodes a program once into array-indexed steps and
//! executes the decoded form. `reference::Interpreter` below is the
//! engine it replaced, kept as the reference: it walks the instruction
//! list and resolves every operand through the layout on every
//! execution. Both run the same program on the same inputs; the outcome
//! (`RunResult` or `SimError`), every register, address register, memory
//! word and mode, and the trace text must be equal — on DSPStone
//! listings across targets, on generated programs, and on hand-built
//! failures.

use record::{Compiler, PassPlan};
use record_ir::{Bank, BinOp, Symbol};
use record_isa::{
    AddrMode, Code, Insn, InsnKind, Loc, MemLoc, RegClassId, RegId, SemExpr, StructureError,
    TargetDesc,
};
use record_sim::{Machine, RunResult, SimError};

mod reference {
    //! The interpreter `Machine::run` used before programs were decoded.

    use std::collections::HashMap;

    use record_ir::{Bank, Symbol};
    use record_isa::{
        AddrMode, Code, Insn, InsnKind, Loc, MemLoc, RegId, StructureError, TargetDesc,
    };
    use record_sim::{RunResult, SimError};

    /// A simulated processor that interprets `Code` directly.
    #[derive(Debug)]
    pub struct Interpreter<'t> {
        target: &'t TargetDesc,
        /// The register file: register `(class, index)` lives at
        /// `reg_base[class] + index`.
        regs: Vec<i64>,
        /// Per register class, the slot of its member 0 in `regs`.
        reg_base: Vec<usize>,
        pub ars: Vec<i64>,
        pub mem: [Vec<i64>; 2],
        modes: Vec<bool>,
        max_steps: u64,
        trace: Option<Vec<String>>,
    }

    impl<'t> Interpreter<'t> {
        /// Creates a machine with zeroed storage and default mode states.
        pub fn new(target: &'t TargetDesc) -> Self {
            let n_ars = target.agu.as_ref().map(|a| a.n_ars as usize).unwrap_or(0);
            let words = target.memory.words_per_bank as usize;
            let mut reg_base = Vec::with_capacity(target.reg_classes.len());
            let mut n_regs = 0;
            for class in &target.reg_classes {
                reg_base.push(n_regs);
                n_regs += class.count as usize;
            }
            Interpreter {
                target,
                regs: vec![0; n_regs],
                reg_base,
                ars: vec![0; n_ars],
                mem: [vec![0; words], vec![0; words]],
                modes: target.modes.iter().map(|m| m.default_on).collect(),
                max_steps: record_sim::DEFAULT_MAX_STEPS,
                trace: None,
            }
        }

        /// Overrides the runaway-loop step budget.
        pub fn with_max_steps(mut self, steps: u64) -> Self {
            self.max_steps = steps;
            self
        }

        /// Enables instruction tracing: every executed instruction is logged
        /// with its text; retrieve the log with [`Machine::take_trace`].
        pub fn with_trace(mut self) -> Self {
            self.trace = Some(Vec::new());
            self
        }

        /// Takes the accumulated trace (empty if tracing is off).
        pub fn take_trace(&mut self) -> Vec<String> {
            self.trace.take().unwrap_or_default()
        }

        /// Writes a value into a variable's element through the code's layout.
        ///
        /// # Errors
        ///
        /// Returns [`SimError::UnplacedSymbol`] for unknown symbols.
        pub fn poke(
            &mut self,
            sym: &Symbol,
            index: u32,
            value: i64,
            code: &Code,
        ) -> Result<(), SimError> {
            let (bank, addr) = code
                .layout
                .addr_of(sym, index as i64)
                .ok_or_else(|| SimError::UnplacedSymbol(sym.to_string()))?;
            self.write_mem(bank, addr as i64, value)
        }

        /// Reads a register (mainly for tests and the self-test generator);
        /// 0 for a register the target does not declare.
        pub fn reg(&self, r: RegId) -> i64 {
            self.reg_slot(r).map_or(0, |slot| self.regs[slot])
        }

        /// The register file slot of `r`, or `None` when the target does not
        /// declare it.
        fn reg_slot(&self, r: RegId) -> Option<usize> {
            let class = self.target.reg_classes.get(r.class.0 as usize)?;
            (r.index < class.count).then(|| self.reg_base[r.class.0 as usize] + r.index as usize)
        }

        /// The current state of mode `m`; `false` for modes the target does
        /// not declare (rather than panicking on a bad index).
        pub fn mode(&self, m: usize) -> bool {
            self.modes.get(m).copied().unwrap_or(false)
        }

        /// Executes a program to completion.
        ///
        /// # Errors
        ///
        /// Any [`SimError`]; the machine state is left as-at-failure.
        pub fn run(&mut self, code: &Code) -> Result<RunResult, SimError> {
            code.verify().map_err(SimError::Structure)?;
            let mut result = RunResult::default();
            let mut pc = 0usize;
            // (loop-start pc, trip count, counter symbol, iteration)
            let mut loops: Vec<(usize, u32, Symbol, u32)> = Vec::new();
            let mut counters: HashMap<Symbol, i64> = HashMap::new();
            let mut steps = 0u64;

            while pc < code.insns.len() {
                steps += 1;
                if steps > self.max_steps {
                    return Err(SimError::StepLimit);
                }
                let insn = &code.insns[pc];
                if let Some(trace) = &mut self.trace {
                    trace.push(format!("{pc:04}: {insn}"));
                }
                match &insn.kind {
                    InsnKind::LoopStart { var, count } => {
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        if *count == 0 {
                            pc = matching_end(code, pc)? + 1;
                            continue;
                        }
                        loops.push((pc, *count, var.clone(), 0));
                        counters.insert(var.clone(), 0);
                        pc += 1;
                    }
                    InsnKind::LoopEnd => {
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        let (start, count, var, iter) =
                            loops.pop().ok_or(SimError::Structure(StructureError::StrayLoopEnd))?;
                        let next_iter = iter + 1;
                        if next_iter < count {
                            counters.insert(var.clone(), next_iter as i64);
                            loops.push((start, count, var, next_iter));
                            pc = start + 1;
                        } else {
                            counters.remove(&var);
                            pc += 1;
                        }
                    }
                    InsnKind::Rpt { count } => {
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        let body = code
                            .insns
                            .get(pc + 1)
                            .ok_or(SimError::Structure(StructureError::RptAtEnd))?;
                        for _ in 0..*count {
                            steps += 1;
                            if steps > self.max_steps {
                                return Err(SimError::StepLimit);
                            }
                            self.exec_repeatable(body, code, &counters)?;
                            result.cycles += body.cycles as u64;
                            result.insns += 1;
                        }
                        pc += 2;
                    }
                    InsnKind::SetMode { mode, on } => {
                        let slot = self.modes.get_mut(*mode).ok_or(SimError::Structure(
                            StructureError::UnknownMode { mode: *mode },
                        ))?;
                        *slot = *on;
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        pc += 1;
                    }
                    InsnKind::ArLoad { ar, base, disp } => {
                        let (_, addr) = code
                            .layout
                            .addr_of(base, *disp)
                            .ok_or_else(|| SimError::UnplacedSymbol(base.to_string()))?;
                        self.ar_slot(*ar)?;
                        self.ars[*ar as usize] = addr as i64;
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        pc += 1;
                    }
                    InsnKind::ArAdd { ar, delta } => {
                        self.ar_slot(*ar)?;
                        self.ars[*ar as usize] += delta;
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        pc += 1;
                    }
                    InsnKind::ArLoadIndexed { ar, base, disp, index, down } => {
                        let (ibank, iaddr) = code
                            .layout
                            .addr_of(index, 0)
                            .ok_or_else(|| SimError::UnplacedSymbol(index.to_string()))?;
                        let ivalue = self.read_mem(ibank, iaddr as i64)?;
                        let (_, addr) = code
                            .layout
                            .addr_of(base, *disp)
                            .ok_or_else(|| SimError::UnplacedSymbol(base.to_string()))?;
                        self.ar_slot(*ar)?;
                        self.ars[*ar as usize] =
                            if *down { addr as i64 - ivalue } else { addr as i64 + ivalue };
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        pc += 1;
                    }
                    InsnKind::ArLoadMem { ar, cell } => {
                        let (bank, addr) = code
                            .layout
                            .addr_of(cell, 0)
                            .ok_or_else(|| SimError::UnplacedSymbol(cell.to_string()))?;
                        let v = self.read_mem(bank, addr as i64)?;
                        self.ar_slot(*ar)?;
                        self.ars[*ar as usize] = v;
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        pc += 1;
                    }
                    InsnKind::ArStore { ar, cell } => {
                        self.ar_slot(*ar)?;
                        let v = self.ars[*ar as usize];
                        let (bank, addr) = code
                            .layout
                            .addr_of(cell, 0)
                            .ok_or_else(|| SimError::UnplacedSymbol(cell.to_string()))?;
                        self.write_mem(bank, addr as i64, v)?;
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        pc += 1;
                    }
                    InsnKind::PtrInit { cell, base, disp } => {
                        let (_, target_addr) = code
                            .layout
                            .addr_of(base, *disp)
                            .ok_or_else(|| SimError::UnplacedSymbol(base.to_string()))?;
                        let (bank, addr) = code
                            .layout
                            .addr_of(cell, 0)
                            .ok_or_else(|| SimError::UnplacedSymbol(cell.to_string()))?;
                        self.write_mem(bank, addr as i64, target_addr as i64)?;
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        pc += 1;
                    }
                    InsnKind::Nop => {
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        pc += 1;
                    }
                    InsnKind::Compute { .. } => {
                        self.exec_bundle(insn, code, &counters)?;
                        result.cycles += insn.cycles as u64;
                        result.insns += 1;
                        pc += 1;
                    }
                }
            }
            Ok(result)
        }

        fn exec_repeatable(
            &mut self,
            insn: &Insn,
            code: &Code,
            counters: &HashMap<Symbol, i64>,
        ) -> Result<(), SimError> {
            match &insn.kind {
                InsnKind::Compute { .. } => self.exec_bundle(insn, code, counters),
                InsnKind::ArAdd { ar, delta } => {
                    self.ar_slot(*ar)?;
                    self.ars[*ar as usize] += delta;
                    Ok(())
                }
                other => {
                    Err(SimError::Structure(StructureError::RptOver { kind: format!("{other:?}") }))
                }
            }
        }

        fn ar_slot(&self, ar: u16) -> Result<(), SimError> {
            if (ar as usize) < self.ars.len() {
                Ok(())
            } else {
                Err(SimError::Structure(StructureError::NoSuchAddressRegister {
                    ar,
                    target: self.target.name.to_string(),
                }))
            }
        }

        /// Executes a bundle: all reads happen before all writes; address-
        /// register post-modifications apply afterwards, in operand order.
        fn exec_bundle(
            &mut self,
            insn: &Insn,
            code: &Code,
            counters: &HashMap<Symbol, i64>,
        ) -> Result<(), SimError> {
            let mut writes: Vec<(Loc, i64)> = Vec::new();
            let mut posts: Vec<(u16, i8)> = Vec::new();
            self.eval_insn(insn, code, counters, &mut writes, &mut posts)?;
            for (dst, value) in writes {
                self.write_loc(&dst, value, code, counters)?;
            }
            for (ar, post) in posts {
                self.ar_slot(ar)?;
                self.ars[ar as usize] += post as i64;
            }
            Ok(())
        }

        fn eval_insn(
            &self,
            insn: &Insn,
            code: &Code,
            counters: &HashMap<Symbol, i64>,
            writes: &mut Vec<(Loc, i64)>,
            posts: &mut Vec<(u16, i8)>,
        ) -> Result<(), SimError> {
            if let InsnKind::Compute { dst, expr } = &insn.kind {
                let saturating = insn.mode_sensitive
                    && self
                        .target
                        .sat_mode()
                        .and_then(|m| self.modes.get(m).copied())
                        .unwrap_or(false);
                let mut err: Option<SimError> = None;
                let value = expr.eval(self.target.word_width, saturating, &mut |loc| match self
                    .read_loc(loc, code, counters, posts)
                {
                    Ok(v) => v,
                    Err(e) => {
                        err.get_or_insert(e);
                        0
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
                // destination post-modification registers too
                if let Loc::Mem(m) = dst {
                    if let AddrMode::Indirect { ar, post } = m.mode {
                        if post != 0 {
                            posts.push((ar, post));
                        }
                    }
                }
                writes.push((dst.clone(), value));
            }
            for p in &insn.parallel {
                self.eval_insn(p, code, counters, writes, posts)?;
            }
            Ok(())
        }

        fn resolve(
            &self,
            m: &MemLoc,
            code: &Code,
            counters: &HashMap<Symbol, i64>,
        ) -> Result<(Bank, i64), SimError> {
            match m.mode {
                AddrMode::Direct(a) => Ok((m.bank, a as i64)),
                AddrMode::Indirect { ar, .. } => {
                    self.ar_slot(ar)?;
                    Ok((m.bank, self.ars[ar as usize]))
                }
                AddrMode::Unresolved => {
                    let index = match &m.index {
                        None => 0,
                        Some(var) => {
                            let i = *counters
                                .get(var)
                                .ok_or_else(|| SimError::UnknownCounter(var.to_string()))?;
                            if m.down {
                                -i
                            } else {
                                i
                            }
                        }
                    };
                    let (bank, addr) = code
                        .layout
                        .addr_of(&m.base, m.disp + index)
                        .ok_or_else(|| SimError::UnplacedSymbol(m.base.to_string()))?;
                    Ok((bank, addr as i64))
                }
            }
        }

        fn read_loc(
            &self,
            loc: &Loc,
            code: &Code,
            counters: &HashMap<Symbol, i64>,
            posts: &mut Vec<(u16, i8)>,
        ) -> Result<i64, SimError> {
            match loc {
                Loc::Imm(v) => Ok(record_ir::ops::wrap_to_width(*v, self.target.word_width)),
                Loc::Reg(r) => self
                    .reg_slot(*r)
                    .map(|slot| self.regs[slot])
                    .ok_or(SimError::UnknownRegister(*r)),
                Loc::Mem(m) => {
                    let (bank, addr) = self.resolve(m, code, counters)?;
                    if let AddrMode::Indirect { ar, post } = m.mode {
                        if post != 0 {
                            posts.push((ar, post));
                        }
                    }
                    self.read_mem(bank, addr)
                }
            }
        }

        fn write_loc(
            &mut self,
            loc: &Loc,
            value: i64,
            code: &Code,
            counters: &HashMap<Symbol, i64>,
        ) -> Result<(), SimError> {
            match loc {
                Loc::Imm(_) => Err(SimError::Structure(StructureError::ImmediateDestination)),
                Loc::Reg(r) => {
                    let slot = self.reg_slot(*r).ok_or(SimError::UnknownRegister(*r))?;
                    self.regs[slot] = value;
                    Ok(())
                }
                Loc::Mem(m) => {
                    let (bank, addr) = self.resolve(m, code, counters)?;
                    self.write_mem(bank, addr, value)
                }
            }
        }

        fn read_mem(&self, bank: Bank, addr: i64) -> Result<i64, SimError> {
            let ix =
                usize::try_from(addr).map_err(|_| SimError::AddressOutOfRange { bank, addr })?;
            self.mem[bank as usize]
                .get(ix)
                .copied()
                .ok_or(SimError::AddressOutOfRange { bank, addr })
        }

        fn write_mem(&mut self, bank: Bank, addr: i64, value: i64) -> Result<(), SimError> {
            let ix =
                usize::try_from(addr).map_err(|_| SimError::AddressOutOfRange { bank, addr })?;
            let width = self.target.word_width;
            let slot = self.mem[bank as usize]
                .get_mut(ix)
                .ok_or(SimError::AddressOutOfRange { bank, addr })?;
            *slot = record_ir::ops::wrap_to_width(value, width);
            Ok(())
        }
    }

    fn matching_end(code: &Code, start: usize) -> Result<usize, SimError> {
        let mut depth = 0i32;
        for (i, insn) in code.insns.iter().enumerate().skip(start) {
            match insn.kind {
                InsnKind::LoopStart { .. } => depth += 1,
                InsnKind::LoopEnd => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(i);
                    }
                }
                _ => {}
            }
        }
        Err(SimError::Structure(StructureError::NoMatchingLoopEnd { index: start }))
    }
}

use reference::Interpreter;

/// Runs `code` on both engines from the same inputs and asserts that
/// they agree on everything observable; returns the shared outcome.
fn check(
    code: &Code,
    target: &TargetDesc,
    inputs: &[(Symbol, Vec<i64>)],
    max_steps: u64,
) -> Result<RunResult, SimError> {
    let mut decoded = Machine::new(target).with_max_steps(max_steps).with_trace();
    let mut reference = Interpreter::new(target).with_max_steps(max_steps).with_trace();
    for (sym, values) in inputs {
        for (i, &v) in values.iter().enumerate() {
            let poked = decoded.poke(sym, i as u32, v, code);
            assert_eq!(poked, reference.poke(sym, i as u32, v, code));
        }
    }
    let outcome = decoded.run(code);
    let listing = code.render();
    assert_eq!(outcome, reference.run(code), "{listing}");
    for (c, class) in target.reg_classes.iter().enumerate() {
        for index in 0..class.count {
            let r = RegId::new(RegClassId(c as u16), index);
            assert_eq!(decoded.reg(r), reference.reg(r), "{r} after\n{listing}");
        }
    }
    for ar in 0..=reference.ars.len() as u16 {
        assert_eq!(decoded.ar(ar), reference.ars.get(ar as usize).copied(), "AR{ar}\n{listing}");
    }
    for bank in [Bank::X, Bank::Y] {
        let words = &reference.mem[bank as usize];
        for (addr, &word) in words.iter().enumerate() {
            assert_eq!(decoded.peek_at(bank, addr as u16), Some(word), "{bank}:{addr}\n{listing}");
        }
        assert_eq!(decoded.peek_at(bank, words.len() as u16), None);
    }
    for m in 0..=target.modes.len() {
        assert_eq!(decoded.mode(m), reference.mode(m), "mode {m}\n{listing}");
    }
    assert_eq!(decoded.take_trace(), reference.take_trace(), "{listing}");
    outcome
}

/// Every layout entry filled with pseudo-random full-width values.
fn random_inputs(code: &Code, rng: &mut record_prop::Rng) -> Vec<(Symbol, Vec<i64>)> {
    code.layout
        .entries()
        .iter()
        .map(|e| (e.sym.clone(), (0..e.len).map(|_| rng.i64_in(-40000, 40000)).collect()))
        .collect()
}

fn targets() -> Vec<TargetDesc> {
    use record_isa::targets::{asip, dsp56k, simple_risc, tic25};
    let mut out = vec![
        tic25::target(),
        dsp56k::target(),
        asip::build(&asip::AsipParams::dsp()),
        simple_risc::target(4),
    ];
    out.extend((1..=12).map(record_isa::cube::target_from_seed));
    out
}

/// The plans the listings are compared under: O0, O2, and O2 stopped
/// before address assignment, so symbolic and loop-indexed operands
/// reach the simulator too.
fn plans() -> [PassPlan; 3] {
    [PassPlan::o0(), PassPlan::o2(), PassPlan::o2().without("address")]
}

#[test]
fn dspstone_listings_run_identically() {
    let mut checked = 0usize;
    for target in targets() {
        let compiler = Compiler::for_target(target.clone()).unwrap();
        for kernel in record_dspstone::kernels() {
            for plan in plans() {
                let Ok(compiled) = compiler.compile(kernel.source, plan) else { continue };
                for seed in [1, 2] {
                    let inputs: Vec<(Symbol, Vec<i64>)> = kernel.inputs(seed).into_iter().collect();
                    let outcome = check(&compiled.code, &target, &inputs, 1_000_000);
                    assert!(outcome.is_ok(), "{} on {}: {outcome:?}", kernel.name, target.name);
                }
                checked += 1;
            }
        }
    }
    assert!(checked >= 250, "only {checked} listings compiled");
}

#[test]
fn generated_programs_run_identically() {
    let targets = targets();
    let compilers: Vec<Compiler> =
        targets.iter().take(4).map(|t| Compiler::for_target(t.clone()).unwrap()).collect();
    let (mut programs, mut cut_short) = (0usize, 0usize);
    record_prop::run_cases(800, |rng| {
        let source = record_prop::dfl::gen_program(rng);
        let which = rng.usize(compilers.len());
        let mut ran = false;
        for plan in plans() {
            let Ok(compiled) = compilers[which].compile(source.as_str(), plan) else { continue };
            let inputs = random_inputs(&compiled.code, rng);
            let full = check(&compiled.code, &targets[which], &inputs, 1_000_000);
            assert!(full.is_ok(), "{source}\non {}: {full:?}", targets[which].name);
            // the same run stopped part-way: the state at the step limit
            let budget = rng.usize(full.unwrap().insns as usize + 1) as u64;
            let partial = check(&compiled.code, &targets[which], &inputs, budget);
            cut_short += usize::from(partial == Err(SimError::StepLimit));
            ran = true;
        }
        programs += usize::from(ran);
    });
    assert!(programs >= 500, "only {programs} generated programs compiled");
    assert!(cut_short >= 500, "only {cut_short} runs hit the step limit");
}

fn mem(name: &str) -> Loc {
    Loc::Mem(MemLoc::scalar(name))
}

fn placed(syms: &[(&str, u16, u32, Bank)]) -> Code {
    let mut code = Code::default();
    for &(sym, addr, len, bank) in syms {
        code.layout.place(Symbol::new(sym), addr, len, bank);
    }
    code
}

fn lp(var: &str, count: u32) -> Insn {
    Insn::ctrl(InsnKind::LoopStart { var: Symbol::new(var), count }, "LOOP", 2, 2)
}

fn end() -> Insn {
    Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 3)
}

fn indexed(base: &str, var: &str, disp: i64, down: bool) -> Loc {
    Loc::Mem(MemLoc { disp, index: Some(Symbol::new(var)), down, ..MemLoc::scalar(base) })
}

/// Operands that do not resolve fail only when they execute: inside a
/// zero-trip loop they never do, and the program runs clean.
#[test]
fn unresolvable_operands_in_a_zero_trip_loop_run_clean() {
    let target = record_isa::targets::dsp56k::target();
    let x = target.reg_class("x").unwrap();
    let undeclared = RegId::new(x, target.class(x).count);
    let mut code = placed(&[("y", 0, 1, Bank::X)]);
    code.insns.push(Insn::mov(mem("y"), Loc::Imm(3), "MOVE #3,y", 1, 1));
    code.insns.push(lp("i", 0));
    code.insns.push(Insn::mov(mem("y"), mem("ghost"), "MOVE ghost,y", 1, 1));
    code.insns.push(Insn::mov(Loc::Reg(undeclared), Loc::Imm(1), "MOVE #1,x2", 1, 1));
    code.insns.push(Insn::ctrl(
        InsnKind::ArLoad { ar: 0, base: Symbol::new("ghost"), disp: 0 },
        "MOVE #ghost,R0",
        1,
        1,
    ));
    code.insns.push(lp("j", 2));
    code.insns.push(Insn::mov(mem("y"), indexed("ghost", "j", 0, false), "MOVE ghost[j],y", 1, 1));
    code.insns.push(end());
    code.insns.push(end());
    let run = check(&code, &target, &[], 1000).unwrap();
    assert_eq!(run.insns, 2, "the store and the skipped loop's start");

    // executed, the same operands fail with the interpreter's errors
    for (insn, want) in [
        (
            Insn::mov(mem("y"), mem("ghost"), "MOVE ghost,y", 1, 1),
            SimError::UnplacedSymbol("ghost".into()),
        ),
        (
            Insn::mov(Loc::Reg(undeclared), Loc::Imm(1), "MOVE #1,x2", 1, 1),
            SimError::UnknownRegister(undeclared),
        ),
        (
            // the counter is checked before the layout
            Insn::mov(mem("y"), indexed("ghost", "i", 0, false), "MOVE ghost[i],y", 1, 1),
            SimError::UnknownCounter("i".into()),
        ),
    ] {
        let mut code = placed(&[("y", 0, 1, Bank::X)]);
        code.insns.push(insn);
        assert_eq!(check(&code, &target, &[], 1000), Err(want));
    }
}

/// An address beyond the bank, through every way an address is formed.
#[test]
fn out_of_range_addresses_fail_alike() {
    let target = record_isa::targets::dsp56k::target();
    let top = target.memory.words_per_bank;
    let direct = |addr| Loc::Mem(MemLoc { mode: AddrMode::Direct(addr), ..MemLoc::scalar("y") });
    let via_ar =
        Loc::Mem(MemLoc { mode: AddrMode::Indirect { ar: 1, post: 1 }, ..MemLoc::scalar("a") });
    let cases: Vec<Vec<Insn>> = vec![
        // a displacement past the end of the bank
        vec![Insn::mov(
            mem("y"),
            Loc::Mem(MemLoc { disp: 7, ..MemLoc::scalar("edge") }),
            "MOVE",
            1,
            1,
        )],
        // a direct address past the end
        vec![Insn::mov(direct(top), Loc::Imm(1), "MOVE #1,@top", 1, 1)],
        // an address register walked past the end by its post-increment
        vec![
            Insn::ctrl(InsnKind::ArLoad { ar: 1, base: Symbol::new("edge"), disp: 0 }, "LD", 1, 1),
            Insn::mov(mem("y"), via_ar.clone(), "MOVE (r1)+,y", 1, 1),
            Insn::mov(mem("y"), via_ar, "MOVE (r1)+,y", 1, 1),
        ],
        // a descending loop index below address 0
        vec![
            lp("i", 3),
            Insn::mov(mem("y"), indexed("a", "i", 0, true), "MOVE a[-i],y", 1, 1),
            end(),
        ],
        // a second write fails after the first landed
        vec![{
            let mut bundle = Insn::mov(mem("y"), Loc::Imm(5), "MOVE #5,y", 1, 1);
            bundle.parallel.push(Insn::mov(direct(top + 1), Loc::Imm(6), "MOVE #6,@top+1", 0, 0));
            bundle
        }],
    ];
    for insns in cases {
        let mut code =
            placed(&[("a", 0, 1, Bank::X), ("y", 1, 1, Bank::X), ("edge", top - 1, 1, Bank::Y)]);
        code.insns = insns;
        let outcome = check(&code, &target, &[(Symbol::new("y"), vec![9])], 1000);
        assert!(matches!(outcome, Err(SimError::AddressOutOfRange { .. })), "{outcome:?}");
    }
}

/// Address registers the AGU lacks, wherever they appear.
#[test]
fn missing_address_registers_fail_alike() {
    let target = record_isa::targets::dsp56k::target();
    let n_ars = target.agu.as_ref().unwrap().n_ars;
    let missing =
        Loc::Mem(MemLoc { mode: AddrMode::Indirect { ar: n_ars, post: 1 }, ..MemLoc::scalar("y") });
    let cases = [
        Insn::ctrl(InsnKind::ArAdd { ar: n_ars, delta: 1 }, "ADD #1,R8", 1, 1),
        Insn::ctrl(InsnKind::ArLoad { ar: n_ars, base: Symbol::new("y"), disp: 0 }, "LD", 1, 1),
        Insn::ctrl(InsnKind::ArStore { ar: n_ars, cell: Symbol::new("y") }, "ST", 1, 1),
        Insn::mov(mem("y"), missing.clone(), "MOVE (r8)+,y", 1, 1),
        Insn::mov(missing, Loc::Imm(2), "MOVE #2,(r8)+", 1, 1),
    ];
    for insn in cases {
        let mut code = placed(&[("y", 0, 1, Bank::X)]);
        code.insns.push(insn);
        let outcome = check(&code, &target, &[], 1000);
        assert!(
            matches!(
                outcome,
                Err(SimError::Structure(StructureError::NoSuchAddressRegister { ar, .. })) if ar == n_ars
            ),
            "{outcome:?}"
        );
    }
    // tic25's AGU is smaller than dsp56k's: the same AR exists on one only
    let small = record_isa::targets::tic25::target();
    let mut code = placed(&[("y", 0, 1, Bank::X)]);
    code.insns.push(Insn::ctrl(InsnKind::ArAdd { ar: 7, delta: 1 }, "ADRK", 1, 1));
    assert!(check(&code, &target, &[], 10).is_ok());
    let outcome = check(&code, &small, &[], 10);
    assert_eq!(outcome.is_ok(), small.agu.as_ref().is_some_and(|a| a.n_ars > 7));
}

/// The step limit stops both engines at the same instruction, inside
/// nested loops and inside a hardware repeat; run to the end, a loop that
/// reuses its enclosing loop's counter retires it for both engines.
#[test]
fn the_step_limit_stops_both_engines_alike() {
    let target = record_isa::targets::tic25::target();
    let accumulate = |operand: Loc| {
        Insn::compute(
            mem("y"),
            SemExpr::bin(BinOp::Add, SemExpr::loc(mem("y")), SemExpr::loc(operand)),
            "ADD",
            1,
            1,
        )
    };
    let mut code = placed(&[("y", 0, 1, Bank::X), ("a", 1, 4, Bank::X)]);
    code.insns.push(lp("i", 50));
    code.insns.push(lp("i", 3));
    code.insns.push(accumulate(indexed("a", "i", 0, false)));
    code.insns.push(end());
    code.insns.push(Insn::ctrl(InsnKind::Rpt { count: 4 }, "RPTK 3", 1, 1));
    code.insns.push(accumulate(Loc::Imm(1)));
    code.insns.push(end());
    let inputs = [(Symbol::new("a"), vec![1, 2, 3, 4])];
    let full = check(&code, &target, &inputs, u64::MAX).unwrap();
    assert_eq!(full.insns, 50 * (1 + 3 * 2 + 1 + 4 + 1) + 1);
    let limited = (0..60)
        .filter(|&budget| check(&code, &target, &inputs, budget) == Err(SimError::StepLimit))
        .count();
    assert_eq!(limited, 60);

    // the inner loop's end retires counter `i`: the rest of the outer
    // body reads an inactive counter
    code.insns.insert(code.insns.len() - 1, accumulate(indexed("a", "i", 1, false)));
    assert_eq!(check(&code, &target, &inputs, u64::MAX), Err(SimError::UnknownCounter("i".into())));
}

/// Structural errors come from `Code::verify` before anything runs.
#[test]
fn malformed_code_fails_before_it_runs() {
    let target = record_isa::targets::tic25::target();
    let mut code = placed(&[("y", 0, 1, Bank::X)]);
    code.insns.push(Insn::mov(mem("y"), Loc::Imm(1), "MOV", 1, 1));
    code.insns.push(lp("i", 2));
    let outcome = check(&code, &target, &[], 100);
    assert_eq!(outcome, Err(SimError::Structure(StructureError::UnclosedLoops { count: 1 })));
}
