//! A register-transfer-level simulator for RECORD target models.
//!
//! The paper's evaluation measures code size and cycle counts on real
//! silicon; this reproduction replaces the silicon with a deterministic
//! simulator. Because every instruction carries its own semantics (a
//! [`record_isa::SemExpr`] over concrete locations), the simulator is
//! target-independent: it executes whatever the selector bound, including
//! address-register post-modification, hardware repeat, structured loops,
//! saturation modes and parallel (simultaneous-read) operation bundles.
//!
//! Its two jobs:
//!
//! * **validation** — every compiled kernel is checked bit-exactly against
//!   its reference Rust implementation,
//! * **measurement** — cycle counts feed the Section 3.1 overhead bench;
//!   code size comes from [`record_isa::Code::size_words`].
//!
//! A program runs in two steps: [`Machine::decode`] resolves it once into
//! a [`Program`], and [`Machine::execute`] runs the decoded form, as often
//! as needed. [`Machine::run`] does both.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use record_ir::{Bank, BinOp, Symbol};
use record_isa::{Code, RegId, StructureError, TargetDesc};

mod program;

pub use program::{DecodeBuffers, Program};
use program::{Node, Op, Operand, StepKind};

/// An error raised during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A memory operand referenced a symbol missing from the layout.
    UnplacedSymbol(String),
    /// A resolved address fell outside the bank.
    AddressOutOfRange {
        /// The bank accessed.
        bank: Bank,
        /// The offending address.
        addr: i64,
    },
    /// A loop-variant operand's counter is not active.
    UnknownCounter(String),
    /// The step budget was exhausted (runaway loop guard).
    StepLimit,
    /// Structural problem (unbalanced loops, repeat without target).
    Structure(StructureError),
    /// An instruction read or wrote a register the target does not
    /// declare (its class does not exist, or has fewer members).
    UnknownRegister(RegId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnplacedSymbol(s) => write!(f, "symbol `{s}` not placed in data layout"),
            SimError::AddressOutOfRange { bank, addr } => {
                write!(f, "address {addr} outside bank {bank}")
            }
            SimError::UnknownCounter(s) => write!(f, "loop counter `{s}` not active"),
            SimError::StepLimit => f.write_str("step limit exceeded"),
            SimError::Structure(s) => write!(f, "bad code structure: {s}"),
            SimError::UnknownRegister(r) => write!(f, "register {r} not declared by the target"),
        }
    }
}

impl std::error::Error for SimError {}

/// Dynamic execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Machine cycles consumed.
    pub cycles: u64,
    /// Instructions executed (bundles count once; repeats count each
    /// execution).
    pub insns: u64,
}

/// A simulated processor instance.
///
/// # Example
///
/// ```
/// use record_isa::{Code, Insn, Loc, MemLoc};
/// use record_sim::Machine;
///
/// let target = record_isa::targets::tic25::target();
/// let mut code = Code::default();
/// code.layout.place(record_ir::Symbol::new("x"), 0, 1, record_ir::Bank::X);
/// code.layout.place(record_ir::Symbol::new("y"), 1, 1, record_ir::Bank::X);
/// code.insns.push(Insn::mov(
///     Loc::Mem(MemLoc::scalar("y")),
///     Loc::Mem(MemLoc::scalar("x")),
///     "MOV y,x", 1, 1,
/// ));
/// let mut m = Machine::new(&target);
/// m.poke(&record_ir::Symbol::new("x"), 0, 42, &code)?;
/// m.run(&code)?;
/// assert_eq!(m.peek(&record_ir::Symbol::new("y"), 0, &code), Some(42));
/// # Ok::<(), record_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Machine<'t> {
    target: &'t TargetDesc,
    /// The register file: register `(class, index)` lives at
    /// `reg_base[class] + index`.
    regs: Vec<i64>,
    /// Per register class, the slot of its member 0 in `regs`.
    reg_base: Vec<usize>,
    ars: Vec<i64>,
    /// Per bank, the words from address 0 up to the highest one written
    /// since creation or the last [`reset`](Machine::reset); every word
    /// beyond is zero. Each bank reserves its full size up front, so it
    /// grows by zero-filling, never by reallocating.
    mem: [Vec<i64>; 2],
    /// Words per bank.
    words: usize,
    modes: Vec<bool>,
    max_steps: u64,
    trace: Option<Vec<String>>,
    /// The value of each loop-counter slot of the running program;
    /// `None` while its loop is not active.
    counters: Vec<Option<i64>>,
    scratch: Scratch,
}

/// The vectors of a [`Machine`], without its target: what
/// [`Machine::into_storage`] leaves for the next machine to be built in.
/// What they held means nothing; only their capacity is kept.
#[derive(Debug, Default)]
pub struct MachineStorage {
    regs: Vec<i64>,
    reg_base: Vec<usize>,
    ars: Vec<i64>,
    mem: [Vec<i64>; 2],
    modes: Vec<bool>,
    counters: Vec<Option<i64>>,
    scratch: Scratch,
}

/// The default runaway-loop guard of [`Machine::new`] (in executed
/// steps); override it per machine with [`Machine::with_max_steps`] or
/// per run with [`run_program_with_steps`].
pub const DEFAULT_MAX_STEPS: u64 = 10_000_000;

impl<'t> Machine<'t> {
    /// Creates a machine with zeroed storage and default mode states.
    pub fn new(target: &'t TargetDesc) -> Self {
        Machine::with_storage(target, MachineStorage::default())
    }

    /// [`Machine::new`] built in the vectors of `storage` (see
    /// [`into_storage`](Machine::into_storage)): the same machine, which
    /// allocates only where `target` needs more than `storage` holds.
    pub fn with_storage(target: &'t TargetDesc, storage: MachineStorage) -> Self {
        let MachineStorage {
            mut regs,
            mut reg_base,
            mut ars,
            mut mem,
            mut modes,
            mut counters,
            scratch,
        } = storage;
        let n_ars = target.agu.as_ref().map(|a| a.n_ars as usize).unwrap_or(0);
        let words = target.memory.words_per_bank as usize;
        reg_base.clear();
        let mut n_regs = 0;
        for class in &target.reg_classes {
            reg_base.push(n_regs);
            n_regs += class.count as usize;
        }
        regs.clear();
        regs.resize(n_regs, 0);
        ars.clear();
        ars.resize(n_ars, 0);
        for bank in &mut mem {
            bank.clear();
            bank.reserve(words);
        }
        modes.clear();
        modes.extend(target.modes.iter().map(|m| m.default_on));
        counters.clear();
        Machine {
            target,
            regs,
            reg_base,
            ars,
            mem,
            words,
            modes,
            max_steps: DEFAULT_MAX_STEPS,
            trace: None,
            counters,
            scratch,
        }
    }

    /// Takes the machine apart into its vectors, for
    /// [`with_storage`](Machine::with_storage) to build the next machine
    /// in. The trace log is dropped.
    pub fn into_storage(self) -> MachineStorage {
        let Machine { regs, reg_base, ars, mem, modes, counters, scratch, .. } = self;
        MachineStorage { regs, reg_base, ars, mem, modes, counters, scratch }
    }

    /// Restores the state of [`Machine::new`]: every register, address
    /// register and memory word zero, every mode at its default.
    /// Memory is held only up to the highest word written, so a machine
    /// can run many short programs without clearing whole banks. The
    /// step budget and tracing setting are kept; the trace log is
    /// emptied.
    pub fn reset(&mut self) {
        self.regs.fill(0);
        self.ars.fill(0);
        for bank in &mut self.mem {
            bank.clear();
        }
        for (mode, decl) in self.modes.iter_mut().zip(&self.target.modes) {
            *mode = decl.default_on;
        }
        if let Some(trace) = &mut self.trace {
            trace.clear();
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

    /// Reads a variable's element through the code's layout.
    pub fn peek(&self, sym: &Symbol, index: u32, code: &Code) -> Option<i64> {
        let (bank, addr) = code.layout.addr_of(sym, index as i64)?;
        self.peek_at(bank, addr)
    }

    /// Writes a value into one data word, for callers that resolved the
    /// address through the layout once.
    ///
    /// # Errors
    ///
    /// [`SimError::AddressOutOfRange`] beyond the end of the bank.
    pub fn poke_at(&mut self, bank: Bank, addr: u16, value: i64) -> Result<(), SimError> {
        self.write_mem(bank, addr as i64, value)
    }

    /// Reads one data word; `None` beyond the end of the bank.
    pub fn peek_at(&self, bank: Bank, addr: u16) -> Option<i64> {
        self.read_mem(bank, addr as i64).ok()
    }

    /// Reads an address register; `None` for one the target's AGU lacks.
    pub fn ar(&self, ar: u16) -> Option<i64> {
        self.ars.get(ar as usize).copied()
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

    /// Decodes `code` for this machine's target (see [`Program`]).
    ///
    /// # Errors
    ///
    /// [`SimError::Structure`] when [`Code::verify`] rejects the code.
    pub fn decode<'c>(&self, code: &'c Code) -> Result<Program<'c>, SimError> {
        Program::decode(code, self, &mut DecodeBuffers::default())
    }

    /// [`decode`](Machine::decode) into the vectors of `buffers`, which
    /// [`Program::recycle`] returns them to: decoding program after
    /// program this way allocates only when a program outgrows them.
    ///
    /// # Errors
    ///
    /// [`SimError::Structure`] when [`Code::verify`] rejects the code.
    pub fn decode_reusing<'c>(
        &self,
        code: &'c Code,
        buffers: &mut DecodeBuffers,
    ) -> Result<Program<'c>, SimError> {
        Program::decode(code, self, buffers)
    }

    /// Executes a program to completion: decodes it, then runs
    /// [`execute`](Machine::execute).
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; the machine state is left as-at-failure.
    pub fn run(&mut self, code: &Code) -> Result<RunResult, SimError> {
        let program = self.decode(code)?;
        self.execute(&program)
    }

    /// Executes a decoded program to completion. The program must have
    /// been decoded for this machine's target.
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; the machine state is left as-at-failure.
    pub fn execute(&mut self, program: &Program<'_>) -> Result<RunResult, SimError> {
        let steps = &program.steps;
        let mut result = RunResult::default();
        let mut pc = 0usize;
        self.scratch.loops.clear();
        self.counters.clear();
        self.counters.resize(program.counters.len(), None);
        let mut executed = 0u64;

        while pc < steps.len() {
            executed += 1;
            if executed > self.max_steps {
                return Err(SimError::StepLimit);
            }
            if let Some(trace) = &mut self.trace {
                trace.push(format!("{pc:04}: {}", program.code.insns[pc]));
            }
            let step = &steps[pc];
            result.cycles += step.cycles as u64;
            result.insns += 1;
            pc += 1;
            match &step.kind {
                StepKind::LoopStart { counter, count, end } => {
                    if *count == 0 {
                        pc = end + 1;
                        continue;
                    }
                    self.scratch.loops.push((pc - 1, *count, *counter, 0));
                    self.counters[*counter] = Some(0);
                }
                StepKind::LoopEnd => {
                    let (start, count, counter, iter) = self
                        .scratch
                        .loops
                        .pop()
                        .ok_or(SimError::Structure(StructureError::StrayLoopEnd))?;
                    let next_iter = iter + 1;
                    if next_iter < count {
                        self.counters[counter] = Some(next_iter as i64);
                        self.scratch.loops.push((start, count, counter, next_iter));
                        pc = start + 1;
                    } else {
                        self.counters[counter] = None;
                    }
                }
                StepKind::Rpt { count } => {
                    let body =
                        steps.get(pc).ok_or(SimError::Structure(StructureError::RptAtEnd))?;
                    for _ in 0..*count {
                        executed += 1;
                        if executed > self.max_steps {
                            return Err(SimError::StepLimit);
                        }
                        match &body.kind {
                            StepKind::Bundle(ops) => self.exec_bundle(program, ops)?,
                            StepKind::ArAdd { ar, delta } => {
                                self.ar_slot(*ar)?;
                                self.ars[*ar as usize] += delta;
                            }
                            _ => {
                                return Err(SimError::Structure(StructureError::RptOver {
                                    kind: format!("{:?}", program.code.insns[pc].kind),
                                }))
                            }
                        }
                        result.cycles += body.cycles as u64;
                        result.insns += 1;
                    }
                    pc += 1;
                }
                StepKind::SetMode { mode, on } => {
                    let slot = self
                        .modes
                        .get_mut(*mode)
                        .ok_or(SimError::Structure(StructureError::UnknownMode { mode: *mode }))?;
                    *slot = *on;
                }
                StepKind::ArLoad { ar, base } => {
                    let (_, addr) = base.get()?;
                    self.ar_slot(*ar)?;
                    self.ars[*ar as usize] = addr as i64;
                }
                StepKind::ArAdd { ar, delta } => {
                    self.ar_slot(*ar)?;
                    self.ars[*ar as usize] += delta;
                }
                StepKind::ArLoadIndexed { ar, base, index, down } => {
                    let (ibank, iaddr) = index.get()?;
                    let ivalue = self.read_mem(ibank, iaddr as i64)?;
                    let (_, addr) = base.get()?;
                    self.ar_slot(*ar)?;
                    self.ars[*ar as usize] =
                        if *down { addr as i64 - ivalue } else { addr as i64 + ivalue };
                }
                StepKind::ArLoadMem { ar, cell } => {
                    let (bank, addr) = cell.get()?;
                    let v = self.read_mem(bank, addr as i64)?;
                    self.ar_slot(*ar)?;
                    self.ars[*ar as usize] = v;
                }
                StepKind::ArStore { ar, cell } => {
                    self.ar_slot(*ar)?;
                    let v = self.ars[*ar as usize];
                    let (bank, addr) = cell.get()?;
                    self.write_mem(bank, addr as i64, v)?;
                }
                StepKind::PtrInit { cell, base } => {
                    let (_, target_addr) = base.get()?;
                    let (bank, addr) = cell.get()?;
                    self.write_mem(bank, addr as i64, target_addr as i64)?;
                }
                StepKind::Nop => {}
                StepKind::Bundle(ops) => self.exec_bundle(program, ops)?,
            }
        }
        Ok(result)
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
    /// register post-modifications apply afterwards.
    fn exec_bundle(&mut self, program: &Program<'_>, ops: &Range<usize>) -> Result<(), SimError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let outcome = self.bundle(program, &program.ops[ops.clone()], &mut scratch);
        self.scratch = scratch;
        outcome
    }

    fn bundle(
        &mut self,
        program: &Program<'_>,
        ops: &[Op],
        s: &mut Scratch,
    ) -> Result<(), SimError> {
        s.values.clear();
        s.posts.clear();
        for op in ops {
            let saturating = op.saturable
                && program.sat_mode.and_then(|m| self.modes.get(m).copied()).unwrap_or(false);
            let value = self.eval(program, &program.nodes[op.nodes.clone()], saturating, s)?;
            // destination post-modification registers too
            if let Operand::Indirect { ar, post, .. } = op.dst {
                if post != 0 {
                    s.posts.push((ar, post));
                }
            }
            s.values.push(value);
        }
        for (op, &value) in ops.iter().zip(&s.values) {
            self.write(program, &op.dst, value)?;
        }
        for &(ar, post) in &s.posts {
            self.ar_slot(ar)?;
            self.ars[ar as usize] += post as i64;
        }
        Ok(())
    }

    /// Evaluates a postfix expression; the first failing read fails it.
    fn eval(
        &self,
        program: &Program<'_>,
        nodes: &[Node],
        saturating: bool,
        s: &mut Scratch,
    ) -> Result<i64, SimError> {
        if let [Node::Read(operand)] = nodes {
            return self.read(program, operand, &mut s.posts);
        }
        let width = self.target.word_width;
        s.stack.clear();
        for node in nodes {
            let value = match node {
                Node::Read(operand) => self.read(program, operand, &mut s.posts)?,
                Node::Bin(op) => {
                    let b = s.stack.pop().expect("postfix operand");
                    let a = s.stack.pop().expect("postfix operand");
                    let op = match op {
                        BinOp::Add if saturating => BinOp::SatAdd,
                        BinOp::Sub if saturating => BinOp::SatSub,
                        other => *other,
                    };
                    op.eval(a, b, width)
                }
                Node::Un(op) => op.eval(s.stack.pop().expect("postfix operand"), width),
            };
            s.stack.push(value);
        }
        Ok(s.stack.pop().expect("postfix result"))
    }

    /// The (bank, address) of a memory operand.
    fn resolve(&self, program: &Program<'_>, operand: &Operand) -> Result<(Bank, i64), SimError> {
        match operand {
            Operand::Imm(_) | Operand::Reg(_) | Operand::BadReg(_) => {
                unreachable!("only memory operands have an address")
            }
            Operand::Mem(bank, addr) => Ok((*bank, *addr as i64)),
            Operand::Indirect { bank, ar, .. } => {
                self.ar_slot(*ar)?;
                Ok((*bank, self.ars[*ar as usize]))
            }
            Operand::Indexed { bank, base, counter, down } => {
                let i = self.counter(program, *counter)?;
                Ok((*bank, (base + if *down { -i } else { i }) as u16 as i64))
            }
            Operand::Unplaced { counter, sym } => {
                if let Some(counter) = counter {
                    self.counter(program, *counter)?;
                }
                Err(SimError::UnplacedSymbol(sym.to_string()))
            }
        }
    }

    fn counter(&self, program: &Program<'_>, slot: usize) -> Result<i64, SimError> {
        self.counters[slot]
            .ok_or_else(|| SimError::UnknownCounter(program.counters[slot].to_string()))
    }

    fn read(
        &self,
        program: &Program<'_>,
        operand: &Operand,
        posts: &mut Vec<(u16, i8)>,
    ) -> Result<i64, SimError> {
        match operand {
            Operand::Imm(v) => Ok(*v),
            Operand::Reg(slot) => Ok(self.regs[*slot]),
            Operand::BadReg(r) => Err(SimError::UnknownRegister(*r)),
            _ => {
                let (bank, addr) = self.resolve(program, operand)?;
                if let Operand::Indirect { ar, post, .. } = *operand {
                    if post != 0 {
                        posts.push((ar, post));
                    }
                }
                self.read_mem(bank, addr)
            }
        }
    }

    fn write(
        &mut self,
        program: &Program<'_>,
        operand: &Operand,
        value: i64,
    ) -> Result<(), SimError> {
        match operand {
            Operand::Imm(_) => Err(SimError::Structure(StructureError::ImmediateDestination)),
            Operand::Reg(slot) => {
                self.regs[*slot] = value;
                Ok(())
            }
            Operand::BadReg(r) => Err(SimError::UnknownRegister(*r)),
            _ => {
                let (bank, addr) = self.resolve(program, operand)?;
                self.write_mem(bank, addr, value)
            }
        }
    }

    /// The index of `addr` in its bank, if the bank has that word.
    fn word(&self, bank: Bank, addr: i64) -> Result<usize, SimError> {
        usize::try_from(addr)
            .ok()
            .filter(|&ix| ix < self.words)
            .ok_or(SimError::AddressOutOfRange { bank, addr })
    }

    fn read_mem(&self, bank: Bank, addr: i64) -> Result<i64, SimError> {
        let ix = self.word(bank, addr)?;
        Ok(self.mem[bank as usize].get(ix).copied().unwrap_or(0))
    }

    fn write_mem(&mut self, bank: Bank, addr: i64, value: i64) -> Result<(), SimError> {
        let ix = self.word(bank, addr)?;
        let words = &mut self.mem[bank as usize];
        if words.len() <= ix {
            words.resize(ix + 1, 0);
        }
        words[ix] = record_ir::ops::wrap_to_width(value, self.target.word_width);
        Ok(())
    }
}

/// Buffers a bundle reuses, so executing one allocates nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// The active loops, innermost last, as (loop-start pc, trip count,
    /// counter slot, iteration).
    loops: Vec<(usize, u32, usize, u32)>,
    /// The postfix value stack.
    stack: Vec<i64>,
    /// One value per operation, written after every read.
    values: Vec<i64>,
    /// Address-register post-modifications, applied after the writes.
    posts: Vec<(u16, i8)>,
}

/// Convenience: loads inputs, runs, and returns the final value of every
/// placed symbol.
///
/// # Errors
///
/// Propagates any [`SimError`]; unknown input symbols are an error, as is
/// a layout entry whose storage cannot be read back (a malformed layout
/// must not be silently reported as zeros).
pub fn run_program(
    code: &Code,
    target: &TargetDesc,
    inputs: &HashMap<Symbol, Vec<i64>>,
) -> Result<(HashMap<Symbol, Vec<i64>>, RunResult), SimError> {
    run_program_with_steps(code, target, inputs, DEFAULT_MAX_STEPS)
}

/// [`run_program`] with an explicit step budget instead of
/// [`DEFAULT_MAX_STEPS`] — validation harnesses pick a budget matched
/// to the program under test so a miscompiled infinite loop fails fast.
///
/// # Errors
///
/// See [`run_program`]; additionally [`SimError::StepLimit`] once
/// `max_steps` is exhausted.
pub fn run_program_with_steps(
    code: &Code,
    target: &TargetDesc,
    inputs: &HashMap<Symbol, Vec<i64>>,
    max_steps: u64,
) -> Result<(HashMap<Symbol, Vec<i64>>, RunResult), SimError> {
    let mut machine = Machine::new(target).with_max_steps(max_steps);
    for (sym, values) in inputs {
        for (i, v) in values.iter().enumerate() {
            machine.poke(sym, i as u32, *v, code)?;
        }
    }
    let result = machine.run(code)?;
    let mut outputs = HashMap::new();
    for entry in code.layout.entries() {
        let mut values = Vec::with_capacity(entry.len as usize);
        for i in 0..entry.len {
            let v = machine
                .peek(&entry.sym, i, code)
                .ok_or_else(|| SimError::UnplacedSymbol(format!("{}[{i}]", entry.sym)))?;
            values.push(v);
        }
        outputs.insert(entry.sym.clone(), values);
    }
    Ok((outputs, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_isa::{AddrMode, Insn, InsnKind, Loc, MemLoc, SemExpr};

    fn t() -> TargetDesc {
        record_isa::targets::tic25::target()
    }

    fn mem(name: &str) -> Loc {
        Loc::Mem(MemLoc::scalar(name))
    }

    fn code_with_layout(syms: &[(&str, u32)]) -> Code {
        let mut code = Code::default();
        let mut addr = 0u16;
        for (s, len) in syms {
            code.layout.place(Symbol::new(*s), addr, *len, Bank::X);
            addr += *len as u16;
        }
        code
    }

    #[test]
    fn computes_and_counts_cycles() {
        let target = t();
        let mut code = code_with_layout(&[("x", 1), ("y", 1), ("z", 1)]);
        code.insns.push(Insn::compute(
            mem("z"),
            SemExpr::bin(BinOp::Add, SemExpr::loc(mem("x")), SemExpr::loc(mem("y"))),
            "ADDM",
            1,
            2,
        ));
        let inputs: HashMap<Symbol, Vec<i64>> =
            [(Symbol::new("x"), vec![20]), (Symbol::new("y"), vec![22])].into_iter().collect();
        let (out, result) = run_program(&code, &target, &inputs).unwrap();
        assert_eq!(out[&Symbol::new("z")], vec![42]);
        assert_eq!(result.cycles, 2);
        assert_eq!(result.insns, 1);
    }

    #[test]
    fn loops_iterate_with_counter_resolution() {
        let target = t();
        let mut code = code_with_layout(&[("a", 4), ("y", 1)]);
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
            "LOOP 4",
            2,
            2,
        ));
        let a_i = MemLoc {
            base: Symbol::new("a"),
            disp: 0,
            index: Some(Symbol::new("i")),
            down: false,
            bank: Bank::X,
            mode: AddrMode::Unresolved,
        };
        code.insns.push(Insn::compute(
            mem("y"),
            SemExpr::bin(BinOp::Add, SemExpr::loc(mem("y")), SemExpr::loc(Loc::Mem(a_i))),
            "ACCUM",
            1,
            1,
        ));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 3));
        let inputs: HashMap<Symbol, Vec<i64>> =
            [(Symbol::new("a"), vec![1, 2, 3, 4])].into_iter().collect();
        let (out, result) = run_program(&code, &target, &inputs).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![10]);
        // 2 (init) + 4*(1+3) = 18 cycles
        assert_eq!(result.cycles, 18);
    }

    #[test]
    fn indirect_post_increment_walks_memory() {
        let target = t();
        let mut code = code_with_layout(&[("a", 3), ("y", 1)]);
        code.insns.push(Insn::ctrl(
            InsnKind::ArLoad { ar: 0, base: Symbol::new("a"), disp: 0 },
            "LRLK AR0,#a",
            2,
            2,
        ));
        let walk = MemLoc {
            base: Symbol::new("a"),
            disp: 0,
            index: None,
            down: false,
            bank: Bank::X,
            mode: AddrMode::Indirect { ar: 0, post: 1 },
        };
        code.insns.push(Insn::ctrl(InsnKind::Rpt { count: 3 }, "RPTK 3", 1, 1));
        code.insns.push(Insn::compute(
            mem("y"),
            SemExpr::bin(BinOp::Add, SemExpr::loc(mem("y")), SemExpr::loc(Loc::Mem(walk))),
            "ADD *+",
            1,
            1,
        ));
        let inputs: HashMap<Symbol, Vec<i64>> =
            [(Symbol::new("a"), vec![5, 6, 7])].into_iter().collect();
        let (out, result) = run_program(&code, &target, &inputs).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![18]);
        assert_eq!(result.cycles, 2 + 1 + 3);
    }

    #[test]
    fn parallel_bundle_reads_before_writes() {
        // swap x and y in one bundle: only correct with read-before-write
        let target = t();
        let mut code = code_with_layout(&[("x", 1), ("y", 1)]);
        let mut main = Insn::mov(mem("x"), mem("y"), "MOV x,y", 1, 1);
        main.parallel.push(Insn::mov(mem("y"), mem("x"), "MOV y,x", 0, 0));
        code.insns.push(main);
        let inputs: HashMap<Symbol, Vec<i64>> =
            [(Symbol::new("x"), vec![1]), (Symbol::new("y"), vec![2])].into_iter().collect();
        let (out, _) = run_program(&code, &target, &inputs).unwrap();
        assert_eq!(out[&Symbol::new("x")], vec![2]);
        assert_eq!(out[&Symbol::new("y")], vec![1]);
    }

    #[test]
    fn saturation_mode_affects_mode_sensitive_insns() {
        let target = t();
        let mut code = code_with_layout(&[("x", 1), ("y", 1), ("z", 1)]);
        code.insns.push(Insn::ctrl(InsnKind::SetMode { mode: 0, on: true }, "SOVM", 1, 1));
        let mut add = Insn::compute(
            mem("z"),
            SemExpr::bin(BinOp::Add, SemExpr::loc(mem("x")), SemExpr::loc(mem("y"))),
            "ADD",
            1,
            1,
        );
        add.mode_sensitive = true;
        code.insns.push(add.clone());
        let inputs: HashMap<Symbol, Vec<i64>> =
            [(Symbol::new("x"), vec![30000]), (Symbol::new("y"), vec![10000])]
                .into_iter()
                .collect();
        let (out, _) = run_program(&code, &target, &inputs).unwrap();
        assert_eq!(out[&Symbol::new("z")], vec![32767], "saturated");

        // without SOVM the same instruction wraps
        let mut code2 = code_with_layout(&[("x", 1), ("y", 1), ("z", 1)]);
        code2.insns.push(add);
        let (out2, _) = run_program(&code2, &target, &inputs).unwrap();
        assert_eq!(out2[&Symbol::new("z")], vec![record_ir::ops::wrap_to_width(40000, 16)]);
    }

    #[test]
    fn zero_trip_loops_are_skipped() {
        let target = t();
        let mut code = code_with_layout(&[("y", 1)]);
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 0 },
            "LOOP 0",
            2,
            2,
        ));
        code.insns.push(Insn::mov(mem("y"), Loc::Imm(9), "MOV", 1, 1));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
        let (out, _) = run_program(&code, &target, &HashMap::new()).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![0]);
    }

    #[test]
    fn nested_loops_multiply() {
        let target = t();
        let mut code = code_with_layout(&[("y", 1)]);
        for v in ["i", "j"] {
            code.insns.push(Insn::ctrl(
                InsnKind::LoopStart { var: Symbol::new(v), count: 3 },
                "LOOP 3",
                2,
                2,
            ));
        }
        code.insns.push(Insn::compute(
            mem("y"),
            SemExpr::bin(BinOp::Add, SemExpr::loc(mem("y")), SemExpr::loc(Loc::Imm(1))),
            "INC",
            1,
            1,
        ));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
        let (out, _) = run_program(&code, &target, &HashMap::new()).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![9]);
    }

    #[test]
    fn step_limit_guards_runaway() {
        let target = t();
        let mut code = code_with_layout(&[("y", 1)]);
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 1000 },
            "LOOP",
            2,
            2,
        ));
        code.insns.push(Insn::nop());
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
        let mut m = Machine::new(&target).with_max_steps(100);
        assert_eq!(m.run(&code), Err(SimError::StepLimit));
    }

    #[test]
    fn unplaced_symbol_reported() {
        let target = t();
        let mut code = Code::default();
        code.insns.push(Insn::mov(mem("y"), Loc::Imm(1), "MOV", 1, 1));
        let mut m = Machine::new(&target);
        assert!(matches!(m.run(&code), Err(SimError::UnplacedSymbol(_))));
    }

    #[test]
    fn setmode_on_undeclared_mode_is_an_error_not_a_panic() {
        // a target with no modes at all
        let target = record_isa::targets::simple_risc::target(8);
        assert!(target.modes.is_empty());
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(InsnKind::SetMode { mode: 0, on: true }, "SOVM", 1, 1));
        let mut m = Machine::new(&target);
        assert!(matches!(m.run(&code), Err(SimError::Structure(_))));
        // out-of-range mode index on a target that does have modes
        let target2 = t();
        let mut code2 = Code::default();
        code2.insns.push(Insn::ctrl(
            InsnKind::SetMode { mode: target2.modes.len(), on: true },
            "S??",
            1,
            1,
        ));
        let mut m2 = Machine::new(&target2);
        assert!(matches!(m2.run(&code2), Err(SimError::Structure(_))));
    }

    #[test]
    fn mode_accessor_tolerates_bad_index() {
        let target = record_isa::targets::simple_risc::target(8);
        let m = Machine::new(&target);
        assert!(!m.mode(7));
    }

    #[test]
    fn unreadable_outputs_are_an_error_not_zeros() {
        let target = t();
        let mut code = Code::default();
        // placed beyond the end of bank memory: nothing can read it back
        let far = target.memory.words_per_bank;
        code.layout.place(Symbol::new("ghost"), far + 100, 1, Bank::X);
        let err = run_program(&code, &target, &HashMap::new()).unwrap_err();
        assert!(matches!(err, SimError::UnplacedSymbol(ref s) if s.contains("ghost")), "{err:?}");
    }

    #[test]
    fn register_reads_default_to_zero() {
        let target = t();
        let m = Machine::new(&target);
        let acc = record_isa::RegId::singleton(target.reg_class("acc").unwrap());
        assert_eq!(m.reg(acc), 0);
    }

    /// Every piece of architectural state `reset` must restore: the
    /// register file, address registers, both memory banks and the modes.
    type State = (Vec<i64>, Vec<i64>, [Vec<i64>; 2], Vec<bool>);

    fn state(m: &Machine<'_>) -> State {
        (m.regs.clone(), m.ars.clone(), m.mem.clone(), m.modes.clone())
    }

    /// A dsp56k program that dirties every piece of [`State`]: both
    /// banks up to their last word, an address register, a register and
    /// the saturation mode. It reads its input from `lo`.
    fn dirtying_program(target: &TargetDesc) -> Code {
        let top = target.memory.words_per_bank - 1;
        let mut code = Code::default();
        code.layout.place(Symbol::new("lo"), 0, 1, Bank::X);
        code.layout.place(Symbol::new("hx"), top, 1, Bank::X);
        code.layout.place(Symbol::new("hy"), top - 1, 2, Bank::Y);
        let sat = target.sat_mode().expect("dsp56k declares a saturation mode");
        let on = !target.modes[sat].default_on;
        code.insns.push(Insn::ctrl(InsnKind::SetMode { mode: sat, on }, "MODE", 1, 1));
        code.insns.push(Insn::ctrl(
            InsnKind::ArLoad { ar: 1, base: Symbol::new("hx"), disp: 0 },
            "MOVE #hx,R1",
            1,
            1,
        ));
        let reg = record_isa::RegId::new(target.reg_class("x").unwrap(), 1);
        code.insns.push(Insn::mov(Loc::Reg(reg), mem("lo"), "MOVE lo,x1", 1, 1));
        code.insns.push(Insn::mov(mem("hx"), Loc::Reg(reg), "MOVE x1,hx", 1, 1));
        let hy = |disp| MemLoc { disp, bank: Bank::Y, ..MemLoc::scalar("hy") };
        code.insns.push(Insn::mov(Loc::Mem(hy(1)), Loc::Reg(reg), "MOVE x1,hy+1", 1, 1));
        code.insns.push(Insn::mov(Loc::Mem(hy(0)), Loc::Imm(-3), "MOVE #-3,hy", 1, 1));
        code
    }

    #[test]
    fn reset_restores_a_fresh_machine() {
        // dsp56k: two banks, address registers and a saturation mode
        let target = record_isa::targets::dsp56k::target();
        let top = target.memory.words_per_bank - 1;
        let code = dirtying_program(&target);
        let fresh_state = state(&Machine::new(&target));
        let mut fresh = Machine::new(&target);
        fresh.poke(&Symbol::new("lo"), 0, 1234, &code).unwrap();
        let fresh_run = fresh.run(&code).unwrap();
        let fresh_after = state(&fresh);

        let mut reused = Machine::new(&target);
        for value in [77, 1234] {
            reused.reset();
            assert_eq!(state(&reused), fresh_state, "reset left state behind");
            reused.poke(&Symbol::new("lo"), 0, value, &code).unwrap();
            let run = reused.run(&code).unwrap();
            assert_ne!(state(&reused), fresh_state, "the program must dirty the machine");
            if value == 1234 {
                assert_eq!(run, fresh_run);
                assert_eq!(state(&reused), fresh_after, "a run after reset diverged");
            }
        }
        assert_eq!(reused.mem[Bank::X as usize][top as usize], 1234);
        assert_eq!(reused.mem[Bank::Y as usize][top as usize], 1234);
        assert_eq!(reused.mem[Bank::Y as usize][top as usize - 1], -3);
        reused.reset();
        assert_eq!(state(&reused), fresh_state);
    }

    /// A machine built in the storage a dirtied machine left, of the same
    /// target or of another one, starts and runs as a new machine does.
    #[test]
    fn a_machine_in_recycled_storage_is_a_new_machine() {
        let dsp56k = record_isa::targets::dsp56k::target();
        let tic25 = record_isa::targets::tic25::target();
        let code = dirtying_program(&dsp56k);
        let run = |m: &mut Machine<'_>, value| {
            m.poke(&Symbol::new("lo"), 0, value, &code).unwrap();
            m.run(&code).unwrap()
        };
        let new_state = state(&Machine::new(&dsp56k));
        let mut new = Machine::new(&dsp56k);
        let new_run = run(&mut new, 1234);

        let mut dirty = Machine::new(&dsp56k).with_trace();
        run(&mut dirty, 77);
        let mut other = Machine::with_storage(&tic25, dirty.into_storage());
        assert_eq!(other.regs.len(), tic25.reg_classes.iter().map(|c| c.count as usize).sum());
        other.poke_at(Bank::X, 9, 5).unwrap();
        for storage in [other.into_storage(), Machine::new(&dsp56k).into_storage()] {
            let mut recycled = Machine::with_storage(&dsp56k, storage);
            assert_eq!(state(&recycled), new_state);
            assert_eq!(recycled.max_steps, DEFAULT_MAX_STEPS);
            assert!(recycled.take_trace().is_empty());
            assert_eq!(run(&mut recycled, 1234), new_run);
            assert_eq!(state(&recycled), state(&new));
        }
    }

    /// The register file holds exactly the registers the target declares:
    /// reading or writing any other one fails the run, while the `reg`
    /// accessor reports it as 0.
    #[test]
    fn undeclared_registers_fail_the_run() {
        let target = record_isa::targets::dsp56k::target();
        let x = target.reg_class("x").unwrap();
        let count = target.class(x).count;
        let beyond_class = RegId::new(x, count);
        let no_class = RegId::new(record_isa::RegClassId(target.reg_classes.len() as u16), 0);
        for bad in [beyond_class, no_class] {
            let mut write = code_with_layout(&[("y", 1)]);
            write.insns.push(Insn::mov(Loc::Reg(bad), Loc::Imm(5), "MOVE #5,??", 1, 1));
            let mut m = Machine::new(&target);
            assert_eq!(m.run(&write), Err(SimError::UnknownRegister(bad)));

            let mut read = code_with_layout(&[("y", 1)]);
            read.insns.push(Insn::mov(mem("y"), Loc::Reg(bad), "MOVE ??,y", 1, 1));
            let mut m = Machine::new(&target);
            assert_eq!(m.run(&read), Err(SimError::UnknownRegister(bad)));
            assert_eq!(m.reg(bad), 0);
        }
        // the last member of the class is still a register
        let last = RegId::new(x, count - 1);
        let mut code = code_with_layout(&[("y", 1)]);
        code.insns.push(Insn::mov(Loc::Reg(last), Loc::Imm(5), "MOVE #5,x", 1, 1));
        code.insns.push(Insn::mov(mem("y"), Loc::Reg(last), "MOVE x,y", 1, 1));
        let mut m = Machine::new(&target);
        m.run(&code).unwrap();
        assert_eq!(m.reg(last), 5);
        assert_eq!(m.peek(&Symbol::new("y"), 0, &code), Some(5));
    }

    #[test]
    fn rpt_over_ar_add_advances() {
        let target = t();
        let mut code = code_with_layout(&[("a", 4)]);
        code.insns.push(Insn::ctrl(
            InsnKind::ArLoad { ar: 1, base: Symbol::new("a"), disp: 0 },
            "LRLK",
            2,
            2,
        ));
        code.insns.push(Insn::ctrl(InsnKind::Rpt { count: 3 }, "RPTK 3", 1, 1));
        code.insns.push(Insn::ctrl(InsnKind::ArAdd { ar: 1, delta: 2 }, "ADRK", 1, 1));
        let mut m = Machine::new(&target);
        m.run(&code).unwrap();
        assert_eq!(m.ars[1], 6);
    }
}
