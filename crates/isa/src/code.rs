//! The post-selection program representation: concrete instructions with
//! executable semantics.
//!
//! Every phase after instruction selection (compaction, address
//! assignment, bank assignment, mode minimization, simulation, emission)
//! works on [`Code`]: a flat list of [`Insn`]s with structured
//! `LoopStart`/`LoopEnd` nesting, plus the [`DataLayout`] mapping symbols
//! to data memory.
//!
//! An instruction's semantics is carried *in* the instruction as a
//! [`SemExpr`] over concrete [`Loc`]s, so the simulator in `record-sim`
//! needs no per-target interpreter: it evaluates what the selector bound.

use std::fmt;

use record_ir::hash::FoldMap;
use record_ir::{Bank, BinOp, Symbol, UnOp};

use crate::loc::{Loc, MemLoc};
use crate::pattern::{RuleId, UnitMask};

/// An executable expression over concrete locations.
#[derive(Clone, PartialEq, Debug)]
pub enum SemExpr {
    /// Read a location.
    Loc(Loc),
    /// Binary operation.
    Bin(BinOp, Box<SemExpr>, Box<SemExpr>),
    /// Unary operation.
    Un(UnOp, Box<SemExpr>),
}

impl SemExpr {
    /// Reads a location.
    pub fn loc(l: impl Into<Loc>) -> Self {
        SemExpr::Loc(l.into())
    }

    /// A binary node.
    pub fn bin(op: BinOp, a: SemExpr, b: SemExpr) -> Self {
        SemExpr::Bin(op, Box::new(a), Box::new(b))
    }

    /// A unary node.
    pub fn un(op: UnOp, a: SemExpr) -> Self {
        SemExpr::Un(op, Box::new(a))
    }

    /// Evaluates the expression with `width`-bit arithmetic.
    ///
    /// When `saturating` is `true`, wrap-around `Add`/`Sub` behave as their
    /// saturating counterparts — the effect of a DSP's saturation
    /// (overflow) mode on mode-sensitive instructions.
    pub fn eval(&self, width: u32, saturating: bool, read: &mut impl FnMut(&Loc) -> i64) -> i64 {
        match self {
            SemExpr::Loc(l) => read(l),
            SemExpr::Bin(op, a, b) => {
                let va = a.eval(width, saturating, read);
                let vb = b.eval(width, saturating, read);
                let op = if saturating {
                    match op {
                        BinOp::Add => BinOp::SatAdd,
                        BinOp::Sub => BinOp::SatSub,
                        other => *other,
                    }
                } else {
                    *op
                };
                op.eval(va, vb, width)
            }
            SemExpr::Un(op, a) => {
                let va = a.eval(width, saturating, read);
                op.eval(va, width)
            }
        }
    }

    /// All locations read by the expression, in evaluation order.
    pub fn reads(&self) -> Vec<&Loc> {
        let mut out = Vec::new();
        self.for_each_read(&mut |l| out.push(l));
        out
    }

    /// Calls `f` on every location the expression reads, in evaluation
    /// order — [`reads`](SemExpr::reads) without collecting a vector.
    pub fn for_each_read<'a>(&'a self, f: &mut impl FnMut(&'a Loc)) {
        match self {
            SemExpr::Loc(l) => f(l),
            SemExpr::Bin(_, a, b) => {
                a.for_each_read(f);
                b.for_each_read(f);
            }
            SemExpr::Un(_, a) => a.for_each_read(f),
        }
    }

    /// Calls `f` on every location the expression reads, in evaluation
    /// order, mutably — [`reads_mut`](SemExpr::reads_mut) without
    /// collecting a vector. Stops at, and returns, the first error.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn try_for_each_read_mut<E>(
        &mut self,
        f: &mut impl FnMut(&mut Loc) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            SemExpr::Loc(l) => f(l),
            SemExpr::Bin(_, a, b) => {
                a.try_for_each_read_mut(f)?;
                b.try_for_each_read_mut(f)
            }
            SemExpr::Un(_, a) => a.try_for_each_read_mut(f),
        }
    }

    /// Mutable references to all locations read by the expression.
    pub fn reads_mut(&mut self) -> Vec<&mut Loc> {
        let mut out = Vec::new();
        self.collect_reads_mut(&mut out);
        out
    }

    fn collect_reads_mut<'a>(&'a mut self, out: &mut Vec<&'a mut Loc>) {
        match self {
            SemExpr::Loc(l) => out.push(l),
            SemExpr::Bin(_, a, b) => {
                a.collect_reads_mut(out);
                b.collect_reads_mut(out);
            }
            SemExpr::Un(_, a) => a.collect_reads_mut(out),
        }
    }

    /// Returns `true` if the expression contains a multiplication
    /// (useful for unit masks and test assertions).
    pub fn contains_mul(&self) -> bool {
        match self {
            SemExpr::Loc(_) => false,
            SemExpr::Bin(op, a, b) => *op == BinOp::Mul || a.contains_mul() || b.contains_mul(),
            SemExpr::Un(_, a) => a.contains_mul(),
        }
    }
}

impl fmt::Display for SemExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemExpr::Loc(l) => write!(f, "{l}"),
            SemExpr::Bin(op, a, b) => write!(f, "({a} {op} {b})"),
            SemExpr::Un(op, a) => write!(f, "{op}({a})"),
        }
    }
}

/// The behavioural class of an instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum InsnKind {
    /// `dst := expr` — the general computational instruction.
    Compute {
        /// The destination location.
        dst: Loc,
        /// The value computed.
        expr: SemExpr,
    },
    /// Loop preamble: initialize hardware/software loop over `count`
    /// iterations; `var` is the symbolic counter that loop-variant memory
    /// operands refer to.
    LoopStart {
        /// The counter symbol (resolves `MemLoc::index`).
        var: Symbol,
        /// Trip count.
        count: u32,
    },
    /// Loop end: decrement-and-branch back to the matching `LoopStart`.
    LoopEnd,
    /// Hardware repeat: execute the *next* instruction `count` times.
    Rpt {
        /// Repetition count.
        count: u32,
    },
    /// Set or clear operation mode `mode` (residual control), e.g. the
    /// C25's `SOVM`/`ROVM` saturation mode.
    SetMode {
        /// Target-defined mode index.
        mode: usize,
        /// `true` to set, `false` to clear.
        on: bool,
    },
    /// Load address register `ar` with the address of `base` + `disp`.
    ArLoad {
        /// Address-register number.
        ar: u16,
        /// Symbol whose address is taken.
        base: Symbol,
        /// Word displacement.
        disp: i64,
    },
    /// Add a constant to address register `ar`.
    ArAdd {
        /// Address-register number.
        ar: u16,
        /// Signed adjustment.
        delta: i64,
    },
    /// Load address register `ar` with `&base + disp + mem[index]` — the
    /// per-access address arithmetic a compiler without AGU streams
    /// performs (a LAC/ADLK/SACL/LAR macro on a C25-class machine). The
    /// instruction's `words`/`cycles` carry the macro's true cost.
    ArLoadIndexed {
        /// Address-register number.
        ar: u16,
        /// Symbol whose address is taken.
        base: Symbol,
        /// Constant word displacement.
        disp: i64,
        /// Memory cell holding the dynamic index.
        index: Symbol,
        /// `true` when the index is *subtracted* (descending access).
        down: bool,
    },
    /// Load address register `ar` from a memory pointer cell (`LAR` on a
    /// C25-class machine). Used when loop streams outnumber the address
    /// registers and pointers spill to memory.
    ArLoadMem {
        /// Address-register number.
        ar: u16,
        /// The pointer cell.
        cell: Symbol,
    },
    /// Store address register `ar` to a memory pointer cell (`SAR`).
    ArStore {
        /// Address-register number.
        ar: u16,
        /// The pointer cell.
        cell: Symbol,
    },
    /// Initialize a memory pointer cell with the address `&base + disp`
    /// (a load-address-constant/store macro).
    PtrInit {
        /// The pointer cell.
        cell: Symbol,
        /// Symbol whose address is taken.
        base: Symbol,
        /// Word displacement.
        disp: i64,
    },
    /// No operation.
    Nop,
}

/// A concrete machine instruction.
#[derive(Clone, PartialEq, Debug)]
pub struct Insn {
    /// The grammar rule that produced it (None for synthetic/control
    /// instructions inserted by later phases).
    pub rule: Option<RuleId>,
    /// Behaviour.
    pub kind: InsnKind,
    /// Rendered assembly text.
    pub text: String,
    /// Program-memory words occupied.
    pub words: u32,
    /// Cycles per execution.
    pub cycles: u32,
    /// Functional units occupied (for compaction).
    pub units: UnitMask,
    /// Whether the arithmetic respects the target's saturation mode.
    pub mode_sensitive: bool,
    /// Mode requirement: `Some((mode, on))` means the instruction is only
    /// correct when mode `mode` is in state `on`. The mode-minimization
    /// pass inserts the minimal set of mode-change instructions satisfying
    /// these.
    pub mode_req: Option<(usize, bool)>,
    /// Operations executing in parallel with this one (filled by
    /// compaction on parallel-move targets). Parallel ops contribute no
    /// extra words or cycles; their effects are applied simultaneously
    /// (all sources read before any destination is written).
    pub parallel: Vec<Insn>,
}

impl Insn {
    /// Creates a computational instruction.
    pub fn compute(
        dst: Loc,
        expr: SemExpr,
        text: impl Into<String>,
        words: u32,
        cycles: u32,
    ) -> Self {
        Insn {
            rule: None,
            kind: InsnKind::Compute { dst, expr },
            text: text.into(),
            words,
            cycles,
            units: 0,
            mode_sensitive: false,
            mode_req: None,
            parallel: Vec::new(),
        }
    }

    /// Creates a register/memory move (a `Compute` whose expression is a
    /// single location read).
    pub fn mov(dst: Loc, src: Loc, text: impl Into<String>, words: u32, cycles: u32) -> Self {
        Insn::compute(dst, SemExpr::Loc(src), text, words, cycles)
    }

    /// Creates a synthetic control instruction.
    pub fn ctrl(kind: InsnKind, text: impl Into<String>, words: u32, cycles: u32) -> Self {
        Insn {
            rule: None,
            kind,
            text: text.into(),
            words,
            cycles,
            units: 0,
            mode_sensitive: false,
            mode_req: None,
            parallel: Vec::new(),
        }
    }

    /// A no-op.
    pub fn nop() -> Self {
        Insn::ctrl(InsnKind::Nop, "NOP", 1, 1)
    }

    /// The destination of a `Compute`, if any.
    pub fn dst(&self) -> Option<&Loc> {
        match &self.kind {
            InsnKind::Compute { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// The locations read by a `Compute`, if any.
    pub fn srcs(&self) -> Vec<&Loc> {
        match &self.kind {
            InsnKind::Compute { expr, .. } => expr.reads(),
            _ => Vec::new(),
        }
    }

    /// Calls `f` on every memory operand: a `Compute`'s reads in
    /// evaluation order, then its destination, then the same for each
    /// parallel sub-operation in turn.
    pub fn for_each_mem<'a>(&'a self, f: &mut impl FnMut(&'a MemLoc)) {
        if let InsnKind::Compute { dst, expr } = &self.kind {
            expr.for_each_read(&mut |l| {
                if let Loc::Mem(m) = l {
                    f(m);
                }
            });
            if let Loc::Mem(m) = dst {
                f(m);
            }
        }
        for p in &self.parallel {
            p.for_each_mem(f);
        }
    }

    /// [`for_each_mem`](Insn::for_each_mem) with mutable access.
    pub fn for_each_mem_mut(&mut self, f: &mut impl FnMut(&mut MemLoc)) {
        let visited = self.try_for_each_mem_mut(&mut |m| {
            f(m);
            Ok::<(), std::convert::Infallible>(())
        });
        match visited {
            Ok(()) => {}
            Err(never) => match never {},
        }
    }

    /// [`for_each_mem_mut`](Insn::for_each_mem_mut) that stops at, and
    /// returns, the first error `f` returns.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn try_for_each_mem_mut<E>(
        &mut self,
        f: &mut impl FnMut(&mut MemLoc) -> Result<(), E>,
    ) -> Result<(), E> {
        if let InsnKind::Compute { dst, expr } = &mut self.kind {
            expr.try_for_each_read_mut(&mut |l| match l {
                Loc::Mem(m) => f(m),
                _ => Ok(()),
            })?;
            if let Loc::Mem(m) = dst {
                f(m)?;
            }
        }
        for p in &mut self.parallel {
            p.try_for_each_mem_mut(f)?;
        }
        Ok(())
    }

    /// Total words including parallel-packed operations (which are free).
    pub fn total_words(&self) -> u32 {
        self.words
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)?;
        for p in &self.parallel {
            if !p.text.is_empty() {
                write!(f, " || {}", p.text)?;
            }
        }
        Ok(())
    }
}

/// Placement of one symbol in data memory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LayoutEntry {
    /// The symbol.
    pub sym: Symbol,
    /// Word address within its bank.
    pub addr: u16,
    /// Length in words.
    pub len: u32,
    /// The bank the symbol lives in.
    pub bank: Bank,
}

/// The data-memory layout: symbol → (bank, address, length).
///
/// Produced by the layout phase; rewritten by offset assignment (which
/// permutes scalars for auto-increment locality) and bank assignment
/// (which moves symbols between banks).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DataLayout {
    entries: Vec<LayoutEntry>,
    /// Each symbol's position in `entries`. Only looked up, never
    /// iterated (the order is `entries`'), so it takes the fast keyed
    /// hasher of the id tables.
    by_sym: FoldMap<Symbol, usize>,
}

impl DataLayout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        DataLayout::default()
    }

    /// Removes every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.by_sym.clear();
    }

    /// Adds a symbol at the given address.
    ///
    /// # Panics
    ///
    /// Panics if the symbol is already placed.
    pub fn place(&mut self, sym: Symbol, addr: u16, len: u32, bank: Bank) {
        if let Err(sym) = self.try_place(sym, addr, len, bank) {
            panic!("symbol {sym} placed twice in data layout");
        }
    }

    /// [`place`](DataLayout::place) that hands the symbol back instead of
    /// panicking when it is already placed.
    ///
    /// # Errors
    ///
    /// The symbol, when it is already placed (the layout is unchanged).
    pub fn try_place(
        &mut self,
        sym: Symbol,
        addr: u16,
        len: u32,
        bank: Bank,
    ) -> Result<(), Symbol> {
        match self.by_sym.entry(sym) {
            std::collections::hash_map::Entry::Occupied(e) => Err(e.key().clone()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let sym = e.key().clone();
                e.insert(self.entries.len());
                self.entries.push(LayoutEntry { sym, addr, len, bank });
                Ok(())
            }
        }
    }

    /// An empty layout with room for `n` symbols.
    pub fn with_capacity(n: usize) -> Self {
        DataLayout {
            entries: Vec::with_capacity(n),
            by_sym: FoldMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Looks a symbol up.
    pub fn entry(&self, sym: &Symbol) -> Option<&LayoutEntry> {
        self.by_sym.get(sym).map(|i| &self.entries[*i])
    }

    /// The position of a symbol's entry in [`entries`](DataLayout::entries),
    /// if placed: a dense index passes can key per-symbol state by.
    pub fn position(&self, sym: &Symbol) -> Option<usize> {
        self.by_sym.get(sym).copied()
    }

    /// The absolute word address of `sym + disp`, if placed.
    pub fn addr_of(&self, sym: &Symbol, disp: i64) -> Option<(Bank, u16)> {
        self.entry(sym).map(|e| (e.bank, (e.addr as i64 + disp) as u16))
    }

    /// All entries, in placement order.
    pub fn entries(&self) -> &[LayoutEntry] {
        &self.entries
    }

    /// Total words placed in the given bank.
    pub fn bank_words(&self, bank: Bank) -> u32 {
        self.entries.iter().filter(|e| e.bank == bank).map(|e| e.len).sum()
    }

    /// Appends a symbol at the next free address of `bank`; returns the
    /// address. Used by passes that create storage after the initial
    /// layout (e.g. pointer spill cells).
    pub fn append(&mut self, sym: Symbol, len: u32, bank: Bank) -> u16 {
        let addr = self
            .entries
            .iter()
            .filter(|e| e.bank == bank)
            .map(|e| e.addr as u32 + e.len)
            .max()
            .unwrap_or(0) as u16;
        self.place(sym, addr, len, bank);
        addr
    }

    /// Moves every entry to the `(bank, address)` that `place` returns
    /// for it, given its position and entry, in placement order; symbols,
    /// lengths and order stay as they are (used by bank assignment).
    pub fn relocate(&mut self, mut place: impl FnMut(usize, &LayoutEntry) -> (Bank, u16)) {
        for (i, e) in self.entries.iter_mut().enumerate() {
            (e.bank, e.addr) = place(i, e);
        }
    }

    /// Rebuilds the layout with new entries (the compile cache decodes
    /// stored layouts this way).
    pub fn replace_entries(&mut self, entries: Vec<LayoutEntry>) {
        self.by_sym = entries.iter().enumerate().map(|(i, e)| (e.sym.clone(), i)).collect();
        assert_eq!(self.by_sym.len(), entries.len(), "duplicate symbol in layout");
        self.entries = entries;
    }
}

/// A compiled program: instructions plus data layout.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Code {
    /// The instruction sequence with structured loop markers.
    pub insns: Vec<Insn>,
    /// The data layout.
    pub layout: DataLayout,
    /// The name of the target the code was compiled for.
    pub target: String,
    /// The program name.
    pub name: String,
}

impl Code {
    /// Total code size in program-memory words — the metric of Table 1.
    pub fn size_words(&self) -> u32 {
        self.insns.iter().map(|i| i.total_words()).sum()
    }

    /// The number of instructions (bundles count once).
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Returns `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Renders an assembly listing with loop indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("; {} for {}\n", self.name, self.target));
        let mut depth = 0usize;
        for insn in &self.insns {
            if matches!(insn.kind, InsnKind::LoopEnd) {
                depth = depth.saturating_sub(1);
            }
            out.push_str(&"    ".repeat(depth + 1));
            out.push_str(&insn.to_string());
            out.push('\n');
            if matches!(insn.kind, InsnKind::LoopStart { .. }) {
                depth += 1;
            }
        }
        out.push_str(&format!("; {} words\n", self.size_words()));
        out
    }

    /// Checks the structural invariants: `LoopStart`/`LoopEnd` are
    /// balanced, `Rpt` is followed by a repeatable instruction, and no
    /// `Compute` (or parallel sub-operation) writes to an immediate.
    ///
    /// This is the inter-pass verifier of the pass manager: when a
    /// `PassPlan` (crates/core) runs in strict mode it is invoked after
    /// every pass, so a pass that breaks an invariant fails at its own
    /// boundary instead of in the simulator.
    ///
    /// # Errors
    ///
    /// The first [`StructureError`] found, in instruction order.
    pub fn verify(&self) -> Result<(), StructureError> {
        let mut depth = 0i32;
        for (i, insn) in self.insns.iter().enumerate() {
            match &insn.kind {
                InsnKind::LoopStart { .. } => depth += 1,
                InsnKind::LoopEnd => {
                    depth -= 1;
                    if depth < 0 {
                        return Err(StructureError::UnmatchedLoopEnd { index: i });
                    }
                }
                InsnKind::Rpt { .. } => match self.insns.get(i + 1).map(|n| &n.kind) {
                    Some(InsnKind::Compute { .. }) | Some(InsnKind::ArAdd { .. }) => {}
                    _ => return Err(StructureError::RptNotRepeatable { index: i }),
                },
                _ => {}
            }
            if writes_immediate(insn) {
                return Err(StructureError::WriteToImmediate { index: i });
            }
        }
        if depth != 0 {
            return Err(StructureError::UnclosedLoops { count: depth as u32 });
        }
        Ok(())
    }
}

fn writes_immediate(insn: &Insn) -> bool {
    if matches!(&insn.kind, InsnKind::Compute { dst: Loc::Imm(_), .. }) {
        return true;
    }
    insn.parallel.iter().any(writes_immediate)
}

/// A violation of [`Code`]'s structural invariants.
///
/// Produced by [`Code::verify`], by the per-pass postcondition checks of
/// the pass manager, and by the simulator when it trips over malformed
/// code at execution time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructureError {
    /// A `LoopEnd` with no matching `LoopStart`.
    UnmatchedLoopEnd {
        /// Instruction index.
        index: usize,
    },
    /// `LoopStart`s left open at the end of the program.
    UnclosedLoops {
        /// How many loops never closed.
        count: u32,
    },
    /// An `Rpt` not followed by a repeatable instruction.
    RptNotRepeatable {
        /// Instruction index of the `Rpt`.
        index: usize,
    },
    /// A `Compute` whose destination is an immediate.
    WriteToImmediate {
        /// Instruction index.
        index: usize,
    },
    /// (execution) A `LoopEnd` reached with no active loop.
    StrayLoopEnd,
    /// (execution) An `Rpt` as the final instruction.
    RptAtEnd,
    /// (execution) An `Rpt` repeating a non-repeatable instruction.
    RptOver {
        /// Debug rendering of the offending instruction kind.
        kind: String,
    },
    /// A `SetMode` referencing a mode the target does not declare.
    UnknownMode {
        /// The undeclared mode index.
        mode: usize,
    },
    /// An address register that does not exist on the target.
    NoSuchAddressRegister {
        /// The register number.
        ar: u16,
        /// The target name.
        target: String,
    },
    /// (execution) A write to an immediate destination.
    ImmediateDestination,
    /// (execution) A zero-trip `LoopStart` whose `LoopEnd` is missing.
    NoMatchingLoopEnd {
        /// Instruction index of the `LoopStart`.
        index: usize,
    },
    /// A symbol used by the code but absent from the data layout
    /// (postcondition of the layout/offset passes).
    Unplaced {
        /// The unplaced symbol.
        sym: Symbol,
    },
    /// A memory operand still unresolved after address assignment
    /// (postcondition of the address pass).
    UnresolvedOperand {
        /// Instruction index.
        index: usize,
    },
    /// A bank-Y placement on a single-bank target (postcondition of the
    /// bank-assignment pass).
    BadBank {
        /// The offending symbol.
        sym: Symbol,
    },
    /// An instruction whose mode requirement is not met by the inserted
    /// mode changes (postcondition of the mode pass).
    ModeUnsatisfied {
        /// Instruction index.
        index: usize,
        /// The mode index.
        mode: usize,
    },
    /// Mode state at a loop back edge differs from the state at loop
    /// entry, so iterations would execute under varying modes.
    ModeLoopImbalance {
        /// Instruction index of the `LoopEnd`.
        index: usize,
        /// The mode index.
        mode: usize,
    },
    /// The code selected for a statement computed a value other than the
    /// statement's on the simulator (the `select` pass's probe, in
    /// strict plans).
    Miscompiled {
        /// The statement, rendered.
        stmt: String,
    },
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::UnmatchedLoopEnd { index } => write!(f, "unmatched LoopEnd at {index}"),
            StructureError::UnclosedLoops { count } => write!(f, "{count} unclosed LoopStart(s)"),
            StructureError::RptNotRepeatable { index } => {
                write!(f, "Rpt at {index} not followed by a repeatable insn")
            }
            StructureError::WriteToImmediate { index } => {
                write!(f, "instruction {index} writes to an immediate")
            }
            StructureError::StrayLoopEnd => f.write_str("stray LoopEnd"),
            StructureError::RptAtEnd => f.write_str("Rpt at end of code"),
            StructureError::RptOver { kind } => write!(f, "Rpt over non-repeatable {kind}"),
            StructureError::UnknownMode { mode } => {
                write!(f, "SetMode references mode {mode}, but the target declares none such")
            }
            StructureError::NoSuchAddressRegister { ar, target } => {
                write!(f, "AR{ar} does not exist on {target}")
            }
            StructureError::ImmediateDestination => f.write_str("write to immediate"),
            StructureError::NoMatchingLoopEnd { index } => {
                write!(f, "no matching LoopEnd for LoopStart at {index}")
            }
            StructureError::Unplaced { sym } => {
                write!(f, "symbol `{sym}` not placed in data layout")
            }
            StructureError::UnresolvedOperand { index } => {
                write!(f, "operand of instruction {index} still unresolved after addressing")
            }
            StructureError::BadBank { sym } => {
                write!(f, "`{sym}` placed in bank Y on a single-bank target")
            }
            StructureError::ModeUnsatisfied { index, mode } => {
                write!(f, "instruction {index} executes with mode {mode} in the wrong state")
            }
            StructureError::ModeLoopImbalance { index, mode } => {
                write!(f, "mode {mode} state at LoopEnd {index} differs from loop entry")
            }
            StructureError::Miscompiled { stmt } => {
                write!(f, "the code selected for `{stmt}` computes another value")
            }
        }
    }
}

impl std::error::Error for StructureError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::MemLoc;

    fn mem(name: &str) -> Loc {
        Loc::Mem(MemLoc::scalar(name))
    }

    #[test]
    fn semexpr_eval_plain_and_saturating() {
        let e = SemExpr::bin(BinOp::Add, SemExpr::loc(mem("a")), SemExpr::loc(mem("b")));
        let mut read = |_: &Loc| 30000i64;
        assert_eq!(e.eval(16, false, &mut read), record_ir::ops::wrap_to_width(60000, 16));
        assert_eq!(e.eval(16, true, &mut read), 32767);
    }

    #[test]
    fn semexpr_reads_in_order() {
        let e = SemExpr::bin(
            BinOp::Sub,
            SemExpr::loc(mem("a")),
            SemExpr::un(UnOp::Neg, SemExpr::loc(mem("b"))),
        );
        let names: Vec<String> = e.reads().iter().map(|l| l.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(!e.contains_mul());
    }

    #[test]
    fn layout_addresses() {
        let mut l = DataLayout::new();
        l.place(Symbol::new("x"), 0, 4, Bank::X);
        l.place(Symbol::new("y"), 4, 1, Bank::X);
        assert_eq!(l.addr_of(&Symbol::new("x"), 2), Some((Bank::X, 2)));
        assert_eq!(l.addr_of(&Symbol::new("y"), 0), Some((Bank::X, 4)));
        assert_eq!(l.addr_of(&Symbol::new("z"), 0), None);
        assert_eq!(l.bank_words(Bank::X), 5);
        assert_eq!(l.bank_words(Bank::Y), 0);
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn layout_rejects_duplicates() {
        let mut l = DataLayout::new();
        l.place(Symbol::new("x"), 0, 1, Bank::X);
        l.place(Symbol::new("x"), 1, 1, Bank::X);
    }

    #[test]
    fn code_size_sums_words() {
        let mut code = Code::default();
        code.insns.push(Insn::mov(mem("y"), mem("x"), "MOV", 1, 1));
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 3 },
            "LOOP 3",
            2,
            2,
        ));
        code.insns.push(Insn::nop());
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 2));
        assert_eq!(code.size_words(), 6);
        assert!(code.verify().is_ok());
    }

    #[test]
    fn structure_catches_unbalanced_loops() {
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 1, 1));
        assert!(code.verify().is_err());

        let mut code = Code::default();
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 3 },
            "LOOP",
            1,
            1,
        ));
        assert!(code.verify().is_err());
    }

    #[test]
    fn structure_checks_rpt_target() {
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(InsnKind::Rpt { count: 4 }, "RPTK 4", 1, 1));
        assert!(code.verify().is_err());
        code.insns.push(Insn::nop());
        // Nop is not repeatable in our model either (must be Compute/ArAdd)
        assert!(code.verify().is_err());
    }

    #[test]
    fn render_indents_loops() {
        let mut code = Code { name: "p".into(), target: "t".into(), ..Code::default() };
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 2 },
            "LOOP 2",
            1,
            1,
        ));
        code.insns.push(Insn::mov(mem("y"), mem("x"), "MOV y,x", 1, 1));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 1, 1));
        let r = code.render();
        assert!(r.contains("    LOOP 2"));
        assert!(r.contains("        MOV y,x"));
    }

    #[test]
    fn parallel_ops_render_with_bars() {
        let mut i = Insn::mov(mem("y"), mem("x"), "ADD a", 1, 1);
        i.parallel.push(Insn::mov(mem("q"), mem("p"), "MOVE p,q", 0, 0));
        assert_eq!(i.to_string(), "ADD a || MOVE p,q");
    }
}
