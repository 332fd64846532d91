//! Decoding: a [`Code`] resolved once into array-indexed steps.

use std::ops::Range;

use record_ir::{Bank, BinOp, Symbol, UnOp};
use record_isa::{AddrMode, Code, DataLayout, Insn, InsnKind, Loc, RegId, SemExpr};

use crate::{Machine, SimError};

/// A program decoded for one target, ready for
/// [`Machine::execute`](crate::Machine::execute).
///
/// Decoding resolves once what execution would otherwise look up per
/// instruction. Each instruction becomes a step whose operands are
/// already resolved: a memory operand to a (bank, address), to an address
/// register, or to a loop-counter slot plus a base address; a register to
/// its register-file slot; a `LoopStart` to the index of its `LoopEnd`.
/// Each expression becomes a postfix sequence, so executing it needs only
/// a value stack.
///
/// Decoding never fails on an operand. One that does not resolve (an
/// unplaced symbol, an undeclared register) decodes to an operand that
/// raises its [`SimError`] when it is evaluated: a program fails at the
/// instruction that uses it, and an instruction that never executes
/// never fails.
///
/// Build it with [`Machine::decode`](crate::Machine::decode) and execute
/// it on a machine of the same target, as often as needed: the decoded
/// form depends only on the code, never on the machine state.
#[derive(Debug)]
pub struct Program<'c> {
    /// The decoded code (the trace renders its instructions).
    pub(crate) code: &'c Code,
    /// One step per instruction, in instruction order.
    pub(crate) steps: Vec<Step>,
    /// The operations of every bundle, in evaluation order.
    pub(crate) ops: Vec<Op>,
    /// The postfix expressions of every operation.
    pub(crate) nodes: Vec<Node>,
    /// The loop-counter symbol of each counter slot.
    pub(crate) counters: Vec<Symbol>,
    /// The target's saturation mode, if any.
    pub(crate) sat_mode: Option<usize>,
}

/// One decoded instruction.
#[derive(Debug)]
pub(crate) struct Step {
    pub(crate) kind: StepKind,
    /// Cycles per execution.
    pub(crate) cycles: u32,
}

#[derive(Debug)]
pub(crate) enum StepKind {
    /// `end` is the index of the matching `LoopEnd`.
    LoopStart {
        counter: usize,
        count: u32,
        end: usize,
    },
    LoopEnd,
    Rpt {
        count: u32,
    },
    SetMode {
        mode: usize,
        on: bool,
    },
    ArLoad {
        ar: u16,
        base: Word,
    },
    ArAdd {
        ar: u16,
        delta: i64,
    },
    ArLoadIndexed {
        ar: u16,
        base: Word,
        index: Word,
        down: bool,
    },
    ArLoadMem {
        ar: u16,
        cell: Word,
    },
    ArStore {
        ar: u16,
        cell: Word,
    },
    PtrInit {
        cell: Word,
        base: Word,
    },
    Nop,
    /// A `Compute` and its parallel operations: a range of
    /// [`Program::ops`].
    Bundle(Range<usize>),
}

/// A symbolic address resolved through the layout.
#[derive(Debug)]
pub(crate) enum Word {
    At(Bank, u16),
    Unplaced(Symbol),
}

impl Word {
    fn resolve(layout: &DataLayout, sym: &Symbol, disp: i64) -> Word {
        match layout.addr_of(sym, disp) {
            Some((bank, addr)) => Word::At(bank, addr),
            None => Word::Unplaced(sym.clone()),
        }
    }

    pub(crate) fn get(&self) -> Result<(Bank, u16), SimError> {
        match self {
            Word::At(bank, addr) => Ok((*bank, *addr)),
            Word::Unplaced(sym) => Err(SimError::UnplacedSymbol(sym.to_string())),
        }
    }
}

/// One operation of a bundle: `dst := nodes`.
#[derive(Debug)]
pub(crate) struct Op {
    /// The postfix expression: a range of [`Program::nodes`].
    pub(crate) nodes: Range<usize>,
    pub(crate) dst: Operand,
    /// Whether the arithmetic follows the saturation mode.
    pub(crate) saturable: bool,
}

/// One postfix expression node.
#[derive(Debug)]
pub(crate) enum Node {
    Read(Operand),
    Bin(BinOp),
    Un(UnOp),
}

/// A resolved location.
#[derive(Debug)]
pub(crate) enum Operand {
    /// An immediate, already wrapped to the word width.
    Imm(i64),
    /// A register-file slot.
    Reg(usize),
    /// A register the target does not declare.
    BadReg(RegId),
    /// A fixed memory word.
    Mem(Bank, u16),
    /// The word an address register points at.
    Indirect { bank: Bank, ar: u16, post: i8 },
    /// `base ± counter`, where `base` is the placed address plus the
    /// displacement; the sum is taken as a 16-bit address, like
    /// [`DataLayout::addr_of`].
    Indexed { bank: Bank, base: i64, counter: usize, down: bool },
    /// A symbol missing from the layout; a loop-variant operand checks
    /// its counter first.
    Unplaced { counter: Option<usize>, sym: Symbol },
}

/// The vectors of a decoded [`Program`], kept from one decode to the
/// next: [`Machine::decode_reusing`](crate::Machine::decode_reusing)
/// decodes into them and [`Program::recycle`] hands them back, so a
/// caller that decodes program after program allocates them once.
#[derive(Debug, Default)]
pub struct DecodeBuffers {
    steps: Vec<Step>,
    ops: Vec<Op>,
    nodes: Vec<Node>,
    counters: Vec<Symbol>,
    /// `LoopStart` steps still waiting for their end, while decoding.
    open: Vec<usize>,
}

impl<'c> Program<'c> {
    /// Decodes `code` for `machine`'s target in the vectors of `buffers`
    /// (left empty until [`recycle`](Program::recycle)).
    ///
    /// # Errors
    ///
    /// [`SimError::Structure`] when [`Code::verify`] rejects the code.
    pub(crate) fn decode(
        code: &'c Code,
        machine: &Machine<'_>,
        buffers: &mut DecodeBuffers,
    ) -> Result<Self, SimError> {
        code.verify().map_err(SimError::Structure)?;
        let mut steps = std::mem::take(&mut buffers.steps);
        steps.clear();
        steps.reserve(code.insns.len());
        let mut d = Decoder {
            machine,
            layout: &code.layout,
            program: Program {
                code,
                steps,
                ops: std::mem::take(&mut buffers.ops),
                nodes: std::mem::take(&mut buffers.nodes),
                counters: std::mem::take(&mut buffers.counters),
                sat_mode: machine.target.sat_mode(),
            },
        };
        d.program.ops.clear();
        d.program.nodes.clear();
        d.program.counters.clear();
        let open = &mut buffers.open;
        open.clear();
        for (pc, insn) in code.insns.iter().enumerate() {
            let layout = d.layout;
            let kind = match &insn.kind {
                InsnKind::LoopStart { var, count } => {
                    open.push(pc);
                    StepKind::LoopStart { counter: d.counter(var), count: *count, end: pc }
                }
                InsnKind::LoopEnd => {
                    // verified code closes every loop it opens
                    if let Some(start) = open.pop() {
                        if let StepKind::LoopStart { end, .. } = &mut d.program.steps[start].kind {
                            *end = pc;
                        }
                    }
                    StepKind::LoopEnd
                }
                InsnKind::Rpt { count } => StepKind::Rpt { count: *count },
                InsnKind::SetMode { mode, on } => StepKind::SetMode { mode: *mode, on: *on },
                InsnKind::ArLoad { ar, base, disp } => {
                    StepKind::ArLoad { ar: *ar, base: Word::resolve(layout, base, *disp) }
                }
                InsnKind::ArAdd { ar, delta } => StepKind::ArAdd { ar: *ar, delta: *delta },
                InsnKind::ArLoadIndexed { ar, base, disp, index, down } => {
                    StepKind::ArLoadIndexed {
                        ar: *ar,
                        base: Word::resolve(layout, base, *disp),
                        index: Word::resolve(layout, index, 0),
                        down: *down,
                    }
                }
                InsnKind::ArLoadMem { ar, cell } => {
                    StepKind::ArLoadMem { ar: *ar, cell: Word::resolve(layout, cell, 0) }
                }
                InsnKind::ArStore { ar, cell } => {
                    StepKind::ArStore { ar: *ar, cell: Word::resolve(layout, cell, 0) }
                }
                InsnKind::PtrInit { cell, base, disp } => StepKind::PtrInit {
                    cell: Word::resolve(layout, cell, 0),
                    base: Word::resolve(layout, base, *disp),
                },
                InsnKind::Nop => StepKind::Nop,
                InsnKind::Compute { .. } => {
                    let start = d.program.ops.len();
                    d.bundle(insn);
                    StepKind::Bundle(start..d.program.ops.len())
                }
            };
            d.program.steps.push(Step { kind, cycles: insn.cycles });
        }
        Ok(d.program)
    }

    /// Hands the program's vectors back to `buffers` for the next
    /// [`Machine::decode_reusing`](crate::Machine::decode_reusing).
    pub fn recycle(self, buffers: &mut DecodeBuffers) {
        buffers.steps = self.steps;
        buffers.ops = self.ops;
        buffers.nodes = self.nodes;
        buffers.counters = self.counters;
    }
}

struct Decoder<'c, 'm> {
    machine: &'m Machine<'m>,
    layout: &'c DataLayout,
    program: Program<'c>,
}

impl Decoder<'_, '_> {
    /// The slot of loop counter `var`, one per distinct symbol.
    fn counter(&mut self, var: &Symbol) -> usize {
        let counters = &mut self.program.counters;
        counters.iter().position(|c| c == var).unwrap_or_else(|| {
            counters.push(var.clone());
            counters.len() - 1
        })
    }

    /// Appends the operations of `insn` and its parallel operations, in
    /// the order the bundle evaluates them.
    fn bundle(&mut self, insn: &Insn) {
        if let InsnKind::Compute { dst, expr } = &insn.kind {
            let start = self.program.nodes.len();
            self.expr(expr);
            let nodes = start..self.program.nodes.len();
            let dst = self.operand(dst);
            self.program.ops.push(Op { nodes, dst, saturable: insn.mode_sensitive });
        }
        for p in &insn.parallel {
            self.bundle(p);
        }
    }

    fn expr(&mut self, expr: &SemExpr) {
        let node = match expr {
            SemExpr::Loc(l) => Node::Read(self.operand(l)),
            SemExpr::Bin(op, a, b) => {
                self.expr(a);
                self.expr(b);
                Node::Bin(*op)
            }
            SemExpr::Un(op, a) => {
                self.expr(a);
                Node::Un(*op)
            }
        };
        self.program.nodes.push(node);
    }

    fn operand(&mut self, loc: &Loc) -> Operand {
        match loc {
            Loc::Imm(v) => {
                Operand::Imm(record_ir::ops::wrap_to_width(*v, self.machine.target.word_width))
            }
            Loc::Reg(r) => self.machine.reg_slot(*r).map_or(Operand::BadReg(*r), Operand::Reg),
            Loc::Mem(m) => match m.mode {
                AddrMode::Direct(addr) => Operand::Mem(m.bank, addr),
                AddrMode::Indirect { ar, post } => Operand::Indirect { bank: m.bank, ar, post },
                AddrMode::Unresolved => {
                    let counter = m.index.as_ref().map(|v| self.counter(v));
                    match (self.layout.entry(&m.base), counter) {
                        (Some(e), None) => Operand::Mem(e.bank, (e.addr as i64 + m.disp) as u16),
                        (Some(e), Some(counter)) => Operand::Indexed {
                            bank: e.bank,
                            base: e.addr as i64 + m.disp,
                            counter,
                            down: m.down,
                        },
                        (None, counter) => Operand::Unplaced { counter, sym: m.base.clone() },
                    }
                }
            },
        }
    }
}
