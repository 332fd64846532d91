//! Addressing-mode assignment: rewrite symbolic memory operands into
//! direct or AGU-indirect accesses, inserting the address-register
//! bookkeeping instructions.
//!
//! Strategy:
//!
//! * **loop-variant accesses** (`a[i+d]`) become *streams*: each distinct
//!   `(base, displacement)` pair in a loop gets a dedicated address
//!   register, loaded once in the loop preheader and advanced once per
//!   iteration — by a free post-increment on the stream's last access when
//!   the AGU allows it, otherwise by an explicit `ArAdd` before the back
//!   edge;
//! * **loop-invariant accesses** use the one-word direct mode when the
//!   target has one ([`record_isa::target::MemoryDesc::has_direct`]);
//! * on targets **without direct addressing** (56k-style), scalar accesses
//!   are chained through one reserved pointer register whose free
//!   post-modify follows the access sequence — the machinery whose cost
//!   the [`offset`](crate::offset) pass minimizes by reordering storage.

use std::fmt;
use std::ops::Range;

use record_ir::Symbol;
use record_isa::target::AguDesc;
use record_isa::{AddrMode, Code, DataLayout, Insn, InsnKind, MemLoc, TargetDesc};

use crate::vacated;

/// A structured address-assignment failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressError {
    /// The target has neither a direct addressing mode nor an AGU.
    NoAddressingMechanism {
        /// The target name.
        target: String,
    },
    /// A `LoopEnd` with no open `LoopStart` reached the address pass.
    UnmatchedLoopEnd,
    /// A `LoopStart` never closed before the end of the program.
    UnclosedLoopStart,
    /// A referenced symbol is absent from the data layout.
    Unplaced {
        /// The unplaced symbol.
        sym: Symbol,
    },
    /// A loop-variant operand appeared outside any loop.
    StrayLoopVariant {
        /// Rendering of the offending operand.
        operand: String,
    },
    /// No address register is free for the scalar pointer chain.
    NoScalarRegister,
    /// Loop-variant accesses exist but the target has no AGU.
    NoAgu {
        /// The target name.
        target: String,
    },
    /// Streams outnumber address registers and no spare is left.
    OutOfAddressRegisters {
        /// The target name.
        target: String,
    },
    /// One instruction reads two spilled streams at once.
    TwoSpilledStreams {
        /// The instruction text.
        insn: String,
    },
}

impl fmt::Display for AddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressError::NoAddressingMechanism { target } => {
                write!(f, "target {target} has neither direct addressing nor an AGU")
            }
            AddressError::UnmatchedLoopEnd => f.write_str("unmatched LoopEnd"),
            AddressError::UnclosedLoopStart => f.write_str("unclosed LoopStart"),
            AddressError::Unplaced { sym } => {
                write!(f, "symbol `{sym}` not placed in data layout")
            }
            AddressError::StrayLoopVariant { operand } => {
                write!(
                    f,
                    "loop-variant operand {operand} outside any loop or without a stream register"
                )
            }
            AddressError::NoScalarRegister => {
                f.write_str("no address register available for scalars")
            }
            AddressError::NoAgu { target } => {
                write!(f, "loop-variant accesses on target {target} without AGU")
            }
            AddressError::OutOfAddressRegisters { target } => {
                write!(f, "out of address registers: no register left for loop streams on {target}")
            }
            AddressError::TwoSpilledStreams { insn } => {
                write!(
                    f,
                    "instruction `{insn}` reads two spilled streams; out of address registers"
                )
            }
        }
    }
}

impl std::error::Error for AddressError {}

/// Counters describing what address assignment did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AddressStats {
    /// Address-register load instructions inserted.
    pub ar_loads: u32,
    /// Explicit address-register adjust instructions inserted.
    pub ar_adds: u32,
    /// Operands resolved to direct addressing.
    pub direct: u32,
    /// Operands resolved to register-indirect addressing.
    pub indirect: u32,
}

/// Assigns addressing modes to every memory operand of `code` in place.
///
/// Expects `code.layout` to already place every referenced symbol (see
/// [`crate::layout`]); operand banks are refreshed from the layout.
///
/// # Errors
///
/// Returns an error when a symbol is unplaced, when loop-variant accesses
/// exist but the target has no AGU (or runs out of address registers), or
/// when a target without direct addressing lacks an AGU.
pub fn assign_addresses(
    code: &mut Code,
    target: &TargetDesc,
) -> Result<AddressStats, AddressError> {
    let mut stats = AddressStats::default();
    let mut insns = std::mem::take(&mut code.insns);
    check_loops(&insns)?;

    let mut ctx = Ctx {
        target,
        layout: &code.layout,
        agu: target.agu.as_ref(),
        stats: &mut stats,
        next_stream_ar: 0,
        // the scalar-chain pointer is only needed when there is no
        // direct addressing mode; reserving it otherwise would waste a
        // stream register
        scalar_ar: if target.memory.has_direct {
            None
        } else {
            target.agu.as_ref().map(|a| a.n_ars.saturating_sub(1))
        },
        has_direct: target.memory.has_direct,
        next_cell: 0,
        new_cells: Vec::new(),
        reloads: Vec::new(),
    };
    if !ctx.has_direct && ctx.agu.is_none() {
        return Err(AddressError::NoAddressingMechanism { target: target.name.to_string() });
    }

    // instructions move from `insns` to `out` in order, with the
    // address-register bookkeeping inserted between them
    let mut out = Vec::with_capacity(insns.len() + insns.len() / 4);
    let all = 0..insns.len();
    ctx.process_seq(&mut insns, all, &mut out, None)?;
    let new_cells = std::mem::take(&mut ctx.new_cells);
    code.insns = out;
    for cell in new_cells {
        code.layout.append(cell, 1, record_ir::Bank::X);
    }
    Ok(stats)
}

/// Checks that `LoopStart`/`LoopEnd` nest, before anything is rewritten.
fn check_loops(insns: &[Insn]) -> Result<(), AddressError> {
    let mut depth = 0usize;
    for insn in insns {
        match insn.kind {
            InsnKind::LoopStart { .. } => depth += 1,
            InsnKind::LoopEnd => {
                depth = depth.checked_sub(1).ok_or(AddressError::UnmatchedLoopEnd)?;
            }
            _ => {}
        }
    }
    if depth > 0 {
        return Err(AddressError::UnclosedLoopStart);
    }
    Ok(())
}

/// The index of the `LoopEnd` matching the `LoopStart` at `start` (loops
/// nest: checked by [`check_loops`]).
fn loop_end(insns: &[Insn], start: usize) -> usize {
    let mut depth = 0usize;
    for (k, insn) in insns.iter().enumerate().skip(start) {
        match insn.kind {
            InsnKind::LoopStart { .. } => depth += 1,
            InsnKind::LoopEnd => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    unreachable!("check_loops matched every LoopStart")
}

/// Calls `f` on every instruction of `insns[range]` that sits in no loop
/// nested inside the range (loop markers excluded).
fn for_each_top_level<'i>(insns: &'i [Insn], range: Range<usize>, mut f: impl FnMut(&'i Insn)) {
    let mut depth = 0usize;
    for insn in &insns[range] {
        match insn.kind {
            InsnKind::LoopStart { .. } => depth += 1,
            InsnKind::LoopEnd => depth -= 1,
            _ if depth == 0 => f(insn),
            _ => {}
        }
    }
}

struct Ctx<'a> {
    target: &'a TargetDesc,
    layout: &'a DataLayout,
    agu: Option<&'a AguDesc>,
    stats: &'a mut AddressStats,
    /// Next stream AR to hand out (stream ARs grow from 0; the scalar
    /// pointer, if any, is the highest-numbered AR).
    next_stream_ar: u16,
    scalar_ar: Option<u16>,
    has_direct: bool,
    /// Counter for pointer spill cells.
    next_cell: u32,
    /// Spill cells created; appended to the layout afterwards.
    new_cells: Vec<Symbol>,
    /// Reloads of a spare register from a spilled stream's pointer cell,
    /// each emitted right before the instruction (by index) it serves,
    /// outer loops' first.
    reloads: Vec<(usize, Insn)>,
}

/// Position of the scalar pointer register, threaded through the walk.
type ScalarPos = Option<i64>;

/// One stream of a loop: the accesses `base[i + disp]` (or
/// `base[disp - i]` when `down`) through the loop counter `i`, and where
/// its pointer lives. A loop has at most one stream per address register
/// plus the spilled ones, so streams sit in a small vector searched by
/// comparing operands in place.
struct Stream {
    base: Symbol,
    disp: i64,
    down: bool,
    /// The dedicated address register, if the stream got one.
    ar: Option<u16>,
    /// The pointer cell of a spilled stream.
    cell: Option<Symbol>,
    /// `(instruction index, operand index)` of the stream's last access
    /// outside nested loops: the one that can advance it for free.
    last: Option<(usize, usize)>,
    /// Whether that access's post-modify advances the stream.
    advanced: bool,
}

impl Stream {
    fn of(m: &MemLoc) -> Self {
        Stream {
            base: m.base.clone(),
            disp: m.disp,
            down: m.down,
            ar: None,
            cell: None,
            last: None,
            advanced: false,
        }
    }

    fn matches(&self, m: &MemLoc) -> bool {
        self.base == m.base && self.disp == m.disp && self.down == m.down
    }
}

impl<'a> Ctx<'a> {
    /// Moves the instructions of `range` to `out`, rewriting their
    /// operands and inserting bookkeeping. `pos` tracks the scalar
    /// pointer position (targets without direct addressing). Returns the
    /// exit position.
    fn process_seq(
        &mut self,
        insns: &mut [Insn],
        range: Range<usize>,
        out: &mut Vec<Insn>,
        mut pos: ScalarPos,
    ) -> Result<ScalarPos, AddressError> {
        // Pre-scan: the scalar accesses of this sequence in order, so each
        // access can set its post-modify toward the next one.
        let mut idx = 0usize;
        let accesses = scalar_accesses(insns, range.clone(), self.layout)?;
        let mut k = range.start;
        while k < range.end {
            if matches!(insns[k].kind, InsnKind::LoopStart { .. }) {
                let end = loop_end(insns, k);
                pos = self.process_loop(insns, k, end, out, pos)?;
                k = end + 1;
                continue;
            }
            for (at, reload) in &mut self.reloads {
                if *at == k {
                    out.push(std::mem::replace(reload, vacated()));
                }
            }
            let mut insn = std::mem::replace(&mut insns[k], vacated());
            pos = self.rewrite_insn(&mut insn, &accesses, &mut idx, pos, out)?;
            out.push(insn);
            k += 1;
        }
        Ok(pos)
    }

    /// Rewrites one instruction's memory operands. Scalar (loop-invariant)
    /// operands — the next ones in `accesses` — use direct mode or the
    /// scalar-pointer chain; returns the updated pointer position. Stream
    /// operands were already resolved by the enclosing loop.
    fn rewrite_insn(
        &mut self,
        insn: &mut Insn,
        accesses: &[(record_ir::Bank, u16)],
        idx: &mut usize,
        mut pos: ScalarPos,
        out: &mut Vec<Insn>,
    ) -> Result<ScalarPos, AddressError> {
        insn.try_for_each_mem_mut(&mut |m| {
            if m.mode != AddrMode::Unresolved {
                return Ok(()); // already assigned (stream operand)
            }
            if m.index.is_some() {
                return Err(AddressError::StrayLoopVariant { operand: m.to_string() });
            }
            let (bank, addr) = accesses[*idx];
            m.bank = bank;
            if self.has_direct {
                m.mode = AddrMode::Direct(addr);
                self.stats.direct += 1;
                *idx += 1;
                return Ok(());
            }
            // scalar-pointer chain
            let ar = self.scalar_ar.ok_or(AddressError::NoScalarRegister)?;
            let agu = self.agu.expect("checked: !has_direct implies AGU");
            if pos != Some(addr as i64) {
                out.push(ar_load(self.target, ar, &m.base, m.disp));
                self.stats.ar_loads += 1;
            }
            // post-modify toward the next scalar access if within range
            let next = accesses.get(*idx + 1).map(|&(_, a)| a as i64);
            let post = match next {
                Some(n) if (n - addr as i64).abs() <= agu.post_range as i64 => {
                    (n - addr as i64) as i8
                }
                _ => 0,
            };
            m.mode = AddrMode::Indirect { ar, post };
            self.stats.indirect += 1;
            pos = Some(addr as i64 + post as i64);
            *idx += 1;
            Ok(())
        })?;
        Ok(pos)
    }

    /// Moves the loop `insns[start..=end]` to `out`: stream preloads, the
    /// `LoopStart`, the rewritten body, stream advances, the `LoopEnd`.
    fn process_loop(
        &mut self,
        insns: &mut [Insn],
        start: usize,
        end: usize,
        out: &mut Vec<Insn>,
        pos: ScalarPos,
    ) -> Result<ScalarPos, AddressError> {
        let (head, rest) = insns.split_at_mut(start + 1);
        let InsnKind::LoopStart { var, .. } = &head[start].kind else {
            unreachable!("loop starts with LoopStart")
        };
        // the body, indexed from `start + 1`
        let body = &mut rest[..end - start - 1];
        let body_at = start + 1;

        // 1. discover this loop's streams
        let mut streams: Vec<Stream> = Vec::new();
        for insn in body.iter() {
            insn.for_each_mem(&mut |m| {
                if m.index.as_ref() == Some(var) && !streams.iter().any(|s| s.matches(m)) {
                    streams.push(Stream::of(m));
                }
            });
        }
        let agu = if streams.is_empty() {
            self.agu
        } else {
            Some(
                self.agu
                    .ok_or_else(|| AddressError::NoAgu { target: self.target.name.to_string() })?,
            )
        };

        // 2. allocate + preload a register per stream; when streams
        // outnumber the available registers, the excess streams keep their
        // pointers in memory cells and share one spare register (the
        // LAR/SAR spill idiom of real accumulator-machine compilers)
        let first_stream_ar = self.next_stream_ar;
        let ar_limit = self.scalar_ar.unwrap_or_else(|| self.agu.map(|a| a.n_ars).unwrap_or(0));
        let capacity = ar_limit.saturating_sub(first_stream_ar) as usize;
        let (n_dedicated, spare) = if streams.len() <= capacity {
            (streams.len(), None)
        } else {
            if capacity == 0 {
                return Err(AddressError::OutOfAddressRegisters {
                    target: self.target.name.to_string(),
                });
            }
            (capacity - 1, Some(first_stream_ar + capacity as u16 - 1))
        };
        for s in &mut streams[..n_dedicated] {
            let ar = self.next_stream_ar;
            self.next_stream_ar += 1;
            s.ar = Some(ar);
            out.push(ar_load(self.target, ar, &s.base, s.disp));
            self.stats.ar_loads += 1;
        }
        if spare.is_some() {
            self.next_stream_ar += 1; // reserve the spare
        }
        for s in &mut streams[n_dedicated..] {
            let cell = Symbol::new(format!("$ptr{}", self.next_cell));
            self.next_cell += 1;
            self.new_cells.push(cell.clone());
            out.push(ptr_init(self.target, &cell, &s.base, s.disp));
            self.stats.ar_loads += 1;
            s.cell = Some(cell);
        }

        // 3. rewrite stream operands inside the body (any depth); mark the
        // last access of each stream outside nested loops for the free
        // post-increment
        let post_range = agu.map(|a| a.post_range).unwrap_or(0);
        rewrite_streams(body, body_at, var, &mut streams, self.layout, self.stats)?;
        if post_range >= 1 {
            for s in &mut streams {
                let Some((k, mem_ix)) = s.last else { continue };
                let mut operand = 0usize;
                body[k - body_at].for_each_mem_mut(&mut |m| {
                    if operand == mem_ix {
                        if let AddrMode::Indirect { post, .. } = &mut m.mode {
                            *post = if s.down { -1 } else { 1 };
                            s.advanced = true;
                        }
                    }
                    operand += 1;
                });
            }
        }

        // 3b. spilled streams: reload the spare register from the pointer
        // cell before every access (the operand itself stays post-free;
        // the advance happens once per iteration below)
        let reloads_before = self.reloads.len();
        if let Some(spare_ar) = spare {
            for (k, insn) in body.iter_mut().enumerate() {
                let cell = rewrite_spilled(insn, var, &streams, spare_ar, self.layout, self.stats)?;
                if let Some(cell) = cell {
                    self.reloads.push((body_at + k, ar_load_mem(spare_ar, cell)));
                }
            }
        }

        // 4. recurse into the body for scalars and nested loops. The
        // scalar pointer must re-enter each iteration at the same
        // position: we pin it by reloading at loop entry if the body uses
        // it at all.
        let mut body_scalars = false;
        for_each_top_level(insns, body_at..end, |insn| {
            insn.for_each_mem(&mut |m| body_scalars |= is_scalar_access(m));
        });
        let entry_pos = if self.has_direct || !body_scalars {
            pos
        } else {
            // force a deterministic entry state: unknown, so the first
            // access inside reloads
            None
        };
        out.push(std::mem::replace(&mut insns[start], vacated()));
        let exit_pos = self.process_seq(insns, body_at..end, out, entry_pos)?;
        self.reloads.truncate(reloads_before);

        // 5. advance streams that did not get a free post-increment, in
        // register order (dedicated registers were handed out in stream
        // order)
        for s in &streams {
            if let (Some(ar), false) = (s.ar, s.advanced) {
                out.push(ar_add(self.target, ar, if s.down { -1 } else { 1 }));
                self.stats.ar_adds += 1;
            }
        }
        // 5b. advance spilled stream pointers: load, adjust, store back
        if let Some(spare_ar) = spare {
            let mut cells: Vec<(&Symbol, bool)> =
                streams.iter().filter_map(|s| Some((s.cell.as_ref()?, s.down))).collect();
            cells.sort_by(|a, b| a.0.cmp(b.0));
            for (cell, down) in cells {
                out.push(ar_load_mem(spare_ar, cell));
                out.push(ar_add(self.target, spare_ar, if down { -1 } else { 1 }));
                out.push(ar_store(spare_ar, cell));
                self.stats.ar_adds += 1;
            }
        }
        out.push(std::mem::replace(&mut insns[end], vacated()));

        // release stream registers
        self.next_stream_ar = first_stream_ar;

        // after the loop the scalar pointer position is whatever the last
        // iteration left. `exit_pos` already threads through nested loops
        // (process_seq consults process_loop recursively), so it is the
        // honest answer even when this body has no *top-level* scalar
        // accesses: a nested loop may still have moved the pointer, and
        // reporting the pre-loop position there plans the following
        // post-modify walk from a stale address (a silent cross-variable
        // clobber found by the cube fuzzer).
        Ok(exit_pos)
    }
}

fn ar_load(target: &TargetDesc, ar: u16, base: &Symbol, disp: i64) -> Insn {
    let cost = target.agu.as_ref().map(|a| a.ar_load_cost).unwrap_or(record_isa::Cost::new(2, 2));
    let text = if disp == 0 {
        format!("LRLK AR{ar},#{base}")
    } else {
        format!("LRLK AR{ar},#{base}+{disp}")
    };
    Insn::ctrl(InsnKind::ArLoad { ar, base: base.clone(), disp }, text, cost.words, cost.cycles)
}

fn ar_add(target: &TargetDesc, ar: u16, delta: i64) -> Insn {
    let cost = target.agu.as_ref().map(|a| a.ar_add_cost).unwrap_or(record_isa::Cost::new(1, 1));
    Insn::ctrl(
        InsnKind::ArAdd { ar, delta },
        format!("ADRK AR{ar},#{delta}"),
        cost.words,
        cost.cycles,
    )
}

fn ar_load_mem(ar: u16, cell: &Symbol) -> Insn {
    Insn::ctrl(InsnKind::ArLoadMem { ar, cell: cell.clone() }, format!("LAR AR{ar},{cell}"), 1, 1)
}

fn ar_store(ar: u16, cell: &Symbol) -> Insn {
    Insn::ctrl(InsnKind::ArStore { ar, cell: cell.clone() }, format!("SAR AR{ar},{cell}"), 1, 1)
}

fn ptr_init(target: &TargetDesc, cell: &Symbol, base: &Symbol, disp: i64) -> Insn {
    let cost = target
        .agu
        .as_ref()
        .map(|a| a.ar_load_cost.add(record_isa::Cost::new(1, 1)))
        .unwrap_or(record_isa::Cost::new(3, 3));
    Insn::ctrl(
        InsnKind::PtrInit { cell: cell.clone(), base: base.clone(), disp },
        format!("LALK #{base}+{disp}; SACL {cell}"),
        cost.words,
        cost.cycles,
    )
}

/// Rewrites one instruction's spilled-stream operands to plain indirect
/// through the spare register; returns the pointer cell the spare must be
/// reloaded from before the instruction, if any.
fn rewrite_spilled<'s>(
    insn: &mut Insn,
    var: &Symbol,
    streams: &'s [Stream],
    spare: u16,
    layout: &DataLayout,
    stats: &mut AddressStats,
) -> Result<Option<&'s Symbol>, AddressError> {
    let mut cell_needed: Option<&Symbol> = None;
    let rewritten = insn.try_for_each_mem_mut(&mut |m| {
        if m.index.as_ref() != Some(var) {
            return Ok(());
        }
        let Some(cell) = streams.iter().find(|s| s.matches(m)).and_then(|s| s.cell.as_ref()) else {
            return Ok(());
        };
        if cell_needed.is_some_and(|prev| prev != cell) {
            // the instruction text is filled in below
            return Err(AddressError::TwoSpilledStreams { insn: String::new() });
        }
        let (bank, _) = layout
            .addr_of(&m.base, m.disp)
            .ok_or_else(|| AddressError::Unplaced { sym: m.base.clone() })?;
        m.bank = bank;
        m.mode = AddrMode::Indirect { ar: spare, post: 0 };
        stats.indirect += 1;
        cell_needed = Some(cell);
        Ok(())
    });
    if let Err(mut e) = rewritten {
        if let AddressError::TwoSpilledStreams { insn: text } = &mut e {
            text.clone_from(&insn.text);
        }
        return Err(e);
    }
    Ok(cell_needed)
}

/// Whether an operand is a scalar (unresolved, loop-invariant) access.
fn is_scalar_access(m: &MemLoc) -> bool {
    m.mode == AddrMode::Unresolved && m.index.is_none()
}

/// The placements of the scalar accesses of `range`, in execution order,
/// *skipping nested loops* (loop bodies handle their own chains).
fn scalar_accesses(
    insns: &[Insn],
    range: Range<usize>,
    layout: &DataLayout,
) -> Result<Vec<(record_ir::Bank, u16)>, AddressError> {
    let mut out = Vec::new();
    let mut unplaced: Option<&Symbol> = None;
    for_each_top_level(insns, range, |insn| {
        insn.for_each_mem(&mut |m| {
            if unplaced.is_none() && is_scalar_access(m) {
                match layout.addr_of(&m.base, m.disp) {
                    Some(placement) => out.push(placement),
                    None => unplaced = Some(&m.base),
                }
            }
        });
    });
    match unplaced {
        Some(sym) => Err(AddressError::Unplaced { sym: sym.clone() }),
        None => Ok(out),
    }
}

/// Rewrites the operands of streams with a dedicated register to
/// indirect mode (post 0 for now), and records each stream's last access
/// outside nested loops — `(instruction index, operand index)`, the body
/// starting at index `body_at` — so the caller can flip its
/// post-increment; accesses in nested loops advance only per outer
/// iteration and are never marked (the `ArAdd` fallback advances them).
fn rewrite_streams(
    body: &mut [Insn],
    body_at: usize,
    var: &Symbol,
    streams: &mut [Stream],
    layout: &DataLayout,
    stats: &mut AddressStats,
) -> Result<(), AddressError> {
    let mut depth = 0usize;
    for (k, insn) in body.iter_mut().enumerate() {
        match insn.kind {
            InsnKind::LoopStart { .. } => depth += 1,
            InsnKind::LoopEnd => depth -= 1,
            _ => {}
        }
        let mut mem_ix = 0usize;
        insn.try_for_each_mem_mut(&mut |m| {
            let this = mem_ix;
            mem_ix += 1;
            if m.index.as_ref() != Some(var) {
                return Ok(());
            }
            // spilled streams are handled by rewrite_spilled
            let Some(s) = streams.iter_mut().find(|s| s.matches(m)) else {
                return Ok(());
            };
            let Some(ar) = s.ar else { return Ok(()) };
            let (bank, _) = layout
                .addr_of(&m.base, m.disp)
                .ok_or_else(|| AddressError::Unplaced { sym: m.base.clone() })?;
            m.bank = bank;
            m.mode = AddrMode::Indirect { ar, post: 0 };
            stats.indirect += 1;
            if depth == 0 {
                s.last = Some((body_at + k, this));
            }
            Ok(())
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::Bank;
    use record_isa::{Loc, SemExpr};

    fn mem(name: &str) -> MemLoc {
        MemLoc::scalar(name)
    }

    fn stream(base: &str, var: &str, disp: i64) -> MemLoc {
        MemLoc {
            base: Symbol::new(base),
            disp,
            index: Some(Symbol::new(var)),
            down: false,
            bank: Bank::X,
            mode: AddrMode::Unresolved,
        }
    }

    fn mov(dst: MemLoc, src: MemLoc) -> Insn {
        Insn::mov(Loc::Mem(dst), Loc::Mem(src), "MOV", 1, 1)
    }

    fn layout_for(code: &mut Code, syms: &[(&str, u32)]) {
        let mut addr = 0u16;
        for (s, len) in syms {
            code.layout.place(Symbol::new(*s), addr, *len, Bank::X);
            addr += *len as u16;
        }
    }

    #[test]
    fn direct_mode_on_c25_scalars() {
        let t = record_isa::targets::tic25::target();
        let mut code = Code::default();
        code.insns.push(mov(mem("y"), mem("x")));
        layout_for(&mut code, &[("x", 1), ("y", 1)]);
        let stats = assign_addresses(&mut code, &t).unwrap();
        assert_eq!(stats.direct, 2);
        assert_eq!(stats.ar_loads, 0);
        match &code.insns[0].kind {
            InsnKind::Compute { dst, expr } => {
                assert_eq!(dst.as_mem().unwrap().mode, AddrMode::Direct(1));
                match &expr {
                    SemExpr::Loc(Loc::Mem(m)) => assert_eq!(m.mode, AddrMode::Direct(0)),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loop_streams_get_dedicated_ars_with_post_increment() {
        let t = record_isa::targets::tic25::target();
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
            "LOOP 4",
            2,
            2,
        ));
        code.insns.push(mov(mem("y"), stream("a", "i", 0)));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 3));
        layout_for(&mut code, &[("a", 4), ("y", 1)]);
        let stats = assign_addresses(&mut code, &t).unwrap();
        assert_eq!(stats.ar_loads, 1, "{:#?}", code.insns);
        assert_eq!(stats.ar_adds, 0, "free post-increment covers the advance");
        // preheader load precedes LoopStart
        assert!(matches!(code.insns[0].kind, InsnKind::ArLoad { ar: 0, .. }));
        // the access is indirect with post +1
        let m = match &code.insns[2].kind {
            InsnKind::Compute { expr: SemExpr::Loc(Loc::Mem(m)), .. } => m,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(m.mode, AddrMode::Indirect { ar: 0, post: 1 });
    }

    #[test]
    fn two_streams_two_registers() {
        let t = record_isa::targets::tic25::target();
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
            "LOOP 4",
            2,
            2,
        ));
        code.insns.push(mov(stream("b", "i", 0), stream("a", "i", 0)));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 3));
        layout_for(&mut code, &[("a", 4), ("b", 4)]);
        let stats = assign_addresses(&mut code, &t).unwrap();
        assert_eq!(stats.ar_loads, 2);
        assert_eq!(stats.indirect, 2);
    }

    #[test]
    fn distinct_displacements_are_distinct_streams() {
        // a[i] and a[i+1] advance independently
        let t = record_isa::targets::tic25::target();
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 3 },
            "LOOP 3",
            2,
            2,
        ));
        code.insns.push(mov(mem("y"), stream("a", "i", 1)));
        code.insns.push(mov(stream("a", "i", 0), mem("y")));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 3));
        layout_for(&mut code, &[("a", 4), ("y", 1)]);
        let stats = assign_addresses(&mut code, &t).unwrap();
        assert_eq!(stats.ar_loads, 2);
    }

    #[test]
    fn no_direct_mode_chains_scalars_through_pointer() {
        let t = record_isa::targets::dsp56k::target();
        let mut code = Code::default();
        // x and y adjacent: second access reachable by post-increment
        code.insns.push(mov(mem("y"), mem("x")));
        layout_for(&mut code, &[("x", 1), ("y", 1)]);
        let stats = assign_addresses(&mut code, &t).unwrap();
        assert_eq!(stats.direct, 0);
        assert_eq!(stats.indirect, 2);
        // one pointer load for x; y reached by the post-modify
        assert_eq!(stats.ar_loads, 1, "{:#?}", code.insns);
    }

    #[test]
    fn no_direct_mode_distant_scalars_need_reloads() {
        let t = record_isa::targets::dsp56k::target();
        let mut code = Code::default();
        code.insns.push(mov(mem("y"), mem("x")));
        layout_for(&mut code, &[("x", 1), ("gap", 10), ("y", 1)]);
        let stats = assign_addresses(&mut code, &t).unwrap();
        assert_eq!(stats.ar_loads, 2, "distance 11 defeats the post-modify");
    }

    #[test]
    fn unplaced_symbol_is_an_error() {
        let t = record_isa::targets::tic25::target();
        let mut code = Code::default();
        code.insns.push(mov(mem("y"), mem("x")));
        let err = assign_addresses(&mut code, &t).unwrap_err();
        assert!(matches!(err, AddressError::Unplaced { ref sym } if sym.as_str() == "x"), "{err}");
    }

    #[test]
    fn loop_variant_access_outside_loop_is_an_error() {
        let t = record_isa::targets::tic25::target();
        let mut code = Code::default();
        code.insns.push(mov(mem("y"), stream("a", "i", 0)));
        layout_for(&mut code, &[("a", 4), ("y", 1)]);
        let err = assign_addresses(&mut code, &t).unwrap_err();
        assert!(matches!(err, AddressError::StrayLoopVariant { .. }), "{err}");
    }

    #[test]
    fn excess_streams_spill_their_pointers_to_memory() {
        // 10 distinct streams on an 8-AR machine: 7 dedicated + 1 spare
        // shared by 3 spilled streams whose pointers live in $ptr cells
        let t = record_isa::targets::tic25::target();
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
            "LOOP 4",
            2,
            2,
        ));
        for k in 0..10 {
            code.insns.push(mov(mem("y"), stream(&format!("a{k}"), "i", 0)));
        }
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 3));
        let mut addr = 0u16;
        code.layout.place(Symbol::new("y"), addr, 1, Bank::X);
        addr += 1;
        for k in 0..10 {
            code.layout.place(Symbol::new(format!("a{k}")), addr, 4, Bank::X);
            addr += 4;
        }
        let stats = assign_addresses(&mut code, &t).unwrap();
        assert_eq!(stats.ar_loads, 10, "7 LRLK + 3 PtrInit");
        // spill machinery present
        assert!(code.insns.iter().any(|i| matches!(i.kind, InsnKind::PtrInit { .. })));
        assert!(code.insns.iter().any(|i| matches!(i.kind, InsnKind::ArLoadMem { .. })));
        assert!(code.insns.iter().any(|i| matches!(i.kind, InsnKind::ArStore { .. })));
        // the cells were added to the layout
        assert!(code.layout.entry(&Symbol::new("$ptr0")).is_some());
        assert!(code.layout.entry(&Symbol::new("$ptr2")).is_some());
    }

    #[test]
    fn stream_advances_are_emitted_in_register_order() {
        // simple_risc has no free post-increment, so every stream gets an
        // explicit ArAdd at the loop tail; those must come out sorted by
        // register, not in HashMap iteration order (regression: the batch
        // driver exposed run-to-run ADRK reordering)
        let t = record_isa::targets::simple_risc::target(8);
        for _ in 0..4 {
            let mut code = Code::default();
            code.insns.push(Insn::ctrl(
                InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
                "LOOP 4",
                2,
                2,
            ));
            for (dst, src) in [("c", "a"), ("d", "b")] {
                code.insns.push(mov(stream(dst, "i", 0), stream(src, "i", 0)));
            }
            code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 3));
            layout_for(&mut code, &[("a", 4), ("b", 4), ("c", 4), ("d", 4)]);
            assign_addresses(&mut code, &t).unwrap();
            let adds: Vec<u16> = code
                .insns
                .iter()
                .filter_map(|i| match i.kind {
                    InsnKind::ArAdd { ar, .. } => Some(ar),
                    _ => None,
                })
                .collect();
            assert!(!adds.is_empty(), "expected explicit stream advances");
            assert!(adds.windows(2).all(|w| w[0] < w[1]), "unsorted: {adds:?}");
        }
    }

    #[test]
    fn nested_loop_scalar_moves_are_visible_after_the_loop() {
        // Regression (found by the cube fuzzer): when every scalar access
        // of a loop sits in a *nested* loop, the outer loop used to report
        // the scalar pointer unchanged. The access after the nest then
        // skipped its reload and went through a pointer the nest had
        // moved — a silent read/write of the wrong variable.
        let t = record_isa::targets::dsp56k::target();
        let mut code = Code::default();
        // pre-loop access chain leaves the pointer at x (addr 1)
        code.insns.push(mov(mem("x"), mem("q")));
        for var in ["i0", "i1"] {
            code.insns.push(Insn::ctrl(
                InsnKind::LoopStart { var: Symbol::new(var), count: 3 },
                "LOOP 3",
                2,
                2,
            ));
        }
        // the nest's only scalar access moves the pointer to y (addr 2)
        code.insns.push(mov(mem("y"), mem("y")));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
        // tail access to x must reload: the pointer no longer points there
        code.insns.push(mov(mem("z"), mem("x")));
        layout_for(&mut code, &[("q", 1), ("x", 1), ("y", 1), ("z", 1)]);
        assign_addresses(&mut code, &t).unwrap();
        let tail_end = code.insns.len() - 1;
        let reloads_x_after_nest = code.insns[..tail_end]
            .iter()
            .rev()
            .take_while(|i| !matches!(i.kind, InsnKind::LoopEnd))
            .any(|i| matches!(&i.kind, InsnKind::ArLoad { base, .. } if base.as_str() == "x"));
        assert!(reloads_x_after_nest, "stale pointer after the nest: {:#?}", code.insns);
    }

    #[test]
    fn nested_loops_release_registers() {
        let t = record_isa::targets::tic25::target();
        let mut code = Code::default();
        for outer in 0..2 {
            code.insns.push(Insn::ctrl(
                InsnKind::LoopStart { var: Symbol::new(format!("i{outer}")), count: 2 },
                "LOOP",
                2,
                2,
            ));
            code.insns.push(mov(mem("y"), stream("a", &format!("i{outer}"), 0)));
            code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
        }
        layout_for(&mut code, &[("a", 4), ("y", 1)]);
        let stats = assign_addresses(&mut code, &t).unwrap();
        assert_eq!(stats.ar_loads, 2);
        // both loops use AR0 (released between them)
        let loads: Vec<u16> = code
            .insns
            .iter()
            .filter_map(|i| match i.kind {
                InsnKind::ArLoad { ar, .. } => Some(ar),
                _ => None,
            })
            .collect();
        assert_eq!(loads, vec![0, 0]);
    }
}
