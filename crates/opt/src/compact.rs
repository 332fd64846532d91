//! Code compaction: exploiting instruction-level parallelism in the
//! instruction format.
//!
//! Three mechanisms, matching what real DSP families offer:
//!
//! * [`fuse`] — combo instructions (TMS320C25 `LT`+`APAC` = `LTA`):
//!   adjacent independent instruction pairs listed in the target's fusion
//!   table are merged into one word, in either order;
//! * [`pack_moves`] — parallel moves (DSP56k): an arithmetic instruction
//!   absorbs up to `max_moves` following independent move instructions
//!   (subject to the distinct-bank constraint, which is why bank
//!   assignment runs first);
//! * [`schedule`] — bundle scheduling over straight-line segments with a
//!   dependence DAG: a list-scheduling heuristic, or exhaustive
//!   branch-and-bound for provably minimal bundle counts on small
//!   segments ("compiler algorithms, which so far have been rejected due
//!   to their complexity, should be reconsidered" — Section 3.2).

use record_ir::{Bank, Symbol};
use record_isa::target::ParallelDesc;
use record_isa::{Code, Insn, InsnKind, Loc, MemLoc, RegId, TargetDesc};

use crate::budget::{BudgetExceeded, SearchBudget};
use crate::vacated;

/// Which scheduling algorithm [`schedule`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScheduleMode {
    /// Critical-path list scheduling (fast, near-optimal).
    List,
    /// Exhaustive branch-and-bound (optimal bundle count; falls back to
    /// list scheduling on segments longer than the given limit).
    BranchAndBound {
        /// Maximum segment length explored exhaustively.
        max_segment: usize,
    },
}

/// One read or write an instruction performs, borrowed from its
/// operands — the unit of every dependence question.
#[derive(Clone, Copy)]
enum Effect<'a> {
    RegRead(RegId),
    RegWrite(RegId),
    MemRead(Mem<'a>),
    MemWrite(Mem<'a>),
    /// An address register used, and whether it is modified.
    Ar(u16, bool),
}

/// A memory cell an instruction touches: an operand, or the pointer or
/// index cell an address-register instruction names (a scalar access).
#[derive(Clone, Copy)]
enum Mem<'a> {
    Operand(&'a MemLoc),
    Cell(&'a Symbol),
}

impl Mem<'_> {
    /// [`MemLoc::may_alias`], with a cell read as the scalar operand
    /// `MemLoc::scalar(cell)`.
    fn may_alias(self, other: Mem<'_>) -> bool {
        match (self, other) {
            (Mem::Operand(a), Mem::Operand(b)) => a.may_alias(b),
            (Mem::Cell(c), Mem::Operand(m)) | (Mem::Operand(m), Mem::Cell(c)) => {
                *c == m.base && (m.index.is_some() || m.disp == 0)
            }
            (Mem::Cell(c), Mem::Cell(d)) => c == d,
        }
    }

    fn bank(self) -> Bank {
        match self {
            Mem::Operand(m) => m.bank,
            Mem::Cell(_) => Bank::X,
        }
    }
}

/// Calls `f` on every effect of `insn`, parallel sub-operations included.
fn for_each_effect<'a>(insn: &'a Insn, f: &mut impl FnMut(Effect<'a>)) {
    match &insn.kind {
        InsnKind::Compute { dst, expr } => {
            expr.for_each_read(&mut |l| match l {
                Loc::Reg(r) => f(Effect::RegRead(*r)),
                Loc::Mem(m) => operand_effects(m, false, f),
                Loc::Imm(_) => {}
            });
            match dst {
                Loc::Reg(r) => f(Effect::RegWrite(*r)),
                Loc::Mem(m) => operand_effects(m, true, f),
                Loc::Imm(_) => {}
            }
        }
        InsnKind::ArLoad { ar, .. } | InsnKind::ArAdd { ar, .. } => f(Effect::Ar(*ar, true)),
        InsnKind::ArLoadIndexed { ar, index, .. } => {
            f(Effect::Ar(*ar, true));
            f(Effect::MemRead(Mem::Cell(index)));
        }
        InsnKind::ArLoadMem { ar, cell } => {
            f(Effect::Ar(*ar, true));
            f(Effect::MemRead(Mem::Cell(cell)));
        }
        InsnKind::ArStore { ar, cell } => {
            f(Effect::Ar(*ar, false));
            f(Effect::MemWrite(Mem::Cell(cell)));
        }
        InsnKind::PtrInit { cell, .. } => f(Effect::MemWrite(Mem::Cell(cell))),
        _ => {}
    }
    for p in &insn.parallel {
        for_each_effect(p, f);
    }
}

/// A memory operand's access, plus the address register it goes through.
fn operand_effects<'a>(m: &'a MemLoc, write: bool, f: &mut impl FnMut(Effect<'a>)) {
    f(if write { Effect::MemWrite(Mem::Operand(m)) } else { Effect::MemRead(Mem::Operand(m)) });
    if let record_isa::AddrMode::Indirect { ar, post } = m.mode {
        f(Effect::Ar(ar, post != 0));
    }
}

/// Whether any effect of `insn` satisfies `pred`.
fn any_effect<'a>(insn: &'a Insn, mut pred: impl FnMut(Effect<'a>) -> bool) -> bool {
    let mut any = false;
    for_each_effect(insn, &mut |e| any = any || pred(e));
    any
}

/// Whether two effects order their instructions: a register or memory
/// write against a read or write of the same register or a possibly
/// aliasing cell, or an address register shared with either side
/// modifying it.
fn conflicts(a: Effect<'_>, b: Effect<'_>) -> bool {
    use Effect::{Ar, MemRead, MemWrite, RegRead, RegWrite};
    match (a, b) {
        (RegWrite(r), RegRead(s) | RegWrite(s)) | (RegRead(r), RegWrite(s)) => r == s,
        (MemWrite(m), MemRead(o) | MemWrite(o)) | (MemRead(m), MemWrite(o)) => m.may_alias(o),
        (Ar(r, a_mod), Ar(s, b_mod)) => r == s && (a_mod || b_mod),
        _ => false,
    }
}

/// `true` if the two instructions can execute in either order or in
/// parallel with identical results.
fn independent(a: &Insn, b: &Insn) -> bool {
    if !matches!(a.kind, InsnKind::Compute { .. }) || !matches!(b.kind, InsnKind::Compute { .. }) {
        return false;
    }
    !any_effect(a, |ea| any_effect(b, |eb| conflicts(ea, eb)))
}

/// The operand part of an assembly text (everything after the mnemonic).
fn operand_part(text: &str) -> &str {
    text.split_once(' ').map(|(_, rest)| rest).unwrap_or("")
}

/// Applies the target's fusion table to adjacent instruction pairs,
/// repeatedly, until a fixpoint; returns the number of fusions performed.
///
/// A pair `(x, y)` fuses when the table lists `(x.rule, y.rule)` directly,
/// or lists `(y.rule, x.rule)` and the two instructions are independent
/// (so they may be swapped). Both cases also require independence, since
/// the fused instruction executes both effects in the same cycle.
pub fn fuse(code: &mut Code, target: &TargetDesc) -> u32 {
    let mut fused_total = 0u32;
    loop {
        // one left-to-right round in place: `prev` is the last kept
        // instruction, and an instruction fused this round pairs with
        // nothing more until the next round
        let mut fused_this_round = 0u32;
        let mut just_fused = false;
        code.insns.dedup_by(|b, a| {
            if std::mem::take(&mut just_fused) {
                return false;
            }
            let (Some(ra), Some(rb)) = (a.rule, b.rule) else {
                return false;
            };
            let direct = target.fusions.iter().find(|f| f.first == ra && f.second == rb);
            let swapped = target.fusions.iter().find(|f| f.first == rb && f.second == ra);
            let chosen = match (direct, swapped) {
                (Some(f), _) if independent(a, b) => Some((f, false)),
                (_, Some(f)) if independent(a, b) => Some((f, true)),
                _ => None,
            };
            let Some((f, swap)) = chosen else {
                return false;
            };
            let (a_owned, b_owned) =
                (std::mem::replace(a, vacated()), std::mem::replace(b, vacated()));
            let (first, second) = if swap { (b_owned, a_owned) } else { (a_owned, b_owned) };
            let text = f
                .asm
                .replace("{a}", operand_part(&first.text))
                .replace("{b}", operand_part(&second.text));
            let mut fusedi = second;
            fusedi.rule = None;
            fusedi.text = text.trim().to_string();
            fusedi.words = f.cost.words;
            fusedi.cycles = f.cost.cycles;
            fusedi.units |= first.units;
            let mut firstp = first;
            firstp.words = 0;
            firstp.cycles = 0;
            // the fused text already names both halves
            firstp.text = String::new();
            fusedi.parallel.push(firstp);
            *a = fusedi;
            fused_this_round += 1;
            just_fused = true;
            true
        });
        fused_total += fused_this_round;
        if fused_this_round == 0 {
            break;
        }
    }
    fused_total
}

fn is_pure_move(insn: &Insn, pd: &ParallelDesc) -> bool {
    insn.units & pd.move_units != 0
        && matches!(&insn.kind, InsnKind::Compute { expr, .. } if matches!(expr, record_isa::SemExpr::Loc(_)))
}

/// Counts the memory banks an instruction touches (reads and writes)
/// into `per_bank`.
fn count_banks(insn: &Insn, per_bank: &mut [u32; 2]) {
    for_each_effect(insn, &mut |e| {
        if let Effect::MemRead(m) | Effect::MemWrite(m) = e {
            per_bank[m.bank() as usize] += 1;
        }
    });
}

/// Packs following move instructions into arithmetic instructions on
/// parallel-move targets; returns the number of moves absorbed.
///
/// A move packs into the closest preceding arithmetic instruction when it
/// is independent of it (and of every move already packed there), the
/// move budget is not exhausted, and — when the target demands it — the
/// packed moves address distinct banks.
pub fn pack_moves(code: &mut Code, target: &TargetDesc) -> u32 {
    let Some(pd) = &target.parallel else {
        return 0;
    };
    let mut packed = 0u32;
    // in place: `host` is the last kept instruction
    code.insns.dedup_by(|insn, host| {
        if !is_pure_move(insn, pd) {
            return false;
        }
        let host_ok = matches!(host.kind, InsnKind::Compute { .. })
            && host.words <= 1
            && !is_pure_move(host, pd)
            && host.parallel.len() < pd.max_moves as usize
            && independent(host, insn);
        let banks_ok = !pd.moves_need_distinct_banks || {
            let mut per_bank = [0u32; 2];
            count_banks(insn, &mut per_bank);
            for p in &host.parallel {
                count_banks(p, &mut per_bank);
            }
            per_bank.iter().all(|&n| n <= 1)
        };
        if !(host_ok && banks_ok) {
            return false;
        }
        let mut m = std::mem::replace(insn, vacated());
        m.words = 0;
        m.cycles = 0;
        host.units |= m.units;
        host.parallel.push(m);
        packed += 1;
        true
    });
    packed
}

/// Hoists loop-invariant leading instructions out of loop bodies.
///
/// A leading body instruction moves to the preheader when it only reads
/// loop-invariant operands (no loop-counter indexing, no memory written
/// inside the body), writes a register that no other body instruction
/// writes, and does not read its own destination. The classic payoff is a
/// constant load (`LACK k`) ahead of a store loop: the remaining
/// single-instruction body becomes eligible for hardware repeat.
///
/// Returns the number of instructions hoisted.
pub fn hoist_invariant_prefix(code: &mut Code) -> u32 {
    let insns = &mut code.insns;
    let mut hoisted = 0u32;
    loop {
        // one round over the top-level loops; hoisting swaps a loop's
        // first body instruction with its `LoopStart`, in place
        let mut changed = false;
        let mut i = 0usize;
        while i < insns.len() {
            if !matches!(insns[i].kind, InsnKind::LoopStart { .. }) {
                i += 1;
                continue;
            }
            // find the matching end
            let mut depth = 1;
            let mut j = i + 1;
            while j < insns.len() && depth > 0 {
                match insns[j].kind {
                    InsnKind::LoopStart { .. } => depth += 1,
                    InsnKind::LoopEnd => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let body = &insns[i + 1..j - 1];
            if body.first().is_some_and(|first| hoistable(first, &body[1..])) {
                insns.swap(i, i + 1);
                hoisted += 1;
                changed = true;
            }
            i = j;
        }
        if !changed {
            return hoisted;
        }
    }
}

fn hoistable(first: &Insn, rest: &[Insn]) -> bool {
    let InsnKind::Compute { dst, expr } = &first.kind else {
        return false;
    };
    if !first.parallel.is_empty() {
        return false;
    }
    // destination must be a register no other body instruction writes
    let Loc::Reg(dst_reg) = dst else { return false };
    let writes_reg =
        |o: &Insn, r: RegId| any_effect(o, |e| matches!(e, Effect::RegWrite(w) if w == r));
    let writes_mem = |o: &Insn, m: &MemLoc| {
        any_effect(o, |e| matches!(e, Effect::MemWrite(w) if w.may_alias(Mem::Operand(m))))
    };
    // reads must be loop-invariant: immediates or memory with no loop-var
    // index, and the instruction must not read its own destination
    let mut invariant = true;
    expr.for_each_read(&mut |l| {
        invariant = invariant
            && match l {
                Loc::Imm(_) => true,
                Loc::Reg(r) => r != dst_reg && !rest.iter().any(|o| writes_reg(o, *r)),
                Loc::Mem(m) => m.index.is_none() && !rest.iter().any(|o| writes_mem(o, m)),
            };
    });
    // no body instruction may write the destination, and saturation-mode
    // boundaries inside the body would make the hoisted value's context
    // ambiguous — be conservative
    invariant
        && !rest
            .iter()
            .any(|o| writes_reg(o, *dst_reg) || matches!(o.kind, InsnKind::SetMode { .. }))
}

/// Scheduling statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Instructions before bundling.
    pub insns_before: usize,
    /// Bundles after scheduling.
    pub bundles_after: usize,
}

/// Bundle-schedules every straight-line segment of the code; returns the
/// aggregate statistics. Only targets with a parallel-move format are
/// affected (others are returned unchanged with equal counts).
pub fn schedule(code: &mut Code, target: &TargetDesc, mode: ScheduleMode) -> ScheduleStats {
    schedule_budgeted(code, target, mode, &SearchBudget::unlimited())
        .expect("unlimited budget never fires")
}

/// [`schedule`] under a [`SearchBudget`]: the branch-and-bound search
/// charges one step per DFS node and per bundle candidate it enumerates,
/// so pathological segments abort instead of exploring an exponential
/// space. On exhaustion the code is left **unmodified**.
///
/// # Errors
///
/// [`BudgetExceeded`] if the budget runs out mid-search.
pub fn schedule_budgeted(
    code: &mut Code,
    target: &TargetDesc,
    mode: ScheduleMode,
    budget: &SearchBudget,
) -> Result<ScheduleStats, BudgetExceeded> {
    let mut stats = ScheduleStats::default();
    let Some(pd) = &target.parallel else {
        let n = code.insns.len();
        return Ok(ScheduleStats { insns_before: n, bundles_after: n });
    };
    // plan every straight-line segment by reference first: the code is
    // only rewritten once every search has finished
    let insns = &code.insns;
    let mut plan: Vec<(usize, Vec<Bundle>)> = Vec::new();
    let mut i = 0usize;
    while i < insns.len() {
        if !matches!(insns[i].kind, InsnKind::Compute { .. }) {
            i += 1;
            continue;
        }
        let start = i;
        while i < insns.len() && matches!(insns[i].kind, InsnKind::Compute { .. }) {
            i += 1;
        }
        let seg = &insns[start..i];
        stats.insns_before += seg.len();
        let bundles = match mode {
            ScheduleMode::List => list_schedule(seg, pd),
            ScheduleMode::BranchAndBound { max_segment } if seg.len() <= max_segment => {
                branch_and_bound(seg, pd, budget)?
            }
            ScheduleMode::BranchAndBound { .. } => list_schedule(seg, pd),
        };
        stats.bundles_after += bundles.len();
        plan.push((start, bundles));
    }

    // then move every instruction into place: each segment's bundles,
    // the instructions between segments as they are
    let mut slots: Vec<Option<Insn>> =
        std::mem::take(&mut code.insns).into_iter().map(Some).collect();
    let mut out = Vec::with_capacity(slots.len());
    let mut take = |slot: &mut Option<Insn>| slot.take().expect("every instruction is placed once");
    let mut next = 0usize;
    for (start, bundles) in plan {
        out.extend(slots[next..start].iter_mut().map(&mut take));
        next = start;
        for bundle in bundles {
            next += bundle.len();
            out.push(build_bundle(&mut slots[start..], &bundle));
        }
    }
    out.extend(slots[next..].iter_mut().map(&mut take));
    code.insns = out;
    Ok(stats)
}

/// A bundle: indices into the segment; the first is the host.
type Bundle = Vec<usize>;

fn dep_matrix(seg: &[Insn]) -> Vec<Vec<bool>> {
    let n = seg.len();
    let mut dep = vec![vec![false; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            dep[i][j] = !independent(&seg[i], &seg[j]);
        }
    }
    dep
}

/// Can `cand` join `bundle`? At most one non-move, move budget, distinct
/// banks, pairwise independence. A multi-word instruction (a long
/// immediate) has no parallel-move field, so it bundles with nothing.
fn fits(seg: &[Insn], pd: &ParallelDesc, bundle: &Bundle, cand: usize) -> bool {
    if seg[cand].words > 1 || bundle.iter().any(|&i| seg[i].words > 1) {
        return false;
    }
    let moves_in = |ix: usize| is_pure_move(&seg[ix], pd);
    let n_moves = bundle.iter().filter(|&&i| moves_in(i)).count() + usize::from(moves_in(cand));
    let n_arith = bundle.len() + 1 - n_moves;
    if n_arith > 1 || n_moves > pd.max_moves as usize {
        return false;
    }
    for &i in bundle {
        if !independent(&seg[i], &seg[cand]) {
            return false;
        }
    }
    if pd.moves_need_distinct_banks {
        let mut per_bank = [0u32; 2];
        for &i in bundle.iter().chain(std::iter::once(&cand)) {
            if moves_in(i) {
                count_banks(&seg[i], &mut per_bank);
            }
        }
        if per_bank.iter().any(|&n| n > 1) {
            return false;
        }
    }
    true
}

fn list_schedule(seg: &[Insn], pd: &ParallelDesc) -> Vec<Bundle> {
    let n = seg.len();
    let dep = dep_matrix(seg);
    // critical-path priority
    let mut height = vec![1usize; n];
    for i in (0..n).rev() {
        for j in i + 1..n {
            if dep[i][j] {
                height[i] = height[i].max(height[j] + 1);
            }
        }
    }
    let mut scheduled = vec![false; n];
    let mut done = 0usize;
    let mut bundles = Vec::new();
    while done < n {
        // ready: unscheduled with all predecessors scheduled
        let ready: Vec<usize> = (0..n)
            .filter(|&i| !scheduled[i] && (0..i).all(|p| !dep[p][i] || scheduled[p]))
            .collect();
        debug_assert!(!ready.is_empty(), "DAG always has a ready node");
        let mut order = ready.clone();
        order.sort_by(|a, b| height[*b].cmp(&height[*a]).then(a.cmp(b)));
        let mut bundle: Bundle = vec![order[0]];
        for &cand in &order[1..] {
            if fits(seg, pd, &bundle, cand) {
                bundle.push(cand);
            }
        }
        for &i in &bundle {
            scheduled[i] = true;
            done += 1;
        }
        bundles.push(bundle);
    }
    bundles
}

fn branch_and_bound(
    seg: &[Insn],
    pd: &ParallelDesc,
    budget: &SearchBudget,
) -> Result<Vec<Bundle>, BudgetExceeded> {
    let n = seg.len();
    let dep = dep_matrix(seg);
    let mut best: Vec<Bundle> = list_schedule(seg, pd);
    let width = 1 + pd.max_moves as usize;
    let mut current: Vec<Bundle> = Vec::new();
    let mut scheduled = vec![false; n];

    fn enumerate_bundles(
        seg: &[Insn],
        pd: &ParallelDesc,
        ready: &[usize],
        start: usize,
        bundle: &mut Bundle,
        out: &mut Vec<Bundle>,
        budget: &SearchBudget,
    ) -> Result<(), BudgetExceeded> {
        for (k, &cand) in ready.iter().enumerate().skip(start) {
            if bundle.is_empty() || fits(seg, pd, bundle, cand) {
                budget.charge(1)?;
                bundle.push(cand);
                out.push(bundle.clone());
                enumerate_bundles(seg, pd, ready, k + 1, bundle, out, budget)?;
                bundle.pop();
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        seg: &[Insn],
        pd: &ParallelDesc,
        dep: &[Vec<bool>],
        scheduled: &mut Vec<bool>,
        done: usize,
        current: &mut Vec<Bundle>,
        best: &mut Vec<Bundle>,
        width: usize,
        budget: &SearchBudget,
    ) -> Result<(), BudgetExceeded> {
        budget.charge(1)?;
        let n = seg.len();
        if done == n {
            if current.len() < best.len() {
                *best = current.clone();
            }
            return Ok(());
        }
        // lower bound prune
        let remaining = n - done;
        let lb = current.len() + remaining.div_ceil(width);
        if lb >= best.len() {
            return Ok(());
        }
        let ready: Vec<usize> = (0..n)
            .filter(|&i| !scheduled[i] && (0..i).all(|p| !dep[p][i] || scheduled[p]))
            .collect();
        let mut candidates = Vec::new();
        let mut scratch = Vec::new();
        enumerate_bundles(seg, pd, &ready, 0, &mut scratch, &mut candidates, budget)?;
        // try bigger bundles first
        candidates.sort_by_key(|b| std::cmp::Reverse(b.len()));
        for bundle in candidates {
            for &i in &bundle {
                scheduled[i] = true;
            }
            current.push(bundle.clone());
            dfs(seg, pd, dep, scheduled, done + bundle.len(), current, best, width, budget)?;
            current.pop();
            for &i in &bundle {
                scheduled[i] = false;
            }
        }
        Ok(())
    }

    dfs(seg, pd, &dep, &mut scheduled, 0, &mut current, &mut best, width, budget)?;
    Ok(best)
}

/// Moves a bundle's members out of the segment's `slots` into one
/// instruction: the host (the non-move if present, else the first member)
/// carrying the others as parallel operations.
fn build_bundle(slots: &mut [Option<Insn>], bundle: &Bundle) -> Insn {
    let is_move = |slot: &Option<Insn>| {
        matches!(
            slot,
            Some(Insn { kind: InsnKind::Compute { expr: record_isa::SemExpr::Loc(_), .. }, .. })
        )
    };
    let host_ix = bundle.iter().copied().find(|&i| !is_move(&slots[i])).unwrap_or(bundle[0]);
    let mut host = slots[host_ix].take().expect("bundle members are placed once");
    for &i in bundle {
        if i == host_ix {
            continue;
        }
        let mut m = slots[i].take().expect("bundle members are placed once");
        m.words = 0;
        m.cycles = 0;
        host.units |= m.units;
        host.parallel.push(m);
    }
    host
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // Code::default() + .insns is the clearest test setup
mod tests {
    use super::*;
    use record_ir::{BinOp, Symbol};
    use record_isa::{RegClassId, SemExpr};

    fn reg(class: u16, ix: u16) -> Loc {
        Loc::Reg(RegId::new(RegClassId(class), ix))
    }

    fn mem(name: &str) -> Loc {
        Loc::Mem(MemLoc::scalar(name))
    }

    #[test]
    fn independent_detects_reg_conflicts() {
        let a = Insn::mov(reg(0, 0), mem("x"), "LD r0,x", 1, 1);
        let b = Insn::mov(reg(0, 0), mem("y"), "LD r0,y", 1, 1); // same dst
        assert!(!independent(&a, &b));
        let c = Insn::mov(reg(0, 1), mem("y"), "LD r1,y", 1, 1);
        assert!(independent(&a, &c));
        let d = Insn::compute(
            reg(0, 2),
            SemExpr::bin(BinOp::Add, SemExpr::loc(reg(0, 0)), SemExpr::loc(reg(0, 1))),
            "ADD r2,r0,r1",
            1,
            1,
        );
        assert!(!independent(&a, &d), "d reads a's destination");
    }

    #[test]
    fn independent_detects_memory_aliasing() {
        let a = Insn::mov(mem("x"), reg(0, 0), "ST x", 1, 1);
        let b = Insn::mov(reg(0, 1), mem("x"), "LD x", 1, 1);
        assert!(!independent(&a, &b));
        let c = Insn::mov(reg(0, 1), mem("z"), "LD z", 1, 1);
        assert!(independent(&a, &c));
    }

    #[test]
    fn independent_respects_ar_post_modify() {
        let walk = MemLoc {
            base: Symbol::new("a"),
            disp: 0,
            index: Some(Symbol::new("i")),
            down: false,
            bank: record_ir::Bank::X,
            mode: record_isa::AddrMode::Indirect { ar: 0, post: 1 },
        };
        let same_ar = MemLoc {
            base: Symbol::new("b"),
            disp: 0,
            index: Some(Symbol::new("i")),
            down: false,
            bank: record_ir::Bank::X,
            mode: record_isa::AddrMode::Indirect { ar: 0, post: 0 },
        };
        let a = Insn::mov(reg(0, 0), Loc::Mem(walk), "LD *ar0+", 1, 1);
        let b = Insn::mov(reg(0, 1), Loc::Mem(same_ar), "LD *ar0", 1, 1);
        assert!(!independent(&a, &b), "post-modify orders accesses via ar0");
    }

    #[test]
    fn fuse_applies_lt_apac_as_lta() {
        let t = record_isa::targets::tic25::target();
        let lt_rule = t.rules.iter().find(|r| r.asm == "LT {0}").unwrap().id;
        let apac_rule = t.rules.iter().find(|r| r.asm == "APAC").unwrap().id;
        let acc = t.reg_class("acc").unwrap();
        let p = t.reg_class("p").unwrap();
        let tr = t.reg_class("t").unwrap();

        let mut lt = Insn::mov(Loc::Reg(RegId::singleton(tr)), mem("c"), "LT c", 1, 1);
        lt.rule = Some(lt_rule);
        let mut apac = Insn::compute(
            Loc::Reg(RegId::singleton(acc)),
            SemExpr::bin(
                BinOp::Add,
                SemExpr::loc(Loc::Reg(RegId::singleton(acc))),
                SemExpr::loc(Loc::Reg(RegId::singleton(p))),
            ),
            "APAC",
            1,
            1,
        );
        apac.rule = Some(apac_rule);

        // direct order LT;APAC
        let mut code = Code::default();
        code.insns = vec![lt.clone(), apac.clone()];
        assert_eq!(fuse(&mut code, &t), 1);
        assert_eq!(code.insns.len(), 1);
        assert_eq!(code.insns[0].text, "LTA c");
        assert_eq!(code.insns[0].words, 1);
        assert_eq!(code.insns[0].parallel.len(), 1);

        // swapped order APAC;LT also fuses (independent)
        let mut code = Code::default();
        code.insns = vec![apac, lt];
        assert_eq!(fuse(&mut code, &t), 1);
        assert_eq!(code.insns[0].text, "LTA c");
    }

    #[test]
    fn fuse_refuses_dependent_pairs() {
        let t = record_isa::targets::tic25::target();
        let lt_rule = t.rules.iter().find(|r| r.asm == "LT {0}").unwrap().id;
        let tr = t.reg_class("t").unwrap();
        // two LTs write the same register: dependent, no fusion even if a
        // (LT, LT) fusion existed; also (LT, LT) is not in the table.
        let mut a = Insn::mov(Loc::Reg(RegId::singleton(tr)), mem("x"), "LT x", 1, 1);
        a.rule = Some(lt_rule);
        let mut code = Code::default();
        code.insns = vec![a.clone(), a];
        assert_eq!(fuse(&mut code, &t), 0);
        assert_eq!(code.insns.len(), 2);
    }

    fn dsp_move(dst: Loc, src: &str, bank: record_ir::Bank) -> Insn {
        let mut m = MemLoc::scalar(src);
        m.bank = bank;
        let mut i = Insn::mov(dst, Loc::Mem(m), format!("MOVE {src}"), 1, 1);
        i.units = record_isa::pattern::units::MOVE;
        i
    }

    #[test]
    fn pack_moves_absorbs_following_independent_moves() {
        let t = record_isa::targets::dsp56k::target();
        let a_cl = t.reg_class("a").unwrap();
        let x_cl = t.reg_class("x").unwrap();
        let y_cl = t.reg_class("y").unwrap();
        let arith = Insn::compute(
            Loc::Reg(RegId::new(a_cl, 0)),
            SemExpr::bin(
                BinOp::Mul,
                SemExpr::loc(Loc::Reg(RegId::new(x_cl, 0))),
                SemExpr::loc(Loc::Reg(RegId::new(y_cl, 0))),
            ),
            "MPY x0,y0,a0",
            1,
            1,
        );
        // two moves loading the *other* input registers (x1/y1), one per bank
        let mv1 = dsp_move(Loc::Reg(RegId::new(x_cl, 1)), "p", record_ir::Bank::X);
        let mv2 = dsp_move(Loc::Reg(RegId::new(y_cl, 1)), "q", record_ir::Bank::Y);
        let mut code = Code::default();
        code.insns = vec![arith, mv1, mv2];
        let packed = pack_moves(&mut code, &t);
        assert_eq!(packed, 2, "{:#?}", code.insns);
        assert_eq!(code.insns.len(), 1);
        assert_eq!(code.insns[0].parallel.len(), 2);
        assert_eq!(code.size_words(), 1);
    }

    #[test]
    fn pack_moves_respects_bank_constraint() {
        let t = record_isa::targets::dsp56k::target();
        let a_cl = t.reg_class("a").unwrap();
        let x_cl = t.reg_class("x").unwrap();
        let arith = Insn::compute(
            Loc::Reg(RegId::new(a_cl, 0)),
            SemExpr::un(record_ir::UnOp::Neg, SemExpr::loc(Loc::Reg(RegId::new(a_cl, 0)))),
            "NEG a0",
            1,
            1,
        );
        // both moves in bank X: only the first can pack
        let mv1 = dsp_move(Loc::Reg(RegId::new(x_cl, 0)), "p", record_ir::Bank::X);
        let mv2 = dsp_move(Loc::Reg(RegId::new(x_cl, 1)), "q", record_ir::Bank::X);
        let mut code = Code::default();
        code.insns = vec![arith, mv1, mv2];
        let packed = pack_moves(&mut code, &t);
        assert_eq!(packed, 1);
        assert_eq!(code.insns.len(), 2);
    }

    #[test]
    fn pack_moves_refuses_dependent_move() {
        let t = record_isa::targets::dsp56k::target();
        let a_cl = t.reg_class("a").unwrap();
        let x_cl = t.reg_class("x").unwrap();
        let arith = Insn::compute(
            Loc::Reg(RegId::new(a_cl, 0)),
            SemExpr::bin(
                BinOp::Add,
                SemExpr::loc(Loc::Reg(RegId::new(a_cl, 0))),
                SemExpr::loc(Loc::Reg(RegId::new(x_cl, 0))),
            ),
            "ADD x0,a0",
            1,
            1,
        );
        // move overwrites x0 which the arithmetic reads — packing would
        // change semantics under parallel (read-old) rules only if the
        // arithmetic were after; our model forbids any write/read overlap.
        let mv = dsp_move(Loc::Reg(RegId::new(x_cl, 0)), "p", record_ir::Bank::X);
        let mut code = Code::default();
        code.insns = vec![arith, mv];
        assert_eq!(pack_moves(&mut code, &t), 0);
    }

    #[test]
    fn schedule_bundles_independent_ops() {
        let t = record_isa::targets::dsp56k::target();
        let a_cl = t.reg_class("a").unwrap();
        let x_cl = t.reg_class("x").unwrap();
        let y_cl = t.reg_class("y").unwrap();
        let arith = Insn::compute(
            Loc::Reg(RegId::new(a_cl, 0)),
            SemExpr::un(record_ir::UnOp::Neg, SemExpr::loc(Loc::Reg(RegId::new(a_cl, 0)))),
            "NEG a0",
            1,
            1,
        );
        let mv1 = dsp_move(Loc::Reg(RegId::new(x_cl, 0)), "p", record_ir::Bank::X);
        let mv2 = dsp_move(Loc::Reg(RegId::new(y_cl, 0)), "q", record_ir::Bank::Y);
        let mut code = Code::default();
        // moves BEFORE the arithmetic: pack_moves cannot absorb them, the
        // scheduler can (it reorders within the dependence DAG)
        code.insns = vec![mv1, mv2, arith];
        let stats = schedule(&mut code, &t, ScheduleMode::List);
        assert_eq!(stats.insns_before, 3);
        assert_eq!(stats.bundles_after, 1, "{:#?}", code.insns);
    }

    #[test]
    fn branch_and_bound_never_worse_than_list() {
        let t = record_isa::targets::dsp56k::target();
        let a_cl = t.reg_class("a").unwrap();
        let x_cl = t.reg_class("x").unwrap();
        let y_cl = t.reg_class("y").unwrap();
        let mk_arith = |ix: u16, name: &str| {
            Insn::compute(
                Loc::Reg(RegId::new(a_cl, ix)),
                SemExpr::un(record_ir::UnOp::Neg, SemExpr::loc(Loc::Reg(RegId::new(a_cl, ix)))),
                name,
                1,
                1,
            )
        };
        let seg = vec![
            dsp_move(Loc::Reg(RegId::new(x_cl, 0)), "p", record_ir::Bank::X),
            mk_arith(0, "NEG a0"),
            dsp_move(Loc::Reg(RegId::new(y_cl, 0)), "q", record_ir::Bank::Y),
            mk_arith(1, "NEG a1"),
            dsp_move(Loc::Reg(RegId::new(x_cl, 1)), "r", record_ir::Bank::X),
        ];
        let mut list_code = Code::default();
        list_code.insns = seg.clone();
        let ls = schedule(&mut list_code, &t, ScheduleMode::List);
        let mut bb_code = Code::default();
        bb_code.insns = seg;
        let bb = schedule(&mut bb_code, &t, ScheduleMode::BranchAndBound { max_segment: 10 });
        assert!(bb.bundles_after <= ls.bundles_after);
        assert!(bb.bundles_after >= 2, "two arithmetic ops cannot share a bundle");
    }

    #[test]
    fn hoist_moves_invariant_constant_load_out() {
        let t = record_isa::targets::tic25::target();
        let acc = t.reg_class("acc").unwrap();
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
            "LOOP 4",
            2,
            2,
        ));
        // LACK 7 ; SACL a[i]  — the load is invariant
        code.insns.push(Insn::mov(Loc::Reg(RegId::singleton(acc)), Loc::Imm(7), "LACK 7", 1, 1));
        let a_i = MemLoc {
            base: Symbol::new("a"),
            disp: 0,
            index: Some(Symbol::new("i")),
            down: false,
            bank: record_ir::Bank::X,
            mode: record_isa::AddrMode::Unresolved,
        };
        code.insns.push(Insn::mov(
            Loc::Mem(a_i),
            Loc::Reg(RegId::singleton(acc)),
            "SACL a[i]",
            1,
            1,
        ));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLP", 2, 3));
        let n = hoist_invariant_prefix(&mut code);
        assert_eq!(n, 1);
        assert_eq!(code.insns[0].text, "LACK 7");
        assert!(matches!(code.insns[1].kind, InsnKind::LoopStart { .. }));
        code.verify().unwrap();
    }

    #[test]
    fn hoist_refuses_variant_or_clobbered_loads() {
        let t = record_isa::targets::tic25::target();
        let acc = t.reg_class("acc").unwrap();
        let mk_loop = |body: Vec<Insn>| {
            let mut code = Code::default();
            code.insns.push(Insn::ctrl(
                InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
                "LOOP",
                2,
                2,
            ));
            code.insns.extend(body);
            code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "END", 2, 3));
            code
        };
        // loop-variant operand: not hoistable
        let a_i = MemLoc {
            base: Symbol::new("a"),
            disp: 0,
            index: Some(Symbol::new("i")),
            down: false,
            bank: record_ir::Bank::X,
            mode: record_isa::AddrMode::Unresolved,
        };
        let mut code = mk_loop(vec![
            Insn::mov(Loc::Reg(RegId::singleton(acc)), Loc::Mem(a_i), "LAC a[i]", 1, 1),
            Insn::mov(mem("y"), Loc::Reg(RegId::singleton(acc)), "SACL y", 1, 1),
        ]);
        assert_eq!(hoist_invariant_prefix(&mut code), 0);

        // destination rewritten later in the body: not hoistable
        let mut code = mk_loop(vec![
            Insn::mov(Loc::Reg(RegId::singleton(acc)), Loc::Imm(7), "LACK 7", 1, 1),
            Insn::mov(mem("y"), Loc::Reg(RegId::singleton(acc)), "SACL y", 1, 1),
            Insn::mov(Loc::Reg(RegId::singleton(acc)), Loc::Imm(9), "LACK 9", 1, 1),
            Insn::mov(mem("z"), Loc::Reg(RegId::singleton(acc)), "SACL z", 1, 1),
        ]);
        assert_eq!(hoist_invariant_prefix(&mut code), 0);

        // source memory written by the body tail: not hoistable
        let mut code = mk_loop(vec![
            Insn::mov(Loc::Reg(RegId::singleton(acc)), mem("y"), "LAC y", 1, 1),
            Insn::mov(mem("y"), Loc::Imm(0), "CLR y", 1, 1),
        ]);
        assert_eq!(hoist_invariant_prefix(&mut code), 0);
    }

    #[test]
    fn schedule_respects_dependences() {
        let t = record_isa::targets::dsp56k::target();
        let x_cl = t.reg_class("x").unwrap();
        // chain: LD x0 <- p ; ST p <- x0 must stay ordered
        let a = dsp_move(Loc::Reg(RegId::new(x_cl, 0)), "p", record_ir::Bank::X);
        let b = Insn::mov(mem("p"), Loc::Reg(RegId::new(x_cl, 0)).clone(), "MOVE x0,p", 1, 1);
        let mut code = Code::default();
        code.insns = vec![a, b];
        let stats = schedule(&mut code, &t, ScheduleMode::BranchAndBound { max_segment: 10 });
        assert_eq!(stats.bundles_after, 2);
    }
}
