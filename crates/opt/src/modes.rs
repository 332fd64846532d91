//! Mode-change (residual control) minimization.
//!
//! "Many DSPs have multiple operation modes … Switching from one mode to
//! the other requires executing mode changing instructions. The issue for
//! compilers is to minimize the number of mode-changing instructions."
//! (Section 3.3, citing Liao.)
//!
//! Instructions carry their requirement in
//! [`Insn::mode_req`](record_isa::Insn::mode_req). For a linear sequence
//! and independent binary modes, lazy switching — change only when the
//! next requirement differs from the current state — is optimal; loops
//! additionally get single-polarity requirements hoisted into the
//! preheader and mixed-polarity bodies a restoring change before the back
//! edge so that every iteration enters in the same state.

use record_isa::{Code, Insn, InsnKind, TargetDesc};

/// How mode changes are inserted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModeStrategy {
    /// Switch only when the required state differs from the tracked state
    /// (with loop hoisting) — the optimized strategy.
    Lazy,
    /// Switch before *every* requiring instruction and restore the default
    /// after it — the naive baseline the ablation bench compares against.
    PerUse,
}

/// Inserts mode-change instructions so that every instruction's
/// requirement is met; returns how many were inserted.
///
/// The insertions are planned over the instructions first and then
/// spliced in, moving every instruction rather than copying it. Programs
/// whose instructions carry no requirements are returned untouched
/// (cost 0) — the common case for non-saturating kernels.
pub fn insert_mode_changes(code: &mut Code, target: &TargetDesc, strategy: ModeStrategy) -> u32 {
    if target.modes.is_empty() {
        return 0;
    }
    // (insert before this instruction index, mode, on), in program order
    let mut plan: Vec<(usize, usize, bool)> = Vec::new();
    let insns = &code.insns;
    match strategy {
        ModeStrategy::PerUse => {
            let mut i = 0usize;
            while i < insns.len() {
                // an RPT and its body are inseparable: any change the body
                // needs goes *before* the RPT, the restore after the body
                let (req_insn, span) = match insns[i].kind {
                    InsnKind::Rpt { .. } if i + 1 < insns.len() => (&insns[i + 1], 2),
                    _ => (&insns[i], 1),
                };
                if let Some((mode, on)) = req_insn.mode_req {
                    let default = target.modes[mode].default_on;
                    if on != default {
                        plan.push((i, mode, on));
                        plan.push((i + span, mode, default));
                    }
                }
                i += span;
            }
        }
        ModeStrategy::Lazy => {
            let (mut inline, mut heap) = ([false; INLINE_MODES], Vec::new());
            let state = mode_state(&mut inline, &mut heap, target.modes.len());
            for (on, mode) in state.iter_mut().zip(&target.modes) {
                *on = mode.default_on;
            }
            lazy(insns, 0, state, &mut plan);
        }
    }
    if plan.is_empty() {
        return 0;
    }
    let inserted = plan.len() as u32;
    let mut plan = plan.into_iter().peekable();
    let insns = std::mem::take(&mut code.insns);
    let mut out = Vec::with_capacity(insns.len() + inserted as usize);
    for (i, insn) in insns.into_iter().enumerate() {
        while let Some((_, mode, on)) = plan.next_if(|&(at, ..)| at == i) {
            out.push(set_mode(target, mode, on));
        }
        out.push(insn);
    }
    out.extend(plan.map(|(_, mode, on)| set_mode(target, mode, on)));
    code.insns = out;
    inserted
}

fn set_mode(target: &TargetDesc, mode: usize, on: bool) -> Insn {
    let desc = &target.modes[mode];
    let text = if on { desc.set_asm.clone() } else { desc.clear_asm.clone() };
    Insn::ctrl(InsnKind::SetMode { mode, on }, text, desc.cost.words, desc.cost.cycles)
}

/// Modes whose tracked state fits on the stack; a target with more keeps
/// it on the heap.
const INLINE_MODES: usize = 8;

/// A mode-state slice of `n` modes: the front of `inline` when it fits,
/// else `heap`, grown to `n`.
fn mode_state<'a>(
    inline: &'a mut [bool; INLINE_MODES],
    heap: &'a mut Vec<bool>,
    n: usize,
) -> &'a mut [bool] {
    if n <= INLINE_MODES {
        &mut inline[..n]
    } else {
        heap.resize(n, false);
        heap
    }
}

/// Plans lazy insertion over a (possibly loop-structured) instruction
/// sequence that starts at index `at` of the program: each change goes
/// into `plan` as (instruction index it precedes, mode, on).
fn lazy(insns: &[Insn], at: usize, state: &mut [bool], plan: &mut Vec<(usize, usize, bool)>) {
    let mut i = 0usize;
    while i < insns.len() {
        let insn = &insns[i];
        match &insn.kind {
            InsnKind::LoopStart { .. } => {
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

                // hoist single-polarity requirements
                for mode in 0..state.len() {
                    if let Some(polarity) = single_polarity(body, mode) {
                        change(plan, state, at + i, mode, polarity);
                    }
                }
                let (mut inline, mut heap) = ([false; INLINE_MODES], Vec::new());
                let entry = mode_state(&mut inline, &mut heap, state.len());
                entry.copy_from_slice(state);
                lazy(body, at + i + 1, state, plan);
                // restore entry state so every iteration sees it
                for (mode, &on) in entry.iter().enumerate() {
                    change(plan, state, at + j - 1, mode, on);
                }
                i = j;
                continue;
            }
            InsnKind::Rpt { .. } => {
                // an RPT and its body are inseparable: satisfy the body's
                // requirement *before* the RPT, never between the two
                if let Some(body) = insns.get(i + 1) {
                    if let Some((mode, on)) = body.mode_req {
                        change(plan, state, at + i, mode, on);
                    }
                    i += 2;
                    continue;
                }
            }
            InsnKind::SetMode { mode, on } => {
                // pre-existing changes update tracking
                state[*mode] = *on;
            }
            _ => {
                if let Some((mode, on)) = insn.mode_req {
                    change(plan, state, at + i, mode, on);
                }
            }
        }
        i += 1;
    }
}

/// Plans a change of `mode` to `on` before instruction `before`, unless
/// the tracked state already is `on`.
fn change(
    plan: &mut Vec<(usize, usize, bool)>,
    state: &mut [bool],
    before: usize,
    mode: usize,
    on: bool,
) {
    if state[mode] != on {
        plan.push((before, mode, on));
        state[mode] = on;
    }
}

/// If every requirement on `mode` inside `body` has the same polarity,
/// returns it.
fn single_polarity(body: &[Insn], mode: usize) -> Option<bool> {
    let mut polarity: Option<bool> = None;
    for insn in body {
        if let Some((m, on)) = insn.mode_req {
            if m == mode {
                match polarity {
                    None => polarity = Some(on),
                    Some(p) if p != on => return None,
                    _ => {}
                }
            }
        }
    }
    polarity
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_isa::{Loc, MemLoc};

    fn t() -> TargetDesc {
        record_isa::targets::tic25::target()
    }

    fn req(on: bool) -> Insn {
        let mut i = Insn::mov(
            Loc::Mem(MemLoc::scalar("y")),
            Loc::Mem(MemLoc::scalar("x")),
            if on { "SAT-OP" } else { "WRAP-OP" },
            1,
            1,
        );
        i.mode_req = Some((0, on));
        i
    }

    fn count_setmodes(code: &Code) -> usize {
        code.insns.iter().filter(|i| matches!(i.kind, InsnKind::SetMode { .. })).count()
    }

    #[test]
    fn no_requirements_no_changes() {
        let mut code = Code::default();
        code.insns.push(Insn::nop());
        assert_eq!(insert_mode_changes(&mut code, &t(), ModeStrategy::Lazy), 0);
        assert_eq!(count_setmodes(&code), 0);
    }

    #[test]
    fn lazy_switches_once_per_run() {
        let mut code = Code::default();
        for _ in 0..3 {
            code.insns.push(req(true));
        }
        for _ in 0..2 {
            code.insns.push(req(false));
        }
        let n = insert_mode_changes(&mut code, &t(), ModeStrategy::Lazy);
        // one SOVM before the first, one ROVM before the fourth
        assert_eq!(n, 2);
        assert!(matches!(code.insns[0].kind, InsnKind::SetMode { on: true, .. }));
    }

    #[test]
    fn per_use_pays_per_instruction() {
        let mut code = Code::default();
        for _ in 0..3 {
            code.insns.push(req(true));
        }
        let n = insert_mode_changes(&mut code, &t(), ModeStrategy::PerUse);
        assert_eq!(n, 6, "set + restore around each of the three uses");
    }

    #[test]
    fn default_polarity_requirements_are_free_lazily() {
        let mut code = Code::default();
        code.insns.push(req(false)); // ovm defaults to off
        let n = insert_mode_changes(&mut code, &t(), ModeStrategy::Lazy);
        assert_eq!(n, 0);
    }

    #[test]
    fn single_polarity_loops_hoist() {
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: record_ir::Symbol::new("i"), count: 8 },
            "LOOP 8",
            2,
            2,
        ));
        code.insns.push(req(true));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 3));
        let n = insert_mode_changes(&mut code, &t(), ModeStrategy::Lazy);
        assert_eq!(n, 1, "{:?}", code.insns.iter().map(|i| &i.text).collect::<Vec<_>>());
        // the single change precedes the loop
        assert!(matches!(code.insns[0].kind, InsnKind::SetMode { on: true, .. }));
        assert!(matches!(code.insns[1].kind, InsnKind::LoopStart { .. }));
    }

    #[test]
    fn mixed_polarity_loops_restore_at_back_edge() {
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: record_ir::Symbol::new("i"), count: 8 },
            "LOOP 8",
            2,
            2,
        ));
        code.insns.push(req(true));
        code.insns.push(req(false));
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 3));
        let n = insert_mode_changes(&mut code, &t(), ModeStrategy::Lazy);
        // set before the sat op, clear before the wrap op; state at the
        // back edge equals entry state (off), so no restore is needed
        assert_eq!(n, 2);
        code.verify().unwrap();
    }

    #[test]
    fn rpt_and_its_body_stay_adjacent() {
        // regression: a mode change required by a hardware-repeat body
        // must be hoisted above the RPT, never inserted between RPT and
        // the body (which would repeat the mode change instead).
        use record_isa::SemExpr;
        let body = || {
            let mut i = Insn::compute(
                Loc::Mem(MemLoc::scalar("y")),
                SemExpr::loc(Loc::Mem(MemLoc::scalar("x"))),
                "SAT-OP",
                1,
                1,
            );
            i.mode_req = Some((0, true));
            i
        };
        for strategy in [ModeStrategy::Lazy, ModeStrategy::PerUse] {
            let mut code = Code::default();
            code.insns.push(Insn::ctrl(InsnKind::Rpt { count: 4 }, "RPTK 4", 1, 1));
            code.insns.push(body());
            let n = insert_mode_changes(&mut code, &t(), strategy);
            assert!(n >= 1, "{strategy:?} inserted nothing");
            code.verify().unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert!(matches!(code.insns[0].kind, InsnKind::SetMode { on: true, .. }));
            assert!(matches!(code.insns[1].kind, InsnKind::Rpt { .. }));
        }
    }

    #[test]
    fn trailing_rpt_without_body_is_preserved() {
        // degenerate input: RPT as the last instruction must not panic
        let mut code = Code::default();
        code.insns.push(Insn::ctrl(InsnKind::Rpt { count: 2 }, "RPTK 2", 1, 1));
        for strategy in [ModeStrategy::Lazy, ModeStrategy::PerUse] {
            let mut c = code.clone();
            insert_mode_changes(&mut c, &t(), strategy);
            assert_eq!(c.insns.len(), 1);
        }
    }

    #[test]
    fn lazy_never_worse_than_per_use() {
        let patterns: Vec<Vec<bool>> = vec![
            vec![true, true, false, true],
            vec![false, false],
            vec![true],
            vec![true, false, true, false, true],
        ];
        for pat in patterns {
            let mut lazy_code = Code::default();
            let mut naive_code = Code::default();
            for &on in &pat {
                lazy_code.insns.push(req(on));
                naive_code.insns.push(req(on));
            }
            let nl = insert_mode_changes(&mut lazy_code, &t(), ModeStrategy::Lazy);
            let nn = insert_mode_changes(&mut naive_code, &t(), ModeStrategy::PerUse);
            assert!(nl <= nn, "lazy {nl} > per-use {nn} for {pat:?}");
        }
    }

    /// The cloning insertion `insert_mode_changes` replaced: it rebuilds
    /// the program, copying every instruction.
    fn reference_insert(code: &mut Code, target: &TargetDesc, strategy: ModeStrategy) -> u32 {
        if target.modes.is_empty() {
            return 0;
        }
        let insns = std::mem::take(&mut code.insns);
        let mut state: Vec<bool> = target.modes.iter().map(|m| m.default_on).collect();
        let mut out = Vec::with_capacity(insns.len());
        let mut inserted = 0u32;

        match strategy {
            ModeStrategy::PerUse => {
                let mut i = 0usize;
                while i < insns.len() {
                    let insn = &insns[i];
                    // an RPT and its body are inseparable: any change the body
                    // needs goes *before* the RPT, the restore after the body
                    let (req_insn, span) = match insn.kind {
                        InsnKind::Rpt { .. } if i + 1 < insns.len() => (&insns[i + 1], 2),
                        _ => (insn, 1),
                    };
                    if let Some((mode, on)) = req_insn.mode_req {
                        let default = target.modes[mode].default_on;
                        if on != default {
                            out.push(set_mode(target, mode, on));
                            out.extend(insns[i..i + span].iter().cloned());
                            out.push(set_mode(target, mode, default));
                            inserted += 2;
                            i += span;
                            continue;
                        }
                    }
                    out.extend(insns[i..i + span].iter().cloned());
                    i += span;
                }
            }
            ModeStrategy::Lazy => {
                inserted = reference_lazy(&insns, target, &mut state, &mut out);
            }
        }
        code.insns = out;
        inserted
    }

    /// The cloning lazy insertion `lazy` replaced.
    fn reference_lazy(
        insns: &[Insn],
        target: &TargetDesc,
        state: &mut [bool],
        out: &mut Vec<Insn>,
    ) -> u32 {
        let mut inserted = 0u32;
        let mut i = 0usize;
        while i < insns.len() {
            let insn = &insns[i];
            match &insn.kind {
                InsnKind::LoopStart { .. } => {
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

                    // hoist single-polarity requirements
                    #[allow(clippy::needless_range_loop)] // mode indexes two tables
                    for mode in 0..target.modes.len() {
                        if let Some(polarity) = single_polarity(body, mode) {
                            if state[mode] != polarity {
                                out.push(set_mode(target, mode, polarity));
                                state[mode] = polarity;
                                inserted += 1;
                            }
                        }
                    }
                    out.push(insn.clone());
                    let entry = state.to_vec();
                    let mut body_out = Vec::new();
                    inserted += reference_lazy(body, target, state, &mut body_out);
                    out.extend(body_out);
                    // restore entry state so every iteration sees it
                    #[allow(clippy::needless_range_loop)] // two slices indexed in lockstep
                    for mode in 0..target.modes.len() {
                        if state[mode] != entry[mode] {
                            out.push(set_mode(target, mode, entry[mode]));
                            state[mode] = entry[mode];
                            inserted += 1;
                        }
                    }
                    out.push(insns[j - 1].clone());
                    i = j;
                    continue;
                }
                InsnKind::Rpt { .. } => {
                    // an RPT and its body are inseparable: satisfy the body's
                    // requirement *before* the RPT, never between the two
                    if let Some(body) = insns.get(i + 1) {
                        if let Some((mode, on)) = body.mode_req {
                            if state[mode] != on {
                                out.push(set_mode(target, mode, on));
                                state[mode] = on;
                                inserted += 1;
                            }
                        }
                        out.push(insn.clone());
                        out.push(body.clone());
                        i += 2;
                        continue;
                    }
                    out.push(insn.clone());
                }
                InsnKind::SetMode { mode, on } => {
                    // pre-existing changes update tracking
                    state[*mode] = *on;
                    out.push(insn.clone());
                }
                _ => {
                    if let Some((mode, on)) = insn.mode_req {
                        if state[mode] != on {
                            out.push(set_mode(target, mode, on));
                            state[mode] = on;
                            inserted += 1;
                        }
                    }
                    out.push(insn.clone());
                }
            }
            i += 1;
        }
        inserted
    }

    /// A target with two modes of opposite defaults: tic25's `ovm` (off
    /// at entry) and an extra mode that is on at entry.
    fn two_mode_target() -> TargetDesc {
        let mut target = t();
        target.modes.push(record_isa::target::ModeDesc {
            name: "rnd".into(),
            set_asm: "SRND".into(),
            clear_asm: "RRND".into(),
            cost: record_isa::Cost::new(1, 1),
            default_on: true,
        });
        target
    }

    /// A target with ten modes, more than the mode state holds on the
    /// stack: tic25's `ovm` and nine more with alternating defaults.
    fn ten_mode_target() -> TargetDesc {
        let mut target = t();
        for k in 0..9 {
            target.modes.push(record_isa::target::ModeDesc {
                name: format!("m{k}"),
                set_asm: format!("SET{k}"),
                clear_asm: format!("CLR{k}"),
                cost: record_isa::Cost::new(1, 1),
                default_on: k % 2 == 0,
            });
        }
        target
    }

    /// A random structured block: requiring and plain instructions, RPT
    /// pairs, pre-existing mode changes and nested loops.
    fn gen_block(rng: &mut record_prop::Rng, depth: u32, modes: usize, out: &mut Vec<Insn>) {
        for _ in 0..rng.usize(6) {
            match rng.usize(if depth == 0 { 4 } else { 5 }) {
                0 => out.push(Insn::nop()),
                1 => {
                    out.push(Insn::ctrl(InsnKind::Rpt { count: 3 }, "RPTK 3", 1, 1));
                    let mut body = req(rng.bool());
                    body.mode_req = rng.bool().then(|| (rng.usize(modes), rng.bool()));
                    out.push(body);
                }
                2 => {
                    let (mode, on) = (rng.usize(modes), rng.bool());
                    out.push(Insn::ctrl(InsnKind::SetMode { mode, on }, "SET", 1, 1));
                }
                3 => {
                    let mut insn = req(rng.bool());
                    insn.mode_req = Some((rng.usize(modes), rng.bool()));
                    out.push(insn);
                }
                _ => {
                    out.push(Insn::ctrl(
                        InsnKind::LoopStart { var: record_ir::Symbol::new("i"), count: 4 },
                        "LOOP 4",
                        2,
                        2,
                    ));
                    gen_block(rng, depth - 1, modes, out);
                    out.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLOOP", 2, 3));
                }
            }
        }
    }

    /// Planned, moving insertion reproduces the cloning insertion it
    /// replaced: the same program and the same count, under both
    /// strategies, on one-, two- and ten-mode targets.
    #[test]
    fn planned_insertion_equals_the_cloning_reference() {
        let targets = [t(), two_mode_target(), ten_mode_target()];
        let (mut changed, mut untouched) = (0usize, 0usize);
        record_prop::run_cases(2000, |rng| {
            let target = &targets[rng.usize(targets.len())];
            let mut code = Code::default();
            gen_block(rng, 3, target.modes.len(), &mut code.insns);
            if rng.usize(8) == 0 {
                // a trailing RPT without a body
                code.insns.push(Insn::ctrl(InsnKind::Rpt { count: 2 }, "RPTK 2", 1, 1));
            }
            for strategy in [ModeStrategy::Lazy, ModeStrategy::PerUse] {
                let (mut planned, mut reference) = (code.clone(), code.clone());
                let n = insert_mode_changes(&mut planned, target, strategy);
                assert_eq!(n, reference_insert(&mut reference, target, strategy), "{strategy:?}");
                assert_eq!(planned, reference, "{strategy:?}");
                if n == 0 {
                    untouched += 1;
                } else {
                    changed += 1;
                }
            }
        });
        assert!(changed >= 1000 && untouched >= 100, "{changed} changed, {untouched} untouched");
    }
}
