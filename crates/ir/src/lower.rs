//! Lowering: parsed program → linear IR.
//!
//! Responsibilities:
//!
//! * evaluate `const` declarations and fold constant expressions that
//!   appear in array bounds, loop bounds and indexes (note: folding inside
//!   *value* expressions is NOT performed — the paper states RECORD has no
//!   standard optimizations; use [`fold`](crate::fold) explicitly if you
//!   want it),
//! * check that every name is declared, arrays are indexed and scalars are
//!   not, and index expressions fall in the `c` / `i + c` class,
//! * materialize delayed signals `x@k` as shadow scalars `x@k` that are
//!   shifted at the end of the program body (`x@2 := x@1; x@1 := x;`),
//! * rebase loop counters to zero.

use std::fmt;

use crate::dfl::ast::{BaseTy, Decl, Expr, ExprId, NameId, Program, Stmt, VarKind};
use crate::lir::{AssignStmt, Lir, LirItem, StorageKind, VarInfo};
use crate::{BinOp, Error, Index, MemRef, Symbol, TreeId, TreePool, UnOp};

/// Lowers a parsed program to the linear IR, building every tree into the
/// pool the returned [`Lir`] owns.
///
/// # Errors
///
/// Returns [`Error::Sema`] for undeclared names, bad indexing or
/// non-constant bounds, and [`Error::Lower`] for structural problems
/// (e.g. an empty loop range).
///
/// # Example
///
/// ```
/// let ast = record_ir::dfl::parse(
///     "program p; var x, y: fix; begin y := x@1 + x; end",
/// )?;
/// let lir = record_ir::lower::lower(&ast)?;
/// // the delay shadow is declared and updated at the end of the body
/// assert!(lir.var(&record_ir::Symbol::new("x@1")).is_some());
/// assert_eq!(lir.assign_count(), 2);
/// # Ok::<(), record_ir::Error>(())
/// ```
pub fn lower(program: &Program) -> Result<Lir, Error> {
    let mut lowerer = Lowerer::new(program)?;
    let body = lowerer.block(0, program.stmts.len())?;
    Ok(lowerer.finish(body))
}

/// What a name stands for: a constant, a variable, or both (a constant
/// may reuse the name of a variable declared before it, and then shadows
/// it in expressions).
#[derive(Clone, Default)]
struct Declared {
    value: Option<i64>,
    /// The variable's index in [`Lowerer::vars`].
    var: Option<u32>,
    /// The shadows `x@1`, `x@2`, … of a delayed signal, down to its
    /// deepest use: each is built once.
    shadows: Vec<Symbol>,
}

struct Lowerer<'p> {
    program: &'p Program,
    /// What each name declares, by name id.
    declared: Vec<Declared>,
    /// The declared variables, in declaration order.
    vars: Vec<VarInfo>,
    /// The loop counters in scope, innermost last, each with the lower
    /// bound that its zero-based counter must be displaced by when used
    /// in array indexes.
    loops: Vec<(NameId, i64)>,
    /// The program's trees.
    pool: TreePool,
    /// The source line of the statement being lowered.
    line: u32,
}

impl<'p> Lowerer<'p> {
    fn new(program: &'p Program) -> Result<Self, Error> {
        let mut me = Lowerer {
            program,
            declared: vec![Declared::default(); program.names.len()],
            vars: Vec::with_capacity(program.var_names.len()),
            loops: Vec::new(),
            pool: TreePool::new(),
            line: 0,
        };
        for decl in &program.decls {
            match decl {
                Decl::Const { name, value } => {
                    let v = me.eval_const(*value).ok_or_else(|| {
                        Error::sema(format!(
                            "constant `{}` is not compile-time evaluable",
                            me.sym(*name)
                        ))
                    })?;
                    if me.declared[name.0 as usize].value.replace(v).is_some() {
                        return Err(Error::sema(format!(
                            "constant `{}` declared twice",
                            me.sym(*name)
                        )));
                    }
                }
                Decl::Var(v) => {
                    let names = program.declared(v);
                    let listed = || {
                        names
                            .iter()
                            .map(|&n| program.symbol(n).as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    };
                    let len = match v.len {
                        None => 1,
                        Some(e) => {
                            let n = me.eval_const(e).ok_or_else(|| {
                                Error::sema(format!(
                                    "array length of `{}` is not constant",
                                    listed()
                                ))
                            })?;
                            if !(1..=1 << 20).contains(&n) {
                                return Err(Error::sema(format!(
                                    "array length {n} out of range for `{}`",
                                    listed()
                                )));
                            }
                            n as u32
                        }
                    };
                    let kind = match v.kind {
                        VarKind::Var => StorageKind::Var,
                        VarKind::In => StorageKind::In,
                        VarKind::Out => StorageKind::Out,
                    };
                    for &name in names {
                        let declared = &mut me.declared[name.0 as usize];
                        if declared.value.is_some() || declared.var.is_some() {
                            return Err(Error::sema(format!("`{}` declared twice", me.sym(name))));
                        }
                        declared.var = Some(me.vars.len() as u32);
                        me.vars.push(VarInfo {
                            name: program.symbol(name).clone(),
                            len,
                            kind,
                            bank: v.bank,
                            is_fix: v.ty == BaseTy::Fix,
                        });
                    }
                }
            }
        }
        Ok(me)
    }

    /// The symbol of name `id`.
    fn sym(&self, id: NameId) -> &'p Symbol {
        self.program.symbol(id)
    }

    /// Appends the delay-line maintenance to `body` and declares the
    /// delay shadows: for each delayed signal x with max delay D,
    /// `x@D := x@(D-1); ...; x@1 := x;` so that the *next* sample sees
    /// shifted history. This mirrors how DFL programs model one sample of
    /// a streaming computation.
    fn finish(mut self, mut body: Vec<LirItem>) -> Lir {
        let program = self.program;
        let mut delayed: Vec<usize> =
            (0..self.declared.len()).filter(|&n| !self.declared[n].shadows.is_empty()).collect();
        delayed.sort_by(|&a, &b| program.names[a].cmp(&program.names[b]));
        for &signal in &delayed {
            let declared = &mut self.declared[signal];
            let shadows = std::mem::take(&mut declared.shadows);
            let is_fix = declared.var.map_or(true, |v| self.vars[v as usize].is_fix);
            for d in (1..=shadows.len()).rev() {
                let read = if d == 1 { &program.names[signal] } else { &shadows[d - 2] };
                let src = self.pool.mem(MemRef::Scalar(read.clone()));
                let dst = MemRef::Scalar(shadows[d - 1].clone());
                body.push(LirItem::Assign(AssignStmt { dst, src }));
            }
            self.vars.extend(shadows.into_iter().map(|name| VarInfo {
                name,
                len: 1,
                kind: StorageKind::Var,
                bank: None,
                is_fix,
            }));
        }
        Lir { name: self.sym(program.name).clone(), vars: self.vars, body, pool: self.pool }
    }

    /// Lowers the statements `stmts[start..end]` of the program, one
    /// block: a loop's body is lowered with the loop.
    fn block(&mut self, start: usize, end: usize) -> Result<Vec<LirItem>, Error> {
        let mut body = Vec::new();
        let mut at = start;
        while at < end {
            body.push(self.stmt(at)?);
            at = match self.program.stmts[at] {
                Stmt::For { end, .. } => end as usize,
                Stmt::Assign { .. } => at + 1,
            };
        }
        Ok(body)
    }

    fn stmt(&mut self, at: usize) -> Result<LirItem, Error> {
        match self.program.stmts[at] {
            Stmt::Assign { dst, index, value, line } => {
                self.line = line;
                let dst = self.lvalue(dst, index)?;
                let src = self.expr(value, false)?;
                Ok(LirItem::Assign(AssignStmt { dst, src }))
            }
            Stmt::For { var, lo, hi, end, line } => {
                self.line = line;
                let lo_v = self
                    .eval_const(lo)
                    .ok_or_else(|| self.sema(format_args!("loop lower bound is not constant")))?;
                let hi_v = self
                    .eval_const(hi)
                    .ok_or_else(|| self.sema(format_args!("loop upper bound is not constant")))?;
                if hi_v < lo_v {
                    return Err(Error::lower(format!(
                        "line {line}: empty loop range {lo_v}..{hi_v}"
                    )));
                }
                let count = hi_v
                    .checked_sub(lo_v)
                    .and_then(|d| d.checked_add(1))
                    .and_then(|span| u32::try_from(span).ok())
                    .ok_or_else(|| {
                        Error::lower(format!(
                            "line {line}: loop range {lo_v}..{hi_v} has too many iterations"
                        ))
                    })?;
                let declared = &self.declared[var.0 as usize];
                if declared.value.is_some() || declared.var.is_some() {
                    let var = self.sym(var);
                    return Err(
                        self.sema(format_args!("loop variable `{var}` shadows a declaration"))
                    );
                }
                // While lowering the body, indexes `var + c` are rebased by
                // +lo_v, so a zero-based counter is correct.
                self.loops.push((var, lo_v));
                let body = self.block(at + 1, end as usize)?;
                self.loops.pop();
                Ok(LirItem::Loop { var: self.sym(var).clone(), count, body })
            }
        }
    }

    /// A semantic error in the statement being lowered, which starts on
    /// line [`Lowerer::line`].
    fn sema(&self, message: fmt::Arguments<'_>) -> Error {
        Error::sema(format!("line {}: {message}", self.line))
    }

    fn lvalue(&mut self, name: NameId, index: Option<ExprId>) -> Result<MemRef, Error> {
        let len = self.lookup_var(name)?.len;
        let sym = self.sym(name);
        match index {
            None if len != 1 => {
                Err(self.sema(format_args!("array `{sym}` assigned without an index")))
            }
            None => Ok(MemRef::Scalar(sym.clone())),
            Some(idx) => {
                Ok(MemRef::Array { base: sym.clone(), index: self.index(name, len, idx)? })
            }
        }
    }

    /// Lowers `e` into the pool. Inside `sat(…)` (`sat` set) every
    /// wrap-around addition and subtraction becomes its saturating
    /// counterpart: `sat(e)` means "evaluate e with saturating
    /// arithmetic", the semantics of a DSP's overflow mode, so the
    /// wrapper itself leaves no node (sat(wrap(a+b)) would be a
    /// different, useless operation).
    fn expr(&mut self, e: ExprId, sat: bool) -> Result<TreeId, Error> {
        match self.program.expr(e) {
            Expr::Num(n) => Ok(self.pool.constant(n)),
            Expr::Name(name) => {
                if let Some(v) = self.declared[name.0 as usize].value {
                    return Ok(self.pool.constant(v));
                }
                let sym = self.sym(name);
                if self.loops.iter().any(|&(counter, _)| counter == name) {
                    return Err(self.sema(format_args!(
                        "loop counter `{sym}` may only be used as an array index"
                    )));
                }
                if self.lookup_var(name)?.len != 1 {
                    return Err(self.sema(format_args!("array `{sym}` used without an index")));
                }
                Ok(self.pool.mem(MemRef::Scalar(sym.clone())))
            }
            Expr::Elem(name, idx) => {
                let len = self.lookup_var(name)?.len;
                let index = self.index(name, len, idx)?;
                Ok(self.pool.mem(MemRef::Array { base: self.sym(name).clone(), index }))
            }
            Expr::Delay(name, k) => {
                let sym = self.sym(name);
                if self.lookup_var(name)?.len != 1 {
                    return Err(self.sema(format_args!("delay applied to array `{sym}`")));
                }
                // each delay step materializes one history cell; an absurd
                // depth would be an OOM, not a program
                if k > 1 << 20 {
                    return Err(self.sema(format_args!("delay depth {k} of `{sym}` out of range")));
                }
                let shadows = &mut self.declared[name.0 as usize].shadows;
                while shadows.len() < k as usize {
                    shadows.push(Symbol::new(format!("{sym}@{}", shadows.len() + 1)));
                }
                let shadow = shadows[k as usize - 1].clone();
                Ok(self.pool.mem(MemRef::Scalar(shadow)))
            }
            Expr::Bin(op, a, b) => {
                let ta = self.expr(a, sat)?;
                let tb = self.expr(b, sat)?;
                let op = match op {
                    BinOp::Add if sat => BinOp::SatAdd,
                    BinOp::Sub if sat => BinOp::SatSub,
                    other => other,
                };
                Ok(self.pool.bin(op, ta, tb))
            }
            Expr::Un(UnOp::Sat, a) => self.expr(a, true),
            Expr::Un(op, a) => {
                let ta = self.expr(a, sat)?;
                Ok(self.pool.un(op, ta))
            }
        }
    }

    /// Lowers the index `idx` of array `name`, `len` words long (a scalar
    /// if 1), into the `c` / `i + c` class, applying the loop rebase and
    /// checking constant indexes against the bound.
    fn index(&self, name: NameId, len: u32, idx: ExprId) -> Result<Index, Error> {
        let array = self.sym(name);
        if len == 1 {
            return Err(self.sema(format_args!("scalar `{array}` indexed like an array")));
        }
        if let Some(c) = self.eval_const(idx) {
            if c < 0 || c >= len as i64 {
                return Err(self.sema(format_args!("index {c} out of bounds for `{array}[{len}]`")));
            }
            return Ok(Index::Const(c));
        }
        // i, i + c, i - c, c + i, or the descending c - i, with `i` a loop
        // counter in scope
        let (var, offset, down) = self.split_affine(idx).ok_or_else(|| {
            self.sema(format_args!(
                "index of `{array}` must be constant, `i ± c`, or `c - i` with a loop counter"
            ))
        })?;
        let base = self.loops.iter().rev().find(|&&(counter, _)| counter == var).map_or(0, |l| l.1);
        let range = || self.sema(format_args!("index offset of `{array}` overflows 64 bits"));
        let var = self.sym(var).clone();
        if down {
            // actual counter = i0 + base, so  offset - i  =  (offset - base) - i0
            let offset = offset.checked_sub(base).ok_or_else(range)?;
            if offset < 0 || offset >= len as i64 {
                return Err(self.sema(format_args!(
                    "descending index starts at {offset}, outside `{array}[{len}]`"
                )));
            }
            Ok(Index::RevVar { var, offset })
        } else {
            Ok(Index::Var { var, offset: offset.checked_add(base).ok_or_else(range)? })
        }
    }

    /// Splits `i`, `i + c`, `i - c`, `c + i` into (counter, c, false) and
    /// the descending `c - i` into (counter, c, true).
    fn split_affine(&self, e: ExprId) -> Option<(NameId, i64, bool)> {
        let counter = |name: NameId| self.loops.iter().any(|&(c, _)| c == name).then_some(name);
        let program = self.program;
        match program.expr(e) {
            Expr::Name(n) => counter(n).map(|s| (s, 0, false)),
            Expr::Bin(op @ (BinOp::Add | BinOp::Sub), lhs, rhs) => {
                match (program.expr(lhs), program.expr(rhs)) {
                    (Expr::Name(n), _) => {
                        let c = self.eval_const(rhs)?;
                        let c = if op == BinOp::Sub { c.checked_neg()? } else { c };
                        counter(n).map(|s| (s, c, false))
                    }
                    (_, Expr::Name(n)) => {
                        let c = self.eval_const(lhs)?;
                        counter(n).map(|s| (s, c, op == BinOp::Sub))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// The variable `name` declares; an error if it declares none.
    fn lookup_var(&self, name: NameId) -> Result<&VarInfo, Error> {
        let var = self.declared[name.0 as usize].var;
        var.map(|ix| &self.vars[ix as usize])
            .ok_or_else(|| self.sema(format_args!("`{}` is not declared", self.sym(name))))
    }

    /// Evaluates an expression if it only involves literals and constants.
    fn eval_const(&self, e: ExprId) -> Option<i64> {
        match self.program.expr(e) {
            Expr::Num(n) => Some(n),
            Expr::Name(n) => self.declared[n.0 as usize].value,
            Expr::Bin(op, a, b) => Some(op.eval(self.eval_const(a)?, self.eval_const(b)?, 64)),
            Expr::Un(op, a) => Some(op.eval(self.eval_const(a)?, 64)),
            Expr::Elem(..) | Expr::Delay(..) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfl;

    fn lower_src(src: &str) -> Lir {
        lower(&dfl::parse(src).unwrap()).unwrap()
    }

    fn lower_err(src: &str) -> Error {
        lower(&dfl::parse(src).unwrap()).unwrap_err()
    }

    #[test]
    fn rejects_oversized_loop_ranges() {
        // regression: `(hi - lo + 1) as u32` used to wrap silently for
        // ranges wider than u32::MAX
        let e = lower_err(
            "program p; var y: fix;
             begin for i in 0..5000000000 loop y := y; end loop; end",
        );
        assert!(e.to_string().contains("too many iterations"), "{e}");
    }

    #[test]
    fn lowers_simple_assignment() {
        let l = lower_src("program p; var a, y: fix; begin y := a + 1; end");
        assert_eq!(l.assign_count(), 1);
        assert_eq!(l.body.len(), 1);
    }

    #[test]
    fn folds_constants_in_bounds_but_not_values() {
        let l = lower_src(
            "program p; const N = 3; var a: fix[N+1]; var y: fix;
             begin y := N + 0; end",
        );
        assert_eq!(l.var(&Symbol::new("a")).unwrap().len, 4);
        // N is folded (it is a constant reference), but `+ 0` survives:
        // RECORD performs no algebraic simplification by default.
        match &l.body[0] {
            LirItem::Assign(a) => assert_eq!(l.pool.display(a.src).to_string(), "(3 + 0)"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rebases_loop_counters() {
        let l = lower_src(
            "program p; var a: fix[8]; var y: fix;
             begin for i in 2..5 loop y := y + a[i]; end loop; end",
        );
        match &l.body[0] {
            LirItem::Loop { count, body, .. } => {
                assert_eq!(*count, 4);
                match &body[0] {
                    LirItem::Assign(a) => {
                        assert_eq!(l.pool.display(a.src).to_string(), "(y + a[i+2])");
                    }
                    other => panic!("unexpected: {other:?}"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn materializes_delays() {
        let l = lower_src("program p; var x, y: fix; begin y := x@2 + x; end");
        assert!(l.var(&Symbol::new("x@1")).is_some());
        assert!(l.var(&Symbol::new("x@2")).is_some());
        // one user assignment + two shift assignments
        assert_eq!(l.assign_count(), 3);
        // the last shift is x@1 := x
        match l.body.last().unwrap() {
            LirItem::Assign(a) => assert_eq!(a.display(&l.pool).to_string(), "x@1 := x"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// The error lowering reports for the statements `stmts`, which sit
    /// on line 3 of a program declaring the scalars `x` and `y` and the
    /// array `a[4]`.
    fn line_3_error(stmts: &str) -> String {
        let src =
            format!("program p; const N = 4;\nvar x, y: fix; var a: fix[N];\nbegin {stmts} end");
        lower_err(&src).to_string()
    }

    #[test]
    fn rejects_out_of_bounds_constant_index() {
        for stmt in ["y := a[5];", "a[5] := y;", "a[0] := a[N + 1];"] {
            let want = "semantic error: line 3: index 5 out of bounds for `a[4]`";
            assert_eq!(line_3_error(stmt), want, "{stmt}");
        }
    }

    #[test]
    fn rejects_undeclared() {
        for stmt in ["y := q;", "q := y;", "y := q[0];", "y := x + q@1;"] {
            assert_eq!(line_3_error(stmt), "semantic error: line 3: `q` is not declared", "{stmt}");
        }
    }

    #[test]
    fn rejects_scalar_indexing() {
        for stmt in ["y := x[0];", "x[0] := y;"] {
            let want = "semantic error: line 3: scalar `x` indexed like an array";
            assert_eq!(line_3_error(stmt), want, "{stmt}");
        }
    }

    #[test]
    fn rejects_array_without_index() {
        let want = "semantic error: line 3: array `a` used without an index";
        assert_eq!(line_3_error("y := a;"), want);
        let want = "semantic error: line 3: array `a` assigned without an index";
        assert_eq!(line_3_error("a := y;"), want);
    }

    #[test]
    fn rejects_nonaffine_index() {
        let want = "semantic error: line 3: index of `a` must be constant, `i ± c`, or `c - i` \
                    with a loop counter";
        for stmt in ["y := a[y];", "for i in 0..3 loop y := a[i*2]; end loop;"] {
            assert_eq!(line_3_error(stmt), want, "{stmt}");
        }
    }

    #[test]
    fn rejects_loop_counter_as_value() {
        let want = "semantic error: line 3: loop counter `i` may only be used as an array index";
        assert_eq!(line_3_error("for i in 0..3 loop y := i; end loop;"), want);
    }

    #[test]
    fn rejects_delays_of_arrays_and_absurd_depths() {
        let want = "semantic error: line 3: delay applied to array `a`";
        assert_eq!(line_3_error("y := a@1;"), want);
        let want = "semantic error: line 3: delay depth 2000000 of `x` out of range";
        assert_eq!(line_3_error("y := x@2000000;"), want);
    }

    #[test]
    fn an_error_names_the_line_of_its_own_statement() {
        let e =
            lower_err("program p; var a: fix[4]; var y: fix;\nbegin\ny := 1;\n\ny := a[9]; end");
        assert_eq!(e.to_string(), "semantic error: line 5: index 9 out of bounds for `a[4]`");
    }

    #[test]
    fn rejects_empty_range() {
        let e = lower_err("program p; var y: fix; begin for i in 3..1 loop y := 0; end loop; end");
        assert!(matches!(e, Error::Lower { .. }));
    }

    #[test]
    fn sat_rewrites_inner_additions() {
        let l = lower_src("program p; var a, b, y: fix; begin y := sat(a + b * a); end");
        match &l.body[0] {
            LirItem::Assign(a) => assert_eq!(l.pool.display(a.src).to_string(), "(a +s (b * a))"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn sadd_intrinsic_lowers_directly() {
        let l = lower_src("program p; var a, b, y: fix; begin y := sadd(a, b); end");
        match &l.body[0] {
            LirItem::Assign(a) => assert_eq!(l.pool.display(a.src).to_string(), "(a +s b)"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn nested_loop_indexes() {
        let l = lower_src(
            "program p; var a: fix[16]; var y: fix;
             begin
               for i in 0..3 loop
                 for j in 1..2 loop
                   y := y + a[j];
                 end loop;
               end loop;
             end",
        );
        match &l.body[0] {
            LirItem::Loop { body, .. } => match &body[0] {
                LirItem::Loop { count, body, .. } => {
                    assert_eq!(*count, 2);
                    match &body[0] {
                        LirItem::Assign(a) => {
                            assert_eq!(l.pool.display(a.src).to_string(), "(y + a[j+1])")
                        }
                        other => panic!("unexpected: {other:?}"),
                    }
                }
                other => panic!("unexpected: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }
}
