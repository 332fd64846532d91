//! Lowering: AST → linear IR.
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

use crate::dfl::ast::{BaseTy, Decl, Expr, LValue, Program, Stmt, VarKind};
use crate::hash::FoldMap;
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
    Lowerer::new(program)?.run(program)
}

/// What a declared name stands for: a constant, a variable, or both (a
/// constant may reuse the name of a variable declared before it, and
/// then shadows it in expressions).
#[derive(Default)]
struct Declared {
    value: Option<i64>,
    /// The variable's index in [`Lowerer::vars`].
    var: Option<usize>,
}

struct Lowerer {
    /// Every declared name, looked up once per use.
    names: FoldMap<Symbol, Declared>,
    /// The declared variables, in declaration order.
    vars: Vec<VarInfo>,
    /// (signal, max delay) pairs for `x@k` uses.
    delays: FoldMap<Symbol, u32>,
    /// The shadow symbol `x@k` of each delayed signal and depth met.
    delay_syms: FoldMap<(Symbol, u32), Symbol>,
    /// The loop counters in scope, innermost last, each with the lower
    /// bound that its zero-based counter must be displaced by when used
    /// in array indexes.
    loops: Vec<(Symbol, i64)>,
    /// The program's trees.
    pool: TreePool,
}

impl Lowerer {
    fn new(program: &Program) -> Result<Self, Error> {
        let mut me = Lowerer {
            names: FoldMap::with_capacity_and_hasher(program.decls.len() * 2, Default::default()),
            vars: Vec::new(),
            delays: FoldMap::default(),
            delay_syms: FoldMap::default(),
            loops: Vec::new(),
            pool: TreePool::new(),
        };
        let names = |v: &crate::dfl::ast::VarDecl| {
            v.names.iter().map(Symbol::as_str).collect::<Vec<_>>().join(", ")
        };
        for decl in &program.decls {
            match decl {
                Decl::Const { name, value } => {
                    let v = me.eval_const(value).ok_or_else(|| {
                        Error::sema(format!("constant `{name}` is not compile-time evaluable"))
                    })?;
                    let declared = me.names.entry(name.clone()).or_default();
                    if declared.value.replace(v).is_some() {
                        return Err(Error::sema(format!("constant `{name}` declared twice")));
                    }
                }
                Decl::Var(v) => {
                    let len = match &v.len {
                        None => 1,
                        Some(e) => {
                            let n = me.eval_const(e).ok_or_else(|| {
                                Error::sema(format!(
                                    "array length of `{}` is not constant",
                                    names(v)
                                ))
                            })?;
                            if !(1..=1 << 20).contains(&n) {
                                return Err(Error::sema(format!(
                                    "array length {n} out of range for `{}`",
                                    names(v)
                                )));
                            }
                            n as u32
                        }
                    };
                    for name in &v.names {
                        let declared = me.names.entry(name.clone()).or_default();
                        if declared.value.is_some() || declared.var.is_some() {
                            return Err(Error::sema(format!("`{name}` declared twice")));
                        }
                        declared.var = Some(me.vars.len());
                        me.vars.push(VarInfo {
                            name: name.clone(),
                            len,
                            kind: match v.kind {
                                VarKind::Var => StorageKind::Var,
                                VarKind::In => StorageKind::In,
                                VarKind::Out => StorageKind::Out,
                            },
                            bank: v.bank,
                            is_fix: v.ty == BaseTy::Fix,
                        });
                    }
                }
            }
        }
        Ok(me)
    }

    fn run(mut self, program: &Program) -> Result<Lir, Error> {
        let mut body = Vec::with_capacity(program.body.len());
        for stmt in &program.body {
            body.push(self.stmt(stmt)?);
        }

        // Delay-line maintenance: for each delayed signal x with max delay
        // D, append `x@D := x@(D-1); ...; x@1 := x;` so that the *next*
        // sample sees shifted history. This mirrors how DFL programs model
        // one sample of a streaming computation.
        let mut delayed: Vec<(Symbol, u32)> =
            self.delays.iter().map(|(k, v)| (k.clone(), *v)).collect();
        delayed.sort();
        for (signal, max_d) in &delayed {
            for d in (1..=*max_d).rev() {
                let dst = MemRef::Scalar(self.delay_symbol(signal, d));
                let read = if d == 1 { signal.clone() } else { self.delay_symbol(signal, d - 1) };
                let src = self.pool.mem(MemRef::Scalar(read));
                body.push(LirItem::Assign(AssignStmt { dst, src }));
            }
        }

        let mut vars = std::mem::take(&mut self.vars);
        for (signal, max_d) in &delayed {
            let is_fix =
                self.names.get(signal).and_then(|d| d.var).map_or(true, |v| vars[v].is_fix);
            for d in 1..=*max_d {
                vars.push(VarInfo {
                    name: self.delay_symbol(signal, d),
                    len: 1,
                    kind: StorageKind::Var,
                    bank: None,
                    is_fix,
                });
            }
        }

        Ok(Lir { name: program.name.clone(), vars, body, pool: self.pool })
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<LirItem, Error> {
        match stmt {
            Stmt::Assign { dst, value, line } => {
                let dst = self.lvalue(dst, *line)?;
                let src = self.expr(value, false)?;
                Ok(LirItem::Assign(AssignStmt { dst, src }))
            }
            Stmt::For { var, lo, hi, body, line } => {
                let lo_v = self.eval_const(lo).ok_or_else(|| {
                    Error::sema(format!("line {line}: loop lower bound is not constant"))
                })?;
                let hi_v = self.eval_const(hi).ok_or_else(|| {
                    Error::sema(format!("line {line}: loop upper bound is not constant"))
                })?;
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
                if self.names.contains_key(var) {
                    return Err(Error::sema(format!(
                        "line {line}: loop variable `{var}` shadows a declaration"
                    )));
                }
                // While lowering the body, indexes `var + c` are rebased by
                // +lo_v, so a zero-based counter is correct.
                self.loops.push((var.clone(), lo_v));
                let mut items = Vec::with_capacity(body.len());
                for s in body {
                    items.push(self.stmt(s)?);
                }
                self.loops.pop();
                Ok(LirItem::Loop { var: var.clone(), count, body: items })
            }
        }
    }

    fn lvalue(&mut self, lv: &LValue, line: u32) -> Result<MemRef, Error> {
        match lv {
            LValue::Scalar(name) => {
                let v = self.lookup_var(name, line)?;
                if v.len != 1 {
                    return Err(Error::sema(format!(
                        "line {line}: array `{name}` assigned without an index"
                    )));
                }
                Ok(MemRef::Scalar(name.clone()))
            }
            LValue::Elem(name, idx) => {
                let len = {
                    let v = self.lookup_var(name, line)?;
                    if v.len == 1 {
                        return Err(Error::sema(format!(
                            "line {line}: scalar `{name}` indexed like an array"
                        )));
                    }
                    v.len
                };
                let index = self.index(idx, name, len, line)?;
                Ok(MemRef::Array { base: name.clone(), index })
            }
        }
    }

    /// Lowers `e` into the pool. Inside `sat(…)` (`sat` set) every
    /// wrap-around addition and subtraction becomes its saturating
    /// counterpart: `sat(e)` means "evaluate e with saturating
    /// arithmetic", the semantics of a DSP's overflow mode, so the
    /// wrapper itself leaves no node (sat(wrap(a+b)) would be a
    /// different, useless operation).
    fn expr(&mut self, e: &Expr, sat: bool) -> Result<TreeId, Error> {
        match e {
            Expr::Num(n) => Ok(self.pool.constant(*n)),
            Expr::Name(name) => {
                let declared = self.names.get(name);
                if let Some(v) = declared.and_then(|d| d.value) {
                    return Ok(self.pool.constant(v));
                }
                if self.loops.iter().any(|(counter, _)| counter == name) {
                    return Err(Error::sema(format!(
                        "loop counter `{name}` may only be used as an array index"
                    )));
                }
                let v = self.declared_var(declared, name, 0)?;
                if v.len != 1 {
                    return Err(Error::sema(format!("array `{name}` used without an index")));
                }
                Ok(self.pool.mem(MemRef::Scalar(name.clone())))
            }
            Expr::Elem(name, idx) => {
                let len = {
                    let v = self.lookup_var(name, 0)?;
                    if v.len == 1 {
                        return Err(Error::sema(format!("scalar `{name}` indexed like an array")));
                    }
                    v.len
                };
                let index = self.index(idx, name, len, 0)?;
                Ok(self.pool.mem(MemRef::Array { base: name.clone(), index }))
            }
            Expr::Delay(name, k) => {
                let v = self.lookup_var(name, 0)?;
                if v.len != 1 {
                    return Err(Error::sema(format!("delay applied to array `{name}`")));
                }
                // each delay step materializes one history cell; an absurd
                // depth would be an OOM, not a program
                if *k > 1 << 20 {
                    return Err(Error::sema(format!("delay depth {k} of `{name}` out of range")));
                }
                let entry = self.delays.entry(name.clone()).or_insert(0);
                *entry = (*entry).max(*k);
                let shadow = self.delay_symbol(name, *k);
                Ok(self.pool.mem(MemRef::Scalar(shadow)))
            }
            Expr::Bin(op, operands) => {
                let [a, b] = &**operands;
                let ta = self.expr(a, sat)?;
                let tb = self.expr(b, sat)?;
                let op = match op {
                    BinOp::Add if sat => BinOp::SatAdd,
                    BinOp::Sub if sat => BinOp::SatSub,
                    other => *other,
                };
                Ok(self.pool.bin(op, ta, tb))
            }
            Expr::Un(UnOp::Sat, a) => self.expr(a, true),
            Expr::Un(op, a) => {
                let ta = self.expr(a, sat)?;
                Ok(self.pool.un(*op, ta))
            }
        }
    }

    /// The shadow symbol `signal@k` that holds `signal` delayed by `k`.
    fn delay_symbol(&mut self, signal: &Symbol, k: u32) -> Symbol {
        self.delay_syms
            .entry((signal.clone(), k))
            .or_insert_with(|| Symbol::new(format!("{signal}@{k}")))
            .clone()
    }

    /// Lowers an index expression into the `c` / `i + c` class, applying
    /// the loop rebase and checking constant indexes against the bound.
    fn index(&mut self, idx: &Expr, array: &Symbol, len: u32, line: u32) -> Result<Index, Error> {
        if let Some(c) = self.eval_const(idx) {
            if c < 0 || c >= len as i64 {
                return Err(Error::sema(format!(
                    "line {line}: index {c} out of bounds for `{array}[{len}]`"
                )));
            }
            return Ok(Index::Const(c));
        }
        // i, i + c, i - c, c + i, or the descending c - i, with `i` a loop
        // counter in scope
        let (var, offset, down) = self.split_affine(idx).ok_or_else(|| {
            Error::sema(format!(
                "line {line}: index of `{array}` must be constant, `i ± c`, or `c - i` \
                 with a loop counter"
            ))
        })?;
        let base = self.loops.iter().rev().find(|(counter, _)| *counter == var).map_or(0, |l| l.1);
        let range =
            || Error::sema(format!("line {line}: index offset of `{array}` overflows 64 bits"));
        if down {
            // actual counter = i0 + base, so  offset - i  =  (offset - base) - i0
            let offset = offset.checked_sub(base).ok_or_else(range)?;
            if offset < 0 || offset >= len as i64 {
                return Err(Error::sema(format!(
                    "line {line}: descending index starts at {offset}, outside `{array}[{len}]`"
                )));
            }
            Ok(Index::RevVar { var, offset })
        } else {
            Ok(Index::Var { var, offset: offset.checked_add(base).ok_or_else(range)? })
        }
    }

    /// Splits `i`, `i + c`, `i - c`, `c + i` into (counter, c, false) and
    /// the descending `c - i` into (counter, c, true).
    fn split_affine(&self, e: &Expr) -> Option<(Symbol, i64, bool)> {
        let counter = |name: &Symbol| -> Option<Symbol> {
            self.loops.iter().find(|(counter, _)| counter == name).map(|l| l.0.clone())
        };
        match e {
            Expr::Name(n) => counter(n).map(|s| (s, 0, false)),
            Expr::Bin(BinOp::Add, operands) => match &**operands {
                [Expr::Name(n), rhs] => {
                    let c = self.eval_const(rhs)?;
                    counter(n).map(|s| (s, c, false))
                }
                [lhs, Expr::Name(n)] => {
                    let c = self.eval_const(lhs)?;
                    counter(n).map(|s| (s, c, false))
                }
                _ => None,
            },
            Expr::Bin(BinOp::Sub, operands) => match &**operands {
                [Expr::Name(n), rhs] => {
                    let c = self.eval_const(rhs)?.checked_neg()?;
                    counter(n).map(|s| (s, c, false))
                }
                [lhs, Expr::Name(n)] => {
                    let c = self.eval_const(lhs)?;
                    counter(n).map(|s| (s, c, true))
                }
                _ => None,
            },
            _ => None,
        }
    }

    fn lookup_var(&self, name: &Symbol, line: u32) -> Result<&VarInfo, Error> {
        self.declared_var(self.names.get(name), name, line)
    }

    /// The variable of `declared`, what `name` declares; an error naming
    /// `line` (when known) if it declares none.
    fn declared_var(
        &self,
        declared: Option<&Declared>,
        name: &Symbol,
        line: u32,
    ) -> Result<&VarInfo, Error> {
        declared.and_then(|d| d.var).map(|ix| &self.vars[ix]).ok_or_else(|| {
            if line > 0 {
                Error::sema(format!("line {line}: `{name}` is not declared"))
            } else {
                Error::sema(format!("`{name}` is not declared"))
            }
        })
    }

    /// Evaluates an expression if it only involves literals and constants.
    fn eval_const(&self, e: &Expr) -> Option<i64> {
        match e {
            Expr::Num(n) => Some(*n),
            Expr::Name(n) => self.names.get(n).and_then(|d| d.value),
            Expr::Bin(op, operands) => {
                let va = self.eval_const(&operands[0])?;
                let vb = self.eval_const(&operands[1])?;
                Some(op.eval(va, vb, 64))
            }
            Expr::Un(op, a) => {
                let va = self.eval_const(a)?;
                Some(op.eval(va, 64))
            }
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

    #[test]
    fn rejects_out_of_bounds_constant_index() {
        let e = lower_err("program p; var a: fix[4]; var y: fix; begin y := a[4]; end");
        assert!(e.to_string().contains("out of bounds"));
    }

    #[test]
    fn rejects_undeclared() {
        let e = lower_err("program p; var y: fix; begin y := q; end");
        assert!(e.to_string().contains("not declared"));
    }

    #[test]
    fn rejects_scalar_indexing() {
        let e = lower_err("program p; var y, z: fix; begin y := z[0]; end");
        assert!(e.to_string().contains("indexed like an array"));
    }

    #[test]
    fn rejects_array_without_index() {
        let e = lower_err("program p; var a: fix[4]; var y: fix; begin y := a; end");
        assert!(e.to_string().contains("without an index"));
    }

    #[test]
    fn rejects_nonaffine_index() {
        let e = lower_err(
            "program p; var a: fix[4]; var y: fix;
             begin for i in 0..3 loop y := a[i*2]; end loop; end",
        );
        assert!(e.to_string().contains("must be constant"));
    }

    #[test]
    fn rejects_loop_counter_as_value() {
        let e = lower_err(
            "program p; var y: fix;
             begin for i in 0..3 loop y := i; end loop; end",
        );
        assert!(e.to_string().contains("array index"));
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
