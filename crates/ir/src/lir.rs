//! The linear IR: what lowering produces and the back end consumes.
//!
//! A [`Lir`] is a structured list of assignments and counted loops,
//! together with the program's storage declarations and the [`TreePool`]
//! every right-hand side lives in. All constants are folded into loop
//! counts and array bounds; delayed signals have been materialized as
//! shadow variables.

use std::fmt;

use crate::{Bank, MemRef, Symbol, Tree, TreeId, TreePool};

/// The storage role of a variable (mirrors the `var`/`in`/`out` keywords).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StorageKind {
    /// Ordinary working storage.
    Var,
    /// Input: initialized by the environment.
    In,
    /// Output: observed by the environment.
    Out,
}

/// A lowered variable: name, element count and placement hints.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VarInfo {
    /// The variable name.
    pub name: Symbol,
    /// Number of words (1 for scalars).
    pub len: u32,
    /// Storage role.
    pub kind: StorageKind,
    /// Bank placement hint from the source, if any.
    pub bank: Option<Bank>,
    /// `true` if the variable holds fixed-point signal data (eligible for
    /// saturating arithmetic), `false` for control integers.
    pub is_fix: bool,
}

/// One assignment statement: `dst := src`.
///
/// The value tree is an id into a [`TreePool`], the pool of the program
/// the statement belongs to; two statements are equal when they store to
/// the same place the same tree of one pool.
#[derive(Clone, PartialEq, Debug)]
pub struct AssignStmt {
    /// The destination location.
    pub dst: MemRef,
    /// The value tree, in the program's pool.
    pub src: TreeId,
}

impl AssignStmt {
    /// `dst := src`, with the boxed `src` interned into `pool` (a builder
    /// for tests and for programs assembled by hand).
    pub fn new(pool: &mut TreePool, dst: MemRef, src: &Tree) -> Self {
        AssignStmt { dst, src: pool.intern(src) }
    }

    /// The statement printed through `pool`, the pool its tree lives in:
    /// `y := (a + b)`.
    pub fn display<'a>(&'a self, pool: &'a TreePool) -> impl fmt::Display + 'a {
        StmtDisplay { stmt: self, pool }
    }
}

/// An [`AssignStmt`] printed through its pool.
struct StmtDisplay<'a> {
    stmt: &'a AssignStmt,
    pool: &'a TreePool,
}

impl fmt::Display for StmtDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} := {}", self.stmt.dst, self.pool.display(self.stmt.src))
    }
}

/// An element of the linear IR.
#[derive(Clone, PartialEq, Debug)]
pub enum LirItem {
    /// A single assignment.
    Assign(AssignStmt),
    /// A counted loop. The induction variable runs `0..count`; array
    /// indexes inside the body have already been rebased so a zero-based
    /// counter is always correct.
    Loop {
        /// Induction variable.
        var: Symbol,
        /// Trip count (≥ 1 after lowering; empty loops are dropped).
        count: u32,
        /// Loop body.
        body: Vec<LirItem>,
    },
}

impl LirItem {
    /// Counts assignments in this item, recursively (each loop body counted
    /// once, not per iteration).
    pub fn assign_count(&self) -> usize {
        match self {
            LirItem::Assign(_) => 1,
            LirItem::Loop { body, .. } => body.iter().map(|i| i.assign_count()).sum(),
        }
    }

    /// Visits every assignment in this item, recursively.
    pub fn for_each_assign(&self, f: &mut impl FnMut(&AssignStmt)) {
        match self {
            LirItem::Assign(a) => f(a),
            LirItem::Loop { body, .. } => {
                for item in body {
                    item.for_each_assign(f);
                }
            }
        }
    }
}

/// A lowered program.
///
/// Two programs are equal when their names, declarations and bodies are,
/// each statement's tree compared by structure: the pools may number
/// their nodes differently, and hold nodes no statement reaches.
#[derive(Clone, Debug)]
pub struct Lir {
    /// Program name.
    pub name: Symbol,
    /// All storage, in declaration order (including compiler-generated
    /// delay-line shadows and temporaries added later by `treeify`).
    pub vars: Vec<VarInfo>,
    /// The program body.
    pub body: Vec<LirItem>,
    /// Every tree of the program. Passes only add nodes to it, so the ids
    /// in `body` stay valid while the body is rewritten.
    pub pool: TreePool,
}

impl PartialEq for Lir {
    fn eq(&self, other: &Lir) -> bool {
        fn items(a: &[LirItem], pa: &TreePool, b: &[LirItem], pb: &TreePool) -> bool {
            a.len() == b.len()
                && a.iter().zip(b).all(|pair| match pair {
                    (LirItem::Assign(x), LirItem::Assign(y)) => {
                        x.dst == y.dst && pa.same_tree(x.src, pb, y.src)
                    }
                    (
                        LirItem::Loop { var, count, body },
                        LirItem::Loop { var: var2, count: count2, body: body2 },
                    ) => var == var2 && count == count2 && items(body, pa, body2, pb),
                    _ => false,
                })
        }
        self.name == other.name
            && self.vars == other.vars
            && items(&self.body, &self.pool, &other.body, &other.pool)
    }
}

impl Lir {
    /// Finds a variable's declaration by name.
    pub fn var(&self, name: &Symbol) -> Option<&VarInfo> {
        self.vars.iter().find(|v| &v.name == name)
    }

    /// Total data words declared.
    pub fn data_words(&self) -> u32 {
        self.vars.iter().map(|v| v.len).sum()
    }

    /// Total number of assignments (loop bodies counted once).
    pub fn assign_count(&self) -> usize {
        self.body.iter().map(|i| i.assign_count()).sum()
    }

    /// Visits every assignment in the program, recursively.
    pub fn for_each_assign(&self, mut f: impl FnMut(&AssignStmt)) {
        for item in &self.body {
            item.for_each_assign(&mut f);
        }
    }

    /// Registers an extra (compiler-generated) scalar variable if it is not
    /// already declared, and returns its name.
    pub fn ensure_scalar(&mut self, name: Symbol, is_fix: bool) -> Symbol {
        if self.var(&name).is_none() {
            self.vars.push(VarInfo {
                name: name.clone(),
                len: 1,
                kind: StorageKind::Var,
                bank: None,
                is_fix,
            });
        }
        name
    }
}

impl fmt::Display for Lir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {}:", self.name)?;
        fn item(
            f: &mut fmt::Formatter<'_>,
            pool: &TreePool,
            it: &LirItem,
            depth: usize,
        ) -> fmt::Result {
            let pad = "  ".repeat(depth);
            match it {
                LirItem::Assign(a) => writeln!(f, "{pad}{}", a.display(pool)),
                LirItem::Loop { var, count, body } => {
                    writeln!(f, "{pad}loop {var} x{count}:")?;
                    for b in body {
                        item(f, pool, b, depth + 1)?;
                    }
                    Ok(())
                }
            }
        }
        for it in &self.body {
            item(f, &self.pool, it, 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, Index};

    fn small() -> Lir {
        let mut pool = TreePool::new();
        let zero = AssignStmt::new(&mut pool, MemRef::scalar("y"), &Tree::constant(0));
        let sum = AssignStmt::new(
            &mut pool,
            MemRef::scalar("y"),
            &Tree::bin(BinOp::Add, Tree::var("y"), Tree::elem("a", Index::var("i"))),
        );
        Lir {
            name: Symbol::new("p"),
            vars: vec![
                VarInfo {
                    name: Symbol::new("a"),
                    len: 4,
                    kind: StorageKind::In,
                    bank: None,
                    is_fix: true,
                },
                VarInfo {
                    name: Symbol::new("y"),
                    len: 1,
                    kind: StorageKind::Out,
                    bank: None,
                    is_fix: true,
                },
            ],
            body: vec![
                LirItem::Assign(zero),
                LirItem::Loop { var: Symbol::new("i"), count: 4, body: vec![LirItem::Assign(sum)] },
            ],
            pool,
        }
    }

    #[test]
    fn counts() {
        let l = small();
        assert_eq!(l.assign_count(), 2);
        assert_eq!(l.data_words(), 5);
    }

    #[test]
    fn var_lookup() {
        let l = small();
        assert_eq!(l.var(&Symbol::new("a")).unwrap().len, 4);
        assert!(l.var(&Symbol::new("zz")).is_none());
    }

    #[test]
    fn ensure_scalar_is_idempotent() {
        let mut l = small();
        l.ensure_scalar(Symbol::new("$t0"), true);
        l.ensure_scalar(Symbol::new("$t0"), true);
        assert_eq!(l.vars.iter().filter(|v| v.name.as_str() == "$t0").count(), 1);
    }

    #[test]
    fn display_nests_loops() {
        let text = small().to_string();
        assert!(text.contains("loop i x4:"));
        assert!(text.contains("y := (y + a[i])"));
    }

    #[test]
    fn equality_compares_trees_by_structure() {
        let a = small();
        let mut b = small();
        // renumber b's trees: the same program under other ids
        let mut pool = TreePool::new();
        pool.constant(42);
        fn copy(items: &mut [LirItem], from: &TreePool, to: &mut TreePool) {
            for item in items {
                match item {
                    LirItem::Assign(s) => s.src = to.intern(&from.to_tree(s.src)),
                    LirItem::Loop { body, .. } => copy(body, from, to),
                }
            }
        }
        copy(&mut b.body, &a.pool, &mut pool);
        b.pool = pool;
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
        let mut c = small();
        let LirItem::Assign(first) = &mut c.body[0] else { panic!("an assignment") };
        first.src = c.pool.constant(1);
        assert_ne!(a, c);
    }

    #[test]
    fn for_each_assign_visits_loop_bodies() {
        let l = small();
        let mut n = 0;
        l.for_each_assign(|_| n += 1);
        assert_eq!(n, 2);
    }
}
