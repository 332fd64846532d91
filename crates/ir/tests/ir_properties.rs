//! Property-based tests over the frontend and IR transformations,
//! driven by the vendored `record-prop` harness.

use std::collections::HashMap;

use record_ir::transform::{variants, RuleSet};
use record_ir::treeify::treeify;
use record_ir::{dfl, AssignStmt, BinOp, MemRef, Symbol, Tree, TreePool, UnOp};
use record_prop::{run_cases, Rng};

/// The lexer and parser must reject garbage gracefully, never panic.
#[test]
fn parser_never_panics() {
    run_cases(256, |rng| {
        let input = rng.wild_string(120);
        let _ = dfl::parse(&input);
    });
}

/// Structured fuzzing: programs assembled from plausible fragments
/// either parse or produce a located error.
#[test]
fn fragment_programs_never_panic() {
    run_cases(256, |rng| {
        let name = rng.string_from("abcdefghijklmnopqrstuvwxyz", 8);
        let name = if name.is_empty() { "p".to_string() } else { name };
        let n = rng.i64_in(1, 64);
        let expr = rng.string_from("abcdefghijklmnopqrstuvwxyz0123456789+*()-/&|^ ", 40);
        let body = if rng.bool() {
            format!("for i in 0..{} loop y := {expr}; end loop;", n - 1)
        } else {
            format!("y := {expr};")
        };
        let src =
            format!("program {name}; const N = {n}; var a: fix[N]; var y: fix; begin {body} end");
        match dfl::parse(&src) {
            Ok(ast) => {
                let _ = record_ir::lower::lower(&ast);
            }
            Err(e) => {
                // errors must render
                let _ = e.to_string();
            }
        }
    });
}

const LEAF_VARS: [&str; 4] = ["a", "b", "c", "w"];

fn gen_tree(rng: &mut Rng, depth: u32) -> Tree {
    if depth == 0 || rng.usize(4) == 0 {
        return if rng.bool() {
            Tree::var(*rng.pick(&LEAF_VARS))
        } else {
            Tree::constant(rng.i64_in(-50, 50))
        };
    }
    if rng.usize(3) == 0 {
        let op = *rng.pick(&[UnOp::Neg, UnOp::Abs, UnOp::Not]);
        Tree::un(op, gen_tree(rng, depth - 1))
    } else {
        let op = *rng.pick(&[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Min,
            BinOp::Max,
        ]);
        Tree::bin(op, gen_tree(rng, depth - 1), gen_tree(rng, depth - 1))
    }
}

/// Reference: execute assignments sequentially over an environment.
fn run_assigns(pool: &TreePool, assigns: &[AssignStmt], env: &mut HashMap<Symbol, i64>) {
    for a in assigns {
        let mut mem = |r: &MemRef| *env.get(r.base()).unwrap_or(&0);
        let mut tmp = |s: &Symbol| *env.get(s).unwrap_or(&0);
        let v = pool.eval(a.src, 16, &mut mem, &mut tmp);
        env.insert(a.dst.base().clone(), v);
    }
}

/// Tree decomposition preserves the block's observable semantics
/// (including stores that later statements re-read).
#[test]
fn treeify_preserves_block_semantics() {
    run_cases(128, |rng| {
        let n_stmts = rng.usize(4) + 1;
        let mut pool = TreePool::new();
        let assigns: Vec<AssignStmt> = (0..n_stmts)
            .map(|_| {
                let dst = MemRef::scalar(*rng.pick(&LEAF_VARS));
                AssignStmt::new(&mut pool, dst, &gen_tree(rng, 3))
            })
            .collect();
        let init: Vec<i64> = (0..4).map(|_| rng.i64_in(-100, 100)).collect();
        let (forest, _) = treeify(&mut pool, assigns.clone(), 0);

        let mut env_a: HashMap<Symbol, i64> =
            LEAF_VARS.iter().zip(&init).map(|(v, x)| (Symbol::new(*v), *x)).collect();
        let mut env_b = env_a.clone();
        run_assigns(&pool, &assigns, &mut env_a);
        run_assigns(&pool, &forest.assigns, &mut env_b);
        for v in LEAF_VARS {
            assert_eq!(
                env_a[&Symbol::new(v)],
                env_b[&Symbol::new(v)],
                "variable {v} differs after treeify"
            );
        }
    });
}

/// Every enumerated algebraic variant evaluates identically to the
/// original under random environments.
#[test]
fn variants_preserve_semantics() {
    run_cases(128, |rng| {
        let tree = gen_tree(rng, 3);
        let vals: Vec<i64> = (0..4).map(|_| rng.i64_in(-100, 100)).collect();
        let env: HashMap<&str, i64> = LEAF_VARS.into_iter().zip(vals).collect();
        let eval = |t: &Tree| {
            let mut mem = |r: &MemRef| *env.get(r.base().as_str()).unwrap_or(&0);
            let mut tmp = |_: &Symbol| 0;
            t.eval(16, &mut mem, &mut tmp)
        };
        let reference = eval(&tree);
        for v in variants(&tree, &RuleSet::all(), 48) {
            assert_eq!(eval(&v), reference, "variant {v} diverges");
        }
    });
}

/// `may_alias` is reflexive and symmetric on random references.
#[test]
fn may_alias_is_reflexive_and_symmetric() {
    run_cases(256, |rng| {
        let bases = ["p", "q"];
        let b1 = rng.usize(2);
        let b2 = rng.usize(2);
        let i1 = rng.i64_in(-3, 4);
        let i2 = rng.i64_in(-3, 4);
        let kind = rng.usize(3) as u8;
        let mk = |b: usize, i: i64, k: u8| match k {
            0 => MemRef::scalar(bases[b]),
            1 => MemRef::array(bases[b], record_ir::Index::Const(i.abs())),
            _ => {
                MemRef::array(bases[b], record_ir::Index::Var { var: Symbol::new("i"), offset: i })
            }
        };
        let r1 = mk(b1, i1, kind);
        let r2 = mk(b2, i2, (kind + 1) % 3);
        assert!(r1.may_alias(&r1));
        assert_eq!(r1.may_alias(&r2), r2.may_alias(&r1));
    });
}
