//! Register hazards on accumulator machines: selection finds a cover
//! that overwrites a singleton register (tic25's `acc`, `p`, `t`) while
//! an operand still waits in it, and splits the statement instead of
//! keeping the code. The simulator probe that used to find them runs
//! only in strict plans, as an assertion.

use std::collections::HashMap;

use record::{CompileError, Compiler, PassPlan};
use record_ir::{dfl, lower, Index, LirItem, MemRef, Symbol};

/// `y[i0]` of a loop whose statement the probe passed at index 0: on
/// tic25 at O0 its cover loaded `1` into `acc`, then `LACK 0` overwrote
/// it before the subtraction read it. At `i0 = 0` both factors' values
/// make the product 0 either way, so the probe, which runs every index
/// variable at 0, saw nothing wrong.
const LIVE_ONE: &str = "program live_one;
  in a0: fix[5];
  in a1: fix[6];
  out y: fix[5];
begin
  for i0 in 0..4 loop
    y[i0] := (((a0[i0] - a0[0]) * 4) * (sat(1) - (0 - a1[i0 + 1])));
  end loop;
end";

/// The loop of a program that is one loop around one statement, as
/// `(variable, trip count, statement)`.
fn only_loop(body: &[LirItem]) -> (&Symbol, u32, &record_ir::AssignStmt) {
    match body {
        [LirItem::Loop { var, count, body }] => match &body[..] {
            [LirItem::Assign(stmt)] => (var, *count, stmt),
            other => panic!("expected one statement, got {other:?}"),
        },
        other => panic!("expected one loop, got {other:?}"),
    }
}

#[test]
fn a_live_accumulator_is_not_overwritten_where_index_zero_hides_it() {
    let target = record_isa::targets::tic25::target();
    let lir = lower::lower(&dfl::parse(LIVE_ONE).unwrap()).unwrap();
    let inputs: HashMap<Symbol, Vec<i64>> = HashMap::from([
        (Symbol::new("a0"), vec![1, 2, 3, 4, 5]),
        (Symbol::new("a1"), vec![10, 20, 30, 40, 50, 60]),
    ]);

    // the statement's tree, evaluated once per iteration
    let (var, count, stmt) = only_loop(&lir.body);
    let expected: Vec<i64> = (0..i64::from(count))
        .map(|i| {
            let mut read_mem = |r: &MemRef| match r {
                MemRef::Array { base, index } => {
                    let at = match index {
                        Index::Const(c) => *c,
                        Index::Var { var: v, offset } if v == var => i + offset,
                        other => panic!("unexpected index {other:?}"),
                    };
                    inputs[base][at as usize]
                }
                MemRef::Scalar(s) => panic!("unexpected scalar {s}"),
            };
            lir.pool.eval(stmt.src, target.word_width, &mut read_mem, &mut |t| panic!("temp {t}"))
        })
        .collect();
    assert_eq!(expected, [0, 124, 328, 612, 976]);

    let compiler = Compiler::for_target(target.clone()).unwrap();
    for (name, plan) in [("O0", PassPlan::o0()), ("O2", PassPlan::o2())] {
        for strict in [true, false] {
            let code = compiler.compile(&lir, plan.clone().strict(strict)).unwrap().code;
            let (outs, _) = record_sim::run_program(&code, &target, &inputs).unwrap();
            assert_eq!(
                outs[&Symbol::new("y")],
                expected,
                "{name} (strict {strict}) on tic25:\n{}",
                code.render()
            );
        }
    }
}

/// On tic25 and cube seed 2, the two targets whose singleton registers
/// the probe used to catch clobbers in, every corpus program compiles
/// under `O0` and `O2` to the same code whether the plan is strict (and
/// probes every statement) or not, and no strict probe fails.
#[test]
fn strict_probes_find_nothing_the_hazard_rule_left() {
    let corpus = record_repro::programs::corpus();
    let targets = [record_isa::targets::tic25::target(), record_isa::cube::target_from_seed(2)];
    let mut problems = Vec::new();
    let mut compiled = Vec::new();
    for target in targets {
        let compiler = Compiler::for_target(target).unwrap();
        let target = compiler.target().name.clone();
        for (plan_name, plan) in [("O0", PassPlan::o0()), ("O2", PassPlan::o2())] {
            let mut both = 0usize;
            for (name, source) in &corpus {
                let Ok(lir) = dfl::parse(source).and_then(|ast| lower::lower(&ast)) else {
                    continue;
                };
                let strict = compiler.compile(&lir, plan.clone().strict(true));
                let release = compiler.compile(&lir, plan.clone().strict(false));
                let at = format!("{name} on {target} at {plan_name}");
                match (strict, release) {
                    (Err(e @ CompileError::Verify { .. }), _) => {
                        problems.push(format!("{at}: strict: {e}"))
                    }
                    (Ok(strict), Ok(release)) if strict.code != release.code => {
                        problems.push(format!(
                            "{at}: listings differ\n{}\nvs\n{}",
                            strict.code.render(),
                            release.code.render()
                        ))
                    }
                    (Ok(_), Ok(_)) => both += 1,
                    (Err(a), Err(b)) if a == b => {}
                    (a, b) => problems.push(format!(
                        "{at}: strict {:?}, release {:?}",
                        a.map(drop),
                        b.map(drop)
                    )),
                }
            }
            compiled.push((format!("{target} {plan_name}"), both));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    // tic25 compiles the whole corpus; cube seed 2 most of it
    for (at, n) in &compiled {
        assert!(*n >= 200, "only {n} programs compiled on {at}: {compiled:?}");
    }
    assert!(compiled.iter().take(2).all(|(_, n)| *n == corpus.len()), "{compiled:?}");
}
