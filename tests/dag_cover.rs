//! Block-level DAG covering vs the per-statement reference selector.
//!
//! The `select` pass covers straight-line blocks as DAGs over the
//! interned pool: a soundly repeated subtree may be computed once into a
//! parked register and referenced by every consumer. This suite is the
//! refactor's safety net:
//!
//! * **semantic equivalence** — every DSPStone kernel, on both shipped
//!   targets, at `O0` and `O2`, must compute on the simulator exactly
//!   what the `reference_select_pass` (per-statement, boxed) compile
//!   computes, over multiple stimulus seeds;
//! * **the payoff** — on the register-operand dsp56k the MAC-heavy
//!   kernels must actually take shares and must never grow in code
//!   words; on the accumulator tic25 every candidate must be recomputed;
//! * **soundness** — property tests check that [`BlockDag`] never offers
//!   a value for sharing across an intervening store to memory it reads.

use std::collections::HashMap;

use record::{reference_select_pass, CompileError, CompileOptions, Compiled, Compiler, PassPlan};
use record_ir::blockdag::read_bases;
use record_ir::lir::AssignStmt;
use record_ir::{dfl, lower, BinOp, BlockDag, MemRef, Symbol, Tree, TreePool};
use record_prop::{run_cases, Rng};
use record_sim::run_program;

fn targets() -> [record_isa::TargetDesc; 2] {
    [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()]
}

/// `O0` and `O2` option sets with DAG covering forced on (plain `O0`
/// leaves it off; the matrix must exercise the DAG path at both ends of
/// the optimization axis).
fn presets() -> [(&'static str, CompileOptions); 2] {
    [
        ("O0", CompileOptions { dag_cover: true, ..CompileOptions::nothing() }),
        ("O2", CompileOptions::default()),
    ]
}

/// The full matrix: 10 kernels × {tic25, dsp56k} × {O0, O2}, DAG-selected
/// output vs the reference selector, compared on the simulator.
#[test]
fn dag_covered_kernels_match_the_reference_selector() {
    for target in targets() {
        let compiler = Compiler::for_target(target.clone()).unwrap();
        for (preset, opts) in presets() {
            assert!(opts.dag_cover, "{preset}: matrix must exercise the DAG path");
            let dag_plan = PassPlan::from_options(&opts).strict(true);
            let ref_plan = PassPlan::from_options(&opts)
                .replacing("select", reference_select_pass(opts.rules, opts.variant_limit))
                .strict(true);
            for kernel in record_dspstone::kernels() {
                let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
                let dag_code = compiler.compile(&lir, dag_plan.clone()).unwrap().code;
                let ref_code = compiler.compile(&lir, ref_plan.clone()).unwrap().code;
                for seed in 1..=3 {
                    let inputs = kernel.inputs(seed);
                    let (got, _) = run_program(&dag_code, &target, &inputs).unwrap();
                    let (want, _) = run_program(&ref_code, &target, &inputs).unwrap();
                    for (name, _) in kernel.outputs() {
                        let sym = Symbol::new(*name);
                        assert_eq!(
                            got.get(&sym),
                            want.get(&sym),
                            "{}/{}/{preset}: output {name} diverges (seed {seed})\n{}",
                            kernel.name,
                            target.name,
                            dag_code.render()
                        );
                    }
                }
            }
        }
    }
}

/// The DAG-selected code must also match each kernel's *reference
/// implementation* (not just the other selector) — the absolute anchor.
#[test]
fn dag_covered_kernels_match_the_reference_implementation() {
    for target in targets() {
        let compiler = Compiler::for_target(target.clone()).unwrap();
        for kernel in record_dspstone::kernels() {
            let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
            let code = compiler
                .compile(&lir, PassPlan::from_options(&CompileOptions::default()))
                .unwrap()
                .code;
            for seed in 1..=3 {
                let inputs = kernel.inputs(seed);
                let expected = kernel.reference(&inputs);
                let (out, _) = run_program(&code, &target, &inputs).unwrap();
                for (name, _) in kernel.outputs() {
                    let sym = Symbol::new(*name);
                    assert_eq!(
                        out[&sym], expected[&sym],
                        "{}/{}: output {name} wrong (seed {seed})",
                        kernel.name, target.name
                    );
                }
            }
        }
    }
}

/// On dsp56k the MAC-heavy kernels (complex arithmetic reads every input
/// leaf twice) must take shares, and sharing must never cost code size.
#[test]
fn sharing_pays_on_dsp56k_mac_kernels() {
    let target = record_isa::targets::dsp56k::target();
    let compiler = Compiler::for_target(target.clone()).unwrap();
    let opts = CompileOptions::default();
    let dag_plan = PassPlan::from_options(&opts);
    let ref_plan = PassPlan::from_options(&opts)
        .replacing("select", reference_select_pass(opts.rules, opts.variant_limit));
    for name in ["complex_multiply", "complex_update", "n_complex_updates"] {
        let kernel = record_dspstone::kernel(name).expect("known kernel");
        let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
        let Compiled { code: dag_code, timings: t } =
            compiler.compile(&lir, dag_plan.clone()).unwrap();
        let ref_code = compiler.compile(&lir, ref_plan.clone()).unwrap().code;
        assert!(t.select.shared_subtrees > 0, "{name}: no sharing candidates found");
        assert!(t.select.shares_taken > 0, "{name}: no share taken on a register-operand machine");
        assert!(
            dag_code.size_words() <= ref_code.size_words(),
            "{name}: DAG covering grew the code ({} > {} words)",
            dag_code.size_words(),
            ref_code.size_words()
        );
    }
}

/// On the accumulator-based tic25 no value can stay parked across
/// statements: every candidate must be recomputed and the emitted code
/// must equal the reference selector's byte for byte.
#[test]
fn sharing_is_refused_on_tic25() {
    let target = record_isa::targets::tic25::target();
    let compiler = Compiler::for_target(target.clone()).unwrap();
    let opts = CompileOptions::default();
    let dag_plan = PassPlan::from_options(&opts);
    let ref_plan = PassPlan::from_options(&opts)
        .replacing("select", reference_select_pass(opts.rules, opts.variant_limit));
    for kernel in record_dspstone::kernels() {
        let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
        let Compiled { code: dag_code, timings: t } =
            compiler.compile(&lir, dag_plan.clone()).unwrap();
        let ref_code = compiler.compile(&lir, ref_plan.clone()).unwrap().code;
        assert_eq!(
            t.select.shares_taken, 0,
            "{}: parked a value in a singleton class",
            kernel.name
        );
        assert_eq!(t.select.recomputes_chosen, t.select.shared_subtrees, "{}", kernel.name);
        assert_eq!(
            dag_code.render(),
            ref_code.render(),
            "{}: recompute-only DAG covering must be the per-statement code",
            kernel.name
        );
    }
}

/// DAG covering pays only for what it uses: trial and emission labels
/// under cuts are memoized by (node, cuts inside its subtree), and
/// cut-free subtrees replay the per-statement labels. Summed over the
/// DSPStone kernels at O2, dsp56k (which takes shares) may compute at
/// most 1.4x the labels of tic25 (which takes none).
#[test]
fn dag_covering_labels_stay_within_budget_of_tree_covering() {
    let labels = |target: record_isa::TargetDesc| -> u64 {
        let compiler = Compiler::for_target(target).unwrap();
        let plan = PassPlan::from_options(&CompileOptions::default());
        record_dspstone::kernels()
            .iter()
            .map(|kernel| {
                let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
                compiler.compile(&lir, plan.clone()).unwrap().timings.select.labels_computed
            })
            .sum()
    };
    let tic25 = labels(record_isa::targets::tic25::target());
    let dsp56k = labels(record_isa::targets::dsp56k::target());
    assert!(
        dsp56k * 10 <= tic25 * 14,
        "dsp56k computed {dsp56k} labels, more than 1.4x tic25's {tic25}"
    );
}

// ---------------------------------------------------------------------------
// Soundness properties of the block DAG analysis
// ---------------------------------------------------------------------------

const SYMS: [&str; 4] = ["a", "b", "c", "w"];

fn gen_tree(rng: &mut Rng, depth: u32) -> Tree {
    if depth == 0 || rng.usize(3) == 0 {
        return if rng.usize(4) == 0 {
            Tree::constant(rng.i64_in(-8, 8))
        } else {
            Tree::var(*rng.pick(&SYMS))
        };
    }
    let op = *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
    Tree::bin(op, gen_tree(rng, depth - 1), gen_tree(rng, depth - 1))
}

/// Random blocks (with deliberate stores into the read set): a value may
/// only be offered for sharing when **no** statement between two of its
/// uses — nor between consecutive uses — stores to a base symbol it
/// reads. This is the store/volatile soundness rule, checked from the
/// outside.
#[test]
fn sharing_is_never_offered_across_an_intervening_store() {
    run_cases(200, |rng| {
        let n = rng.usize(5) + 2;
        let stmts: Vec<AssignStmt> = (0..n)
            .map(|_| AssignStmt {
                // destinations overlap the read symbols on purpose
                dst: MemRef::scalar(*rng.pick(&SYMS)),
                src: gen_tree(rng, 2),
            })
            .collect();
        let mut pool = TreePool::new();
        let dag = BlockDag::build(&mut pool, &stmts);
        let mut memo = HashMap::new();
        for cand in &dag.shared {
            assert!(cand.use_count >= 2, "single-use value offered for sharing");
            let bases = read_bases(&pool, cand.id, &mut memo);
            let (first, last) = (cand.uses[0], *cand.uses.last().unwrap());
            // every store between the first and last use must miss the
            // candidate's read footprint entirely — including stores by
            // the using statements themselves (the use reads before its
            // own store, so only *earlier* statements can invalidate)
            for (i, stmt) in stmts.iter().enumerate().take(last).skip(first) {
                let writes_read_base = bases.contains(stmt.dst.base());
                let later_use = cand.uses.iter().any(|&u| u > i);
                assert!(
                    !(writes_read_base && later_use),
                    "candidate {} shared across a store to {} (stmt {i})",
                    pool.to_tree(cand.id),
                    stmt.dst.base()
                );
            }
            assert!(first <= last);
        }
    });
}

/// The same property, driven end-to-end: random straight-line programs
/// compiled with DAG covering must compute what the reference selector
/// computes, even when statements overwrite each other's inputs.
#[test]
fn random_blocks_with_stores_stay_equivalent_end_to_end() {
    let dsp = record_isa::targets::dsp56k::target();
    let compiler = Compiler::for_target(dsp.clone()).unwrap();
    let opts = CompileOptions::default();
    let dag_plan = PassPlan::from_options(&opts).strict(true);
    let ref_plan = PassPlan::from_options(&opts)
        .replacing("select", reference_select_pass(opts.rules, opts.variant_limit))
        .strict(true);
    run_cases(40, |rng| {
        let n = rng.usize(4) + 2;
        let body: Vec<String> = (0..n)
            .map(|_| {
                let dst = *rng.pick(&SYMS);
                let t = gen_tree(rng, 2);
                format!("{dst} := {t};")
            })
            .collect();
        let source =
            format!("program dagprop; var {}: fix; begin {} end", SYMS.join(", "), body.join(" "));
        let lir = lower::lower(&dfl::parse(&source).unwrap()).unwrap();
        // Random programs can exceed a target's register capacity; that is
        // a benign rejection (the fuzz harness skips it too) — but both
        // selectors must agree on it, since DAG covering falls back to the
        // per-statement baseline whenever parking fails.
        let dag_code = match compiler.compile(&lir, dag_plan.clone()) {
            Ok(c) => c.code,
            Err(CompileError::Internal { .. } | CompileError::Verify { .. }) => {
                panic!("DAG covering broke: {source}")
            }
            Err(_) => {
                assert!(
                    compiler.compile(&lir, ref_plan.clone()).is_err(),
                    "only the DAG selector rejected: {source}"
                );
                return;
            }
        };
        let ref_code = compiler
            .compile(&lir, ref_plan.clone())
            .unwrap_or_else(|e| panic!("only the reference selector rejected ({e}): {source}"))
            .code;
        let mut inputs: HashMap<Symbol, Vec<i64>> = HashMap::new();
        for s in SYMS {
            inputs.insert(Symbol::new(s), vec![rng.i64_in(-1000, 1000)]);
        }
        let (got, _) = run_program(&dag_code, &dsp, &inputs).unwrap();
        let (want, _) = run_program(&ref_code, &dsp, &inputs).unwrap();
        for s in SYMS {
            let sym = Symbol::new(s);
            assert_eq!(got.get(&sym), want.get(&sym), "{source}\n{}", dag_code.render());
        }
    });
}
