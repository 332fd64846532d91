//! Property-based validation of the pass manager: *any* sampled
//! [`PassPlan`] — random option combinations plus random removals of the
//! optional passes — must compile every DSPStone kernel to structurally
//! valid code that computes exactly what the unoptimized (`O0`) plan
//! computes.
//!
//! This generalizes the old "options produce equivalent results" check:
//! the plan space is larger than the option space (per-pass removal can
//! express states the booleans cannot), and every case runs with strict
//! inter-pass verification on, so each pass's postconditions are
//! exercised under every sampled configuration.

use record::{CompileOptions, Compiler, PassPlan};
use record_ir::transform::RuleSet;
use record_ir::Symbol;
use record_opt::modes::ModeStrategy;
use record_opt::ScheduleMode;
use record_prop::{run_cases, Rng};
use record_sim::run_program;

fn random_options(rng: &mut Rng) -> CompileOptions {
    CompileOptions {
        rules: if rng.bool() { RuleSet::all() } else { RuleSet::none() },
        variant_limit: rng.usize(8) + 1,
        fold_constants: rng.bool(),
        cse: rng.bool(),
        compact: rng.bool(),
        offset_assignment: rng.bool(),
        bank_assignment: rng.bool(),
        mode_strategy: *rng.pick(&[ModeStrategy::Lazy, ModeStrategy::PerUse]),
        use_rpt: rng.bool(),
        schedule: *rng.pick(&[
            None,
            Some(ScheduleMode::List),
            Some(ScheduleMode::BranchAndBound { max_segment: 8 }),
        ]),
        dag_cover: rng.bool(),
        budgets: record::Budgets::unlimited(),
    }
}

/// Random plan edits on top of the sampled options: drop optional passes
/// by name. `compact`/`hoist` are dropped together (hoisting is defined
/// as compaction's companion, as in the original pipeline).
fn random_plan(rng: &mut Rng) -> PassPlan {
    let mut plan = PassPlan::from_options(&random_options(rng));
    for name in ["fold", "treeify", "offset", "banks", "rpt"] {
        if rng.usize(4) == 0 {
            plan = plan.without(name);
        }
    }
    if rng.usize(4) == 0 {
        plan = plan.without("compact").without("hoist");
    }
    plan.strict(true)
}

#[test]
fn every_sampled_plan_is_valid_and_semantics_preserving() {
    let targets = [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()];
    let compilers: Vec<Compiler> =
        targets.into_iter().map(|t| Compiler::for_target(t).unwrap()).collect();
    let kernels = record_dspstone::kernels();
    let lirs: Vec<record_ir::lir::Lir> = kernels
        .iter()
        .map(|k| record_ir::lower::lower(&record_ir::dfl::parse(k.source).unwrap()).unwrap())
        .collect();
    let o0 = PassPlan::o0().strict(true);

    run_cases(48, |rng| {
        let plan = random_plan(rng);
        let compiler = &compilers[rng.usize(compilers.len())];
        let ix = rng.usize(kernels.len());
        let (kernel, lir) = (&kernels[ix], &lirs[ix]);

        let code = compiler
            .compile(lir, plan.clone())
            .unwrap_or_else(|e| panic!("{}: plan {:?} failed: {e}", kernel.name, plan.names()))
            .code;
        // strict mode already verified between passes; the final artifact
        // must also stand on its own
        code.verify().unwrap_or_else(|e| {
            panic!("{}: plan {:?} produced invalid code: {e}", kernel.name, plan.names())
        });

        let baseline = compiler.compile(lir, o0.clone()).unwrap().code;
        let inputs = kernel.inputs(rng.usize(1 << 16) as u64);
        let (got, _) = run_program(&code, compiler.target(), &inputs).unwrap();
        let (want, _) = run_program(&baseline, compiler.target(), &inputs).unwrap();
        for (name, _) in kernel.outputs() {
            let sym = Symbol::new(*name);
            assert_eq!(
                got.get(&sym),
                want.get(&sym),
                "{} on {}: output {name} diverges from O0 under plan {:?}",
                kernel.name,
                compiler.target().name,
                plan.names()
            );
        }
    });
}
