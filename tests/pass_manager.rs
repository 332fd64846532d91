//! Integration tests for the pass manager: plan/option equivalence, the
//! preset plans, per-pass editing, strict inter-pass verification (a
//! broken pass is caught at its own boundary, by name), and the per-pass
//! observability records.

use std::sync::{Arc, Mutex};

use record::{
    CodeStats, CompilationUnit, CompileError, CompileOptions, CompileRequest, Compiled, Compiler,
    Pass, PassPlan,
};
use record_isa::{Insn, InsnKind, StructureError};

fn lir_of(name: &str) -> record_ir::lir::Lir {
    let k = record_dspstone::kernel(name).unwrap();
    record_ir::lower::lower(&record_ir::dfl::parse(k.source).unwrap()).unwrap()
}

fn tic25() -> Compiler {
    Compiler::for_target(record_isa::targets::tic25::target()).unwrap()
}

/// `PassPlan::from_options` is the boolean pipeline: for every kernel the
/// options-driven compile produces exactly the code of the default
/// request and of the O0 preset, at both ends of the optimization axis.
#[test]
fn plans_reproduce_the_options_pipeline_exactly() {
    for target in [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()] {
        let compiler = Compiler::for_target(target).unwrap();
        for kernel in record_dspstone::kernels() {
            let lir =
                record_ir::lower::lower(&record_ir::dfl::parse(kernel.source).unwrap()).unwrap();
            let compile = |req: CompileRequest| compiler.compile(&lir, req).unwrap().code;
            let via_opts = |opts: &CompileOptions| compile(PassPlan::from_options(opts).into());
            assert_eq!(
                via_opts(&CompileOptions::default()),
                compile(CompileRequest::default()),
                "{}: default plan diverges",
                kernel.name
            );
            assert_eq!(
                via_opts(&CompileOptions::nothing()),
                compile(PassPlan::o0().into()),
                "{}: O0 plan diverges",
                kernel.name
            );
        }
    }
}

#[test]
fn presets_have_the_documented_shapes() {
    assert_eq!(PassPlan::o0().names(), ["select", "layout", "address", "modes"]);

    let o1 = PassPlan::o1().names();
    assert!(!o1.contains(&"offset"), "O1 skips memory-layout passes: {o1:?}");
    assert!(!o1.contains(&"banks"), "O1 skips memory-layout passes: {o1:?}");
    assert!(o1.contains(&"treeify") && o1.contains(&"compact") && o1.contains(&"rpt"), "{o1:?}");

    assert_eq!(PassPlan::o2().names(), PassPlan::default().names());
}

#[test]
fn passes_can_be_dropped_and_replaced_by_name() {
    let full = PassPlan::default();
    let thinned = full.clone().without("compact").without("hoist");
    assert!(!thinned.names().contains(&"compact"), "{:?}", thinned.names());
    assert!(!thinned.names().contains(&"hoist"), "{:?}", thinned.names());
    assert_eq!(thinned.names().len(), full.names().len() - 2);

    // unknown names are a no-op, so ablation axes compose freely
    assert_eq!(full.clone().without("no-such-pass").names(), full.names());

    // the thinned plan still compiles and still verifies
    let compiler = tic25();
    let code = compiler.compile(&lir_of("fir"), (thinned.strict(true)).clone()).unwrap().code;
    code.verify().unwrap();
}

/// A pass that emits a structurally invalid instruction: a `LoopEnd`
/// with no matching `LoopStart`.
struct StrayEndPass;

impl Pass for StrayEndPass {
    fn name(&self) -> &'static str {
        "stray-end"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        unit.code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLP", 1, 1));
        Ok(())
    }
}

#[test]
fn strict_verify_catches_a_broken_pass_at_its_own_boundary() {
    let compiler = tic25();
    let plan = PassPlan::default().with_pass(Arc::new(StrayEndPass)).strict(true);
    let err = compiler.compile(&lir_of("fir"), plan.clone()).unwrap_err();
    match &err {
        CompileError::Verify { pass, error } => {
            assert_eq!(pass, "stray-end", "blamed the wrong pass: {err}");
            assert!(
                matches!(error, StructureError::UnmatchedLoopEnd { .. }),
                "unexpected invariant: {error:?}"
            );
        }
        other => panic!("expected a Verify error, got: {other}"),
    }
    // the pass name reaches the user-facing message
    assert!(err.to_string().contains("stray-end"), "{err}");
}

/// A pass whose transformation is structurally fine but whose own
/// postcondition fails — strict mode must attribute that too.
struct LyingPass;

impl Pass for LyingPass {
    fn name(&self) -> &'static str {
        "lying"
    }

    fn run(&self, _unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        Ok(())
    }

    fn postcondition(&self, _unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        Err(StructureError::StrayLoopEnd)
    }
}

#[test]
fn strict_verify_runs_pass_postconditions() {
    let compiler = tic25();
    let plan = PassPlan::default().with_pass(Arc::new(LyingPass)).strict(true);
    match compiler.compile(&lir_of("fir"), plan.clone()) {
        Err(CompileError::Verify { pass, error }) => {
            assert_eq!(pass, "lying");
            assert_eq!(error, StructureError::StrayLoopEnd);
        }
        other => panic!("expected a Verify error, got: {other:?}"),
    }

    // with strict off, neither the broken insn nor the postcondition is
    // checked mid-pipeline (the final whole-code verify still passes
    // because LyingPass doesn't actually damage the code)
    let lax = PassPlan::default().with_pass(Arc::new(LyingPass)).strict(false);
    compiler.compile(&lir_of("fir"), lax).unwrap();
}

#[test]
fn replacing_swaps_a_pass_in_place() {
    let plan = PassPlan::default().replacing("hoist", Arc::new(LyingPass));
    let names = plan.names();
    let full = PassPlan::default().names();
    assert_eq!(names.len(), full.len());
    assert_eq!(
        names.iter().position(|n| *n == "lying"),
        full.iter().position(|n| *n == "hoist"),
        "replacement keeps the slot: {names:?}"
    );
}

#[test]
fn timed_compiles_record_one_pass_record_per_pass() {
    let compiler = tic25();
    let plan = PassPlan::default();
    let Compiled { code, timings } = compiler.compile(&lir_of("fir"), plan.clone()).unwrap();

    let recorded: Vec<&str> = timings.passes.iter().map(|p| p.name).collect();
    assert_eq!(recorded, plan.names(), "one record per pass, in plan order");
    for p in &timings.passes {
        assert_eq!(p.runs, 1, "{}", p.name);
    }

    // select is the pass that materializes instructions…
    let select = timings.passes.iter().find(|p| p.name == "select").unwrap();
    assert_eq!(select.before.insns, 0);
    assert!(select.after.insns > 0);
    // …and the last pass's after-stats describe the final code
    let last = timings.passes.last().unwrap();
    assert_eq!(last.after.insns, code.insns.len());
    assert_eq!(last.after.words, code.size_words());
}

/// Wraps a pass and measures the code itself, just around the pass.
struct Measured {
    inner: Arc<dyn Pass>,
    seen: Arc<Mutex<Vec<(CodeStats, CodeStats)>>>,
}

impl Pass for Measured {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        let before = CodeStats::of(&unit.code);
        self.inner.run(unit)?;
        self.seen.lock().unwrap().push((before, CodeStats::of(&unit.code)));
        Ok(())
    }

    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        self.inner.postcondition(unit)
    }

    fn best_effort(&self) -> bool {
        self.inner.best_effort()
    }
}

/// Every pass record describes the code just before and just after its
/// pass, and passes chain: each one starts from the code the previous one
/// left, so a record's `before` is its predecessor's `after`.
#[test]
fn pass_records_measure_the_code_around_each_pass() {
    for target in [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()] {
        let compiler = Compiler::for_target(target.clone()).unwrap();
        for kernel in record_dspstone::kernels() {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let mut plan = PassPlan::default().strict(true);
            for pass in PassPlan::default().passes() {
                let measured = Measured { inner: Arc::clone(pass), seen: Arc::clone(&seen) };
                plan = plan.replacing(pass.name(), Arc::new(measured));
            }
            let timings = compiler.compile(&lir_of(kernel.name), plan).unwrap().timings;
            let recorded: Vec<(CodeStats, CodeStats)> =
                timings.passes.iter().map(|p| (p.before, p.after)).collect();
            let ctx = format!("{}/{}", kernel.name, target.name);
            assert_eq!(recorded, *seen.lock().unwrap(), "{ctx}");
            for pair in timings.passes.windows(2) {
                assert_eq!(
                    pair[0].after, pair[1].before,
                    "{ctx}: {} -> {}",
                    pair[0].name, pair[1].name
                );
            }
        }
    }
}
