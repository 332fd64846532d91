//! Heap allocations of the frontend, of the `treeify` and `select`
//! passes and of the backend passes, counted by a counting global
//! allocator.
//!
//! Each pass's [`Pass::run`] is called directly on a [`CompilationUnit`],
//! the stage-by-stage path (no pass-manager bookkeeping), for every
//! DSPStone kernel at `O2` on tic25 and dsp56k. The counter is a
//! const-initialized thread-local, so tests running in parallel on other
//! threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use record::{CompilationUnit, Compiler, PassPlan, Session};
use record_ir::{dfl, lower};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter touches
// only a const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The passes from `layout` through `rpt`: everything after selection.
const BACKEND: [&str; 8] =
    ["layout", "offset", "banks", "address", "compact", "hoist", "modes", "rpt"];

/// Allocations the backend passes (`layout` through `rpt`) made over
/// every DSPStone kernel at `O2` on tic25 and dsp56k at the commit before
/// the passes stopped copying. The passes that work on the program they
/// are handed make 724 (layout 100, offset 245, banks 109, address 170,
/// compact 68, hoist 0, modes 32, rpt 0).
const BACKEND_ALLOCATIONS_BEFORE: u64 = 6298;

/// Allocations the `select` pass made over every DSPStone kernel at `O2`
/// on tic25 and dsp56k before it kept its scratch state in the emitter:
/// 3942 on tic25 and 6680 on dsp56k.
const SELECT_ALLOCATIONS_BEFORE: u64 = 10_622;

/// Allocations the `select` pass makes over the same 20 compiles once
/// the thread's selection scratch is warm: 280 on tic25 and 271 on
/// dsp56k, whether it probes every statement (a unit's strict default in
/// a debug build) or not (release; rustc 1.95), now that decoding a probe
/// with loops keeps its loop stack in the reused decode buffers. Probing
/// made 290 and 281 while each decode allocated that stack, 748 (290 and
/// 458) while a block with shares was emitted, probed and then emitted
/// again, and an emitter built and dropped per compile made 2779 (1225
/// and 1554).
const SELECT_ALLOCATIONS_WARM: u64 = 551;

/// Allocations the `treeify` pass made over every DSPStone kernel at `O2`
/// on tic25 and dsp56k while it value-numbered each block into a data-flow
/// graph of its own (340 per target). It makes 100 now that it works in
/// the program's pool with one working state per compile and returns a
/// block in which no computed subtree repeats as it is.
const TREEIFY_ALLOCATIONS_BEFORE: u64 = 680;

/// The two targets every count here covers.
fn targets() -> [record_isa::TargetDesc; 2] {
    [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()]
}

/// Per-pass allocation counts over every DSPStone kernel at `O2`, one
/// column per target of [`targets`], plus the `(pass, kernel, target)`
/// runs of `hoist` and `rpt` that left the code unchanged yet allocated.
fn count_passes() -> (Vec<(&'static str, [u64; 2])>, Vec<String>) {
    let plan = PassPlan::o2();
    let mut per_pass: Vec<(&'static str, [u64; 2])> =
        plan.passes().iter().map(|p| (p.name(), [0; 2])).collect();
    let mut wasteful = Vec::new();
    for (column, target) in targets().into_iter().enumerate() {
        let compiler = Compiler::for_target(target).unwrap();
        for kernel in record_dspstone::kernels() {
            let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
            let mut unit = CompilationUnit::new(compiler.target(), compiler.tables(), &lir);
            unit.budgets = *plan.budgets();
            for (ix, pass) in plan.passes().iter().enumerate() {
                let unchanged_check = matches!(pass.name(), "hoist" | "rpt");
                let before = unchanged_check.then(|| unit.code.clone());
                let start = allocations();
                pass.run(&mut unit).unwrap();
                let made = allocations() - start;
                per_pass[ix].1[column] += made;
                if before.is_some_and(|b| b == unit.code) && made > 0 {
                    wasteful.push(format!(
                        "{} on {} {}: {made} allocations",
                        pass.name(),
                        kernel.name,
                        compiler.target().name
                    ));
                }
            }
        }
    }
    (per_pass, wasteful)
}

/// The summed count of the passes named in `names`, over both targets.
fn total_of(per_pass: &[(&'static str, [u64; 2])], names: &[&str]) -> u64 {
    per_pass.iter().filter(|(p, _)| names.contains(p)).map(|(_, n)| n[0] + n[1]).sum()
}

#[test]
fn backend_passes_allocate_at_most_half_of_before() {
    // warm up once so lazily initialized state is not charged to a pass
    count_passes();
    let (per_pass, _) = count_passes();
    let total = total_of(&per_pass, &BACKEND);
    println!("backend allocations: {per_pass:?} total {total}");
    assert!(
        total * 2 <= BACKEND_ALLOCATIONS_BEFORE,
        "layout through rpt allocated {total} times ({per_pass:?}), \
         more than half of the {BACKEND_ALLOCATIONS_BEFORE} before"
    );
}

#[test]
fn hoist_and_rpt_allocate_nothing_on_code_they_leave_unchanged() {
    count_passes();
    let (_, wasteful) = count_passes();
    assert!(wasteful.is_empty(), "{wasteful:#?}");
}

#[test]
fn select_allocates_at_most_a_third_of_before() {
    count_passes();
    let (per_pass, _) = count_passes();
    let select = per_pass.iter().find(|(p, _)| *p == "select").unwrap().1;
    let total = select[0] + select[1];
    println!("select allocations: tic25 {} dsp56k {} total {total}", select[0], select[1]);
    assert!(
        total * 3 <= SELECT_ALLOCATIONS_BEFORE,
        "select allocated {total} times (tic25 {}, dsp56k {}), more than a third of the \
         {SELECT_ALLOCATIONS_BEFORE} before",
        select[0],
        select[1]
    );
}

#[test]
fn warm_select_allocates_at_most_the_pinned_count() {
    count_passes();
    let (per_pass, _) = count_passes();
    let select = per_pass.iter().find(|(p, _)| *p == "select").unwrap().1;
    let total = select[0] + select[1];
    assert!(
        total <= SELECT_ALLOCATIONS_WARM,
        "select allocated {total} times (tic25 {}, dsp56k {}), more than the pinned \
         {SELECT_ALLOCATIONS_WARM}",
        select[0],
        select[1]
    );
}

#[test]
fn treeify_allocates_less_than_the_dfg_version() {
    count_passes();
    let (per_pass, _) = count_passes();
    let treeify = per_pass.iter().find(|(p, _)| *p == "treeify").unwrap().1;
    let total = treeify[0] + treeify[1];
    println!("treeify allocations: tic25 {} dsp56k {} total {total}", treeify[0], treeify[1]);
    assert!(
        total < TREEIFY_ALLOCATIONS_BEFORE,
        "treeify allocated {total} times (tic25 {}, dsp56k {}), not fewer than the \
         {TREEIFY_ALLOCATIONS_BEFORE} of the data-flow-graph version",
        treeify[0],
        treeify[1]
    );
}

/// Allocations of compiling every DSPStone kernel once on `target`
/// through `session`, after one warm-up round.
fn warm_compile_allocations(session: &Session, target: &record_isa::TargetDesc) -> u64 {
    let kernels = record_dspstone::kernels();
    for kernel in &kernels {
        session.compile_source(target, kernel.source).unwrap();
    }
    let start = allocations();
    for kernel in &kernels {
        session.compile_source(target, kernel.source).unwrap();
    }
    allocations() - start
}

/// A session without an explicit plan builds none per compile: it
/// allocates no more than one given the same default plan.
#[test]
fn a_default_session_allocates_no_more_than_one_with_the_default_plan() {
    for target in targets() {
        let default = warm_compile_allocations(&Session::new(), &target);
        let explicit =
            warm_compile_allocations(&Session::new().with_plan(PassPlan::default()), &target);
        println!("{}: Session::new() {default}, with_plan(default) {explicit}", target.name);
        assert!(default <= explicit, "{}: {default} > {explicit}", target.name);
    }
}

/// What ten warm `Session::new()` compiles, one per DSPStone kernel,
/// allocate on tic25 and dsp56k: 83.5 and 93.2 per kernel in a debug
/// build, where the default plan is strict (rustc 1.95); a release build
/// makes what [`SESSION_ALLOCATIONS_WARM_NON_STRICT`] pins. They made
/// 885 and 982 while `layout` built a layout that `offset` then built
/// again, 1027 and 1124 while the lexer filled a token vector and the parser
/// boxed every operator, 1037 and 1134 while each probe decode allocated
/// its loop stack, 1037 and 1311 while a block with shares was emitted
/// twice, 2018 and 2292 (201.8 and 229.2 per kernel) while the frontend
/// built boxed trees that the compile copied and re-interned, and 2963
/// and 3398 while the `select` pass built its emitter anew for every
/// compile and the session copied its plan.
const SESSION_ALLOCATIONS_WARM: [u64; 2] = [835, 932];

/// What the same compiles allocate under a non-strict plan, as in a
/// release build: 81.3 and 91.0 per kernel (rustc 1.95). They made 863
/// and 960 while `layout` built a layout that `offset` then built again,
/// 1005 and 1102 while the lexer filled a token vector and the parser
/// boxed every operator, and 1015 and 1112 while selection probed every
/// statement in every plan.
const SESSION_ALLOCATIONS_WARM_NON_STRICT: [u64; 2] = [813, 910];

#[test]
fn a_warm_default_session_allocates_at_most_the_pinned_count() {
    for (target, pinned) in targets().iter().zip(SESSION_ALLOCATIONS_WARM) {
        let made = warm_compile_allocations(&Session::new(), target);
        let per_kernel = made as f64 / record_dspstone::kernels().len() as f64;
        println!("warm Session::new() compile on {}: {per_kernel:.1} per kernel", target.name);
        assert!(made <= pinned, "{}: {made} allocations, pinned at {pinned}", target.name);
    }
}

/// Allocations of parsing, lowering and building a [`CompilationUnit`]
/// on tic25 for the ten DSPStone kernels, warm: 240 (parse 142, lower 42,
/// the unit's copy of the program 56; rustc 1.95). Parsing a kernel makes
/// the symbol of each distinct name and the program's six tables (names
/// and their index, declarations, declared names, statements,
/// expressions). They made 382 (parse 276, lower 50) while the lexer
/// filled a token vector and the parser boxed every operator, and 1179
/// (parse 533, lower 488, unit 158) while tokens and the AST carried
/// strings, lowering built boxed trees, and the unit deep-copied them.
const FRONTEND_ALLOCATIONS_WARM: u64 = 240;

/// What parsing, lowering and building a unit allocate for each of the
/// ten DSPStone kernels on tic25, stage by stage, after one warm-up round.
fn frontend_allocations() -> [u64; 3] {
    let compiler = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
    let kernels = record_dspstone::kernels();
    let run = || {
        let mut made = [0u64; 3];
        for kernel in &kernels {
            let start = allocations();
            let ast = dfl::parse(kernel.source).unwrap();
            let parsed = allocations();
            let lir = lower::lower(&ast).unwrap();
            let lowered = allocations();
            let unit = CompilationUnit::new(compiler.target(), compiler.tables(), &lir);
            made[0] += parsed - start;
            made[1] += lowered - parsed;
            made[2] += allocations() - lowered;
            drop(unit);
        }
        made
    };
    run();
    run()
}

#[test]
fn warm_frontend_allocates_at_most_the_pinned_count() {
    let [parse, lower, unit] = frontend_allocations();
    let total = parse + lower + unit;
    println!("frontend allocations: parse {parse} lower {lower} unit {unit} total {total}");
    assert!(
        total <= FRONTEND_ALLOCATIONS_WARM,
        "parse, lower and CompilationUnit::new allocated {total} times (parse {parse}, lower \
         {lower}, unit {unit}), more than the pinned {FRONTEND_ALLOCATIONS_WARM}"
    );
}

/// Reports what a warm [`Session`] compile allocates per DSPStone kernel
/// at `O2` (mean over the ten kernels; the session's compiler and tables
/// already exist, there is no code cache), with strict checks off as in
/// a release build, and holds it to the pinned count: selection builds
/// no probe.
#[test]
fn report_whole_session_compile_allocations() {
    let session = Session::new().with_plan(PassPlan::o2().strict(false));
    let kernels = record_dspstone::kernels();
    for (target, pinned) in targets().iter().zip(SESSION_ALLOCATIONS_WARM_NON_STRICT) {
        let made = warm_compile_allocations(&session, target);
        let per_kernel = made as f64 / kernels.len() as f64;
        println!("warm Session compile on {}: {per_kernel:.1} allocations per kernel", target.name);
        assert!(made <= pinned, "{}: {made} allocations, pinned at {pinned}", target.name);
    }
}

/// Reports what parsing a DSPStone kernel allocates (mean over the ten
/// kernels): each distinct name's symbol once, the lexer's index of the
/// names, and the program's tables.
#[test]
fn report_parse_allocations() {
    let kernels = record_dspstone::kernels();
    for kernel in &kernels {
        dfl::parse(kernel.source).unwrap();
    }
    let start = allocations();
    for kernel in &kernels {
        dfl::parse(kernel.source).unwrap();
    }
    let per_kernel = (allocations() - start) as f64 / kernels.len() as f64;
    println!("parse: {per_kernel:.1} allocations per kernel");
    assert!(per_kernel > 0.0);
}
