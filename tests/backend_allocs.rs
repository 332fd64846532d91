//! Heap allocations of the backend passes, counted by a counting global
//! allocator.
//!
//! Each pass's [`Pass::run`] is called directly on a [`CompilationUnit`],
//! the stage-by-stage path (no pass-manager bookkeeping), for every
//! DSPStone kernel at `O2` on tic25 and dsp56k. The counter is a
//! const-initialized thread-local, so tests running in parallel on other
//! threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use record::{CompilationUnit, Compiler, PassPlan};
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

/// Per-pass allocation counts over every DSPStone kernel at `O2` on
/// tic25 and dsp56k, plus the `(pass, kernel, target)` runs of `hoist`
/// and `rpt` that left the code unchanged yet allocated.
fn count_backend() -> (Vec<(&'static str, u64)>, Vec<String>) {
    let plan = PassPlan::o2();
    let mut per_pass: Vec<(&'static str, u64)> = BACKEND.iter().map(|&p| (p, 0)).collect();
    let mut wasteful = Vec::new();
    for target in [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()] {
        let compiler = Compiler::for_target(target).unwrap();
        for kernel in record_dspstone::kernels() {
            let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
            let mut unit = CompilationUnit::new(compiler.target(), compiler.tables(), &lir);
            unit.budgets = *plan.budgets();
            for pass in plan.passes() {
                let unchanged_check = matches!(pass.name(), "hoist" | "rpt");
                let before = unchanged_check.then(|| unit.code.clone());
                let start = allocations();
                pass.run(&mut unit).unwrap();
                let made = allocations() - start;
                if let Some(slot) = per_pass.iter_mut().find(|(p, _)| *p == pass.name()) {
                    slot.1 += made;
                }
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

#[test]
fn backend_passes_allocate_at_most_half_of_before() {
    // warm up once so lazily initialized state is not charged to a pass
    count_backend();
    let (per_pass, _) = count_backend();
    let total: u64 = per_pass.iter().map(|(_, n)| n).sum();
    println!("backend allocations: {per_pass:?} total {total}");
    assert!(
        total * 2 <= BACKEND_ALLOCATIONS_BEFORE,
        "layout through rpt allocated {total} times ({per_pass:?}), \
         more than half of the {BACKEND_ALLOCATIONS_BEFORE} before"
    );
}

#[test]
fn hoist_and_rpt_allocate_nothing_on_code_they_leave_unchanged() {
    count_backend();
    let (_, wasteful) = count_backend();
    assert!(wasteful.is_empty(), "{wasteful:#?}");
}
