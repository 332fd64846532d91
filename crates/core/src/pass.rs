//! The pass manager: the pipeline of Fig. 2 as first-class objects.
//!
//! Each phase of the backend — constant folding, CSE/treeify, BURS
//! selection, storage layout, offset assignment, bank assignment, AGU
//! addressing, compaction, invariant hoisting, mode insertion, hardware
//! repeat — is a named [`Pass`] over a [`CompilationUnit`]. A
//! [`PassPlan`] is an ordered list of passes; plans are built from
//! [`CompileOptions`] (the backward-compatible path), from the `O0`/`O1`/
//! `O2` presets, or edited per pass by name ([`PassPlan::without`],
//! [`PassPlan::with_pass`]).
//!
//! In *strict* mode (the default in debug builds and tests) the runner
//! verifies the unit between passes: [`Code::verify`] plus each pass's
//! own [`Pass::postcondition`]. A pass that breaks a structural invariant
//! therefore fails at its own boundary — as
//! [`CompileError::Verify`] carrying the pass name — instead of
//! surfacing later in the simulator. A strict `select` also runs every
//! statement it emits on the simulator ([`CompilationUnit::strict`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use record_burg::Tables;
use record_ir::lir::{Lir, LirItem, StorageKind, VarInfo};
use record_ir::transform::RuleSet;
use record_ir::{fold, AssignStmt, Bank, Symbol, TreePool};
use record_isa::{AddrMode, Code, Insn, InsnKind, StructureError, TargetDesc};
use record_opt::compact::ScheduleMode;
use record_opt::modes::ModeStrategy;
use record_trace::SpanRecorder;

use crate::pipeline::{convert_rpt, order_vars, order_vars_budgeted, Budgets, CompileOptions};
use crate::select::{Emitter, SelectScratch, SelectStats};
use crate::timing::{CodeStats, PassRecord, PhaseTimings};
use crate::CompileError;

/// The state a compilation threads through the passes: the (rewritable)
/// LIR, the storage variables it accumulates, and the output [`Code`].
///
/// LIR-level passes (`fold`, `treeify`) rewrite the body of
/// [`lir`](Self::lir), adding the trees they build to its pool; `select`
/// covers it into [`code`](Self::code), interning its variants into the
/// same pool; every later pass rewrites `code` in place. The pool only
/// grows, so the ids of the program as given stay valid throughout.
pub struct CompilationUnit<'a> {
    /// The target being compiled for.
    pub target: &'a TargetDesc,
    /// Shared BURS matcher tables for the target.
    pub tables: &'a Arc<Tables>,
    /// The program, in lowered form; LIR passes rewrite its body.
    pub lir: Lir,
    /// Storage to lay out: program variables plus generated temporaries
    /// and spill scratch, in creation order.
    pub vars: Vec<VarInfo>,
    /// The output machine code (empty until `select` runs).
    pub code: Code,
    /// Selection counters, filled by the `select` pass.
    pub select: SelectStats,
    /// Resource caps the passes must respect (copied from the plan by
    /// the runner before the first pass executes).
    pub budgets: Budgets,
    /// Whether the passes check their own work as they go: `select` runs
    /// every statement it emits on the simulator and fails on a mismatch
    /// with [`CompileError::Verify`]. Copied from the plan's
    /// [`strict`](PassPlan::strict) by the runner; a new unit starts with
    /// a plan's default, on in debug builds and off in release.
    pub strict: bool,
    /// The compile's span recorder. The runner opens one span per pass
    /// on it; passes may attach extra attributes or events (e.g. the
    /// search passes record `search_steps`). Disabled (a no-op) unless
    /// the driver installed an enabled recorder — see
    /// [`Compiler::compile`](crate::Compiler::compile).
    pub trace: SpanRecorder,
}

impl<'a> CompilationUnit<'a> {
    /// Fresh unit for compiling a copy of `lir` on `target` (its pool
    /// copied flat, node for node).
    pub fn new(target: &'a TargetDesc, tables: &'a Arc<Tables>, lir: &Lir) -> Self {
        CompilationUnit::of(target, tables, lir.clone())
    }

    /// Fresh unit for compiling `lir`, which it takes over.
    pub(crate) fn of(target: &'a TargetDesc, tables: &'a Arc<Tables>, lir: Lir) -> Self {
        CompilationUnit {
            target,
            tables,
            vars: lir.vars.clone(),
            code: Code {
                insns: Vec::new(),
                layout: Default::default(),
                target: target.name.clone(),
                name: lir.name.to_string(),
            },
            lir,
            select: SelectStats::default(),
            budgets: Budgets::unlimited(),
            strict: cfg!(debug_assertions),
            trace: SpanRecorder::disabled(),
        }
    }

    /// Makes the unit a fresh one for the program it was built for,
    /// whose body was `body`: the body and storage start over, the code
    /// and counters are emptied, and the pool is kept, since the passes
    /// only added to it and the ids of `body` are still valid.
    pub(crate) fn restart(&mut self, body: &[LirItem]) {
        self.lir.body.clear();
        self.lir.body.extend_from_slice(body);
        self.vars.clone_from(&self.lir.vars);
        self.code.insns.clear();
        self.code.layout = Default::default();
        self.select = SelectStats::default();
        self.budgets = Budgets::unlimited();
    }
}

/// Reads the selection counters as fields of the unit (`unit.variants`).
///
/// Exists only for `perfbench`, which reads nine counters that way and
/// may not change alongside this crate. It goes once a benchmark change
/// reads `unit.select`.
impl std::ops::Deref for CompilationUnit<'_> {
    type Target = SelectStats;

    fn deref(&self) -> &SelectStats {
        &self.select
    }
}

/// One named transformation of a [`CompilationUnit`].
pub trait Pass: Send + Sync {
    /// The registered name (used for display, enable/disable and
    /// [`CompileError::Verify`] attribution).
    fn name(&self) -> &'static str;

    /// Applies the pass.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] the underlying phase raises.
    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError>;

    /// Pass-specific invariant over the unit, checked *in addition to*
    /// [`Code::verify`] when the plan runs in strict mode.
    ///
    /// # Errors
    ///
    /// The violated invariant, attributed to this pass by the runner.
    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        let _ = unit;
        Ok(())
    }

    /// Whether the pass is a *best-effort* optimization the driver may
    /// drop to salvage a failing compile. Mandatory pipeline stages
    /// (and custom passes, by default) return `false`: their failure
    /// fails the compile outright.
    fn best_effort(&self) -> bool {
        false
    }

    /// A stable hash of the pass's *configuration* — everything beyond
    /// its name that changes the code it emits. Feeds
    /// [`PassPlan::fingerprint`], which in turn keys the compile cache:
    /// two plans whose passes agree on name **and** configuration
    /// produce identical code for identical input, so they may share
    /// cached output. The default (`0`) is correct for configuration-free
    /// passes; passes with knobs (selection rules, schedule mode, mode
    /// strategy) must override it. Must be stable across processes —
    /// derive it from field values, never from addresses or
    /// `DefaultHasher`.
    fn config_fingerprint(&self) -> u64 {
        0
    }
}

/// A declarative, ordered pass pipeline.
///
/// `PassPlan::from_options` reproduces exactly what the boolean knobs on
/// [`CompileOptions`] used to hard-wire; [`o0`](PassPlan::o0)/
/// [`o1`](PassPlan::o1)/[`o2`](PassPlan::o2) are conventional presets;
/// [`without`](PassPlan::without) and [`with_pass`](PassPlan::with_pass)
/// edit a plan per pass — the ablation bench drives every axis this way.
#[derive(Clone)]
pub struct PassPlan {
    passes: Vec<Arc<dyn Pass>>,
    strict: bool,
    budgets: Budgets,
    salvage: bool,
}

impl fmt::Debug for PassPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassPlan")
            .field("passes", &self.names())
            .field("strict", &self.strict)
            .field("budgets", &self.budgets)
            .field("salvage", &self.salvage)
            .finish()
    }
}

impl Default for PassPlan {
    fn default() -> Self {
        PassPlan::from_options(&CompileOptions::default())
    }
}

impl PassPlan {
    /// The plan equivalent to compiling with `opts` — the single source
    /// of truth the boolean-steered pipeline now delegates to.
    pub fn from_options(opts: &CompileOptions) -> Self {
        let mut passes: Vec<Arc<dyn Pass>> = Vec::new();
        if opts.fold_constants {
            passes.push(Arc::new(FoldPass));
        }
        if opts.cse {
            passes.push(Arc::new(TreeifyPass));
        }
        passes.push(Arc::new(SelectPass {
            rules: opts.rules,
            variant_limit: opts.variant_limit,
            reference: false,
            dag_cover: opts.dag_cover,
        }));
        passes.push(Arc::new(LayoutPass));
        if opts.offset_assignment {
            passes.push(Arc::new(OffsetPass));
        }
        if opts.bank_assignment {
            passes.push(Arc::new(BanksPass));
        }
        passes.push(Arc::new(AddressPass));
        if opts.compact {
            passes.push(Arc::new(CompactPass { schedule: opts.schedule }));
            passes.push(Arc::new(HoistPass));
        }
        passes.push(Arc::new(ModesPass { strategy: opts.mode_strategy }));
        if opts.use_rpt {
            passes.push(Arc::new(RptPass));
        }
        PassPlan { passes, strict: cfg!(debug_assertions), budgets: opts.budgets, salvage: true }
    }

    /// `O0`: every optimization off — the naive macro-expander end of the
    /// ablation axis ([`CompileOptions::nothing`]).
    pub fn o0() -> Self {
        PassPlan::from_options(&CompileOptions::nothing())
    }

    /// `O1`: code-level optimizations (variants, CSE, compaction,
    /// hardware repeat) without the memory-layout ones (offset and bank
    /// assignment).
    pub fn o1() -> Self {
        PassPlan::from_options(&CompileOptions {
            offset_assignment: false,
            bank_assignment: false,
            ..CompileOptions::default()
        })
    }

    /// `O2`: everything on ([`CompileOptions::default`]).
    pub fn o2() -> Self {
        PassPlan::from_options(&CompileOptions::default())
    }

    /// Removes every pass named `name`. Unknown names are a no-op, so
    /// ablation axes compose freely.
    #[must_use]
    pub fn without(mut self, name: &str) -> Self {
        self.passes.retain(|p| p.name() != name);
        self
    }

    /// Appends a (possibly custom) pass to the end of the plan.
    #[must_use]
    pub fn with_pass(mut self, pass: Arc<dyn Pass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// Replaces the pass named `name` in place (first match) or appends
    /// when absent.
    #[must_use]
    pub fn replacing(mut self, name: &str, pass: Arc<dyn Pass>) -> Self {
        match self.passes.iter().position(|p| p.name() == name) {
            Some(ix) => self.passes[ix] = pass,
            None => self.passes.push(pass),
        }
        self
    }

    /// Sets strict verification explicitly (defaults to on in debug
    /// builds, off in release): the runner verifies the unit between
    /// passes, and `select` probes every statement it emits on the
    /// simulator ([`CompilationUnit::strict`]).
    #[must_use]
    pub fn strict(mut self, on: bool) -> Self {
        self.strict = on;
        self
    }

    /// Whether the runner verifies between passes.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Sets the resource caps the passes run under.
    #[must_use]
    pub fn with_budgets(mut self, budgets: Budgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// The resource caps the passes run under.
    pub fn budgets(&self) -> &Budgets {
        &self.budgets
    }

    /// Sets the whole-compile wall-clock deadline: the runner checks it
    /// at every pass boundary and clamps each search budget to it, so a
    /// compile past `at` returns [`CompileError::Budget`] with resource
    /// `"deadline"` instead of running to completion. The earlier
    /// deadline wins when one is already set. Deliberately *excluded*
    /// from [`fingerprint`](PassPlan::fingerprint): a deadline decides
    /// whether a compile finishes, never what code it produces, so
    /// deadline-carrying plans still share cached code.
    #[must_use]
    pub fn deadline(mut self, at: Instant) -> Self {
        self.budgets = self.budgets.with_deadline(at);
        self
    }

    /// Enables or disables graceful degradation: with salvaging on (the
    /// default), a failing *best-effort* pass is dropped and the plan
    /// retried by [`Compiler::compile`](crate::Compiler::compile)
    /// instead of failing the compile.
    #[must_use]
    pub fn salvaging(mut self, on: bool) -> Self {
        self.salvage = on;
        self
    }

    /// Whether the driver may drop failing best-effort passes.
    pub fn allows_salvage(&self) -> bool {
        self.salvage
    }

    /// This plan with every best-effort pass removed — the plainest
    /// (mandatory-stages-only) pipeline it can degrade to; used as the
    /// reference compile when validating salvaged output.
    #[must_use]
    pub fn mandatory_only(&self) -> Self {
        let mut plan = self.clone();
        plan.passes.retain(|p| !p.best_effort());
        plan
    }

    /// The registered pass names, in execution order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// The passes themselves.
    pub fn passes(&self) -> &[Arc<dyn Pass>] {
        &self.passes
    }

    /// A stable 64-bit fingerprint of everything about this plan that
    /// affects the code it produces: the ordered pass names, each
    /// pass's [`config_fingerprint`](Pass::config_fingerprint), the
    /// salvage switch, and the budgets (a tighter budget can change the
    /// outcome, so it keys the cache too). Strictness is *excluded* —
    /// it only adds verification, never changes output. Stable across
    /// processes: the compile cache persists it to disk.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = record_trace::codec::StableHasher::new();
        h.write_u64(self.passes.len() as u64);
        for pass in &self.passes {
            let name = pass.name();
            h.write_u64(name.len() as u64);
            h.write(name.as_bytes());
            h.write_u64(pass.config_fingerprint());
        }
        h.write_u8(u8::from(self.salvage));
        let opt_usize = |h: &mut record_trace::codec::StableHasher, v: Option<usize>| match v {
            None => h.write_u8(0),
            Some(n) => {
                h.write_u8(1);
                h.write_u64(n as u64);
            }
        };
        let opt_u64 = |h: &mut record_trace::codec::StableHasher, v: Option<u64>| match v {
            None => h.write_u8(0),
            Some(n) => {
                h.write_u8(1);
                h.write_u64(n);
            }
        };
        opt_usize(&mut h, self.budgets.max_lir_nodes);
        opt_usize(&mut h, self.budgets.max_variants);
        opt_u64(&mut h, self.budgets.max_schedule_steps);
        opt_u64(&mut h, self.budgets.max_search_steps);
        match self.budgets.pass_deadline {
            None => h.write_u8(0),
            Some(d) => {
                h.write_u8(1);
                h.write_u64(d.as_micros() as u64);
            }
        }
        h.finish()
    }

    /// Runs the plan over `unit`, filling `timings` with one
    /// [`PassRecord`] per executed pass.
    ///
    /// Each pass runs inside `catch_unwind`: a panic is converted to
    /// [`CompileError::Internal`] naming the pass, so a poisoned kernel
    /// reports an error instead of unwinding through the caller (the
    /// unit may be left half-rewritten — rebuild it before retrying).
    ///
    /// # Errors
    ///
    /// The first pass failure, or — in strict mode — the first
    /// [`CompileError::Verify`] naming the pass whose output broke an
    /// invariant.
    pub fn run(
        &self,
        unit: &mut CompilationUnit<'_>,
        timings: &mut PhaseTimings,
    ) -> Result<(), CompileError> {
        self.run_inner(unit, timings).map_err(|f| f.error)
    }

    /// [`run`](PassPlan::run) keeping failure attribution: which pass
    /// failed and whether it was best-effort (salvageable). The salvage
    /// loop in `Compiler::compile` keys off this.
    pub(crate) fn run_inner(
        &self,
        unit: &mut CompilationUnit<'_>,
        timings: &mut PhaseTimings,
    ) -> Result<(), PassFailure> {
        unit.budgets = self.budgets;
        unit.strict = self.strict;
        if let Some(cap) = self.budgets.max_lir_nodes {
            let nodes = lir_nodes(&unit.lir.pool, &unit.lir.body);
            if nodes > cap {
                unit.trace.event(
                    "budget-exceeded",
                    &[("pass", "pipeline".into()), ("resource", "lir-nodes".into())],
                );
                return Err(PassFailure::anonymous(CompileError::Budget {
                    pass: "pipeline".into(),
                    resource: "lir-nodes".into(),
                }));
            }
        }
        timings.passes.reserve(self.passes.len());
        // nothing touches the code between two passes, so each pass's
        // `after` snapshot is the next one's `before`
        let mut before = CodeStats::of(&unit.code);
        for pass in &self.passes {
            // the whole-compile deadline is checked at every pass
            // boundary: a job admitted too late (or one whose earlier
            // passes ate the budget) stops here instead of running to
            // completion. Anonymous on purpose — retrying a blown
            // deadline via salvage would only burn more past-deadline
            // time.
            if let Some(hard) = self.budgets.hard_deadline {
                if Instant::now() >= hard {
                    unit.trace.event(
                        "budget-exceeded",
                        &[("pass", pass.name().into()), ("resource", "deadline".into())],
                    );
                    return Err(PassFailure::anonymous(CompileError::Budget {
                        pass: pass.name().into(),
                        resource: "deadline".into(),
                    }));
                }
            }
            unit.trace.open(pass.name());
            let t = Instant::now();
            let outcome =
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pass.run(unit))) {
                    Ok(result) => result,
                    Err(payload) => Err(CompileError::Internal {
                        pass: pass.name().to_string(),
                        message: panic_message(payload.as_ref()),
                    }),
                };
            let time = t.elapsed();
            let outcome = outcome.and_then(|()| {
                if self.strict {
                    let attribute =
                        |error| CompileError::Verify { pass: pass.name().to_string(), error };
                    unit.code.verify().map_err(attribute)?;
                    pass.postcondition(unit).map_err(attribute)?;
                }
                Ok(())
            });
            let after = CodeStats::of(&unit.code);
            if unit.trace.is_enabled() {
                unit.trace.attr("insns_before", before.insns);
                unit.trace.attr("insns_after", after.insns);
                unit.trace.attr("words_before", before.words);
                unit.trace.attr("words_after", after.words);
                if let Err(error) = &outcome {
                    let event = match error {
                        CompileError::Budget { .. } => "budget-exceeded",
                        CompileError::Verify { .. } => "verify-failure",
                        CompileError::Internal { .. } => "pass-panic",
                        _ => "pass-error",
                    };
                    unit.trace.event(event, &[("error", error.to_string().into())]);
                    unit.trace.attr("error", error.to_string());
                }
            }
            unit.trace.close();
            outcome.map_err(|error| PassFailure {
                pass: Some(pass.name()),
                best_effort: pass.best_effort(),
                error,
            })?;
            timings.passes.push(PassRecord { name: pass.name(), time, runs: 1, before, after });
            before = after;
        }
        if !self.strict {
            // the pre-pass-manager pipeline always verified the final
            // code; keep that guarantee even with inter-pass checks off
            unit.code.verify().map_err(|e| {
                PassFailure::anonymous(CompileError::Verify { pass: "pipeline".into(), error: e })
            })?;
        }
        timings.select = unit.select;
        timings.insns = unit.code.insns.len();
        Ok(())
    }
}

/// A pass failure with attribution, as produced by
/// [`PassPlan::run_inner`]: `pass` is `None` for failures outside any
/// single pass (the LIR-size gate, the final non-strict verify).
pub(crate) struct PassFailure {
    pub pass: Option<&'static str>,
    pub best_effort: bool,
    pub error: CompileError,
}

impl PassFailure {
    fn anonymous(error: CompileError) -> Self {
        PassFailure { pass: None, best_effort: false, error }
    }
}

/// Renders a caught panic payload (the `String`/`&str` cases cover
/// `panic!`/`assert!`; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Total tree-node count of a LIR body, each tree counted node by node
/// (the budgeted "DFG size").
fn lir_nodes(pool: &TreePool, items: &[LirItem]) -> usize {
    items
        .iter()
        .map(|item| match item {
            LirItem::Assign(a) => 1 + pool.node_count(a.src),
            LirItem::Loop { body, .. } => 1 + lir_nodes(pool, body),
        })
        .sum()
}

/// A [`SearchBudget`](record_opt::SearchBudget) for one pass execution:
/// the given step cap plus the plan's per-pass wall-clock deadline,
/// clamped by the whole-compile hard deadline when one is set (whichever
/// expires first stops the search).
fn search_budget(max_steps: Option<u64>, budgets: &Budgets) -> record_opt::SearchBudget {
    let per_pass = budgets.pass_deadline.map(|d| Instant::now() + d);
    let deadline = match (per_pass, budgets.hard_deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    record_opt::SearchBudget::new(max_steps, deadline)
}

// --------------------------------------------------------------------------
// The built-in passes
// --------------------------------------------------------------------------

/// Constant folding over the LIR ([`record_ir::fold`]). Off by default:
/// the paper measures RECORD without "standard optimization techniques".
struct FoldPass;

impl Pass for FoldPass {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        let width = unit.target.word_width;
        fn walk(pool: &mut TreePool, items: &mut [LirItem], width: u32) {
            for item in items {
                match item {
                    LirItem::Assign(a) => a.src = fold::fold(pool, a.src, width),
                    LirItem::Loop { body, .. } => walk(pool, body, width),
                }
            }
        }
        walk(&mut unit.lir.pool, &mut unit.lir.body, width);
        Ok(())
    }
}

/// Tree decomposition of each straight-line block's data-flow graph
/// (CSE, [`record_ir::treeify`]): shares common subexpressions within the
/// block, materializing them as temporaries appended to the unit's
/// storage. The trees that read the temporaries go into the program's
/// pool.
struct TreeifyPass;

impl Pass for TreeifyPass {
    fn name(&self) -> &'static str {
        "treeify"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        struct Blocks<'u> {
            pool: &'u mut TreePool,
            scratch: record_ir::treeify::TreeifyScratch,
            next_temp: usize,
            vars: &'u mut Vec<VarInfo>,
        }
        impl Blocks<'_> {
            fn flush(&mut self, block: &mut Vec<AssignStmt>, out: &mut Vec<LirItem>) {
                if block.is_empty() {
                    return;
                }
                let (forest, next) = record_ir::treeify::treeify_in(
                    self.pool,
                    std::mem::take(block),
                    self.next_temp,
                    &mut self.scratch,
                );
                self.next_temp = next;
                self.vars.extend(forest.temps.into_iter().map(|name| VarInfo {
                    name,
                    len: 1,
                    kind: StorageKind::Var,
                    bank: None,
                    is_fix: true,
                }));
                out.extend(forest.assigns.into_iter().map(LirItem::Assign));
            }

            fn walk(&mut self, items: Vec<LirItem>) -> Vec<LirItem> {
                let mut out = Vec::with_capacity(items.len());
                let mut block: Vec<AssignStmt> = Vec::new();
                for item in items {
                    match item {
                        LirItem::Assign(a) => block.push(a),
                        LirItem::Loop { var, count, body } => {
                            self.flush(&mut block, &mut out);
                            let body = self.walk(body);
                            out.push(LirItem::Loop { var, count, body });
                        }
                    }
                }
                self.flush(&mut block, &mut out);
                out
            }
        }
        let body = std::mem::take(&mut unit.lir.body);
        let mut blocks = Blocks {
            pool: &mut unit.lir.pool,
            scratch: Default::default(),
            next_temp: 0,
            vars: &mut unit.vars,
        };
        unit.lir.body = blocks.walk(body);
        Ok(())
    }
}

/// Variant enumeration, BURS covering and code emission — the heart of
/// the paper's retargetable selection (§4). Covers the LIR into
/// [`CompilationUnit::code`]; spill scratch cells join the storage list.
///
/// The emitter works in the program's pool, lent to it for the pass:
/// the statements are covered under the ids lowering and `treeify` gave
/// them, and their variants are interned next to them.
///
/// Each run selects in the [`SelectScratch`] the thread's previous run
/// left and leaves it for the next, failed runs included, so a thread's
/// compiles reuse one set of buffers.
///
/// Every straight-line block takes one path, whatever the plan's
/// budgets ([`Emitter::emit_block`]): each statement's cover is decided
/// from labels, then the block is emitted once. The emitter charges each
/// search to the budgets, so a variants cap fails the compile but never
/// changes its code. The default configuration streams interned
/// variants out of a hash-consing pool with memoized labelling;
/// `reference` switches to the boxed pre-interning path, which searches
/// and emits statement by statement (see [`reference_select_pass`]).
struct SelectPass {
    rules: RuleSet,
    variant_limit: usize,
    reference: bool,
    /// Cover straight-line statement runs as block DAGs: soundly repeated
    /// subtrees may be computed once into a parked register
    /// ([`Emitter::emit_block`]). Off in the reference pass — it stays
    /// the per-statement golden oracle DAG output is validated against.
    dag_cover: bool,
}

/// The version of the cover search, folded into the `select` pass's
/// configuration fingerprint so that a compile cache never answers with
/// code an older search chose. 1: commutation lives in the grammar (each
/// pattern rule's commuted twins), and the variant stream no longer
/// commutes.
const SEARCH_VERSION: u8 = 1;

/// A `select` pass running the boxed (pre-interning) selection path.
/// Produces byte-identical code to the default interned pass *with DAG
/// covering off* — the golden equivalence test compiles every kernel
/// through both, and the DAG-covering tests use it as the semantic
/// oracle. Swap it in with `plan.replacing("select", reference_select_pass(..))`.
pub fn reference_select_pass(rules: RuleSet, variant_limit: usize) -> Arc<dyn Pass> {
    Arc::new(SelectPass { rules, variant_limit, reference: true, dag_cover: false })
}

impl Pass for SelectPass {
    fn name(&self) -> &'static str {
        "select"
    }

    fn config_fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = record_trace::codec::StableHasher::new();
        h.write_u8(SEARCH_VERSION);
        h.write_u8(u8::from(self.rules.commutativity));
        h.write_u8(u8::from(self.rules.associativity));
        h.write_u8(u8::from(self.rules.mul_shift));
        h.write_u8(u8::from(self.rules.sub_neg));
        h.write_u64(self.variant_limit as u64);
        h.write_u8(u8::from(self.reference));
        h.write_u8(u8::from(self.dag_cover));
        h.finish()
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        let target = unit.target;
        let budgets = unit.budgets;
        let work = SelectScratch::take();
        let mut emitter = Emitter::with_scratch(target, Arc::clone(unit.tables), work);
        emitter.set_reference(self.reference);
        emitter.set_strict(unit.strict);
        emitter.set_search_cap(budgets.max_search_steps);
        emitter.set_budgets(budgets.max_variants, search_budget(None, &budgets));
        std::mem::swap(emitter.pool_mut(), &mut unit.lir.pool);
        let body = std::mem::take(&mut unit.lir.body);
        let mut insns: Vec<Insn> = Vec::new();
        let mut stats = SelectStats::default();
        let result =
            self.emit_rec(&body, target, &mut emitter, &mut Vec::new(), &mut insns, &mut stats);
        unit.lir.body = body;
        std::mem::swap(emitter.pool_mut(), &mut unit.lir.pool);
        unit.select.absorb(&stats);
        if unit.trace.is_enabled() {
            for (counter, value) in SelectStats::COUNTERS.iter().zip(stats.values()) {
                unit.trace.attr(counter.name, value);
            }
        }
        if result.is_ok() {
            for s in emitter.scratch_symbols() {
                unit.vars.push(VarInfo {
                    name: s.clone(),
                    len: 1,
                    kind: StorageKind::Var,
                    bank: None,
                    is_fix: true,
                });
            }
            unit.code.insns = insns;
        }
        emitter.into_scratch().retain(&unit.lir.pool);
        result
    }
}

impl SelectPass {
    /// Emits `items`, gathering each straight-line run of assignments in
    /// `block` (borrowed, empty between runs) before covering it.
    fn emit_rec<'a>(
        &self,
        items: &'a [LirItem],
        target: &TargetDesc,
        emitter: &mut Emitter<'_>,
        block: &mut Vec<&'a AssignStmt>,
        out: &mut Vec<Insn>,
        stats: &mut SelectStats,
    ) -> Result<(), CompileError> {
        // Consecutive assignments form a straight-line block; DAG
        // covering works across it, so gather runs and flush at loop
        // boundaries (the same block notion `treeify` uses).
        for item in items {
            match item {
                LirItem::Assign(stmt) => block.push(stmt),
                LirItem::Loop { var, count, body } => {
                    self.flush_block(block, emitter, out, stats)?;
                    let init = target.loop_ctrl.init_cost;
                    out.push(Insn::ctrl(
                        InsnKind::LoopStart { var: var.clone(), count: *count },
                        format!("LOOP #{count}"),
                        init.words,
                        init.cycles,
                    ));
                    self.emit_rec(body, target, emitter, block, out, stats)?;
                    let end = target.loop_ctrl.end_cost;
                    out.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLP", end.words, end.cycles));
                }
            }
        }
        self.flush_block(block, emitter, out, stats)
    }

    /// Emits a gathered straight-line block ([`Emitter::emit_block`]),
    /// with DAG shares when the pass runs with `dag_cover`. The emitter
    /// charges each statement's search to the plan's budgets.
    fn flush_block(
        &self,
        block: &mut Vec<&AssignStmt>,
        emitter: &mut Emitter<'_>,
        out: &mut Vec<Insn>,
        stats: &mut SelectStats,
    ) -> Result<(), CompileError> {
        if block.is_empty() {
            return Ok(());
        }
        let one =
            emitter.emit_block_into(block, &self.rules, self.variant_limit, self.dag_cover, out)?;
        stats.absorb(&one);
        stats.statements += block.len() as u64;
        block.clear();
        Ok(())
    }
}

/// Declaration-order storage layout: scalars first, then arrays, packed
/// from address zero per bank.
struct LayoutPass;

impl Pass for LayoutPass {
    fn name(&self) -> &'static str {
        "layout"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        let ordered = order_vars(&unit.vars, &unit.code, false);
        unit.code.layout = record_opt::layout_in_order(
            ordered.iter().map(|v| (v.name.clone(), v.len, v.bank)),
            unit.target,
        )?;
        Ok(())
    }

    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        placed(unit)
    }
}

/// Simple offset assignment: reorders scalars along the access sequence
/// (SOA) so auto-increment chains replace explicit pointer loads, then
/// rebuilds the layout in that order.
struct OffsetPass;

impl Pass for OffsetPass {
    fn name(&self) -> &'static str {
        "offset"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        let budget = search_budget(unit.budgets.max_search_steps, &unit.budgets);
        let result = order_vars_budgeted(&unit.vars, &unit.code, true, &budget);
        unit.trace.attr("search_steps", budget.steps());
        let ordered = result.map_err(|e| CompileError::Budget {
            pass: "offset".into(),
            resource: e.resource.into(),
        })?;
        unit.code.layout = record_opt::layout_in_order(
            ordered.iter().map(|v| (v.name.clone(), v.len, v.bank)),
            unit.target,
        )?;
        Ok(())
    }

    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        placed(unit)
    }

    fn best_effort(&self) -> bool {
        true
    }
}

/// Memory-bank assignment for dual-bank targets: places array operand
/// pairs in opposite banks so parallel moves can dual-fetch.
struct BanksPass;

impl Pass for BanksPass {
    fn name(&self) -> &'static str {
        "banks"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        if unit.target.memory.banks == 2 {
            let fixed: HashMap<Symbol, Bank> =
                unit.vars.iter().filter_map(|v| v.bank.map(|b| (v.name.clone(), b))).collect();
            let budget = search_budget(unit.budgets.max_search_steps, &unit.budgets);
            let result =
                record_opt::assign_banks_budgeted(&mut unit.code, unit.target, &fixed, &budget);
            unit.trace.attr("search_steps", budget.steps());
            result.map_err(|e| CompileError::Budget {
                pass: "banks".into(),
                resource: e.resource.into(),
            })?;
        }
        Ok(())
    }

    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        if unit.target.memory.banks < 2 {
            for entry in unit.code.layout.entries() {
                if entry.bank == Bank::Y {
                    return Err(StructureError::BadBank { sym: entry.sym.clone() });
                }
            }
        }
        placed(unit)
    }

    fn best_effort(&self) -> bool {
        true
    }
}

/// AGU addressing: resolves every symbolic memory operand to a direct or
/// register-indirect access, inserting address-register bookkeeping.
struct AddressPass;

impl Pass for AddressPass {
    fn name(&self) -> &'static str {
        "address"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        record_opt::assign_addresses(&mut unit.code, unit.target)?;
        Ok(())
    }

    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        // nothing may remain unresolved once addressing has run
        for (i, insn) in unit.code.insns.iter().enumerate() {
            if has_unresolved(insn) {
                return Err(StructureError::UnresolvedOperand { index: i });
            }
        }
        Ok(())
    }
}

/// Compaction: instruction fusion plus either list scheduling or
/// adjacent parallel-move packing, per the plan's [`ScheduleMode`].
struct CompactPass {
    schedule: Option<ScheduleMode>,
}

impl Pass for CompactPass {
    fn name(&self) -> &'static str {
        "compact"
    }

    fn config_fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = record_trace::codec::StableHasher::new();
        match self.schedule {
            None => h.write_u8(0),
            Some(ScheduleMode::List) => h.write_u8(1),
            Some(ScheduleMode::BranchAndBound { max_segment }) => {
                h.write_u8(2);
                h.write_u64(max_segment as u64);
            }
        }
        h.finish()
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        record_opt::fuse(&mut unit.code, unit.target);
        match self.schedule {
            Some(mode) => {
                let budget = search_budget(unit.budgets.max_schedule_steps, &unit.budgets);
                let result =
                    record_opt::schedule_budgeted(&mut unit.code, unit.target, mode, &budget);
                unit.trace.attr("search_steps", budget.steps());
                result.map_err(|e| CompileError::Budget {
                    pass: "compact".into(),
                    resource: e.resource.into(),
                })?;
            }
            None => {
                record_opt::pack_moves(&mut unit.code, unit.target);
            }
        }
        Ok(())
    }

    fn best_effort(&self) -> bool {
        true
    }
}

/// Loop-invariant prefix hoisting (runs only when compaction does, as in
/// the original pipeline).
struct HoistPass;

impl Pass for HoistPass {
    fn name(&self) -> &'static str {
        "hoist"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        record_opt::hoist_invariant_prefix(&mut unit.code);
        Ok(())
    }

    fn best_effort(&self) -> bool {
        true
    }
}

/// Residual control: inserts the mode-change instructions each
/// instruction's `mode_req` demands, lazily or per use.
struct ModesPass {
    strategy: ModeStrategy,
}

impl Pass for ModesPass {
    fn name(&self) -> &'static str {
        "modes"
    }

    fn config_fingerprint(&self) -> u64 {
        match self.strategy {
            ModeStrategy::Lazy => 1,
            ModeStrategy::PerUse => 2,
        }
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        record_opt::insert_mode_changes(&mut unit.code, unit.target, self.strategy);
        Ok(())
    }

    fn postcondition(&self, unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
        verify_modes(&unit.code, unit.target)
    }

    fn best_effort(&self) -> bool {
        true
    }
}

/// Hardware-repeat conversion: single-instruction loops become
/// `RPT`-style zero-overhead repeats where the target supports them.
struct RptPass;

impl Pass for RptPass {
    fn name(&self) -> &'static str {
        "rpt"
    }

    fn run(&self, unit: &mut CompilationUnit<'_>) -> Result<(), CompileError> {
        convert_rpt(&mut unit.code, unit.target);
        Ok(())
    }

    fn best_effort(&self) -> bool {
        true
    }
}

// --------------------------------------------------------------------------
// Shared postcondition helpers
// --------------------------------------------------------------------------

/// Every memory operand's base symbol must be placed in the layout
/// (spill pointer cells are appended by the address pass itself, so this
/// holds after every layout-shaping pass).
fn placed(unit: &CompilationUnit<'_>) -> Result<(), StructureError> {
    for insn in &unit.code.insns {
        let mut unplaced = None;
        insn.for_each_mem(&mut |m| {
            if unplaced.is_none() && unit.code.layout.entry(&m.base).is_none() {
                unplaced = Some(&m.base);
            }
        });
        if let Some(sym) = unplaced {
            return Err(StructureError::Unplaced { sym: sym.clone() });
        }
    }
    Ok(())
}

fn has_unresolved(insn: &Insn) -> bool {
    let mut any = false;
    insn.for_each_mem(&mut |m| any |= m.mode == AddrMode::Unresolved);
    any
}

/// Linear mode-state scan: starting from the target's power-on defaults,
/// every instruction's `mode_req` must hold under the `SetMode`s inserted
/// so far, and the state at each loop back edge must equal the state at
/// loop entry (otherwise iterations would run under varying modes).
fn verify_modes(code: &Code, target: &TargetDesc) -> Result<(), StructureError> {
    let mut state: Vec<bool> = target.modes.iter().map(|m| m.default_on).collect();
    let mut stack: Vec<Vec<bool>> = Vec::new();
    for (i, insn) in code.insns.iter().enumerate() {
        match &insn.kind {
            InsnKind::SetMode { mode, on } => match state.get_mut(*mode) {
                Some(slot) => *slot = *on,
                None => return Err(StructureError::UnknownMode { mode: *mode }),
            },
            InsnKind::LoopStart { .. } => stack.push(state.clone()),
            InsnKind::LoopEnd => {
                let entry = stack.pop().ok_or(StructureError::UnmatchedLoopEnd { index: i })?;
                if let Some(mode) = state.iter().zip(&entry).position(|(a, b)| a != b) {
                    return Err(StructureError::ModeLoopImbalance { index: i, mode });
                }
            }
            _ => {}
        }
        if let Some((mode, on)) = insn.mode_req {
            match state.get(mode) {
                Some(&actual) if actual == on => {}
                Some(_) => return Err(StructureError::ModeUnsatisfied { index: i, mode }),
                None => return Err(StructureError::UnknownMode { mode }),
            }
        }
    }
    Ok(())
}
