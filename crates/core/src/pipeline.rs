//! The RECORD compiler pipeline (Fig. 2 of the paper).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use record_burg::Tables;
use record_ir::lir::{Lir, VarInfo};
use record_ir::transform::RuleSet;
use record_ir::{dfl, lower, Symbol};
use record_isa::netlist::Netlist;
use record_isa::{Code, Insn, InsnKind, TargetDesc};
use record_ise::ToTargetOptions;
use record_opt::compact::ScheduleMode;
use record_opt::modes::ModeStrategy;
use record_trace::SpanRecorder;

use crate::pass::CompilationUnit;
use crate::timing::{PhaseTimings, SalvageRecord};
use crate::{CompileError, PassPlan};

/// Resource budgets for one compilation: hard caps that turn the
/// superlinear searches (variant enumeration, branch-and-bound
/// compaction, offset/bank search) and oversized inputs into a prompt
/// [`CompileError::Budget`] instead of a hang or memory blow-up.
///
/// Every field is optional; the default ([`Budgets::unlimited`]) changes
/// nothing. [`Budgets::service`] is a preset sized for compiling
/// untrusted kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Cap on LIR tree nodes entering the backend (checked before the
    /// first pass; resource `"lir-nodes"`).
    pub max_lir_nodes: Option<usize>,
    /// Cap on tree variants enumerated across the whole program during
    /// selection (resource `"variants"`).
    pub max_variants: Option<usize>,
    /// Step cap for compaction's branch-and-bound scheduler (resource
    /// `"steps"` on pass `compact`).
    pub max_schedule_steps: Option<u64>,
    /// Step cap for the offset- and bank-assignment searches (resource
    /// `"steps"` on passes `offset`/`banks`).
    pub max_search_steps: Option<u64>,
    /// Wall-clock deadline applied to each search-based pass
    /// individually (resource `"deadline"`).
    pub pass_deadline: Option<Duration>,
    /// Absolute wall-clock deadline for the *whole* compile: checked
    /// before every pass and folded into each pass's search budget, so
    /// a job admitted late (a queued batch slot, a daemon request) stops
    /// promptly with `Budget { resource: "deadline" }` instead of
    /// running to completion. Excluded from
    /// [`PassPlan::fingerprint`]: a deadline only decides *whether*
    /// a compile finishes, never what code it produces, so cached code
    /// stays shareable across requests with different deadlines.
    pub hard_deadline: Option<std::time::Instant>,
}

impl Budgets {
    /// No caps at all — identical behavior to the pre-budget pipeline.
    pub fn unlimited() -> Self {
        Budgets::default()
    }

    /// A preset sized for a service compiling untrusted kernels: large
    /// enough that every DSPStone kernel compiles untouched, small
    /// enough that adversarial inputs fail in well under a second.
    pub fn service() -> Self {
        Budgets {
            max_lir_nodes: Some(1_000_000),
            max_variants: Some(1_000_000),
            max_schedule_steps: Some(5_000_000),
            max_search_steps: Some(20_000_000),
            pass_deadline: Some(Duration::from_secs(10)),
            hard_deadline: None,
        }
    }

    /// This budget set with the whole-compile wall-clock deadline set to
    /// `at` (the earlier one wins when one is already set).
    #[must_use]
    pub fn with_deadline(mut self, at: std::time::Instant) -> Self {
        self.hard_deadline = Some(match self.hard_deadline {
            Some(existing) => existing.min(at),
            None => at,
        });
        self
    }
}

/// Everything a compilation can toggle — one knob per optimization the
/// paper catalogues, so the ablation benches can isolate each design
/// choice.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Algebraic rewrite rules used for variant enumeration.
    pub rules: RuleSet,
    /// Maximum number of tree variants matched per statement.
    pub variant_limit: usize,
    /// Apply constant folding first. **Off by default**: the paper states
    /// RECORD "does not contain any standard optimization technique (such
    /// as constant folding)" and Table 1 was measured that way.
    pub fold_constants: bool,
    /// Share common subexpressions within each straight-line block: the
    /// `treeify` pass cuts the block's data-flow graph into trees at its
    /// multi-use values.
    pub cse: bool,
    /// Apply instruction fusion / parallel-move packing.
    pub compact: bool,
    /// Order scalars by simple offset assignment (vs declaration order).
    pub offset_assignment: bool,
    /// Optimize memory-bank assignment on dual-bank targets.
    pub bank_assignment: bool,
    /// How mode-change instructions are inserted.
    pub mode_strategy: ModeStrategy,
    /// Convert eligible single-instruction loops to hardware repeat.
    pub use_rpt: bool,
    /// Bundle-schedule straight-line segments (parallel-move targets);
    /// `None` uses the cheaper adjacent-packing pass.
    pub schedule: Option<ScheduleMode>,
    /// Cover straight-line blocks as DAGs over the interned pool:
    /// soundly repeated subtrees may be computed once into a parked
    /// register instead of once per statement. On by default; the
    /// reference selection pass always runs with it off.
    pub dag_cover: bool,
    /// Resource caps ([`Budgets::unlimited`] by default).
    pub budgets: Budgets,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            rules: RuleSet::all(),
            variant_limit: 32,
            fold_constants: false,
            cse: true,
            compact: true,
            offset_assignment: true,
            bank_assignment: true,
            mode_strategy: ModeStrategy::Lazy,
            use_rpt: true,
            schedule: None,
            dag_cover: true,
            budgets: Budgets::unlimited(),
        }
    }
}

impl CompileOptions {
    /// Every optimization off — the configuration closest to a naive
    /// macro expander (used as one end of the ablation axis).
    pub fn nothing() -> Self {
        CompileOptions {
            rules: RuleSet::none(),
            variant_limit: 1,
            fold_constants: false,
            cse: false,
            compact: false,
            offset_assignment: false,
            bank_assignment: false,
            mode_strategy: ModeStrategy::PerUse,
            use_rpt: false,
            schedule: None,
            dag_cover: false,
            budgets: Budgets::unlimited(),
        }
    }
}

/// What a compile starts from: mini-DFL source text, or a program that
/// is already lowered. Borrowed strings and [`Lir`]s convert into it, so
/// callers pass `&str`, `&String` or `&Lir` straight to
/// [`Compiler::compile`] and [`Session::compile`](crate::Session::compile).
#[derive(Clone, Copy, Debug)]
pub enum CompileInput<'a> {
    /// Source text, parsed and lowered as part of the compile.
    Source(&'a str),
    /// A lowered program.
    Lir(&'a Lir),
}

impl<'a> From<&'a str> for CompileInput<'a> {
    fn from(source: &'a str) -> Self {
        CompileInput::Source(source)
    }
}

impl<'a> From<&&'a str> for CompileInput<'a> {
    fn from(source: &&'a str) -> Self {
        CompileInput::Source(source)
    }
}

impl<'a> From<&'a String> for CompileInput<'a> {
    fn from(source: &'a String) -> Self {
        CompileInput::Source(source)
    }
}

impl<'a> From<&'a Lir> for CompileInput<'a> {
    fn from(lir: &'a Lir) -> Self {
        CompileInput::Lir(lir)
    }
}

/// How to run one compile. Every field is optional, and the default
/// request compiles with the caller's default plan, no deadline, and no
/// span recording. A [`PassPlan`] on its own converts into the request
/// that runs it.
///
/// ```
/// use record::{CompileRequest, Compiler, PassPlan};
///
/// let compiler = Compiler::for_target(record_isa::targets::tic25::target())?;
/// let src = "program p; var x, y: fix; begin y := x + 1; end";
/// let o2 = compiler.compile(src, CompileRequest::default())?;
/// let o0 = compiler.compile(src, PassPlan::o0())?;
/// assert!(o2.code.size_words() <= o0.code.size_words());
/// # Ok::<(), record::CompileError>(())
/// ```
#[derive(Debug, Default)]
pub struct CompileRequest<'r> {
    /// The pass plan to run. `None` runs [`PassPlan::default`] on a
    /// [`Compiler`], and the session's plan on a
    /// [`Session`](crate::Session).
    pub plan: Option<PassPlan>,
    /// An absolute wall-clock deadline for the whole compile, checked at
    /// every pass boundary and folded into each search budget (see
    /// [`PassPlan::deadline`]).
    pub deadline: Option<Instant>,
    /// A caller-owned recorder that receives this compile's spans and
    /// events, for request-scoped tracing.
    pub recorder: Option<&'r mut SpanRecorder>,
}

impl<'r> CompileRequest<'r> {
    /// This request, running `plan`.
    #[must_use]
    pub fn plan(mut self, plan: PassPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// This request, stopping at `at`.
    #[must_use]
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// This request, recording into `recorder`.
    #[must_use]
    pub fn recorder(mut self, recorder: &'r mut SpanRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

impl From<PassPlan> for CompileRequest<'_> {
    fn from(plan: PassPlan) -> Self {
        CompileRequest::default().plan(plan)
    }
}

/// A finished compile: the code, and where the time and work went.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The generated code.
    pub code: Code,
    /// Per-pass timings and work counters of this compile.
    pub timings: PhaseTimings,
}

/// The frontend half of a compile: the input as a lowered program, and
/// how long parsing and lowering took.
pub(crate) struct Frontend<'a> {
    /// The program: lowered here from source input (the compile takes it
    /// over), or the caller's.
    pub(crate) lir: Cow<'a, Lir>,
    pub(crate) time: FrontendTime,
}

/// How long a compile's parsing and lowering took.
#[derive(Clone, Copy)]
pub(crate) struct FrontendTime {
    parse: Duration,
    lower: Duration,
}

impl<'a> Frontend<'a> {
    /// Parses and lowers source input, each stage in its own span on
    /// `recorder`; a lowered program passes through untouched.
    pub(crate) fn run(
        input: CompileInput<'a>,
        recorder: &mut SpanRecorder,
    ) -> Result<Self, CompileError> {
        let source = match input {
            CompileInput::Lir(lir) => {
                let time = FrontendTime { parse: Duration::ZERO, lower: Duration::ZERO };
                return Ok(Frontend { lir: Cow::Borrowed(lir), time });
            }
            CompileInput::Source(source) => source,
        };
        let t_parse = Instant::now();
        let ast = stage(recorder, "parse", || dfl::parse(source))?;
        let parse = t_parse.elapsed();
        let t_lower = Instant::now();
        let lir = stage(recorder, "lower", || lower::lower(&ast))?;
        let time = FrontendTime { parse, lower: t_lower.elapsed() };
        Ok(Frontend { lir: Cow::Owned(lir), time })
    }
}

impl FrontendTime {
    /// Adds the frontend's time to a compile's `timings`.
    pub(crate) fn charge(self, timings: &mut PhaseTimings) {
        timings.parse = self.parse;
        timings.lower = self.lower;
        timings.total += self.parse + self.lower;
    }
}

/// Runs one frontend stage inside a span named `name`, attaching the
/// error to the span when the stage fails.
fn stage<T, E: std::fmt::Display>(
    recorder: &mut SpanRecorder,
    name: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    recorder.open(name);
    let out = f();
    if let Err(e) = &out {
        recorder.attr("error", e.to_string());
    }
    recorder.close();
    out
}

/// A generated compiler for one target.
///
/// See the [crate docs](crate) for the full picture; in short:
///
/// ```
/// use record::{CompileRequest, Compiler};
///
/// let compiler = Compiler::for_target(record_isa::targets::tic25::target())?;
/// let code = compiler
///     .compile("program p; var x, y: fix; begin y := x + 1; end", CompileRequest::default())?
///     .code;
/// assert_eq!(code.target, "tic25");
/// # Ok::<(), record::CompileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    target: TargetDesc,
    /// BURS matcher tables, generated once per compiler and shared (via
    /// `Arc`) with every `Emitter` this compiler creates — including
    /// emitters running concurrently on other threads. Cloning a
    /// `Compiler` clones the handle, not the tables.
    tables: Arc<Tables>,
    /// Lazily computed [`stable_fingerprint`](Compiler::stable_fingerprint);
    /// cloning a compiler keeps the cached value.
    fingerprint: OnceLock<u64>,
}

impl Compiler {
    /// Generates a compiler from an explicit instruction-set description.
    ///
    /// The BURS matcher tables are generated here, once; every subsequent
    /// [`compile`](Compiler::compile) reuses them.
    ///
    /// # Errors
    ///
    /// [`CompileError::Target`] if the description fails validation.
    pub fn for_target(target: TargetDesc) -> Result<Self, CompileError> {
        target.validate().map_err(|e| CompileError::Target(crate::TargetError::Invalid(e)))?;
        Ok(Compiler::with_target(target))
    }

    /// Generates a compiler from an RT-level netlist via instruction-set
    /// extraction — the full left branch of Fig. 2.
    ///
    /// Returns the compiler and the number of extracted instructions that
    /// could not be mapped to grammar rules.
    ///
    /// # Errors
    ///
    /// [`CompileError::Target`] if extraction or conversion fails.
    pub fn from_netlist(
        name: &str,
        netlist: &Netlist,
        opts: &ToTargetOptions,
    ) -> Result<(Self, usize), CompileError> {
        let insns = record_ise::normalize(
            record_ise::extract(netlist)
                .map_err(|e| CompileError::Target(crate::TargetError::Invalid(e)))?,
        );
        let (target, skipped) = record_ise::to_target(name, netlist, &insns, opts)
            .map_err(|e| CompileError::Target(crate::TargetError::Invalid(e)))?;
        Ok((Compiler::with_target(target), skipped))
    }

    /// The compiler of a valid target: its tables generated, and the
    /// grammar normalized for their label automaton.
    fn with_target(target: TargetDesc) -> Self {
        let tables = Arc::new(Tables::build(&target));
        tables.prepare(&target);
        Compiler { target, tables, fingerprint: OnceLock::new() }
    }

    /// The target this compiler was generated for.
    pub fn target(&self) -> &TargetDesc {
        &self.target
    }

    /// The generated BURS matcher tables (shared, immutable).
    pub fn tables(&self) -> &Arc<Tables> {
        &self.tables
    }

    /// A stable 64-bit fingerprint of the target description — the
    /// cross-process target half of a compile-cache key. Computed once
    /// (FNV-1a over the `TargetDesc`'s `Hash` derivation, *not* the
    /// randomly keyed `DefaultHasher`) and cached in the compiler.
    pub fn stable_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            use std::hash::{Hash, Hasher};
            let mut h = record_trace::codec::StableHasher::new();
            self.target.hash(&mut h);
            h.finish()
        })
    }

    /// Compiles `input` — mini-DFL source text or a lowered program — the
    /// way `req` asks: under its plan ([`PassPlan::default`] when unset),
    /// its whole-compile deadline, and into its span recorder.
    ///
    /// When a *best-effort* pass (an optimization: offset, banks,
    /// compact, hoist, modes, rpt) panics, fails strict verification or
    /// exhausts its budget, the compile is **salvaged**: the plan is
    /// retried from a fresh unit with that pass removed, the event is
    /// recorded in [`PhaseTimings::salvages`], and the degraded output
    /// is validated bit-exactly against a mandatory-passes-only compile
    /// on the simulator. Mandatory passes (fold, treeify, select,
    /// layout, address) and custom passes still hard-fail. Salvaging can
    /// be disabled per plan with [`PassPlan::salvaging`].
    ///
    /// A recorder in `req` receives `parse` and `lower` spans (source
    /// input only), then one `compile` root span (attributes `kernel`,
    /// `target`, and on completion `insns`/`words` or `error`) whose
    /// children are the executed passes, with `salvage` events marking
    /// every dropped best-effort pass. Without one the cost is a branch
    /// per pass.
    ///
    /// # Errors
    ///
    /// See [`CompileError`]. In strict plans a broken pass surfaces as
    /// [`CompileError::Verify`] naming the pass; a panicking pass that
    /// could not be salvaged (or whose salvage failed validation) as
    /// [`CompileError::Internal`]; an exhausted resource cap or a passed
    /// deadline as [`CompileError::Budget`].
    pub fn compile<'a, 'r>(
        &self,
        input: impl Into<CompileInput<'a>>,
        req: impl Into<CompileRequest<'r>>,
    ) -> Result<Compiled, CompileError> {
        let req = req.into();
        let mut disabled = SpanRecorder::disabled();
        let recorder = req.recorder.unwrap_or(&mut disabled);
        let frontend = Frontend::run(input.into(), recorder)?;
        let plan = Cow::Owned(req.plan.unwrap_or_default());
        let mut compiled = self.run_plan(frontend.lir, plan, req.deadline, recorder)?;
        frontend.time.charge(&mut compiled.timings);
        Ok(compiled)
    }

    /// Runs `plan`, with `deadline` folded in, over `lir`, salvaging
    /// failed best-effort passes, with the passes' spans nested in a
    /// `compile` span on `recorder`. A borrowed plan is copied only to
    /// fold in a deadline or drop a salvaged pass. An owned program is
    /// compiled in place; a borrowed one is copied, its pool flat.
    pub(crate) fn run_plan(
        &self,
        lir: Cow<'_, Lir>,
        mut plan: Cow<'_, PassPlan>,
        deadline: Option<Instant>,
        recorder: &mut SpanRecorder,
    ) -> Result<Compiled, CompileError> {
        if let Some(at) = deadline {
            plan = Cow::Owned(plan.into_owned().deadline(at));
        }
        let start = Instant::now();
        recorder.open("compile");
        if recorder.is_enabled() {
            recorder.attr("kernel", lir.name.to_string());
            recorder.attr("target", self.target.name.clone());
        }
        // the body the passes start from, which a salvage restart puts
        // back (the passes rewrite the unit's)
        let (body, mut unit) = match lir {
            Cow::Borrowed(lir) => (
                Cow::Borrowed(lir.body.as_slice()),
                CompilationUnit::new(&self.target, &self.tables, lir),
            ),
            Cow::Owned(lir) => {
                (Cow::Owned(lir.body.clone()), CompilationUnit::of(&self.target, &self.tables, lir))
            }
        };
        let mut salvages: Vec<SalvageRecord> = Vec::new();
        let result = loop {
            let mut timings = PhaseTimings::default();
            // the recorder rides inside the unit while the passes run
            // (its open `compile` span survives salvage retries)
            unit.trace = std::mem::take(recorder);
            let run = plan.run_inner(&mut unit, &mut timings);
            *recorder = std::mem::take(&mut unit.trace);
            match run {
                Ok(()) => {
                    if !salvages.is_empty() {
                        // the program as given: the pool only grew
                        let program = Lir {
                            name: unit.lir.name.clone(),
                            vars: unit.lir.vars.clone(),
                            body: body.to_vec(),
                            pool: unit.lir.pool.clone(),
                        };
                        if let Err(e) =
                            self.validate_salvage(&program, &plan, &unit.code, &salvages)
                        {
                            break Err(e);
                        }
                    }
                    timings.salvages = salvages;
                    timings.total = start.elapsed();
                    break Ok(Compiled { code: std::mem::take(&mut unit.code), timings });
                }
                Err(failure) => {
                    let pass = match failure.pass {
                        Some(name) if failure.best_effort && plan.allows_salvage() => name,
                        _ => break Err(failure.error),
                    };
                    recorder.event(
                        "salvage",
                        &[("pass", pass.into()), ("reason", failure.error.to_string().into())],
                    );
                    salvages.push(SalvageRecord {
                        pass: pass.to_string(),
                        reason: failure.error.to_string(),
                    });
                    plan = Cow::Owned(plan.into_owned().without(pass));
                    // the retry starts over from the program as given: a
                    // panicking pass may have left the unit half-rewritten
                    unit.restart(&body);
                }
            }
        };
        match &result {
            Ok(compiled) => {
                recorder.attr("insns", compiled.code.insns.len());
                recorder.attr("words", compiled.code.size_words());
            }
            Err(e) => recorder.attr("error", e.to_string()),
        }
        recorder.close();
        result
    }

    /// Bit-exact validation of a salvaged compile: the same LIR is
    /// compiled with every best-effort pass stripped (mandatory passes
    /// only — the plainest code this plan can produce) and both programs
    /// run on the simulator with deterministic pseudo-random inputs; any
    /// output divergence rejects the salvage.
    fn validate_salvage(
        &self,
        lir: &Lir,
        plan: &PassPlan,
        salvaged: &Code,
        salvages: &[SalvageRecord],
    ) -> Result<(), CompileError> {
        let culprit = salvages.last().map(|s| s.pass.clone()).unwrap_or_default();
        let fail = |message: String| CompileError::Internal { pass: culprit.clone(), message };

        let baseline_plan = plan.mandatory_only();
        let mut timings = PhaseTimings::default();
        let mut unit = CompilationUnit::new(&self.target, &self.tables, lir);
        baseline_plan
            .run(&mut unit, &mut timings)
            .map_err(|e| fail(format!("salvage validation baseline failed to compile: {e}")))?;

        let inputs = deterministic_inputs(lir);
        let run = |code: &Code, label: &str| {
            record_sim::run_program(code, &self.target, &inputs)
                .map(|(out, _)| out)
                .map_err(|e| fail(format!("salvage validation: {label} run failed: {e}")))
        };
        let got = run(salvaged, "salvaged")?;
        let want = run(&unit.code, "baseline")?;
        for v in &lir.vars {
            if got.get(&v.name) != want.get(&v.name) {
                return Err(fail(format!(
                    "salvage validation mismatch on `{}`: {:?} vs baseline {:?}",
                    v.name,
                    got.get(&v.name),
                    want.get(&v.name)
                )));
            }
        }
        Ok(())
    }
}

/// Deterministic pseudo-random inputs for salvage validation: every
/// `in` variable gets splitmix64-derived values, identical across runs.
fn deterministic_inputs(lir: &Lir) -> HashMap<Symbol, Vec<i64>> {
    let mut state = 0x5EED_BA5E_D00D_F00Du64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    lir.vars
        .iter()
        .filter(|v| v.kind == record_ir::lir::StorageKind::In)
        .map(|v| {
            let values = (0..v.len.max(1)).map(|_| (next() % 65_536) as i64 - 32_768).collect();
            (v.name.clone(), values)
        })
        .collect()
}

/// Orders variables for layout: scalars first (SOA order when enabled,
/// else declaration order), then arrays.
///
/// Every variable appears exactly once in the result, even if the input
/// carries duplicate names (e.g. a program variable colliding with a
/// generated temporary) or the SOA access sequence mentions a symbol
/// repeatedly; zero-length variables are kept (they occupy a name but no
/// storage) rather than silently dropped from the layout.
pub(crate) fn order_vars<'v>(vars: &'v [VarInfo], code: &Code, soa: bool) -> Vec<&'v VarInfo> {
    order_vars_budgeted(vars, code, soa, &record_opt::SearchBudget::unlimited())
        .expect("unlimited budget never fires")
}

/// [`order_vars`] with the SOA search running under a [`record_opt::SearchBudget`].
pub(crate) fn order_vars_budgeted<'v>(
    vars: &'v [VarInfo],
    code: &Code,
    soa: bool,
    budget: &record_opt::SearchBudget,
) -> Result<Vec<&'v VarInfo>, record_opt::BudgetExceeded> {
    // a name declared more than once stands for its last declaration
    let mut by_name: HashMap<&Symbol, usize> = HashMap::with_capacity(vars.len());
    for (i, v) in vars.iter().enumerate() {
        by_name.insert(&v.name, i);
    }
    let unique = by_name.len() == vars.len();
    let named = |i: usize| if unique { i } else { by_name[&vars[i].name] };
    // placed names, by the index of the declaration they stand for
    let mut placed = vec![false; vars.len()];
    let mut out: Vec<&VarInfo> = Vec::with_capacity(by_name.len());
    if soa {
        // scalar access sequence, in code order, as variable indices
        let mut accesses: Vec<u32> = Vec::new();
        for insn in &code.insns {
            insn.for_each_mem(&mut |m| {
                if m.index.is_none() {
                    if let Some(&i) = by_name.get(&m.base) {
                        if vars[i].len == 1 {
                            accesses.push(i as u32);
                        }
                    }
                }
            });
        }
        for i in record_opt::soa_order_ids(&accesses, vars.len(), budget)? {
            let i = i as usize;
            if !std::mem::replace(&mut placed[i], true) {
                out.push(&vars[i]);
            }
        }
    }
    // remaining scalars (and zero-length placeholders) in declaration
    // order, then arrays
    for scalars in [true, false] {
        for (i, v) in vars.iter().enumerate() {
            if (v.len <= 1) == scalars && !std::mem::replace(&mut placed[named(i)], true) {
                out.push(v);
            }
        }
    }
    Ok(out)
}

/// Replaces `[LoopStart; single repeatable insn; LoopEnd]` with
/// `[Rpt; insn]` where the target supports hardware repeat; returns the
/// number of conversions. Code without such a loop is left untouched.
pub fn convert_rpt(code: &mut Code, target: &TargetDesc) -> u32 {
    let Some(rpt) = &target.loop_ctrl.rpt else {
        return 0;
    };
    // the trip count of a convertible loop starting at `i`
    let convertible = |insns: &[Insn], i: usize| -> Option<u32> {
        if i + 2 >= insns.len() {
            return None;
        }
        let (InsnKind::LoopStart { var, count }, InsnKind::Compute { .. }, InsnKind::LoopEnd) =
            (&insns[i].kind, &insns[i + 1].kind, &insns[i + 2].kind)
        else {
            return None;
        };
        let eligible =
            *count >= 1 && *count <= rpt.max_count && !references_counter(&insns[i + 1], var);
        eligible.then_some(*count)
    };
    let insns = &mut code.insns;
    let Some(first) = (0..insns.len()).find(|&i| convertible(insns, i).is_some()) else {
        return 0;
    };
    // compact in place from the first conversion: `read` scans the
    // original order, kept instructions move down to `write`, and each
    // conversion leaves its `LoopEnd` behind for the final truncate
    let mut converted = 0u32;
    let (mut read, mut write) = (first, first);
    while read < insns.len() {
        if let Some(count) = convertible(insns, read) {
            insns[read] = Insn::ctrl(
                InsnKind::Rpt { count },
                format!("RPTK #{count}"),
                rpt.cost.words,
                rpt.cost.cycles,
            );
            insns.swap(write, read);
            insns.swap(write + 1, read + 1);
            converted += 1;
            write += 2;
            read += 3;
        } else {
            insns.swap(write, read);
            write += 1;
            read += 1;
        }
    }
    insns.truncate(write);
    converted
}

/// `true` if any operand still resolves through the loop counter
/// symbolically (such a loop cannot become a hardware repeat).
fn references_counter(insn: &Insn, var: &Symbol) -> bool {
    let mut any = false;
    insn.for_each_mem(&mut |m| {
        any |= m.index.as_ref() == Some(var) && m.mode == record_isa::AddrMode::Unresolved;
    });
    any
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::lir::StorageKind;
    use record_ir::Bank;
    use record_isa::Loc;
    use record_sim::run_program;
    use std::collections::HashMap as Map;

    fn tic25_compiler() -> Compiler {
        Compiler::for_target(record_isa::targets::tic25::target()).unwrap()
    }

    const FIR_SRC: &str = "
        program fir;
        const N = 8;
        in x: fix[N];
        in c: fix[N];
        out y: fix;
        begin
          y := 0;
          for i in 0..N-1 loop
            y := y + c[i] * x[i];
          end loop;
        end
    ";

    #[test]
    fn compiles_and_validates_fir() {
        let compiler = tic25_compiler();
        let code = compiler.compile(FIR_SRC, CompileRequest::default()).unwrap().code;
        code.verify().unwrap();
        // run against the reference dot product
        let x: Vec<i64> = (1..=8).collect();
        let c: Vec<i64> = (1..=8).map(|v| v * 3).collect();
        let expect: i64 = x.iter().zip(&c).map(|(a, b)| a * b).sum();
        let inputs: Map<Symbol, Vec<i64>> =
            [(Symbol::new("x"), x), (Symbol::new("c"), c)].into_iter().collect();
        let (out, result) = run_program(&code, compiler.target(), &inputs).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![expect]);
        assert!(result.cycles > 0);
    }

    #[test]
    fn optimized_is_never_larger_than_unoptimized() {
        let compiler = tic25_compiler();
        let ast = dfl::parse(FIR_SRC).unwrap();
        let lir = lower::lower(&ast).unwrap();
        let optimized = compiler
            .compile(&lir, PassPlan::from_options(&CompileOptions::default()))
            .unwrap()
            .code;
        let plain = compiler
            .compile(&lir, PassPlan::from_options(&CompileOptions::nothing()))
            .unwrap()
            .code;
        assert!(
            optimized.size_words() <= plain.size_words(),
            "opt {} vs plain {}",
            optimized.size_words(),
            plain.size_words()
        );
    }

    #[test]
    fn options_produce_equivalent_results() {
        let compiler = tic25_compiler();
        let ast = dfl::parse(FIR_SRC).unwrap();
        let lir = lower::lower(&ast).unwrap();
        let x: Vec<i64> = (0..8).map(|v| v * 7 - 11).collect();
        let c: Vec<i64> = (0..8).map(|v| 5 - v).collect();
        let inputs: Map<Symbol, Vec<i64>> =
            [(Symbol::new("x"), x.clone()), (Symbol::new("c"), c.clone())].into_iter().collect();
        let expect: i64 = x.iter().zip(&c).map(|(a, b)| a * b).sum();
        for opts in [
            CompileOptions::default(),
            CompileOptions::nothing(),
            CompileOptions { compact: false, ..CompileOptions::default() },
            CompileOptions { use_rpt: false, ..CompileOptions::default() },
            CompileOptions { offset_assignment: false, ..CompileOptions::default() },
            CompileOptions { fold_constants: true, ..CompileOptions::default() },
        ] {
            let code = compiler.compile(&lir, PassPlan::from_options(&opts)).unwrap().code;
            let (out, _) = run_program(&code, compiler.target(), &inputs).unwrap();
            assert_eq!(out[&Symbol::new("y")], vec![expect], "opts {opts:?}");
        }
    }

    #[test]
    fn from_netlist_end_to_end() {
        // Fig. 2's left branch: netlist → ISE → compiler → code → simulator
        let netlist = record_ise::demo::acc_machine_netlist();
        let (compiler, _skipped) =
            Compiler::from_netlist("accgen", &netlist, &Default::default()).unwrap();
        let code = compiler
            .compile(
                "program p; var a, b, y: fix; begin y := a + b - 3; end",
                CompileRequest::default(),
            )
            .unwrap()
            .code;
        let inputs: Map<Symbol, Vec<i64>> =
            [(Symbol::new("a"), vec![10]), (Symbol::new("b"), vec![20])].into_iter().collect();
        let (out, _) = run_program(&code, compiler.target(), &inputs).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![27]);
    }

    #[test]
    fn rpt_conversion_fires_on_single_insn_loops() {
        let compiler = tic25_compiler();
        // y-accumulation compiles to >1 body insn; a pure copy loop
        // becomes LAC/SACL per element — still 2 insns. A constant fill
        // is 2 insns too (LACK/SACL). Use an array copy shifted so the
        // body after selection is LAC *ar+ ; SACL *ar+ — 2 insns; RPT
        // cannot fire. So check the negative case is handled gracefully
        // and the positive case via a hand-built loop.
        let code = compiler
            .compile(
                "program p; const N = 4; var a: fix[N]; var b: fix[N];
                 begin for i in 0..N-1 loop b[i] := a[i]; end loop; end",
                CompileRequest::default(),
            )
            .unwrap()
            .code;
        code.verify().unwrap();

        // hand-built single-insn loop
        let target = compiler.target().clone();
        let mut code2 = Code::default();
        code2.layout.place(Symbol::new("a"), 0, 4, Bank::X);
        code2.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
            "LOOP #4",
            2,
            2,
        ));
        code2.insns.push(Insn::mov(
            Loc::Mem(record_isa::MemLoc {
                base: Symbol::new("a"),
                disp: 0,
                index: None,
                down: false,
                bank: Bank::X,
                mode: record_isa::AddrMode::Indirect { ar: 0, post: 1 },
            }),
            Loc::Imm(7),
            "FILL",
            1,
            1,
        ));
        code2.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLP", 2, 3));
        let before = code2.size_words();
        let n = convert_rpt(&mut code2, &target);
        assert_eq!(n, 1);
        assert!(code2.size_words() < before);
        assert!(matches!(code2.insns[0].kind, InsnKind::Rpt { count: 4 }));
    }

    #[test]
    fn order_vars_dedups_and_keeps_zero_length_vars() {
        let mk = |name: &str, len: u32| VarInfo {
            name: Symbol::new(name),
            len,
            kind: StorageKind::Var,
            bank: None,
            is_fix: true,
        };
        // duplicate scalar, zero-length var, duplicate array
        let vars = vec![mk("a", 1), mk("a", 1), mk("z", 0), mk("arr", 4), mk("arr", 4), mk("b", 1)];
        let code = Code::default();
        for soa in [false, true] {
            let out = order_vars(&vars, &code, soa);
            let names: Vec<&str> = out.iter().map(|v| v.name.as_str()).collect();
            assert_eq!(out.len(), 4, "soa={soa}: {names:?}");
            for want in ["a", "z", "arr", "b"] {
                assert_eq!(names.iter().filter(|n| **n == want).count(), 1, "soa={soa}: {names:?}");
            }
            // arrays go last
            assert_eq!(*names.last().unwrap(), "arr", "soa={soa}: {names:?}");
        }
    }

    #[test]
    fn mode_requiring_single_insn_loops_still_become_rpt() {
        // the pipeline runs mode insertion *before* RPT conversion: the
        // lazy pass hoists the body's requirement into the preheader, so
        // the body stays single-instruction and the conversion fires with
        // no mode change trapped between RPT and its body.
        use record_isa::SemExpr;
        let target = record_isa::targets::tic25::target();
        let mut code = Code::default();
        code.layout.place(Symbol::new("x"), 0, 1, Bank::X);
        code.layout.place(Symbol::new("y"), 1, 1, Bank::X);
        code.insns.push(Insn::ctrl(
            InsnKind::LoopStart { var: Symbol::new("i"), count: 4 },
            "LOOP #4",
            2,
            2,
        ));
        let mut body = Insn::compute(
            Loc::Mem(record_isa::MemLoc::scalar("y")),
            SemExpr::bin(
                record_ir::BinOp::Add,
                SemExpr::loc(Loc::Mem(record_isa::MemLoc::scalar("y"))),
                SemExpr::loc(Loc::Mem(record_isa::MemLoc::scalar("x"))),
            ),
            "SAT-ACC",
            1,
            1,
        );
        body.mode_req = Some((0, true));
        code.insns.push(body);
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "ENDLP", 2, 3));

        record_opt::insert_mode_changes(&mut code, &target, ModeStrategy::Lazy);
        let n = convert_rpt(&mut code, &target);
        assert_eq!(n, 1, "{}", code.render());
        code.verify().unwrap();
        assert!(matches!(code.insns[0].kind, InsnKind::SetMode { on: true, .. }));
        assert!(matches!(code.insns[1].kind, InsnKind::Rpt { count: 4 }));
    }

    #[test]
    fn invalid_target_rejected() {
        let mut t = record_isa::targets::tic25::target();
        t.memory.banks = 3;
        assert!(matches!(Compiler::for_target(t), Err(CompileError::Target(_))));
    }

    #[test]
    fn nested_loop_program_runs() {
        let compiler = tic25_compiler();
        let code = compiler
            .compile(
                "program p; const N = 3; var a: fix[N]; out y: fix;
                 begin
                   for i in 0..N-1 loop
                     for j in 0..N-1 loop
                       y := y + a[j];
                     end loop;
                   end loop;
                 end",
                CompileRequest::default(),
            )
            .unwrap()
            .code;
        let inputs: Map<Symbol, Vec<i64>> =
            [(Symbol::new("a"), vec![1, 2, 3])].into_iter().collect();
        let (out, _) = run_program(&code, compiler.target(), &inputs).unwrap();
        assert_eq!(out[&Symbol::new("y")], vec![18]); // 3 * (1+2+3)
    }

    #[test]
    fn dsp56k_pipeline_produces_parallel_bundles() {
        let compiler = Compiler::for_target(record_isa::targets::dsp56k::target()).unwrap();
        let src = "
            program cm;
            in ar, ai, br, bi: fix;
            out cr, ci: fix;
            begin
              cr := ar * br - ai * bi;
              ci := ar * bi + ai * br;
            end
        ";
        let code = compiler.compile(src, CompileRequest::default()).unwrap().code;
        let inputs: Map<Symbol, Vec<i64>> = [
            (Symbol::new("ar"), vec![3]),
            (Symbol::new("ai"), vec![4]),
            (Symbol::new("br"), vec![5]),
            (Symbol::new("bi"), vec![6]),
        ]
        .into_iter()
        .collect();
        let (out, _) = run_program(&code, compiler.target(), &inputs).unwrap();
        assert_eq!(out[&Symbol::new("cr")], vec![3 * 5 - 4 * 6]);
        assert_eq!(out[&Symbol::new("ci")], vec![3 * 6 + 4 * 5]);
    }
}
