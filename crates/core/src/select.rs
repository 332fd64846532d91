//! Instruction selection: from covers to concrete instructions.
//!
//! The [`Emitter`] owns the generated matcher and turns each assignment
//! into machine instructions:
//!
//! 1. enumerate algebraic variants of the right-hand-side tree
//!    ([`record_ir::transform`]); commutation lives in the grammar
//!    instead, as every pattern rule's commuted twins, so the stream
//!    keeps only the rewrites that change a tree's shape,
//! 2. match every variant against every store candidate and keep the
//!    cheapest total cover — "the tree requiring the smallest number of
//!    covering patterns is then selected",
//! 3. walk the winning cover bottom-up, allocating registers for
//!    multi-member classes and scratch memory words for spill chains, and
//!    emit instructions in each rule's operand evaluation order, splitting
//!    the statement where the cover would overwrite a singleton register
//!    an operand still waits in (a register hazard).
//!
//! Register allocation here is the *tree-parsing* style for heterogeneous
//! register sets: the BURS nonterminals already decided which class each
//! value lives in; the emitter only picks member indices.

use std::borrow::{Borrow, Cow};
use std::cell::Cell;
use std::fmt::Write;
use std::sync::Arc;

use record_burg::{
    best_candidate, Cover, CoverBuf, CutSet, FlatOperand, LabelCache, LabelId, Matcher, Tables,
    SHARED_RULE,
};
use record_ir::transform::{variants, RuleSet, VariantStream};
use record_ir::{AssignStmt, BlockDag, DagScratch, MemRef, Symbol, TreeId, TreeNode, TreePool};
use record_isa::{
    Cost, Insn, InsnKind, Loc, MemLoc, NonTermId, NonTermKind, PatNode, RegId, Rhs, Rule, SemExpr,
    StructureError, TargetDesc,
};

use crate::CompileError;

/// The direction in which a selection counter regresses, as the perf
/// gate reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// Work done: worse when it rises.
    Work,
    /// Work avoided: worse when it falls.
    Savings,
}

/// One entry of [`SelectStats::COUNTERS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter {
    /// The field name: also the `select` span attribute and the
    /// `BENCH_compile.json` key.
    pub name: &'static str,
    /// The session metric, `record_<name>_total`.
    pub metric: &'static str,
    /// The direction the perf gate treats as a regression.
    pub gate: Gate,
}

/// Declares [`SelectStats`] from one list of counters, each a doc line,
/// a name and a [`Gate`]. The fields, `absorb`, `COUNTERS` and `values`
/// all come from the list, so adding a counter is one line here.
macro_rules! select_counters {
    ($($(#[$doc:meta])+ $name:ident: $gate:ident,)+) => {
        /// Selection statistics of a statement, a block, a pass or a whole
        /// session.
        ///
        /// Every counter is exact and platform-independent. The perf gate
        /// tracks each one in `BENCH_compile.json`, in the direction its
        /// [`Gate`] names.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct SelectStats {
            $($(#[$doc])+ pub $name: u64,)+
        }

        impl SelectStats {
            /// Every counter in declaration order: the order of the
            /// `select` span attributes and of the `BENCH_compile.json`
            /// keys.
            pub const COUNTERS: [Counter; [$(stringify!($name)),+].len()] = [$(Counter {
                name: stringify!($name),
                metric: concat!("record_", stringify!($name), "_total"),
                gate: Gate::$gate,
            }),+];

            /// Adds `other` into `self` (statement → block → pass →
            /// session).
            pub fn absorb(&mut self, other: &SelectStats) {
                $(self.$name += other.$name;)+
            }

            /// The counter values, in [`COUNTERS`](Self::COUNTERS) order.
            pub fn values(&self) -> [u64; SelectStats::COUNTERS.len()] {
                [$(self.$name),+]
            }
        }
    };
}

select_counters! {
    /// Statements selected (after tree decomposition).
    statements: Work,
    /// Variants enumerated.
    variants: Work,
    /// Variants that produced a legal cover.
    covered: Work,
    /// Distinct tree nodes newly interned into the pool.
    interned_nodes: Work,
    /// Node constructions answered by the pool (allocation avoided).
    dedup_hits: Savings,
    /// BURS label states computed from scratch.
    labels_computed: Work,
    /// BURS labellings answered from the memo cache (labelling avoided).
    labels_memoized: Savings,
    /// Already-generated variants skipped because the best cover could
    /// no longer be beaten (or the search budget ran out).
    variants_pruned: Savings,
    /// Candidate rewrites generated by the variant stream (enumeration
    /// work, before de-duplication).
    search_steps: Work,
    /// Soundly shareable multi-use subtrees detected by the block DAG
    /// analysis (sharing *candidates*, before the cost model runs).
    shared_subtrees: Savings,
    /// Candidates the cost model chose to compute once and reference
    /// from a parked register (DAG covering cuts accepted).
    shares_taken: Savings,
    /// Candidates the cost model chose to recompute at every use
    /// (sharing would not have paid on this target).
    recomputes_chosen: Work,
    /// Blocks whose emission with shares failed (a register class ran
    /// dry, or a definition or cut statement had a register hazard) and
    /// that were emitted again without them.
    share_fallbacks: Work,
}

/// The instruction selector for one target.
pub struct Emitter<'t> {
    target: &'t TargetDesc,
    matcher: Matcher<'t>,
    /// Use the boxed (non-interned) selection path. Slower but
    /// independent of the interning machinery; the golden byte-
    /// equivalence test pins the two paths against each other.
    reference: bool,
    /// Graceful cap on cumulative enumeration work (candidate rewrites
    /// generated): when exceeded, statements stop enumerating further
    /// variants instead of failing — selection is mandatory.
    step_cap: Option<u64>,
    steps_used: u64,
    /// Cap on the variants all searches may enumerate together: past it,
    /// selection fails with a `variants` budget error.
    variant_cap: Option<u64>,
    variants_used: u64,
    /// The step and deadline budget every search charges.
    budget: record_opt::SearchBudget,
    /// Probe every emitted statement on the simulator, and fail on a
    /// mismatch (see [`set_strict`](Self::set_strict)).
    strict: bool,
    /// The machine every verification probe runs on, reset before each
    /// seed (see [`verify_statement`](Self::verify_statement)). Built by
    /// the first probe, in the storage the scratch keeps for it, so an
    /// emitter that probes nothing builds none.
    probe: Option<record_sim::Machine<'t>>,
    /// The pool the statements' trees live in and variants are interned
    /// into. The `select` pass lends the emitter the program's pool; an
    /// emitter used on its own interns its statements into this one (see
    /// [`pool_mut`](Self::pool_mut)).
    pool: TreePool,
    /// Everything else selection works in, reset for this target when
    /// the emitter is built.
    work: SelectScratch,
    /// Every stage-C trial of [`emit_block`](Self::emit_block) as
    /// (statement root, trial cuts, label-only weight), so the tests can
    /// check each weight against a full reduction.
    #[cfg(test)]
    stage_c_trials: Vec<(record_ir::TreeId, CutSet, Option<u64>)>,
}

/// The most tree nodes one compile may ask its pool for, new or
/// deduplicated, or hold label states for, and still leave selection's
/// working memory to the next compile on the thread. Past it the
/// `select` pass drops that memory, so one large program cannot pin its
/// buffers in a thread for the thread's lifetime.
pub const MAX_RETAINED_NODES: usize = 1 << 16;

/// The working memory of selection: every store, queue, allocator and
/// buffer an [`Emitter`] owns, without the target they served.
///
/// [`Emitter::with_scratch`] selects in a scratch an earlier emitter
/// handed back through [`Emitter::into_scratch`], after resetting it for
/// the new target: the label store empty, the allocators sized for the
/// target's register classes with every register free and every cursor
/// at 0, no scratch symbol allocated. A reset scratch selects exactly as
/// a new one does; only its buffers' capacity carries over, never a
/// result. The `select` pass keeps one per thread this way, so a
/// thread's compiles stop growing the same buffers anew. (The tree pool
/// is the program's; a dropped pool leaves its buffers to the thread's
/// next one by itself.) Only a strict compile builds the probe's machine
/// and program in it (see [`Emitter::set_strict`]), so the scratch of a
/// thread that compiles only in release holds neither.
#[derive(Default)]
pub(crate) struct SelectScratch {
    /// Memoized label states keyed by interned tree id (one grammar, one
    /// pool — both fixed for the emitter's lifetime).
    label_cache: LabelCache,
    /// The variant stream, restarted for every statement.
    stream: VariantStream,
    /// Store candidates, hoisted out of the per-statement loop: the
    /// target's store rules are immutable for the emitter's lifetime.
    candidates: Vec<(NonTermId, Cost)>,
    /// Parking spots for block-shared values: the multi-member register
    /// nonterminals, with their class sizes.
    park_nts: Vec<(NonTermId, u16)>,
    /// Scratch memory words allocated for spill chains, reused across
    /// statements.
    scratch_pool: Vec<Symbol>,
    scratch_free: Vec<Symbol>,
    /// Per-class register occupancy (multi-member classes only).
    reg_used: Vec<Vec<bool>>,
    /// Per-class rotating allocation cursor. Round-robin allocation
    /// spreads consecutive values across class members, which gives the
    /// parallel-move scheduler independent registers to bundle.
    reg_cursor: Vec<u16>,
    /// Registers holding block-shared (DAG-cut) values: marked used for
    /// the rest of the block and exempt from per-statement release.
    held: Vec<Loc>,
    /// Location of each shared value, indexed by cut slot.
    shared_locs: Vec<Option<Loc>>,
    /// The probe machine's storage while no emitter runs the machine:
    /// empty until a strict compile on the thread probes a statement.
    machine: record_sim::MachineStorage,
    /// Working memory of selection, cleared between statements and
    /// blocks and never shrunk.
    buffers: Buffers,
}

thread_local! {
    /// The scratch the last compile on this thread left for the next.
    static RETAINED: Cell<Option<SelectScratch>> = const { Cell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// The probes this thread ran and the probe machines it built.
    static PROBES: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

impl SelectScratch {
    /// This thread's retained scratch, or a new one when it has none: on
    /// the thread's first compile, after a compile that outgrew
    /// [`MAX_RETAINED_NODES`], and in a compile nested in another (the
    /// outer one holds the scratch). The slot stays empty until
    /// [`retain`](Self::retain), so a compile that panics drops the
    /// scratch it took.
    pub(crate) fn take() -> SelectScratch {
        RETAINED.with(Cell::take).unwrap_or_default()
    }

    /// Leaves `self` to the next compile on this thread, unless `pool`,
    /// the pool selection worked in, was asked for more than
    /// [`MAX_RETAINED_NODES`] nodes or the label store holds more states:
    /// every buffer grows with one of the two (a tree that dedups to a
    /// few nodes still grows the cover and the probe with its size), so
    /// no compile pins more than the cap's worth of memory in a thread
    /// for the thread's lifetime.
    pub(crate) fn retain(self, pool: &TreePool) {
        let asked = pool.len() as u64 + pool.dedup_hits();
        if asked <= MAX_RETAINED_NODES as u64 && self.label_cache.len() <= MAX_RETAINED_NODES {
            RETAINED.with(|slot| slot.set(Some(self)));
        }
    }

    /// Empties every store and sizes the allocators for `target`.
    fn reset(&mut self, target: &TargetDesc) {
        self.label_cache.clear();
        self.stream.clear();
        self.candidates.clear();
        self.candidates.extend(target.stores.iter().map(|s| (s.nt, s.cost)));
        self.park_nts.clear();
        self.park_nts.extend(target.nonterms.iter().enumerate().filter_map(
            |(ix, nt)| match nt.kind {
                NonTermKind::Reg(class) if !target.class(class).is_singleton() => {
                    Some((NonTermId(ix as u16), target.class(class).count))
                }
                _ => None,
            },
        ));
        self.scratch_pool.clear();
        self.scratch_free.clear();
        self.reg_used.resize_with(target.reg_classes.len(), Vec::new);
        for (used, class) in self.reg_used.iter_mut().zip(&target.reg_classes) {
            used.clear();
            used.resize(class.count as usize, false);
        }
        self.reg_cursor.clear();
        self.reg_cursor.resize(target.reg_classes.len(), 0);
        self.held.clear();
        self.shared_locs.clear();
    }
}

/// The emitter's working memory. Everything here is scratch: it is
/// cleared before use, and what it holds between uses means nothing.
#[derive(Default)]
struct Buffers {
    /// The cover being emitted.
    cover: CoverBuf,
    /// Operand locations of the cover nodes being emitted, a stack with
    /// one frame per node.
    locs: Vec<Loc>,
    /// Whether the cover being emitted has a register hazard (see
    /// [`Emitter::emit_cover`]).
    hazard: bool,
    /// Each statement's plain winner, decided before the block emits.
    winners: Vec<Winner>,
    /// The block's DAG and the working state that builds it.
    dag: BlockDag,
    dag_scratch: DagScratch,
    /// Each statement's best known weight during stage C.
    current: Vec<u64>,
    /// Accepted cuts as (candidate index, parked nonterminal).
    accepted: Vec<(usize, NonTermId)>,
    /// The stage-C trial cut set, and the cuts of the statement being
    /// emitted.
    cuts: CutSet,
    /// Per-use weights a parking choice improves, for the choice being
    /// tried and for the best one so far.
    improved: Vec<(usize, u64)>,
    best_improved: Vec<(usize, u64)>,
    /// The chain costs from the parking nonterminal being tried, and per
    /// nonterminal whether they undercut the candidate's label there.
    reach: Vec<Option<record_burg::Entry>>,
    cheaper: Vec<bool>,
    /// Where the block's shared-value definitions sit in the output: a
    /// cut statement's probe, in a strict emitter, runs them ahead of its
    /// own code.
    parked: Vec<usize>,
    /// The register cursors as the block found them, restored when its
    /// shares do not fit.
    cursors: Vec<u16>,
    /// The verification probe's program and tables.
    probe: Probe,
}

/// A statement's cheapest plain cover, chosen from labels alone: the
/// label of the winning variant, the store rule its value goes through,
/// and the weight of the two together. A reduction is a pure function
/// of its label, so the cover is reduced only when it is emitted.
#[derive(Clone, Copy)]
struct Winner {
    label: LabelId,
    store: usize,
    weight: u64,
}

/// The verification probe: one program, rebuilt for every statement.
#[derive(Default)]
struct Probe {
    code: record_isa::Code,
    /// Every symbol the probe touches with the elements it holds, `lo`
    /// to `hi` exclusive, and the index of its first word in `words`,
    /// in layout (symbol) order.
    lens: Vec<(Symbol, i64, i64, usize)>,
    index_vars: Vec<Symbol>,
    /// Every probe word as (symbol in `lens`, element, address).
    words: Vec<(usize, i64, u16)>,
    /// The reference memory of a two-trip run: one value per word.
    memory: Vec<i64>,
    /// The destination words a two-trip run writes.
    dsts: Vec<usize>,
    /// The decoded program's vectors between probes.
    decoded: record_sim::DecodeBuffers,
}

impl Probe {
    /// The element `m` addresses on iteration `trip` of loops of `trips`
    /// trips, one per index variable, the first the outermost (a
    /// variable the code does not read stays 0).
    fn element(&self, m: &MemLoc, trip: usize, trips: usize) -> i64 {
        let Some(var) = &m.index else { return m.disp };
        let Some(at) = self.index_vars.iter().position(|v| v == var) else { return m.disp };
        let inner = trips.pow((self.index_vars.len() - 1 - at) as u32);
        let i = (trip / inner % trips) as i64;
        if m.down {
            m.disp - i
        } else {
            m.disp + i
        }
    }
}

impl<'t> Emitter<'t> {
    /// Generates the matcher and prepares the allocators.
    pub fn new(target: &'t TargetDesc) -> Self {
        Self::with_tables(target, Arc::new(Tables::build(target)))
    }

    /// Like [`Emitter::new`] but reuses already-generated matcher tables
    /// (see [`record_burg::Tables`]) instead of regenerating them.
    pub fn with_tables(target: &'t TargetDesc, tables: Arc<Tables>) -> Self {
        Self::with_scratch(target, tables, SelectScratch::default())
    }

    /// Like [`Emitter::with_tables`], selecting in `work`: a scratch an
    /// emitter for any target handed back (see [`SelectScratch`]). It is
    /// reset first, so this is the emitter `with_tables` builds.
    pub(crate) fn with_scratch(
        target: &'t TargetDesc,
        tables: Arc<Tables>,
        mut work: SelectScratch,
    ) -> Self {
        work.reset(target);
        Emitter {
            target,
            matcher: Matcher::with_tables(target, tables),
            reference: false,
            step_cap: None,
            steps_used: 0,
            variant_cap: None,
            variants_used: 0,
            budget: record_opt::SearchBudget::unlimited(),
            strict: cfg!(debug_assertions),
            probe: None,
            pool: TreePool::new(),
            work,
            #[cfg(test)]
            stage_c_trials: Vec::new(),
        }
    }

    /// Hands back the emitter's working memory, for the next emitter to
    /// select in (see [`with_scratch`](Self::with_scratch)).
    pub(crate) fn into_scratch(self) -> SelectScratch {
        let mut work = self.work;
        if let Some(machine) = self.probe {
            work.machine = machine.into_storage();
        }
        work
    }

    /// Switches to the boxed (pre-interning) selection path. Used by the
    /// reference pass and the byte-equivalence tests.
    pub fn set_reference(&mut self, on: bool) {
        self.reference = on;
    }

    /// Makes the emitter strict or not. Either way it finds register
    /// hazards while emitting and never keeps code that has one (see
    /// [`emit_block`](Self::emit_block)). A strict emitter also runs every
    /// statement it emits on the simulator and fails with
    /// [`CompileError::Verify`] when the result disagrees with the tree.
    /// The default follows a [`PassPlan`](crate::PassPlan)'s: strict in
    /// debug builds, not in release; the `select` pass takes its
    /// unit's [`strict`](crate::CompilationUnit::strict).
    pub(crate) fn set_strict(&mut self, on: bool) {
        self.strict = on;
    }

    /// Caps cumulative enumeration work (candidate rewrites generated
    /// across statements). Exceeding the cap degrades gracefully: later
    /// statements consider fewer variants but still compile.
    pub fn set_search_cap(&mut self, cap: Option<u64>) {
        self.step_cap = cap;
    }

    /// Sets the budgets selection fails on: a cap on the variants all
    /// searches enumerate together, and a step and deadline budget each
    /// search charges its variants to (at least one step per search).
    pub(crate) fn set_budgets(
        &mut self,
        max_variants: Option<usize>,
        budget: record_opt::SearchBudget,
    ) {
        self.variant_cap = max_variants.map(|cap| cap as u64);
        self.budget = budget;
    }

    /// The pool the emitter's statements and variants live in.
    pub fn pool(&self) -> &TreePool {
        &self.pool
    }

    /// The pool, to intern the trees of statements this emitter is to
    /// select ([`AssignStmt::new`] builds one from a boxed tree) or to
    /// swap a program's pool in and out.
    pub fn pool_mut(&mut self) -> &mut TreePool {
        &mut self.pool
    }

    /// The scratch symbols allocated so far (each one data word); the
    /// pipeline adds them to the layout.
    pub fn scratch_symbols(&self) -> &[Symbol] {
        &self.work.scratch_pool
    }

    /// The matcher (for diagnostics and benches).
    pub fn matcher(&self) -> &Matcher<'t> {
        &self.matcher
    }

    /// Selects and emits one assignment, whose tree lives in the
    /// emitter's [`pool`](Self::pool).
    ///
    /// `rules`/`variant_limit` control the algebraic enumeration. Under
    /// `rules.commutativity` every variant is labelled with the
    /// grammar's commuted twins, which cover each commuted form of it,
    /// and the stream does not commute (see
    /// [`LabelCache::set_twins`]); the boxed reference path enumerates
    /// the commuted trees instead.
    ///
    /// # Errors
    ///
    /// [`CompileError::Uncoverable`] when no variant derives to any store
    /// candidate; [`CompileError::OutOfRegisters`] when a class runs dry;
    /// in a strict emitter, [`CompileError::Verify`] when the code
    /// disagrees with the tree on the simulator.
    pub fn emit_assign(
        &mut self,
        stmt: &AssignStmt,
        rules: &RuleSet,
        variant_limit: usize,
    ) -> Result<(Vec<Insn>, SelectStats), CompileError> {
        let mut out = Vec::new();
        let stats = self.emit_plain(stmt, None, rules, variant_limit, &mut out)?;
        Ok((out, stats))
    }

    /// Selects and emits a whole basic block as a DAG: soundly repeated
    /// subtrees (see [`BlockDag`]) may be computed once into a parked
    /// register and referenced by every consumer statement. The
    /// statements' trees live in the emitter's [`pool`](Self::pool).
    ///
    /// Selection first decides, then emits:
    ///
    /// 1. **Decide** — every statement's variants are searched once, and
    ///    its cheapest plain cover is kept as a label, a store rule and a
    ///    weight; nothing is reduced yet.
    /// 2. **Analysis** — [`BlockDag::build`] reports the multi-use values
    ///    that are sound to share (no intervening store to memory they
    ///    read).
    /// 3. **Costing** — per candidate and per eligible register
    ///    nonterminal, `cost(share) = select_once + copies` is compared
    ///    against `cost(recompute) × uses`: the candidate is accepted only
    ///    when computing it once and covering each consumer with the
    ///    parked register (a [`SHARED_RULE`] cut) beats the consumers'
    ///    current best weights, read off their labels, by more than the
    ///    definition costs.
    /// 4. **Emission** — one walk over the block places each definition
    ///    immediately before its first consumer and emits each statement
    ///    once: its cut cover when that is strictly cheaper than its plain
    ///    winner, else the plain winner. Emission finds register hazards
    ///    as it goes (a rule writing a singleton register that an operand
    ///    still waits in): a plain statement with one is split, and a
    ///    definition or cut statement with one means the shares do not
    ///    fit. When they do not (a class runs dry, or a hazard), the block
    ///    is emitted again from the same winners without them, so DAG
    ///    covering never keeps code with a hazard. A strict emitter (as in
    ///    a strict [`PassPlan`](crate::PassPlan)) then probes every
    ///    statement it keeps on the simulator, a cut statement with the
    ///    definitions ahead of it.
    ///
    /// Only multi-member register classes are eligible parking spots: a
    /// singleton class (accumulator-style machines) cannot hold a value
    /// across statements without being clobbered.
    pub fn emit_block<S: Borrow<AssignStmt>>(
        &mut self,
        stmts: &[S],
        rules: &RuleSet,
        variant_limit: usize,
    ) -> Result<(Vec<Insn>, SelectStats), CompileError> {
        let stmts: Vec<&AssignStmt> = stmts.iter().map(Borrow::borrow).collect();
        let mut out = Vec::new();
        let stats = self.emit_block_into(&stmts, rules, variant_limit, true, &mut out)?;
        Ok((out, stats))
    }

    /// [`emit_block`](Self::emit_block), appending the instructions to
    /// `out`, with shares only when `share`. The boxed reference path
    /// decides nothing ahead and shares nothing: it searches and emits
    /// statement by statement. On an error, `out` may hold part of the
    /// block's code.
    pub(crate) fn emit_block_into(
        &mut self,
        stmts: &[&AssignStmt],
        rules: &RuleSet,
        variant_limit: usize,
        share: bool,
        out: &mut Vec<Insn>,
    ) -> Result<SelectStats, CompileError> {
        let mut stats = SelectStats::default();
        self.work.buffers.winners.clear();
        self.work.buffers.accepted.clear();
        if !self.reference {
            for stmt in stmts {
                let won = self.decide(stmt, rules, variant_limit, &mut stats)?;
                self.work.buffers.winners.push(won);
            }
            if share {
                self.choose_shares(stmts, &mut stats);
            }
        }

        let start = out.len();
        let scratch_words = self.work.scratch_pool.len();
        self.work.buffers.cursors.clone_from(&self.work.reg_cursor);
        let limits = (rules, variant_limit);
        let emitted = self.emit_once(stmts, limits, out, &mut stats);
        self.release_held();
        let shares = self.work.buffers.accepted.len() as u64;
        match emitted {
            Ok(true) => {
                stats.shares_taken += shares;
                return Ok(stats);
            }
            // a failed probe is a selection bug, never a reason to retry
            Err(e @ CompileError::Verify { .. }) => return Err(e),
            Err(e) if shares == 0 => return Err(e),
            Ok(false) | Err(_) => {}
        }
        // The shares do not fit: emit the block again without them, from
        // the allocator state it started in (no register is in use
        // between blocks).
        out.truncate(start);
        self.work.reg_used.iter_mut().for_each(|used| used.fill(false));
        self.work.reg_cursor.clone_from(&self.work.buffers.cursors);
        self.work.scratch_pool.truncate(scratch_words);
        self.work.scratch_free.clone_from(&self.work.scratch_pool);
        self.work.buffers.accepted.clear();
        stats.recomputes_chosen += shares;
        stats.share_fallbacks += 1;
        self.emit_once(stmts, limits, out, &mut stats)?;
        Ok(stats)
    }

    /// Stages B and C of [`emit_block`](Self::emit_block): builds the
    /// block's DAG and greedily accepts the cuts that pay under the
    /// share-vs-recompute cost model, into the `accepted` buffer.
    /// `current[s]`, statement `s`'s best known weight, starts at its
    /// plain winner's.
    fn choose_shares(&mut self, stmts: &[&AssignStmt], stats: &mut SelectStats) {
        let Buffers { dag, dag_scratch, .. } = &mut self.work.buffers;
        dag.rebuild(&self.pool, stmts, dag_scratch);
        stats.shared_subtrees += dag.shared.len() as u64;
        if self.work.park_nts.is_empty() {
            stats.recomputes_chosen += dag.shared.len() as u64;
            return;
        }
        let dag = std::mem::take(&mut self.work.buffers.dag);
        let mut current = std::mem::take(&mut self.work.buffers.current);
        current.clear();
        current.extend(self.work.buffers.winners.iter().map(|won| won.weight));
        let mut accepted = std::mem::take(&mut self.work.buffers.accepted);
        let mut improved = std::mem::take(&mut self.work.buffers.improved);
        let mut best_improved = std::mem::take(&mut self.work.buffers.best_improved);
        for (cand_ix, cand) in dag.shared.iter().enumerate() {
            // best parking choice: (gain, nonterminal); its per-use new
            // weights are in `best_improved`
            let mut best: Option<(i128, NonTermId)> = None;
            for &(nt, class_count) in &self.work.park_nts {
                // leave at least one class member free for per-statement
                // temporaries; the fallback still guards the hard limit
                let parked_here = accepted.iter().filter(|(_, n)| *n == nt).count();
                if parked_here + 1 >= class_count as usize {
                    continue;
                }
                // computing the value once into `nt`
                let def = count_labels(&mut self.work.label_cache, stats, |cache| {
                    self.matcher.label_interned(&self.pool, cand.id, cache)
                });
                let Some(def_cost) = self.work.label_cache.cost(def, nt) else { continue };
                let mut gain: i128 = -i128::from(def_cost.weight());
                improved.clear();
                // the nonterminals the parked value reaches more cheaply
                // than the candidate's label does
                let Buffers { reach, cheaper, .. } = &mut self.work.buffers;
                self.matcher.chain_costs(nt, reach);
                let weight = |e: &Option<record_burg::Entry>| e.map(|e| e.cost.weight());
                let plain = self.work.label_cache.entries(def);
                cheaper.clear();
                cheaper.extend(reach.iter().zip(plain).map(|(cut, plain)| {
                    match (weight(cut), weight(plain)) {
                        (Some(cut), Some(plain)) => cut < plain,
                        (cut, plain) => cut.is_some() && plain.is_none(),
                    }
                }));
                for &s in &cand.uses {
                    // a use that reads the candidate at none of them
                    // cannot gain: every cost above the cut stays
                    let cheaper = &self.work.buffers.cheaper;
                    let reads = |op, position| {
                        let mut nts = cheaper.iter().enumerate().filter(|(_, &c)| c);
                        nts.any(|(n, _)| {
                            self.matcher.reads_child_at(op, position, NonTermId(n as u16))
                        })
                    };
                    if !may_gain(&self.pool, dag.roots[s], cand.id, &reads) {
                        continue;
                    }
                    // trial cut set: this candidate plus every accepted cut
                    // that is sound in statement `s`
                    let trial = &mut self.work.buffers.cuts;
                    fill_cuts(trial, &dag, &accepted, s);
                    trial.insert(cand.id, (accepted.len(), nt));
                    // only the weight matters here: label, never reduce
                    let label = count_labels(&mut self.work.label_cache, stats, |cache| {
                        self.matcher.label_interned_cut(&self.pool, dag.roots[s], cache, trial)
                    });
                    let w = self.winner(label).map(|won| won.weight);
                    #[cfg(test)]
                    self.stage_c_trials.push((dag.roots[s], self.work.buffers.cuts.clone(), w));
                    if let Some(w) = w {
                        if w < current[s] {
                            gain += i128::from(current[s] - w);
                            improved.push((s, w));
                        }
                    }
                }
                let better = match &best {
                    None => gain > 0,
                    Some((g, _)) => gain > *g,
                };
                if better {
                    best = Some((gain, nt));
                    std::mem::swap(&mut improved, &mut best_improved);
                }
            }
            match best {
                Some((_, nt)) => {
                    for &(s, w) in &best_improved {
                        current[s] = current[s].min(w);
                    }
                    accepted.push((cand_ix, nt));
                }
                None => stats.recomputes_chosen += 1,
            }
        }
        self.work.buffers.dag = dag;
        self.work.buffers.current = current;
        self.work.buffers.accepted = accepted;
        self.work.buffers.improved = improved;
        self.work.buffers.best_improved = best_improved;
    }

    /// Emits the block once from its decisions: each accepted definition
    /// immediately before its first consumer, then each statement, its
    /// cut cover when that is strictly cheaper than its plain winner,
    /// else the plain winner (searched now on the reference path).
    /// `Ok(false)` when a definition or a cut statement has a register
    /// hazard.
    fn emit_once(
        &mut self,
        stmts: &[&AssignStmt],
        (rules, variant_limit): (&RuleSet, usize),
        out: &mut Vec<Insn>,
        stats: &mut SelectStats,
    ) -> Result<bool, CompileError> {
        let shares = self.work.buffers.accepted.len();
        self.work.shared_locs.clear();
        self.work.shared_locs.resize(shares, None);
        self.work.buffers.parked.clear();
        for (s, &stmt) in stmts.iter().enumerate() {
            for slot in 0..shares {
                let (cand_ix, nt) = self.work.buffers.accepted[slot];
                let cand = &self.work.buffers.dag.shared[cand_ix];
                if cand.first_use() != s {
                    continue;
                }
                let id = cand.id;
                let label = count_labels(&mut self.work.label_cache, stats, |cache| {
                    self.matcher.label_interned(&self.pool, id, cache)
                });
                let root = self.reduce(label, nt, false);
                let at = out.len();
                let loc = self.emit_buffered(root, out, Computing::Shared(slot))?;
                if self.work.buffers.hazard {
                    return Ok(false);
                }
                self.work.buffers.parked.extend(at..out.len());
                self.work.held.push(loc.clone());
                self.work.shared_locs[slot] = Some(loc);
            }

            let won = self.work.buffers.winners.get(s).copied();
            match won.and_then(|won| self.cut_cover(s, won.weight, stats)) {
                Some(cut) => {
                    let root = self.reduce(cut.label, self.target.stores[cut.store].nt, true);
                    // a probe runs the definitions ahead of the code: the
                    // cut statement reads the registers they fill
                    let parked = std::mem::take(&mut self.work.buffers.parked);
                    let kept = self.emit_checked(stmt, (cut.store, root), &parked, out);
                    self.work.buffers.parked = parked;
                    if !kept? {
                        return Ok(false);
                    }
                    self.work.scratch_free.clone_from(&self.work.scratch_pool);
                }
                None => stats.absorb(&self.emit_plain(stmt, won, rules, variant_limit, out)?),
            }
        }
        Ok(true)
    }

    /// Statement `s`'s cheapest cover under the accepted cuts it reads,
    /// when that is strictly cheaper than `plain`, the weight of its plain
    /// winner. Leaves the statement's cut set in the `cuts` buffer.
    fn cut_cover(&mut self, s: usize, plain: u64, stats: &mut SelectStats) -> Option<Winner> {
        let Buffers { cuts, dag, accepted, .. } = &mut self.work.buffers;
        fill_cuts(cuts, dag, accepted, s);
        if cuts.is_empty() {
            return None;
        }
        let root = dag.roots[s];
        let label = count_labels(&mut self.work.label_cache, stats, |cache| {
            self.matcher.label_interned_cut(&self.pool, root, cache, &self.work.buffers.cuts)
        });
        self.winner(label).filter(|cut| cut.weight < plain)
    }

    /// Emits `stmt` from its plain cover `won`, or from a search when
    /// `None`. Code with a register hazard is taken out again, and the
    /// statement split at an operand boundary; the halves are searched
    /// and emitted the same way. A strict emitter probes the code it
    /// keeps (see [`emit_checked`](Self::emit_checked)).
    fn emit_plain(
        &mut self,
        stmt: &AssignStmt,
        mut won: Option<Winner>,
        rules: &RuleSet,
        variant_limit: usize,
        out: &mut Vec<Insn>,
    ) -> Result<SelectStats, CompileError> {
        let mut stats = SelectStats::default();
        // The statement, then the halves of every split, last split
        // first.
        let mut next = Some(Cow::Borrowed(stmt));
        let mut split: Vec<AssignStmt> = Vec::new();
        while let Some(cur) = next.take().or_else(|| split.pop().map(Cow::Owned)) {
            let cover = self.plain_cover(&cur, won.take(), rules, variant_limit, &mut stats)?;
            if self.emit_checked(&cur, cover, &[], out)? {
                continue;
            }
            // Register hazard: the cover routed two values through the
            // same special register in a conflicting order. Split one
            // non-leaf operand into an explicit memory temporary and
            // retry — each split strictly shrinks the tree, so this
            // terminates.
            let Some((first, second)) = self.split_statement(&cur) else {
                return Err(CompileError::Target(crate::TargetError::Unsplittable {
                    stmt: cur.display(&self.pool).to_string(),
                }));
            };
            // process `first` next, then re-attempt `second`
            split.push(second);
            next = Some(Cow::Owned(first));
        }
        self.work.scratch_free.clone_from(&self.work.scratch_pool);
        Ok(stats)
    }

    /// Emits `stmt` as the cover `(store rule, root)` of the cover buffer.
    /// Code with a register hazard is taken out again: `Ok(false)`. A
    /// strict emitter probes the code it keeps, the instructions at
    /// `parked` in `out` ahead of it, and fails with
    /// [`CompileError::Verify`] when the probe disagrees with the tree.
    fn emit_checked(
        &mut self,
        stmt: &AssignStmt,
        (store, root): (usize, usize),
        parked: &[usize],
        out: &mut Vec<Insn>,
    ) -> Result<bool, CompileError> {
        let start = out.len();
        self.emit_stored(stmt, store, root, out)?;
        debug_assert!(
            self.work.reg_used.iter().enumerate().all(|(class, c)| {
                c.iter().enumerate().all(|(ix, u)| {
                    !u || self.work.held.iter().any(|h| {
                        matches!(h, Loc::Reg(r)
                            if r.class.0 as usize == class && r.index as usize == ix)
                    })
                })
            }),
            "register leak after statement"
        );
        if self.work.buffers.hazard {
            out.truncate(start);
            return Ok(false);
        }
        self.assert_probe(stmt, parked, out, start)?;
        Ok(true)
    }

    /// In a strict emitter, probes `out[start..]`, the code of `stmt`
    /// with the instructions at `parked` ahead of it, and fails with
    /// [`CompileError::Verify`] for `select` when the probe disagrees
    /// with the tree: the code has no register hazard, so the hazard rule
    /// missed one. A non-strict emitter checks nothing.
    fn assert_probe(
        &mut self,
        stmt: &AssignStmt,
        parked: &[usize],
        out: &mut Vec<Insn>,
        start: usize,
    ) -> Result<(), CompileError> {
        if !self.strict || self.verify_statement(stmt, parked, out, start) {
            return Ok(());
        }
        Err(CompileError::Verify {
            pass: "select".into(),
            error: StructureError::Miscompiled { stmt: stmt.display(&self.pool).to_string() },
        })
    }

    /// Reduces `label` for `goal` into the cover buffer — under the
    /// `cuts` buffer when `cut` — and returns the cover's root.
    fn reduce(&mut self, label: LabelId, goal: NonTermId, cut: bool) -> usize {
        let Buffers { cover, cuts, .. } = &mut self.work.buffers;
        cover.clear();
        let cuts = cut.then_some(&*cuts);
        self.matcher
            .reduce_into(&self.pool, &self.work.label_cache, label, goal, cuts, cover)
            .expect("a derivable label reduces")
    }

    /// The cheapest store of the node labelled `label`, as a winner.
    fn winner(&self, label: LabelId) -> Option<Winner> {
        let entries = self.work.label_cache.entries(label);
        let (nt, derive) = best_candidate(entries, &self.work.candidates)?;
        let store = self.store_index(nt);
        let weight = derive.add(self.target.stores[store].cost).weight();
        Some(Winner { label, store, weight })
    }

    /// The first store rule for a candidate nonterminal (candidates always
    /// come from the target's store table).
    fn store_index(&self, nt: NonTermId) -> usize {
        self.target.stores.iter().position(|s| s.nt == nt).expect("candidate came from stores")
    }

    /// Splits `dst := f(..., subtree, ...)` into
    /// `$sN := subtree; dst := f(..., Temp($sN), ...)`, choosing the first
    /// non-leaf operand of the root. The rebuilt tree is added to the
    /// pool.
    fn split_statement(&mut self, stmt: &AssignStmt) -> Option<(AssignStmt, AssignStmt)> {
        let pool = &mut self.pool;
        let mut kids = match *pool.node(stmt.src) {
            TreeNode::Bin(_, a, b) => vec![a, b],
            TreeNode::Un(_, a) => vec![a],
            _ => return None,
        };
        // prefer a computed operand; a constant leaf can also clobber
        // (it may route through the accumulator on its way to memory),
        // while memory leaves are always safe to read in place
        let computed = |id: &TreeId| matches!(pool.node(*id), TreeNode::Bin(..) | TreeNode::Un(..));
        let split_ix = kids
            .iter()
            .position(computed)
            .or_else(|| kids.iter().position(|id| matches!(pool.node(*id), TreeNode::Const(_))))?;
        // a dedicated, never-recycled cell (it lives across two statements)
        let name = Symbol::new(format!("$s{}", self.work.scratch_pool.len()));
        self.work.scratch_pool.push(name.clone());
        let first = AssignStmt { dst: MemRef::Scalar(name.clone()), src: kids[split_ix] };
        kids[split_ix] = pool.temp(name);
        let src = match *pool.node(stmt.src) {
            TreeNode::Bin(op, ..) => pool.bin(op, kids[0], kids[1]),
            TreeNode::Un(op, _) => pool.un(op, kids[0]),
            _ => unreachable!("only an operation splits"),
        };
        let second = AssignStmt { dst: stmt.dst.clone(), src };
        Some((first, second))
    }

    /// Executes the emitted instructions on the simulator with
    /// pseudo-random operand values and compares the destination against
    /// the tree's reference evaluation. Returns `true` when they agree on
    /// every probe.
    ///
    /// Only a strict emitter probes, after the emission found no register
    /// hazard, so a `false` here is a selection bug the hazard rule
    /// missed. The first run wraps the code in one-trip loops, so every
    /// index variable runs at 0. When the code reads an index variable,
    /// a second run wraps it in two-trip loops, over arrays one element
    /// longer: its reference replays the statement at index 0 and then at
    /// index 1 over the probe's memory, and every destination word must
    /// match. Two values that agree at index 0 then still differ at 1.
    ///
    /// The probe program is the instructions at `parked` in `insns` (the
    /// block-shared definitions a cut statement reads) followed by
    /// `insns[from..]`. The instructions are moved into the emitter's
    /// probe program and back, never copied. The
    /// program depends only on the code, so it is built, mode-completed
    /// and decoded once per run, and its symbols' addresses are resolved
    /// once; each of the four seeds then resets the emitter's probe
    /// machine (built by the emitter's first probe), pokes the inputs,
    /// executes and peeks the destination.
    fn verify_statement(
        &mut self,
        stmt: &AssignStmt,
        parked: &[usize],
        insns: &mut Vec<Insn>,
        from: usize,
    ) -> bool {
        #[cfg(test)]
        PROBES.with(|n| n.set((n.get().0 + 1, n.get().1)));
        let dst_loc = MemLoc::from_mem_ref(&stmt.dst);
        let probe = &mut self.work.buffers.probe;
        // Collect every symbol the statement and its code touch with the
        // elements either run reads or writes, in the symbol order the
        // probe lays them out in.
        probe.lens.clear();
        probe.index_vars.clear();
        {
            let Probe { lens, index_vars, .. } = probe;
            let mut note = |m: &MemLoc| {
                // an indexed access reaches one element further at index 1
                let next = match (&m.index, m.down) {
                    (None, _) => m.disp,
                    (Some(_), false) => m.disp + 1,
                    (Some(_), true) => m.disp - 1,
                };
                let (lo, hi) = (m.disp.min(next).min(0), m.disp.max(next) + 1);
                match lens.iter_mut().find(|(sym, ..)| *sym == m.base) {
                    Some((_, known_lo, known_hi, _)) => {
                        *known_lo = (*known_lo).min(lo);
                        *known_hi = (*known_hi).max(hi);
                    }
                    None => lens.push((m.base.clone(), lo, hi, 0)),
                }
                if let Some(v) = &m.index {
                    if !index_vars.contains(v) {
                        index_vars.push(v.clone());
                    }
                }
            };
            for insn in parked.iter().map(|&at| &insns[at]).chain(&insns[from..]) {
                if let InsnKind::Compute { dst, expr } = &insn.kind {
                    let mut visit = |l: &Loc| {
                        if let Loc::Mem(m) = l {
                            note(m);
                        }
                    };
                    expr.for_each_read(&mut visit);
                    visit(dst);
                }
            }
            note(&dst_loc);
            lens.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }

        // build the probe program around the instructions, the mode
        // changes spliced in
        let code = &mut probe.code;
        code.layout.clear();
        code.insns.clear();
        probe.words.clear();
        let mut addr = 0u16;
        for (ix, (sym, lo, hi, start)) in probe.lens.iter_mut().enumerate() {
            // element 0 sits `-lo` words in
            let zero = addr as i64 - *lo;
            code.layout.place(sym.clone(), zero as u16, *hi as u32, record_ir::Bank::X);
            *start = probe.words.len();
            probe.words.extend((*lo..*hi).map(|el| (ix, el, (zero + el) as u16)));
            addr += (*hi - *lo) as u16;
        }
        // one-trip loops around the code give every index variable the
        // value 0 (an empty text allocates nothing; the probe never
        // prints it)
        for v in &probe.index_vars {
            let start = InsnKind::LoopStart { var: v.clone(), count: 1 };
            code.insns.push(Insn::ctrl(start, String::new(), 0, 0));
        }
        let handed = parked.len() + insns.len() - from;
        let moved =
            |at: &usize| std::mem::replace(&mut insns[*at], Insn::ctrl(InsnKind::Nop, "", 0, 0));
        code.insns.extend(parked.iter().map(moved));
        code.insns.extend(insns.drain(from..));
        for _ in &probe.index_vars {
            code.insns.push(Insn::ctrl(InsnKind::LoopEnd, String::new(), 0, 0));
        }
        record_opt::insert_mode_changes(code, self.target, record_opt::ModeStrategy::Lazy);

        let target = self.target;
        let machine = self.probe.get_or_insert_with(|| {
            #[cfg(test)]
            PROBES.with(|n| n.set((n.get().0, n.get().1 + 1)));
            record_sim::Machine::with_storage(target, std::mem::take(&mut self.work.machine))
        });
        let verdict = run_probe(machine, probe, &self.pool, stmt, &dst_loc, target.word_width);

        // hand the instructions back, dropping the loops and mode changes
        let mut back = parked.iter();
        for insn in probe.code.insns.drain(..) {
            match insn.kind {
                InsnKind::LoopStart { .. } | InsnKind::LoopEnd | InsnKind::SetMode { .. } => {}
                _ => match back.next() {
                    Some(&at) => insns[at] = insn,
                    None => insns.push(insn),
                },
            }
        }
        debug_assert_eq!(parked.len() + insns.len() - from, handed, "probe lost an instruction");
        verdict
    }

    /// Decides `stmt`'s plain cover: the winner of its variant search,
    /// read off labels, under the budgets.
    fn decide(
        &mut self,
        stmt: &AssignStmt,
        rules: &RuleSet,
        variant_limit: usize,
        stats: &mut SelectStats,
    ) -> Result<Winner, CompileError> {
        self.searched(stmt, variant_limit, stats, |e, limit, one| {
            e.find_best_interned(stmt.src, rules, limit, one)
        })
    }

    /// Reduces `stmt`'s plain cover into the cover buffer — `won`, or
    /// the winner of a search under the budgets when `None` — and returns
    /// `(store rule, root)`.
    fn plain_cover(
        &mut self,
        stmt: &AssignStmt,
        won: Option<Winner>,
        rules: &RuleSet,
        variant_limit: usize,
        stats: &mut SelectStats,
    ) -> Result<(usize, usize), CompileError> {
        let won = match won {
            Some(won) => won,
            None if self.reference => {
                return self.searched(stmt, variant_limit, stats, |e, limit, one| {
                    let tree = e.pool.to_tree(stmt.src);
                    e.find_best_reference(&tree, rules, limit, one)
                })
            }
            None => self.decide(stmt, rules, variant_limit, stats)?,
        };
        Ok((won.store, self.reduce(won.label, self.target.stores[won.store].nt, false)))
    }

    /// Runs `search` for `stmt` with the variant limit the budgets leave,
    /// adds its counters to `stats` and charges its variants.
    fn searched<R>(
        &mut self,
        stmt: &AssignStmt,
        variant_limit: usize,
        stats: &mut SelectStats,
        search: impl FnOnce(&mut Self, usize, &mut SelectStats) -> Option<R>,
    ) -> Result<R, CompileError> {
        if self.work.candidates.is_empty() {
            return Err(CompileError::Target(crate::TargetError::NoStoreRules {
                target: self.target.name.to_string(),
            }));
        }
        // With a variants cap, don't enumerate past the point of no
        // return: `remaining + 1` keeps the over-cap check below firing
        // while the stream skips the unusable tail.
        let limit = match self.variant_cap {
            Some(cap) => {
                let remaining = cap.saturating_sub(self.variants_used).saturating_add(1);
                (variant_limit as u64).min(remaining) as usize
            }
            None => variant_limit,
        };
        let mut one = SelectStats::default();
        let found = search(self, limit, &mut one);
        stats.absorb(&one);
        let Some(found) = found else {
            return Err(CompileError::Uncoverable {
                stmt: stmt.display(&self.pool).to_string(),
                target: self.target.name.clone(),
            });
        };
        let exceeded = |resource: &str| CompileError::Budget {
            pass: "select".into(),
            resource: resource.to_string(),
        };
        self.variants_used += one.variants;
        // one charge per search: enough granularity for the per-pass
        // deadline without touching the clock inside variant enumeration
        self.budget.charge(one.variants.max(1)).map_err(|e| exceeded(e.resource))?;
        if self.variant_cap.is_some_and(|cap| self.variants_used > cap) {
            return Err(exceeded("variants"));
        }
        Ok(found)
    }

    /// The boxed reference selection loop: materializes every variant up
    /// front and matches each one. Kept verbatim as the semantic anchor
    /// the interned path is pinned against; the winning cover is copied
    /// into the cover buffer, and `(store rule, root node)` returned.
    fn find_best_reference(
        &mut self,
        base: &record_ir::Tree,
        rules: &RuleSet,
        variant_limit: usize,
        stats: &mut SelectStats,
    ) -> Option<(usize, usize)> {
        let mut best: Option<(Cost, usize, Cover)> = None;
        let all = variants(base, rules, variant_limit);
        stats.variants += all.len() as u64;
        for tree in all {
            if let Some((nt, cover)) = self.matcher.best_cover(&tree, &self.work.candidates) {
                stats.covered += 1;
                let store_ix = self.store_index(nt);
                let total = cover.cost.add(self.target.stores[store_ix].cost);
                let better = match &best {
                    None => true,
                    Some((bc, ..)) => total.weight() < bc.weight(),
                };
                if better {
                    best = Some((total, store_ix, cover));
                }
            }
        }
        let (_, store_ix, cover) = best?;
        self.work.buffers.cover.clear();
        Some((store_ix, self.work.buffers.cover.push_tree(&cover.root)))
    }

    /// The interned selection loop: streams variants lazily out of the
    /// hash-consing pool, memoizes label states per subtree, and stops as
    /// soon as the incumbent cover can no longer be beaten.
    ///
    /// Without `rules.commutativity` it picks the same cover as
    /// [`find_best_reference`](Self::find_best_reference): the stream
    /// yields the identical variant sequence, the interned matcher
    /// mirrors the boxed one, and the early exit fires only when the
    /// incumbent's weight is at most `floor` — every unseen variant's
    /// total is at least `floor` (cover cost is non-negative and each
    /// total includes one store), and the strict `<` selection would
    /// never replace the incumbent with an equal-weight cover. With it,
    /// commutation lives in the grammar: each variant is labelled with
    /// the rules' commuted twins, and the stream applies the other rules
    /// only, so one labelling weighs every commuted form of a variant
    /// that the boxed path enumerates one by one.
    ///
    /// Covering is cost-first: each variant is labelled and its total
    /// read off the label, and nothing is reduced. The incumbent changes
    /// only on a strict `<`, and a reduction is a pure function of its
    /// label, so reducing the winner's label later gives the cover a loop
    /// reducing every variant would pick.
    fn find_best_interned(
        &mut self,
        root: TreeId,
        rules: &RuleSet,
        variant_limit: usize,
        stats: &mut SelectStats,
    ) -> Option<Winner> {
        let pool_len0 = self.pool.len() as u64;
        let dedup0 = self.pool.dedup_hits();
        let hits0 = self.work.label_cache.hits();
        let misses0 = self.work.label_cache.misses();
        let floor = self.work.candidates.iter().map(|(_, c)| c.weight()).min()?;

        self.work.label_cache.set_twins(rules.commutativity);
        let shapes = RuleSet { commutativity: false, ..*rules };
        self.work.stream.restart(root, shapes, variant_limit);
        let mut best: Option<Winner> = None;
        while let Some(id) = self.work.stream.next(&mut self.pool) {
            stats.variants += 1;
            let label = self.matcher.label_interned(&self.pool, id, &mut self.work.label_cache);
            if let Some(won) = self.winner(label) {
                stats.covered += 1;
                if best.map_or(true, |best| won.weight < best.weight) {
                    best = Some(won);
                }
                if best.is_some_and(|best| best.weight <= floor) {
                    stats.variants_pruned += self.work.stream.pending() as u64;
                    break;
                }
            }
            if self.step_cap.is_some_and(|cap| self.steps_used + self.work.stream.steps() >= cap) {
                stats.variants_pruned += self.work.stream.pending() as u64;
                break;
            }
        }
        self.steps_used += self.work.stream.steps();
        stats.search_steps += self.work.stream.steps();
        stats.interned_nodes += self.pool.len() as u64 - pool_len0;
        stats.dedup_hits += self.pool.dedup_hits() - dedup0;
        stats.labels_memoized += self.work.label_cache.hits() - hits0;
        stats.labels_computed += self.work.label_cache.misses() - misses0;
        best
    }

    /// Emits `stmt` as the cover below `root` in the cover buffer
    /// followed by store rule `store`.
    fn emit_stored(
        &mut self,
        stmt: &AssignStmt,
        store: usize,
        root: usize,
        out: &mut Vec<Insn>,
    ) -> Result<(), CompileError> {
        let value = self.emit_buffered(root, out, Computing::Stmt(stmt))?;
        let store = &self.target.stores[store];
        let dst = Loc::Mem(MemLoc::from_mem_ref(&stmt.dst));
        let text = render_asm(self.target, &store.asm, &dst, std::slice::from_ref(&value));
        self.release(&value);
        let mut insn =
            Insn::compute(dst, SemExpr::Loc(value), text, store.cost.words, store.cost.cycles);
        insn.units = store.units;
        out.push(insn);
        Ok(())
    }

    /// Emits the cover below `root` in the cover buffer; returns the
    /// location of its value.
    fn emit_buffered(
        &mut self,
        root: usize,
        out: &mut Vec<Insn>,
        what: Computing<'_>,
    ) -> Result<Loc, CompileError> {
        self.work.buffers.locs.clear();
        self.work.buffers.hazard = false;
        let cover = std::mem::take(&mut self.work.buffers.cover);
        let value = self.emit_cover(&cover, root, out, what);
        self.work.buffers.cover = cover;
        value
    }

    /// Emits the instructions of a cover node; returns the location of
    /// its value. `what` names the value in an out-of-registers error and
    /// is only rendered then.
    ///
    /// The operand locations of the node are a frame on the emitter's
    /// location stack, popped when the node is emitted. The frames below
    /// hold the operands that enclosing nodes already computed and still
    /// wait on. A node whose rule writes a singleton register (tic25's
    /// `acc`, `p`, `t`) that one of them sits in overwrites it: a
    /// *register hazard*, noted in the `hazard` buffer for the caller to
    /// take the code out. Emission goes on to the end, so every register
    /// is released as usual. A multi-member destination never equals a
    /// waiting operand, since allocation skips members in use.
    fn emit_cover(
        &mut self,
        cover: &CoverBuf,
        node: usize,
        out: &mut Vec<Insn>,
        what: Computing<'_>,
    ) -> Result<Loc, CompileError> {
        let operands = cover.operands(node);
        // A shared-value reference emits nothing: the value already sits
        // in the register the block parked it in.
        if cover.rule(node) == SHARED_RULE {
            return Ok(self.operand_loc(&operands[0]));
        }
        // borrowed from the target, not the emitter, so `self` stays free
        // for the recursive calls below
        let target: &'t TargetDesc = self.target;
        let rule = target.rule(cover.rule(node));

        // Identity (base) rules: a leaf pattern with zero cost just
        // forwards its binding.
        if rule.cost.weight() == 0 {
            if let Rhs::Pat(PatNode::Op(op, _)) = &rule.rhs {
                if op.is_leaf() {
                    return Ok(self.operand_loc(&operands[0]));
                }
            }
        }

        // evaluate operands in the rule's order (left to right unless the
        // rule says otherwise)
        let n = operands.len();
        let frame = self.work.buffers.locs.len();
        self.work.buffers.locs.resize(frame + n, Loc::Imm(0));
        let ordered = rule.eval_order.iter().flatten().map(|&i| usize::from(i));
        let left_to_right = (0..n).filter(|_| rule.eval_order.is_none());
        for i in ordered.chain(left_to_right) {
            let loc = match &operands[i] {
                FlatOperand::Derived(child) => self.emit_cover(cover, *child, out, what)?,
                other => self.operand_loc(other),
            };
            self.work.buffers.locs[frame + i] = loc;
        }

        // destination for the produced value
        let dst = self.lhs_loc(rule, what)?;
        let singleton = matches!(&dst, Loc::Reg(r) if target.class(r.class).is_singleton());
        self.work.buffers.hazard |= singleton && self.work.buffers.locs[..frame].contains(&dst);
        let locs = &self.work.buffers.locs[frame..];

        // semantics from the pattern shape
        let expr = match &rule.rhs {
            Rhs::Chain(_) | Rhs::Pat(PatNode::Nt(_)) => SemExpr::Loc(locs[0].clone()),
            Rhs::Pat(pat) => {
                let mut next = 0usize;
                sem_from_pattern(pat, locs, &mut next)
            }
        };

        let text = render_asm(target, &rule.asm, &dst, locs);
        let mut insn = Insn::compute(dst.clone(), expr, text, rule.cost.words, rule.cost.cycles);
        insn.rule = Some(rule.id);
        insn.units = rule.units;
        insn.mode_sensitive = rule.mode_sensitive;
        insn.mode_req = rule.mode.or_else(|| {
            if rule.mode_sensitive {
                self.target.sat_mode().map(|m| (m, false))
            } else {
                None
            }
        });
        out.push(insn);

        // operands are dead now
        for loc in &self.work.buffers.locs[frame..] {
            release_in(target, &self.work.held, &mut self.work.reg_used, loc);
        }
        self.work.buffers.locs.truncate(frame);
        Ok(dst)
    }

    /// The location a rule's lhs value materializes in.
    fn lhs_loc(&mut self, rule: &Rule, what: Computing<'_>) -> Result<Loc, CompileError> {
        match self.target.nonterm(rule.lhs).kind {
            NonTermKind::Reg(class) => {
                let decl = self.target.class(class);
                if decl.is_singleton() {
                    return Ok(Loc::Reg(RegId::singleton(class)));
                }
                let count = decl.count;
                let cursor = &mut self.work.reg_cursor[class.0 as usize];
                let used = &mut self.work.reg_used[class.0 as usize];
                let mut pick = None;
                for k in 0..count {
                    let ix = ((*cursor + k) % count) as usize;
                    if !used[ix] {
                        pick = Some(ix);
                        break;
                    }
                }
                match pick {
                    Some(ix) => {
                        used[ix] = true;
                        *cursor = (ix as u16 + 1) % count;
                        Ok(Loc::Reg(RegId::new(class, ix as u16)))
                    }
                    None => Err(CompileError::OutOfRegisters {
                        class: decl.name.clone(),
                        stmt: match what {
                            Computing::Stmt(stmt) => stmt.display(&self.pool).to_string(),
                            Computing::Shared(slot) => format!("$dag{slot}"),
                        },
                    }),
                }
            }
            NonTermKind::Mem => {
                // spill chain: allocate a scratch word
                let sym = match self.work.scratch_free.pop() {
                    Some(s) => s,
                    None => {
                        let s = Symbol::new(format!("$s{}", self.work.scratch_pool.len()));
                        self.work.scratch_pool.push(s.clone());
                        s
                    }
                };
                Ok(Loc::Mem(MemLoc::scalar(sym)))
            }
            NonTermKind::Imm { .. } => {
                Err(CompileError::Target(crate::TargetError::RuleProducesImmediate {
                    rule: rule.id.to_string(),
                }))
            }
        }
    }

    fn operand_loc(&self, op: &FlatOperand) -> Loc {
        match op {
            FlatOperand::Const(v) => Loc::Imm(*v),
            FlatOperand::Mem(m) => Loc::Mem(MemLoc::from_mem_ref(m)),
            FlatOperand::Temp(t) => Loc::Mem(MemLoc::scalar(t.clone())),
            FlatOperand::Shared { slot, .. } => {
                self.work.shared_locs[*slot].clone().expect("shared value emitted before use")
            }
            FlatOperand::Derived(_) => unreachable!("derived operands are emitted"),
        }
    }

    /// Releases a multi-member register (singletons and memory are
    /// unaffected; scratch reuse is per-statement). Registers holding
    /// block-shared values stay parked until [`release_held`]
    /// (Self::release_held) at the end of the block.
    fn release(&mut self, loc: &Loc) {
        release_in(self.target, &self.work.held, &mut self.work.reg_used, loc);
    }

    /// Frees every register parked for a block-shared value; called once
    /// at the end of the block (successful or not).
    fn release_held(&mut self) {
        for loc in self.work.held.drain(..) {
            if let Loc::Reg(r) = loc {
                let class = &self.target.reg_classes[r.class.0 as usize];
                if !class.is_singleton() {
                    self.work.reg_used[r.class.0 as usize][r.index as usize] = false;
                }
            }
        }
        self.work.shared_locs.clear();
    }
}

/// What a cover being emitted computes, named in an out-of-registers
/// error.
#[derive(Clone, Copy)]
enum Computing<'s> {
    /// A statement's value.
    Stmt(&'s AssignStmt),
    /// The block-shared value parked in cut slot `n`, named `$dag{n}`.
    Shared(usize),
}

/// Releases `loc` when it is a multi-member register not holding a
/// block-shared value (see [`Emitter::release`]).
fn release_in(target: &TargetDesc, held: &[Loc], reg_used: &mut [Vec<bool>], loc: &Loc) {
    if let Loc::Reg(r) = loc {
        if held.contains(loc) {
            return;
        }
        if !target.reg_classes[r.class.0 as usize].is_singleton() {
            reg_used[r.class.0 as usize][r.index as usize] = false;
        }
    }
}

/// Runs the probe program of `probe` on `machine` under four seeds and
/// compares the destination with the reference evaluation of `stmt`,
/// first in one-trip loops and then, when the code reads an index
/// variable, in two-trip loops; `true` when they agree every time (or
/// the probe cannot be placed on the machine).
fn run_probe(
    machine: &mut record_sim::Machine<'_>,
    probe: &mut Probe,
    pool: &TreePool,
    stmt: &AssignStmt,
    dst_loc: &MemLoc,
    width: u32,
) -> bool {
    if probe.words.iter().any(|&(.., addr)| machine.peek_at(record_ir::Bank::X, addr).is_none()) {
        return true; // unplaceable probe: skip verification
    }
    let (mut memory, mut dsts) =
        (std::mem::take(&mut probe.memory), std::mem::take(&mut probe.dsts));
    let mut verdict = true;
    for trips in [1, 2] {
        if trips == 2 {
            if probe.index_vars.is_empty() {
                break;
            }
            for insn in &mut probe.code.insns {
                if let InsnKind::LoopStart { count, .. } = &mut insn.kind {
                    *count = 2;
                }
            }
        }
        let Ok(program) = machine.decode_reusing(&probe.code, &mut probe.decoded) else {
            verdict = false;
            break;
        };
        let reference = (pool, stmt, dst_loc);
        verdict =
            run_seeds(machine, &program, probe, reference, (&mut memory, &mut dsts), width, trips);
        program.recycle(&mut probe.decoded);
        if !verdict {
            break;
        }
    }
    (probe.memory, probe.dsts) = (memory, dsts);
    verdict
}

/// The probe's input value of element `ix` of `sym` under `seed`:
/// deterministic, bit-rich per-symbol-element values, so that value
/// coincidences (a clobbered computation accidentally matching the
/// reference) are vanishingly unlikely.
fn probe_value(seed: u64, sym: &Symbol, ix: i64, width: u32) -> i64 {
    let mut h = seed;
    for b in sym.as_str().bytes() {
        h = h.wrapping_mul(1099511628211).wrapping_add(b as u64);
    }
    h = h.wrapping_mul(1099511628211).wrapping_add(ix as u64);
    // splitmix64 finalizer: every input bit reaches every output bit, so
    // distinct symbols get unrelated values
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^= h >> 31;
    record_ir::ops::wrap_to_width(h as i64, width)
}

/// The probe's seeds.
const PROBE_SEEDS: [u64; 4] = [0x5EED, 0xBEEF, 0x1234_5678, 0xFEED_F00D];

/// Runs the decoded probe `program`, its loops of `trips` trips, under
/// each seed; `true` when every destination word holds what replaying
/// `stmt` at every index combination in loop order (every index
/// variable from 0 to `trips - 1`, the first the outermost) leaves
/// there, over the probe's memory. `memory` and `dsts` are working
/// buffers.
fn run_seeds(
    machine: &mut record_sim::Machine<'_>,
    program: &record_sim::Program<'_>,
    probe: &Probe,
    (pool, stmt, dst_loc): (&TreePool, &AssignStmt, &MemLoc),
    (memory, dsts): (&mut Vec<i64>, &mut Vec<usize>),
    width: u32,
    trips: usize,
) -> bool {
    let find = |sym: &Symbol, el: i64| {
        let (_, lo, hi, start) = probe.lens.iter().find(|(s, ..)| s == sym)?;
        (*lo..*hi).contains(&el).then(|| start + (el - lo) as usize)
    };
    for seed in PROBE_SEEDS {
        let value_of = |sym: &Symbol, ix: i64| probe_value(seed, sym, ix, width);
        memory.clear();
        memory.extend(probe.words.iter().map(|&(sym, ix, _)| value_of(&probe.lens[sym].0, ix)));
        dsts.clear();
        for trip in 0..trips.pow(probe.index_vars.len() as u32) {
            let read = |memory: &[i64], m: &MemLoc| {
                let el = probe.element(m, trip, trips);
                find(&m.base, el).map_or_else(|| value_of(&m.base, el), |at| memory[at])
            };
            let mut read_mem = |r: &record_ir::MemRef| read(memory, &MemLoc::from_mem_ref(r));
            let mut read_temp = |s: &Symbol| read(memory, &MemLoc::scalar(s.clone()));
            let value = pool.eval(stmt.src, width, &mut read_mem, &mut read_temp);
            let el = probe.element(dst_loc, trip, trips);
            let at = find(&dst_loc.base, el).expect("destination is placed");
            memory[at] = record_ir::ops::wrap_to_width(value, width);
            if !dsts.contains(&at) {
                dsts.push(at);
            }
        }

        machine.reset();
        for &(sym, ix, addr) in &probe.words {
            let value = value_of(&probe.lens[sym].0, ix);
            machine.poke_at(record_ir::Bank::X, addr, value).expect("probe words are in range");
        }
        if machine.execute(program).is_err() {
            return false;
        }
        let agree = |&at: &usize| {
            machine.peek_at(record_ir::Bank::X, probe.words[at].2) == Some(memory[at])
        };
        if !dsts.iter().all(agree) {
            return false;
        }
    }
    true
}

/// Renders an assembly template in one pass: `{d}` becomes the text of
/// `dst`, `{i}` that of `operands[i]`; every other character — a brace
/// that opens no placeholder, `{i}` past the last operand — is copied.
/// Substituted text is not scanned again.
fn render_asm(target: &TargetDesc, template: &str, dst: &Loc, operands: &[Loc]) -> String {
    let mut out = String::with_capacity(template.len() + 16);
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let after = &rest[open + 1..];
        let field = after.find('}').and_then(|close| {
            let loc = match &after[..close] {
                "d" => Some(dst),
                key if is_index(key) => key.parse().ok().and_then(|i: usize| operands.get(i)),
                _ => None,
            };
            loc.map(|loc| (loc, close))
        });
        match field {
            Some((loc, close)) => {
                push_loc_text(target, &mut out, loc);
                rest = &after[close + 1..];
            }
            None => {
                out.push('{');
                rest = after;
            }
        }
    }
    out.push_str(rest);
    out
}

/// Whether `key` is an operand index as templates write it: decimal
/// digits without a leading zero (`0`, `1`, `12`, not `01`).
fn is_index(key: &str) -> bool {
    !key.is_empty()
        && key.bytes().all(|b| b.is_ascii_digit())
        && (key == "0" || !key.starts_with('0'))
}

/// Appends the assembly text of `loc`: a register's member name, a
/// memory operand, or a decimal immediate.
fn push_loc_text(target: &TargetDesc, out: &mut String, loc: &Loc) {
    match loc {
        Loc::Reg(r) => {
            let class = target.class(r.class);
            assert!(r.index < class.count, "register index out of range");
            out.push_str(&class.name);
            if !class.is_singleton() {
                write!(out, "{}", r.index).expect("writing to a String");
            }
        }
        Loc::Mem(m) => write!(out, "{m}").expect("writing to a String"),
        Loc::Imm(v) => write!(out, "{v}").expect("writing to a String"),
    }
}

/// Runs `label` against the label memo, charging the labellings it
/// answers and computes to `stats`.
fn count_labels<R>(
    cache: &mut LabelCache,
    stats: &mut SelectStats,
    label: impl FnOnce(&mut LabelCache) -> R,
) -> R {
    let (hits, misses) = (cache.hits(), cache.misses());
    let result = label(cache);
    stats.labels_memoized += cache.hits() - hits;
    stats.labels_computed += cache.misses() - misses;
    result
}

/// Whether cutting `cand` can lower the cost of the tree at `root`: the
/// root is the candidate itself, or some parent of it `reads` it, at
/// its child position, at a nonterminal the cut makes cheaper. Every
/// node with a cut inside is labelled with the rules as written, whose
/// costs are at least the plain labels', so without such a read no cost
/// above the cut falls below what the statement already costs.
fn may_gain(
    pool: &TreePool,
    root: TreeId,
    cand: TreeId,
    reads: &impl Fn(record_ir::Op, usize) -> bool,
) -> bool {
    if root == cand {
        return true;
    }
    let kids = match *pool.node(root) {
        TreeNode::Bin(_, a, b) => [Some(a), Some(b)],
        TreeNode::Un(_, a) => [Some(a), None],
        TreeNode::Const(_) | TreeNode::Mem(_) | TreeNode::Temp(_) => [None, None],
    };
    let op = pool.op(root);
    kids.into_iter().enumerate().any(|(position, kid)| match kid {
        Some(kid) if kid == cand => reads(op, position),
        Some(kid) => may_gain(pool, kid, cand, reads),
        None => false,
    })
}

/// Fills `cuts` with the cuts applicable to statement `s`: accepted
/// candidates that list `s` among their sound uses. The same subtree
/// occurring elsewhere in the block may denote a *different* value (a
/// store intervened), so a cut set is always built per statement.
fn fill_cuts(cuts: &mut CutSet, dag: &BlockDag, accepted: &[(usize, NonTermId)], s: usize) {
    cuts.clear();
    for (slot, &(cand_ix, nt)) in accepted.iter().enumerate() {
        let cand = &dag.shared[cand_ix];
        if cand.uses.contains(&s) {
            cuts.insert(cand.id, (slot, nt));
        }
    }
}

fn sem_from_pattern(pat: &PatNode, locs: &[Loc], next: &mut usize) -> SemExpr {
    match pat {
        PatNode::Nt(_) => {
            let l = locs[*next].clone();
            *next += 1;
            SemExpr::Loc(l)
        }
        PatNode::Op(op, children) => {
            if op.is_leaf() {
                let l = locs[*next].clone();
                *next += 1;
                return SemExpr::Loc(l);
            }
            match op {
                record_ir::Op::Bin(b) => {
                    let a = sem_from_pattern(&children[0], locs, next);
                    let c = sem_from_pattern(&children[1], locs, next);
                    SemExpr::bin(*b, a, c)
                }
                record_ir::Op::Un(u) => {
                    let a = sem_from_pattern(&children[0], locs, next);
                    SemExpr::un(*u, a)
                }
                _ => unreachable!("leaf ops handled above"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::{BinOp, Tree};

    /// `dst := src`, interned into `e`'s pool.
    fn assign(e: &mut Emitter<'_>, dst: &str, src: Tree) -> AssignStmt {
        AssignStmt::new(e.pool_mut(), MemRef::scalar(dst), &src)
    }

    /// The statements of `block`, interned into `e`'s pool.
    fn stmts_in(e: &mut Emitter<'_>, block: &[(&str, Tree)]) -> Vec<AssignStmt> {
        block.iter().map(|(dst, src)| assign(e, dst, src.clone())).collect()
    }

    fn texts(insns: &[Insn]) -> Vec<String> {
        insns.iter().map(|i| i.text.clone()).collect()
    }

    #[test]
    fn emits_mac_sequence_on_tic25() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        // y := y + c * x
        let stmt = assign(
            &mut e,
            "y",
            Tree::bin(
                BinOp::Add,
                Tree::var("y"),
                Tree::bin(BinOp::Mul, Tree::var("c"), Tree::var("x")),
            ),
        );
        let (insns, stats) = e.emit_assign(&stmt, &RuleSet::none(), 1).expect("coverable");
        assert_eq!(texts(&insns), vec!["LAC y", "LT c", "MPY x", "APAC", "SACL y"],);
        assert_eq!(stats.variants, 1);
    }

    #[test]
    fn variant_selection_improves_covers() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        // y := 2 * x — as written, the constant must take the scenic
        // route through the accumulator and a scratch word to reach the
        // multiplier input (6 words); the mul-to-shift variant covers the
        // whole thing with one load-with-shift (2 words).
        let stmt = assign(&mut e, "y", Tree::bin(BinOp::Mul, Tree::constant(2), Tree::var("x")));
        let (no_variants, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        let words = |v: &[Insn]| v.iter().map(|i| i.words).sum::<u32>();
        assert_eq!(words(&no_variants), 6, "{:?}", texts(&no_variants));
        let (with_variants, stats) = e.emit_assign(&stmt, &RuleSet::all(), 32).unwrap();
        assert!(stats.variants > 1);
        assert_eq!(texts(&with_variants), vec!["LAC x,1", "SACL y"]);
    }

    #[test]
    fn spills_route_through_scratch_memory() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        // (a+b) * (c+d) forces one factor through memory
        let stmt = assign(
            &mut e,
            "y",
            Tree::bin(
                BinOp::Mul,
                Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b")),
                Tree::bin(BinOp::Add, Tree::var("c"), Tree::var("d")),
            ),
        );
        let (insns, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        assert!(texts(&insns).iter().any(|t| t.starts_with("SACL $s")), "{:?}", texts(&insns));
        assert!(!e.scratch_symbols().is_empty());
    }

    #[test]
    fn scratch_is_reused_across_statements() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let spilly = |e: &mut Emitter<'_>, dst: &str| {
            assign(
                e,
                dst,
                Tree::bin(
                    BinOp::Mul,
                    Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b")),
                    Tree::bin(BinOp::Add, Tree::var("c"), Tree::var("d")),
                ),
            )
        };
        let y = spilly(&mut e, "y");
        e.emit_assign(&y, &RuleSet::none(), 1).unwrap();
        let n1 = e.scratch_symbols().len();
        let z = spilly(&mut e, "z");
        e.emit_assign(&z, &RuleSet::none(), 1).unwrap();
        assert_eq!(e.scratch_symbols().len(), n1, "pool reused");
    }

    #[test]
    fn multi_register_allocation_on_risc() {
        let t = record_isa::targets::simple_risc::target(8);
        let mut e = Emitter::new(&t);
        let stmt = assign(
            &mut e,
            "y",
            Tree::bin(
                BinOp::Add,
                Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("b")),
                Tree::bin(BinOp::Sub, Tree::var("c"), Tree::var("d")),
            ),
        );
        let (insns, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        // loads into distinct registers, computes, stores
        let t0 = texts(&insns);
        assert!(t0.iter().any(|s| s.starts_with("LW r0,")), "{t0:?}");
        assert!(t0.iter().any(|s| s.starts_with("LW r1,")), "{t0:?}");
        assert!(t0.last().unwrap().starts_with("SW "));
    }

    #[test]
    fn out_of_registers_is_reported() {
        // a 2-register RISC cannot hold three concurrently live values
        // (the right-leaning tree keeps r0 live while the inner product
        // needs two more registers)
        let t = record_isa::targets::simple_risc::target(2);
        let mut e = Emitter::new(&t);
        let stmt = assign(
            &mut e,
            "y",
            Tree::bin(
                BinOp::Mul,
                Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("b")),
                Tree::bin(
                    BinOp::Mul,
                    Tree::bin(BinOp::Add, Tree::var("c"), Tree::var("d")),
                    Tree::bin(BinOp::Add, Tree::var("e"), Tree::var("f")),
                ),
            ),
        );
        let err = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap_err();
        assert!(matches!(err, CompileError::OutOfRegisters { .. }), "{err}");
    }

    #[test]
    fn uncoverable_reports_statement() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        // the C25 model has no division instruction
        let stmt = assign(&mut e, "y", Tree::bin(BinOp::Div, Tree::var("a"), Tree::var("b")));
        let err = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap_err();
        match err {
            CompileError::Uncoverable { stmt, target } => {
                assert!(stmt.contains("/"));
                assert_eq!(target, "tic25");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn saturating_add_requires_ovm() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let stmt = assign(&mut e, "y", Tree::bin(BinOp::SatAdd, Tree::var("y"), Tree::var("x")));
        let (insns, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        let ovm = t.mode("ovm").unwrap();
        assert!(insns.iter().any(|i| i.mode_req == Some((ovm, true))));
    }

    #[test]
    fn plain_add_requires_ovm_clear() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let stmt = assign(&mut e, "y", Tree::bin(BinOp::Add, Tree::var("y"), Tree::var("x")));
        let (insns, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        let ovm = t.mode("ovm").unwrap();
        assert!(insns.iter().any(|i| i.mode_req == Some((ovm, false))));
    }

    #[test]
    fn verifier_rejects_clobbered_covers() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let stmt = assign(
            &mut e,
            "v1",
            Tree::bin(
                BinOp::And,
                Tree::un(record_ir::UnOp::Not, Tree::var("v1")),
                Tree::un(record_ir::UnOp::Not, Tree::var("v2")),
            ),
        );
        // raw emission (no verify loop)
        let mut insns = Vec::new();
        emit_unprobed(&mut e, &stmt, &mut insns).unwrap();
        // the naive cover clobbers the accumulator: emission finds the
        // hazard, and the verifier says no
        assert!(e.work.buffers.hazard, "{:?}", texts(&insns));
        let ok = verify(&mut e, &stmt, &insns);
        assert!(!ok, "{:?}", texts(&insns));
        // and the public entry point must produce correct code
        let (fixed, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        assert!(verify(&mut e, &stmt, &fixed), "{:?}", texts(&fixed));
    }

    /// A strict emitter turns a probe that disagrees with the tree into
    /// a `Verify` error for `select`; a non-strict one runs no probe.
    #[test]
    fn a_failed_probe_is_a_verify_error_in_a_strict_emitter() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let not = |v: &str| Tree::un(record_ir::UnOp::Not, Tree::var(v));
        let stmt = assign(&mut e, "v1", Tree::bin(BinOp::And, not("v1"), not("v2")));
        // the clobbering cover, kept as if emission had missed its hazard
        let mut insns = Vec::new();
        emit_unprobed(&mut e, &stmt, &mut insns).unwrap();
        let probes = |f: &mut dyn FnMut()| {
            let before = PROBES.with(Cell::get).0;
            f();
            PROBES.with(Cell::get).0 - before
        };
        e.set_strict(false);
        assert_eq!(probes(&mut || e.assert_probe(&stmt, &[], &mut insns, 0).unwrap()), 0);
        e.set_strict(true);
        let mut got = None;
        assert_eq!(probes(&mut || got = e.assert_probe(&stmt, &[], &mut insns, 0).err()), 1);
        match got {
            Some(CompileError::Verify { pass, error: StructureError::Miscompiled { stmt } }) => {
                assert_eq!(pass, "select");
                assert_eq!(stmt, "v1 := (not(v1) & not(v2))");
            }
            other => panic!("expected a select verify error, got {other:?}"),
        }
    }

    /// gen-092's clobber, which the probe passed while it ran every index
    /// variable at 0: on tic25 the plain cover of `y[i0] := ((a0[i0] -
    /// a0[0]) * 4) * (sat(1) - (0 - a1[i0 + 1]))` loads 1 into `acc`
    /// (`LACK 1`) and overwrites it with `LACK 0` before the subtraction
    /// reads it. At index 0 the other factor is 0, so the code yields the
    /// expected 0; at index 1 it yields 0 instead of 124. The probe's
    /// two-trip run refuses it.
    #[test]
    fn the_probe_refuses_a_clobber_index_zero_hides() {
        use record_ir::Index;
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let source = "program live_one; in a0: fix[5]; in a1: fix[6]; out y: fix[5]; begin
            for i0 in 0..4 loop
              y[i0] := (((a0[i0] - a0[0]) * 4) * (sat(1) - (0 - a1[i0 + 1])));
            end loop;
          end";
        let lir = record_ir::lower::lower(&record_ir::dfl::parse(source).unwrap()).unwrap();
        let [record_ir::LirItem::Loop { body, .. }] = &lir.body[..] else { panic!("one loop") };
        let [record_ir::LirItem::Assign(lowered)] = &body[..] else { panic!("one statement") };
        let stmt =
            AssignStmt::new(e.pool_mut(), lowered.dst.clone(), &lir.pool.to_tree(lowered.src));
        let mut insns = Vec::new();
        emit_unprobed(&mut e, &stmt, &mut insns).unwrap();
        assert!(e.work.buffers.hazard, "{:?}", texts(&insns));
        let listing = texts(&insns).join(" ; ");
        assert!(listing.contains("LACK 1") && listing.contains("LACK 0"), "{listing}");

        // the clobber, run over two trips: right at index 0, wrong at 1
        let mut code = record_isa::Code {
            insns: vec![Insn::ctrl(InsnKind::LoopStart { var: "i0".into(), count: 2 }, "", 0, 0)],
            layout: Default::default(),
            target: t.name.clone(),
            name: "clobber".into(),
        };
        code.insns.extend(insns.iter().cloned());
        code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "", 0, 0));
        let arrays = [("a0", 5), ("a1", 6), ("y", 5)].map(|(sym, len)| (Symbol::new(sym), len));
        let spills = e.scratch_symbols().iter().map(|sym| (sym.clone(), 1));
        for (at, (sym, len)) in arrays.into_iter().chain(spills).enumerate() {
            code.layout.place(sym, at as u16 * 8, len, record_ir::Bank::X);
        }
        record_opt::insert_mode_changes(&mut code, &t, record_opt::ModeStrategy::Lazy);
        let inputs = std::collections::HashMap::from([
            (Symbol::new("a0"), vec![1, 2, 3, 4, 5]),
            (Symbol::new("a1"), vec![10, 20, 30, 40, 50, 60]),
        ]);
        let (outputs, _) = record_sim::run_program(&code, &t, &inputs).unwrap();
        assert_eq!(outputs[&Symbol::new("y")][..2], [0, 0], "{listing}");
        let pool = e.pool();
        let reference = |i0: i64| {
            let mut read = |r: &MemRef| match r {
                MemRef::Array { base, index: Index::Var { offset, .. } } => {
                    inputs[base][(i0 + offset) as usize]
                }
                MemRef::Array { base, index: Index::Const(c) } => inputs[base][*c as usize],
                other => panic!("unexpected {other}"),
            };
            pool.eval(stmt.src, t.word_width, &mut read, &mut |s| panic!("temp {s}"))
        };
        assert_eq!([reference(0), reference(1)], [0, 124]);

        assert!(!verify(&mut e, &stmt, &insns), "the probe passed {listing}");
        assert!(!verify_statement_reference(&e, &stmt, &insns), "the reference passed {listing}");
    }

    /// Over generated statements on tic25, dsp56k and cube seeds 1–4,
    /// every cover the probe rejects has a register hazard: the rule
    /// emission applies leaves the probe nothing to catch.
    #[test]
    fn every_cover_the_probe_rejects_has_a_register_hazard() {
        let targets = property_targets();
        let (mut statements, mut rejected, mut hazards) = (0usize, 0usize, 0usize);
        record_prop::run_cases(1000, |rng| {
            let t = &targets[rng.usize(targets.len())];
            let mut e = Emitter::new(t);
            let stmt = AssignStmt::new(e.pool_mut(), MemRef::scalar("y"), &gen_probe_tree(rng, 3));
            let mut insns = Vec::new();
            if emit_unprobed(&mut e, &stmt, &mut insns).is_err() {
                return;
            }
            let hazard = e.work.buffers.hazard;
            let ok = verify(&mut e, &stmt, &insns);
            assert!(
                ok || hazard,
                "{} on {}: the probe rejects {:?}, which has no hazard",
                stmt.display(&e.pool),
                t.name,
                texts(&insns)
            );
            statements += 1;
            rejected += usize::from(!ok);
            hazards += usize::from(hazard);
        });
        assert!(statements >= 500, "{statements} statements");
        assert!(rejected >= 50, "only {rejected} of {statements} covers rejected");
        assert!(hazards >= rejected, "{hazards} hazards, {rejected} rejected");
    }

    /// A non-strict compile runs no probe and builds no probe machine; a
    /// strict one probes at least every statement it selects, on one
    /// machine per compile.
    #[test]
    fn only_a_strict_compile_probes() {
        for target in [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()]
        {
            let compiler = crate::Compiler::for_target(target).unwrap();
            for strict in [false, true] {
                let before = PROBES.with(Cell::get);
                let (mut statements, mut compiles) = (0, 0);
                for kernel in record_dspstone::kernels() {
                    let lir =
                        record_ir::lower::lower(&record_ir::dfl::parse(kernel.source).unwrap())
                            .unwrap();
                    let plan = crate::PassPlan::o2().strict(strict);
                    let compiled = compiler.compile(&lir, plan).unwrap();
                    statements += compiled.timings.select.statements;
                    compiles += 1;
                }
                let (probes, machines) = PROBES.with(Cell::get);
                let (probes, machines) = (probes - before.0, machines - before.1);
                let name = &compiler.target().name;
                if strict {
                    assert!(
                        probes >= statements,
                        "{name}: {probes} probes, {statements} statements"
                    );
                    assert!(
                        machines <= compiles,
                        "{name}: {machines} machines, {compiles} compiles"
                    );
                } else {
                    assert_eq!((probes, machines), (0, 0), "{name}: non-strict compiles probed");
                }
            }
        }
    }

    /// Emits `stmt` without variants, the probe or the split loop.
    fn emit_unprobed(
        e: &mut Emitter<'_>,
        stmt: &AssignStmt,
        out: &mut Vec<Insn>,
    ) -> Result<(), CompileError> {
        let cover = e.plain_cover(stmt, None, &RuleSet::none(), 1, &mut SelectStats::default())?;
        e.emit_stored(stmt, cover.0, cover.1, out)
    }

    /// Verifies a copy of `insns` as the code of `stmt`, checking that
    /// the probe hands the instructions back unchanged.
    fn verify(e: &mut Emitter<'_>, stmt: &AssignStmt, insns: &[Insn]) -> bool {
        let mut code = vec![Insn::ctrl(InsnKind::Nop, "before", 0, 0)];
        code.extend_from_slice(insns);
        let verdict = e.verify_statement(stmt, &[], &mut code, 1);
        assert_eq!(code[1..], *insns, "the probe changed the instructions");
        verdict
    }

    /// The per-seed verifier the single-probe one replaced, kept as its
    /// reference: every seed rebuilds the probe program and runs on a
    /// fresh machine.
    fn verify_statement_reference(e: &Emitter<'_>, stmt: &AssignStmt, insns: &[Insn]) -> bool {
        use std::collections::HashMap;
        let mut lens: HashMap<Symbol, i64> = HashMap::new();
        let mut index_vars: Vec<Symbol> = Vec::new();
        {
            let mut note = |base: &Symbol, disp: i64| {
                let e = lens.entry(base.clone()).or_insert(1);
                *e = (*e).max(disp.abs() + 1);
            };
            for insn in insns {
                if let InsnKind::Compute { dst, expr } = &insn.kind {
                    for l in expr.reads().into_iter().chain(std::iter::once(dst)) {
                        if let Loc::Mem(m) = l {
                            note(&m.base, m.disp);
                            if let Some(v) = &m.index {
                                if !index_vars.contains(v) {
                                    index_vars.push(v.clone());
                                }
                            }
                        }
                    }
                }
            }
            let dst_loc = MemLoc::from_mem_ref(&stmt.dst);
            note(&dst_loc.base, dst_loc.disp);
            if let Some(v) = &dst_loc.index {
                if !index_vars.contains(v) {
                    index_vars.push(v.clone());
                }
            }
        }
        let dst_loc = MemLoc::from_mem_ref(&stmt.dst);

        for seed in [0x5EED_u64, 0xBEEF, 0x1234_5678, 0xFEED_F00D] {
            let width = e.target.word_width;
            let value_of = move |sym: &Symbol, ix: i64| -> i64 {
                let mut h = seed;
                for b in sym.as_str().bytes() {
                    h = h.wrapping_mul(1099511628211).wrapping_add(b as u64);
                }
                h = h.wrapping_mul(1099511628211).wrapping_add(ix as u64);
                h ^= h >> 30;
                h = h.wrapping_mul(0xbf58476d1ce4e5b9);
                h ^= h >> 27;
                h = h.wrapping_mul(0x94d049bb133111eb);
                h ^= h >> 31;
                record_ir::ops::wrap_to_width(h as i64, width)
            };
            let mut read_mem = |r: &record_ir::MemRef| {
                let m = MemLoc::from_mem_ref(r);
                value_of(&m.base, m.disp)
            };
            let mut read_temp = |s: &Symbol| value_of(s, 0);
            let expect = e.pool.eval(stmt.src, width, &mut read_mem, &mut read_temp);

            let mut code = record_isa::Code {
                insns: Vec::new(),
                layout: Default::default(),
                target: e.target.name.clone(),
                name: "verify".into(),
            };
            let mut addr = 0u16;
            let mut placed: Vec<(&Symbol, i64)> = lens.iter().map(|(k, v)| (k, *v)).collect();
            placed.sort();
            for (sym, len) in &placed {
                code.layout.place((*sym).clone(), addr, *len as u32, record_ir::Bank::X);
                addr += *len as u16;
            }
            for v in &index_vars {
                code.insns.push(Insn::ctrl(
                    InsnKind::LoopStart { var: v.clone(), count: 1 },
                    "probe-loop",
                    0,
                    0,
                ));
            }
            code.insns.extend(insns.iter().cloned());
            for _ in &index_vars {
                code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "probe-end", 0, 0));
            }
            record_opt::insert_mode_changes(&mut code, e.target, record_opt::ModeStrategy::Lazy);

            let mut machine = record_sim::Machine::new(e.target);
            for (sym, len) in &placed {
                for ix in 0..*len {
                    if machine.poke(sym, ix as u32, value_of(sym, ix), &code).is_err() {
                        return true;
                    }
                }
            }
            if machine.run(&code).is_err() {
                return false;
            }
            let got = machine.peek(&dst_loc.base, dst_loc.disp.max(0) as u32, &code);
            if got != Some(record_ir::ops::wrap_to_width(expect, width)) {
                return false;
            }
        }
        index_vars.is_empty() || verify_two_trips_reference(e, stmt, insns, &index_vars)
    }

    /// The two-trip run of [`verify_statement_reference`]: the code in
    /// two-trip loops over arrays one element longer, against the
    /// statement replayed at every index combination in loop order over
    /// a memory map, on a fresh machine per seed.
    fn verify_two_trips_reference(
        e: &Emitter<'_>,
        stmt: &AssignStmt,
        insns: &[Insn],
        index_vars: &[Symbol],
    ) -> bool {
        use std::collections::{BTreeMap, HashMap};
        let index_of = |m: &MemLoc, values: &HashMap<&Symbol, i64>| {
            let i = m.index.as_ref().and_then(|v| values.get(v)).copied().unwrap_or(0);
            if m.down {
                m.disp - i
            } else {
                m.disp + i
            }
        };
        let mut span: BTreeMap<Symbol, (i64, i64)> = BTreeMap::new();
        let dst_loc = MemLoc::from_mem_ref(&stmt.dst);
        let mut note = |m: &MemLoc| {
            let reach = match (&m.index, m.down) {
                (None, _) => m.disp,
                (Some(_), false) => m.disp + 1,
                (Some(_), true) => m.disp - 1,
            };
            let e = span.entry(m.base.clone()).or_insert((0, 1));
            e.0 = e.0.min(m.disp.min(reach));
            e.1 = e.1.max(m.disp.max(reach) + 1);
        };
        for insn in insns {
            if let InsnKind::Compute { dst, expr } = &insn.kind {
                for l in expr.reads().into_iter().chain(std::iter::once(dst)) {
                    if let Loc::Mem(m) = l {
                        note(m);
                    }
                }
            }
        }
        note(&dst_loc);
        let width = e.target.word_width;
        let mut code = record_isa::Code {
            insns: Vec::new(),
            layout: Default::default(),
            target: e.target.name.clone(),
            name: "verify".into(),
        };
        let mut addr = 0i64;
        for (sym, (lo, hi)) in &span {
            code.layout.place(sym.clone(), (addr - lo) as u16, *hi as u32, record_ir::Bank::X);
            addr += hi - lo;
        }
        for v in index_vars {
            let start = InsnKind::LoopStart { var: v.clone(), count: 2 };
            code.insns.push(Insn::ctrl(start, "probe-loop", 0, 0));
        }
        code.insns.extend(insns.iter().cloned());
        for _ in index_vars {
            code.insns.push(Insn::ctrl(InsnKind::LoopEnd, "probe-end", 0, 0));
        }
        record_opt::insert_mode_changes(&mut code, e.target, record_opt::ModeStrategy::Lazy);
        for seed in PROBE_SEEDS {
            let value_of = |sym: &Symbol, ix: i64| probe_value(seed, sym, ix, width);
            let mut memory: HashMap<(Symbol, i64), i64> = HashMap::new();
            let mut written = Vec::new();
            for trip in 0..1usize << index_vars.len() {
                let values: HashMap<&Symbol, i64> = index_vars
                    .iter()
                    .enumerate()
                    .map(|(k, v)| (v, (trip >> (index_vars.len() - 1 - k) & 1) as i64))
                    .collect();
                let read = |m: &MemLoc| {
                    let el = index_of(m, &values);
                    memory
                        .get(&(m.base.clone(), el))
                        .copied()
                        .unwrap_or_else(|| value_of(&m.base, el))
                };
                let value = e.pool.eval(
                    stmt.src,
                    width,
                    &mut |r| read(&MemLoc::from_mem_ref(r)),
                    &mut |s| read(&MemLoc::scalar(s.clone())),
                );
                let at = (dst_loc.base.clone(), index_of(&dst_loc, &values));
                memory.insert(at.clone(), record_ir::ops::wrap_to_width(value, width));
                written.push(at);
            }
            let mut machine = record_sim::Machine::new(e.target);
            for (sym, (lo, hi)) in &span {
                for el in *lo..*hi {
                    let (bank, addr) = code.layout.addr_of(sym, el).unwrap();
                    if machine.poke_at(bank, addr, value_of(sym, el)).is_err() {
                        return true;
                    }
                }
            }
            if machine.run(&code).is_err() {
                return false;
            }
            for (sym, el) in &written {
                let (bank, addr) = code.layout.addr_of(sym, *el).unwrap();
                if machine.peek_at(bank, addr) != Some(memory[&(sym.clone(), *el)]) {
                    return false;
                }
            }
        }
        true
    }

    fn gen_leaf(rng: &mut record_prop::Rng) -> Tree {
        use record_ir::Index;
        match rng.usize(6) {
            0 => Tree::constant(rng.i64_in(-300, 300)),
            1 => Tree::mem(MemRef::array(
                "x",
                Index::Var { var: "i".into(), offset: rng.i64_in(0, 3) },
            )),
            2 => Tree::mem(MemRef::array(
                "h",
                Index::RevVar { var: "j".into(), offset: rng.i64_in(0, 3) },
            )),
            _ => Tree::var(*rng.pick(&["a", "b", "c", "y"])),
        }
    }

    fn gen_probe_tree(rng: &mut record_prop::Rng, depth: u32) -> Tree {
        use record_ir::UnOp;
        if depth == 0 || rng.usize(4) == 0 {
            return gen_leaf(rng);
        }
        match rng.usize(8) {
            0 => Tree::un(*rng.pick(&[UnOp::Neg, UnOp::Not]), gen_probe_tree(rng, depth - 1)),
            1 => Tree::bin(
                BinOp::Shl,
                gen_probe_tree(rng, depth - 1),
                Tree::constant(rng.i64_in(1, 4)),
            ),
            _ => {
                let ops = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Xor,
                    BinOp::SatAdd,
                ];
                Tree::bin(
                    *rng.pick(&ops),
                    gen_probe_tree(rng, depth - 1),
                    gen_probe_tree(rng, depth - 1),
                )
            }
        }
    }

    /// The register and operand mutations the verifier must see through.
    fn corrupt(insns: &[Insn], how: usize, rng: &mut record_prop::Rng) -> Option<Vec<Insn>> {
        let mut out = insns.to_vec();
        let computes: Vec<usize> =
            (0..out.len()).filter(|&k| matches!(out[k].kind, InsnKind::Compute { .. })).collect();
        match how {
            // swapped registers: exchange two of the code's registers
            // within one instruction that uses the first
            0 => {
                let mut regs: Vec<RegId> = Vec::new();
                for insn in &out {
                    if let InsnKind::Compute { dst, expr } = &insn.kind {
                        for l in expr.reads().into_iter().chain(std::iter::once(dst)) {
                            if let Loc::Reg(r) = l {
                                if !regs.contains(r) {
                                    regs.push(*r);
                                }
                            }
                        }
                    }
                }
                if regs.len() < 2 {
                    return None;
                }
                let a = regs[rng.usize(regs.len())];
                let b = *regs.iter().filter(|&&r| r != a).nth(rng.usize(regs.len() - 1))?;
                let k = *computes.iter().find(|&&k| {
                    let InsnKind::Compute { dst, expr } = &out[k].kind else { return false };
                    *dst == Loc::Reg(a) || expr.reads().contains(&&Loc::Reg(a))
                })?;
                let swap = |l: &mut Loc| {
                    if *l == Loc::Reg(a) {
                        *l = Loc::Reg(b);
                    } else if *l == Loc::Reg(b) {
                        *l = Loc::Reg(a);
                    }
                };
                let InsnKind::Compute { dst, expr } = &mut out[k].kind else { unreachable!() };
                swap(dst);
                expr.reads_mut().into_iter().for_each(swap);
            }
            // a dropped instruction
            1 => {
                out.remove(rng.usize(out.len()));
            }
            // a changed operand: an immediate or a memory displacement
            _ => {
                let k = computes[rng.usize(computes.len())];
                let InsnKind::Compute { expr, .. } = &mut out[k].kind else { unreachable!() };
                let mut reads = expr.reads_mut();
                let operand = reads.iter_mut().find(|l| matches!(l, Loc::Imm(_) | Loc::Mem(_)))?;
                match &mut **operand {
                    Loc::Imm(v) => *v += 1,
                    Loc::Mem(m) => m.disp += 1,
                    Loc::Reg(_) => unreachable!(),
                }
            }
        }
        Some(out)
    }

    /// One probe program, four seeds and a machine reset between seeds
    /// reach exactly the verdicts of a fresh machine per seed — on the
    /// emitted code and on deliberately corrupted code alike.
    #[test]
    fn single_probe_verdicts_equal_the_per_seed_reference() {
        let targets = property_targets();
        let mut statements = vec![0usize; targets.len()];
        let (mut accepted, mut checked, mut rejected) = (0usize, 0usize, 0usize);
        record_prop::run_cases(1000, |rng| {
            let which = rng.usize(targets.len());
            let t = &targets[which];
            let dst = match rng.usize(3) {
                0 => MemRef::array("y", record_ir::Index::Var { var: "i".into(), offset: 0 }),
                _ => MemRef::scalar(*rng.pick(&["a", "y", "z"])),
            };
            let mut e = Emitter::new(t);
            let stmt = AssignStmt::new(e.pool_mut(), dst, &gen_probe_tree(rng, 3));
            let mut insns = Vec::new();
            if emit_unprobed(&mut e, &stmt, &mut insns).is_err() {
                return;
            }
            let mut verdict = |code: &[Insn]| {
                let got = verify(&mut e, &stmt, code);
                assert_eq!(
                    got,
                    verify_statement_reference(&e, &stmt, code),
                    "{} on {}: {:?}",
                    stmt.display(&e.pool),
                    t.name,
                    texts(code)
                );
                got
            };
            statements[which] += 1;
            accepted += usize::from(verdict(&insns));
            for how in 0..3 {
                if let Some(bad) = corrupt(&insns, how, rng) {
                    checked += 1;
                    rejected += usize::from(!verdict(&bad));
                }
            }
        });
        assert!(statements.iter().sum::<usize>() >= 500, "statements per target: {statements:?}");
        assert!(statements.iter().all(|&n| n >= 50), "statements per target: {statements:?}");
        assert!(accepted * 2 >= statements.iter().sum::<usize>(), "emitted code mostly rejected");
        assert!(rejected * 2 >= checked, "only {rejected} of {checked} corruptions rejected");
    }

    #[test]
    fn temp_operands_read_their_memory_cell() {
        let t = record_isa::targets::tic25::target();
        let mut e = Emitter::new(&t);
        let stmt = assign(&mut e, "y", Tree::bin(BinOp::Add, Tree::temp("$t0"), Tree::var("x")));
        let (insns, _) = e.emit_assign(&stmt, &RuleSet::none(), 1).unwrap();
        assert_eq!(texts(&insns)[0], "LAC $t0");
    }

    /// The complex-multiply block: every input leaf is read twice.
    fn complex_multiply_block() -> Vec<(&'static str, Tree)> {
        let mul = |a: &str, b: &str| Tree::bin(BinOp::Mul, Tree::var(a), Tree::var(b));
        vec![
            ("cr", Tree::bin(BinOp::Sub, mul("ar", "br"), mul("ai", "bi"))),
            ("ci", Tree::bin(BinOp::Add, mul("ar", "bi"), mul("ai", "br"))),
        ]
    }

    fn words(insns: &[Insn]) -> u32 {
        insns.iter().map(|i| i.words).sum()
    }

    #[test]
    fn block_sharing_pays_on_register_operand_machine() {
        // dsp56k reads multiplier inputs from the x/y register files: a
        // leaf loaded once can feed both statements, so DAG covering must
        // take shares and shrink the code.
        let t = record_isa::targets::dsp56k::target();
        let block = complex_multiply_block();
        let mut per_stmt = Emitter::new(&t);
        let mut baseline = Vec::new();
        for s in &stmts_in(&mut per_stmt, &block) {
            let (insns, _) = per_stmt.emit_assign(s, &RuleSet::all(), 32).unwrap();
            baseline.extend(insns);
        }
        let mut e = Emitter::new(&t);
        let stmts = stmts_in(&mut e, &block);
        let (insns, stats) = e.emit_block(&stmts, &RuleSet::all(), 32).unwrap();
        assert!(stats.shared_subtrees >= 4, "{stats:?}");
        assert!(stats.shares_taken > 0, "{stats:?}");
        assert!(words(&insns) < words(&baseline), "{:?}", texts(&insns));
        // every register the block still holds must be released
        assert!(e.work.held.is_empty());
        assert!(e.work.reg_used.iter().all(|c| c.iter().all(|u| !u)));
    }

    #[test]
    fn block_sharing_is_refused_on_accumulator_machine() {
        // tic25's register classes are all singletons: nothing can stay
        // parked across statements, so every candidate is recomputed and
        // the output is exactly the per-statement baseline.
        let t = record_isa::targets::tic25::target();
        let block = complex_multiply_block();
        let mut per_stmt = Emitter::new(&t);
        let mut baseline = Vec::new();
        for s in &stmts_in(&mut per_stmt, &block) {
            let (insns, _) = per_stmt.emit_assign(s, &RuleSet::all(), 32).unwrap();
            baseline.extend(insns);
        }
        let mut e = Emitter::new(&t);
        let stmts = stmts_in(&mut e, &block);
        let (insns, stats) = e.emit_block(&stmts, &RuleSet::all(), 32).unwrap();
        assert!(stats.shared_subtrees >= 4, "{stats:?}");
        assert_eq!(stats.shares_taken, 0, "{stats:?}");
        assert_eq!(stats.recomputes_chosen, stats.shared_subtrees, "{stats:?}");
        assert_eq!(texts(&insns), texts(&baseline));
    }

    #[test]
    fn block_without_repeats_is_the_baseline() {
        let t = record_isa::targets::dsp56k::target();
        let block = [
            ("u", Tree::bin(BinOp::Mul, Tree::var("a"), Tree::var("b"))),
            ("v", Tree::bin(BinOp::Mul, Tree::var("c"), Tree::var("d"))),
        ];
        let mut per_stmt = Emitter::new(&t);
        let mut baseline = Vec::new();
        for s in &stmts_in(&mut per_stmt, &block) {
            let (insns, _) = per_stmt.emit_assign(s, &RuleSet::none(), 1).unwrap();
            baseline.extend(insns);
        }
        let mut e = Emitter::new(&t);
        let stmts = stmts_in(&mut e, &block);
        let (insns, stats) = e.emit_block(&stmts, &RuleSet::none(), 1).unwrap();
        assert_eq!(stats.shares_taken, 0);
        assert_eq!(texts(&insns), texts(&baseline));
    }

    #[test]
    fn block_sharing_respects_intervening_stores() {
        // w is redefined between the two reads of (a + w): the block must
        // not share it, and both statements must verify against their own
        // version of w.
        let t = record_isa::targets::dsp56k::target();
        let mut e = Emitter::new(&t);
        let stmts = stmts_in(
            &mut e,
            &[
                ("y", Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("w"))),
                ("w", Tree::var("u")),
                ("z", Tree::bin(BinOp::Add, Tree::var("a"), Tree::var("w"))),
            ],
        );
        let (insns, stats) = e.emit_block(&stmts, &RuleSet::all(), 32).unwrap();
        // `a` may share; `(a + w)` and `w` must not be candidates at all
        assert!(stats.shared_subtrees <= 1, "{stats:?}");
        // the stored-to symbol is still written by the middle statement
        assert!(texts(&insns).iter().any(|s| s.ends_with(",w")), "{:?}", texts(&insns));
    }

    /// asip-dsp accepts shares in the complex-multiply block that its
    /// registers cannot hold once the statements' own temporaries are
    /// live: the block falls back once, to exactly the code it emits
    /// without shares.
    #[test]
    fn a_block_whose_shares_do_not_fit_emits_its_plain_code() {
        let t = record_isa::cube::CubeParams::asip_dsp().build().unwrap();
        let emit = |share: bool| {
            let mut e = Emitter::new(&t);
            let stmts = stmts_in(&mut e, &complex_multiply_block());
            let stmts: Vec<&AssignStmt> = stmts.iter().collect();
            let mut out = Vec::new();
            let stats = e.emit_block_into(&stmts, &RuleSet::all(), 32, share, &mut out).unwrap();
            assert!(e.work.reg_used.iter().all(|c| c.iter().all(|u| !u)));
            (texts(&out), stats)
        };
        let (shared, stats) = emit(true);
        let (plain, _) = emit(false);
        assert_eq!(stats.share_fallbacks, 1, "{stats:?}");
        assert_eq!(stats.shares_taken, 0, "{stats:?}");
        assert_eq!(stats.recomputes_chosen, stats.shared_subtrees, "{stats:?}");
        assert_eq!(shared, plain);
    }

    /// The selection loop that reduces every covered variant and replaces
    /// the incumbent on a strictly lower total: the reference cost-first
    /// covering is checked against.
    fn find_best_interned_reference(
        e: &mut Emitter<'_>,
        root: TreeId,
        rules: &RuleSet,
        variant_limit: usize,
        stats: &mut SelectStats,
    ) -> Option<(usize, Cover)> {
        let pool_len0 = e.pool.len() as u64;
        let dedup0 = e.pool.dedup_hits();
        let hits0 = e.work.label_cache.hits();
        let misses0 = e.work.label_cache.misses();
        let floor = e.work.candidates.iter().map(|(_, c)| c.weight()).min()?;

        // commutation in the grammar, the other rewrites in the stream
        e.work.label_cache.set_twins(rules.commutativity);
        let shapes = RuleSet { commutativity: false, ..*rules };
        let mut stream = VariantStream::from_id(root, shapes, variant_limit);
        let mut best: Option<(Cost, usize, Cover)> = None;
        while let Some(id) = stream.next(&mut e.pool) {
            stats.variants += 1;
            if let Some((nt, cover)) = e.matcher.best_cover_interned(
                &e.pool,
                id,
                &mut e.work.label_cache,
                &e.work.candidates,
            ) {
                stats.covered += 1;
                let store_ix = e
                    .target
                    .stores
                    .iter()
                    .position(|s| s.nt == nt)
                    .expect("candidate came from stores");
                let total = cover.cost.add(e.target.stores[store_ix].cost);
                let better = match &best {
                    None => true,
                    Some((bc, ..)) => total.weight() < bc.weight(),
                };
                if better {
                    best = Some((total, store_ix, cover));
                }
                if best.as_ref().is_some_and(|(bc, ..)| bc.weight() <= floor) {
                    stats.variants_pruned += stream.pending() as u64;
                    break;
                }
            }
            if e.step_cap.is_some_and(|cap| e.steps_used + stream.steps() >= cap) {
                stats.variants_pruned += stream.pending() as u64;
                break;
            }
        }
        e.steps_used += stream.steps();
        stats.search_steps += stream.steps();
        stats.interned_nodes += e.pool.len() as u64 - pool_len0;
        stats.dedup_hits += e.pool.dedup_hits() - dedup0;
        stats.labels_memoized += e.work.label_cache.hits() - hits0;
        stats.labels_computed += e.work.label_cache.misses() - misses0;
        best.map(|(_, store_ix, cover)| (store_ix, cover))
    }

    /// Every assignment of a lowered program, loop bodies included, in
    /// program order.
    fn assignments(items: &[record_ir::LirItem], out: &mut Vec<AssignStmt>) {
        for item in items {
            match item {
                record_ir::LirItem::Assign(stmt) => out.push(stmt.clone()),
                record_ir::LirItem::Loop { body, .. } => assignments(body, out),
            }
        }
    }

    /// tic25, dsp56k and cube seeds 1–4.
    fn property_targets() -> Vec<TargetDesc> {
        let mut targets =
            vec![record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()];
        targets.extend((1..=4).map(record_isa::cube::target_from_seed));
        targets
    }

    /// Cost-first covering returns what the reduce-every-variant loop
    /// returns — store, cover and every counter — on generated programs,
    /// with and without a search cap cutting enumeration short.
    #[test]
    fn cost_first_covering_equals_the_reduce_every_variant_loop() {
        let targets = property_targets();
        let mut statements = vec![0usize; targets.len()];
        let mut several_covered = 0usize;
        record_prop::run_cases(300, |rng| {
            let which = rng.usize(targets.len());
            let t = &targets[which];
            let source = record_prop::dfl::gen_program(rng);
            let lir = record_ir::lower::lower(&record_ir::dfl::parse(&source).unwrap()).unwrap();
            let mut stmts = Vec::new();
            assignments(&lir.body, &mut stmts);
            let rules = if rng.usize(4) == 0 { RuleSet::none() } else { RuleSet::all() };
            let limit = *rng.pick(&[1usize, 4, 32]);
            let cap = (rng.usize(3) == 0).then(|| rng.i64_in(1, 200) as u64);
            let (mut cost_first, mut reference) = (Emitter::new(t), Emitter::new(t));
            *cost_first.pool_mut() = lir.pool.clone();
            *reference.pool_mut() = lir.pool.clone();
            cost_first.set_search_cap(cap);
            reference.set_search_cap(cap);
            for stmt in &stmts {
                let (mut got_stats, mut want_stats) =
                    (SelectStats::default(), SelectStats::default());
                let got = cost_first.find_best_interned(stmt.src, &rules, limit, &mut got_stats);
                let got = got.map(|won| {
                    let root = cost_first.reduce(won.label, t.stores[won.store].nt, false);
                    (won.store, cost_first.work.buffers.cover.to_tree(root))
                });
                let want = find_best_interned_reference(
                    &mut reference,
                    stmt.src,
                    &rules,
                    limit,
                    &mut want_stats,
                );
                let stmt = stmt.display(&lir.pool);
                let want = want.map(|(store_ix, cover)| {
                    assert_eq!(cover.cost, cover.root.cost(t), "{stmt} on {}", t.name);
                    (store_ix, cover.root)
                });
                assert_eq!(got, want, "{stmt} on {}", t.name);
                assert_eq!(got_stats, want_stats, "{stmt} on {}", t.name);
                statements[which] += 1;
                several_covered += usize::from(got_stats.covered > 1);
            }
        });
        let total: usize = statements.iter().sum();
        assert!(total >= 500, "statements per target: {statements:?}");
        assert!(statements.iter().all(|&n| n >= 50), "statements per target: {statements:?}");
        // covering skips reductions only where several variants cover
        assert!(several_covered >= 150, "{several_covered} of {total} statements: {statements:?}");
    }

    /// Replaces the `select` pass: covers every straight-line block the
    /// pass would see with [`Emitter::emit_block`] and checks each stage-C
    /// trial's label-only weight against a full reduction of the same
    /// trial from a fresh label cache. Mismatches are collected, not
    /// asserted: the pass runner turns a panicking pass into an error.
    struct StageCTrialCheck {
        rules: RuleSet,
        variant_limit: usize,
        trials: std::sync::atomic::AtomicUsize,
        mismatches: std::sync::Mutex<Vec<String>>,
    }

    impl crate::Pass for StageCTrialCheck {
        fn name(&self) -> &'static str {
            "select"
        }

        fn run(&self, unit: &mut crate::CompilationUnit<'_>) -> Result<(), CompileError> {
            fn blocks(items: &[record_ir::LirItem], out: &mut Vec<Vec<AssignStmt>>) {
                let mut block = Vec::new();
                for item in items {
                    match item {
                        record_ir::LirItem::Assign(stmt) => block.push(stmt.clone()),
                        record_ir::LirItem::Loop { body, .. } => {
                            out.push(std::mem::take(&mut block));
                            blocks(body, out);
                        }
                    }
                }
                out.push(block);
            }
            let mut all = Vec::new();
            blocks(&unit.lir.body, &mut all);
            let mut e = Emitter::with_tables(unit.target, Arc::clone(unit.tables));
            std::mem::swap(e.pool_mut(), &mut unit.lir.pool);
            // register pressure may refuse a block on a cube point; the
            // trials made before that are still checked
            let emitted = all
                .iter()
                .filter(|b| !b.is_empty())
                .try_for_each(|b| e.emit_block(b, &self.rules, self.variant_limit).map(drop));
            for (root, cuts, weight) in &e.stage_c_trials {
                let mut fresh = LabelCache::new();
                fresh.set_twins(self.rules.commutativity);
                let full = e
                    .matcher
                    .best_cover_interned_cut(&e.pool, *root, &mut fresh, &e.work.candidates, cuts)
                    .map(|(nt, cover)| {
                        cover.cost.add(unit.target.stores[e.store_index(nt)].cost).weight()
                    });
                if *weight != full {
                    self.mismatches.lock().unwrap().push(format!(
                        "{} on {} under {cuts:?}: labels say {weight:?}, reduction {full:?}",
                        e.pool.to_tree(*root),
                        unit.target.name
                    ));
                }
            }
            self.trials.fetch_add(e.stage_c_trials.len(), std::sync::atomic::Ordering::Relaxed);
            std::mem::swap(e.pool_mut(), &mut unit.lir.pool);
            emitted
        }
    }

    /// Stage C reads only trial weights, so it labels and never reduces:
    /// on the DSPStone matrix (and cube seeds 1–4) every trial's weight
    /// equals the cover cost plus store cost a full reduction reports.
    #[test]
    fn stage_c_label_weights_equal_reduced_cover_weights() {
        let presets = [crate::CompileOptions::nothing(), crate::CompileOptions::default()];
        let mut trials_by_target = Vec::new();
        for target in property_targets() {
            let tables = Arc::new(Tables::build(&target));
            let mut trials = 0;
            for opts in &presets {
                let check = Arc::new(StageCTrialCheck {
                    rules: opts.rules,
                    variant_limit: opts.variant_limit,
                    trials: Default::default(),
                    mismatches: Default::default(),
                });
                // run the plan up to and including the checking `select`
                let mut plan = crate::PassPlan::from_options(opts);
                let names = plan.names();
                let select = names.iter().position(|n| *n == "select").unwrap();
                for name in &names[select + 1..] {
                    plan = plan.without(name);
                }
                let plan = plan.replacing("select", check.clone());
                for kernel in record_dspstone::kernels() {
                    let lir =
                        record_ir::lower::lower(&record_ir::dfl::parse(kernel.source).unwrap())
                            .unwrap();
                    let mut unit = crate::CompilationUnit::new(&target, &tables, &lir);
                    let run = plan.run(&mut unit, &mut crate::PhaseTimings::default());
                    if let Err(e @ CompileError::Internal { .. }) = run {
                        panic!("{} on {}: {e}", kernel.name, target.name);
                    }
                }
                let mismatches = check.mismatches.lock().unwrap();
                assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
                trials += check.trials.load(std::sync::atomic::Ordering::Relaxed);
            }
            trials_by_target.push((target.name.clone(), trials));
        }
        let dsp56k = trials_by_target.iter().find(|(n, _)| n == "dsp56k").unwrap().1;
        assert!(dsp56k >= 20, "stage C barely ran on dsp56k: {trials_by_target:?}");
    }

    /// Template rendering as a chain of `str::replace` calls — `{d}`
    /// first, then `{0}`, `{1}`, …: the reference the one-pass renderer
    /// is checked against.
    fn render_by_replace(target: &TargetDesc, template: &str, dst: &Loc, ops: &[Loc]) -> String {
        let text = |loc: &Loc| match loc {
            Loc::Reg(r) => target.class(r.class).member_name(r.index),
            Loc::Mem(m) => m.to_string(),
            Loc::Imm(v) => format!("{v}"),
        };
        let mut out = template.replace("{d}", &text(dst));
        for (i, loc) in ops.iter().enumerate() {
            out = out.replace(&format!("{{{i}}}"), &text(loc));
        }
        out
    }

    /// The one-pass renderer produces exactly the replace chain's text on
    /// every rule and store template of the shipped targets, the ASIP
    /// presets and 50 cube points, and on templates that hold stray
    /// braces, leading zeros and operands past the last one, over
    /// register, memory and immediate operands.
    #[test]
    fn one_pass_rendering_equals_the_replace_chain() {
        use record_isa::cube::CubeParams;
        use record_isa::targets::{dsp56k, simple_risc, tic25};
        let mut targets = vec![
            tic25::target(),
            dsp56k::target(),
            simple_risc::target(8),
            CubeParams::asip_minimal().build().unwrap(),
            CubeParams::asip_dsp().build().unwrap(),
            CubeParams::asip_default().build().unwrap(),
        ];
        targets.extend((1..=50).map(record_isa::cube::target_from_seed));
        let mut rng = record_prop::Rng::new(0xDAC97);
        let mut rendered = 0usize;
        for t in &targets {
            let mut pool: Vec<Loc> = Vec::new();
            for (c, class) in t.reg_classes.iter().enumerate() {
                for ix in 0..class.count {
                    pool.push(Loc::Reg(RegId::new(record_isa::RegClassId(c as u16), ix)));
                }
            }
            pool.push(Loc::Mem(MemLoc::scalar("x")));
            pool.push(Loc::Mem(MemLoc { disp: 3, ..MemLoc::scalar("a") }));
            pool.push(Loc::Mem(MemLoc::scalar("$s0")));
            pool.push(Loc::Mem(MemLoc::scalar("$dag1")));
            for v in [0, 1, 7, -1, -3, 255, -256, 32767, -32768] {
                pool.push(Loc::Imm(v));
            }
            let draw = |n: usize, rng: &mut record_prop::Rng| -> Vec<Loc> {
                (0..n).map(|_| pool[rng.usize(pool.len())].clone()).collect()
            };
            let odd = ["{{0}", "{2} {01} {} {x} {", "}{d", "{d}:={1}{0}"];
            let rules = t.rules.iter().map(|r| (r.asm.as_str(), r.leaves().len()));
            for (template, operands) in rules.chain(odd.into_iter().map(|o| (o, 2))) {
                for extra in [0, 0, 0, 1, 3] {
                    let ops = draw(operands + extra, &mut rng);
                    let dst = draw(1, &mut rng).remove(0);
                    assert_eq!(
                        render_asm(t, template, &dst, &ops),
                        render_by_replace(t, template, &dst, &ops),
                        "template {template:?} of {}",
                        t.name
                    );
                    rendered += 1;
                }
            }
            for store in &t.stores {
                for _ in 0..5 {
                    let value = draw(1, &mut rng);
                    let dst = draw(1, &mut rng).remove(0);
                    assert_eq!(
                        render_asm(t, &store.asm, &dst, &value),
                        render_by_replace(t, &store.asm, &dst, &value),
                        "store {:?} of {}",
                        store.asm,
                        t.name
                    );
                    rendered += 1;
                }
            }
        }
        assert!(rendered > 1000, "{rendered}");
        // substituted text is never scanned again, where the chain would
        // expand a placeholder it spells (no real template nests braces)
        let (t, ops) = (&targets[0], [Loc::Imm(1), Loc::Imm(2)]);
        assert_eq!(render_asm(t, "{{0}}", &Loc::Imm(0), &ops), "{1}");
        assert_eq!(render_by_replace(t, "{{0}}", &Loc::Imm(0), &ops), "2");
    }
}
