//! Layer-by-layer timing from outside the program: each layer is a call
//! into a public function, wrapped in a span.
//!
//! [`staged_compile`] runs the same pipeline `Session::compile_source`
//! runs — parse, lower, then every pass of the plan on one
//! `CompilationUnit`, then the final `Code::verify` — one call at a time.
//! [`Replayer`] repeats a request's other layers in-process (wire parse,
//! fingerprint, cache, `Service::handle_line`), because no span recorded
//! from outside can sit inside the daemon.

use std::hint::black_box;
use std::sync::{Arc, Mutex};

use record::{CacheKey, CompilationUnit, CompileCache, Compiler, PassPlan, Session};
use record_ir::lir::Lir;
use record_isa::Code;
use record_serve::Service;

use crate::trace::Recorder;
use crate::workload::Program;

/// The selection counters of one compile (public fields of the unit
/// after `select`). Exact: they repeat bit for bit across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub variants: u64,
    pub search_steps: u64,
    pub interned_nodes: u64,
    pub dedup_hits: u64,
    pub labels_computed: u64,
    pub labels_memoized: u64,
    pub shared_subtrees: u64,
    pub shares_taken: u64,
    pub recomputes_chosen: u64,
}

impl Counts {
    fn of(unit: &CompilationUnit<'_>) -> Self {
        Counts {
            variants: unit.variants as u64,
            search_steps: unit.search_steps,
            interned_nodes: unit.interned_nodes,
            dedup_hits: unit.dedup_hits,
            labels_computed: unit.labels_computed,
            labels_memoized: unit.labels_memoized,
            shared_subtrees: unit.shared_subtrees,
            shares_taken: unit.shares_taken,
            recomputes_chosen: unit.recomputes_chosen,
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.variants += o.variants;
        self.search_steps += o.search_steps;
        self.interned_nodes += o.interned_nodes;
        self.dedup_hits += o.dedup_hits;
        self.labels_computed += o.labels_computed;
        self.labels_memoized += o.labels_memoized;
        self.shared_subtrees += o.shared_subtrees;
        self.shares_taken += o.shares_taken;
        self.recomputes_chosen += o.recomputes_chosen;
    }

    /// `select.*` metrics: the counts plus the label memo ratio.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let labels = self.labels_computed + self.labels_memoized;
        vec![
            ("select.variants", self.variants as f64),
            ("select.search_steps", self.search_steps as f64),
            ("select.interned_nodes", self.interned_nodes as f64),
            ("select.dedup_hits", self.dedup_hits as f64),
            ("select.labels_computed", self.labels_computed as f64),
            ("select.labels_memoized", self.labels_memoized as f64),
            ("select.shared_subtrees", self.shared_subtrees as f64),
            ("select.shares_taken", self.shares_taken as f64),
            ("select.recomputes_chosen", self.recomputes_chosen as f64),
            ("select.label_memo_ratio", self.labels_memoized as f64 / labels.max(1) as f64),
        ]
    }
}

/// Span names of the compile path, in pipeline order: the layers whose
/// self times add up to a compile.
pub const PATH_LAYERS: &[&str] = &[
    "frontend.parse",
    "frontend.lower",
    "pass.treeify",
    "pass.select",
    "pass.layout",
    "pass.offset",
    "pass.banks",
    "pass.address",
    "pass.compact",
    "pass.hoist",
    "pass.modes",
    "pass.rpt",
    "pass.other",
    "pass.verify",
];

fn pass_span(name: &str) -> &'static str {
    match name {
        "treeify" => "pass.treeify",
        "select" => "pass.select",
        "layout" => "pass.layout",
        "offset" => "pass.offset",
        "banks" => "pass.banks",
        "address" => "pass.address",
        "compact" => "pass.compact",
        "hoist" => "pass.hoist",
        "modes" => "pass.modes",
        "rpt" => "pass.rpt",
        _ => "pass.other",
    }
}

/// The output of a stage-by-stage compile.
pub struct Staged {
    pub lir: Lir,
    pub code: Code,
    pub counts: Counts,
}

/// Compiles `source` one layer at a time, each layer in its own span:
/// `frontend.parse`, `frontend.lower`, one `pass.<name>` per pass of
/// `plan`, and `pass.verify` (the final structural check a non-strict
/// plan runs once).
pub fn staged_compile(
    rec: &mut Recorder,
    compiler: &Compiler,
    plan: &PassPlan,
    source: &str,
) -> Result<Staged, String> {
    let ast =
        rec.span("frontend.parse", || record_ir::dfl::parse(source)).map_err(|e| e.to_string())?;
    let lir =
        rec.span("frontend.lower", || record_ir::lower::lower(&ast)).map_err(|e| e.to_string())?;
    let mut unit = CompilationUnit::new(compiler.target(), compiler.tables(), &lir);
    unit.budgets = *plan.budgets();
    for pass in plan.passes() {
        rec.span(pass_span(pass.name()), || pass.run(&mut unit))
            .map_err(|e| format!("{}: {e}", pass.name()))?;
    }
    rec.span("pass.verify", || unit.code.verify()).map_err(|e| e.to_string())?;
    Ok(Staged { counts: Counts::of(&unit), code: unit.code, lir })
}

/// Everything a replay of one request's layers needs. Shared by the
/// client threads (the cache sits behind a mutex, as in `Session`).
pub struct Replayer {
    /// The plan every compile of the workload runs.
    pub plan: PassPlan,
    plan_fp: u64,
    /// One compiler per program (shared by programs on one target).
    pub compilers: Vec<Arc<Compiler>>,
    /// A code cache owned by the benchmark, on its own directory.
    pub cache: Mutex<CompileCache>,
    /// An in-process request engine configured like the workload's.
    pub service: Service,
    /// An uncached session for `session.compile` (untraced compile
    /// latency of the replayed program).
    pub session: Session,
}

impl Replayer {
    pub fn new(
        plan: PassPlan,
        compilers: Vec<Arc<Compiler>>,
        cache: CompileCache,
        service: Service,
        session: Session,
    ) -> Self {
        let plan_fp = plan.fingerprint();
        Replayer { plan, plan_fp, compilers, cache: Mutex::new(cache), service, session }
    }

    /// Replays one request under a `replay` root span: wire parse; when
    /// the request path did not compile in-process (`staged` is `None`),
    /// the stage-by-stage compile and an untraced session compile; then
    /// fingerprint, code-cache lookup and insert, and
    /// `Service::handle_line`.
    pub fn replay(
        &self,
        rec: &mut Recorder,
        program: &Program,
        index: usize,
        source: &str,
        line: &str,
        staged: Option<&Staged>,
    ) -> Result<(), String> {
        rec.open("replay");
        let result = self.replay_inner(rec, program, index, source, line, staged);
        rec.close();
        result
    }

    fn replay_inner(
        &self,
        rec: &mut Recorder,
        program: &Program,
        index: usize,
        source: &str,
        line: &str,
        staged: Option<&Staged>,
    ) -> Result<(), String> {
        let request = rec
            .span("wire.parse_request", || record_serve::parse_request(line))
            .map_err(|e| e.message)?;
        black_box(&request);
        let compiler = &self.compilers[index];
        let fresh;
        let staged = match staged {
            Some(s) => s,
            None => {
                // replays run after the client sat out a round trip; one
                // unrecorded compile first, so the layers read warm, as
                // they do in-process
                let mut quiet = Recorder::new(std::time::Instant::now(), 0);
                staged_compile(&mut quiet, compiler, &self.plan, source)?;
                fresh = staged_compile(rec, compiler, &self.plan, source)?;
                rec.span("session.compile", || {
                    self.session.compile_source(&program.target, source)
                })
                .map_err(|e| e.to_string())?;
                &fresh
            }
        };
        let program_fp =
            rec.span("ir.fingerprint", || record_ir::fingerprint::program_fingerprint(&staged.lir));
        let key = CacheKey {
            program: program_fp,
            target: compiler.stable_fingerprint(),
            plan: self.plan_fp,
        };
        self.cache_replay(rec, key, &staged.lir, program.target_name, &staged.code);
        let reply = rec.span("wire.handle_line", || self.service.handle_line(line));
        if reply.contains("\"status\":\"ok\"") {
            Ok(())
        } else {
            Err(format!("in-process handle_line failed: {reply}"))
        }
    }

    /// One lookup on the benchmark's code cache (`cache.lookup_hit` or
    /// `cache.lookup_miss`), plus `cache.insert` after a miss.
    fn cache_replay(
        &self,
        rec: &mut Recorder,
        key: CacheKey,
        lir: &Lir,
        target: &str,
        code: &Code,
    ) {
        let mut cache = self.cache.lock().expect("replay cache lock (no panics while held)");
        rec.open("cache.lookup_miss");
        let hit = cache.lookup(&key, lir, target);
        if hit.is_some() {
            rec.rename("cache.lookup_hit");
        }
        rec.close();
        if hit.is_none() {
            rec.span("cache.insert", || cache.insert(key, lir, target, code));
        }
    }

    /// Primes the cache with `program` and looks it up again, so every
    /// workload records at least one miss, insert and hit per program.
    pub fn prime(&self, rec: &mut Recorder, program: &Program, index: usize) -> Result<(), String> {
        let mut quiet = Recorder::new(std::time::Instant::now(), 0);
        let staged =
            staged_compile(&mut quiet, &self.compilers[index], &self.plan, &program.source)?;
        let program_fp = record_ir::fingerprint::program_fingerprint(&staged.lir);
        let key = CacheKey {
            program: program_fp,
            target: self.compilers[index].stable_fingerprint(),
            plan: self.plan_fp,
        };
        for _ in 0..2 {
            rec.open("replay");
            self.cache_replay(rec, key, &staged.lir, program.target_name, &staged.code);
            rec.close();
        }
        Ok(())
    }
}
