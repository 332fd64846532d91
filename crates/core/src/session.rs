//! Compilation as a reusable service.
//!
//! Generating a compiler for a target is not free: the BURS matcher
//! tables must be indexed from the grammar (the step iburg performs
//! offline). A [`Session`] amortizes that cost — it caches one generated
//! [`Compiler`] per *structural* target description and hands out shared
//! `Arc` handles, so the second and every later compile for a target
//! pays only for the compile itself. Lookup hashes a cheap summary of
//! the description (name, word width, table dimensions) and confirms
//! candidates with full structural equality, so a hit is both fast and
//! exact.
//!
//! Sessions are thread-safe (`&Session` can be shared freely) and offer
//! [`compile_batch`](Session::compile_batch): independent kernels are
//! compiled concurrently on scoped threads against the *same* cached
//! tables, with results returned in input order regardless of which
//! thread finished first.
//!
//! Every compile routed through a session also feeds the session-wide
//! [`PhaseTimings`] aggregate, giving the batch driver a per-phase
//! profile of where compilation time went.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;

use record_ir::lir::Lir;
use record_isa::{Code, TargetDesc};
use record_trace::{MetricsRegistry, SpanRecorder, Tracer};

use crate::cache::{CacheKey, CacheStats, CompileCache};
use crate::pipeline::Frontend;
use crate::select::SelectStats;
use crate::timing::PhaseTimings;
use crate::{
    CompileError, CompileInput, CompileOptions, CompileRequest, Compiled, Compiler, PassPlan,
};

/// In-memory entry bound of the code cache when
/// [`Session::with_cache_dir`] is called without a preceding
/// [`Session::with_code_cache`].
const DEFAULT_CODE_CACHE_CAPACITY: usize = 256;

/// Bucket bounds (µs) for the `record_compile_latency_us` histogram.
const LATENCY_BUCKETS_US: &[f64] = &[
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0,
    500_000.0,
];

/// Bucket bounds for the per-kernel code-size histograms
/// (`record_kernel_insns`, `record_kernel_words`).
const SIZE_BUCKETS: &[f64] = &[4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0];

/// Bucket bounds for `record_bundle_fill` (operations per issued
/// instruction; 1.0 = no parallelism).
const FILL_BUCKETS: &[f64] = &[1.0, 1.25, 1.5, 2.0, 3.0, 4.0];

/// Feeds one successful compile's [`PhaseTimings`] into a registry —
/// shared by the single-compile path (straight into the session
/// registry) and the batch workers (into a worker-local registry merged
/// at join).
fn observe_compile(metrics: &MetricsRegistry, timings: &PhaseTimings) {
    metrics.inc("record_compiles_total");
    metrics.add("record_salvaged_passes_total", timings.salvages.len() as u64);
    metrics.observe(
        "record_compile_latency_us",
        LATENCY_BUCKETS_US,
        timings.total.as_secs_f64() * 1e6,
    );
    metrics.observe("record_kernel_insns", SIZE_BUCKETS, timings.insns as f64);
    for (counter, value) in SelectStats::COUNTERS.iter().zip(timings.select.values()) {
        metrics.add(counter.metric, value);
    }
    if let Some(last) = timings.passes.last() {
        metrics.observe("record_kernel_words", SIZE_BUCKETS, f64::from(last.after.words));
        if last.after.insns > 0 {
            let ops = (last.after.insns + last.after.parallel_ops) as f64;
            metrics.observe("record_bundle_fill", FILL_BUCKETS, ops / last.after.insns as f64);
        }
    }
}

/// Cache and counter snapshot of a [`Session`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Compiler-cache hits (a compile reused generated tables).
    pub hits: usize,
    /// Compiler-cache misses (tables had to be generated).
    pub misses: usize,
    /// Distinct targets currently cached.
    pub targets: usize,
    /// Programs compiled through the session (batch or single).
    pub compiles: usize,
    /// Best-effort passes dropped to salvage compiles (graceful
    /// degradation events across the whole session).
    pub salvaged_passes: usize,
    /// Code-cache hits: compiles answered without running any pass
    /// (zero unless [`Session::with_code_cache`]/[`Session::with_cache_dir`]
    /// enabled the cache).
    pub code_hits: u64,
    /// Code-cache lookups that had to compile.
    pub code_misses: u64,
    /// In-memory code-cache entries dropped by the LRU bound.
    pub code_evictions: u64,
    /// On-disk cache entries rejected as corrupt and deleted.
    pub code_corruptions: u64,
}

/// A compilation service: per-target compiler cache + parallel batch
/// driver + phase-timing aggregation.
///
/// # Example
///
/// ```
/// use record::Session;
///
/// let session = Session::new();
/// let target = record_isa::targets::tic25::target();
/// let src = "program p; var x, y: fix; begin y := x + 1; end";
/// let a = session.compile_source(&target, src)?;
/// let b = session.compile_source(&target, src)?; // cache hit: tables reused
/// assert_eq!(a.render(), b.render());
/// assert_eq!(session.stats().hits, 1);
/// assert_eq!(session.stats().misses, 1);
/// # Ok::<(), record::CompileError>(())
/// ```
pub struct Session {
    options: CompileOptions,
    /// Overrides `options` when set: every compile runs this exact plan.
    plan: Option<PassPlan>,
    /// Buckets by [`cache_key`]; entries within a bucket are confirmed
    /// by full `TargetDesc` equality, so key collisions are harmless.
    compilers: RwLock<HashMap<u64, Vec<Arc<Compiler>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    compiles: AtomicUsize,
    salvaged: AtomicUsize,
    timings: Mutex<PhaseTimings>,
    /// When set, every compile records a span tree into this tracer and
    /// cache lookups emit `cache-hit`/`cache-miss` instant events.
    tracer: Option<Arc<Tracer>>,
    /// Counters, gauges and histograms fed by every compile routed
    /// through the session (see [`Session::metrics`]).
    metrics: MetricsRegistry,
    /// The opt-in two-level compile cache ([`Session::with_code_cache`] /
    /// [`Session::with_cache_dir`]). `None` (the default) preserves the
    /// always-compile behaviour exactly.
    code_cache: Option<Mutex<CompileCache>>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A session compiling with [`CompileOptions::default`].
    pub fn new() -> Self {
        Self::with_options(CompileOptions::default())
    }

    /// A session compiling with explicit options (applied to every
    /// compile routed through it).
    pub fn with_options(options: CompileOptions) -> Self {
        Session {
            options,
            plan: None,
            compilers: RwLock::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            compiles: AtomicUsize::new(0),
            salvaged: AtomicUsize::new(0),
            timings: Mutex::new(PhaseTimings::default()),
            tracer: None,
            metrics: MetricsRegistry::new(),
            code_cache: None,
        }
    }

    /// Enables the in-memory compile cache: compiled [`Code`] is keyed
    /// by `(program, target, plan)` fingerprints and a repeat compile of
    /// a structurally identical program returns the cached (byte-
    /// identical) code without running a single pass. At most `capacity`
    /// entries stay resident (LRU).
    ///
    /// ```
    /// use record::Session;
    ///
    /// let session = Session::new().with_code_cache(64);
    /// let target = record_isa::targets::tic25::target();
    /// let src = "program p; var x, y: fix; begin y := x + 1; end";
    /// let a = session.compile_source(&target, src)?;
    /// let b = session.compile_source(&target, src)?; // code-cache hit
    /// assert_eq!(a.render(), b.render());
    /// assert_eq!(session.stats().code_hits, 1);
    /// # Ok::<(), record::CompileError>(())
    /// ```
    #[must_use]
    pub fn with_code_cache(mut self, capacity: usize) -> Self {
        self.code_cache = Some(Mutex::new(CompileCache::new(capacity)));
        self
    }

    /// Enables the on-disk store under `dir` (implies
    /// [`with_code_cache`](Session::with_code_cache) with a default
    /// capacity when not already enabled): compiled code persists across
    /// processes, so a later session answers repeat compiles from disk.
    /// Corrupt files are treated as misses and deleted, never as errors.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        let cache = match self.code_cache.take() {
            Some(m) => m.into_inner().expect("code cache lock"),
            None => CompileCache::new(DEFAULT_CODE_CACHE_CAPACITY),
        };
        self.code_cache = Some(Mutex::new(cache.with_dir(dir)));
        self
    }

    /// Attaches a [`Tracer`]: every subsequent compile submits a
    /// `compile` span tree (one child span per executed pass) to it, and
    /// compiler-cache lookups emit `cache-hit`/`cache-miss` instants.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use record::{Session, Tracer};
    ///
    /// let tracer = Arc::new(Tracer::new());
    /// let session = Session::new().with_tracer(Arc::clone(&tracer));
    /// let target = record_isa::targets::tic25::target();
    /// session.compile_source(&target, "program p; var x, y: fix; begin y := x + 1; end")?;
    /// assert_eq!(tracer.traces().len(), 1);
    /// # Ok::<(), record::CompileError>(())
    /// ```
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The session's metrics registry: compile/salvage/cache counters,
    /// hit-ratio and salvage-rate gauges, and latency/size/fill
    /// histograms, aggregated across every compile (batch workers fold
    /// their observations in at join). Render it with
    /// [`MetricsRegistry::render_prometheus`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Routes every compile in this session through an explicit
    /// [`PassPlan`] instead of the plan derived from the options —
    /// the hook for injecting custom passes (or custom budgets) into
    /// batch compilation.
    #[must_use]
    pub fn with_plan(mut self, plan: PassPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The options every compile in this session uses.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The cached compiler for `target`, generating (and caching) it on
    /// first use. Two structurally identical descriptions share one
    /// compiler — and one set of BURS tables.
    ///
    /// # Errors
    ///
    /// [`CompileError::Target`] if the description fails validation.
    pub fn compiler_for(&self, target: &TargetDesc) -> Result<Arc<Compiler>, CompileError> {
        let key = cache_key(target);
        if let Some(compiler) = self
            .compilers
            .read()
            .expect("cache lock")
            .get(&key)
            .and_then(|bucket| bucket.iter().find(|c| c.target() == target))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.inc("record_cache_hits_total");
            self.update_rate_gauges();
            if let Some(t) = &self.tracer {
                t.instant("cache-hit", &[("target", target.name.as_str().into())]);
            }
            return Ok(Arc::clone(compiler));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.inc("record_cache_misses_total");
        self.update_rate_gauges();
        if let Some(t) = &self.tracer {
            t.instant("cache-miss", &[("target", target.name.as_str().into())]);
        }
        let compiler = Arc::new(Compiler::for_target(target.clone())?);
        let mut cache = self.compilers.write().expect("cache lock");
        let bucket = cache.entry(key).or_default();
        // another thread may have won the race; keep the first entry so
        // every caller shares the same tables
        if let Some(existing) = bucket.iter().find(|c| c.target() == target) {
            return Ok(Arc::clone(existing));
        }
        bucket.push(Arc::clone(&compiler));
        Ok(compiler)
    }

    /// Folds the code cache's absolute counters into the metrics
    /// registry by delta. Callers hold (or just released) the cache
    /// lock, and every call site locks the cache around the compute —
    /// so concurrent deltas never double-count.
    fn apply_cache_metrics(&self, stats: CacheStats) {
        for (name, value) in [
            ("record_code_cache_hits_total", stats.hits),
            ("record_code_cache_misses_total", stats.misses),
            ("record_code_cache_evictions_total", stats.evictions),
            ("record_code_cache_corruptions_total", stats.corruptions),
        ] {
            let current = self.metrics.counter(name);
            if value > current {
                self.metrics.add(name, value - current);
            }
        }
    }

    /// Compiles `input` — mini-DFL source text or a lowered program —
    /// through the compiler cache (and the code cache, when enabled),
    /// the way `req` asks. A request without a plan runs the session's
    /// plan: the one set with [`with_plan`](Session::with_plan), or the
    /// one its options derive.
    ///
    /// A request deadline is checked on arrival: a request that is
    /// already past it fails before any work (the cache lookup included)
    /// with [`CompileError::Budget`], pass `"admission"`, resource
    /// `"deadline"`. After that the pipeline checks it at every pass
    /// boundary. This is the per-request admission primitive the compile
    /// daemon serves from.
    ///
    /// A request recorder gets `parse`/`lower`/`compile` span trees plus
    /// `code-cache-hit`/`code-cache-miss` events, so a server can trace
    /// one request without a per-request [`Tracer`]. When the recorder is
    /// *enabled* it takes precedence over the session tracer for this
    /// compile (the request owns its spans; submitting them to the
    /// shared tracer too would double-count); a disabled recorder leaves
    /// the tracer path as it is.
    ///
    /// The timings are also absorbed into the session aggregate.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile<'a, 'r>(
        &self,
        target: &TargetDesc,
        input: impl Into<CompileInput<'a>>,
        req: impl Into<CompileRequest<'r>>,
    ) -> Result<Compiled, CompileError> {
        let req = req.into();
        let compiler = self.compiler_for(target)?;
        let mut disabled = SpanRecorder::disabled();
        let rec = req.recorder.unwrap_or(&mut disabled);
        let compiled = self.count_errors(self.compile_one(
            &compiler,
            input.into(),
            req.plan.as_ref(),
            req.deadline,
            rec,
        ))?;
        self.record(&compiled.timings);
        Ok(compiled)
    }

    /// Shorthand for [`compile`](Session::compile) of source text with
    /// the default request, returning just the code.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile_source(&self, target: &TargetDesc, source: &str) -> Result<Code, CompileError> {
        self.compile(target, source, CompileRequest::default()).map(|c| c.code)
    }

    /// Compiles independent inputs concurrently on scoped threads, all
    /// sharing the cached compiler for `target`. Parsing and lowering of
    /// source inputs happen on the worker threads too.
    ///
    /// The result vector is index-aligned with `inputs` — slot `i`
    /// always holds input `i`'s outcome, so the output is deterministic
    /// regardless of thread scheduling. A program that fails to compile
    /// yields an `Err` in its slot without disturbing its neighbours.
    ///
    /// The request's plan and deadline apply to every job. The deadline
    /// covers the whole batch: jobs that have not started when it passes
    /// — and jobs whose in-flight pipeline crosses it at a pass boundary
    /// — fill their slot with [`CompileError::Budget`] (resource
    /// `"deadline"`) instead of running to completion, and
    /// already-finished neighbours keep their results. A batch has no
    /// single span tree, so it leaves a request recorder untouched; each
    /// job traces into the session tracer, if one is attached.
    ///
    /// # Errors
    ///
    /// [`CompileError::Target`] if the target description itself is
    /// invalid (no per-program work happens in that case).
    pub fn compile_batch<'a, 'r, I>(
        &self,
        target: &TargetDesc,
        inputs: I,
        req: impl Into<CompileRequest<'r>>,
    ) -> Result<Vec<Result<Code, CompileError>>, CompileError>
    where
        I: IntoIterator,
        I::Item: Into<CompileInput<'a>>,
    {
        let req = req.into();
        let compiler = self.compiler_for(target)?;
        let inputs: Vec<CompileInput<'a>> = inputs.into_iter().map(Into::into).collect();
        self.note_batch_reuse(inputs.len());
        let (plan, deadline) = (req.plan.as_ref(), req.deadline);
        self.run_batch(inputs.len(), deadline, |i| {
            self.compile_one(&compiler, inputs[i], plan, deadline, &mut SpanRecorder::disabled())
        })
    }

    /// Snapshot of the cache and compile counters.
    pub fn stats(&self) -> SessionStats {
        let code = self
            .code_cache
            .as_ref()
            .map(|c| c.lock().expect("code cache lock").stats())
            .unwrap_or_default();
        SessionStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            targets: self.compilers.read().expect("cache lock").values().map(Vec::len).sum(),
            compiles: self.compiles.load(Ordering::Relaxed),
            salvaged_passes: self.salvaged.load(Ordering::Relaxed),
            code_hits: code.hits,
            code_misses: code.misses,
            code_evictions: code.evictions,
            code_corruptions: code.corruptions,
        }
    }

    /// The accumulated per-phase timings of every successful compile
    /// routed through this session.
    pub fn timings(&self) -> PhaseTimings {
        self.timings.lock().expect("timings lock").clone()
    }

    fn record(&self, timings: &PhaseTimings) {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        if timings.from_cache {
            // a cache hit is a compile (the caller got code) but did no
            // phase work: count it, keep the zeroed timings out of the
            // aggregate and the latency/size histograms
            self.metrics.inc("record_compiles_total");
            self.update_rate_gauges();
            return;
        }
        self.salvaged.fetch_add(timings.salvages.len(), Ordering::Relaxed);
        self.timings.lock().expect("timings lock").absorb(timings);
        observe_compile(&self.metrics, timings);
        self.update_rate_gauges();
    }

    /// Counts a failed compile into `record_compile_errors_total`
    /// (successes pass through untouched).
    fn count_errors<T>(&self, result: Result<T, CompileError>) -> Result<T, CompileError> {
        if result.is_err() {
            self.metrics.inc("record_compile_errors_total");
        }
        result
    }

    /// Credits the cache with the reuse a batch actually gets: program
    /// `i > 0` compiles against the compiler the batch looked up once,
    /// where the equivalent sequential compiles would each have hit the
    /// cache. Keeping the ledger this way makes batch and sequential
    /// hit ratios identical, instead of a batch of `n` counting a single
    /// lookup.
    fn note_batch_reuse(&self, n: usize) {
        let extra = n.saturating_sub(1);
        if extra > 0 {
            self.hits.fetch_add(extra, Ordering::Relaxed);
            self.metrics.add("record_cache_hits_total", extra as u64);
            self.update_rate_gauges();
        }
    }

    /// Refreshes the derived gauges from the counters they summarize.
    fn update_rate_gauges(&self) {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        if hits + misses > 0 {
            self.metrics.set_gauge("record_cache_hit_ratio", hits as f64 / (hits + misses) as f64);
        }
        let compiles = self.compiles.load(Ordering::Relaxed);
        if compiles > 0 {
            let salvaged = self.salvaged.load(Ordering::Relaxed);
            self.metrics.set_gauge("record_salvage_rate", salvaged as f64 / compiles as f64);
        }
    }

    /// One compile, frontend included: source input is parsed and
    /// lowered, then the program goes through [`compile_lir`](Session::compile_lir).
    fn compile_one(
        &self,
        compiler: &Compiler,
        input: CompileInput<'_>,
        plan: Option<&PassPlan>,
        deadline: Option<std::time::Instant>,
        rec: &mut SpanRecorder,
    ) -> Result<Compiled, CompileError> {
        let frontend = Frontend::run(input, rec)?;
        let mut compiled = self.compile_lir(compiler, &frontend.lir, plan, deadline, rec)?;
        frontend.charge(&mut compiled.timings);
        Ok(compiled)
    }

    /// The backend half every session compile funnels into: `plan`
    /// when given, else the session's plan. With the code cache enabled,
    /// the compile is keyed and looked up first — a hit returns the
    /// stored code without running any pass (`from_cache` timings,
    /// `labels_computed == 0`), and a miss stores the freshly compiled
    /// code for next time.
    fn compile_lir(
        &self,
        compiler: &Compiler,
        lir: &Lir,
        plan: Option<&PassPlan>,
        deadline: Option<std::time::Instant>,
        rec: &mut SpanRecorder,
    ) -> Result<Compiled, CompileError> {
        let tracer = self.tracer.as_deref();
        // kernel names are caller-supplied (hostile, in the daemon) —
        // they flow into a label value here and are escaped by the
        // exporter, never interpolated raw
        self.metrics.inc_with("record_kernel_compiles_total", &[("kernel", lir.name.as_str())]);
        if let Some(at) = deadline {
            if std::time::Instant::now() >= at {
                // already expired on arrival: refuse before any work,
                // the cache lookup included
                return Err(CompileError::Budget {
                    pass: "admission".into(),
                    resource: "deadline".into(),
                });
            }
        }
        let mut plan = match plan.or(self.plan.as_ref()) {
            Some(plan) => plan.clone(),
            None => PassPlan::from_options(&self.options),
        };
        // the hard deadline is excluded from the plan fingerprint, so
        // folding it in never fragments the code cache
        if let Some(at) = deadline {
            plan = plan.deadline(at);
        }
        let Some(cache) = &self.code_cache else {
            return self.run_compiler(compiler, lir, plan, rec);
        };
        let key = CacheKey {
            program: record_ir::fingerprint::program_fingerprint(lir),
            target: compiler.stable_fingerprint(),
            plan: plan.fingerprint(),
        };
        let hit = {
            let mut guard = cache.lock().expect("code cache lock");
            let hit = guard.lookup(&key, lir, &compiler.target().name);
            self.apply_cache_metrics(guard.stats());
            hit
        };
        if let Some(code) = hit {
            rec.event("code-cache-hit", &[("program", lir.name.as_str().into())]);
            if let Some(t) = tracer {
                t.instant("code-cache-hit", &[("program", lir.name.as_str().into())]);
            }
            let timings = PhaseTimings { from_cache: true, ..PhaseTimings::default() };
            return Ok(Compiled { code, timings });
        }
        rec.event("code-cache-miss", &[("program", lir.name.as_str().into())]);
        if let Some(t) = tracer {
            t.instant("code-cache-miss", &[("program", lir.name.as_str().into())]);
        }
        let result = self.run_compiler(compiler, lir, plan, rec);
        if let Ok(compiled) = &result {
            let mut guard = cache.lock().expect("code cache lock");
            guard.insert(key, lir, &compiler.target().name, &compiled.code);
            self.apply_cache_metrics(guard.stats());
        }
        result
    }

    /// Runs the pipeline through whichever recorder is live for this
    /// compile: an enabled request-scoped recorder wins over the session
    /// tracer (the request owns its spans; submitting them to the shared
    /// tracer too would double-count the compile).
    fn run_compiler(
        &self,
        compiler: &Compiler,
        lir: &Lir,
        plan: PassPlan,
        rec: &mut SpanRecorder,
    ) -> Result<Compiled, CompileError> {
        let req = CompileRequest::from(plan);
        match &self.tracer {
            Some(tracer) if !rec.is_enabled() => {
                let mut own = tracer.recorder();
                let result = compiler.compile(lir, req.recorder(&mut own));
                tracer.submit(own);
                result
            }
            _ => compiler.compile(lir, req.recorder(rec)),
        }
    }

    /// Fans `n` jobs out over scoped worker threads (work-stealing by
    /// atomic index) and collects the results into index-aligned slots.
    ///
    /// Each job runs under `catch_unwind`: a panic that escapes the
    /// compiler's own pass-level isolation (or fires in the frontend)
    /// becomes [`CompileError::Internal`] in that job's slot, so one
    /// poisoned kernel can never tear down the batch or leave its worker
    /// thread dead.
    ///
    /// Workers accumulate their timings, counters and metric
    /// observations *locally* and fold them into the session once, when
    /// they run out of work — the shared locks are taken once per worker
    /// instead of once per compile, and nothing is dropped on join.
    fn run_batch<F>(
        &self,
        n: usize,
        deadline: Option<std::time::Instant>,
        job: F,
    ) -> Result<Vec<Result<Code, CompileError>>, CompileError>
    where
        F: Fn(usize) -> Result<Compiled, CompileError> + Sync,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        let workers = thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(n);
        let slots: Vec<Mutex<Option<Result<Code, CompileError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local_timings = PhaseTimings::default();
                    let local_metrics = MetricsRegistry::new();
                    let mut local_compiles = 0usize;
                    let mut local_salvaged = 0usize;
                    let mut did_anything = false;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        did_anything = true;
                        // a job claimed after the batch deadline never
                        // starts: its slot reports the blown budget and
                        // the worker moves on to drain the queue fast
                        let result = if deadline.is_some_and(|at| std::time::Instant::now() >= at) {
                            Err(CompileError::Budget {
                                pass: "batch".into(),
                                resource: "deadline".into(),
                            })
                        } else {
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i)))
                                .unwrap_or_else(|payload| {
                                    Err(CompileError::Internal {
                                        pass: "batch".into(),
                                        message: crate::pass::panic_message(payload.as_ref()),
                                    })
                                })
                        };
                        let outcome = match result {
                            Ok(Compiled { code, timings }) => {
                                local_compiles += 1;
                                if timings.from_cache {
                                    local_metrics.inc("record_compiles_total");
                                } else {
                                    local_salvaged += timings.salvages.len();
                                    local_timings.absorb(&timings);
                                    observe_compile(&local_metrics, &timings);
                                }
                                Ok(code)
                            }
                            Err(e) => {
                                local_metrics.inc("record_compile_errors_total");
                                Err(e)
                            }
                        };
                        *slots[i].lock().expect("slot lock") = Some(outcome);
                    }
                    if did_anything {
                        self.compiles.fetch_add(local_compiles, Ordering::Relaxed);
                        self.salvaged.fetch_add(local_salvaged, Ordering::Relaxed);
                        self.timings.lock().expect("timings lock").absorb(&local_timings);
                        self.metrics.merge(&local_metrics);
                        self.update_rate_gauges();
                    }
                });
            }
        });
        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every batch slot is written before the scope ends")
            })
            .collect())
    }
}

/// A deliberately shallow hash of the description — name, width and the
/// dimensions of every table. Hashing the full structure (hundreds of
/// rule strings) costs as much as a small compile; this summary is a few
/// dozen bytes, and [`Session::compiler_for`] confirms each candidate
/// with full structural equality anyway, so a collision merely scans one
/// extra bucket entry.
fn cache_key(target: &TargetDesc) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::hash::DefaultHasher::new();
    target.name.hash(&mut hasher);
    target.word_width.hash(&mut hasher);
    target.reg_classes.len().hash(&mut hasher);
    target.nonterms.len().hash(&mut hasher);
    target.rules.len().hash(&mut hasher);
    target.stores.len().hash(&mut hasher);
    target.fusions.len().hash(&mut hasher);
    target.modes.len().hash(&mut hasher);
    target.memory.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::Symbol;
    use record_sim::run_program;

    fn src(i: usize) -> String {
        format!("program p{i}; var x, y: fix; begin y := x * {} + {i}; end", i + 2)
    }

    #[test]
    fn cache_hits_after_first_compile() {
        let session = Session::new();
        let target = record_isa::targets::tic25::target();
        for i in 0..3 {
            session.compile_source(&target, &src(i)).unwrap();
        }
        let stats = session.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.targets, 1);
        assert_eq!(stats.compiles, 3);
    }

    #[test]
    fn distinct_targets_get_distinct_compilers() {
        let session = Session::new();
        let t1 = record_isa::targets::tic25::target();
        let t2 = record_isa::targets::dsp56k::target();
        let c1 = session.compiler_for(&t1).unwrap();
        let c2 = session.compiler_for(&t2).unwrap();
        assert!(!Arc::ptr_eq(&c1, &c2));
        // same structural target → same compiler instance
        let c1b = session.compiler_for(&t1.clone()).unwrap();
        assert!(Arc::ptr_eq(&c1, &c1b));
        assert_eq!(session.stats().targets, 2);
    }

    #[test]
    fn cached_compiler_shares_tables() {
        let session = Session::new();
        let target = record_isa::targets::tic25::target();
        let c1 = session.compiler_for(&target).unwrap();
        let c2 = session.compiler_for(&target).unwrap();
        assert!(Arc::ptr_eq(c1.tables(), c2.tables()));
    }

    #[test]
    fn same_key_different_structure_gets_a_distinct_compiler() {
        // same name and table dimensions → same cache key; the equality
        // confirmation must still tell the two descriptions apart
        let session = Session::new();
        let t1 = record_isa::targets::tic25::target();
        let mut t2 = t1.clone();
        t2.rules[0].cost.words += 1;
        assert_eq!(cache_key(&t1), cache_key(&t2));
        let c1 = session.compiler_for(&t1).unwrap();
        let c2 = session.compiler_for(&t2).unwrap();
        assert!(!Arc::ptr_eq(&c1, &c2));
        assert_eq!(session.stats().targets, 2);
        assert_eq!(session.stats().misses, 2);
        assert!(Arc::ptr_eq(&c1, &session.compiler_for(&t1).unwrap()));
    }

    #[test]
    fn invalid_target_is_not_cached() {
        let session = Session::new();
        let mut bad = record_isa::targets::tic25::target();
        bad.memory.banks = 3;
        assert!(session.compiler_for(&bad).is_err());
        assert_eq!(session.stats().targets, 0);
    }

    #[test]
    fn batch_matches_sequential_in_order() {
        let session = Session::new();
        let target = record_isa::targets::tic25::target();
        let sources: Vec<String> = (0..8).map(src).collect();
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let batch = session.compile_batch(&target, &refs, CompileRequest::default()).unwrap();
        assert_eq!(batch.len(), refs.len());
        let fresh = Compiler::for_target(target.clone()).unwrap();
        for (i, outcome) in batch.iter().enumerate() {
            let code = outcome.as_ref().unwrap();
            assert_eq!(code.name, format!("p{i}"), "slot order is input order");
            let sequential = fresh.compile(refs[i], CompileRequest::default()).unwrap().code;
            assert_eq!(code.render(), sequential.render());
        }
    }

    #[test]
    fn batch_isolates_per_program_errors() {
        let session = Session::new();
        let target = record_isa::targets::tic25::target();
        let good = src(0);
        let sources = [good.as_str(), "program broken; begin nope", good.as_str()];
        let batch = session.compile_batch(&target, &sources, CompileRequest::default()).unwrap();
        assert!(batch[0].is_ok());
        assert!(batch[1].is_err());
        assert!(batch[2].is_ok());
    }

    #[test]
    fn batch_of_lirs_runs_correctly() {
        let session = Session::new();
        let target = record_isa::targets::tic25::target();
        let lirs: Vec<Lir> = (0..4)
            .map(|i| {
                let ast = record_ir::dfl::parse(&src(i)).unwrap();
                record_ir::lower::lower(&ast).unwrap()
            })
            .collect();
        let batch = session.compile_batch(&target, &lirs, CompileRequest::default()).unwrap();
        for (i, outcome) in batch.iter().enumerate() {
            let code = outcome.as_ref().unwrap();
            let inputs = [(Symbol::new("x"), vec![5i64])].into_iter().collect();
            let (out, _) = run_program(code, &target, &inputs).unwrap();
            assert_eq!(out[&Symbol::new("y")], vec![5 * (i as i64 + 2) + i as i64]);
        }
    }

    #[test]
    fn batch_hit_ratio_matches_sequential() {
        let target = record_isa::targets::tic25::target();
        let sources: Vec<String> = (0..8).map(src).collect();
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();

        let sequential = Session::new();
        for s in &refs {
            sequential.compile_source(&target, s).unwrap();
        }
        let batch = Session::new();
        batch.compile_batch(&target, &refs, CompileRequest::default()).unwrap();

        let (s, b) = (sequential.stats(), batch.stats());
        assert_eq!((b.hits, b.misses), (s.hits, s.misses), "batch {b:?} vs sequential {s:?}");
        assert_eq!(b.misses, 1);
        assert_eq!(b.hits, 7);
        // the metrics registry agrees with the atomic counters
        assert_eq!(batch.metrics().counter("record_cache_hits_total"), 7);
        assert_eq!(batch.metrics().counter("record_cache_misses_total"), 1);
        assert_eq!(batch.metrics().counter("record_compiles_total"), 8);
    }

    #[test]
    fn metrics_count_compiles_and_errors() {
        let session = Session::new();
        let target = record_isa::targets::tic25::target();
        session.compile_source(&target, &src(0)).unwrap();
        assert!(session.compile_source(&target, "program broken; begin nope").is_err());
        let m = session.metrics();
        assert_eq!(m.counter("record_compiles_total"), 1);
        assert_eq!(m.counter("record_compile_errors_total"), 1);
        let text = m.render_prometheus();
        assert!(text.contains("record_compile_latency_us_bucket"), "{text}");
        assert!(text.contains("record_cache_hit_ratio"), "{text}");
        assert!(text.contains("record_kernel_insns_count 1"), "{text}");
    }

    #[test]
    fn empty_batch_is_fine() {
        let session = Session::new();
        let target = record_isa::targets::tic25::target();
        assert!(session
            .compile_batch(&target, &[] as &[Lir], CompileRequest::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn code_cache_hit_skips_selection_entirely() {
        let session = Session::new().with_code_cache(16);
        let target = record_isa::targets::tic25::target();
        let Compiled { code: cold, timings: cold_t } =
            session.compile(&target, &src(0), CompileRequest::default()).unwrap();
        assert!(!cold_t.from_cache);
        assert!(cold_t.select.labels_computed > 0, "cold compile does real selection");
        let Compiled { code: warm, timings: warm_t } =
            session.compile(&target, &src(0), CompileRequest::default()).unwrap();
        assert!(warm_t.from_cache);
        assert_eq!(warm_t.select.labels_computed, 0, "warm hit must not label a single tree");
        assert!(warm_t.passes.is_empty(), "no pass ran on the hit path");
        assert_eq!(warm.render(), cold.render());
        let stats = session.stats();
        assert_eq!((stats.code_hits, stats.code_misses), (1, 1));
        assert_eq!(stats.compiles, 2, "a hit still counts as a compile");
        assert_eq!(session.metrics().counter("record_code_cache_hits_total"), 1);
        assert_eq!(session.metrics().counter("record_code_cache_misses_total"), 1);
        assert_eq!(session.metrics().counter("record_compiles_total"), 2);
        // the timing aggregate describes work done: one compile's worth
        assert_eq!(session.timings().select.statements, cold_t.select.statements);
    }

    #[test]
    fn code_cache_distinguishes_plan_and_program() {
        let target = record_isa::targets::tic25::target();
        let o0 = Session::new().with_plan(PassPlan::o0()).with_code_cache(16);
        o0.compile_source(&target, &src(0)).unwrap();
        o0.compile_source(&target, &src(1)).unwrap();
        // two distinct programs: no sharing
        assert_eq!(o0.stats().code_hits, 0);
        assert_eq!(o0.stats().code_misses, 2);
    }

    #[test]
    fn without_code_cache_every_compile_is_fresh() {
        let session = Session::new();
        let target = record_isa::targets::tic25::target();
        let t1 = session.compile(&target, &src(0), CompileRequest::default()).unwrap().timings;
        let t2 = session.compile(&target, &src(0), CompileRequest::default()).unwrap().timings;
        assert!(!t1.from_cache && !t2.from_cache);
        assert_eq!(session.stats().code_hits, 0);
        assert_eq!(session.metrics().counter("record_code_cache_hits_total"), 0);
    }

    #[test]
    fn disk_cache_warm_starts_a_second_session() {
        let dir = std::env::temp_dir().join(format!("record-session-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let target = record_isa::targets::tic25::target();

        let first = Session::new().with_cache_dir(&dir);
        let a = first.compile_source(&target, &src(0)).unwrap();

        // a brand-new session (cold memory) shares the directory: the
        // compile is answered from disk
        let second = Session::new().with_cache_dir(&dir);
        let Compiled { code: b, timings: t } =
            second.compile(&target, &src(0), CompileRequest::default()).unwrap();
        assert!(t.from_cache);
        assert_eq!(b.render(), a.render());
        let stats = second.stats();
        assert_eq!(stats.code_hits, 1);
        assert_eq!(second.metrics().counter("record_code_cache_hits_total"), 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_through_code_cache_is_byte_identical() {
        let session = Session::new().with_code_cache(32);
        let target = record_isa::targets::tic25::target();
        let sources: Vec<String> = (0..4).map(src).collect();
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let cold: Vec<String> = session
            .compile_batch(&target, &refs, CompileRequest::default())
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap().render())
            .collect();
        let warm: Vec<String> = session
            .compile_batch(&target, &refs, CompileRequest::default())
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap().render())
            .collect();
        assert_eq!(cold, warm);
        let stats = session.stats();
        assert_eq!(stats.code_hits, 4);
        assert_eq!(stats.code_misses, 4);
        assert_eq!(session.metrics().counter("record_compiles_total"), 8);
    }

    #[test]
    fn timings_accumulate() {
        let session = Session::new();
        let target = record_isa::targets::tic25::target();
        session.compile_source(&target, &src(0)).unwrap();
        let after_one = session.timings();
        assert!(after_one.select.statements > 0);
        assert!(after_one.total > std::time::Duration::ZERO);
        session.compile_source(&target, &src(1)).unwrap();
        assert!(session.timings().select.statements > after_one.select.statements);
    }
}
