//! Regeneration of the paper's Table 1 (and the Section 3.1 overhead
//! data).
//!
//! Table 1: *"Size of compiled programs in relation to assembly code
//! (%)"* — one row per DSPStone kernel, one column for the
//! target-specific comparison compiler (here [`crate::baseline`]) and one
//! for RECORD, both normalized to the hand-assembly size
//! ([`crate::handasm`] = 100 %).

use std::fmt;

use record_ir::{dfl, lower};
use record_sim::run_program;

use crate::select::SelectStats;
use crate::{
    baseline, handasm, Budgets, CompileError, CompileOptions, CompileRequest, Compiled, PassPlan,
    PhaseTimings, Session, SessionStats,
};

/// One Table 1 row.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Row {
    /// Kernel name.
    pub kernel: &'static str,
    /// Hand-assembly words (the 100 % denominator).
    pub hand_words: u32,
    /// Baseline ("TI C compiler") words.
    pub baseline_words: u32,
    /// RECORD words.
    pub record_words: u32,
    /// Hand-assembly cycles.
    pub hand_cycles: u64,
    /// Baseline cycles.
    pub baseline_cycles: u64,
    /// RECORD cycles.
    pub record_cycles: u64,
}

impl Table1Row {
    /// Baseline size as a percentage of hand assembly.
    pub fn baseline_pct(&self) -> u32 {
        (self.baseline_words * 100) / self.hand_words.max(1)
    }

    /// RECORD size as a percentage of hand assembly.
    pub fn record_pct(&self) -> u32 {
        (self.record_words * 100) / self.hand_words.max(1)
    }

    /// Baseline cycle overhead over hand assembly, as the factor the
    /// Section 3.1 discussion quotes (2×–8×).
    pub fn baseline_overhead(&self) -> f64 {
        self.baseline_cycles as f64 / self.hand_cycles.max(1) as f64
    }
}

/// The regenerated table.
#[derive(Clone, Debug, Default)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// On how many kernels RECORD produced code no larger than the
    /// baseline (the paper: "in six out of ten cases, RECORD outperforms
    /// the target-specific compiler").
    pub fn record_wins(&self) -> usize {
        self.rows.iter().filter(|r| r.record_words < r.baseline_words).count()
    }

    /// Number of kernels where the baseline's cycle overhead lies in the
    /// 2×–8× band Section 3.1 reports.
    pub fn overhead_in_band(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| {
                let f = r.baseline_overhead();
                (2.0..=8.0).contains(&f)
            })
            .count()
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1: size of compiled programs in relation to assembly code (%)")?;
        writeln!(f, "{:-^66}", "")?;
        writeln!(f, "{:<26} {:>12} {:>12}", "Program", "baseline", "RECORD")?;
        writeln!(f, "{:-^66}", "")?;
        for r in &self.rows {
            writeln!(f, "{:<26} {:>11}% {:>11}%", r.kernel, r.baseline_pct(), r.record_pct())?;
        }
        writeln!(f, "{:-^66}", "")?;
        writeln!(
            f,
            "RECORD at or below the target-specific compiler on {}/{} kernels",
            self.rows.iter().filter(|r| r.record_words <= r.baseline_words).count(),
            self.rows.len()
        )
    }
}

/// Compiles every kernel three ways, validates all three against the
/// reference implementation on the simulator, and assembles the table.
///
/// # Errors
///
/// Any compilation error, or a validation mismatch (reported as
/// [`CompileError::Target`] with the kernel name — a mismatch means a
/// code-generation bug, not a user error).
pub fn table1() -> Result<Table1, CompileError> {
    table1_in(&Session::new())
}

/// [`table1`] through an existing compilation session: the RECORD column
/// is compiled as one parallel batch against the session's cached
/// compiler, so repeated regenerations reuse the generated BURS tables.
///
/// # Errors
///
/// See [`table1`].
pub fn table1_in(session: &Session) -> Result<Table1, CompileError> {
    let target = record_isa::targets::tic25::target();
    let mut table = Table1::default();

    let kernels: Vec<_> = record_dspstone::kernels().into_iter().collect();
    let lirs = kernels
        .iter()
        .map(|k| Ok(lower::lower(&dfl::parse(k.source)?)?))
        .collect::<Result<Vec<_>, CompileError>>()?;
    let recs = session.compile_batch(&target, &lirs, CompileRequest::default())?;

    for ((kernel, lir), rec) in kernels.iter().zip(&lirs).zip(recs) {
        let hand = handasm::hand_code(kernel.name).ok_or_else(|| {
            CompileError::Target(crate::TargetError::NoHandCode { kernel: kernel.name.into() })
        })?;
        let base = baseline::compile(lir)?;
        let rec = rec?;

        let mut cycles = [0u64; 3];
        for (ix, code) in [&hand, &base, &rec].into_iter().enumerate() {
            let inputs = kernel.inputs(42);
            let expected = kernel.reference(&inputs);
            let (out, run) = run_program(code, &target, &inputs).map_err(|e| {
                CompileError::Target(crate::TargetError::SimulationFailed {
                    kernel: kernel.name.into(),
                    detail: e.to_string(),
                })
            })?;
            for (name, _) in kernel.outputs() {
                let sym = record_ir::Symbol::new(*name);
                if out.get(&sym) != expected.get(&sym) {
                    return Err(CompileError::Target(crate::TargetError::OutputMismatch {
                        detail: format!(
                            "{} variant {ix} output {name} mismatch: {:?} vs {:?}",
                            kernel.name,
                            out.get(&sym),
                            expected.get(&sym)
                        ),
                    }));
                }
            }
            cycles[ix] = run.cycles;
        }

        table.rows.push(Table1Row {
            kernel: kernel.name,
            hand_words: hand.size_words(),
            baseline_words: base.size_words(),
            record_words: rec.size_words(),
            hand_cycles: cycles[0],
            baseline_cycles: cycles[1],
            record_cycles: cycles[2],
        });
    }
    Ok(table)
}

/// Where compilation time goes: per-kernel and aggregate phase timings
/// for the DSPStone suite, as collected by a [`Session`].
#[derive(Clone, Debug)]
pub struct PhaseBreakdown {
    /// One entry per kernel, in suite order.
    pub rows: Vec<(&'static str, PhaseTimings)>,
    /// The sum over all rows.
    pub total: PhaseTimings,
    /// Compiler-cache statistics of the session that produced the rows.
    pub stats: SessionStats,
}

impl fmt::Display for PhaseBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Phase timings per kernel (µs)")?;
        writeln!(f, "{:-^78}", "")?;
        writeln!(
            f,
            "{:<26} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6}",
            "Program", "select", "compact", "other", "total", "stmts", "insns"
        )?;
        writeln!(f, "{:-^78}", "")?;
        let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
        for (name, t) in &self.rows {
            let (select, compact) = (us(t.pass_time("select")), us(t.pass_time("compact")));
            writeln!(
                f,
                "{:<26} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>6} {:>6}",
                name,
                select,
                compact,
                (us(t.total) - select - compact).max(0.0),
                us(t.total),
                t.select.statements,
                t.insns
            )?;
        }
        writeln!(f, "{:-^78}", "")?;
        writeln!(f, "aggregate profile:")?;
        writeln!(f, "{}", self.total)?;
        if !self.total.passes.is_empty() {
            writeln!(
                f,
                "  per-pass trace (summed over {} kernels; times in µs):",
                self.rows.len()
            )?;
            writeln!(
                f,
                "  {:<10} {:>4} {:>10} {:>9} {:>7} {:>7} {:>6} {:>6} {:>5}",
                "pass",
                "runs",
                "total(µs)",
                "mean(µs)",
                "insns",
                "Δinsns",
                "Δwords",
                "‖ops",
                "regs"
            )?;
            for p in &self.total.passes {
                writeln!(
                    f,
                    "  {:<10} {:>4} {:>10.1} {:>9.1} {:>7} {:>+7} {:>+6} {:>6} {:>5}",
                    p.name,
                    p.runs,
                    us(p.time),
                    us(p.time) / p.runs.max(1) as f64,
                    p.after.insns,
                    p.after.insns as i64 - p.before.insns as i64,
                    p.after.words as i64 - p.before.words as i64,
                    p.after.parallel_ops,
                    p.after.regs_used
                )?;
            }
        }
        if !self.total.salvages.is_empty() {
            writeln!(f, "  degradation trace ({} pass(es) dropped):", self.total.salvages.len())?;
            for s in &self.total.salvages {
                writeln!(f, "    dropped `{}`: {}", s.pass, s.reason)?;
            }
        }
        write!(
            f,
            "  compiler cache: {} hit(s), {} miss(es) across {} compile(s)",
            self.stats.hits, self.stats.misses, self.stats.compiles
        )?;
        if self.stats.salvaged_passes > 0 {
            write!(f, ", {} salvaged pass(es)", self.stats.salvaged_passes)?;
        }
        let s = &self.stats;
        if s.code_hits + s.code_misses + s.code_corruptions > 0 {
            write!(
                f,
                "\n  compile cache: {} hit(s), {} miss(es), {} eviction(s), {} corruption(s)",
                s.code_hits, s.code_misses, s.code_evictions, s.code_corruptions
            )?;
        }
        Ok(())
    }
}

/// Compiles every DSPStone kernel through a fresh [`Session`] and reports
/// where the time went, phase by phase.
///
/// # Errors
///
/// Any compilation error.
pub fn phase_breakdown() -> Result<PhaseBreakdown, CompileError> {
    phase_breakdown_in(&Session::new())
}

/// [`phase_breakdown`] through an existing session — compiles ride the
/// session's compiler cache and feed its tracer and metrics registry,
/// so a caller that wants the trace of exactly these compiles can attach
/// a [`Tracer`](crate::Tracer) first. Note the aggregate rows cover
/// *everything* the session has compiled, not just this call.
///
/// # Errors
///
/// Any compilation error.
pub fn phase_breakdown_in(session: &Session) -> Result<PhaseBreakdown, CompileError> {
    let target = record_isa::targets::tic25::target();
    let mut rows = Vec::new();
    for kernel in record_dspstone::kernels() {
        let compiled = session.compile(&target, kernel.source, CompileRequest::default())?;
        rows.push((kernel.name, compiled.timings));
    }
    Ok(PhaseBreakdown { rows, total: session.timings(), stats: session.stats() })
}

/// One kernel's compiled size on one target — the machine-readable
/// counterpart of Table 1, as exported by `dspstone_report --json`.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelSize {
    /// Kernel name.
    pub kernel: &'static str,
    /// Target the kernel was compiled for.
    pub target: String,
    /// Instructions in the compiled code (bundles count once).
    pub insns: usize,
    /// Code size in words.
    pub words: u32,
    /// Size relative to the TMS320C25 hand-assembly reference for the
    /// same kernel (the Table 1 denominator). Hand references exist only
    /// for the tic25, so rows for other targets are normalized against
    /// the same yardstick — comparable across targets, but only the
    /// tic25 rows are an apples-to-apples "overhead over hand code".
    pub relative_to_handasm: f64,
}

/// Compiles every DSPStone kernel for both bundled targets (TMS320C25
/// and DSP56k) through `session` and reports per-kernel code sizes.
///
/// # Errors
///
/// Any compilation error, or a missing hand-assembly reference.
pub fn kernel_size_report(session: &Session) -> Result<Vec<KernelSize>, CompileError> {
    let mut out = Vec::new();
    for target in [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()] {
        let kernels = record_dspstone::kernels();
        let sources = kernels.iter().map(|k| k.source);
        let codes = session.compile_batch(&target, sources, CompileRequest::default())?;
        for (kernel, code) in kernels.iter().zip(codes) {
            let code = code?;
            let hand = handasm::hand_code(kernel.name).ok_or_else(|| {
                CompileError::Target(crate::TargetError::NoHandCode { kernel: kernel.name.into() })
            })?;
            out.push(KernelSize {
                kernel: kernel.name,
                target: target.name.clone(),
                insns: code.insns.len(),
                words: code.size_words(),
                relative_to_handasm: f64::from(code.size_words())
                    / f64::from(hand.size_words().max(1)),
            });
        }
    }
    Ok(out)
}

/// Renders [`kernel_size_report`] rows as one JSON document:
/// `{"kernels": [{"kernel": …, "target": …, "insns": …, "words": …,
/// "relative_to_handasm": …}, …]}`.
pub fn render_kernel_sizes_json(rows: &[KernelSize]) -> String {
    use record_trace::json;
    let mut out = String::from("{\"kernels\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kernel\":");
        json::push_str_lit(&mut out, r.kernel);
        out.push_str(",\"target\":");
        json::push_str_lit(&mut out, &r.target);
        out.push_str(&format!(",\"insns\":{},\"words\":{}", r.insns, r.words));
        out.push_str(",\"relative_to_handasm\":");
        json::push_f64(&mut out, r.relative_to_handasm);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// One kernel's deterministic selection-work profile on one target — the
/// row format of `BENCH_compile.json`, the artifact the CI perf gate
/// diffs against `tests/golden/bench_baseline.json`.
///
/// Every field is a deterministic counter, identical across machines for
/// the same source tree, so a >5 % regression is a real algorithmic
/// change and not scheduler noise — and a regenerated file differs from
/// the committed one only when the compiler's work changed. Wall time is
/// measured by `perfbench`, against a calibration loop.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelBench {
    /// Kernel name.
    pub kernel: &'static str,
    /// Target the kernel was compiled for.
    pub target: String,
    /// Selection counters.
    pub select: SelectStats,
    /// Instructions in the compiled code (bundles count once).
    pub insns: usize,
    /// Code size in words.
    pub words: u32,
}

/// Compiles every DSPStone kernel for both bundled targets through
/// `session` and reports the deterministic selection-work counters.
///
/// Kernels are compiled sequentially (not batched) so each row's
/// [`PhaseTimings`] — and therefore its counters —
/// belongs to exactly one kernel.
///
/// # Errors
///
/// Any compilation error.
pub fn kernel_bench_report(session: &Session) -> Result<Vec<KernelBench>, CompileError> {
    let mut out = Vec::new();
    for target in [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()] {
        for kernel in record_dspstone::kernels() {
            let Compiled { code, timings: t } =
                session.compile(&target, kernel.source, CompileRequest::default())?;
            out.push(KernelBench {
                kernel: kernel.name,
                target: target.name.clone(),
                select: t.select,
                insns: code.insns.len(),
                words: code.size_words(),
            });
        }
    }
    Ok(out)
}

/// Renders the assembly listing of every DSPStone kernel on both bundled
/// targets under three plans: `O0`, `O2`, and `service`, the plan
/// `recordd` compiles with (`O2` under [`Budgets::service`], non-strict).
/// Each listing is preceded by a `=== kernel target plan` line. This is
/// the `tests/golden/dspstone_asm.txt` document: a change that promises
/// unchanged code must reproduce it byte for byte.
///
/// # Errors
///
/// Any compilation error.
pub fn render_asm_listings(session: &Session) -> Result<String, CompileError> {
    let plans = [
        ("O0", PassPlan::o0()),
        ("O2", PassPlan::o2()),
        ("service", PassPlan::o2().with_budgets(Budgets::service()).strict(false)),
    ];
    let mut out = String::new();
    for target in [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()] {
        for (label, plan) in &plans {
            for kernel in record_dspstone::kernels() {
                let code = session.compile(&target, kernel.source, plan.clone())?.code;
                out.push_str(&format!("=== {} {} {label}\n", kernel.name, target.name));
                out.push_str(&code.render());
            }
        }
    }
    Ok(out)
}

/// Processor-cube points of [`render_backend_asm_listings`], as
/// [`CubeParams::from_seed`](record_isa::cube::CubeParams::from_seed)
/// seeds. All three lack direct addressing, so every scalar access walks
/// the address pass's scalar-pointer chain, and all three run out of
/// address registers on some kernel, so streams spill their pointers to
/// `$ptr` cells (`LAR`/`SAR`):
///
/// * 35 — dual banks, two address registers, distinct-bank parallel
///   moves: bank assignment and packing under the distinct-bank rule;
/// * 47 — one bank of 128 words, four address registers: one kernel does
///   not fit, which pins an `error:` line;
/// * 169 — dual banks, eight address registers, one parallel-move slot.
const BACKEND_CUBE_SEEDS: [u64; 3] = [35, 47, 169];

/// Renders the assembly listings of the backend paths the DSPStone
/// listings ([`render_asm_listings`]) do not pin: every DSPStone kernel
/// on the ASIP presets `asip-dsp` and `asip-min` (named by their
/// processor-cube names), `risc4` and the processor-cube points of
/// seeds 35, 47 and 169 under `O0`, `O2` and `service`, then on dsp56k
/// under `O2` with list scheduling (`O2-list`) and with branch-and-bound
/// scheduling of segments up to 10 instructions (`O2-bnb10`, the limit
/// the ablation bench uses). Each listing is preceded by a
/// `=== kernel target plan` line; a compile that fails writes one
/// `error: …` line instead. This is the `tests/golden/backend_asm.txt`
/// document.
pub fn render_backend_asm_listings(session: &Session) -> String {
    use record_isa::cube::CubeParams;
    use record_isa::targets::{dsp56k, simple_risc};
    use record_opt::ScheduleMode;

    let o2_scheduled = |mode| {
        PassPlan::from_options(&CompileOptions {
            schedule: Some(mode),
            ..CompileOptions::default()
        })
    };
    let plans = [
        ("O0", PassPlan::o0()),
        ("O2", PassPlan::o2()),
        ("service", PassPlan::o2().with_budgets(Budgets::service()).strict(false)),
    ];
    let mut targets = vec![
        CubeParams::asip_dsp().build().expect("the ASIP presets are valid"),
        CubeParams::asip_minimal().build().expect("the ASIP presets are valid"),
        simple_risc::target(4),
    ];
    targets.extend(BACKEND_CUBE_SEEDS.iter().map(|&seed| record_isa::cube::target_from_seed(seed)));
    let mut runs: Vec<(&record_isa::TargetDesc, &str, PassPlan)> = Vec::new();
    for target in &targets {
        for (label, plan) in &plans {
            runs.push((target, label, plan.clone()));
        }
    }
    let dsp56k = dsp56k::target();
    runs.push((&dsp56k, "O2-list", o2_scheduled(ScheduleMode::List)));
    runs.push((
        &dsp56k,
        "O2-bnb10",
        o2_scheduled(ScheduleMode::BranchAndBound { max_segment: 10 }),
    ));

    let mut out = String::new();
    for (target, label, plan) in runs {
        for kernel in record_dspstone::kernels() {
            out.push_str(&format!("=== {} {} {label}\n", kernel.name, target.name));
            match session.compile(target, kernel.source, plan.clone()) {
                Ok(compiled) => out.push_str(&compiled.code.render()),
                Err(e) => out.push_str(&format!("error: {e}\n")),
            }
        }
    }
    out
}

/// Renders [`kernel_bench_report`] rows as the `BENCH_compile.json`
/// document: `{"schema": "record-bench/v1", "kernels": [{…}, …]}`.
pub fn render_kernel_bench_json(rows: &[KernelBench]) -> String {
    use record_trace::json;
    let mut out = String::from("{\"schema\":\"record-bench/v1\",\"kernels\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kernel\":");
        json::push_str_lit(&mut out, r.kernel);
        out.push_str(",\"target\":");
        json::push_str_lit(&mut out, &r.target);
        for (counter, value) in SelectStats::COUNTERS.iter().zip(r.select.values()) {
            out.push_str(&format!(",\"{}\":{value}", counter.name));
        }
        out.push_str(&format!(",\"insns\":{},\"words\":{}", r.insns, r.words));
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Renders a [`Session`]'s compile-cache counters as the
/// `record-cache/v1` JSON document the CI cold-vs-warm step uploads and
/// the perf gate diffs (via `perf_gate --cache-current`):
/// `{"schema": "record-cache/v1", "code_hits": …, "code_misses": …,
/// "code_evictions": …, "code_corruptions": …, "compiles": …}`.
///
/// Every field is deterministic for a fixed compile sequence, so the
/// gate treats misses/evictions/corruptions as work (must not rise) and
/// hits as savings (must not fall).
pub fn render_cache_stats_json(stats: &SessionStats) -> String {
    format!(
        "{{\"schema\":\"record-cache/v1\",\"code_hits\":{},\"code_misses\":{},\
         \"code_evictions\":{},\"code_corruptions\":{},\"compiles\":{}}}\n",
        stats.code_hits,
        stats.code_misses,
        stats.code_evictions,
        stats.code_corruptions,
        stats.compiles
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_regenerates_with_the_paper_shape() {
        let table = table1().expect("all kernels compile and validate");
        assert_eq!(table.rows.len(), 10);
        // Every compiled program is at least as large as hand assembly…
        for r in &table.rows {
            assert!(r.record_words >= r.hand_words, "{}: {:?}", r.kernel, r);
            assert!(r.baseline_words >= r.hand_words, "{}: {:?}", r.kernel, r);
        }
        // …and the paper's headline: RECORD beats the target-specific
        // compiler on a majority of kernels.
        assert!(table.record_wins() >= 6, "RECORD wins only {}/10:\n{table}", table.record_wins());
    }

    #[test]
    fn display_renders_all_rows() {
        let table = table1().unwrap();
        let text = table.to_string();
        for k in record_dspstone::kernels() {
            assert!(text.contains(k.name), "{text}");
        }
    }

    #[test]
    fn table1_through_a_shared_session_reuses_the_compiler() {
        let session = Session::new();
        let first = table1_in(&session).unwrap();
        let again = table1_in(&session).unwrap();
        assert_eq!(first.rows, again.rows);
        let stats = session.stats();
        assert_eq!(stats.misses, 1, "one table generation for both runs");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn phase_breakdown_covers_every_kernel() {
        let pb = phase_breakdown().unwrap();
        assert_eq!(pb.rows.len(), 10);
        for (name, t) in &pb.rows {
            assert!(t.select.statements > 0, "{name} selected no statements");
            assert!(t.insns > 0, "{name} emitted nothing");
            assert!(t.total >= t.pass_time("select"), "{name}: total below select");
        }
        assert_eq!(pb.stats.compiles, 10);
        let text = pb.to_string();
        assert!(text.contains("aggregate profile"), "{text}");
    }

    #[test]
    fn kernel_sizes_cover_both_targets_and_render_valid_json() {
        let session = Session::new();
        let rows = kernel_size_report(&session).unwrap();
        assert_eq!(rows.len(), 20, "10 kernels × 2 targets");
        for r in &rows {
            assert!(r.insns > 0, "{}/{} emitted nothing", r.kernel, r.target);
            assert!(r.words > 0, "{}/{}", r.kernel, r.target);
            assert!(r.relative_to_handasm > 0.0, "{}/{}", r.kernel, r.target);
        }
        // tic25 rows are the Table 1 comparison: never below hand assembly
        for r in rows.iter().filter(|r| r.target == "tic25") {
            assert!(r.relative_to_handasm >= 1.0, "{}: {}", r.kernel, r.relative_to_handasm);
        }
        let json = render_kernel_sizes_json(&rows);
        record_trace::json::validate(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        assert!(json.contains("\"target\":\"dsp56k\""), "{json}");
    }

    #[test]
    fn kernel_bench_report_counts_selection_work_and_renders_valid_json() {
        let session = Session::new();
        let rows = kernel_bench_report(&session).unwrap();
        assert_eq!(rows.len(), 20, "10 kernels × 2 targets");
        let mut kernels_with_variants = std::collections::HashSet::new();
        for r in &rows {
            let s = &r.select;
            assert!(s.statements > 0, "{}/{} selected nothing", r.kernel, r.target);
            assert!(s.variants >= s.statements, "{}/{}", r.kernel, r.target);
            assert!(s.labels_computed > 0, "{}/{} labelled nothing", r.kernel, r.target);
            assert!(r.insns > 0 && r.words > 0, "{}/{}", r.kernel, r.target);
            // Commutation lives in the grammar, so a kernel enumerates
            // variants only for its associative chains and subtractions;
            // where it does, hash-consing and label memoization pay off.
            if s.variants > s.statements {
                kernels_with_variants.insert(r.kernel);
                assert!(s.interned_nodes > 0, "{}/{} interned nothing", r.kernel, r.target);
                assert!(s.dedup_hits > 0, "{}/{} deduplicated nothing", r.kernel, r.target);
                assert!(s.labels_memoized > 0, "{}/{} memoized nothing", r.kernel, r.target);
            }
        }
        assert!(kernels_with_variants.len() >= 5, "variants on {kernels_with_variants:?}");
        let json = render_kernel_bench_json(&rows);
        record_trace::json::validate(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        assert!(json.contains("\"schema\":\"record-bench/v1\""), "{json}");
        assert!(json.contains("\"labels_memoized\""), "{json}");
    }

    #[test]
    fn cache_stats_json_is_valid_and_complete() {
        let stats =
            SessionStats { code_hits: 80, code_misses: 2, compiles: 82, ..Default::default() };
        let json = render_cache_stats_json(&stats);
        record_trace::json::validate(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        let doc = record_trace::json::parse(&json).unwrap();
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("record-cache/v1"));
        for (field, want) in [
            ("code_hits", 80.0),
            ("code_misses", 2.0),
            ("code_evictions", 0.0),
            ("code_corruptions", 0.0),
            ("compiles", 82.0),
        ] {
            assert_eq!(doc.get(field).and_then(|v| v.as_f64()), Some(want), "{field}");
        }
    }

    #[test]
    fn phase_breakdown_renders_compile_cache_line_only_when_used() {
        let silent = phase_breakdown().unwrap();
        assert!(
            !silent.to_string().contains("compile cache:"),
            "cache line must not render for cache-less sessions"
        );

        let session = Session::new().with_code_cache(16);
        let pb1 = phase_breakdown_in(&session).unwrap();
        let text = pb1.to_string();
        assert!(text.contains("compile cache:"), "{text}");
        assert!(text.contains("10 miss(es)"), "{text}");
        let pb2 = phase_breakdown_in(&session).unwrap();
        let text = pb2.to_string();
        assert!(text.contains("10 hit(s), 10 miss(es)"), "{text}");
    }

    #[test]
    fn phase_breakdown_lists_dynamic_passes_with_stats() {
        let pb = phase_breakdown().unwrap();
        // the default plan's passes appear, aggregated by name
        let names: Vec<&str> = pb.total.passes.iter().map(|p| p.name).collect();
        for want in ["treeify", "select", "layout", "offset", "address", "compact", "modes", "rpt"]
        {
            assert!(names.contains(&want), "missing pass {want}: {names:?}");
        }
        for p in &pb.total.passes {
            assert_eq!(p.runs, 10, "{}: one run per kernel", p.name);
        }
        // select creates all the instructions it reports
        let select = pb.total.passes.iter().find(|p| p.name == "select").unwrap();
        assert_eq!(select.before.insns, 0);
        assert!(select.after.insns > 0);
        // per-pass rows render in the report text
        let text = pb.to_string();
        assert!(text.contains("per-pass trace"), "{text}");
        assert!(text.contains("select"), "{text}");
        // total AND mean columns, with units labeled
        assert!(text.contains("total(µs)"), "{text}");
        assert!(text.contains("mean(µs)"), "{text}");
    }
}
