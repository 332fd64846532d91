//! Per-phase instrumentation of the compilation pipeline.
//!
//! Every compile ([`Compiler::compile`](crate::Compiler::compile) and
//! [`Session::compile`](crate::Session::compile)) fills in a
//! [`PhaseTimings`]: the frontend's two durations, one [`PassRecord`] per
//! executed pass of Fig. 2's backend, and a few work counters. Timings
//! are additive — [`PhaseTimings::absorb`] accumulates
//! them across statements, kernels or whole batches — so the same struct
//! serves a single compile and a session-wide aggregate.

use std::fmt;
use std::time::Duration;

use record_isa::{Code, InsnKind, Loc, RegId};

use crate::select::SelectStats;

/// A snapshot of code-shape counters, taken before and after each pass so
/// a [`PassRecord`] can show what the pass actually did to the code.
///
/// Snapshots are additive: [`CodeStats::absorb`] sums them, so aggregated
/// records (a whole [`Session`](crate::Session)) stay meaningful as
/// totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodeStats {
    /// Instructions (bundles count once).
    pub insns: usize,
    /// Code size in words.
    pub words: u32,
    /// Explicit no-ops.
    pub nops: usize,
    /// Sub-operations riding in parallel bundles (bundle fill).
    pub parallel_ops: usize,
    /// Distinct registers referenced.
    pub regs_used: usize,
}

impl CodeStats {
    /// Measures `code`.
    pub fn of(code: &Code) -> Self {
        let mut stats = CodeStats { words: code.size_words(), ..Default::default() };
        let mut regs = RegSet::default();
        for insn in &code.insns {
            stats.insns += 1;
            count_insn(insn, &mut stats, &mut regs);
        }
        stats.regs_used = regs.len;
        stats
    }

    /// Adds `other` into `self` (for session-level aggregation).
    pub fn absorb(&mut self, other: &CodeStats) {
        self.insns += other.insns;
        self.words += other.words;
        self.nops += other.nops;
        self.parallel_ops += other.parallel_ops;
        self.regs_used = self.regs_used.max(other.regs_used);
    }
}

/// The distinct registers of a program. A program references a handful,
/// so they sit in an inline array searched linearly (no hashing, no heap);
/// only registers past the first [`RegSet::INLINE`] spill to a vector.
struct RegSet {
    inline: [RegId; RegSet::INLINE],
    spilled: Vec<RegId>,
    len: usize,
}

impl RegSet {
    const INLINE: usize = 32;

    fn insert(&mut self, r: RegId) {
        let inline = &self.inline[..self.len.min(Self::INLINE)];
        if inline.contains(&r) || self.spilled.contains(&r) {
            return;
        }
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = r,
            None => self.spilled.push(r),
        }
        self.len += 1;
    }
}

impl Default for RegSet {
    fn default() -> Self {
        let none = RegId::new(record_isa::RegClassId(0), 0);
        RegSet { inline: [none; RegSet::INLINE], spilled: Vec::new(), len: 0 }
    }
}

fn count_insn(insn: &record_isa::Insn, stats: &mut CodeStats, regs: &mut RegSet) {
    if insn.text == "NOP" {
        stats.nops += 1;
    }
    if let InsnKind::Compute { dst, expr } = &insn.kind {
        let mut note = |l: &Loc| {
            if let Loc::Reg(r) = l {
                regs.insert(*r);
            }
        };
        note(dst);
        expr.for_each_read(&mut note);
    }
    for p in &insn.parallel {
        stats.parallel_ops += 1;
        count_insn(p, stats, regs);
    }
}

/// One dynamically-registered pass's contribution to a compile (or, after
/// [`PhaseTimings::absorb`], to a whole batch/session).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassRecord {
    /// The pass name (as registered in the `PassPlan`).
    pub name: &'static str,
    /// Wall-clock time spent in the pass.
    pub time: Duration,
    /// How many compiles ran this pass (1 for a single compile).
    pub runs: usize,
    /// Code shape before the pass (summed across runs).
    pub before: CodeStats,
    /// Code shape after the pass (summed across runs).
    pub after: CodeStats,
}

/// One graceful-degradation event: a best-effort pass failed (panic,
/// budget exhaustion or strict-verify violation) and was dropped from the
/// plan before the compile was retried.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SalvageRecord {
    /// The pass that was dropped.
    pub pass: String,
    /// The failure that caused the drop, rendered.
    pub reason: String,
}

/// Wall-clock time and work counters of a compile: the frontend stages,
/// then one record per executed pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// DFL lexing + parsing (zero when compiling from a prebuilt LIR).
    pub parse: Duration,
    /// AST → LIR lowering (zero when compiling from a prebuilt LIR).
    pub lower: Duration,
    /// End-to-end time of the compile (≥ the frontend plus every pass).
    pub total: Duration,
    /// Selection counters.
    pub select: SelectStats,
    /// Instructions in the final code.
    pub insns: usize,
    /// `true` when this "compile" was answered by the session's compile
    /// cache: no phase ran, every duration and counter above is zero.
    /// [`Session`](crate::Session) counts it as a compile but keeps it
    /// out of the timing aggregate and the latency/size histograms,
    /// which describe work actually performed.
    pub from_cache: bool,
    /// Per-pass records in execution order, as registered by the
    /// `PassPlan` that drove the compile.
    pub passes: Vec<PassRecord>,
    /// Graceful-degradation trail: one record per best-effort pass the
    /// driver dropped to salvage this compile (empty on a clean compile).
    pub salvages: Vec<SalvageRecord>,
}

impl PhaseTimings {
    /// Adds `other`'s durations and counters into `self`.
    pub fn absorb(&mut self, other: &PhaseTimings) {
        self.parse += other.parse;
        self.lower += other.lower;
        self.total += other.total;
        self.select.absorb(&other.select);
        self.insns += other.insns;
        for r in &other.passes {
            match self.passes.iter_mut().find(|p| p.name == r.name) {
                Some(p) => {
                    p.time += r.time;
                    p.runs += r.runs;
                    p.before.absorb(&r.before);
                    p.after.absorb(&r.after);
                }
                None => self.passes.push(r.clone()),
            }
        }
        self.salvages.extend(other.salvages.iter().cloned());
    }

    /// Time spent in the passes named `name` (zero when none ran).
    pub fn pass_time(&self, name: &str) -> Duration {
        self.passes.iter().filter(|p| p.name == name).map(|p| p.time).sum()
    }
}

impl fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total.as_secs_f64().max(1e-12);
        writeln!(f, "  {:<10} {:>12} {:>7}", "phase", "time", "share")?;
        let frontend = [("parse", self.parse), ("lower", self.lower)];
        let passes = self.passes.iter().map(|p| (p.name, p.time));
        for (name, d) in frontend.into_iter().chain(passes) {
            if d.is_zero() {
                continue;
            }
            writeln!(
                f,
                "  {:<10} {:>12} {:>6.1}%",
                name,
                format_duration(d),
                100.0 * d.as_secs_f64() / total
            )?;
        }
        writeln!(f, "  {:<10} {:>12}", "total", format_duration(self.total))?;
        write!(f, "  {} instructions", self.insns)?;
        let counters = SelectStats::COUNTERS.iter().zip(self.select.values());
        let nonzero: Vec<String> =
            counters.filter(|&(_, v)| v > 0).map(|(c, v)| format!("{} {v}", c.name)).collect();
        for line in nonzero.chunks(4) {
            write!(f, "\n  {}", line.join(", "))?;
        }
        Ok(())
    }
}

fn format_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us >= 10_000.0 {
        format!("{:.2} ms", us / 1000.0)
    } else {
        format!("{us:.1} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inline register set counts exactly what a vector of distinct
    /// registers counts, below and past its inline capacity.
    #[test]
    fn register_set_counts_distinct_registers() {
        for classes in [1u16, 3, 9] {
            let mut set = RegSet::default();
            let mut reference: Vec<RegId> = Vec::new();
            for k in 0..200u16 {
                let r = RegId::new(record_isa::RegClassId(k % classes), (k * 7) % 11);
                set.insert(r);
                if !reference.contains(&r) {
                    reference.push(r);
                }
                assert_eq!(set.len, reference.len(), "{classes} classes after {k}");
            }
        }
    }

    fn select(micros: u64) -> PassRecord {
        PassRecord {
            name: "select",
            time: Duration::from_micros(micros),
            runs: 1,
            ..Default::default()
        }
    }

    #[test]
    fn absorb_is_additive() {
        let stats = |statements| SelectStats { statements, ..Default::default() };
        let mut a =
            PhaseTimings { passes: vec![select(10)], select: stats(2), ..Default::default() };
        let b = PhaseTimings { passes: vec![select(5)], select: stats(3), ..Default::default() };
        a.absorb(&b);
        assert_eq!(a.pass_time("select"), Duration::from_micros(15));
        assert_eq!(a.passes[0].runs, 2);
        assert_eq!(a.select.statements, 5);
    }

    #[test]
    fn display_renders_nonempty_phases() {
        let t = PhaseTimings {
            passes: vec![select(80), PassRecord { name: "banks", ..Default::default() }],
            total: Duration::from_micros(100),
            select: SelectStats { statements: 1, ..Default::default() },
            ..Default::default()
        };
        let s = t.to_string();
        assert!(s.contains("select"), "{s}");
        assert!(!s.contains("banks"), "zero phases are elided: {s}");
        assert!(s.contains("statements 1"), "non-zero counters print by name: {s}");
        assert!(!s.contains("variants"), "zero counters are elided: {s}");
    }
}
