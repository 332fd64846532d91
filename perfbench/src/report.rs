//! From samples and spans to named metrics, and the result documents.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use record_trace::json;

use crate::layers::{Counts, PATH_LAYERS};
use crate::phase::Slice;
use crate::stats::{median, quantile, sort};
use crate::trace::Span;

/// The gated end-to-end metrics, every workload, `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_us_p50", "us"),
    ("latency_us_p90", "us"),
    ("latency_us_p99", "us"),
    ("throughput_per_s", "1/s"),
    ("code_words", "words"),
    ("sim_cycles", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, every workload, `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.parse_us", "us"),
    ("frontend.lower_us", "us"),
    ("ir.fingerprint_us", "us"),
    ("pass.treeify_us", "us"),
    ("pass.select_us", "us"),
    ("pass.layout_us", "us"),
    ("pass.offset_us", "us"),
    ("pass.banks_us", "us"),
    ("pass.address_us", "us"),
    ("pass.compact_us", "us"),
    ("pass.hoist_us", "us"),
    ("pass.modes_us", "us"),
    ("pass.rpt_us", "us"),
    ("pass.verify_us", "us"),
    ("select.variants", "count"),
    ("select.search_steps", "count"),
    ("select.interned_nodes", "count"),
    ("select.dedup_hits", "count"),
    ("select.labels_computed", "count"),
    ("select.labels_memoized", "count"),
    ("select.shared_subtrees", "count"),
    ("select.shares_taken", "count"),
    ("select.recomputes_chosen", "count"),
    ("select.label_memo_ratio", "ratio"),
    ("session.overhead_us", "us"),
    ("burg.tables_build_us", "us"),
    ("burg.tables_load_us", "us"),
    ("cache.lookup_hit_us", "us"),
    ("cache.lookup_miss_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("wire.parse_request_us", "us"),
    ("wire.handle_line_us", "us"),
    ("wire.socket_us", "us"),
    ("bench.calib_per_s", "1/s"),
    ("bench.samples", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("raw.latency_us_p50", "us"),
    ("raw.latency_us_p90", "us"),
    ("raw.latency_us_p99", "us"),
    ("raw.throughput_per_s", "1/s"),
];

/// Diagnostics that only the `--json` document carries.
const EXTRA: &[(&str, &str)] = &[
    ("bench.tail_quantile", "ratio"),
    ("raw.setup_s", "s"),
    ("bench.cpu_share", "ratio"),
    ("bench.pinned", "bool"),
    ("bench.slices", "count"),
    ("bench.layer_sum_us", "us"),
    ("bench.untraced_program_us", "us"),
];

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER).chain(EXTRA).find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

/// What the set-up phase measured.
pub struct SetupFacts {
    /// Raw wall time of each set-up round, s.
    pub raw_s: Vec<f64>,
    /// The same, each calibrated by the calibration bursts around it.
    pub calibrated_s: Vec<f64>,
    pub code_words: u64,
    pub sim_cycles: u64,
}

/// A slice normalizes a request's latency by its own median for the
/// program once it holds this many timed requests for it.
const LOCAL_MIN: usize = 4;

/// The quantile reported as `latency_us_p99`: the 99th percentile, or,
/// from fewer than 1000 timed samples, the highest percentile that still
/// has ten samples beyond it (p97.5 from 400).
pub fn tail_quantile(samples: usize) -> f64 {
    (1.0 - 10.0 / samples as f64).clamp(0.5, 0.99)
}

/// Latency percentiles of a mix of programs, independent of the mix:
/// the median, the 90th percentile and the [`tail_quantile`].
///
/// The p50 is the geometric mean over programs of each program's median.
/// The p90 and the tail scale it by the percentiles of every request's
/// latency relative to the median of its program in its own slice (or in
/// the whole run, where the slice holds fewer than [`LOCAL_MIN`] requests
/// for it). The plain percentiles of the mix sit on the edge between
/// kernel size clusters and jump between them from one seed to the next,
/// and normalizing within the slice keeps slow slices, which calibration
/// already accounts for, out of the tail.
fn mix_percentiles(slices: &[&Slice], programs: usize, calibrated: bool) -> [f64; 3] {
    let us = |s: &Slice, ns: u32| f64::from(ns) / 1e3 * if calibrated { s.factor() } else { 1.0 };
    let mut run = vec![Vec::new(); programs];
    for s in slices {
        for x in s.samples.iter().filter(|x| x.ok && x.timed) {
            run[usize::from(x.program)].push(us(s, x.ns));
        }
    }
    let run_medians: Vec<f64> =
        run.iter().map(|v| if v.is_empty() { f64::NAN } else { median(v) }).collect();
    let p50 = geomean(run_medians.iter().copied().filter(|m| m.is_finite()));
    let mut ratios = Vec::new();
    let mut cells = vec![Vec::new(); programs];
    for s in slices {
        for c in &mut cells {
            c.clear();
        }
        for x in s.samples.iter().filter(|x| x.ok && x.timed) {
            cells[usize::from(x.program)].push(us(s, x.ns));
        }
        for (cell, run_median) in cells.iter().zip(&run_medians) {
            let m = if cell.len() >= LOCAL_MIN { median(cell) } else { *run_median };
            ratios.extend(cell.iter().map(|x| x / m));
        }
    }
    sort(&mut ratios);
    let tail = tail_quantile(ratios.len());
    [p50, p50 * quantile(&ratios, 0.9), p50 * quantile(&ratios, tail)]
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp()
    }
}

/// The end-to-end metrics (and their raw twins) of the untraced slices.
pub fn end_to_end(slices: &[&Slice], programs: usize, setup: &SetupFacts, rss_mb: f64) -> Metrics {
    let (mut work_ref_s, mut work_raw_s, mut ok, mut timed) = (0.0, 0.0, 0u64, 0usize);
    for s in slices {
        work_ref_s += s.work_ns as f64 * s.factor() / 1e9;
        work_raw_s += s.work_ns as f64 / 1e9;
        for x in s.samples.iter().filter(|x| x.ok) {
            ok += 1;
            timed += usize::from(x.timed);
        }
    }
    let ok = ok as f64;
    let [cal50, cal90, cal99] = mix_percentiles(slices, programs, true);
    let [raw50, raw90, raw99] = mix_percentiles(slices, programs, false);
    let mut m = Metrics::new();
    m.insert("latency_us_p50", cal50);
    m.insert("latency_us_p90", cal90);
    m.insert("latency_us_p99", cal99);
    m.insert("throughput_per_s", ok / work_ref_s);
    m.insert("code_words", setup.code_words as f64);
    m.insert("sim_cycles", setup.sim_cycles as f64);
    m.insert("setup_s", median(&setup.calibrated_s));
    m.insert("peak_rss_mb", rss_mb);
    m.insert("raw.latency_us_p50", raw50);
    m.insert("raw.latency_us_p90", raw90);
    m.insert("raw.latency_us_p99", raw99);
    m.insert("raw.throughput_per_s", ok / work_raw_s);
    m.insert("raw.setup_s", median(&setup.raw_s));
    m.insert("bench.calib_per_s", median(&slices.iter().map(|s| s.cal_rate).collect::<Vec<_>>()));
    m.insert("bench.cpu_share", median(&slices.iter().map(|s| s.cpu_share).collect::<Vec<_>>()));
    m.insert("bench.samples", timed as f64);
    m.insert("bench.tail_quantile", tail_quantile(timed));
    m.insert("bench.slices", slices.len() as f64);
    m
}

/// Calibrated samples grouped by program.
struct ByProgram(Vec<Vec<f64>>);

impl ByProgram {
    fn new(programs: usize) -> Self {
        ByProgram(vec![Vec::new(); programs])
    }

    fn medians(&self) -> Vec<Option<f64>> {
        self.0.iter().map(|v| (!v.is_empty()).then(|| median(v))).collect()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Per-layer metrics of a traced run. A layer's value is the mean over
/// programs of its median calibrated self time per program, so layers
/// of one compile add up to the compile.
pub fn per_layer(spans: &[Span], slices: &[Slice], programs: usize, serves: bool) -> Metrics {
    let factor = |slice: usize| slices[slice.min(slices.len() - 1)].factor();
    let mut self_us: BTreeMap<&str, ByProgram> = BTreeMap::new();
    let mut request_us = ByProgram::new(programs);
    for s in spans {
        let f = factor(s.slice);
        self_us.entry(s.name).or_insert_with(|| ByProgram::new(programs)).0[s.program]
            .push(s.self_ns as f64 * f / 1e3);
        if s.name == "request" {
            request_us.0[s.program].push((s.end_ns - s.start_ns) as f64 * f / 1e3);
        }
    }
    let mut untraced_by = ByProgram::new(programs);
    for s in slices.iter().filter(|s| !s.traced) {
        for x in s.samples.iter().filter(|x| x.ok && x.timed) {
            untraced_by.0[usize::from(x.program)].push(f64::from(x.ns) * s.factor() / 1e3);
        }
    }
    let medians = |name: &str| self_us.get(name).map_or(vec![None; programs], ByProgram::medians);
    let layer = |name: &str| mean(medians(name).into_iter().flatten());

    let mut m = Metrics::new();
    for (metric, span) in [
        ("frontend.parse_us", "frontend.parse"),
        ("frontend.lower_us", "frontend.lower"),
        ("ir.fingerprint_us", "ir.fingerprint"),
        ("pass.treeify_us", "pass.treeify"),
        ("pass.select_us", "pass.select"),
        ("pass.layout_us", "pass.layout"),
        ("pass.offset_us", "pass.offset"),
        ("pass.banks_us", "pass.banks"),
        ("pass.address_us", "pass.address"),
        ("pass.compact_us", "pass.compact"),
        ("pass.hoist_us", "pass.hoist"),
        ("pass.modes_us", "pass.modes"),
        ("pass.rpt_us", "pass.rpt"),
        ("pass.verify_us", "pass.verify"),
        ("burg.tables_build_us", "burg.tables_build"),
        ("burg.tables_load_us", "burg.tables_load"),
        ("cache.lookup_hit_us", "cache.lookup_hit"),
        ("cache.lookup_miss_us", "cache.lookup_miss"),
        ("cache.insert_us", "cache.insert"),
        ("wire.parse_request_us", "wire.parse_request"),
        ("wire.handle_line_us", "wire.handle_line"),
    ] {
        m.insert(metric, layer(span));
    }

    // The compile path: the stage layers against an untraced compile of
    // the same program (the timed phase's samples in-process; a replayed
    // `Session::compile_source` when serving).
    let basis = if serves { medians("session.compile") } else { untraced_by.medians() };
    let path: Vec<Vec<Option<f64>>> = PATH_LAYERS.iter().map(|l| medians(l)).collect();
    let layer_sum: Vec<f64> =
        (0..programs).map(|p| path.iter().filter_map(|l| l[p]).sum::<f64>()).collect();
    let with_basis = || basis.iter().zip(&layer_sum).filter_map(|(b, s)| b.map(|b| (b, *s)));
    m.insert("session.overhead_us", mean(with_basis().map(|(b, s)| b - s)));
    m.insert("bench.layer_sum_us", mean(with_basis().map(|(_, s)| s)));
    m.insert("bench.untraced_program_us", mean(with_basis().map(|(b, _)| b)));

    // Socket share of a round trip: the untraced phase's round trips when
    // serving, a scratch daemon's otherwise, less the in-process handler.
    let trips = if serves { untraced_by.medians() } else { medians("wire.round_trip") };
    let handled = medians("wire.handle_line");
    let socket = trips.iter().zip(&handled).filter_map(|(t, h)| Some((*t)? - (*h)?));
    m.insert("wire.socket_us", mean(socket));

    let traced = mean(request_us.medians().into_iter().flatten());
    let plain = mean(untraced_by.medians().into_iter().flatten());
    m.insert("bench.trace_overhead_pct", (traced / plain - 1.0) * 100.0);
    m
}

/// The selection counters and the cache counters of a traced run.
pub fn counters(counts: &Counts, hit_ratio: f64, evictions: f64) -> Metrics {
    let mut m: Metrics = counts.metrics().into_iter().collect();
    m.insert("cache.hit_ratio", hit_ratio);
    m.insert("cache.evictions", evictions);
    m
}

/// A finished run.
pub struct Report {
    pub workload: &'static str,
    /// Wall-clock start of the run, seconds since the Unix epoch.
    pub started: u64,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

fn push_metric(out: &mut String, name: &str, value: f64) {
    out.push_str(&format!("\"{name}\":{{\"value\":"));
    json::push_f64(out, value);
    out.push_str(",\"unit\":");
    json::push_str_lit(out, unit_of(name));
    out.push('}');
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics the result line must carry, in order.
    pub fn gated(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The names among [`gated`](Self::gated) that were not measured.
    pub fn missing(&self) -> Vec<&'static str> {
        self.gated()
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.metrics.get(n).is_some_and(|v| v.is_finite()))
            .collect()
    }

    fn header(&self) -> String {
        format!(
            "\"correct\":{},\"attempted\":{},\"failed\":{}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// end-to-end (untraced) or per-layer (traced) metrics.
    pub fn result_line(&self) -> String {
        let mut out = format!("{{{},\"metrics\":{{", self.header());
        for (i, (name, _)) in self.gated().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_metric(&mut out, name, self.metrics.get(name).copied().unwrap_or(f64::NAN));
        }
        out.push_str("}}");
        out
    }

    /// Everything the run measured, for `--json`, `--compare`,
    /// `--baseline` and `--self-check`.
    pub fn document(&self) -> String {
        let mut out = String::from("{\"workload\":");
        json::push_str_lit(&mut out, self.workload);
        let _ = write!(
            out,
            ",\"started_unix_s\":{},\"seed\":{},\"seconds\":{},\"trace\":{},{},\"errors\":[",
            self.started,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.header()
        );
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str_lit(&mut out, e);
        }
        out.push_str("],\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_metric(&mut out, name, *value);
        }
        out.push_str("}}");
        out
    }

    /// A human-readable summary for standard error.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} seed={} seconds={} trace={}: attempted {} failed {}\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.attempted,
            self.failed
        );
        for e in &self.errors {
            let _ = writeln!(out, "  error: {e}");
        }
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "  {name:<28} {value:>14.3} {}", unit_of(name));
        }
        out
    }
}
