//! CI perf-regression gate over `BENCH_compile.json`.
//!
//! Compares a freshly generated benchmark report (see `dspstone_report
//! --bench-json`) against the committed baseline
//! (`tests/golden/bench_baseline.json`) and fails — exit code 1 — when
//! any *deterministic* counter regresses by more than the tolerance.
//!
//! Counters gate in the direction that means "the compiler did worse".
//! For the selection counters that direction is the `Gate` each entry
//! of `record::select::SelectStats::COUNTERS` declares:
//!
//! * **work counters** (`statements`, `variants`, `labels_computed`,
//!   `recomputes_chosen`, …, plus `insns` and `words`) regress by
//!   *increasing* — the selector enumerated, labelled, recomputed, or
//!   emitted more than it used to;
//! * **savings counters** (`dedup_hits`, `labels_memoized`,
//!   `shares_taken`, …) regress by *decreasing* — hash-consing or
//!   memoization stopped paying off, the block DAG builder stopped
//!   finding shareable values, or the emitter stopped taking shares it
//!   used to take (e.g. dsp56k MAC kernels falling back to
//!   recomputation).
//!
//! A gated field missing from either document fails the gate: read as
//! zero, a missing work counter would always pass.
//!
//! The report holds no wall-clock time: every counter is a pure
//! function of the source tree, so a >5 % move is an algorithmic change,
//! not scheduler noise. Wall time is `perfbench`'s job.
//!
//! With `--cache-current PATH` the gate additionally diffs a
//! `record-cache/v1` counter document (from `cache_stats --json`)
//! against the baseline's top-level `"cache"` object: misses, evictions
//! and corruptions must not rise; hits must not fall.
//! The compile sequence the `cache_stats` example runs is fixed, so
//! these counters are just as deterministic as the selection work.
//!
//! With `--soak-latency PATH` the gate reads a `load_gen --json` report
//! and checks its `p50_us`/`p99_us` compile-latency quantiles against
//! the **absolute** bounds in the baseline's top-level `"latency"`
//! object (`p50_bound_us`, `p99_bound_us`). Unlike the counters these
//! are wall-clock, so the bounds are deliberately generous and this
//! mode only runs in the serve-soak CI job — the deterministic counter
//! gate stays the primary regression tripwire. `--latency-only` skips
//! the counter/cache gates entirely for that job.
//!
//! ```sh
//! cargo run --example perf_gate -- \
//!     --current BENCH_compile.json \
//!     --baseline tests/golden/bench_baseline.json \
//!     --cache-current cache_stats.json
//! cargo run --example perf_gate -- \
//!     --latency-only --soak-latency load_gen_report.json \
//!     --baseline tests/golden/bench_baseline.json
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use record::select::{Gate, SelectStats};
use record_trace::json::{parse, Value};

/// Fields of a `BENCH_compile.json` row besides the selection counters:
/// bigger code is worse.
const CODE_SIZE: [(&str, Gate); 2] = [("insns", Gate::Work), ("words", Gate::Work)];

/// Compile-cache counters (`record-cache/v1`): more misses, evictions or
/// corrupt entries for the same compile sequence, or fewer hits, means
/// the cache stopped answering.
const CACHE: [(&str, Gate); 4] = [
    ("code_misses", Gate::Work),
    ("code_evictions", Gate::Work),
    ("code_corruptions", Gate::Work),
    ("code_hits", Gate::Savings),
];

fn load(path: &str) -> Result<BTreeMap<(String, String), Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc
        .get("kernels")
        .and_then(Value::as_array)
        .ok_or(format!("{path}: no \"kernels\" array"))?;
    let mut out = BTreeMap::new();
    for row in rows {
        let kernel = row.get("kernel").and_then(Value::as_str).ok_or("row without kernel")?;
        let target = row.get("target").and_then(Value::as_str).ok_or("row without target")?;
        out.insert((kernel.to_string(), target.to_string()), row.clone());
    }
    Ok(out)
}

fn counter(doc: &Value, name: &str) -> Option<f64> {
    doc.get(name).and_then(Value::as_f64)
}

/// Gates one field of `current` against `baseline` in the direction
/// `gate` names. A field missing from either document fails the gate:
/// read as zero, a missing work counter would always pass.
fn gate_field(
    what: &str,
    name: &str,
    gate: Gate,
    current: &Value,
    baseline: &Value,
    tolerance: f64,
) -> bool {
    let Some(c) = counter(current, name) else {
        println!("FAIL {what}: {name} missing from the current document");
        return false;
    };
    let Some(b) = counter(baseline, name) else {
        println!("FAIL {what}: {name} missing from the baseline");
        return false;
    };
    match gate {
        Gate::Work if c > b * (1.0 + tolerance) => {
            println!("FAIL {what}: {name} rose {b} -> {c} (> {:.0}%)", tolerance * 100.0);
            false
        }
        Gate::Savings if c < b * (1.0 - tolerance) => {
            println!("FAIL {what}: {name} fell {b} -> {c}");
            false
        }
        _ => true,
    }
}

fn load_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Gates the compile-cache counters of a `record-cache/v1` document
/// (produced by `cache_stats --json`) against the `"cache"` object of
/// the committed baseline. Only runs when `--cache-current` is passed,
/// so baselines predating the compile cache keep gating cleanly.
fn gate_cache(
    cache_current_path: &str,
    baseline_path: &str,
    tolerance: f64,
) -> Result<bool, String> {
    let current = load_doc(cache_current_path)?;
    if current.get("schema").and_then(Value::as_str) != Some("record-cache/v1") {
        return Err(format!("{cache_current_path}: not a record-cache/v1 document"));
    }
    let baseline = load_doc(baseline_path)?;
    let base = baseline
        .get("cache")
        .ok_or(format!("{baseline_path}: no \"cache\" object to gate against"))?;

    let mut ok = true;
    for (name, gate) in CACHE {
        ok &= gate_field("cache", name, gate, &current, base, tolerance);
    }
    let shown = |name| counter(&current, name).unwrap_or(0.0);
    println!(
        "cache gate: {} hits / {} misses over {} compiles vs baseline — {}",
        shown("code_hits"),
        shown("code_misses"),
        shown("compiles"),
        if ok { "OK" } else { "REGRESSED" }
    );
    Ok(ok)
}

/// Gates a `load_gen --json` report's compile-latency quantiles against
/// the **absolute** bounds in the baseline's top-level `"latency"`
/// object. Wall-clock, so the bounds are generous by design; only the
/// soak CI job runs this.
fn gate_latency(soak_path: &str, baseline_path: &str) -> Result<bool, String> {
    let report = load_doc(soak_path)?;
    let baseline = load_doc(baseline_path)?;
    let bounds = baseline
        .get("latency")
        .ok_or(format!("{baseline_path}: no \"latency\" object to gate against"))?;
    let shown = |name| counter(&report, name).unwrap_or(0.0);
    let samples = shown("samples");
    if samples == 0.0 {
        println!("FAIL latency: soak report has zero latency samples");
        return Ok(false);
    }
    let mut ok = true;
    for (name, bound_name) in [("p50_us", "p50_bound_us"), ("p99_us", "p99_bound_us")] {
        let bound = counter(bounds, bound_name).unwrap_or(0.0);
        if bound <= 0.0 {
            return Err(format!("{baseline_path}: latency.{bound_name} missing or zero"));
        }
        match counter(&report, name) {
            None => {
                println!("FAIL latency: {name} missing from the soak report");
                ok = false;
            }
            Some(got) if got > bound => {
                println!("FAIL latency: {name} {got:.0}µs exceeds absolute bound {bound:.0}µs");
                ok = false;
            }
            Some(_) => {}
        }
    }
    println!(
        "latency gate: p50 {:.0}µs / p99 {:.0}µs over {samples:.0} samples — {}",
        shown("p50_us"),
        shown("p99_us"),
        if ok { "OK" } else { "REGRESSED" }
    );
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let mut current_path = String::from("BENCH_compile.json");
    let mut baseline_path = String::from("tests/golden/bench_baseline.json");
    let mut cache_current_path: Option<String> = None;
    let mut soak_latency_path: Option<String> = None;
    let mut latency_only = false;
    let mut tolerance = 0.05f64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--current" => current_path = value()?,
            "--baseline" => baseline_path = value()?,
            "--cache-current" => cache_current_path = Some(value()?),
            "--soak-latency" => soak_latency_path = Some(value()?),
            "--latency-only" => latency_only = true,
            "--tolerance" => {
                tolerance = value()?.parse().map_err(|e| format!("bad tolerance: {e}"))?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    if latency_only {
        let path = soak_latency_path
            .ok_or("--latency-only needs --soak-latency PATH to gate".to_string())?;
        return gate_latency(&path, &baseline_path);
    }

    let current = load(&current_path)?;
    let baseline = load(&baseline_path)?;

    let mut ok = true;
    for key in baseline.keys() {
        if !current.contains_key(key) {
            println!("FAIL {}/{}: kernel missing from current report", key.0, key.1);
            ok = false;
        }
    }
    for ((kernel, target), cur) in &current {
        let Some(base) = baseline.get(&(kernel.clone(), target.clone())) else {
            println!("note {kernel}/{target}: new kernel, no baseline (not gated)");
            continue;
        };
        let what = format!("{kernel}/{target}");
        let counters = SelectStats::COUNTERS.iter().map(|c| (c.name, c.gate));
        for (name, gate) in counters.chain(CODE_SIZE) {
            ok &= gate_field(&what, name, gate, cur, base, tolerance);
        }
    }
    if let Some(path) = &cache_current_path {
        ok &= gate_cache(path, &baseline_path, tolerance)?;
    }
    if let Some(path) = &soak_latency_path {
        ok &= gate_latency(path, &baseline_path)?;
    }
    println!(
        "perf gate: {} rows checked against {baseline_path}, tolerance {:.0}% — {}",
        current.len(),
        tolerance * 100.0,
        if ok { "OK" } else { "REGRESSED" }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
