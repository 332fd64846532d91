//! Cold-vs-warm exerciser for the two-level compile cache.
//!
//! Sweeps the ten DSPStone kernels over both shipped targets under the
//! `O2` and `O0` pass plans — twice, with fresh [`Session`]s sharing one
//! cache directory — and reports the session cache counters as the
//! `record-cache/v1` JSON document the CI perf gate diffs (see
//! `perf_gate --cache-current`).
//!
//! The second sweep must be answered entirely from the cache (the
//! example exits nonzero otherwise): fresh sessions have cold memory, so
//! every one of its 40 compiles is a disk hit. Run the example twice
//! against the same `--dir` — CI runs the second invocation with
//! `--expect-warm-start` — and even the *first* sweep of the second
//! process is answered from the files the first process left behind.
//!
//! ```sh
//! cargo run --release --example cache_stats -- --dir target/cache-demo
//! cargo run --release --example cache_stats -- --dir target/cache-demo \
//!     --expect-warm-start --json cache_stats.json
//! ```
//!
//! Flags:
//!
//! * `--dir PATH` — cache directory shared by every session (required)
//! * `--json PATH` — write the `record-cache/v1` counter document
//! * `--expect-warm-start` — assert the first sweep is already fully
//!   cached (a previous process populated `--dir`)

use record::{PassPlan, Session, SessionStats};

/// Counter totals over every session the run created.
#[derive(Default)]
struct Totals {
    code_hits: u64,
    code_misses: u64,
    code_evictions: u64,
    code_corruptions: u64,
    compiles: usize,
}

impl Totals {
    fn absorb(&mut self, s: &SessionStats) {
        self.code_hits += s.code_hits;
        self.code_misses += s.code_misses;
        self.code_evictions += s.code_evictions;
        self.code_corruptions += s.code_corruptions;
        self.compiles += s.compiles;
    }

    fn as_stats(&self) -> SessionStats {
        SessionStats {
            code_hits: self.code_hits,
            code_misses: self.code_misses,
            code_evictions: self.code_evictions,
            code_corruptions: self.code_corruptions,
            compiles: self.compiles,
            ..Default::default()
        }
    }
}

/// One full sweep: every kernel × both targets × both plans, each plan
/// through its own fresh session (the plan is a session-level setting),
/// all sessions sharing the cache directory. Returns the summed stats.
fn sweep(dir: &str) -> Result<Totals, Box<dyn std::error::Error>> {
    let mut totals = Totals::default();
    for (plan_name, plan) in [("O2", PassPlan::o2()), ("O0", PassPlan::o0())] {
        let session = Session::new().with_plan(plan).with_cache_dir(dir);
        for target in [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()]
        {
            for kernel in record_dspstone::kernels() {
                session
                    .compile_source(&target, kernel.source)
                    .map_err(|e| format!("{}/{}/{plan_name}: {e}", kernel.name, target.name))?;
            }
        }
        totals.absorb(&session.stats());
    }
    Ok(totals)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut dir: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut expect_warm_start = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--dir" => dir = Some(value()?),
            "--json" => json_path = Some(value()?),
            "--expect-warm-start" => expect_warm_start = true,
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }
    let dir = dir.ok_or("--dir is required")?;

    let first = sweep(&dir)?;
    println!(
        "sweep 1: {} compiles, {} hits, {} misses",
        first.compiles, first.code_hits, first.code_misses
    );
    if expect_warm_start {
        if first.code_misses > 0 {
            return Err(format!(
                "--expect-warm-start: first sweep had {} miss(es); \
                 the cache directory was not warm",
                first.code_misses
            )
            .into());
        }
        println!("warm start confirmed: all compiles cached");
    }

    let second = sweep(&dir)?;
    println!(
        "sweep 2: {} compiles, {} hits, {} misses",
        second.compiles, second.code_hits, second.code_misses
    );
    if second.code_misses > 0 {
        return Err(format!(
            "repeat sweep missed {} time(s); the cache failed to answer identical compiles",
            second.code_misses
        )
        .into());
    }

    let mut totals = first;
    totals.absorb(&second.as_stats());
    let json = record::report::render_cache_stats_json(&totals.as_stats());
    record_trace::json::validate(&json).expect("cache stats JSON is well-formed");
    print!("{json}");
    if let Some(path) = &json_path {
        std::fs::write(path, &json)?;
        println!("wrote {path}");
    }
    Ok(())
}
