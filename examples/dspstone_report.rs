//! Regenerates the paper's Table 1: size of compiled programs in relation
//! to assembly code (%), for the target-specific baseline compiler and
//! for RECORD, over the ten DSPStone kernels — plus the Section 3.1 cycle
//! overhead factors and a timing profile of the compiler itself,
//! gathered through a shared compilation [`Session`]: the legacy phase
//! buckets (parse → lower → treeify → select → layout → address →
//! compact → modes) plus the dynamic per-pass trace — one row per pass
//! registered in the driving `PassPlan`, with before/after instruction
//! counts, size deltas, bundle fill and register usage.
//!
//! [`Session`]: record::Session
//!
//! Every row is validated on the simulator against the kernel's reference
//! implementation before being printed.
//!
//! ```sh
//! cargo run --example dspstone_report
//! ```
//!
//! Flags (all optional):
//!
//! * `--json PATH` — per-kernel `{insns, words, relative_to_handasm}`
//!   for all ten kernels on both shipped targets, as one JSON document
//! * `--bench-json PATH` — the per-kernel deterministic selection-work
//!   counters (variants, labels computed/memoized, dedup hits, search
//!   steps, insns, words); this is the `BENCH_compile.json` artifact the
//!   CI perf gate diffs against its committed baseline
//! * `--asm PATH` — the rendered assembly of every kernel on both shipped
//!   targets under O0, O2 and the `recordd` plan; this is
//!   `tests/golden/dspstone_asm.txt`, which CI regenerates and diffs
//! * `--backend-asm PATH` — the listings of the backend paths the
//!   DSPStone listings leave unpinned (`asip-dsp`, `asip-min`, `risc4`,
//!   seeded cube points, dsp56k with bundle scheduling); this is
//!   `tests/golden/backend_asm.txt`, which CI regenerates and diffs
//! * `--fingerprints PATH` — the fingerprint of every DSPStone kernel and
//!   of 300 generated programs as lowered; this is
//!   `tests/golden/program_fingerprints.txt`, which CI regenerates and
//!   diffs
//! * `--corpus-words PATH` — the code words of every DSPStone kernel and
//!   generated program under O2 on tic25, dsp56k, asip-dsp, risc4 and
//!   cube seed 2, with a total per target; this is
//!   `tests/golden/corpus_words.txt`, which CI regenerates and diffs
//! * `--frontend-outcomes PATH` — what the frontend makes of the first
//!   1000 frontend fuzz cases at seed 0xC0DE (a lowered program's
//!   fingerprint, or the error text); this is
//!   `tests/golden/frontend_outcomes.txt`, which CI regenerates and diffs
//! * `--trace PATH` — Chrome trace-event dump of every compile the run
//!   performed (span per pass, instant per cache event); open it at
//!   <https://ui.perfetto.dev> or `chrome://tracing`

use std::sync::Arc;

use record::{Session, Tracer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut json_path: Option<String> = None;
    let mut bench_json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut asm_path: Option<String> = None;
    let mut backend_asm_path: Option<String> = None;
    let mut fingerprints_path: Option<String> = None;
    let mut corpus_words_path: Option<String> = None;
    let mut frontend_outcomes_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--json" => json_path = Some(value()?),
            "--bench-json" => bench_json_path = Some(value()?),
            "--trace" => trace_path = Some(value()?),
            "--asm" => asm_path = Some(value()?),
            "--backend-asm" => backend_asm_path = Some(value()?),
            "--fingerprints" => fingerprints_path = Some(value()?),
            "--corpus-words" => corpus_words_path = Some(value()?),
            "--frontend-outcomes" => frontend_outcomes_path = Some(value()?),
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }

    let tracer = Arc::new(Tracer::new());
    let session = Session::new().with_tracer(tracer.clone());

    let table = record::report::table1_in(&session)?;
    println!("{table}");

    println!("Section 3.1 cycle overhead (baseline compiler vs hand assembly):");
    println!("{:-<56}", "");
    for row in &table.rows {
        println!(
            "{:<26} {:>6.1}x   ({} vs {} cycles)",
            row.kernel,
            row.baseline_overhead(),
            row.baseline_cycles,
            row.hand_cycles
        );
    }
    println!(
        "\n{} of {} loop-free or loop kernels fall in the paper's 2-8x band",
        table.overhead_in_band(),
        table.rows.len()
    );
    println!(
        "RECORD strictly outperforms the target-specific compiler on {}/10 kernels",
        table.record_wins()
    );

    println!("\nWhere compilation time goes (tic25, one Session, cached BURS tables):");
    let breakdown = record::report::phase_breakdown_in(&session)?;
    println!("{breakdown}");

    if let Some(path) = &json_path {
        let rows = record::report::kernel_size_report(&session)?;
        let json = record::report::render_kernel_sizes_json(&rows);
        record_trace::json::validate(&json).expect("kernel size JSON is well-formed");
        std::fs::write(path, json)?;
        println!("wrote {path} ({} kernel rows)", rows.len());
    }
    if let Some(path) = &bench_json_path {
        let rows = record::report::kernel_bench_report(&session)?;
        let json = record::report::render_kernel_bench_json(&rows);
        record_trace::json::validate(&json).expect("bench JSON is well-formed");
        std::fs::write(path, json)?;
        println!("wrote {path} ({} bench rows)", rows.len());
    }
    if let Some(path) = &asm_path {
        std::fs::write(path, record::report::render_asm_listings(&session)?)?;
        println!("wrote {path}");
    }
    if let Some(path) = &backend_asm_path {
        std::fs::write(path, record::report::render_backend_asm_listings(&session))?;
        println!("wrote {path}");
    }
    if let Some(path) = &fingerprints_path {
        std::fs::write(path, record_repro::programs::render_fingerprints())?;
        println!("wrote {path}");
    }
    if let Some(path) = &corpus_words_path {
        std::fs::write(path, record_repro::programs::render_corpus_words())?;
        println!("wrote {path}");
    }
    if let Some(path) = &frontend_outcomes_path {
        std::fs::write(path, record_repro::programs::render_frontend_outcomes())?;
        println!("wrote {path}");
    }
    if let Some(path) = &trace_path {
        let mut f = std::fs::File::create(path)?;
        tracer.write_chrome_trace(&mut f)?;
        println!("wrote {path} ({} compile traces)", tracer.traces().len());
    }
    Ok(())
}
