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
//! * `--trace PATH` — Chrome trace-event dump of every compile the run
//!   performed (span per pass, instant per cache event); open it at
//!   <https://ui.perfetto.dev> or `chrome://tracing`

use std::sync::Arc;

use record::{Session, Tracer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut json_path: Option<String> = None;
    let mut bench_json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--json" => json_path = Some(value()?),
            "--bench-json" => bench_json_path = Some(value()?),
            "--trace" => trace_path = Some(value()?),
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
    if let Some(path) = &trace_path {
        let mut f = std::fs::File::create(path)?;
        tracer.write_chrome_trace(&mut f)?;
        println!("wrote {path} ({} compile traces)", tracer.traces().len());
    }
    Ok(())
}
