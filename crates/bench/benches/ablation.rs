//! **Ablations** — one knob per Section 3.3 optimization, measured on the
//! kernels where it bites. Every axis is expressed as a [`PassPlan`]
//! edit: the default plan minus one named pass (or a plan rebuilt from
//! options for the knobs that live *inside* a pass, like the variant
//! limit or the schedule mode). Prints code size (and, where relevant,
//! cycles or pass-specific metrics) with the optimization on and off,
//! then times a default compile.
//!
//! `cargo bench --bench ablation -- smoke` runs the CI smoke subset:
//! one kernel compiled under the `O0` and default plans, validated and
//! timed, without the full table or the timing loop.

use std::collections::HashMap;

use record::{CompileOptions, CompileRequest, Compiled, Compiler, PassPlan};
use record_bench::criterion;
use record_bench::{black_box, Criterion};
use record_ir::transform::RuleSet;
use record_ir::Symbol;
use record_opt::modes::ModeStrategy;
use record_sim::run_program;

fn words(compiler: &Compiler, lir: &record_ir::lir::Lir, plan: &PassPlan) -> u32 {
    compiler.compile(lir, plan.clone()).unwrap().code.size_words()
}

fn cycles(
    compiler: &Compiler,
    lir: &record_ir::lir::Lir,
    plan: &PassPlan,
    inputs: &HashMap<Symbol, Vec<i64>>,
) -> u64 {
    let code = compiler.compile(lir, plan.clone()).unwrap().code;
    run_program(&code, compiler.target(), inputs).unwrap().1.cycles
}

fn lir_of(name: &str) -> record_ir::lir::Lir {
    let k = record_dspstone::kernel(name).unwrap();
    record_ir::lower::lower(&record_ir::dfl::parse(k.source).unwrap()).unwrap()
}

fn print_ablations() {
    let tic25 = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
    let d56k = Compiler::for_target(record_isa::targets::dsp56k::target()).unwrap();
    let full = PassPlan::default();

    println!("\nAblation: each optimization on/off (code words), plan-driven");
    println!("default plan: {}", full.names().join(" -> "));
    println!("{:-<72}", "");

    // 1. algebraic variants (Section 4.3.3): 2*x covers as a 1-word
    // load-with-shift only after the mul->shift rewrite. The rule set
    // lives inside the select pass, so this axis rebuilds the plan from
    // options rather than dropping a pass.
    let no_variants = PassPlan::from_options(&CompileOptions {
        rules: RuleSet::none(),
        variant_limit: 1,
        ..CompileOptions::default()
    });
    let shifty = record_ir::lower::lower(
        &record_ir::dfl::parse(
            "program s; const N = 8; in x: fix[N]; out y: fix[N];
             begin for i in 0..N-1 loop y[i] := 2 * x[i]; end loop; end",
        )
        .unwrap(),
    )
    .unwrap();
    println!(
        "{:<44} {:>5} -> {:>5}",
        "algebraic tree variants (2*x loop, off->on)",
        words(&tic25, &shifty, &no_variants),
        words(&tic25, &shifty, &full),
    );

    // 2. compaction / fusion on tic25 (LTA/LTP/LTS): drop the compact
    // (and its companion hoist) passes by name
    let cm = lir_of("complex_multiply");
    let no_compact = full.clone().without("compact").without("hoist");
    println!(
        "{:<44} {:>5} -> {:>5}",
        "instruction fusion (complex_multiply)",
        words(&tic25, &cm, &no_compact),
        words(&tic25, &cm, &full),
    );

    // 3. parallel-move packing on dsp56k
    println!(
        "{:<44} {:>5} -> {:>5}",
        "parallel-move packing (dsp56k, complex_mul)",
        words(&d56k, &cm, &no_compact),
        words(&d56k, &cm, &full),
    );

    // 4. bank assignment enables packing (dsp56k)
    println!(
        "{:<44} {:>5} -> {:>5}",
        "memory-bank assignment (dsp56k, complex_mul)",
        words(&d56k, &cm, &full.clone().without("banks")),
        words(&d56k, &cm, &full),
    );

    // 5. loop-invariant hoisting + hardware repeat: a constant fill loop
    // compacts to LACK; RPTK; SACL *+
    let fill = record_ir::lower::lower(
        &record_ir::dfl::parse(
            "program fill; const N = 32; out a: fix[N];
             begin for i in 0..N-1 loop a[i] := 7; end loop; end",
        )
        .unwrap(),
    )
    .unwrap();
    let no_rpt = full.clone().without("rpt").without("compact").without("hoist");
    println!(
        "{:<44} {:>5} -> {:>5}   (cycles)",
        "invariant hoist + hardware repeat (fill)",
        cycles(&tic25, &fill, &no_rpt, &HashMap::new()),
        cycles(&tic25, &fill, &full, &HashMap::new()),
    );
    println!(
        "{:<44} {:>5} -> {:>5}   (words)",
        "invariant hoist + hardware repeat (fill)",
        words(&tic25, &fill, &no_rpt),
        words(&tic25, &fill, &full),
    );

    // 6. offset assignment: AR traffic on a 56k-style machine
    let acc_seq: Vec<Symbol> = "a b a b c d c d a b".split_whitespace().map(Symbol::new).collect();
    let decl: Vec<Symbol> = "a c b d".split_whitespace().map(Symbol::new).collect();
    let soa = record_opt::soa_order(&acc_seq);
    println!(
        "{:<44} {:>5} -> {:>5}   (AR ops, 1 pointer)",
        "simple offset assignment (synthetic chain)",
        record_opt::soa_cost(&decl, &acc_seq, 1),
        record_opt::soa_cost(&soa, &acc_seq, 1),
    );

    // 7. mode-change minimization: two saturating updates per iteration —
    // lazy switching hoists one SOVM before the loop; per-use pays twice
    // per statement per iteration. The strategy is a parameter of the
    // modes pass, so the axis swaps the pass configuration.
    let sat_src = "
        program sat_mix;
        const N = 8;
        in a: fix[N]; in b: fix[N];
        out y: fix; out z: fix;
        begin
          y := 0; z := 0;
          for i in 0..N-1 loop
            y := sadd(y, a[i]);
            z := sadd(z, b[i]);
          end loop;
        end";
    let sat_lir = record_ir::lower::lower(&record_ir::dfl::parse(sat_src).unwrap()).unwrap();
    let per_use = PassPlan::from_options(&CompileOptions {
        mode_strategy: ModeStrategy::PerUse,
        ..CompileOptions::default()
    });
    println!(
        "{:<44} {:>5} -> {:>5}",
        "mode minimization (mixed sat/wrap loop)",
        words(&tic25, &sat_lir, &per_use),
        words(&tic25, &sat_lir, &full),
    );

    // 8. CSE (tree sharing): a computed subexpression used by two
    // statements is computed once with sharing on
    let shared = record_ir::lower::lower(
        &record_ir::dfl::parse(
            "program sh; in a, b: fix; out u, v: fix;
             begin
               u := (a + b) * (a + b);
               v := (a + b) * 3;
             end",
        )
        .unwrap(),
    )
    .unwrap();
    println!(
        "{:<44} {:>5} -> {:>5}",
        "DFG sharing / treeify (shared (a+b))",
        words(&tic25, &shared, &full.clone().without("treeify")),
        words(&tic25, &shared, &full),
    );

    // 9. scheduling: list vs branch-and-bound bundles (dsp56k)
    let sched_list = PassPlan::from_options(&CompileOptions {
        schedule: Some(record_opt::ScheduleMode::List),
        ..CompileOptions::default()
    });
    let sched_bb = PassPlan::from_options(&CompileOptions {
        schedule: Some(record_opt::ScheduleMode::BranchAndBound { max_segment: 10 }),
        ..CompileOptions::default()
    });
    println!(
        "{:<44} {:>5} -> {:>5}",
        "list vs optimal B&B scheduling (dsp56k)",
        words(&d56k, &cm, &sched_list),
        words(&d56k, &cm, &sched_bb),
    );
}

/// CI smoke: one kernel under the `O0` and default plans, with strict
/// inter-pass verification forced on, validated against the reference.
/// Also drops a machine-readable summary at the repo root
/// (`BENCH_ablation.json`): code size, instruction and pass counts per
/// plan, which every run reproduces, so CI can diff it against the
/// committed file. Compile times go to stdout only.
fn smoke() {
    let compiler = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
    let lir = lir_of("fir");
    let kernel = record_dspstone::kernel("fir").unwrap();
    let inputs = kernel.inputs(42);
    let expected = kernel.reference(&inputs);
    let mut json =
        String::from("{\"bench\":\"ablation\",\"kernel\":\"fir\",\"target\":\"tic25\",\"plans\":[");
    for (i, (name, plan)) in
        [("O0", PassPlan::o0()), ("default", PassPlan::default())].into_iter().enumerate()
    {
        let plan = plan.strict(true);
        let Compiled { code, timings } = compiler.compile(&lir, plan.clone()).unwrap();
        let (out, _) = run_program(&code, compiler.target(), &inputs).unwrap();
        for (out_name, _) in kernel.outputs() {
            let sym = Symbol::new(*out_name);
            assert_eq!(out.get(&sym), expected.get(&sym), "{name}: output {out_name} differs");
        }
        println!(
            "smoke {name:<8} [{}] {} words, {} passes, {:?}",
            plan.names().join(" "),
            code.size_words(),
            timings.passes.len(),
            timings.total
        );
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"plan\":\"{name}\",\"words\":{},\"insns\":{},\"passes\":{}}}",
            code.size_words(),
            code.insns.len(),
            timings.passes.len(),
        ));
    }
    json.push_str("]}\n");
    record_trace::json::validate(&json).expect("ablation summary is well-formed JSON");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ablation.json");
    std::fs::write(path, &json).expect("write BENCH_ablation.json");
    println!("wrote {path}");
    println!("ablation smoke OK");
}

fn bench(c: &mut Criterion) {
    let compiler = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
    let lir = lir_of("fir");
    let o0 = PassPlan::o0();
    let mut group = c.benchmark_group("ablation_compile");
    group.bench_function("fir_all_optimizations", |b| {
        b.iter(|| {
            black_box(compiler.compile(black_box(&lir), CompileRequest::default()).unwrap().code)
        })
    });
    group.bench_function("fir_no_optimizations", |b| {
        b.iter(|| black_box(compiler.compile(black_box(&lir), o0.clone()).unwrap().code))
    });
    group.finish();
}

fn main() {
    if std::env::args().any(|a| a == "smoke") {
        smoke();
        return;
    }
    print_ablations();
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
