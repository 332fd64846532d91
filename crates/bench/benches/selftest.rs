//! **Section 4.5** — self-test program generation with a retargetable
//! compiler: prints coverage and fault-detection rates for three targets
//! (including one generated from a netlist), then times generation.

use record::selftest::{detects_fault, generate};
use record_bench::criterion;
use record_bench::{black_box, Criterion};
use record_isa::TargetDesc;

fn report(target: &TargetDesc) {
    let st = generate(target, 0xD5E).expect("generable");
    let mut tested = 0u32;
    let mut detected = 0u32;
    for victim in 0..st.code.insns.len() {
        if let Some(hit) = detects_fault(&st, target, victim) {
            tested += 1;
            detected += u32::from(hit);
        }
    }
    println!(
        "  {:<18} coverage {:>5.1}%  size {:>4} words  fault detection {detected}/{tested}",
        target.name,
        st.coverage() * 100.0,
        st.code.size_words()
    );
}

fn print_table() {
    println!("\nSection 4.5: generated self-test programs:");
    report(&record_isa::targets::tic25::target());
    report(&record_isa::cube::CubeParams::asip_dsp().build().unwrap());
    let netlist = record_ise::demo::acc_machine_netlist();
    let (compiler, _) =
        record::Compiler::from_netlist("accgen", &netlist, &Default::default()).unwrap();
    report(compiler.target());
}

fn bench(c: &mut Criterion) {
    let tic25 = record_isa::targets::tic25::target();
    let asip = record_isa::cube::CubeParams::asip_dsp().build().unwrap();
    let mut group = c.benchmark_group("selftest_generate");
    group
        .bench_function("tic25", |b| b.iter(|| black_box(generate(black_box(&tic25), 1).unwrap())));
    group.bench_function("asip_dsp", |b| {
        b.iter(|| black_box(generate(black_box(&asip), 1).unwrap()))
    });
    group.finish();
}

fn main() {
    print_table();
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
