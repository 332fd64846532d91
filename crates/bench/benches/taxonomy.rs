//! **Fig. 1** — the processor cube: prints the eight corners with the
//! paper's example processors, then times target construction for one
//! model per corner family (constructing an explicit target description
//! is the entry fee of retargetability, so it should be cheap).

use record_bench::criterion;
use record_bench::{black_box, Criterion};
use record_isa::taxonomy::{paper_examples, CubePoint};

fn print_cube() {
    println!("\nFig. 1 — the processor cube:");
    for corner in CubePoint::corners() {
        println!(
            "  {:<9} | {:<5} | {:<12} => {}",
            format!("{:?}", corner.availability),
            format!("{:?}", corner.domain),
            format!("{:?}", corner.app),
            corner.label()
        );
    }
    println!("\nexamples from the paper:");
    for ex in paper_examples() {
        println!("  {:<28} -> {}", ex.name, ex.point.label());
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("target_construction");
    group.bench_function("tic25", |b| b.iter(|| black_box(record_isa::targets::tic25::target())));
    group.bench_function("dsp56k", |b| b.iter(|| black_box(record_isa::targets::dsp56k::target())));
    group.bench_function("risc8", |b| {
        b.iter(|| black_box(record_isa::targets::simple_risc::target(8)))
    });
    group.bench_function("asip_dsp", |b| {
        b.iter(|| black_box(record_isa::cube::CubeParams::asip_dsp().build().unwrap()))
    });
    group.finish();
}

fn main() {
    print_cube();
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
