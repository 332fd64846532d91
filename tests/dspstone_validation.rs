//! Cross-crate integration: every DSPStone kernel, compiled by every
//! compiler configuration, must compute exactly what the reference
//! implementation computes — on multiple stimulus seeds.
//!
//! This is the repository's strongest end-to-end guarantee: frontend →
//! lowering → treeify → BURS selection → optimization pipeline →
//! simulator, checked bit-for-bit.

use std::collections::HashMap;

use record::{baseline, handasm, CompileOptions, CompileRequest, Compiler, PassPlan};
use record_ir::{dfl, lower, Symbol};
use record_opt::modes::ModeStrategy;
use record_sim::run_program;

fn validate(
    code: &record_isa::Code,
    target: &record_isa::TargetDesc,
    kernel: &record_dspstone::Kernel,
    seed: u64,
    what: &str,
) {
    let inputs = kernel.inputs(seed);
    let expected = kernel.reference(&inputs);
    let (out, run) = run_program(code, target, &inputs)
        .unwrap_or_else(|e| panic!("{what}/{}: simulation failed: {e}", kernel.name));
    assert!(run.cycles > 0);
    for (name, _) in kernel.outputs() {
        let sym = Symbol::new(*name);
        assert_eq!(
            out[&sym],
            expected[&sym],
            "{what}/{} output {} differs (seed {seed})\n{}",
            kernel.name,
            name,
            code.render()
        );
    }
}

#[test]
fn record_compiles_all_kernels_bit_exactly() {
    let target = record_isa::targets::tic25::target();
    let compiler = Compiler::for_target(target.clone()).unwrap();
    for kernel in record_dspstone::kernels() {
        let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
        let code = compiler.compile(&lir, CompileRequest::default()).unwrap().code;
        for seed in 1..=5 {
            validate(&code, &target, &kernel, seed, "record");
        }
    }
}

#[test]
fn baseline_compiles_all_kernels_bit_exactly() {
    let target = record_isa::targets::tic25::target();
    for kernel in record_dspstone::kernels() {
        let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
        let code = baseline::compile(&lir).unwrap();
        for seed in 1..=5 {
            validate(&code, &target, &kernel, seed, "baseline");
        }
    }
}

#[test]
fn hand_assembly_matches_references() {
    let target = record_isa::targets::tic25::target();
    for kernel in record_dspstone::kernels() {
        let code = handasm::hand_code(kernel.name).unwrap();
        for seed in 10..=14 {
            validate(&code, &target, &kernel, seed, "hand");
        }
    }
}

#[test]
fn every_option_combination_is_semantics_preserving() {
    let target = record_isa::targets::tic25::target();
    let compiler = Compiler::for_target(target.clone()).unwrap();
    let option_sets = vec![
        CompileOptions::default(),
        CompileOptions::nothing(),
        CompileOptions { compact: false, ..CompileOptions::default() },
        CompileOptions { use_rpt: false, ..CompileOptions::default() },
        CompileOptions { offset_assignment: false, ..CompileOptions::default() },
        CompileOptions { cse: false, ..CompileOptions::default() },
        CompileOptions { fold_constants: true, ..CompileOptions::default() },
        CompileOptions { variant_limit: 1, ..CompileOptions::default() },
        CompileOptions { variant_limit: 128, ..CompileOptions::default() },
        CompileOptions { mode_strategy: ModeStrategy::PerUse, ..CompileOptions::default() },
    ];
    for kernel in record_dspstone::kernels() {
        let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
        for (i, opts) in option_sets.iter().enumerate() {
            let code = compiler
                .compile(&lir, PassPlan::from_options(opts))
                .unwrap_or_else(|e| panic!("{} opts#{i}: {e}", kernel.name))
                .code;
            validate(&code, &target, &kernel, 99, &format!("opts#{i}"));
        }
    }
}

#[test]
fn kernels_compile_on_the_dsp56k_model() {
    let target = record_isa::targets::dsp56k::target();
    let compiler = Compiler::for_target(target.clone()).unwrap();
    for kernel in record_dspstone::kernels() {
        let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
        let code = compiler
            .compile(&lir, CompileRequest::default())
            .unwrap_or_else(|e| panic!("{} on dsp56k: {e}", kernel.name))
            .code;
        for seed in 1..=3 {
            validate(&code, &target, &kernel, seed, "dsp56k");
        }
    }
}

/// dsp56k covers every constant of its 16-bit word: beyond the one-word
/// `imm8` load, a two-word long immediate, which parallel-move packing
/// leaves alone.
#[test]
fn dsp56k_covers_every_constant_of_its_word() {
    let target = record_isa::targets::dsp56k::target();
    let compiler = Compiler::for_target(target.clone()).unwrap();
    for value in [256, 4095, 32767] {
        let src = format!("program p; var y: fix; begin y := {value}; end");
        for plan in [PassPlan::o0(), PassPlan::o2()] {
            let code = compiler
                .compile(src.as_str(), plan)
                .unwrap_or_else(|e| panic!("y := {value} on dsp56k: {e}"))
                .code;
            let load = code
                .insns
                .iter()
                .find(|i| i.text == format!("MOVE #{value},a0"))
                .unwrap_or_else(|| panic!("no long immediate in\n{}", code.render()));
            assert_eq!(load.words, 2);
            assert!(load.parallel.is_empty(), "{}", code.render());
            let (out, _) = run_program(&code, &target, &HashMap::new()).unwrap();
            assert_eq!(out[&Symbol::new("y")], vec![value], "{}", code.render());
        }
    }
}

/// The assembly of every DSPStone kernel on tic25 and dsp56k under O0,
/// O2 and the `recordd` plan is pinned: a change that promises unchanged
/// code reproduces `tests/golden/dspstone_asm.txt` byte for byte (CI
/// regenerates it with `dspstone_report --asm`).
#[test]
fn listings_match_the_golden_file() {
    let listings = record::report::render_asm_listings(&record::Session::new()).unwrap();
    let golden = include_str!("golden/dspstone_asm.txt");
    for (got, want) in listings.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(listings, golden);
}

/// The backend paths the DSPStone listings leave unpinned (other
/// targets, seeded cube points, bundle scheduling) reproduce
/// `tests/golden/backend_asm.txt` byte for byte (CI regenerates it with
/// `dspstone_report --backend-asm`).
#[test]
fn backend_listings_match_the_golden_file() {
    let listings = record::report::render_backend_asm_listings(&record::Session::new());
    let golden = include_str!("golden/backend_asm.txt");
    for (got, want) in listings.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(listings, golden);
}

/// The DSPStone kernels and 300 generated programs lower to the programs
/// `tests/golden/program_fingerprints.txt` records (CI regenerates it
/// with `dspstone_report --fingerprints`): equal fingerprints mean equal
/// canonical bytes, which the on-disk compile cache is keyed by.
#[test]
fn program_fingerprints_match_the_golden_file() {
    let fingerprints = record_repro::programs::render_fingerprints();
    let golden = include_str!("golden/program_fingerprints.txt");
    for (got, want) in fingerprints.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(fingerprints, golden);
}

/// Every corpus program compiles at O2 to the words
/// `tests/golden/corpus_words.txt` records on tic25, dsp56k, asip-dsp,
/// risc4 and cube seed 2, or fails with the error it records there (CI
/// regenerates it with `dspstone_report --corpus-words`).
#[test]
fn corpus_words_match_the_golden_file() {
    let words = record_repro::programs::render_corpus_words();
    let golden = include_str!("golden/corpus_words.txt");
    for (got, want) in words.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(words, golden);
}

/// The first 1000 frontend fuzz cases at seed 0xC0DE lower to the
/// programs `tests/golden/frontend_outcomes.txt` records, or fail with
/// the error text it records (CI regenerates it with `dspstone_report
/// --frontend-outcomes`).
#[test]
fn frontend_outcomes_match_the_golden_file() {
    let outcomes = record_repro::programs::render_frontend_outcomes();
    let golden = include_str!("golden/frontend_outcomes.txt");
    for (got, want) in outcomes.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(outcomes, golden);
}

#[test]
fn kernels_compile_on_the_risc_model() {
    let target = record_isa::targets::simple_risc::target(8);
    let compiler = Compiler::for_target(target.clone()).unwrap();
    for kernel in record_dspstone::kernels() {
        let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
        let code = compiler
            .compile(&lir, CompileRequest::default())
            .unwrap_or_else(|e| panic!("{} on risc8: {e}", kernel.name))
            .code;
        validate(&code, &target, &kernel, 7, "risc8");
    }
}

#[test]
fn kernels_compile_on_the_dsp_asip() {
    let params = record_isa::targets::asip::AsipParams::dsp();
    let target = record_isa::targets::asip::build(&params);
    let compiler = Compiler::for_target(target.clone()).unwrap();
    for kernel in record_dspstone::kernels() {
        let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
        let code = compiler
            .compile(&lir, CompileRequest::default())
            .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, target.name))
            .code;
        validate(&code, &target, &kernel, 11, "asip");
    }
}

#[test]
fn extension_kernels_compile_and_validate_everywhere() {
    for (label, target) in [
        ("tic25", record_isa::targets::tic25::target()),
        ("dsp56k", record_isa::targets::dsp56k::target()),
        ("risc8", record_isa::targets::simple_risc::target(8)),
    ] {
        let compiler = Compiler::for_target(target.clone()).unwrap();
        for kernel in record_dspstone::extension_kernels() {
            let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
            let code = compiler
                .compile(&lir, CompileRequest::default())
                .unwrap_or_else(|e| panic!("{} on {label}: {e}", kernel.name))
                .code;
            for seed in 1..=3 {
                validate(&code, &target, &kernel, seed, label);
            }
        }
    }
}

#[test]
fn record_code_is_never_larger_than_baseline() {
    let compiler = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
    for kernel in record_dspstone::kernels() {
        let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
        let rec = compiler.compile(&lir, CompileRequest::default()).unwrap().code;
        let base = baseline::compile(&lir).unwrap();
        assert!(
            rec.size_words() <= base.size_words(),
            "{}: record {} > baseline {}",
            kernel.name,
            rec.size_words(),
            base.size_words()
        );
    }
}

#[test]
fn loop_kernel_baseline_overhead_is_in_the_dspstone_band() {
    // Section 3.1: compiled-code overhead "typically ranges between 2
    // and 8". Our baseline's handicaps are addressing and loop overhead,
    // so the claim applies to the loop kernels.
    let target = record_isa::targets::tic25::target();
    for name in [
        "n_real_updates",
        "n_complex_updates",
        "fir",
        "iir_biquad_n_sections",
        "dot_product",
        "convolution",
    ] {
        let kernel = record_dspstone::kernel(name).unwrap();
        let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
        let base = baseline::compile(&lir).unwrap();
        let hand = handasm::hand_code(name).unwrap();
        let inputs = kernel.inputs(1);
        let (_, base_run) = run_program(&base, &target, &inputs).unwrap();
        let (_, hand_run) = run_program(&hand, &target, &inputs).unwrap();
        let factor = base_run.cycles as f64 / hand_run.cycles as f64;
        assert!(
            (2.0..=8.0).contains(&factor),
            "{name}: overhead {factor:.2} outside the 2-8x band"
        );
    }
}

#[test]
fn binary_encoding_length_equals_size_for_all_kernels() {
    let compiler = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
    for kernel in record_dspstone::kernels() {
        let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
        let code = compiler.compile(&lir, CompileRequest::default()).unwrap().code;
        let image = record::emit::encode(&code);
        assert_eq!(image.len() as u32, code.size_words(), "{}", kernel.name);
    }
}

#[test]
fn wraparound_inputs_still_match_references() {
    // stress with full-range values so wrap semantics are exercised
    let target = record_isa::targets::tic25::target();
    let compiler = Compiler::for_target(target.clone()).unwrap();
    let kernel = record_dspstone::kernel("dot_product").unwrap();
    let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
    let code = compiler.compile(&lir, CompileRequest::default()).unwrap().code;
    let mut inputs: HashMap<Symbol, Vec<i64>> = HashMap::new();
    inputs
        .insert(Symbol::new("a"), (0..record_dspstone::N as i64).map(|i| 30000 + i * 17).collect());
    inputs.insert(
        Symbol::new("b"),
        (0..record_dspstone::N as i64).map(|i| -28000 - i * 23).collect(),
    );
    // wrap inputs to 16 bits as the machine would store them
    for v in inputs.values_mut() {
        for x in v.iter_mut() {
            *x = record_ir::ops::wrap_to_width(*x, 16);
        }
    }
    let expected = kernel.reference(&inputs);
    let (out, _) = run_program(&code, &target, &inputs).unwrap();
    assert_eq!(out[&Symbol::new("y")], expected[&Symbol::new("y")]);
}
