//! The pinned program corpus: the ten DSPStone kernels and a fixed run of
//! generated programs, each with the fingerprint of its lowered form.
//!
//! `tests/golden/program_fingerprints.txt` holds [`render_fingerprints`]
//! (`dspstone_report --fingerprints` writes it). A fingerprint is the
//! FNV-1a hash of a program's canonical bytes, so an unchanged file means
//! the frontend lowers every program of the corpus to the same program,
//! and the on-disk compile cache keyed by those bytes stays valid.
//!
//! `tests/golden/frontend_outcomes.txt` holds [`render_frontend_outcomes`]
//! (`dspstone_report --frontend-outcomes` writes it): what the frontend
//! makes of the first frontend fuzz cases, malformed programs included,
//! so a frontend change shows every program and every error text it
//! moves.

use std::fmt::Write;

use record_ir::fingerprint::program_fingerprint;
use record_ir::{dfl, lower};
use record_prop::Rng;

/// The seed of the generated programs.
pub const SEED: u64 = 0xDAC97;

/// How many generated programs the corpus holds.
pub const GENERATED: usize = 300;

/// One line per program: its name and the fingerprint of its lowered
/// form, or the error that parsing or lowering reported.
pub fn render_fingerprints() -> String {
    let mut out = format!(
        "# program_fingerprint of the DSPStone kernels and of {GENERATED} generated programs \
         (seed {SEED:#x})\n"
    );
    for (name, source) in corpus() {
        let lowered = dfl::parse(&source).and_then(|ast| lower::lower(&ast));
        match lowered {
            Ok(lir) => writeln!(out, "{name} {:016x}", program_fingerprint(&lir)),
            Err(e) => writeln!(out, "{name} error: {e}"),
        }
        .expect("writing to a String");
    }
    out
}

/// The seed of the frontend fuzz cases [`render_frontend_outcomes`]
/// renders, the seed CI's fuzz smoke runs.
const FRONTEND_SEED: u64 = 0xC0DE;

/// How many frontend fuzz cases [`render_frontend_outcomes`] renders.
const FRONTEND_CASES: usize = 1000;

/// One line for each of the first 1000 frontend fuzz cases of seed
/// 0xC0DE, generated as [`run_frontend_fuzz`] generates them: `ok` and
/// the fingerprint of the lowered program, or the error that parsing or
/// lowering reported, escaped so the file stays ASCII.
///
/// [`run_frontend_fuzz`]: crate::fuzz::run_frontend_fuzz
pub fn render_frontend_outcomes() -> String {
    let mut out = format!(
        "# frontend outcome of the first {FRONTEND_CASES} frontend fuzz cases \
         (seed {FRONTEND_SEED:#x})\n"
    );
    for case in 0..FRONTEND_CASES {
        let (_, source) = crate::fuzz::frontend_case(FRONTEND_SEED, case);
        match dfl::parse(&source).and_then(|ast| lower::lower(&ast)) {
            Ok(lir) => writeln!(out, "{case:04} ok {:016x}", program_fingerprint(&lir)),
            Err(e) => writeln!(out, "{case:04} {}", e.to_string().escape_default()),
        }
        .expect("writing to a String");
    }
    out
}

/// Every program of the corpus as `(name, source)`: the DSPStone
/// kernels in Table 1 order, then `gen-000` to `gen-299`.
pub fn corpus() -> Vec<(String, String)> {
    let kernels = record_dspstone::kernels().into_iter();
    let mut out: Vec<(String, String)> =
        kernels.map(|k| (k.name.to_string(), k.source.to_string())).collect();
    let mut rng = Rng::new(SEED);
    out.extend(
        (0..GENERATED).map(|i| (format!("gen-{i:03}"), record_prop::dfl::gen_program(&mut rng))),
    );
    out
}

/// The targets [`render_corpus_words`] compiles the corpus for.
pub fn corpus_word_targets() -> Vec<record_isa::TargetDesc> {
    use record_isa::targets::{asip, dsp56k, simple_risc, tic25};
    vec![
        tic25::target(),
        dsp56k::target(),
        asip::build(&asip::AsipParams::dsp()),
        simple_risc::target(4),
        record_isa::cube::target_from_seed(2),
    ]
}

/// The code words of every corpus program under [`PassPlan::o2`] on each
/// of [`corpus_word_targets`]: per target, one line per program with its
/// words or the error the compile reported, then the target's total over
/// the programs that compiled.
///
/// `tests/golden/corpus_words.txt` holds it (`dspstone_report
/// --corpus-words` writes it), so a change to selection shows its yield
/// program by program.
///
/// [`PassPlan::o2`]: record::PassPlan::o2
pub fn render_corpus_words() -> String {
    let session = record::Session::new();
    let corpus = corpus();
    let mut out = format!(
        "# code words of the DSPStone kernels and of {GENERATED} generated programs \
         (seed {SEED:#x}) under PassPlan::o2()\n"
    );
    for target in corpus_word_targets() {
        writeln!(out, "[{}]", target.name).expect("writing to a String");
        let (mut words, mut compiled) = (0u64, 0usize);
        for (name, source) in &corpus {
            match session.compile(&target, source.as_str(), record::PassPlan::o2()) {
                Ok(done) => {
                    let size = done.code.size_words();
                    words += u64::from(size);
                    compiled += 1;
                    writeln!(out, "{name} {size}")
                }
                Err(e) => writeln!(out, "{name} error: {e}"),
            }
            .expect("writing to a String");
        }
        writeln!(
            out,
            "total {}: {words} words, {compiled} of {} programs compiled",
            target.name,
            corpus.len()
        )
        .expect("writing to a String");
    }
    out
}
