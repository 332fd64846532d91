//! The pinned program corpus: the ten DSPStone kernels and a fixed run of
//! generated programs, each with the fingerprint of its lowered form.
//!
//! `tests/golden/program_fingerprints.txt` holds [`render_fingerprints`]
//! (`dspstone_report --fingerprints` writes it). A fingerprint is the
//! FNV-1a hash of a program's canonical bytes, so an unchanged file means
//! the frontend lowers every program of the corpus to the same program,
//! and the on-disk compile cache keyed by those bytes stays valid.

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
