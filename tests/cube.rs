//! The processor cube as a generator: invariants and regressions.
//!
//! * **Validity by construction** — every seeded cube point passes its
//!   own `validate()`, builds a `TargetDesc` without panicking, and the
//!   built target passes the `TargetDesc` referential-integrity check
//!   (2k seeds).
//! * **Fingerprint injectivity** — distinct cube points build targets
//!   with distinct structural fingerprints (sampled).
//! * **Corpus replay** — every minimized `(target-seed, program)` pair
//!   under `tests/corpus/targets/` recompiles and cross-checks cleanly,
//!   so fuzz-found bugs stay fixed without re-fuzzing.
//! * **Sweep smoke** — a small seeded target-fuzz run ends with zero
//!   failures and a well-formed JSON survival report.

use std::collections::HashMap;
use std::path::Path;

use record::Compiler;
use record_isa::cube::CubeParams;
use record_repro::fuzz;

#[test]
fn every_seeded_cube_point_is_valid_and_builds() {
    for seed in 0u64..2000 {
        let params = CubeParams::from_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert_eq!(params.validate(), Ok(()), "seed {seed}: {params:?}");
        let target = params
            .build()
            .unwrap_or_else(|e| panic!("seed {seed}: valid point fails to build: {e}"));
        target
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed}: built target is inconsistent: {e}"));
    }
}

/// Every name `recordc` and `recordd` accept resolves to a target that
/// validates and builds a compiler; the three `asip-*` names are the
/// processor-cube ASIP presets.
#[test]
fn asip_presets_embed_into_the_cube() {
    for name in ["tic25", "dsp56k", "risc4", "risc8", "asip-dsp", "asip-min", "asip-default"] {
        let target = record_serve::resolve_target(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        target.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(Compiler::for_target(target).is_ok(), "{name}");
    }
    for (name, preset) in [
        ("asip-dsp", CubeParams::asip_dsp()),
        ("asip-min", CubeParams::asip_minimal()),
        ("asip-default", CubeParams::asip_default()),
    ] {
        assert!(record_serve::resolve_target(name) == Ok(preset.build().unwrap()), "{name}");
    }
}

#[test]
fn fingerprints_are_injective_across_distinct_cube_points() {
    // distinct cube points must build structurally distinct targets;
    // the fingerprint is the cache key the compile cache and the BURS
    // table store rely on
    let mut seen: HashMap<u64, (u64, CubeParams)> = HashMap::new();
    for seed in 0u64..400 {
        let params = CubeParams::from_seed(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let fp = match params.build() {
            Ok(t) => t.fingerprint(),
            Err(e) => panic!("seed {seed}: {e}"),
        };
        if let Some((other_seed, other)) = seen.get(&fp) {
            assert_eq!(
                &params, other,
                "fingerprint collision between different points (seeds {seed} and {other_seed})"
            );
        }
        seen.insert(fp, (seed, params));
    }
    assert!(seen.len() > 100, "sample too degenerate: {} distinct targets", seen.len());
}

#[test]
fn names_encode_distinct_points_distinctly() {
    for seed in 0u64..500 {
        let a = CubeParams::from_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let b = CubeParams::from_seed((seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if a != b {
            assert_ne!(a.name(), b.name(), "two distinct points share a name: {a:?} vs {b:?}");
        }
    }
}

#[test]
fn corpus_targets_replay_clean() {
    // every fuzz-found (target-seed, program) pair stays fixed forever
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/targets");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&dir).expect("corpus dir exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("dfl") {
            continue;
        }
        match fuzz::replay_target_corpus_file(&path) {
            Ok(compared) => {
                assert!(
                    compared,
                    "{}: corpus entry no longer compiles on its target (benign skip); \
                     the regression it pins is untested",
                    path.display()
                );
            }
            Err(e) => panic!("corpus regression resurfaced: {e}"),
        }
        seen += 1;
    }
    assert!(seen >= 1, "tests/corpus/targets/ lost its entries");
}

#[test]
fn small_target_sweep_is_clean() {
    let cfg = fuzz::TargetFuzzConfig {
        targets: 12,
        programs: 3,
        base_seed: 0xDAC97,
        dspstone: true,
        minimize: true,
    };
    let report = fuzz::run_target_fuzz(&cfg);
    assert!(report.clean(), "target-fuzz smoke failures:\n{report}");
    assert!(report.compared > 0, "sweep compared nothing:\n{report}");
    let json = report.render_json(cfg.base_seed);
    record_trace::json::validate(&json).expect("survival report is well-formed JSON");
    assert!(json.contains("\"corners\""));
}
