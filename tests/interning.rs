//! Hash-consed tree interning: the pool must be a faithful, allocation-
//! free mirror of the boxed [`Tree`] world, and the interned selection
//! hot path must emit **byte-identical** code to the boxed reference
//! implementation on the whole DSPStone corpus, both targets, at `O0`
//! and `O2`.
//!
//! The byte-equivalence test is the golden gate for the interning
//! refactor: `reference_select_pass` keeps the original boxed
//! enumerate-then-cover selector alive, and every kernel is compiled
//! through both selectors and compared on rendered assembly.

use record::{reference_select_pass, CompileOptions, CompileRequest, Compiler, PassPlan, Session};
use record_burg::{LabelCache, Matcher};
use record_ir::transform::{variants, variants_interned, RuleSet};
use record_ir::{BinOp, Tree, TreePool, UnOp};
use record_prop::{run_cases, Rng};

const VARS: [&str; 4] = ["v0", "v1", "v2", "v3"];

fn gen_tree(rng: &mut Rng, depth: u32) -> Tree {
    if depth == 0 || rng.usize(4) == 0 {
        return if rng.bool() {
            Tree::var(*rng.pick(&VARS))
        } else {
            Tree::constant(rng.i64_in(-100, 100))
        };
    }
    if rng.usize(3) == 0 {
        let op = *rng.pick(&[UnOp::Neg, UnOp::Abs, UnOp::Not]);
        Tree::un(op, gen_tree(rng, depth - 1))
    } else {
        let op =
            *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor]);
        Tree::bin(op, gen_tree(rng, depth - 1), gen_tree(rng, depth - 1))
    }
}

#[test]
fn interning_round_trips_every_generated_tree() {
    run_cases(300, |rng| {
        let tree = gen_tree(rng, 4);
        let mut pool = TreePool::new();
        let id = pool.intern(&tree);
        assert_eq!(pool.to_tree(id), tree, "to_tree(intern(t)) != t");
        // interning is idempotent: the same structure maps to the same id
        let again = pool.intern(&tree);
        assert_eq!(id, again, "re-interning produced a fresh id");
        // a structural clone built independently also dedups to the id
        let clone = tree.clone();
        assert_eq!(pool.intern(&clone), id);
    });
}

#[test]
fn structural_equality_is_id_equality() {
    run_cases(200, |rng| {
        let a = gen_tree(rng, 3);
        let b = gen_tree(rng, 3);
        let mut pool = TreePool::new();
        let ia = pool.intern(&a);
        let ib = pool.intern(&b);
        assert_eq!(a == b, ia == ib, "{a:?} vs {b:?}");
    });
}

#[test]
fn streamed_variants_match_boxed_enumeration_on_generated_trees() {
    run_cases(120, |rng| {
        let tree = gen_tree(rng, 3);
        let commute_only = RuleSet { commutativity: true, ..RuleSet::none() };
        let rules = *rng.pick(&[RuleSet::all(), commute_only, RuleSet::none()]);
        let limit = *rng.pick(&[1usize, 4, 16, 64]);
        let boxed = variants(&tree, &rules, limit);
        let mut pool = TreePool::new();
        let ids = variants_interned(&mut pool, &tree, &rules, limit);
        assert_eq!(boxed.len(), ids.len());
        for (v, &id) in boxed.iter().zip(&ids) {
            assert_eq!(pool.to_tree(id), *v, "variant order or content diverged");
        }
    });
}

#[test]
fn interned_covers_agree_with_boxed_covers_on_generated_trees() {
    let target = record_isa::targets::tic25::target();
    let matcher = Matcher::new(&target);
    let acc = target.nt("acc").unwrap();
    let mut cache = LabelCache::new();
    let mut pool = TreePool::new();
    run_cases(150, |rng| {
        let tree = gen_tree(rng, 3);
        let id = pool.intern(&tree);
        let reference = matcher.cover(&tree, acc);
        let interned = matcher.cover_interned(&pool, id, &mut cache, acc);
        match (&reference, &interned) {
            (None, None) => {}
            (Some(r), Some(i)) => {
                assert_eq!(r.cost, i.cost, "{tree:?}");
                assert_eq!(r.root, i.root, "{tree:?}");
            }
            _ => panic!("coverability diverged on {tree:?}"),
        }
    });
}

/// The tentpole's measurable claim: on real kernels the pool
/// deduplicates nodes and the labeler replays memoized subtrees.
#[test]
fn interning_pays_off_on_real_kernels() {
    let session = Session::new();
    let target = record_isa::targets::tic25::target();
    for name in ["convolution", "fir"] {
        let kernel = record_dspstone::kernel(name).expect("known kernel");
        let timings =
            session.compile(&target, kernel.source, CompileRequest::default()).unwrap().timings;
        assert!(timings.select.interned_nodes > 0, "{name}: nothing interned");
        assert!(timings.select.dedup_hits > 0, "{name}: hash-consing never deduplicated");
        assert!(timings.select.labels_memoized > 0, "{name}: label cache never hit");
        assert!(
            timings.select.search_steps > 0,
            "{name}: variant enumeration charged no search steps"
        );
    }
}

/// Golden byte-equivalence: the interned selector and the boxed
/// reference selector must emit *identical* assembly for every DSPStone
/// kernel on both shipped targets, with optimizations off (`O0`) and
/// fully on (`O2`). DAG covering is held off on both sides — it is a
/// deliberate code *change* (validated semantically in
/// `tests/dag_cover.rs`), while this test pins the per-statement paths
/// against each other byte for byte.
#[test]
fn interned_selection_is_byte_identical_to_the_boxed_reference() {
    let presets: [(&str, CompileOptions); 2] = [
        ("O0", CompileOptions::nothing()),
        ("O2", CompileOptions { dag_cover: false, ..CompileOptions::default() }),
    ];
    for target in [record_isa::targets::tic25::target(), record_isa::targets::dsp56k::target()] {
        let compiler = Compiler::for_target(target.clone()).unwrap();
        for (preset, opts) in &presets {
            let plan = PassPlan::from_options(opts);
            let reference_plan = PassPlan::from_options(opts)
                .replacing("select", reference_select_pass(opts.rules, opts.variant_limit));
            for kernel in record_dspstone::kernels() {
                let lir = record_ir::lower::lower(&record_ir::dfl::parse(kernel.source).unwrap())
                    .unwrap();
                let interned = compiler.compile(&lir, plan.clone()).unwrap().code;
                let boxed = compiler.compile(&lir, reference_plan.clone()).unwrap().code;
                assert_eq!(
                    interned.render(),
                    boxed.render(),
                    "{}/{}/{preset}: interned selection changed the emitted code",
                    kernel.name,
                    target.name,
                );
            }
        }
    }
}

/// The committed perf-gate baseline must describe the current compiler:
/// every deterministic counter in `tests/golden/bench_baseline.json`
/// matches a fresh run exactly, and no baseline row carries a field the
/// report does not emit. This is the local mirror of the CI perf gate.
#[test]
fn bench_baseline_matches_current_deterministic_counters() {
    use record::select::SelectStats;
    use record_trace::json::{parse, Value};
    let baseline_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/bench_baseline.json"
    ))
    .expect("committed baseline");
    let baseline = parse(&baseline_text).expect("baseline is valid JSON");
    let session = Session::new();
    let rows = record::report::kernel_bench_report(&session).unwrap();
    let base_rows = baseline.get("kernels").and_then(Value::as_array).unwrap();
    assert_eq!(base_rows.len(), rows.len(), "baseline row count");
    for row in &rows {
        let base = base_rows
            .iter()
            .find(|b| {
                b.get("kernel").and_then(Value::as_str) == Some(row.kernel)
                    && b.get("target").and_then(Value::as_str) == Some(row.target.as_str())
            })
            .unwrap_or_else(|| panic!("{}/{} missing from baseline", row.kernel, row.target));
        let ctx = format!("{}/{}", row.kernel, row.target);
        let counters = SelectStats::COUNTERS.iter().map(|c| c.name).zip(row.select.values());
        let code_size = [("insns", row.insns as u64), ("words", u64::from(row.words))];
        let mut emitted = vec!["kernel", "target"];
        for (name, value) in counters.chain(code_size) {
            let want = base.get(name).and_then(Value::as_f64);
            assert_eq!(want, Some(value as f64), "{ctx}: {name}");
            emitted.push(name);
        }
        let Value::Object(members) = base else { panic!("{ctx}: baseline row is not an object") };
        for (key, _) in members {
            assert!(emitted.contains(&key.as_str()), "{ctx}: stale baseline field {key}");
        }
    }
}
