//! **Section 4.3.3** — "this approach is feasible due to the high speed
//! of iburg-based matchers": measures matcher throughput (trees per
//! second) and the cost of enumerating and matching algebraic variants
//! per statement, which is RECORD's whole selection strategy.

//!
//! `cargo bench --bench burs_speed -- smoke` runs the CI smoke subset:
//! on tic25 and dsp56k the streamed/interned hot path is checked against
//! the boxed reference (same variant counts, same best cover) and the
//! deterministic work counters — dedup hits, memoized labels, skipped
//! enumeration — are printed and asserted non-trivial. On dsp56k, where
//! DAG covering takes shares, every cut the share-vs-recompute model
//! would accept on a complex-multiply block is labelled through the
//! long-lived label store and checked against a labelling on a fresh
//! store. On both targets the ten DSPStone kernels are compiled twice
//! through one set of tables, whose label automaton the second pass
//! must not grow; its state and transition counts are printed.

use record::select::Emitter;
use record_bench::criterion;
use record_bench::{black_box, Criterion};
use record_burg::{best_candidate, CutSet, LabelCache, Matcher};
use record_ir::transform::{variants, variants_interned, RuleSet, VariantStream};
use record_ir::{AssignStmt, BinOp, BlockDag, MemRef, Tree, TreePool};
use record_isa::{NonTermId, NonTermKind, TargetDesc};

fn statement_tree() -> Tree {
    // dr := cr + ar*br - ai*bi — a typical Table 1 statement
    Tree::bin(
        BinOp::Sub,
        Tree::bin(
            BinOp::Add,
            Tree::var("cr"),
            Tree::bin(BinOp::Mul, Tree::var("ar"), Tree::var("br")),
        ),
        Tree::bin(BinOp::Mul, Tree::var("ai"), Tree::var("bi")),
    )
}

fn print_stats() {
    let target = record_isa::targets::tic25::target();
    let matcher = Matcher::new(&target);
    let acc = target.nt("acc").unwrap();
    let tree = statement_tree();

    println!("\nvariant enumeration and matching for `cr + ar*br - ai*bi`:");
    for limit in [1usize, 8, 32, 128] {
        let vs = variants(&tree, &RuleSet::all(), limit);
        let best =
            vs.iter().filter_map(|v| matcher.cover(v, acc).map(|c| c.cost.words)).min().unwrap();
        println!("  limit {limit:>4}: {:>4} variants, best cover {best} words", vs.len());
    }

    // raw throughput estimate
    let n = 20_000u32;
    let start = std::time::Instant::now();
    for _ in 0..n {
        black_box(matcher.cover(black_box(&tree), acc));
    }
    let per = start.elapsed() / n;
    println!(
        "matcher throughput: {per:?} per tree (~{:.0}k trees/s) — \"the high speed of iburg-based matchers\"",
        1.0e6 / per.as_micros().max(1) as f64
    );
}

/// CI smoke: the interned hot path (hash-consed pool + streamed
/// enumeration + memoized labelling) must agree with the boxed reference
/// on every variant count and best-cover weight, and its deterministic
/// work counters must show it actually saved work; on dsp56k, labels
/// under accepted DAG cuts must not depend on what the store holds.
fn smoke() {
    let tic25 = record_isa::targets::tic25::target();
    let dsp56k = record_isa::targets::dsp56k::target();
    smoke_variants(&tic25, "acc");
    smoke_variants(&dsp56k, "a");
    smoke_cuts(&dsp56k);
    smoke_steady_state(&tic25);
    smoke_steady_state(&dsp56k);
    println!("burs_speed smoke OK");
}

/// The ten DSPStone kernels, compiled twice through one compiler: the
/// first pass grows the tables' label automaton, the second must find
/// every transition it takes there.
fn smoke_steady_state(target: &TargetDesc) {
    let compiler = record::Compiler::for_target(target.clone()).unwrap();
    let mut sizes = Vec::new();
    for _ in 0..2 {
        for kernel in record_dspstone::kernels() {
            compiler.compile(kernel.source, record::CompileRequest::default()).unwrap();
        }
        sizes.push(compiler.tables().automaton_size());
    }
    assert_eq!(sizes[0], sizes[1], "{}: a second pass grew the label automaton", target.name);
    let (states, transitions) = sizes[1];
    println!(
        "smoke {} automaton: {states} states, {transitions} transitions after the ten kernels; a second pass adds none",
        target.name
    );
}

/// The streamed, memoized path against the boxed one on the statement
/// tree of `target`, covered to the nonterminal `goal`.
fn smoke_variants(target: &TargetDesc, goal: &str) {
    let matcher = Matcher::new(target);
    let goal = target.nt(goal).unwrap();
    let tree = statement_tree();

    let mut pool = TreePool::new();
    let mut cache = LabelCache::new();
    for limit in [1usize, 8, 32, 128] {
        let boxed = variants(&tree, &RuleSet::all(), limit);
        let ids = variants_interned(&mut pool, &tree, &RuleSet::all(), limit);
        assert_eq!(boxed.len(), ids.len(), "limit {limit}: streamed count diverges");
        for (v, &id) in boxed.iter().zip(&ids) {
            let reference = matcher.cover(v, goal).map(|c| c.cost.weight());
            let interned =
                matcher.cover_interned(&pool, id, &mut cache, goal).map(|c| c.cost.weight());
            assert_eq!(reference, interned, "limit {limit}: cover diverges on a variant");
        }
        println!(
            "smoke {} limit {limit:>4}: {:>4} variants, pool {:>4} nodes, {:>5} dedup hits, labels {:>4} computed / {:>5} memoized",
            target.name,
            ids.len(),
            pool.len(),
            pool.dedup_hits(),
            cache.misses(),
            cache.hits()
        );
    }
    assert!(pool.dedup_hits() > 0, "hash-consing never deduplicated a node");
    assert!(cache.hits() > 0, "label memoization never hit");

    // Budget-aware streaming: stop after two yielded variants (the
    // original plus one rewrite) and count the enumeration work the
    // eager path would have wasted.
    let mut stream = VariantStream::new(&mut pool, &tree, RuleSet::all(), 128);
    for _ in 0..2 {
        let id = stream.next(&mut pool).expect("variant streams on demand");
        let _ = matcher.cover_interned(&pool, id, &mut cache, goal);
    }
    assert!(stream.pending() > 0, "early stop skipped no buffered variants");
    println!(
        "smoke {} early-stop: 2 variants consumed, {} generated-but-unread skipped, {} rewrite steps charged",
        target.name,
        stream.pending(),
        stream.steps()
    );
}

/// On the complex-multiply block, which DAG covering shares on dsp56k:
/// every single cut the share-vs-recompute model would accept is
/// labelled through a store that already holds every variant's plain
/// labels and the other cuts' labels, and the result must equal a
/// labelling on a fresh store.
fn smoke_cuts(target: &TargetDesc) {
    let mul = |a: &str, b: &str| Tree::bin(BinOp::Mul, Tree::var(a), Tree::var(b));
    let trees = [
        ("cr", Tree::bin(BinOp::Sub, mul("ar", "br"), mul("ai", "bi"))),
        ("ci", Tree::bin(BinOp::Add, mul("ar", "bi"), mul("ai", "br"))),
    ];
    let mut emitter = Emitter::new(target);
    let block: Vec<AssignStmt> = trees
        .iter()
        .map(|(dst, src)| AssignStmt::new(emitter.pool_mut(), MemRef::scalar(*dst), src))
        .collect();
    let (_, stats) = emitter.emit_block(&block, &RuleSet::all(), 32).unwrap();
    assert!(stats.shares_taken > 0, "DAG covering took no share on {}", target.name);

    let matcher = Matcher::new(target);
    let candidates: Vec<_> = target.stores.iter().map(|s| (s.nt, s.cost)).collect();
    let park: Vec<NonTermId> = (0..target.nonterms.len())
        .map(|ix| NonTermId(ix as u16))
        .filter(|&nt| match target.nonterm(nt).kind {
            NonTermKind::Reg(class) => !target.class(class).is_singleton(),
            _ => false,
        })
        .collect();
    let mut pool = TreePool::new();
    let mut store = LabelCache::new();
    let block: Vec<AssignStmt> = trees
        .iter()
        .map(|(dst, src)| AssignStmt::new(&mut pool, MemRef::scalar(*dst), src))
        .collect();
    for (_, tree) in &trees {
        for id in variants_interned(&mut pool, tree, &RuleSet::all(), 32) {
            matcher.label_interned(&pool, id, &mut store);
        }
    }
    let dag = BlockDag::build(&pool, &block);
    let weight = |cache: &LabelCache, label| {
        best_candidate(cache.entries(label), &candidates)
            .map(|(nt, derive)| {
                let store = target.stores.iter().find(|s| s.nt == nt).unwrap();
                derive.add(store.cost).weight()
            })
            .unwrap()
    };
    let (mut accepted, mut checked) = (0usize, 0usize);
    for cand in &dag.shared {
        for &nt in &park {
            let def = matcher.label_interned(&pool, cand.id, &mut store);
            let Some(def_cost) = store.cost(def, nt) else { continue };
            let cuts: CutSet = [(cand.id, (0, nt))].into_iter().collect();
            let mut gain = -i128::from(def_cost.weight());
            for &s in &cand.uses {
                let root = dag.roots[s];
                let plain = matcher.label_interned(&pool, root, &mut store);
                let cut = matcher.label_interned_cut(&pool, root, &mut store, &cuts);
                let mut fresh = LabelCache::new();
                let reference = matcher.label_interned_cut(&pool, root, &mut fresh, &cuts);
                assert_eq!(
                    store.entries(cut),
                    fresh.entries(reference),
                    "{} under {cuts:?}: the long-lived store and a fresh one disagree",
                    pool.to_tree(root)
                );
                checked += 1;
                gain += i128::from(weight(&store, plain)) - i128::from(weight(&store, cut));
            }
            accepted += usize::from(gain > 0);
        }
    }
    assert!(accepted > 0, "no cut on the block pays on {}", target.name);
    println!(
        "smoke {} cuts: {checked} labellings under {} single cuts checked against a fresh store, {accepted} of them accepted by the cost model",
        target.name,
        dag.shared.len() * park.len()
    );
}

fn bench(c: &mut Criterion) {
    let target = record_isa::targets::tic25::target();
    let matcher = Matcher::new(&target);
    let acc = target.nt("acc").unwrap();
    let tree = statement_tree();

    let mut group = c.benchmark_group("burs_speed");
    group.bench_function("label_and_reduce", |b| {
        b.iter(|| black_box(matcher.cover(black_box(&tree), acc).unwrap()))
    });
    let mut pool = TreePool::new();
    let root = pool.intern(&tree);
    group.bench_function("label_and_reduce_interned", |b| {
        b.iter(|| {
            let mut cache = LabelCache::new();
            black_box(matcher.cover_interned(&pool, root, &mut cache, acc).unwrap())
        })
    });
    let mut warm = LabelCache::new();
    matcher.cover_interned(&pool, root, &mut warm, acc);
    group.bench_function("label_and_reduce_memoized", |b| {
        b.iter(|| black_box(matcher.cover_interned(&pool, root, &mut warm, acc).unwrap()))
    });
    group.bench_function("enumerate_32_variants", |b| {
        b.iter(|| black_box(variants(black_box(&tree), &RuleSet::all(), 32)))
    });
    group.bench_function("enumerate_32_variants_streamed", |b| {
        b.iter(|| black_box(variants_interned(&mut pool, black_box(&tree), &RuleSet::all(), 32)))
    });
    group.bench_function("select_over_32_variants", |b| {
        b.iter(|| {
            let vs = variants(black_box(&tree), &RuleSet::all(), 32);
            vs.iter().filter_map(|v| matcher.cover(v, acc).map(|c| c.cost.weight())).min()
        })
    });
    group.bench_function("select_over_32_variants_interned", |b| {
        b.iter(|| {
            let mut stream = VariantStream::new(&mut pool, black_box(&tree), RuleSet::all(), 32);
            let mut best = None;
            while let Some(id) = stream.next(&mut pool) {
                let w = matcher.cover_interned(&pool, id, &mut warm, acc).map(|c| c.cost.weight());
                best = match (best, w) {
                    (None, w) => w,
                    (Some(b), Some(w)) => Some(if w < b { w } else { b }),
                    (b, None) => b,
                };
            }
            black_box(best)
        })
    });
    group.finish();
}

fn main() {
    if std::env::args().any(|a| a == "smoke") {
        smoke();
        return;
    }
    print_stats();
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
