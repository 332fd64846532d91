//! Commutation lives in the grammar: every pattern rule carries its
//! commuted twins, and one labelling of a tree weighs every commuted
//! form of it. The variant stream's commutativity rule stays as the
//! oracle: over the statements of the corpus, the closed grammar's best
//! cost of a tree as written is never above the best cost over its
//! commuted variants labelled with the grammar as written, and equals
//! it whenever the stream enumerated every commuted form.

use record_burg::{LabelCache, Matcher};
use record_ir::lir::{AssignStmt, LirItem};
use record_ir::transform::{RuleSet, VariantStream};
use record_ir::{dfl, lower, TreePool};
use record_isa::{NonTermId, TargetDesc};

/// The most commuted variants the oracle enumerates per statement.
const LIMIT: usize = 4096;

/// The statements of `items`, loop bodies included, each straight-line
/// block decomposed by `treeify` into `pool`, the program's.
fn statements(pool: &mut TreePool, items: &[LirItem], out: &mut Vec<AssignStmt>) {
    let mut block = Vec::new();
    let flush = |pool: &mut TreePool, block: &mut Vec<AssignStmt>, out: &mut Vec<AssignStmt>| {
        if !block.is_empty() {
            let (forest, _) = record_ir::treeify::treeify(pool, std::mem::take(block), 0);
            out.extend(forest.assigns);
        }
    };
    for item in items {
        match item {
            LirItem::Assign(a) => block.push(a.clone()),
            LirItem::Loop { body, .. } => {
                flush(pool, &mut block, out);
                statements(pool, body, out);
            }
        }
    }
    flush(pool, &mut block, out);
}

#[test]
fn the_closed_grammar_never_loses_to_the_commuted_stream() {
    use record_isa::targets::{asip, dsp56k, tic25};
    let targets: [TargetDesc; 4] = [
        tic25::target(),
        dsp56k::target(),
        asip::build(&asip::AsipParams::dsp()),
        record_isa::cube::target_from_seed(2),
    ];
    let commute = RuleSet { commutativity: true, ..RuleSet::none() };
    let corpus = record_repro::programs::corpus();
    for target in &targets {
        let matcher = Matcher::new(target);
        let mut stores: Vec<NonTermId> = target.stores.iter().map(|s| s.nt).collect();
        stores.dedup();
        let (mut checked, mut exhausted, mut cheaper) = (0usize, 0usize, 0usize);
        for (name, source) in &corpus {
            let mut lir = lower::lower(&dfl::parse(source).unwrap()).unwrap();
            let mut stmts = Vec::new();
            statements(&mut lir.pool, &lir.body, &mut stmts);
            let mut pool = lir.pool;
            let mut closed = LabelCache::new();
            closed.set_twins(true);
            let mut plain = LabelCache::new();
            let mut stream = VariantStream::default();
            for stmt in &stmts {
                let label = matcher.label_interned(&pool, stmt.src, &mut closed);
                let mut best: Vec<Option<u64>> = vec![None; target.nonterms.len()];
                stream.restart(stmt.src, commute, LIMIT);
                let mut count = 0;
                while let Some(id) = stream.next(&mut pool) {
                    count += 1;
                    let variant = matcher.label_interned(&pool, id, &mut plain);
                    for &nt in &stores {
                        if let Some(cost) = plain.cost(variant, nt) {
                            let w = cost.weight();
                            best[nt.index()] = Some(best[nt.index()].map_or(w, |b| b.min(w)));
                        }
                    }
                }
                let all = count < LIMIT;
                for &nt in &stores {
                    let got = closed.cost(label, nt).map(|c| c.weight());
                    let want = best[nt.index()];
                    let what = format!(
                        "{name} `{}` to {} on {} ({count} commuted variants)",
                        stmt.display(&pool),
                        target.nonterm(nt).name,
                        target.name
                    );
                    match (got, want) {
                        (Some(got), Some(want)) => {
                            assert!(got <= want, "{what}: closed {got} above the stream's {want}");
                            assert!(!all || got == want, "{what}: closed {got}, stream {want}");
                            cheaper += usize::from(got < want);
                        }
                        (None, Some(want)) => panic!("{what}: underivable, the stream's {want}"),
                        (Some(got), None) => {
                            assert!(!all, "{what}: closed {got}, the stream derives none")
                        }
                        (None, None) => {}
                    }
                }
                checked += 1;
                exhausted += usize::from(all);
            }
        }
        println!(
            "{}: {checked} statements, {exhausted} with every commuted form enumerated, \
             {cheaper} store costs below the stream's",
            target.name
        );
        assert!(checked >= 1000, "{}: only {checked} statements", target.name);
    }
}
