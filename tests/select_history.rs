//! The `select` pass selects in working memory it keeps per thread
//! (`SelectScratch` in `crates/core/src/select.rs`), reset whenever a
//! compile takes it. These tests check that a thread's earlier compiles
//! never show in a later one's output.

use std::thread;

use record::select::{SelectStats, MAX_RETAINED_NODES};
use record::{Budgets, Compiler, PassPlan};
use record_isa::cube::CubeParams;
use record_isa::targets::{dsp56k, tic25};
use record_isa::Code;

/// What a compile shows of its selection, or its error text.
type Outcome = Result<Selected, String>;

#[derive(Debug, PartialEq)]
struct Selected {
    code: Code,
    select: SelectStats,
    /// The spill and split cells selection allocated, in layout order.
    scratch: Vec<String>,
}

/// One compile of the sequence: a compiler, a program and a plan.
struct Job<'c> {
    compiler: &'c Compiler,
    name: String,
    source: String,
    plan: PassPlan,
}

impl Job<'_> {
    fn run(&self) -> Outcome {
        let compiled = self
            .compiler
            .compile(self.source.as_str(), self.plan.clone())
            .map_err(|e| e.to_string())?;
        let scratch = compiled.code.layout.entries().iter().map(|e| e.sym.to_string());
        Ok(Selected {
            scratch: scratch.filter(|name| name.starts_with("$s")).collect(),
            select: compiled.timings.select,
            code: compiled.code,
        })
    }
}

/// A program of `statements` distinct assignments in one block, each
/// with many algebraic variants (a chain of additions and a subtraction,
/// which the stream reassociates; commuted forms are the grammar's):
/// large enough for selection to ask its pool for more than
/// [`MAX_RETAINED_NODES`] nodes.
fn large_program(statements: usize) -> String {
    let outs: Vec<String> = (0..statements).map(|i| format!("y{i}")).collect();
    let mut src =
        format!("program large;\nin a, b, c, d, e: fix;\nout {}: fix;\nbegin\n", outs.join(", "));
    for (i, out) in outs.iter().enumerate() {
        src.push_str(&format!("  {out} := a + b * {i} + c - d + e * {};\n", i + 1));
    }
    src.push_str("end\n");
    src
}

/// Interleaves the job lists: one job from each in turn, until all run
/// out.
fn interleave<'c>(lists: Vec<Vec<Job<'c>>>) -> Vec<Job<'c>> {
    let mut lists: Vec<_> = lists.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        out.extend(lists.iter_mut().filter_map(Iterator::next));
        if out.len() == before {
            return out;
        }
    }
}

/// One thread compiles an interleaved sequence over five targets: the
/// DSPStone kernels, generated programs, compiles that fail inside
/// selection, compiles under the service budgets and one program past
/// the retention cap. Every result equals the same compile on a thread
/// of its own: the code, the selection counters, the scratch cells and
/// the error text.
#[test]
fn a_threads_compile_history_never_shows_in_its_output() {
    let compilers: Vec<Compiler> = [
        tic25::target(),
        dsp56k::target(),
        CubeParams::asip_dsp().build().unwrap(),
        record_isa::cube::target_from_seed(35),
        CubeParams::asip_minimal().build().unwrap(),
    ]
    .into_iter()
    .map(|t| Compiler::for_target(t).unwrap())
    .collect();
    let (tic25, dsp56k, asip_min) = (&compilers[0], &compilers[1], &compilers[4]);
    let job = |compiler, name: &str, source: &str, plan: &PassPlan| Job {
        compiler,
        name: name.to_string(),
        source: source.to_string(),
        plan: plan.clone(),
    };
    let default = PassPlan::default();
    let service = PassPlan::default().with_budgets(Budgets::service());
    let kernels = record_dspstone::kernels();

    let mut per_target = Vec::new();
    for compiler in &compilers[..4] {
        per_target
            .push(kernels.iter().map(|k| job(compiler, k.name, k.source, &default)).collect());
    }
    let mut rng = record_prop::Rng::new(0xDAC97);
    let generated = (0..24)
        .map(|i| {
            let source = record_prop::dfl::gen_program(&mut rng);
            job(&compilers[i % 4], &format!("generated #{i}"), &source, &default)
        })
        .collect();
    let out_of_registers =
        "program oor;\nin c, d, e: fix;\nout t0: fix;\nbegin\n  t0 := c + (d - e);\nend\n";
    let failing = vec![
        job(dsp56k, "out of registers", out_of_registers, &default),
        job(asip_min, "uncoverable fir", record_dspstone::kernel("fir").unwrap().source, &default),
        job(dsp56k, "out of registers, service budgets", out_of_registers, &service),
        job(
            asip_min,
            "uncoverable dot_product",
            record_dspstone::kernel("dot_product").unwrap().source,
            &default,
        ),
    ];
    let budgeted = kernels
        .iter()
        .enumerate()
        .map(|(i, k)| job(&compilers[i % 4], k.name, k.source, &service))
        .collect();
    let large = vec![job(tic25, "large", &large_program(400), &default)];
    let mut lists = per_target;
    lists.extend([generated, failing, budgeted, large]);
    let jobs = interleave(lists);

    let history: Vec<Outcome> =
        thread::scope(|s| s.spawn(|| jobs.iter().map(Job::run).collect()).join().unwrap());

    let mut seen = (0, 0, false);
    for (job, warm) in jobs.iter().zip(&history) {
        let fresh = thread::scope(|s| s.spawn(|| job.run()).join().unwrap());
        assert!(
            *warm == fresh,
            "{} on {}: after the thread's earlier compiles\n{warm:#?}\non a thread of its own\n{fresh:#?}",
            job.name,
            job.compiler.target().name
        );
        match warm {
            Ok(Selected { select, .. }) => {
                seen.0 += 1;
                seen.2 |= select.interned_nodes + select.dedup_hits > MAX_RETAINED_NODES as u64;
            }
            Err(_) => seen.1 += 1,
        }
    }
    let failures: Vec<&String> = history.iter().filter_map(|o| o.as_ref().err()).collect();
    assert!(failures.iter().any(|e| e.contains("exhausted while emitting")), "{failures:#?}");
    assert!(failures.iter().any(|e| e.contains("no instruction cover")), "{failures:#?}");
    let (compiled, failed, past_cap) = seen;
    assert!(compiled >= 60 && failed >= 4, "{compiled} compiled, {failed} failed");
    assert!(past_cap, "no compile asked its pool for more than {MAX_RETAINED_NODES} nodes");
}
