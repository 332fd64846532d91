//! Session-cache soundness: compiling through a [`record::Session`]
//! (which reuses generated BURS tables across compiles) must be
//! observationally identical to compiling through a fresh
//! [`record::Compiler`] — byte-for-byte identical code on success, the
//! same rendered error on failure — for every DSPStone kernel on every
//! built-in target. The parallel batch driver must likewise match a
//! sequential loop, in input order.

use record::{CompileRequest, Compiler, Session};
use record_ir::lir::Lir;
use record_ir::{dfl, lower};
use record_isa::TargetDesc;

fn targets() -> Vec<TargetDesc> {
    vec![
        record_isa::targets::tic25::target(),
        record_isa::targets::dsp56k::target(),
        record_isa::targets::simple_risc::target(8),
    ]
}

/// Render an outcome (code or error) to a comparable string.
fn outcome_text(r: &Result<record_isa::Code, record::CompileError>) -> String {
    match r {
        Ok(code) => format!("ok:\n{}", code.render()),
        Err(e) => format!("err: {e}"),
    }
}

#[test]
fn session_compile_is_identical_to_fresh_compile_everywhere() {
    for target in targets() {
        let session = Session::new();
        let fresh = Compiler::for_target(target.clone()).unwrap();
        for kernel in record_dspstone::kernels() {
            // two session rounds: the first generates the tables, the
            // second hits the cache — both must equal the fresh compile
            for round in 0..2 {
                let cached = session.compile_source(&target, kernel.source);
                let direct =
                    fresh.compile(kernel.source, CompileRequest::default()).map(|c| c.code);
                assert_eq!(
                    outcome_text(&cached),
                    outcome_text(&direct),
                    "{} on {} (round {round}) diverges",
                    kernel.name,
                    target.name
                );
            }
        }
        let stats = session.stats();
        assert_eq!(stats.misses, 1, "{}: tables generated once", target.name);
        assert!(stats.hits >= 1, "{}: cache never hit", target.name);
    }
}

#[test]
fn compile_batch_equals_sequential_compilation() {
    for target in targets() {
        let session = Session::new();
        let lirs: Vec<Lir> = record_dspstone::kernels()
            .into_iter()
            .map(|k| lower::lower(&dfl::parse(k.source).unwrap()).unwrap())
            .collect();
        let batch = session.compile_batch(&target, &lirs, CompileRequest::default()).unwrap();
        assert_eq!(batch.len(), lirs.len());

        let fresh = Compiler::for_target(target.clone()).unwrap();
        for (i, (lir, outcome)) in lirs.iter().zip(&batch).enumerate() {
            let sequential = fresh.compile(lir, CompileRequest::default()).map(|c| c.code);
            assert_eq!(
                outcome_text(outcome),
                outcome_text(&sequential),
                "batch slot {i} ({}) on {} diverges from sequential",
                lir.name,
                target.name
            );
            if let Ok(code) = outcome {
                assert_eq!(code.name, lir.name.to_string(), "slot {i} out of order");
            }
        }
    }
}

#[test]
fn batch_determinism_across_repeated_runs() {
    // thread scheduling must never leak into the output: two batch runs
    // produce byte-identical outcome vectors
    let target = record_isa::targets::tic25::target();
    let session = Session::new();
    let lirs: Vec<Lir> = record_dspstone::kernels()
        .into_iter()
        .map(|k| lower::lower(&dfl::parse(k.source).unwrap()).unwrap())
        .collect();
    let a = session.compile_batch(&target, &lirs, CompileRequest::default()).unwrap();
    let b = session.compile_batch(&target, &lirs, CompileRequest::default()).unwrap();
    let render = |v: &[Result<record_isa::Code, record::CompileError>]| {
        v.iter().map(outcome_text).collect::<Vec<_>>().join("\n---\n")
    };
    assert_eq!(render(&a), render(&b));
}

/// Every part of a [`CompileRequest`] means the same on both entry
/// points: source and lowered input compile alike, a request plan
/// overrides the session's, a request recorder receives the spans (and
/// wins over the session tracer), and a past deadline fails the compile
/// as a budget error.
#[test]
fn compile_requests_mean_the_same_on_both_entry_points() {
    use std::sync::Arc;

    use record::{CompileError, PassPlan, SpanRecorder, Tracer};

    let target = record_isa::targets::dsp56k::target();
    let kernel = record_dspstone::kernel("complex_multiply").unwrap();
    let lir = lower::lower(&dfl::parse(kernel.source).unwrap()).unwrap();
    let compiler = Compiler::for_target(target.clone()).unwrap();
    let o0 = compiler.compile(&lir, PassPlan::o0()).unwrap();
    let o2 = compiler.compile(kernel.source, CompileRequest::default()).unwrap();
    assert_eq!(
        compiler.compile(&lir, CompileRequest::default()).unwrap().code.render(),
        o2.code.render(),
        "source and lowered input compile alike"
    );
    assert_ne!(o0.code.render(), o2.code.render(), "the plan must matter for this kernel");

    let tracer = Arc::new(Tracer::fake_clock());
    let session = Session::new().with_plan(PassPlan::o0()).with_tracer(Arc::clone(&tracer));
    let mut rec = SpanRecorder::enabled(record_trace::Clock::fake());
    let req = CompileRequest::default().plan(PassPlan::o2()).recorder(&mut rec);
    let served = session.compile(&target, kernel.source, req).unwrap();
    assert_eq!(served.code.render(), o2.code.render(), "the request plan wins");
    assert_eq!(
        session.compile_source(&target, kernel.source).unwrap().render(),
        o0.code.render(),
        "without one the session plan runs"
    );
    let (roots, _) = rec.finish(None);
    let names: Vec<&str> = roots.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["parse", "lower", "compile"]);
    assert_eq!(tracer.traces().len(), 1, "only the recorder-less compile reached the tracer");

    let past = std::time::Instant::now();
    match session.compile(&target, kernel.source, CompileRequest::default().deadline(past)) {
        Err(CompileError::Budget { pass, resource }) => {
            assert_eq!((pass.as_str(), resource.as_str()), ("admission", "deadline"));
        }
        other => panic!("expected an admission budget error, got {other:?}"),
    }
    match compiler.compile(&lir, CompileRequest::default().deadline(past)) {
        Err(CompileError::Budget { resource, .. }) => assert_eq!(resource, "deadline"),
        other => panic!("expected a deadline budget error, got {other:?}"),
    }
}

/// Four threads compile through one cold [`Compiler`], so they race to
/// grow the BURS tables' label automaton: every compile, a DSPStone
/// kernel at `O0` or `O2` or one of 100 generated programs, gives the
/// code or error text and the selection counters it gives one by one on
/// a cold compiler of its own, and again once that compiler is warm.
#[test]
fn threads_sharing_cold_tables_compile_as_one_thread_does() {
    use record::select::SelectStats;
    use record::PassPlan;

    let mut jobs: Vec<(String, PassPlan)> = Vec::new();
    for kernel in record_dspstone::kernels() {
        jobs.push((kernel.source.to_string(), PassPlan::o0()));
        jobs.push((kernel.source.to_string(), PassPlan::o2()));
    }
    record_prop::run_cases(100, |rng| {
        jobs.push((record_prop::dfl::gen_program(rng), PassPlan::o2()));
    });
    let compile = |compiler: &Compiler, (source, plan): &(String, PassPlan)| match compiler
        .compile(source, plan.clone())
    {
        Ok(c) => (format!("ok:\n{}", c.code.render()), Some(c.timings.select)),
        Err(e) => (format!("err: {e}"), None::<SelectStats>),
    };
    let targets = [
        record_isa::targets::dsp56k::target(),
        record_isa::cube::CubeParams::asip_dsp().build().unwrap(),
        record_isa::cube::target_from_seed(35),
    ];
    for target in targets {
        let alone = Compiler::for_target(target.clone()).unwrap();
        let cold: Vec<_> = jobs.iter().map(|job| compile(&alone, job)).collect();
        let warm: Vec<_> = jobs.iter().map(|job| compile(&alone, job)).collect();
        assert!(cold == warm, "{}: a warm compiler compiles differently", target.name);

        let shared = Compiler::for_target(target.clone()).unwrap();
        let threads: Vec<Vec<_>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (shared, jobs, compile) = (&shared, &jobs, &compile);
                    // each thread starts a quarter further into the jobs
                    s.spawn(move || {
                        let start = t * jobs.len() / 4;
                        let mut out = vec![None; jobs.len()];
                        for i in (start..jobs.len()).chain(0..start) {
                            out[i] = Some(compile(shared, &jobs[i]));
                        }
                        out.into_iter().map(Option::unwrap).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, got) in threads.iter().enumerate() {
            for (i, (got, want)) in got.iter().zip(&cold).enumerate() {
                assert_eq!(got, want, "{}: thread {t}, job {i}", target.name);
            }
        }
    }
}
