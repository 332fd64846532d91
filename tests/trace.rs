//! Integration and golden-file tests for the structured tracing layer.
//!
//! The golden files under `tests/golden/` pin the exact bytes of the
//! JSONL and Chrome-trace exporters for a hand-built span tree on the
//! deterministic fake clock. Regenerate them after an intentional format
//! change with `UPDATE_GOLDEN=1 cargo test --test trace`.

use std::sync::Arc;

use record::{AttrValue, CompileRequest, Compiler, PassPlan, Session, Tracer};
use record_repro::fuzz::FlakyPass;
use record_trace::json;

/// The deterministic sample trace behind the golden files: nested spans,
/// a typed event, and attribute strings that need every escape class
/// (quote, backslash, newline, tab, control character).
fn golden_tracer() -> Tracer {
    let tracer = Tracer::fake_clock();
    let mut rec = tracer.recorder();
    rec.open("compile");
    rec.attr("kernel", "evil \"kernel\"\nname\twith\\escapes\u{1}");
    rec.attr("target", "tic25");
    rec.open("select");
    rec.attr("search_steps", 42usize);
    rec.event("budget-exceeded", &[("error", "variants cap".into())]);
    rec.close();
    rec.open("compact");
    rec.attr("fill", 1.5f64);
    rec.close();
    rec.close();
    tracer.submit(rec);
    tracer.instant("cache-miss", &[("target", "tic25".into())]);
    tracer
}

fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {path}: {e}"));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file (UPDATE_GOLDEN=1 regenerates)"
    );
}

#[test]
fn jsonl_export_matches_golden_file() {
    let tracer = golden_tracer();
    let mut out = Vec::new();
    tracer.write_jsonl(&mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    json::validate_jsonl(&out).unwrap_or_else(|e| panic!("{e}:\n{out}"));
    check_golden("trace.jsonl", &out);
}

#[test]
fn chrome_trace_export_matches_golden_file() {
    let tracer = golden_tracer();
    let mut out = Vec::new();
    tracer.write_chrome_trace(&mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    json::validate(&out).unwrap_or_else(|e| panic!("{e}:\n{out}"));
    check_golden("trace_chrome.json", &out);
}

const FIR_LIKE: &str = "program p;
    const N = 4;
    in x: fix[N]; in c: fix[N];
    out y: fix;
    begin
      y := 0;
      for i in 0..N-1 loop y := y + c[i] * x[i]; end loop;
    end";

/// Acceptance criterion: the span tree of a traced `Session::compile`
/// names every pass the plan actually executed, in order.
#[test]
fn session_compile_span_tree_covers_every_pass() {
    let tracer = Arc::new(Tracer::fake_clock());
    let session = Session::new().with_tracer(tracer.clone());
    let target = record_isa::targets::tic25::target();
    let timings = session.compile(&target, FIR_LIKE, CompileRequest::default()).unwrap().timings;

    let traces = tracer.traces();
    assert_eq!(traces.len(), 1, "one compile, one trace");
    let root = &traces[0].root;
    assert_eq!(root.name, "compile");
    assert_eq!(root.attr("kernel"), Some(&AttrValue::Str("p".into())));
    assert_eq!(root.attr("target"), Some(&AttrValue::Str("tic25".into())));

    let span_names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
    let pass_names: Vec<&str> = timings.passes.iter().map(|p| p.name).collect();
    assert!(!pass_names.is_empty());
    assert_eq!(span_names, pass_names, "one child span per executed pass, in order");

    for child in &root.children {
        assert!(child.attr("insns_before").is_some(), "{}: missing code-shape attrs", child.name);
        assert!(child.start_us >= root.start_us && child.end_us <= root.end_us);
    }
    // the cache miss for the freshly built compiler is an instant event
    assert!(tracer.instants().iter().any(|(_, e)| e.name == "cache-miss"));
}

/// Every consumer of the selection counters reads the one table in
/// `SelectStats::COUNTERS`: for each entry the `select` span attribute
/// and the session metric equal the compile's `timings.select` value,
/// and a `BENCH_compile.json` row lists the table names between
/// `kernel, target` and `insns, words`. complex_multiply on dsp56k
/// takes DAG shares, so the sharing counters are not all zero.
#[test]
fn every_consumer_reads_the_select_counter_table() {
    use record::report::{render_kernel_bench_json, KernelBench};
    use record::select::SelectStats;
    use record::SpanRecorder;

    let target = record_isa::targets::dsp56k::target();
    let kernel = record_dspstone::kernel("complex_multiply").unwrap();
    let session = Session::new();
    let mut rec = SpanRecorder::enabled(record_trace::Clock::fake());
    let req = CompileRequest::default().recorder(&mut rec);
    let compiled = session.compile(&target, kernel.source, req).unwrap();
    let stats = compiled.timings.select;
    assert!(stats.shares_taken > 0, "{stats:?}");

    let (roots, _) = rec.finish(None);
    let compile = roots.iter().find(|s| s.name == "compile").expect("a compile span");
    let select = compile.children.iter().find(|s| s.name == "select").expect("a select span");
    for (counter, value) in SelectStats::COUNTERS.iter().zip(stats.values()) {
        let attr = select.attr(counter.name);
        assert_eq!(attr, Some(&AttrValue::Int(value as i64)), "span attribute {}", counter.name);
        let metric = session.metrics().counter(counter.metric);
        assert_eq!(metric, value, "metric {}", counter.metric);
    }

    let row = KernelBench {
        kernel: kernel.name,
        target: target.name.clone(),
        select: stats,
        insns: compiled.code.insns.len(),
        words: compiled.code.size_words(),
    };
    let doc = json::parse(&render_kernel_bench_json(&[row])).unwrap();
    let row = &doc.get("kernels").and_then(json::Value::as_array).unwrap()[0];
    let json::Value::Object(members) = row else { panic!("row is not an object: {row:?}") };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    let names = SelectStats::COUNTERS.iter().map(|c| c.name);
    let want: Vec<&str> =
        ["kernel", "target"].into_iter().chain(names).chain(["insns", "words"]).collect();
    assert_eq!(keys, want);
}

/// A poisoned best-effort pass leaves a `salvage` event on the compile's
/// root span — the degradation is visible in the trace, not just in the
/// salvage records.
#[test]
fn salvage_shows_up_as_an_event() {
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let tracer = Tracer::fake_clock();
    let compiler = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
    let lir = record_ir::lower::lower(&record_ir::dfl::parse(FIR_LIKE).unwrap()).unwrap();
    let plan = PassPlan::o2().strict(true).with_pass(Arc::new(FlakyPass));
    let mut rec = tracer.recorder();
    let result = compiler.compile(&lir, CompileRequest::default().plan(plan).recorder(&mut rec));
    tracer.submit(rec);
    std::panic::set_hook(saved);
    result.unwrap();

    let traces = tracer.traces();
    assert_eq!(traces.len(), 1);
    let root = &traces[0].root;
    let salvage =
        root.events.iter().find(|e| e.name == "salvage").expect("salvage event on the root span");
    assert_eq!(
        salvage.attrs.iter().find(|(k, _)| k == "pass").map(|(_, v)| v),
        Some(&AttrValue::Str("flaky".into()))
    );
    // the retried compile ran the surviving passes under the same root
    assert!(root.children.iter().any(|c| c.name == "select"));
    // the flaky pass's own span records the failure before the retry
    let flaky = root.children.iter().find(|c| c.name == "flaky").expect("span for the failed pass");
    assert!(flaky.events.iter().any(|e| e.name == "pass-panic"));
}

/// Kernel names laundered straight into JSON strings must be escaped —
/// both exporters stay parseable with quotes and newlines in the name.
#[test]
fn exports_escape_hostile_kernel_names() {
    let tracer = Tracer::fake_clock();
    let compiler = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
    let mut lir = record_ir::lower::lower(&record_ir::dfl::parse(FIR_LIKE).unwrap()).unwrap();
    lir.name = record_ir::Symbol::new("evil \"kernel\"\nname");
    let mut rec = tracer.recorder();
    compiler.compile(&lir, CompileRequest::default().recorder(&mut rec)).unwrap();
    tracer.submit(rec);

    let mut jsonl = Vec::new();
    tracer.write_jsonl(&mut jsonl).unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();
    json::validate_jsonl(&jsonl).unwrap_or_else(|e| panic!("{e}:\n{jsonl}"));
    assert!(jsonl.contains(r#"evil \"kernel\"\nname"#), "escaped name present:\n{jsonl}");

    let mut chrome = Vec::new();
    tracer.write_chrome_trace(&mut chrome).unwrap();
    let chrome = String::from_utf8(chrome).unwrap();
    json::validate(&chrome).unwrap_or_else(|e| panic!("{e}:\n{chrome}"));
    assert!(chrome.contains(r#"evil \"kernel\"\nname"#));
}

/// The deterministic registry behind the Prometheus golden file: every
/// metric shape (counter, gauge, histogram), labeled and unlabeled
/// series sharing a base name, and label values needing every escape
/// class the exposition format defines (backslash, quote, newline).
fn golden_registry() -> record_trace::MetricsRegistry {
    let m = record_trace::MetricsRegistry::new();
    m.inc("record_compiles_total");
    m.inc_with("record_kernel_compiles_total", &[("kernel", "fir")]);
    m.add_with("record_kernel_compiles_total", &[("kernel", "fir")], 2);
    m.inc_with("record_kernel_compiles_total", &[("kernel", "evil \"kernel\"\nwith\\escapes")]);
    m.set_gauge("record_queue_depth", 3.0);
    m.set_gauge_with("record_worker_busy", &[("worker", "w\"0"), ("host", "a\\b")], 1.0);
    m.observe("record_latency_us", &[10.0, 100.0], 250.0);
    m.observe_with("record_latency_us", &[("plan", "o2\nsneaky")], &[10.0, 100.0], 7.0);
    m.observe_with("record_latency_us", &[("plan", "o2\nsneaky")], &[10.0, 100.0], 42.0);
    m
}

/// Satellite regression: hostile label values (kernel names reach
/// labels via session metrics) must be escaped per the exposition
/// format, `# TYPE` must appear exactly once per base name even when
/// labeled and unlabeled series interleave in sort order, and the
/// output must end in a newline. All pinned byte-for-byte.
#[test]
fn prometheus_export_matches_golden_file() {
    let m = golden_registry();
    let out = m.render_prometheus();
    assert!(out.ends_with('\n'), "exposition must end with a newline:\n{out:?}");
    for base in ["record_compiles_total", "record_kernel_compiles_total", "record_latency_us"] {
        let type_lines = out.lines().filter(|l| l.starts_with(&format!("# TYPE {base} "))).count();
        assert_eq!(type_lines, 1, "{base}: TYPE must appear exactly once:\n{out}");
    }
    // raw newline inside a label value would break line-oriented parsers
    for line in out.lines() {
        assert!(!line.ends_with('\\') || line.contains("\\\\"), "torn escape in: {line}");
    }
    check_golden("metrics.prom", &out);

    // write_prometheus is the same bytes through the io::Write path
    let mut via_writer = Vec::new();
    m.write_prometheus(&mut via_writer).unwrap();
    assert_eq!(String::from_utf8(via_writer).unwrap(), out);
}

/// The label helpers themselves: escaping is exact and `counter_sum`
/// folds every series of a base name.
#[test]
fn label_escaping_and_counter_sum() {
    assert_eq!(record_trace::escape_label_value("plain"), "plain");
    assert_eq!(record_trace::escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    assert_eq!(record_trace::labeled_key("m", &[("k", "v\"x")]), "m{k=\"v\\\"x\"}");
    let m = golden_registry();
    assert_eq!(m.counter_sum("record_kernel_compiles_total"), 4);
    assert_eq!(m.counter_sum("record_compiles_total"), 1);
    assert_eq!(m.counter_sum("record_latency_us"), 0, "histograms are not counters");
}
