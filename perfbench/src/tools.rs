//! `--self-check`, `--compare` and `--baseline`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use record_trace::json::{self, Value};

use crate::run::WorkDir;
use crate::stats::{median, quartiles, spread};
use crate::workload::{Kind, WORKLOADS};

/// One metric as `BENCHMARK.json` declares it.
struct MetricSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// End-to-end metrics only: how much worse the change's median may
    /// be than the parent's, as a share of the parent's.
    bound: Option<f64>,
}

struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn load_spec() -> Result<Spec, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| doc.get(key).and_then(Value::as_array).unwrap_or(&[]).to_vec();
    let metrics = |key: &str| -> Vec<MetricSpec> {
        list(key)
            .iter()
            .map(|m| MetricSpec {
                name: m.get("name").and_then(Value::as_str).unwrap_or("").to_string(),
                unit: m.get("unit").and_then(Value::as_str).unwrap_or("").to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Value::as_f64),
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    })
}

/// A result line or `--json` document, reduced to what the tools use
/// (a result line has no workload, seed or start time).
struct Doc {
    workload: String,
    seed: f64,
    started: f64,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn parse_doc(text: &str) -> Result<Doc, String> {
    let v = json::parse(text.trim()).map_err(|e| e.to_string())?;
    let mut metrics = BTreeMap::new();
    if let Some(Value::Object(members)) = v.get("metrics") {
        for (name, m) in members {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
            metrics.insert(name.clone(), (value, unit));
        }
    }
    let number = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    Ok(Doc {
        workload: v.get("workload").and_then(Value::as_str).unwrap_or("").to_string(),
        seed: number("seed"),
        started: number("started_unix_s"),
        correct: v.get("correct") == Some(&Value::Bool(true)),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics,
    })
}

fn load_doc(path: &Path) -> Result<Doc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_doc(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn value(doc: &Doc, name: &str) -> f64 {
    doc.metrics.get(name).map_or(f64::NAN, |(v, _)| *v)
}

struct Checks {
    failures: usize,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: String) {
        println!("{} {what}", if ok { "ok  " } else { "FAIL" });
        self.failures += usize::from(!ok);
    }
}

/// Runs this executable on one workload for a second (four when traced:
/// four untraced and four traced slices alternate); returns the result
/// line and the `--json` document.
fn child_run(
    dir: &WorkDir,
    workload: &str,
    seed: u64,
    trace: bool,
    tag: &str,
) -> Result<(Doc, Doc), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let json_path = dir.join(&format!("{workload}-{tag}.json"));
    let seconds = if trace { "4" } else { "1" };
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", seconds])
        .args(["--trace", if trace { "1" } else { "0" }, "--json"])
        .arg(&json_path)
        .output()
        .map_err(|e| format!("spawning a {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} trace={}: exit {:?}\n{}",
            u8::from(trace),
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout.lines().last().unwrap_or("");
    let result = parse_doc(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    Ok((result, load_doc(&json_path)?))
}

/// Runs every workload briefly and checks the benchmark's contract: the
/// result lines carry exactly the metrics `BENCHMARK.json` names, with
/// their units; exact counts repeat across runs with the same seed; and
/// on the in-process workloads the layers add up to the compile.
pub fn self_check(seed: u64) -> Result<ExitCode, String> {
    let spec = load_spec()?;
    let dir = WorkDir::create("self-check")?;
    let mut checks = Checks { failures: 0 };
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    checks.expect(spec.workloads == names, format!("BENCHMARK.json lists the workloads {names:?}"));
    for w in WORKLOADS {
        let (line0, doc0) = child_run(&dir, w.name, seed, false, "t0")?;
        let (line1, doc1) = child_run(&dir, w.name, seed, true, "t1a")?;
        let (_, doc2) = child_run(&dir, w.name, seed, true, "t1b")?;
        for (line, specs, mode) in
            [(&line0, &spec.end_to_end, "end-to-end"), (&line1, &spec.per_layer, "per-layer")]
        {
            let mut want: Vec<(&str, &str)> =
                specs.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
            want.sort_unstable();
            let got: Vec<(&str, &str)> =
                line.metrics.iter().map(|(n, (_, u))| (n.as_str(), u.as_str())).collect();
            checks.expect(
                got == want && line.metrics.values().all(|(v, _)| v.is_finite()),
                format!(
                    "{}: the {mode} result carries every declared metric with its unit",
                    w.name
                ),
            );
            checks.expect(
                line.correct && line.failed == 0.0,
                format!("{}: the {mode} run is correct", w.name),
            );
        }
        for name in ["code_words", "sim_cycles"] {
            let v = [value(&doc0, name), value(&doc1, name), value(&doc2, name)];
            checks.expect(
                v[0] == v[1] && v[1] == v[2],
                format!("{}: {name} repeats exactly ({v:?})", w.name),
            );
        }
        let select: Vec<&String> =
            doc1.metrics.keys().filter(|k| k.starts_with("select.")).collect();
        let same = !select.is_empty() && select.iter().all(|k| value(&doc1, k) == value(&doc2, k));
        checks.expect(same, format!("{}: select.* repeat exactly", w.name));
        if w.kind == Kind::Compile {
            let (sum, whole) =
                (value(&doc1, "bench.layer_sum_us"), value(&doc1, "bench.untraced_program_us"));
            let off = (sum - whole).abs() / whole;
            checks.expect(
                off <= 0.15,
                format!(
                    "{}: layer self times sum to {sum:.1} us against an untraced {whole:.1} us ({:.1}% apart)",
                    w.name,
                    off * 100.0
                ),
            );
        }
    }
    println!("self-check: {} failure(s)", checks.failures);
    Ok(if checks.failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Compares runs of a parent and a change with the same benchmark code:
/// `--compare PARENT.json... --vs CHANGE.json...`, the files being
/// `--json` documents, paired in the order given (run them alternately).
///
/// Per workload it first reports failed over attempted requests on each
/// side, with the verdict `regression` when the change fails a larger
/// share than the parent. Per end-to-end metric it reports both medians
/// and a verdict: `regression` when the change's median is worse than
/// the parent's by more than the metric's bound; `unresolved` when any
/// run of the workload, on either side, returned a wrong or failed
/// reply, or when the parent's own spread (interquartile range over
/// median) exceeds the bound, unless every change run beats every parent
/// run; `gain` when there are at least 10 pairs, the change wins at least
/// nine tenths of them (ties count for neither), and the medians differ
/// by more than the parent's interquartile range; `same` otherwise.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let split = args.iter().position(|a| a == "--vs").ok_or("--compare needs `--vs`")?;
    let load = |files: &[String]| -> Result<Vec<Doc>, String> {
        files.iter().map(|f| load_doc(Path::new(f))).collect()
    };
    let (parent, change) = (load(&args[..split])?, load(&args[split + 1..])?);
    let spec = load_spec()?;
    let mut regressions = 0;
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>8} {:>7} {:>8} {:>7}  verdict",
        "workload", "metric", "parent", "change", "delta%", "bound%", "spread%", "wins"
    );
    for workload in &spec.workloads {
        let p: Vec<&Doc> = parent.iter().filter(|d| &d.workload == workload).collect();
        let c: Vec<&Doc> = change.iter().filter(|d| &d.workload == workload).collect();
        if p.is_empty() || c.is_empty() {
            continue;
        }
        let failures = |docs: &[&Doc]| {
            docs.iter().fold((0.0, 0.0), |(f, a), d| (f + d.failed, a + d.attempted))
        };
        let ((pf, pa), (cf, ca)) = (failures(&p), failures(&c));
        let more_failures = cf / ca.max(1.0) > pf / pa.max(1.0);
        regressions += usize::from(more_failures);
        println!(
            "{workload:<16} {:<18} {:>12} {:>12}  {}",
            "failed/attempted",
            format!("{pf}/{pa}"),
            format!("{cf}/{ca}"),
            if more_failures { "regression" } else { "same" }
        );
        let correct = p.iter().chain(&c).all(|d| d.correct);
        for m in &spec.end_to_end {
            let pv: Vec<f64> = p.iter().map(|d| value(d, &m.name)).collect();
            let cv: Vec<f64> = c.iter().map(|d| value(d, &m.name)).collect();
            let (pm, cm) = (median(&pv), median(&cv));
            let sign = if m.lower_is_better { 1.0 } else { -1.0 };
            // positive = the change is worse
            let worse = sign * (cm - pm) / pm.abs().max(f64::MIN_POSITIVE);
            let bound = m.bound.unwrap_or(0.0);
            let pairs = pv.len().min(cv.len());
            let wins = (0..pairs).filter(|&i| sign * (cv[i] - pv[i]) < 0.0).count();
            let iqr = quartiles(&pv).map_or(0.0, |(q1, q3)| q3 - q1);
            let all_better = cv.iter().all(|&x| pv.iter().all(|&y| sign * (x - y) < 0.0));
            let verdict = if worse > bound {
                regressions += 1;
                "regression"
            } else if !correct || spread(&pv) > bound && !all_better {
                "unresolved"
            } else if pairs >= 10 && wins * 10 >= pairs * 9 && worse < 0.0 && (cm - pm).abs() > iqr
            {
                "gain"
            } else {
                "same"
            };
            println!(
                "{workload:<16} {:<18} {pm:>12.3} {cm:>12.3} {:>8.2} {:>7.1} {:>8.2} {:>3}/{:<3}  {verdict}",
                m.name,
                100.0 * (cm - pm) / pm.abs().max(f64::MIN_POSITIVE),
                100.0 * bound,
                100.0 * spread(&pv),
                wins,
                pairs,
            );
        }
    }
    Ok(if regressions == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Folds sets of `--json` documents into the document kept as
/// `baseline.json`: `--baseline NAME=DIR...`, each directory holding the
/// correct, untraced runs of one set. For each set, workload and metric
/// the document records the median, the quartiles and the spread
/// (interquartile range over median), and for each end-to-end metric the
/// change of its median from the first set to the second. The document
/// goes to standard output; the end-to-end spreads and deltas, next to
/// their bounds, go to standard error.
pub fn baseline(args: &[String]) -> Result<ExitCode, String> {
    let spec = load_spec()?;
    let mut sets: Vec<(&str, Vec<Doc>)> = Vec::new();
    for arg in args {
        let (name, dir) =
            arg.split_once('=').ok_or_else(|| format!("`{arg}`: expected NAME=DIR"))?;
        let mut docs = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))? {
            let path = entry.map_err(|e| format!("{dir}: {e}"))?.path();
            if path.extension().is_some_and(|x| x == "json") {
                let doc = load_doc(&path)?;
                if !doc.correct {
                    return Err(format!("{}: the run was not correct", path.display()));
                }
                docs.push(doc);
            }
        }
        if docs.is_empty() {
            return Err(format!("{dir}: no --json documents"));
        }
        sets.push((name, docs));
    }
    let workloads = |docs: &[Doc]| -> Vec<&str> {
        let present = |w: &&String| docs.iter().any(|d| &d.workload == *w);
        spec.workloads.iter().filter(present).map(String::as_str).collect()
    };
    let values = |docs: &[Doc], workload: &str, name: &str| -> Vec<f64> {
        let of_workload = docs.iter().filter(|d| d.workload == workload);
        of_workload.map(|d| value(d, name)).filter(|v| v.is_finite()).collect()
    };
    let delta = |a: &[Doc], b: &[Doc], workload: &str, name: &str| {
        let (x, y) = (median(&values(a, workload, name)), median(&values(b, workload, name)));
        (y - x) / x.abs()
    };

    eprintln!(
        "{:<6} {:<16} {:<18} {:>14} {:>8} {:>8} {:>7}",
        "set", "workload", "metric", "median", "spread%", "delta%", "bound%"
    );
    for (i, (name, docs)) in sets.iter().enumerate() {
        for workload in workloads(docs) {
            for m in &spec.end_to_end {
                let v = values(docs, workload, &m.name);
                let (s, bound) = (spread(&v), m.bound.unwrap_or(0.0));
                // the second set against the first
                let d = if i == 1 { delta(&sets[0].1, docs, workload, &m.name) } else { f64::NAN };
                let note = if d.abs() > bound {
                    "  delta beyond the bound"
                } else if s > bound / 3.0 {
                    "  spread above a third of the bound"
                } else {
                    ""
                };
                eprintln!(
                    "{name:<6} {workload:<16} {:<18} {:>14.3} {:>8.2} {:>8.2} {:>7.1}{note}",
                    m.name,
                    median(&v),
                    100.0 * s,
                    100.0 * d,
                    100.0 * bound
                );
            }
        }
    }

    let mut out = String::from("{\"schema\": \"record-perfbench-baseline/v2\", \"sets\": ");
    push_object(&mut out, "", sets.iter().map(|(n, docs)| (*n, docs)), |out, docs| {
        let seeds: Vec<u64> =
            docs.iter().map(|d| d.seed as u64).collect::<BTreeSet<_>>().into_iter().collect();
        let started = docs.iter().map(|d| d.started).fold(f64::INFINITY, f64::min);
        let _ =
            write!(out, "{{\"seeds\": {seeds:?}, \"runs\": {}, \"started_unix_s\": ", docs.len());
        json::push_f64(out, started);
        out.push_str(", \"workloads\": ");
        push_object(out, " ", workloads(docs).into_iter().map(|w| (w, w)), |out, workload| {
            let names: BTreeSet<&str> = docs
                .iter()
                .filter(|d| d.workload == workload)
                .flat_map(|d| d.metrics.keys().map(String::as_str))
                .collect();
            push_object(out, "  ", names.into_iter().map(|n| (n, n)), |out, name| {
                let v = values(docs, workload, name);
                let m = median(&v);
                let (q1, q3) = quartiles(&v).unwrap_or((m, m));
                let summary = [("median", m), ("q1", q1), ("q3", q3), ("spread", spread(&v))];
                for (i, (key, x)) in summary.into_iter().enumerate() {
                    let _ = write!(out, "{}\"{key}\": ", if i == 0 { "{" } else { ", " });
                    json::push_f64(out, x);
                }
                out.push('}');
            });
        });
        out.push('}');
    });
    if let [(a_name, a), (b_name, b), ..] = &sets[..] {
        out.push_str(",\n\"delta\": {\"from\": ");
        json::push_str_lit(&mut out, a_name);
        out.push_str(", \"to\": ");
        json::push_str_lit(&mut out, b_name);
        out.push_str(", \"workloads\": ");
        push_object(&mut out, " ", workloads(a).into_iter().map(|w| (w, w)), |out, workload| {
            let metrics = spec.end_to_end.iter().map(|m| (m.name.as_str(), m.name.as_str()));
            push_object(out, "  ", metrics, |out, name| {
                json::push_f64(out, delta(a, b, workload, name));
            });
        });
        out.push('}');
    }
    out.push_str("}\n");
    json::validate(&out).map_err(|e| format!("baseline document: {e}"))?;
    print!("{out}");
    Ok(ExitCode::SUCCESS)
}

/// Appends a JSON object, one entry per line after `indent`; `push_value`
/// writes each entry's value.
fn push_object<'k, T>(
    out: &mut String,
    indent: &str,
    entries: impl IntoIterator<Item = (&'k str, T)>,
    mut push_value: impl FnMut(&mut String, T),
) {
    out.push('{');
    for (i, (key, item)) in entries.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(indent);
        json::push_str_lit(out, key);
        out.push_str(": ");
        push_value(out, item);
    }
    out.push('}');
}
