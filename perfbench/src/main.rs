//! `record-perfbench`: the repository's calibrated benchmark.
//!
//! One process runs one workload: set-up (timed, several rounds), an
//! untimed warm-up, then closed-loop work slices alternating with
//! calibration slices. The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). See `README.md` next to this package.

mod calib;
mod check;
mod clients;
mod layers;
mod phase;
mod report;
mod run;
mod stats;
mod tools;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  record-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                   [--json OUT.json] [--trace-out TRACE.json]
  record-perfbench --self-check [--seed N]
  record-perfbench --compare PARENT.json... --vs CHANGE.json...
  record-perfbench --baseline NAME=DIR...
workloads: dspstone-tic25 dspstone-dsp56k serve-hit serve-miss";

/// The default seed (the one `baseline.json` records).
const DEFAULT_SEED: u64 = 0xDAC97;

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad seed `{s}`"))
}

fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
}

fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 25.0, false);
    let (mut json_out, mut trace_out) = (None, None);
    let mut i = 0;
    while i < args.len() {
        let v = value(args, i, &args[i])?;
        match args[i].as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = parse_seed(v)?,
            "--seconds" => {
                seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or("bad --seconds")?;
            }
            "--trace" => {
                trace = match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--json" => json_out = Some(PathBuf::from(v)),
            "--trace-out" => trace_out = Some(PathBuf::from(v)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 2;
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let opts =
        run::Opts { workload, seed, seconds, trace: trace || trace_out.is_some(), trace_out };
    let report = run::run(&opts)?;
    eprint!("{}", report.summary());
    if let Some(path) = json_out {
        std::fs::write(&path, report.document() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let missing = report.missing();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }
    println!("{}", report.result_line());
    Ok(if report.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--compare") => tools::compare(&args[1..]),
        Some("--baseline") => tools::baseline(&args[1..]),
        Some("--self-check") => {
            let seed = match args.get(1).map(String::as_str) {
                Some("--seed") => value(&args, 1, "--seed").and_then(parse_seed),
                None => Ok(DEFAULT_SEED),
                Some(other) => Err(format!("unknown argument `{other}`")),
            };
            seed.and_then(tools::self_check)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        None => Err(USAGE.to_string()),
        Some(_) => run_workload(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("record-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
