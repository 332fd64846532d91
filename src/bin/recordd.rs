//! `recordd` — the RECORD compile daemon.
//!
//! ```text
//! recordd [OPTIONS]
//!
//! Options:
//!   --addr <A>                bind address (default 127.0.0.1:7425; :0 picks a port)
//!   --workers <N>             worker threads (default: CPU count, capped at 16)
//!   --queue <N>               admission queue depth (default 64)
//!   --read-timeout-ms <N>     per-connection read/write timeout (default 5000)
//!   --default-deadline-ms <N> compile deadline when a request names none (default 2000)
//!   --cache-dir <DIR>         on-disk compile cache shared by all plan presets
//!   --faults on|off           arm deterministic fault injection (default off)
//!   --fault-seed <HEX>        fault stream seed (default 0xDAC97)
//!   --fault-period <N>        ~one fault per N requests (default 16)
//!   --metrics-out <FILE>      write the final Prometheus exposition on drain
//!   --summary-out <FILE>      write the drain summary JSON on drain
//!   --flight-ring <N>         flight-recorder capacity, requests (default 512)
//!   --access-log <FILE>       append one JSONL line per request (same format as /requests)
//!   --trace-out <FILE>        write the flight recorder as a Chrome trace on drain
//!                             (and on any non-injected panic)
//!   --check-cache <DIR>       offline: scrub DIR and exit (2 if anything was corrupt)
//! ```
//!
//! The daemon speaks line-delimited JSON (one request per line, one
//! response per request) plus HTTP `GET /metrics` / `GET /healthz` /
//! `GET /trace` / `GET /requests` / `GET /stats` on the same port.
//! SIGTERM or SIGINT triggers a graceful drain: stop accepting, finish
//! in-flight requests, scrub the cache, flush metrics and the final
//! flight-recorder dump, exit 0. A *real* (non-injected) panic also
//! flushes the flight recorder to `--trace-out` before the per-request
//! isolation swallows it, so post-mortems are self-contained.
//!
//! ```sh
//! recordd --addr 127.0.0.1:7425 --cache-dir /tmp/record-cache &
//! printf '%s\n' '{"op":"compile","target":"tic25","program":"a := b + c"}' | nc 127.0.0.1 7425
//! curl -s http://127.0.0.1:7425/metrics
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use record::CompileCache;
use record_serve::{signals, Server, ServerConfig};

struct Args {
    config: ServerConfig,
    metrics_out: Option<String>,
    summary_out: Option<String>,
    trace_out: Option<String>,
    check_cache: Option<String>,
}

fn usage() -> &'static str {
    "usage: recordd [--addr A] [--workers N] [--queue N] [--read-timeout-ms N] \
     [--default-deadline-ms N] [--cache-dir DIR] [--faults on|off] [--fault-seed HEX] \
     [--fault-period N] [--metrics-out FILE] [--summary-out FILE] [--flight-ring N] \
     [--access-log FILE] [--trace-out FILE] [--check-cache DIR]"
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let (digits, radix) = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        (hex, 16)
    } else {
        (s, 10)
    };
    u64::from_str_radix(digits, radix).map_err(|e| format!("bad number `{s}`: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        config: ServerConfig::default(),
        metrics_out: None,
        summary_out: None,
        trace_out: None,
        check_cache: None,
    };
    let mut faults_on = false;
    let mut fault_seed: u64 = 0xDAC97;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => args.config.addr = value("--addr")?,
            "--workers" => args.config.workers = parse_u64(&value("--workers")?)?.max(1) as usize,
            "--queue" => args.config.queue_depth = parse_u64(&value("--queue")?)?.max(1) as usize,
            "--read-timeout-ms" => {
                args.config.read_timeout =
                    Duration::from_millis(parse_u64(&value("--read-timeout-ms")?)?.max(1));
            }
            "--default-deadline-ms" => {
                args.config.default_deadline =
                    Duration::from_millis(parse_u64(&value("--default-deadline-ms")?)?.max(1));
            }
            "--cache-dir" => args.config.cache_dir = Some(value("--cache-dir")?.into()),
            "--faults" => {
                faults_on = match value("--faults")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--faults takes on|off, got `{other}`")),
                };
            }
            "--fault-seed" => fault_seed = parse_u64(&value("--fault-seed")?)?,
            "--fault-period" => {
                args.config.fault_period = parse_u64(&value("--fault-period")?)?.max(1) as usize;
            }
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--summary-out" => args.summary_out = Some(value("--summary-out")?),
            "--flight-ring" => {
                args.config.flight_capacity = parse_u64(&value("--flight-ring")?)?.max(1) as usize;
            }
            "--access-log" => args.config.access_log = Some(value("--access-log")?.into()),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--check-cache" => args.check_cache = Some(value("--check-cache")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    if faults_on {
        args.config.fault_seed = Some(fault_seed);
    }
    Ok(args)
}

fn summary_json(report: &record_serve::ServeReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"connections\":{},\"requests\":{},\"shed\":{},\"connection_panics\":{}",
        report.connections, report.requests, report.shed, report.connection_panics
    ));
    out.push_str(&format!(
        ",\"request_latency_us\":{{\"p50\":{},\"p90\":{},\"p99\":{}}}",
        report.request_p50_us, report.request_p90_us, report.request_p99_us
    ));
    match &report.scrub {
        Some(s) => out.push_str(&format!(
            ",\"scrub\":{{\"code_entries\":{},\"corrupt_removed\":{},\"tmps_removed\":{}}}}}",
            s.code_entries, s.corrupt_removed, s.tmps_removed
        )),
        None => out.push_str(",\"scrub\":null}"),
    }
    out.push('\n');
    out
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    if let Some(dir) = &args.check_cache {
        let stats = CompileCache::scrub_dir(std::path::Path::new(dir));
        println!(
            "scrub {dir}: {} code entries, {} corrupt removed, {} tmp removed",
            stats.code_entries, stats.corrupt_removed, stats.tmps_removed
        );
        if stats.corrupt_removed > 0 {
            return Err(format!(
                "{} corrupt cache entries survived the drain",
                stats.corrupt_removed
            ));
        }
        return Ok(());
    }

    signals::install();
    let server = Server::bind(args.config.clone()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    let service = server.service();
    // every panic is caught (per request and per connection); keep the
    // log one line per event instead of a full default-hook backtrace.
    // A *real* panic (no fault-injection marker) additionally flushes
    // the flight recorder, so the trace leading up to the bug survives
    // even though the process keeps running.
    let hook_service = service.clone();
    let hook_trace_out = args.trace_out.clone();
    std::panic::set_hook(Box::new(move |info| {
        eprintln!("recordd: caught panic: {info}");
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains(record_serve::faults::FAULT_MARKER));
        if !injected {
            if let Some(path) = &hook_trace_out {
                let _ = std::fs::write(path, hook_service.flight().render_chrome_trace());
            }
        }
    }));
    println!("recordd listening on {addr}");
    let _ = std::io::stdout().flush();

    let report = server.run();

    if let Some(path) = &args.metrics_out {
        std::fs::write(path, service.render_metrics()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.summary_out {
        std::fs::write(path, summary_json(&report)).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, service.flight().render_chrome_trace())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "recordd drained: {} connections, {} requests, {} shed, {} connection panics",
        report.connections, report.requests, report.shed, report.connection_panics
    );
    if let Some(s) = &report.scrub {
        println!(
            "cache scrub: {} code entries, {} corrupt removed, {} tmp removed",
            s.code_entries, s.corrupt_removed, s.tmps_removed
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("recordd: {e}");
            ExitCode::from(2)
        }
    }
}
