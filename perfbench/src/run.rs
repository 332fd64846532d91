//! One workload run: set-up, warm-up, the timed phase(s) and the metrics.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use record::{CompileCache, Session};
use record_burg::Tables;
use record_isa::Code;
use record_serve::{signals, ServeReport, Server, ServerConfig, Service};
use record_trace::json;

use crate::calib::{self, process_cpu_ns, splitmix64, Calibrator};
use crate::check::{json_field, simulate, Checker};
use crate::clients::{CompileClient, Shared, SocketClient};
use crate::layers::{self, Counts, Replayer};
use crate::phase::{calibration_factor, run_phase, Client, Slice};
use crate::report::{self, Report, SetupFacts};
use crate::trace::{self, Recorder, Span};
use crate::workload::{self, Kind, Program, Workload};

/// Length of one work slice and of one calibration slice.
const SLICE: Duration = Duration::from_millis(250);

/// The untimed warm-up before the timed phase.
const WARMUP: Duration = Duration::from_secs(1);

/// Set-up runs this many times per process; `setup_s` is the median.
const SETUP_REPEATS: usize = 21;

/// Length of the calibration bursts around each set-up round.
const SETUP_BURST: Duration = Duration::from_millis(10);

/// Repetitions of each BURS-table measurement in the traced run.
const BURG_REPS: usize = 25;

/// Socket round trips per program in an in-process workload's traced run.
const SOCKET_REPS: usize = 3;

pub struct Opts {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
}

/// A scratch directory inside the build directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(name: &str) -> Result<Self, String> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
        let dir = base.join("perfbench-work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn server_config(cache_dir: Option<PathBuf>, workers: usize) -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".into(), workers, cache_dir, ..ServerConfig::default() }
}

/// A `recordd` serving on its own thread. Stopping (or dropping) it
/// drains the server and joins the thread; close client connections
/// first, or the drain waits for their read timeouts.
struct Daemon {
    service: Arc<Service>,
    addr: SocketAddr,
    handle: Option<JoinHandle<ServeReport>>,
}

impl Daemon {
    fn start(server: Server) -> Result<Self, String> {
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let service = server.service();
        let handle = Some(std::thread::spawn(move || server.run()));
        Ok(Daemon { service, addr, handle })
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        signals::request_shutdown();
        let joined = handle.join();
        signals::reset();
        joined.map(drop).map_err(|_| "recordd panicked".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// What set-up leaves running.
enum Env {
    Compile(Box<Session>),
    Serve(Server),
}

/// Builds the workload's engine once: a session plus one cold compile
/// per program, or a bound server plus one priming request per program.
/// Returns the engine, the wall time and the share of it spent on a CPU;
/// outputs are checked after the clock stops.
fn set_up(
    w: &Workload,
    programs: &[Program],
    lines: &[String],
    expected: &[Code],
    renders: &[String],
    cache_dir: Option<PathBuf>,
) -> Result<(Env, f64, f64), String> {
    let (t, cpu) = (Instant::now(), process_cpu_ns());
    let timed = |t: Instant| {
        let wall = t.elapsed().as_nanos() as f64;
        let share = match (cpu, process_cpu_ns()) {
            (Some(a), Some(b)) => ((b - a) as f64 / wall).min(1.0),
            _ => 1.0,
        };
        (wall, share)
    };
    if w.kind == Kind::Compile {
        let session = Session::new();
        let codes: Vec<_> =
            programs.iter().map(|p| session.compile_source(&p.target, &p.source)).collect();
        let (wall, share) = timed(t);
        for ((code, want), p) in codes.into_iter().zip(expected).zip(programs) {
            let code = code.map_err(|e| format!("{}: cold compile failed: {e}", p.kernel.name))?;
            if code != *want {
                return Err(format!("{}: session code differs from the reference", p.kernel.name));
            }
        }
        return Ok((Env::Compile(Box::new(session)), wall, share));
    }
    let server = Server::bind(server_config(cache_dir, w.clients))
        .map_err(|e| format!("binding recordd: {e}"))?;
    let service = server.service();
    let replies: Vec<String> = lines.iter().map(|l| service.handle_line(l)).collect();
    let (wall, share) = timed(t);
    for ((reply, render), p) in replies.iter().zip(renders).zip(programs) {
        let value = json::parse(reply).map_err(|e| format!("priming reply: {e}"))?;
        if json_field(&value, "status") != Some("ok") || json_field(&value, "asm") != Some(render) {
            return Err(format!(
                "{}: priming reply differs from the reference: {reply}",
                p.kernel.name
            ));
        }
    }
    Ok((Env::Serve(server), wall, share))
}

/// The traced run's off-path measurements: BURS table build and load for
/// each target, and — for in-process workloads, which have no daemon —
/// socket round trips of the same programs through a scratch `recordd`.
fn end_replays(
    rec: &mut Recorder,
    w: &Workload,
    programs: &[Program],
    lines: &[String],
    slice: usize,
) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    for (index, p) in programs.iter().enumerate() {
        if seen.contains(&p.target_name) {
            continue;
        }
        seen.push(p.target_name);
        for _ in 0..BURG_REPS {
            rec.begin_request(index, slice);
            rec.open("replay");
            let tables = rec.span("burg.tables_build", || Tables::build(&p.target));
            let bytes = tables.to_bytes();
            let loaded = rec.span("burg.tables_load", || Tables::from_bytes(&bytes));
            rec.close();
            if !loaded.is_ok_and(|t| t.is_consistent_with(&p.target)) {
                return Err(format!("{}: BURS tables do not round-trip", p.target_name));
            }
        }
    }
    if w.serves() {
        return Ok(());
    }
    let server =
        Server::bind(server_config(None, 1)).map_err(|e| format!("binding recordd: {e}"))?;
    let mut daemon = Daemon::start(server)?;
    let result = (|| -> Result<(), String> {
        let stream = TcpStream::connect(daemon.addr).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = stream;
        let mut reply = String::new();
        for _ in 0..SOCKET_REPS {
            for (index, line) in lines.iter().enumerate() {
                let wire = format!("{line}\n");
                reply.clear();
                rec.begin_request(index, slice);
                rec.open("replay");
                rec.open("wire.round_trip");
                let io =
                    writer.write_all(wire.as_bytes()).and_then(|()| reader.read_line(&mut reply));
                rec.close();
                rec.close();
                io.map_err(|e| e.to_string())?;
                if !reply.contains("\"status\":\"ok\"") {
                    return Err(format!("{}: {reply}", programs[index].kernel.name));
                }
            }
        }
        Ok(())
    })();
    daemon.stop()?;
    result
}

/// Code-cache counters merged across the server's sessions.
fn cache_counters(service: &Service) -> HashMap<String, f64> {
    service
        .render_metrics()
        .lines()
        .filter(|l| l.starts_with("record_code_cache_"))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let started = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let w = opts.workload;
    // one client thread: keep it and the calibration loop on one core
    // (the daemon's threads would be serialized, so serving stays free)
    let pinned = !w.serves() && calib::pin_to_current_cpu();
    let work = WorkDir::create(w.name)?;
    let programs = w.programs()?;
    let plan = w.plan();
    let lines: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| workload::request_line(&format!("p{i}"), p.target_name, &p.source))
        .collect();

    // The in-process reference every compiled or served program must
    // equal, checked in turn against the kernels' own reference
    // implementations on the simulator; the stage-by-stage compile must
    // reproduce it byte for byte.
    let reference = Session::new().with_plan(plan.clone());
    let mut expected = Vec::with_capacity(programs.len());
    let mut compilers = Vec::with_capacity(programs.len());
    let (mut words, mut cycles, mut counts) = (0u64, 0u64, Counts::default());
    let mut quiet = Recorder::new(Instant::now(), 0);
    for p in &programs {
        let code = reference
            .compile_source(&p.target, &p.source)
            .map_err(|e| format!("{} on {}: {e}", p.kernel.name, p.target_name))?;
        cycles += simulate(&code, &p.target, &p.kernel, opts.seed)?;
        words += u64::from(code.size_words());
        let compiler = reference.compiler_for(&p.target).map_err(|e| e.to_string())?;
        let staged = layers::staged_compile(&mut quiet, &compiler, &plan, &p.source)?;
        if staged.code.render() != code.render() {
            return Err(format!("{}: stage-by-stage code differs from Session's", p.kernel.name));
        }
        counts.add(&staged.counts);
        expected.push(code);
        compilers.push(compiler);
    }
    let renders: Vec<String> = expected.iter().map(Code::render).collect();

    let mut setup = SetupFacts {
        raw_s: Vec::new(),
        calibrated_s: Vec::new(),
        code_words: words,
        sim_cycles: cycles,
    };
    // Each set-up round is calibrated by the calibration bursts right
    // before and after it: a round takes milliseconds, and the machine's
    // speed moves within a 250 ms slice. The served rounds leave out the
    // disk store. Its fsyncs cost 0-10 ms of kernel time per round, and
    // that cost moved between batches of runs by more than the bound. The
    // disk commit is timed on serve-miss instead.
    let mut cal = Calibrator::new();
    let mut rate_before = cal.rate(SETUP_BURST);
    for _ in 0..SETUP_REPEATS {
        let (built, wall_ns, share) = set_up(w, &programs, &lines, &expected, &renders, None)?;
        drop(built);
        let rate_after = cal.rate(SETUP_BURST);
        let factor = calibration_factor(share, (rate_before + rate_after) / 2.0);
        setup.raw_s.push(wall_ns / 1e9);
        setup.calibrated_s.push(wall_ns / 1e9 * factor);
        rate_before = rate_after;
    }
    // the engine the timed phase uses, with the served workloads' disk store
    let cache_dir = w.serves().then(|| work.join("cache"));
    let (env, _, _) = set_up(w, &programs, &lines, &expected, &renders, cache_dir)?;

    let replayer = if opts.trace {
        let service_dir = w.serves().then(|| work.join("replay-service"));
        let service = Service::new(&server_config(service_dir, w.clients))
            .map_err(|e| format!("in-process service: {e}"))?;
        if w.serves() {
            for line in &lines {
                service.handle_line(line);
            }
        }
        let cache = CompileCache::new(256).with_dir(work.join("replay-cache"));
        let session = Session::new().with_plan(plan.clone());
        Some(Replayer::new(plan.clone(), compilers, cache, service, session))
    } else {
        None
    };

    let (session, mut daemon) = match env {
        Env::Compile(session) => (Some(session), None),
        Env::Serve(server) => (None, Some(Daemon::start(server)?)),
    };
    let salts = {
        let mut s = opts.seed;
        AtomicU64::new(splitmix64(&mut s) % workload::SALT_SPACE)
    };
    let checker = Checker::new(w.kind, &programs, &expected, &renders, &reference, opts.seed);
    let shared = Shared {
        programs: &programs,
        lines: &lines,
        checker: &checker,
        replayer: replayer.as_ref(),
    };
    let epoch = Instant::now();
    let mut lane_seed = opts.seed ^ 0x5EED_0FC1_1E77_0000;
    // declared after the daemon, so error paths close the connections
    // before the daemon drains
    let mut clients: Vec<Box<dyn Client + '_>> = Vec::new();
    if let Some(session) = &session {
        let rec = Recorder::new(epoch, 0);
        clients.push(Box::new(CompileClient::new(
            &shared,
            session,
            splitmix64(&mut lane_seed),
            rec,
        )));
    }
    if let Some(d) = &daemon {
        let miss = (w.kind == Kind::ServeMiss).then_some(&salts);
        for lane in 0..w.clients {
            let rec = Recorder::new(epoch, lane);
            let client =
                SocketClient::connect(&shared, d.addr, miss, splitmix64(&mut lane_seed), rec)
                    .map_err(|e| format!("connecting to recordd: {e}"))?;
            clients.push(Box::new(client));
        }
    }

    // the replay cache starts with one miss, insert and hit per program
    let mut rec = Recorder::new(epoch, clients.len());
    rec.set_enabled(true);
    if let Some(replayer) = &replayer {
        for (index, p) in programs.iter().enumerate() {
            rec.begin_request(index, 0);
            replayer.prime(&mut rec, p, index)?;
        }
    }
    let warm = run_phase(&mut clients, None, 1, WARMUP, false);
    let pairs = ((opts.seconds / (2.0 * SLICE.as_secs_f64())).round() as usize).max(2);
    let slices = run_phase(&mut clients, Some(&mut cal), pairs, SLICE, opts.trace);
    let mut spans = Vec::new();
    if opts.trace {
        end_replays(&mut rec, w, &programs, &lines, slices.len() - 1)?;
        let mut lanes: Vec<Vec<Span>> = clients.iter_mut().map(|c| c.take_spans()).collect();
        lanes.push(rec.finish());
        spans = trace::merge(lanes);
    }
    drop(clients);

    let (hit_ratio, evictions) = match (&mut daemon, &replayer) {
        (Some(d), _) => {
            d.stop()?;
            let c = cache_counters(&d.service);
            let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
            let (hits, misses) =
                (get("record_code_cache_hits_total"), get("record_code_cache_misses_total"));
            (hits / (hits + misses).max(1.0), get("record_code_cache_evictions_total"))
        }
        (None, Some(r)) => {
            let s = r.cache.lock().expect("replay cache lock").stats();
            (s.hits as f64 / (s.hits + s.misses).max(1) as f64, s.evictions as f64)
        }
        (None, None) => (f64::NAN, f64::NAN),
    };

    let untraced: Vec<&Slice> = slices.iter().filter(|s| !s.traced).collect();
    let mut metrics = report::end_to_end(&untraced, programs.len(), &setup, peak_rss_mb());
    metrics.insert("bench.pinned", f64::from(u8::from(pinned)));
    if opts.trace {
        metrics.extend(report::per_layer(&spans, &slices, programs.len(), w.serves()));
        metrics.extend(report::counters(&counts, hit_ratio, evictions));
    }
    if let Some(path) = &opts.trace_out {
        let doc = trace::chrome_trace(&spans, w.name);
        json::validate(&doc).map_err(|e| format!("trace document: {e}"))?;
        std::fs::write(path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let all = warm.iter().chain(&slices).flat_map(|s: &Slice| &s.samples);
    let (attempted, failed) = all.fold((0, 0), |(a, f), x| (a + 1, f + u64::from(!x.ok)));
    Ok(Report {
        workload: w.name,
        started,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        attempted,
        failed,
        errors: checker.errors.into_inner().expect("error list lock"),
        metrics,
    })
}
