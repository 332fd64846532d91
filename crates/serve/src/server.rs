//! The daemon: bounded admission, worker pool, graceful drain.
//!
//! Architecture is deliberately boring: one nonblocking accept loop
//! feeding a bounded connection queue (`ConnQueue`), a fixed pool of
//! worker threads each serving whole connections, and a [`Service`]
//! that turns request lines into response lines with no I/O of its
//! own. The split matters for testing — `tests/serve.rs` drives
//! [`Service::handle_line`] directly with hostile bytes and never
//! opens a socket for the protocol table.
//!
//! Robustness invariants, each pinned by a test or the soak gate:
//!
//! - **Admission is bounded.** A full queue sheds at accept time with
//!   an explicit `overloaded` response; memory per connection is capped
//!   by [`crate::protocol::MAX_REQUEST_BYTES`].
//! - **Requests carry deadlines.** Every compile runs under a
//!   wall-clock deadline (client-supplied or the server default)
//!   enforced at pass boundaries by the core pipeline.
//! - **Panics never kill the process.** Request handling is wrapped in
//!   `catch_unwind` (as is each connection, belt and braces); a panic
//!   becomes an `internal` — or `injected`, for forced faults — error
//!   response.
//! - **Drain is crash-only.** Shutdown stops accepting, finishes
//!   in-flight requests, scrubs the on-disk cache (deleting anything a
//!   torn write left undecodable) and reports; the cache on disk is
//!   loadable afterwards by construction.
//! - **Every request is on the record.** An always-on, bounded-memory
//!   [`FlightRecorder`] keeps the last N requests — sheds, oversized
//!   lines and caught panics included — each under a server-assigned
//!   `rid` echoed in the wire response and the JSONL access log, with
//!   the queue-wait/read/compile/serialize latency split and the
//!   per-pass span tree. `GET /trace`, `GET /requests` and
//!   `GET /stats` serve it live on the HTTP façade.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use record::{Budgets, CompileCache, CompileRequest, Compiled, PassPlan, ScrubStats, Session};
use record_isa::TargetDesc;
use record_trace::metrics::Metric;
use record_trace::{FlightRecorder, MetricsRegistry, RequestRecord, SpanRecorder};

use crate::faults::{self, Fault, FaultInjector, FAULT_MARKER};
use crate::protocol::{self, codes, Op, Request};
use crate::signals;

/// Latency histogram bounds, microseconds.
const LATENCY_BOUNDS_US: &[f64] =
    &[100.0, 1_000.0, 10_000.0, 50_000.0, 100_000.0, 500_000.0, 1_000_000.0, 5_000_000.0];

/// Everything the daemon can be told at startup.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7425` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads, each serving whole connections.
    pub workers: usize,
    /// Admission-queue depth; accepted connections beyond it are shed.
    pub queue_depth: usize,
    /// Per-connection read (and write) timeout — the slow-loris bound.
    pub read_timeout: Duration,
    /// Wall-clock compile budget when a request names none.
    pub default_deadline: Duration,
    /// On-disk compile cache directory (shared by every plan session).
    pub cache_dir: Option<PathBuf>,
    /// Arms fault injection with this seed when set.
    pub fault_seed: Option<u64>,
    /// Roughly one fault per this many requests (when armed).
    pub fault_period: usize,
    /// Flight-recorder ring capacity: the last this-many requests stay
    /// resident for `/trace`, `/requests` and post-mortem dumps.
    pub flight_capacity: usize,
    /// Append-only JSONL access log (one line per request, the same
    /// format `/requests` serves); `None` disables the on-disk log.
    pub access_log: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7425".into(),
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().min(16)),
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            default_deadline: Duration::from_secs(2),
            cache_dir: None,
            fault_seed: None,
            fault_period: 16,
            flight_capacity: 512,
            access_log: None,
        }
    }
}

/// Resolves a target name from the shared `recordc`/`recordd`
/// vocabulary: `tic25`, `dsp56k`, `risc<N>`, and the processor-cube ASIP
/// presets `asip-dsp`, `asip-min` and `asip-default`
/// ([`CubeParams::asip_dsp`](record_isa::cube::CubeParams::asip_dsp) and
/// its siblings).
///
/// # Errors
///
/// A human-readable message naming the unknown target.
pub fn resolve_target(name: &str) -> Result<TargetDesc, String> {
    use record_isa::cube::CubeParams;
    use record_isa::targets::{dsp56k, simple_risc, tic25};
    let asip = |params: CubeParams| params.build().map_err(|e| e.to_string());
    match name {
        "tic25" => Ok(tic25::target()),
        "dsp56k" => Ok(dsp56k::target()),
        "asip-dsp" => asip(CubeParams::asip_dsp()),
        "asip-min" => asip(CubeParams::asip_minimal()),
        "asip-default" => asip(CubeParams::asip_default()),
        other => {
            if let Some(n) = other.strip_prefix("risc") {
                let n: u16 = n.parse().map_err(|_| format!("bad register count in `{other}`"))?;
                if n == 0 {
                    return Err("risc needs at least one register".into());
                }
                return Ok(simple_risc::target(n));
            }
            Err(format!("unknown target `{other}`"))
        }
    }
}

/// One response line plus the code it carries (for accounting).
struct Reply {
    code: &'static str,
    line: String,
}

/// Connection-level context for one request, threaded from the socket
/// layer into [`Service::handle_request`] so flight-recorder records
/// carry the full latency split and the client address. `Default`
/// (unknown peer, lane 0, zero waits) is what direct in-process callers
/// get.
#[derive(Clone, Debug, Default)]
pub struct RequestMeta {
    /// Client address (`ip:port`), empty when unknown.
    pub peer: String,
    /// 1-based worker lane serving the connection (0 = off-worker, e.g.
    /// an accept-loop shed).
    pub lane: usize,
    /// Admission-queue wait attributed to this request, microseconds.
    pub queue_us: u64,
    /// Time spent reading the request line off the socket, microseconds.
    pub read_us: u64,
}

/// The request-level engine: sessions per plan preset, metrics, fault
/// injection. Pure request-line-in / response-line-out — all socket
/// handling lives in [`Server`], which is what lets the protocol table
/// test drive this directly.
pub struct Service {
    /// One session per plan preset, all sharing the disk cache dir.
    sessions: Vec<(&'static str, Session)>,
    metrics: MetricsRegistry,
    cache_dir: Option<PathBuf>,
    default_deadline: Duration,
    faults: Option<FaultInjector>,
    /// The always-on ring of completed request records.
    flight: FlightRecorder,
    /// Append-only JSONL access log, when configured.
    access_log: Option<Mutex<std::fs::File>>,
    started: Instant,
}

impl Service {
    /// Builds the engine: one [`Session`] per plan preset (`o0`, `o1`,
    /// `o2`; `default` aliases `o2`), every plan under
    /// [`Budgets::service`] caps, non-strict verification, and the
    /// shared on-disk cache when configured.
    ///
    /// # Errors
    ///
    /// Propagates failure to open the configured access-log file.
    pub fn new(config: &ServerConfig) -> io::Result<Self> {
        let presets: [(&'static str, PassPlan); 3] =
            [("o0", PassPlan::o0()), ("o1", PassPlan::o1()), ("o2", PassPlan::o2())];
        let sessions = presets
            .into_iter()
            .map(|(name, plan)| {
                let mut session =
                    Session::new().with_plan(plan.with_budgets(Budgets::service()).strict(false));
                if let Some(dir) = &config.cache_dir {
                    session = session.with_cache_dir(dir.clone());
                }
                (name, session)
            })
            .collect();
        let access_log = match &config.access_log {
            Some(path) => {
                Some(Mutex::new(std::fs::OpenOptions::new().create(true).append(true).open(path)?))
            }
            None => None,
        };
        // pre-register the unlabeled server counters so scrapers (and
        // the load_gen shed-accounting gate) see them at zero instead
        // of absent before the first connection/shed
        let metrics = MetricsRegistry::new();
        metrics.add("recordd_connections_total", 0);
        metrics.add("recordd_shed_total", 0);
        metrics.add("recordd_http_requests_total", 0);
        metrics.add("recordd_connection_panics_total", 0);
        metrics.add("recordd_accept_errors_total", 0);
        Ok(Service {
            sessions,
            metrics,
            cache_dir: config.cache_dir.clone(),
            default_deadline: config.default_deadline,
            faults: config.fault_seed.map(|seed| FaultInjector::new(seed, config.fault_period)),
            flight: FlightRecorder::new(config.flight_capacity),
            access_log,
            started: Instant::now(),
        })
    }

    /// The daemon-level metrics registry (`recordd_*` series).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The flight recorder: the last N requests, live.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Handles one request line with no connection context — the
    /// in-process entry point tests drive directly. Equivalent to
    /// [`handle_request`](Service::handle_request) with a default
    /// [`RequestMeta`].
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_request(line, RequestMeta::default())
    }

    /// Handles one request line, never panicking: the whole handler
    /// runs under `catch_unwind` and a panic becomes an `internal` (or
    /// `injected`, when the payload carries the fault marker) error
    /// response. Every outcome — including the caught panic — lands in
    /// the flight recorder and the access log under a fresh `rid`, with
    /// `meta`'s latency split and the request's span tree attached.
    /// Also does the per-request accounting.
    pub fn handle_request(&self, line: &str, meta: RequestMeta) -> String {
        let started = Instant::now();
        let mut record = RequestRecord::new(self.flight.next_rid());
        record.peer = meta.peer;
        record.lane = meta.lane;
        record.queue_us = meta.queue_us;
        record.read_us = meta.read_us;
        record.start_us = self.flight.now_us();
        let rid = record.rid.clone();
        let mut rec = self.flight.recorder();
        let reply = panic::catch_unwind(AssertUnwindSafe(|| {
            self.handle_line_inner(line, &rid, &mut rec, &mut record)
        }))
        .unwrap_or_else(|payload| {
            let message = panic_text(payload.as_ref());
            let code =
                if message.contains(FAULT_MARKER) { codes::INJECTED } else { codes::INTERNAL };
            Reply { code, line: protocol::error_response("", &rid, code, &message) }
        });
        // a panic leaves spans open; finish() closes them with the
        // outcome attached so the record's tree is always well-formed
        let error = matches!(reply.code, codes::INTERNAL | codes::INJECTED).then_some(reply.code);
        let (spans, events) = rec.finish(error);
        record.spans = spans;
        record.events = events;
        record.code = reply.code.to_string();
        record.end_us = self.flight.now_us();
        self.record_request(record);
        self.metrics.inc_with("recordd_requests_total", &[("code", reply.code)]);
        self.metrics.observe(
            "recordd_request_latency_us",
            LATENCY_BOUNDS_US,
            started.elapsed().as_micros() as f64,
        );
        reply.line
    }

    /// Records and renders a wire-level rejection that never reaches the
    /// request handler (oversized line, non-UTF-8 bytes, admission
    /// shed): even these get a `rid`, a flight-recorder record and an
    /// access-log line, so *every* response a client can receive joins
    /// against a server-side record.
    pub fn reject_request(&self, meta: RequestMeta, code: &'static str, message: &str) -> String {
        let mut record = RequestRecord::new(self.flight.next_rid());
        record.peer = meta.peer;
        record.lane = meta.lane;
        record.queue_us = meta.queue_us;
        record.read_us = meta.read_us;
        record.start_us = self.flight.now_us();
        record.end_us = record.start_us;
        record.code = code.to_string();
        let line = protocol::error_response("", &record.rid, code, message);
        self.record_request(record);
        line
    }

    /// One record's two sinks: the access log (when configured) and the
    /// flight-recorder ring.
    fn record_request(&self, record: RequestRecord) {
        if let Some(log) = &self.access_log {
            let mut file = log.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = writeln!(file, "{}", record.render_jsonl_line());
        }
        self.flight.record(record);
    }

    fn handle_line_inner(
        &self,
        line: &str,
        rid: &str,
        rec: &mut SpanRecorder,
        record: &mut RequestRecord,
    ) -> Reply {
        let request = match protocol::parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                return Reply {
                    code: e.code,
                    line: protocol::error_response(&e.id, rid, e.code, &e.message),
                };
            }
        };
        match request.op {
            Op::Ping => Reply { code: "pong", line: protocol::pong(&request.id, rid) },
            Op::Compile => self.handle_compile(&request, rid, rec, record),
        }
    }

    fn handle_compile(
        &self,
        request: &Request,
        rid: &str,
        rec: &mut SpanRecorder,
        record: &mut RequestRecord,
    ) -> Reply {
        let started = Instant::now();
        record.target = request.target.clone();
        record.plan = request.plan.clone();
        let deadline =
            started + request.deadline_ms.map_or(self.default_deadline, Duration::from_millis);
        if let Some(injector) = &self.faults {
            if let Some(fault) = injector.draw() {
                self.metrics.inc_with("recordd_faults_injected_total", &[("kind", fault.kind())]);
                self.apply_fault(injector, fault, deadline);
            }
        }
        let Some(session) = self.session_for(&request.plan) else {
            let message = format!("unknown plan `{}` (default|o0|o1|o2)", clip(&request.plan));
            return Reply {
                code: codes::UNKNOWN_PLAN,
                line: protocol::error_response(&request.id, rid, codes::UNKNOWN_PLAN, &message),
            };
        };
        let target = match resolve_target(&request.target) {
            Ok(t) => t,
            Err(message) => {
                return Reply {
                    code: codes::UNKNOWN_TARGET,
                    line: protocol::error_response(
                        &request.id,
                        rid,
                        codes::UNKNOWN_TARGET,
                        &message,
                    ),
                };
            }
        };
        let t_compile = Instant::now();
        let req = CompileRequest::default().deadline(deadline).recorder(rec);
        let result = session.compile(&target, request.program.as_str(), req);
        record.compile_us = t_compile.elapsed().as_micros() as u64;
        match result {
            Ok(Compiled { code, timings }) => {
                record.kernel = code.name.to_string();
                record.cache_hit = timings.from_cache;
                let elapsed_us = started.elapsed().as_micros() as u64;
                let t_serialize = Instant::now();
                let line = protocol::ok_response(
                    &request.id,
                    rid,
                    &request.target,
                    &code.name,
                    code.size_words(),
                    code.len(),
                    elapsed_us,
                    &code.render(),
                );
                record.serialize_us = t_serialize.elapsed().as_micros() as u64;
                Reply { code: "ok", line }
            }
            Err(e) => {
                let code = protocol::error_code(&e);
                Reply {
                    code,
                    line: protocol::error_response(&request.id, rid, code, &e.to_string()),
                }
            }
        }
    }

    fn apply_fault(&self, injector: &FaultInjector, fault: Fault, deadline: Instant) {
        match fault {
            Fault::Panic => panic!("{FAULT_MARKER}: forced request panic"),
            Fault::Stall(extra_ms) => {
                // sleep just past the request deadline so the pipeline's
                // wall-clock budget machinery is what surfaces the fault
                let past_deadline = deadline.saturating_duration_since(Instant::now())
                    + Duration::from_millis(extra_ms);
                std::thread::sleep(past_deadline.min(Duration::from_millis(1_500)));
            }
            Fault::TornCache => {
                if let Some(dir) = &self.cache_dir {
                    faults::tear_cache_file(injector, dir);
                }
            }
        }
    }

    fn session_for(&self, plan: &str) -> Option<&Session> {
        let name = match plan.to_ascii_lowercase().as_str() {
            "default" | "o2" => "o2",
            "o0" => "o0",
            "o1" => "o1",
            _ => return None,
        };
        self.sessions.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }

    /// Renders the full Prometheus exposition: the daemon's own
    /// `recordd_*` series followed by the per-plan sessions merged into
    /// one `record_*`/`trace_*` view.
    pub fn render_metrics(&self) -> String {
        let merged = MetricsRegistry::new();
        for (_, session) in &self.sessions {
            merged.merge(session.metrics());
        }
        let mut out = self.metrics.render_prometheus();
        out.push_str(&merged.render_prometheus());
        out
    }

    /// Drain-time cache scrub: decode-checks every on-disk entry and
    /// deletes anything a torn write left unloadable. `None` when the
    /// daemon runs without a disk cache.
    pub fn scrub(&self) -> Option<ScrubStats> {
        self.cache_dir.as_deref().map(CompileCache::scrub_dir)
    }

    /// One JSON object describing the whole daemon right now: uptime,
    /// server counters, request/compile latency quantiles, per-plan
    /// session stats and the flight recorder's accounting. Served as
    /// `GET /stats`.
    pub fn render_stats(&self) -> String {
        let merged = MetricsRegistry::new();
        for (_, session) in &self.sessions {
            merged.merge(session.metrics());
        }
        let (req_p50, req_p90, req_p99) =
            histogram_quantiles(&self.metrics, "recordd_request_latency_us");
        let (cmp_p50, cmp_p90, cmp_p99) = histogram_quantiles(&merged, "record_compile_latency_us");
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"uptime_us\":{},\"server\":{{\"connections\":{},\"requests\":{},\"shed\":{},\
             \"http_requests\":{},\"connection_panics\":{}}}",
            self.started.elapsed().as_micros() as u64,
            self.metrics.counter("recordd_connections_total"),
            self.metrics.counter_sum("recordd_requests_total"),
            self.metrics.counter("recordd_shed_total"),
            self.metrics.counter("recordd_http_requests_total"),
            self.metrics.counter("recordd_connection_panics_total"),
        ));
        out.push_str(&format!(
            ",\"request_latency_us\":{{\"p50\":{req_p50},\"p90\":{req_p90},\"p99\":{req_p99}}}\
             ,\"compile_latency_us\":{{\"p50\":{cmp_p50},\"p90\":{cmp_p90},\"p99\":{cmp_p99}}}"
        ));
        out.push_str(",\"sessions\":[");
        for (i, (name, session)) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = session.stats();
            out.push_str(&format!(
                "{{\"plan\":\"{name}\",\"compiles\":{},\"table_hits\":{},\"table_misses\":{},\
                 \"code_hits\":{},\"code_misses\":{},\"salvaged_passes\":{}}}",
                s.compiles, s.hits, s.misses, s.code_hits, s.code_misses, s.salvaged_passes,
            ));
        }
        out.push_str("],\"flight\":");
        out.push_str(&self.flight.render_stats_json());
        out.push('}');
        debug_assert!(record_trace::json::validate(&out).is_ok());
        out
    }
}

/// p50/p90/p99 of a histogram metric (linear interpolation within its
/// fixed buckets), or zeros when the metric is absent or empty.
fn histogram_quantiles(metrics: &MetricsRegistry, name: &str) -> (f64, f64, f64) {
    match metrics.get(name) {
        Some(Metric::Histogram(h)) => (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99)),
        _ => (0.0, 0.0, 0.0),
    }
}

fn clip(s: &str) -> &str {
    let mut end = s.len().min(64);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// What a completed serve lifecycle did, for the drain summary.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeReport {
    /// Connections accepted (shed ones included).
    pub connections: u64,
    /// Requests answered, across every response code.
    pub requests: u64,
    /// Connections shed with `overloaded` at admission.
    pub shed: u64,
    /// Connection handlers that panicked outside request handling.
    pub connection_panics: u64,
    /// Drain-time cache scrub result (when a disk cache is configured).
    pub scrub: Option<ScrubStats>,
    /// Request-latency quantiles (µs) over the whole run, estimated by
    /// linear interpolation within the latency histogram's buckets.
    pub request_p50_us: f64,
    /// See [`request_p50_us`](ServeReport::request_p50_us).
    pub request_p90_us: f64,
    /// See [`request_p50_us`](ServeReport::request_p50_us).
    pub request_p99_us: f64,
}

/// Bounded connection queue: accept pushes, workers pop, shutdown
/// closes. Closing wakes every worker; pops keep draining queued
/// connections after close so accepted clients are never dropped
/// unserved.
struct ConnQueue {
    state: Mutex<ConnQueueState>,
    ready: Condvar,
    depth: usize,
}

struct ConnQueueState {
    /// Each stream is stamped at admission so the worker that pops it
    /// can attribute the queue wait to the connection's first request.
    items: VecDeque<(TcpStream, Instant)>,
    closed: bool,
}

impl ConnQueue {
    fn new(depth: usize) -> Self {
        ConnQueue {
            state: Mutex::new(ConnQueueState { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Returns the stream back (for shedding) when the queue is full or
    /// closed; reports the new depth otherwise.
    fn push(&self, stream: TcpStream) -> Result<usize, TcpStream> {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.closed || state.items.len() >= self.depth {
            return Err(stream);
        }
        state.items.push_back((stream, Instant::now()));
        let len = state.items.len();
        drop(state);
        self.ready.notify_one();
        Ok(len)
    }

    fn pop(&self) -> Option<(TcpStream, Instant)> {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(entry) = state.items.pop_front() {
                return Some(entry);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.ready.notify_all();
    }

    fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).items.len()
    }
}

/// The TCP front end around a [`Service`].
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    config: ServerConfig,
}

impl Server {
    /// Binds the listen socket and builds the service.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let service = Arc::new(Service::new(&config)?);
        Ok(Server { listener, service, config })
    }

    /// The bound address (useful after binding port `:0`).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The request engine, for embedders that want metrics access while
    /// the server runs on another thread.
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Runs until [`signals::request_shutdown`] (or SIGTERM/SIGINT once
    /// [`signals::install`] was called), then drains: stops accepting,
    /// serves every queued and in-flight connection to completion,
    /// scrubs the disk cache, and returns the lifecycle report.
    pub fn run(self) -> ServeReport {
        let queue = ConnQueue::new(self.config.queue_depth);
        let service = &self.service;
        let config = &self.config;
        std::thread::scope(|scope| {
            let queue = &queue;
            // lanes are 1-based so lane 0 can mean "off-worker" in
            // flight-recorder records (accept-loop sheds)
            for lane in 1..=config.workers.max(1) {
                scope.spawn(move || worker_loop(queue, service, config, lane));
            }
            accept_loop(&self.listener, queue, service, config);
            queue.close();
            // scoped threads join here: drain completes before we return
        });
        let scrub = self.service.scrub();
        let metrics = self.service.metrics();
        let (request_p50_us, request_p90_us, request_p99_us) =
            histogram_quantiles(metrics, "recordd_request_latency_us");
        ServeReport {
            connections: metrics.counter("recordd_connections_total"),
            requests: metrics.counter_sum("recordd_requests_total"),
            shed: metrics.counter("recordd_shed_total"),
            connection_panics: metrics.counter("recordd_connection_panics_total"),
            scrub,
            request_p50_us,
            request_p90_us,
            request_p99_us,
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    queue: &ConnQueue,
    service: &Service,
    config: &ServerConfig,
) {
    while !signals::shutdown_requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                service.metrics().inc("recordd_connections_total");
                match queue.push(stream) {
                    Ok(depth) => {
                        service.metrics().set_gauge("recordd_queue_depth", depth as f64);
                    }
                    Err(stream) => shed(service, stream, config),
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                service.metrics().inc("recordd_accept_errors_total");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Explicit-rejection load shedding: the client gets one `overloaded`
/// line (with a `rid`, and a flight-recorder record behind it) and a
/// clean close instead of a hung or reset connection.
fn shed(service: &Service, mut stream: TcpStream, config: &ServerConfig) {
    service.metrics().inc("recordd_shed_total");
    let _ = stream.set_write_timeout(Some(config.read_timeout.min(Duration::from_secs(1))));
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_default();
    let meta = RequestMeta { peer, ..RequestMeta::default() };
    let line = service.reject_request(meta, codes::OVERLOADED, "admission queue full, retry later");
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

fn worker_loop(queue: &ConnQueue, service: &Service, config: &ServerConfig, lane: usize) {
    while let Some((stream, enqueued)) = queue.pop() {
        service.metrics().set_gauge("recordd_queue_depth", queue.len() as f64);
        let queue_us = enqueued.elapsed().as_micros() as u64;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            serve_connection(service, config, stream, lane, queue_us);
        }));
        if outcome.is_err() {
            service.metrics().inc("recordd_connection_panics_total");
        }
    }
}

enum LineRead {
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// The line exceeded the cap; the stream cannot be re-synchronized.
    TooLong,
    /// Clean end of stream.
    Eof,
    /// Read error — timeouts (slow loris) and resets land here.
    Failed,
}

/// Reads one `\n`-terminated line of at most `max` bytes. The bound is
/// enforced *while reading*: a hostile peer can never make the server
/// buffer more than `max` bytes, no matter how much it sends.
fn read_line_bounded(reader: &mut impl BufRead, max: usize, buf: &mut Vec<u8>) -> LineRead {
    buf.clear();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Failed,
        };
        if chunk.is_empty() {
            return if buf.is_empty() { LineRead::Eof } else { LineRead::Line };
        }
        if let Some(ix) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + ix > max {
                return LineRead::TooLong;
            }
            buf.extend_from_slice(&chunk[..ix]);
            reader.consume(ix + 1);
            return LineRead::Line;
        }
        let n = chunk.len();
        if buf.len() + n > max {
            return LineRead::TooLong;
        }
        buf.extend_from_slice(chunk);
        reader.consume(n);
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

fn serve_connection(
    service: &Service,
    config: &ServerConfig,
    stream: TcpStream,
    lane: usize,
    queue_us: u64,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.read_timeout));
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_default();
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();
    // the admission wait belongs to the connection's first request only
    let mut queue_us = queue_us;
    loop {
        let t_read = Instant::now();
        let read = read_line_bounded(&mut reader, protocol::MAX_REQUEST_BYTES, &mut buf);
        let meta = RequestMeta {
            peer: peer.clone(),
            lane,
            queue_us: std::mem::take(&mut queue_us),
            read_us: t_read.elapsed().as_micros() as u64,
        };
        match read {
            LineRead::Eof | LineRead::Failed => break,
            LineRead::TooLong => {
                service.metrics().inc_with("recordd_requests_total", &[("code", codes::TOO_LARGE)]);
                let line = service.reject_request(
                    meta,
                    codes::TOO_LARGE,
                    &format!("request line exceeds {} bytes", protocol::MAX_REQUEST_BYTES),
                );
                let _ = write_line(&mut writer, &line);
                break; // cannot re-synchronize a half-read line
            }
            LineRead::Line => {
                if buf.starts_with(b"GET ") {
                    serve_http(service, &mut reader, &mut writer, &buf);
                    break;
                }
                let response = match std::str::from_utf8(&buf) {
                    Ok(line) => service.handle_request(line.trim_end(), meta),
                    Err(_) => {
                        service
                            .metrics()
                            .inc_with("recordd_requests_total", &[("code", codes::BAD_REQUEST)]);
                        service.reject_request(meta, codes::BAD_REQUEST, "request is not UTF-8")
                    }
                };
                if write_line(&mut writer, &response).is_err() {
                    break; // abrupt disconnect mid-response
                }
            }
        }
        if signals::shutdown_requested() {
            break; // finish the in-flight request, then drain
        }
    }
}

/// A minimal HTTP/1.0 responder so `curl http://…/metrics` works on
/// the same port. `GET /metrics`, `GET /healthz`, and the flight
/// recorder's live views: `GET /trace` (Perfetto-loadable Chrome trace
/// of the last N requests), `GET /requests` (the access-log ring as
/// JSONL) and `GET /stats` (one structured JSON snapshot). The
/// connection always closes after one response.
fn serve_http(
    service: &Service,
    reader: &mut impl BufRead,
    writer: &mut TcpStream,
    request_line: &[u8],
) {
    service.metrics().inc("recordd_http_requests_total");
    // drain the (bounded) header block so the peer sees a clean close
    let mut header = Vec::new();
    for _ in 0..100 {
        match read_line_bounded(reader, 8 * 1024, &mut header) {
            LineRead::Line if !header.is_empty() && header != b"\r" => {}
            _ => break,
        }
    }
    let path = request_line
        .split(|&b| b == b' ')
        .nth(1)
        .and_then(|p| std::str::from_utf8(p).ok())
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", service.render_metrics()),
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        "/trace" => ("200 OK", "application/json", service.flight().render_chrome_trace()),
        "/requests" => ("200 OK", "application/x-ndjson", service.flight().render_requests_jsonl()),
        "/stats" => ("200 OK", "application/json", service.render_stats()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = writer.write_all(head.as_bytes());
    let _ = writer.write_all(body.as_bytes());
    let _ = writer.flush();
}
