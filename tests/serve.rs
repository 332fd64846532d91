//! Robustness contract of the compile daemon.
//!
//! The protocol table drives [`record_serve::Service::handle_line`]
//! directly — no sockets — with every class of hostile input the wire
//! can deliver: malformed JSON, wrong shapes, oversized payloads,
//! unknown targets and plans, zero-length programs, expired deadlines,
//! and UTF-8 boundary garbage. Each must map to its documented error
//! code from [`record_serve::codes`], and nothing may panic (a panic
//! would surface as the `internal` code, which the table forbids).
//!
//! One socket test then runs the full lifecycle: bind, serve real and
//! broken traffic concurrently, request a drain, and check the report.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use record_serve::{codes, Server, ServerConfig, Service};
use record_trace::json;

/// Socket tests share the process-wide shutdown latch in
/// [`record_serve::signals`], so they must not overlap: each one takes
/// this lock before touching the latch.
static SOCKET_TESTS: Mutex<()> = Mutex::new(());

const FIR: &str = "\
program fir;
const N = 4;
in u: fix;
in c: fix[N];
in x: fix[N];
out y: fix;
begin
  y := u * c[0];
  for i in 1..N-1 loop
    y := y + c[i] * x[i];
  end loop;
end
";

fn service() -> Service {
    Service::new(&ServerConfig { addr: String::new(), ..ServerConfig::default() })
        .expect("a service with no access log cannot fail to build")
}

fn code_of(response: &str) -> String {
    let value = json::parse(response)
        .unwrap_or_else(|e| panic!("response is not valid JSON ({e}): {response}"));
    value
        .get("code")
        .and_then(json::Value::as_str)
        .unwrap_or_else(|| panic!("response has no code field: {response}"))
        .to_string()
}

/// The satellite table: hostile request lines → documented codes,
/// never a panic. A panic inside `handle_line` is caught and reported
/// as `internal`, so any case landing on `internal` fails its row.
#[test]
fn hostile_request_lines_map_to_documented_codes() {
    let oversized = format!(
        "{{\"program\":\"{}\"}}",
        "a".repeat(record_serve::protocol::MAX_PROGRAM_BYTES + 1)
    );
    // \u-escaped so the JSON itself is valid: the decoded program is
    // boundary garbage (BOM, NUL, bidi override, line separator) that
    // must surface as a frontend error, not a panic
    let utf8_boundary =
        "{\"id\":\"\\u202Eevil\\u0000\",\"program\":\"\\uFFFD\\uFEFFpro\\u0000gram\\u2028x;\"}";
    // over the caps on expression height and loop nesting, each of which
    // would otherwise overflow a worker's stack in the compile and abort
    // the process
    let long_sum = format!(
        "{{\"program\":\"program p; var x, y: fix; begin y := {}; end\"}}",
        vec!["x"; 3_000].join(" + ")
    );
    let deep_loops = format!(
        "{{\"program\":\"program p; var y: fix; begin {}y := 1; {}end\"}}",
        "for i in 0..1 loop ".repeat(4_000),
        "end loop; ".repeat(4_000)
    );
    let cases: &[(&str, &str)] = &[
        ("", codes::BAD_REQUEST),
        ("   ", codes::BAD_REQUEST),
        ("not json at all", codes::BAD_REQUEST),
        ("{\"op\":\"compile\"", codes::BAD_REQUEST),
        ("[1,2,3]", codes::BAD_REQUEST),
        ("\"just a string\"", codes::BAD_REQUEST),
        ("{\"op\":\"selfdestruct\",\"program\":\"p\"}", codes::BAD_REQUEST),
        ("{\"deadline_ms\":\"soon\",\"program\":\"p\"}", codes::BAD_REQUEST),
        ("{\"deadline_ms\":-1,\"program\":\"p\"}", codes::BAD_REQUEST),
        ("{}", codes::EMPTY_PROGRAM),
        ("{\"program\":\"\"}", codes::EMPTY_PROGRAM),
        ("{\"program\":\"   \\n\\t \"}", codes::EMPTY_PROGRAM),
        (&oversized, codes::TOO_LARGE),
        ("{\"target\":\"z80\",\"program\":\"p\"}", codes::UNKNOWN_TARGET),
        ("{\"target\":\"risc0\",\"program\":\"p\"}", codes::UNKNOWN_TARGET),
        ("{\"target\":\"riscX\",\"program\":\"p\"}", codes::UNKNOWN_TARGET),
        ("{\"plan\":\"o9\",\"program\":\"p\"}", codes::UNKNOWN_PLAN),
        ("{\"plan\":\"fastest\",\"program\":\"p\"}", codes::UNKNOWN_PLAN),
        (
            "{\"deadline_ms\":0,\"program\":\"program p; out y: fix; begin y := 1; end\"}",
            codes::DEADLINE,
        ),
        ("{\"program\":\"garbage that is not DFL\"}", codes::FRONTEND),
        (utf8_boundary, codes::FRONTEND),
        (&long_sum, codes::FRONTEND),
        (&deep_loops, codes::FRONTEND),
        ("{\"op\":\"ping\"}", "pong"),
    ];
    let svc = service();
    for (line, want) in cases {
        let response = svc.handle_line(line);
        let got = code_of(&response);
        assert_eq!(&got, want, "request {line:?} answered {response}, wanted code {want}");
    }
    assert_eq!(
        svc.metrics().counter_with("recordd_requests_total", &[("code", codes::INTERNAL)]),
        0,
        "a hostile line panicked its handler"
    );
}

/// A valid request round-trips: the response carries the echoed id,
/// the kernel name, a non-empty listing, and plausible size stats.
#[test]
fn valid_compile_round_trips() {
    let svc = service();
    let mut line =
        String::from("{\"id\":\"req-7\",\"target\":\"tic25\",\"plan\":\"o2\",\"program\":");
    json::push_str_lit(&mut line, FIR);
    line.push('}');
    let response = svc.handle_line(&line);
    let value = json::parse(&response).unwrap();
    assert_eq!(value.get("code").and_then(json::Value::as_str), Some("ok"), "{response}");
    assert_eq!(value.get("id").and_then(json::Value::as_str), Some("req-7"));
    assert_eq!(value.get("kernel").and_then(json::Value::as_str), Some("fir"));
    assert!(value.get("words").and_then(json::Value::as_f64).unwrap_or(0.0) > 0.0);
    let asm = value.get("asm").and_then(json::Value::as_str).unwrap_or("");
    assert!(asm.contains("fir for tic25"), "listing missing: {response}");

    // the same request again is answered from the code cache, identically
    let warm = svc.handle_line(&line);
    let warm_value = json::parse(&warm).unwrap();
    assert_eq!(
        warm_value.get("asm").and_then(json::Value::as_str),
        Some(asm),
        "cached answer differs"
    );
}

/// Every wire response — success, error, and ping alike — carries a
/// server-minted request id in the pinned `r-` + 8 lowercase hex digit
/// format, unique per response. Log-correlation tooling greps for this
/// shape, so the format is part of the wire contract.
#[test]
fn every_response_carries_a_unique_pinned_rid() {
    let is_pinned_rid = |rid: &str| {
        rid.len() == 10
            && rid.starts_with("r-")
            && rid[2..].chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase())
    };
    let svc = service();
    let mut compile = String::from("{\"id\":\"c1\",\"program\":");
    json::push_str_lit(&mut compile, FIR);
    compile.push('}');
    let lines = [
        "{\"op\":\"ping\"}",
        compile.as_str(),
        "not json",
        "{\"target\":\"z80\",\"program\":\"p\"}",
    ];
    let mut seen = Vec::new();
    for line in lines {
        let response = svc.handle_line(line);
        let value = json::parse(&response).unwrap();
        let rid = value
            .get("rid")
            .and_then(json::Value::as_str)
            .unwrap_or_else(|| panic!("response has no rid: {response}"))
            .to_string();
        assert!(is_pinned_rid(&rid), "rid {rid:?} is not r- + 8 lowercase hex: {response}");
        assert!(!seen.contains(&rid), "rid {rid:?} repeated");
        seen.push(rid);
    }
    // the rid is also how the response joins the flight ring
    let recorded: Vec<String> = svc.flight().snapshot().into_iter().map(|r| r.rid).collect();
    assert_eq!(recorded, seen, "wire rids and flight-ring rids must match one-to-one");
}

/// Plan presets are distinct sessions: `o0` output is larger than `o2`
/// for a kernel the optimizer improves, and `default` aliases `o2`.
#[test]
fn plan_presets_route_to_distinct_pipelines() {
    let biquad =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/dfl/biquad.dfl"))
            .expect("example kernel exists");
    let svc = service();
    let request = |plan: &str| {
        let mut line = format!("{{\"plan\":\"{plan}\",\"program\":");
        json::push_str_lit(&mut line, &biquad);
        line.push('}');
        let response = svc.handle_line(&line);
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("code").and_then(json::Value::as_str), Some("ok"), "{response}");
        value.get("words").and_then(json::Value::as_f64).unwrap()
    };
    let o0 = request("o0");
    let o2 = request("o2");
    let default = request("default");
    assert!(o0 > o2, "O0 ({o0} words) should be larger than O2 ({o2} words)");
    assert!((default - o2).abs() < f64::EPSILON, "default must alias o2");
}

/// The full daemon lifecycle over a real socket: serve good traffic,
/// raw non-UTF-8 bytes, and an oversized line concurrently, then drain
/// gracefully and account for everything in the report.
#[test]
fn socket_lifecycle_serves_and_drains() {
    let _serial = SOCKET_TESTS.lock().unwrap();
    record_serve::signals::reset();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 8,
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());

    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
    };
    let roundtrip = |line: &[u8]| -> String {
        let mut stream = connect();
        stream.write_all(line).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    };

    // a pipelined connection: ping, compile, garbage — three responses
    {
        let mut stream = connect();
        let mut compile = String::from("{\"id\":\"c1\",\"program\":");
        json::push_str_lit(&mut compile, FIR);
        compile.push('}');
        stream
            .write_all(
                format!("{{\"op\":\"ping\",\"id\":\"p1\"}}\n{compile}\nnonsense\n").as_bytes(),
            )
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim_end().to_string());
        }
        assert_eq!(code_of(&lines[0]), "pong");
        assert_eq!(code_of(&lines[1]), "ok");
        assert_eq!(code_of(&lines[2]), codes::BAD_REQUEST);
    }

    // raw non-UTF-8 bytes get a structured rejection, not a hang
    assert_eq!(code_of(&roundtrip(&[0xFF, 0xFE, b'{', 0xC3, 0x28])), codes::BAD_REQUEST);

    // a line over the cap is rejected while being read, then closed
    {
        let mut stream = connect();
        let chunk = vec![b'x'; 1 << 16];
        for _ in 0..18 {
            if stream.write_all(&chunk).is_err() {
                break; // server already rejected and closed: acceptable
            }
        }
        let _ = stream.write_all(b"\n");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        if reader.read_line(&mut response).is_ok() && !response.trim_end().is_empty() {
            assert_eq!(code_of(response.trim_end()), codes::TOO_LARGE);
        }
    }

    // HTTP façade: metrics and health on the same port
    {
        let mut stream = connect();
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
            body.push_str(&line);
            line.clear();
        }
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("recordd_requests_total"), "{body}");
        assert!(body.ends_with('\n'), "exposition must end with a newline");
    }

    record_serve::signals::request_shutdown();
    let report = handle.join().expect("the server thread must not panic");
    record_serve::signals::reset();
    assert!(report.connections >= 4, "{report:?}");
    assert!(report.requests >= 5, "{report:?}");
    assert_eq!(report.connection_panics, 0, "{report:?}");
}

/// The three introspection endpoints answer valid documents *while*
/// compile requests are in flight: `/trace` is one Chrome-trace JSON
/// object, `/requests` is one JSONL line per resident record, and
/// `/stats` is structured JSON with the latency quantiles.
#[test]
fn introspection_endpoints_stay_valid_under_live_traffic() {
    let _serial = SOCKET_TESTS.lock().unwrap();
    record_serve::signals::reset();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 8,
        read_timeout: Duration::from_millis(500),
        flight_capacity: 16,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());

    let http_get = |path: &str| -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).unwrap();
        let mut raw = String::new();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
            raw.push_str(&line);
            line.clear();
        }
        let (head, body) = raw.split_once("\r\n\r\n").expect("response has a header block");
        (head.to_string(), body.to_string())
    };

    // keep compile traffic flowing from another thread while we poll
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut compile = String::from("{\"id\":\"live\",\"program\":");
            json::push_str_lit(&mut compile, FIR);
            compile.push('}');
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                stream.write_all(compile.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                assert_eq!(code_of(response.trim_end()), "ok");
            }
        });

        for _ in 0..3 {
            let (head, body) = http_get("/trace");
            assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
            assert!(head.contains("application/json"), "{head}");
            json::validate(&body).unwrap_or_else(|e| panic!("/trace invalid ({e}): {body}"));
            assert!(body.contains("traceEvents"), "{body}");

            let (head, body) = http_get("/requests");
            assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
            assert!(head.contains("application/x-ndjson"), "{head}");
            json::validate_jsonl(&body)
                .unwrap_or_else(|e| panic!("/requests invalid ({e}): {body}"));

            let (head, body) = http_get("/stats");
            assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
            json::validate(&body).unwrap_or_else(|e| panic!("/stats invalid ({e}): {body}"));
            let stats = json::parse(&body).unwrap();
            assert!(stats.get("flight").is_some(), "{body}");
            assert!(stats.get("request_latency_us").and_then(|v| v.get("p99")).is_some(), "{body}");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // by now at least one compile answered, so the ring is non-empty
    // and its records show up on /requests with the pinned rid shape
    let (_, body) = http_get("/requests");
    let first = json::parse(body.lines().next().expect("ring is non-empty")).unwrap();
    let rid = first.get("rid").and_then(json::Value::as_str).unwrap_or("");
    assert!(rid.starts_with("r-") && rid.len() == 10, "bad rid on /requests: {body}");

    record_serve::signals::request_shutdown();
    let report = handle.join().expect("the server thread must not panic");
    record_serve::signals::reset();
    assert_eq!(report.connection_panics, 0, "{report:?}");
    assert!(report.requests >= 1, "{report:?}");
    assert!(report.request_p99_us > 0.0, "drain report carries quantiles: {report:?}");
}
