//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order. The
//! codec is deliberately tiny — it reuses [`record_trace::json`] for
//! parsing and string escaping, so the daemon adds no serialization
//! dependency. Every malformed input maps to a *documented* error code
//! (the table in `README.md`); nothing in this module panics on
//! hostile bytes.
//!
//! ```text
//! → {"op":"compile","id":"r1","target":"tic25","plan":"o2","deadline_ms":500,"program":"..."}
//! ← {"id":"r1","rid":"r-0000002a","status":"ok","code":"ok","target":"tic25","kernel":"fir","words":12,"insns":9,"elapsed_us":431,"asm":"..."}
//! ← {"id":"r1","rid":"r-0000002b","status":"error","code":"deadline","message":"..."}
//! ```
//!
//! `id` is the client's correlation id, echoed verbatim; `rid` is the
//! *server's* request id (`r-` + 8 hex digits), present on **every**
//! response — successes, errors, sheds, pings — and in the daemon's
//! access log and flight recorder, so a client-reported failure joins
//! against server-side records by `rid` alone.

use record::CompileError;
use record_trace::json::{self, Value};

/// Hard cap on one request line, bytes, including the newline. Longer
/// lines are rejected with [`codes::TOO_LARGE`] and the connection is
/// closed (the stream cannot be re-synchronized), which is the
/// allocation-bomb defense: the server never buffers more than this
/// per connection.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Cap on the DFL `program` field inside an otherwise valid request.
pub const MAX_PROGRAM_BYTES: usize = 256 * 1024;

/// The documented error-code vocabulary. Everything the daemon can say
/// went wrong is one of these strings; clients switch on them, so they
/// are API and pinned by `tests/serve.rs`.
pub mod codes {
    /// Admission queue full — retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// Request line or program exceeded a size cap.
    pub const TOO_LARGE: &str = "too-large";
    /// Unparseable JSON, wrong shape, or an unknown `op`.
    pub const BAD_REQUEST: &str = "bad-request";
    /// `target` names no known target.
    pub const UNKNOWN_TARGET: &str = "unknown-target";
    /// `plan` names no known pass-plan preset.
    pub const UNKNOWN_PLAN: &str = "unknown-plan";
    /// The `program` field is empty.
    pub const EMPTY_PROGRAM: &str = "empty-program";
    /// The wall-clock deadline expired (before or during compilation).
    pub const DEADLINE: &str = "deadline";
    /// A fault-injection panic (never emitted with faults off).
    pub const INJECTED: &str = "injected";
    /// A real pass panic — the bug class the soak gate hunts.
    pub const INTERNAL: &str = "internal";
    /// DFL parse / lowering error.
    pub const FRONTEND: &str = "frontend";
    /// No instruction cover for a statement on this target.
    pub const UNCOVERABLE: &str = "uncoverable";
    /// Register class exhausted.
    pub const OUT_OF_REGISTERS: &str = "out-of-registers";
    /// Data layout error.
    pub const LAYOUT: &str = "layout";
    /// Address assignment error.
    pub const ADDRESS: &str = "address";
    /// The target description itself is invalid.
    pub const TARGET: &str = "target";
    /// A pass failed strict verification.
    pub const VERIFY: &str = "verify";
    /// A non-deadline resource budget was exhausted.
    pub const BUDGET: &str = "budget";
}

/// What the client asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Compile the carried DFL program.
    Compile,
    /// Liveness probe; answered with `{"status":"ok","code":"pong"}`.
    Ping,
}

/// A parsed, size-checked request. Target/plan names are still raw
/// strings here — resolution (and its error codes) happens in the
/// service layer so the codec stays I/O- and policy-free.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// The operation.
    pub op: Op,
    /// Target name (same vocabulary as `recordc --target`).
    pub target: String,
    /// Pass-plan preset: `default`, `o0`, `o1`, `o2` (case-insensitive).
    pub plan: String,
    /// Per-request wall-clock budget in milliseconds; the server default
    /// applies when absent.
    pub deadline_ms: Option<u64>,
    /// The DFL source text.
    pub program: String,
}

/// A protocol-level rejection: the documented code plus a human
/// message, carrying whatever `id` could be salvaged from the request.
#[derive(Clone, Debug)]
pub struct ProtoError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable detail (never parsed by clients).
    pub message: String,
    /// The request id when one was readable, else empty.
    pub id: String,
}

impl ProtoError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtoError { code, message: message.into(), id: String::new() }
    }
}

/// Parses one request line. Every failure is a [`ProtoError`] with a
/// documented code — hostile bytes never panic and never escape as an
/// unlabeled error.
///
/// # Errors
///
/// [`codes::BAD_REQUEST`] for unparseable JSON / wrong shapes /
/// unknown ops, [`codes::TOO_LARGE`] when the program field exceeds
/// [`MAX_PROGRAM_BYTES`], [`codes::EMPTY_PROGRAM`] for a whitespace
/// only program on a compile op.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let value = json::parse(line)
        .map_err(|e| ProtoError::new(codes::BAD_REQUEST, format!("malformed JSON: {e}")))?;
    let Value::Object(_) = &value else {
        return Err(ProtoError::new(codes::BAD_REQUEST, "request must be a JSON object"));
    };
    let id = field_str(&value, "id").unwrap_or("").to_string();
    let with_id = |mut e: ProtoError| {
        e.id.clone_from(&id);
        e
    };

    let op = match field_str(&value, "op").unwrap_or("compile") {
        "compile" => Op::Compile,
        "ping" => Op::Ping,
        other => {
            return Err(with_id(ProtoError::new(
                codes::BAD_REQUEST,
                format!("unknown op `{}`", clip(other, 64)),
            )));
        }
    };
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(v) => match v.as_f64() {
            Some(ms) if ms.is_finite() && ms >= 0.0 => Some(ms.min(86_400_000.0) as u64),
            _ => {
                return Err(with_id(ProtoError::new(
                    codes::BAD_REQUEST,
                    "deadline_ms must be a non-negative number",
                )));
            }
        },
    };
    let program = field_str(&value, "program").unwrap_or("").to_string();
    if op == Op::Compile {
        if program.len() > MAX_PROGRAM_BYTES {
            return Err(with_id(ProtoError::new(
                codes::TOO_LARGE,
                format!("program is {} bytes (cap {MAX_PROGRAM_BYTES})", program.len()),
            )));
        }
        if program.trim().is_empty() {
            return Err(with_id(ProtoError::new(codes::EMPTY_PROGRAM, "program field is empty")));
        }
    }
    Ok(Request {
        id,
        op,
        target: field_str(&value, "target").unwrap_or("tic25").to_string(),
        plan: field_str(&value, "plan").unwrap_or("default").to_string(),
        deadline_ms,
        program,
    })
}

fn field_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

fn clip(s: &str, max: usize) -> &str {
    let mut end = s.len().min(max);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Maps a [`CompileError`] onto the wire vocabulary. Budget errors
/// whose resource is `deadline` become [`codes::DEADLINE`]; a panic
/// whose payload carries the fault-injection marker becomes
/// [`codes::INJECTED`] so the soak gate can require zero *real*
/// internals while faults are being forced.
pub fn error_code(e: &CompileError) -> &'static str {
    match e {
        CompileError::Frontend(_) => codes::FRONTEND,
        CompileError::Uncoverable { .. } => codes::UNCOVERABLE,
        CompileError::OutOfRegisters { .. } => codes::OUT_OF_REGISTERS,
        CompileError::Layout(_) => codes::LAYOUT,
        CompileError::Address(_) => codes::ADDRESS,
        CompileError::Target(_) => codes::TARGET,
        CompileError::Verify { .. } => codes::VERIFY,
        CompileError::Internal { message, .. } => {
            if message.contains(crate::faults::FAULT_MARKER) {
                codes::INJECTED
            } else {
                codes::INTERNAL
            }
        }
        CompileError::Budget { resource, .. } => {
            if resource == "deadline" {
                codes::DEADLINE
            } else {
                codes::BUDGET
            }
        }
    }
}

/// Renders the success response line (without the trailing newline).
/// `rid` is the server-assigned request id (see the module docs).
#[allow(clippy::too_many_arguments)]
pub fn ok_response(
    id: &str,
    rid: &str,
    target: &str,
    kernel: &str,
    words: u32,
    insns: usize,
    elapsed_us: u64,
    asm: &str,
) -> String {
    let mut out = String::with_capacity(asm.len() + 128);
    out.push_str("{\"id\":");
    json::push_str_lit(&mut out, id);
    out.push_str(",\"rid\":");
    json::push_str_lit(&mut out, rid);
    out.push_str(",\"status\":\"ok\",\"code\":\"ok\",\"target\":");
    json::push_str_lit(&mut out, target);
    out.push_str(",\"kernel\":");
    json::push_str_lit(&mut out, kernel);
    out.push_str(&format!(",\"words\":{words},\"insns\":{insns},\"elapsed_us\":{elapsed_us}"));
    out.push_str(",\"asm\":");
    json::push_str_lit(&mut out, asm);
    out.push('}');
    debug_assert!(json::validate(&out).is_ok());
    out
}

/// Renders an error response line (without the trailing newline).
/// `rid` is the server-assigned request id (see the module docs).
pub fn error_response(id: &str, rid: &str, code: &str, message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 64);
    out.push_str("{\"id\":");
    json::push_str_lit(&mut out, id);
    out.push_str(",\"rid\":");
    json::push_str_lit(&mut out, rid);
    out.push_str(",\"status\":\"error\",\"code\":");
    json::push_str_lit(&mut out, code);
    out.push_str(",\"message\":");
    json::push_str_lit(&mut out, message);
    out.push('}');
    debug_assert!(json::validate(&out).is_ok());
    out
}

/// Renders the ping response line. `rid` is the server-assigned
/// request id (see the module docs).
pub fn pong(id: &str, rid: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"id\":");
    json::push_str_lit(&mut out, id);
    out.push_str(",\"rid\":");
    json::push_str_lit(&mut out, rid);
    out.push_str(",\"status\":\"ok\",\"code\":\"pong\"}");
    out
}
