//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions, by the client thread that makes the calls.
//! Each span has a name, the id of the request it belongs to, a parent,
//! start and end times in nanoseconds, and the work slice it ran in (so
//! its duration can be calibrated). Spans stay in memory; the run writes
//! them out at the end as a Chrome trace-event document.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Request id, unique within the run: client lane in the top bits,
    /// the lane's request counter below.
    pub rid: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the program the request compiled.
    pub program: usize,
    /// Work slice the request ran in.
    pub slice: usize,
    /// Client lane that recorded the span.
    pub lane: usize,
    /// Duration minus the time covered by child spans (filled by
    /// [`Recorder::finish`]).
    pub self_ns: u64,
}

/// A per-client recorder; `enabled == false` makes every call a branch.
pub struct Recorder {
    epoch: Instant,
    lane: usize,
    enabled: bool,
    next_rid: u64,
    rid: u64,
    program: usize,
    slice: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, lane: usize) -> Self {
        Recorder {
            epoch,
            lane,
            enabled: false,
            next_rid: 0,
            rid: 0,
            program: 0,
            slice: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new request: later spans carry a fresh request id.
    pub fn begin_request(&mut self, program: usize, slice: usize) {
        self.next_rid += 1;
        self.rid = ((self.lane as u64) << 48) | self.next_rid;
        self.program = program;
        self.slice = slice;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            rid: self.rid,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            program: self.program,
            slice: self.slice,
            lane: self.lane,
            self_ns: 0,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn close(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let ix = self.stack.pop().expect("close matches an open span");
        let end_ns = self.now_ns();
        let span = &mut self.spans[ix];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Renames the innermost open span (for outcomes known only after
    /// the call, such as a cache hit or miss).
    pub fn rename(&mut self, name: &'static str) {
        if let Some(&ix) = self.stack.last() {
            self.spans[ix].name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Hands the spans over with self times filled in.
    pub fn finish(&mut self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span is closed before the recorder finishes");
        let mut spans = std::mem::take(&mut self.spans);
        let mut child_ns = vec![0u64; spans.len()];
        for span in &spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        for (span, covered) in spans.iter_mut().zip(child_ns) {
            span.self_ns = (span.end_ns - span.start_ns).saturating_sub(covered);
        }
        spans
    }
}

/// Concatenates the recorders' spans, rebasing parent indices onto the
/// merged vector.
pub fn merge(lanes: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all: Vec<Span> = Vec::with_capacity(lanes.iter().map(Vec::len).sum());
    for lane in lanes {
        let offset = all.len();
        all.extend(lane.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    all
}

/// Renders merged spans as a Chrome trace-event document
/// (`chrome://tracing`, Perfetto). Times are microseconds with nanosecond
/// fractions; every event carries its request id, its own index, its
/// parent's index and its self time in `args`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"");
    out.push_str(workload);
    out.push_str("\"},\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"rid\":\"r-{:x}\",\"span\":{i},\
             \"parent\":{parent},\"program\":{},\"slice\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.lane + 1,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.rid,
            s.program,
            s.slice,
            s.self_ns as f64 / 1e3,
        );
    }
    out.push_str("]}");
    out
}
