//! Timed phases: closed-loop work slices alternating with calibration
//! slices.
//!
//! Each client runs on its own thread and sends its next request only
//! after the previous reply; it checks each reply after stopping that
//! request's clock, and the time spent checking is taken out of the
//! slice. When a work slice's time is up, every client finishes its
//! request in flight; then the calibration loop runs alone.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::calib::{process_cpu_ns, Calibrator, REFERENCE_PER_S};
use crate::trace::Span;

/// A closed-loop client.
pub trait Client: Send {
    /// Sends requests back to back until `window.end`, finishing the one
    /// in flight; in a traced window it records spans tagged with
    /// `window.slice` and replays each request's off-path layers.
    fn run_slice(&mut self, window: &Window, out: &mut SliceOut);
    /// The spans recorded so far.
    fn take_spans(&mut self) -> Vec<Span>;
}

/// Requests that start this soon after a work slice begins are checked
/// and counted, but their latency is not used: the calibration slice
/// before them evicted the compiler's working set from the caches, and
/// the first few compiles after it run 20-40% slow.
pub const SETTLE: Duration = Duration::from_millis(10);

/// The time a work slice gives its clients.
pub struct Window {
    pub slice: usize,
    pub traced: bool,
    /// Requests starting before this are not timed (see [`SETTLE`]).
    pub settled: Instant,
    pub end: Instant,
}

/// One checked request, packed into 8 bytes: a run keeps every sample,
/// and the store must not weigh in the peak memory it reports.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub program: u16,
    /// Raw latency, saturating at 4.29 s (far past any request deadline).
    pub ns: u32,
    pub ok: bool,
    /// Started after the slice settled: its latency counts.
    pub timed: bool,
}

/// What one client did in one slice.
#[derive(Default)]
pub struct SliceOut {
    pub samples: Vec<Sample>,
    /// Time spent checking replies (not part of any measurement).
    pub check_ns: u64,
}

/// One work slice and the calibration around it.
pub struct Slice {
    pub traced: bool,
    pub samples: Vec<Sample>,
    /// Wall time of the slice, drain included, checking excluded.
    pub work_ns: u64,
    /// Mean calibration rate of the calibration slices before and after.
    pub cal_rate: f64,
    /// Share of the clients' wall time the process spent on a CPU.
    pub cpu_share: f64,
}

/// Scale from raw to calibrated time for work that spent `cpu_share` of
/// its wall time on a CPU while the calibration loop ran at `cal_rate`.
/// Only the CPU-bound share is scaled: time spent waiting (on a socket
/// timer, say) does not speed up or slow down with the machine.
pub fn calibration_factor(cpu_share: f64, cal_rate: f64) -> f64 {
    1.0 + cpu_share * (cal_rate / REFERENCE_PER_S - 1.0)
}

impl Slice {
    pub fn factor(&self) -> f64 {
        calibration_factor(self.cpu_share, self.cal_rate)
    }
}

/// Runs `pairs` work slices of `slice_len`, each followed by a
/// calibration slice of the same length (and one calibration slice
/// before the first). Without a calibrator the slices run back to back
/// and every factor is 1 (the untimed warm-up). With `trace`, every
/// second slice is traced, so traced and untraced slices see the same
/// machine.
pub fn run_phase(
    clients: &mut [Box<dyn Client + '_>],
    mut calibrator: Option<&mut Calibrator>,
    pairs: usize,
    slice_len: Duration,
    trace: bool,
) -> Vec<Slice> {
    let lanes = clients.len();
    let mut slices = Vec::with_capacity(pairs);
    thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<Option<SliceOut>>();
        let mut controls = Vec::with_capacity(lanes);
        for client in clients.iter_mut() {
            let (tx, rx) = mpsc::channel::<Window>();
            controls.push(tx);
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                for window in rx {
                    // a panicking client reports `None` instead of leaving
                    // the coordinator waiting for its slice forever
                    let out = panic::catch_unwind(AssertUnwindSafe(|| {
                        let mut out = SliceOut::default();
                        client.run_slice(&window, &mut out);
                        out
                    }));
                    let failed = out.is_err();
                    if done_tx.send(out.ok()).is_err() || failed {
                        break;
                    }
                }
            });
        }
        drop(done_tx);
        let mut before = calibrator.as_deref_mut().map(|c| c.rate(slice_len));
        for i in 0..pairs {
            let (start, cpu_start) = (Instant::now(), process_cpu_ns());
            let traced = trace && i % 2 == 1;
            for tx in &controls {
                let window =
                    Window { slice: i, traced, settled: start + SETTLE, end: start + slice_len };
                tx.send(window).expect("client thread is running");
            }
            let (mut samples, mut check_ns) = (Vec::new(), 0u64);
            for _ in 0..lanes {
                let out = done_rx.recv().expect("client thread reports its slice");
                let out = out.expect("client thread panicked");
                samples.extend(out.samples);
                check_ns += out.check_ns;
            }
            let wall_ns = start.elapsed().as_nanos() as u64;
            let cpu_ns = match (cpu_start, process_cpu_ns()) {
                (Some(a), Some(b)) => Some(b.saturating_sub(a)),
                _ => None,
            };
            // checking is CPU work every lane did outside its requests
            let work_ns = wall_ns.saturating_sub(check_ns / lanes as u64).max(1);
            let cpu_share = cpu_ns.map_or(1.0, |cpu| {
                (cpu.saturating_sub(check_ns) as f64 / (work_ns * lanes as u64) as f64).min(1.0)
            });
            let after = calibrator.as_deref_mut().map(|c| c.rate(slice_len));
            let cal_rate = match (before, after) {
                (Some(b), Some(a)) => (a + b) / 2.0,
                _ => REFERENCE_PER_S,
            };
            slices.push(Slice { traced, samples, work_ns, cal_rate, cpu_share });
            before = after;
        }
        // dropping the senders ends the client threads; the scope joins
        drop(controls);
    });
    slices
}
