//! The closed-loop clients: in-process compiles and `recordd` connections.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use record::Session;

use crate::calib::splitmix64;
use crate::check::{Checker, Reply};
use crate::layers::{self, Replayer};
use crate::phase::{Client, Sample, SliceOut, Window};
use crate::trace::{Recorder, Span};
use crate::workload::{self, Program};

/// What every client of one run shares.
pub struct Shared<'a> {
    pub programs: &'a [Program],
    /// One request line per program (unsalted).
    pub lines: &'a [String],
    pub checker: &'a Checker<'a>,
    /// Present in traced runs.
    pub replayer: Option<&'a Replayer>,
}

impl Shared<'_> {
    /// Checks one reply after its request's clock stopped.
    fn record(
        &self,
        out: &mut SliceOut,
        program: usize,
        started: Instant,
        ns: u64,
        window: &Window,
        check: impl FnOnce() -> bool,
    ) {
        let t = Instant::now();
        let ok = check();
        out.check_ns += t.elapsed().as_nanos() as u64;
        out.samples.push(Sample {
            program: u16::try_from(program).expect("fewer than 65536 programs"),
            ns: u32::try_from(ns).unwrap_or(u32::MAX),
            ok,
            timed: started >= window.settled,
        });
    }
}

fn pick(rng: &mut u64, n: usize) -> usize {
    (splitmix64(rng) % n as u64) as usize
}

/// In-process compiles through one `Session` (no code cache).
pub struct CompileClient<'a> {
    shared: &'a Shared<'a>,
    session: &'a Session,
    rng: u64,
    rec: Recorder,
}

impl<'a> CompileClient<'a> {
    pub fn new(shared: &'a Shared<'a>, session: &'a Session, seed: u64, rec: Recorder) -> Self {
        CompileClient { shared, session, rng: seed, rec }
    }
}

impl Client for CompileClient<'_> {
    fn run_slice(&mut self, window: &Window, out: &mut SliceOut) {
        let shared = self.shared;
        self.rec.set_enabled(window.traced);
        while Instant::now() < window.end {
            let index = pick(&mut self.rng, shared.programs.len());
            let program = &shared.programs[index];
            let t = Instant::now();
            let Some(replayer) = shared.replayer.filter(|_| self.rec.is_enabled()) else {
                let result = self.session.compile_source(&program.target, &program.source);
                let ns = t.elapsed().as_nanos() as u64;
                shared.record(out, index, t, ns, window, || {
                    let reply =
                        result.as_ref().map_or_else(|e| Reply::Failed(e.to_string()), Reply::Code);
                    shared.checker.check(index, None, reply)
                });
                continue;
            };
            // the request path, one layer per span
            self.rec.begin_request(index, window.slice);
            self.rec.open("request");
            let staged = layers::staged_compile(
                &mut self.rec,
                &replayer.compilers[index],
                &replayer.plan,
                &program.source,
            );
            let ns = self.rec.close();
            // the layers off the path, replayed on the same program
            let replayed = staged.as_ref().map_err(Clone::clone).and_then(|s| {
                let line = &shared.lines[index];
                replayer.replay(&mut self.rec, program, index, &program.source, line, Some(s))
            });
            shared.record(out, index, t, ns, window, || {
                let reply = match (&staged, replayed) {
                    (Ok(s), Ok(())) => Reply::Staged(&s.code),
                    (Err(e), _) => Reply::Failed(e.clone()),
                    (Ok(_), Err(e)) => Reply::Failed(e),
                };
                shared.checker.check(index, None, reply)
            });
        }
    }

    fn take_spans(&mut self) -> Vec<Span> {
        self.rec.finish()
    }
}

/// One persistent `recordd` connection.
pub struct SocketClient<'a> {
    shared: &'a Shared<'a>,
    addr: SocketAddr,
    /// Source of serve-miss salts, unique across the run's clients.
    salts: Option<&'a AtomicU64>,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
    rng: u64,
    rec: Recorder,
    reply: String,
}

impl<'a> SocketClient<'a> {
    pub fn connect(
        shared: &'a Shared<'a>,
        addr: SocketAddr,
        salts: Option<&'a AtomicU64>,
        seed: u64,
        rec: Recorder,
    ) -> io::Result<Self> {
        let conn = Some(open(addr)?);
        Ok(SocketClient { shared, addr, salts, conn, rng: seed, rec, reply: String::new() })
    }

    /// Writes the request in one write and reads one response line;
    /// reconnects on the next request after a failure.
    fn round_trip(&mut self, wire: &[u8]) -> io::Result<()> {
        if self.conn.is_none() {
            self.conn = Some(open(self.addr)?);
        }
        let (reader, writer) = self.conn.as_mut().expect("connection just opened");
        self.reply.clear();
        let result = writer.write_all(wire).and_then(|()| reader.read_line(&mut self.reply));
        match result {
            Ok(_) if self.reply.ends_with('\n') => Ok(()),
            Ok(_) => {
                self.conn = None;
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-reply"))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

fn open(addr: SocketAddr) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

impl Client for SocketClient<'_> {
    fn run_slice(&mut self, window: &Window, out: &mut SliceOut) {
        let shared = self.shared;
        self.rec.set_enabled(window.traced);
        while Instant::now() < window.end {
            let index = pick(&mut self.rng, shared.programs.len());
            let program = &shared.programs[index];
            let salt = self.salts.map(|s| s.fetch_add(1, Ordering::Relaxed));
            let (source, line) = match salt {
                None => (program.source.clone(), shared.lines[index].clone()),
                Some(salt) => {
                    let source = workload::salted(&program.source, salt);
                    let line =
                        workload::request_line(&format!("m{salt}"), program.target_name, &source);
                    (source, line)
                }
            };
            let mut wire = Vec::with_capacity(line.len() + 1);
            wire.extend_from_slice(line.as_bytes());
            wire.push(b'\n');

            self.rec.begin_request(index, window.slice);
            self.rec.open("request");
            let t = Instant::now();
            let result = self.round_trip(&wire);
            let ns = t.elapsed().as_nanos() as u64;
            self.rec.close();

            let replayed = match shared.replayer.filter(|_| self.rec.is_enabled()) {
                Some(replayer) => {
                    replayer.replay(&mut self.rec, program, index, &source, &line, None)
                }
                None => Ok(()),
            };
            let reply = &self.reply;
            shared.record(out, index, t, ns, window, || {
                let reply = match (result, replayed) {
                    (Ok(()), Ok(())) => Reply::Line(reply),
                    (Err(e), _) => Reply::Failed(e.to_string()),
                    (_, Err(e)) => Reply::Failed(e),
                };
                shared.checker.check(index, salt, reply)
            });
        }
    }

    fn take_spans(&mut self) -> Vec<Span> {
        self.rec.finish()
    }
}
