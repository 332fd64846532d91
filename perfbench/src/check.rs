//! Output checks: every compiled or served program against an in-process
//! reference, and every distinct program against the kernels' own
//! reference implementations on the simulator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use record::Session;
use record_dspstone::Kernel;
use record_ir::Symbol;
use record_isa::{Code, TargetDesc};
use record_trace::json;

use crate::workload::{self, Kind, Program};

/// Every this-many-th serve-miss response is recompiled in-process and
/// simulated; every other one is checked for status and kernel name.
const MISS_CHECK_EVERY: u64 = 16;

/// Runs the kernel's code on the simulator with `Kernel::inputs(seed)`
/// and compares every output with the kernel's reference
/// implementation. Returns the cycles taken.
pub fn simulate(
    code: &Code,
    target: &TargetDesc,
    kernel: &Kernel,
    seed: u64,
) -> Result<u64, String> {
    let inputs = kernel.inputs(seed);
    let (outputs, run) = record_sim::run_program(code, target, &inputs)
        .map_err(|e| format!("{} on {}: simulation failed: {e}", kernel.name, target.name))?;
    let want = kernel.reference(&inputs);
    for (name, len) in kernel.outputs() {
        let sym = Symbol::new(*name);
        let got = outputs.get(&sym).map(|v| &v[..(*len).min(v.len())]);
        if got != want.get(&sym).map(Vec::as_slice) {
            return Err(format!(
                "{} on {}: output `{name}` is {got:?}, reference {:?}",
                kernel.name,
                target.name,
                want.get(&sym)
            ));
        }
    }
    Ok(run.cycles)
}

pub fn json_field<'v>(value: &'v json::Value, key: &str) -> Option<&'v str> {
    value.get(key).and_then(json::Value::as_str)
}

/// What a request returned.
pub enum Reply<'r> {
    Code(&'r Code),
    /// Code from the stage-by-stage compile, which must render byte for
    /// byte like the reference.
    Staged(&'r Code),
    Line(&'r str),
    Failed(String),
}

/// Checks completed requests; shared by the client threads.
pub struct Checker<'a> {
    kind: Kind,
    programs: &'a [Program],
    expected: &'a [Code],
    renders: &'a [String],
    /// Compiles serve-miss programs in-process the way the daemon does.
    reference: &'a Session,
    seed: u64,
    misses_seen: AtomicU64,
    /// The first few failures, for the report.
    pub errors: Mutex<Vec<String>>,
}

impl<'a> Checker<'a> {
    pub fn new(
        kind: Kind,
        programs: &'a [Program],
        expected: &'a [Code],
        renders: &'a [String],
        reference: &'a Session,
        seed: u64,
    ) -> Self {
        Checker {
            kind,
            programs,
            expected,
            renders,
            reference,
            seed,
            misses_seen: AtomicU64::new(0),
            errors: Mutex::new(Vec::new()),
        }
    }

    /// Whether the reply to a request for `program` (salted with `salt`
    /// on serve-miss) is correct; failures are remembered.
    pub fn check(&self, program: usize, salt: Option<u64>, reply: Reply<'_>) -> bool {
        let verdict = self.verdict(program, salt, reply);
        if let Err(e) = &verdict {
            let mut errors = self.errors.lock().expect("error list lock (no panics while held)");
            if errors.len() < 5 {
                errors.push(e.clone());
            }
        }
        verdict.is_ok()
    }

    fn verdict(&self, index: usize, salt: Option<u64>, reply: Reply<'_>) -> Result<(), String> {
        let program = &self.programs[index];
        let name = program.kernel.name;
        let line = match (reply, self.kind) {
            (Reply::Failed(e), _) => return Err(format!("{name}: {e}")),
            (Reply::Code(code), Kind::Compile) if *code == self.expected[index] => return Ok(()),
            (Reply::Staged(code), _) if code.render() == self.renders[index] => return Ok(()),
            (Reply::Code(_) | Reply::Staged(_), _) => return Err(format!("{name}: code differs")),
            (Reply::Line(line), Kind::ServeHit | Kind::ServeMiss) => line,
            _ => return Err(format!("{name}: unexpected reply kind")),
        };
        let value = json::parse(line.trim_end()).map_err(|e| format!("{name}: bad reply: {e}"))?;
        if json_field(&value, "status") != Some("ok") {
            return Err(format!("{name}: {}", line.trim_end()));
        }
        let asm = json_field(&value, "asm").unwrap_or("");
        match (self.kind, salt) {
            (Kind::ServeHit, _) => {
                if asm != self.renders[index] {
                    return Err(format!("{name}: served asm differs from the in-process render"));
                }
            }
            (_, Some(salt)) => {
                if json_field(&value, "kernel") != Some(name) {
                    return Err(format!("{name}: reply names another kernel"));
                }
                if (self.misses_seen.fetch_add(1, Ordering::Relaxed) + 1) % MISS_CHECK_EVERY == 0 {
                    let source = workload::salted(&program.source, salt);
                    let code = self
                        .reference
                        .compile_source(&program.target, &source)
                        .map_err(|e| format!("{name}: in-process compile failed: {e}"))?;
                    if code.render() != asm {
                        return Err(format!(
                            "{name}: served asm differs from the in-process render"
                        ));
                    }
                    simulate(&code, &program.target, &program.kernel, self.seed)?;
                }
            }
            _ => return Err(format!("{name}: serve-miss request without a salt")),
        }
        Ok(())
    }
}
