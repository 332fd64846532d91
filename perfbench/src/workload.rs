//! The four workloads and the programs they compile.

use record::{Budgets, PassPlan};
use record_dspstone::Kernel;
use record_isa::TargetDesc;
use record_trace::json;

/// How a workload drives the compiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// In-process `Session::compile_source`, no code cache, one client.
    Compile,
    /// `recordd` over loopback TCP; every request hits the code cache.
    ServeHit,
    /// `recordd` over loopback TCP; every request is a new program.
    ServeMiss,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub targets: &'static [&'static str],
    /// Closed-loop client threads (each with one connection when serving).
    pub clients: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload { name: "dspstone-tic25", kind: Kind::Compile, targets: &["tic25"], clients: 1 },
    Workload { name: "dspstone-dsp56k", kind: Kind::Compile, targets: &["dsp56k"], clients: 1 },
    Workload { name: "serve-hit", kind: Kind::ServeHit, targets: &["tic25", "dsp56k"], clients: 2 },
    Workload {
        name: "serve-miss",
        kind: Kind::ServeMiss,
        targets: &["tic25", "dsp56k"],
        clients: 2,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn serves(&self) -> bool {
        self.kind != Kind::Compile
    }

    /// The pass plan every compile of this workload runs: O2 as a
    /// default `Session` builds it, or O2 as `recordd` configures it
    /// (service budgets, non-strict).
    pub fn plan(&self) -> PassPlan {
        match self.kind {
            Kind::Compile => PassPlan::o2(),
            Kind::ServeHit | Kind::ServeMiss => {
                PassPlan::o2().with_budgets(Budgets::service()).strict(false)
            }
        }
    }

    /// The distinct (kernel, target) programs, kernels in Table 1 order
    /// within each target.
    pub fn programs(&self) -> Result<Vec<Program>, String> {
        let mut out = Vec::new();
        for &target_name in self.targets {
            let target = record_serve::resolve_target(target_name)?;
            for kernel in record_dspstone::kernels() {
                out.push(Program {
                    kernel,
                    target_name,
                    target: target.clone(),
                    source: kernel.source.to_string(),
                });
            }
        }
        Ok(out)
    }
}

/// One DSPStone kernel on one target.
pub struct Program {
    pub kernel: Kernel,
    pub target_name: &'static str,
    pub target: TargetDesc,
    pub source: String,
}

/// Distinct salts: two byte-sized constants (dsp56k covers an immediate
/// store only up to 255).
pub const SALT_SPACE: u64 = 1 << 16;

/// The kernel with one extra variable and two extra statements, so every
/// salt below [`SALT_SPACE`] gives a program no cache has seen. Its
/// outputs are the kernel's.
pub fn salted(source: &str, salt: u64) -> String {
    let (hi, lo) = ((salt >> 8) & 0xFF, salt & 0xFF);
    let extra =
        format!("\nvar bench_salt: fix;\nbegin\n  bench_salt := {hi};\n  bench_salt := {lo};");
    source.replacen("\nbegin", &extra, 1)
}

/// A `recordd` compile request line (no trailing newline).
pub fn request_line(id: &str, target: &str, source: &str) -> String {
    let mut out = String::with_capacity(source.len() + 96);
    out.push_str("{\"op\":\"compile\",\"id\":");
    json::push_str_lit(&mut out, id);
    out.push_str(",\"target\":");
    json::push_str_lit(&mut out, target);
    out.push_str(",\"plan\":\"o2\",\"program\":");
    json::push_str_lit(&mut out, source);
    out.push('}');
    out
}
