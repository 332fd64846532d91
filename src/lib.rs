//! Umbrella crate for the RECORD reproduction workspace.
pub mod fuzz;
pub mod programs;

pub use record as compiler;
pub use record_burg as burg;
pub use record_dspstone as dspstone;
pub use record_ir as ir;
pub use record_isa as isa;
pub use record_ise as ise;
pub use record_opt as opt;
pub use record_sim as sim;
