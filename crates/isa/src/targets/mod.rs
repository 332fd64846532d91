//! Concrete processor models.
//!
//! * [`tic25`] — a TMS320C25-like fixed-point DSP core (the Table 1 target),
//! * [`dsp56k`] — a dual-bank, parallel-move DSP in the Motorola 56000 mould,
//! * [`simple_risc`] — a homogeneous load/store RISC core.
//!
//! The parametric ASIPs of Section 4.2 are points of the processor cube
//! ([`crate::cube::CubeParams`]).

pub mod dsp56k;
pub mod simple_risc;
pub mod tic25;
